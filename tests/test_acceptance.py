"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import anglekit
from anglekit import (CodecConfig, DetectionRecord, Method, OrientedBox, analytic_errors,
                      average_precision, decode, empirical_errors, encode, evaluate,
                      head_thickness, ideal_prediction, ifl, omega, rotated_iou, rotated_nms,
                      run_gradient_checks, smooth_l1, to_corners, write_detections)
from helpers import (mc_iou_estimate, random_longside_box, reference_evaluate, reference_nms)

from test_evaluation import three_category_fixture


def report(number, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:02d} {status}: {description}{suffix}")
    assert ok, f"criterion {number} failed: {description}{suffix}"


def test_c01_table1_analytic_errors():
    start = time.perf_counter()
    ok = (
        analytic_errors(CodecConfig(Method.CSL, 180)) == (0.5, 0.25)
        and analytic_errors(CodecConfig(Method.DCL_BINARY, 256)) == (0.3515625, 0.17578125)
        and analytic_errors(CodecConfig(Method.DCL_GRAY, 256)) == (0.3515625, 0.17578125)
        and analytic_errors(CodecConfig(Method.REGRESSION)) == (0.0, 0.0)
        and analytic_errors(CodecConfig(Method.MGAR, 3)) == (0.0, 0.0)
    )
    elapsed = time.perf_counter() - start
    report(1, "closed-form encoding errors reproduce the published table exactly",
           ok and elapsed < 1.0, f"{elapsed:.3f}s")


def test_c02_empirical_error_sweeps():
    start = time.perf_counter()
    configs = [CodecConfig(Method.CSL, 180)]
    configs += [CodecConfig(Method.DCL_BINARY, c) for c in (32, 64, 128, 256)]
    configs.append(CodecConfig(Method.DCL_GRAY, 64))
    worst_gap = 0.0
    for config in configs:
        width = omega(config)
        got_max, got_mean = empirical_errors(config, 0.001)
        worst_gap = max(worst_gap, abs(got_max - width / 2), abs(got_mean - width / 4))
    elapsed = time.perf_counter() - start
    report(2, "0.001-degree sweeps match half-bin max and quarter-bin mean within 1e-3",
           worst_gap < 1e-3 and elapsed < 30.0,
           f"worst gap {worst_gap:.2e}, {elapsed:.1f}s")


def test_c03_table2_head_thickness():
    ok = (head_thickness(Method.CSL, 180, 9) == 1620
          and head_thickness(Method.DCL_BINARY, 32, 9) == 45
          and head_thickness(Method.MGAR, 3, 9) == 36)
    report(3, "prediction-layer thickness reproduces the published integers", ok)


def test_c04_mgar_roundtrip_million():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for c_theta in (3, 4, 5):
        config = CodecConfig(Method.MGAR, c_theta)
        for theta in rng.uniform(0.0, 180.0, size=1_000_000):
            decoded = decode(ideal_prediction(encode(theta, config), config), config)
            err = abs(decoded - theta)
            if err > worst:
                worst = err
    report(4, "MGAR decode(encode(theta)) is lossless over 1e6 angles per bin count",
           worst < 1e-9, f"max error {worst:.2e}")


def test_c05_rotated_iou_monte_carlo():
    start = time.perf_counter()
    exact_ok = (
        abs(rotated_iou(OrientedBox(0, 0, 2, 1, 45), OrientedBox(0, 0, 2, 1, 45)) - 1.0) < 1e-9
        and abs(rotated_iou(OrientedBox(0, 0, 2, 1, 0), OrientedBox(1, 0, 2, 1, 0)) - 1 / 3) < 1e-9
        and abs(rotated_iou(OrientedBox(0, 0, 2, 1, 0), OrientedBox(0, 0, 2, 1, 90)) - 1 / 3) < 1e-9
    )
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(200):
        a = random_longside_box(rng, span=1.0)
        b = random_longside_box(rng, span=1.0)
        estimate = mc_iou_estimate(a, b, 1_000_000, rng)
        worst = max(worst, abs(rotated_iou(a, b) - estimate))
    elapsed = time.perf_counter() - start
    report(5, "rotated IoU matches 1e6-sample Monte-Carlo estimates within 2e-3",
           exact_ok and worst < 2e-3 and elapsed < 60.0,
           f"worst gap {worst:.2e}, {elapsed:.1f}s")


def test_c06_gradient_checks():
    results = run_gradient_checks(seed=0, points=100)
    expected = {"smooth_l1", "mse", "ifl", "focal", "cross_entropy", "giou_location"}
    worst = max(r.max_relative_error for r in results.values())
    report(6, "every analytic gradient matches central differences within 1e-4",
           set(results) == expected and worst < 1e-4, f"worst rel err {worst:.2e}")


def test_c07_ifl_reweighting():
    # smooth_l1(1.5, 0) is exactly 1, so the loss value is the weight itself.
    base = smooth_l1(1.5, 0.0)
    weight_at_one = ifl(1.5, 0.0, 1.0)
    weight_at_inv_e = ifl(1.5, 0.0, math.exp(-1.0))
    grid = np.linspace(1e-6, 1.0, 1000)
    weights = [ifl(1.5, 0.0, float(v)) for v in grid]
    strictly_decreasing = all(a > b for a, b in zip(weights, weights[1:]))
    ok = base == 1.0 and weight_at_one == 1.0 and weight_at_inv_e == 2.0 and strictly_decreasing
    report(7, "IoU re-weighting is exact at 1 and 1/e and strictly monotone on a 1000-point grid",
           ok, f"w(1)={weight_at_one!r}, w(1/e)={weight_at_inv_e!r}")


def test_c08_average_precision_oracles():
    rec = [0.5, 0.5, 1.0]
    prec = [1.0, 0.5, 2 / 3]
    hand_ok = (abs(average_precision(rec, prec, "voc07") - 28 / 33) < 1e-9
               and abs(average_precision(rec, prec, "voc12") - 5 / 6) < 1e-9)

    gts, dets = three_category_fixture(seed=808)
    exact_ok = True
    for mode in ("voc07", "voc12"):
        for threshold in (0.5, 0.75):
            got = evaluate(gts, dets, [threshold], mode=mode)
            expected = reference_evaluate(gts, dets, threshold, mode)
            for cat, ap in expected.items():
                if got.categories[cat][threshold].ap != ap:
                    exact_ok = False
    report(8, "AP equals hand-computed fixtures and an independent evaluator",
           hand_ok and exact_ok)


def test_c09_nms_reference_equivalence():
    rng = np.random.default_rng(909)
    ok = True
    for _ in range(100):
        items = [(random_longside_box(rng, span=2.5), float(rng.uniform(0, 1)),
                  str(rng.integers(0, 3))) for _ in range(50)]
        for threshold in (0.1, 0.3, 0.5):
            if rotated_nms(items, threshold) != reference_nms(items, threshold):
                ok = False
    report(9, "greedy NMS equals the quadratic reference on 100 random 50-box instances", ok)


def test_c10_cli_determinism(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(anglekit.__file__).parents[1]))

    def run(args):
        return subprocess.run([sys.executable, "-m", "anglekit.cli", *args],
                              capture_output=True, env=env, check=False)

    first = run(["codec-report", "--grid-step", "0.05"])
    second = run(["codec-report", "--grid-step", "0.05"])
    codec_ok = first.returncode == 0 and first.stdout == second.stdout

    gt_dir = tmp_path / "gt"
    gt_dir.mkdir()
    boxes = [OrientedBox(10, 10, 4, 2, 30), OrientedBox(40, 40, 6, 3, 120)]
    lines = []
    for box in boxes:
        coords = " ".join(f"{x:.10f} {y:.10f}" for x, y in to_corners(box).vertices)
        lines.append(f"{coords} ship 0")
    (gt_dir / "im1.txt").write_text("\n".join(lines) + "\n")
    det_path = tmp_path / "dets.json"
    write_detections([DetectionRecord("im1", boxes[0], "ship", 0.9),
                      DetectionRecord("im1", boxes[1], "ship", 0.7)], det_path)

    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    eval_a = run(["eval", "--gt", str(gt_dir), "--det", str(det_path), "--out", str(out_a)])
    eval_b = run(["eval", "--gt", str(gt_dir), "--det", str(det_path), "--out", str(out_b)])
    eval_ok = (eval_a.returncode == 0 and eval_a.stdout == eval_b.stdout
               and out_a.read_bytes() == out_b.read_bytes()
               and b"mAP@0.50=1.000000" in eval_a.stdout)
    report(10, "codec-report and eval produce byte-identical output across runs",
           codec_ok and eval_ok)
