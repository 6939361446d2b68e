"""Tests of the benchmark itself.

The closed-form IoUs the fixtures are built on are compared with Monte-Carlo
point sampling written apart from both the fixtures and the program, and
each correctness check must pass the program's real output and reject a
deliberately corrupted copy of it. Run with

    python3 -m pytest benches
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import fixtures  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402


def in_box(xy, box):
    """Membership of points in an oriented box, from its centre, sides and angle."""
    cx, cy, w, h, theta = box
    rad = math.radians(theta)
    dx, dy = xy[:, 0] - cx, xy[:, 1] - cy
    u = dx * math.cos(rad) + dy * math.sin(rad)
    v = -dx * math.sin(rad) + dy * math.cos(rad)
    return (np.abs(u) <= w / 2) & (np.abs(v) <= h / 2)


def mc_iou(a, b, rng, n=200_000):
    reach = max(math.hypot(a[2], a[3]), math.hypot(b[2], b[3])) / 2
    lo = np.minimum(a[:2], b[:2]) - reach
    hi = np.maximum(a[:2], b[:2]) + reach
    xy = rng.uniform(lo, hi, size=(n, 2))
    ia, ib = in_box(xy, a), in_box(xy, b)
    return np.count_nonzero(ia & ib) / np.count_nonzero(ia | ib)


def run_cli(argv):
    import anglekit.cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert anglekit.cli.main(argv) == 0
    return out.getvalue()


def test_dense_designed_ious_match_monte_carlo():
    scene = fixtures.make_dense(11)
    rng = np.random.default_rng(0)
    checked = 0
    for obj in scene.objects[:60]:
        for i, s in enumerate(obj.shifts):
            assert abs(mc_iou(obj.box(), obj.box(s), rng) - fixtures.iou_of_shift(s)) < 0.01
            for t in obj.shifts[i + 1:]:
                assert abs(mc_iou(obj.box(s), obj.box(t), rng)
                           - fixtures.iou_of_shift(s - t)) < 0.01
                checked += 1
    assert checked > 10


def aabb(box):
    cx, cy, w, h, theta = box
    c, s = abs(math.cos(math.radians(theta))), abs(math.sin(math.radians(theta)))
    ex, ey = (w * c + h * s) / 2, (w * s + h * c) / 2
    return cx - ex, cy - ey, cx + ex, cy + ey


def test_objects_of_one_image_never_overlap():
    scene = fixtures.make_dense(12)
    rng = np.random.default_rng(1)
    boxes = {}
    for k, obj in enumerate(scene.objects):
        boxes.setdefault(obj.image, []).extend((k, obj.box(s)) for s in [0.0] + obj.shifts)
    for k, bg in enumerate(scene.background):
        boxes.setdefault(bg.image, []).append((-1 - k, bg.box))
    close_pairs = 0
    for items in boxes.values():
        for i, (ka, a) in enumerate(items):
            for kb, b in items[i + 1:]:
                (ax0, ay0, ax1, ay1), (bx0, by0, bx1, by1) = aabb(a), aabb(b)
                if ka == kb or ax1 < bx0 or bx1 < ax0 or ay1 < by0 or by1 < ay0:
                    continue
                close_pairs += 1
                # points spread over all of a, none of which may fall in b
                u = rng.uniform(-0.5, 0.5, size=(4000, 2)) * a[2:4]
                rad = math.radians(a[4])
                xy = np.stack([a[0] + u[:, 0] * math.cos(rad) - u[:, 1] * math.sin(rad),
                               a[1] + u[:, 0] * math.sin(rad) + u[:, 1] * math.cos(rad)], axis=1)
                assert not in_box(xy, b).any()
    assert close_pairs > 5  # neighbours that only clipping, not the AABB test, tells apart


def decoded_prediction(sample):
    """The oriented box the loss scores a foreground sample's prediction as."""
    ax, ay, aw, ah = sample["anchor"]
    dx, dy, dw, dh = sample["deltas"]
    w, h = aw * math.exp(dw), ah * math.exp(dh)
    k = int(np.argmax(sample["angle_logits"]))
    theta = (k * fixtures.LOSS_OMEGA + sample["angle_residual"] ** 2) % 180.0
    if w < h:
        w, h, theta = h, w, theta + 90.0
    return (dx * aw + ax, dy * ah + ay, w, h, theta)


def test_train_loss_designed_ious_match_monte_carlo():
    fixture = fixtures.make_train_loss(13)
    rng = np.random.default_rng(2)
    samples = [s for s in fixture["batches"][0] if s["objectness"]]
    assert {s["case"] for s in samples} == set(fixtures.LOSS_CASES)
    for s in samples:
        estimate = mc_iou(np.array(s["gt_box"]), np.array(decoded_prediction(s)), rng)
        assert abs(estimate - s["iou"]) < 0.01, s["case"]


@pytest.fixture(scope="module")
def dense(tmp_path_factory):
    given = fixtures.write_fixture("eval-dense", 3, tmp_path_factory.mktemp("dense"))
    expected = oracle.expected_eval(given["scene"], fixtures.COCO_THRESHOLDS, "voc12",
                                    fixtures.DENSE_NMS)
    return run_cli(given["argv"]), expected


def test_eval_stdout_check_rejects_a_changed_map(dense):
    stdout, expected = dense
    assert oracle.check_eval_stdout(stdout, expected) == []
    field = stdout.split(", ")[3]
    key, value = field.split("=")
    changed = stdout.replace(field, f"{key}={float(value) + 2e-6:.6f}")
    assert oracle.check_eval_stdout(changed, expected)


def test_eval_stdout_check_rejects_map_rising_with_threshold(dense):
    stdout, expected = dense
    fields = stdout.strip().split(", ")
    rising = copy.deepcopy(expected)
    # swap the printed values of two thresholds and the expectation with them
    fields[0], fields[1] = (fields[0].split("=")[0] + "=" + fields[1].split("=")[1],
                            fields[1].split("=")[0] + "=" + fields[0].split("=")[1])
    t0, t1 = sorted(rising["map"])[:2]
    rising["map"][t0], rising["map"][t1] = rising["map"][t1], rising["map"][t0]
    faults = oracle.check_eval_stdout(", ".join(fields), rising)
    assert any("rises" in f for f in faults)


@pytest.fixture(scope="module")
def sparse(tmp_path_factory):
    given = fixtures.write_fixture("eval-sparse", 4, tmp_path_factory.mktemp("sparse"))
    expected = oracle.expected_eval(given["scene"], [fixtures.SPARSE_THRESHOLD],
                                    fixtures.SPARSE_MODE, None)
    stdout = run_cli(given["argv"])
    return stdout, json.loads(given["report"].read_text()), expected


@pytest.mark.parametrize("corrupt", [
    lambda r: r["categories"]["ship"]["ap_by_threshold"].update({"0.50": 0.5}),
    lambda r: r["categories"]["plane"]["pr_curve"]["0.50"].update(
        tp=r["categories"]["plane"]["pr_curve"]["0.50"]["tp"] + 1),
    lambda r: r["categories"]["harbor"]["pr_curve"]["0.50"]["precision"].pop(),
    lambda r: r["map_by_threshold"].update({"0.50": r["map_by_threshold"]["0.50"] * (1 + 1e-6)}),
])
def test_eval_report_check_rejects_a_corrupted_report(sparse, corrupt):
    stdout, report, expected = sparse
    assert oracle.check_eval_stdout(stdout, expected) == []
    assert oracle.check_eval_report(report, expected, fixtures.SPARSE_MODE) == []
    changed = copy.deepcopy(report)
    corrupt(changed)
    assert oracle.check_eval_report(changed, expected, fixtures.SPARSE_MODE)


@pytest.fixture(scope="module")
def codec_table():
    methods, step = fixtures.codec_methods(5), 0.25
    stdout = run_cli(["codec-report", "--methods", ",".join(methods), "--grid-step", str(step)])
    return stdout, methods, step


@pytest.mark.parametrize("row, column, value", [
    ("csl,180", "empirical_max_error", "0.9"),
    ("csl,180", "thickness_a9", "1629"),
    ("mgar,4", "empirical_max_error", "1e-06"),
    ("dcl-gray,32", "analytic_max_error", "2.9"),
    ("dcl-binary,64", "empirical_mean_error", "1.2"),
])
def test_codec_check_rejects_a_wrong_error(codec_table, row, column, value):
    stdout, methods, step = codec_table
    assert oracle.check_codec_csv(stdout, methods, step) == []
    lines = stdout.splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith(row + ","))
    fields = lines[at].split(",")
    fields[lines[0].split(",").index(column)] = value
    lines[at] = ",".join(fields)
    assert oracle.check_codec_csv("\n".join(lines) + "\n", methods, step)


def test_loss_check_rejects_a_wrong_term():
    from anglekit import CodecConfig, LossWeights, Method, multitask_loss
    import child
    fixture = fixtures.make_train_loss(6)
    codec = CodecConfig(Method.MGAR, c_theta=fixture["c_theta"])
    weights = LossWeights(*fixture["weights"])
    batches = [child.build_samples(b) for b in fixture["batches"]]
    results = [[[r.location, r.confidence, r.category, r.angle_class, r.angle_reg, r.total]
                for r in (multitask_loss(b, weights, codec) for b in batches)]]
    permuted = [multitask_loss([b[i] for i in p], weights, codec).total
                for b, p in zip(batches, fixture["permutations"])]
    expected = oracle.expected_losses(fixture)
    assert oracle.check_losses(results, permuted, expected) == []
    for term in range(6):
        wrong = copy.deepcopy(results)
        wrong[0][2][term] *= 1 + 1e-6
        assert oracle.check_losses(wrong, permuted, expected)
    assert oracle.check_losses(results, [t + 1e-6 for t in permuted], expected)
    # a wrong IoU in the residual term shows in angle_reg and the total
    skewed = copy.deepcopy(fixture)
    for s in skewed["batches"][0]:
        if s["case"] == "perpendicular":
            s["iou"] *= 0.9
    assert oracle.check_losses(results, permuted, oracle.expected_losses(skewed))


def test_traced_pass_reports_every_layer(tmp_path):
    given = fixtures.write_fixture("eval-sparse", 8, tmp_path / "input")
    trace_path = tmp_path / "trace.json"
    env = run.child_env()
    proc = subprocess.run([sys.executable, str(BENCH / "child.py"), "cli", str(trace_path),
                           "--"] + given["argv"], env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    metrics = run.layer_metrics(json.loads(trace_path.read_text()))
    assert set(metrics) == {n for n in run.PER_LAYER if not n.startswith("trace.")}
    records = sum(len(o.shifts) for o in given["scene"].objects) + len(given["scene"].background)
    assert metrics["obb.from_corners.calls"] == records + len(given["scene"].objects)
    assert metrics["obb.to_corners.calls"] == 2 * metrics["obb.rotated_iou.calls"]
    assert metrics["evaluation.match_detections.calls"] == len(fixtures.CATEGORIES)
    assert 0 < metrics["evaluation.match_detections.self_s"] < metrics["evaluation.evaluate.s"]
    assert metrics["io_formats.write_report.s"] > 0
    assert metrics["obb.rotated_nms.s"] == 0 and metrics["codecs.encode.calls"] == 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benches",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "benches/run.py", "--workload", "codec-sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60,
                          env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert "{" not in proc.stdout
