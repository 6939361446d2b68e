"""The benchmark's side of a fresh interpreter that runs anglekit from src/.

    child.py setup WORKLOAD INPUT_DIR
        import anglekit and turn the workload's inputs into its types, then exit
    child.py cli TRACE_JSON -- ANGLEKIT_ARGS...
        one traced pass of anglekit.cli.main; spans go to TRACE_JSON
    child.py loss SAMPLES_JSON SECONDS TRACE OUT_JSON
        repeated multitask_loss sweeps over every batch for SECONDS, every
        second one traced when TRACE is 1; times, results, spans and peak
        RSS go to OUT_JSON
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path


def build_samples(batch):
    import numpy as np
    from anglekit import (AnchorBox, AnglePrediction, AssignedSample, BoxDeltas,
                          OrientedBox)
    return [AssignedSample(
        objectness=s["objectness"], anchor=AnchorBox(*s["anchor"]),
        pred_deltas=BoxDeltas(*s["deltas"]), pred_confidence=s["confidence"],
        pred_category_logits=np.array(s["category_logits"]),
        pred_angle=AnglePrediction(np.array(s["angle_logits"]), s["angle_residual"]),
        gt_box=OrientedBox(*s["gt_box"]) if s["gt_box"] else None,
        gt_category=s["gt_category"]) for s in batch]


def setup(workload: str, root: Path) -> None:
    from anglekit import CodecConfig, Method, parse_annotation_dir, parse_detections
    if workload == "eval-dense":
        parse_annotation_dir(root / "gt", strict=False)
        parse_detections(root / "dets.json", strict=False)
    elif workload == "eval-sparse":
        parse_annotation_dir(root / "gt", strict=False)
        parse_detections(root / "task1", strict=False)
    elif workload == "codec-sweep":
        from fixtures import CODEC_C_THETAS
        [CodecConfig(Method(m), c) for m, cs in CODEC_C_THETAS.items() for c in cs]
    else:
        with open(root / "samples.json", encoding="utf-8") as fh:
            [build_samples(b) for b in json.load(fh)["batches"]]


def traced_cli(trace_path: Path, argv: list[str]) -> int:
    from tracer import Tracer
    import anglekit.cli
    tracer = Tracer()
    tracer.install()
    tracer.begin_pass()
    try:
        return anglekit.cli.main(argv)
    finally:
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.end_pass(), fh)


def loss_loop(samples_path: Path, seconds: float, trace: bool, out_path: Path) -> None:
    import anglekit.losses
    from anglekit import CodecConfig, LossWeights, Method
    with open(samples_path, encoding="utf-8") as fh:
        fixture = json.load(fh)
    batches = [build_samples(b) for b in fixture["batches"]]
    permuted = [[b[i] for i in perm] for b, perm in zip(batches, fixture["permutations"])]
    codec = CodecConfig(Method.MGAR, c_theta=fixture["c_theta"])
    weights = LossWeights(*fixture["weights"])
    del fixture  # so the peak below is anglekit's objects, not the JSON they came from
    if trace:
        from tracer import Tracer
        tracer = Tracer()
    times, traced_times, results, traces, failed = [], [], [], [], 0
    start = time.perf_counter()
    # With tracing, every second sweep runs traced, so both see the same machine.
    while len(results) + failed < 3 or time.perf_counter() - start < seconds:
        traced = trace and (len(results) + failed) % 2 == 1
        if traced:
            tracer.install()
            tracer.begin_pass()
        t0 = time.perf_counter()
        try:
            breakdowns = [anglekit.losses.multitask_loss(b, weights, codec) for b in batches]
        except Exception:
            traceback.print_exc()
            failed += 1
            continue
        finally:
            if traced:
                tracer.uninstall()
        elapsed = time.perf_counter() - t0
        if traced:
            traced_times.append(elapsed)
            traces.append(tracer.end_pass())
        else:
            times.append(elapsed)
        results.append([[r.location, r.confidence, r.category, r.angle_class, r.angle_reg,
                         r.total] for r in breakdowns])
    permuted_totals = [anglekit.losses.multitask_loss(b, weights, codec).total
                       for b in permuted]
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"pass_s": times, "traced_pass_s": traced_times, "traces": traces,
                   "failed": failed, "results": results, "permuted_totals": permuted_totals,
                   "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}, fh)


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "setup":
        setup(argv[1], Path(argv[2]))
        return 0
    if mode == "cli":
        return traced_cli(Path(argv[1]), argv[3:])
    if mode == "loss":
        loss_loop(Path(argv[1]), float(argv[2]), argv[3] == "1", Path(argv[4]))
        return 0
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
