"""anglekit benchmark: one seeded workload per run, timed end to end.

    python3 benches/run.py --workload eval-dense --seed 1 --seconds 10 --trace 0
    python3 benches/run.py --workload all

Runs the program from src/ of the checkout it sits in (no install,
ANGLEKIT_THREADS unset). One caller drives it in a closed loop with at most
one child process at a time: every CLI pass is a fresh `python -m
anglekit.cli` process, as a user pays import and cold caches on each call;
train-loss repeats multitask_loss sweeps in one warm process. A run is 8
rounds of passes, each followed by one timed set-up in a fresh interpreter,
so set-up and passes are sampled over the same stretch. Every output is
checked against the values benches/oracle.py derives from how the inputs
were built. --trace 0 prints the end-to-end metrics; --trace 1 alternates
untraced and traced passes and prints the per-layer metrics of the traced
ones, with the tracing overhead, and writes every span to
.bench_work/trace-<workload>-seed<seed>.json. The last line of stdout is
one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import fixtures
import oracle

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
ROUNDS = 8
CHILD_GRACE_S = 60.0

# Workload and metric names with their units, as BENCHMARK.json fixes them.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "ANGLEKIT_THREADS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


class Children:
    """Starts one child at a time, waits for it and reports its wall time and
    peak RSS; a child still running after `timeout` seconds is killed."""

    def __init__(self, work: Path, timeout: float):
        self.env = child_env()
        self.timeout = timeout
        self.out = work / "child.out"
        self.err = work / "child.err"

    def run(self, argv: list[str]):
        with open(self.out, "wb") as out, open(self.err, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            timer = threading.Timer(self.timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        stderr = self.err.read_text(encoding="utf-8", errors="replace")
        if proc.returncode != 0:
            print(f"child {argv[1:4]} exited {proc.returncode}: {stderr[-2000:]}",
                  file=sys.stderr)
        return (wall, proc.returncode, usage.ru_maxrss / 1024.0,
                self.out.read_text(encoding="utf-8"))


def _sum(spans, name, key=None):
    return sum((s["end"] - s["start"]) if key is None else s[key]
               for s in spans if s["name"] == name)


def _rate(count, seconds):
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(trace: dict) -> dict:
    """Every per-layer metric of one traced pass (0 where the layer did not run)."""
    spans, c = trace["spans"], trace["counters"]
    m = {}
    for name in ("io_formats.parse_annotation_dir", "io_formats.parse_detections"):
        m[name + ".s"] = _sum(spans, name)
        m[name + ".records_per_s"] = _rate(_sum(spans, name, "records"), m[name + ".s"])
    m["io_formats.write_report.s"] = _sum(spans, "io_formats.write_report")
    for name in ("obb.from_corners", "obb.to_corners", "obb.rotated_iou",
                 "obb.convex_intersection_area", "codecs.encode", "codecs.decode"):
        m[name + ".calls"] = c[name]["calls"]
        m[name + ".s"] = c[name]["s"]
    iou_calls = c["obb.rotated_iou"]["calls"]
    m["obb.rotated_iou.pairs_per_s"] = _rate(iou_calls, c["obb.rotated_iou"]["s"])
    m["obb.aabb_reject_ratio"] = _rate(iou_calls - c["obb.convex_intersection_area"]["calls"],
                                       iou_calls)
    nms = "obb.rotated_nms"
    m[nms + ".s"] = _sum(spans, nms)
    m[nms + ".boxes_per_s"] = _rate(_sum(spans, nms, "boxes"), m[nms + ".s"])
    m[nms + ".suppressed"] = _sum(spans, nms, "boxes") - _sum(spans, nms, "kept")
    m["evaluation.evaluate.s"] = _sum(spans, "evaluation.evaluate")
    m["evaluation.match_detections.calls"] = c["evaluation.match_detections"]["calls"]
    m["evaluation.match_detections.self_s"] = c["evaluation.match_detections"]["self_s"]
    m["evaluation.average_precision.s"] = c["evaluation.average_precision"]["s"]
    m["evaluation.iou_calls_per_pair"] = _rate(_sum(spans, "evaluation.evaluate", "iou_calls"),
                                               _sum(spans, "evaluation.evaluate", "pairs"))
    sweep = "codecs.empirical_errors"
    m[sweep + ".s"] = _sum(spans, sweep)
    m[sweep + ".angles_per_s"] = _rate(_sum(spans, sweep, "angles"), m[sweep + ".s"])
    loss = "losses.multitask_loss"
    m[loss + ".s"] = _sum(spans, loss)
    m[loss + ".self_s"] = _sum(spans, loss, "self_s")
    m[loss + ".samples_per_s"] = _rate(_sum(spans, loss, "samples"), m[loss + ".s"])
    return m


class Outcome:
    """Operations attempted and failed, and the faults the checks found."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.faults: list[str] = []

    def record(self, ok: bool, faults=()):
        self.attempted += 1
        self.failed += not ok
        if ok:
            self.faults += faults


def output_check(workload: str, given: dict):
    """A function from a pass's stdout to the faults in it and in its report."""
    if workload == "codec-sweep":
        return lambda out: oracle.check_codec_csv(out, given["methods"], fixtures.CODEC_GRID_STEP)
    if workload == "eval-dense":
        expected = oracle.expected_eval(given["scene"], fixtures.COCO_THRESHOLDS, "voc12",
                                        fixtures.DENSE_NMS)
        return lambda out: oracle.check_eval_stdout(out, expected)
    expected = oracle.expected_eval(given["scene"], [fixtures.SPARSE_THRESHOLD],
                                    fixtures.SPARSE_MODE, None)

    def check(out):
        faults = oracle.check_eval_stdout(out, expected)
        try:
            report = json.loads(given["report"].read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            return faults + [f"report unreadable: {exc}"]
        given["report"].unlink()
        return faults + oracle.check_eval_report(report, expected, fixtures.SPARSE_MODE)
    return check


class Samples:
    """What the passes of one run measured."""

    def __init__(self):
        self.walls: list[float] = []
        self.rss: list[float] = []
        self.traced_walls: list[float] = []
        self.traces: list[dict] = []
        self.setups: list[float] = []


def run_cli_passes(given, seconds, trace, work, children, outcome, samples):
    plain = [sys.executable, "-m", "anglekit.cli"] + given["argv"]
    traced_path = work / "trace.json"
    traced = [sys.executable, str(BENCH / "child.py"), "cli", str(traced_path), "--"]
    traced += given["argv"]
    start = time.perf_counter()
    while True:
        wall, code, peak, out = children.run(plain)
        outcome.record(code == 0, given["check"](out) if code == 0 else ())
        if code == 0:
            samples.walls.append(wall)
            samples.rss.append(peak)
        if trace:
            wall, code, _, out = children.run(traced)
            outcome.record(code == 0, given["check"](out) if code == 0 else ())
            if code == 0:
                samples.traced_walls.append(wall)
                samples.traces.append(json.loads(traced_path.read_text(encoding="utf-8")))
        if time.perf_counter() - start >= seconds:
            return


def run_loss_passes(given, seconds, trace, work, children, outcome, samples):
    out_path = work / "loss.json"
    _, code, _, _ = children.run([sys.executable, str(BENCH / "child.py"), "loss",
                                  str(given["path"]), str(seconds), str(int(trace)),
                                  str(out_path)])
    if code != 0:
        outcome.record(False)
        return
    result = json.loads(out_path.read_text(encoding="utf-8"))
    for _ in result["results"]:
        outcome.record(True)
    for _ in range(result["failed"]):
        outcome.record(False)
    outcome.faults += oracle.check_losses(result["results"], result["permuted_totals"],
                                          given["expected"])
    samples.walls += result["pass_s"]
    samples.rss.append(result["maxrss_kb"] / 1024.0)
    samples.traced_walls += result["traced_pass_s"]
    samples.traces += result["traces"]


def measure(workload, given, seconds, trace, work, children, outcome) -> Samples:
    """ROUNDS rounds of passes, each followed by one timed set-up."""
    samples = Samples()
    setup = [sys.executable, str(BENCH / "child.py"), "setup", workload, str(work / "input")]
    children.run(setup)  # writes the bytecode caches a user's first call would leave
    passes = run_loss_passes if workload == "train-loss" else run_cli_passes
    for _ in range(ROUNDS):
        passes(given, seconds / ROUNDS, trace, work, children, outcome, samples)
        if not trace:
            wall, code, _, _ = children.run(setup)
            if code != 0:
                raise RuntimeError(f"set-up of {workload} failed")
            samples.setups.append(wall)
    return samples


def expectations(workload: str, given: dict) -> None:
    """Add to `given` what every pass is checked against."""
    if workload == "train-loss":
        given["expected"] = oracle.expected_losses(given["fixture"])
    else:
        given["check"] = output_check(workload, given)


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    work = WORK / f"{workload}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    outcome = Outcome()
    try:
        given = fixtures.write_fixture(workload, seed, work / "input")
        expectations(workload, given)
        children = Children(work, seconds + CHILD_GRACE_S)
        samples = measure(workload, given, seconds, trace, work, children, outcome)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    walls, traces = samples.walls, samples.traces
    if not walls or (trace and not traces):
        raise RuntimeError(f"{workload}: no pass completed")
    if trace:
        values = {name: statistics.median(layer_metrics(t)[name] for t in traces)
                  for name in PER_LAYER if not name.startswith("trace.")}
        values["trace.pass_s"] = statistics.median(samples.traced_walls)
        values["trace.overhead_s"] = values["trace.pass_s"] - statistics.median(walls)
        units = PER_LAYER
        span_file = WORK / f"trace-{workload}-seed{seed}.json"
        with open(span_file, "w", encoding="utf-8") as fh:
            json.dump({"workload": workload, "seed": seed, "passes": traces}, fh)
        print(f"spans written to {span_file.relative_to(ROOT)}", file=sys.stderr)
    else:
        values = {"setup_s": statistics.median(samples.setups),
                  "pass_s": statistics.median(walls),
                  "peak_rss_mb": statistics.median(samples.rss)}
        units = END_TO_END
    for fault in outcome.faults[:20]:
        print(f"{workload}: FAULT {fault}", file=sys.stderr)
    return {"correct": not outcome.faults, "attempted": outcome.attempted,
            "failed": outcome.failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items()}}


def describe(workload: str, result: dict) -> str:
    metrics = ", ".join(f"{name} {m['value']:.6g} {m['unit']}"
                        for name, m in result["metrics"].items())
    return (f"{workload}: {metrics}; attempted {result['attempted']}, "
            f"failed {result['failed']}, correct {str(result['correct']).lower()}")


def main() -> int:
    parser = argparse.ArgumentParser(description="anglekit benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "anglekit" / "__init__.py").is_file():
        print(f"error: no anglekit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in workloads:
        results[workload] = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        print(describe(workload, results[workload]))
    if len(results) == 1:
        print(json.dumps(results[workloads[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": m for w, r in results.items()
                        for name, m in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
