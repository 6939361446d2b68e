"""What the program must output on each workload, derived apart from it.

Eval: matches, NMS survivors, difficult-GT absorption and per-category AP
follow from the IoUs the fixtures designed. Codecs: closed forms of the bin
width. Losses: each term recomputed in numpy from the sample numbers and the
designed IoU. Each check_* function returns a list of faults; empty means
the output is correct. Nothing here imports anglekit.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

from fixtures import CODEC_C_THETAS, COCO_THRESHOLDS, LOSS_OMEGA, Scene, iou_of_shift

FOCAL_ALPHA = 0.25
FOCAL_GAMMA = 2.0
IOU_FLOOR = 1e-6
REL_TOL = 1e-9


def nms_survivors(shifts, scores, threshold):
    """Greedy NMS over one object's detections, by the designed pair IoUs."""
    kept = []
    for i in sorted(range(len(shifts)), key=lambda i: -scores[i]):
        if all(iou_of_shift(shifts[i] - shifts[j]) <= threshold for j in kept):
            kept.append(i)
    return kept


def average_precision(tp_cum, fp_cum, npos, mode):
    """VOC07 11-point or VOC12 all-point AP of a cumulative TP/FP sequence."""
    if npos == 0 or len(tp_cum) == 0:
        return 0.0
    tp = np.asarray(tp_cum)
    prec = tp / (tp + np.asarray(fp_cum))
    if mode == "voc07":
        # recall >= i/10 tested on integers, so no level is missed by rounding
        return float(sum(prec[10 * tp >= i * npos].max(initial=0.0) for i in range(11))) / 11.0
    mrec = np.concatenate(([0.0], tp / npos, [1.0]))
    mpre = np.concatenate(([0.0], prec, [0.0]))
    mpre = np.maximum.accumulate(mpre[::-1])[::-1]
    step = np.nonzero(mrec[1:] != mrec[:-1])[0]
    return float(np.sum((mrec[step + 1] - mrec[step]) * mpre[step + 1]))


def expected_eval(scene: Scene, thresholds, mode: str, nms: float | None) -> dict:
    """Per-category cells and mAP the evaluator must report for a scene."""
    dets = []  # (score, category, object or None, IoU with its object)
    for obj in scene.objects:
        keep = (range(len(obj.shifts)) if nms is None
                else nms_survivors(obj.shifts, obj.scores, nms))
        dets += [(obj.scores[i], obj.category, obj, iou_of_shift(obj.shifts[i])) for i in keep]
    dets += [(bg.score, bg.category, None, 0.0) for bg in scene.background]
    dets.sort(key=lambda d: -d[0])
    categories = sorted({o.category for o in scene.objects})
    cells = {}
    for cat in categories:
        npos = sum(1 for o in scene.objects if o.category == cat and not o.difficult)
        cat_dets = [d for d in dets if d[1] == cat]
        cells[cat] = {}
        for thr in thresholds:
            claimed, tp_cum, fp_cum = set(), [], []
            tp = fp = 0
            for _, _, obj, iou in cat_dets:
                if obj is not None and iou >= thr and obj.difficult:
                    continue
                if obj is not None and iou >= thr and id(obj) not in claimed:
                    claimed.add(id(obj))
                    tp += 1
                else:
                    fp += 1
                tp_cum.append(tp)
                fp_cum.append(fp)
            cells[cat][thr] = {
                "ap": average_precision(tp_cum, fp_cum, npos, mode),
                "recall": [t / npos if npos else 0.0 for t in tp_cum],
                "precision": [t / (t + f) for t, f in zip(tp_cum, fp_cum)],
                "tp": tp, "fp": fp, "num_gt": npos}
    maps = {thr: sum(cells[c][thr]["ap"] for c in categories) / len(categories)
            for thr in thresholds}
    map_50_95 = (sum(maps[t] for t in COCO_THRESHOLDS) / len(COCO_THRESHOLDS)
                 if all(t in maps for t in COCO_THRESHOLDS) else None)
    return {"cells": cells, "map": maps, "map_50_95": map_50_95}


def _close(a, b, tol=REL_TOL):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def check_eval_stdout(stdout: str, expected: dict) -> list[str]:
    """The summary line: every mAP to its 6 printed decimals, and mAP never
    rising with the threshold."""
    lines = stdout.strip().splitlines()
    if len(lines) != 1:
        return [f"expected one summary line, got {len(lines)}"]
    printed = {}
    for part in lines[0].split(", "):
        key, _, value = part.partition("=")
        try:
            printed[key] = float(value)
        except ValueError:
            return [f"unreadable summary field {part!r}"]
    want = {f"mAP@{t:.2f}": m for t, m in expected["map"].items()}
    if expected["map_50_95"] is not None:
        want["mAP@0.50:0.95"] = expected["map_50_95"]
    faults = []
    if set(printed) != set(want):
        faults.append(f"summary fields {sorted(printed)} != {sorted(want)}")
    for key in sorted(set(printed) & set(want)):
        if abs(printed[key] - want[key]) > 5e-7 + 1e-12:
            faults.append(f"{key}: printed {printed[key]:.6f}, expected {want[key]:.6f}")
    by_threshold = [printed.get(f"mAP@{t:.2f}") for t in sorted(expected["map"])]
    pairs = zip(by_threshold, by_threshold[1:])
    if any(a is not None and b is not None and b > a for a, b in pairs):
        faults.append(f"mAP rises with the threshold: {by_threshold}")
    return faults


def check_eval_report(report: dict, expected: dict, mode: str) -> list[str]:
    """The written JSON report: every cell of every category at full precision."""
    faults = []
    if report.get("mode") != mode:
        faults.append(f"report mode {report.get('mode')!r} != {mode!r}")
    if set(report.get("categories", {})) != set(expected["cells"]):
        return faults + ["report categories differ from the ground truth's"]
    for cat, cells in expected["cells"].items():
        got = report["categories"][cat]
        for thr, cell in cells.items():
            key = f"{thr:.2f}"
            curve = got["pr_curve"].get(key, {})
            if not _close(got["ap_by_threshold"].get(key, math.nan), cell["ap"]):
                faults.append(f"{cat}@{key}: AP {got['ap_by_threshold'].get(key)} != {cell['ap']}")
            for field in ("tp", "fp", "num_gt"):
                if curve.get(field) != cell[field]:
                    faults.append(f"{cat}@{key}: {field} {curve.get(field)} != {cell[field]}")
            for field in ("recall", "precision"):
                values = curve.get(field, [])
                if len(values) != len(cell[field]) or not all(
                        _close(a, b) for a, b in zip(values, cell[field])):
                    faults.append(f"{cat}@{key}: {field} curve differs")
    for thr, value in expected["map"].items():
        got = report.get("map_by_threshold", {}).get(f"{thr:.2f}", math.nan)
        if not _close(got, value):
            faults.append(f"mAP@{thr:.2f} {got} != {value}")
    return faults


def expected_codec_rows(methods) -> list[dict]:
    rows = []
    for method in methods:
        for c in CODEC_C_THETAS[method]:
            omega = 180.0 / c
            classifies = method != "regression"
            regresses = method in ("regression", "mgar")
            code = 0 if not classifies else (math.ceil(math.log2(c)) if "dcl" in method else c)
            rows.append({"method": method, "c_theta": c, "omega": omega,
                         "exact": regresses, "thickness_a9": 9 * (code + int(regresses))})
    return rows


def check_codec_csv(stdout: str, methods, grid_step: float) -> list[str]:
    """Analytic columns equal the closed forms; swept errors are half and a
    quarter bin (within the grid step) for classification codecs and below
    1e-9 for codecs with a residual; head thickness is 9 x channels."""
    rows = list(csv.DictReader(io.StringIO(stdout)))
    want = expected_codec_rows(methods)
    if [(r.get("method"), r.get("c_theta")) for r in rows] != \
            [(w["method"], str(w["c_theta"])) for w in want]:
        return ["codec rows are not one per (method, c_theta) in the requested order"]
    faults = []
    for row, w in zip(rows, want):
        name = f"{w['method']}/{w['c_theta']}"
        try:
            got = {k: float(row[k]) for k in ("omega", "analytic_max_error",
                                              "analytic_mean_error", "empirical_max_error",
                                              "empirical_mean_error")}
            thickness = int(row["thickness_a9"])
        except (KeyError, TypeError, ValueError):
            faults.append(f"{name}: unreadable row {row}")
            continue
        omega = w["omega"]
        analytic = (0.0, 0.0) if w["exact"] else (omega / 2.0, omega / 4.0)
        if not (_close(got["omega"], omega) and _close(got["analytic_max_error"], analytic[0])
                and _close(got["analytic_mean_error"], analytic[1])):
            faults.append(f"{name}: analytic columns {got} != omega {omega}, {analytic}")
        e_max, e_mean = got["empirical_max_error"], got["empirical_mean_error"]
        if w["exact"]:
            if not (0.0 <= e_mean <= e_max < 1e-9):
                faults.append(f"{name}: swept errors {e_max}, {e_mean} are not below 1e-9")
        elif not (abs(e_max - omega / 2.0) <= grid_step and e_max <= omega / 2.0 + 1e-9
                  and abs(e_mean - omega / 4.0) <= grid_step):
            faults.append(f"{name}: swept errors {e_max}, {e_mean} != {omega / 2}, {omega / 4}")
        if thickness != w["thickness_a9"]:
            faults.append(f"{name}: thickness_a9 {thickness} != {w['thickness_a9']}")
    return faults


def _log_sigmoid(x):
    return -np.logaddexp(0.0, -x)


def _cross_entropy(logits, target):
    z = np.asarray(logits, dtype=float)
    return float(np.logaddexp.reduce(z) - z[target])


def expected_losses(fixture: dict) -> list[list[float]]:
    """[location, confidence, category, angle class, angle residual, total] per
    batch, recomputed from the sample numbers and the designed IoUs."""
    weights = np.asarray(fixture["weights"])
    out = []
    for batch in fixture["batches"]:
        x = np.array([s["confidence"] for s in batch])
        label = np.array([s["objectness"] for s in batch])
        p_pos, p_neg = np.exp(_log_sigmoid(x)), np.exp(_log_sigmoid(-x))
        focal = np.where(label == 1,
                         -FOCAL_ALPHA * p_neg ** FOCAL_GAMMA * _log_sigmoid(x),
                         -(1 - FOCAL_ALPHA) * p_pos ** FOCAL_GAMMA * _log_sigmoid(-x))
        fg = [s for s in batch if s["objectness"]]
        loc, cat, ang_c, ang_r = [], [], [], []
        for s in fg:
            ax, ay, aw, ah = s["anchor"]
            dx, dy, dw, dh = s["deltas"]
            pred = (dx * aw + ax, dy * ah + ay, aw * math.exp(dw), ah * math.exp(dh))
            gx, gy, gw, gh, theta = s["gt_box"]
            loc.append(1.0 - _aabb_giou(pred, (gx, gy, gw, gh)))
            cat.append(_cross_entropy(s["category_logits"], s["gt_category"]))
            k = min(int(theta // LOSS_OMEGA), fixture["c_theta"] - 1)
            ang_c.append(_cross_entropy(s["angle_logits"], k))
            diff = abs(s["angle_residual"] - math.sqrt(theta - k * LOSS_OMEGA))
            smooth = 0.5 * diff * diff if diff < 1.0 else diff - 0.5
            iou = min(max(s["iou"], IOU_FLOOR), 1.0)
            ang_r.append(smooth * (1.0 - math.log(iou)))
        n = len(batch)
        terms = [sum(loc) / n, float(focal.sum()) / n, sum(cat) / n, sum(ang_c) / n, sum(ang_r) / n]
        out.append(terms + [float(np.dot(weights, terms))])
    return out


def _aabb_giou(a, b):
    (ax, ay, aw, ah), (bx, by, bw, bh) = a, b
    iw = max(0.0, min(ax + aw / 2, bx + bw / 2) - max(ax - aw / 2, bx - bw / 2))
    ih = max(0.0, min(ay + ah / 2, by + bh / 2) - max(ay - ah / 2, by - bh / 2))
    union = aw * ah + bw * bh - iw * ih
    cw = max(ax + aw / 2, bx + bw / 2) - min(ax - aw / 2, bx - bw / 2)
    ch = max(ay + ah / 2, by + bh / 2) - min(ay - ah / 2, by - bh / 2)
    return iw * ih / union - (cw * ch - union) / (cw * ch)


def check_losses(passes, permuted_totals, expected) -> list[str]:
    """Every pass's per-batch terms match the numpy recomputation, and each
    batch's total is unchanged when its samples are permuted."""
    names = ("location", "confidence", "category", "angle_class", "angle_reg", "total")
    faults = []
    for p, batches in enumerate(passes):
        if len(batches) != len(expected):
            faults.append(f"pass {p}: {len(batches)} batches, expected {len(expected)}")
            continue
        for b, (got, want) in enumerate(zip(batches, expected)):
            for name, g, w in zip(names, got, want):
                if not _close(g, w):
                    faults.append(f"pass {p} batch {b}: {name} {g!r} != {w!r}")
    if len(permuted_totals) != len(expected) or not all(
            _close(t, w[-1]) for t, w in zip(permuted_totals, expected)):
        faults.append("total changes when the samples of a batch are permuted")
    return faults
