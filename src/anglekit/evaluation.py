"""Rotated-IoU detection evaluation.

VOC-style matching of scored detections against oriented ground truth,
11-point (VOC07) and all-point (VOC12) average precision, and multi-
threshold mAP reports. Matching and accumulation are deterministic: score
ties break by image id, then input order.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Sequence

from .errors import (InvalidInputError, _check_box, _finite, _integer, _Record, _sequence, _set,
                     _shown)
from .obb import OrientedBox, _overlaps

VOC07 = "voc07"
VOC12 = "voc12"
MODES = (VOC07, VOC12)

# The ten thresholds averaged into mAP@0.50:0.95.
COCO_THRESHOLDS = tuple(round(0.5 + 0.05 * i, 2) for i in range(10))


class GroundTruthRecord(_Record):
    """One annotated object tied to an image id."""

    __slots__ = __match_args__ = ("image_id", "box", "category", "difficult")

    def __init__(self, image_id: str, box: OrientedBox, category: str, difficult: bool = False):
        _set(self, "image_id", image_id)
        _set(self, "box", box)
        _set(self, "category", category)
        _check_box("ground truth box", box, kind=OrientedBox)
        flag = _integer(difficult, "difficult")
        if flag not in (0, 1):
            raise InvalidInputError(f"difficult must be 0 or 1, got {_shown(difficult, repr)}")
        _set(self, "difficult", flag == 1)


class DetectionRecord(_Record):
    """One scored prediction tied to an image id."""

    __slots__ = __match_args__ = ("image_id", "box", "category", "score")

    def __init__(self, image_id: str, box: OrientedBox, category: str, score: float):
        _set(self, "image_id", image_id)
        _set(self, "box", box)
        _set(self, "category", category)
        _set(self, "score", score)
        _check_box("detection box", box, kind=OrientedBox)
        if not (_finite((score,), "score") and 0.0 <= score <= 1.0):
            raise InvalidInputError(f"score must lie in [0, 1], got {_shown(score)}")


class MatchResult(_Record):
    """Flags aligned with the input record order.

    A detection with neither flag set was absorbed by a difficult ground
    truth and is ignored by the PR accumulation.
    """

    __slots__ = __match_args__ = ("tp", "fp", "gt_matched")

    def __init__(self, tp: tuple[bool, ...], fp: tuple[bool, ...], gt_matched: tuple[bool, ...]):
        _set(self, "tp", tp)
        _set(self, "fp", fp)
        _set(self, "gt_matched", gt_matched)


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise InvalidInputError(f"mode must be {VOC07!r} or {VOC12!r}, got {_shown(mode, repr)}")


def canonical_thresholds(iou_thresholds: Sequence[float]) -> tuple[float, ...]:
    """Thresholds rounded to two decimals, deduplicated and sorted.

    Each must round into (0, 1]; the error names the value as given.
    """
    canonical = set()
    for t in _sequence(iou_thresholds, "iou thresholds"):
        rounded = round(float(t), 2) if _finite((t,), "iou threshold") else math.nan
        if not (0.0 < rounded <= 1.0):
            raise InvalidInputError(f"iou threshold must lie in (0, 1], got {_shown(t)}")
        canonical.add(rounded)
    if not canonical:
        raise InvalidInputError("at least one IoU threshold is required")
    return tuple(sorted(canonical))


def threshold_label(threshold: float) -> str:
    """The two-decimal label a canonical threshold is reported under."""
    return f"{threshold:.2f}"


def _det_order(dets: Sequence[DetectionRecord]) -> list[int]:
    return sorted(range(len(dets)), key=lambda i: (-dets[i].score, dets[i].image_id, i))


def match_detections(dets: Sequence[DetectionRecord], gts: Sequence[GroundTruthRecord],
                     iou_threshold: float) -> MatchResult:
    """Greedy single-category matching at one IoU threshold.

    Detections are visited in descending score. Each one claims its
    best-IoU candidate among the same image's unmatched ground truths
    (difficult ground truths stay claimable and absorb without flags).
    A claim below the threshold, or no candidate at all, is a false
    positive. The threshold is rounded by canonical_thresholds, as in evaluate.
    """
    (threshold,) = canonical_thresholds((iou_threshold,))
    gts = _check_box("gts entry", *_sequence(gts, "gts", of="records"), kind=GroundTruthRecord)
    dets = _check_box("dets entry", *_sequence(dets, "dets", of="records"), kind=DetectionRecord)
    categories = {r.category for r in dets} | {r.category for r in gts}
    if len(categories) > 1:
        raise InvalidInputError(f"records span multiple categories: {sorted(categories)}")
    return _match(gts, _det_order(dets), _candidates(dets, gts), threshold)


def _candidates(dets: Sequence[DetectionRecord],
                gts: Sequence[GroundTruthRecord]) -> list[list[tuple[int, float]]]:
    """For each detection, (GT index, IoU) over its image's GTs in input order.

    Only overlapping pairs are listed, once per image for every threshold:
    no detection can claim a zero-IoU pair.
    """
    gt_by_image: dict[str, list[int]] = {}
    for gi, gt in enumerate(gts):
        gt_by_image.setdefault(gt.image_id, []).append(gi)
    det_by_image: dict[str, list[int]] = {}
    for di, det in enumerate(dets):
        det_by_image.setdefault(det.image_id, []).append(di)
    candidates: list[list[tuple[int, float]]] = [[] for _ in dets]
    for image_id, dis in det_by_image.items():
        gis = gt_by_image.get(image_id)
        if not gis:
            continue
        rows = _overlaps([dets[di].box for di in dis], [gts[gi].box for gi in gis])
        for di, row in zip(dis, rows):
            candidates[di] = [(gis[j], iou) for j, iou in row]
    return candidates


def _match(gts: Sequence[GroundTruthRecord], order: Sequence[int],
           candidates: list[list[tuple[int, float]]], iou_threshold: float) -> MatchResult:
    tp = [False] * len(candidates)
    fp = [False] * len(candidates)
    matched = [False] * len(gts)
    for di in order:
        best_iou, best_gi = 0.0, -1
        for gi, iou in candidates[di]:
            if iou > best_iou and not matched[gi]:
                best_iou, best_gi = iou, gi
        if best_gi < 0 or best_iou < iou_threshold:
            fp[di] = True
        elif not gts[best_gi].difficult:  # a difficult GT absorbs the detection
            tp[di] = True
            matched[best_gi] = True
    return MatchResult(tuple(tp), tuple(fp), tuple(matched))


def average_precision(recall: Sequence[float], precision: Sequence[float], mode: str) -> float:
    """Average precision of a PR curve with every value in [0, 1].

    Both modes read one monotone envelope, the best precision at each recall
    or beyond: VOC07 averages it at recall levels 0, 0.1, ..., 1.0 (0 past
    the last recall); VOC12 integrates it over the full curve.
    """
    rec, prec = _sequence(recall, "recall"), _sequence(precision, "precision")
    finite = _finite(rec + prec, "recall or precision")
    if len(rec) != len(prec):
        raise InvalidInputError("recall and precision must be equal-length vectors")
    if not (finite and all(0.0 <= float(v) <= 1.0 for v in (*rec, *prec))):
        raise InvalidInputError("recall and precision must lie in [0, 1]")
    rec, prec = list(map(float, rec)), list(map(float, prec))
    if any(b < a for a, b in zip(rec, rec[1:])):
        raise InvalidInputError("recall must be non-decreasing")
    _check_mode(mode)
    if not rec:
        return 0.0

    # mpre[k + 1] is the first of the greatest precisions from rec[k] on, and
    # the padded 0.0 past the end; fsum keeps the result independent of order.
    mpre = [0.0, *prec, 0.0]
    for i in range(len(mpre) - 1, 0, -1):
        mpre[i - 1] = max(mpre[i - 1], mpre[i])
    if mode == VOC07:
        # i / 10 is the closest double to each exact recall level
        return math.fsum(mpre[bisect_left(rec, i / 10.0) + 1] for i in range(11)) / 11.0
    mrec = [0.0, *rec, 1.0]
    return math.fsum((mrec[i + 1] - mrec[i]) * mpre[i + 1]
                     for i in range(len(mrec) - 1) if mrec[i + 1] != mrec[i])


class CategoryThresholdResult(_Record):
    """PR curve and counts for one (category, threshold) cell."""

    __slots__ = __match_args__ = ("ap", "recall", "precision", "tp", "fp", "num_gt")

    def __init__(self, ap: float, recall: tuple[float, ...], precision: tuple[float, ...],
                 tp: int, fp: int, num_gt: int):
        _set(self, "ap", ap)
        _set(self, "recall", recall)
        _set(self, "precision", precision)
        _set(self, "tp", tp)
        _set(self, "fp", fp)
        _set(self, "num_gt", num_gt)


class EvalReport(_Record):
    __slots__ = __match_args__ = ("mode", "thresholds", "categories", "map_by_threshold",
                                  "map_50_95")

    def __init__(self, mode: str, thresholds: tuple[float, ...],
                 categories: dict[str, dict[float, CategoryThresholdResult]],
                 map_by_threshold: dict[float, float], map_50_95: float | None):
        _set(self, "mode", mode)
        _set(self, "thresholds", thresholds)
        _set(self, "categories", categories)
        _set(self, "map_by_threshold", map_by_threshold)
        _set(self, "map_50_95", map_50_95)


def evaluate(gts: Sequence[GroundTruthRecord], dets: Sequence[DetectionRecord],
             iou_thresholds: Sequence[float], mode: str = VOC12) -> EvalReport:
    """Full evaluation over every category present in the ground truth.

    Categories with no ground truth are excluded; mAP at a threshold is the
    unweighted mean of category APs. mAP@0.50:0.95 is reported when all ten
    of its thresholds were requested. Thresholds go through
    canonical_thresholds. Each det x GT IoU is computed once per image and
    category and read by every threshold.
    """
    _check_mode(mode)
    thresholds = canonical_thresholds(iou_thresholds)
    gts = _check_box("gts entry", *_sequence(gts, "gts", of="records"), kind=GroundTruthRecord)
    dets = _check_box("dets entry", *_sequence(dets, "dets", of="records"), kind=DetectionRecord)

    categories = sorted({g.category for g in gts})
    dets_by_cat: dict[str, list[DetectionRecord]] = {c: [] for c in categories}
    for det in dets:
        if det.category in dets_by_cat:
            dets_by_cat[det.category].append(det)
    gts_by_cat: dict[str, list[GroundTruthRecord]] = {c: [] for c in categories}
    for gt in gts:
        gts_by_cat[gt.category].append(gt)

    per_category: dict[str, dict[float, CategoryThresholdResult]] = {}
    for cat in categories:
        cat_dets = dets_by_cat[cat]
        cat_gts = gts_by_cat[cat]
        num_gt = sum(1 for g in cat_gts if not g.difficult)
        order = _det_order(cat_dets)
        candidates = _candidates(cat_dets, cat_gts)
        cells: dict[float, CategoryThresholdResult] = {}
        for thr in thresholds:
            result = _match(cat_gts, order, candidates, thr)
            tp_cum = fp_cum = 0
            rec, prec = [], []
            for di in order:
                if result.tp[di]:
                    tp_cum += 1
                elif result.fp[di]:
                    fp_cum += 1
                else:
                    continue
                rec.append(tp_cum / num_gt if num_gt else 0.0)
                prec.append(tp_cum / (tp_cum + fp_cum))
            ap = average_precision(rec, prec, mode) if num_gt else 0.0
            cells[thr] = CategoryThresholdResult(
                ap=ap, recall=tuple(rec), precision=tuple(prec),
                tp=tp_cum, fp=fp_cum, num_gt=num_gt)
        per_category[cat] = cells

    map_by_threshold = {
        thr: (math.fsum(per_category[c][thr].ap for c in categories) / len(categories)
              if categories else 0.0)
        for thr in thresholds
    }
    map_50_95 = None
    if all(t in map_by_threshold for t in COCO_THRESHOLDS):
        map_50_95 = math.fsum(map_by_threshold[t] for t in COCO_THRESHOLDS) / len(COCO_THRESHOLDS)
    return EvalReport(mode=mode, thresholds=thresholds, categories=per_category,
                      map_by_threshold=map_by_threshold, map_50_95=map_50_95)
