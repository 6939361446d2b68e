"""Detection losses and box-delta transforms, in pure Python.

Anchor-relative box deltas, smooth L1, MSE, focal, softmax cross-entropy,
the IoU-aware residual loss (smooth L1 re-weighted by |-log IoU| + 1), the
five-term multi-task loss, and a finite-difference gradient checker. Each
loss ships an analytic gradient for verification; vector gradients are
lists of floats. The constants are fixed: smooth L1 has beta = 1, focal
loss alpha = 0.25 and gamma = 2 (RetinaNet), and the finite-difference
step is 1e-6.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Sequence

from .codecs import _DCL_METHODS, AnglePrediction, CodecConfig, _angle, _bin_from_scores, _target
from .errors import InvalidInputError, _finite, _finite_floats, _integer, _shown
from .obb import AxisAlignedBox, OrientedBox, longside, rotated_iou

FOCAL_ALPHA = 0.25
FOCAL_GAMMA = 2.0

# Rotated IoU is clamped here before entering the log re-weighting term.
_IOU_FLOOR = 1e-6

# Central-difference step of the gradient checker.
_FD_STEP = 1e-6

# The prior box the deltas are regressed against.
AnchorBox = AxisAlignedBox


@dataclass(frozen=True)
class BoxDeltas:
    """Dimensionless anchor-relative offsets (dx, dy) and log-scales (dw, dh)."""

    dx: float
    dy: float
    dw: float
    dh: float

    def __post_init__(self):
        if not _finite((self.dx, self.dy, self.dw, self.dh), "box delta"):
            raise InvalidInputError("non-finite box deltas")


@dataclass(frozen=True)
class LossWeights:
    """Per-term weights of the multi-task loss, defaulting to (2, 2, 5, 2, 0.5)."""

    location: float = 2.0
    confidence: float = 2.0
    category: float = 5.0
    angle_class: float = 2.0
    angle_reg: float = 0.5

    def __post_init__(self):
        values = (self.location, self.confidence, self.category, self.angle_class, self.angle_reg)
        if not _finite(values, "loss weight") or any(v < 0 for v in values):
            raise InvalidInputError(f"loss weights must be non-negative, got {_shown(values)}")


@dataclass(frozen=True, eq=False)
class AssignedSample:
    """One pre-assigned anchor with its predictions and (if foreground) targets."""

    objectness: int
    anchor: AnchorBox
    pred_deltas: BoxDeltas
    pred_confidence: float
    pred_category_logits: tuple[float, ...]
    pred_angle: AnglePrediction
    gt_box: OrientedBox | None = None
    gt_category: int | None = None

    def __post_init__(self):
        if self.objectness not in (0, 1):
            raise InvalidInputError(f"objectness must be 0 or 1, got {_shown(self.objectness)}")
        if not _finite((self.pred_confidence,), "confidence logit"):
            raise InvalidInputError(f"non-finite confidence logit {_shown(self.pred_confidence)}")
        object.__setattr__(self, "pred_category_logits",
                           _finite_floats(self.pred_category_logits, "category logits"))
        if self.objectness == 1 and (self.gt_box is None or self.gt_category is None):
            raise InvalidInputError("foreground samples need gt_box and gt_category")
        if self.gt_category is not None:
            object.__setattr__(self, "gt_category", _integer(self.gt_category, "gt_category"))
        # The loss trusts what these types checked when they were built.
        if not (isinstance(self.pred_angle, AnglePrediction)
                and isinstance(self.gt_box, (OrientedBox, type(None)))):
            raise InvalidInputError("pred_angle must be an AnglePrediction, gt_box an OrientedBox")


@dataclass(frozen=True)
class LossBreakdown:
    """Unweighted per-term means plus the weighted total."""

    location: float
    confidence: float
    category: float
    angle_class: float
    angle_reg: float
    total: float


def encode_box_deltas(box, anchor: AnchorBox) -> BoxDeltas:
    """Anchor-relative deltas of a box's center and sides.

    Accepts anything with cx/cy/w/h fields (axis-aligned or oriented box).
    """
    if box.w <= 0 or box.h <= 0:
        raise InvalidInputError(f"box sides must be positive, got w={box.w}, h={box.h}")
    return BoxDeltas(
        dx=(box.cx - anchor.cx) / anchor.w,
        dy=(box.cy - anchor.cy) / anchor.h,
        dw=math.log(box.w / anchor.w),
        dh=math.log(box.h / anchor.h),
    )


def decode_box_deltas(deltas: BoxDeltas, anchor: AnchorBox) -> AxisAlignedBox:
    """Exact inverse of encode_box_deltas; log-scales that overflow are an input error."""
    try:
        w, h = anchor.w * math.exp(deltas.dw), anchor.h * math.exp(deltas.dh)
    except OverflowError:
        raise InvalidInputError(f"box deltas overflow: dw={deltas.dw}, dh={deltas.dh}") from None
    return AxisAlignedBox(cx=deltas.dx * anchor.w + anchor.cx,
                          cy=deltas.dy * anchor.h + anchor.cy, w=w, h=h)


def smooth_l1(pred: float, target: float) -> float:
    """Huber-style loss with beta = 1: quadratic within 1 of the target, linear beyond."""
    x = pred - target
    if abs(x) < 1.0:
        return 0.5 * x * x
    return abs(x) - 0.5


def smooth_l1_grad(pred: float, target: float) -> float:
    x = pred - target
    if abs(x) < 1.0:
        return x
    return math.copysign(1.0, x)


def mse(pred: float, target: float) -> float:
    """Squared error."""
    return (pred - target) ** 2


def mse_grad(pred: float, target: float) -> float:
    return 2.0 * (pred - target)


def ifl(pred_residual: float, target_residual: float, iou: float) -> float:
    """IoU-aware residual loss: smooth L1 scaled by |-log(iou)| + 1.

    The weight is 1 at iou = 1 and grows as the boxes diverge, so poorly
    localized samples push the residual harder.
    """
    return smooth_l1(pred_residual, target_residual) * _ifl_weight(iou)


def ifl_grad(pred_residual: float, target_residual: float, iou: float) -> float:
    return smooth_l1_grad(pred_residual, target_residual) * _ifl_weight(iou)


def _ifl_weight(iou: float) -> float:
    if not (_finite((iou,), "iou") and 0.0 < iou <= 1.0):
        raise InvalidInputError(f"iou must lie in (0, 1], got {_shown(iou)}")
    return abs(-math.log(iou)) + 1.0


def _log_sigmoid(x: float) -> float:
    # log(sigmoid(x)), stable for large |x|.
    if x >= 0:
        return -math.log1p(math.exp(-x))
    return x - math.log1p(math.exp(x))


def _sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def _focal_terms(logit: float, label: int) -> tuple[float, float, float]:
    # (z, alpha_t, sign) with pt = sigmoid(z) and dz/dlogit = sign. The label
    # check is the branch that picks the terms, so it costs nothing to keep.
    if label == 1:
        return logit, FOCAL_ALPHA, 1.0
    if label == 0:
        return -logit, 1.0 - FOCAL_ALPHA, -1.0
    raise InvalidInputError(f"label must be 0 or 1, got {_shown(label)}")


def focal_loss(logit: float, label: int) -> float:
    """Focal loss -alpha_t (1 - pt)^gamma log(pt) on a single logit."""
    z, alpha_t, _ = _focal_terms(logit, label)
    return -alpha_t * _sigmoid(-z) ** FOCAL_GAMMA * _log_sigmoid(z)


def focal_loss_grad(logit: float, label: int) -> float:
    # d/dz = -alpha_t (1-pt)^gamma ((1-pt) - gamma pt log(pt)), written with
    # sigmoid(-z) for 1 - pt so it stays finite when pt rounds to 0 or 1.
    z, alpha_t, sign = _focal_terms(logit, label)
    one_minus_pt = _sigmoid(-z)
    return sign * -alpha_t * one_minus_pt ** FOCAL_GAMMA * (
        one_minus_pt - FOCAL_GAMMA * _sigmoid(z) * _log_sigmoid(z))


def _softmax_terms(z: tuple[float, ...], target_index: int):
    # (max z, exp(z - max z), the fsum of those) of finite float logits: the
    # max-shifted log-sum-exp behind the cross-entropy and its gradient.
    if not 0 <= target_index < len(z):
        raise InvalidInputError(
            f"target index {_shown(target_index)} out of range for {len(z)} logits")
    m = max(z)
    exps = [math.exp(v - m) for v in z]
    return m, exps, math.fsum(exps)


def _cross_entropy(z: tuple[float, ...], target_index: int) -> float:
    m, _, total = _softmax_terms(z, target_index)
    return m + math.log(total) - z[target_index]


def cross_entropy(logits: Sequence[float], target_index: int) -> float:
    """Softmax cross-entropy against a hard class index."""
    return _cross_entropy(_finite_floats(logits, "logits"), _integer(target_index, "target index"))


def cross_entropy_grad(logits: Sequence[float], target_index: int) -> list[float]:
    z, target_index = _finite_floats(logits, "logits"), _integer(target_index, "target index")
    _, exps, total = _softmax_terms(z, target_index)
    grad = [e / total for e in exps]
    grad[target_index] -= 1.0
    return grad


def _axis_spans(pc: float, ps: float, tc: float, ts: float):
    # (overlap, d_overlap, enclosing, d_enclosing) of the predicted interval
    # (centre pc, size ps) and the target's on one axis, each derivative taken in
    # (pc, ps). Each predicted end bounds exactly one of the two spans: the
    # overlap where it lies inside the target's end, else the enclosing span. On
    # a tie the right end counts as inside and the left end as outside.
    pr, pl = pc + 0.5 * ps, pc - 0.5 * ps
    tr, tl = tc + 0.5 * ts, tc - 0.5 * ts
    r_in, l_in = float(pr <= tr), float(pl > tl)
    overlap = (pr if r_in else tr) - (pl if l_in else tl)
    d_overlap = (r_in - l_in, 0.5 * (r_in + l_in))
    if overlap <= 0.0:
        overlap, d_overlap = 0.0, (0.0, 0.0)
    r_out, l_out = 1.0 - r_in, 1.0 - l_in
    enclosing = (tr if r_in else pr) - (tl if l_in else pl)
    return overlap, d_overlap, enclosing, (r_out - l_out, 0.5 * (r_out + l_out))


def _giou_terms(pred: Sequence[float], target: Sequence[float]):
    # The _giou_areas of two (cx, cy, w, h) boxes, each checked first as an
    # AxisAlignedBox, with its errors.
    px, py, pw, ph = pred
    tx, ty, tw, th = target
    AxisAlignedBox(px, py, pw, ph)
    AxisAlignedBox(tx, ty, tw, th)
    return _giou_areas(px, py, pw, ph, tx, ty, tw, th)


def _giou_areas(*boxes: float):
    # ((pw, ph), x spans, y spans, inter, union, enclosing) of a predicted and a
    # target box, 8 numbers of valid boxes: the _axis_spans of each axis and the
    # areas GIoU is built from, which the loss and its gradient both read.
    px, py, pw, ph, tx, ty, tw, th = map(float, boxes)
    x, y = _axis_spans(px, pw, tx, tw), _axis_spans(py, ph, ty, th)
    inter = x[0] * y[0]
    union, enclosing = pw * ph + tw * th - inter, x[2] * y[2]
    # Valid boxes whose union or enclosing area rounds to 0 or overflows have no GIoU.
    if not (0.0 < union < math.inf and 0.0 < enclosing < math.inf):
        raise InvalidInputError(f"boxes have no finite GIoU: union={union!r}, "
                                f"enclosing={enclosing!r}")
    return (pw, ph), x, y, inter, union, enclosing


def _giou_loss(terms) -> float:
    _, _, _, inter, union, enclosing = terms
    return 1.0 - (inter / union - (enclosing - union) / enclosing)


def giou_location_loss(pred: Sequence[float], target: Sequence[float]) -> float:
    """1 - GIoU between two (cx, cy, w, h) boxes."""
    return _giou_loss(_giou_terms(pred, target))


def giou_location_loss_grad(pred: Sequence[float], target: Sequence[float]) -> list[float]:
    """Gradient of 1 - GIoU with respect to the predicted (cx, cy, w, h)."""
    (pw, ph), x, y, inter, union, enclosing = _giou_terms(pred, target)
    iw, (diw_c, diw_s), cw, (dcw_c, dcw_s) = x
    ih, (dih_c, dih_s), ch, (dch_c, dch_s) = y
    # The quotient rule squares both areas: one below ~1e-162 squares to 0, and
    # one above ~1e154 to inf.
    if not (0.0 < union * union < math.inf and 0.0 < enclosing * enclosing < math.inf):
        raise InvalidInputError(f"GIoU gradient squares an area out of range: "
                                f"union={union!r}, enclosing={enclosing!r}")
    # Derivatives in (cx, cy, w, h).
    d_inter = (ih * diw_c, iw * dih_c, ih * diw_s, iw * dih_s)
    d_union = (-d_inter[0], -d_inter[1], ph - d_inter[2], pw - d_inter[3])
    d_enclosing = (ch * dcw_c, cw * dch_c, ch * dcw_s, cw * dch_s)
    # giou = iou - 1 + union / enclosing
    return [-((di * union - inter * du) / (union * union)
              + (du * enclosing - union * de) / (enclosing * enclosing))
            for di, du, de in zip(d_inter, d_union, d_enclosing)]


def multitask_loss(samples: Sequence[AssignedSample], weights: LossWeights,
                   codec: CodecConfig) -> LossBreakdown:
    """Assemble the five-term training loss over pre-assigned samples.

    Location (1 - GIoU on decoded deltas), category cross-entropy, angle
    cross-entropy, and the IoU-aware residual term apply to foreground
    samples only; the focal confidence term runs over every sample. Stored
    fields are unweighted means over the sample count; the total applies
    the weights. The IoU feeding the residual term is the rotated IoU of
    the fully decoded prediction against the ground truth.

    Inputs are checked once, when a sample is built. Its terms then go
    through the same kernels as the public losses, encode and decode, with
    only the checks a built sample can still fail, raising the same errors.
    """
    if not samples:
        raise InvalidInputError("sample list is empty")
    if codec.method in _DCL_METHODS:
        raise InvalidInputError("multitask loss needs per-bin class logits; dcl codes unsupported")

    loc, conf, cat, ang_c, ang_r = [], [], [], [], []
    for s in samples:
        conf.append(focal_loss(s.pred_confidence, s.objectness))
        if not s.objectness:
            continue
        angle, gt = s.pred_angle, s.gt_box
        if len(angle.class_logits) != codec.code_length:
            raise InvalidInputError(f"{codec.method.value} expects {codec.code_length} angle "
                                    f"logits, got {len(angle.class_logits)}")
        pred_box = decode_box_deltas(s.pred_deltas, s.anchor)
        loc.append(_giou_loss(_giou_areas(pred_box.cx, pred_box.cy, pred_box.w, pred_box.h,
                                          gt.cx, gt.cy, gt.w, gt.h)))
        cat.append(_cross_entropy(s.pred_category_logits, s.gt_category))
        k, residual_target = _target(gt.theta, codec)
        if codec.has_classification:
            ang_c.append(_cross_entropy(angle.class_logits, k))
        if codec.has_regression:
            theta_pred = _angle(_bin_from_scores(angle.class_logits, codec),
                                angle.regression_output, codec)
            pred_obb = longside(pred_box.cx, pred_box.cy, pred_box.w, pred_box.h, theta_pred)
            iou = max(rotated_iou(pred_obb, gt), _IOU_FLOOR)
            ang_r.append(ifl(angle.regression_output, residual_target, iou))

    n = len(samples)
    terms = tuple(math.fsum(values) / n for values in (loc, conf, cat, ang_c, ang_r))
    lambdas = (weights.location, weights.confidence, weights.category,
               weights.angle_class, weights.angle_reg)
    total = math.fsum(lam * term for lam, term in zip(lambdas, terms))
    return LossBreakdown(*terms, total=total)


def finite_diff_grad_check(fn: Callable[[list[float]], float],
                           grad_fn: Callable[[list[float]], Sequence[float]],
                           point: Sequence[float]) -> float:
    """Max relative error between grad_fn and central differences of fn.

    A NaN in either gradient gives math.inf, so it fails every tolerance."""
    x = _finite_floats(point, "point")
    analytic = [float(g) for g in grad_fn(list(x))]
    worst = 0.0
    for i, xi in enumerate(x):
        shifted = list(x)
        shifted[i] = xi + _FD_STEP
        f_plus = fn(shifted)
        shifted[i] = xi - _FD_STEP
        fd = (f_plus - fn(shifted)) / (2.0 * _FD_STEP)
        if math.isnan(fd) or math.isnan(analytic[i]):
            return math.inf
        denom = max(abs(fd), abs(analytic[i]), 1e-8)
        worst = max(worst, abs(fd - analytic[i]) / denom)
    return worst


@dataclass(frozen=True)
class GradCheckResult:
    max_relative_error: float
    worst_point: tuple[float, ...]


def _sample_giou_case(rng: random.Random) -> tuple[list[float], list[float]]:
    # Resample until every min/max branch sits well clear of its boundary,
    # keeping the loss smooth across the finite-difference stencil.
    while True:
        pred = [rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(1, 3), rng.uniform(1, 3)]
        target = [rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(1, 3), rng.uniform(1, 3)]
        px, py, pw, ph = pred
        tx, ty, tw, th = target
        margins = [
            (px + pw / 2) - (tx + tw / 2), (px - pw / 2) - (tx - tw / 2),
            (py + ph / 2) - (ty + th / 2), (py - ph / 2) - (ty - th / 2),
            min(px + pw / 2, tx + tw / 2) - max(px - pw / 2, tx - tw / 2),
            min(py + ph / 2, ty + th / 2) - max(py - ph / 2, ty - th / 2),
        ]
        if all(abs(m) > 1e-2 for m in margins):
            return pred, target


def run_gradient_checks(seed: int = 0, points: int = 100) -> dict[str, GradCheckResult]:
    """Finite-difference check of every analytic gradient at random smooth points.

    Returns the worst relative error (and the point attaining it) per loss.
    """
    _finite((points,), "points")  # a number, so that it compares with 1
    if points < 1:
        raise InvalidInputError(f"points must be at least 1, got {_shown(points)}")
    points = _integer(points, "points")
    if seed < 0:
        raise InvalidInputError(f"seed must be non-negative, got {_shown(seed)}")
    rng = random.Random(seed)
    results: dict[str, GradCheckResult] = {}

    def run(name, make_case):
        worst, worst_point = 0.0, ()
        for _ in range(points):
            fn, grad_fn, point = make_case()
            err = finite_diff_grad_check(fn, grad_fn, point)
            if err > worst:
                worst, worst_point = err, tuple(point)
        results[name] = GradCheckResult(worst, worst_point)

    def off_kink() -> float:
        # An offset from the target kept 0.05 clear of smooth L1's kink at |x| = 1.
        while True:
            x = rng.uniform(-3, 3)
            if abs(abs(x) - 1.0) > 0.05:
                return x

    def smooth_l1_case():
        target = rng.uniform(-3, 3)
        return (lambda p: smooth_l1(p[0], target),
                lambda p: [smooth_l1_grad(p[0], target)],
                [target + off_kink()])

    def mse_case():
        target = rng.uniform(-3, 3)
        return (lambda p: mse(p[0], target),
                lambda p: [mse_grad(p[0], target)],
                [rng.uniform(-3, 3)])

    def ifl_case():
        target = rng.uniform(-3, 3)
        iou = rng.uniform(0.05, 1.0)
        return (lambda p: ifl(p[0], target, iou),
                lambda p: [ifl_grad(p[0], target, iou)],
                [target + off_kink()])

    def focal_case():
        label = rng.randrange(2)
        return (lambda p: focal_loss(p[0], label),
                lambda p: [focal_loss_grad(p[0], label)],
                [rng.uniform(-4, 4)])

    def cross_entropy_case():
        idx = rng.randrange(5)
        return (lambda p: cross_entropy(p, idx),
                lambda p: cross_entropy_grad(p, idx),
                [rng.gauss(0.0, 1.0) for _ in range(5)])

    def giou_case():
        pred, target = _sample_giou_case(rng)
        return (lambda p: giou_location_loss(p, target),
                lambda p: giou_location_loss_grad(p, target),
                pred)

    run("smooth_l1", smooth_l1_case)
    run("mse", mse_case)
    run("ifl", ifl_case)
    run("focal", focal_case)
    run("cross_entropy", cross_entropy_case)
    run("giou_location", giou_case)
    return results
