"""Detection losses and box-delta transforms, in pure Python.

Anchor-relative box deltas, smooth L1, MSE, focal, softmax cross-entropy,
the IoU-aware residual loss (smooth L1 re-weighted by |-log IoU| + 1), the
five-term multi-task loss, and a finite-difference gradient checker. Each
loss is one private kernel giving its value and analytic gradient (a list
of floats for a vector) from one set of terms; its public pair checks the
inputs once, and the multi-task loss calls the kernels. Fixed constants:
smooth L1 beta = 1, focal alpha = 0.25, gamma = 2, finite-difference step 1e-6.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Sequence

from .codecs import _DCL_METHODS, AnglePrediction, CodecConfig, _angle, _bin_from_scores, _target
from .errors import (InvalidInputError, _check_box, _finite, _finite_floats, _integer, _sequence,
                     _shown)
from .obb import OrientedBox, _box_rule, _long_side, _pair_iou, _prepare

FOCAL_ALPHA = 0.25
FOCAL_GAMMA = 2.0

# Rotated IoU is clamped here before entering the log re-weighting term.
_IOU_FLOOR = 1e-6

# Central-difference step of the gradient checker.
_FD_STEP = 1e-6


@dataclass(frozen=True)
class AnchorBox:
    """Axis-aligned prior box, center plus width/height, that deltas are regressed against."""

    cx: float
    cy: float
    w: float
    h: float

    def __post_init__(self):
        _axis_box(self.cx, self.cy, self.w, self.h)


def _axis_box(cx, cy, w, h) -> tuple:
    # AnchorBox's rule on its four numbers: them, or its constructor's error.
    if not _finite((cx, cy, w, h), "box parameter"):
        raise InvalidInputError("non-finite box parameters")
    if w <= 0 or h <= 0:
        raise InvalidInputError(f"box sides must be positive, got w={w}, h={h}")
    return cx, cy, w, h


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
        if _integer(self.objectness, "objectness") not in (0, 1):
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
        if not (isinstance(self.anchor, AnchorBox) and isinstance(self.pred_deltas, BoxDeltas)
                and isinstance(self.pred_angle, AnglePrediction)
                and isinstance(self.gt_box, (OrientedBox, type(None)))):
            raise InvalidInputError("pred_angle must be an AnglePrediction, gt_box an OrientedBox, "
                                    "anchor an AnchorBox, pred_deltas a BoxDeltas")


@dataclass(frozen=True)
class LossBreakdown:
    """Unweighted per-term means plus the weighted total."""

    location: float
    confidence: float
    category: float
    angle_class: float
    angle_reg: float
    total: float


def encode_box_deltas(box: OrientedBox | AnchorBox, anchor: AnchorBox) -> BoxDeltas:
    """Anchor-relative deltas of a built box's center and sides."""
    if not isinstance(box, (OrientedBox, AnchorBox)):
        raise InvalidInputError(f"box must be an OrientedBox or AnchorBox, got {_shown(box, repr)}")
    if not isinstance(anchor, AnchorBox):  # whose sides, the divisors, are positive
        raise InvalidInputError(f"anchor must be an AnchorBox, got {_shown(anchor, repr)}")
    return BoxDeltas(
        dx=(box.cx - anchor.cx) / anchor.w,
        dy=(box.cy - anchor.cy) / anchor.h,
        dw=math.log(box.w / anchor.w),
        dh=math.log(box.h / anchor.h),
    )


def decode_box_deltas(deltas: BoxDeltas, anchor: AnchorBox) -> AnchorBox:
    """Exact inverse of encode_box_deltas; log-scales that overflow are an input error."""
    _check_box("deltas", deltas, kind=BoxDeltas)
    if not isinstance(anchor, AnchorBox):
        raise InvalidInputError(f"anchor must be an AnchorBox, got {_shown(anchor, repr)}")
    return AnchorBox(*_decoded(deltas, anchor))


def _decoded(deltas: BoxDeltas, anchor: AnchorBox) -> tuple:
    # (cx, cy, w, h) of built deltas on a built anchor, before AnchorBox's rule.
    try:
        w, h = anchor.w * math.exp(deltas.dw), anchor.h * math.exp(deltas.dh)
    except OverflowError:
        raise InvalidInputError(f"box deltas overflow: dw={deltas.dw}, dh={deltas.dh}") from None
    return deltas.dx * anchor.w + anchor.cx, deltas.dy * anchor.h + anchor.cy, w, h


def _checked(names: str, *values) -> tuple:
    # The scalar arguments of a public loss, named in order by the words of
    # names: each a finite number, or an error naming the first that is not.
    for name, value in zip(names.split(), values):
        if not _finite((value,), name):
            raise InvalidInputError(f"{name} must be finite, got {_shown(value)}")
    return values


def _smooth_l1(pred: float, target: float) -> tuple[float, float]:
    # (value, gradient) of smooth L1 at the residual x = pred - target.
    x = pred - target
    if abs(x) < 1.0:
        return 0.5 * x * x, x
    return abs(x) - 0.5, math.copysign(1.0, x)


def smooth_l1(pred: float, target: float) -> float:
    """Huber-style loss with beta = 1: quadratic within 1 of the target, linear beyond."""
    return _smooth_l1(*_checked("pred target", pred, target))[0]


def smooth_l1_grad(pred: float, target: float) -> float:
    return _smooth_l1(*_checked("pred target", pred, target))[1]


def _mse(pred: float, target: float) -> tuple[float, float]:
    # (value, gradient) of the squared error at the residual x = pred - target.
    # A square past float range is inf, as a product is, so the gradient stands.
    x = pred - target
    try:
        return x ** 2, 2.0 * x
    except OverflowError:
        return math.inf, 2.0 * x


def mse(pred: float, target: float) -> float:
    """Squared error."""
    return _mse(*_checked("pred target", pred, target))[0]


def mse_grad(pred: float, target: float) -> float:
    return _mse(*_checked("pred target", pred, target))[1]


def _ifl(pred: float, target: float, iou: float) -> tuple[float, float]:
    # (value, gradient) of smooth L1 at the residual, each times the weight
    # |-log(iou)| + 1. The IoU is checked here: the multi-task loss computes it.
    if not (_finite((iou,), "iou") and 0.0 < iou <= 1.0):
        raise InvalidInputError(f"iou must lie in (0, 1], got {_shown(iou)}")
    weight = abs(-math.log(iou)) + 1.0
    value, grad = _smooth_l1(pred, target)
    return value * weight, grad * weight


def ifl(pred_residual: float, target_residual: float, iou: float) -> float:
    """IoU-aware residual loss: smooth L1 scaled by |-log(iou)| + 1.

    The weight is 1 at iou = 1 and grows as the boxes diverge, so poorly
    localized samples push the residual harder.
    """
    return _ifl(*_checked("pred_residual target_residual", pred_residual, target_residual), iou)[0]


def ifl_grad(pred_residual: float, target_residual: float, iou: float) -> float:
    return _ifl(*_checked("pred_residual target_residual", pred_residual, target_residual), iou)[1]


def _focal(logit: float, label: int) -> tuple[float, float]:
    # (value, gradient) of focal loss. With z = logit for label 1 and -logit for
    # label 0, pt = sigmoid(z) and d/dz = -alpha_t (1-pt)^gamma ((1-pt) - gamma
    # pt log(pt)), written with 1 - pt = sigmoid(-z) so it stays finite when
    # pt rounds to 0 or 1. The label check is the branch that picks the terms.
    if label == 1:
        z, alpha_t, sign = logit, FOCAL_ALPHA, 1.0
    elif label == 0:
        z, alpha_t, sign = -logit, 1.0 - FOCAL_ALPHA, -1.0
    else:
        raise InvalidInputError(f"label must be 0 or 1, got {_shown(label)}")
    # Both sigmoids and log(pt) from one e = exp(-|z|), stable for large |z|.
    if z >= 0:
        e = math.exp(-z)
        pt, one_minus_pt, log_pt = 1.0 / (1.0 + e), e / (1.0 + e), -math.log1p(e)
    else:
        e = math.exp(z)
        pt, one_minus_pt, log_pt = e / (1.0 + e), 1.0 / (1.0 + e), z - math.log1p(e)
    scale = -alpha_t * one_minus_pt ** FOCAL_GAMMA
    return scale * log_pt, sign * scale * (one_minus_pt - FOCAL_GAMMA * pt * log_pt)


def focal_loss(logit: float, label: int) -> float:
    """Focal loss -alpha_t (1 - pt)^gamma log(pt) on a single logit."""
    return _focal(*_checked("logit", logit), _integer(label, "label"))[0]


def focal_loss_grad(logit: float, label: int) -> float:
    return _focal(*_checked("logit", logit), _integer(label, "label"))[1]


def _softmax_terms(z: tuple[float, ...], target_index: int):
    # (cross-entropy, exp(z - max z), the fsum of those) of finite float logits:
    # the max-shifted log-sum-exp behind the loss and its gradient.
    if not 0 <= target_index < len(z):
        raise InvalidInputError(
            f"target index {_shown(target_index)} out of range for {len(z)} logits")
    m = max(z)
    exps = [math.exp(v - m) for v in z]
    total = math.fsum(exps)
    return m + math.log(total) - z[target_index], exps, total


def cross_entropy(logits: Sequence[float], target_index: int) -> float:
    """Softmax cross-entropy against a hard class index."""
    z, target_index = _finite_floats(logits, "logits"), _integer(target_index, "target index")
    return _softmax_terms(z, target_index)[0]


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
    # The _giou_areas of two (cx, cy, w, h) boxes, each read as a flat sequence
    # of 4 numbers and checked first by AnchorBox's rule, with its errors.
    pred, target = _sequence(pred, "pred box", 4), _sequence(target, "target box", 4)
    return _giou_areas(*_axis_box(*pred), *_axis_box(*target))


def _giou_areas(*boxes: float):
    # (1 - GIoU, (pw, ph), x spans, y spans, inter, union, enclosing) of a
    # predicted and a target box, 8 numbers of valid boxes: the loss, with the
    # _axis_spans of each axis and the areas its gradient reads.
    px, py, pw, ph, tx, ty, tw, th = map(float, boxes)
    x, y = _axis_spans(px, pw, tx, tw), _axis_spans(py, ph, ty, th)
    inter = x[0] * y[0]
    union, enclosing = pw * ph + tw * th - inter, x[2] * y[2]
    # Valid boxes whose union or enclosing area rounds to 0 or overflows have no GIoU.
    if not (0.0 < union < math.inf and 0.0 < enclosing < math.inf):
        raise InvalidInputError(f"boxes have no finite GIoU: union={union!r}, "
                                f"enclosing={enclosing!r}")
    value = 1.0 - (inter / union - (enclosing - union) / enclosing)
    return value, (pw, ph), x, y, inter, union, enclosing


def giou_location_loss(pred: Sequence[float], target: Sequence[float]) -> float:
    """1 - GIoU between two (cx, cy, w, h) boxes."""
    return _giou_terms(pred, target)[0]


def giou_location_loss_grad(pred: Sequence[float], target: Sequence[float]) -> list[float]:
    """Gradient of 1 - GIoU with respect to the predicted (cx, cy, w, h)."""
    _, (pw, ph), x, y, inter, union, enclosing = _giou_terms(pred, target)
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

    samples is read once, as a sequence of AssignedSample; it, weights and
    codec must be built values (a LossWeights, a CodecConfig), or
    InvalidInputError names the argument. A sample's inputs are checked
    when it is built. Its terms then go through the same kernels as the
    public losses, encode and decode, with only the checks a built sample
    can still fail, raising the same errors. The decoded box stays plain
    numbers: it meets AnchorBox's rule, then, in long-side form,
    OrientedBox's box rule, the kernel that the constructor runs, and no
    box object is built.
    """
    samples = _check_box("samples entry",
                         *_sequence(samples, "samples", of="AssignedSample entries"),
                         kind=AssignedSample)
    _check_box("weights", weights, kind=LossWeights)
    _check_box("codec", codec, kind=CodecConfig)
    if not samples:
        raise InvalidInputError("sample list is empty")
    if codec.method in _DCL_METHODS:
        raise InvalidInputError("multitask loss needs per-bin class logits; dcl codes unsupported")

    code_length = codec.code_length
    classification, regression = codec.has_classification, codec.has_regression
    loc, conf, cat, ang_c, ang_r = [], [], [], [], []
    for s in samples:
        conf.append(_focal(s.pred_confidence, s.objectness)[0])
        if not s.objectness:
            continue
        angle, gt = s.pred_angle, s.gt_box
        if len(angle.class_logits) != code_length:
            raise InvalidInputError(f"{codec.method.value} expects {code_length} angle "
                                    f"logits, got {len(angle.class_logits)}")
        cx, cy, w, h = _axis_box(*_decoded(s.pred_deltas, s.anchor))
        loc.append(_giou_areas(cx, cy, w, h, gt.cx, gt.cy, gt.w, gt.h)[0])
        cat.append(_softmax_terms(s.pred_category_logits, s.gt_category)[0])
        k, residual_target = _target(gt.theta, codec)
        if classification:
            ang_c.append(_softmax_terms(angle.class_logits, k)[0])
        if regression:
            theta_pred = _angle(_bin_from_scores(angle.class_logits, codec),
                                angle.regression_output, codec)
            pred = _box_rule(cx, cy, *_long_side(w, h, theta_pred))[1]
            iou = max(_pair_iou(pred, _prepare(gt)), _IOU_FLOOR)
            ang_r.append(_ifl(angle.regression_output, residual_target, iou)[0])

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

    The gradient must be a flat sequence of numbers as long as the non-empty
    point; a non-finite gradient entry or a NaN difference gives math.inf."""
    x = _finite_floats(point, "point")
    if not x:
        raise InvalidInputError("point must not be empty")
    analytic = _sequence(grad_fn(list(x)), "gradient", len(x))
    if not _finite(analytic, "gradient"):
        return math.inf
    worst = 0.0
    for i, (xi, gi) in enumerate(zip(x, map(float, analytic))):
        shifted = list(x)
        shifted[i] = xi + _FD_STEP
        f_plus = fn(shifted)
        shifted[i] = xi - _FD_STEP
        fd = (f_plus - fn(shifted)) / (2.0 * _FD_STEP)
        if math.isnan(fd):
            return math.inf
        denom = max(abs(fd), abs(gi), 1e-8)
        worst = max(worst, abs(fd - gi) / denom)
    return worst


@dataclass(frozen=True)
class GradCheckResult:
    max_relative_error: float
    worst_point: tuple[float, ...]


def _draw_giou(rng: random.Random) -> tuple[tuple[list[float]], list[float]]:
    # ((target,), pred) of GIoU, resampled until every min/max branch sits well
    # clear of its boundary, keeping the loss smooth across the stencil.
    while True:
        pred = [rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(1, 3), rng.uniform(1, 3)]
        target = [rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(1, 3), rng.uniform(1, 3)]
        margins = []
        for pc, ps, tc, ts in zip(pred[:2], pred[2:], target[:2], target[2:]):
            pr, pl, tr, tl = pc + ps / 2, pc - ps / 2, tc + ts / 2, tc - ts / 2
            margins += [pr - tr, pl - tl, min(pr, tr) - max(pl, tl)]
        if all(abs(m) > 1e-2 for m in margins):
            return (target,), pred


def _of_point(loss: Callable, gradient: Callable) -> tuple[Callable, Callable]:
    # A scalar loss and its gradient as functions of a one-entry point.
    return (lambda p, *args: loss(p[0], *args)), (lambda p, *args: [gradient(p[0], *args)])


def run_gradient_checks(seed: int = 0, points: int = 100) -> dict[str, GradCheckResult]:
    """Finite-difference check of every analytic gradient at random smooth points.

    Returns the worst relative error (and the point attaining it) per loss.
    """
    _finite((points,), "points")  # a number, so that it compares with 1
    if points < 1:
        raise InvalidInputError(f"points must be at least 1, got {_shown(points)}")
    points, seed = _integer(points, "points"), _integer(seed, "seed")
    if seed < 0:
        raise InvalidInputError(f"seed must be non-negative, got {_shown(seed)}")
    rng = random.Random(seed)

    def off_kink(target: float, *args: float):
        # ((target, *args), point), the point 0.05 clear of smooth L1's kink.
        while True:
            x = rng.uniform(-3, 3)
            if abs(abs(x) - 1.0) > 0.05:
                return (target, *args), [target + x]

    # (name, loss, gradient, draw): draw() gives the loss's arguments after the
    # point, then the point, drawing from rng in that order. The rows read the
    # public pairs when the call is made, so a replaced gradient is checked.
    table = [
        ("smooth_l1", *_of_point(smooth_l1, smooth_l1_grad), lambda: off_kink(rng.uniform(-3, 3))),
        ("mse", *_of_point(mse, mse_grad), lambda: ((rng.uniform(-3, 3),), [rng.uniform(-3, 3)])),
        ("ifl", *_of_point(ifl, ifl_grad),
         lambda: off_kink(rng.uniform(-3, 3), rng.uniform(0.05, 1.0))),
        ("focal", *_of_point(focal_loss, focal_loss_grad),
         lambda: ((rng.randrange(2),), [rng.uniform(-4, 4)])),
        ("cross_entropy", cross_entropy, cross_entropy_grad,
         lambda: ((rng.randrange(5),), [rng.gauss(0.0, 1.0) for _ in range(5)])),
        ("giou_location", giou_location_loss, giou_location_loss_grad, lambda: _draw_giou(rng)),
    ]
    results: dict[str, GradCheckResult] = {}
    for name, loss, gradient, draw in table:
        worst, worst_point = 0.0, ()
        for _ in range(points):
            args, point = draw()
            err = finite_diff_grad_check(lambda p: loss(p, *args), lambda p: gradient(p, *args),
                                         point)
            if err > worst:
                worst, worst_point = err, tuple(point)
        results[name] = GradCheckResult(worst, worst_point)
    return results
