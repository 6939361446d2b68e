"""One number rule for every public call that takes a number.

A value that is not a number (a str, bytes, None or a nested value, whole
or as an element) and an int past float range raise InvalidInputError
naming the argument; ints, bools, numpy scalars and 1-D arrays keep the
values a float gives.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from anglekit import (AnchorBox, AnglePrediction, AssignedSample, AxisAlignedBox, BoxDeltas,
                      CodecConfig, DetectionRecord, GroundTruthRecord, InvalidInputError,
                      LossWeights, OrientedBox, QuadPolygon, average_precision, cross_entropy,
                      decode, empirical_errors, encode, evaluate, finite_diff_grad_check,
                      focal_loss, focal_loss_grad, giou_location_loss, giou_location_loss_grad,
                      head_thickness, ifl, ifl_grad, match_detections, mse, mse_grad,
                      rotated_nms, run_gradient_checks, smooth_l1, smooth_l1_grad)
from anglekit.evaluation import canonical_thresholds

BOX = OrientedBox(0.0, 0.0, 2.0, 1.0, 0.0)
MGAR3 = CodecConfig("mgar", 3)
SQUARE = ((0, 0), (1, 0), (1, 1), (0, 1))
UNIT = (0, 0, 1, 1)


def sample(confidence=0.0, category_logits=(0.0, 1.0), objectness=0):
    return AssignedSample(objectness, AnchorBox(0, 0, 1, 1), BoxDeltas(0, 0, 0, 0), confidence,
                          category_logits, AnglePrediction([0, 0, 1], 1.0))


# The scalar arguments of the public losses, which must also be finite.
LOSS_SCALARS = [
    (f"{fn.__name__}.{name}", name, call)
    for fn in (smooth_l1, smooth_l1_grad, mse, mse_grad)
    for name, call in (("pred", lambda v, fn=fn: fn(v, 0.5)),
                       ("target", lambda v, fn=fn: fn(0.5, v)))
] + [
    (f"{fn.__name__}.{name}", name, call)
    for fn in (ifl, ifl_grad)
    for name, call in (("pred_residual", lambda v, fn=fn: fn(v, 0.5, 0.5)),
                       ("target_residual", lambda v, fn=fn: fn(0.5, v, 0.5)))
] + [(f"{fn.__name__}.logit", "logit", lambda v, fn=fn: fn(v, 1))
     for fn in (focal_loss, focal_loss_grad)]
# The 0/1 flags, each read as an integer before it is tested for 0 or 1.
FLAGS = [
    ("GroundTruthRecord.difficult", "difficult",
     lambda v: GroundTruthRecord("im", BOX, "ship", difficult=v)),
    ("AssignedSample.objectness", "objectness", lambda v: sample(objectness=v)),
] + [(f"{fn.__name__}.label", "label", lambda v, fn=fn: fn(0.3, v))
     for fn in (focal_loss, focal_loss_grad)]
# (entry point, the name its errors give, call with one value). A scalar
# argument takes the value whole; a sequence argument takes it as an element,
# and in one test whole.
SCALARS = LOSS_SCALARS + FLAGS + [
    ("OrientedBox", "box parameter", lambda v: OrientedBox(0, v, 2, 1, 0)),
    ("AxisAlignedBox", "box parameter", lambda v: AxisAlignedBox(0, 0, v, 1)),
    ("BoxDeltas", "box delta", lambda v: BoxDeltas(0, 0, v, 0)),
    ("LossWeights", "loss weight", lambda v: LossWeights(angle_reg=v)),
    ("AssignedSample.pred_confidence", "confidence logit", lambda v: sample(confidence=v)),
    ("DetectionRecord.score", "score", lambda v: DetectionRecord("im", BOX, "ship", v)),
    ("rotated_nms.score", "score", lambda v: rotated_nms([(BOX, 0.5, 0), (BOX, v, 0)], 0.5)),
    ("rotated_nms.threshold", "iou_threshold", lambda v: rotated_nms([(BOX, 0.5, 0)], v)),
    ("ifl.iou", "iou", lambda v: ifl(0.0, 1.0, v)),
    ("empirical_errors.grid_step", "grid_step", lambda v: empirical_errors(MGAR3, v)),
    ("CodecConfig.window_size", "window_size", lambda v: CodecConfig("csl", window_size=v)),
    ("AnglePrediction.regression_output", "regression output",
     lambda v: AnglePrediction([1, 0, 0], v)),
    ("encode", "angle", lambda v: encode(v, MGAR3)),
    ("match_detections", "iou threshold", lambda v: match_detections([], [], v)),
    ("CodecConfig.c_theta", "c_theta", lambda v: CodecConfig("mgar", v)),
    ("head_thickness", "anchor count", lambda v: head_thickness("mgar", 3, v)),
    ("run_gradient_checks.points", "points", lambda v: run_gradient_checks(0, v)),
    ("run_gradient_checks.seed", "seed", lambda v: run_gradient_checks(v, 1)),
]
SEQUENCES = [
    ("AnglePrediction.class_logits", "class logits", lambda s: AnglePrediction(s, 2.0)),
    ("AssignedSample.pred_category_logits", "category logits",
     lambda s: sample(category_logits=s)),
    ("cross_entropy", "logits", lambda s: cross_entropy(s, 0)),
    ("finite_diff_grad_check", "point",
     lambda s: finite_diff_grad_check(lambda p: 0.0, lambda p: [0.0] * len(p), s)),
    ("QuadPolygon", "quad vert", lambda s: QuadPolygon((s[:2], *SQUARE[1:]))),
    ("canonical_thresholds", "iou threshold", canonical_thresholds),
    ("evaluate", "iou threshold",
     lambda s: evaluate([GroundTruthRecord("im", BOX, "ship")], [], s)),
    ("average_precision.recall", "recall", lambda s: average_precision(s, [1.0, 1.0], "voc12")),
    ("average_precision.precision", "precision",
     lambda s: average_precision([0.5, 1.0], s, "voc12")),
] + [(f"{fn.__name__}.{side}", "box param", call)
     for fn in (giou_location_loss, giou_location_loss_grad)
     for side, call in (("pred", lambda s, fn=fn: fn((*s, 1, 1), UNIT)),
                        ("target", lambda s, fn=fn: fn(UNIT, (*s, 1, 1))))]
# Sequence arguments of a fixed length, called with one value whole.
FIXED_LENGTH = [
    (f"{fn.__name__}.{side}", f"{side} box", call)
    for fn in (giou_location_loss, giou_location_loss_grad)
    for side, call in (("pred", lambda v, fn=fn: fn(v, UNIT)),
                       ("target", lambda v, fn=fn: fn(UNIT, v)))
] + [("finite_diff_grad_check.gradient", "gradient",
      lambda v: finite_diff_grad_check(lambda p: 0.0, lambda p: v, [0.0, 0.0]))]
# Quad points that are not a sequence of (x, y) pairs: four points, one of them
# not a pair, or no sequence at all.
NOT_PAIRS = {"three-coordinates": [(0, 0, 0), *SQUARE[1:]], "one-coordinate": [(0,), *SQUARE[1:]],
             "int-point": [0, *SQUARE[1:]], "None": None, "str": "0.5", "float": 0.5,
             "bytes-point": [b"\x00\x00", *SQUARE[1:]]}
NOT_NUMBERS = {"str": "0.5", "bytes": b"0.5", "None": None, "str-in-list": ["0.5"],
               "numbers-in-list": [0.5, 0.5]}
# Ints past float range; an integer argument takes a positive one as an integer.
HUGE = {"1e400": 10**400, "-1e400": -10**400, "1e5000": 10**5000}
# None means no regression output, or the default bin count.
TAKES_NONE = ("AnglePrediction.regression_output", "CodecConfig.c_theta")
INTEGER_ARGS = ("head_thickness", "run_gradient_checks.points", "run_gradient_checks.seed")


def cases(entries, values, keep=lambda entry, value: True):
    return [pytest.param(name, call, value, id=f"{entry}-{value_id}")
            for entry, name, call in entries for value_id, value in values.items()
            if keep(entry, value)]


@pytest.mark.parametrize("name, call, value", cases(
    SCALARS, NOT_NUMBERS, lambda entry, value: value is not None or entry not in TAKES_NONE)
    + cases(SCALARS, HUGE, lambda entry, value: value < 0 or entry not in INTEGER_ARGS))
def test_scalar_is_a_number_in_float_range(name, call, value):
    with pytest.raises(InvalidInputError, match=name):
        call(value)


@pytest.mark.parametrize("name, call, value", cases(
    SEQUENCES, {**NOT_NUMBERS, **HUGE}, lambda entry, value: value != [0.5, 0.5]))
def test_sequence_element_is_a_finite_number(name, call, value):
    with pytest.raises(InvalidInputError, match=name):
        call([value, 0.5])


@pytest.mark.parametrize("name, call, value", cases(
    SEQUENCES, {"str": "0.5", "bytes": b"0.5", "None": None, "float": 0.5, "1e400": 10**400},
    lambda entry, value: not entry.startswith(("QuadPolygon", "giou"))))
def test_sequence_argument_is_a_sequence(name, call, value):
    with pytest.raises(InvalidInputError, match=name):
        call(value)


@pytest.mark.parametrize("name, call, value", cases(
    FIXED_LENGTH, {"str": "0.5", "bytes": b"0.5", "None": None, "float": 0.5, "1e400": 10**400,
                   "short": (0,), "long": (0, 0, 0, 0, 0)}))
def test_fixed_length_argument_is_a_flat_sequence_of_that_length(name, call, value):
    with pytest.raises(InvalidInputError, match=f"^{name} must be a flat sequence"):
        call(value)


@pytest.mark.parametrize("points", NOT_PAIRS.values(), ids=NOT_PAIRS)
def test_quad_points_are_xy_pairs(points):
    with pytest.raises(InvalidInputError, match="^quad vert(ex|ices) must be a flat sequence"):
        QuadPolygon(points)


@pytest.mark.parametrize("name, call, value, rule", [
    pytest.param(name, call, value, rule, id=f"{entry}-{value_id}")
    for entry, name, call in FLAGS
    for value_id, value, rule in (("array", np.array([1, 0]), "a number"),
                                  ("str", "1", "a number"), ("half", 0.5, "an integer"),
                                  ("nan", math.nan, "an integer"), ("two", 2, "0 or 1"))])
def test_flag_is_an_integer_0_or_1(name, call, value, rule):
    with pytest.raises(InvalidInputError, match=f"^{name} must be {rule}, got"):
        call(value)


@pytest.mark.parametrize("name, call, value", cases(
    LOSS_SCALARS, {"nan": math.nan, "inf": math.inf, "-inf": -math.inf}))
def test_loss_scalar_is_finite(name, call, value):
    with pytest.raises(InvalidInputError, match=f"^{name} must be finite"):
        call(value)


def test_numeric_strings_no_longer_score():
    with pytest.raises(InvalidInputError, match="class logits must be a number"):
        decode(AnglePrediction(["0", "1", "0"], 2.0), MGAR3)
    with pytest.raises(InvalidInputError, match="recall or precision must be a number"):
        average_precision(["0.5"], ["1"], "voc12")


def test_too_long_to_print_is_the_error_meant():
    for call in (lambda: encode(10**5000, MGAR3), lambda: AnglePrediction([1, 0, 0], 10**5000),
                 lambda: CodecConfig("mgar", 10**5000)):
        with pytest.raises(InvalidInputError, match="<int too long to print>"):
            call()


def test_window_size_is_a_number_for_every_codec_and_bounded_for_csl():
    with pytest.raises(InvalidInputError, match="^window_size must be finite, got 1000"):
        CodecConfig("csl", window_size=10**400)
    assert math.isnan(CodecConfig("mgar", window_size=math.nan).window_size)
    with pytest.raises(InvalidInputError, match="^window_size must be a number"):
        CodecConfig("mgar", window_size="6")


def test_an_int_output_that_squares_past_float_range_overflows_the_fit():
    with pytest.raises(InvalidInputError, match="^regression output 1000* overflows the square"):
        decode(AnglePrediction([1, 0, 0], 10**200), MGAR3)


@pytest.mark.parametrize("kind", [int, bool, np.float64, Fraction], ids=lambda k: k.__name__)
def test_other_number_types_give_what_floats_give(kind):
    one, zero = kind(1), kind(0)
    assert OrientedBox(zero, one, 2.0, one, zero) == OrientedBox(0.0, 1.0, 2.0, 1.0, 0.0)
    assert DetectionRecord("im", BOX, "ship", one).score == 1.0
    assert canonical_thresholds([one]) == (1.0,)
    assert average_precision([zero, one], [one, one], "voc12") == \
        average_precision([0.0, 1.0], [1.0, 1.0], "voc12")
    assert cross_entropy([zero, one], 1) == cross_entropy([0.0, 1.0], 1)
    assert ifl(0.0, 2.0, one) == ifl(0.0, 2.0, 1.0)
    for fn in (smooth_l1, smooth_l1_grad, mse, mse_grad):
        assert fn(one, zero) == fn(1.0, 0.0)
    assert ifl_grad(one, zero, one) == ifl_grad(1.0, 0.0, 1.0)
    assert focal_loss(one, 1) == focal_loss(1.0, 1)
    assert focal_loss_grad(zero, 0) == focal_loss_grad(0.0, 0)
    assert focal_loss(0.3, one) == focal_loss(0.3, 1)
    assert GroundTruthRecord("im", BOX, "ship", difficult=one).difficult == 1
    assert giou_location_loss([zero, zero, one, one], (0.5, 0, 1, 1)) == \
        giou_location_loss([0.0, 0.0, 1.0, 1.0], (0.5, 0, 1, 1))
    assert run_gradient_checks(one, 1) == run_gradient_checks(1, 1)
    assert decode(AnglePrediction([zero, one, zero], one), MGAR3) == \
        decode(AnglePrediction([0.0, 1.0, 0.0], 1.0), MGAR3)
    assert encode(one, MGAR3).residual_target == encode(1.0, MGAR3).residual_target
    assert QuadPolygon([(zero, zero), (one, zero), (one, one), (zero, one)]) == \
        QuadPolygon([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])


def test_one_dimensional_arrays_are_flat_sequences():
    logits = np.array([0.25, 1.5, -2.0])
    assert AnglePrediction(logits, np.float64(1.0)).class_logits == (0.25, 1.5, -2.0)
    assert cross_entropy(logits, 1) == cross_entropy([0.25, 1.5, -2.0], 1)
    assert canonical_thresholds(np.array([0.75, 0.5])) == (0.5, 0.75)
    assert average_precision(np.array([0.5, 1.0]), np.array([1.0, 0.5]), "voc07") == \
        average_precision([0.5, 1.0], [1.0, 0.5], "voc07")
    with pytest.raises(InvalidInputError, match="class logits must be a number"):
        AnglePrediction(np.ones((3, 1)), 1.0)
