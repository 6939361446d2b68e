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
                      head_thickness, ifl, match_detections, rotated_nms, run_gradient_checks)
from anglekit.evaluation import canonical_thresholds

BOX = OrientedBox(0.0, 0.0, 2.0, 1.0, 0.0)
MGAR3 = CodecConfig("mgar", 3)
SQUARE = ((0, 0), (1, 0), (1, 1), (0, 1))


def sample(confidence=0.0, category_logits=(0.0, 1.0)):
    return AssignedSample(0, AnchorBox(0, 0, 1, 1), BoxDeltas(0, 0, 0, 0), confidence,
                          category_logits, AnglePrediction([0, 0, 1], 1.0))


# (entry point, the name its errors give, call with one value). A scalar
# argument takes the value whole; a sequence argument takes it as an element,
# and in one test whole.
SCALARS = [
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
]
SEQUENCES = [
    ("AnglePrediction.class_logits", "class logits", lambda s: AnglePrediction(s, 2.0)),
    ("AssignedSample.pred_category_logits", "category logits",
     lambda s: sample(category_logits=s)),
    ("cross_entropy", "logits", lambda s: cross_entropy(s, 0)),
    ("finite_diff_grad_check", "point",
     lambda s: finite_diff_grad_check(lambda p: 0.0, lambda p: [0.0] * len(p), s)),
    ("QuadPolygon", "quad vert", lambda s: QuadPolygon((s[:2], *SQUARE[1:]))),
    ("QuadPolygon.from_points", "quad vert",
     lambda s: QuadPolygon.from_points([s[:2], *SQUARE[1:]])),
    ("canonical_thresholds", "iou threshold", canonical_thresholds),
    ("evaluate", "iou threshold",
     lambda s: evaluate([GroundTruthRecord("im", BOX, "ship")], [], s)),
    ("average_precision.recall", "recall", lambda s: average_precision(s, [1.0, 1.0], "voc12")),
    ("average_precision.precision", "precision",
     lambda s: average_precision([0.5, 1.0], s, "voc12")),
]
NOT_NUMBERS = {"str": "0.5", "bytes": b"0.5", "None": None, "str-in-list": ["0.5"],
               "numbers-in-list": [0.5, 0.5]}
# Ints past float range; an integer argument takes a positive one as an integer.
HUGE = {"1e400": 10**400, "-1e400": -10**400, "1e5000": 10**5000}
# None means no regression output, or the default bin count.
TAKES_NONE = ("AnglePrediction.regression_output", "CodecConfig.c_theta")
INTEGER_ARGS = ("head_thickness", "run_gradient_checks.points")


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
    lambda entry, value: not entry.startswith("QuadPolygon")))
def test_sequence_argument_is_a_sequence(name, call, value):
    with pytest.raises(InvalidInputError, match=name):
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
    assert decode(AnglePrediction([zero, one, zero], one), MGAR3) == \
        decode(AnglePrediction([0.0, 1.0, 0.0], 1.0), MGAR3)
    assert encode(one, MGAR3).residual_target == encode(1.0, MGAR3).residual_target
    assert QuadPolygon.from_points([(zero, zero), (one, zero), (one, one), (zero, one)]) == \
        QuadPolygon.from_points([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])


def test_one_dimensional_arrays_are_flat_sequences():
    logits = np.array([0.25, 1.5, -2.0])
    assert AnglePrediction(logits, np.float64(1.0)).class_logits == (0.25, 1.5, -2.0)
    assert cross_entropy(logits, 1) == cross_entropy([0.25, 1.5, -2.0], 1)
    assert canonical_thresholds(np.array([0.75, 0.5])) == (0.5, 0.75)
    assert average_precision(np.array([0.5, 1.0]), np.array([1.0, 0.5]), "voc07") == \
        average_precision([0.5, 1.0], [1.0, 0.5], "voc07")
    with pytest.raises(InvalidInputError, match="class logits must be a number"):
        AnglePrediction(np.ones((3, 1)), 1.0)
