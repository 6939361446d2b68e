import math
from types import SimpleNamespace

import numpy as np
import pytest

import anglekit.losses
from anglekit import (AnchorBox, AnglePrediction, AssignedSample, BoxDeltas,
                      CodecConfig, FitFunction, InvalidInputError, LossWeights, Method,
                      OrientedBox, cross_entropy, cross_entropy_grad,
                      decode_box_deltas, encode, encode_box_deltas, finite_diff_grad_check,
                      focal_loss, focal_loss_grad, giou_location_loss, giou_location_loss_grad,
                      ifl, ifl_grad, longside, mse, mse_grad, multitask_loss, rotated_iou,
                      run_gradient_checks, smooth_l1, smooth_l1_grad)
from helpers import count_calls, reference_giou_loss, reference_multitask_loss


class TestBoxDeltas:
    ANCHOR = AnchorBox(10.0, 20.0, 4.0, 2.0)

    def test_identity(self):
        deltas = encode_box_deltas(AnchorBox(10.0, 20.0, 4.0, 2.0), self.ANCHOR)
        assert (deltas.dx, deltas.dy, deltas.dw, deltas.dh) == (0.0, 0.0, 0.0, 0.0)

    def test_log_scale(self):
        deltas = encode_box_deltas(AnchorBox(10.0, 20.0, 4.0 * math.e, 2.0), self.ANCHOR)
        assert deltas.dw == pytest.approx(1.0, abs=1e-12)

    def test_accepts_oriented_boxes(self):
        deltas = encode_box_deltas(OrientedBox(11.0, 21.0, 4.0, 2.0, 30.0), self.ANCHOR)
        assert deltas.dx == pytest.approx(0.25)
        assert deltas.dy == pytest.approx(0.5)

    def test_random_roundtrips(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            anchor = AnchorBox(*rng.uniform(-5, 5, size=2), *rng.uniform(0.5, 6, size=2))
            box = AnchorBox(*rng.uniform(-5, 5, size=2), *rng.uniform(0.5, 6, size=2))
            back = decode_box_deltas(encode_box_deltas(box, anchor), anchor)
            assert back.cx == pytest.approx(box.cx, abs=1e-10)
            assert back.cy == pytest.approx(box.cy, abs=1e-10)
            assert back.w == pytest.approx(box.w, abs=1e-10)
            assert back.h == pytest.approx(box.h, abs=1e-10)

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidInputError):
            BoxDeltas(0.0, 0.0, math.inf, 0.0)

    @pytest.mark.parametrize("deltas", [BoxDeltas(0, 0, 710, 0), BoxDeltas(0, 0, 0, 710)],
                             ids=["dw", "dh"])
    def test_overflowing_log_scale_is_an_input_error(self, deltas):
        with pytest.raises(InvalidInputError, match="box deltas overflow"):
            decode_box_deltas(deltas, AnchorBox(0, 0, 4, 2))

    @pytest.mark.parametrize("value", [(10, 20, 4, 2), None,
                                       SimpleNamespace(cx=0, cy=0, w=0, h=1)],
                             ids=["tuple", "None", "zero-width-fields"])
    def test_take_built_boxes_only(self, value):
        box = AnchorBox(10.0, 20.0, 4.0, 2.0)
        with pytest.raises(InvalidInputError, match="^box must be an OrientedBox or AnchorBox"):
            encode_box_deltas(value, self.ANCHOR)
        with pytest.raises(InvalidInputError, match="^anchor must be an AnchorBox"):
            encode_box_deltas(box, value)
        with pytest.raises(InvalidInputError, match="^anchor must be an AnchorBox"):
            decode_box_deltas(BoxDeltas(0, 0, 0, 0), value)

    @pytest.mark.parametrize("value", [(0, 0, 0, 0), None,
                                       SimpleNamespace(dx=0, dy=0, dw="a", dh=0)],
                             ids=["tuple", "None", "str-log-scale-fields"])
    def test_decode_takes_built_deltas_only(self, value):
        with pytest.raises(InvalidInputError, match="^deltas must be a BoxDeltas, got"):
            decode_box_deltas(value, self.ANCHOR)


class TestSmoothL1:
    def test_zero_at_target(self):
        assert smooth_l1(1.7, 1.7) == 0.0

    def test_boundary_value(self):
        assert smooth_l1(1.0, 0.0) == pytest.approx(0.5)

    def test_linear_branch(self):
        assert smooth_l1(3.0, 0.0) == pytest.approx(2.5)

    def test_continuous_and_c1_at_kink(self):
        eps = 1e-9
        below = smooth_l1(1.0 - eps, 0.0)
        above = smooth_l1(1.0 + eps, 0.0)
        assert abs(above - below) < 1e-8
        g_below = smooth_l1_grad(1.0 - eps, 0.0)
        g_above = smooth_l1_grad(1.0 + eps, 0.0)
        assert g_below == pytest.approx(g_above, abs=1e-8)


class TestIfl:
    def test_weight_one_at_perfect_iou(self):
        assert ifl(2.0, 0.5, 1.0) == smooth_l1(2.0, 0.5)

    def test_weight_two_at_inverse_e(self):
        assert ifl(2.0, 0.5, math.exp(-1)) == pytest.approx(2.0 * smooth_l1(2.0, 0.5), rel=1e-12)

    def test_zero_base_loss(self):
        assert ifl(0.7, 0.7, 0.3) == 0.0

    def test_weight_strictly_decreasing_in_iou(self):
        values = [ifl(1.5, 0.0, iou) for iou in np.linspace(0.01, 1.0, 200)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_never_below_smooth_l1(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            p, t = rng.uniform(-4, 4, size=2)
            iou = rng.uniform(1e-6, 1.0)
            assert ifl(p, t, iou) >= smooth_l1(p, t) - 1e-15

    def test_rejects_out_of_range_iou(self):
        for bad in (0.0, -0.1, 1.0001, math.nan):
            with pytest.raises(InvalidInputError):
                ifl(1.0, 0.0, bad)


class TestMse:
    def test_values(self):
        assert mse(1.3, 1.3) == 0.0
        assert mse(0.0, 3.0) == 9.0

    def test_dual_evaluation(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            p, t = rng.uniform(-10, 10, size=2)
            assert mse(p, t) == pytest.approx(p * p - 2 * p * t + t * t, abs=1e-12)

    def test_square_past_float_range_is_inf_and_keeps_its_gradient(self):
        assert mse(1e200, 0.0) == math.inf
        assert mse_grad(1e200, 0.0) == 2e200


class TestFocalLoss:
    def test_perfect_prediction_limit(self):
        assert focal_loss(100.0, 1) == pytest.approx(0.0, abs=1e-30)
        assert focal_loss(-100.0, 0) == pytest.approx(0.0, abs=1e-30)

    def test_hand_value_at_default_constants(self):
        # pt = 1/2 at logit 0: alpha_t * (1/2)^2 * log 2, alpha_t = 0.25 or 0.75.
        assert focal_loss(0.0, 1) == pytest.approx(0.0625 * math.log(2), abs=1e-15)
        assert focal_loss(0.0, 0) == pytest.approx(0.1875 * math.log(2), abs=1e-15)

    @pytest.mark.parametrize("logit, label, limit", [
        (37.0, 0, 0.75), (40.0, 0, 0.75), (800.0, 0, 0.75), (-740.0, 1, -0.25), (-800.0, 1, -0.25),
    ])
    def test_gradient_finite_at_confident_logits(self, logit, label, limit):
        grad = focal_loss_grad(logit, label)
        assert math.isfinite(grad)
        assert abs(grad - limit) < 1e-9

    def test_independent_evaluation(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            logit = float(rng.uniform(-6, 6))
            label = int(rng.integers(0, 2))
            p = 1.0 / (1.0 + math.exp(-logit))
            pt = p if label == 1 else 1.0 - p
            alpha_t = 0.25 if label == 1 else 0.75
            expected = -alpha_t * (1.0 - pt) ** 2.0 * math.log(pt)
            assert focal_loss(logit, label) == pytest.approx(expected, abs=1e-10)

    def test_rejects_bad_label(self):
        with pytest.raises(InvalidInputError):
            focal_loss(0.0, 2)


class TestCrossEntropy:
    def test_uniform_logits(self):
        assert cross_entropy([0.0] * 7, 3) == pytest.approx(math.log(7), abs=1e-12)

    def test_dominant_logit_limit(self):
        assert cross_entropy([200.0, 0.0, 0.0], 0) == pytest.approx(0.0, abs=1e-12)

    def test_independent_softmax_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            logits = rng.normal(0, 2, size=6)
            idx = int(rng.integers(0, 6))
            probs = np.exp(logits) / np.sum(np.exp(logits))
            assert cross_entropy(logits, idx) == pytest.approx(-math.log(probs[idx]), abs=1e-10)
            assert cross_entropy(logits, idx) >= 0.0

    def test_index_out_of_range(self):
        with pytest.raises(InvalidInputError):
            cross_entropy([0.0, 1.0], 2)

    def test_integral_float_index_is_that_class(self):
        logits = [0.3, -1.2, 2.0]
        assert cross_entropy(logits, 1.0) == cross_entropy(logits, 1)
        assert cross_entropy_grad(logits, 1.0) == cross_entropy_grad(logits, 1)

    @pytest.mark.parametrize("index, message", [
        (1.5, "target index must be an integer, got 1.5"),
        (3.0, "target index 3 out of range for 3 logits"),
        (-1, "target index -1 out of range for 3 logits"),
    ], ids=["fractional", "float-too-large", "negative"])
    def test_rejects_fractional_or_out_of_range_index(self, index, message):
        for fn in (cross_entropy, cross_entropy_grad):
            with pytest.raises(InvalidInputError) as info:
                fn([0.3, -1.2, 2.0], index)
            assert str(info.value) == message

    def test_gradient_is_a_list_summing_to_zero(self):
        grad = cross_entropy_grad(np.array([0.2, -1.0, 0.7]), 1)
        assert type(grad) is list
        assert grad[1] < 0.0 < min(grad[0], grad[2])
        assert math.fsum(grad) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("logits", [[0.0, math.inf], [0.0, math.nan], [[0.0, 1.0]], "01"],
                             ids=["inf", "nan", "nested", "string"])
    def test_rejects_nonfinite_or_non_flat_logits(self, logits):
        for fn in (cross_entropy, cross_entropy_grad):
            with pytest.raises(InvalidInputError):
                fn(logits, 0)


class TestGiouLocationLoss:
    def test_identical(self):
        assert giou_location_loss([1, 2, 3, 4], [1, 2, 3, 4]) == 0.0

    def test_disjoint_analytic(self):
        got = giou_location_loss([0, 0, 2, 2], [10, 0, 2, 2])
        assert got == pytest.approx(1 + 2 / 3, abs=1e-12)

    def test_dual_formula_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            pred = [*rng.uniform(-2, 2, size=2), *rng.uniform(0.5, 3, size=2)]
            target = [*rng.uniform(-2, 2, size=2), *rng.uniform(0.5, 3, size=2)]
            got = giou_location_loss(pred, target)
            assert got == pytest.approx(reference_giou_loss(pred, target), abs=1e-12)
            assert 0.0 <= got < 2.0


class TestGiouGradient:
    @pytest.mark.parametrize("side", ["pred", "target"])
    @pytest.mark.parametrize("index, value, message", [
        pytest.param(0, math.nan, "non-finite box parameters", id="nan"),
        pytest.param(3, math.inf, "non-finite box parameters", id="inf"),
        pytest.param(2, 0.0, "box sides must be positive, got w=0.0, h=1.5", id="zero-side"),
        pytest.param(3, -1.5, "box sides must be positive, got w=1.5, h=-1.5",
                     id="negative-side"),
    ])
    def test_rejects_what_the_loss_rejects(self, side, index, value, message):
        boxes = {"pred": [0.2, -0.1, 1.5, 1.5], "target": [0.0, 0.0, 1.5, 1.5]}
        boxes[side][index] = value
        for fn in (giou_location_loss, giou_location_loss_grad):
            with pytest.raises(InvalidInputError) as info:
                fn(boxes["pred"], boxes["target"])
            assert (type(info.value), str(info.value)) == (InvalidInputError, message)


    @pytest.mark.parametrize("box, message", [
        pytest.param((0, 0, 1e-200, 1e-200), "union=0.0, enclosing=0.0", id="union-underflows"),
        pytest.param((1e10, 0, 1e-10, 1), "union=2e-10, enclosing=0.0",
                     id="enclosing-width-rounds-to-0"),
        pytest.param((0, 0, 1e160, 1e160), "union=nan, enclosing=inf", id="areas-overflow"),
    ])
    def test_area_without_finite_giou_is_an_input_error(self, box, message):
        for fn in (giou_location_loss, giou_location_loss_grad):
            with pytest.raises(InvalidInputError) as info:
                fn(box, box)
            assert str(info.value) == f"boxes have no finite GIoU: {message}"

    @pytest.mark.parametrize("side", [1e-85, 1e100], ids=["square-underflows", "square-overflows"])
    def test_gradient_rejects_an_area_whose_square_is_out_of_range(self, side):
        # The loss is defined; the gradient's quotient rule would divide by 0 or inf.
        pred, target = (0, 0, side, side), (0.1 * side, 0, side, 1.2 * side)
        assert giou_location_loss(pred, target) == pytest.approx(0.3228438228438228)
        with pytest.raises(InvalidInputError, match="GIoU gradient squares an area out of range"):
            giou_location_loss_grad(pred, target)

    @pytest.mark.parametrize("pred, target, expected", [
        ([0, 0, 2, 2], [0, 0, 2, 2], [-1.0, -1.0, 0.0, 0.0]),
        ([0.5, 0, 2, 2], [0, 0, 1, 2], [0.0, -0.625, 0.25, -0.0625]),
        ([0, 0, 2, 1], [0.5, 0, 1, 1], [-0.75, -1.25, -0.125, -0.125]),
    ], ids=["identical", "right-and-y-ends-tie", "right-end-ties"])
    def test_exact_ties(self, pred, target, expected):
        # A predicted end that ties the target's bounds the overlap on the right
        # and the enclosing span on the left.
        assert giou_location_loss_grad(pred, target) == expected


CODEC = CodecConfig(Method.MGAR, 3)


def perfect_positive_sample(theta=73.5, **change):
    # The keyword arguments in change replace the sample's own.
    gt = OrientedBox(10.0, 20.0, 6.0, 2.0, theta)
    anchor = AnchorBox(gt.cx, gt.cy, gt.w, gt.h)
    target = encode(gt.theta, CODEC)
    return AssignedSample(**{
        "objectness": 1,
        "anchor": anchor,
        "pred_deltas": encode_box_deltas(gt, anchor),
        "pred_confidence": 12.0,
        "pred_category_logits": np.array([900.0, -900.0]),
        "pred_angle": AnglePrediction([v * 1000.0 for v in target.class_vector],
                                      target.residual_target),
        "gt_box": gt,
        "gt_category": 0,
        **change,
    })


def background_sample(conf_logit=-3.0, **change):
    # The keyword arguments in change replace the sample's own.
    return AssignedSample(**{
        "objectness": 0,
        "anchor": AnchorBox(0.0, 0.0, 4.0, 2.0),
        "pred_deltas": BoxDeltas(0.0, 0.0, 0.0, 0.0),
        "pred_confidence": conf_logit,
        "pred_category_logits": np.array([0.0, 0.0]),
        "pred_angle": AnglePrediction(np.zeros(3), 0.0),
        **change,
    })


def noisy_positive_sample(rng):
    gt = OrientedBox(*rng.uniform(-3, 3, size=2), 5.0, 2.0, float(rng.uniform(0, 180)))
    anchor = AnchorBox(gt.cx + rng.uniform(-1, 1), gt.cy + rng.uniform(-1, 1), 4.5, 2.5)
    target = encode(gt.theta, CODEC)
    return AssignedSample(
        objectness=1,
        anchor=anchor,
        pred_deltas=BoxDeltas(*rng.normal(0, 0.2, size=4)),
        pred_confidence=float(rng.normal(0, 2)),
        pred_category_logits=rng.normal(0, 1, size=4),
        pred_angle=AnglePrediction(rng.normal(0, 1, size=3),
                                   target.residual_target + float(rng.normal(0, 0.5))),
        gt_box=gt,
        gt_category=int(rng.integers(0, 4)),
    )


def random_sample(rng, codec):
    """A background or foreground sample with random predictions under any codec
    the multi-task loss takes."""
    target = gt = None
    if rng.random() < 0.5:
        w, h = sorted(rng.uniform(0.5, 8.0, size=2), reverse=True)
        gt = OrientedBox(*rng.uniform(-5, 5, size=2), w, h, float(rng.uniform(0, 180)))
        target = encode(gt.theta, codec)
    residual = None
    if codec.has_regression:
        residual = (target.residual_target if target else 0.0) + float(rng.normal(0, 0.5))
    return AssignedSample(
        objectness=int(gt is not None),
        anchor=AnchorBox(*rng.uniform(-5, 5, size=2), *rng.uniform(1, 6, size=2)),
        pred_deltas=BoxDeltas(*rng.normal(0, 0.3, size=4)),
        pred_confidence=float(rng.normal(0, 3)),
        pred_category_logits=rng.normal(0, 1, size=5),
        pred_angle=AnglePrediction(rng.normal(0, 2, size=codec.code_length), residual),
        gt_box=gt,
        gt_category=int(rng.integers(0, 5)) if gt else None,
    )


ORACLE_CODECS = ([CodecConfig(Method.MGAR, c, fit_function=f) for c in (3, 4, 5)
                  for f in FitFunction]
                 + [CodecConfig(Method.REGRESSION, fit_function=f) for f in FitFunction]
                 + [CodecConfig(Method.CSL, 180)])


class TestMultitaskLossOracle:
    """multitask_loss against the same loss assembled from the public calls."""

    WEIGHTS = LossWeights(1.5, 0.5, 3.0, 2.5, 0.25)

    @pytest.mark.parametrize("codec", ORACLE_CODECS, ids=lambda c: (
        f"{c.method.value}-{c.c_theta}-{c.fit_function.value}"))
    def test_equals_the_public_calls_bit_for_bit(self, codec):
        rng = np.random.default_rng(ORACLE_CODECS.index(codec))
        for _ in range(8):
            samples = [random_sample(rng, codec) for _ in range(int(rng.integers(1, 24)))]
            assert multitask_loss(samples, self.WEIGHTS, codec) == \
                reference_multitask_loss(samples, self.WEIGHTS, codec)

    @pytest.mark.parametrize("codec, change, message", [
        (CODEC, {"gt_category": 2}, "target index 2 out of range for 2 logits"),
        (CODEC, {"gt_category": -1}, "target index -1 out of range for 2 logits"),
        (CODEC, {"pred_angle": AnglePrediction([0.0, 1.0, 0.0, 0.0], 1.0)},
         "mgar expects 3 angle logits, got 4"),
        (CodecConfig(Method.MGAR, 3, fit_function=FitFunction.EXP),
         {"pred_angle": AnglePrediction(np.zeros(3), 1000.0)},
         "regression output 1000.0 overflows the exp fit"),
        (CODEC, {"pred_deltas": BoxDeltas(0, 0, 710, 0)}, "box deltas overflow: dw=710, dh=0"),
        (CODEC, {"pred_deltas": BoxDeltas(0, 0, 0, 710)}, "box deltas overflow: dw=0, dh=710"),
        # The decoded box's own rules, which the loss runs on plain numbers.
        (CODEC, {"pred_deltas": BoxDeltas(0, 0, -800, 0)},
         "box sides must be positive, got w=0.0, h=2.0"),
        (CODEC, {"anchor": AnchorBox(0, 0, 1e300, 2), "pred_deltas": BoxDeltas(0, 0, 20, 0)},
         "non-finite box parameters"),
        (CODEC, {"anchor": AnchorBox(0, 0, 1e154, 1e154), "pred_deltas": BoxDeltas(0, 0, 0, 0)},
         "box area w * h must lie between the smallest normal float and half the float "
         "maximum, got w=1e+154, h=1e+154"),
        # An int centre past float range: not finite, where math.isfinite would
        # raise a bare OverflowError.
        (CODEC, {"anchor": AnchorBox(0, 0, 10**10, 2), "pred_deltas": BoxDeltas(10**300, 0, 0, 0)},
         "non-finite box parameters"),
    ], ids=["category-too-large", "category-negative", "angle-logit-count",
            "residual-fit-overflow", "dw-overflow", "dh-overflow", "side-underflows",
            "side-overflows", "area-above-half-max", "int-centre-past-float-range"])
    def test_raises_what_the_public_calls_raise(self, codec, change, message):
        samples = [background_sample(), perfect_positive_sample(**change)]
        with pytest.raises(InvalidInputError) as expected:
            reference_multitask_loss(samples, self.WEIGHTS, codec)
        with pytest.raises(InvalidInputError) as got:
            multitask_loss(samples, self.WEIGHTS, codec)
        assert (type(got.value), str(got.value)) == (type(expected.value), message)

    @pytest.mark.parametrize("codec", [c for c in ORACLE_CODECS if c.has_regression],
                             ids=lambda c: f"{c.method.value}-{c.c_theta}-{c.fit_function.value}")
    def test_decoded_box_swapped_or_square_bit_for_bit(self, codec):
        # A decoded w < h takes the long-side swap; w == h the 90-degree period.
        rng = np.random.default_rng(ORACLE_CODECS.index(codec))
        samples = []
        for sides, deltas in [((2.0, 5.0), (0.0, 0.0)), ((4.5, 1.5), (-0.7, 0.4)),
                              ((3.0, 3.0), (0.0, 0.0)), ((5, 5), (0.25, 0.25))]:
            for theta in (0.0, 30.0, 89.5, 90.0, 135.0, 179.9):
                gt = OrientedBox(*rng.uniform(-1, 1, size=2), 4.0, 3.0, theta)
                residual = encode(theta, codec).residual_target + float(rng.normal(0, 0.5))
                samples.append(AssignedSample(
                    objectness=1, anchor=AnchorBox(0, 0, *sides),
                    pred_deltas=BoxDeltas(*rng.normal(0, 0.1, size=2), *deltas),
                    pred_confidence=float(rng.normal(0, 3)),
                    pred_category_logits=rng.normal(0, 1, size=3),
                    pred_angle=AnglePrediction(rng.normal(0, 2, size=codec.code_length), residual),
                    gt_box=gt, gt_category=int(rng.integers(0, 3))))
        decoded = [decode_box_deltas(s.pred_deltas, s.anchor) for s in samples]
        assert sum(b.w < b.h for b in decoded) == sum(b.w == b.h for b in decoded) == 12
        assert multitask_loss(samples, self.WEIGHTS, codec) == \
            reference_multitask_loss(samples, self.WEIGHTS, codec)

    def test_runs_every_iou_and_no_logit_recheck(self, monkeypatch):
        rng = np.random.default_rng(31)
        samples = [noisy_positive_sample(rng) for _ in range(5)] + \
                  [background_sample(float(rng.normal())) for _ in range(4)]
        # Counted through the names the loss calls, in its own module.
        box_rules, prepared, pair_ious, type_checks = [
            count_calls(monkeypatch, name, anglekit.losses)
            for name in ("_box_rule", "_prepare", "_pair_iou", "_check_box")]
        built = [count_calls(monkeypatch, "__init__", cls)
                 for cls in (OrientedBox, AnchorBox)]
        # The input checks of the public losses: the loss reads the samples
        # argument once and runs none of them per sample.
        rechecks = [count_calls(monkeypatch, name, anglekit.losses)
                    for name in ("_finite_floats", "_checked", "_sequence")]
        for calls in (1, 2):
            multitask_loss(samples, self.WEIGHTS, CODEC)
            # Two per foreground sample, on every call, as nothing is cached:
            # the box rule on the decoded numbers and the GT's prepare, for one
            # IoU. No box is built, and the arguments are checked per call.
            assert [box_rules[0], prepared[0], pair_ious[0]] == [5 * calls] * 3
            assert [n[0] for n in built] == [0, 0]
            assert (type_checks[0], [n[0] for n in rechecks]) == (3 * calls, [0, 0, calls])

    def test_category_index_is_an_integer_from_build_on(self):
        as_float = perfect_positive_sample(gt_category=1.0)
        assert type(as_float.gt_category) is int
        assert multitask_loss([as_float], self.WEIGHTS, CODEC) == \
            multitask_loss([perfect_positive_sample(gt_category=1)], self.WEIGHTS, CODEC)
        assert perfect_positive_sample(gt_category=True).gt_category == 1
        for build in (perfect_positive_sample, background_sample):
            with pytest.raises(InvalidInputError, match="gt_category must be an integer, got 1.5"):
                build(gt_category=1.5)
        # The range is checked by the loss, with the message the public call gives.
        too_large = perfect_positive_sample(gt_category=2.0)
        with pytest.raises(InvalidInputError) as info:
            multitask_loss([too_large], self.WEIGHTS, CODEC)
        assert str(info.value) == "target index 2 out of range for 2 logits"

    def test_ground_truth_at_a_tiny_negative_angle(self):
        sample = perfect_positive_sample(theta=-1e-20)
        assert sample.gt_box.theta == 0.0
        breakdown = multitask_loss([sample], self.WEIGHTS, CODEC)
        assert breakdown == reference_multitask_loss([sample], self.WEIGHTS, CODEC)
        assert breakdown == multitask_loss([perfect_positive_sample(theta=0.0)], self.WEIGHTS,
                                           CODEC)


class TestPinnedLossBits:
    """Every LossBreakdown field on one seeded batch per codec, pinned under
    float.hex: a change that means to keep every loss bit is checked against
    these literals, where the oracle above shares the library's kernels."""

    WEIGHTS = LossWeights(1.5, 0.5, 3.0, 2.5, 0.25)
    CODECS = {
        "mgar-3-square": CodecConfig(Method.MGAR, 3),
        "mgar-5-exp": CodecConfig(Method.MGAR, 5, fit_function=FitFunction.EXP),
        "csl-180": CodecConfig(Method.CSL, 180),
        "regression-square": CodecConfig(Method.REGRESSION),
    }
    # (location, confidence, category, angle_class, angle_reg, total)
    FIELDS = {
        "mgar-3-square": ("0x1.4676e4df12f9fp-1", "0x1.812cc5c68ce8ep-1", "0x1.5b77250ee1366p-1",
                          "0x1.0b8b0b2bc0cbbp+0", "0x1.963a288479b9bp-1", "0x1.8b7e7d6b4d1eep+2"),
        "mgar-5-exp": ("0x1.e095df88bcafep-1", "0x1.2f110fd852107p-1", "0x1.320c394ce02adp+0",
                       "0x1.1d148e6c453e9p+1", "0x1.c57be9a473c1fp-1", "0x1.628df39aa5673p+3"),
        "csl-180": ("0x1.00ff1292d5615p+0", "0x1.81d6b1111f337p-3", "0x1.00067c1c8015ap+0",
                    "0x1.2a44c70825d5cp+2", "0x0.0p+0", "0x1.0405f41944ca0p+4"),
        "regression-square": ("0x1.62c415771c178p-1", "0x1.9456a4a529b98p-1",
                              "0x1.e5c040e32d2f8p-1", "0x0.0p+0", "0x1.af9c2fd0dd8e8p-1",
                              "0x1.1f6f28245fbe4p+2"),
    }

    @pytest.mark.parametrize("name", list(FIELDS))
    def test_every_field(self, name):
        codec = self.CODECS[name]
        rng = np.random.default_rng(30)
        samples = [random_sample(rng, codec) for _ in range(16)]
        breakdown = multitask_loss(samples, self.WEIGHTS, codec)
        values = (breakdown.location, breakdown.confidence, breakdown.category,
                  breakdown.angle_class, breakdown.angle_reg, breakdown.total)
        assert tuple(v.hex() for v in values) == self.FIELDS[name]


class TestMultitaskLoss:
    WEIGHTS = LossWeights()

    def test_default_weights_match_training_setup(self):
        w = LossWeights()
        assert (w.location, w.confidence, w.category, w.angle_class, w.angle_reg) == \
            (2.0, 2.0, 5.0, 2.0, 0.5)

    def test_all_background_gates_everything_but_confidence(self):
        samples = [background_sample(-1.0), background_sample(2.0), background_sample(0.5)]
        breakdown = multitask_loss(samples, self.WEIGHTS, CODEC)
        assert breakdown.location == 0.0
        assert breakdown.category == 0.0
        assert breakdown.angle_class == 0.0
        assert breakdown.angle_reg == 0.0
        assert breakdown.confidence > 0.0
        assert breakdown.total == pytest.approx(2.0 * breakdown.confidence, abs=1e-15)

    def test_single_perfect_positive(self):
        breakdown = multitask_loss([perfect_positive_sample()], self.WEIGHTS, CODEC)
        assert breakdown.location == pytest.approx(0.0, abs=1e-12)
        assert breakdown.category == pytest.approx(0.0, abs=1e-12)
        assert breakdown.angle_class == pytest.approx(0.0, abs=1e-12)
        assert breakdown.angle_reg == pytest.approx(0.0, abs=1e-12)
        assert breakdown.total == pytest.approx(2.0 * breakdown.confidence, abs=1e-12)

    def test_four_sample_fixture_matches_hand_assembly(self):
        rng = np.random.default_rng(21)
        samples = [noisy_positive_sample(rng), background_sample(1.0),
                   noisy_positive_sample(rng), background_sample(-2.0)]
        breakdown = multitask_loss(samples, self.WEIGHTS, CODEC)

        n = len(samples)
        conf = sum(focal_loss(s.pred_confidence, s.objectness) for s in samples) / n
        loc = cat = ang_c = ang_r = 0.0
        for s in samples:
            if not s.objectness:
                continue
            pred_box = decode_box_deltas(s.pred_deltas, s.anchor)
            loc += reference_giou_loss((pred_box.cx, pred_box.cy, pred_box.w, pred_box.h),
                                       (s.gt_box.cx, s.gt_box.cy, s.gt_box.w, s.gt_box.h))
            cat += cross_entropy(s.pred_category_logits, s.gt_category)
            target = encode(s.gt_box.theta, CODEC)
            ang_c += cross_entropy(s.pred_angle.class_logits, target.class_index)
            theta = (60.0 * int(np.argmax(s.pred_angle.class_logits))
                     + s.pred_angle.regression_output ** 2) % 180.0
            pred_obb = longside(pred_box.cx, pred_box.cy, pred_box.w, pred_box.h, theta)
            iou = min(max(rotated_iou(pred_obb, s.gt_box), 1e-6), 1.0)
            ang_r += smooth_l1(s.pred_angle.regression_output, target.residual_target) \
                * (abs(-math.log(iou)) + 1.0)
        expected_total = (2.0 * loc + 2.0 * conf * n + 5.0 * cat + 2.0 * ang_c + 0.5 * ang_r) / n

        assert breakdown.location == pytest.approx(loc / n, abs=1e-12)
        assert breakdown.confidence == pytest.approx(conf, abs=1e-12)
        assert breakdown.category == pytest.approx(cat / n, abs=1e-12)
        assert breakdown.angle_class == pytest.approx(ang_c / n, abs=1e-12)
        assert breakdown.angle_reg == pytest.approx(ang_r / n, abs=1e-12)
        assert breakdown.total == pytest.approx(expected_total, abs=1e-12)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(22)
        samples = [noisy_positive_sample(rng) for _ in range(6)] + \
                  [background_sample(float(rng.normal())) for _ in range(6)]
        base = multitask_loss(samples, self.WEIGHTS, CODEC)
        for seed in range(3):
            perm = list(np.random.default_rng(seed).permutation(len(samples)))
            shuffled = multitask_loss([samples[i] for i in perm], self.WEIGHTS, CODEC)
            assert shuffled.total == base.total
            assert shuffled.location == base.location

    def test_total_is_weighted_sum_of_terms(self):
        rng = np.random.default_rng(25)
        samples = [noisy_positive_sample(rng), background_sample(0.3)]
        weights = LossWeights(1.5, 0.5, 3.0, 2.5, 0.25)
        b = multitask_loss(samples, weights, CODEC)
        expected = (1.5 * b.location + 0.5 * b.confidence + 3.0 * b.category
                    + 2.5 * b.angle_class + 0.25 * b.angle_reg)
        assert b.total == pytest.approx(expected, abs=1e-12)
        for term in (b.location, b.confidence, b.category, b.angle_class, b.angle_reg):
            assert term >= 0.0

    @pytest.mark.parametrize("arguments, message", [
        ({"samples": [{}]}, "samples entry must be an AssignedSample, got {}"),
        ({"samples": None},
         "samples must be a flat sequence of AssignedSample entries, got None"),
        ({"weights": (2, 2, 5, 2, 0.5)}, "weights must be a LossWeights, got (2, 2, 5, 2, 0.5)"),
        ({"codec": "mgar"}, "codec must be a CodecConfig, got 'mgar'"),
    ], ids=["dict-sample", "none-samples", "weights-tuple", "codec-str"])
    def test_rejects_unbuilt_arguments(self, arguments, message):
        call = {"samples": [background_sample()], "weights": self.WEIGHTS, "codec": CODEC}
        with pytest.raises(InvalidInputError) as info:
            multitask_loss(**{**call, **arguments})
        assert str(info.value) == message

    def test_reads_an_iterator_of_samples_once(self):
        rng = np.random.default_rng(26)
        samples = [noisy_positive_sample(rng), background_sample(0.3), noisy_positive_sample(rng)]
        assert multitask_loss((s for s in samples), self.WEIGHTS, CODEC) == \
            multitask_loss(samples, self.WEIGHTS, CODEC)

    def test_rejects_empty_and_dcl(self):
        with pytest.raises(InvalidInputError):
            multitask_loss([], self.WEIGHTS, CODEC)
        with pytest.raises(InvalidInputError):
            multitask_loss([background_sample()], self.WEIGHTS,
                           CodecConfig(Method.DCL_GRAY, 64))

    @pytest.mark.parametrize("confidence, logits", [
        (math.nan, [0.0, 0.0]), (0.0, [0.0, math.inf]), (0.0, [[0.0, 0.0]]),
    ], ids=["nan-confidence", "inf-category-logit", "2d-category-logits"])
    def test_rejects_nonfinite_or_non_vector_predictions(self, confidence, logits):
        with pytest.raises(InvalidInputError):
            AssignedSample(objectness=0, anchor=AnchorBox(0, 0, 1, 1),
                           pred_deltas=BoxDeltas(0, 0, 0, 0), pred_confidence=confidence,
                           pred_category_logits=np.array(logits),
                           pred_angle=AnglePrediction(np.zeros(3), 0.0))

    def test_overflowing_residual_fit_is_rejected(self):
        overflowing = perfect_positive_sample(pred_angle=AnglePrediction(np.zeros(3), 1000.0))
        with pytest.raises(InvalidInputError, match="regression output"):
            multitask_loss([overflowing], self.WEIGHTS,
                           CodecConfig(Method.MGAR, 3, fit_function=FitFunction.EXP))

    @pytest.mark.parametrize("codec, angle", [
        (CodecConfig(Method.CSL), AnglePrediction([0.0, 1.0, 0.0])),
        (CodecConfig(Method.MGAR, 3), AnglePrediction([0.0, 1.0, 0.0, 0.0], 1.0)),
    ], ids=["csl-3-of-180", "mgar-4-of-3"])
    def test_rejects_wrong_angle_logit_count(self, codec, angle):
        sample = perfect_positive_sample(theta=1.0, pred_angle=angle)
        with pytest.raises(InvalidInputError, match=f"expects {codec.code_length} angle logits"):
            multitask_loss([sample], self.WEIGHTS, codec)

    def test_category_logits_become_a_tuple(self):
        sample = background_sample(pred_category_logits=np.array([1.0, 2.0]))
        assert sample.pred_category_logits == (1.0, 2.0)
        assert type(sample.pred_category_logits) is tuple

    @pytest.mark.parametrize("change", [
        {"pred_angle": ((0.0, 0.0, 0.0), 1.0)},
        {"gt_box": AnchorBox(10.0, 20.0, 6.0, 2.0)},
    ], ids=["angle-tuple", "axis-aligned-gt"])
    def test_rejects_untyped_angle_or_ground_truth(self, change):
        with pytest.raises(InvalidInputError, match="pred_angle must be an AnglePrediction"):
            perfect_positive_sample(**change)

    @pytest.mark.parametrize("objectness", [0, 1])
    @pytest.mark.parametrize("change", [
        {"anchor": (10.0, 20.0, 6.0, 2.0)}, {"pred_deltas": (0.0, 0.0, 0.0, 0.0)},
        {"pred_deltas": SimpleNamespace(dx=0.0, dy=0.0, dw=0.0, dh=0.0)},
    ], ids=["anchor-tuple", "deltas-tuple", "deltas-namespace"])
    def test_rejects_untyped_anchor_or_deltas(self, change, objectness):
        build = perfect_positive_sample if objectness else background_sample
        message = "anchor an AnchorBox, pred_deltas a BoxDeltas$"
        with pytest.raises(InvalidInputError, match=message):
            build(**change)

    def test_foreground_requires_targets(self):
        with pytest.raises(InvalidInputError):
            AssignedSample(objectness=1, anchor=AnchorBox(0, 0, 1, 1),
                           pred_deltas=BoxDeltas(0, 0, 0, 0), pred_confidence=0.0,
                           pred_category_logits=np.zeros(2),
                           pred_angle=AnglePrediction(np.zeros(3), 0.0))


class TestFiniteDifference:
    def test_mse_quadratic_exactness(self):
        err = finite_diff_grad_check(
            lambda p: mse(p[0], 3.0), lambda p: [mse_grad(p[0], 3.0)], [0.0])
        assert mse_grad(0.0, 3.0) == -6.0
        assert err < 1e-6

    def test_smooth_l1_away_from_kink(self):
        for point in (0.3, 2.5, -0.7, -4.0):
            err = finite_diff_grad_check(
                lambda p: smooth_l1(p[0], 0.0), lambda p: [smooth_l1_grad(p[0], 0.0)], [point])
            assert err < 1e-4

    def test_ifl_fixed_iou(self):
        err = finite_diff_grad_check(
            lambda p: ifl(p[0], 1.0, 0.4), lambda p: [ifl_grad(p[0], 1.0, 0.4)], [1.6])
        assert err < 1e-4

    def test_focal(self):
        for label in (0, 1):
            err = finite_diff_grad_check(
                lambda p: focal_loss(p[0], label),
                lambda p: [focal_loss_grad(p[0], label)], [0.8])
            assert err < 1e-4

    def test_cross_entropy_vector_gradient(self):
        logits = np.array([0.2, -1.0, 0.7, 1.5])
        err = finite_diff_grad_check(
            lambda p: cross_entropy(p, 2), lambda p: cross_entropy_grad(p, 2), logits)
        assert err < 1e-4

    def test_giou_location(self):
        pred = np.array([0.2, -0.1, 2.0, 1.5])
        target = np.array([0.0, 0.0, 1.8, 1.6])
        err = finite_diff_grad_check(
            lambda p: giou_location_loss(p, target),
            lambda p: giou_location_loss_grad(p, target), pred)
        assert err < 1e-4

    def test_nan_gradient_fails(self):
        square = lambda p: p[0] ** 2  # noqa: E731
        assert finite_diff_grad_check(square, lambda p: [math.nan], [1.0]) == math.inf
        assert finite_diff_grad_check(lambda p: math.nan, lambda p: [2.0 * p[0]],
                                      [1.0]) == math.inf

    @pytest.mark.parametrize("gradient, message", [
        ([], "gradient must be a flat sequence of numbers of length 2, got []"),
        ([2.0, 1.0, 0.0], "gradient must be a flat sequence of numbers of length 2, "
                          "got [2.0, 1.0, 0.0]"),
        (2.0, "gradient must be a flat sequence of numbers of length 2, got 2.0"),
        (["2", 1.0], "gradient must be a number, got '2'"),
    ], ids=["shorter", "longer", "scalar", "numeric-string"])
    def test_gradient_must_match_the_point(self, gradient, message):
        with pytest.raises(InvalidInputError) as info:
            finite_diff_grad_check(lambda p: p[0] * p[1], lambda p: gradient, [1.0, 2.0])
        assert str(info.value) == message

    def test_empty_point_is_rejected(self):
        with pytest.raises(InvalidInputError, match="^point must not be empty$"):
            finite_diff_grad_check(lambda p: 0.0, lambda p: [], [])

    @pytest.mark.parametrize("entry", [math.inf, -math.inf, 10**400], ids=["inf", "-inf", "1e400"])
    def test_infinite_gradient_fails(self, entry):
        assert finite_diff_grad_check(lambda p: p[0] ** 2, lambda p: [entry], [1.0]) == math.inf

    def test_full_suite_passes(self):
        results = run_gradient_checks(seed=0, points=100)
        assert set(results) == {"smooth_l1", "mse", "ifl", "focal", "cross_entropy",
                                "giou_location"}
        for name, result in results.items():
            assert result.max_relative_error < 1e-4, name

    def test_corrupt_hook_fails(self, monkeypatch):
        exact = anglekit.losses.mse_grad
        monkeypatch.setattr(anglekit.losses, "mse_grad",
                            lambda pred, target: exact(pred, target) + 1e-2)
        results = run_gradient_checks(seed=0, points=10)
        assert results["mse"].max_relative_error > 1e-4
