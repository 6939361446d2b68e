import copy
import hashlib
import math
import pickle
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import anglekit.codecs
from anglekit import (AnchorBox, AnglePrediction, AssignedSample, BoxDeltas, CodecConfig,
                      FitFunction, InvalidInputError, LossWeights, Method, OrientedBox,
                      analytic_errors, decode, empirical_errors, encode, head_thickness,
                      ideal_prediction, multitask_loss, omega)
from anglekit.codecs import ANGLE_RANGE, C_THETA_CHOICES
from helpers import count_calls, reference_empirical_errors

# Logits at which the DCL bit rule 1/(1+exp(-x)) > 0.5 is decided by rounding.
DCL_KNIFE_EDGE = (0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e-17, -1e-17, 1.56e-16, -1.56e-16,
                  2.3e-16, -2.3e-16, 1e3, -1e3)
# Largest logit whose DCL bit is off under a correctly rounded exp; numpy's
# baseline (non-AVX-512) exp puts the edge at the same float.
DCL_EDGE = 1.6653345369377348e-16


def mgar(c_theta, fit=FitFunction.SQUARE):
    return CodecConfig(Method.MGAR, c_theta, fit_function=fit)


def strong_logits(bits):
    # +-8 logits whose sigmoid bits are `bits`
    return np.where(np.asarray(bits) > 0, 8.0, -8.0)


class TestConfig:
    def test_omega_values(self):
        assert omega(mgar(3)) == 60.0
        assert omega(CodecConfig(Method.CSL)) == 1.0
        assert omega(CodecConfig(Method.DCL_GRAY, 64)) == 2.8125

    def test_defaults_per_method(self):
        assert CodecConfig(Method.REGRESSION).c_theta == 1
        assert CodecConfig(Method.CSL).c_theta == 180
        assert CodecConfig(Method.DCL_BINARY).c_theta == 64
        assert CodecConfig(Method.MGAR).c_theta == 3

    def test_non_divisor_rejected_for_mgar(self):
        with pytest.raises(InvalidInputError):
            CodecConfig(Method.MGAR, 7)

    def test_nondefault_divisor_warns(self):
        with pytest.warns(UserWarning):
            config = CodecConfig(Method.MGAR, 45)
        assert config.c_theta == 45

    def test_non_integral_c_theta_rejected(self):
        # a fractional bin count is an error, not truncated by int()
        for c_theta in (2.5, 3.5, math.nan, math.inf):
            with pytest.raises(InvalidInputError, match="integer"):
                CodecConfig(Method.MGAR, c_theta)
            with pytest.raises(InvalidInputError, match="integer"):
                head_thickness(Method.MGAR, c_theta, 9)
        assert CodecConfig(Method.MGAR, 3.0).c_theta == 3
        assert head_thickness(Method.MGAR, 3.0, 9) == 36
        assert type(head_thickness(Method.MGAR, 3.0, 9)) is int

    def test_method_constraints(self):
        with pytest.raises(InvalidInputError):
            CodecConfig(Method.REGRESSION, 2)
        with pytest.raises(InvalidInputError):
            CodecConfig(Method.CSL, 90)
        with pytest.raises(InvalidInputError):
            CodecConfig(Method.DCL_BINARY, 48)

    def test_code_length(self):
        for c_theta, bits in ((32, 5), (64, 6), (128, 7), (256, 8)):
            assert CodecConfig(Method.DCL_BINARY, c_theta).code_length == bits
            assert CodecConfig(Method.DCL_GRAY, c_theta).code_length == bits

    @pytest.mark.parametrize("call, message", [
        (lambda c, p: encode(10.0, "mgar"), "config must be a CodecConfig, got 'mgar'"),
        (lambda c, p: decode(p, "mgar"), "config must be a CodecConfig, got 'mgar'"),
        (lambda c, p: decode((1, 0, 0), c), "pred must be an AnglePrediction, got (1, 0, 0)"),
        (lambda c, p: empirical_errors("mgar", 1.0), "config must be a CodecConfig, got 'mgar'"),
        (lambda c, p: analytic_errors("mgar"), "config must be a CodecConfig, got 'mgar'"),
        (lambda c, p: omega("mgar"), "config must be a CodecConfig, got 'mgar'"),
        (lambda c, p: ideal_prediction(None, c), "target must be an AngleTarget, got None"),
    ], ids=["encode", "decode-config", "decode-pred", "empirical_errors", "analytic_errors",
            "omega", "ideal_prediction"])
    def test_public_calls_take_built_arguments(self, call, message):
        config = CodecConfig(Method.MGAR, 3)
        with pytest.raises(InvalidInputError) as info:
            call(config, AnglePrediction([1.0, 0.0, 0.0], 0.5))
        assert str(info.value) == message

    @pytest.mark.parametrize("call, message", [
        (lambda: CodecConfig("x"),
         "method must be one of regression, csl, dcl-binary, dcl-gray, mgar, got 'x'"),
        (lambda: CodecConfig(Method.MGAR, fit_function="cubic"),
         "fit function must be one of linear, sigmoid, square, exp, got 'cubic'"),
        (lambda: head_thickness("x", 3, 1),
         "method must be one of regression, csl, dcl-binary, dcl-gray, mgar, got 'x'"),
    ], ids=["config-method", "config-fit", "head_thickness"])
    def test_unknown_names_are_rejected_with_the_valid_ones(self, call, message):
        with pytest.raises(InvalidInputError) as info:
            call()
        assert str(info.value) == message

    @pytest.mark.parametrize("fit", list(FitFunction), ids=lambda fit: fit.value)
    @pytest.mark.parametrize("method", list(Method), ids=lambda method: method.value)
    def test_used_config_pickles_compares_and_hashes(self, method, fit):
        # encode, decode, the sweep and the loss fill the config's cached
        # tables; a used config still copies, compares and hashes by its fields.
        config = CodecConfig(method, fit_function=fit)
        before = hash(config)
        target = encode(73.5, config)
        theta = decode(ideal_prediction(target, config), config)
        empirical_errors(config, 0.5)
        if method not in (Method.DCL_BINARY, Method.DCL_GRAY):  # the loss takes no DCL code
            gt = OrientedBox(0.0, 0.0, 6.0, 2.0, 73.5)
            anchor = AnchorBox(0.0, 0.0, 6.0, 2.0)
            sample = AssignedSample(objectness=1, anchor=anchor, pred_deltas=BoxDeltas(0, 0, 0, 0),
                                    pred_confidence=1.0, pred_category_logits=[1.0, 0.0],
                                    pred_angle=ideal_prediction(target, config), gt_box=gt,
                                    gt_category=0)
            multitask_loss([sample], LossWeights(), config)
        assert "_kernel" in vars(config)
        fresh = CodecConfig(method, fit_function=fit)
        for twin in (pickle.loads(pickle.dumps(config)), copy.deepcopy(config)):
            assert twin == config == fresh
            assert hash(twin) == hash(config) == hash(fresh) == before
            assert decode(ideal_prediction(encode(73.5, twin), twin), twin) == theta


class TestGrayCode:
    def test_basic(self):
        # the Gray code of 00101 is 00111; of 00000 it is 00000
        config = CodecConfig(Method.DCL_GRAY, 32)
        assert list(encode(5 * 5.625, config).class_vector) == [0, 0, 1, 1, 1]
        assert list(encode(0.0, config).class_vector) == [0, 0, 0, 0, 0]

    def test_exhaustive_8bit_roundtrip(self):
        for c_theta in (32, 64, 128, 256):
            config = CodecConfig(Method.DCL_GRAY, c_theta)
            width, length = omega(config), config.code_length
            for k in range(c_theta):
                midpoint = k * width + width / 2
                target = encode(midpoint, config)
                gray = k ^ (k >> 1)
                bits = [(gray >> (length - 1 - i)) & 1 for i in range(length)]
                assert target.class_index == k
                assert list(target.class_vector) == bits
                assert decode(AnglePrediction(strong_logits(bits)), config) == midpoint

    @given(st.lists(st.integers(0, 1), min_size=5, max_size=8))
    @settings(max_examples=200)
    def test_roundtrip_property(self, bits):
        # every code word decodes to a bin whose encoding is that code word
        config = CodecConfig(Method.DCL_GRAY, 2 ** len(bits))
        theta = decode(AnglePrediction(strong_logits(bits)), config)
        assert list(encode(theta, config).class_vector) == bits

    def test_rejects_bad_bits(self):
        config = CodecConfig(Method.DCL_GRAY, 32)
        with pytest.raises(InvalidInputError):
            decode(AnglePrediction([]), config)
        with pytest.raises(InvalidInputError):
            decode(AnglePrediction([0.0, 2.0, math.nan, 0.0, 0.0]), config)


class TestEncode:
    def test_mgar_midbin(self):
        target = encode(73.5, mgar(3))
        assert target.class_index == 1
        assert list(target.class_vector) == [0.0, 1.0, 0.0]
        assert 73.5 - target.class_index * 60.0 == pytest.approx(13.5)
        assert target.residual_target == pytest.approx(math.sqrt(13.5))

    def test_mgar_boundary(self):
        target = encode(0.0, mgar(3))
        assert target.class_index == 0
        assert list(target.class_vector) == [1.0, 0.0, 0.0]
        assert target.residual_target == 0.0

    def test_bin_boundary_belongs_to_upper_bin(self):
        target = encode(60.0, mgar(3))
        assert target.class_index == 1
        assert target.residual_target == 0.0

    def test_dcl_gray_example(self):
        target = encode(14.2, CodecConfig(Method.DCL_GRAY, 64))
        assert target.class_index == 5
        assert list(target.class_vector) == [0.0, 0.0, 0.0, 1.0, 1.0, 1.0]

    def test_dcl_binary_bits(self):
        target = encode(14.2, CodecConfig(Method.DCL_BINARY, 64))
        assert list(target.class_vector) == [0.0, 0.0, 0.0, 1.0, 0.0, 1.0]

    def test_regression_has_empty_class_vector(self):
        target = encode(73.5, CodecConfig(Method.REGRESSION))
        assert len(target.class_vector) == 0
        assert target.class_index == 0
        assert target.residual_target == pytest.approx(math.sqrt(73.5))

    def test_csl_label_peaks_at_bin(self):
        config = CodecConfig(Method.CSL)
        target = encode(45.7, config)
        assert target.class_index == 45
        assert target.class_vector[45] == 1.0
        assert int(np.argmax(target.class_vector)) == 45
        # window: zero outside |d| > 6, gaussian inside
        assert target.class_vector[45 + 7] == 0.0
        assert target.class_vector[45 - 7] == 0.0
        sigma = 6.0 / 3.0
        assert target.class_vector[45 + 3] == pytest.approx(math.exp(-9 / (2 * sigma**2)))
        assert target.residual_target is None

    @pytest.mark.parametrize("window", [3.3, 6.0, 45.0])
    def test_csl_label_is_exact_gaussian_window(self, window):
        # Bit for bit the correctly rounded window over the circular bin distance.
        config = CodecConfig(Method.CSL, window_size=window)
        sigma = window / 3
        for theta in (0.5, 45.7, 100.0, 179.5):
            k = int(theta)
            distances = [min((i - k) % 180, (k - i) % 180) for i in range(180)]
            expected = [math.exp(-d * d / (2 * sigma * sigma)) if d <= window else 0.0
                        for d in distances]
            assert encode(theta, config).class_vector == tuple(expected)

    def test_csl_tiny_window_is_one_hot(self):
        # 2 sigma^2 underflows to 0 for these windows; the label stays one-hot
        for window in (0.5, 1e-200, 5e-324):
            target = encode(45.7, CodecConfig(Method.CSL, window_size=window))
            assert target.class_vector == tuple(float(i == 45) for i in range(180))

    def test_csl_window_wraps_circularly(self):
        target = encode(0.5, CodecConfig(Method.CSL))
        assert target.class_vector[179] > 0.0
        assert target.class_vector[174] > 0.0
        assert target.class_vector[173] == 0.0

    def test_out_of_range_rejected(self):
        # An angle that is not a number, or an int past float range, included.
        for bad in (-0.001, 180.0, 181.0, math.nan, 10**400, "73.5", None, [73.5]):
            with pytest.raises(InvalidInputError):
                encode(bad, mgar(3))

    @given(st.floats(0, 179.9999999), st.sampled_from([3, 4, 5]))
    @settings(max_examples=300)
    def test_bin_and_residual_ranges(self, theta, c_theta):
        config = mgar(c_theta)
        width = omega(config)
        target = encode(theta, config)
        assert 0 <= target.class_index < c_theta
        residual = target.residual_target ** 2
        assert 0.0 <= residual < width + 1e-9

    def test_class_index_in_range_for_every_method(self):
        rng = np.random.default_rng(14)
        configs = [CodecConfig(Method.CSL), CodecConfig(Method.DCL_BINARY, 32),
                   CodecConfig(Method.DCL_GRAY, 256), mgar(5), CodecConfig(Method.REGRESSION)]
        for config in configs:
            for theta in rng.uniform(0, 180, size=200):
                target = encode(theta, config)
                assert 0 <= target.class_index < config.c_theta
                assert len(target.class_vector) == config.code_length


class TestDecode:
    def test_mgar_example(self):
        got = decode(AnglePrediction([-2.0, 5.0, -1.0], math.sqrt(13.5)), mgar(3))
        assert got == pytest.approx(73.5, abs=1e-12)

    def test_mgar_zero_residual(self):
        got = decode(AnglePrediction([0.1, 0.2, 7.0], 0.0), mgar(3))
        assert got == 120.0

    def test_dcl_gray_midpoint(self):
        config = CodecConfig(Method.DCL_GRAY, 64)
        bits = encode(14.2, config).class_vector
        logits = [b * 8.0 - 4.0 for b in bits]  # strong logits matching the code bits
        got = decode(AnglePrediction(logits), config)
        assert got == pytest.approx(5 * 2.8125 + 2.8125 / 2, abs=1e-12)
        assert got == pytest.approx(15.46875, abs=1e-12)

    @pytest.mark.parametrize("method", [Method.DCL_BINARY, Method.DCL_GRAY])
    def test_dcl_bit_rule_is_host_independent(self, method):
        # A DCL bit is on exactly for logits above DCL_EDGE, so never for x <= 0,
        # on every host.
        config = CodecConfig(method, 256)
        for x, bit in ((DCL_EDGE, 0), (math.nextafter(DCL_EDGE, math.inf), 1)):
            assert (decode(AnglePrediction([x] + [-8.0] * 7), config)
                    == decode(AnglePrediction(strong_logits([bit] + [0] * 7)), config))
        values = list(DCL_KNIFE_EDGE) + np.linspace(-1e-15, 1e-15, 2001).tolist()
        for start in range(len(values) - 7):
            logits = values[start:start + 8]
            bits = [x > DCL_EDGE for x in logits]
            assert (decode(AnglePrediction(logits), config)
                    == decode(AnglePrediction(strong_logits(bits)), config)), logits

    def test_dcl_overflowing_logit_decodes_without_warning(self):
        # exp(1000) overflows to inf, which still switches the bit off.
        config = CodecConfig(Method.DCL_GRAY, 32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = decode(AnglePrediction([-1000.0, 1, 1, 1, 1]), config)
        assert got == decode(AnglePrediction([-50.0, 1, 1, 1, 1]), config)

    def test_csl_midpoint(self):
        config = CodecConfig(Method.CSL)
        logits = np.zeros(180)
        logits[45] = 4.0
        assert decode(AnglePrediction(logits), config) == pytest.approx(45.5)

    def test_sigmoid_does_not_change_argmax(self):
        rng = np.random.default_rng(2)
        config = mgar(5)
        for _ in range(100):
            logits = rng.normal(0, 3, size=5)
            raw = decode(AnglePrediction(logits, 0.0), config)
            squashed = decode(AnglePrediction(1 / (1 + np.exp(-logits)), 0.0), config)
            assert raw == squashed

    def test_residual_overflow_wraps_only_at_range_end(self):
        config = mgar(3)
        # residual decodes past one bin: no clamp, only the final wrap
        got = decode(AnglePrediction([0.0, 0.0, 9.0], math.sqrt(70.0)), config)
        assert got == pytest.approx((120.0 + 70.0) % 180.0)

    def test_wrong_shape_rejected(self):
        with pytest.raises(InvalidInputError, match=r"^mgar expects 3 logits, got shape \(2,\)$"):
            decode(AnglePrediction([1.0, 2.0], 0.0), mgar(3))
        with pytest.raises(InvalidInputError):
            decode(AnglePrediction([1.0] * 64, 0.0), CodecConfig(Method.DCL_GRAY, 64))
        # scalar and string logits are not a flat sequence of numbers
        for bad in (3.0, np.float64(3.0), np.array(3.0), "123", b"123", None):
            with pytest.raises(InvalidInputError, match="^class logits must be a flat sequence"):
                decode(AnglePrediction(bad, 0.0), mgar(3))
        # and a nested or non-numeric element is not a number
        for bad in ([[1.0], [2.0], [3.0]], np.ones((3, 1)), ["a", "b", "c"], [1.0, None, 2.0],
                    ["0", "1", "0"]):
            with pytest.raises(InvalidInputError, match="^class logits must be a number"):
                decode(AnglePrediction(bad, 0.0), mgar(3))

    def test_missing_residual_rejected(self):
        with pytest.raises(InvalidInputError):
            decode(AnglePrediction([1.0, 0.0, 0.0]), mgar(3))

    def test_residual_that_is_not_a_float_rejected(self):
        for bad in ("2", b"2", [2.0]):
            with pytest.raises(InvalidInputError, match="^regression output must be a number"):
                AnglePrediction([1.0, 0.0, 0.0], bad)
        # An int past float range is no float, and math.isfinite would raise OverflowError.
        for bad in (10**400, -10**400, math.inf, math.nan):
            with pytest.raises(InvalidInputError, match="^non-finite regression output"):
                AnglePrediction([1.0, 0.0, 0.0], bad)
        assert decode(AnglePrediction([0.0, 1.0, 0.0], 2), mgar(3)) == 64.0

    def test_unexpected_residual_rejected(self):
        with pytest.raises(InvalidInputError):
            decode(AnglePrediction(np.zeros(180), 1.0), CodecConfig(Method.CSL))

    @pytest.mark.parametrize("config, k, residual", [
        (mgar(3, FitFunction.LINEAR), 0, -1e-20),
        (CodecConfig(Method.REGRESSION, fit_function=FitFunction.LINEAR), None, -1e-15),
        (mgar(3, FitFunction.LINEAR), 1, -60.00000000000001),
    ], ids=["bin-0", "regression", "bin-1"])
    def test_sum_that_rounds_up_to_the_period_decodes_to_zero(self, config, k, residual):
        # The reduction of a tiny negative sum rounds up to 180.0, which is
        # outside [0, 180); OrientedBox's rule stores it as 0.0.
        assert ((k or 0) * omega(config) + residual) % ANGLE_RANGE == ANGLE_RANGE
        logits = [] if k is None else [float(i == k) for i in range(config.c_theta)]
        got = decode(AnglePrediction(logits, residual), config)
        assert got == 0.0
        assert math.copysign(1.0, got) == 1.0

    def test_fit_functions_roundtrip(self):
        for fit in FitFunction:
            config = mgar(3, fit=fit)
            for theta in (0.5, 31.25, 73.5, 119.0, 179.5):
                target = encode(theta, config)
                got = decode(ideal_prediction(target, config), config)
                assert got == pytest.approx(theta, abs=1e-6), fit


class TestAnalyticErrors:
    def test_table_values(self):
        assert analytic_errors(CodecConfig(Method.CSL, 180)) == (0.5, 0.25)
        assert analytic_errors(CodecConfig(Method.DCL_GRAY, 256)) == (0.3515625, 0.17578125)
        assert analytic_errors(CodecConfig(Method.DCL_BINARY, 256)) == (0.3515625, 0.17578125)
        assert analytic_errors(CodecConfig(Method.MGAR, 3)) == (0.0, 0.0)
        assert analytic_errors(CodecConfig(Method.REGRESSION)) == (0.0, 0.0)


class TestEmpiricalErrors:
    def test_mgar_exact_roundtrip(self):
        worst, mean = empirical_errors(mgar(5), 0.001)
        assert worst < 1e-9
        assert mean < 1e-9

    def test_csl_sweep_matches_closed_form(self):
        worst, mean = empirical_errors(CodecConfig(Method.CSL), 0.001)
        assert worst == pytest.approx(0.5, abs=1e-3)
        assert mean == pytest.approx(0.25, abs=1e-3)

    def test_dcl_binary_32_sweep(self):
        worst, _ = empirical_errors(CodecConfig(Method.DCL_BINARY, 32), 0.001)
        assert worst == pytest.approx(2.8125, abs=1e-3)

    def test_rejects_bad_step(self):
        # 0 is not a step; 500 and inf are steps too coarse to sweep any angle;
        # below 1.8e-5 the sweep would take more than 10**7 points (1e-300: 1.8e302)
        for step in (0.0, 500.0, math.inf, 1.7e-5, 1e-300, 1e-320, 5e-324):
            with pytest.raises(InvalidInputError):
                empirical_errors(mgar(3), step)

    @pytest.mark.parametrize("step", [0.1, 0.37, 7.0, 0.013])
    @pytest.mark.parametrize("method, c_theta", [
        pytest.param(method, c_theta, id=f"{method.value}-{c_theta}")
        for method, choices in C_THETA_CHOICES.items() for c_theta in choices])
    def test_matches_public_round_trip(self, method, c_theta, step):
        config = CodecConfig(method, c_theta)
        assert empirical_errors(config, step) == reference_empirical_errors(config, step)

    @pytest.mark.parametrize("fit", list(FitFunction), ids=lambda fit: fit.value)
    @pytest.mark.parametrize("method, c_theta", [(Method.MGAR, 3), (Method.MGAR, 5),
                                                 (Method.REGRESSION, 1)],
                             ids=["mgar-3", "mgar-5", "regression"])
    def test_fit_functions_match_public_round_trip(self, method, c_theta, fit):
        config = CodecConfig(method, c_theta, fit_function=fit)
        assert empirical_errors(config, 0.1) == reference_empirical_errors(config, 0.1)

    @pytest.mark.parametrize("window", [0.5, 20.0])
    def test_csl_windows_match_public_round_trip(self, window):
        config = CodecConfig(Method.CSL, 180, window_size=window)
        assert empirical_errors(config, 0.1) == reference_empirical_errors(config, 0.1)

    @pytest.mark.parametrize("method, c_theta", [(Method.CSL, 180), (Method.DCL_BINARY, 256)])
    def test_class_step_runs_once_per_bin(self, monkeypatch, method, c_theta):
        # 18,000 grid points, but the decoded class depends on the bin alone.
        calls = count_calls(monkeypatch, "_bin_from_scores", anglekit.codecs)
        empirical_errors(CodecConfig(method, c_theta), 0.01)
        assert 0 < calls[0] <= c_theta


class TestHeadThickness:
    def test_table_values(self):
        assert head_thickness(Method.CSL, 180, 9) == 1620
        assert head_thickness(Method.DCL_BINARY, 32, 9) == 45
        assert head_thickness(Method.DCL_GRAY, 32, 9) == 45
        assert head_thickness(Method.MGAR, 3, 9) == 36
        assert head_thickness(Method.REGRESSION, 1, 9) == 9

    def test_dcl_uses_bit_count(self):
        for c_theta, bits in ((32, 5), (64, 6), (128, 7), (256, 8)):
            assert head_thickness(Method.DCL_GRAY, c_theta, 1) == bits

    def test_rejects_bad_anchor_count(self):
        with pytest.raises(InvalidInputError):
            head_thickness(Method.MGAR, 3, 0)
        # a fractional anchor count is an error, not a fractional channel count
        for anchors in (2.5, 0.5, math.nan, math.inf):
            with pytest.raises(InvalidInputError, match="integer"):
                head_thickness(Method.MGAR, 3, anchors)
        assert head_thickness(Method.MGAR, 3, 2.0) == 8
        assert type(head_thickness(Method.MGAR, 3, 2.0)) is int


class TestRoundTripProperty:
    @given(st.floats(0, 179.9999999), st.sampled_from([3, 4, 5]))
    @settings(max_examples=500)
    def test_mgar_lossless(self, theta, c_theta):
        config = mgar(c_theta)
        decoded = decode(ideal_prediction(encode(theta, config), config), config)
        assert abs(decoded - theta) < 1e-9

    @given(st.floats(0, 179.9999999),
           st.sampled_from([(Method.CSL, 180), (Method.DCL_BINARY, 64), (Method.DCL_GRAY, 128)]))
    @settings(max_examples=300)
    def test_classification_error_bounded_by_half_bin(self, theta, method_ctheta):
        method, c_theta = method_ctheta
        config = CodecConfig(method, c_theta)
        decoded = decode(ideal_prediction(encode(theta, config), config), config)
        assert abs(decoded - theta) <= omega(config) / 2 + 1e-9


# Every published (method, c_theta), every other fit for MGAR and regression,
# and CSL windows from below one bin to beyond the whole range.
PINNED_CONFIGS = (
    [(method, c_theta, {}) for method, choices in C_THETA_CHOICES.items() for c_theta in choices]
    + [(method, c_theta, {"fit_function": fit})
       for method in (Method.MGAR, Method.REGRESSION) for c_theta in C_THETA_CHOICES[method]
       for fit in FitFunction if fit is not FitFunction.SQUARE]
    + [(Method.CSL, 180, {"window_size": window}) for window in (0.5, 45.0, 1e9)])


def codec_fingerprint() -> str:
    """sha256 over float.hex of encode fields, ideal and seeded-noisy decodes
    and swept errors, at every bin edge, the float below it and random angles."""
    digest = hashlib.sha256()

    def put(*values):
        for value in values:
            digest.update((value.hex() if isinstance(value, float) else repr(value)).encode())
            digest.update(b";")

    rng = random.Random(0)
    for method, c_theta, extra in PINNED_CONFIGS:
        config = CodecConfig(method, c_theta, **extra)
        edges = [k * omega(config) for k in range(config.c_theta)] + [ANGLE_RANGE]
        angles = [theta for edge in edges for theta in (edge, math.nextafter(edge, -math.inf))
                  if 0.0 <= theta < ANGLE_RANGE]
        angles += [rng.uniform(0.0, ANGLE_RANGE) for _ in range(50)]
        for theta in angles:
            target = encode(theta, config)
            put(target.class_index, *target.class_vector, target.residual_target,
                target.raw_angle)
            put(decode(ideal_prediction(target, config), config))
            logits = [x + rng.gauss(0.0, 0.3) for x in target.class_vector]
            residual = (None if target.residual_target is None
                        else target.residual_target + rng.gauss(0.0, 0.05))
            try:
                put(decode(AnglePrediction(logits, residual), config))
            except InvalidInputError as exc:
                put(str(exc))
        if method in (Method.DCL_BINARY, Method.DCL_GRAY):
            edge = DCL_KNIFE_EDGE
            for j in range(len(edge)):
                logits = [edge[(i + j) % len(edge)] for i in range(config.code_length)]
                put(decode(AnglePrediction(logits), config))
        for step in (0.1, 0.37, 7.0):
            put(*empirical_errors(config, step))
    return digest.hexdigest()


class TestPinnedCodecBits:
    """Every codec bit on a fixed config grid, pinned as one literal: a change
    that means to keep every encode, decode and sweep bit is checked against it."""

    DIGEST = "0294fc3c4f82527eea810f07b08d20a1dc0708796b52ff3d70f5fbb2960e4aec"

    def test_every_bit(self):
        assert len(PINNED_CONFIGS) == 28
        assert codec_fingerprint() == self.DIGEST
