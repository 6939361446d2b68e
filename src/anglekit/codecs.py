"""Angle representation codecs for oriented boxes.

Five encodings of the box angle theta in [0, 180): direct regression,
circular smooth labels (CSL), densely coded labels (DCL, binary or gray
bits), and the joint coarse-class + fine-residual representation (MGAR).
Also computes the closed-form and swept encoding errors of each codec and
the per-anchor prediction-head thickness it requires. Each public call
checks once that its config, prediction or target is of the built type,
or raises InvalidInputError naming the argument; the kernels trust it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Sequence

from .errors import InvalidInputError, _check_box, _finite, _finite_floats, _integer, _shown

ANGLE_RANGE = 180.0
_MAX_SWEEP_POINTS = 10**7  # per codec in empirical_errors: a 1.8e-5 degree step


class Method(str, Enum):
    REGRESSION = "regression"
    CSL = "csl"
    DCL_BINARY = "dcl-binary"
    DCL_GRAY = "dcl-gray"
    MGAR = "mgar"


class FitFunction(str, Enum):
    LINEAR = "linear"
    SIGMOID = "sigmoid"
    SQUARE = "square"
    EXP = "exp"


DEFAULT_C_THETA = {
    Method.REGRESSION: 1,
    Method.CSL: 180,
    Method.DCL_BINARY: 64,
    Method.DCL_GRAY: 64,
    Method.MGAR: 3,
}

# Published c_theta values per method: the rows of codec-report and, except
# for MGAR, the only values accepted. MGAR takes any divisor of 180 but
# warns outside this set.
C_THETA_CHOICES = {
    Method.REGRESSION: (1,),
    Method.CSL: (180,),
    Method.DCL_BINARY: (32, 64, 128, 256),
    Method.DCL_GRAY: (32, 64, 128, 256),
    Method.MGAR: (3, 4, 5),
}

_REGRESSION_METHODS = (Method.REGRESSION, Method.MGAR)
_DCL_METHODS = (Method.DCL_BINARY, Method.DCL_GRAY)


def _member(kind: type, value, name: str):
    # The member of the enum kind with this value, or an error naming the valid values.
    try:
        return kind(value)
    except ValueError:
        raise InvalidInputError(
            f"{name} must be one of {', '.join(kind)}, got {_shown(value, repr)}") from None


def _validate_c_theta(method: Method, c_theta: int, warn: bool = False) -> int:
    c_theta = _integer(c_theta, "c_theta")
    choices = C_THETA_CHOICES[method]
    if method is not Method.MGAR:
        if c_theta not in choices:
            raise InvalidInputError(
                f"{method.value} supports c_theta in {choices}, got {_shown(c_theta)}")
        return c_theta
    if c_theta < 1 or 180 % c_theta != 0:
        raise InvalidInputError(f"mgar requires c_theta to divide 180, got {_shown(c_theta)}")
    if warn and c_theta not in choices:
        warnings.warn(f"mgar c_theta={c_theta} is outside the recommended set {choices}",
                      UserWarning, stacklevel=3)
    return c_theta


def _code_length(method: Method, c_theta: int) -> int:
    if method in _DCL_METHODS:
        return math.ceil(math.log2(c_theta))
    if method is Method.REGRESSION:
        return 0
    return c_theta


@dataclass(frozen=True)
class CodecConfig:
    """Immutable codec configuration over the fixed ANGLE_RANGE of 180 degrees.

    c_theta=0 selects the per-method default. window_size applies to CSL
    only; fit_function applies to the regression component (MGAR and
    regression), defaulting to the square fit.
    """

    method: Method
    c_theta: int = 0
    window_size: float = 6.0
    fit_function: FitFunction = FitFunction.SQUARE

    def __post_init__(self):
        method = _member(Method, self.method, "method")
        object.__setattr__(self, "method", method)
        object.__setattr__(self, "fit_function", _member(FitFunction, self.fit_function,
                                                         "fit function"))
        finite = _finite((self.window_size,), "window_size")  # a number for every method
        if method is Method.CSL and not (finite and self.window_size > 0):  # only CSL reads it
            kind = "finite" if self.window_size > 0 else "positive"
            raise InvalidInputError(f"window_size must be {kind}, got {_shown(self.window_size)}")
        c_theta = _validate_c_theta(method, self.c_theta or DEFAULT_C_THETA[method], warn=True)
        object.__setattr__(self, "c_theta", c_theta)

    @property
    def has_classification(self) -> bool:
        return self.code_length > 0

    @property
    def has_regression(self) -> bool:
        return self.method in _REGRESSION_METHODS

    @cached_property
    def code_length(self) -> int:
        """Length of the class vector this codec emits."""
        return _code_length(self.method, self.c_theta)

    @cached_property
    def _labels(self) -> tuple[tuple[float, ...], ...]:
        # Each bin's class vector, built on first use; () for regression.
        c, method = self.c_theta, self.method
        if method is Method.MGAR:  # one-hot rows
            return tuple((0.0,) * k + (1.0,) + (0.0,) * (c - 1 - k) for k in range(c))
        if method is Method.CSL:
            # Circular Gaussian window, sigma = window/3, zero outside it, turned
            # by k places for bin k. The peak is 1.0 also for a window so small
            # that 2 sigma^2 underflows to 0.
            sigma, window = self.window_size / 3.0, self.window_size
            row = tuple(math.exp(-(d * d) / (2.0 * sigma * sigma)) if 0 < abs(d) <= window
                        else float(d == 0) for d in ((i + c // 2) % c - c // 2 for i in range(c)))
            return tuple(row[c - k:] + row[:c - k] for k in range(c))
        if method in _DCL_METHODS:  # code bits, MSB first
            n = self.code_length
            codes = (k ^ (k >> 1) if method is Method.DCL_GRAY else k for k in range(c))
            return tuple(tuple(float(code >> (n - 1 - i) & 1) for i in range(n)) for code in codes)
        return ((),)

    @cached_property
    def _kernel(self) -> tuple:
        # The codec kernel's constants, bound on first use: bin width, last bin
        # and the (forward, inverse) fit pair, None without a regression part.
        fits = _FITS[self.fit_function] if self.method in _REGRESSION_METHODS else None
        return ANGLE_RANGE / self.c_theta, self.c_theta - 1, fits

    @cached_property
    def _bin_of_code(self) -> dict:
        # DCL decoding: the inverse of the label table.
        return {label: k for k, label in enumerate(self._labels)}


@dataclass(frozen=True, eq=False)
class AngleTarget:
    """Encoded training target for one ground-truth angle."""

    class_index: int
    class_vector: tuple[float, ...]
    residual_target: float | None
    raw_angle: float


@dataclass(frozen=True, eq=False)
class AnglePrediction:
    """Raw network-style prediction: class logits plus fit-space residual."""

    class_logits: tuple[float, ...] = ()
    regression_output: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "class_logits",
                           _finite_floats(self.class_logits, "class logits"))
        out = self.regression_output
        if out is not None and not _finite((out,), "regression output"):
            raise InvalidInputError(f"non-finite regression output {_shown(out)}")


def omega(config: CodecConfig) -> float:
    """Discretization granularity in degrees (angle range over bin count)."""
    _check_box("config", config, kind=CodecConfig)
    return ANGLE_RANGE / config.c_theta


# The fits: a forward map from fit-space value v to degrees d in a bin of
# width w, and its inverse. Named functions, so a config whose kernel table
# holds them still pickles.

def _square(v: float, w: float) -> float:
    return v * v


def _square_inverse(d: float, w: float) -> float:
    return math.sqrt(d)


def _linear(v: float, w: float) -> float:  # its own inverse
    return v


def _exp(v: float, w: float) -> float:
    return max(math.exp(v) - 1.0, 0.0)


def _exp_inverse(d: float, w: float) -> float:
    return math.log1p(d)


def _sigmoid(v: float, w: float) -> float:
    return w / (1.0 + math.exp(-v))


def _sigmoid_inverse(degrees: float, width: float) -> float:
    # Sigmoid saturates at the range ends; the clamp keeps the target finite.
    ratio = min(max(degrees / width, 1e-12), 1.0 - 1e-12)
    return math.log(ratio / (1.0 - ratio))


_FITS = {
    FitFunction.SQUARE: (_square, _square_inverse),
    FitFunction.LINEAR: (_linear, _linear),
    FitFunction.EXP: (_exp, _exp_inverse),
    FitFunction.SIGMOID: (_sigmoid, _sigmoid_inverse),
}


# The codec kernel: three steps on Python scalars plus the config's label
# and kernel tables, shared by encode, decode, empirical_errors and
# multitask_loss.

def _target(theta: float, config: CodecConfig) -> tuple[int, float | None]:
    # floor(theta / omega): an angle on a bin boundary starts that bin. The
    # residual target is None for a codec without a regression part.
    width, last, fits = config._kernel
    k = int(theta // width)
    if k > last:
        k = last
    if fits is not None:
        return k, fits[1](max(theta - k * width, 0.0), width)
    return k, None


def _bin_from_scores(scores: Sequence[float], config: CodecConfig) -> int:
    # DCL: a bit is on when its sigmoid exceeds 0.5 (x <= 0 is off without
    # exp(-x), which could overflow), and the bits, MSB first, name the bin
    # whose label they are: each DCL c_theta is a power of two, and bools hash
    # and compare as 0.0/1.0. Otherwise the first argmax, or bin 0 for
    # regression's empty scores.
    if config.method in _DCL_METHODS:
        return config._bin_of_code[tuple(x > 0.0 and 1.0 / (1.0 + math.exp(-x)) > 0.5
                                         for x in scores)]
    return scores.index(max(scores)) if scores else 0


def _angle(k: int, regression_output: float | None, config: CodecConfig) -> float:
    # Bin start plus fitted residual, or the bin midpoint without a regression
    # part. Only the final angle wraps; residual overflow past one bin stays.
    # A tiny negative sum whose reduction rounds up to the period is 0.0.
    width, _, fits = config._kernel
    if fits is not None:
        if regression_output is None:
            raise InvalidInputError(f"{config.method.value} decode requires a regression output")
        try:
            residual = fits[0](regression_output, width)
        except OverflowError:
            residual = math.inf
        if not _finite((residual,), "residual"):  # an int output squares past float range
            raise InvalidInputError(f"regression output {regression_output} overflows "
                                    f"the {config.fit_function.value} fit")
    else:
        if regression_output is not None:
            raise InvalidInputError(
                f"{config.method.value} predictions carry no regression output")
        residual = 0.5 * width
    theta = (k * width + residual) % ANGLE_RANGE
    return theta if theta < ANGLE_RANGE else 0.0


def encode(theta_gt: float, config: CodecConfig) -> AngleTarget:
    """Encode a ground-truth angle in [0, 180) into the codec's target.

    The bin index is floor(theta / omega); an angle exactly on a bin
    boundary belongs to that bin with residual zero. MGAR and regression
    targets carry the fit-space residual; CSL and DCL targets carry only
    the class vector.
    """
    _check_box("config", config, kind=CodecConfig)
    if not (_finite((theta_gt,), "angle") and 0.0 <= theta_gt < ANGLE_RANGE):
        raise InvalidInputError(f"angle must lie in [0, {ANGLE_RANGE}), got {_shown(theta_gt)}")
    k, residual_target = _target(theta_gt, config)
    return AngleTarget(class_index=k, class_vector=config._labels[k],
                       residual_target=residual_target, raw_angle=theta_gt)


def decode(pred: AnglePrediction, config: CodecConfig) -> float:
    """Decode a raw prediction into an angle in [0, 180).

    The class bin comes from the argmax of the logits (MGAR, CSL), or from
    sigmoid-thresholded code bits (DCL). Pure-classification codecs report
    the bin midpoint; codecs with a regression part add the fitted residual
    to the bin start. Only the final angle is wrapped into range; residual
    overflow past one bin is preserved.
    """
    _check_box("pred", pred, kind=AnglePrediction)
    _check_box("config", config, kind=CodecConfig)
    logits = pred.class_logits
    expected = config.code_length
    if len(logits) != expected:
        raise InvalidInputError(
            f"{config.method.value} expects {expected} logits, got shape ({len(logits)},)")
    return _angle(_bin_from_scores(logits, config), pred.regression_output, config)


def ideal_prediction(target: AngleTarget, config: CodecConfig) -> AnglePrediction:
    """Loss-free prediction: logits equal the target vector, residual exact."""
    _check_box("target", target, kind=AngleTarget)
    _check_box("config", config, kind=CodecConfig)
    return AnglePrediction(target.class_vector, target.residual_target)


def analytic_errors(config: CodecConfig) -> tuple[float, float]:
    """Closed-form (max, mean) encoding error in degrees.

    Pure-classification codecs lose up to half a bin (mean: a quarter bin);
    codecs with a continuous residual encode exactly.
    """
    width = omega(config)
    if config.has_regression:
        return (0.0, 0.0)
    return (width / 2.0, width / 4.0)


def empirical_errors(config: CodecConfig, grid_step: float) -> tuple[float, float]:
    """Swept (max, mean) of |decode(encode(theta)) - theta| over [0, 180).

    Runs the codec kernel that encode and decode wrap on the loss-free
    prediction: its logits are the class vector (for DCL, the 0/1 code bits,
    which the sigmoid rule maps to themselves) and its regression output is
    the exact residual target. The kernel reads the bin width, last bin and
    fit pair that the config binds once, so a grid point runs only the bin
    rule, the fit and the wrap. The decoded class depends on the bin alone,
    so the class step runs once per bin, before the sweep; a codec without a
    regression part keeps each bin's decoded angle instead.
    """
    _check_box("config", config, kind=CodecConfig)
    finite = _finite((grid_step,), "grid_step")
    if not grid_step > 0:
        raise InvalidInputError(f"grid_step must be positive, got {_shown(grid_step)}")
    steps = ANGLE_RANGE / grid_step if finite else 0.0  # an infinite step sweeps nothing
    if not steps <= _MAX_SWEEP_POINTS:
        raise InvalidInputError(f"grid_step {grid_step} is too fine to sweep [0, {ANGLE_RANGE})")
    count = int(round(steps))
    if count < 1:
        raise InvalidInputError(
            f"grid_step {_shown(grid_step)} leaves no angle to sweep in [0, {ANGLE_RANGE})")
    regression = config.has_regression
    decoded_bins = [_bin_from_scores(label, config) for label in config._labels]
    if not regression:
        decoded_bins = [_angle(k, None, config) for k in decoded_bins]
    worst = total = 0.0
    for i in range(count):
        theta = i * grid_step  # (count - 1) * step <= 180 - step / 2 < 180
        k, residual_target = _target(theta, config)
        decoded = _angle(decoded_bins[k], residual_target, config) if regression else decoded_bins[k]
        err = abs(decoded - theta)
        if err > worst:
            worst = err
        total += err
    return (worst, total / count)


def head_thickness(method: Method | str, c_theta: int, anchors: int) -> int:
    """Channel count of the angle prediction layer for one anchor set."""
    method = _member(Method, method, "method")
    anchors = _integer(anchors, "anchor count")
    if anchors < 1:
        raise InvalidInputError(f"anchor count must be >= 1, got {_shown(anchors)}")
    c_theta = _validate_c_theta(method, c_theta)
    return anchors * (_code_length(method, c_theta) + (method in _REGRESSION_METHODS))
