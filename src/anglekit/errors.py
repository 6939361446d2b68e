"""Exception types shared across the package, and its one number rule: a
number is a value float arithmetic takes (value + 0.0 is a float), so a str,
bytes, None, sequence, array, complex or Decimal is not one, whole or as an
element. An int past float range is a number that is not finite.
"""

import math


class AngleKitError(Exception):
    """Base class for all anglekit errors."""


class InvalidInputError(AngleKitError, ValueError):
    """An argument violates a documented precondition."""


class DegenerateQuadError(InvalidInputError):
    """Four points do not describe a usable quadrilateral."""


class ParseError(AngleKitError):
    """A file could not be parsed; carries the location of the offense."""

    def __init__(self, path, line_no, message):
        self.path = str(path)
        self.line_no = line_no
        super().__init__(f"{self.path}:{line_no}: {message}")


def _shown(value, convert=str) -> str:
    # A caller's value as a message prints it; an int whose str raises
    # ValueError (past sys.get_int_max_str_digits()) gets a stand-in.
    try:
        return convert(value)
    except ValueError:
        return f"<{type(value).__name__} too long to print>"


def _finite(values: tuple, name: str) -> bool:
    """Whether every value of a tuple of scalars is a finite number; an int past
    float range is not. A caller passes the scalars it checks as one tuple."""
    try:
        for value in values:
            if not math.isfinite(value + 0.0):
                return False
    except OverflowError:
        return False
    except (TypeError, ValueError):
        raise InvalidInputError(f"{name} must be a number, got {_shown(value, repr)}") from None
    return True


def _sequence(values, name: str, length=None, of="numbers") -> tuple:
    # A flat sequence (a 1-D array included) read once, of the given length if
    # one is given; text is not one.
    if not isinstance(values, (str, bytes)):
        try:
            read = tuple(values)
        except TypeError:
            pass
        else:
            if length is None or len(read) == length:
                return read
    size = "" if length is None else f" of length {length}"
    raise InvalidInputError(
        f"{name} must be a flat sequence of {of}{size}, got {_shown(values, repr)}")


def _check_box(name: str, *values, kind: type) -> tuple:
    # The values, each of the built type whose checks the caller trusts (for
    # an OrientedBox, the box rule), or an error naming the argument.
    for item in values:
        if not isinstance(item, kind):
            a = "an" if kind.__name__[0] in "AEIOU" else "a"
            raise InvalidInputError(f"{name} must be {a} {kind.__name__}, got {_shown(item, repr)}")
    return values


def _finite_floats(values, name: str) -> tuple[float, ...]:
    """A flat sequence of finite numbers as a tuple of floats."""
    values = _sequence(values, name)
    if not _finite(values, name):
        raise InvalidInputError(f"non-finite {name}")
    return tuple(map(float, values))


def _integer(value, name: str) -> int:
    """An integral number, of any size, as an int."""
    if not (isinstance(value, int) or _finite((value,), name) and value % 1 == 0):
        raise InvalidInputError(f"{name} must be an integer, got {_shown(value, repr)}")
    return int(value)
