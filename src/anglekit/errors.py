"""Exception types shared across the package."""


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
