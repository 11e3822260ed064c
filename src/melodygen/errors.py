"""Exception hierarchy shared by all melodygen modules."""


class MelodyGenError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(MelodyGenError):
    """Invalid argument or malformed input value."""


class ShapeError(ValidationError):
    """Array dimensions do not match what an operation requires."""


class ParseError(ValidationError):
    """Syntax error in a token string. Carries the byte offset of the failure."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class RangeError(ValidationError):
    """A parsed value lies outside its legal range. Carries the value."""

    def __init__(self, message: str, value):
        super().__init__(f"{message} (got {value})")
        self.value = value


class FormatError(MelodyGenError):
    """Malformed binary file (WAV, index, checkpoint). Carries the byte offset when known."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (at byte {offset})"
        super().__init__(message)
        self.offset = offset


class GradientError(MelodyGenError):
    """Non-finite gradient; names the offending parameter."""

    def __init__(self, message: str, parameter: str):
        super().__init__(f"{message}: parameter {parameter!r}")
        self.parameter = parameter


class SamplingError(MelodyGenError):
    """Sampler aborted (non-finite network output). Carries the step index."""

    def __init__(self, message: str, step: int):
        super().__init__(f"{message} (at step {step})")
        self.step = step


class MissingArtifactError(MelodyGenError):
    """A pipeline stage requires an artifact that has not been produced yet."""
