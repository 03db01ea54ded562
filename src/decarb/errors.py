"""Exception types shared across the solver, verification and simulation layers,
and the field checks every input boundary uses: :func:`integer`, :func:`real`,
:func:`reals` and :func:`flag` return a count, finite number, list of numbers or
flag as a plain Python value, or raise :class:`OutOfRange` naming the field.  A
bool is never a number.  The config types and ``validate_params`` check their
fields with them at construction.  :func:`holding` names the field whose size
an allocation cannot meet.
"""

import contextlib
import math
import numbers


class DecarbError(Exception):
    """Base class for all library errors."""


class ValidationError(DecarbError):
    """Base class for parameter/configuration rejection (CLI exit code 1)."""


class MissingField(ValidationError):
    def __init__(self, field: str, message: str | None = None):
        self.field = field
        super().__init__(message or f"missing required field '{field}'")


class UnexpectedField(ValidationError):
    def __init__(self, field: str, message: str | None = None):
        self.field = field
        super().__init__(message or f"field '{field}' is not allowed for this model kind")


class OutOfRange(ValidationError):
    def __init__(self, field: str, message: str | None = None):
        self.field = field
        super().__init__(message or f"field '{field}' is out of range")


class WrongKind(ValidationError):
    """Operation applied to a model kind that does not support it."""


class ConfigMismatch(ValidationError):
    """Simulation configuration inconsistent with the model or solved inputs."""

    def __init__(self, message: str, field: str | None = None):
        self.field = field
        super().__init__(message)


class NumericalError(DecarbError):
    """Base class for runtime numerical failures (CLI exit code 2)."""


class BlowUp(NumericalError):
    """Backward integration escaped to infinity before reaching t = 0."""

    def __init__(self, t_escape: float, message: str | None = None):
        self.t_escape = t_escape
        super().__init__(message or f"coefficient blow-up detected at t = {t_escape:.6g}")


class NonFinitePath(NumericalError):
    """A simulated path produced a non-finite state or payment."""

    def __init__(self, path_index: int, t: float):
        self.path_index = path_index
        self.t = t
        super().__init__(f"non-finite value on path {path_index} at t = {t:.6g}")


class MaximizerOnBoundary(NumericalError):
    """Grid search hit the search box boundary; the box was too small."""


class OracleNotConverged(NumericalError):
    """The brute-force maximizer reached its cycle cap still gaining."""

    def __init__(self, cycles: int, moved: float, gain: float):
        self.cycles = cycles
        self.moved = moved
        self.gain = gain
        super().__init__(f"maximizer not converged after {cycles} cycles: the last cycle "
                         f"moved {moved:.3g} and gained {gain:.3g}")


class OutOfHorizon(DecarbError):
    """Time argument outside the solved interval [0, T]."""


def integer(field: str, value, minimum: int | None = None, maximum: int | None = None) -> int:
    """``value`` as an int: an integer, not a bool, within [minimum, maximum]."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or (
            minimum is not None and value < minimum) or (maximum is not None and value > maximum):
        bound = " and".join(f" {op} {b}" for op, b in ((">=", minimum), ("<=", maximum))
                            if b is not None)
        raise OutOfRange(field, f"{field} must be an integer{bound}, got {value!r}")
    return int(value)


def real(field: str, value, positive: bool = False, non_negative: bool = False) -> float:
    """``value`` as a float: a finite real number, not a bool, and > 0 when
    ``positive`` or >= 0 when ``non_negative``."""
    try:
        finite = not isinstance(value, bool) and isinstance(value, numbers.Real) and math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        finite = False
    if not finite:
        raise OutOfRange(field, f"{field} must be a finite number, got {value!r}")
    value = float(value)
    if (positive and value <= 0.0) or (non_negative and value < 0.0):
        raise OutOfRange(field, f"{field} must be {'>' if positive else '>='} 0, got {value!r}")
    return value


def reals(field: str, values, length: int | None = None) -> tuple[float, ...]:
    """``values``, a list, tuple or 1-d numpy array of finite real numbers (of
    ``length`` of them, when given), as a tuple of floats."""
    if hasattr(values, "tolist"):  # a numpy array
        values = values.tolist()
    if not isinstance(values, (list, tuple)) or (length is not None and len(values) != length):
        size = "a list" if length is None else f"a list of {length}"
        raise OutOfRange(field, f"{field} must be {size} finite numbers, got {values!r}")
    return tuple(real(field, v) for v in values)


def flag(field: str, value) -> bool:
    """``value``, which must be True or False."""
    if not isinstance(value, bool):
        raise OutOfRange(field, f"{field} must be true or false, got {value!r}")
    return value


@contextlib.contextmanager
def holding(field: str, size):
    """Run the allocations whose size ``field`` sets: one that numpy refuses
    (ValueError) or the machine cannot meet (MemoryError) raises
    :class:`OutOfRange` naming ``field``.  Wrap only allocations, so that no
    other ValueError is reported as a bad field."""
    try:
        yield
    except (ValueError, MemoryError) as exc:
        raise OutOfRange(field, f"{field} = {size!r} makes arrays too large to hold: {exc}") from exc
