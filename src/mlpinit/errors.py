"""Exception hierarchy shared across the library.

The CLI maps these onto exit codes, so data-file problems, config problems
and training divergence stay distinguishable.
"""

from numbers import Integral


class MlpInitError(Exception):
    """Base class for every error raised by this library."""


class ValidationError(MlpInitError, ValueError):
    """An argument violates a documented precondition."""


class ShapeError(MlpInitError, ValueError):
    """Matrix or parameter shapes are incompatible."""


def _check_types(obj, fields) -> None:
    """Raise ValidationError for the first ``(name, kinds, what)`` of ``fields``
    whose attribute of ``obj`` is no instance of ``kinds``; a bool passes only
    where ``kinds`` names bool, although bool is an int."""
    for name, kinds, what in fields:
        value = getattr(obj, name)
        if not isinstance(value, kinds) or (isinstance(value, bool) and bool not in kinds):
            raise ValidationError(f"{name} must be {what}, got {value!r}")


def _check_int(name: str, value, minimum: int | None = None) -> int:
    """``value`` as an int; ValidationError unless it is an integer, not a
    bool, and at least ``minimum`` when one is given."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValidationError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


class DataError(MlpInitError):
    """Base class for dataset ingestion problems."""


class FormatError(DataError, ValueError):
    """A file does not match its documented layout."""


class ParseError(DataError, ValueError):
    """A single cell of an otherwise well-formed file cannot be parsed."""


class UnsupportedVersionError(FormatError):
    """A model file was written by a newer format version."""


class DivergedTrainingError(MlpInitError, RuntimeError):
    """Training produced a non-finite loss."""


class WorkerError(MlpInitError, RuntimeError):
    """A worker process died before returning its results."""
