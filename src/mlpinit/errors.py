"""Exception hierarchy shared across the library.

The CLI maps these onto exit codes, so data-file problems, config problems
and training divergence stay distinguishable.
"""


class MlpInitError(Exception):
    """Base class for every error raised by this library."""


class ValidationError(MlpInitError, ValueError):
    """An argument violates a documented precondition."""


class ShapeError(MlpInitError, ValueError):
    """Matrix or parameter shapes are incompatible."""


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
    """A worker process died before returning its training results."""
