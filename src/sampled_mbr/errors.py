"""Exception types shared across the package."""


class SampledMbrError(Exception):
    """Base class for all errors raised by this package."""

    category = "error"
    exit_code = 1


class UsageError(SampledMbrError):
    """Invalid command-line flag combination or value."""

    category = "usage"
    exit_code = 2


class FstParseError(SampledMbrError):
    """Malformed FST, logits, reference, or config input."""

    category = "parse"
    exit_code = 2

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class InvalidFstError(SampledMbrError):
    """Structural invariant of a transducer is violated."""

    category = "invalid-fst"
    exit_code = 2


class CyclicFstError(SampledMbrError):
    """Operation requires an acyclic transducer."""

    category = "cyclic"


class PathOverflowError(SampledMbrError):
    """Number of paths exceeds the configured enumeration bound."""

    category = "overflow"
    exit_code = 5


class DegenerateLatticeError(SampledMbrError):
    """Total path weight is zero; no distribution can be formed."""

    category = "degenerate"
    exit_code = 4


class UnsupportedCompositionError(SampledMbrError):
    """Epsilon configuration outside the supported composition cases."""

    category = "unsupported"


class UnsupportedTopologyError(SampledMbrError):
    """Transducer is not frame-synchronous where the operation requires it."""

    category = "unsupported"


class DimensionMismatchError(SampledMbrError):
    """Shapes or lengths of inputs do not agree."""

    category = "dimension"
    exit_code = 3


class NonFiniteGradientError(SampledMbrError):
    """Training produced non-finite scores or a non-finite gradient."""

    category = "non-finite"
