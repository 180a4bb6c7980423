"""Exception hierarchy shared by all nmfkit modules.

Every error carries a stable ``kind`` label so callers (and the CLI exit
logic) can dispatch without parsing messages.
"""

from contextlib import contextmanager


class NmfkitError(Exception):
    """Base class for all nmfkit errors."""

    kind = "error"


class ShapeError(NmfkitError):
    kind = "shape"


class DomainError(NmfkitError):
    kind = "domain"


class RankError(NmfkitError):
    kind = "rank"


class ParamError(NmfkitError):
    kind = "param"


class SeedError(NmfkitError):
    kind = "seed"


class MethodError(NmfkitError):
    kind = "method"


class NumericError(NmfkitError):
    kind = "numeric"


class ParseError(NmfkitError):
    kind = "parse"


class IoError(NmfkitError):
    kind = "io"


class MetricError(NmfkitError):
    kind = "metric"


class DegenerateError(NmfkitError):
    kind = "degenerate"


class OutOfMemoryError(NmfkitError):
    kind = "memory"


@contextmanager
def out_of_memory(doing: str):
    """Re-raise a MemoryError as OutOfMemoryError("out of memory <doing>")."""
    try:
        yield
    except MemoryError as exc:
        raise OutOfMemoryError("out of memory " + doing) from exc
