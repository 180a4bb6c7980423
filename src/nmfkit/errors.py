"""Exception hierarchy shared by all nmfkit modules, and the input rules.

Every error carries a stable ``kind`` label so callers (and the CLI exit
logic) can dispatch without parsing messages.
"""

import operator
from contextlib import contextmanager
from dataclasses import MISSING, field, fields
from numbers import Real


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
    """Re-raise a MemoryError, or numpy's ValueError for an array above its
    maximum size, as OutOfMemoryError("out of memory <doing>")."""
    try:
        yield
    except (MemoryError, ValueError) as exc:
        if isinstance(exc, ValueError) and "array is too big" not in str(exc):
            raise
        raise OutOfMemoryError("out of memory " + doing) from exc


def integer(x):
    """`x` as an int if it is an integer other than a bool (a numpy integer
    too), else None: the one test of every size, count, rank and seed."""
    try:
        return None if isinstance(x, bool) else operator.index(x)
    except TypeError:
        return None


def setting(interval: str, default=MISSING):
    """A dataclass field that `check_settings` keeps in `interval`."""
    return field(default=default, metadata={"range": interval})


def in_interval(x, interval: str) -> bool:
    """Whether the number x lies in `interval` ("[0, 1]", "(0, inf)"...)."""
    low, high = (float(b) for b in interval[1:-1].split(", "))
    return ((low < x if interval[0] == "(" else low <= x)
            and (x < high if interval[-1] == ")" else x <= high))


def field_type(f):
    """(int or float, takes None) of a numeric field; "int | None" is int."""
    kind = f.type
    return (int if kind.startswith("int") else float), kind.endswith("| None")


def check_settings(record, prefix=""):
    """Raise ParamError, naming the field after `prefix`, for a `setting` of
    the dataclass `record` of the wrong type (`field_type`), not finite or
    outside its interval.  A field with a "prefix" in its metadata holds an
    instance of its default factory, checked in turn under that prefix."""
    for f in fields(record):
        x, interval = getattr(record, f.name), f.metadata.get("range")
        if "prefix" in f.metadata:
            if not isinstance(x, f.default_factory):
                raise ParamError("%s%s must be of type %s, got %r" % (
                    prefix, f.name, f.default_factory.__name__, x))
            check_settings(x, f.metadata["prefix"])
        cast, none_ok = field_type(f)
        if interval is None or (x is None and none_ok):
            continue
        if not (integer(x) is not None if cast is int
                else isinstance(x, Real) and not isinstance(x, bool)):
            raise ParamError("%s%s must be of type %s%s, got %r" % (
                prefix, f.name, cast.__name__, " | None" * none_ok, x))
        if not in_interval(x, interval):
            raise ParamError("%s%s must be finite and lie in %s, got %r"
                             % (prefix, f.name, interval, x))
