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


def check_number(name: str, x, kind, interval: str, none_ok=False):
    """x (an int if `kind` is int) if it is None and `none_ok`, or a `kind`
    (int: `integer`; float: a real number, not a bool) in `interval`, else
    ParamError naming `name`: the one range check of a caller's number."""
    if x is None and none_ok:
        return x
    value = integer(x) if kind is int else x
    if value is None or isinstance(x, bool) or not isinstance(x, Real):
        raise ParamError("%s must be of type %s%s, got %r" % (
            name, kind.__name__, " | None" * none_ok, x))
    if not in_interval(value, interval):
        raise ParamError("%s must be finite and lie in %s, got %r"
                         % (name, interval, x))
    return value


def check_settings(record, kind, name: str, prefix=""):
    """Raise ParamError unless `record` is a `kind` dataclass (else naming
    it `name`) whose `setting`s pass `check_number`, named after `prefix`; a
    field with a "record" class and "prefix" in its metadata is checked too."""
    if not isinstance(record, kind):
        raise ParamError("%s must be of type %s, got %r"
                         % (name, kind.__name__, record))
    for f in fields(record):
        x, meta = getattr(record, f.name), f.metadata
        if "record" in meta:
            check_settings(x, meta["record"], prefix + f.name, meta["prefix"])
        elif "range" in meta:
            cast, none_ok = field_type(f)
            check_number(prefix + f.name, x, cast, meta["range"], none_ok)
