"""File I/O and data generation.

MatrixMarket (`coordinate` and `array`, field `real general`) and bare
numeric CSV readers/writers, JSON fit summaries, and a seeded synthetic
block-structured dataset generator.  Values are printed with 17 significant
digits so write/read roundtrips reproduce float64 matrices exactly.

A reader decodes the whole text.  A MatrixMarket `coordinate` body is
then parsed by `np.loadtxt` on the open file (`_load_coordinates`), whose
syntax is a strict subset of int()'s and float()'s; a body that it
refuses or warns on, or whose checks find a fault, goes to the token path
(`_read_mtx`), which alone words errors.  `array` and CSV bodies take the
token path (`_read_mtx`, `_read_csv`).  Both paths run the same checks
(`_mtx_head`, every value finite, `DataMatrix.from_coo`).  `write_matrix`
formats a bounded chunk of lines at a time.  Every file goes through one
writer (`write_text`), which removes its file if a write fails.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import stat
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (IoError, ParamError, ParseError, ShapeError,
                     check_number, check_settings, out_of_memory, setting)
from .matcore import (DataMatrix, RngStream, as_matrix, coo_order,
                      first_true)

FORMATS = ("mtx", "csv")


def _infer_format(path, fmt):
    if fmt is not None:
        if fmt not in FORMATS:
            raise ParamError("unknown matrix format %r" % (fmt,))
        return fmt
    suffix = Path(path).suffix.lower().lstrip(".")
    if suffix in FORMATS:
        return suffix
    raise ParamError("cannot infer matrix format from %r; pass mtx or csv"
                     % str(path))


def _numbers(tokens, dtype=np.float64):
    """(values, k, fault): `tokens` as `dtype` up to the first that is no
    int()/float() number in range; k, fault: first non-finite, else len."""
    try:
        values = np.array(tokens, dtype=dtype)
    except (ValueError, OverflowError):  # error path: bisect for that token
        half = len(tokens) // 2
        values = _numbers(tokens[:half], dtype)[0]
        if len(values) == half > 0:  # not in the first half
            values = np.append(values, _numbers(tokens[half:], dtype)[0])
    k = first_true(~np.isfinite(values))
    if k == len(tokens):
        return values, k, None
    return values, k, ("non-finite value %r" if k < len(values)
                       else "%r is not a number") % (tokens[k],)


def _zero_based(index):
    """1-based int64 indices made 0-based in place; -2**63 stays negative."""
    np.maximum(index, 1 - 2**63, out=index)
    return np.subtract(index, 1, out=index)


def _mtx_head(lines):
    """(layout, sizes, size_no, bad_size) of the header (line 1) and the
    size line, the next line that is neither blank nor a `%` comment.
    bad_size is the ShapeError of sizes out of range, to raise after the
    body's faults, which name the entry that is wrong."""
    if not lines:
        raise ParseError("line 1: empty MatrixMarket file")
    header = lines[0].split()
    if (len(header) != 5 or header[0] != "%%MatrixMarket"
            or header[1].lower() != "matrix"):
        raise ParseError("line 1: malformed MatrixMarket header")
    layout = header[2].lower()
    if layout not in ("coordinate", "array"):
        raise ParseError("line 1: unsupported layout %r" % (header[2],))
    if header[3].lower() != "real" or header[4].lower() != "general":
        raise ParseError("line 1: only 'real general' matrices are supported")
    size_no = next((no for no, ln in enumerate(lines[1:], 2)
                    if ln and ln[0] != "%"), None)
    if size_no is None:
        raise ParseError("missing size line")
    size_line = lines[size_no - 1].split()
    need = "rows cols nnz" if layout == "coordinate" else "rows cols"
    if len(size_line) != len(need.split()):
        raise ParseError("line %d: %s size line needs '%s'"
                         % (size_no, layout, need))
    try:
        sizes = [int(t) for t in size_line]
    except ValueError:
        raise ParseError("line %d: bad size line" % size_no) from None
    m, n = sizes[:2]
    bad_size = None if 0 < m < 2**63 and 0 < n and sizes[-1] >= 0 else \
        ShapeError("line %d: the size line needs at least one row and column,"
                   " fewer than 2**63 rows and nnz >= 0" % size_no)
    return layout, sizes, size_no, bad_size


def _read_mtx(lines):
    layout, sizes, size_no, bad_size = _mtx_head(lines)
    # numbers of the body lines that are neither blank nor `%` comments
    nos = [no for no, ln in enumerate(lines[size_no:], size_no + 1)
           if ln and ln[0] != "%"]
    entries = [lines[no - 1] for no in nos]
    m, n = sizes[:2]

    if layout == "array":
        values, k, fault = _numbers(" ".join(entries).split())
        if fault:
            ends = np.cumsum([len(ln.split()) for ln in entries])
            raise ParseError("line %d: %s" % (nos[np.sum(ends <= k)], fault))
        if bad_size:
            raise bad_size
        if len(values) != m * n:
            raise ParseError("entry count %d does not match %d x %d"
                             % (len(values), m, n))
        return DataMatrix.dense(values.reshape((n, m)).T)  # column-major

    if sizes[2] >= 0 and len(entries) != sizes[2]:
        raise ParseError("entry count %d does not match declared nnz %d"
                         % (len(entries), sizes[2]))
    # each check tests the lines before the first fault found so far;
    # every line has three tokens iff each ";" sits at a fourth place
    flat, c = " ; ".join(entries).split(), len(entries)
    if not (len(flat) == 4 * c - 1
            and flat.count(";") == flat[3::4].count(";") == c - 1):
        c = first_true([len(ln.split()) != 3 for ln in entries])
        flat = " ; ".join(entries[:c]).split()
    fault = "expected 'i j value'" if c < len(entries) else None
    i, j = _numbers(flat[0::4], np.int64)[0], _numbers(flat[1::4], np.int64)[0]
    i, j = _zero_based(i[:len(j)]), _zero_based(j[:len(i)])
    b, d, _ = coo_order(i, j, m, n)
    if d < c:  # int() takes what overflows int64
        try:
            fault = ("duplicate entry (%d, %d)" if d < b else
                     "index (%d, %d) out of bounds") % tuple(
                         map(int, flat[4 * d:4 * d + 2]))
        except ValueError:
            fault = "bad coordinate indices"
    values, v, bad_value = _numbers(flat[2::4])
    fault = bad_value if v < d else fault
    if fault:
        raise ParseError("line %d: %s" % (nos[min(v, d)], fault))
    if bad_size:
        raise bad_size
    return DataMatrix.from_coo(i, j, values, (m, n))


def _read_csv(lines):
    nos = [no for no, ln in enumerate(lines, 1) if ln]
    if not nos:
        raise ParseError("line 1: empty CSV file")
    first = lines[nos[0] - 1].split(",")  # if not numeric, an optional header
    nos = nos[1:] if len(_numbers(first)[0]) < len(first) else nos
    if not nos:
        raise ParseError("CSV contains a header but no data rows")
    rows = [lines[no - 1] for no in nos]
    widths = np.array([ln.count(",") for ln in rows]) + 1
    r = first_true(widths != widths[0])
    values, k, fault = _numbers(",".join(rows[:r]).split(","))
    if fault:
        raise ParseError("line %d: %s" % (nos[k // widths[0]], fault))
    if r < len(rows):
        raise ParseError("line %d: expected %d fields, found %d"
                         % (nos[r], widths[0], widths[r]))
    return DataMatrix.dense(values.reshape((r, -1)))


_ENTRY = np.dtype([("i", np.int64), ("j", np.int64), ("x", np.float64)])


def _load_coordinates(fh):
    """The coordinate MatrixMarket file `fh` read through numpy's C reader;
    None where the token path `_read_mtx` must parse it: another layout, a
    body that loadtxt refuses or warns on, or a check that finds a fault."""
    head = []
    for line in iter(fh.readline, ""):  # up to the size line
        head.append(line.strip())
        if len(head) > 1 and head[-1][:1] not in ("", "%"):
            break
    try:
        layout, sizes, _, bad_size = _mtx_head(head)
    except ParseError:
        return None
    if layout != "coordinate" or bad_size:
        return None
    try:
        # no comments or quotes, so a `%` line is refused; a warning (an
        # empty body, a numpy that parses an index through float) refuses
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            body = np.loadtxt(fh, dtype=_ENTRY, comments=None,
                              quotechar=None, ndmin=1)
    except (ValueError, Warning):
        return None
    if len(body) != sizes[2] or not np.isfinite(body["x"]).all():
        return None
    i, j = _zero_based(body["i"]), _zero_based(body["j"])
    with contextlib.suppress(ParamError):  # a bad entry: the token path
        return DataMatrix.from_coo(i, j, body["x"], sizes[:2])
    return None


def read_matrix(path, fmt: str | None = None) -> DataMatrix:
    """Read a matrix file; format inferred from the extension if not given.

    MatrixMarket `coordinate` becomes CSR, `array` and CSV become dense.
    Negative entries are kept (`factorize` refuses them); NaN/Inf tokens
    fail the parse.  Running out of memory raises OutOfMemoryError.
    """
    fmt = _infer_format(path, fmt)
    with out_of_memory("reading %s" % (path,)):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                # the token path's text, decoded whole: a byte that is not
                # UTF-8 fails before any parse, and a fallback reads nothing
                # again.  Freeing a block the size of the file also raises
                # glibc's dynamic mmap/trim thresholds; without that, the
                # m x n temporaries of a later dense nmf-kl run are trimmed
                # and faulted back in (ROADMAP, known defects).
                text = fh.read()
                fh.seek(0)
                matrix = _load_coordinates(fh) if fmt == "mtx" else None
        except (OSError, UnicodeDecodeError) as exc:
            raise IoError("cannot read %s: %s" % (path, exc)) from exc
        if matrix is not None:
            return matrix
        lines = [ln.strip() for ln in text.split("\n")] if text else []
        return (_read_mtx if fmt == "mtx" else _read_csv)(lines)


_CHUNK = 8192  # values formatted per write


def _chunks(n, step=_CHUNK):
    """Slices that cover range(n), `step` at a time."""
    return (slice(s, s + step) for s in range(0, n, step))


def write_matrix(matrix, path, fmt: str | None = None) -> None:
    """Write a matrix; dense goes to `array`/CSV, CSR to `coordinate`.
    Lines are formatted and written a bounded chunk at a time, each chunk
    by one `%` operation on the repeated line format."""
    matrix = as_matrix(matrix)
    fmt = _infer_format(path, fmt)
    if fmt == "mtx" and matrix.is_sparse:
        head = ("%%%%MatrixMarket matrix coordinate real general\n"
                "%d %d %d\n" % (*matrix.shape, matrix.nnz))
        line = "%d %d %.17g\n"
        rows = np.repeat(np.arange(1, matrix.rows + 1), np.diff(matrix.indptr))
        cols = matrix.indices + 1
        chunks = (tuple(itertools.chain.from_iterable(zip(
            rows[c].tolist(), cols[c].tolist(), matrix.data[c].tolist())))
            for c in _chunks(matrix.nnz))
    elif fmt == "mtx":  # column-major per the format
        head = "%%%%MatrixMarket matrix array real general\n%d %d\n" % (
            matrix.shape)
        line = "%.17g\n"
        values = matrix.dense_view().T.ravel()
        chunks = (tuple(values[c].tolist()) for c in _chunks(values.size))
    else:
        head, line = "", ",".join(["%.17g"] * matrix.cols) + "\n"
        dense = matrix.dense_view()
        chunks = (tuple(dense[c].ravel().tolist()) for c in
                  _chunks(matrix.rows, max(1, _CHUNK // matrix.cols)))
    per_line = line.count("%")
    write_text(path, itertools.chain([head], (
        (line * (len(flat) // per_line)) % flat for flat in chunks)))


def write_summary(payload: dict, path) -> None:
    """Write a report as one deterministic JSON object: sorted keys, two
    spaces of indent, a trailing newline.  A non-finite float anywhere in
    a field raises ParamError, since JSON has no spelling for it."""
    for key in sorted(payload):
        try:
            json.dumps(payload[key], allow_nan=False)
        except ValueError:
            raise ParamError("summary field %r is not finite"
                             % (key,)) from None
    text = json.JSONEncoder(indent=2, sort_keys=True).iterencode(payload)
    write_text(path, itertools.chain(text, ["\n"]))


def write_text(path, parts) -> None:
    """Write the strings of `parts` to a new file at `path`, the writer of
    every output file: a failed or interrupted write, while a part is formed
    or written, leaves no partial file, and an OSError raises IoError."""
    try:
        fh = open(path, "w", encoding="utf-8")
        try:
            with fh:
                for text in parts:
                    fh.write(text)
        except BaseException:
            # only a file this call opened; a device or a link is left alone
            with contextlib.suppress(OSError):
                if stat.S_ISREG(os.lstat(path).st_mode):
                    os.unlink(path)
            raise
    except OSError as exc:
        raise IoError("cannot write %s: %s" % (path, exc)) from exc


@dataclass
class SynthArgs:
    """`synth`'s arguments with their ranges, read by `nmfkit synth` too."""
    m: int = setting("[1, inf)")
    n: int = setting("[1, inf)")
    k_true: int = setting("[1, inf)")
    noise_sigma: float = setting("[0, inf)")
    density: float = setting("(0, 1]")
    seed: int = setting("[0, inf)")


def synth(m: int, n: int, k_true: int, noise_sigma: float = 0.0,
          density: float = 1.0, seed: int = 0):
    """Seeded block-structured nonnegative test data.

    Rows and columns are partitioned into k_true contiguous blocks.  Every
    column of H (and row of W) is dominated by its own block, drawn
    uniformly on [0.3, 1.7), with small uniform spill elsewhere (below 0.3
    for H, 0.15 for W) so that wrong-rank fits stay ambiguous.  Gaussian
    noise is added before clipping at zero, then entries below the
    (1 - density) quantile are zeroed.  Returns (V, W_true, H_true).
    """
    check_settings(SynthArgs(m, n, k_true, noise_sigma, density, seed),
                   SynthArgs, "synth")
    check_number("k_true", k_true, int, "[1, %d]" % min(m, n))
    rng = RngStream(seed)
    row_block = (np.arange(m) * k_true) // m
    col_block = (np.arange(n) * k_true) // n
    w = rng.uniform(size=(m, k_true), low=0.0, high=0.15)
    w[np.arange(m), row_block] = rng.uniform(size=m, low=0.3, high=1.7)
    h = rng.uniform(size=(k_true, n), low=0.0, high=0.3)
    h[col_block, np.arange(n)] = rng.uniform(size=n, low=0.3, high=1.7)
    v = w @ h
    if noise_sigma > 0:
        v = v + rng.normal(size=(m, n), scale=noise_sigma)
    v = np.maximum(v, 0.0)
    if density < 1.0:
        threshold = float(np.quantile(v, 1.0 - density))
        v = np.where(v < threshold, 0.0, v)
    return DataMatrix.dense(v), w, h
