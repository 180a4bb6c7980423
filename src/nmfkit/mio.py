"""File I/O and data generation.

MatrixMarket (`coordinate` and `array`, field `real general`) and bare
numeric CSV readers/writers, JSON fit summaries, and a seeded synthetic
block-structured dataset generator.  Values are printed with 17 significant
digits so write/read roundtrips reproduce float64 matrices exactly.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .errors import (IoError, ParamError, ParseError, ShapeError,
                     out_of_memory)
from .matcore import DataMatrix, RngStream, as_matrix

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
    k = np.append(~np.isfinite(values), True).argmax()  # first, else len
    if k == len(tokens):
        return values, k, None
    return values, k, ("non-finite value %r" if k < len(values)
                       else "%r is not a number") % (tokens[k],)


def _read_mtx(lines):
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

    # numbers of the lines that are neither blank nor `%` comments
    nos = [no for no, ln in enumerate(lines, 1) if ln and ln[0] != "%"]
    if not nos:
        raise ParseError("missing size line")
    size_no, nos = nos[0], nos[1:]
    entries = [lines[no - 1] for no in nos]
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
    # checked after the body's faults, which name the entry that is wrong
    bad_size = None if 0 < m < 2**63 and 0 < n and sizes[-1] >= 0 else \
        ShapeError("line %d: the size line needs at least one row and column,"
                   " fewer than 2**63 rows and nnz >= 0" % size_no)

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
        c = np.append([len(ln.split()) != 3 for ln in entries], True).argmax()
        flat = " ; ".join(entries[:c]).split()
    fault = "expected 'i j value'" if c < len(entries) else None
    i, j = _numbers(flat[0::4], np.int64)[0], _numbers(flat[1::4], np.int64)[0]
    i, j = i[:len(j)], j[:len(i)]
    b = np.append((i < 1) | (i > m) | (j < 1) | (j > n), True).argmax()
    if b < c:  # int() takes what overflows int64
        try:
            fault = "index (%d, %d) out of bounds" % tuple(
                map(int, flat[4 * b:4 * b + 2]))
        except ValueError:
            fault = "bad coordinate indices"
    i, j = i[:b], j[:b]
    order = np.lexsort((j, i))  # stable: of equal (i, j), file order
    same = (np.diff(i[order]) == 0) & (np.diff(j[order]) == 0)
    d = int(order[1:][same].min()) if same.any() else b
    fault = "duplicate entry (%d, %d)" % (i[d], j[d]) if d < b else fault
    values, v, bad_value = _numbers(flat[2::4])
    fault = bad_value if v < d else fault
    if fault:
        raise ParseError("line %d: %s" % (nos[min(v, d)], fault))
    if bad_size:
        raise bad_size
    indptr = np.searchsorted(i[order], np.arange(m + 1), side="right")
    return DataMatrix.csr(indptr, j[order] - 1, values[order], (m, n))


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
    r = np.append(widths != widths[0], True).argmax()
    values, k, fault = _numbers(",".join(rows[:r]).split(","))
    if fault:
        raise ParseError("line %d: %s" % (nos[k // widths[0]], fault))
    if r < len(rows):
        raise ParseError("line %d: expected %d fields, found %d"
                         % (nos[r], widths[0], widths[r]))
    return DataMatrix.dense(values.reshape((r, -1)))


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
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise IoError("cannot read %s: %s" % (path, exc)) from exc
        lines = [ln.strip() for ln in text.split("\n")] if text else []
        return (_read_mtx if fmt == "mtx" else _read_csv)(lines)


def write_matrix(matrix, path, fmt: str | None = None) -> None:
    """Write a matrix; dense goes to `array`/CSV, CSR to `coordinate`."""
    matrix = as_matrix(matrix)
    fmt = _infer_format(path, fmt)
    if fmt == "mtx" and matrix.is_sparse:
        rows = np.repeat(np.arange(1, matrix.rows + 1), np.diff(matrix.indptr))
        out = ["%%MatrixMarket matrix coordinate real general",
               "%d %d %d" % (matrix.rows, matrix.cols, matrix.nnz)]
        out += ["%d %d %.17g" % entry for entry in
                zip(rows.tolist(), (matrix.indices + 1).tolist(),
                    matrix.data.tolist())]
    elif fmt == "mtx":  # column-major per the format
        out = ["%%MatrixMarket matrix array real general",
               "%d %d" % matrix.shape]
        out += ["%.17g" % x for x in matrix.dense_view().T.ravel().tolist()]
    else:
        out = [",".join("%.17g" % x for x in row)
               for row in matrix.dense_view().tolist()]
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(out) + "\n")
    except OSError as exc:
        raise IoError("cannot write %s: %s" % (path, exc)) from exc


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
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise IoError("cannot write %s: %s" % (path, exc)) from exc


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
    if not 1 <= k_true <= min(m, n):
        raise ParamError("k_true %d out of range [1, %d]" % (k_true, min(m, n)))
    if not 0 < density <= 1:
        raise ParamError("density must lie in (0, 1]")
    if not 0 <= noise_sigma < math.inf:
        raise ParamError("noise_sigma must be finite and nonnegative")
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
