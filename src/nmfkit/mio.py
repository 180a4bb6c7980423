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

from .errors import IoError, ParamError, ParseError, out_of_memory
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


def _parse_float(token, lineno):
    try:
        value = float(token)
    except ValueError:
        raise ParseError("line %d: %r is not a number" % (lineno, token)) from None
    if not math.isfinite(value):
        raise ParseError("line %d: non-finite value %r" % (lineno, token))
    return value


def _read_mtx(lines):
    if not lines:
        raise ParseError("line 1: empty MatrixMarket file")
    header = lines[0].strip().split()
    if (len(header) != 5 or header[0] != "%%MatrixMarket"
            or header[1].lower() != "matrix"):
        raise ParseError("line 1: malformed MatrixMarket header")
    layout = header[2].lower()
    if layout not in ("coordinate", "array"):
        raise ParseError("line 1: unsupported layout %r" % (header[2],))
    if header[3].lower() != "real" or header[4].lower() != "general":
        raise ParseError("line 1: only 'real general' matrices are supported")

    body = [(i + 1, ln.strip()) for i, ln in enumerate(lines)]
    body = [(no, ln) for no, ln in body[1:]
            if ln and not ln.startswith("%")]
    if not body:
        raise ParseError("missing size line")
    size_no, size_line = body[0]
    entries = body[1:]
    need = "rows cols nnz" if layout == "coordinate" else "rows cols"
    if len(size_line.split()) != len(need.split()):
        raise ParseError("line %d: %s size line needs '%s'"
                         % (size_no, layout, need))
    try:
        sizes = [int(t) for t in size_line.split()]
    except ValueError:
        raise ParseError("line %d: bad size line" % size_no) from None
    m, n = sizes[:2]

    if layout == "coordinate":
        nnz = sizes[2]
        if len(entries) != nnz:
            raise ParseError("entry count %d does not match declared nnz %d"
                             % (len(entries), nnz))
        rows, cols, vals = [], [], []
        seen = set()
        for no, ln in entries:
            parts = ln.split()
            if len(parts) != 3:
                raise ParseError("line %d: expected 'i j value'" % no)
            try:
                i, j = int(parts[0]), int(parts[1])
            except ValueError:
                raise ParseError("line %d: bad coordinate indices" % no) from None
            if not (1 <= i <= m and 1 <= j <= n):
                raise ParseError("line %d: index (%d, %d) out of bounds" % (no, i, j))
            if (i, j) in seen:
                raise ParseError("line %d: duplicate entry (%d, %d)" % (no, i, j))
            seen.add((i, j))
            rows.append(i - 1)
            cols.append(j - 1)
            vals.append(_parse_float(parts[2], no))
        return DataMatrix.from_coo(rows, cols, vals, (m, n))

    vals = []
    for no, ln in entries:
        for token in ln.split():
            vals.append(_parse_float(token, no))
    if len(vals) != m * n:
        raise ParseError("entry count %d does not match %d x %d"
                         % (len(vals), m, n))
    dense = np.asarray(vals, dtype=np.float64).reshape((n, m)).T  # column-major
    return DataMatrix.dense(dense)


def _read_csv(lines):
    rows = []
    start = 0
    stripped = [ln.strip() for ln in lines]
    stripped = [(i + 1, ln) for i, ln in enumerate(stripped) if ln]
    if not stripped:
        raise ParseError("line 1: empty CSV file")
    # a non-numeric first row is an optional header
    first_fields = stripped[0][1].split(",")
    try:
        for tok in first_fields:
            float(tok)
    except ValueError:
        start = 1
    if start == len(stripped):
        raise ParseError("CSV contains a header but no data rows")
    width = None
    for no, ln in stripped[start:]:
        fields = ln.split(",")
        if width is None:
            width = len(fields)
        elif len(fields) != width:
            raise ParseError("line %d: expected %d fields, found %d"
                             % (no, width, len(fields)))
        rows.append([_parse_float(tok, no) for tok in fields])
    dense = np.asarray(rows, dtype=np.float64)
    return DataMatrix.dense(dense)


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
                lines = fh.readlines()
        except OSError as exc:
            raise IoError("cannot read %s: %s" % (path, exc)) from exc
        if fmt == "mtx":
            return _read_mtx(lines)
        return _read_csv(lines)


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
