"""File I/O and data generation.

MatrixMarket (`coordinate` and `array`, field `real general`) and bare
numeric CSV readers/writers, JSON fit summaries, and a seeded synthetic
block-structured dataset generator.  Values are printed with 17 significant
digits so write/read roundtrips reproduce float64 matrices exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import DomainError, IoError, ParamError, ParseError
from .matcore import DataMatrix, RngStream, as_matrix

FORMATS = ("mtx", "csv")


@dataclass
class SummaryDocument:
    """The JSON document written next to factor outputs."""

    schema_version: str
    method: str
    rank: int
    seed_method: str
    n_iter: int
    max_iter: int
    rss: float
    evar: float
    dist_euclidean: float
    dist_kl: float
    sparseness_w: float
    sparseness_h: float
    warnings: list
    objective_trace: list | None = None


def _fmt(x: float) -> str:
    return "%.17g" % float(x)


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


def _check_sign(values, allow_negative):
    if not allow_negative and values.size and float(np.min(values)) < 0:
        raise DomainError("matrix has negative entries "
                          "(pass allow_negative to accept them)")


def _read_mtx(lines, allow_negative):
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
    sizes = size_line.split()
    entries = body[1:]

    if layout == "coordinate":
        if len(sizes) != 3:
            raise ParseError("line %d: coordinate size line needs 'rows cols nnz'"
                             % size_no)
        try:
            m, n, nnz = (int(t) for t in sizes)
        except ValueError:
            raise ParseError("line %d: bad size line" % size_no) from None
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
        values = np.asarray(vals, dtype=np.float64)
        _check_sign(values, allow_negative)
        return DataMatrix.from_coo(rows, cols, values, (m, n))

    if len(sizes) != 2:
        raise ParseError("line %d: array size line needs 'rows cols'" % size_no)
    try:
        m, n = (int(t) for t in sizes)
    except ValueError:
        raise ParseError("line %d: bad size line" % size_no) from None
    vals = []
    for no, ln in entries:
        for token in ln.split():
            vals.append(_parse_float(token, no))
    if len(vals) != m * n:
        raise ParseError("entry count %d does not match %d x %d"
                         % (len(vals), m, n))
    dense = np.asarray(vals, dtype=np.float64).reshape((n, m)).T  # column-major
    _check_sign(dense, allow_negative)
    return DataMatrix.dense(dense)


def _read_csv(lines, allow_negative):
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
    _check_sign(dense, allow_negative)
    return DataMatrix.dense(dense)


def read_matrix(path, fmt: str | None = None,
                allow_negative: bool = False) -> DataMatrix:
    """Read a matrix file; format inferred from the extension if not given.

    MatrixMarket `coordinate` becomes CSR, `array` and CSV become dense.
    Negative entries are rejected unless allow_negative is set (model
    inputs must be nonnegative); NaN/Inf tokens always fail the parse.
    """
    fmt = _infer_format(path, fmt)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise IoError("cannot read %s: %s" % (path, exc)) from exc
    if fmt == "mtx":
        return _read_mtx(lines, allow_negative)
    return _read_csv(lines, allow_negative)


def write_matrix(matrix, path, fmt: str | None = None) -> None:
    """Write a matrix; dense goes to `array`/CSV, CSR to `coordinate`."""
    matrix = as_matrix(matrix)
    fmt = _infer_format(path, fmt)
    out = []
    if fmt == "mtx":
        if matrix.is_sparse:
            out.append("%%MatrixMarket matrix coordinate real general")
            out.append("%d %d %d" % (matrix.rows, matrix.cols, matrix.nnz))
            for i in range(matrix.rows):
                s, e = matrix.indptr[i], matrix.indptr[i + 1]
                for idx in range(s, e):
                    out.append("%d %d %s" % (i + 1, matrix.indices[idx] + 1,
                                             _fmt(matrix.data[idx])))
        else:
            dense = matrix.dense_view()
            out.append("%%MatrixMarket matrix array real general")
            out.append("%d %d" % matrix.shape)
            for j in range(matrix.cols):  # column-major per the format
                for i in range(matrix.rows):
                    out.append(_fmt(dense[i, j]))
    else:
        dense = matrix.dense_view()
        for i in range(matrix.rows):
            out.append(",".join(_fmt(x) for x in dense[i, :]))
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(out) + "\n")
    except OSError as exc:
        raise IoError("cannot write %s: %s" % (path, exc)) from exc


def write_summary(doc: SummaryDocument, path) -> None:
    """Write the fit summary as a single deterministic JSON object."""
    payload = asdict(doc)
    if payload.get("objective_trace") is None:
        payload.pop("objective_trace", None)
    for key, value in payload.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ParamError("summary field %r is not finite" % (key,))
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
    if noise_sigma < 0:
        raise ParamError("noise_sigma must be nonnegative")
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
