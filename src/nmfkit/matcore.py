"""Dense and compressed-sparse-row matrix kernels, plus the seeded RNG.

The factorization loops only ever need a handful of operations on the data
matrix: products against dense factors, elementwise quotients on the stored
pattern, norms and reductions.  Products (`matmul`), W H on V's pattern
(`product_on`), the quotient V / (W H) (`safe_divide_product`), the KL
divergence (`kl_div_product`), sums and norms have CSR kernels that never
form an m x n array.  `dense_view` materializes (and caches) the dense
array for the callers that still want one: `factor._residual_sq` (so the
Euclidean and penalized objectives, bd/icm's noise variance and
`quality.rss`), `factor.pg_nnls`, NNDSVD seeding and array/CSV output.

All numeric work is in 64-bit floats.  No reduction over data calls BLAS
(see `_inner`); only a dense product large enough for OpenBLAS to thread
its gemm can differ in its last bits between BLAS thread counts.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, OutOfMemoryError, ParamError, ShapeError

# Machine epsilon of float64, the default stabilizer for denominators.
EPS = float(np.finfo(np.float64).eps)


class DataMatrix:
    """Immutable dense or CSR matrix.

    Construct through :meth:`dense`, :meth:`csr` or :meth:`from_coo`, or
    :meth:`with_values` for new values on a CSR pattern.  The instance owns
    its buffers; they are marked read-only after validation.
    """

    __slots__ = ("rows", "cols", "indptr", "indices", "data", "_dense_data",
                 "_kl_terms", "_pattern")

    def __init__(self, rows, cols, indptr=None, indices=None, data=None,
                 dense_data=None):
        if rows < 1 or cols < 1:
            raise ShapeError("matrix must have at least one row and column")
        self.rows = int(rows)
        self.cols = int(cols)
        self.indptr = indptr
        self.indices = indices
        self.data = data
        self._dense_data = dense_data
        self._kl_terms = None  # see _kl_v_terms
        self._pattern = None  # see _pattern_of

    @classmethod
    def dense(cls, values) -> "DataMatrix":
        arr = np.array(values, dtype=np.float64, order="C", copy=True)
        if arr.ndim != 2:
            raise ShapeError("dense matrix must be two-dimensional")
        arr.flags.writeable = False
        return cls(arr.shape[0], arr.shape[1], dense_data=arr)

    @classmethod
    def csr(cls, indptr, indices, data, shape) -> "DataMatrix":
        rows, cols = shape
        indptr = np.array(indptr, dtype=np.int64, copy=True)
        indices = np.array(indices, dtype=np.int64, copy=True)
        data = np.array(data, dtype=np.float64, copy=True)
        if indptr.ndim != 1 or indptr.shape[0] != rows + 1:
            raise ParamError("csr: indptr must have length rows + 1")
        if indptr[0] != 0 or indptr[-1] != indices.shape[0]:
            raise ParamError("csr: indptr must start at 0 and end at nnz")
        if np.any(np.diff(indptr) < 0):
            raise ParamError("csr: row pointers must be nondecreasing")
        if indices.shape[0] != data.shape[0]:
            raise ParamError("csr: indices and data length mismatch")
        if indices.size and (indices.min() < 0 or indices.max() >= cols):
            raise ParamError("csr: column index out of bounds")
        entry_rows = np.repeat(np.arange(rows), np.diff(indptr))
        bad = np.flatnonzero((np.diff(entry_rows) == 0)
                             & (np.diff(indices) <= 0))
        if bad.size:
            raise ParamError(
                "csr: column indices must be strictly increasing in row %d"
                % entry_rows[bad[0]])
        for buf in (indptr, indices, data):
            buf.flags.writeable = False
        return cls(rows, cols, indptr=indptr, indices=indices, data=data)

    @classmethod
    def from_coo(cls, rows_idx, cols_idx, values, shape) -> "DataMatrix":
        """Build CSR from coordinate triplets; duplicates are rejected."""
        rows, cols = shape
        rows_idx = np.asarray(rows_idx, dtype=np.int64)
        cols_idx = np.asarray(cols_idx, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        order = np.lexsort((cols_idx, rows_idx))
        ri, ci, vv = rows_idx[order], cols_idx[order], values[order]
        if ri.size > 1:
            same = (np.diff(ri) == 0) & (np.diff(ci) == 0)
            if np.any(same):
                raise ParamError("duplicate coordinate entry")
        if ri.size and (ri[0] < 0 or ri[-1] >= rows):
            raise ParamError("coordinate row index out of bounds")
        indptr = np.zeros(rows + 1, dtype=np.int64)
        np.cumsum(np.bincount(ri, minlength=rows), out=indptr[1:])
        return cls.csr(indptr, ci, vv, (rows, cols))

    def with_values(self, data) -> "DataMatrix":
        """CSR matrix with this one's pattern and the given stored values.

        The result shares the index arrays and their cached pattern; `data`
        is taken over (marked read-only) without validation.
        """
        out = DataMatrix(self.rows, self.cols, indptr=self.indptr,
                         indices=self.indices, data=data)
        out._pattern = _pattern_of(self)
        data.flags.writeable = False
        return out

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self):
        return (self.rows, self.cols)

    @property
    def is_sparse(self) -> bool:
        """True for a CSR matrix, also after `dense_view` has cached the
        dense array."""
        return self.indptr is not None

    @property
    def nnz(self) -> int:
        if self.is_sparse:
            return int(self.data.shape[0])
        return int(np.count_nonzero(self._dense_data))

    def dense_view(self) -> np.ndarray:
        """Read-only dense array backing or materializing this matrix."""
        if self._dense_data is None:
            try:
                out = np.zeros((self.rows, self.cols))
            except MemoryError:
                gb = 8.0 * self.rows * self.cols / 1e9
                raise OutOfMemoryError(
                    "cannot allocate the dense %dx%d view of a sparse matrix "
                    "(%.1f GB)" % (self.rows, self.cols, gb)) from None
            out[_pattern_of(self).rows, self.indices] = self.data
            out.flags.writeable = False
            # caching is safe: the instance is immutable
            self._dense_data = out
        return self._dense_data

    def to_dense(self) -> np.ndarray:
        return self.dense_view().copy()

    def require_model_input(self, what="matrix"):
        """Enforce the factorization-input contract: finite and nonnegative."""
        vals = self.data if self.is_sparse else self._dense_data
        if not np.all(np.isfinite(vals)):
            raise DomainError("%s contains non-finite entries" % what)
        if vals.size and vals.min() < 0:
            raise DomainError("%s contains negative entries" % what)

    def __repr__(self):
        kind = "csr" if self.is_sparse else "dense"
        return "DataMatrix(%dx%d, %s)" % (self.rows, self.cols, kind)


def as_matrix(x) -> DataMatrix:
    """Wrap a 2-d ndarray as a dense DataMatrix; pass DataMatrix through."""
    if isinstance(x, DataMatrix):
        return x
    return DataMatrix.dense(np.asarray(x, dtype=np.float64))


def _dense_of(x) -> np.ndarray:
    if isinstance(x, DataMatrix):
        return x.dense_view()
    return np.asarray(x, dtype=np.float64)


def _shape_of(x):
    return x.shape if isinstance(x, DataMatrix) else np.asarray(x).shape


def _is_csr(x) -> bool:
    return isinstance(x, DataMatrix) and x.is_sparse


class _Pattern:
    """Index arrays of a CSR pattern, computed once per pattern.

    rows        row of each stored entry
    row_ids     the nonempty rows; row_starts their first entry
    by_col      stored entries in column order (stable, so rows ascend)
    col_rows    rows[by_col]
    col_ids     the nonempty columns; col_starts their first entry in by_col
    """

    __slots__ = ("rows", "row_ids", "row_starts", "by_col", "col_rows",
                 "col_ids", "col_starts")

    def __init__(self, a: DataMatrix):
        counts = np.diff(a.indptr)
        self.rows = np.repeat(np.arange(a.rows, dtype=np.int64), counts)
        self.row_ids = np.flatnonzero(counts)
        self.row_starts = a.indptr[self.row_ids]
        self.by_col = np.argsort(a.indices, kind="stable")
        self.col_rows = self.rows[self.by_col]
        col_counts = np.bincount(a.indices, minlength=a.cols)
        self.col_ids = np.flatnonzero(col_counts)
        self.col_starts = (np.cumsum(col_counts) - col_counts)[self.col_ids]


def _pattern_of(a: DataMatrix) -> _Pattern:
    # threads sharing V may both build it; the results are equal
    if a._pattern is None:
        a._pattern = _Pattern(a)
    return a._pattern


# -- products ----------------------------------------------------------------

def matmul(a, b) -> np.ndarray:
    """Matrix product with dense result; either operand may be CSR.

    A CSR operand is read through its stored entries only: an output entry
    sums over the stored entries of one row of A (CSR @ dense) or of one
    column of B (dense @ CSR), in index order.
    """
    (m, p1), (p2, n) = _shape_of(a), _shape_of(b)
    if p1 != p2:
        raise ShapeError("matmul: inner dimensions %d and %d differ" % (p1, p2))
    if _is_csr(a):
        # rows of A . B, formed as the columns of the n x m product B' A'
        pat = _pattern_of(a)
        out = np.zeros((n, m))
        if a.data.size:
            terms = _dense_of(b).T.take(a.indices, axis=1) * a.data
            out[:, pat.row_ids] = np.add.reduceat(terms, pat.row_starts,
                                                  axis=1)
        return np.ascontiguousarray(out.T)
    if _is_csr(b):
        pat = _pattern_of(b)
        out = np.zeros((m, n))
        if b.data.size:
            terms = _dense_of(a).take(pat.col_rows, axis=1) * b.data[pat.by_col]
            out[:, pat.col_ids] = np.add.reduceat(terms, pat.col_starts,
                                                  axis=1)
        return out
    return _dense_of(a) @ _dense_of(b)


# -- elementwise -------------------------------------------------------------

def _check_same_shape(a, b, op):
    if _shape_of(a) != _shape_of(b):
        raise ShapeError("%s: operand shapes %s and %s differ"
                         % (op, _shape_of(a), _shape_of(b)))


def safe_divide(a, b, eps: float = EPS) -> np.ndarray:
    """Elementwise a / (b + eps); eps keeps every denominator nonzero."""
    _check_same_shape(a, b, "safe_divide")
    return _dense_of(a) / (_dense_of(b) + eps)


def _check_factors(v, w, h, op):
    if w.shape[0] != v.rows or h.shape[1] != v.cols or w.shape[1] != h.shape[0]:
        raise ShapeError("%s: factor shapes do not conform" % op)


def _product_at(w, h, rows, cols) -> np.ndarray:
    """The entries (rows[t], cols[t]) of W @ H."""
    return np.einsum("ij,ji->i", w.take(rows, axis=0), h.take(cols, axis=1))


def product_on(v, w, h) -> np.ndarray:
    """W @ H where V needs it: the m x n product for a dense V, its values
    at V's stored entries, in storage order, for a CSR V."""
    if _is_csr(v):
        _check_factors(v, w, h, "product_on")
        return _product_at(w, h, _pattern_of(v).rows, v.indices)
    return matmul(w, h)


def safe_divide_product(v, w, h, eps: float = EPS, wh=None):
    """safe_divide(V, W @ H) without densifying a sparse V.

    For CSR input the quotient is only evaluated on the stored pattern
    (zero entries stay zero, exactly as in the dense formula) and the
    result is CSR with V's pattern, which shares V's cached index arrays.
    ``wh`` is `product_on(v, w, h)`, formed here if not given.
    """
    wh = product_on(v, w, h) if wh is None else wh
    if _is_csr(v):
        return v.with_values(v.data / (wh + eps))
    return safe_divide(v, wh, eps)


# -- reductions --------------------------------------------------------------

def _inner(a, b) -> float:
    """Inner product of 1-d float64 arrays without BLAS: ddot (1-d np.dot,
    vdot, inner, @) splits over OpenBLAS's threads above 10,000 elements."""
    return float(np.einsum("i,i->", a, b))


def frobenius_sq(a) -> float:
    """Sum of squared entries; the same bits at every BLAS thread count."""
    if _is_csr(a):
        return _inner(a.data, a.data)
    d = _dense_of(a).ravel()
    return _inner(d, d)


def _kl_v_terms(v):
    """The M-independent terms of kl_div: (flat indices of V's positive
    entries in row-major order, those entries, sum of V).

    Raises on a negative V.  A DataMatrix keeps its terms, so the many
    objective evaluations of a run (or of every run of a rank sweep)
    compute them once; a CSR matrix gets them from its stored entries.
    """
    if isinstance(v, DataMatrix) and v._kl_terms is not None:
        return v._kl_terms
    if _is_csr(v):
        vals = v.data
        flat = _pattern_of(v).rows * v.cols + v.indices
        total = np.sum(vals)
    else:
        vd = _dense_of(v)
        vals = vd.ravel()
        flat = None
        total = np.sum(vd)
    if vals.size and vals.min() < 0:
        raise DomainError("kl_div: V must be nonnegative")
    keep = np.flatnonzero(vals > 0)
    terms = (keep if flat is None else flat[keep], vals[keep], total)
    if isinstance(v, DataMatrix):
        v._kl_terms = terms
    return terms


def kl_div(v, m, eps: float = 0.0) -> float:
    """Generalized Kullback-Leibler divergence sum(V ln(V/M) - V + M).

    Uses the convention 0 ln 0 = 0.  With ``eps`` = 0 the call is strict and
    raises on M <= 0 wherever V > 0; a positive ``eps`` clamps M from below
    instead, which keeps objective tracking finite when a reconstruction has
    exact zeros.
    """
    _check_same_shape(v, m, "kl_div")
    pos, vp, sum_v = _kl_v_terms(v)
    md = _dense_of(m)
    if eps > 0:
        md = np.maximum(md, eps)
    mp = md.ravel()[pos]
    if eps <= 0 and np.any(mp <= 0):
        raise DomainError("kl_div: M must be positive wherever V is positive")
    total = float(np.sum(md) - sum_v)
    total += _inner(vp, np.log(vp / mp))
    return total


def kl_div_product(v, w, h, eps: float = 0.0, wh=None) -> float:
    """kl_div(V, W @ H) without forming W @ H for a CSR V.

    The sum of M is (W 1)'(H 1); M itself is formed on V's stored entries
    (``wh``, `product_on(v, w, h)`, if given).  The clamp max(M, eps) of
    ``eps`` > 0 acts where V is positive, not where V is zero, so the value
    can fall short of kl_div(V, W @ H, eps) by at most eps per zero of V:
    eps (mn - nnz) without stored zeros.  A dense V goes through kl_div.
    """
    wh = product_on(v, w, h) if wh is None else wh
    if not _is_csr(v):
        return kl_div(v, wh, eps)
    _, vp, sum_v = _kl_v_terms(v)
    mp = wh if vp.size == wh.size else wh[v.data > 0]
    total = float(np.dot(w.sum(axis=0), h.sum(axis=1)) - sum_v)
    if eps > 0:
        clamped = np.maximum(mp, eps)
        total += float(np.sum(clamped - mp))
        mp = clamped
    elif np.any(mp <= 0):
        raise DomainError("kl_div: M must be positive wherever V is positive")
    total += _inner(vp, np.log(vp / mp))
    return total


# -- seeded randomness --------------------------------------------------------

class RngStream:
    """Deterministic random stream: PCG64 keyed by an unsigned seed.

    A fixed seed reproduces the identical draw sequence on every platform
    and across processes.  Streams are single-owner; concurrent work must
    use independent streams (see :func:`derive_seed`).
    """

    def __init__(self, seed: int):
        if seed < 0:
            raise ParamError("rng seed must be a nonnegative integer")
        self.seed = int(seed)
        self._gen = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(self.seed)))

    def uniform(self, size=None, low=0.0, high=1.0):
        return self._gen.uniform(low, high, size)

    def normal(self, size=None, loc=0.0, scale=1.0):
        return self._gen.normal(loc, scale, size)

    def gamma(self, shape_param: float, scale: float = 1.0, size=None):
        return self._gen.gamma(shape_param, scale, size)

    def random(self, size=None):
        """Uniform draws on [0, 1): a float, or an array of shape size.

        An array of n draws holds the same values as n scalar calls.
        """
        return self._gen.random(size)

    def choice_without_replacement(self, n: int, count: int) -> np.ndarray:
        """Sorted sample of `count` distinct indices from range(n).

        The sorted order makes downstream reductions independent of the
        draw order (a full sample is then exactly range(n)).
        """
        if not 1 <= count <= n:
            raise ParamError("sample size %d out of range for %d items"
                             % (count, n))
        return np.sort(self._gen.choice(n, size=count, replace=False))


def derive_seed(master_seed: int, *key: int) -> int:
    """Mix (master_seed, key...) into a fresh unsigned 64-bit stream seed.

    The mixing function is numpy's SeedSequence entropy pool, which is
    documented, stable, and collision-resistant; the same tuple always
    yields the same derived seed.  A negative entry raises ParamError.
    """
    if min((master_seed,) + key) < 0:
        raise ParamError("master seed and keys must be nonnegative integers")
    ss = np.random.SeedSequence([int(master_seed)] + [int(k) for k in key])
    return int(ss.generate_state(1, np.uint64)[0])
