"""Dense and compressed-sparse-row matrix kernels, plus the seeded RNG.

The factorization loops only ever need a handful of operations on the data
matrix: products against dense factors, elementwise quotients on the stored
pattern, norms and reductions.  Products (`matmul`), W H on V's pattern
(`product_on`), V / (W H + EPS) in V's layout (`safe_divide_product`), the
KL divergence of max(W H, EPS) from V (`kl_div`), the residual
||V - W H||^2 (`residual_sq`), the means of groups of V's columns or rows
(`group_means`), sums and norms have CSR kernels that never form an m x n
array; this module is the one place that asks whether V is dense or CSR.
`dense_view` materializes (and caches) the dense array for the callers
that still want one: NNDSVD seeding and array/CSV output.

The CSR gathers of the factors (nnz x k arrays) go into buffers that each
thread keeps on V's pattern (`_Pattern.scratch`) and reuses from call to
call; no kernel returns a view of them.

All numeric work is in 64-bit floats.  No reduction over data calls BLAS
(see `_inner`); only a dense product large enough for OpenBLAS to thread
its gemm can differ in its last bits between BLAS thread counts.
"""

from __future__ import annotations

import threading

import numpy as np

from .errors import (DomainError, OutOfMemoryError, ParamError, ShapeError,
                     integer)

# Machine epsilon of float64, the default stabilizer for denominators.
EPS = float(np.finfo(np.float64).eps)


def _index_array(x) -> np.ndarray:
    """`x` as a 1-d int64 array, refusing what a cast would truncate."""
    arr = np.asarray(x)
    if arr.ndim != 1 or (arr.size and arr.dtype.kind not in "iu"):
        raise ParamError("index arrays must be 1-d arrays of integers")
    return arr.astype(np.int64, copy=False)


def _dims(shape):
    """(rows, cols) of `shape`: two integers of at least 1, else ShapeError."""
    try:
        rows, cols = map(integer, shape)
        if rows >= 1 and cols >= 1:  # None >= 1 raises TypeError
            return rows, cols
    except (TypeError, ValueError):
        pass
    raise ShapeError("a matrix shape is two integers of at least 1 (one "
                     "row and column), not %r" % (shape,))


def first_true(mask) -> int:
    """The index of the first True of `mask`, else its length."""
    return int(np.append(mask, True).argmax())


def coo_order(i, j, rows, cols):
    """(b, d, order) of 0-based indices: b is the first entry outside
    [0, rows) x [0, cols); d the first before b that repeats an earlier
    (i, j), else b; `order` sorts by (i, j), equal ones in input order."""
    b = first_true((i < 0) | (i >= rows) | (j < 0) | (j >= cols))
    order = np.lexsort((j, i))  # stable: of equal (i, j), input order
    same = (np.diff(i[order]) == 0) & (np.diff(j[order]) == 0)
    return b, min(b, int(order[1:][same].min())) if same.any() else b, order


class DataMatrix:
    """Immutable dense or CSR matrix.

    Construct through :meth:`dense`, :meth:`csr` or :meth:`from_coo`, which
    check the shape (`_dims`), or :meth:`with_values` for new values in an
    existing layout.  The instance owns its buffers; they are marked
    read-only after validation.
    """

    __slots__ = ("rows", "cols", "indptr", "indices", "data", "_dense_data",
                 "_kl_terms", "_pattern")

    def __init__(self, rows, cols, indptr=None, indices=None, data=None,
                 dense_data=None):
        self.rows, self.cols = rows, cols
        self.indptr = indptr
        self.indices = indices
        self.data = data
        self._dense_data = dense_data
        self._kl_terms = None  # see _kl_v_terms
        self._pattern = None  # see _pattern_of

    @classmethod
    def dense(cls, values) -> "DataMatrix":
        arr = np.array(values, dtype=np.float64, order="C", copy=True)
        arr.flags.writeable = False
        return cls(*_dims(arr.shape), dense_data=arr)

    @classmethod
    def csr(cls, indptr, indices, data, shape) -> "DataMatrix":
        """Build through :meth:`from_coo`, refusing unsorted rows."""
        rows, _ = _dims(shape)
        indptr, indices = _index_array(indptr), _index_array(indices)
        if indptr.shape[0] != rows + 1:
            raise ParamError("csr: indptr must have length rows + 1")
        counts = np.diff(indptr)
        if indptr[0] != 0 or indptr[-1] != len(indices) or np.any(counts < 0):
            raise ParamError("csr: indptr must rise from 0 to nnz")
        entry_rows = np.repeat(np.arange(rows), counts)
        out = cls.from_coo(entry_rows, indices, data, shape)
        moved = np.flatnonzero(out.indices != indices)
        if moved.size:  # the first such entry lies in the first such row
            raise ParamError("csr: column indices must be strictly "
                             "increasing in row %d" % entry_rows[moved[0]])
        return out

    @classmethod
    def from_coo(cls, rows_idx, cols_idx, values, shape) -> "DataMatrix":
        """Build CSR from 0-based coordinate triplets in any order; an
        entry out of bounds or a repeated (i, j) raises ParamError."""
        rows, cols = _dims(shape)
        rows_idx, cols_idx = _index_array(rows_idx), _index_array(cols_idx)
        values = np.asarray(values, dtype=np.float64)
        if not rows_idx.shape == cols_idx.shape == values.shape:
            raise ParamError("coordinate arrays must have one length")
        b, d, order = coo_order(rows_idx, cols_idx, rows, cols)
        if d < rows_idx.shape[0]:
            raise ParamError("coordinate (%d, %d) %s" % (
                rows_idx[d], cols_idx[d], "is out of bounds" if d == b
                else "repeats an earlier entry"))
        # bincount refuses 2**63 - 1 rows as "array is too big"
        indptr = np.append(0, np.cumsum(np.bincount(rows_idx, minlength=rows)))
        indices, data = cols_idx[order], values[order]
        for buf in (indptr, indices, data):
            buf.flags.writeable = False
        return cls(rows, cols, indptr=indptr, indices=indices, data=data)

    def with_values(self, values) -> "DataMatrix":
        """This matrix's layout with new stored values, ordered as `values`.

        A CSR result shares the index arrays and their cached pattern; a
        dense one reads `values` in row-major order.  `values` is taken
        over (marked read-only) without validation.
        """
        values.flags.writeable = False
        if not self.is_sparse:
            return DataMatrix(self.rows, self.cols,
                              dense_data=values.reshape(self.shape))
        out = DataMatrix(self.rows, self.cols, indptr=self.indptr,
                         indices=self.indices, data=values)
        out._pattern = _pattern_of(self)
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
    def values(self) -> np.ndarray:
        """The stored values: a CSR matrix's `data`, or a read-only
        row-major view of the dense array."""
        return self.data if self.is_sparse else self._dense_data.ravel()

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
        vals = self.values
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
    """Index arrays of a CSR pattern, computed once per pattern, and each
    thread's gather buffers for it (`scratch`).

    rows        row of each stored entry
    row_ids     the nonempty rows; row_starts their first entry
    by_col      stored entries in column order (stable, so rows ascend)
    col_rows    rows[by_col]
    col_ids     the nonempty columns; col_starts their first entry in by_col
    """

    __slots__ = ("rows", "row_ids", "row_starts", "by_col", "col_rows",
                 "col_ids", "col_starts", "_local")

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
        self._local = threading.local()

    def scratch(self, k):
        """This thread's (nnz x k, k x nnz) float64 gather buffers, made
        again when k changes.  Reusing them keeps the kernels from asking
        the allocator for a fresh nnz x k array (a fresh mmap) per call."""
        bufs = getattr(self._local, "bufs", None)
        if bufs is None or bufs[1].shape[0] != k:
            nnz = self.rows.shape[0]
            bufs = self._local.bufs = (np.empty((nnz, k)), np.empty((k, nnz)))
        return bufs


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
        out = _segment_sums(_dense_of(b).T, a.indices, a.data, pat.row_ids,
                            pat.row_starts, m, pat.scratch(n)[1])
        return np.ascontiguousarray(out.T)
    if _is_csr(b):
        pat = _pattern_of(b)
        return _segment_sums(_dense_of(a), pat.col_rows, b.data[pat.by_col],
                             pat.col_ids, pat.col_starts, n,
                             pat.scratch(m)[1])
    return _dense_of(a) @ _dense_of(b)


def _segment_sums(x, take, weights, ids, starts, width, buf) -> np.ndarray:
    """The CSR product kernel: x's columns `take` (gathered into `buf`) times
    `weights`, summed over runs from `starts`, as columns `ids` of width."""
    out = np.zeros((x.shape[0], width))
    if weights.size:
        terms = _gather(x, take, 1, buf)
        terms *= weights
        out[:, ids] = np.add.reduceat(terms, starts, axis=1)
    return out


def group_means(v, picks, axis) -> np.ndarray:
    """Means of V's columns (axis 1) or rows (axis 0) over each index set
    in `picks`, as the columns of an m x k (or rows of a k x n) array.  A
    CSR V is multiplied by a 0/(1/p) selection matrix and stays CSR."""
    if v.is_sparse:
        sel = np.zeros((v.shape[axis], len(picks)))
        for j, idx in enumerate(picks):
            sel[idx, j] = 1.0 / idx.size
        return matmul(v, sel) if axis == 1 else matmul(sel.T, v)
    vd = v.dense_view()
    if axis == 1:
        return np.stack([vd[:, idx].mean(axis=1) for idx in picks], axis=1)
    return np.stack([vd[idx, :].mean(axis=0) for idx in picks])


# -- elementwise -------------------------------------------------------------

def safe_divide(a, b) -> np.ndarray:
    """Elementwise a / (b + EPS) of two arrays, so no denominator is 0."""
    if a.shape != b.shape:
        raise ShapeError("safe_divide: operand shapes %s and %s differ"
                         % (a.shape, b.shape))
    return a / (b + EPS)


def _check_factors(v, w, h, op):
    if w.shape[0] != v.rows or h.shape[1] != v.cols or w.shape[1] != h.shape[0]:
        raise ShapeError("%s: factor shapes do not conform" % op)


def _gather(x, idx, axis, out) -> np.ndarray:
    """x.take(idx, axis) written into `out`, a scratch buffer of the result's
    shape.  The caller has validated idx, so mode="clip" clips nothing; it
    also writes `out` directly, where the default mode copies through a
    temporary."""
    return np.take(np.asarray(x, dtype=np.float64), idx, axis=axis, out=out,
                   mode="clip")


def product_on(v, w, h) -> np.ndarray:
    """W @ H where V needs it: the m x n product for a dense V, its values
    at V's stored entries, in storage order, for a CSR V."""
    if _is_csr(v):
        _check_factors(v, w, h, "product_on")
        pat = _pattern_of(v)
        wbuf, hbuf = pat.scratch(w.shape[1])
        return np.einsum("ij,ji->i", _gather(w, pat.rows, 0, wbuf),
                         _gather(h, v.indices, 1, hbuf))
    return matmul(w, h)


def safe_divide_product(v, w, h, wh=None) -> DataMatrix:
    """The quotient V / (W @ H + EPS) in V's layout, without densifying a
    sparse V: a CSR V's quotient is taken on its stored entries only (zero
    entries stay zero, as in the dense formula) and shares V's cached index
    arrays.  ``wh`` is `product_on(v, w, h)`, formed here if not given.
    """
    wh = product_on(v, w, h) if wh is None else wh
    return v.with_values(v.values / (wh.reshape(-1) + EPS))


# -- reductions --------------------------------------------------------------

def _inner(a, b) -> float:
    """Inner product of 1-d float64 arrays without BLAS: ddot (1-d np.dot,
    vdot, inner, @) splits over OpenBLAS's threads above 10,000 elements."""
    return float(np.einsum("i,i->", a, b))


def frobenius_sq(a) -> float:
    """Sum of squared entries; the same bits at every BLAS thread count."""
    d = a.values if isinstance(a, DataMatrix) else _dense_of(a).ravel()
    return _inner(d, d)


def _kl_v_terms(v: DataMatrix):
    """The M-independent terms of kl_div, kept on V: (keep, vp, sum_v).

    ``keep`` picks V's positive values out of `DataMatrix.values`: a
    boolean mask, or ``slice(None)`` when every value is positive, so that
    ``vp`` = vals[keep] is then V's own buffer and M is read through
    ``keep`` without a copy.  ``sum_v`` is the sum of V.  Raises on a negative V.
    Kept on the matrix, so the many objective evaluations of a run (or of
    every run of a rank sweep) compute them once.
    """
    if v._kl_terms is None:
        vals = v.values
        if vals.size and vals.min() < 0:
            raise DomainError("kl_div: V must be nonnegative")
        keep = vals > 0
        if keep.all():
            keep = slice(None)
        v._kl_terms = (keep, vals[keep], np.sum(vals))
    return v._kl_terms


def kl_div(v, w, h, wh=None) -> float:
    """Generalized Kullback-Leibler divergence sum(V ln(V/M) - V + M) of
    the model M = max(W @ H, EPS) from V, with the convention 0 ln 0 = 0.

    The clamp at EPS keeps the value finite when a model has exact zeros.
    ``wh`` is `product_on(v, w, h)`, formed here if not given.  A dense V
    clamps M everywhere.  A CSR V forms M only on its stored entries, sums
    M as (W 1)'(H 1) and clamps only where V > 0, so it can read below the
    dense V's value by at most EPS per zero of V: EPS (mn - nnz) without
    stored zeros.  Raises DomainError on a negative V.
    """
    v = as_matrix(v)
    _check_factors(v, w, h, "kl_div")
    wh = product_on(v, w, h) if wh is None else wh
    keep, vp, sum_v = _kl_v_terms(v)
    if v.is_sparse:
        mp = wh[keep]
        total = float(np.dot(w.sum(axis=0), h.sum(axis=1)) - sum_v)
        clamped = np.maximum(mp, EPS)
        total += float(np.sum(clamped - mp))
        mp = clamped
    else:
        md = np.maximum(wh, EPS)
        mp = md.ravel()[keep]
        total = float(np.sum(md) - sum_v)
    return total + _inner(vp, np.log(vp / mp))


def residual_sq(v, w, h, wh=None) -> float:
    """The Euclidean residual ||V - W H||_F^2 of the model W @ H.

    ``wh`` is `product_on(v, w, h)`, formed here if not given; a given one
    is left as it is.  A dense V forms W H - V.  A CSR V takes the
    residual on its stored entries and adds the mass of W H off the
    pattern, <W'W, H H'> - sum over the pattern of (W H)^2, clamped at 0,
    so it forms no m x n array.  That difference cancels: it can lose about
    eps ||W H||_F^2 (a few eps ||W H||_F^2 in tests, at most the length
    of its sums times that), so a CSR exact fit reads between 0 and that
    bound, where a dense one reads the rounding of W H - V.
    """
    v = as_matrix(v)
    _check_factors(v, w, h, "residual_sq")
    r = (product_on(v, w, h) if wh is None else wh.copy()).reshape(-1)
    if not v.is_sparse:
        r -= v.values
        return _inner(r, r)
    on = _inner(r, r)
    r -= v.data
    total = float(np.einsum("ab,ab->", np.einsum("ia,ib->ab", w, w),
                            np.einsum("aj,bj->ab", h, h)))
    return _inner(r, r) + max(total - on, 0.0)


# -- seeded randomness --------------------------------------------------------

class RngStream(np.random.Generator):
    """numpy's Generator on PCG64 keyed by SeedSequence(seed), for an
    unsigned seed.  A fixed seed reproduces the identical draw sequence on
    every platform and across processes, and an array of n draws holds the
    same values as n scalar calls.  Streams are single-owner; concurrent
    work must use independent streams (see :func:`derive_seed`).
    """

    def __init__(self, seed: int):
        seed = integer(seed)
        if seed is None or seed < 0:
            raise ParamError("rng seed must be a nonnegative integer")
        super().__init__(np.random.PCG64(np.random.SeedSequence(seed)))

    def choice_without_replacement(self, n: int, count: int) -> np.ndarray:
        """Sorted sample of `count` distinct indices from range(n).

        The sorted order makes downstream reductions independent of the
        draw order (a full sample is then exactly range(n)).
        """
        if not 1 <= count <= n:
            raise ParamError("sample size %d out of range for %d items"
                             % (count, n))
        return np.sort(self.choice(n, size=count, replace=False))


def derive_seed(master_seed: int, *key: int) -> int:
    """Mix (master_seed, key...) into a fresh unsigned 64-bit stream seed.

    The mixing function is numpy's SeedSequence entropy pool, which is
    documented, stable, and collision-resistant; the same tuple always
    yields the same derived seed.  An entry that is not a nonnegative
    integer raises ParamError.
    """
    entries = [integer(x) for x in (master_seed,) + key]
    if None in entries or min(entries) < 0:
        raise ParamError("master seed and keys must be nonnegative integers")
    ss = np.random.SeedSequence(entries)
    return int(ss.generate_state(1, np.uint64)[0])
