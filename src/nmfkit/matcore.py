"""Dense and compressed-sparse-row matrix kernels, plus the seeded RNG.

The factorization loops only ever need a handful of operations on the data
matrix: products against dense factors, elementwise quotients on the stored
pattern, norms and reductions.  Products (`matmul`, `safe_divide_product`)
have genuine CSR kernels; elementwise operations and reductions fall back to
a cached dense view, which is the right trade at the in-memory scales this
package targets (factors are always dense anyway).

All numeric work is in 64-bit floats.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, OutOfMemoryError, ParamError, ShapeError

# Machine epsilon of float64, the default stabilizer for denominators.
EPS = float(np.finfo(np.float64).eps)


class DataMatrix:
    """Immutable dense or CSR matrix.

    Construct through :meth:`dense`, :meth:`csr` or :meth:`from_coo`.  The
    instance owns its buffers; they are marked read-only after validation.
    """

    __slots__ = ("rows", "cols", "indptr", "indices", "data", "_dense_data",
                 "_kl_terms")

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
        for i in range(rows):
            row = indices[indptr[i]:indptr[i + 1]]
            if row.size > 1 and np.any(np.diff(row) <= 0):
                raise ParamError(
                    "csr: column indices must be strictly increasing in row %d" % i)
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
        indptr = np.zeros(rows + 1, dtype=np.int64)
        np.add.at(indptr, ri + 1, 1)
        np.cumsum(indptr, out=indptr)
        return cls.csr(indptr, ci, vv, (rows, cols))

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self):
        return (self.rows, self.cols)

    @property
    def is_sparse(self) -> bool:
        return self._dense_data is None

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
            for i in range(self.rows):
                s, e = self.indptr[i], self.indptr[i + 1]
                out[i, self.indices[s:e]] = self.data[s:e]
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


# -- products ----------------------------------------------------------------

def matmul(a, b) -> np.ndarray:
    """Matrix product with dense result; either operand may be CSR."""
    (m, p1), (p2, n) = _shape_of(a), _shape_of(b)
    if p1 != p2:
        raise ShapeError("matmul: inner dimensions %d and %d differ" % (p1, p2))
    a_sparse = isinstance(a, DataMatrix) and a.is_sparse
    b_sparse = isinstance(b, DataMatrix) and b.is_sparse
    if a_sparse and b_sparse:
        b = b.dense_view()
        b_sparse = False
    if a_sparse:
        bd = _dense_of(b)
        out = np.empty((m, n))
        for i in range(m):
            s, e = a.indptr[i], a.indptr[i + 1]
            out[i, :] = a.data[s:e] @ bd[a.indices[s:e], :]
        return out
    if b_sparse:
        ad = _dense_of(a)
        out = np.zeros((m, n))
        for i in range(p2):
            s, e = b.indptr[i], b.indptr[i + 1]
            if e > s:
                out[:, b.indices[s:e]] += ad[:, i, None] * b.data[s:e]
        return out
    return _dense_of(a) @ _dense_of(b)


def transpose(a):
    """Transpose; CSR stays CSR, dense stays dense."""
    if isinstance(a, DataMatrix) and a.is_sparse:
        m, n = a.shape
        counts = np.zeros(n + 1, dtype=np.int64)
        np.add.at(counts, a.indices + 1, 1)
        indptr = np.cumsum(counts)
        indices = np.empty(a.nnz, dtype=np.int64)
        data = np.empty(a.nnz)
        cursor = indptr[:-1].copy()
        for i in range(m):
            for k in range(a.indptr[i], a.indptr[i + 1]):
                j = a.indices[k]
                pos = cursor[j]
                indices[pos] = i
                data[pos] = a.data[k]
                cursor[j] += 1
        return DataMatrix.csr(indptr, indices, data, (n, m))
    return _dense_of(a).T.copy()


# -- elementwise -------------------------------------------------------------

def _check_same_shape(a, b, op):
    if _shape_of(a) != _shape_of(b):
        raise ShapeError("%s: operand shapes %s and %s differ"
                         % (op, _shape_of(a), _shape_of(b)))


def hadamard(a, b) -> np.ndarray:
    _check_same_shape(a, b, "hadamard")
    return _dense_of(a) * _dense_of(b)


def safe_divide(a, b, eps: float = EPS) -> np.ndarray:
    """Elementwise a / (b + eps); eps keeps every denominator nonzero."""
    _check_same_shape(a, b, "safe_divide")
    return _dense_of(a) / (_dense_of(b) + eps)


def safe_divide_product(v, w, h, eps: float = EPS):
    """safe_divide(V, W @ H) without densifying a sparse V.

    For CSR input the quotient is only evaluated on the stored pattern
    (zero entries stay zero, exactly as in the dense formula) and the
    result is CSR with V's pattern.
    """
    if isinstance(v, DataMatrix) and v.is_sparse:
        m = v.rows
        if w.shape[0] != m or h.shape[1] != v.cols or w.shape[1] != h.shape[0]:
            raise ShapeError("safe_divide_product: factor shapes do not conform")
        data = np.empty_like(v.data)
        for i in range(m):
            s, e = v.indptr[i], v.indptr[i + 1]
            if e > s:
                prod = w[i, :] @ h[:, v.indices[s:e]]
                data[s:e] = v.data[s:e] / (prod + eps)
        return DataMatrix.csr(v.indptr, v.indices, data, v.shape)
    return safe_divide(v, matmul(w, h), eps)


# -- reductions --------------------------------------------------------------

def frobenius_sq(a) -> float:
    """Sum of squared entries."""
    if isinstance(a, DataMatrix) and a.is_sparse:
        return float(np.dot(a.data, a.data))
    d = _dense_of(a)
    return float(np.dot(d.ravel(), d.ravel()))


def _kl_v_terms(v):
    """The M-independent terms of kl_div: (flat indices of V's positive
    entries in row-major order, those entries, sum of V).

    Raises on a negative V.  A DataMatrix keeps its terms, so the many
    objective evaluations of a run (or of every run of a rank sweep)
    compute them once; a CSR matrix that has no dense view yet gets them
    from its stored entries and stays sparse.
    """
    if isinstance(v, DataMatrix) and v._kl_terms is not None:
        return v._kl_terms
    if isinstance(v, DataMatrix) and v.is_sparse:
        vals = v.data
        rows = np.repeat(np.arange(v.rows, dtype=np.int64), np.diff(v.indptr))
        flat = rows * v.cols + v.indices
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
    total += float(np.dot(vp, np.log(vp / mp)))
    return total


# -- seeded randomness --------------------------------------------------------

class RngStream:
    """Deterministic random stream: PCG64 keyed by an unsigned seed.

    A fixed seed reproduces the identical draw sequence on every platform
    and across processes.  Streams are single-owner; concurrent work must
    use independent streams (see :func:`derive_seed`).
    """

    ALGORITHM = "pcg64"

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
    yields the same derived seed.
    """
    ss = np.random.SeedSequence([int(master_seed)] + [int(k) for k in key])
    return int(ss.generate_state(1, np.uint64)[0])
