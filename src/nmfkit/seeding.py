"""Seeding of the factor pair (W, H) ahead of iterative optimization.

Methods: uniform random, fixed factors, Random C (dense-column centroids),
Random Vcol (column/row centroids), and NNDSVD with the zero-filling
variants ``a`` and ``ar``.  A SeedSpec names one of the seven methods in
SEED_METHOD_NAMES; the three NNDSVD names select seed_nndsvd's variant.
The rank and the SeedSpec's ranges are checked by `factorize`, not here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._svd import jacobi_svd
from .errors import ParamError, SeedError, setting
from .matcore import RngStream, as_matrix, matmul

# Stable identifiers accepted by the CLI and by SeedSpec.from_name.
SEED_METHOD_NAMES = ("random", "fixed", "random_c", "random_vcol",
                     "nndsvd", "nndsvda", "nndsvdar")
_NNDSVD_VARIANT = {"nndsvd": "none", "nndsvda": "a", "nndsvdar": "ar"}


@dataclass
class SeedSpec:
    """How to build the initial (W, H) pair.

    kind is one of SEED_METHOD_NAMES.  ``scale`` is the upper end of the
    uniform range used by ``random``.
    """

    kind: str = "random_vcol"
    p_cols: int | None = setting("[1, inf)", None)
    p_rows: int | None = setting("[1, inf)", None)
    dense_fraction: float = setting("(0, 1]", 0.2)
    scale: float = setting("(0, inf)", 1.0)
    w0: np.ndarray | None = None
    h0: np.ndarray | None = None

    @classmethod
    def from_name(cls, name: str, **kwargs) -> "SeedSpec":
        if name not in SEED_METHOD_NAMES:
            raise SeedError("unknown seeding method %r (expected one of %s)"
                            % (name, ", ".join(SEED_METHOD_NAMES)))
        return cls(kind=name, **kwargs)


def seed_random(m, n, k, rng: RngStream, scale: float = 1.0):
    """W, H with i.i.d. uniform entries on [0, scale)."""
    w = rng.uniform(size=(m, k), high=scale)
    h = rng.uniform(size=(k, n), high=scale)
    return w, h


def _centroids(v, picks, axis):
    """Means of V's columns (axis 1) or rows (axis 0) over each index set
    in `picks`, as the columns of an m x k (or rows of a k x n) array.

    A CSR V is multiplied by a 0/(1/p) selection matrix and stays CSR.
    """
    if v.is_sparse:
        sel = np.zeros((v.shape[axis], len(picks)))
        for j, idx in enumerate(picks):
            sel[idx, j] = 1.0 / idx.size
        return matmul(v, sel) if axis == 1 else matmul(sel.T, v)
    vd = v.dense_view()
    if axis == 1:
        return np.stack([vd[:, idx].mean(axis=1) for idx in picks], axis=1)
    return np.stack([vd[idx, :].mean(axis=0) for idx in picks])


def seed_random_vcol(v, k, p_cols=None, p_rows=None, rng: RngStream = None):
    """Columns of W are means of sampled columns of V, rows of H of rows.

    Sampling is uniform without replacement; defaults use a fifth of the
    columns/rows.  All W columns are drawn before the H rows.
    """
    v = as_matrix(v)
    m, n = v.shape
    if p_cols is None:
        p_cols = math.ceil(n / 5)
    if p_rows is None:
        p_rows = math.ceil(m / 5)
    if not 1 <= p_cols <= n:
        raise ParamError("p_cols %d out of range [1, %d]" % (p_cols, n))
    if not 1 <= p_rows <= m:
        raise ParamError("p_rows %d out of range [1, %d]" % (p_rows, m))
    col_picks = [rng.choice_without_replacement(n, p_cols) for _ in range(k)]
    row_picks = [rng.choice_without_replacement(m, p_rows) for _ in range(k)]
    return _centroids(v, col_picks, axis=1), _centroids(v, row_picks, axis=0)


def seed_random_c(v, k, p_cols=None, dense_fraction: float = 0.2,
                  rng: RngStream = None):
    """Random C: W columns are means of columns sampled from the dense pool.

    The pool holds the ceil(dense_fraction * n) columns of V with largest
    Euclidean norm (norm ties keep the lower column index).  H is seeded
    uniformly on [0, 1) since the construction only prescribes W.
    """
    v = as_matrix(v)
    m, n = v.shape
    if p_cols is None:
        p_cols = math.ceil(n / 5)
    pool_size = math.ceil(dense_fraction * n)
    if not 1 <= p_cols <= pool_size:
        raise ParamError("p_cols %d exceeds dense pool of %d columns"
                         % (p_cols, pool_size))
    if v.is_sparse:
        norms = np.sqrt(np.bincount(v.indices, weights=v.data * v.data,
                                    minlength=n))
    else:
        vd = v.dense_view()
        norms = np.sqrt(np.sum(vd * vd, axis=0))
    # stable sort on -norms: ties resolve to the lowest column index
    pool = np.sort(np.argsort(-norms, kind="stable")[:pool_size])
    picks = [pool[rng.choice_without_replacement(pool_size, p_cols)]
             for _ in range(k)]
    w = _centroids(v, picks, axis=1)
    h = rng.uniform(size=(k, n))
    return w, h


def _norm(x) -> float:
    """Euclidean norm by an elementwise sum (np.linalg.norm calls BLAS)."""
    return math.sqrt(float(np.sum(x * x)))


def seed_nndsvd(v, k, variant: str = "none", rng: RngStream = None):
    """Nonnegative double SVD seeding.

    The leading singular triplet seeds the first column/row directly; later
    triplets contribute whichever of their positive/negative part pairs
    carries more mass.  Variant "a" fills the resulting zeros with mean(V),
    variant "ar" with uniform draws on [0, mean(V)/100).  No step calls
    BLAS, so the seeds do not depend on the BLAS thread count.
    """
    v = as_matrix(v)
    m, n = v.shape
    if variant not in ("none", "a", "ar"):
        raise ParamError("unknown nndsvd variant %r" % (variant,))
    vd = v.dense_view()
    u, s, vt = jacobi_svd(vd)
    w = np.zeros((m, k))
    h = np.zeros((k, n))

    u0, v0 = u[:, 0], vt[0, :]
    if u0.sum() < 0:
        u0, v0 = -u0, -v0
    # theoretically nonnegative for nonnegative V; clip numeric dust
    w[:, 0] = np.sqrt(s[0]) * np.maximum(u0, 0.0)
    h[0, :] = np.sqrt(s[0]) * np.maximum(v0, 0.0)

    for j in range(1, k):
        x, y = u[:, j], vt[j, :]
        xp, xn = np.maximum(x, 0.0), np.maximum(-x, 0.0)
        yp, yn = np.maximum(y, 0.0), np.maximum(-y, 0.0)
        mu_p = _norm(xp) * _norm(yp)
        mu_n = _norm(xn) * _norm(yn)
        if mu_p >= mu_n:
            mu, xu, yu = mu_p, xp, yp
        else:
            mu, xu, yu = mu_n, xn, yn
        if mu <= 0 or s[j] <= 0:
            continue
        lam = np.sqrt(s[j] * mu)
        w[:, j] = lam * xu / _norm(xu)
        h[j, :] = lam * yu / _norm(yu)

    if variant in ("a", "ar"):
        avg = float(vd.mean())
        if variant == "a":
            w[w == 0] = avg
            h[h == 0] = avg
        else:
            wz = w == 0
            hz = h == 0
            w[wz] = rng.uniform(size=int(wz.sum()), high=avg / 100.0)
            h[hz] = rng.uniform(size=int(hz.sum()), high=avg / 100.0)
    return w, h


def seed_fixed(w0, h0, m, n, k):
    """Validate and copy user-provided factors."""
    if w0 is None or h0 is None:
        raise SeedError("fixed seeding requires both W0 and H0")
    w0 = np.asarray(w0, dtype=np.float64)
    h0 = np.asarray(h0, dtype=np.float64)
    if w0.shape != (m, k):
        raise SeedError("W0 shape %s does not match (%d, %d)"
                        % (w0.shape, m, k))
    if h0.shape != (k, n):
        raise SeedError("H0 shape %s does not match (%d, %d)"
                        % (h0.shape, k, n))
    if not (np.all(np.isfinite(w0)) and np.all(np.isfinite(h0))):
        raise SeedError("fixed factors must be finite")
    if (w0.size and w0.min() < 0) or (h0.size and h0.min() < 0):
        raise SeedError("fixed factors must be nonnegative")
    return w0.copy(), h0.copy()


def seed_factors(v, k: int, spec: SeedSpec, rng: RngStream):
    """Dispatch on spec.kind; every method returns dense nonnegative (W, H)."""
    v = as_matrix(v)
    m, n = v.shape
    if spec.kind == "random":
        return seed_random(m, n, k, rng, scale=spec.scale)
    if spec.kind == "random_vcol":
        return seed_random_vcol(v, k, spec.p_cols, spec.p_rows, rng)
    if spec.kind == "random_c":
        return seed_random_c(v, k, spec.p_cols, spec.dense_fraction, rng)
    if spec.kind in _NNDSVD_VARIANT:
        return seed_nndsvd(v, k, _NNDSVD_VARIANT[spec.kind], rng)
    if spec.kind == "fixed":
        return seed_fixed(spec.w0, spec.h0, m, n, k)
    raise SeedError("unknown seeding kind %r" % (spec.kind,))
