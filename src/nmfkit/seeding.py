"""Seeding of the factor pair (W, H) ahead of iterative optimization.

Methods: uniform random, fixed factors, Random Vcol, Random C, and NNDSVD
with the zero-filling variants ``nndsvda`` and ``nndsvdar``.  Random C
(Albright et al. 2006) averages columns (rows) sampled from the longest
columns (rows) of V, by default the longest half; Random Vcol is Random C
over all of V.  A SeedSpec names one of the seven SEED_METHOD_NAMES, and
`seed_factors` passes its settings to seeding functions that have no
defaults of their own.  `factorize` checks the rank and the SeedSpec.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._svd import jacobi_svd
from .errors import ParamError, SeedError, setting
from .matcore import RngStream, as_matrix, group_means

# Stable identifiers accepted by the CLI and by SeedSpec.from_name.
SEED_METHOD_NAMES = ("random", "fixed", "random_c", "random_vcol",
                     "nndsvd", "nndsvda", "nndsvdar")


@dataclass
class SeedSpec:
    """How to build the initial (W, H) pair.

    kind is one of SEED_METHOD_NAMES.  ``random_vcol`` and ``random_c``
    average ``p_cols`` sampled columns into each column of W and ``p_rows``
    sampled rows into each row of H (None: a fifth of n, of m, at most the
    pool below).
    ``random_c`` samples only the ceil(dense_fraction * n) columns and
    ceil(dense_fraction * m) rows of largest norm, half of each by default.
    ``scale`` is the upper end of the uniform range used by ``random``.
    """

    kind: str = "random_vcol"
    p_cols: int | None = setting("[1, inf)", None)
    p_rows: int | None = setting("[1, inf)", None)
    dense_fraction: float = setting("(0, 1]", 0.5)
    scale: float = setting("(0, inf)", 1.0)
    w0: np.ndarray | None = None
    h0: np.ndarray | None = None

    @classmethod
    def from_name(cls, name: str, **kwargs) -> "SeedSpec":
        if name not in SEED_METHOD_NAMES:
            raise SeedError("unknown seeding method %r (expected one of %s)"
                            % (name, ", ".join(SEED_METHOD_NAMES)))
        return cls(kind=name, **kwargs)


def seed_random(m, n, k, rng: RngStream, scale: float):
    """W, H with i.i.d. uniform entries on [0, scale)."""
    w = rng.uniform(size=(m, k), high=scale)
    h = rng.uniform(size=(k, n), high=scale)
    return w, h


def seed_random_c(v, k, p_cols, p_rows, fraction, rng: RngStream):
    """Random C: W's columns are means of `p_cols` columns of V, drawn
    without replacement from the ceil(fraction * n) columns of largest
    norm, ties keeping the lower index; H's rows likewise from rows.  A
    sample size of None takes a fifth of n (of m), at most the pool.  A
    fraction of 1 ranks nothing: that is Random Vcol.  W is drawn before H.
    """
    v = as_matrix(v)
    sq = v.with_values(v.values * v.values) if fraction < 1 else None
    factors = []
    for axis, p, name in ((1, p_cols, "p_cols"), (0, p_rows, "p_rows")):
        size = v.shape[axis]
        pool_size = math.ceil(fraction * size)
        p = min(math.ceil(size / 5), pool_size) if p is None else p
        if not 1 <= p <= pool_size:
            raise ParamError("%s %d out of range [1, %d]"
                             % (name, p, pool_size))
        pool = np.arange(size)
        if sq is not None:
            # a mean of squares over the other axis ranks as the norm does
            every = [np.arange(v.shape[1 - axis])]
            mean_sq = group_means(sq, every, 1 - axis).ravel()
            pool = np.sort(np.argsort(-mean_sq, kind="stable")[:pool_size])
        picks = [pool[rng.choice_without_replacement(pool_size, p)]
                 for _ in range(k)]
        factors.append(group_means(v, picks, axis))
    return tuple(factors)


def _norm(x) -> float:
    """Euclidean norm by an elementwise sum (np.linalg.norm calls BLAS)."""
    return math.sqrt(float(np.sum(x * x)))


def seed_nndsvd(v, k, kind: str, rng: RngStream):
    """Nonnegative double SVD seeding; `kind` is "nndsvd", "nndsvda" or
    "nndsvdar".

    The leading singular triplet seeds the first column/row directly; later
    triplets contribute whichever of their positive/negative part pairs
    carries more mass.  "nndsvda" fills the resulting zeros with mean(V),
    "nndsvdar" with uniform draws on [0, mean(V)/100).  No step calls
    BLAS, so the seeds do not depend on the BLAS thread count.
    """
    v = as_matrix(v)
    m, n = v.shape
    if kind not in ("nndsvd", "nndsvda", "nndsvdar"):
        raise SeedError("unknown nndsvd variant %r" % (kind,))
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

    if kind != "nndsvd":
        avg = float(vd.mean())
        if kind == "nndsvda":
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
    w0, h0 = (np.array(x, dtype=np.float64, order="C") for x in (w0, h0))
    for name, x, shape in (("W0", w0, (m, k)), ("H0", h0, (k, n))):
        if x.shape != shape:
            raise SeedError("%s shape %s does not match (%d, %d)"
                            % (name, x.shape, *shape))
    if not (np.all(np.isfinite(w0)) and np.all(np.isfinite(h0))):
        raise SeedError("fixed factors must be finite")
    if (w0.size and w0.min() < 0) or (h0.size and h0.min() < 0):
        raise SeedError("fixed factors must be nonnegative")
    return w0, h0


def seed_factors(v, k: int, spec: SeedSpec, rng: RngStream):
    """Dispatch on spec.kind; every method returns dense nonnegative (W, H)."""
    v = as_matrix(v)
    m, n = v.shape
    kind = spec.kind
    if kind == "random":
        return seed_random(m, n, k, rng, spec.scale)
    if kind in ("random_vcol", "random_c"):
        fraction = spec.dense_fraction if kind == "random_c" else 1.0
        return seed_random_c(v, k, spec.p_cols, spec.p_rows, fraction, rng)
    if kind in ("nndsvd", "nndsvda", "nndsvdar"):
        return seed_nndsvd(v, k, kind, rng)
    if kind == "fixed":
        return seed_fixed(spec.w0, spec.h0, m, n, k)
    raise SeedError("unknown seeding kind %r" % (kind,))
