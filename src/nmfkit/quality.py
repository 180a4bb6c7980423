"""Fit diagnostics and clustering-stability measures.

Residual statistics, distances, Hoyer sparseness, entropy-based feature
scores, and the connectivity / consensus / cophenetic / dispersion chain
used for multi-run rank selection.  The consensus of a list of runs is the
mean of their H factors' connectivity matrices (Brunet et al., PNAS 2004).

Degenerate inputs (all-zero columns or rows) produce defined values plus a
Python warning instead of failing, so batch pipelines stay total.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateError, MetricError, RankError, out_of_memory
from .factor import FactorModel, basis_of, objective
from .matcore import as_matrix, frobenius_sq, kl_div, product_on


@dataclass
class FitSummary:
    """The fit measures of a model against V; n_iter stays on the model."""
    rss: float
    evar: float
    dist_euclidean: float
    dist_kl: float
    sparseness_w: float
    sparseness_h: float


def rss(v, model: FactorModel, wh=None) -> float:
    """Residual sum of squares against the model reconstruction; ``wh`` is
    `product_on(v, basis_of(model), model.H)`, formed if not given."""
    return objective(v, model, "euclidean", wh)


def evar(v, model: FactorModel) -> float:
    """Explained variance 1 - rss / sum(V^2)."""
    v = as_matrix(v)
    return _evar_of_rss(v, rss(v, model))


def _evar_of_rss(v, r: float) -> float:
    total = frobenius_sq(v)
    if total == 0.0:
        raise DegenerateError("evar undefined for an all-zero matrix")
    return 1.0 - r / total


def distance(v, model: FactorModel, metric: str) -> float:
    """Euclidean distance sqrt(rss) or generalized KL divergence.

    The KL form is `kl_div`, whose clamp at machine epsilon keeps the
    measure finite when converged factors contain exact zeros.
    """
    v = as_matrix(v)
    if metric == "euclidean":
        return math.sqrt(rss(v, model))
    if metric == "kl":
        return kl_div(v, basis_of(model), model.H)
    raise MetricError("unknown metric %r (expected euclidean or kl)" % (metric,))


def _hoyer(rows):
    """(Hoyer scores (sqrt(n) - l1/l2) / (sqrt(n) - 1), degenerate kind and
    count) of a 2-d array's rows, each reduced as a contiguous 1-d vector."""
    x = np.ascontiguousarray(rows, dtype=np.float64)
    count, size = x.shape
    if size < 2:
        return np.zeros(count), "length-%d" % size, count
    l2 = np.sqrt(np.einsum("ij,ij->i", x, x))
    zero = l2 == 0.0
    rt = math.sqrt(size)
    scores = (rt - abs(x).sum(axis=1) / np.where(zero, 1.0, l2)) / (rt - 1.0)
    scores[zero] = 0.0
    return scores, "all-zero", int(zero.sum())


def sparseness(model: FactorModel, axis: str = "columns"):
    """Mean Hoyer sparseness of W and of H, aggregated over `axis`.  A
    factor with degenerate vectors warns once, with their count."""
    if axis not in ("columns", "rows"):
        raise MetricError("sparseness axis must be 'columns' or 'rows'")
    def agg(mat, name):
        scores, fault, bad = _hoyer(mat.T if axis == "columns" else mat)
        if bad:
            warnings.warn("sparseness: %d %s vectors of %s scored as 0"
                          % (bad, fault, name))
        return float(np.mean(scores))
    return agg(model.W, "W"), agg(model.H, "H")


def feature_scores(w) -> np.ndarray:
    """Specificity of each feature to the basis vectors, in [0, 1].

    score(i) = 1 + (1/log2 k) * sum_q p(i,q) log2 p(i,q) over the row
    profile p; fully specific rows score 1, uniform rows 0.  Zero rows
    score 0 with a warning.
    """
    w = np.asarray(w, dtype=np.float64)
    k = w.shape[1]
    if k < 2:
        raise RankError("feature scores need rank >= 2")
    sums = w.sum(axis=1)
    scores = np.zeros(w.shape[0])
    zero_rows = sums <= 0
    if np.any(zero_rows):
        warnings.warn("feature_scores: %d all-zero rows scored as 0"
                      % int(zero_rows.sum()))
    ok = ~zero_rows
    p = w[ok] / sums[ok, None]
    plogp = np.where(p > 0, p * np.log2(np.where(p > 0, p, 1.0)), 0.0)
    scores[ok] = 1.0 + plogp.sum(axis=1) / math.log2(k)
    return np.clip(scores, 0.0, 1.0)


# -- connectivity and consensus ---------------------------------------------


def connectivity(h) -> np.ndarray:
    """n x n indicator of columns sharing the same dominant basis row."""
    assign = np.argmax(np.asarray(h), axis=0)  # ties: lowest row index
    return (assign[:, None] == assign[None, :]).astype(np.float64)


def consensus(hs) -> np.ndarray:
    """Mean connectivity matrix over a list of H factors, one per run."""
    if len(hs) == 0:
        raise DegenerateError("consensus needs at least one run")
    n = np.shape(hs[0])[1]
    # a 0 start, not np.zeros, made rank sweeps 40% slower under glibc malloc
    return sum((connectivity(h) for h in hs), np.zeros((n, n))) / len(hs)


def dispersion(consensus_matrix) -> float:
    """(1/n^2) sum of 4 (c - 1/2)^2; equals 1 for a crisp 0/1 consensus."""
    c = np.asarray(consensus_matrix, dtype=np.float64)
    return float(np.mean(4.0 * (c - 0.5) ** 2))


def _average_linkage_cophenetic(dist: np.ndarray) -> np.ndarray:
    """Cophenetic distances from average-linkage agglomeration of `dist`.

    Ties in merge distances resolve to the lexicographically smallest pair
    of cluster indices, so the dendrogram is deterministic.  Clusters are
    numbered 0..n-1 for the samples and n, n+1, ... for merges in creation
    order.  The active distance matrix is symmetric with +inf on its
    diagonal and keeps its rows in id order, so its first minimum in
    row-major order lies above the diagonal and is that smallest pair.
    Only the upper triangle of `dist` is read.
    """
    n = dist.shape[0]
    coph = np.zeros((n, n))
    d = np.triu(dist, 1)
    d = d + d.T
    np.fill_diagonal(d, np.inf)
    members = [[i] for i in range(n)]
    while len(members) > 1:
        a, b = divmod(int(np.argmin(d)), len(members))
        best = d[a, b]
        ma, mb = members[a], members[b]
        coph[np.ix_(ma, mb)] = best
        coph[np.ix_(mb, ma)] = best
        rest = [c for c in range(len(members)) if c != a and c != b]
        merged = ((len(ma) * d[a, rest] + len(mb) * d[b, rest])
                  / (len(ma) + len(mb)))
        k = len(rest)
        nd = np.empty((k + 1, k + 1))
        nd[:k, :k] = d[np.ix_(rest, rest)]
        nd[k, :k] = merged
        nd[:k, k] = merged
        nd[k, k] = np.inf
        d = nd
        members = [members[c] for c in rest] + [ma + mb]
    return coph


def cophenetic(consensus_matrix) -> float:
    """Cophenetic correlation of the consensus-derived distances.

    Pearson correlation between the upper triangle of 1 - consensus and
    the cophenetic distances of its average-linkage dendrogram.  When
    either side has zero variance (perfectly crisp consensus), returns 1.0
    if the two distance sets coincide and 0.0 otherwise.
    """
    c = np.asarray(consensus_matrix, dtype=np.float64)
    n = c.shape[0]
    if n < 3:
        raise DegenerateError("cophenetic correlation needs n >= 3 samples")
    dist = 1.0 - c
    coph = _average_linkage_cophenetic(dist)
    iu = np.triu_indices(n, 1)
    x = dist[iu]
    y = coph[iu]
    sx, sy = float(x.std()), float(y.std())
    if sx < 1e-15 or sy < 1e-15:
        return 1.0 if np.allclose(x, y, atol=1e-12) else 0.0
    return float(np.corrcoef(x, y)[0, 1])


def fit_summary(v, model: FactorModel, sparseness_axis: str = "columns") -> FitSummary:
    """All scalar diagnostics of a fitted model against its input; running
    out of memory raises OutOfMemoryError."""
    v = as_matrix(v)
    with out_of_memory("measuring a rank-%d fit of a %dx%d matrix"
                       % (model.W.shape[1], v.rows, v.cols)):
        basis = basis_of(model)
        wh = product_on(v, basis, model.H)  # shared by both distances
        r = rss(v, model, wh)
        sp_w, sp_h = sparseness(model, axis=sparseness_axis)
        return FitSummary(
            rss=r,
            evar=_evar_of_rss(v, r),
            dist_euclidean=math.sqrt(r),
            dist_kl=kl_div(v, basis, model.H, wh),
            sparseness_w=sp_w,
            sparseness_h=sp_h)
