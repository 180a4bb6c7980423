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
from .factor import FactorModel, objective, reconstruct
from .matcore import EPS, as_matrix, frobenius_sq, kl_div


@dataclass
class FitSummary:
    """The fit measures of a model against V; n_iter stays on the model."""
    rss: float
    evar: float
    dist_euclidean: float
    dist_kl: float
    sparseness_w: float
    sparseness_h: float


def rss(v, model: FactorModel) -> float:
    """Residual sum of squares against the model reconstruction."""
    return objective(v, model, "euclidean")


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

    The KL form clamps the reconstruction at machine epsilon, keeping the
    measure finite when converged factors contain exact zeros; for a CSR V
    it is `objective`'s, at most EPS per zero of V below the dense value.
    """
    v = as_matrix(v)
    if metric == "euclidean":
        return math.sqrt(rss(v, model))
    if metric == "kl":
        return (objective(v, model, "kl") if v.is_sparse
                else kl_div(v, reconstruct(model), eps=EPS))
    raise MetricError("unknown metric %r (expected euclidean or kl)" % (metric,))


def sparseness_vector(x) -> float:
    """Hoyer sparseness (sqrt(n) - l1/l2) / (sqrt(n) - 1) in [0, 1].

    Defined for vectors of length >= 2; degenerate vectors (length one,
    or all zeros) score 0 with a warning so batch summaries stay total.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    if x.size < 2:
        warnings.warn("sparseness: length-%d vector scored as 0" % x.size)
        return 0.0
    l2 = math.sqrt(frobenius_sq(x))
    if l2 == 0.0:
        warnings.warn("sparseness: all-zero vector scored as 0")
        return 0.0
    l1 = float(np.sum(np.abs(x)))
    rt = math.sqrt(x.size)
    return (rt - l1 / l2) / (rt - 1.0)


def sparseness(model: FactorModel, axis: str = "columns"):
    """Mean Hoyer sparseness of W and of H, aggregated over `axis`."""
    if axis not in ("columns", "rows"):
        raise MetricError("sparseness axis must be 'columns' or 'rows'")
    def agg(mat):
        vecs = mat.T if axis == "columns" else mat
        return float(np.mean([sparseness_vector(row) for row in vecs]))
    return agg(model.W), agg(model.H)


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


def select_features(scores, n_std: float = 3.0) -> np.ndarray:
    """Indices whose score exceeds mean + n_std * standard deviation."""
    scores = np.asarray(scores, dtype=np.float64)
    return np.flatnonzero(scores > scores.mean() + n_std * scores.std())


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
        r = rss(v, model)
        sp_w, sp_h = sparseness(model, axis=sparseness_axis)
        return FitSummary(
            rss=r,
            evar=_evar_of_rss(v, r),
            dist_euclidean=math.sqrt(r),
            dist_kl=distance(v, model, "kl"),
            sparseness_w=sp_w,
            sparseness_h=sp_h)
