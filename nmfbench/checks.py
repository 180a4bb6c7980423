"""Correctness checks made outside the program.

Every check recomputes a reported value with numpy/scipy, or tests a
property the method must have.  None compares against a stored copy of an
earlier output.  Each returns a list of problems; an empty list passes.
"""

from __future__ import annotations

import numpy as np

EPS = float(np.finfo(np.float64).eps)
RTOL = 1e-9
MONOTONE_RTOL = 1e-12


def read_mtx(path) -> np.ndarray:
    """A MatrixMarket file as a dense array, read by scipy, not nmfkit."""
    from scipy.io import mmread

    value = mmread(str(path))
    return np.asarray(value.toarray() if hasattr(value, "toarray") else value,
                      dtype=np.float64)


def _rel_problem(name, reported, expected, rtol=RTOL):
    scale = max(abs(reported), abs(expected))
    if not abs(reported - expected) <= rtol * scale:
        return ["%s: reported %.17g, recomputed %.17g" % (name, reported,
                                                          expected)]
    return []


def kl_clamped(v, recon):
    """Generalized KL sum(V ln(V/M) - V + M) with M clamped at eps."""
    recon = np.maximum(recon, EPS)
    pos = v > 0
    return float(np.sum(recon) - np.sum(v)
                 + np.sum(v[pos] * np.log(v[pos] / recon[pos])))


def factors(w, h, shape, rank):
    """W and H are finite, nonnegative and of the expected shapes."""
    problems = []
    m, n = shape
    if w.shape != (m, rank) or h.shape != (rank, n):
        problems.append("factor shapes %s, %s for V %s at rank %d"
                        % (w.shape, h.shape, shape, rank))
    for name, x in (("W", w), ("H", h)):
        if not np.all(np.isfinite(x)):
            problems.append("%s has non-finite entries" % name)
        elif x.size and x.min() < 0:
            problems.append("%s has negative entries (min %g)"
                            % (name, x.min()))
    return problems


def fit_measures(v, recon, reported):
    """rss, evar, Euclidean distance and clamped KL against the report."""
    r = v - recon
    rss = float(np.sum(r * r))
    evar = 1.0 - rss / float(np.sum(v * v))
    problems = _rel_problem("rss", reported["rss"], rss)
    problems += _rel_problem("evar", reported["evar"], evar)
    if "dist_euclidean" in reported:
        problems += _rel_problem("dist_euclidean", reported["dist_euclidean"],
                                 float(np.sqrt(rss)))
    if "dist_kl" in reported:
        problems += _rel_problem("dist_kl", reported["dist_kl"],
                                 kl_clamped(v, recon))
    return problems


def monotone(trace, name="objective"):
    """No step of the objective trace rises by more than 1e-12 relative."""
    t = np.asarray(trace, dtype=np.float64)
    if t.size == 0:
        return ["%s trace is empty" % name]
    if not np.all(np.isfinite(t)):
        return ["%s trace has non-finite values" % name]
    rise = (t[1:] - t[:-1]) / np.maximum(np.abs(t[:-1]), 1e-300)
    if rise.size and rise.max() > MONOTONE_RTOL:
        i = int(np.argmax(rise))
        return ["%s rises by %.3g relative at iteration %d"
                % (name, rise[i], i + 2)]
    return []


def consensus_matrix(c, runs):
    """Symmetric, unit diagonal, entries in [0, 1] and multiples of 1/runs."""
    problems = []
    if not np.array_equal(c, c.T):
        problems.append("consensus is not symmetric")
    if not np.all(np.diag(c) == 1.0):
        problems.append("consensus diagonal is not 1")
    if c.size and (c.min() < 0 or c.max() > 1):
        problems.append("consensus entries leave [0, 1]")
    scaled = c * runs
    if np.max(np.abs(scaled - np.round(scaled))) > 1e-9:
        problems.append("consensus entries are not multiples of 1/%d" % runs)
    return problems


def dispersion(c):
    return float(np.mean(4.0 * (c - 0.5) ** 2))


def sweep_report(report, consensus_by_rank, rss_by_rank, runs):
    """A rank-estimate report against consensus and rss recomputed here."""
    problems = []
    records = report["ranks"]
    if [r["rank"] for r in records] != sorted(consensus_by_rank):
        problems.append("report ranks %s, expected %s"
                        % ([r["rank"] for r in records],
                           sorted(consensus_by_rank)))
        return problems
    for rec in records:
        rank = rec["rank"]
        c = consensus_by_rank[rank]
        problems += ["rank %d: %s" % (rank, p)
                     for p in consensus_matrix(c, runs)]
        problems += _rel_problem("rank %d dispersion" % rank,
                                 rec["dispersion"], dispersion(c))
        problems += _rel_problem("rank %d mean_rss" % rank, rec["mean_rss"],
                                 float(np.mean(rss_by_rank[rank])))
        if not -1.0 <= rec["cophenetic"] <= 1.0:
            problems.append("rank %d: cophenetic %r outside [-1, 1]"
                            % (rank, rec["cophenetic"]))
    best = max(r["cophenetic"] for r in records)
    expected = min(r["rank"] for r in records if r["cophenetic"] == best)
    if report["recommended_rank"] != expected:
        problems.append("recommended rank %r, argmax of cophenetic is %d"
                        % (report["recommended_rank"], expected))
    return problems


def tie_free(c, magnitude=1e-3):
    """c minus a fixed symmetric jitter with zero diagonal.

    Consensus distances are full of ties, and scipy breaks ties otherwise
    than nmfkit's lexicographic rule; with the jitter the dendrogram is
    unique, so the two must agree.  The jitter does not depend on the seed.
    """
    n = c.shape[0]
    u = np.random.default_rng(20181808).uniform(0.0, magnitude, (n, n))
    jitter = np.triu(u, 1)
    return c - (jitter + jitter.T)


def cophenetic_scipy(c):
    """Cophenetic correlation of 1 - c under scipy's average linkage."""
    from scipy.cluster.hierarchy import average, cophenet
    from scipy.spatial.distance import squareform

    d = squareform(1.0 - c, checks=False)
    corr, _ = cophenet(average(d), d)
    return float(corr)


def cophenetic_agrees(program_value, c, atol=1e-9):
    expected = cophenetic_scipy(c)
    if not abs(program_value - expected) <= atol:
        return ["cophenetic %.17g, scipy average linkage gives %.17g"
                % (program_value, expected)]
    return []
