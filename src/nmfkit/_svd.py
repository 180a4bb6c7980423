"""One-sided Jacobi singular value decomposition.

Self-contained SVD for the seeding path.  Jacobi rotations orthogonalize the
columns of a working copy of the matrix; at convergence the column norms are
the singular values.  Each sweep visits every column pair once in the
round-robin (parallel) ordering of Brent & Luk: n - 1 rounds of disjoint
pairs, so a whole round is rotated at once with array operations.  The
kernel is elementwise numpy (no BLAS call), so its result does not depend on
the BLAS library or its thread count, and the routine is fully
deterministic.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError


def _round_robin(n: int):
    """(rounds, pairs) index arrays p < q: every pair once per sweep.

    The circle method: slot 0 stays, the others rotate one place per round.
    An odd n gets a dummy index n, and the pairs containing it are dropped.
    """
    slots = list(range(n + n % 2))
    half = len(slots) // 2
    ps, qs = [], []
    for _ in range(len(slots) - 1):
        pairs = [(min(a, b), max(a, b))
                 for a, b in zip(slots[:half], slots[::-1]) if max(a, b) < n]
        ps.append([p for p, _ in pairs])
        qs.append([q for _, q in pairs])
        slots = [slots[0], slots[-1]] + slots[1:-1]
    return np.array(ps, dtype=np.intp), np.array(qs, dtype=np.intp)


def jacobi_svd(a, max_sweeps: int = 60, rel_tol: float = 1e-14):
    """Full SVD of a dense matrix: returns (u, s, vt) with s descending.

    u is m x r, s has length r, vt is r x n, with r = min(m, n).
    Raises NumericError if the rotation sweeps fail to converge.
    """
    a = np.asarray(a, dtype=np.float64)
    m, n = a.shape
    if m < n:
        vt, s, ut = jacobi_svd(a.T, max_sweeps, rel_tol)
        return ut.T, s, vt.T

    # the columns of g (rows :m) and of v (rows m:) rotate together
    gv = np.vstack([a, np.eye(n)])
    tol2 = rel_tol * rel_tol
    rounds_p, rounds_q = _round_robin(n)
    for _ in range(max_sweeps):
        rotated = False
        for p, q in zip(rounds_p, rounds_q):
            xp = gv[:, p]
            xq = gv[:, q]
            gp, gq = xp[:m], xq[:m]
            app = np.einsum("ij,ij->j", gp, gp)
            aqq = np.einsum("ij,ij->j", gq, gq)
            apq = np.einsum("ij,ij->j", gp, gq)
            skip = (apq == 0.0) | (apq * apq <= tol2 * app * aqq)
            if skip.all():
                continue
            rotated = True
            # skipped pairs get the identity rotation (c, s) = (1, 0)
            zeta = (aqq - app) / (2.0 * np.where(skip, 1.0, apq))
            t = np.sign(zeta) / (np.abs(zeta) + np.hypot(1.0, zeta))
            t[zeta == 0.0] = 1.0
            c = np.where(skip, 1.0, 1.0 / np.hypot(1.0, t))
            s_ = np.where(skip, 0.0, c * t)
            gv[:, p] = c * xp - s_ * xq
            gv[:, q] = s_ * xp + c * xq
        if not rotated:
            break
    else:
        raise NumericError("svd: Jacobi sweeps did not converge")

    g, v = gv[:m], gv[m:]
    sigma = np.sqrt(np.sum(g * g, axis=0))
    order = np.argsort(-sigma, kind="stable")
    sigma = sigma[order]
    g = g[:, order]
    v = v[:, order]
    u = np.zeros_like(g)
    nz = sigma > 0
    u[:, nz] = g[:, nz] / sigma[nz]
    return u, sigma, v.T
