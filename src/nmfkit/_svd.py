"""One-sided Jacobi singular value decomposition, preconditioned by QR.

Self-contained SVD for the seeding path, after Drmač & Veselić ("New fast
and accurate Jacobi SVD algorithm I", SIAM J. Matrix Anal. Appl. 29(4),
2008).  A column-pivoted Householder QR factors A P = Q R; Jacobi rotations
then orthogonalize the columns of the n x n matrix Rᵀ, which the pivoting
has graded, so fewer sweeps are needed than on A.  Each sweep visits every
column pair once in the round-robin (parallel) ordering of Brent & Luk:
n - 1 rounds of disjoint pairs, each rotated at once on rows of a working
array that holds one column per row.  The QR and the rotations are
elementwise numpy (`einsum`, `np.multiply.outer`) with no BLAS or LAPACK
call, so the result does not depend on the BLAS library or its thread
count, and the routine is fully deterministic.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import NumericError

# a pair (p, q) is orthogonal once apq^2 <= (REL_TOL^2) app aqq
REL_TOL, MAX_SWEEPS = 1e-14, 60


@functools.lru_cache(maxsize=16)
def _round_robin(n: int):
    """(rounds, pairs) index arrays p < q: every pair once per sweep.

    The circle method: slot 0 stays, the others rotate one place per round.
    An odd n gets a dummy index n, and the pairs containing it are dropped.
    Cached for the last 16 n; the arrays are shared, so callers must not
    modify them.
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


def _pivoted_qr(a):
    """(perm, r, ws): A[:, perm] = Q R, R n x n upper triangular.

    Step j takes the column of largest remaining norm (the first on ties)
    and reflects rows j: by H_j = I - 2 w wᵀ, w = ws[j]; Q = H_0 ... H_{n-1}.
    A column that is exactly zero below row j gets w = 0, the identity.
    """
    n = a.shape[1]
    at = np.array(a.T)  # row j is column j of A
    perm = np.arange(n)
    ws = []
    for j in range(n):
        tail = at[j:, j:]
        piv = j + int(np.argmax(np.einsum("ij,ij->i", tail, tail)))
        at[[j, piv]] = at[[piv, j]]
        perm[[j, piv]] = perm[[piv, j]]
        x = at[j, j:]
        alpha = -np.copysign(np.sqrt(np.einsum("i,i->", x, x)), x[0])
        w = x.copy()
        w[0] -= alpha
        w /= np.sqrt(np.einsum("i,i->", w, w)) or 1.0
        rest = at[j + 1:, j:]
        rest -= np.multiply.outer(2.0 * np.einsum("ij,j->i", rest, w), w)
        x[0], x[1:] = alpha, 0.0
        ws.append(w)
    return perm, at[:, :n].T, ws


def jacobi_svd(a):
    """Full SVD of a dense matrix: returns (u, s, vt) with s descending.

    u is m x r, s has length r, vt is r x n, with r = min(m, n).  For
    m >= n: A P = Q R, the rotations J make the columns of G = Rᵀ J
    orthogonal, and A = (Q J) Σ (P X)ᵀ with Σ G's column norms and
    X = G Σ⁻¹.  So u = Q J is orthonormal, and where σ = 0 the row of vt
    is zero.  For m < n the SVD of Aᵀ is transposed: a column of u is zero.
    Raises NumericError if MAX_SWEEPS rotation sweeps do not converge.
    """
    a = np.asarray(a, dtype=np.float64)
    m, n = a.shape
    if m < n:
        vt, s, ut = jacobi_svd(a.T)
        return ut.T, s, vt.T

    perm, r, ws = _pivoted_qr(a)
    # row i holds column i of G (:n) and column i of J (n:)
    x = np.hstack([r, np.eye(n)])
    tol2 = REL_TOL * REL_TOL
    rounds_p, rounds_q = _round_robin(n)
    for _ in range(MAX_SWEEPS):
        rotated = False
        for p, q in zip(rounds_p, rounds_q):
            xp, xq = x.take(p, 0), x.take(q, 0)
            gp, gq = xp[:, :n], xq[:, :n]
            app = np.einsum("ij,ij->i", gp, gp)
            aqq = np.einsum("ij,ij->i", gq, gq)
            apq = np.einsum("ij,ij->i", gp, gq)
            rot = ~(apq * apq <= tol2 * app * aqq)  # skips apq = 0 too
            k = np.count_nonzero(rot)
            if k == 0:
                continue
            rotated = True
            if k < len(rot):  # the converged pairs keep their rows
                p, q, xp, xq = p[rot], q[rot], xp[rot], xq[rot]
                app, aqq, apq = app[rot], aqq[rot], apq[rot]
            zeta = (aqq - app) / (2.0 * apq)
            t = np.sign(zeta) / (np.abs(zeta) + np.hypot(1.0, zeta))
            t[zeta == 0.0] = 1.0
            c = 1.0 / np.hypot(1.0, t)
            c, s_ = c[:, None], (c * t)[:, None]
            x[p] = c * xp - s_ * xq
            x[q] = s_ * xp + c * xq
        if not rotated:
            break
    else:
        raise NumericError("svd: Jacobi sweeps did not converge")

    sigma = np.sqrt(np.einsum("ij,ij->i", x[:, :n], x[:, :n]))
    order = np.argsort(-sigma, kind="stable")
    sigma = sigma[order]
    x = x[order]
    nz = sigma > 0
    vt = np.zeros((n, n))
    vt[np.ix_(nz, perm)] = x[nz, :n] / sigma[nz, None]
    u = np.zeros((m, n))  # Q J: J padded with zero rows, H_{n-1} first
    u[:n] = x[:, n:].T
    for j, w in reversed(list(enumerate(ws))):
        u[j:] -= np.multiply.outer(w, 2.0 * np.einsum("i,ij->j", w, u[j:]))
    return u, sigma, vt
