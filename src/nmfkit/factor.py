"""The optimization engine: per-method iterate loops and stopping rules.

Method identifiers (stable, lowercase):

  nmf-eu   multiplicative updates, Euclidean cost
  nmf-kl   multiplicative updates, generalized Kullback-Leibler cost
  lsnmf    alternating least squares via projected-gradient subproblems
  snmf-l   sparsity-penalized alternating NNLS (sparse W)
  snmf-r   sparsity-penalized alternating NNLS (sparse H)
  nsnmf    nonsmooth KL model with smoothing matrix S(theta)
  bmf      binary factorization via penalty-term multiplicative updates
  bd       Gibbs sampler with rectified-normal conditionals
  icm      iterated conditional modes (deterministic MAP-style variant)

Every alternating method updates H first, then W.  A run is fully
deterministic given the config, including its master seed.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field

import numpy as np

from .errors import (DomainError, MethodError, ParamError, RankError)
from .matcore import (EPS, DataMatrix, RngStream, as_matrix, frobenius_sq,
                      kl_div, kl_div_product, matmul, safe_divide,
                      safe_divide_product)
from .seeding import SeedSpec, seed_factors

METHODS = ("nmf-eu", "nmf-kl", "lsnmf", "snmf-l", "snmf-r", "nsnmf",
           "bmf", "bd", "icm")

BMF_LAMBDA_CAP = 1e7
SIGMA2_FLOOR = 1e-12

# -- configuration and results -------------------------------------------------


@dataclass
class ParamSet:
    """Method-specific parameters with the package defaults.

    eta defaults to (max entry of V)^2, resolved when the run starts;
    burn_in defaults to half of max_iter.
    """

    theta: float = 0.5
    eta: float | None = None
    beta: float = 1e-4
    lambda0: float = 1.1
    lambda_growth: float = 10.0
    lambda_period: int = 100
    alpha_rate: float = 0.0
    beta_rate: float = 0.0
    sigma_shape: float = 0.0
    sigma_scale: float = 0.0
    burn_in: int | None = None
    pg_tol: float = 1e-4
    inner_max_iter: int = 20
    armijo_beta: float = 0.1
    armijo_sigma: float = 0.01


@dataclass
class FactorConfig:
    method: str
    rank: int
    seed: SeedSpec = field(default_factory=SeedSpec)
    max_iter: int = 200
    min_residual_delta: float = 1e-5
    conn_change: int = 30
    track_error: bool = False
    track_factors: int = 0
    master_seed: int = 0
    params: ParamSet = field(default_factory=ParamSet)


@dataclass
class FactorModel:
    W: np.ndarray
    H: np.ndarray
    method: str
    theta: float | None
    n_iter: int
    final_objective: float
    objective_kind: str


@dataclass
class RunTrace:
    objective_per_iter: list
    factor_snapshots: list | None = None


def reconstruct(model: FactorModel) -> np.ndarray:
    """Model reconstruction of V: W H, or W S(theta) H for nsnmf."""
    if model.theta is not None:
        s = nsnmf_smoothing(model.theta, model.W.shape[1])
        return model.W @ s @ model.H
    return model.W @ model.H


def objective(v, model: FactorModel, kind: str) -> float:
    """Euclidean (squared Frobenius residual) or KL objective of a model.

    The KL form clamps the reconstruction at machine epsilon so that exact
    zeros in the factors keep the value finite.  For a CSR V the KL form
    works on V's stored entries without forming the reconstruction
    (`kl_div_product`); it drops the clamp where V is zero, so it can read
    below the dense value by at most EPS per zero entry of V.
    """
    v = as_matrix(v)
    if kind == "kl" and v.is_sparse:
        basis = model.W
        if model.theta is not None:
            basis = basis @ nsnmf_smoothing(model.theta, basis.shape[1])
        return kl_div_product(v, basis, model.H, eps=EPS)
    recon = reconstruct(model)
    if kind == "euclidean":
        return float(frobenius_sq(v.dense_view() - recon))
    if kind == "kl":
        return kl_div(v, recon, eps=EPS)
    raise ParamError("unknown objective kind %r" % (kind,))


# -- multiplicative updates ----------------------------------------------------


def mu_eu_step(v, w, h):
    """One Lee-Seung Euclidean update: H then W, divisions stabilized."""
    v = as_matrix(v)
    h = h * safe_divide(matmul(w.T, v), (w.T @ w) @ h)
    w = w * safe_divide(matmul(v, h.T), w @ (h @ h.T))
    return w, h


def _kl_update_h(v, basis, h):
    ratio = safe_divide_product(v, basis, h)
    num = matmul(basis.T, ratio)
    return h * num / (basis.sum(axis=0)[:, None] + EPS)


def _kl_update_w(v, w, mixture):
    ratio = safe_divide_product(v, w, mixture)
    num = matmul(ratio, mixture.T)
    return w * num / (mixture.sum(axis=1)[None, :] + EPS)


def mu_kl_step(v, w, h):
    """One Lee-Seung KL update: H then W."""
    v = as_matrix(v)
    h = _kl_update_h(v, w, h)
    w = _kl_update_w(v, w, h)
    return w, h


def nsnmf_smoothing(theta: float, k: int) -> np.ndarray:
    """S(theta) = (1 - theta) I + (theta / k) * ones; rows sum to one."""
    if not 0.0 <= theta <= 1.0:
        raise ParamError("theta must lie in [0, 1]")
    if k < 1:
        raise ParamError("smoothing matrix needs k >= 1")
    return (1.0 - theta) * np.eye(k) + (theta / k) * np.ones((k, k))


def nsnmf_iterate(v, w, h, theta: float):
    """KL updates against the smoothed model: H sees W S, W sees S H."""
    v = as_matrix(v)
    s = nsnmf_smoothing(theta, w.shape[1])
    h = _kl_update_h(v, w @ s, h)
    w = _kl_update_w(v, w, s @ h)
    return w, h


def bmf_iterate(v, w, h, lam: float):
    """Penalty-term multiplicative update driving entries toward {0, 1}."""
    v = as_matrix(v)
    num_h = matmul(w.T, v) + 3.0 * lam * h * h
    den_h = (w.T @ w) @ h + 2.0 * lam * h ** 3 + lam * h
    h = h * (num_h / (den_h + EPS))
    num_w = matmul(v, h.T) + 3.0 * lam * w * w
    den_w = w @ (h @ h.T) + 2.0 * lam * w ** 3 + lam * w
    w = w * (num_w / (den_w + EPS))
    return w, h


def bmf_objective(v, w, h, lam: float) -> float:
    res = frobenius_sq(as_matrix(v).dense_view() - w @ h)
    pen_h = float(np.sum((h * (1.0 - h)) ** 2))
    pen_w = float(np.sum((w * (1.0 - w)) ** 2))
    return res + lam * (pen_h + pen_w)


# -- projected-gradient NNLS ----------------------------------------------------


def _pg_nnls_gram(ata, atb, x0, tol, max_iter, armijo_beta, armijo_sigma):
    """min_{X>=0} ||A X - B||_F^2 given the Gram products AtA and AtB.

    Projected gradient with Armijo search along the projection arc: each
    iteration accepts the largest step on the alpha0 * beta^t grid (t may
    be negative) that satisfies the sufficient-decrease test, carrying the
    accepted step into the next iteration.  The test uses the exact
    quadratic expansion, so no objective values are ever formed.  Returns
    (X, inner iterations used); a count of 1 means the start point already
    satisfied the tolerance.
    """
    x = np.array(x0, dtype=np.float64, copy=True)
    alpha = 1.0
    it = 0

    def decrease_ok(xn):
        # f(Xn) - f(X) = <grad, d> + d' AtA d  <=  sigma <grad, d>
        d = xn - x
        gd = float(np.sum(grad * d))
        dqd = float(np.sum(d * (ata @ d)))
        return (1.0 - armijo_sigma) * gd + dqd <= 0.0

    for it in range(1, max_iter + 1):
        grad = 2.0 * (ata @ x - atb)
        pg = np.where(x > 0, grad, np.minimum(grad, 0.0))
        if math.sqrt(float(np.dot(pg.ravel(), pg.ravel()))) <= tol:
            return x, it
        xn = np.maximum(x - alpha * grad, 0.0)
        if decrease_ok(xn):
            # grow while the larger step still decreases enough
            for _ in range(20):
                bigger = alpha / armijo_beta
                xb = np.maximum(x - bigger * grad, 0.0)
                if np.array_equal(xb, xn) or not decrease_ok(xb):
                    break
                alpha, xn = bigger, xb
            x = xn
            continue
        moved = False
        for _ in range(50):
            alpha *= armijo_beta
            xn = np.maximum(x - alpha * grad, 0.0)
            if decrease_ok(xn):
                x = xn
                moved = True
                break
        if not moved:
            # step size underflowed: numerically at a stationary point
            return x, it
    return x, it


def pg_nnls(a, b, x0, tol, inner_max_iter=1000, armijo_beta=0.1,
            armijo_sigma=0.01):
    """Solve min_{X>=0} ||A X - B||_F^2 from X0 by projected gradient.

    Stops when the projected-gradient norm drops to tol or after
    inner_max_iter iterations.  Either of A, B may be CSR.
    """
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape[0] != b.shape[0]:
        raise ParamError("pg_nnls: A and B row counts differ")
    ad = a.dense_view()
    ata = ad.T @ ad
    atb = matmul(ad.T, b)
    x, _ = _pg_nnls_gram(ata, atb, x0, tol, inner_max_iter,
                         armijo_beta, armijo_sigma)
    return x


@dataclass
class AlternatingState:
    """Adaptive subproblem tolerances for lsnmf / snmf outer loops."""

    tol_w: float
    tol_h: float


def _initial_subproblem_tol(v, w, h, pg_tol):
    vd = as_matrix(v)
    grad_w = 2.0 * (w @ (h @ h.T) - matmul(vd, h.T))
    grad_h = 2.0 * ((w.T @ w) @ h - matmul(w.T, vd))
    init = math.sqrt(frobenius_sq(grad_w) + frobenius_sq(grad_h))
    tol = max(1e-3, pg_tol) * init
    return AlternatingState(tol_w=tol, tol_h=tol)


def lsnmf_iterate(v, w, h, params: ParamSet, state: AlternatingState):
    """One outer alternation of Lin's projected-gradient NMF.

    Each subproblem that terminates on its first inner iteration tightens
    its tolerance by a factor of 10 for the following outer iterations.
    """
    v = as_matrix(v)
    ata = w.T @ w
    atb = matmul(w.T, v)
    h, used = _pg_nnls_gram(ata, atb, h, state.tol_h, params.inner_max_iter,
                            params.armijo_beta, params.armijo_sigma)
    if used == 1:
        state.tol_h *= 0.1
    ata = h @ h.T
    atb = matmul(v, h.T).T
    wt, used = _pg_nnls_gram(ata, atb, w.T, state.tol_w,
                             params.inner_max_iter, params.armijo_beta,
                             params.armijo_sigma)
    if used == 1:
        state.tol_w *= 0.1
    return wt.T.copy(), h


def snmf_iterate(v, w, h, side: str, eta: float, beta: float,
                 params: ParamSet = None, state: AlternatingState = None):
    """One alternation of the sparsity-penalized NNLS factorization.

    Side "r" makes H sparse: H solves the system stacked with a sqrt(beta)
    row of ones (penalizing squared column sums of H) while W gets a
    sqrt(eta) ridge.  Side "l" mirrors the two roles.  The stacked systems
    are solved through their Gram form with the projected-gradient solver.
    """
    if side not in ("l", "r"):
        raise ParamError("snmf side must be 'l' or 'r'")
    if eta < 0 or beta < 0:
        raise ParamError("snmf penalties must be nonnegative")
    v = as_matrix(v)
    if params is None:
        params = ParamSet()
    if state is None:
        state = _initial_subproblem_tol(v, w, h, params.pg_tol)
    k = w.shape[1]
    ones_kk = np.ones((k, k))
    eye_k = np.eye(k)

    # H subproblem
    ata = w.T @ w + (beta * ones_kk if side == "r" else eta * eye_k)
    atb = matmul(w.T, v)
    h, used = _pg_nnls_gram(ata, atb, h, state.tol_h, params.inner_max_iter,
                            params.armijo_beta, params.armijo_sigma)
    if used == 1:
        state.tol_h *= 0.1

    # W subproblem (on W transposed)
    ata = h @ h.T + (eta * eye_k if side == "r" else beta * ones_kk)
    atb = matmul(v, h.T).T
    wt, used = _pg_nnls_gram(ata, atb, w.T, state.tol_w,
                             params.inner_max_iter, params.armijo_beta,
                             params.armijo_sigma)
    if used == 1:
        state.tol_w *= 0.1
    return wt.T.copy(), h


def snmf_objective(v, w, h, side: str, eta: float, beta: float) -> float:
    res = frobenius_sq(as_matrix(v).dense_view() - w @ h)
    if side == "r":
        return res + eta * frobenius_sq(w) + beta * float(np.sum(h.sum(axis=0) ** 2))
    return res + eta * frobenius_sq(h) + beta * float(np.sum(w.sum(axis=1) ** 2))


# -- Bayesian sampler and ICM ----------------------------------------------------


# exact scalar erfc and normal quantile, applied elementwise
_erfc = np.frompyfunc(math.erfc, 1, 1)
_normal_quantile = np.frompyfunc(statistics.NormalDist().inv_cdf, 1, 1)


def sample_rectified_normal(mu, var: float, rng: RngStream):
    """Draw from N(mu, var) conditioned on being nonnegative.

    Inverse-CDF on the truncated interval, with the tail-stable branch
    chosen by the sign of mu.  mu may be a scalar (returns a float) or an
    array (one draw per entry, in index order, from one block of uniforms).
    """
    if var <= 0:
        raise ParamError("rectified normal needs positive variance")
    sd = math.sqrt(var)
    mu = np.asarray(mu, dtype=np.float64)
    u = rng.random(size=mu.shape)
    upper = mu >= 0
    # P(X < 0) = Phi(-mu/sd) on the upper branch, the tail Phi(mu/sd) below
    z = np.where(upper, mu, -mu) / sd / math.sqrt(2.0)
    cdf = 0.5 * np.asarray(_erfc(z), dtype=np.float64)
    p = np.where(upper, cdf + u * (1.0 - cdf), (1.0 - u) * cdf)
    q = np.asarray(_normal_quantile(np.minimum(np.maximum(p, 5e-324),
                                            1.0 - 1e-16)), dtype=np.float64)
    x = mu + np.where(upper, sd, -sd) * q
    x = np.where(0.0 > x, 0.0, x)  # max(x, 0.0), NaN and -0.0 included
    return float(x) if x.ndim == 0 else x


def _gibbs_factor_sweep(w, gram, cross, sigma2, rate, rng, mode_only):
    """Sample (or take modes of) the columns of w against gram/cross.

    gram is H H' (k x k), cross is V H' (m x k); entries within a column are
    conditionally independent and are drawn together, in index order.
    """
    k = gram.shape[0]
    for a in range(k):
        caa = float(gram[a, a])
        if caa <= 0:
            continue  # degenerate basis column: leave values unchanged
        mean = (cross[:, a] - w @ gram[:, a] + w[:, a] * caa
                - sigma2 * rate) / caa
        if mode_only:
            w[:, a] = np.maximum(mean, 0.0)
        else:
            w[:, a] = sample_rectified_normal(mean, sigma2 / caa, rng)
    return w


def bd_gibbs_step(v, w, h, sigma2, priors: ParamSet, rng: RngStream):
    """One Gibbs sweep: rectified-normal columns of W, rows of H, then
    an inverse-gamma draw for the noise variance."""
    v = as_matrix(v)
    m, n = v.shape
    w = w.copy()
    h = h.copy()
    w = _gibbs_factor_sweep(w, h @ h.T, matmul(v, h.T), sigma2,
                            priors.alpha_rate, rng, mode_only=False)
    ht = _gibbs_factor_sweep(h.T.copy(), w.T @ w, matmul(w.T, v).T, sigma2,
                             priors.beta_rate, rng, mode_only=False)
    h = ht.T.copy()
    resid = frobenius_sq(v.dense_view() - w @ h)
    shape = m * n / 2.0 + 1.0 + priors.sigma_shape
    scale = resid / 2.0 + priors.sigma_scale
    sigma2 = max(scale / float(rng.gamma(shape)), SIGMA2_FLOOR)
    return w, h, sigma2


def icm_step(v, w, h, sigma2, priors: ParamSet):
    """Iterated conditional modes: same conditionals as the Gibbs sweep but
    every draw replaced by the mode; fully deterministic."""
    v = as_matrix(v)
    m, n = v.shape
    w = w.copy()
    h = h.copy()
    w = _gibbs_factor_sweep(w, h @ h.T, matmul(v, h.T), sigma2,
                            priors.alpha_rate, None, mode_only=True)
    ht = _gibbs_factor_sweep(h.T.copy(), w.T @ w, matmul(w.T, v).T, sigma2,
                             priors.beta_rate, None, mode_only=True)
    h = ht.T.copy()
    resid = frobenius_sq(v.dense_view() - w @ h)
    sigma2 = (resid / 2.0 + priors.sigma_scale) / (m * n / 2.0
                                                   + priors.sigma_shape + 1.0)
    return w, h, max(sigma2, SIGMA2_FLOOR)


# -- stopping -------------------------------------------------------------------


def connectivity_stop(h_now, prev_assignments, unchanged_count, conn_change):
    """Track cluster assignments of H's columns for the connectivity rule.

    Returns (stop, assignments, count).  The count increments while the
    argmax row of every column stays put and resets on any change; stop
    fires once it reaches conn_change.
    """
    assign = np.argmax(h_now, axis=0)  # ties resolve to the lowest row
    if prev_assignments is not None and np.array_equal(assign, prev_assignments):
        count = unchanged_count + 1
    else:
        count = 0
    return count >= conn_change, assign, count


# -- the driver -------------------------------------------------------------------


def _validate_config(v: DataMatrix, config: FactorConfig):
    if config.method not in METHODS:
        raise MethodError("unknown method %r (expected one of %s)"
                          % (config.method, ", ".join(METHODS)))
    m, n = v.shape
    if not 1 <= config.rank <= min(m, n):
        raise RankError("rank %d out of range [1, %d]"
                        % (config.rank, min(m, n)))
    if config.max_iter < 1:
        raise ParamError("max_iter must be at least 1")
    if config.min_residual_delta < 0:
        raise ParamError("min_residual_delta must be nonnegative")
    if config.method == "bmf":
        vals = v.data if v.is_sparse else v.dense_view()
        if vals.size and float(np.max(vals)) > 1.0:
            raise DomainError("bmf requires V scaled into [0, 1]")


def _max_entry(v: DataMatrix) -> float:
    vals = v.data if v.is_sparse else v.dense_view()
    return float(np.max(vals)) if vals.size else 0.0


def factorize(v, config: FactorConfig):
    """Seed, iterate until a stopping rule fires, and package the result.

    Stopping: max_iter; relative objective improvement below
    min_residual_delta (not tested on a bmf iteration whose lambda differs
    from the previous one's, nor on an lsnmf/snmf iteration that left W and
    H unchanged to tighten its subproblem tolerances); or the column-cluster
    assignment of H unchanged for conn_change consecutive iterations (when
    conn_change > 0).
    The Gibbs sampler ignores the two early-stopping rules and always runs
    max_iter sweeps, since its objective trace is stochastic rather than
    descending.
    """
    v = as_matrix(v)
    v.require_model_input("V")
    _validate_config(v, config)
    params = config.params
    rng = RngStream(config.master_seed)
    w, h = seed_factors(v, config.rank, config.seed, rng)

    method = config.method
    theta = None
    lam_of = None
    state = None
    sigma2 = None
    bd_accum = None
    eta = params.eta if params.eta is not None else _max_entry(v) ** 2

    if method in ("nmf-eu", "lsnmf"):
        kind = "euclidean"
    elif method in ("nmf-kl", "nsnmf"):
        kind = "kl"
    elif method in ("snmf-l", "snmf-r", "bmf"):
        kind = "penalized"
    else:
        kind = "euclidean"

    if method == "nsnmf":
        theta = params.theta
        nsnmf_smoothing(theta, config.rank)  # validate range up front
    if method in ("lsnmf", "snmf-l", "snmf-r"):
        state = _initial_subproblem_tol(v, w, h, params.pg_tol)
    if method == "bmf":
        if params.lambda0 <= 0 or params.lambda_growth < 1 or params.lambda_period < 1:
            raise ParamError("invalid bmf lambda schedule")
        lam_of = lambda it: min(
            params.lambda0 * params.lambda_growth ** ((it - 1) // params.lambda_period),
            BMF_LAMBDA_CAP)
    if method in ("bd", "icm"):
        sigma2 = max(frobenius_sq(v.dense_view() - w @ h) / (v.rows * v.cols),
                     SIGMA2_FLOOR)
        if method == "bd":
            burn_in = params.burn_in if params.burn_in is not None \
                else config.max_iter // 2
            bd_accum = {"w": np.zeros_like(w), "h": np.zeros_like(h),
                        "count": 0, "burn_in": burn_in}

    def current_objective(it):
        if method == "bmf":
            return bmf_objective(v, w, h, lam_of(max(it, 1)))
        if method in ("snmf-l", "snmf-r"):
            return snmf_objective(v, w, h, method[-1], eta, params.beta)
        model = FactorModel(w, h, method, theta, it, 0.0, kind)
        return objective(v, model, "kl" if kind == "kl" else "euclidean")

    obj_prev = current_objective(0)
    trace_obj = []
    snapshots = [] if config.track_factors else None
    assign = np.argmax(h, axis=0)
    conn_count = 0
    n_iter = 0
    obj = obj_prev

    for it in range(1, config.max_iter + 1):
        tols = (state.tol_h, state.tol_w) if state is not None else None
        if method == "nmf-eu":
            w, h = mu_eu_step(v, w, h)
        elif method == "nmf-kl":
            w, h = mu_kl_step(v, w, h)
        elif method == "nsnmf":
            w, h = nsnmf_iterate(v, w, h, theta)
        elif method == "lsnmf":
            w, h = lsnmf_iterate(v, w, h, params, state)
        elif method in ("snmf-l", "snmf-r"):
            w, h = snmf_iterate(v, w, h, method[-1], eta, params.beta,
                                params, state)
        elif method == "bmf":
            w, h = bmf_iterate(v, w, h, lam_of(it))
        elif method == "bd":
            w, h, sigma2 = bd_gibbs_step(v, w, h, sigma2, params, rng)
            if it > bd_accum["burn_in"]:
                bd_accum["w"] += w
                bd_accum["h"] += h
                bd_accum["count"] += 1
        else:
            w, h, sigma2 = icm_step(v, w, h, sigma2, params)

        n_iter = it
        obj = current_objective(it)
        if config.track_error:
            trace_obj.append(obj)
        if config.track_factors and it % config.track_factors == 0:
            snapshots.append((it, w.copy(), h.copy()))

        # across a bmf penalty step the two objectives use different lambdas
        lam_step = (lam_of is not None and it > 1
                    and lam_of(it) != lam_of(it - 1))
        # an lsnmf/snmf alternation whose two subproblems both met their
        # tolerance at the start point returns W and H unchanged and only
        # tightens the tolerances
        idle = (tols is not None and state.tol_h < tols[0]
                and state.tol_w < tols[1])
        if method != "bd":
            if config.min_residual_delta > 0 and not (lam_step or idle):
                rel = (obj_prev - obj) / max(abs(obj_prev), 1e-300)
                if rel < config.min_residual_delta:
                    break
            if config.conn_change > 0:
                stop, assign, conn_count = connectivity_stop(
                    h, assign, conn_count, config.conn_change)
                if stop:
                    break
        obj_prev = obj

    if method == "bd" and bd_accum["count"] > 0:
        w = bd_accum["w"] / bd_accum["count"]
        h = bd_accum["h"] / bd_accum["count"]
        obj = frobenius_sq(v.dense_view() - w @ h)

    model = FactorModel(W=w, H=h, method=method, theta=theta, n_iter=n_iter,
                        final_objective=obj, objective_kind=kind)
    trace = RunTrace(objective_per_iter=trace_obj, factor_snapshots=snapshots)
    return model, trace
