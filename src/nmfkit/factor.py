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

import functools
import math
import statistics
from dataclasses import dataclass, field

import numpy as np

from .errors import (DomainError, MethodError, ParamError, RankError,
                     check_number, check_settings, integer, out_of_memory,
                     setting)
from .matcore import (EPS, RngStream, as_matrix, frobenius_sq, kl_div,
                      matmul, product_on, residual_sq, safe_divide,
                      safe_divide_product)
from .seeding import SeedSpec, seed_factors

# method id -> the kind of objective its iterations descend
OBJECTIVE_KIND = {"nmf-eu": "euclidean", "nmf-kl": "kl", "lsnmf": "euclidean",
                  "snmf-l": "penalized", "snmf-r": "penalized", "nsnmf": "kl",
                  "bmf": "penalized", "bd": "euclidean", "icm": "euclidean"}
METHODS = tuple(OBJECTIVE_KIND)

BMF_LAMBDA_CAP = 1e7
SIGMA2_FLOOR = 1e-12

# -- configuration and results -------------------------------------------------


@dataclass
class ParamSet:
    """Method-specific parameters with the package defaults.

    eta defaults to (max entry of V)^2, resolved when the run starts;
    burn_in defaults to half of max_iter.
    """

    theta: float = setting("[0, 1]", 0.5)
    eta: float | None = setting("[0, inf)", None)
    beta: float = setting("[0, inf)", 1e-4)
    lambda0: float = setting("(0, inf)", 1.1)
    lambda_growth: float = setting("[1, inf)", 10.0)
    lambda_period: int = setting("[1, inf)", 100)
    alpha_rate: float = setting("[0, inf)", 0.0)
    beta_rate: float = setting("[0, inf)", 0.0)
    sigma_shape: float = setting("[0, inf)", 0.0)
    sigma_scale: float = setting("[0, inf)", 0.0)
    burn_in: int | None = setting("[0, inf)", None)
    pg_tol: float = setting("[0, inf)", 1e-4)
    inner_max_iter: int = setting("[1, inf)", 20)
    armijo_beta: float = setting("(0, 1)", 0.1)
    armijo_sigma: float = setting("(0, 1)", 0.01)


@dataclass
class FactorConfig:
    method: str
    rank: int
    seed: SeedSpec = field(default_factory=SeedSpec, metadata={
        "record": SeedSpec, "prefix": "seed "})
    max_iter: int = setting("[1, inf)", 200)
    min_residual_delta: float = setting("[0, inf)", 1e-5)
    conn_change: int = setting("[0, inf)", 30)
    track_error: bool = False
    track_factors: int = setting("[0, inf)", 0)
    master_seed: int = setting("[0, inf)", 0)
    params: ParamSet = field(default_factory=ParamSet, metadata={
        "record": ParamSet, "prefix": "method parameter "})


@dataclass
class FactorModel:
    W: np.ndarray
    H: np.ndarray
    method: str
    theta: float | None
    n_iter: int
    final_objective: float


@dataclass
class RunTrace:
    objective_per_iter: list
    factor_snapshots: list | None = None


def basis_of(w, theta) -> np.ndarray:
    """W S(theta), which multiplies H in nsnmf, or W when theta is None."""
    if theta is not None:
        return w @ nsnmf_smoothing(theta, w.shape[1])
    return w


def reconstruct(model: FactorModel) -> np.ndarray:
    """Model reconstruction of V: W H, or W S(theta) H for nsnmf."""
    return basis_of(model.W, model.theta) @ model.H


def objective(v, basis, h, kind: str, wh=None) -> float:
    """Euclidean (`residual_sq`) or KL (`kl_div`) objective of the model
    `basis` @ H, `basis` being `basis_of(W, theta)`; ``wh`` is
    `product_on(v, basis, h)`, formed if not given."""
    v = as_matrix(v)
    if kind == "euclidean":
        return residual_sq(v, basis, h, wh)
    if kind == "kl":
        return kl_div(v, basis, h, wh)
    raise ParamError("unknown objective kind %r" % (kind,))


# -- multiplicative updates ----------------------------------------------------


def _penalized_mu(v, w, h, lam: float):
    """Multiplicative update of ||V - W H||^2 + lam * sum (x (1 - x))^2 over
    the entries x of W and H: H then W, divisions stabilized.  At lam = 0
    this is the Lee-Seung Euclidean update."""
    v = as_matrix(v)
    num, den = matmul(w.T, v), (w.T @ w) @ h
    if lam:  # the terms are 0 at lam = 0; computing them costs 1.7x at 200x50
        num, den = num + 3.0 * lam * h * h, den + 2.0 * lam * h ** 3 + lam * h
    h = h * safe_divide(num, den)
    num, den = matmul(v, h.T), w @ (h @ h.T)
    if lam:
        num, den = num + 3.0 * lam * w * w, den + 2.0 * lam * w ** 3 + lam * w
    w = w * safe_divide(num, den)
    return w, h


def mu_eu_step(v, w, h):
    """One Lee-Seung Euclidean update: H then W, divisions stabilized."""
    return _penalized_mu(v, w, h, 0.0)


def _kl_update_h(v, basis, h, wh):
    ratio = safe_divide_product(v, basis, h, wh=wh)
    num = matmul(basis.T, ratio)
    return h * num / (basis.sum(axis=0)[:, None] + EPS)


def _kl_update_w(v, w, mixture):
    ratio = safe_divide_product(v, w, mixture)
    num = matmul(ratio, mixture.T)
    return w * num / (mixture.sum(axis=1)[None, :] + EPS)


def mu_kl_step(v, w, h, wh=None):
    """One Lee-Seung KL update: H then W; ``wh`` is as in `objective`."""
    v = as_matrix(v)
    h = _kl_update_h(v, w, h, wh)
    w = _kl_update_w(v, w, h)
    return w, h


@functools.lru_cache(maxsize=16, typed=True)  # checked once per (theta, k)
def nsnmf_smoothing(theta: float, k: int) -> np.ndarray:
    """S(theta) = (1 - theta) I + (theta / k) * ones; cached, so read-only."""
    check_number("theta", theta, float, "[0, 1]")
    check_number("k", k, int, "[1, inf)")
    s = (1.0 - theta) * np.eye(k) + (theta / k) * np.ones((k, k))
    s.flags.writeable = False
    return s


def nsnmf_iterate(v, w, h, theta: float, wh=None):
    """KL updates against the smoothed model: H sees W S, W sees S H."""
    v = as_matrix(v)
    s = nsnmf_smoothing(theta, w.shape[1])
    h = _kl_update_h(v, w @ s, h, wh)
    w = _kl_update_w(v, w, s @ h)
    return w, h


def bmf_iterate(v, w, h, lam: float):
    """Penalty-term multiplicative update driving entries toward {0, 1}."""
    return _penalized_mu(v, w, h, lam)


def bmf_objective(v, w, h, lam: float) -> float:
    res = residual_sq(v, w, h)
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
        if math.sqrt(frobenius_sq(pg)) <= tol:
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
        for _ in range(50):
            alpha *= armijo_beta
            xn = np.maximum(x - alpha * grad, 0.0)
            if decrease_ok(xn):
                x = xn
                break
        else:
            # step size underflowed: numerically at a stationary point
            return x, it
    return x, it


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


def _alternating_nnls(v, w, h, reg_h, reg_w, params: ParamSet,
                      state: AlternatingState):
    """One alternation of projected-gradient NNLS: H, then W transposed.

    reg_h and reg_w are the k x k penalties added to the Gram matrices W'W
    and H H'.  Each subproblem that terminates on its first inner
    iteration tightens its tolerance by a factor of 10 for the following
    outer iterations.
    """
    v = as_matrix(v)
    h, used = _pg_nnls_gram(w.T @ w + reg_h, matmul(w.T, v), h, state.tol_h,
                            params.inner_max_iter, params.armijo_beta,
                            params.armijo_sigma)
    if used == 1:
        state.tol_h *= 0.1
    wt, used = _pg_nnls_gram(h @ h.T + reg_w, matmul(v, h.T).T, w.T,
                             state.tol_w, params.inner_max_iter,
                             params.armijo_beta, params.armijo_sigma)
    if used == 1:
        state.tol_w *= 0.1
    return wt.T.copy(), h


def lsnmf_iterate(v, w, h, params: ParamSet, state: AlternatingState):
    """One outer alternation of Lin's projected-gradient NMF."""
    return _alternating_nnls(v, w, h, 0.0, 0.0, params, state)


def snmf_iterate(v, w, h, side: str, eta: float, beta: float,
                 params: ParamSet, state: AlternatingState):
    """One alternation of the sparsity-penalized NNLS factorization.

    Side "r" makes H sparse: H solves the system stacked with a sqrt(beta)
    row of ones (penalizing squared column sums of H) while W gets a
    sqrt(eta) ridge.  Side "l" mirrors the two roles.  The stacked systems
    are solved through their Gram form with the projected-gradient solver.
    """
    if side not in ("l", "r"):
        raise ParamError("snmf side must be 'l' or 'r'")
    k = w.shape[1]
    ridge, col_sums = eta * np.eye(k), beta * np.ones((k, k))
    reg_h, reg_w = (col_sums, ridge) if side == "r" else (ridge, col_sums)
    return _alternating_nnls(v, w, h, reg_h, reg_w, params, state)


def snmf_objective(v, w, h, side: str, eta: float, beta: float) -> float:
    res = residual_sq(v, w, h)
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


def _conditional_sweeps(v, w, h, sigma2, priors: ParamSet, rng):
    """Columns of W, rows of H, then the noise variance, each from its
    conditional: drawn from rng, or its mode when rng is None."""
    v = as_matrix(v)
    m, n = v.shape
    mode_only = rng is None
    w = _gibbs_factor_sweep(w.copy(), h @ h.T, matmul(v, h.T), sigma2,
                            priors.alpha_rate, rng, mode_only)
    ht = _gibbs_factor_sweep(h.T.copy(), w.T @ w, matmul(w.T, v).T, sigma2,
                             priors.beta_rate, rng, mode_only)
    h = ht.T.copy()
    scale = residual_sq(v, w, h) / 2.0 + priors.sigma_scale
    if mode_only:
        sigma2 = scale / (m * n / 2.0 + priors.sigma_shape + 1.0)
    else:  # inverse-gamma draw
        shape = m * n / 2.0 + 1.0 + priors.sigma_shape
        sigma2 = scale / float(rng.gamma(shape))
    return w, h, max(sigma2, SIGMA2_FLOOR)


def bd_gibbs_step(v, w, h, sigma2, priors: ParamSet, rng: RngStream):
    """One Gibbs sweep: rectified-normal columns of W, rows of H, then
    an inverse-gamma draw for the noise variance."""
    return _conditional_sweeps(v, w, h, sigma2, priors, rng)


def icm_step(v, w, h, sigma2, priors: ParamSet):
    """Iterated conditional modes: same conditionals as the Gibbs sweep but
    every draw replaced by the mode; fully deterministic."""
    return _conditional_sweeps(v, w, h, sigma2, priors, None)


# -- the driver -------------------------------------------------------------------


def factorize(v, config: FactorConfig):
    """Seed, iterate until a stopping rule fires, and package the result.

    The stopping rules, tested in this order in one block after each
    iteration: min_delta, the relative objective improvement fell below
    min_residual_delta (not tested on a bmf iteration whose lambda differs
    from the previous one's, nor on an lsnmf/snmf iteration that left W and
    H unchanged to tighten its subproblem tolerances); connectivity, the
    argmax row of every column of H (ties to the lowest row) stayed put for
    conn_change iterations in a row (when conn_change > 0); else the loop
    ends at max_iter.  The Gibbs sampler (bd), whose objective trace is
    stochastic, always runs max_iter sweeps.  A V not of real numbers or a
    config not a FactorConfig of settings in range (`check_settings`)
    raises ParamError, a negative or non-finite V DomainError, a rank not an
    integer in [1, min(m, n)] RankError, a lack of memory OutOfMemoryError.
    """
    v = as_matrix(v)
    v.require_model_input("V")
    check_settings(config, FactorConfig, "config")
    method, params = config.method, config.params
    if method not in OBJECTIVE_KIND:
        raise MethodError("unknown method %r (expected one of %s)"
                          % (method, ", ".join(METHODS)))
    m, n = v.shape
    if not 1 <= (integer(config.rank) or 0) <= min(m, n):
        raise RankError("rank %r out of range [1, %d]"
                        % (config.rank, min(m, n)))
    values = v.values
    peak = float(np.max(values)) if values.size else 0.0
    if method == "bmf" and peak > 1.0:
        raise DomainError("bmf requires V scaled into [0, 1]")
    eta = params.eta if params.eta is not None else peak ** 2
    with out_of_memory("running %s at rank %d on a %dx%d matrix"
                       % (method, config.rank, m, n)):
        return _run(v, config, eta)


def _run(v, config: FactorConfig, eta: float):
    method, params = config.method, config.params
    kind = OBJECTIVE_KIND[method]
    rng = RngStream(config.master_seed)
    w, h = seed_factors(v, config.rank, config.seed, rng)
    theta = params.theta if method == "nsnmf" else None
    state = (_initial_subproblem_tol(v, w, h, params.pg_tol)
             if method in ("lsnmf", "snmf-l", "snmf-r") else None)
    if method in ("bd", "icm"):
        sigma2 = max(residual_sq(v, w, h) / (v.rows * v.cols), SIGMA2_FLOOR)
    # bd's posterior sums over the sweeps after burn-in
    burn_in = params.burn_in if params.burn_in is not None \
        else config.max_iter // 2
    w_sum, h_sum, samples = np.zeros_like(w), np.zeros_like(h), 0
    wh = None  # KL: the objective's product_on, reused by the next H update

    def lam_of(it):  # bmf's penalty schedule
        try:
            return min(params.lambda0 * params.lambda_growth
                       ** ((it - 1) // params.lambda_period), BMF_LAMBDA_CAP)
        except OverflowError:  # a power far above the cap
            return BMF_LAMBDA_CAP

    def current_objective(it):
        nonlocal wh
        if method == "bmf":
            return bmf_objective(v, w, h, lam_of(max(it, 1)))
        if kind == "penalized":
            return snmf_objective(v, w, h, method[-1], eta, params.beta)
        basis = basis_of(w, theta)
        if kind == "kl":
            wh = product_on(v, basis, h)
        return objective(v, basis, h, kind, wh)

    obj_prev = current_objective(0)
    trace_obj = []
    snapshots = [] if config.track_factors else None
    assign, conn_count = np.argmax(h, axis=0), 0

    for it in range(1, config.max_iter + 1):
        tols = (state.tol_h, state.tol_w) if state is not None else None
        if method == "nmf-eu":
            w, h = mu_eu_step(v, w, h)
        elif method == "nmf-kl":
            w, h = mu_kl_step(v, w, h, wh)
        elif method == "nsnmf":
            w, h = nsnmf_iterate(v, w, h, theta, wh)
        elif method == "lsnmf":
            w, h = lsnmf_iterate(v, w, h, params, state)
        elif method in ("snmf-l", "snmf-r"):
            w, h = snmf_iterate(v, w, h, method[-1], eta, params.beta,
                                params, state)
        elif method == "bmf":
            w, h = bmf_iterate(v, w, h, lam_of(it))
        elif method == "bd":
            w, h, sigma2 = bd_gibbs_step(v, w, h, sigma2, params, rng)
            if it > burn_in:
                w_sum += w
                h_sum += h
                samples += 1
        else:
            w, h, sigma2 = icm_step(v, w, h, sigma2, params)

        n_iter = it
        obj = current_objective(it)
        if config.track_error:
            trace_obj.append(obj)
        if config.track_factors and it % config.track_factors == 0:
            snapshots.append((it, w.copy(), h.copy()))

        # the stop block (the rules of `factorize`); bd runs every sweep
        if method == "bd":
            continue
        # min_delta, unless the two objectives use different bmf lambdas or
        # both lsnmf/snmf subproblems met their tolerance at the start point
        lam_step = method == "bmf" and it > 1 and lam_of(it) != lam_of(it - 1)
        idle = (tols is not None and state.tol_h < tols[0]
                and state.tol_w < tols[1])
        if (config.min_residual_delta > 0 and not (lam_step or idle)
                and (obj_prev - obj) / max(abs(obj_prev), 1e-300)
                < config.min_residual_delta):
            break
        obj_prev = obj
        # connectivity: np.argmax takes the lowest of tied rows
        if config.conn_change > 0:
            now = np.argmax(h, axis=0)
            conn_count = conn_count + 1 if np.array_equal(now, assign) else 0
            assign = now
            if conn_count >= config.conn_change:
                break

    if samples > 0:
        w, h = w_sum / samples, h_sum / samples
        obj = residual_sq(v, w, h)

    model = FactorModel(W=w, H=h, method=method, theta=theta, n_iter=n_iter,
                        final_objective=obj)
    trace = RunTrace(objective_per_iter=trace_obj, factor_snapshots=snapshots)
    return model, trace
