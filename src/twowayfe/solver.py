"""Least-squares estimation of additive worker and firm effects.

Solves min over (alpha, psi, beta) of sum_it (Y_it - X_it beta - alpha_i -
psi_{j(it)})^2 on a connected estimation set. The solution is unique only up
to a constant traded between worker and firm effects; by default the firm
effects are normalized to mean zero over the estimation set's firms (a
reference-firm normalization is available instead).

Methods
-------
zigzag : alternating exact minimization. Given psi and beta, each alpha_i is a
    worker-specific average; given alpha and beta, each psi_j is a
    firm-specific average; given both, beta is a small dense regression on
    partial residuals. Iterate to a fixed point.
conjugate_gradient : the default. Eliminate the worker effects analytically
    and solve the remaining firm/covariate (Schur) system on the fit's Design
    (`Design.solve_schur`): directly, on its dense Cholesky factor, when that
    factor fits the Design's budget (m = F - 1 + K <= 256; `iterations` then
    reads 0 and `final_change` 0.0), otherwise by Jacobi-preconditioned CG,
    which scales to millions of observations. `tol` and `max_iter` bound CG
    only.
dense_oracle : explicit dense normal-equations solve via lstsq; small panels
    only, used as the reference the iterative methods are checked against.
first_differences : difference consecutive observations within worker so the
    worker effect drops out, estimate psi and beta on the differenced data,
    then recover alpha as worker means after the fact.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import lsqr

from .design import Design, check_connected, check_covariate_collinearity
from .errors import ConfigError, DataError, NumericalError
from .network import ConnectedSet
from .panel import Panel, restrict_panel

METHODS = ("zigzag", "conjugate_gradient", "dense_oracle", "first_differences")
NORMALIZATIONS = ("mean_zero", "reference_firm")


@dataclass(frozen=True)
class SolverConfig:
    method: str = "conjugate_gradient"
    tol: float = 1e-10  # max-abs parameter change between sweeps
    max_iter: int = 10000
    normalization: str = "mean_zero"
    reference_firm: str | None = None  # external id, required for reference_firm

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}")
        if self.normalization not in NORMALIZATIONS:
            raise ConfigError(f"unknown normalization {self.normalization!r}")
        if self.tol <= 0:
            raise ConfigError("tol must be positive")
        if self.max_iter < 1:
            raise ConfigError("max_iter must be at least 1")


@dataclass(frozen=True)
class Estimates:
    """Fitted effects on one estimation panel.

    alpha/psi are indexed by the estimation panel's dense worker/firm indices;
    the panel itself is retained so external ids and per-observation values
    stay available. fitted + residuals reproduces log wages exactly.
    """

    panel: Panel
    alpha: np.ndarray
    psi: np.ndarray
    beta: np.ndarray
    residuals: np.ndarray
    dof: int
    normalization: str
    method: str
    iterations: int
    final_change: float
    rss: float = field(default=0.0)

    @cached_property
    def design(self) -> Design:
        """The estimation panel's Design, shared by every correction of this
        fit: the one a conjugate-gradient fit solved on (with the Schur factor
        it kept, up to 512 KiB while the fit lives, if it solved directly),
        built on first use for the other methods."""
        return Design(self.panel)

    def alpha_of(self, worker_id: str) -> float:
        return float(self.alpha[self.panel.worker_index(worker_id)])

    def psi_of(self, firm_id: str) -> float:
        return float(self.psi[self.panel.firm_index(firm_id)])

    def fitted(self) -> np.ndarray:
        xb = self.panel.covariates @ self.beta if self.beta.size else 0.0
        return xb + self.alpha[self.panel.worker_idx] + self.psi[self.panel.firm_idx]

    def alpha_obs(self) -> np.ndarray:
        return self.alpha[self.panel.worker_idx]

    def psi_obs(self) -> np.ndarray:
        return self.psi[self.panel.firm_idx]

    def xb_obs(self) -> np.ndarray:
        if self.beta.size:
            return self.panel.covariates @ self.beta
        return np.zeros(self.panel.n_obs)


def _normalize(alpha, psi, config: SolverConfig, panel: Panel):
    if config.normalization == "mean_zero":
        shift = psi.mean()
    else:
        if config.reference_firm is None:
            raise ConfigError("reference_firm normalization requires a firm id")
        shift = psi[panel.firm_index(config.reference_firm)]
    return alpha + shift, psi - shift


def _finish(panel, alpha, psi, beta, config, iterations, final_change) -> Estimates:
    alpha, psi = _normalize(alpha, psi, config, panel)
    xb = panel.covariates @ beta if beta.size else 0.0
    residuals = panel.log_wage - xb - alpha[panel.worker_idx] - psi[panel.firm_idx]
    dof = panel.n_obs - (panel.n_workers + panel.n_firms - 1 + panel.covariate_count)
    return Estimates(
        panel=panel,
        alpha=alpha,
        psi=psi,
        beta=beta,
        residuals=residuals,
        dof=dof,
        normalization=config.normalization,
        method=config.method,
        iterations=iterations,
        final_change=final_change,
        rss=float(residuals @ residuals),
    )


def estimate(panel: Panel, conn: ConnectedSet | None = None, config: SolverConfig | None = None) -> Estimates:
    """Estimate worker effects, firm effects, and covariate coefficients.

    The panel is restricted to `conn` when given; either way the estimation
    panel must form a single connected set. Method choice affects numerics
    only: all methods converge to the same least-squares solution.
    """
    config = config or SolverConfig()
    est_panel = panel
    if conn is not None and (set(panel.firm_ids), set(panel.worker_ids)) != (conn.firms, conn.workers):
        est_panel = restrict_panel(panel, conn.workers, conn.firms)
    check_connected(est_panel)
    check_covariate_collinearity(est_panel)
    if config.method == "zigzag":
        return _estimate_zigzag(est_panel, config)
    if config.method == "conjugate_gradient":
        return _estimate_cg(est_panel, config)
    if config.method == "dense_oracle":
        return _estimate_dense(est_panel, config)
    return _estimate_first_differences(est_panel, config)


def _estimate_zigzag(panel: Panel, config: SolverConfig) -> Estimates:
    w, f, y = panel.worker_idx, panel.firm_idx, panel.log_wage
    X = panel.covariates
    W, F, K = panel.n_workers, panel.n_firms, panel.covariate_count
    d = np.bincount(w, minlength=W).astype(float)
    g = np.bincount(f, minlength=F).astype(float)

    alpha = np.bincount(w, weights=y, minlength=W) / d
    psi = np.zeros(F)
    beta = np.zeros(K)
    if K:
        try:
            xtx_factor = scipy.linalg.cho_factor(X.T @ X)
        except scipy.linalg.LinAlgError as exc:
            raise DataError(f"covariate matrix is rank deficient: {exc}") from exc

    def sweep(alpha, psi, beta):
        if K:
            r = y - alpha[w] - psi[f]
            beta = scipy.linalg.cho_solve(xtx_factor, X.T @ r)
            xb = X @ beta
        else:
            xb = 0.0
        alpha = np.bincount(w, weights=y - xb - psi[f], minlength=W) / d
        psi = np.bincount(f, weights=y - xb - alpha[w], minlength=F) / g
        shift = psi.mean()
        return alpha + shift, psi - shift, beta

    prev = np.concatenate([alpha, psi, beta])
    change = np.inf
    for it in range(1, config.max_iter + 1):
        alpha, psi, beta = sweep(alpha, psi, beta)
        cur = np.concatenate([alpha, psi, beta])
        change = float(np.abs(cur - prev).max())
        prev = cur
        if change < config.tol:
            return _finish(panel, alpha, psi, beta, config, it, change)
    raise NumericalError(
        f"zigzag did not converge in {config.max_iter} sweeps "
        f"(last max-abs change {change:.3e})"
    )


def _estimate_cg(panel: Panel, config: SolverConfig) -> Estimates:
    design = Design(panel)
    rhs = design.apply_T(panel.log_wage)
    rtol = min(config.tol * 1e-2, 1e-12)
    phi, iters = design.solve_cg(rhs, rtol=rtol, maxiter=config.max_iter)
    alpha = phi[design.alpha_slice]
    psi = np.concatenate([phi[design.psi_slice], [0.0]])
    beta = phi[design.beta_slice]
    est = _finish(panel, alpha, psi, beta, config, iters, 0.0 if design.direct else rtol)
    vars(est)["design"] = design  # what the cached property would hold
    return est


def _estimate_dense(panel: Panel, config: SolverConfig) -> Estimates:
    w, f, y = panel.worker_idx, panel.firm_idx, panel.log_wage
    n, W, F, K = panel.n_obs, panel.n_workers, panel.n_firms, panel.covariate_count
    D = np.zeros((n, W + F - 1 + K))
    D[np.arange(n), w] = 1.0
    not_ref = f < F - 1
    D[np.flatnonzero(not_ref), W + f[not_ref]] = 1.0
    if K:
        D[:, W + F - 1 :] = panel.covariates
    phi, *_ = np.linalg.lstsq(D, y, rcond=None)
    alpha = phi[:W]
    psi = np.concatenate([phi[W : W + F - 1], [0.0]])
    beta = phi[W + F - 1 :]
    return _finish(panel, alpha, psi, beta, config, 1, 0.0)


def estimate_first_differences(
    panel: Panel, conn: ConnectedSet | None = None, config: SolverConfig | None = None
) -> Estimates:
    """Estimate by first-differencing out the worker effects.

    Consecutive observations of the same worker are differenced (period gaps
    are allowed; the effects are static), psi and beta are estimated by least
    squares on the differenced rows, and alpha is recovered afterwards as the
    worker mean of Y - X beta - psi. The usual normalization is then applied.
    """
    return estimate(panel, conn, replace(config or SolverConfig(), method="first_differences"))


def _estimate_first_differences(panel: Panel, config: SolverConfig) -> Estimates:
    w, f, y = panel.worker_idx, panel.firm_idx, panel.log_wage
    X = panel.covariates
    F, K = panel.n_firms, panel.covariate_count

    same_worker = w[1:] == w[:-1]
    rows = np.flatnonzero(same_worker)  # diff pairs (k, k+1)
    if rows.size == 0:
        raise DataError("no differenced observations: every worker appears once")

    dy = y[rows + 1] - y[rows]
    f_new, f_old = f[rows + 1], f[rows]
    if F > 1 and not np.any(f_new != f_old):
        raise DataError(
            "differenced design is disconnected: no within-worker firm changes"
        )

    m = rows.size
    data, ridx, cidx = [], [], []
    for sign, fr in ((1.0, f_new), (-1.0, f_old)):
        keep = fr < F - 1
        data.append(np.full(keep.sum(), sign))
        ridx.append(np.flatnonzero(keep))
        cidx.append(fr[keep])
    df_mat = sp.csr_matrix(
        (np.concatenate(data), (np.concatenate(ridx), np.concatenate(cidx))),
        shape=(m, F - 1),
    )
    if K:
        dx = X[rows + 1] - X[rows]
        design_fd = sp.hstack([df_mat, sp.csr_matrix(dx)]).tocsr()
    else:
        design_fd = df_mat

    sol = lsqr(design_fd, dy, atol=1e-14, btol=1e-14, iter_lim=10 * (F + K) + 1000)
    theta, itn = sol[0], sol[2]
    psi = np.concatenate([theta[: F - 1], [0.0]])
    beta = theta[F - 1 :]

    xb = X @ beta if K else 0.0
    alpha = np.bincount(w, weights=y - xb - psi[f], minlength=panel.n_workers)
    alpha /= np.bincount(w, minlength=panel.n_workers)
    return _finish(panel, alpha, psi, beta, config, int(itn), 0.0)


def predict(estimates: Estimates, worker: str, firm: str, covariates=()) -> float:
    """Predicted log wage X beta + alpha_worker + psi_firm, including
    counterfactual worker-firm pairs inside the estimation set."""
    covariates = np.asarray(covariates, dtype=float)
    if covariates.size != estimates.beta.size:
        raise ConfigError(
            f"expected {estimates.beta.size} covariates, got {covariates.size}"
        )
    xb = float(covariates @ estimates.beta) if estimates.beta.size else 0.0
    return xb + estimates.alpha_of(worker) + estimates.psi_of(firm)
