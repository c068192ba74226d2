"""Synthetic linked employer-employee panels with known ground truth.

Wages are generated as X beta + alpha_i + psi_j + noise. Worker effects are
Gaussian with the configured variance; sorting toward high-paying firms is
induced by rank-matching workers to firm slots through a correlated Gaussian
index, which hits the target correlation between alpha and the initial firm's
psi to within sampling error. A configurable share of workers relocates once.

Under exogenous mobility all matches are drawn before any noise, so shocks
are independent of the match sequence by construction. Under shock-driven
mobility a worker moves right after drawing a noise realization below a
threshold (preferentially toward higher-paying firms), deliberately breaking
that independence so diagnostics have something to detect.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decompose import Decomposition, core_components
from .errors import ConfigError
from .network import ConnectedSet
from .panel import Panel

NETWORKS = ("uniform_random", "size_skewed")
MOBILITY = ("exogenous", "shock_driven")
NOISE_KINDS = ("homoskedastic", "heteroskedastic")


@dataclass(frozen=True)
class SimConfig:
    n_workers: int = 1000
    n_firms: int = 50
    n_periods: int = 4
    var_alpha_true: float = 0.25
    var_psi_true: float = 0.05
    corr_sorting: float = 0.0
    movers_share: float = 0.3
    network: str = "uniform_random"
    size_skew_exponent: float = 1.5  # Pareto tail for size_skewed firm weights
    noise_kind: str = "homoskedastic"
    noise_sigma2: float = 0.05
    noise_sigma2_range: tuple = (0.01, 0.1)  # heteroskedastic: log-uniform per firm
    noise_size_coupled: bool = False  # heteroskedastic: smallest firms noisiest
    mobility: str = "exogenous"
    shock_threshold: float = 0.0  # shock_driven: move after noise below this
    shock_up_probability: float = 0.7  # shock_driven: chance destination pays more
    covariate_count: int = 0
    beta_true: tuple = ()
    seed: int = 0

    def __post_init__(self):
        if self.n_workers < 1 or self.n_firms < 1 or self.n_periods < 1:
            raise ConfigError("n_workers, n_firms, n_periods must be positive")
        if self.var_alpha_true < 0 or self.var_psi_true < 0:
            raise ConfigError("true variances must be non-negative")
        if not -1.0 <= self.corr_sorting <= 1.0:
            raise ConfigError("corr_sorting must lie in [-1, 1]")
        if not 0.0 <= self.movers_share <= 1.0:
            raise ConfigError("movers_share must lie in [0, 1]")
        if self.network not in NETWORKS:
            raise ConfigError(f"unknown network {self.network!r}")
        if self.mobility not in MOBILITY:
            raise ConfigError(f"unknown mobility {self.mobility!r}")
        if self.noise_kind not in NOISE_KINDS:
            raise ConfigError(f"unknown noise kind {self.noise_kind!r}")
        if self.noise_sigma2 < 0:
            raise ConfigError("noise_sigma2 must be non-negative")
        lo, hi = self.noise_sigma2_range
        if not (0 <= lo <= hi):
            raise ConfigError("noise_sigma2_range must be ordered and non-negative")
        if self.n_firms == 1 and self.movers_share > 0:
            raise ConfigError("movers need at least two firms")
        if self.movers_share > 0 and self.n_periods < 2:
            raise ConfigError("movers need at least two periods")
        if len(self.beta_true) != self.covariate_count:
            raise ConfigError("beta_true length must equal covariate_count")


@dataclass(frozen=True)
class SimTruth:
    """Ground-truth parameters and realized draws, aligned with the emitted panel."""

    alpha: np.ndarray  # per worker (dense order of the emitted panel)
    psi: np.ndarray  # per firm
    beta: np.ndarray
    noise: np.ndarray  # per observation, panel order
    firm_sigma2: np.ndarray  # per firm noise variance actually used
    worker_ids: tuple
    firm_ids: tuple
    config: SimConfig


def _ids(prefix: str, count: int) -> np.ndarray:
    width = len(str(count - 1)) if count > 1 else 1
    return np.array([f"{prefix}{i:0{width}d}" for i in range(count)], dtype=object)


def _firm_weights(cfg: SimConfig, rng) -> np.ndarray:
    if cfg.network == "uniform_random":
        return np.full(cfg.n_firms, 1.0 / cfg.n_firms)
    sizes = rng.pareto(cfg.size_skew_exponent, cfg.n_firms) + 1.0
    return sizes / sizes.sum()


def simulate_panel(config: SimConfig) -> tuple[Panel, SimTruth]:
    """Generate one panel and its ground truth. Same seed, same bits."""
    cfg = config
    rng = np.random.default_rng(cfg.seed)
    W, F, T = cfg.n_workers, cfg.n_firms, cfg.n_periods

    psi = rng.normal(0.0, np.sqrt(cfg.var_psi_true), F)
    alpha = rng.normal(0.0, np.sqrt(cfg.var_alpha_true), W)
    beta = np.asarray(cfg.beta_true, dtype=float)
    weights = _firm_weights(cfg, rng)
    cum_weights = np.cumsum(weights)

    # initial assignment by rank-matching a Gaussian index correlated with alpha
    slots = rng.choice(F, size=W, p=weights)
    rho = cfg.corr_sorting
    if rho != 0.0 and cfg.var_alpha_true > 0 and cfg.var_psi_true > 0:
        z_alpha = (alpha - alpha.mean()) / max(alpha.std(), 1e-300)
        index = rho * z_alpha + np.sqrt(1 - rho**2) * rng.normal(size=W)
        slot_order = np.argsort(psi[slots], kind="stable")
        index_order = np.argsort(index, kind="stable")
        initial_firm = np.empty(W, dtype=np.int64)
        initial_firm[index_order] = slots[slot_order]
    else:
        initial_firm = slots

    # mover selection and (for exogenous mobility) move timing and destination
    n_movers = int(round(cfg.movers_share * W))
    mover_flag = np.zeros(W, dtype=bool)
    if n_movers:
        mover_flag[rng.choice(W, size=n_movers, replace=False)] = True
    move_period = np.full(W, T + 1, dtype=np.int64)  # first period at destination
    destination = initial_firm.copy()
    if n_movers and cfg.mobility == "exogenous":
        movers = np.flatnonzero(mover_flag)
        move_period[movers] = rng.integers(2, T + 1, size=movers.size)
        for w in movers:
            destination[w] = _draw_destination(rng, weights, cum_weights, initial_firm[w])

    # per-firm noise scale
    if cfg.noise_kind == "homoskedastic":
        firm_sigma2 = np.full(F, cfg.noise_sigma2)
    else:
        lo, hi = cfg.noise_sigma2_range
        draws = np.exp(rng.uniform(np.log(lo), np.log(hi), F))
        if cfg.noise_size_coupled:
            # smallest firms get the largest noise variances
            draws = np.sort(draws)
            firm_sigma2 = np.empty(F)
            firm_sigma2[np.argsort(-weights, kind="stable")] = draws
        else:
            firm_sigma2 = draws

    noise_flat = rng.normal(size=W * T)  # standard draws, one per worker-period

    if cfg.mobility == "shock_driven" and n_movers:
        # a worker moves the period after a sufficiently bad draw
        for w in np.flatnonzero(mover_flag):
            sigma = np.sqrt(firm_sigma2[initial_firm[w]])
            for t in range(1, T):
                if noise_flat[w * T + (t - 1)] * sigma < cfg.shock_threshold:
                    move_period[w] = t + 1
                    destination[w] = _draw_destination(
                        rng, weights, cum_weights, initial_firm[w],
                        psi=psi, up_probability=cfg.shock_up_probability,
                    )
                    break

    # assemble observation arrays in (worker, period) order
    periods = np.tile(np.arange(1, T + 1), W)
    worker_idx = np.repeat(np.arange(W), T)
    at_dest = periods >= np.repeat(move_period, T)
    firm_idx = np.where(at_dest, np.repeat(destination, T), np.repeat(initial_firm, T))
    sigma_obs = np.sqrt(firm_sigma2[firm_idx])
    noise = noise_flat * sigma_obs

    if cfg.covariate_count:
        X = rng.normal(size=(W * T, cfg.covariate_count))
        xb = X @ beta
    else:
        X = np.empty((W * T, 0))
        xb = 0.0
    wages = xb + alpha[worker_idx] + psi[firm_idx] + noise

    worker_ids = _ids("w", W)
    firm_ids = _ids("f", F)
    panel = Panel(
        worker=worker_ids[worker_idx],
        firm=firm_ids[firm_idx],
        period=periods,
        log_wage=wages,
        covariates=X if cfg.covariate_count else None,
        covariate_names=tuple(f"x{k}" for k in range(cfg.covariate_count)),
    )
    # zero-padded ids sort like integers, so panel order matches generation order
    truth = SimTruth(
        alpha=alpha,
        psi=psi,
        beta=beta,
        noise=noise,
        firm_sigma2=firm_sigma2,
        worker_ids=tuple(worker_ids),
        firm_ids=tuple(firm_ids),
        config=cfg,
    )
    return panel, truth


def _draw_destination(rng, weights, cum_weights, origin, psi=None, up_probability=None):
    """A firm other than `origin`, drawn in proportion to its weight: outside the
    shock-driven branch, in O(log F) from one uniform, as `rng.choice(F, p=w)`
    draws with the origin's weight zeroed."""
    if psi is not None and rng.random() < up_probability:
        better = np.flatnonzero(psi > psi[origin])
        if better.size:
            w = weights[better] / weights[better].sum()
            return int(rng.choice(better, p=w))
    # a point past the firms before the origin skips its interval; the last
    # candidate firm takes what rounding leaves over
    u = rng.random() * (cum_weights[-1] - weights[origin])
    last = len(cum_weights) - 1
    if origin == last or (origin and u < cum_weights[origin - 1]):
        return int(np.searchsorted(cum_weights[: origin - 1], u, side="right"))
    after = np.searchsorted(cum_weights[origin + 1 : last], u + weights[origin], side="right")
    return origin + 1 + int(after)


def truth_components(truth: SimTruth, conn: ConnectedSet, panel: Panel) -> Decomposition:
    """Exact decomposition of the noiseless wage part over one connected set.

    Moments are taken over the realized person-years inside the set; the
    residual slot holds the realized noise variance on the same observations,
    so the components describe exactly what an unbiased estimator should
    recover for that composition.
    """
    fmask = np.fromiter((f in conn.firms for f in panel.firm_ids), dtype=bool)
    wmask = np.fromiter((w in conn.workers for w in panel.worker_ids), dtype=bool)
    keep = fmask[panel.firm_idx] & wmask[panel.worker_idx]

    widx_ext = [panel.worker_ids[i] for i in panel.worker_idx[keep]]
    fidx_ext = [panel.firm_ids[j] for j in panel.firm_idx[keep]]
    wmap = {w: i for i, w in enumerate(truth.worker_ids)}
    fmap = {f: j for j, f in enumerate(truth.firm_ids)}
    a = truth.alpha[[wmap[w] for w in widx_ext]]
    p = truth.psi[[fmap[f] for f in fidx_ext]]
    return Decomposition.from_components(
        core_components(a, p, truth.noise[keep]), flavor="ground_truth"
    )
