import numpy as np
import pytest

from twowayfe import Panel


@pytest.fixture
def exactfit_panel():
    """Three movers across two firms, wages exactly additive.

    Unique least-squares solution under mean-zero firm normalization:
    alpha = (2.5, 1.5, 3.0), psi = (+0.5, -0.5), zero residuals.
    """
    return Panel(
        worker=["w1", "w1", "w2", "w2", "w3", "w3"],
        firm=["f1", "f2", "f1", "f2", "f2", "f1"],
        period=[1, 2, 1, 2, 3, 4],
        log_wage=[3.0, 2.0, 2.0, 1.0, 2.5, 3.5],
    )


def random_connected_panel(
    rng,
    n_workers=20,
    n_firms=5,
    n_periods=3,
    n_covariates=0,
    noise=0.3,
    mover_share=0.6,
    beta=None,
):
    """Small random panel that is connected by construction: a chain of movers
    links consecutive firms, remaining workers are assigned at random."""
    beta = np.asarray(beta if beta is not None else rng.normal(size=n_covariates))
    alpha = rng.normal(size=n_workers)
    psi = rng.normal(scale=0.5, size=n_firms)

    workers, firms, periods, covs = [], [], [], []
    for w in range(n_workers):
        if w < n_firms - 1:
            origin, dest = w % n_firms, (w + 1) % n_firms  # spanning chain
        elif rng.random() < mover_share:
            origin, dest = rng.integers(n_firms), rng.integers(n_firms)
        else:
            origin = dest = rng.integers(n_firms)
        move_at = rng.integers(2, n_periods + 1)
        for t in range(1, n_periods + 1):
            workers.append(w)
            firms.append(origin if t < move_at else dest)
            periods.append(t)
            covs.append(rng.normal(size=n_covariates))

    workers = np.asarray(workers)
    firms = np.asarray(firms)
    X = np.asarray(covs).reshape(len(workers), n_covariates)
    wages = alpha[workers] + psi[firms] + rng.normal(scale=noise, size=len(workers))
    if n_covariates:
        wages = wages + X @ beta
    return Panel(
        worker=[f"w{w:03d}" for w in workers],
        firm=[f"f{f:02d}" for f in firms],
        period=periods,
        log_wage=wages,
        covariates=X if n_covariates else None,
    )


def repeated_cell_panel(rng, n_covariates, n_firms=4):
    """Random connected panel in which every third row appears again in a
    later period with the same worker, firm and covariate row."""
    base = random_connected_panel(rng, n_workers=18, n_firms=n_firms, n_covariates=n_covariates)
    extra = np.arange(0, base.n_obs, 3)
    rows = np.concatenate([np.arange(base.n_obs), extra])
    return Panel(
        worker=[base.worker_ids[i] for i in base.worker_idx[rows]],
        firm=[base.firm_ids[j] for j in base.firm_idx[rows]],
        period=np.concatenate([base.period, base.period[extra] + 100]),
        log_wage=base.log_wage[rows],
        covariates=base.covariates[rows],
    )


def dense_lstsq_solution(panel):
    """Independent dense least-squares oracle: one-hot design built from
    scratch, solved with lstsq, renormalized to mean-zero firm effects."""
    n, W, F, K = panel.n_obs, panel.n_workers, panel.n_firms, panel.covariate_count
    D = np.zeros((n, W + F - 1 + K))
    D[np.arange(n), panel.worker_idx] = 1.0
    keep = panel.firm_idx < F - 1
    D[np.flatnonzero(keep), W + panel.firm_idx[keep]] = 1.0
    if K:
        D[:, W + F - 1 :] = panel.covariates
    phi, *_ = np.linalg.lstsq(D, panel.log_wage, rcond=None)
    alpha = phi[:W]
    psi = np.concatenate([phi[W : W + F - 1], [0.0]])
    shift = psi.mean()
    return alpha + shift, psi - shift, phi[W + F - 1 :]
