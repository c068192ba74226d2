"""Diagnostics: the sub-sampling plot and the mover event study.

The sub-sampling plot re-estimates the model on worker subsamples of
decreasing size. Thinner samples mean fewer movers per firm and noisier firm
effects, so the plug-in correlation between worker and firm effects drifts
down as the sample shrinks; how fast it drifts is a practical read on how
much limited-mobility bias the full sample carries.

The event study aligns movers on the first period at the destination firm and
tracks mean log wages over a 2+2 window, in cells of origin-quartile by
destination-quartile of the firm ranking. Under the additive model the paths
are flat before and after the move, gains mirror losses across opposite
cells, and there is no pre-move dip unless mobility responds to shocks.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .decompose import decompose_variance
from .errors import ConfigError, DataError, TwoWayError
from .network import build_graph, largest_connected_set, worker_firm_incidence
from .panel import Panel, restrict_panel
from .solver import Estimates, SolverConfig, estimate

EVENT_TIMES = (-2, -1, 1, 2)
RANKINGS = ("estimated_psi", "firm_mean_wage")


@dataclass(frozen=True)
class SubsamplePoint:
    share_kept: float
    replicate: int
    seed: int
    n_workers: int
    n_firms: int
    n_obs: int
    avg_movers_per_firm: float
    corr_alpha_psi: float
    var_psi: float
    cov2: float
    failed: bool = False


@dataclass(frozen=True)
class EventStudyTable:
    """Mean log-wage paths around moves, one cell per (origin, destination)
    quartile pair. Event time 0 is the first period at the destination; the
    window is periods -2, -1 at the origin and +1, +2 at the destination."""

    cell_means: dict  # (origin_q, dest_q) -> tuple of 4 means
    cell_counts: dict  # (origin_q, dest_q) -> qualifying move events
    ranking: str
    quartiles: int
    ranking_is_in_sample: bool  # estimated_psi ranks reuse full-sample estimates

    @property
    def n_events(self) -> int:
        return sum(self.cell_counts.values())


def _movers_per_firm(panel: Panel) -> float:
    inc = worker_firm_incidence(panel)
    firms_per_worker = np.diff(inc.indptr)
    # each mover counts once at every firm they visit
    return float(firms_per_worker[firms_per_worker >= 2].sum() / panel.n_firms)


def _one_subsample(panel, share, replicate, seed, solver_config):
    rng = np.random.default_rng(seed)
    workers = list(panel.worker_ids)
    if share >= 1.0:
        chosen = set(workers)
    else:
        k = max(1, int(round(share * len(workers))))
        chosen = set(rng.choice(np.array(workers, dtype=object), size=k, replace=False))
    try:
        sub = restrict_panel(panel, chosen, set(panel.firm_ids))
        conn = largest_connected_set(build_graph(sub))
        est_panel = restrict_panel(sub, conn.workers, conn.firms)
        est = estimate(est_panel, None, solver_config)
        dec = decompose_variance(est_panel, est)
    except TwoWayError:
        nan = float("nan")
        return SubsamplePoint(
            share_kept=share, replicate=replicate, seed=seed,
            n_workers=0, n_firms=0, n_obs=0,
            avg_movers_per_firm=nan, corr_alpha_psi=nan, var_psi=nan, cov2=nan,
            failed=True,
        )
    return SubsamplePoint(
        share_kept=share,
        replicate=replicate,
        seed=seed,
        n_workers=est_panel.n_workers,
        n_firms=est_panel.n_firms,
        n_obs=est_panel.n_obs,
        avg_movers_per_firm=_movers_per_firm(est_panel),
        corr_alpha_psi=dec.corr_alpha_psi,
        var_psi=dec.components["var_psi"],
        cov2=dec.components["cov2"],
        failed=False,
    )


def subsample_plot(
    panel: Panel,
    shares=(0.1, 0.2, 0.5, 1.0),
    replicates: int = 1,
    seed: int = 0,
    solver_config: SolverConfig | None = None,
    threads: int = 1,
) -> list[SubsamplePoint]:
    """Plug-in estimates across worker subsamples of the given shares.

    For each share and replicate, draw workers without replacement, rebuild
    the largest connected set, re-estimate, and record the plug-in sorting
    correlation, firm-effect variance, doubled covariance, and the average
    number of movers per firm (computed on the re-extracted set). A subsample
    whose estimation fails is recorded with failed=True and skipped values.
    Replicate seeds derive from the top-level seed, so output is reproducible
    and independent of thread count.
    """
    shares = sorted(shares)
    if not shares or shares[0] <= 0 or shares[-1] > 1:
        raise ConfigError("shares must lie in (0, 1]")

    ss = np.random.SeedSequence(seed)
    children = ss.spawn(len(shares) * replicates)
    tasks = []
    k = 0
    for share in shares:
        for rep in range(replicates):
            child_seed = int(children[k].generate_state(1)[0])
            if share >= 1.0:
                child_seed = seed  # full sample: no draw, keep reproducible tag
            tasks.append((share, rep, child_seed))
            k += 1

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            points = list(
                pool.map(
                    lambda t: _one_subsample(panel, t[0], t[1], t[2], solver_config), tasks
                )
            )
    else:
        points = [_one_subsample(panel, s, r, sd, solver_config) for s, r, sd in tasks]
    return points


def _weighted_quartiles(values, weights, ids, quartiles):
    """Assign each firm to a bin so each bin holds roughly equal person-years.

    Firms are ordered by ranking value with external-id tie-break; the bin is
    the quartile containing the midpoint of the firm's weight interval.
    """
    order = sorted(range(len(values)), key=lambda j: (values[j], ids[j]))
    total = float(sum(weights))
    bins = np.empty(len(values), dtype=np.int64)
    cum = 0.0
    for j in order:
        mid = (cum + 0.5 * weights[j]) / total
        bins[j] = min(quartiles - 1, int(mid * quartiles))
        cum += weights[j]
    return bins


def event_study(
    panel: Panel,
    firm_ranking: str = "estimated_psi",
    quartiles: int = 4,
    estimates: Estimates | None = None,
) -> EventStudyTable:
    """Mean wage paths of movers around the move, binned by firm rank.

    A move qualifies when the worker is observed in consecutive calendar
    periods t-2, t-1 at one firm and t, t+1 at a different firm; t is event
    time 0 and the four observations enter the path at -2, -1, +1, +2.
    Ranking by estimated_psi requires full-sample estimates (circular by
    construction, flagged in the output); firm_mean_wage is the model-free
    alternative.
    """
    if firm_ranking not in RANKINGS:
        raise ConfigError(f"unknown firm ranking {firm_ranking!r}")
    if firm_ranking == "estimated_psi":
        if estimates is None:
            raise ConfigError("estimated_psi ranking requires estimates")
        try:
            values = [estimates.psi_of(f) for f in panel.firm_ids]
        except DataError as exc:
            raise DataError(f"estimates do not cover every panel firm: {exc}") from exc
    else:
        sums = np.bincount(panel.firm_idx, weights=panel.log_wage, minlength=panel.n_firms)
        counts = np.bincount(panel.firm_idx, minlength=panel.n_firms)
        values = (sums / np.maximum(counts, 1)).tolist()

    weights = np.bincount(panel.firm_idx, minlength=panel.n_firms).astype(float)
    bins = _weighted_quartiles(values, weights, panel.firm_ids, quartiles)

    w, f, t, y = panel.worker_idx, panel.firm_idx, panel.period, panel.log_wage
    sums = {}
    counts = {}
    starts = np.flatnonzero(np.r_[True, w[1:] != w[:-1]])
    ends = np.r_[starts[1:], w.size]
    for s, e in zip(starts, ends):
        for k in range(s + 1, e):
            if f[k] == f[k - 1]:
                continue
            # move with first destination period t[k]
            if k - 2 < s or k + 1 >= e:
                continue
            if not (
                t[k - 1] == t[k] - 1
                and t[k - 2] == t[k] - 2
                and t[k + 1] == t[k] + 1
            ):
                continue
            if f[k - 2] != f[k - 1] or f[k + 1] != f[k]:
                continue
            cell = (int(bins[f[k - 1]]), int(bins[f[k]]))
            path = np.array([y[k - 2], y[k - 1], y[k], y[k + 1]])
            if cell in sums:
                sums[cell] += path
                counts[cell] += 1
            else:
                sums[cell] = path.copy()
                counts[cell] = 1

    if not counts:
        raise DataError("no qualifying movers with a full 2+2 observation window")

    means = {cell: tuple(sums[cell] / counts[cell]) for cell in sums}
    return EventStudyTable(
        cell_means=means,
        cell_counts=dict(counts),
        ranking=firm_ranking,
        quartiles=quartiles,
        ranking_is_in_sample=firm_ranking == "estimated_psi",
    )
