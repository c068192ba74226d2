import numpy as np
import pytest

from twowayfe import (
    ConfigError,
    DataError,
    Panel,
    SimConfig,
    SolverConfig,
    build_graph,
    decompose_variance,
    estimate,
    event_study,
    largest_connected_set,
    restrict_panel,
    simulate_panel,
    subsample_plot,
)


def symmetric_mover_panel(noise=0.0, seed=0):
    """Deterministic additive panel with mirrored mover pairs.

    Eight firms with spread-out effects, stayers to give each quartile
    weight, and for every mover o->d a twin moving d->o, so opposite
    event-study cells are exact mirror images under additivity.
    """
    rng = np.random.default_rng(seed)
    psi = {f"f{j}": 0.1 * j for j in range(8)}
    alpha = {}
    rows = []

    def add(worker, firm_by_period):
        for t, f in firm_by_period:
            rows.append((worker, f, t, alpha[worker] + psi[f]))

    w = 0
    for j in range(8):
        for _ in range(3):  # stayers anchor quartile weights
            alpha[f"s{w}"] = 0.8 + 0.01 * w
            add(f"s{w}", [(t, f"f{j}") for t in range(1, 5)])
            w += 1
    pairs = [(0, 7), (1, 6), (2, 5), (0, 3), (4, 7), (1, 2), (2, 3)]
    for k, (a, b) in enumerate(pairs):
        alpha[f"m{k}a"] = 1.0 + 0.05 * k
        alpha[f"m{k}b"] = 1.2 + 0.05 * k
        add(f"m{k}a", [(1, f"f{a}"), (2, f"f{a}"), (3, f"f{b}"), (4, f"f{b}")])
        add(f"m{k}b", [(1, f"f{b}"), (2, f"f{b}"), (3, f"f{a}"), (4, f"f{a}")])

    wages = [r[3] + (rng.normal(scale=noise) if noise else 0.0) for r in rows]
    return Panel(
        worker=[r[0] for r in rows],
        firm=[r[1] for r in rows],
        period=[r[2] for r in rows],
        log_wage=wages,
    )


class TestEventStudy:
    def test_mirror_symmetry_noiseless(self):
        panel = symmetric_mover_panel()
        est = estimate(panel, None, SolverConfig(method="dense_oracle"))
        table = event_study(panel, "estimated_psi", 4, est)
        for (oq, dq), means in table.cell_means.items():
            if (dq, oq) not in table.cell_means:
                continue
            change = means[2] - means[1]  # +1 minus -1
            mirror = table.cell_means[(dq, oq)]
            assert change == pytest.approx(-(mirror[2] - mirror[1]), abs=1e-10)

    def test_flat_paths_noiseless(self):
        panel = symmetric_mover_panel()
        est = estimate(panel, None, SolverConfig(method="dense_oracle"))
        table = event_study(panel, "estimated_psi", 4, est)
        for means in table.cell_means.values():
            assert means[0] == pytest.approx(means[1], abs=1e-10)  # pre flat
            assert means[2] == pytest.approx(means[3], abs=1e-10)  # post flat

    def test_counts_sum_to_events(self):
        panel = symmetric_mover_panel()
        est = estimate(panel, None, SolverConfig(method="dense_oracle"))
        table = event_study(panel, "estimated_psi", 4, est)
        assert table.n_events == 14  # seven mirrored pairs

    def test_ranking_invariant_to_normalization_constant(self):
        panel = symmetric_mover_panel()
        base = estimate(panel, None, SolverConfig(method="dense_oracle"))
        shifted = estimate(
            panel,
            None,
            SolverConfig(
                method="dense_oracle",
                normalization="reference_firm",
                reference_firm="f3",
            ),
        )
        t1 = event_study(panel, "estimated_psi", 4, base)
        t2 = event_study(panel, "estimated_psi", 4, shifted)
        assert t1.cell_counts == t2.cell_counts

    def test_firm_mean_wage_ranking_needs_no_estimates(self):
        panel = symmetric_mover_panel()
        table = event_study(panel, "firm_mean_wage", 4)
        assert table.n_events == 14
        assert not table.ranking_is_in_sample

    def test_pre_move_dip_under_shock_driven(self):
        cfg = SimConfig(
            n_workers=4000,
            n_firms=30,
            n_periods=6,
            movers_share=0.7,
            mobility="shock_driven",
            shock_threshold=-0.15,
            noise_sigma2=0.1,
            var_alpha_true=0.1,
            var_psi_true=0.05,
            seed=4,
        )
        panel, _ = simulate_panel(cfg)
        table = event_study(panel, "firm_mean_wage", 4)
        # pool cells: mean at event time -1 dips below event time -2
        tot = np.zeros(4)
        n = 0
        for cell, means in table.cell_means.items():
            c = table.cell_counts[cell]
            tot += np.array(means) * c
            n += c
        path = tot / n
        assert path[1] < path[0] - 0.01

    def test_window_rules(self):
        """Only a move with two periods at each firm, consecutive in time and
        at no third firm, is counted: not one with a gap in periods, nor one
        whose 2+2 window touches a third firm."""
        windows = {  # worker: (firm, period) of each observation
            "valid": [("f1", 1), ("f1", 2), ("f2", 3), ("f2", 4)],
            "gap": [("f1", 1), ("f1", 2), ("f2", 4), ("f2", 5)],
            "third": [("f1", 1), ("f1", 2), ("f2", 3), ("f3", 4)],
        }
        rows = [(w, f, t, k + 0.1 * t) for k, (w, obs) in enumerate(windows.items()) for f, t in obs]
        panel = Panel(*(list(column) for column in zip(*rows)))
        table = event_study(panel, "firm_mean_wage", 2)
        assert table.n_events == 1
        assert list(table.cell_means.values()) == [pytest.approx((0.1, 0.2, 0.3, 0.4))]

    def test_no_qualifying_movers_raises(self, exactfit_panel):
        est = estimate(exactfit_panel)
        with pytest.raises(DataError):
            event_study(exactfit_panel, "estimated_psi", 4, est)

    def test_estimated_psi_requires_estimates(self, exactfit_panel):
        with pytest.raises(ConfigError):
            event_study(exactfit_panel, "estimated_psi", 4, None)


@pytest.fixture(scope="module")
def sim_panel():
    cfg = SimConfig(
        n_workers=600,
        n_firms=40,
        n_periods=3,
        movers_share=0.35,
        corr_sorting=0.2,
        noise_sigma2=0.15,
        var_alpha_true=0.2,
        var_psi_true=0.05,
        seed=21,
    )
    return simulate_panel(cfg)[0]


class TestSubsample:

    def test_share_one_reproduces_full_sample(self, sim_panel):
        points = subsample_plot(sim_panel, shares=[1.0], replicates=1, seed=3)
        assert len(points) == 1
        pt = points[0]
        conn = largest_connected_set(build_graph(sim_panel))
        ep = restrict_panel(sim_panel, conn.workers, conn.firms)
        est = estimate(ep, None, SolverConfig(method="conjugate_gradient"))
        dec = decompose_variance(ep, est)
        assert pt.var_psi == pytest.approx(dec.components["var_psi"], abs=1e-9)
        assert pt.corr_alpha_psi == pytest.approx(dec.corr_alpha_psi, abs=1e-9)
        assert not pt.failed

    def test_fixed_seed_bit_reproducible(self, sim_panel):
        a = subsample_plot(sim_panel, shares=[0.3, 1.0], replicates=2, seed=9)
        b = subsample_plot(sim_panel, shares=[0.3, 1.0], replicates=2, seed=9)
        assert a == b

    def test_threads_do_not_change_results(self, sim_panel):
        a = subsample_plot(sim_panel, shares=[0.3, 0.6], replicates=2, seed=5, threads=1)
        b = subsample_plot(sim_panel, shares=[0.3, 0.6], replicates=2, seed=5, threads=4)
        assert a == b

    def test_monotone_share_grid_recorded(self, sim_panel):
        points = subsample_plot(sim_panel, shares=[0.5, 0.1, 1.0], replicates=1, seed=7)
        shares = [pt.share_kept for pt in points]
        assert shares == sorted(shares)
        for pt in points:
            if not pt.failed:
                assert np.isfinite(pt.corr_alpha_psi)
                assert np.isfinite(pt.avg_movers_per_firm)

    def test_failed_point_recorded_not_raised(self):
        # two firms joined by one mover, kept whole: one zigzag sweep does not
        # converge, so every fit raises
        panel = Panel(
            worker=["a", "a", "b", "b", "c", "c"],
            firm=["f1", "f2", "f1", "f1", "f2", "f2"],
            period=[1, 2, 1, 2, 1, 2],
            log_wage=[1.0, 2.0, 1.1, 1.2, 2.1, 2.2],
        )
        points = subsample_plot(panel, shares=[1.0], replicates=3, seed=11,
                                solver_config=SolverConfig(method="zigzag", max_iter=1))
        assert len(points) == 3  # failures recorded inline
        for pt in points:
            assert pt.failed and pt.n_workers == pt.n_firms == pt.n_obs == 0
            values = (pt.avg_movers_per_firm, pt.corr_alpha_psi, pt.var_psi, pt.cov2)
            assert all(np.isnan(v) for v in values)

    def test_bad_shares_rejected(self, sim_panel):
        with pytest.raises(ConfigError):
            subsample_plot(sim_panel, shares=[0.0, 0.5])
        with pytest.raises(ConfigError):
            subsample_plot(sim_panel, shares=[1.5])
