import numpy as np
import pytest

from twowayfe import (
    ConfigError,
    ConnectedSet,
    SimConfig,
    SolverConfig,
    build_graph,
    decompose_variance,
    estimate,
    largest_connected_set,
    leave_one_out_connected_set,
    restrict_panel,
    simulate_panel,
    truth_components,
)


def full_set(panel):
    return ConnectedSet(
        firms=frozenset(panel.firm_ids),
        workers=frozenset(panel.worker_ids),
        kind="largest_connected",
    )


class TestConfigValidation:
    def test_single_firm_with_movers_rejected(self):
        with pytest.raises(ConfigError):
            SimConfig(n_firms=1, movers_share=0.5)

    def test_bad_corr_rejected(self):
        with pytest.raises(ConfigError):
            SimConfig(corr_sorting=1.5)

    def test_beta_length_checked(self):
        with pytest.raises(ConfigError):
            SimConfig(covariate_count=2, beta_true=(0.5,))


class TestDeterminismAndShape:
    def test_same_seed_bit_identical(self):
        cfg = SimConfig(n_workers=80, n_firms=8, n_periods=3, movers_share=0.4, seed=5)
        p1, t1 = simulate_panel(cfg)
        p2, t2 = simulate_panel(cfg)
        assert p1 == p2
        np.testing.assert_array_equal(t1.alpha, t2.alpha)
        np.testing.assert_array_equal(t1.noise, t2.noise)

    def test_different_seed_differs(self):
        cfg1 = SimConfig(n_workers=80, n_firms=8, seed=5)
        cfg2 = SimConfig(n_workers=80, n_firms=8, seed=6)
        assert simulate_panel(cfg1)[0] != simulate_panel(cfg2)[0]

    def test_panel_invariants_hold(self):
        cfg = SimConfig(
            n_workers=60, n_firms=6, n_periods=4, movers_share=0.5,
            covariate_count=2, beta_true=(0.3, -0.1), seed=2,
        )
        panel, truth = simulate_panel(cfg)
        assert panel.n_workers == 60
        assert panel.n_obs == 60 * 4
        assert panel.covariate_count == 2
        # one observation per worker-period, movers move exactly once
        for w in range(panel.n_workers):
            firms = panel.firm_idx[panel.worker_idx == w]
            changes = (firms[1:] != firms[:-1]).sum()
            assert changes <= 1

    def test_movers_share_honored(self):
        cfg = SimConfig(n_workers=500, n_firms=20, movers_share=0.3, seed=1)
        panel, _ = simulate_panel(cfg)
        firms_per_worker = [
            np.unique(panel.firm_idx[panel.worker_idx == w]).size
            for w in range(panel.n_workers)
        ]
        n_movers = sum(1 for c in firms_per_worker if c > 1)
        # destination can coincide with origin only by the draw excluding it
        assert n_movers == pytest.approx(150, abs=2)


class TestMomentTargets:
    def test_zero_noise_exact_recovery(self):
        cfg = SimConfig(
            n_workers=100, n_firms=8, n_periods=3, movers_share=0.5,
            noise_sigma2=0.0, corr_sorting=0.2, seed=3,
        )
        panel, truth = simulate_panel(cfg)
        conn = largest_connected_set(build_graph(panel))
        ep = restrict_panel(panel, conn.workers, conn.firms)
        est = estimate(ep, None, SolverConfig(method="dense_oracle"))
        true_psi = np.array([truth.psi[truth.firm_ids.index(f)] for f in ep.firm_ids])
        # identified up to the normalization constant
        assert np.abs((est.psi - est.psi.mean()) - (true_psi - true_psi.mean())).max() < 1e-8

    def test_var_psi_zero_degenerate(self):
        cfg = SimConfig(n_workers=200, n_firms=10, var_psi_true=0.0, movers_share=0.4, seed=4)
        panel, truth = simulate_panel(cfg)
        assert np.all(truth.psi == truth.psi[0])

    def test_sorting_target_hit_at_scale(self):
        cfg = SimConfig(
            n_workers=10000, n_firms=300, n_periods=2, corr_sorting=0.2,
            movers_share=0.2, noise_sigma2=0.05, seed=7,
        )
        panel, truth = simulate_panel(cfg)
        # correlation with the *initial* firm's effect
        first_obs = np.r_[True, panel.worker_idx[1:] != panel.worker_idx[:-1]]
        a = truth.alpha[panel.worker_idx[first_obs]]
        p = truth.psi[panel.firm_idx[first_obs]]
        corr = np.corrcoef(a, p)[0, 1]
        assert corr == pytest.approx(0.2, abs=0.03)

    def test_truth_components_match_moment_oracle(self):
        cfg = SimConfig(
            n_workers=1000, n_firms=50, n_periods=3, corr_sorting=0.15,
            movers_share=0.3, noise_sigma2=0.05, seed=8,
        )
        panel, truth = simulate_panel(cfg)
        dec = truth_components(truth, full_set(panel), panel)
        a = truth.alpha[panel.worker_idx]
        p = truth.psi[panel.firm_idx]
        # two-pass oracle
        va = np.mean((a - a.mean()) ** 2)
        vp = np.mean((p - p.mean()) ** 2)
        cv = np.mean((a - a.mean()) * (p - p.mean()))
        assert dec.components["var_alpha"] == pytest.approx(va, abs=1e-12)
        assert dec.components["var_psi"] == pytest.approx(vp, abs=1e-12)
        assert dec.components["cov2"] == pytest.approx(2 * cv, abs=1e-12)
        assert dec.flavor == "ground_truth"

    def test_truth_matches_plugin_when_noiseless(self):
        cfg = SimConfig(
            n_workers=150, n_firms=10, movers_share=0.5, noise_sigma2=0.0, seed=9
        )
        panel, truth = simulate_panel(cfg)
        conn = largest_connected_set(build_graph(panel))
        ep = restrict_panel(panel, conn.workers, conn.firms)
        est = estimate(ep, None, SolverConfig(method="dense_oracle"))
        plug = decompose_variance(ep, est)
        true_dec = truth_components(truth, conn, panel)
        for k in ("var_alpha", "var_psi", "cov2"):
            assert plug.components[k] == pytest.approx(true_dec.components[k], abs=1e-8)

    def test_full_vs_leave_one_out_composition(self):
        cfg = SimConfig(n_workers=300, n_firms=30, movers_share=0.3, seed=10)
        panel, truth = simulate_panel(cfg)
        graph = build_graph(panel)
        full = truth_components(truth, largest_connected_set(graph), panel)
        loo = truth_components(truth, leave_one_out_connected_set(graph, panel), panel)
        # same generator, different composition: values differ but stay close
        assert full.components["var_psi"] != loo.components["var_psi"]


class TestExogeneity:
    def test_noise_uncorrelated_with_matches_under_exogenous(self):
        cfg = SimConfig(
            n_workers=4000, n_firms=40, n_periods=2, movers_share=0.5,
            noise_sigma2=0.1, seed=11,
        )
        panel, truth = simulate_panel(cfg)
        n = panel.n_obs
        rng = np.random.default_rng(0)
        for f in rng.choice(panel.n_firms, size=5, replace=False):
            indicator = (panel.firm_idx == f).astype(float)
            corr = np.corrcoef(truth.noise, indicator)[0, 1]
            assert abs(corr) < 3 / np.sqrt(n)

    def test_shock_driven_couples_noise_and_moves(self):
        cfg = SimConfig(
            n_workers=3000, n_firms=30, n_periods=4, movers_share=0.8,
            mobility="shock_driven", shock_threshold=-0.1, noise_sigma2=0.1, seed=12,
        )
        panel, truth = simulate_panel(cfg)
        # noise just before a move is negative on average (it triggered it)
        w, t = panel.worker_idx, panel.period
        f = panel.firm_idx
        moved_next = np.zeros(panel.n_obs, dtype=bool)
        same_worker = w[1:] == w[:-1]
        moved_next[:-1] = same_worker & (f[1:] != f[:-1])
        assert truth.noise[moved_next].mean() < -0.05

    def test_heteroskedastic_size_coupling(self):
        cfg = SimConfig(
            n_workers=2000, n_firms=50, network="size_skewed",
            noise_kind="heteroskedastic", noise_sigma2_range=(0.01, 0.1),
            noise_size_coupled=True, movers_share=0.3, seed=13,
        )
        panel, truth = simulate_panel(cfg)
        sizes = np.bincount(panel.firm_idx, minlength=panel.n_firms)
        # biggest firms got the smallest variances
        big = sizes >= np.median(sizes)
        assert truth.firm_sigma2[big].mean() < truth.firm_sigma2[~big].mean()


@pytest.mark.parametrize("seed", range(4))
def test_destination_draw_matches_weighted_choice(seed):
    """The O(log F) destination draw picks the firm a weighted `rng.choice`
    over the other firms picks, from the same single uniform, so the random
    stream after it is unchanged too."""
    from twowayfe.simulate import _draw_destination, _firm_weights

    F = 40
    weights = _firm_weights(SimConfig(n_firms=F, network="size_skewed"), np.random.default_rng(seed))
    cum_weights = np.cumsum(weights)
    for origin in (0, F - 1, 1, F // 2):
        old_rng, new_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        p = weights.copy()
        p[origin] = 0.0
        p /= p.sum()
        for _ in range(500):
            expected = int(old_rng.choice(F, p=p))
            assert _draw_destination(new_rng, weights, cum_weights, origin) == expected
