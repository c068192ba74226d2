import numpy as np
import pytest

from twowayfe import (
    CollinearCovariateError,
    ConfigError,
    DataError,
    NumericalError,
    Panel,
    SimConfig,
    SolverConfig,
    build_graph,
    estimate,
    estimate_first_differences,
    largest_connected_set,
    predict,
    simulate_panel,
)

from twowayfe import design as design_module

from conftest import dense_lstsq_solution, random_connected_panel

ALL_METHODS = ("zigzag", "conjugate_gradient", "dense_oracle", "first_differences")


class TestExactFitFixture:
    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_exact_solution(self, exactfit_panel, method):
        est = estimate(exactfit_panel, None, SolverConfig(method=method, tol=1e-13))
        assert est.psi_of("f1") - est.psi_of("f2") == pytest.approx(1.0, abs=1e-10)
        assert est.alpha_of("w1") == pytest.approx(2.5, abs=1e-9)
        assert est.alpha_of("w2") == pytest.approx(1.5, abs=1e-9)
        assert est.alpha_of("w3") == pytest.approx(3.0, abs=1e-9)
        assert np.abs(est.residuals).max() < 1e-9
        assert abs(est.psi.mean()) < 1e-12  # mean-zero normalization

    def test_dof(self, exactfit_panel):
        est = estimate(exactfit_panel)
        assert est.dof == 6 - (3 + 2 - 1)

    def test_fitted_plus_residual_identity(self, exactfit_panel):
        est = estimate(exactfit_panel)
        np.testing.assert_array_equal(
            est.fitted() + est.residuals, exactfit_panel.log_wage
        )


class TestMethodEquivalence:
    def test_matches_dense_oracle_with_covariates(self):
        rng = np.random.default_rng(0)
        panel = random_connected_panel(
            rng, n_workers=50, n_firms=8, n_periods=3, n_covariates=2
        )
        alpha0, psi0, beta0 = dense_lstsq_solution(panel)
        for method in ("zigzag", "conjugate_gradient"):
            est = estimate(panel, None, SolverConfig(method=method, tol=1e-12))
            assert np.abs(est.alpha - alpha0).max() < 1e-8, method
            assert np.abs(est.psi - psi0).max() < 1e-8, method
            assert np.abs(est.beta - beta0).max() < 1e-8, method

    def test_dense_method_agrees_with_independent_lstsq(self):
        rng = np.random.default_rng(5)
        panel = random_connected_panel(rng, n_workers=30, n_firms=6, n_covariates=1)
        est = estimate(panel, None, SolverConfig(method="dense_oracle"))
        alpha0, psi0, beta0 = dense_lstsq_solution(panel)
        assert np.abs(est.alpha - alpha0).max() < 1e-10
        assert np.abs(est.psi - psi0).max() < 1e-10


class TestDirectFit:
    @pytest.mark.parametrize("n_covariates", (0, 2))
    def test_direct_and_cg_fits_match_dense_oracle(self, n_covariates, monkeypatch):
        """At m <= 256 the conjugate_gradient method solves the Schur system on
        its Cholesky factor (0 iterations, final change 0.0); forced onto CG by
        a zero budget it iterates. The two fits agree within 1e-10 and both
        match dense_oracle."""
        rng = np.random.default_rng(60 + n_covariates)
        panel = random_connected_panel(rng, n_workers=60, n_firms=9, n_covariates=n_covariates)
        oracle = estimate(panel, None, SolverConfig(method="dense_oracle"))
        direct = estimate(panel)
        monkeypatch.setattr(design_module, "PROBE_BLOCK_BYTES", 0)
        cg = estimate(panel)
        assert direct.design.direct and not cg.design.direct
        assert (direct.iterations, direct.final_change) == (0, 0.0) and cg.iterations > 0
        for name in ("alpha", "psi", "beta", "residuals"):
            expected = getattr(oracle, name)
            scale = max(np.abs(expected).max(initial=0.0), 1.0)
            for fit in (direct, cg):
                assert np.abs(getattr(fit, name) - expected).max(initial=0.0) <= 1e-10 * scale, name
            gap = np.abs(getattr(direct, name) - getattr(cg, name)).max(initial=0.0)
            assert gap <= 1e-10 * scale, name


class TestNormalEquations:
    @pytest.mark.parametrize("method", ("zigzag", "conjugate_gradient"))
    def test_residual_orthogonality(self, method):
        rng = np.random.default_rng(2)
        panel = random_connected_panel(
            rng, n_workers=40, n_firms=7, n_periods=3, n_covariates=2
        )
        est = estimate(panel, None, SolverConfig(method=method, tol=1e-12))
        tol = 1e-8 * panel.n_obs
        worker_sums = np.bincount(panel.worker_idx, weights=est.residuals)
        firm_sums = np.bincount(panel.firm_idx, weights=est.residuals)
        assert np.abs(worker_sums).max() < tol
        assert np.abs(firm_sums).max() < tol
        assert np.abs(panel.covariates.T @ est.residuals).max() < tol

    def test_wage_shift_moves_alpha_not_psi(self):
        rng = np.random.default_rng(3)
        panel = random_connected_panel(rng, n_workers=25, n_firms=5)
        shifted = Panel(
            worker=[panel.worker_ids[i] for i in panel.worker_idx],
            firm=[panel.firm_ids[j] for j in panel.firm_idx],
            period=panel.period,
            log_wage=panel.log_wage + 0.7,
        )
        a, b = estimate(panel), estimate(shifted)
        assert b.alpha.mean() - a.alpha.mean() == pytest.approx(0.7, abs=1e-9)
        assert np.abs(b.psi - a.psi).max() < 1e-9

    def test_zigzag_rss_monotone(self):
        # replicate the sweeps by hand and check descent
        rng = np.random.default_rng(4)
        panel = random_connected_panel(rng, n_workers=30, n_firms=6, noise=0.5)
        w, f, y = panel.worker_idx, panel.firm_idx, panel.log_wage
        d = np.bincount(w).astype(float)
        g = np.bincount(f).astype(float)
        alpha = np.bincount(w, weights=y) / d
        psi = np.zeros(panel.n_firms)
        last = np.inf
        for _ in range(60):
            alpha = np.bincount(w, weights=y - psi[f], minlength=d.size) / d
            psi = np.bincount(f, weights=y - alpha[w], minlength=g.size) / g
            shift = psi.mean()
            psi -= shift
            alpha += shift
            rss = float(((y - alpha[w] - psi[f]) ** 2).sum())
            assert rss <= last + 1e-12
            last = rss


class TestDegenerateAndErrors:
    def test_single_firm_panel(self):
        panel = Panel(
            worker=["a", "a", "b", "b"],
            firm=["f1"] * 4,
            period=[1, 2, 1, 2],
            log_wage=[1.0, 1.2, 2.0, 2.2],
        )
        est = estimate(panel)
        assert est.psi == pytest.approx([0.0])
        assert est.alpha == pytest.approx([1.1, 2.1])

    def test_disconnected_panel_rejected(self):
        panel = Panel(
            worker=["a", "a", "b", "b"],
            firm=["f1", "f1", "f2", "f2"],
            period=[1, 2, 1, 2],
            log_wage=[1.0, 1.2, 2.0, 2.2],
        )
        with pytest.raises(DataError, match="connected"):
            estimate(panel)

    def test_disconnected_panel_counts_components(self):
        # two mover-linked firm pairs with no worker in common
        panel = Panel(
            worker=["a", "a", "b", "b", "c", "c", "d", "d"],
            firm=["f1", "f2", "f2", "f1", "f3", "f4", "f4", "f3"],
            period=[1, 2, 1, 2, 1, 2, 1, 2],
            log_wage=[1.0, 1.2, 2.0, 2.2, 0.5, 0.7, 1.5, 1.1],
        )
        with pytest.raises(DataError, match=r"\(2 components found\)"):
            estimate(panel)

    def test_collinear_covariate_rejected_with_index(self):
        rng = np.random.default_rng(8)
        base = random_connected_panel(rng, n_workers=15, n_firms=4, n_periods=3)
        # second covariate is constant within every (worker, firm) cell
        pairs = {}
        cell_value = {}
        covs = []
        good = rng.normal(size=base.n_obs)
        for k in range(base.n_obs):
            cell = (int(base.worker_idx[k]), int(base.firm_idx[k]))
            cell_value.setdefault(cell, rng.normal())
            covs.append([good[k], cell_value[cell]])
        panel = Panel(
            worker=[base.worker_ids[i] for i in base.worker_idx],
            firm=[base.firm_ids[j] for j in base.firm_idx],
            period=base.period,
            log_wage=base.log_wage,
            covariates=covs,
        )
        with pytest.raises(CollinearCovariateError) as err:
            estimate(panel)
        assert err.value.column_index == 1

    def test_non_convergence_reports_tolerance(self):
        rng = np.random.default_rng(9)
        panel = random_connected_panel(rng, n_workers=20, n_firms=5, noise=0.5)
        with pytest.raises(NumericalError, match="change"):
            estimate(panel, None, SolverConfig(method="zigzag", tol=1e-14, max_iter=2))

    def test_reference_firm_normalization(self, exactfit_panel):
        est = estimate(
            exactfit_panel,
            None,
            SolverConfig(normalization="reference_firm", reference_firm="f2"),
        )
        assert est.psi_of("f2") == pytest.approx(0.0, abs=1e-12)
        assert est.psi_of("f1") == pytest.approx(1.0, abs=1e-10)

    def test_rss_and_dof_invariant_to_normalization(self):
        rng = np.random.default_rng(12)
        panel = random_connected_panel(rng, n_workers=25, n_firms=5, noise=0.4)
        a = estimate(panel, None, SolverConfig(tol=1e-12))
        b = estimate(
            panel,
            None,
            SolverConfig(
                tol=1e-12,
                normalization="reference_firm",
                reference_firm=panel.firm_ids[0],
            ),
        )
        assert a.dof == b.dof
        assert a.rss == pytest.approx(b.rss, rel=1e-9)

    def test_duplicated_covariate_column_rejected(self):
        rng = np.random.default_rng(13)
        base = random_connected_panel(rng, n_workers=15, n_firms=4, n_periods=3)
        col = rng.normal(size=base.n_obs)
        panel = Panel(
            worker=[base.worker_ids[i] for i in base.worker_idx],
            firm=[base.firm_ids[j] for j in base.firm_idx],
            period=base.period,
            log_wage=base.log_wage,
            covariates=np.column_stack([col, col]),
        )
        with pytest.raises(DataError, match="rank deficient"):
            estimate(panel)

    @pytest.mark.parametrize("method", ALL_METHODS)
    @pytest.mark.parametrize("case", ("duplicated", "sum_of_two"))
    def test_rank_deficient_covariates_rejected_by_every_method(self, method, case):
        base, _ = simulate_panel(
            SimConfig(n_workers=300, n_firms=20, covariate_count=1, beta_true=(0.3,), seed=3)
        )
        x1 = base.covariates[:, 0]
        if case == "duplicated":
            covariates, named = np.column_stack([x1, x1]), "'x0', 'x1'"
        else:
            x2 = np.random.default_rng(4).normal(size=base.n_obs)
            covariates, named = np.column_stack([x1, x2, x1 + x2]), "'x0', 'x1', 'x2'"
        panel = Panel(
            worker=[base.worker_ids[i] for i in base.worker_idx],
            firm=[base.firm_ids[j] for j in base.firm_idx],
            period=base.period,
            log_wage=base.log_wage,
            covariates=covariates,
        )
        with pytest.raises(DataError, match=f"rank deficient.*{named}"):
            estimate(panel, None, SolverConfig(method=method))


class TestFirstDifferences:
    def test_exactfit_same_gap(self, exactfit_panel):
        est = estimate_first_differences(exactfit_panel)
        assert est.psi_of("f1") - est.psi_of("f2") == pytest.approx(1.0, abs=1e-9)
        assert np.abs(est.residuals).max() < 1e-9

    def test_stayer_only_panel_raises(self):
        panel = Panel(
            worker=["a", "a", "b", "b"],
            firm=["f1", "f1", "f1", "f1"],
            period=[1, 2, 1, 2],
            log_wage=[1.0, 1.1, 2.0, 2.1],
        )
        # single firm: fine (psi pinned to normalization), alpha = worker means
        est = estimate_first_differences(panel)
        assert est.alpha == pytest.approx([1.05, 2.05])

    def test_no_differences_raises(self):
        panel = Panel(
            worker=["a", "b"], firm=["f1", "f1"], period=[1, 1], log_wage=[1.0, 2.0]
        )
        with pytest.raises(DataError, match="differenced"):
            estimate_first_differences(panel)

    def test_agrees_with_levels_as_noise_vanishes(self):
        rng = np.random.default_rng(10)
        panel = random_connected_panel(
            rng, n_workers=40, n_firms=6, n_periods=3, noise=0.0, n_covariates=1
        )
        lev = estimate(panel, None, SolverConfig(method="dense_oracle"))
        fd = estimate_first_differences(panel)
        assert np.abs(lev.psi - fd.psi).max() < 1e-7
        assert np.abs(lev.beta - fd.beta).max() < 1e-7

    def test_differs_from_levels_under_noise(self):
        rng = np.random.default_rng(11)
        panel = random_connected_panel(rng, n_workers=60, n_firms=6, noise=0.5)
        lev = estimate(panel)
        fd = estimate_first_differences(panel)
        assert np.abs(lev.psi - fd.psi).max() > 1e-6  # different weighting


class TestPredict:
    def test_observed_and_counterfactual(self, exactfit_panel):
        est = estimate(exactfit_panel)
        assert predict(est, "w2", "f1") == pytest.approx(2.0, abs=1e-9)
        assert predict(est, "w3", "f2") == pytest.approx(2.5, abs=1e-9)

    def test_zero_everything(self):
        panel = Panel(
            worker=["a", "a", "b", "b"],
            firm=["f1", "f2", "f2", "f1"],
            period=[1, 2, 1, 2],
            log_wage=[0.0, 0.0, 0.0, 0.0],
        )
        est = estimate(panel)
        assert predict(est, "a", "f1") == pytest.approx(0.0, abs=1e-12)

    def test_errors(self, exactfit_panel):
        est = estimate(exactfit_panel)
        with pytest.raises(DataError):
            predict(est, "w9", "f1")
        with pytest.raises(ConfigError):
            predict(est, "w1", "f1", covariates=[1.0])

    def test_estimate_on_connected_set_restricts_internally(self, exactfit_panel):
        conn = largest_connected_set(build_graph(exactfit_panel))
        est = estimate(exactfit_panel, conn)
        assert est.panel.n_obs == exactfit_panel.n_obs
