import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from twowayfe import (
    ConfigError,
    DataError,
    SimConfig,
    SolverConfig,
    build_graph,
    compute_leverages,
    correct_homoskedastic,
    correct_leave_out,
    corrected_decomposition,
    decompose_variance,
    estimate,
    largest_connected_set,
    leave_one_out_connected_set,
    restrict_panel,
    simulate_panel,
)
from twowayfe import correct as correct_module
from twowayfe import design as design_module
from twowayfe.correct import (
    QuadraticForm,
    _exact_tables,
    exact_trace_quadratic,
    hutchinson_trace_quadratic,
)
from twowayfe.design import Design

from conftest import random_connected_panel, repeated_cell_panel


def dense_pieces(panel):
    """Dense design, S^{-1}, and the component matrices A, all from scratch."""
    n, W, F, K = panel.n_obs, panel.n_workers, panel.n_firms, panel.covariate_count
    p = W + F - 1 + K
    D = np.zeros((n, p))
    D[np.arange(n), panel.worker_idx] = 1.0
    keep = panel.firm_idx < F - 1
    D[np.flatnonzero(keep), W + panel.firm_idx[keep]] = 1.0
    if K:
        D[:, W + F - 1 :] = panel.covariates
    Sinv = np.linalg.inv(D.T @ D)
    C = np.eye(n) - np.ones((n, n)) / n
    maps = {
        "alpha": np.column_stack([D[:, :W], np.zeros((n, F - 1 + K))]),
        "psi": np.column_stack([np.zeros((n, W)), D[:, W : W + F - 1], np.zeros((n, K))]),
    }
    maps["alpha_plus_psi"] = maps["alpha"] + maps["psi"]

    def A_of(left, right):
        Hl, Hr = C @ maps[left], C @ maps[right]
        return (Hl.T @ Hr + Hr.T @ Hl) / (2 * n)

    return D, Sinv, A_of


def loo_estimated(seed=0, **cfg_kwargs):
    cfg = SimConfig(
        n_workers=cfg_kwargs.pop("n_workers", 150),
        n_firms=cfg_kwargs.pop("n_firms", 12),
        n_periods=cfg_kwargs.pop("n_periods", 3),
        movers_share=cfg_kwargs.pop("movers_share", 0.5),
        noise_sigma2=cfg_kwargs.pop("noise_sigma2", 0.05),
        seed=seed,
        **cfg_kwargs,
    )
    panel, truth = simulate_panel(cfg)
    loo = leave_one_out_connected_set(build_graph(panel), panel)
    est_panel = restrict_panel(panel, loo.workers, loo.firms)
    est = estimate(est_panel, None, SolverConfig(method="conjugate_gradient"))
    return panel, truth, loo, est_panel, est


def test_one_design_per_conjugate_gradient_fit(monkeypatch):
    """Both exact corrections of a CG fit run on the Design its solve built."""
    built = []
    init = Design.__init__

    def counted(self, panel):
        built.append(panel)
        init(self, panel)

    monkeypatch.setattr(Design, "__init__", counted)
    _, _, _, est_panel, est = loo_estimated(seed=4)
    for method in ("leave_out", "homoskedastic_trace"):
        corrected_decomposition(est_panel, est, method, backend="exact")
    assert len(built) == 1 and est.design.panel is built[0]


# each correction's component, its decomposition key and the key's scale
DECOMPOSED = (("var_alpha", "var_alpha", 1.0), ("var_psi", "var_psi", 1.0),
              ("cov_alpha_psi", "cov2", 2.0))


class TestQuadraticFormsAgainstDense:
    @pytest.mark.parametrize(
        "component", ("var_alpha", "var_psi", "cov_alpha_psi", "var_alpha_plus_psi")
    )
    def test_apply_quad_trace(self, component):
        rng = np.random.default_rng(1)
        panel = random_connected_panel(rng, n_workers=14, n_firms=4, n_covariates=2)
        design = Design(panel)
        form = QuadraticForm(component, design)
        D, Sinv, A_of = dense_pieces(panel)
        A = A_of(*form.blocks)
        assert exact_trace_quadratic(form) == pytest.approx(np.trace(A @ Sinv), abs=1e-9)

    @pytest.mark.parametrize("backend", ("exact", "stochastic"))
    def test_plug_in_matches_decomposition(self, backend, monkeypatch):
        """Every correction's plug-in is decompose_variance's component bit for
        bit (the covariance's twice over, var_alpha_plus_psi the sum of the
        variances and cov2), and each component of a corrected decomposition
        is that plug-in minus its scaled correction, on either backend."""
        captured = []
        corrections = correct_module._corrections

        def capture(*args, **kwargs):
            captured.append(corrections(*args, **kwargs))
            return captured[-1]

        monkeypatch.setattr(correct_module, "_corrections", capture)
        for seed in range(4):
            panel, _, loo, est_panel, est = loo_estimated(seed=seed, n_workers=60, n_firms=6)
            plug = decompose_variance(est_panel, est).components
            for method, correct_fn in (("homoskedastic_trace", correct_homoskedastic),
                                       ("leave_out", correct_leave_out)):
                for component, key, scale in DECOMPOSED:
                    single = correct_fn(est_panel, est, component, backend, probes=20, seed=seed)
                    assert scale * single.plug_in == plug[key], (seed, method, component)
                both = correct_fn(est_panel, est, "var_alpha_plus_psi", backend, probes=20)
                assert both.plug_in == plug["var_alpha"] + plug["var_psi"] + plug["cov2"]
                captured.clear()
                dec = corrected_decomposition(est_panel, est, method, backend, probes=20, seed=seed)
                (results,) = captured
                for component, key, scale in DECOMPOSED:
                    res = results[component]
                    assert scale * res.plug_in == plug[key], (seed, method, component)
                    assert dec.components[key] == plug[key] - scale * res.correction


class TestLeverages:
    def test_exact_leverages_and_weights_match_dense(self):
        rng = np.random.default_rng(4)
        panel = random_connected_panel(rng, n_workers=16, n_firms=4, n_covariates=1)
        design = Design(panel)
        D, Sinv, A_of = dense_pieces(panel)
        forms = [QuadraticForm(c, design) for c in ("var_alpha", "var_psi", "cov_alpha_psi")]
        lev, weights = _exact_tables(design, forms, chunk=5)
        inverse = design.cells.inverse  # the table is per cell
        P = D @ Sinv @ D.T
        assert np.abs(lev[inverse] - np.diag(P)).max() < 1e-10
        for form in forms:
            A = A_of(*form.blocks)
            B = np.einsum("op,pq,qr,ro->o", D @ Sinv, A, Sinv, D.T)
            assert np.abs(weights[form.component][inverse] - B).max() < 1e-10

    def test_sum_equals_rank(self):
        rng = np.random.default_rng(5)
        panel = random_connected_panel(rng, n_workers=25, n_firms=6, n_covariates=2)
        table = compute_leverages(panel, backend="exact")
        rank = panel.n_workers + panel.n_firms - 1 + panel.covariate_count
        assert table.leverage.sum() == pytest.approx(rank, abs=1e-6)

    def test_single_observation_worker_has_unit_leverage(self):
        # one worker observed once: that row is fit exactly, leverage 1
        from twowayfe import Panel

        panel = Panel(
            worker=["a", "a", "b", "b", "c"],
            firm=["f1", "f2", "f1", "f2", "f1"],
            period=[1, 2, 1, 2, 1],
            log_wage=[1.0, 2.0, 3.0, 4.0, 5.0],
        )
        table = compute_leverages(panel, backend="exact")
        c_obs = panel.worker_idx == panel.worker_index("c")
        assert table.leverage[c_obs][0] == pytest.approx(1.0, abs=1e-10)

    def test_stochastic_unbiased_and_reproducible(self):
        panel, _, loo, est_panel, _ = loo_estimated(seed=1)
        exact = compute_leverages(panel, loo, backend="exact")
        st1 = compute_leverages(panel, loo, backend="stochastic", probes=300, seed=9)
        st2 = compute_leverages(panel, loo, backend="stochastic", probes=300, seed=9)
        np.testing.assert_array_equal(st1.leverage, st2.leverage)
        assert st1.probes_used == 300
        err = np.abs(st1.leverage - exact.leverage)
        assert err.mean() < 0.05


class TestHomoskedasticCorrection:
    def test_zero_noise_fixture(self, exactfit_panel):
        est = estimate(exactfit_panel, None, SolverConfig(method="dense_oracle"))
        res = correct_homoskedastic(exactfit_panel, est, "var_psi")
        assert res.correction == pytest.approx(0.0, abs=1e-12)
        assert res.corrected == res.plug_in
        assert res.method == "homoskedastic_trace"

    def test_corrected_equals_plug_minus_correction(self):
        rng = np.random.default_rng(6)
        panel = random_connected_panel(rng, n_workers=30, n_firms=5, noise=0.4)
        est = estimate(panel)
        res = correct_homoskedastic(panel, est, "var_psi")
        assert res.corrected == res.plug_in - res.correction

    def test_trace_linearity_polarization(self):
        rng = np.random.default_rng(7)
        panel = random_connected_panel(rng, n_workers=25, n_firms=5, noise=0.3)
        est = estimate(panel)
        direct = correct_homoskedastic(panel, est, "cov_alpha_psi").correction
        v_sum = correct_homoskedastic(panel, est, "var_alpha_plus_psi").correction
        v_a = correct_homoskedastic(panel, est, "var_alpha").correction
        v_p = correct_homoskedastic(panel, est, "var_psi").correction
        assert direct == pytest.approx((v_sum - v_a - v_p) / 2, abs=1e-10)

    def test_stochastic_agrees_with_exact(self):
        panel, _, loo, est_panel, est = loo_estimated(seed=2)
        exact = correct_homoskedastic(est_panel, est, "var_psi", backend="exact")
        stoch = correct_homoskedastic(
            est_panel, est, "var_psi", backend="stochastic", probes=400, seed=3
        )
        assert abs(stoch.correction - exact.correction) < 4 * stoch.mc_stderr
        assert stoch.probes_used == 400
        again = correct_homoskedastic(
            est_panel, est, "var_psi", backend="stochastic", probes=400, seed=3
        )
        assert again.correction == stoch.correction  # reproducible given seed

    def test_small_monte_carlo_recovers_truth(self):
        # noisy sparse design: plug-in overshoots, corrected recovers
        diffs_plug, diffs_corr = [], []
        for seed in range(30):
            cfg = SimConfig(
                n_workers=300,
                n_firms=30,
                n_periods=2,
                movers_share=0.3,
                var_alpha_true=0.1,
                var_psi_true=0.02,
                noise_sigma2=0.05,
                corr_sorting=0.1,
                seed=seed,
            )
            panel, truth = simulate_panel(cfg)
            conn = largest_connected_set(build_graph(panel))
            ep = restrict_panel(panel, conn.workers, conn.firms)
            est = estimate(ep, None, SolverConfig(method="conjugate_gradient"))
            res = correct_homoskedastic(ep, est, "var_psi")
            true_vp = np.var(
                [truth.psi[truth.firm_ids.index(f)] for f in (ep.firm_ids[j] for j in ep.firm_idx)]
            )
            diffs_plug.append(res.plug_in - true_vp)
            diffs_corr.append(res.corrected - true_vp)
        diffs_plug, diffs_corr = np.array(diffs_plug), np.array(diffs_corr)
        se = diffs_corr.std(ddof=1) / np.sqrt(len(diffs_corr))
        assert diffs_plug.mean() > 4 * se  # visible upward bias
        assert abs(diffs_corr.mean()) < 3 * se

    def test_dof_zero_rejected(self):
        # 6 obs, 2 workers + 2 firms - 1 + 3 covariates = 6 parameters
        rng = np.random.default_rng(8)
        from twowayfe import Panel

        panel = Panel(
            worker=["a", "a", "a", "b", "b", "b"],
            firm=["f1", "f1", "f2", "f2", "f2", "f1"],
            period=[1, 2, 3, 1, 2, 3],
            log_wage=rng.normal(size=6),
            covariates=rng.normal(size=(6, 3)),
        )
        est = estimate(panel, None, SolverConfig(method="dense_oracle"))
        assert est.dof == 0
        with pytest.raises(DataError, match="degrees of freedom"):
            correct_homoskedastic(panel, est, "var_psi")


class TestLeaveOutCorrection:
    def test_zero_noise_fixture(self, exactfit_panel):
        est = estimate(exactfit_panel, None, SolverConfig(method="dense_oracle"))
        res = correct_leave_out(exactfit_panel, est, "var_psi")
        assert res.correction == pytest.approx(0.0, abs=1e-12)
        assert res.corrected == pytest.approx(res.plug_in, abs=1e-12)
        assert res.corrected == res.plug_in - res.correction

    def test_not_leave_one_out_connected_rejected(self):
        from twowayfe import Panel

        # worker c observed once: leverage 1 on the full panel
        panel = Panel(
            worker=["a", "a", "b", "b", "c"],
            firm=["f1", "f2", "f1", "f2", "f1"],
            period=[1, 2, 1, 2, 1],
            log_wage=[1.0, 2.0, 3.0, 4.0, 5.0],
        )
        est = estimate(panel)
        with pytest.raises(DataError, match="leave-one-out"):
            correct_leave_out(panel, est, "var_psi")

    def test_exact_matches_dense_oracle(self):
        rng = np.random.default_rng(9)
        panel, _, loo, est_panel, est = loo_estimated(seed=4, n_workers=60, n_firms=6)
        res = correct_leave_out(est_panel, est, "var_psi", backend="exact")
        D, Sinv, A_of = dense_pieces(est_panel)
        A = A_of("psi", "psi")
        P = np.einsum("op,pq,oq->o", D, Sinv, D)
        B = np.einsum("op,pq,qr,ro->o", D @ Sinv, A, Sinv, D.T)
        sigma2 = est_panel.log_wage * est.residuals / (1 - P)
        assert res.correction == pytest.approx(float(B @ sigma2), abs=1e-10)

    def test_stochastic_close_to_exact(self):
        panel, _, loo, est_panel, est = loo_estimated(seed=5)
        exact = correct_leave_out(est_panel, est, "var_psi", backend="exact")
        stoch = correct_leave_out(
            est_panel, est, "var_psi", backend="stochastic", probes=300, seed=6
        )
        # stochastic leverages enter nonlinearly, so allow the documented
        # small-sample slack on top of the probe noise
        assert abs(stoch.corrected - exact.corrected) < max(
            6 * stoch.mc_stderr, 0.25 * abs(exact.correction) + 1e-4
        )

    def test_agrees_with_homoskedastic_under_homoskedasticity(self):
        # expectation equality: check the two corrections track each other
        gaps = []
        for seed in range(12):
            panel, _, loo, est_panel, est = loo_estimated(seed=seed, n_workers=200, n_firms=15)
            ho = correct_homoskedastic(est_panel, est, "var_psi").correction
            lo = correct_leave_out(est_panel, est, "var_psi").correction
            gaps.append(lo - ho)
        gaps = np.array(gaps)
        se = gaps.std(ddof=1) / np.sqrt(len(gaps))
        assert abs(gaps.mean()) < 3 * se + 1e-5


class TestCorrectedDecomposition:
    def test_flavors_and_additivity(self):
        panel, _, loo, est_panel, est = loo_estimated(seed=7)
        for method, flavor in (
            ("homoskedastic_trace", "homoskedastic_corrected"),
            ("leave_out", "leave_out_corrected"),
        ):
            dec = corrected_decomposition(est_panel, est, method)
            assert dec.flavor == flavor
            assert sum(dec.components.values()) == pytest.approx(dec.total, abs=1e-10)

    def test_corrections_move_both_directions(self):
        panel, _, loo, est_panel, est = loo_estimated(seed=8, noise_sigma2=0.2)
        plug = decompose_variance(est_panel, est)
        dec = corrected_decomposition(est_panel, est, "homoskedastic_trace")
        assert dec.components["var_psi"] < plug.components["var_psi"]
        assert dec.components["cov2"] > plug.components["cov2"]

    def test_negative_corrected_warns_not_clamps(self):
        # tiny true firm variance + heavy noise forces a negative correction
        cfg = SimConfig(
            n_workers=60,
            n_firms=12,
            n_periods=2,
            movers_share=0.4,
            var_psi_true=0.0,
            var_alpha_true=0.05,
            noise_sigma2=0.5,
            seed=3,
        )
        panel, _ = simulate_panel(cfg)
        conn = largest_connected_set(build_graph(panel))
        ep = restrict_panel(panel, conn.workers, conn.firms)
        est = estimate(ep)
        with pytest.warns(UserWarning, match="negative"):
            dec = corrected_decomposition(ep, est, "homoskedastic_trace")
        assert dec.components["var_psi"] < 0

    def test_unknown_method_rejected(self, exactfit_panel):
        est = estimate(exactfit_panel)
        with pytest.raises(ConfigError):
            corrected_decomposition(exactfit_panel, est, "mystery")

    def test_unknown_backend_rejected_before_any_solve(self, exactfit_panel, monkeypatch):
        est = estimate(exactfit_panel)
        solves = []
        solve_schur = Design.solve_schur

        def counted(self, t, *args, **kwargs):
            solves.append(t.shape)
            return solve_schur(self, t, *args, **kwargs)

        monkeypatch.setattr(Design, "solve_schur", counted)
        for method in ("homoskedastic_trace", "leave_out"):
            with pytest.raises(ConfigError, match="unknown backend 'mystery'"):
                corrected_decomposition(exactfit_panel, est, method, backend="mystery")
        assert solves == []


class TestCellTable:
    COMPONENTS = ("var_alpha", "var_psi", "cov_alpha_psi", "var_alpha_plus_psi")

    # F = 1 gives a Schur complement of dimension m = K, here 0 or 1
    @pytest.mark.parametrize(
        "n_firms, n_covariates",
        [(4, 0), (4, 2), (1, 0), (1, 1)],
        ids=["0", "2", "single_firm-0", "single_firm-1"],
    )
    def test_table_matches_dense_with_repeated_cells(self, n_firms, n_covariates):
        for seed in range(3):
            panel = repeated_cell_panel(np.random.default_rng(seed), n_covariates, n_firms)
            design = Design(panel)
            cells = np.unique(
                np.column_stack([panel.worker_idx, panel.firm_idx, panel.covariates]), axis=0
            )
            assert cells.shape[0] < panel.n_obs  # rows do share cells
            forms = [QuadraticForm(c, design) for c in self.COMPONENTS]
            lev, weights = _exact_tables(design, forms, chunk=4)
            assert lev.shape == (design.cells.size,)
            lev = lev[design.cells.inverse]
            weights = {c: w[design.cells.inverse] for c, w in weights.items()}
            D, Sinv, A_of = dense_pieces(panel)
            assert np.abs(lev - np.einsum("op,pq,oq->o", D, Sinv, D)).max() < 1e-10
            for form in forms:
                A = A_of(*form.blocks)
                B = np.einsum("op,pq,qr,ro->o", D @ Sinv, A, Sinv, D.T)
                assert np.abs(weights[form.component] - B).max() < 1e-10
            if n_firms == 1:
                if n_covariates == 0:
                    t_i = np.bincount(panel.worker_idx)[panel.worker_idx]
                    assert np.abs(lev - 1.0 / t_i).max() < 1e-12
                for comp in ("var_psi", "cov_alpha_psi"):
                    assert np.abs(weights[comp]).max() < 1e-12

    def test_stayers_closed_form_without_covariates(self):
        panel, _, loo, est_panel, _ = loo_estimated(seed=11)
        design = Design(est_panel)
        lev, weights = _exact_tables(design, [QuadraticForm("var_psi", design)], chunk=64)
        lev, b_psi = lev[design.cells.inverse], weights["var_psi"][design.cells.inverse]
        firms_per_worker = np.array(
            [np.unique(est_panel.firm_idx[est_panel.worker_idx == w]).size
             for w in range(est_panel.n_workers)]
        )
        stayer = firms_per_worker[est_panel.worker_idx] == 1
        assert stayer.any() and not stayer.all()
        t_i = np.bincount(est_panel.worker_idx)[est_panel.worker_idx]
        assert np.abs(lev[stayer] - 1.0 / t_i[stayer]).max() < 1e-12
        assert np.abs(b_psi[stayer]).max() < 1e-12

    @pytest.mark.parametrize("n_covariates", (0, 2))
    def test_homoskedastic_decomposition_is_sigma2_times_trace(self, n_covariates):
        rng = np.random.default_rng(12)
        panel = random_connected_panel(rng, n_workers=30, n_firms=5, n_covariates=n_covariates)
        est = estimate(panel, None, SolverConfig(method="dense_oracle"))
        dec = corrected_decomposition(panel, est, "homoskedastic_trace", backend="exact")
        plug = decompose_variance(panel, est)
        design = Design(est.panel)
        sigma2 = est.rss / est.dof
        for comp, key, scale in (
            ("var_alpha", "var_alpha", 1.0),
            ("var_psi", "var_psi", 1.0),
            ("cov_alpha_psi", "cov2", 2.0),
        ):
            trace = exact_trace_quadratic(QuadraticForm(comp, design))
            expected = plug.components[key] - scale * sigma2 * trace
            assert dec.components[key] == pytest.approx(expected, rel=1e-12, abs=1e-14)


def test_stochastic_leverage_above_one_is_numerical_error():
    from twowayfe import NumericalError

    panel, _, loo, est_panel, est = loo_estimated(seed=5)
    with pytest.raises(NumericalError, match="probes=2.*backend='exact'"):
        correct_leave_out(est_panel, est, "var_psi", backend="stochastic", probes=2, seed=0)


def test_schur_allocation_failure_is_numerical_error(monkeypatch):
    """A dense Schur matrix too large for memory names m, its bytes and the
    stochastic backend instead of escaping as a MemoryError. The fit runs
    CG (the Design's budget lowered to zero), as it does where the matrix is
    that large, so it keeps no factor for the exact correction to reuse."""
    from twowayfe import NumericalError

    monkeypatch.setattr(design_module, "PROBE_BLOCK_BYTES", 0)
    panel, _, loo, est_panel, est = loo_estimated(seed=5)

    def no_memory(self, *args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(scipy.sparse.csr_matrix, "toarray", no_memory)
    m = est_panel.n_firms - 1
    with pytest.raises(NumericalError) as info:
        corrected_decomposition(est_panel, est, "leave_out", backend="exact")
    message = str(info.value)
    assert f"{m} x {m}" in message and f"({8 * m * m} bytes)" in message
    assert "backend='stochastic'" in message


def cell_word_probes(panel, draws, probes):
    """`probes` Rademacher probes over observations, one at a time: per probe
    and per distinct (worker, firm, covariate row) cell in sorted order,
    ceil(T_c / 64) raw 64-bit words of the stream, whose low T_c bits are the
    signs of the cell's T_c rows. Returns the probes and each row's cell."""
    keys = np.column_stack([panel.worker_idx, panel.firm_idx, panel.covariates])
    _, cell_of = np.unique(keys, axis=0, return_inverse=True)
    cell_of = cell_of.ravel()
    rows = np.bincount(cell_of)
    words = -(-rows // 64)
    first = np.concatenate([[0], np.cumsum(words)[:-1]])
    z = []
    for _ in range(probes):
        raw = draws.bit_generator.random_raw(words.sum())
        zr = np.empty(panel.n_obs)
        for c in range(rows.size):
            for j, o in enumerate(np.flatnonzero(cell_of == c)):
                bit = (int(raw[first[c] + j // 64]) >> (j % 64)) & 1
                zr[o] = 2.0 * bit - 1.0
        z.append(zr)
    return z, cell_of


COMPONENTS = ("var_alpha", "var_psi", "cov_alpha_psi", "var_alpha_plus_psi")


def dense_trace_probe_values(panel, z):
    """n times each form's Schur-space probe value for an m-length probe z,
    from dense pieces alone: S^{-1} = diag(D_w^{-1}, 0) + R V R' with
    R = (-D_w^{-1} C; I) (D_w the worker block of S, C its worker x firm/
    covariate block, V the lower right block of S^{-1}), so for N = Hr'Hl
    (H the centered selectors of a form's blocks) trace(N S^{-1}) is
    tr(N_ww D_w^{-1}) plus the mean over probes of z'R'N R V z. The
    covariance takes N = H_psi'H_alpha; var_alpha_plus_psi is the sum of the
    variances and twice the covariance."""
    n, W = panel.n_obs, panel.n_workers
    D, Sinv, _ = dense_pieces(panel)
    m = D.shape[1] - W
    d_w = D[:, :W].sum(axis=0)
    R = np.vstack([-(D[:, :W].T @ D[:, W:]) / d_w[:, None], np.eye(m)])
    u = Sinv[W:, W:] @ z
    F1 = panel.n_firms - 1
    C = np.eye(n) - 1.0 / n
    H = {
        "alpha": C @ np.column_stack([D[:, :W], np.zeros((n, m))]),
        "psi": C @ np.column_stack([np.zeros((n, W)), D[:, W : W + F1], np.zeros((n, m - F1))]),
    }
    values = {}
    for component, left, right in (("var_alpha", "alpha", "alpha"), ("var_psi", "psi", "psi"),
                                   ("cov_alpha_psi", "alpha", "psi")):
        N = H[right].T @ H[left]
        values[component] = np.trace(N[:W, :W] / d_w) + z @ R.T @ N @ R @ u
    values["var_alpha_plus_psi"] = (
        values["var_alpha"] + values["var_psi"] + 2.0 * values["cov_alpha_psi"]
    )
    return values


@pytest.mark.parametrize(
    "trace_width, cell_width, n_covariates",
    [(None, None, 0), (3, 6, 0), (2, 5, 0), (3, 3, 2)],
    ids=["None", "3", "batch_spans_draws", "covariates"],
)
def test_probe_stream_matches_one_at_a_time_dense_oracle(
    trace_width, cell_width, n_covariates, monkeypatch
):
    """Probe z_r is the r-th draw of default_rng(seed), one probe at a time,
    whatever the widths of solve batches; estimates equal dense evaluations on
    that stream. The trace probes are drawn over the m Schur coordinates, in
    batches of `trace_width` (7 probes: 3, 3, 1 or 2, 2, 2, 1), by CG, as
    those budgets lie below 8 m^2 (CG_MIN_WIDTH lowered to 1, so that the
    budget alone sets the width); the default budget solves them on the
    dense factor. A leave-out probe's signs are the bits of each cell's raw
    64-bit words (`cell_word_probes`), solved `cell_width` at a time. Without
    covariates the 90 rows share 44 cells; with continuous covariates every
    row is its own cell."""
    rng = np.random.default_rng(13)
    panel = random_connected_panel(rng, n_workers=30, n_firms=6, n_covariates=n_covariates)
    n, W, F, K = panel.n_obs, panel.n_workers, panel.n_firms, n_covariates
    m = F - 1 + K
    keys = np.column_stack([panel.worker_idx, panel.firm_idx, panel.covariates])
    cells = np.unique(keys, axis=0).shape[0]
    if trace_width is not None:
        assert trace_width < m  # so the budget is below 8 m^2
        monkeypatch.setattr(correct_module, "PROBE_BLOCK_BYTES", 8 * m * trace_width)
        monkeypatch.setattr(correct_module, "CG_MIN_WIDTH", 1)
    D, Sinv, A_of = dense_pieces(panel)
    seed, probes = 5, 7

    design = Design(panel)
    draws = np.random.default_rng(seed)
    z = [draws.integers(0, 2, m) * 2.0 - 1.0 for _ in range(probes)]
    dense = [dense_trace_probe_values(panel, zr) for zr in z]
    for component in COMPONENTS:
        expected = np.mean([values[component] for values in dense]) / n
        trace, _ = hutchinson_trace_quadratic(
            QuadraticForm(component, design), probes, seed, cg_tol=1e-12
        )
        assert trace == pytest.approx(expected, rel=1e-8), component

    if cell_width is not None:
        monkeypatch.setattr(correct_module, "PROBE_BLOCK_BYTES", 8 * cells * cell_width)
    table = compute_leverages(
        panel, backend="stochastic", probes=probes, component="cov_alpha_psi",
        seed=seed, cg_tol=1e-12,
    )
    P = D @ Sinv @ D.T
    C = np.eye(n) - 1.0 / n
    Hl = C @ np.column_stack([D[:, :W], np.zeros((n, F - 1 + K))])
    Hr = C @ np.column_stack([np.zeros((n, W)), D[:, W : W + F - 1], np.zeros((n, K))])
    draws = np.random.default_rng(seed)
    z, cell_of = cell_word_probes(panel, draws, probes)
    same_cell = (cell_of[:, None] == cell_of[None, :]) / np.bincount(cell_of)[cell_of]
    p_hat = np.mean([(P @ zr) ** 2 for zr in z], axis=0)
    # M^ averaged over each cell's rows
    m_hat = np.mean([same_cell @ (zr - P @ zr) ** 2 for zr in z], axis=0)
    z, _ = cell_word_probes(panel, draws, probes)
    weights = np.mean([(D @ Sinv @ Hl.T @ zr) * (D @ Sinv @ Hr.T @ zr) for zr in z], axis=0) / n
    lev = p_hat / (p_hat + m_hat)
    assert np.abs(table.leverage - lev).max() <= 1e-8 * lev.max()
    assert np.abs(table.component_weight - weights).max() <= 1e-8 * np.abs(weights).max()


@pytest.mark.parametrize(
    "trace_width, cell_width, n_covariates",
    [(None, None, 0), (3, 6, 0), (2, 5, 0), (3, 3, 2)],
    ids=["None", "3", "batch_spans_draws", "covariates"],
)
def test_probe_stream_matches_one_at_a_time_dense_oracle_by_cg(
    trace_width, cell_width, n_covariates, monkeypatch
):
    """The dense-oracle test above with every Design's budget lowered to zero,
    so each probe batch runs CG at the width the probe budget sets: for each
    of the 4 forms the 7 trace probes in batches of `trace_width`, then the
    leverage probes in batches of `cell_width`, one column per probe, and the
    alpha and psi maps, two columns per probe (one batch of 7 at the default
    budget)."""
    monkeypatch.setattr(design_module, "PROBE_BLOCK_BYTES", 0)
    widths = []
    pcg = Design._pcg

    def counted(self, t, *args, **kwargs):
        widths.append(t.shape[1])
        return pcg(self, t, *args, **kwargs)

    monkeypatch.setattr(Design, "_pcg", counted)
    test_probe_stream_matches_one_at_a_time_dense_oracle(
        trace_width, cell_width, n_covariates, monkeypatch
    )
    trace = [s.stop - s.start for s in correct_module._spans(7, trace_width or 7)]
    cell = [s.stop - s.start for s in correct_module._spans(7, cell_width or 7)]
    assert widths == trace * 4 + cell + [2 * w for w in cell]


@pytest.mark.parametrize("n_covariates", (0, 2))
def test_schur_space_traces_within_mc_error_of_exact(n_covariates):
    """Every form's Schur-space probe estimate lies within 4 mc_stderr of the
    exact trace. Without covariates the var_alpha_plus_psi probes are all
    (W - 1 + m) / n, the trace of the centered fitted-value projection over
    n, so its error is rounding alone."""
    rng = np.random.default_rng(14)
    panel = random_connected_panel(rng, n_workers=60, n_firms=8, n_covariates=n_covariates)
    design = Design(panel)
    for component in COMPONENTS:
        form = QuadraticForm(component, design)
        exact = exact_trace_quadratic(form)
        trace, se = hutchinson_trace_quadratic(form, 200, seed=3, cg_tol=1e-12)
        assert abs(trace - exact) <= 4 * se + 1e-12 * abs(exact), component
        if n_covariates == 0 and component == "var_alpha_plus_psi":
            m = panel.n_firms - 1
            assert trace == pytest.approx((panel.n_workers - 1 + m) / panel.n_obs, rel=1e-12)
            assert se <= 1e-12 * trace


def test_stochastic_leave_out_returns_on_leave_one_out_connected_sets():
    """JLA leverages stay below one: the criterion-8 design at the default
    probe count, where the unnormalized estimate reached one on 19 of 20 seeds."""
    for seed in range(20):
        cfg = SimConfig(
            n_workers=3000, n_firms=300, n_periods=2,
            var_alpha_true=0.1, var_psi_true=0.02, corr_sorting=0.1,
            movers_share=0.25, network="size_skewed",
            noise_kind="heteroskedastic", noise_sigma2_range=(0.01, 0.1),
            noise_size_coupled=True, seed=seed,
        )
        panel, _ = simulate_panel(cfg)
        loo = leave_one_out_connected_set(build_graph(panel), panel)
        loo_panel = restrict_panel(panel, loo.workers, loo.firms)
        est = estimate(loo_panel, None, SolverConfig(method="conjugate_gradient"))
        exact = corrected_decomposition(loo_panel, est, "leave_out", "exact")
        stoch = corrected_decomposition(loo_panel, est, "leave_out", "stochastic")
        gap = stoch.components["var_psi"] - exact.components["var_psi"]
        assert abs(gap) <= 0.002, (seed, gap)


@pytest.mark.parametrize("block_width", (None, 3))
@pytest.mark.parametrize("method", ("homoskedastic_trace", "leave_out"))
def test_stochastic_decomposition_components_equal_single_form_corrections(
    method, block_width, monkeypatch
):
    """The components of one stochastic decomposition share one probe stream:
    each, and its Monte Carlo error, equals its single-form correction at the
    same seed and probes."""
    panel, _, loo, est_panel, est = loo_estimated(seed=5)
    if block_width is not None:
        monkeypatch.setattr(correct_module, "PROBE_BLOCK_BYTES", 8 * est_panel.n_obs * block_width)
    seed, probes = 4, 20
    dec = corrected_decomposition(est_panel, est, method, "stochastic", probes=probes, seed=seed)
    correct_fn = correct_homoskedastic if method == "homoskedastic_trace" else correct_leave_out
    for component, key, scale in DECOMPOSED:
        single = correct_fn(est_panel, est, component, backend="stochastic", probes=probes, seed=seed)
        assert dec.components[key] == pytest.approx(scale * single.corrected, rel=1e-12, abs=0.0)
        assert dec.mc_stderr[key] == pytest.approx(scale * single.mc_stderr, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("method, columns_per_probe", (("homoskedastic_trace", 1), ("leave_out", 3)))
def test_stochastic_decomposition_solves_shared_columns(method, columns_per_probe, monkeypatch):
    """Homoskedastic: one V z per probe serves the three forms. Leave-out: one
    leverage column plus one per distinct observation map (alpha, psi). Every
    batch runs on the fit's Design and its one Schur solver (here the dense
    factor: 8 m^2 is within the Design's budget). Each stage solves its
    probes in batches as wide as the budget allows for cell-length columns
    (m-length ones for the trace probes): ceil(probes / batch) solves per
    stage."""
    panel, _, loo, est_panel, est = loo_estimated(seed=5)
    budget = 8 * est_panel.n_obs * 3
    m = est_panel.n_firms - 1
    assert est.design.direct
    monkeypatch.setattr(correct_module, "PROBE_BLOCK_BYTES", budget)
    columns = []
    solve_schur = Design.solve_schur

    def counted(self, t, *args, **kwargs):
        assert self is est.design
        columns.append(1 if t.ndim == 1 else t.shape[1])
        return solve_schur(self, t, *args, **kwargs)

    monkeypatch.setattr(Design, "solve_schur", counted)
    probes = 20
    corrected_decomposition(est_panel, est, method, "stochastic", probes=probes, seed=0)
    assert sum(columns) == columns_per_probe * probes
    cells = np.unique(np.column_stack([est_panel.worker_idx, est_panel.firm_idx]), axis=0).shape[0]
    if method == "homoskedastic_trace":
        stages, batch = 1, budget // (8 * m)
    else:  # the leverages, then the weight maps
        stages, batch = 2, budget // (8 * cells)
    assert len(columns) == stages * math.ceil(probes / batch)


@pytest.mark.parametrize("cg", (False, True))
def test_leave_out_batches_at_least_cg_min_width_under_cg(cg, monkeypatch):
    """A probe budget below one cell-length column: on the dense factor each
    leave-out batch is one probe; under CG (the Design's budget lowered to
    zero before the fit) each is CG_MIN_WIDTH probes, the last one less. The
    leverage batches solve one column per probe, the alpha and psi maps two."""
    if cg:
        monkeypatch.setattr(design_module, "PROBE_BLOCK_BYTES", 0)
    panel, _, loo, est_panel, est = loo_estimated(seed=5)
    assert est.design.direct is not cg
    monkeypatch.setattr(correct_module, "PROBE_BLOCK_BYTES", 8 * est.design.cells.size - 8)
    columns = []
    solve_schur = Design.solve_schur

    def counted(self, t, *args, **kwargs):
        columns.append(t.shape[1])
        return solve_schur(self, t, *args, **kwargs)

    monkeypatch.setattr(Design, "solve_schur", counted)
    corrected_decomposition(est_panel, est, "leave_out", "stochastic", probes=10, seed=0)
    widths = [4, 4, 2] if cg else [1] * 10
    assert correct_module.CG_MIN_WIDTH == 4
    assert columns == widths + [2 * w for w in widths]


@pytest.mark.parametrize("n_covariates", (0, 2))
@pytest.mark.parametrize("method", ("homoskedastic_trace", "leave_out"))
def test_dense_factor_and_cg_agree(method, n_covariates, monkeypatch):
    """The probe solves against the dense Schur factor and by CG at the
    default tolerance give the same components and Monte Carlo errors within
    1e-7 relative. The dense factor is formed once, by the fit, and read by
    every probe batch; a Design budget of zero forces CG on the second fit
    and its correction."""
    cfg = {"covariate_count": 2, "beta_true": (0.3, -0.2)} if n_covariates else {}
    cholesky = Design.schur_cholesky
    factored = []

    def counted(self):
        factored.append(self)
        return cholesky(self)

    monkeypatch.setattr(Design, "schur_cholesky", counted)
    decs, fits = [], []
    for budget in (design_module.PROBE_BLOCK_BYTES, 0):
        monkeypatch.setattr(design_module, "PROBE_BLOCK_BYTES", budget)
        panel, _, loo, est_panel, est = loo_estimated(seed=5, **cfg)
        fits.append(est)
        decs.append(corrected_decomposition(est_panel, est, method, "stochastic", probes=20, seed=4))
    assert factored == [fits[0].design]  # the first fit only
    dense, cg = decs
    for key in ("var_alpha", "var_psi", "cov2", "var_resid"):
        assert cg.components[key] == pytest.approx(dense.components[key], rel=1e-7, abs=0.0), key
    for key in ("var_alpha", "var_psi", "cov2"):
        assert cg.mc_stderr[key] == pytest.approx(dense.mc_stderr[key], rel=1e-7, abs=0.0), key


def test_schur_factor_only_within_probe_budget(monkeypatch):
    """With 8 m^2 above the Design's PROBE_BLOCK_BYTES neither the fit nor any
    stochastic entry point forms the dense factor: every solve runs CG. At
    8 m^2 equal to the budget each Design forms it once, on its first solve
    (the fit for the fit's Design; compute_leverages builds a Design of its
    own), and CG never runs."""
    panel, _, loo, est_panel, _ = loo_estimated(seed=5)
    m = est_panel.n_firms - 1
    factored, cg_solves = [], []
    cholesky, pcg = Design.schur_cholesky, Design._pcg

    def counted_cholesky(self):
        factored.append(self)
        return cholesky(self)

    def counted_pcg(self, t, *args, **kwargs):
        cg_solves.append(t.shape)
        return pcg(self, t, *args, **kwargs)

    monkeypatch.setattr(Design, "schur_cholesky", counted_cholesky)
    monkeypatch.setattr(Design, "_pcg", counted_pcg)
    for budget, direct in ((8 * m * m - 1, False), (8 * m * m, True)):
        monkeypatch.setattr(design_module, "PROBE_BLOCK_BYTES", budget)
        factored.clear()
        cg_solves.clear()
        est = estimate(est_panel, None, SolverConfig(method="conjugate_gradient"))
        assert est.design.direct is direct
        form = QuadraticForm("var_psi", est.design)
        corrected_decomposition(est_panel, est, "leave_out", "stochastic", probes=4)
        corrected_decomposition(est_panel, est, "homoskedastic_trace", "stochastic", probes=4)
        correct_leave_out(est_panel, est, "var_psi", "stochastic", probes=4)
        correct_homoskedastic(est_panel, est, "var_psi", "stochastic", probes=4)
        hutchinson_trace_quadratic(form, 4, seed=0)
        compute_leverages(est_panel, None, "stochastic", probes=4)
        if direct:
            assert len(factored) == 2 and factored[0] is est.design and cg_solves == []
        else:
            assert factored == [] and len(cg_solves) > 0


def test_one_cholesky_factor_per_design(monkeypatch):
    """At m <= 256 the fit forms the one Cholesky factor of its Design, and
    the stochastic homoskedastic and leave-out corrections and the trace
    probes of that fit read it; an exact leave-out after them turns it into
    V in place, forming none of its own, and the Design keeps no factor.
    Above the budget (m = 299) the fit forms none."""
    factored = []
    cho_factor = scipy.linalg.cho_factor

    def counted(a, *args, **kwargs):
        factored.append(a.shape[0])
        return cho_factor(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "cho_factor", counted)
    _, _, _, est_panel, est = loo_estimated(seed=5)
    m = est.design.m
    assert est.iterations == 0 and est.final_change == 0.0 and factored == [m]
    corrected_decomposition(est_panel, est, "homoskedastic_trace", "stochastic", probes=10)
    corrected_decomposition(est_panel, est, "leave_out", "stochastic", probes=10)
    hutchinson_trace_quadratic(QuadraticForm("var_psi", est.design), 10, seed=0)
    assert factored == [m] and est.design.schur_factor is not None
    corrected_decomposition(est_panel, est, "leave_out", "exact")
    assert factored == [m] and est.design.schur_factor is None

    factored.clear()
    wide = random_connected_panel(np.random.default_rng(7), n_workers=600, n_firms=300,
                                  n_periods=2)
    est = estimate(wide, None, SolverConfig(method="conjugate_gradient"))
    assert est.design.m == 299 and not est.design.direct
    assert est.iterations > 0 and factored == []


@pytest.mark.parametrize("probes", (0, 1, -3))
def test_probe_count_below_two_is_config_error(probes, monkeypatch):
    """Every stochastic entry point rejects the count before any solve or
    Schur factor: a Monte Carlo error needs two probes. The exact backend
    ignores it."""
    panel, _, loo, est_panel, est = loo_estimated(seed=5)
    solves = []
    monkeypatch.setattr(Design, "solve_schur", lambda self, t, *a, **k: solves.append(t))
    monkeypatch.setattr(Design, "schur_cholesky", lambda self: solves.append(self))
    form = QuadraticForm("var_psi", est.design)
    calls = [
        lambda: corrected_decomposition(est_panel, est, "leave_out", "stochastic", probes=probes),
        lambda: corrected_decomposition(est_panel, est, "homoskedastic_trace", "stochastic",
                                        probes=probes),
        lambda: correct_leave_out(est_panel, est, "var_psi", "stochastic", probes=probes),
        lambda: correct_homoskedastic(est_panel, est, "var_psi", "stochastic", probes=probes),
        lambda: compute_leverages(est_panel, None, "stochastic", probes=probes),
        lambda: hutchinson_trace_quadratic(form, probes, seed=0),
    ]
    for call in calls:
        with pytest.raises(ConfigError, match=f"probes={probes}: .*at least 2 probes"):
            call()
    assert solves == []
    monkeypatch.undo()
    exact = corrected_decomposition(est_panel, est, "leave_out", "exact", probes=probes)
    assert exact.flavor == "leave_out_corrected"


def long_cell_panel():
    """A connected panel in which worker "long" has one cell of 70 rows, so
    its probe signs take two raw words, the second masked to 6 bits."""
    from twowayfe import Panel

    rng = np.random.default_rng(21)
    base = random_connected_panel(rng, n_workers=20, n_firms=4)
    firm = base.firm_ids[base.firm_idx[0]]
    worker = [base.worker_ids[i] for i in base.worker_idx] + ["long"] * 70
    return Panel(
        worker=worker,
        firm=[base.firm_ids[j] for j in base.firm_idx] + [firm] * 70,
        period=np.concatenate([base.period, np.arange(1000, 1070)]),
        log_wage=np.concatenate([base.log_wage, rng.normal(size=70)]),
    )


def test_cell_longer_than_one_word_draws_its_sums(monkeypatch):
    """A cell of T_c = 70 rows: over many probes its sums have mean 0 and
    variance T_c, with T_c's parity and |s_c| <= T_c, as the sums of T_c
    independent signs do; leverages do not depend on the batch width."""
    panel = long_cell_panel()
    design = Design(panel)
    cells = design.cells
    long = int(np.flatnonzero(cells.counts == 70)[0])
    probes = 4000
    width = correct_module._width(design, cells.size)
    sums = np.hstack(list(correct_module._probe_sums(cells, probes, np.random.default_rng(3), width)))
    assert sums.shape == (cells.size, probes)
    rows = cells.counts[:, None]
    assert np.all(np.abs(sums) <= rows) and np.all((sums - rows) % 2 == 0)
    s = sums[long]
    assert abs(s.mean()) < 4 * np.sqrt(70 / probes)
    assert abs(s.var() / 70 - 1.0) < 5 * np.sqrt(2 / probes)

    tables = []
    for budget in (None, 8 * cells.size * 3):
        if budget is not None:
            monkeypatch.setattr(correct_module, "PROBE_BLOCK_BYTES", budget)
        tables.append(compute_leverages(panel, backend="stochastic", probes=40, seed=2,
                                        cg_tol=1e-12))
    assert np.abs(tables[0].leverage - tables[1].leverage).max() <= 1e-10
    np.testing.assert_allclose(tables[0].component_weight, tables[1].component_weight,
                               rtol=0, atol=1e-10 * np.abs(tables[0].component_weight).max())


def worker_constant_covariate_panel():
    """K = 1, an integer covariate constant within each worker, plus the
    period for movers so that it is identified: every stayer's cell is a
    zero row of T. One stayer's three rows read c - 1, c, c + 1 instead, so
    its middle cell is a zero row of T that shares its worker."""
    from twowayfe import Panel

    rng = np.random.default_rng(17)
    base = random_connected_panel(rng, n_workers=30, n_firms=6)
    per_worker = rng.integers(0, 4, base.n_workers)
    matches = np.unique(np.column_stack([base.worker_idx, base.firm_idx]), axis=0)
    movers = (np.bincount(matches[:, 0], minlength=base.n_workers) > 1)[base.worker_idx]
    x = per_worker[base.worker_idx] + np.where(movers, base.period, 0)
    varied = base.worker_idx == base.worker_idx[~movers][0]  # three rows, in period order
    x[varied] += np.array([-1, 0, 1])
    return Panel(
        worker=[base.worker_ids[i] for i in base.worker_idx],
        firm=[base.firm_ids[j] for j in base.firm_idx],
        period=base.period,
        log_wage=base.log_wage + 0.3 * x,
        covariates=x[:, None].astype(np.float64),
    )


def oracle_panel(kind):
    if kind == "worker_constant":
        return worker_constant_covariate_panel()
    rng = np.random.default_rng(23)
    return random_connected_panel(rng, n_workers=30, n_firms=6, n_covariates=int(kind[1]))


def probes_with_sums(panel, sums):
    """A probe over observations for each column of per-cell sums: in each
    cell (in `Design.cells` order) its first (T_c + s_c) / 2 rows +1, the
    rest -1."""
    cells = Design(panel).cells
    z = -np.ones((panel.n_obs, sums.shape[1]))
    seen = np.zeros(cells.size, dtype=int)
    for o in range(panel.n_obs):
        c = cells.inverse[o]
        z[o] = np.where(seen[c] < (cells.counts[c] + sums[c]) / 2, 1.0, -1.0)
        seen[c] += 1
    return z


@pytest.mark.parametrize("kind", ["K0", "K2", "worker_constant"])
def test_leave_out_probes_match_dense_oracle_per_probe(kind, monkeypatch):
    """Fixed per-cell sums from `_probe_sums` drive the engine; a dense oracle
    over observations (an explicit S^{-1} and one probe z per column with
    those sums) gives each probe's P^ and M^ per cell (M^ averaged over the
    cell's rows), each form's per-probe value z'Hl S^{-1} D' diag(sigma2_o)
    D S^{-1} Hr' z / n, and compute_leverages' per-observation leverages and
    weights, all within 1e-10 relative. Stayer cells, and the zero rows of T
    that share their worker (`worker_constant`), take their values from the
    worker arrays."""
    panel = oracle_panel(kind)
    est = estimate(panel, None, SolverConfig(method="conjugate_gradient"))
    design = est.design
    cells = design.cells
    T, movers, stayers = correct_module._split_cells(design)
    zero_rows = np.flatnonzero(np.diff(T.indptr) == 0)
    if kind == "K2":
        assert stayers.size == 0
    else:
        assert stayers.size > 0
    if kind == "worker_constant":
        assert zero_rows.size > stayers.size  # a zero row in a worker's other cells
    probes, width = 7, 3
    draws = np.random.default_rng(8)
    stages = [np.hstack(list(correct_module._probe_sums(cells, probes, draws, width)))
              for _ in range(2)]  # the leverage probes, then the map probes
    calls = []

    def fixed_sums(cells_, probes_, rng_, width_):
        sums = stages[len(calls) % 2]
        calls.append(probes_)
        for batch in correct_module._spans(probes_, width):
            yield sums[:, batch].copy()

    monkeypatch.setattr(correct_module, "_probe_sums", fixed_sums)

    n, W = panel.n_obs, panel.n_workers
    D, Sinv, _ = dense_pieces(panel)
    P = D @ Sinv @ D.T
    rows_of = cells.inverse
    per_cell = np.zeros((cells.size, n))
    per_cell[rows_of, np.arange(n)] = 1.0 / cells.counts[rows_of]  # a cell's row mean
    z = probes_with_sums(panel, stages[0])
    p_oracle = (per_cell @ (P @ z) ** 2)
    m_oracle = per_cell @ (z - P @ z) ** 2
    for r in range(probes):  # each probe's P^ and M^
        one = stages[0][:, r : r + 1]
        monkeypatch.setattr(correct_module, "_probe_sums",
                            lambda *args, one=one: iter([one.copy()]))
        p_hat, m_hat = correct_module._leverage_sums(
            design, T, movers, stayers, 1, None, 1e-12)
        np.testing.assert_allclose(p_hat, p_oracle[:, r], rtol=0, atol=1e-10 * p_oracle.max())
        np.testing.assert_allclose(m_hat, m_oracle[:, r], rtol=0, atol=1e-10 * m_oracle.max())
    monkeypatch.setattr(correct_module, "_probe_sums", fixed_sums)

    lev = p_oracle.sum(axis=1) / (p_oracle + m_oracle).sum(axis=1)
    sigma2 = (panel.log_wage * est.residuals) / (1.0 - lev[rows_of])
    C = np.eye(n) - 1.0 / n
    F1, K = panel.n_firms - 1, panel.covariate_count
    selectors = {
        "alpha": np.column_stack([D[:, :W], np.zeros((n, F1 + K))]),
        "psi": np.column_stack([np.zeros((n, W)), D[:, W : W + F1], np.zeros((n, K))]),
    }
    selectors["alpha_plus_psi"] = selectors["alpha"] + selectors["psi"]
    zm = probes_with_sums(panel, stages[1])
    maps = {b: D @ Sinv @ (C @ H).T @ zm for b, H in selectors.items()}
    forms = [QuadraticForm(c, design) for c in COMPONENTS]
    vals = correct_module._leave_out_probes(est, forms, probes, None, 1e-12)
    for component in COMPONENTS:
        left, right = correct_module.COMPONENTS[component]
        expected = np.einsum("or,or,o->r", maps[left], maps[right], sigma2) / n
        np.testing.assert_allclose(vals[component], expected, rtol=0,
                                   atol=1e-10 * np.abs(expected).max(), err_msg=component)

        table = compute_leverages(panel, backend="stochastic", probes=probes,
                                  component=component, cg_tol=1e-12)
        np.testing.assert_allclose(table.leverage, lev[rows_of], rtol=1e-10, atol=0)
        weights = (maps[left] * maps[right]).mean(axis=1) / n
        np.testing.assert_allclose(table.component_weight, weights, rtol=0,
                                   atol=1e-10 * np.abs(weights).max(), err_msg=component)


def test_stochastic_leave_out_holds_one_batch_at_a_time():
    """On the panel of the CLI's stochastic pipeline benchmark (2,000 workers,
    200 firms, T = 5; its leave-one-out set has 2,582 cells, 1,196 of them
    mover cells), one stochastic leave-out decomposition allocates at its
    peak, by tracemalloc, no more than 4 batch arrays of 8 * cells * width
    bytes: only the mover cells have rows of their own in a batch, and each
    batch is freed before the next is drawn."""
    import tracemalloc

    cfg = SimConfig(n_workers=2000, n_firms=200, n_periods=5, movers_share=0.3,
                    var_alpha_true=0.2, var_psi_true=0.05, corr_sorting=0.15,
                    noise_sigma2=0.1, seed=1)
    panel, _ = simulate_panel(cfg)
    loo = leave_one_out_connected_set(build_graph(panel), panel)
    est = estimate(panel, loo, SolverConfig(method="conjugate_gradient"))
    design = est.design
    batch = 8 * design.cells.size * correct_module._width(design, design.cells.size)
    corrected_decomposition(est.panel, est, "leave_out", "stochastic")  # caches formed
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        corrected_decomposition(est.panel, est, "leave_out", "stochastic")
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 4 * batch, peak / batch
