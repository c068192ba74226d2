import numpy as np
import pytest
import scipy.linalg

from twowayfe import NumericalError, Panel
from twowayfe import design as design_module
from twowayfe.design import Design

from conftest import random_connected_panel, repeated_cell_panel


def dense_design(panel):
    """The dense one-hot design D, built from scratch."""
    n, W, F, K = panel.n_obs, panel.n_workers, panel.n_firms, panel.covariate_count
    D = np.zeros((n, W + F - 1 + K))
    D[np.arange(n), panel.worker_idx] = 1.0
    keep = panel.firm_idx < F - 1
    D[np.flatnonzero(keep), W + panel.firm_idx[keep]] = 1.0
    if K:
        D[:, W + F - 1 :] = panel.covariates
    return D


def dense_normal_matrix(panel):
    """S = D'D from the dense design."""
    D = dense_design(panel)
    return D.T @ D


class TestProducts:
    @pytest.mark.parametrize("n_covariates", (0, 2))
    def test_apply_and_transpose_match_dense_design(self, n_covariates):
        """D phi and D'v, formed on the cells, for (n,) and (n, k) inputs on a
        panel whose rows share cells."""
        rng = np.random.default_rng(10 + n_covariates)
        panel = repeated_cell_panel(rng, n_covariates)
        design = Design(panel)
        assert design.cells.size < panel.n_obs
        D = dense_design(panel)
        for shape in ((), (3,)):
            phi = rng.normal(size=(design.p,) + shape)
            v = rng.normal(size=(panel.n_obs,) + shape)
            fitted, summed = design.apply(phi), design.apply_T(v)
            assert fitted.shape == (panel.n_obs,) + shape
            assert summed.shape == (design.p,) + shape
            np.testing.assert_allclose(fitted, D @ phi, rtol=0, atol=1e-12)
            np.testing.assert_allclose(summed, D.T @ v, rtol=0, atol=1e-12)


class TestBatchedCG:
    @pytest.fixture(autouse=True)
    def cg_only(self, monkeypatch):
        """These panels' Schur factors fit the budget: lowered to zero, every
        Design solves by CG."""
        monkeypatch.setattr(design_module, "PROBE_BLOCK_BYTES", 0)

    @pytest.mark.parametrize("n_covariates", (0, 2))
    def test_block_matches_dense_solve(self, n_covariates):
        rng = np.random.default_rng(20 + n_covariates)
        panel = random_connected_panel(rng, n_workers=40, n_firms=7, n_covariates=n_covariates)
        design = Design(panel)
        S = dense_normal_matrix(panel)
        B = rng.normal(size=(design.p, 5))
        X, iters = design.solve_cg(B, rtol=1e-12)
        assert X.shape == B.shape and iters > 0
        expected = np.linalg.solve(S, B)
        assert np.abs(X - expected).max() <= 1e-8 * np.abs(expected).max()
        x1, _ = design.solve_cg(B[:, 2], rtol=1e-12)
        assert x1.shape == (design.p,)
        np.testing.assert_allclose(x1, X[:, 2], rtol=0, atol=1e-12 * np.abs(x1).max())

    def test_columns_stop_independently(self):
        rng = np.random.default_rng(23)
        panel = random_connected_panel(rng, n_workers=40, n_firms=8, mover_share=0.5)
        design = Design(panel)
        S = dense_normal_matrix(panel)
        # A reduced right-hand side diag(Schur) v, v a generalized eigenvector
        # of (Schur, diag(Schur)), is solved by the first Jacobi-CG step.
        diag = design.schur_diag()
        _, vecs = scipy.linalg.eigh(design.schur.toarray(), np.diag(diag))
        one_step = np.zeros(design.p)
        one_step[design.W :] = diag * vecs[:, 0]
        B = np.column_stack([np.zeros(design.p), one_step, rng.normal(size=design.p)])
        alone = [design.solve_cg(B[:, c], rtol=1e-12) for c in range(B.shape[1])]
        counts = [it for _, it in alone]
        assert counts[0] == 0 and counts[1] == 1 and counts[2] > 2
        X, iters = design.solve_cg(B, rtol=1e-12)
        assert iters == max(counts)
        assert np.all(X[:, 0] == 0.0)
        for c, (x, _) in enumerate(alone):
            np.testing.assert_allclose(X[:, c], x, rtol=0, atol=1e-12 * max(np.abs(x).max(), 1.0))
        expected = np.linalg.solve(S, B)
        assert np.abs(X - expected).max() <= 1e-8 * np.abs(expected).max()

    def test_single_firm_has_nothing_to_iterate(self):
        panel = Panel(
            worker=["a", "a", "b", "c", "c", "c"],
            firm=["f"] * 6,
            period=[1, 2, 1, 1, 2, 3],
            log_wage=[1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
        )
        design = Design(panel)
        assert design.p == 3
        B = np.arange(6.0).reshape(3, 2)
        X, iters = design.solve_cg(B)
        assert iters == 0
        np.testing.assert_array_equal(X, B / np.array([2.0, 1.0, 3.0])[:, None])
        x, iters = design.solve_cg(B[:, 1])
        assert iters == 0 and x.shape == (3,)

    def test_maxiter_exhausted_names_residual(self):
        rng = np.random.default_rng(24)
        panel = random_connected_panel(rng, n_workers=40, n_firms=7)
        design = Design(panel)
        B = rng.normal(size=(design.p, 3))
        with pytest.raises(NumericalError, match=r"in 1 iterations \(relative residual \d"):
            design.solve_cg(B, rtol=1e-12, maxiter=1)


class TestSchur:
    @pytest.mark.parametrize("n_covariates", (0, 2))
    def test_assembled_schur_matches_dense_elimination(self, n_covariates):
        rng = np.random.default_rng(30 + n_covariates)
        panel = random_connected_panel(rng, n_workers=30, n_firms=6, n_covariates=n_covariates)
        design = Design(panel)
        S = dense_normal_matrix(panel)
        W = panel.n_workers
        expected = S[W:, W:] - S[W:, :W] @ np.linalg.solve(S[:W, :W], S[:W, W:])
        np.testing.assert_allclose(design.schur.toarray(), expected, atol=1e-10)
        np.testing.assert_array_equal(design.schur_diag(), design.schur.diagonal())


class TestDirectSolve:
    @pytest.mark.parametrize("n_covariates", (0, 2))
    def test_direct_solve_matches_dense_solve_on_one_kept_factor(self, n_covariates, monkeypatch):
        """Within the budget every solve reads one Cholesky factor, formed by
        the first solve and kept: no CG iterations, the dense solution."""
        rng = np.random.default_rng(40 + n_covariates)
        panel = random_connected_panel(rng, n_workers=40, n_firms=7, n_covariates=n_covariates)
        design = Design(panel)
        factored = []
        cho_factor = scipy.linalg.cho_factor

        def counted(*args, **kwargs):
            factored.append(args[0].shape)
            return cho_factor(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "cho_factor", counted)
        S = dense_normal_matrix(panel)
        B = rng.normal(size=(design.p, 5))
        assert design.direct and design.schur_factor is None
        X, iters = design.solve_cg(B, rtol=1.0, maxiter=1)  # CG settings do not apply
        x, iters_one = design.solve_cg(B[:, 2])
        assert iters == iters_one == 0 and x.shape == (design.p,)
        expected = np.linalg.solve(S, B)
        assert np.abs(X - expected).max() <= 1e-10 * np.abs(expected).max()
        np.testing.assert_allclose(x, X[:, 2], rtol=0, atol=1e-12 * np.abs(x).max())
        assert factored == [(design.m, design.m)]

    def test_schur_inverse_consumes_the_kept_factor(self, monkeypatch):
        """V is formed in place from the factor a direct solve kept, and the
        Design keeps no factor afterwards; the next solve forms it again."""
        rng = np.random.default_rng(43)
        panel = random_connected_panel(rng, n_workers=30, n_firms=6, n_covariates=1)
        design = Design(panel)
        design.solve_schur(np.ones(design.m))
        kept = design.schur_factor
        factored = []
        monkeypatch.setattr(Design, "schur_cholesky", lambda self: factored.append(self))
        V = design.schur_inverse()
        assert factored == [] and design.schur_factor is None
        assert np.shares_memory(V, kept)
        np.testing.assert_allclose(V, np.linalg.inv(design.schur.toarray()), rtol=0, atol=1e-10)
        monkeypatch.undo()
        design.solve_schur(np.ones(design.m))
        assert design.schur_factor is not None

    def test_budget_sets_the_choice_once(self, monkeypatch):
        """8 m^2 above the budget: CG, no factor; the choice is made on first
        use and kept when the budget changes later."""
        rng = np.random.default_rng(44)
        panel = random_connected_panel(rng, n_workers=30, n_firms=6)
        m = panel.n_firms - 1
        for budget, direct in ((8 * m * m - 1, False), (8 * m * m, True)):
            monkeypatch.setattr(design_module, "PROBE_BLOCK_BYTES", budget)
            design = Design(panel)
            _, iters = design.solve_schur(np.ones(m), rtol=1e-12)
            assert design.direct is direct and (iters == 0) is direct
            assert (design.schur_factor is not None) is direct
            monkeypatch.setattr(design_module, "PROBE_BLOCK_BYTES", 0)
            assert design.direct is direct

    def test_indefinite_schur_complement_names_m(self, monkeypatch):
        """A failed Cholesky factorization is a NumericalError naming m."""
        rng = np.random.default_rng(45)
        panel = random_connected_panel(rng, n_workers=30, n_firms=6)
        design = Design(panel)

        def fail(*args, **kwargs):
            raise scipy.linalg.LinAlgError("2-th leading minor not positive definite")

        monkeypatch.setattr(scipy.linalg, "cho_factor", fail)
        with pytest.raises(NumericalError, match=r"the 5 x 5 Schur complement is not positive"):
            design.solve_schur(np.ones(design.m))
        with pytest.raises(NumericalError, match=r"the 5 x 5 Schur complement"):
            design.schur_inverse()
