import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twowayfe import (
    DataError,
    Decomposition,
    Panel,
    SolverConfig,
    between_within_split,
    compare_decompositions,
    decompose_variance,
    estimate,
    simulate_panel,
    SimConfig,
    build_graph,
    largest_connected_set,
    restrict_panel,
)

from conftest import random_connected_panel


def pvar(x):
    return float(np.var(x))


def pcov(a, b):
    return float(np.mean((a - np.mean(a)) * (b - np.mean(b))))


class TestPlugInDecomposition:
    def test_exactfit_values(self, exactfit_panel):
        est = estimate(exactfit_panel, None, SolverConfig(method="dense_oracle"))
        dec = decompose_variance(exactfit_panel, est)
        # hand-computed from alpha=(2.5,1.5,3.0), psi=(+.5,-.5) over the 6 rows
        assert dec.components["var_alpha"] == pytest.approx(7 / 18, abs=1e-10)
        assert dec.components["var_psi"] == pytest.approx(0.25, abs=1e-10)
        assert dec.components["cov2"] == pytest.approx(0.0, abs=1e-10)
        assert dec.components["var_resid"] == pytest.approx(0.0, abs=1e-12)
        assert dec.total == pytest.approx(7 / 18 + 0.25, abs=1e-10)
        assert dec.flavor == "plug_in"

    def test_additivity_random_panels(self):
        rng = np.random.default_rng(0)
        for seed in range(25):
            panel = random_connected_panel(
                np.random.default_rng(seed),
                n_workers=int(rng.integers(8, 30)),
                n_firms=int(rng.integers(2, 6)),
                n_covariates=int(rng.integers(0, 3)),
                noise=0.4,
            )
            est = estimate(panel, None, SolverConfig(method="dense_oracle"))
            dec = decompose_variance(panel, est)
            assert sum(dec.components.values()) == pytest.approx(dec.total, abs=1e-10)
            assert sum(dec.shares.values()) == pytest.approx(1.0, abs=1e-10)

    def test_with_covariates_total_is_var_y(self):
        rng = np.random.default_rng(1)
        panel = random_connected_panel(rng, n_workers=30, n_firms=5, n_covariates=2)
        est = estimate(panel, None, SolverConfig(method="dense_oracle"))
        dec = decompose_variance(panel, est, include_covariates=True)
        assert dec.total == pytest.approx(pvar(panel.log_wage), abs=1e-12)
        assert set(dec.components) >= {"var_xb", "cov_xb_alpha2", "cov_xb_psi2"}
        assert sum(dec.components.values()) == pytest.approx(dec.total, abs=1e-10)

    def test_constant_psi_zeroes_firm_terms(self):
        rng = np.random.default_rng(2)
        # wages carry no firm component at all
        n_workers, n_firms, T = 20, 4, 3
        alpha = rng.normal(size=n_workers)
        rows = []
        for w in range(n_workers):
            f0, f1 = w % n_firms, (w + 1) % n_firms
            for t in range(1, T + 1):
                rows.append((w, f0 if t == 1 else f1, t))
        panel = Panel(
            worker=[f"w{r[0]:02d}" for r in rows],
            firm=[f"f{r[1]}" for r in rows],
            period=[r[2] for r in rows],
            log_wage=[alpha[r[0]] for r in rows],
        )
        est = estimate(panel, None, SolverConfig(method="dense_oracle"))
        dec = decompose_variance(panel, est)
        assert dec.components["var_psi"] == pytest.approx(0.0, abs=1e-12)
        assert dec.components["cov2"] == pytest.approx(0.0, abs=1e-12)

    def test_mismatched_estimates_rejected(self, exactfit_panel):
        rng = np.random.default_rng(3)
        other = random_connected_panel(rng, n_workers=10, n_firms=3)
        est = estimate(other)
        with pytest.raises(DataError):
            decompose_variance(exactfit_panel, est)

    def test_duplication_leaves_components_unchanged(self):
        rng = np.random.default_rng(4)
        panel = random_connected_panel(rng, n_workers=15, n_firms=4, n_periods=2)
        dup = Panel(
            worker=list(panel.worker_ids[i] for i in panel.worker_idx) * 2,
            firm=list(panel.firm_ids[j] for j in panel.firm_idx) * 2,
            period=list(panel.period) + list(panel.period + panel.period.max()),
            log_wage=np.concatenate([panel.log_wage, panel.log_wage]),
        )
        d1 = decompose_variance(panel, estimate(panel))
        d2 = decompose_variance(dup, estimate(dup))
        for k in d1.components:
            assert d1.components[k] == pytest.approx(d2.components[k], abs=1e-9)

    def test_random_matching_null_cov2(self):
        # matches drawn independently of effects: plug-in cov2 near zero
        reps, vals = 8, []
        for seed in range(reps):
            cfg = SimConfig(
                n_workers=2500,
                n_firms=25,
                n_periods=2,
                corr_sorting=0.0,
                movers_share=0.5,
                noise_sigma2=0.02,
                var_alpha_true=0.2,
                var_psi_true=0.05,
                seed=seed,
            )
            panel, _ = simulate_panel(cfg)
            conn = largest_connected_set(build_graph(panel))
            ep = restrict_panel(panel, conn.workers, conn.firms)
            est = estimate(ep, None, SolverConfig(method="conjugate_gradient"))
            vals.append(decompose_variance(ep, est).components["cov2"])
        vals = np.array(vals)
        se = vals.std(ddof=1) / np.sqrt(reps)
        assert abs(vals.mean()) < 3 * se + 1e-3


class TestBetweenWithin:
    def test_one_observation_per_firm(self):
        panel = Panel(
            worker=["a", "a", "b", "b"],
            firm=["f1", "f2", "f3", "f4"],
            period=[1, 2, 1, 2],
            log_wage=[1.0, 2.0, 3.0, 4.0],
        )
        split = between_within_split(panel)
        assert split.within_firm_variance == pytest.approx(0.0, abs=1e-12)
        assert split.between_firm_variance == pytest.approx(pvar(panel.log_wage), abs=1e-12)

    def test_exactfit_split(self, exactfit_panel):
        split = between_within_split(exactfit_panel)
        assert split.between_firm_variance == pytest.approx(0.25, abs=1e-12)
        assert split.within_firm_variance == pytest.approx(7 / 18, abs=1e-10)
        assert split.total == pytest.approx(pvar(exactfit_panel.log_wage), abs=1e-12)

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(5)
        panel = random_connected_panel(rng, n_workers=40, n_firms=7, noise=0.6)
        split = between_within_split(panel)
        # direct two-pass computation
        y = panel.log_wage
        means = {}
        for j in range(panel.n_firms):
            means[j] = y[panel.firm_idx == j].mean()
        m = np.array([means[j] for j in panel.firm_idx])
        assert split.between_firm_variance == pytest.approx(pvar(m), abs=1e-12)
        assert split.within_firm_variance == pytest.approx(np.mean((y - m) ** 2), abs=1e-12)

    def test_fit_of_other_panel_with_same_row_count_rejected(self):
        """A fit of another panel with as many rows, here the same workers and
        firms with other wages, is rejected rather than split."""
        rng = np.random.default_rng(6)
        panel = random_connected_panel(rng, n_workers=20, n_firms=4, n_covariates=1)
        other = Panel(
            worker=[panel.worker_ids[i] for i in panel.worker_idx],
            firm=[panel.firm_ids[j] for j in panel.firm_idx],
            period=panel.period,
            log_wage=panel.log_wage + rng.normal(size=panel.n_obs),
            covariates=panel.covariates,
        )
        assert other.n_obs == panel.n_obs
        between_within_split(panel, estimate(panel))
        with pytest.raises(DataError, match="not computed on this panel"):
            between_within_split(panel, estimate(other))


class TestCompare:
    def test_identical_decompositions(self):
        d = Decomposition.from_components(
            {"var_alpha": 0.2, "var_psi": 0.1, "cov2": 0.05, "var_resid": 0.05}
        )
        table = compare_decompositions(d, d)
        assert table.total_change == 0.0
        assert all(v == 0.0 for v in table.changes.values())

    def test_random_pairs_match_subtraction(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            c1 = {k: rng.uniform(0.01, 0.5) for k in ("var_alpha", "var_psi", "cov2", "var_resid")}
            c2 = {k: rng.uniform(0.01, 0.5) for k in c1}
            table = compare_decompositions(
                Decomposition.from_components(c1), Decomposition.from_components(c2)
            )
            for k in c1:
                assert table.changes[k] == pytest.approx(c2[k] - c1[k], abs=1e-15)
            assert table.total_change == pytest.approx(
                sum(c2.values()) - sum(c1.values()), abs=1e-12
            )

    def test_mismatched_components_rejected(self):
        a = Decomposition.from_components({"var_alpha": 0.1, "var_psi": 0.1})
        b = Decomposition.from_components({"var_alpha": 0.1, "cov2": 0.1})
        with pytest.raises(DataError):
            compare_decompositions(a, b)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
        st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
    )
    def test_change_shares_sum_to_one(self, vals_a, vals_b):
        names = ("var_alpha", "var_psi", "cov2", "var_resid")
        a = Decomposition.from_components(dict(zip(names, vals_a)))
        b = Decomposition.from_components(dict(zip(names, vals_b)))
        table = compare_decompositions(a, b)
        if abs(table.total_change) > 1e-6:
            assert sum(table.shares_of_change.values()) == pytest.approx(1.0, abs=1e-6)
