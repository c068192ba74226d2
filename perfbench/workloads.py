"""The three benchmark workloads.

Each workload generates its inputs from the seed in `setup`, runs one pass of
the timed region in `run_pass` on input `slot` (a closed loop: one client, each call starts
after the previous one returns), and checks the outputs in `check` outside
the timed region. Timed calls look each twowayfe function up on its module at
call time (`tw.panel.load_panel`, not a name bound at import), so the traced
run's wrappers see every one of them.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

import twowayfe as tw
import twowayfe.cli  # noqa: F401  (binds tw.cli)

# Bound at import, before any wrapper is installed: checks that re-read CLI
# artifacts call these so they add no spans to the traced run.
from twowayfe.panel import load_panel, restrict_panel


class Ops:
    """Counts operations: each listed public call and each correctness check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def call(self, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            self.failed += 1
            self.failures.append(f"{fn.__name__}: {type(exc).__name__}: {exc}")
            raise

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"check failed: {name}")


def normal_equations_residual(p, residuals) -> float:
    """||D'e|| / ||D'y|| for the worker, firm and covariate columns of D."""

    def dt(v):
        parts = [
            np.bincount(p.worker_idx, weights=v, minlength=p.n_workers),
            np.bincount(p.firm_idx, weights=v, minlength=p.n_firms),
        ]
        if p.covariate_count:
            parts.append(p.covariates.T @ v)
        return np.concatenate(parts)

    return float(np.linalg.norm(dt(residuals)) / np.linalg.norm(dt(p.log_wage)))


def components_add_up(components: dict, total: float) -> bool:
    return abs(sum(components.values()) - total) <= 1e-10 * abs(total)


RESIDUAL_TOL = 1e-8
CG = tw.SolverConfig(method="conjugate_gradient")


class LargePlugin:
    """Ingest -> connect -> estimate (CG) -> plug-in decomposition -> leave-one-out
    set on one CSV panel with 30% movers; no correction code runs."""

    name = "large_plugin"
    kept_outputs = 1  # pass outputs kept for the checks
    counted_passes = 1  # traced passes summed into the per-layer metrics
    sim = dict(
        n_workers=10_000, n_firms=1_000, n_periods=10, movers_share=0.3,
        var_alpha_true=0.2, var_psi_true=0.05, corr_sorting=0.15, noise_sigma2=0.1,
    )

    def setup(self, seed: int, workdir: str) -> dict:
        panel, _ = tw.simulate.simulate_panel(tw.SimConfig(seed=seed, **self.sim))
        path = os.path.join(workdir, "panel.csv")
        tw.panel.write_panel(panel, path)
        return {"csv": path}

    def run_pass(self, inputs: dict, slot: int, run_id: str, ops: Ops) -> dict:
        panel, report = ops.call(tw.panel.load_panel, inputs["csv"])
        graph = ops.call(tw.network.build_graph, panel)
        largest = ops.call(tw.network.largest_connected_set, graph)
        est_panel = ops.call(tw.panel.restrict_panel, panel, largest.workers, largest.firms)
        est = ops.call(tw.solver.estimate, est_panel, None, CG)
        dec = ops.call(tw.decompose.decompose_variance, est_panel, est)
        loo = ops.call(tw.network.leave_one_out_connected_set, graph, panel)
        ops.call(tw.panel.restrict_panel, panel, loo.workers, loo.firms)
        return {"report": report, "largest": largest, "est": est, "dec": dec, "loo": loo}

    def check(self, inputs: dict, outputs: list, ops: Ops) -> dict:
        out = outputs[0]
        ops.check("residual", normal_equations_residual(out["est"].panel, out["est"].residuals) <= RESIDUAL_TOL)
        ops.check("plug-in components add up", components_add_up(out["dec"].components, out["dec"].total))
        ops.check(
            "leave-one-out set inside largest set",
            out["loo"].workers <= out["largest"].workers and out["loo"].firms <= out["largest"].firms,
        )
        ops.check("no rows dropped on clean CSV", out["report"].rows_dropped == 0)
        return {}


class SparseExactMC:
    """Monte Carlo over 12 limited-mobility panels (criterion-8 design): both
    exact corrections per replication; one pass is one replication."""

    name = "sparse_exact_mc"
    replications = 12
    kept_outputs = replications
    counted_passes = 4
    probe_replications = 3
    sim = dict(
        n_workers=3000, n_firms=300, n_periods=2, var_alpha_true=0.1, var_psi_true=0.02,
        corr_sorting=0.1, movers_share=0.25, network="size_skewed",
        noise_kind="heteroskedastic", noise_sigma2_range=(0.01, 0.1), noise_size_coupled=True,
    )

    def setup(self, seed: int, workdir: str) -> dict:
        base = seed * self.replications
        sims = [
            tw.simulate.simulate_panel(tw.SimConfig(seed=base + r, **self.sim))
            for r in range(self.replications)
        ]
        return {"panels": [p for p, _ in sims], "truths": [t for _, t in sims]}

    def run_pass(self, inputs: dict, slot: int, run_id: str, ops: Ops) -> dict:
        r = slot % self.replications
        panel = inputs["panels"][r]
        graph = ops.call(tw.network.build_graph, panel)
        loo = ops.call(tw.network.leave_one_out_connected_set, graph, panel)
        loo_panel = ops.call(tw.panel.restrict_panel, panel, loo.workers, loo.firms)
        est = ops.call(tw.solver.estimate, loo_panel, None, CG)
        plug = ops.call(tw.decompose.decompose_variance, loo_panel, est)
        lo = ops.call(tw.correct.corrected_decomposition, loo_panel, est, "leave_out", "exact")
        ho = ops.call(tw.correct.corrected_decomposition, loo_panel, est, "homoskedastic_trace", "exact")
        return {"r": r, "loo": loo, "loo_panel": loo_panel, "est": est, "plug": plug, "lo": lo, "ho": ho}

    def check(self, inputs: dict, outputs: list, ops: Ops) -> dict:
        reps = list({o["r"]: o for o in outputs}.values())  # first visit of each panel
        plug_gap, lo_gap = [], []
        for o in reps:
            ops.check(f"residual r={o['r']}", normal_equations_residual(o["est"].panel, o["est"].residuals) <= RESIDUAL_TOL)
            ops.check(f"plug-in adds up r={o['r']}", components_add_up(o["plug"].components, o["plug"].total))
            plug_vp = o["plug"].components["var_psi"]
            for label in ("lo", "ho"):
                ops.check(f"{label} var_psi below plug-in r={o['r']}", o[label].components["var_psi"] < plug_vp)
            truth = tw.simulate.truth_components(inputs["truths"][o["r"]], o["loo"], inputs["panels"][o["r"]])
            plug_gap.append(plug_vp - truth.components["var_psi"])
            lo_gap.append(o["lo"].components["var_psi"] - truth.components["var_psi"])
        ops.check("|mean plug-in gap| exceeds |mean leave-out gap|", abs(np.mean(plug_gap)) > abs(np.mean(lo_gap)))

        first = reps[0]
        table = ops.call(tw.correct.compute_leverages, first["loo_panel"], None, "exact")
        rank = first["loo_panel"].n_workers + first["loo_panel"].n_firms - 1
        ops.check("exact leverages sum to the rank", abs(float(table.leverage.sum()) - rank) <= 1e-6)

        # Robustness probe: counted on its own, not in the run's failed share,
        # so that a fix which lets these finish reads as neither a slowdown nor
        # a change in the workload's own failures.
        failed = 0
        for o in reps[: self.probe_replications]:
            try:
                tw.correct.corrected_decomposition(o["loo_panel"], o["est"], "leave_out", "stochastic")
            except tw.TwoWayError:
                failed += 1
        return {
            "stochastic_leave_out_attempted": min(len(reps), self.probe_replications),
            "stochastic_leave_out_failed": failed,
            "mean_plug_in_gap": float(np.mean(plug_gap)),
            "mean_leave_out_gap": float(np.mean(lo_gap)),
            "replications_checked": len(reps),
        }


class CliStochastic:
    """`twowayfe pipeline --leave-out` in-process with the stochastic backend
    and every other CLI default (zigzag solver, 100 probes)."""

    name = "cli_stochastic"
    kept_outputs = 1
    counted_passes = 1
    sim = dict(
        n_workers=2000, n_firms=200, n_periods=5, movers_share=0.3,
        var_alpha_true=0.2, var_psi_true=0.05, corr_sorting=0.15, noise_sigma2=0.1,
    )
    stages = ("validate", "connect", "estimate", "decompose", "correct", "correct_leave_out")

    def setup(self, seed: int, workdir: str) -> dict:
        panel, _ = tw.simulate.simulate_panel(tw.SimConfig(seed=seed, **self.sim))
        csv = os.path.join(workdir, "panel.csv")
        tw.panel.write_panel(panel, csv)
        config = os.path.join(workdir, "config.json")
        with open(config, "w", encoding="utf-8") as fh:
            json.dump({"backend": "stochastic"}, fh)
        return {"csv": csv, "config": config, "workdir": workdir}

    def run_pass(self, inputs: dict, slot: int, run_id: str, ops: Ops) -> dict:
        out = os.path.join(inputs["workdir"], f"pipeline-{run_id}")
        argv = ["pipeline", "--leave-out", "--panel", inputs["csv"], "--config", inputs["config"], "--out", out]
        code = ops.call(tw.cli.main, argv)
        if code != 0:
            ops.failed += 1
            ops.failures.append(f"pipeline exit code {code}")
        return {"out": out, "code": code}

    def check(self, inputs: dict, outputs: list, ops: Ops) -> dict:
        out = outputs[0]["out"]  # a non-zero exit code already counted as failed
        for stage in self.stages + ("",):
            stage_dir = os.path.join(out, stage)
            with open(os.path.join(stage_dir, "manifest.json"), encoding="utf-8") as fh:
                listed = set(json.load(fh)["outputs"])
            present = {
                name for name in os.listdir(stage_dir)
                if os.path.isfile(os.path.join(stage_dir, name)) and name != "manifest.json"
            }
            ops.check(f"manifest of {stage or 'pipeline'} lists its outputs", listed == present)
        for rel in ("correct/corrected_homoskedastic_trace.json", "correct_leave_out/corrected_leave_out.json"):
            with open(os.path.join(out, rel), encoding="utf-8") as fh:
                data = json.load(fh)
            numbers = [v for v in data.values() if isinstance(v, float)]
            numbers += [v for v in data["shares"].values()]
            ops.check(f"{rel} finite", bool(numbers) and all(math.isfinite(v) for v in numbers))

        ops.check("residual", _cli_residual(out) <= RESIDUAL_TOL)
        with open(os.path.join(out, "decompose", "decomposition.json"), encoding="utf-8") as fh:
            dec = json.load(fh)
        comps = {k: dec[k] for k in ("var_alpha", "var_psi", "cov2", "var_resid")}
        ops.check("plug-in components add up", components_add_up(comps, dec["total"]))
        return {}


def _cli_residual(out: str) -> float:
    """Normal-equations residual of the effects the `estimate` stage wrote,
    on the observations of its estimation set."""

    def read(name):
        with open(os.path.join(out, "estimate", name), encoding="utf-8") as fh:
            next(fh)
            return dict(line.rstrip("\n").split(",") for line in fh)

    alpha, psi = read("alpha.csv"), read("psi.csv")
    panel, _ = load_panel(os.path.join(out, "validate", "panel.csv"))
    panel = restrict_panel(panel, alpha.keys(), psi.keys())
    a = np.array([float(alpha[w]) for w in panel.worker_ids])
    f = np.array([float(psi[j]) for j in panel.firm_ids])
    return normal_equations_residual(panel, panel.log_wage - a[panel.worker_idx] - f[panel.firm_idx])


WORKLOADS = {w.name: w for w in (LargePlugin(), SparseExactMC(), CliStochastic())}
