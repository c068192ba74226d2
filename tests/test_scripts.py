import importlib.util
import json
import math
import os

import pytest

import twowayfe as tw

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(SCRIPTS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("method", ("leave_out", "homoskedastic_trace"))
def test_stochastic_calibration_runs(method, capsys):
    """One seed at 20 probes: the script returns 0 and prints a row per
    component (and, for the homoskedastic trace, the median mc_stderr)."""
    script = load_script("stochastic_calibration")
    assert script.main(["--seeds", "1", "--probes", "20", "--method", method]) == 0
    out = capsys.readouterr().out
    assert out.startswith("1 seeds of the criterion-8 design, 20 probes")
    for component in ("var_alpha", "var_psi", "cov_alpha_psi"):
        assert any(line.startswith(component) for line in out.splitlines()), component
    assert ("median mc_stderr" in out) == (method == "homoskedastic_trace")


def test_bias_correction_experiment_runs(capsys):
    """Two small replications: the script returns 0 and prints the plug-in,
    trace-corrected and leave-out rows, each with a mean, a bias and a z."""
    script = load_script("bias_correction_experiment")
    assert script.main(["--replications", "2", "--workers", "300", "--firms", "30"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("replications: 2, noise: homoskedastic")
    rows = {line[:24].strip(): line[24:].split() for line in out.splitlines()[2:]}
    for name in ("plug-in", "trace-corrected", "leave-out"):
        assert len(rows[name]) == 3, name
        assert all(math.isfinite(float(v)) for v in rows[name]), name


# The criterion-13 design shrunk to S size, so the L bench runs in a second.
SMALL_CRITERION_13 = dict(
    n_workers=2000, n_firms=200, n_periods=5, movers_share=0.3,
    var_alpha_true=0.2, var_psi_true=0.05, corr_sorting=0.15, noise_sigma2=0.1, seed=99,
)


@pytest.mark.parametrize("method", ("leave_out", "homoskedastic_trace"))
@pytest.mark.parametrize("backend", ("exact", "stochastic"))
def test_bench_L_runs(backend, method, tmp_path, monkeypatch, capsys):
    """The L bench on the small design records every stage in order, with
    peaks that never fall, and the corrected components of a direct
    corrected_decomposition on the same fit, bit for bit; earlier runs in
    --out are kept."""
    script = load_script("bench_L")
    monkeypatch.setattr(script, "CRITERION_13", SMALL_CRITERION_13)
    out = tmp_path / "bench.json"
    out.write_text('{"runs": {"earlier": {}}}')
    argv = ["--backend", backend, "--method", method, "--label", "smoke", "--out", str(out)]
    assert script.main(argv) == 0
    record = json.loads(out.read_text())
    assert record["panel"] == SMALL_CRITERION_13 and set(record["runs"]) == {"earlier", "smoke"}
    run = record["runs"]["smoke"]
    assert json.loads(capsys.readouterr().out)["smoke"]["obs"] == run["obs"]
    assert list(run["stages"]) == [
        "simulate", "graph", "set", "restrict", "estimate", "decompose", "correct", "write", "load",
    ]
    peaks = [stage["peak_rss_mb"] for stage in run["stages"].values()]
    assert peaks == sorted(peaks)
    assert ("probes" in run) == (backend == "stochastic") and run["file_mb"] > 0
    assert set(run["environment"]) == {"nproc", "blas_threads", "python", "numpy", "scipy"}

    panel, _ = tw.simulate_panel(tw.SimConfig(**SMALL_CRITERION_13))
    graph = tw.build_graph(panel)
    conn = (tw.leave_one_out_connected_set(graph, panel) if method == "leave_out"
            else tw.largest_connected_set(graph))
    est_panel = tw.restrict_panel(panel, conn.workers, conn.firms)
    est = tw.estimate(est_panel, None, tw.SolverConfig(method="conjugate_gradient"))
    direct = tw.corrected_decomposition(est_panel, est, method, backend=backend)
    assert run["corrected"] == direct.components
    assert (run["obs"], run["m"], run["cells"]) == (est_panel.n_obs, est.design.m, est.design.cells.size)
