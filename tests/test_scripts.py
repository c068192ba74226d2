import importlib.util
import json
import math
import os

import pytest

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


# The criterion-13 design shrunk to S size, so the L scripts run in a second.
SMALL_CRITERION_13 = dict(
    n_workers=2000, n_firms=200, n_periods=5, movers_share=0.3,
    var_alpha_true=0.2, var_psi_true=0.05, corr_sorting=0.15, noise_sigma2=0.1, seed=99,
)
ENVIRONMENT_KEYS = {"nproc", "blas_threads", "python", "numpy", "scipy"}


def run_l_script(name, argv, tmp_path, monkeypatch):
    """Run an L script on the small design; returns the record it wrote
    under --out, which keeps the runs already there."""
    script = load_script(name)
    monkeypatch.setattr(script, "CRITERION_13", SMALL_CRITERION_13)
    out = tmp_path / f"{name}.json"
    out.write_text('{"runs": {"earlier": {}}}')
    assert script.main([*argv, "--label", "smoke", "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert set(record) == {"benchmark", "panel", "runs"}
    assert record["panel"] == SMALL_CRITERION_13
    assert set(record["runs"]) == {"earlier", "smoke"}
    run = record["runs"]["smoke"]
    assert set(run["environment"]) == ENVIRONMENT_KEYS
    return run


def test_bench_leave_out_L_stochastic_runs(tmp_path, monkeypatch, capsys):
    run = run_l_script("bench_leave_out_L", ["--backend", "stochastic"], tmp_path, monkeypatch)
    assert set(run) == {
        "seconds", "peak_rss_mb", "setup_peak_rss_mb", "obs", "workers", "firms", "m",
        "loo_set_seconds", "probes", "seed", "corrected", "source_sha256", "environment",
    }
    assert set(run["corrected"]) == {"var_alpha", "var_psi", "cov2", "var_resid"}
    assert all(math.isfinite(v) for v in run["corrected"].values())
    assert run["m"] == run["firms"] - 1 and run["probes"] == 100
    assert json.loads(capsys.readouterr().out)["smoke"]["obs"] == run["obs"]


def test_bench_ingest_L_runs(tmp_path, monkeypatch):
    run = run_l_script("bench_ingest_L", [], tmp_path, monkeypatch)
    assert set(run) == {
        "write_seconds", "load_seconds", "write_runs", "load_runs", "peak_rss_mb",
        "setup_peak_rss_mb", "obs", "workers", "firms", "file_mb", "source_sha256",
        "environment",
    }
    assert len(run["write_runs"]) == len(run["load_runs"]) == 3
    assert run["workers"] == SMALL_CRITERION_13["n_workers"] and run["file_mb"] > 0
