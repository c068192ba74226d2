import importlib.util
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
