import importlib.util
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
