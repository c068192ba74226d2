import os
import subprocess
import sys
import textwrap

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# Runs with networkx and pandas unimportable: the package needs only the
# numpy and scipy that pyproject.toml lists.
SCRIPT = textwrap.dedent(
    """
    import os, sys
    sys.modules["networkx"] = None
    sys.modules["pandas"] = None
    import twowayfe as tw
    import twowayfe.cli

    panel = tw.Panel(worker=["a", "a", "b"], firm=["f1", "f2", "f1"], period=[1, 2, 1],
                     log_wage=[1.0, 2.0, 0.5])
    path = os.path.join(sys.argv[1], "panel.csv")
    tw.write_panel(panel, path)
    back, report = tw.load_panel(path)
    assert back == panel and report.rows_dropped == 0
    print("ok")
    """
)


def test_import_and_panel_round_trip_need_only_numpy_and_scipy(tmp_path):
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"
