#!/usr/bin/env python3
"""Time panel CSV egress and ingest at criterion-13 scale (ROADMAP size L).

Simulates the criterion-13 panel (100k workers, 10k firms, T=10, seed 99:
1M observations), then times `write_panel` of it to a CSV file in a temporary
directory and `load_panel` of that file, REPEATS times each in turn; the
median and every run are kept. The result is stored under `--label` in a JSON
file, by default `BENCH_ingest_L.json`, that keeps the runs of other labels,
so one file can hold a run of the parent commit and one of a change:

    python3 scripts/bench_ingest_L.py --label change

The package is imported from `src/` of the checkout this script sits in, and
BLAS is held at 2 threads, as in `perfbench/run.py`, whose source digest the
run records. Peak RSS is the process's `ru_maxrss`, so it includes the
simulation (`setup_peak_rss_mb` is its value before the first timed call).
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from perfbench.run import BLAS_THREADS, _source_digest  # noqa: E402  (pins BLAS threads)

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import twowayfe as tw  # noqa: E402

CRITERION_13 = dict(
    n_workers=100_000, n_firms=10_000, n_periods=10, movers_share=0.3,
    var_alpha_true=0.2, var_psi_true=0.05, corr_sorting=0.15, noise_sigma2=0.1, seed=99,
)
REPEATS = 3


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - t0, out


def run() -> dict:
    panel, _ = tw.simulate_panel(tw.SimConfig(**CRITERION_13))
    setup_peak = _peak_rss_mb()
    write_s, load_s = [], []
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "panel.csv")
        for _ in range(REPEATS):
            seconds, _ = _timed(tw.write_panel, panel, path)
            write_s.append(seconds)
            seconds, (back, report) = _timed(tw.load_panel, path)
            load_s.append(seconds)
            if back != panel or report.rows_dropped:
                raise SystemExit("the loaded panel differs from the written one")
            del back, report
        file_mb = os.path.getsize(path) / 2**20
    return {
        "write_seconds": round(statistics.median(write_s), 3),
        "load_seconds": round(statistics.median(load_s), 3),
        "write_runs": [round(s, 3) for s in write_s],
        "load_runs": [round(s, 3) for s in load_s],
        "peak_rss_mb": round(_peak_rss_mb(), 1),
        "setup_peak_rss_mb": round(setup_peak, 1),
        "obs": panel.n_obs,
        "workers": panel.n_workers,
        "firms": panel.n_firms,
        "file_mb": round(file_mb, 1),
        "source_sha256": _source_digest(),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--label", required=True, help="key of this run in the output file")
    p.add_argument("--out", help="output file (default: BENCH_ingest_L.json)")
    args = p.parse_args(argv)
    out = args.out or os.path.join(ROOT, "BENCH_ingest_L.json")

    record = {"runs": {}}
    if os.path.exists(out):
        with open(out, encoding="utf-8") as fh:
            record = json.load(fh)
    result = run()
    record["benchmark"] = (
        f"write_panel and load_panel of the criterion-13 panel as CSV, median of {REPEATS} "
        "alternating runs each"
    )
    record["panel"] = CRITERION_13
    record["runs"][args.label] = {
        **result,
        "environment": {
            "nproc": os.cpu_count(),
            "blas_threads": BLAS_THREADS,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print(json.dumps({args.label: result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
