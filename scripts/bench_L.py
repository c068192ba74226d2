#!/usr/bin/env python3
"""Time every stage of one pipeline run at criterion-13 scale (ROADMAP size L).

Simulates the criterion-13 panel (100k workers, 10k firms, T=10, seed 99: 1M
observations) and runs it through these stages, in this order, once each:

    simulate   the criterion-13 panel
    graph      build_graph
    set        the connected set the CLI `pipeline` uses for `--method`: the
               leave-one-out set for leave_out (the default), the largest set
               for homoskedastic_trace
    restrict   restrict_panel to that set
    estimate   a conjugate-gradient fit
    decompose  decompose_variance
    correct    corrected_decomposition with `--method` and `--backend` (exact,
               the (P_oo, B_oo) cell table included, or stochastic at its
               default probes and seed)
    write      write_panel of the simulated panel to a CSV file in a temporary
               directory, after the fit, its Design and the estimation panel
               are dropped
    load       load_panel of that file

Each stage records its seconds and the process peak RSS (`ru_maxrss`) read at
its end. That peak is a high-water mark, so it never falls from one stage to
the next. Ingest runs last because a load's peak (about 280 MB at L) is above a
stochastic correction's (215-222 MB): run first, it would hide every
stochastic correction peak. Run last, the `correct` peak is the correction's,
with simulation and the fit included, and the `load` peak shows the load's own
where it is the highest so far (every stochastic run).

The run fails (non-zero exit) unless the loaded panel equals the simulated one
with no dropped rows, the plug-in and the corrected components each add up to
their total within 1e-10 relative, and, on the exact backend, the leverages sum
to the rank within 1e-6. It is stored under `--label` in a JSON file, by
default `BENCH_<backend>_<method>_L.json`, that keeps the runs of other labels.
A figure per label comes from at least 2 runs, alternating between parent and
change:

    python3 scripts/bench_L.py --backend stochastic --label change-1
    python3 scripts/bench_L.py --backend exact --method homoskedastic_trace --label change-1

The package is imported from `src/` of the checkout this script sits in, and
BLAS is held at 2 threads, as in `perfbench/run.py`, whose source digest the
run records.
"""

import argparse
import json
import os
import platform
import resource
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


def _check(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"check failed: {what}")


def _adds_up(dec) -> bool:
    return abs(sum(dec.components.values()) - dec.total) <= 1e-10 * abs(dec.total)


def run(backend: str, method: str) -> dict:
    stages = {}

    def stage(name, fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux
        stages[name] = {"seconds": round(time.perf_counter() - t0, 3), "peak_rss_mb": round(peak, 1)}
        return out

    panel, _ = stage("simulate", tw.simulate_panel, tw.SimConfig(**CRITERION_13))
    graph = stage("graph", tw.build_graph, panel)
    if method == "leave_out":
        conn = stage("set", tw.leave_one_out_connected_set, graph, panel)
    else:
        conn = stage("set", tw.largest_connected_set, graph)
    est_panel = stage("restrict", tw.restrict_panel, panel, conn.workers, conn.firms)
    est = stage("estimate", tw.estimate, est_panel, None, tw.SolverConfig(method="conjugate_gradient"))
    plug_in = stage("decompose", tw.decompose_variance, est_panel, est)
    dec = stage("correct", tw.corrected_decomposition, est_panel, est, method, backend=backend)
    _check(_adds_up(plug_in) and _adds_up(dec), "components add up to the total")

    design = est.design
    cells = design.cells
    if backend == "exact":  # exact_table[0] holds the leverage P_c per cell
        _check(abs(cells.counts @ design.exact_table[0] - design.p) <= 1e-6, "leverages sum to the rank")
    cells_per_worker = np.bincount(cells.worker_idx, minlength=design.W)
    result = {
        "obs": est_panel.n_obs,
        "workers": est_panel.n_workers,
        "firms": est_panel.n_firms,
        "m": design.m,
        "cells": cells.size,
        "mover_cells": int((cells_per_worker[cells.worker_idx] > 1).sum()),
    }
    del graph, conn, est_panel, est, design, cells

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "panel.csv")
        stage("write", tw.write_panel, panel, path)
        back, report = stage("load", tw.load_panel, path)
        result["file_mb"] = round(os.path.getsize(path) / 2**20, 1)
    _check(back == panel and not report.rows_dropped, "the loaded panel equals the simulated one")

    if backend == "stochastic":
        result.update(probes=tw.correct.DEFAULT_PROBES, seed=0)
    result["corrected"] = {k: float(v) for k, v in dec.components.items()}
    return {"stages": stages, **result, "source_sha256": _source_digest()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--backend", required=True, choices=("exact", "stochastic"))
    p.add_argument("--method", choices=("leave_out", "homoskedastic_trace"), default="leave_out")
    p.add_argument("--label", required=True, help="key of this run in the output file")
    p.add_argument("--out", help="output file (default: BENCH_<backend>_<method>_L.json)")
    args = p.parse_args(argv)
    out = args.out or os.path.join(ROOT, f"BENCH_{args.backend}_{args.method}_L.json")

    record = {"runs": {}}
    if os.path.exists(out):
        with open(out, encoding="utf-8") as fh:
            record = json.load(fh)
    result = run(args.backend, args.method)
    where = "leave-one-out" if args.method == "leave_out" else "largest connected"
    record["benchmark"] = (
        f"{args.backend} {args.method.replace('_', '-')} corrected_decomposition on the {where} "
        "set of the criterion-13 panel; a run with `stages` times every stage of bench_L.py, "
        "one without times the correction only"
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
