#!/usr/bin/env python3
"""Time a correction at criterion-13 scale (ROADMAP size L).

Simulates the criterion-13 panel (100k workers, 10k firms, T=10, seed 99),
extracts the connected set that `--method` runs on in the CLI's `pipeline`
(the leave-one-out set for leave_out, the default, whose extraction is timed
as `loo_set_seconds`; the largest set for homoskedastic_trace), fits it by
conjugate gradient, and times one
`corrected_decomposition` on that fit with the chosen backend (exact, the
exact leave-out (P_oo, B_oo) table included, or stochastic at its default
probes and seed). The result is stored under `--label` in a JSON file, by
default `BENCH_<backend>_<method>_L.json`, that keeps the runs of other
labels, so one file can hold runs of the parent commit and of a change:

    python3 scripts/bench_leave_out_L.py --backend stochastic --label change
    python3 scripts/bench_leave_out_L.py --backend exact --method homoskedastic_trace --label change

The package is imported from `src/` of the checkout this script sits in, and
BLAS is held at 2 threads, as in `perfbench/run.py`, whose source digest the
run records. Peak RSS is the process's `ru_maxrss`, so it includes simulation
and the fit (`setup_peak_rss_mb` is its value before the timed call).
"""

import argparse
import json
import os
import platform
import resource
import sys
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


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def run(backend: str, method: str) -> dict:
    panel, _ = tw.simulate_panel(tw.SimConfig(**CRITERION_13))
    graph = tw.build_graph(panel)
    t0 = time.perf_counter()
    if method == "leave_out":
        conn = tw.leave_one_out_connected_set(graph, panel)
    else:
        conn = tw.largest_connected_set(graph)
    set_seconds = time.perf_counter() - t0
    est_panel = tw.restrict_panel(panel, conn.workers, conn.firms)
    est = tw.estimate(est_panel, None, tw.SolverConfig(method="conjugate_gradient"))
    setup_peak = _peak_rss_mb()

    t0 = time.perf_counter()
    dec = tw.corrected_decomposition(est_panel, est, method, backend=backend)
    seconds = time.perf_counter() - t0

    design = est.design
    result = {
        "seconds": round(seconds, 2),
        "peak_rss_mb": round(_peak_rss_mb(), 1),
        "setup_peak_rss_mb": round(setup_peak, 1),
        "obs": est_panel.n_obs,
        "workers": est_panel.n_workers,
        "firms": est_panel.n_firms,
        "m": design.F - 1 + design.K,
    }
    if design.exact_table is not None:
        leverage = design.exact_table[0]  # per cell
        cells = design.cells
        cells_per_worker = np.bincount(cells.worker_idx, minlength=design.W)
        result.update(
            cells=cells.size,
            mover_cells=int((cells_per_worker[cells.worker_idx] > 1).sum()),
            leverage_sum_minus_rank=float(cells.counts @ leverage - design.p),
            max_leverage=float(leverage.max()),
        )
    if method == "leave_out":
        result["loo_set_seconds"] = round(set_seconds, 3)
    if backend == "stochastic":
        result.update(probes=tw.correct.DEFAULT_PROBES, seed=0)
    result["corrected"] = {k: float(v) for k, v in dec.components.items()}
    result["source_sha256"] = _source_digest()
    return result


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
        "set of the criterion-13 panel"
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
