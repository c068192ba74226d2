"""Pipeline benchmark for twowayfe.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from `src/`. One
process runs one workload: it generates the inputs from the seed, repeats the
workload's timed pass in a closed loop for S seconds, checks the outputs,
prints one `name = value unit` line per metric, and ends with one JSON line
{"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics (wall_s, setup_s, peak_rss_mb).
--trace 1 reports the per-layer metrics: it alternates untraced and traced
passes on the same input and sums spans over a fixed number of traced passes,
so counts repeat exactly for one seed and one commit. See README.md.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time

BLAS_THREADS = 2  # the reference box has nproc = 2
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(HERE, "_runs")

SETUP_SAMPLES = 5
COVERAGE_MIN = 0.95

# span name -> exported metric suffixes
SPAN_METRICS = {
    "panel.load_panel": ("s", "calls"),
    "panel.restrict_panel": ("s", "calls"),
    "panel.write_panel": ("s",),
    "network.build_graph": ("s", "calls"),
    "network.largest_connected_set": ("s",),
    "network.leave_one_out_connected_set": ("s", "calls", "self_s"),
    "design.check_connected": ("s",),
    "design.solve_exact": ("s",),
    "design.solve_for_observations": ("s",),
    "design.solve_cg": ("s", "calls"),
    "solver.estimate": ("s", "calls", "self_s"),
    "decompose.decompose_variance": ("s",),
    "decompose.between_within_split": ("s",),
    "correct.leave_out.exact": ("s", "self_s"),
    "correct.homoskedastic.exact": ("s", "self_s"),
    "correct.leave_out.stochastic": ("s", "self_s"),
    "correct.homoskedastic.stochastic": ("s", "self_s"),
    "correct.exact_trace_quadratic": ("s", "self_s"),
    "correct.hutchinson_trace_quadratic": ("s", "self_s"),
    "correct.compute_leverages": ("s", "self_s"),
    "cli.cmd_validate": ("s", "self_s"),
    "cli.cmd_connect": ("s", "self_s"),
    "cli.cmd_estimate": ("s", "self_s"),
    "cli.cmd_decompose": ("s", "self_s"),
    "cli.cmd_correct": ("s", "self_s"),
    "simulate.simulate_panel": ("s",),
}
CORRECTIONS = [n for n in SPAN_METRICS if n.startswith(("correct.leave_out.", "correct.homoskedastic."))]
UNITS = {"s": "s", "self_s": "s", "calls": "count"}


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, help="a workload name, or all")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "twowayfe", "*.py"))):
        with open(path, "rb") as fh:
            h.update(os.path.basename(path).encode() + b"\0" + fh.read())
    return h.hexdigest()


def _git_sha():
    """HEAD of the checkout, or None when the checkout is not a git repository
    of its own."""
    try:
        res = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = res.stdout.split()
    if res.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def _environment(seed: int) -> dict:
    import networkx
    import numpy
    import scipy

    return {
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
        "seed": seed,
    }


def _setup_once(args) -> float:
    """Process start to inputs ready, in a fresh process: interpreter start,
    importing twowayfe, then simulating (and, for CSV workloads, writing) the
    inputs."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    t0 = time.perf_counter()
    subprocess.run(cmd, check=True)  # no timeout: waiting with one polls in 50 ms steps
    return time.perf_counter() - t0


def _loop(seconds: float, min_rounds: int, run_round, between=None):
    """Closed loop: start another round while it is expected to end within
    `seconds` of round time; always run at least `min_rounds`. `between` runs
    between rounds once a quarter, half and three quarters of `seconds` have
    passed, outside the round times."""
    walls = []
    marks = [seconds * f for f in (0.25, 0.5, 0.75)] if between else []
    while True:
        t0 = time.perf_counter()
        run_round(len(walls))
        walls.append(time.perf_counter() - t0)
        elapsed = sum(walls)
        while marks and elapsed >= marks[0]:
            marks.pop(0)
            between()
        if len(walls) >= min_rounds and elapsed + statistics.mean(walls) > seconds:
            return walls


def _layer_metrics(tracer, phases, pass_phases, traced_walls, overheads) -> dict:
    spans = tracer.summary(phases)  # a name with no spans reads as zeros
    m = {}
    for name, kinds in SPAN_METRICS.items():
        row = spans[name]
        for kind in kinds:
            suffix = "_calls" if kind == "calls" else f"_{kind}"
            m[name + suffix] = (row[kind], UNITS[kind])

    def ratio(num, den):
        return num / den if den else 0.0

    def count(name):
        return tracer.count(name, phases)

    inputs = tracer.distinct_count("panel.distinct_inputs", phases)
    est_panels = tracer.distinct_count("solver.distinct_panels", phases)
    design_panels = tracer.distinct_count("design.distinct_panels", phases)
    m.update({
        "panel.rows_read": (count("panel.rows_read"), "count"),
        "panel.distinct_inputs": (inputs, "count"),
        "panel.loads_per_input": (ratio(spans["panel.load_panel"]["calls"], inputs), "ratio"),
        "network.edges": (count("network.edges"), "count"),
        "network.loo_workers_dropped": (count("network.loo_workers_dropped"), "count"),
        "design.designs_built": (count("design.designs_built"), "count"),
        "design.distinct_panels": (design_panels, "count"),
        "design.designs_per_panel": (ratio(count("design.designs_built"), design_panels), "ratio"),
        "design.schur_dim": (count("design.schur_dim"), "count"),
        "design.exact_rhs_columns": (count("design.exact_rhs_columns"), "count"),
        "design.exact_solve_gflop_computed": (count("design.exact_solve_gflop_computed"), "GFLOP"),
        "design.cg_iterations": (count("design.cg_iterations"), "count"),
        "solver.iterations": (count("solver.iterations"), "count"),
        "solver.distinct_panels": (est_panels, "count"),
        "solver.estimates_per_panel": (ratio(spans["solver.estimate"]["calls"], est_panels), "ratio"),
        "correct.probes": (count("correct.probes"), "count"),
        "correct.attempted": (sum(spans[n]["calls"] for n in CORRECTIONS), "count"),
        "correct.failed": (sum(spans[n]["calls"] - spans[n]["ok"] for n in CORRECTIONS), "count"),
        "trace.overhead_s": (statistics.median(overheads), "s"),
        "trace.covered_share": (ratio(tracer.top_level_seconds(pass_phases), sum(traced_walls)), "ratio"),
    })
    return m


def _run(args, workdir: str) -> dict:
    from tracer import Tracer
    from workloads import WORKLOADS, Ops

    wl = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    ops = Ops()
    outputs = []

    def run_pass(slot, run_id):
        out = wl.run_pass(inputs, slot, run_id, ops)
        if len(outputs) < wl.kept_outputs:
            outputs.append(out)

    def traced(phase, fn, *a):
        tracer.phase = phase
        tracer.install()
        try:
            return fn(*a)
        finally:
            tracer.uninstall()

    metrics, extra = {}, {}
    try:
        if tracer:
            inputs = traced("setup", wl.setup, args.seed, workdir)
            counted = wl.counted_passes
            run_pass(0, "warmup")  # first-call costs stay out of the paired comparison
            pair_walls = {"untraced": [], "traced": []}

            def pair(k):
                t0 = time.perf_counter()
                run_pass(k, str(k))
                t1 = time.perf_counter()
                traced(f"pass-{k}", run_pass, k, f"{k}-traced")
                pair_walls["untraced"].append(t1 - t0)
                pair_walls["traced"].append(time.perf_counter() - t1)

            _loop(args.seconds, counted, pair)
            pass_phases = [f"pass-{k}" for k in range(counted)]
            phases = ["setup", "checks"] + pass_phases
            extra = traced("checks", wl.check, inputs, outputs, ops)
            overheads = [t - u for t, u in zip(pair_walls["traced"], pair_walls["untraced"])]
            extra["pair_walls_s"] = {k: [round(w, 4) for w in v] for k, v in pair_walls.items()}
            metrics = _layer_metrics(tracer, phases, pass_phases, pair_walls["traced"][:counted], overheads)
            covered = metrics["trace.covered_share"][0]
            ops.check("top-level spans cover the traced passes", COVERAGE_MIN <= covered <= 1.0)
            trace_path = os.path.join(RUNS, f"trace-{args.workload}-seed{args.seed}.json")
            with open(trace_path, "w", encoding="utf-8") as fh:
                json.dump({"spans": tracer.dump()}, fh)
        else:
            # Set-up samples spread over the run, so that their median is less
            # tied to one stretch of machine load.
            setups = [_setup_once(args)]
            inputs = wl.setup(args.seed, workdir)
            walls = _loop(args.seconds, 1, lambda k: run_pass(k, str(k)),
                          between=lambda: setups.append(_setup_once(args)))
            while len(setups) < SETUP_SAMPLES:
                setups.append(_setup_once(args))
            extra = wl.check(inputs, outputs, ops)
            extra["passes"] = len(walls)
            extra["pass_walls_s"] = [round(w, 4) for w in walls]
            extra["setup_samples_s"] = [round(t, 4) for t in setups]
            metrics = {
                "wall_s": (statistics.mean(walls), "s"),
                "setup_s": (statistics.median(setups), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            }
    except Exception as exc:  # a failed call ends the run; it is reported, not hidden
        if not ops.failures:
            ops.failed += 1
            ops.attempted += 1
            ops.failures.append(f"{type(exc).__name__}: {exc}")
    return {"ops": ops, "metrics": metrics, "extra": extra}


def _run_all(args, names) -> int:
    """Each workload in its own process, so that peak RSS is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        res = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        lines = res.stdout.strip().splitlines()
        if res.returncode != 0 or not lines:
            sys.stderr.write(res.stderr)
            return res.returncode or 1
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        last = json.loads(lines[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in last["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "twowayfe", "__init__.py")):
        print(f"error: no twowayfe package under {SRC}; run from a checkout root", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload == "all":
        return _run_all(args, list(WORKLOADS))
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    os.makedirs(RUNS, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"{args.workload}-", dir=RUNS) as workdir:
        if args.setup_only:
            WORKLOADS[args.workload].setup(args.seed, workdir)
            return 0
        result = _run(args, workdir)

    ops, metrics = result["ops"], result["metrics"]
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    if metrics and {m["name"] for m in declared} != set(metrics):
        ops.attempted += 1
        ops.failed += 1
        ops.failures.append("reported metrics differ from those BENCHMARK.json declares")
    env = _environment(args.seed)
    record = {
        "workload": args.workload, "trace": args.trace, "seconds": args.seconds,
        "environment": env, "failures": ops.failures, **result["extra"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(os.path.join(RUNS, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print("environment: " + json.dumps(env, sort_keys=True))
    for k, v in result["extra"].items():
        print(f"{k} = {v}")
    for failure in ops.failures:
        print(f"FAILED: {failure}")
    share = ops.failed / ops.attempted if ops.attempted else 0.0
    print(f"failed_share = {share:.4f} ratio ({ops.failed} failed of {ops.attempted} attempted)")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": ops.failed == 0 and bool(metrics),
        "attempted": max(ops.attempted, 1),
        "failed": ops.failed if ops.attempted else 1,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
