"""Command-line entry point wiring the library into reproducible pipelines.

Every command reads a declarative JSON config (overridable by flags, with
flags > file > defaults), writes its artifacts atomically into --out, and
drops a run manifest recording the resolved configuration, input digests,
seeds, and outputs. Exit codes: 0 success, 2 config error, 3 data error,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import contextvars
import csv
import functools
import hashlib
import io
import json
import os
import sys
import tempfile
import time
from dataclasses import asdict

from . import __version__
from .correct import DEFAULT_PROBES, corrected_decomposition
from .decompose import between_within_split, decompose_variance
from .diagnose import EVENT_TIMES, event_study, subsample_plot
from .errors import ConfigError, DataError, NumericalError, TwoWayError
from .network import (
    ConnectedSet,
    build_graph,
    connected_set_summary,
    largest_connected_set,
    leave_one_out_connected_set,
)
from .panel import Panel, load_panel, write_panel
from .simulate import SimConfig, simulate_panel, truth_components
from .solver import Estimates, SolverConfig, estimate

SCHEMA_VERSION = 1
EXIT_CONFIG, EXIT_DATA, EXIT_NUMERICAL = 2, 3, 4

COMMANDS = (
    "validate",
    "connect",
    "estimate",
    "decompose",
    "correct",
    "subsample",
    "eventstudy",
    "simulate",
    "pipeline",
)


# -- atomic artifact plumbing -------------------------------------------

# While one `pipeline` call runs, the sha256 digests its manifests record, by
# absolute path: each input file is read once for all of its stages, and
# writing an artifact drops the digest of that path. None outside `pipeline`,
# so a standalone command reads every input it records.
_PIPELINE_DIGESTS: contextvars.ContextVar[dict | None] = contextvars.ContextVar(
    "pipeline_digests", default=None
)


@contextlib.contextmanager
def _atomic_file(path: str):
    """A new temporary file beside `path`, (descriptor, name), for the block
    to write and close; renamed onto `path` when the block returns and
    removed when it raises."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", prefix=".tmp-")
    try:
        yield fd, tmp
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    digests = _PIPELINE_DIGESTS.get()
    if digests:
        digests.pop(os.path.abspath(path), None)


@contextlib.contextmanager
def _atomic_path(path: str):
    """The name of a temporary file beside `path` for the block to write,
    renamed onto `path` when the block returns and removed when it raises."""
    with _atomic_file(path) as (fd, tmp):
        os.close(fd)
        yield tmp


def _atomic_write(path: str, text: str) -> None:
    """`text` written through the temporary file's own descriptor."""
    with _atomic_file(path) as (fd, _), open(fd, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _write_json(path: str, obj) -> None:
    obj = dict(obj)
    obj.setdefault("schema_version", SCHEMA_VERSION)
    _atomic_write(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _write_rows(path: str, header, rows) -> None:
    """CSV rows, a field quoted only where it holds a comma, a quote or a line
    break, so rows of plain ids are the fields joined by commas."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _atomic_write(path, buf.getvalue())


def _write_columns(path: str, header, row: str, columns: list, ids) -> None:
    """The CSV `_write_rows` writes for the rows zip(*columns), whose text
    fields are `ids` and whose other fields are floats (written as their
    repr). When no id would be quoted, every row takes one `%` operation with
    `row`, the %-format of one row: %s for text, %r for a float."""
    if any(c in "".join(ids) for c in ',"\r\n'):
        _write_rows(path, header, zip(*columns))
        return
    n = len(columns[0])
    fields = [None] * (n * len(columns))
    for k, column in enumerate(columns):
        fields[k :: len(columns)] = column
    _atomic_write(path, ",".join(header) + "\n" + (row * n) % tuple(fields))


def _digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class Run:
    """Collects outputs and writes the per-directory manifest."""

    def __init__(self, command: str, out_dir: str, config: dict, inputs: list):
        self.command = command
        self.out_dir = out_dir
        self.config = config
        self.inputs = inputs
        self.outputs: list[str] = []
        self.started = time.time()
        os.makedirs(out_dir, exist_ok=True)

    def path(self, name: str) -> str:
        full = os.path.join(self.out_dir, name)
        self.outputs.append(name)
        return full

    def _digests(self) -> dict:
        """sha256 of each input file that exists, read once per `pipeline`."""
        shared = _PIPELINE_DIGESTS.get()
        digests = {} if shared is None else shared
        out = {}
        for p in self.inputs:
            if p and os.path.exists(p):
                key = os.path.abspath(p)
                if key not in digests:
                    digests[key] = _digest(p)
                out[p] = digests[key]
        return out

    def finish(self) -> None:
        manifest = {
            "schema_version": SCHEMA_VERSION,
            "command": self.command,
            "tool_version": __version__,
            "config": self.config,
            "inputs": self._digests(),
            "seed": self.config.get("seed"),
            "duration_seconds": round(time.time() - self.started, 3),
            "outputs": sorted(self.outputs),
        }
        _atomic_write(
            os.path.join(self.out_dir, "manifest.json"),
            json.dumps(manifest, indent=2, sort_keys=True) + "\n",
        )


# -- config handling -----------------------------------------------------


def _load_config(args) -> dict:
    config: dict = {}
    if getattr(args, "config", None):
        if not os.path.exists(args.config):
            raise ConfigError(f"config file not found: {args.config}")
        try:
            with open(args.config, encoding="utf-8") as fh:
                config = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config parse failure: {exc}") from exc
        if not isinstance(config, dict):
            raise ConfigError("config file must hold a JSON object")
    for key, value in vars(args).items():
        if key in ("command", "config", "func") or value is None:
            continue
        config[key] = value
    return config


def _number(config: dict, key: str, default, kind=int):
    """config[key], or `default` where it is absent, as a `kind` (int or
    float). A value that is not such a number (a boolean, a string that does
    not parse, a fractional value for an integer setting) is a ConfigError
    naming the key."""
    value = config.get(key, default)
    try:
        number = kind(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    if number is None or isinstance(value, bool) or (isinstance(value, float) and number != value):
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"config value {key!r} must be {noun}, not {value!r}")
    return number


def _solver_config(config: dict) -> SolverConfig:
    settings = {k: config[k] for k in ("method", "normalization", "reference_firm") if k in config}
    if "tol" in config:
        settings["tol"] = _number(config, "tol", None, float)
    if "max_iter" in config:
        settings["max_iter"] = _number(config, "max_iter", None)
    return SolverConfig(**settings)


def _schema(config: dict) -> dict:
    schema = dict(config.get("columns", {}))
    if "covariates" in config:
        schema["covariates"] = list(config["covariates"])
    return schema


def _read_panel(config: dict) -> Panel:
    path = config.get("panel")
    if not path:
        raise ConfigError("a panel file is required (--panel)")
    panel, _ = load_panel(path, _schema(config), config.get("delimiter", ","))
    return panel


def _read_set(path: str) -> ConnectedSet:
    """The set a membership file from `connect` lists. The file does not
    record which kind of set it holds, so its kind is "membership_file"."""
    if not os.path.exists(path):
        raise ConfigError(f"connected-set file not found: {path}")
    firms, workers = set(), set()
    with open(path, encoding="utf-8", newline="") as fh:
        rows = csv.reader(fh)
        if next(rows, [])[:1] != ["entity_type"]:
            raise ConfigError(f"not a membership file: {path}")
        for row in rows:
            if len(row) != 2:
                raise DataError(f"membership file {path}: line {rows.line_num} is not 2 fields")
            entity, ext_id = row
            if entity == "firm":
                firms.add(ext_id)
            elif entity == "worker":
                workers.add(ext_id)
    if not firms or not workers:
        raise DataError(f"membership file {path} lists no firms or no workers")
    return ConnectedSet(firms=frozenset(firms), workers=frozenset(workers), kind="membership_file")


# -- per-command artifact writers ------------------------------------------


def _emit_membership(run: Run, name: str, conn: ConnectedSet, panel: Panel) -> None:
    ids = sorted(conn.firms) + sorted(conn.workers)
    entity = ["firm"] * conn.n_firms + ["worker"] * conn.n_workers
    _write_columns(run.path(f"{name}.csv"), ("entity_type", "external_id"), "%s,%s\n",
                   [entity, ids], ids)
    _write_json(run.path(f"{name}_summary.json"), connected_set_summary(panel, conn))


def _emit_estimates(run: Run, est: Estimates) -> None:
    panel = est.panel
    for header, ids, effects in ((("worker", "alpha"), panel.worker_ids, est.alpha),
                                 (("firm", "psi"), panel.firm_ids, est.psi)):
        _write_columns(run.path(f"{header[1]}.csv"), header, "%s,%r\n",
                       [ids, effects.tolist()], ids)
    _write_rows(
        run.path("beta.csv"),
        ("covariate", "beta"),
        [
            (panel.covariate_names[k], repr(float(est.beta[k])))
            for k in range(panel.covariate_count)
        ],
    )
    _write_json(
        run.path("fit.json"),
        {
            "n_obs": panel.n_obs,
            "n_workers": panel.n_workers,
            "n_firms": panel.n_firms,
            "dof": est.dof,
            "iterations": est.iterations,
            "rss": est.rss,
            "normalization": est.normalization,
            "method": est.method,
        },
    )


def _fit(config: dict, panel: Panel | None = None, conn: ConnectedSet | None = None) -> Estimates:
    """The fit on `conn` with the config's solver settings, for every command; with
    no panel, on the panel and the set file (if any) the config names. A panel that
    is not one connected set without a set file is a data error raised by `estimate`."""
    if panel is None:
        panel = _read_panel(config)
        conn = _read_set(config["set"]) if config.get("set") else None
    return estimate(panel, conn, _solver_config(config))


# -- commands -------------------------------------------------------------
# Each takes an earlier stage's products as keyword arguments, or reads them from files.


def cmd_validate(config: dict, out_dir: str) -> Panel:
    run = Run("validate", out_dir, config, [config.get("panel", "")])
    panel, report = load_panel(
        config.get("panel", ""), _schema(config), config.get("delimiter", ",")
    )
    with _atomic_path(run.path("panel.csv")) as tmp:
        write_panel(panel, tmp, config.get("delimiter", ","))
    _write_json(run.path("validation_report.json"), report.to_json_dict())
    run.finish()
    return panel


def cmd_connect(config: dict, out_dir: str, *, panel=None):
    """Returns the (largest, leave-one-out) sets, None for a kind not asked for."""
    run = Run("connect", out_dir, config, [config.get("panel", "")])
    panel = _read_panel(config) if panel is None else panel
    graph = build_graph(panel)
    kind = config.get("kind", "largest")
    if kind not in ("largest", "leave_one_out", "both"):
        raise ConfigError(f"unknown connect kind {kind!r}")
    largest = largest_connected_set(graph) if kind in ("largest", "both") else None
    loo = leave_one_out_connected_set(graph, panel) if kind in ("leave_one_out", "both") else None
    for name, conn in (("connected_set", largest), ("leave_one_out_set", loo)):
        if conn is not None:
            _emit_membership(run, name, conn, panel)
    run.finish()
    return largest, loo


def cmd_estimate(config: dict, out_dir: str, *, panel=None, conn=None) -> Estimates:
    run = Run("estimate", out_dir, config, [config.get("panel", ""), config.get("set", "")])
    est = _fit(config, panel, conn)
    _emit_estimates(run, est)
    run.finish()
    return est


def cmd_decompose(config: dict, out_dir: str, *, fit=None) -> None:
    run = Run("decompose", out_dir, config, [config.get("panel", ""), config.get("set", "")])
    est = _fit(config) if fit is None else fit
    include_covariates = bool(config.get("include_covariates", False))
    dec = decompose_variance(est.panel, est, include_covariates)
    _write_json(run.path("decomposition.json"), dec.to_json_dict())
    # the split of the same total: Var(Y - X beta) unless covariates are included
    split = between_within_split(est.panel, None if include_covariates else est)
    _write_json(
        run.path("between_within.json"),
        {
            "between_firm_variance": split.between_firm_variance,
            "within_firm_variance": split.within_firm_variance,
            "total": split.total,
        },
    )
    run.finish()


def cmd_correct(config: dict, out_dir: str, *, panel=None, conn=None, fit=None) -> None:
    """Corrects `fit`, by default the fit on `conn`; run alone, `conn` is the
    config's set file if it names one, else the leave-one-out set for
    leave_out and the largest set otherwise."""
    run = Run("correct", out_dir, config, [config.get("panel", ""), config.get("set", "")])
    method = config.get("correction", "homoskedastic_trace")
    backend = config.get("backend", "exact")
    probes = _number(config, "probes", DEFAULT_PROBES)
    seed = _number(config, "seed", 0)
    if panel is None:
        panel = _read_panel(config)
        if config.get("set"):
            conn = _read_set(config["set"])
        else:
            graph = build_graph(panel)
            conn = (leave_one_out_connected_set(graph, panel) if method == "leave_out"
                    else largest_connected_set(graph))
    est = _fit(config, panel, conn) if fit is None else fit
    dec = corrected_decomposition(
        est.panel, est, method, backend=backend, probes=probes, seed=seed
    )
    out = dec.to_json_dict()
    out["estimation_set"] = connected_set_summary(panel, conn)
    out["method"] = method
    out["backend"] = backend
    out["probes"] = probes if backend == "stochastic" else 0
    out["seed"] = seed
    _write_json(run.path(f"corrected_{method}.json"), out)
    _write_json(run.path("plug_in.json"), dec.plug_in.to_json_dict())
    run.finish()


def cmd_subsample(config: dict, out_dir: str) -> None:
    run = Run("subsample", out_dir, config, [config.get("panel", "")])
    panel = _read_panel(config)
    shares = config.get("shares", [0.1, 0.2, 0.5, 1.0])
    if isinstance(shares, str):
        shares = [float(s) for s in shares.split(",")]
    points = subsample_plot(
        panel,
        shares=shares,
        replicates=_number(config, "replicates", 1),
        seed=_number(config, "seed", 0),
        solver_config=_solver_config(config),
        threads=_number(config, "threads", 1),
    )
    _write_rows(
        run.path("subsample.csv"),
        (
            "share_kept",
            "replicate",
            "seed",
            "n_workers",
            "n_firms",
            "n_obs",
            "avg_movers_per_firm",
            "corr_alpha_psi",
            "var_psi",
            "cov2",
            "failed",
        ),
        [
            (
                pt.share_kept,
                pt.replicate,
                pt.seed,
                pt.n_workers,
                pt.n_firms,
                pt.n_obs,
                repr(pt.avg_movers_per_firm),
                repr(pt.corr_alpha_psi),
                repr(pt.var_psi),
                repr(pt.cov2),
                int(pt.failed),
            )
            for pt in points
        ],
    )
    run.finish()


def cmd_eventstudy(config: dict, out_dir: str) -> None:
    run = Run("eventstudy", out_dir, config, [config.get("panel", "")])
    panel = _read_panel(config)
    ranking = config.get("ranking", "firm_mean_wage")
    estimates = None
    if ranking == "estimated_psi":
        estimates = _fit(config, panel, largest_connected_set(build_graph(panel)))
        panel = estimates.panel
    table = event_study(panel, ranking, _number(config, "quartiles", 4), estimates)
    rows = []
    for (oq, dq), means in sorted(table.cell_means.items()):
        for et, mean in zip(EVENT_TIMES, means):
            rows.append((oq, dq, et, repr(float(mean)), table.cell_counts[(oq, dq)]))
    _write_rows(
        run.path("eventstudy.csv"),
        ("origin_quartile", "destination_quartile", "event_time", "mean_log_wage", "cell_count"),
        rows,
    )
    run.finish()


def cmd_simulate(config: dict, out_dir: str) -> None:
    run = Run("simulate", out_dir, config, [])
    sim_keys = SimConfig.__dataclass_fields__.keys()
    sim_kwargs = {k: config[k] for k in sim_keys if k in config}
    if "beta_true" in sim_kwargs:
        sim_kwargs["beta_true"] = tuple(sim_kwargs["beta_true"])
    if "noise_sigma2_range" in sim_kwargs:
        sim_kwargs["noise_sigma2_range"] = tuple(sim_kwargs["noise_sigma2_range"])
    try:
        sim_config = SimConfig(**sim_kwargs)
    except TypeError as exc:
        raise ConfigError(f"bad simulate config: {exc}") from exc
    panel, truth = simulate_panel(sim_config)
    with _atomic_path(run.path("panel.csv")) as tmp:
        write_panel(panel, tmp)
    rows = [("worker", w, repr(float(a))) for w, a in zip(truth.worker_ids, truth.alpha)]
    rows += [("firm", f, repr(float(p))) for f, p in zip(truth.firm_ids, truth.psi)]
    _write_rows(run.path("truth.csv"), ("entity_type", "external_id", "effect"), rows)
    conn = largest_connected_set(build_graph(panel))
    summary = truth_components(truth, conn, panel).to_json_dict()
    summary["config"] = asdict(sim_config)
    summary["config"]["beta_true"] = list(sim_config.beta_true)
    summary["config"]["noise_sigma2_range"] = list(sim_config.noise_sigma2_range)
    _write_json(run.path("truth_summary.json"), summary)
    run.finish()


def cmd_pipeline(config: dict, out_dir: str) -> None:
    """validate -> connect -> estimate -> decompose -> correct, with per-stage
    artifact directories under --out. One load, one graph and one fit per set:
    the validated panel, both sets and the fits pass between stages in memory,
    while each stage writes the artifacts and manifest of a standalone run."""
    clean = {k: v for k, v in config.items() if k != "columns"}
    clean["panel"] = os.path.join(out_dir, "validate", "panel.csv")
    set_file = os.path.join(out_dir, "connect", "connected_set.csv")

    def stage(name: str, **settings):
        return {**clean, **settings}, os.path.join(out_dir, name)

    shared = _PIPELINE_DIGESTS.set({})  # each input file is read once for the manifests
    try:
        panel = cmd_validate(dict(config), os.path.join(out_dir, "validate"))
        largest, loo = cmd_connect(*stage("connect", kind="both"), panel=panel)
        fit = cmd_estimate(*stage("estimate", set=set_file), panel=panel, conn=largest)
        cmd_decompose(*stage("decompose", set=set_file), fit=fit)
        cmd_correct(*stage("correct", correction="homoskedastic_trace"),
                    panel=panel, conn=largest, fit=fit)
        del fit  # frees the fit and its design before the leave-out fit is made
        if config.get("leave_out"):
            cmd_correct(*stage("correct_leave_out", correction="leave_out"), panel=panel, conn=loo)
        Run("pipeline", out_dir, config, [config.get("panel", "")]).finish()
    finally:
        _PIPELINE_DIGESTS.reset(shared)


HANDLERS = {
    "validate": cmd_validate,
    "connect": cmd_connect,
    "estimate": cmd_estimate,
    "decompose": cmd_decompose,
    "correct": cmd_correct,
    "subsample": cmd_subsample,
    "eventstudy": cmd_eventstudy,
    "simulate": cmd_simulate,
    "pipeline": cmd_pipeline,
}


@functools.cache  # built once per process: parse_args leaves the parser unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twowayfe",
        description="Worker and firm effects from linked employer-employee panels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file (flags override it)")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--panel", help="input panel file")
        p.add_argument("--delimiter", help="field delimiter (default comma)")
        p.add_argument("--seed", type=int, help="top-level random seed")
        if name in ("estimate", "decompose", "correct", "subsample", "eventstudy", "pipeline"):
            p.add_argument(
                "--method",
                help="solver method: conjugate_gradient (default) | zigzag | "
                "first_differences | dense_oracle",
            )
            p.add_argument("--tol", type=float, help="solver tolerance")
            p.add_argument("--set", help="membership file from `connect`")
        if name == "connect":
            p.add_argument("--kind", help="largest | leave_one_out | both")
        if name == "correct":
            p.add_argument("--correction", help="homoskedastic_trace | leave_out")
            p.add_argument("--backend", help="exact | stochastic")
            p.add_argument("--probes", type=int, help="stochastic probe count")
        if name == "subsample":
            p.add_argument("--threads", type=int, help="parallelism cap (default 1)")
            p.add_argument("--shares", help="comma-separated shares in (0, 1]")
            p.add_argument("--replicates", type=int)
        if name == "eventstudy":
            p.add_argument("--ranking", help="estimated_psi | firm_mean_wage")
            p.add_argument("--quartiles", type=int)
        if name == "pipeline":
            p.add_argument(
                "--leave-out", dest="leave_out", action="store_const", const=True,
                help="also run the leave-out correction stage",
            )
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args)
        out_dir = config.pop("out")
        HANDLERS[args.command](config, out_dir)
        return 0
    except ConfigError as exc:
        _report_error("config", args.command, exc)
        return EXIT_CONFIG
    except DataError as exc:
        _report_error("data", args.command, exc)
        return EXIT_DATA
    except NumericalError as exc:
        _report_error("numerical", args.command, exc)
        return EXIT_NUMERICAL
    except TwoWayError as exc:  # safety net for future subclasses
        _report_error("data", args.command, exc)
        return EXIT_DATA


def _report_error(kind: str, command: str, exc: Exception) -> None:
    sys.stdout.write(
        json.dumps(
            {
                "schema_version": SCHEMA_VERSION,
                "error": {"kind": kind, "command": command, "message": str(exc)},
            }
        )
        + "\n"
    )


if __name__ == "__main__":
    sys.exit(main())
