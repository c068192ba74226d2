"""Outside-in span recorder for the traced benchmark run.

`Tracer.install()` replaces each instrumented twowayfe function with a
wrapper everywhere its callers look it up: every `twowayfe.*` module
attribute bound to the function object (so `from .panel import load_panel`
in `cli.py` is covered too), and the class attribute for `Design` methods.
No program file is edited. `uninstall()` puts the originals back, so
untraced passes run the unmodified code.

Each wrapper records a span (id, parent id, name, start, end, ok) on an
in-memory stack plus counts read from the call's arguments and return
value. Spans stay in memory until `dump()` writes them out.
"""

from __future__ import annotations

import collections
import functools
import hashlib
import sys
import time
import weakref


def panel_fingerprint(panel) -> str:
    """Content key of a panel, so re-loaded or re-restricted copies of the
    same estimation panel count as one."""
    h = hashlib.blake2b(digest_size=16)
    for arr in (panel.worker_idx, panel.firm_idx, panel.log_wage):
        h.update(arr.tobytes())
    return h.hexdigest()


def _rhs_columns(b) -> int:
    return 1 if b.ndim == 1 else int(b.shape[1])


def _arg(args, kwargs, index, name):
    """A call's argument by position or keyword."""
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [id, parent, name, start, end, ok, phase]
        self.stack: list[int] = []
        self.counts = collections.defaultdict(collections.Counter)  # phase -> counts
        self.distinct = collections.defaultdict(set)  # base name -> {(phase, key)}
        self.phase = "setup"
        self._factorized = weakref.WeakSet()
        self._patches: list[tuple] = []

    # -- counters read at the layer boundaries --------------------------------
    def _on_load(self, result, args, kwargs):
        panel, report = result
        self.counts[self.phase]["panel.rows_read"] += report.rows_read
        self.distinct["panel.distinct_inputs"].add((self.phase, str(_arg(args, kwargs, 0, "path"))))

    def _on_graph(self, result, args, kwargs):
        self.counts[self.phase]["network.edges"] += result.n_edges

    def _on_loo(self, result, args, kwargs):
        graph = _arg(args, kwargs, 0, "graph")
        self.counts[self.phase]["network.loo_workers_dropped"] += len(graph.worker_ids) - result.n_workers

    def _on_design(self, result, args, kwargs):
        self.counts[self.phase]["design.designs_built"] += 1
        self.distinct["design.distinct_panels"].add((self.phase, panel_fingerprint(_arg(args, kwargs, 1, "panel"))))

    def _on_exact(self, columns, design):
        m = design.F - 1 + design.K
        self.counts[self.phase]["design.exact_rhs_columns"] += columns
        self.counts[self.phase]["design.exact_solve_gflop_computed"] += 2.0 * m * m * columns / 1e9
        if getattr(design, "_schur_factor", None) is not None and design not in self._factorized:
            self._factorized.add(design)
            self.counts[self.phase]["design.schur_dim"] += m

    def _on_solve_exact(self, result, args, kwargs):
        self._on_exact(_rhs_columns(_arg(args, kwargs, 1, "b")), args[0])

    def _on_solve_obs(self, result, args, kwargs):
        self._on_exact(int(_arg(args, kwargs, 1, "obs_idx").size), args[0])

    def _on_cg(self, result, args, kwargs):
        self.counts[self.phase]["design.cg_iterations"] += result[1]

    def _on_estimate(self, result, args, kwargs):
        self.counts[self.phase]["solver.iterations"] += result.iterations
        self.distinct["solver.distinct_panels"].add((self.phase, panel_fingerprint(result.panel)))

    def _on_correction(self, result, args, kwargs):
        self.counts[self.phase]["correct.probes"] += result.probes_used

    # -- wrapping ----------------------------------------------------------------
    def _wrap(self, fn, name, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            parent = tracer.stack[-1] if tracer.stack else None
            rec = [len(tracer.spans), parent, span_name, time.perf_counter(), None, False, tracer.phase]
            tracer.spans.append(rec)
            tracer.stack.append(rec[0])
            try:
                result = fn(*args, **kwargs)
                rec[5] = True
            finally:
                rec[4] = time.perf_counter()
                tracer.stack.pop()
            if on_result is not None:
                on_result(result, args, kwargs)
            return result

        return traced

    def _targets(self):
        """(owner, attribute, span name, counter) for every instrumented call."""
        import twowayfe.cli as cli
        import twowayfe.correct as correct
        import twowayfe.decompose as decompose
        import twowayfe.design as design
        import twowayfe.network as network
        import twowayfe.panel as panel
        import twowayfe.simulate as simulate
        import twowayfe.solver as solver

        def correction_name(args, kwargs):
            method = _arg(args, kwargs, 2, "method")
            backend = args[3] if len(args) > 3 else kwargs.get("backend", "exact")
            short = "leave_out" if method == "leave_out" else "homoskedastic"
            return f"correct.{short}.{backend}"

        return [
            (panel, "load_panel", "panel.load_panel", self._on_load),
            (panel, "restrict_panel", "panel.restrict_panel", None),
            (panel, "write_panel", "panel.write_panel", None),
            (network, "build_graph", "network.build_graph", self._on_graph),
            (network, "largest_connected_set", "network.largest_connected_set", None),
            (network, "leave_one_out_connected_set", "network.leave_one_out_connected_set", self._on_loo),
            (design, "check_connected", "design.check_connected", None),
            (design.Design, "__init__", "design.Design", self._on_design),
            (design.Design, "solve_exact", "design.solve_exact", self._on_solve_exact),
            (design.Design, "solve_for_observations", "design.solve_for_observations", self._on_solve_obs),
            (design.Design, "solve_cg", "design.solve_cg", self._on_cg),
            (solver, "estimate", "solver.estimate", self._on_estimate),
            (decompose, "decompose_variance", "decompose.decompose_variance", None),
            (decompose, "between_within_split", "decompose.between_within_split", None),
            (correct, "corrected_decomposition", correction_name, None),
            (correct, "correct_homoskedastic", "correct.correct_homoskedastic", self._on_correction),
            (correct, "correct_leave_out", "correct.correct_leave_out", self._on_correction),
            (correct, "exact_trace_quadratic", "correct.exact_trace_quadratic", None),
            (correct, "hutchinson_trace_quadratic", "correct.hutchinson_trace_quadratic", None),
            (correct, "compute_leverages", "correct.compute_leverages", None),
            (cli, "cmd_validate", "cli.cmd_validate", None),
            (cli, "cmd_connect", "cli.cmd_connect", None),
            (cli, "cmd_estimate", "cli.cmd_estimate", None),
            (cli, "cmd_decompose", "cli.cmd_decompose", None),
            (cli, "cmd_correct", "cli.cmd_correct", None),
            (simulate, "simulate_panel", "simulate.simulate_panel", None),
        ]

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "twowayfe" or k.startswith("twowayfe.")]
        for owner, attr, name, on_result in self._targets():
            original = owner.__dict__.get(attr)
            if original is None:  # removed by a later change: its metrics read 0
                continue
            wrapper = self._wrap(original, name, on_result)
            owners = [owner] if isinstance(owner, type) else [
                m for m in modules if m.__dict__.get(attr) is original
            ]
            for o in owners:
                setattr(o, attr, wrapper)
                self._patches.append((o, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reporting ---------------------------------------------------------------
    def summary(self, phases) -> dict:
        """Inclusive and self seconds, call counts, ok counts per span name
        over the spans recorded in `phases`."""
        phases = set(phases)
        child_time = collections.defaultdict(float)
        for sid, parent, name, start, end, ok, phase in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = collections.defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0, "ok": 0})
        for sid, parent, name, start, end, ok, phase in self.spans:
            if phase not in phases:
                continue
            row = out[name]
            row["s"] += end - start
            row["self_s"] += end - start - child_time[sid]
            row["calls"] += 1
            row["ok"] += int(ok)
        return out

    def top_level_seconds(self, phases) -> float:
        phases = set(phases)
        return sum(s[4] - s[3] for s in self.spans if s[1] is None and s[6] in phases)

    def count(self, name, phases):
        return sum(self.counts[phase][name] for phase in set(phases))

    def distinct_count(self, base, phases) -> int:
        phases = set(phases)
        return sum(1 for phase, _ in self.distinct[base] if phase in phases)

    def dump(self) -> list[dict]:
        keys = ("id", "parent", "name", "start", "end", "ok", "phase")
        return [dict(zip(keys, s)) for s in self.spans]
