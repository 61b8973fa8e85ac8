"""Per-layer tracing from outside the program.

The tracer replaces public functions of the weylwalks modules with wrappers
that count calls and keep a stack of open spans, so that each function's
self time excludes the time of wrapped functions it calls.  Callers inside
the package look these names up on their module at call time, so the
wrappers see those calls too.  Names bound at import (`from .rootdata import
wadd`) and the original held by `paths._crystal_cached` cannot be reached;
they are timed inside the nearest wrapped entry point.

Spans are kept in memory as per-name totals; `snapshot` turns them into the
per-layer metrics that the benchmark prints.
"""

from __future__ import annotations

import functools
import sys
import time

from oracle import Lattice

# (module, attribute path): the layers' public entry points.
SPANS = [
    ("weylwalks.rootdata", "build_root_system"),
    ("weylwalks.chars", "weight_multiplicities"),
    ("weylwalks.chars", "evaluate_S"),
    ("weylwalks.chars", "weyl_numerator_batch"),
    ("weylwalks.paths", "crystal"),
    ("weylwalks.paths", "build_growth_graph"),
    ("weylwalks.paths", "word_path"),
    ("weylwalks.paths", "pitman_chain"),
    ("weylwalks.polytope", "locate"),
    ("weylwalks.polytope", "l1_infeasibility"),
    ("weylwalks.boundary", "psi_eval"),
    ("weylwalks.boundary", "invert_drift"),
    ("weylwalks.boundary", "CentralMeasure.p"),
    ("weylwalks.boundary", "CentralMeasure.kernel_row"),
    ("weylwalks.montecarlo", "sample_trajectory"),
    ("weylwalks.montecarlo", "pitman_equality_in_law"),
    ("weylwalks.cli", "run"),
]

# Metric name -> (span name, "calls" | "self_s"), in the order printed.
SPAN_METRICS = [
    ("rootdata.build_root_system.self_s", "rootdata.build_root_system", "self_s"),
    ("chars.weight_multiplicities.self_s", "chars.weight_multiplicities", "self_s"),
    ("paths.crystal.self_s", "paths.crystal", "self_s"),
    ("chars.evaluate_S.calls", "chars.evaluate_S", "calls"),
    ("chars.evaluate_S.self_s", "chars.evaluate_S", "self_s"),
    ("boundary.psi_eval.calls", "boundary.psi_eval", "calls"),
    ("boundary.psi_eval.self_s", "boundary.psi_eval", "self_s"),
    ("boundary.CentralMeasure.p.calls", "boundary.CentralMeasure.p", "calls"),
    ("boundary.CentralMeasure.p.self_s", "boundary.CentralMeasure.p", "self_s"),
    ("boundary.CentralMeasure.kernel_row.calls", "boundary.CentralMeasure.kernel_row", "calls"),
    ("boundary.CentralMeasure.kernel_row.self_s", "boundary.CentralMeasure.kernel_row", "self_s"),
    ("polytope.locate.calls", "polytope.locate", "calls"),
    ("polytope.locate.self_s", "polytope.locate", "self_s"),
    ("polytope.l1_infeasibility.calls", "polytope.l1_infeasibility", "calls"),
    ("boundary.invert_drift.self_s", "boundary.invert_drift", "self_s"),
    ("chars.weyl_numerator_batch.calls", "chars.weyl_numerator_batch", "calls"),
    ("chars.weyl_numerator_batch.self_s", "chars.weyl_numerator_batch", "self_s"),
    ("montecarlo.sample_trajectory.self_s", "montecarlo.sample_trajectory", "self_s"),
    ("paths.build_growth_graph.calls", "paths.build_growth_graph", "calls"),
    ("paths.build_growth_graph.self_s", "paths.build_growth_graph", "self_s"),
    ("paths.word_path.self_s", "paths.word_path", "self_s"),
    ("paths.pitman_chain.calls", "paths.pitman_chain", "calls"),
    ("paths.pitman_chain.self_s", "paths.pitman_chain", "self_s"),
    ("montecarlo.pitman_equality_in_law.self_s", "montecarlo.pitman_equality_in_law", "self_s"),
    ("cli.run.self_s", "cli.run", "self_s"),
]

# Counters that are not span totals: name -> unit.
COUNTERS = {
    "montecarlo.steps": "count",
    "montecarlo.rows_per_step": "ratio",
    "paths.growth_vertices": "count",
    "montecarlo.words": "count",
    "cli.startup_s": "s",
}


class Tracer:
    """Wraps the SPANS entry points; install() and uninstall() are idempotent."""

    def __init__(self):
        self.calls = {}
        self.self_s = {}
        self.steps = 0
        self.rows = 0
        self.growth_vertices = 0
        self.words = 0
        self.startup_s = 0.0
        self.missing = []
        self._stack = []          # [span name, child seconds] per open span
        self._seen_graphs = {}    # id -> graph, so each built graph counts once
        self._patched = []        # (owner, attribute, original)

    # -- installing --------------------------------------------------------

    def install(self):
        if self._patched:
            return
        self.missing = []
        for module_name, attr_path in SPANS:
            module = sys.modules.get(module_name)
            if module is None:
                # layers the process never imported (the CLI in library runs)
                continue
            owner = module
            *parents, attr = attr_path.split(".")
            try:
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except AttributeError:
                self.missing.append(f"{module_name}.{attr_path}")
                continue
            span = module_name.split(".", 1)[1] + "." + attr_path
            setattr(owner, attr, self._wrap(span, original))
            self._patched.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    def _wrap(self, span, fn):
        stack = self._stack
        calls = self.calls
        self_s = self.self_s
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [span, 0.0]
            stack.append(frame)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                calls[span] = calls.get(span, 0) + 1
                self_s[span] = self_s.get(span, 0.0) + elapsed - frame[1]
            tracer._count(span, args, kwargs, out)
            return out

        return wrapper

    def _count(self, span, args, kwargs, out):
        if span == "montecarlo.sample_trajectory":
            self.steps += int(args[1] if len(args) > 1 else kwargs["steps"])
        elif span == "chars.weyl_numerator_batch":
            # the chamber sampler computes each new interior kernel row with
            # one batch of Weyl numerators; cached rows make no call
            if any(f[0] == "montecarlo.sample_trajectory" for f in self._stack):
                self.rows += 1
        elif span == "paths.build_growth_graph":
            if id(out) not in self._seen_graphs:
                self._seen_graphs[id(out)] = out
                self.growth_vertices += sum(len(level) for level in out.levels)
        elif span == "montecarlo.pitman_equality_in_law":
            cartan, delta, _, n = args[:4]
            self.words += Lattice(cartan.cartan).weyl_dim(delta) ** int(n)

    # -- reporting ---------------------------------------------------------

    def merge(self, other: dict):
        """Add a snapshot taken in another process (a CLI child)."""
        for name, value in other.items():
            if name.endswith(".calls"):
                span = name[:-len(".calls")]
                self.calls[span] = self.calls.get(span, 0) + value
            elif name.endswith(".self_s"):
                span = name[:-len(".self_s")]
                self.self_s[span] = self.self_s.get(span, 0.0) + value
        self.steps += other.get("montecarlo.steps", 0)
        self.rows += other.get("montecarlo.rows", 0)
        self.growth_vertices += other.get("paths.growth_vertices", 0)
        self.words += other.get("montecarlo.words", 0)
        self.startup_s += other.get("cli.startup_s", 0.0)

    def raw(self) -> dict:
        """Plain totals, the form a child process sends to its parent."""
        out = {f"{s}.calls": c for s, c in self.calls.items()}
        out.update({f"{s}.self_s": v for s, v in self.self_s.items()})
        out.update({"montecarlo.steps": self.steps, "montecarlo.rows": self.rows,
                    "paths.growth_vertices": self.growth_vertices,
                    "montecarlo.words": self.words, "cli.startup_s": self.startup_s})
        return out

    def snapshot(self) -> dict:
        """The per-layer metrics: name -> {"value", "unit"}."""
        out = {}
        for name, span, kind in SPAN_METRICS:
            if kind == "calls":
                out[name] = {"value": self.calls.get(span, 0), "unit": "count"}
            else:
                out[name] = {"value": self.self_s.get(span, 0.0), "unit": "s"}
        rows_per_step = self.rows / self.steps if self.steps else 0.0
        values = {"montecarlo.steps": self.steps,
                  "montecarlo.rows_per_step": rows_per_step,
                  "paths.growth_vertices": self.growth_vertices,
                  "montecarlo.words": self.words,
                  "cli.startup_s": self.startup_s}
        for name, unit in COUNTERS.items():
            out[name] = {"value": values[name], "unit": unit}
        return out
