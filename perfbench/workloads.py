"""The benchmark's three workloads.

Each workload has `setup()`, which fills the program's structural caches
keyed by (type, delta), and `round(seed, r)`, which returns the r-th round
of ops as (label, run, check) triples: `run()` is the timed call into the
program and `check(output)` tests the output, untimed, against properties
the method must have or against the benchmark's own computations in
`oracle`.  Every round of a workload has the same make-up; its parameters
are drawn afresh from (seed, round, op), so no op reuses another op's
per-point work.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from functools import partial

import numpy as np

from weylwalks import boundary, montecarlo, paths, polytope, rootdata
from weylwalks.rootdata import weight

import oracle
from oracle import require


def build(token):
    return rootdata.build_root_system(token[0], int(token[1:]))


def _uniform(rng, rank, lo, hi):
    return tuple(float(x) for x in lo + (hi - lo) * rng.random(rank))


class ChamberWalks:
    """One op: a few chamber walks of STEPS steps sharing one chamber measure
    at a fresh parameter t drawn uniformly from T_RANGE^rank."""

    # (type, delta, walks per op): B2 steps are cheaper, so its ops walk
    # more and every op costs about the same.  Short ops give many draws of
    # t per run, which keeps the run-to-run spread of the mix small.
    TYPES = (("A2", (1, 1), 2), ("B2", (1, 0), 3), ("G2", (1, 0), 2), ("A3", (1, 0, 0), 2))
    OPS_PER_TYPE = 2
    STEPS = 200
    # Faces (some t_i = 0) and t near 1 fail today; see CHANGES.md.
    T_RANGE = (0.15, 0.85)
    # Pooled drift within Z_MAX standard errors, the error taken from the
    # per-step increments as if independent (largest seen: 3.0 over 240 ops).
    Z_MAX = 7.0

    def setup(self):
        self.data = {}
        for tok, delta, _ in self.TYPES:
            cartan = build(tok)
            delta = weight(delta)
            letters = oracle.letter_table(paths.crystal(cartan, delta).paths)
            centre = boundary.boundary_point(cartan, delta, (0.5,) * cartan.rank)
            montecarlo.sample_trajectory(
                boundary.CentralMeasure("chamber", centre), 10, seed=0)
            self.data[tok] = (cartan, delta, oracle.Lattice(cartan.cartan), letters)

    def round(self, seed, r):
        ops = []
        for k, (tok, _, walks) in enumerate(self.TYPES):
            cartan, delta, _, _ = self.data[tok]
            for j in range(self.OPS_PER_TYPE):
                rng = np.random.default_rng([seed, r, k, j])
                t = _uniform(rng, cartan.rank, *self.T_RANGE)
                seeds = [[seed, r, k, j, rep] for rep in range(walks)]
                ops.append((tok, partial(self._walks, cartan, delta, t, seeds),
                            partial(self._check, tok, t)))
        return ops

    def _walks(self, cartan, delta, t, seeds):
        point = boundary.boundary_point(cartan, delta, t, canonicalize=True)
        measure = boundary.CentralMeasure("chamber", point)
        return [montecarlo.sample_trajectory(measure, self.STEPS, seed=s)
                for s in seeds]

    def _check(self, tok, t, trajectories):
        _, delta, lat, letters = self.data[tok]
        is_weight = {}
        increments = []
        for traj in trajectories:
            pos = traj.positions
            require(len(traj.letters) == self.STEPS, f"{tok}: walk length")
            require(all(x == 0 for x in pos[0]), f"{tok}: walk does not start at 0")
            for k, b in enumerate(traj.letters):
                lam, mu = pos[k], pos[k + 1]
                end, floor = letters[b]
                step = tuple(m - l for m, l in zip(mu, lam))
                require(step == end, f"{tok}: step {k} is not letter {b}")
                require(all(l + f >= 0 for l, f in zip(lam, floor)),
                        f"{tok}: letter {b} leaves the chamber from {lam}")
                require(all(m >= 0 for m in mu), f"{tok}: {mu} is not dominant")
                if step not in is_weight:
                    is_weight[step] = lat.is_weight_of(delta, step)
                require(is_weight[step], f"{tok}: {step} is not a weight of V(delta)")
                increments.append([float(x) for x in step])
        inc = np.array(increments)
        target = np.array(oracle.free_drift(lat, delta, [e for e, _ in letters], t))
        err = np.abs(inc.mean(axis=0) - target)
        se = inc.std(axis=0, ddof=1) / np.sqrt(len(inc))
        require(np.all(err <= self.Z_MAX * se),
                f"{tok}: pooled drift off by {err} with standard errors {se}")


class ExactLaws:
    """Two kinds of op.  A law op takes one fresh boundary point: it inverts
    its drift, then evaluates p(lambda, n) and the kernel rows on the
    growth-graph levels n <= N, and the harmonicity residual to level N.  A
    Pitman op runs pitman_equality_in_law at a fresh drift in K(delta)+, with
    the word length n fixed per type."""

    # (type, delta, N for chamber measures, N for free measures): the types
    # of criteria 3 and 4 beyond A1, with levels that keep every op within
    # about 1.5x of the others and the cold set-up near 2.5 s.
    TYPES = (("A2", (1, 1), 5, 2), ("B2", (1, 0), 7, 3), ("G2", (1, 0), 6, 2))
    KINDS = ("free", "chamber")
    T_RANGE = (0.1, 0.9)
    SUM_TOL = 1e-12
    ROW_TOL = 1e-12
    HARMONIC_TOL = 1e-10
    ROUND_TRIP_TOL = 1e-8
    # (type, delta, n): |B|^n = 243, 64, 125 and 49 words, so that one
    # Pitman op costs about as much as one to two law ops.
    PITMAN = (("A1", (2,), 5), ("A2", (1, 1), 2), ("B2", (1, 0), 3), ("G2", (1, 0), 2))
    PITMAN_T_RANGE = (0.15, 0.85)
    TV_TOL = 1e-12

    def setup(self):
        self.data = {}
        self.pitman = {}
        for tok, delta, n_chamber, n_free in self.TYPES:
            cartan = build(tok)
            delta = weight(delta)
            adms = [a.indices for a in polytope.admissible_subsets(cartan, delta)]
            self.data[tok] = (cartan, delta, oracle.Lattice(cartan.cartan), adms,
                              {"chamber": n_chamber, "free": n_free})
            centre = boundary.boundary_point(cartan, delta, (0.5,) * cartan.rank)
            for kind in self.KINDS:
                self._op(cartan, delta, kind, self.data[tok][4][kind], centre.drift)
        for tok, delta, n in self.PITMAN:
            cartan = build(tok)
            delta = weight(delta)
            lat = oracle.Lattice(cartan.cartan)
            ends = [e for e, _ in oracle.letter_table(paths.crystal(cartan, delta).paths)]
            self.pitman[tok] = (cartan, delta, n, lat, ends)
            m = oracle.free_drift(lat, delta, ends, (0.5,) * cartan.rank)
            chamber = boundary.CentralMeasure("chamber", boundary.invert_drift(cartan, delta, m))
            for lam in paths.build_growth_graph(cartan, "chamber", delta, n).levels[n]:
                chamber.p(lam, n)

    def round(self, seed, r):
        ops = []
        for k, (tok, *_) in enumerate(self.TYPES):
            cartan, delta, _, adms, levels = self.data[tok]
            for kind_index, kind in enumerate(self.KINDS):
                for face in (False, True):
                    rng = np.random.default_rng([seed, r, k, kind_index, int(face)])
                    point = self._point(rng, cartan, delta, adms, kind, face)
                    m = point.drift
                    ops.append((f"{tok} {kind}{' face' if face else ''}",
                                partial(self._op, cartan, delta, kind, levels[kind], m),
                                partial(self._check, tok, kind, m)))
        for k, (tok, *_) in enumerate(self.PITMAN):
            cartan, delta, n, lat, ends = self.pitman[tok]
            rng = np.random.default_rng([seed, r, len(self.TYPES) + k])
            m = oracle.free_drift(lat, delta, ends,
                                  _uniform(rng, cartan.rank, *self.PITMAN_T_RANGE))
            ops.append((f"{tok} pitman", partial(self._pitman, cartan, delta, m, n),
                        partial(self._check_pitman, tok)))
        return ops

    def _point(self, rng, cartan, delta, adms, kind, face):
        rank = cartan.rank
        if face:
            support = adms[int(rng.integers(len(adms)))]
            t = [0.0] * rank
            for i in support:
                t[i] = 1.0 if rng.random() < 0.5 else _uniform(rng, 1, *self.T_RANGE)[0]
            if all(x not in (0.0, 1.0) for x in t):
                t[support[int(rng.integers(len(support)))]] = 1.0
        else:
            t = _uniform(rng, rank, *self.T_RANGE)
        w = cartan.identity if kind == "chamber" else \
            cartan.elements[int(rng.integers(cartan.weyl_order))]
        return boundary.boundary_point(cartan, delta, t, w, canonicalize=True)

    def _op(self, cartan, delta, kind, n_top, m):
        point = boundary.invert_drift(cartan, delta, m)
        measure = boundary.CentralMeasure(kind, point)
        graph = paths.build_growth_graph(cartan, kind, delta, n_top + 1)
        sums = [sum(cnt * measure.p(lam, n) for lam, cnt in graph.levels[n].items())
                for n in range(n_top + 1)]
        rows = [measure.kernel_row(lam)
                for n in range(n_top + 1) for lam in graph.levels[n]]
        residual = boundary.harmonicity_residual(measure, n_top)
        return point.drift, graph, sums, rows, residual

    def _check(self, tok, kind, m, out):
        drift, graph, sums, rows, residual = out
        _, delta, lat, _, _ = self.data[tok]
        dim = lat.weyl_dim(delta)
        gap = max(abs(a - b) for a, b in zip(drift, m))
        require(gap <= self.ROUND_TRIP_TOL, f"{tok} {kind}: drift round trip off by {gap}")
        for n, level in enumerate(graph.levels):
            # free: weights of V(delta)^(x)n; chamber: irreducibles V(lam) in it
            mass = sum(cnt * (1 if kind == "free" else lat.weyl_dim(lam))
                       for lam, cnt in level.items())
            require(mass == dim ** n, f"{tok} {kind}: level {n} counts {mass} != {dim}^{n}")
        for n, s in enumerate(sums):
            require(abs(s - 1.0) <= self.SUM_TOL,
                    f"{tok} {kind}: level {n} carries mass {s!r}")
        for row in rows:
            s = sum(row.values())
            require(abs(s - 1.0) <= self.ROW_TOL, f"{tok} {kind}: kernel row sums to {s!r}")
        require(residual <= self.HARMONIC_TOL, f"{tok} {kind}: harmonicity residual {residual}")

    def _pitman(self, cartan, delta, m, n):
        # looked up at call time, so that the traced run sees the call
        return montecarlo.pitman_equality_in_law(cartan, delta, m, n)

    def _check_pitman(self, tok, tv):
        require(0.0 <= tv <= self.TV_TOL, f"{tok} pitman: total variation {tv!r}")


class CliOneshot:
    """One op: one fresh `python -m weylwalks.cli` process, run to its end.
    Each round runs the same ten commands in order; drift targets, lambdas
    and sampler seeds are drawn afresh."""

    TIMEOUT_S = 120
    T_RANGE = (0.2, 0.8)
    ROUND_TRIP_TOL = 1e-8
    ROW_TOL = 1e-12

    def __init__(self, src, child=None):
        self.src = src
        # the CLI entry point, or a wrapper script that traces it
        self.child = child or ["-m", "weylwalks.cli"]
        self.trace_totals = []

    def setup(self):
        self.data = {}
        for tok, delta in (("G2", (1, 0)), ("A2", (1, 1)), ("B2", (1, 0)), ("A3", (1, 0, 0))):
            cartan = build(tok)
            self.data[tok] = (cartan, weight(delta), oracle.Lattice(cartan.cartan))

    def _run(self, argv):
        """Run one child to its end; its (stdout, stderr) on exit code 0."""
        env = dict(os.environ, PYTHONPATH=self.src, PERFBENCH_SPAWN=repr(time.time()))
        proc = subprocess.Popen([sys.executable, *self.child, *argv], stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, env=env)
        try:
            out, err = proc.communicate(timeout=self.TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        if proc.returncode != 0:
            raise RuntimeError(f"exit {proc.returncode}: {err.strip()[-400:]}")
        return out, err

    def round(self, seed, r):
        rng = np.random.default_rng([seed, r])
        g2, a2, b2, a3 = (self.data[k] for k in ("G2", "A2", "B2", "A3"))
        level = int(rng.integers(2, 4))
        vertices = sorted(paths.build_growth_graph(a2[0], "chamber", a2[1], level)
                          .levels[level])
        lam = vertices[int(rng.integers(len(vertices)))]
        commands = [
            (["root", "info", "--type", "F4"], partial(self._root, "F4")),
            (["root", "info", "--type", "B3"], partial(self._root, "B3")),
            (["crystal", "build", "--type", "G2", "--delta", "1,0"], partial(self._crystal, g2)),
            (["graph", "build", "--type", "A2", "--delta", "1,1", "--kind", "free",
              "--nmax", "4"], partial(self._graph, a2, "free")),
            (["graph", "build", "--type", "B2", "--delta", "1,0", "--kind", "chamber",
              "--nmax", "6"], partial(self._graph, b2, "chamber")),
            (["polytope", "faces", "--type", "A3", "--delta", "1,0,1"], self._faces),
        ]
        m = self._drift(rng, g2, free=True)
        commands.append((["drift", "invert", "--type", "G2", "--delta", "1,0", _flag("--m", m)],
                         partial(self._invert, m)))
        m = self._drift(rng, a2, free=False)
        commands.append((["measure", "eval", "--type", "A2", "--delta", "1,1", "--mode", "chamber",
                          _flag("--m", m), "--lambda", ",".join(str(c) for c in lam),
                          "--n", str(level)], partial(self._measure, m)))
        m = self._drift(rng, b2, free=False)
        commands.append((["sample", "--type", "B2", "--delta", "1,0", "--mode", "chamber",
                          _flag("--m", m), "--steps", "100", "--seed", str(seed * 1000 + r)],
                         partial(self._sample, b2, 100, True)))
        m = self._drift(rng, a3, free=True)
        commands.append((["sample", "--type", "A3", "--delta", "1,0,0", "--mode", "free",
                          _flag("--m", m), "--steps", "200", "--seed", str(seed * 1000 + r)],
                         partial(self._sample, a3, 200, False)))
        return [(" ".join(argv[:2]), partial(self._run, argv), partial(self._check, check))
                for argv, check in commands]

    def _drift(self, rng, data, free):
        cartan, delta, _ = data
        t = _uniform(rng, cartan.rank, *self.T_RANGE)
        w = cartan.elements[int(rng.integers(cartan.weyl_order))] if free else cartan.identity
        return boundary.boundary_point(cartan, delta, t, w, canonicalize=True).drift

    def _check(self, check, output):
        out, err = output
        for line in err.splitlines():
            if line.startswith("PERFBENCH_TRACE "):
                self.trace_totals.append(json.loads(line[len("PERFBENCH_TRACE "):]))
        check(json.loads(out))

    # -- output checks ------------------------------------------------------

    def _root(self, tok, doc):
        lat = oracle.Lattice(doc["cartan"])
        require(doc["weyl_order"] == oracle.WEYL_ORDER[tok], f"{tok}: |W| = {doc['weyl_order']}")
        require(len(doc["positive_roots"]) == oracle.POSITIVE_ROOTS[tok]
                == len(lat.positive_roots()), f"{tok}: positive roots")
        require(len(doc["w0_word"]) == oracle.POSITIVE_ROOTS[tok], f"{tok}: length of w0")

    def _crystal(self, data, doc):
        _, delta, lat = data
        ends = [tuple(Fraction(c) for c in e) for e in doc["endpoints"]]
        require(doc["size"] == len(ends) == lat.weyl_dim(delta), "crystal size != dim V(delta)")
        require(all(lat.is_weight_of(delta, e) for e in ends), "crystal endpoint not a weight")
        require(ends.count(tuple(Fraction(c) for c in delta)) == 1, "highest weight not simple")

    def _graph(self, data, kind, doc):
        _, delta, lat = data
        dim = lat.weyl_dim(delta)
        for n, level in enumerate(doc["levels"]):
            mass = sum(v["count"] * (1 if kind == "free" else
                                     lat.weyl_dim([Fraction(c) for c in v["weight"]]))
                       for v in level)
            require(mass == dim ** n, f"{kind} graph level {n}: {mass} != {dim}^{n}")

    def _faces(self, doc):
        lat = oracle.Lattice(build("A3").cartan)
        delta = (Fraction(1), Fraction(0), Fraction(1))
        require(len(doc) >= 1, "no faces")
        for face in doc:
            require(0 <= face["dim"] <= 3, f"face dimension {face['dim']}")
            for v in face["vertices"]:
                require(lat.dominant([Fraction(c) for c in v]) == delta,
                        f"vertex {v} is not in the orbit of delta")
            for g in face["face_weights"]:
                require(lat.is_weight_of(delta, [Fraction(c) for c in g]),
                        f"face weight {g} is not a weight")

    def _invert(self, m, doc):
        drift = [float(x) for x in doc["drift"]]
        gap = max(abs(a - b) for a, b in zip(drift, m))
        require(gap <= self.ROUND_TRIP_TOL, f"drift round trip off by {gap}")
        require(all(0.0 <= float(x) <= 1.0 for x in doc["t"]), f"t = {doc['t']}")

    def _measure(self, m, doc):
        self._invert(m, doc)
        p = float(doc["p"])
        require(0.0 < p <= 1.0, f"p = {p}")
        s = sum(float(q) for q in doc["kernel_row"].values())
        require(abs(s - 1.0) <= self.ROW_TOL, f"kernel row sums to {s!r}")

    def _sample(self, data, steps, chamber, doc):
        _, delta, lat = data
        pos = [tuple(Fraction(c) for c in p) for p in doc["positions"]]
        require(len(pos) == steps + 1 and len(doc["letters"]) == steps, "walk length")
        for a, b in zip(pos, pos[1:]):
            require(lat.is_weight_of(delta, [y - x for x, y in zip(a, b)]),
                    f"step {a} -> {b} is not a weight of V(delta)")
            if chamber:
                require(all(c >= 0 for c in b), f"{b} is not dominant")


def _flag(name, values):
    # `--m=-0.3,0.2`: a leading minus would otherwise read as an option
    return f"{name}={','.join(repr(float(x)) for x in values)}"


WORKLOADS = {
    "chamber_walks": ChamberWalks,
    "exact_laws": ExactLaws,
    "cli_oneshot": CliOneshot,
}
