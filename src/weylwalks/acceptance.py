"""The verification suite: every structural claim the package exposes, run as
named checks with pinned tolerances and runtime budgets.

Suite types: A1 (delta = w1, 2w1), A2 (w1, w1+w2), B2 (w1, w2), G2 (the
7-dimensional fundamental).  Each check returns a CheckResult; the CLI
`verify` subcommand and tests/test_acceptance.py both run these.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .rootdata import build_root_system, wsub, wscale, wzero
from . import boundary, chars, montecarlo, paths, polytope

SEED = 20161207


def suite_deltas(types=None):
    """(type token, cartan, delta) triples of the verification suite."""
    out = []
    for tok, deltas in [("A1", [(1,), (2,)]), ("A2", [(1, 0), (1, 1)]),
                        ("B2", [(1, 0), (0, 1)]), ("G2", None)]:
        if types and tok not in types:
            continue
        cartan = build_root_system(tok[0], int(tok[1]))
        if deltas is None:
            deltas = [d for d in [(1, 0), (0, 1)]
                      if chars.weyl_dim(cartan, d) == 7]
            assert len(deltas) == 1
        out.extend((tok, cartan, d) for d in deltas)
    return out


@dataclass(frozen=True)
class CheckResult:
    criterion: int
    name: str
    passed: bool
    runtime: float
    budget: float
    details: dict

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"[{status}] criterion {self.criterion}: {self.name} "
                f"({self.runtime:.2f}s / budget {self.budget:.0f}s)")

    def to_jsonable(self) -> dict:
        return {
            "criterion": self.criterion,
            "name": self.name,
            "passed": self.passed,
            "runtime_s": round(self.runtime, 3),
            "budget_s": self.budget,
            "details": self.details,
        }


# -- criterion 1: crystal correctness ------------------------------------------------


def _crystal_correctness(types):
    details = {}
    ok = True
    for tok, cartan, delta in suite_deltas(types):
        cb = paths.crystal(cartan, delta)
        dim = chars.weyl_dim(cartan, delta)
        counted = {}
        for e in cb.endpoints():
            counted[e] = counted.get(e, 0) + 1
        good = (len(cb.paths) == dim
                and counted == chars.weight_multiplicities(cartan, delta).entries)
        details[f"{tok} {delta}"] = {
            "size": len(cb.paths), "dim": dim, "endpoints_match": good}
        ok = ok and good
    return ok, details


# -- criterion 2: multiplicity oracle equivalence --------------------------------------


N_MAX_BY_TYPE = {"A1": 5, "A2": 5, "B2": 4, "G2": 3}


def _count_oracles(types):
    details = {}
    ok = True
    for tok, cartan, delta in suite_deltas(types):
        n_max = N_MAX_BY_TYPE[tok]
        conv = {wzero(cartan.rank): 1}
        comps = {wzero(cartan.rank): 1}
        ms = chars.weight_multiplicities(cartan, delta).entries
        free_ok = chamber_ok = True
        for n in range(1, n_max + 1):
            conv = chars.convolve_multisets(conv, ms)
            free_ok &= paths.build_growth_graph(cartan, "free", delta, n).levels[n] == conv
            nxt = {}
            for lam, m in comps.items():
                for nu, k in chars.tensor_decompose(cartan, lam, delta).items():
                    nxt[nu] = nxt.get(nu, 0) + m * k
            comps = nxt
            chamber_ok &= paths.build_growth_graph(cartan, "chamber", delta,
                                                   n).levels[n] == comps
        details[f"{tok} {delta}"] = {
            "n_max": n_max, "free": free_ok, "chamber": chamber_ok}
        ok = ok and free_ok and chamber_ok
    return ok, details


# -- criterion 3: harmonicity -----------------------------------------------------------


def _sample_points(cartan, delta, rng, count, chamber):
    pts = [
        boundary.boundary_point(cartan, delta, (1.0,) * cartan.rank,
                                canonicalize=True),
        boundary.boundary_point(cartan, delta, (0.0,) * cartan.rank,
                                canonicalize=True),
    ]
    full = tuple(range(cartan.rank))
    pts.append(boundary.random_boundary_point(
        cartan, delta, rng, chamber=chamber, force_support=full,
        force_ones=(0,)))
    while len(pts) < count:
        pts.append(boundary.random_boundary_point(cartan, delta, rng,
                                                  chamber=chamber))
    return pts[:count]


def _harmonicity(types, tol=1e-10, n_max=4, count=20):
    rng = np.random.default_rng(SEED)
    details = {}
    ok = True
    for tok, cartan, delta in suite_deltas(types):
        worst = 0.0
        for kind in ("free", "chamber"):
            for pt in _sample_points(cartan, delta, rng, count,
                                     chamber=(kind == "chamber")):
                meas = boundary.CentralMeasure(kind, pt)
                worst = max(worst, boundary.harmonicity_residual(meas, n_max))
        details[f"{tok} {delta}"] = {"max_residual": worst}
        ok = ok and worst < tol
    return ok, details


# -- criterion 4: drift homeomorphism -----------------------------------------------------


def _random_interior(cartan, delta, rng, count):
    orbit = cartan.orbit(delta)
    pts = []
    for _ in range(count):
        coeffs = rng.dirichlet(np.ones(len(orbit)) * 2.0)
        pts.append(tuple(float(sum(c * float(v[k]) for c, v in zip(coeffs, orbit)))
                         for k in range(cartan.rank)))
    return pts


def _one_set_equivalence(cartan, pt, m, tol=1e-10):
    wm = cartan.apply(pt.w, tuple(Fraction(x).limit_denominator(10**12) for x in m))
    for i in range(cartan.rank):
        if (pt.t[i] == 1.0) != (abs(float(wm[i])) < tol):
            return False
    return True


def _drift_homeomorphism(types, count=100, tol=1e-8):
    rng = np.random.default_rng(SEED + 1)
    details = {}
    ok = True
    for tok, cartan, delta in suite_deltas(types):
        worst = 0.0
        equiv_ok = True
        for m in _random_interior(cartan, delta, rng, count):
            pt = boundary.invert_drift(cartan, delta, m)
            worst = max(worst, max(abs(a - b) for a, b in zip(pt.drift, m)))
            equiv_ok &= _one_set_equivalence(cartan, pt, m)
        # exact parameter patterns
        pt0 = boundary.invert_drift(cartan, delta, wzero(cartan.rank))
        patterns = pt0.t == (1.0,) * cartan.rank and pt0.w == cartan.identity
        equiv_ok &= _one_set_equivalence(cartan, pt0, wzero(cartan.rank))
        ptd = boundary.invert_drift(cartan, delta, delta)
        patterns &= ptd.t == (0.0,) * cartan.rank and ptd.w == cartan.identity
        degenerate_walls = [i for i in range(cartan.rank) if delta[i] == 0]
        for i in range(cartan.rank):
            if delta[i] == 0:
                continue
            xi = tuple(float(c - Fraction(delta[i], 2) * a)
                       for c, a in zip(delta, cartan.alpha[i]))
            pti = boundary.invert_drift(cartan, delta, xi)
            expect = tuple(1.0 if j == i else 0.0 for j in range(cartan.rank))
            patterns &= max(abs(a - b) for a, b in zip(pti.t, expect)) < tol
            patterns &= pti.w == cartan.identity
            equiv_ok &= _one_set_equivalence(cartan, pti, xi)
        details[f"{tok} {delta}"] = {
            "max_round_trip": worst,
            "patterns": patterns,
            "one_set_equivalence": equiv_ok,
            "delta_pattern_walls_orthogonal_to_face": degenerate_walls,
        }
        ok = ok and worst < tol and patterns and equiv_ok
    return ok, details


# -- criterion 5: face / admissibility bijection --------------------------------------------


def _faces(types):
    details = {}
    ok = True
    for tok, cartan, delta in suite_deltas(types):
        adms = polytope.admissible_subsets(cartan, delta)
        faces = polytope.dominant_faces(cartan, delta)
        ms = chars.weight_multiplicities(cartan, delta)
        good = len(adms) == len(faces)
        good &= len({f.vertices for f in faces}) == len(faces)
        for f in faces:
            good &= f.dim() == len(f.admissible.indices)
            by_hull = tuple(sorted(g for g in ms.entries
                                   if polytope.hull_contains(f.vertices, g)))
            good &= by_hull == f.face_weights
        details[f"{tok} {delta}"] = {
            "n_faces": len(faces), "n_admissible": len(adms), "ok": good}
        ok = ok and good
        if tok == "A2" and delta == (1, 0):
            listed = [a.indices for a in adms]
            match = listed == [(), (0,), (0, 1)]
            details["A2 (1, 0)"]["known_admissible_list"] = match
            ok = ok and match
    return ok, details


# -- criterion 6: Pitman equality in law ------------------------------------------------------


PITMAN_N = {"A1": 12, "A2": 6, "B2": 6, "G2": 5}


def _pitman(types, tol=1e-12):
    rng = np.random.default_rng(SEED + 2)
    details = {}
    ok = True
    for tok, cartan, delta in suite_deltas(types):
        if tok not in PITMAN_N:
            continue
        n_max = PITMAN_N[tok]
        targets = [wzero(cartan.rank)]
        for _ in range(2):
            pt = boundary.random_boundary_point(
                cartan, delta, rng, chamber=True,
                force_support=range(cartan.rank), force_ones=())
            targets.append(pt.drift)
        worst = 0.0
        for m in targets:
            for n in range(1, n_max + 1):
                worst = max(worst, montecarlo.pitman_equality_in_law(
                    cartan, delta, m, n))
        details[f"{tok} {delta}"] = {
            "n_max": n_max, "max_tv": worst}
        ok = ok and worst < tol
    return ok, details


# -- criterion 7: law of large numbers ----------------------------------------------------------


def _lln(types, steps=5000, seeds=3, targets=3, tol=0.05):
    rng = np.random.default_rng(SEED + 3)
    details = {}
    ok = True
    seen_types = set()
    for tok, cartan, delta in suite_deltas(types):
        if tok in seen_types:
            continue
        seen_types.add(tok)
        worst = 0.0
        for k in range(targets):
            pt = boundary.random_boundary_point(
                cartan, delta, rng, chamber=True,
                force_support=range(cartan.rank), force_ones=())
            meas = boundary.CentralMeasure("chamber", pt)
            report = montecarlo.lln_check(meas, steps, seeds,
                                          seed=SEED + 100 * k, threshold=tol)
            worst = max(worst, report.max_deviation)
        details[tok] = {"max_deviation": worst, "steps": steps, "seeds": seeds}
        ok = ok and worst < tol
    return ok, details


# -- criterion 8: c-harmonic classification -------------------------------------------------------


def _c_harmonic(types, grad_tol=1e-10):
    details = {}
    ok = True
    rng = np.random.default_rng(SEED + 4)
    for tok, cartan, delta in suite_deltas(types):
        z = chars.weyl_dim(cartan, delta)
        ms = chars.weight_multiplicities(cartan, delta)
        grad = np.zeros(cartan.rank)
        for gamma, m in ms.entries.items():
            grad -= m * np.array([float(c) for c in cartan.alpha_coords(gamma)])
        grad /= z  # gradient of log s_delta at t = 1
        worst_grad = float(np.max(np.abs(grad)))
        at_one = boundary.s_hat_t(cartan, delta, (1.0,) * cartan.rank)
        min_ok = abs(at_one - z) < 1e-9 * z
        for _ in range(20):
            t = 0.05 + 0.95 * rng.random(cartan.rank)
            min_ok &= boundary.s_hat_t(cartan, delta, t) >= z - 1e-9
        empty = boundary.c_harmonic_level(cartan, delta, 0.9).kind == "empty"
        single = boundary.c_harmonic_level(cartan, delta, 1.0)
        singleton = single.kind == "singleton"
        (pt,) = single.sample_points(1)
        singleton &= pt.t == (1.0,) * cartan.rank
        singleton &= max(abs(x) for x in pt.drift) < 1e-12
        details[f"{tok} {delta}"] = {
            "grad_at_one": worst_grad, "min_is_dim": min_ok,
            "empty_at_0.9": empty, "singleton_at_1": singleton}
        ok = ok and worst_grad < grad_tol and min_ok and empty and singleton
    return ok, details


# -- criterion 9: total positivity and wedge decompositions -----------------------------------------


def _total_positivity(types, samples=50, kmax=3, tol=-1e-9):
    rng = np.random.default_rng(SEED + 5)
    details = {}
    ok = True
    for tok, cartan, delta in suite_deltas(types):
        n = chars.weyl_dim(cartan, delta)
        wedge_ok = True
        for k in range(n + 1):
            dec = chars.exterior_power_char(cartan, delta, k)
            wedge_ok &= all(isinstance(m, int) and m > 0 for m in dec.values())
            wedge_ok &= sum(m * chars.weyl_dim(cartan, nu)
                            for nu, m in dec.items()) == math.comb(n, k)
        worst = 0.0
        for _ in range(samples):
            t = rng.random(cartan.rank)
            w = cartan.elements[int(rng.integers(cartan.weyl_order))]
            worst = min(worst, chars.total_positivity_min_minor(
                cartan, delta, t, w, kmax))
        details[f"{tok} {delta}"] = {
            "wedge_decompositions": wedge_ok, "min_minor": worst}
        ok = ok and wedge_ok and worst >= tol
    return ok, details


# -- criterion 10: the rank-2 simplex picture --------------------------------------------------------


def _thoma_simplex(types, tol=1e-10):
    if types and "A2" not in types:
        return True, {"skipped": "A2 not selected"}
    cartan = build_root_system("A", 2)
    delta = (1, 0)
    x1 = wsub(delta, wscale(Fraction(1, 2), cartan.alpha[0]))
    verts = [wzero(2), delta, x1]

    # the three claimed extreme points are drifts of the canonical parameters
    pt0 = boundary.boundary_point(cartan, delta, (1.0, 1.0))
    ptd = boundary.boundary_point(cartan, delta, (0.0, 0.0))
    ptx = boundary.boundary_point(cartan, delta, (1.0, 0.0))
    recovered = (max(abs(x) for x in pt0.drift) < tol
                 and max(abs(a - float(b)) for a, b in zip(ptd.drift, delta)) < tol
                 and max(abs(a - float(b)) for a, b in zip(ptx.drift, x1)) < tol)

    # image of the restricted box under the drift is inside the simplex ...
    rng = np.random.default_rng(SEED + 6)
    inside = True
    box_samples = [(1.0, 1.0), (0.0, 0.0), (1.0, 0.0)]
    adms = [a.indices for a in polytope.admissible_subsets(cartan, delta)]
    for _ in range(60):
        sup = adms[int(rng.integers(len(adms)))]
        t = [0.0, 0.0]
        for i in sup:
            t[i] = float(rng.random())
        box_samples.append(tuple(t))
    for t in box_samples:
        pt = boundary.boundary_point(cartan, delta, t, canonicalize=True)
        inside &= polytope.hull_contains(verts, polytope.snap_coords(pt.drift),
                                         slack=Fraction(1, 10**9))

    # ... and every simplex point is a drift (round trip through inversion)
    onto = True
    for _ in range(40):
        coeffs = rng.dirichlet(np.ones(3))
        m = tuple(float(sum(c * float(v[k]) for c, v in zip(coeffs, verts)))
                  for k in range(2))
        pt = boundary.invert_drift(cartan, delta, m)
        onto &= pt.w == cartan.identity
        onto &= max(abs(a - b) for a, b in zip(pt.drift, m)) < 1e-8

    # K(delta)+ equals the simplex: its vertices lie in the hull of the orbit
    # and all dominant orbit sections are covered by the three extreme points
    kplus_ok = all(polytope.hull_contains(cartan.orbit(delta), v) for v in verts)

    ok = recovered and inside and onto and kplus_ok
    details = {"extreme_points_recovered": recovered, "image_in_simplex": inside,
               "simplex_in_image": onto, "vertices_in_polytope": kplus_ok}
    return ok, details


# -- driver -------------------------------------------------------------------------------------------


CRITERIA = [
    (1, "crystal correctness", _crystal_correctness, 1.0),
    (2, "multiplicity oracle equivalence", _count_oracles, 60.0),
    (3, "harmonicity of central measures", _harmonicity, 120.0),
    (4, "drift homeomorphism round trips", _drift_homeomorphism, 30.0),
    (5, "face/admissibility bijection", _faces, 60.0),
    (6, "Pitman equality in law", _pitman, 60.0),
    (7, "law of large numbers", _lln, 60.0),
    (8, "c-harmonic classification", _c_harmonic, 60.0),
    (9, "total positivity and wedge decompositions", _total_positivity, 120.0),
    (10, "rank-2 simplex parametrization", _thoma_simplex, 60.0),
]


def run_acceptance(criteria=None, types=None):
    """Run the selected criteria (all by default) and return CheckResults."""
    results = []
    for number, name, fn, budget in CRITERIA:
        if criteria and number not in criteria:
            continue
        start = time.perf_counter()
        passed, details = fn(types)
        elapsed = time.perf_counter() - start
        results.append(CheckResult(
            criterion=number, name=name,
            passed=bool(passed) and elapsed < budget,
            runtime=elapsed, budget=budget, details=details,
        ))
    return results
