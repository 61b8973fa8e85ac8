"""Extremal central measures and the drift homeomorphism.

The parametrized morphisms act as psi(t,w)(e^gamma, n) = t^(n delta - w gamma)
/ S_delta(t)^n; their drifts sweep the weight polytope K(delta), and inverting
the drift map (exact face location + damped Newton on the log-partition
function of the face) realizes the homeomorphism between K(delta) and the
minimal boundary.  Chamber measures are the w = identity slice, with
p(lambda, n) = S_{lambda, n delta}(t) / S_delta(t)^n, evaluated through the
measure's cached Weyl numerators, so no law builds a module beyond V(delta).
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import NoConvergence, NotAWeight, NotDominantDrift, OrderViolation, \
    format_weight
from .rootdata import CartanDatum, WeylElement, check_rank, int_weight, minimal_coset_rep, \
    wadd, wsub
from . import chars, paths, polytope

NEWTON_GRAD_TOL = 1e-12
NEWTON_MAX_ITER = 200
CLAMP_TO_ONE = 1e-9


def stabilizer_set(cartan: CartanDatum, delta, t) -> tuple:
    """Indices i with <w(drift), alpha_i^vee> = 0, computed exactly from t.

    This is 1(t) plus the walls orthogonal to every weight of the face cut out
    by the support of t; the extra walls occur only when delta is orthogonal
    to some simple root.
    """
    delta = chars.check_weight(cartan, delta, chars.DEFAULT_DIM_CAP)
    t = tuple(float(x) for x in t)
    support = tuple(i for i, x in enumerate(t) if x != 0.0)
    ones = {i for i, x in enumerate(t) if x == 1.0}
    face_weights, _, _ = polytope.face_rows(cartan, delta, support)
    extra = {
        i for i in range(cartan.rank)
        if i not in support and all(g[i] <= 0 for g in face_weights)
    }
    return tuple(sorted(ones | extra))


class BoundaryPoint:
    """Canonical parameter pair (t, w) of an extremal central measure.

    t lies in the restricted box (support is delta-admissible) and w is the
    minimal right-coset representative modulo the stabilizer of the drift's
    dominant representative; delta is an int tuple (DimensionCap above the
    default cap).  Nothing is computed at construction; the quantities every
    law reads are computed lazily, once per point:
    - s_delta = S_delta(t) and its log, log_s_delta;
    - log_t, the pairs (i, log t_i) for t_i != 1 in index order, log 0 = -inf;
    - monomials, the free step law's t^(delta - w gamma), and from them
      step_law, its nonzero probabilities (gamma, K_gamma mono / S_delta),
      the drift and letter_monomials, one per letter of B(delta);
    - numerator_pack, the per-point part of the Weyl numerators
      (chars.NumeratorPack).
    """

    def __init__(self, cartan: CartanDatum, delta, t, w: WeylElement):
        self.cartan = cartan
        self.delta = chars.check_weight(cartan, delta, chars.DEFAULT_DIM_CAP)
        self.t = tuple(float(x) for x in t)
        self.w = w
        if not polytope.in_unit_box_delta(cartan, self.delta, self.t):
            raise ValueError(f"t = {self.t} is not in the restricted box")
        stab = stabilizer_set(cartan, self.delta, self.t)
        if minimal_coset_rep(cartan, w, stab) != w:
            raise ValueError(f"w = {w.word} is not minimal modulo the stabilizer {stab}")

    @cached_property
    def s_delta(self) -> float:
        return chars.evaluate_S(self.cartan, self.delta, self.t)

    @cached_property
    def log_s_delta(self) -> float:
        return math.log(self.s_delta)

    @cached_property
    def log_t(self) -> tuple:
        return tuple((i, math.log(x) if x else -math.inf)
                     for i, x in enumerate(self.t) if x != 1.0)

    @cached_property
    def monomials(self) -> dict:
        """{gamma: t^(delta - w gamma)} over the weights of V(delta) in table
        order: S_delta(t) psi(t,w)(e^gamma, 1), the free step law's monomials.
        The exponent alpha(delta - w gamma) is the table's row of w gamma."""
        weights, exps, _ = chars._module_table(self.cartan, self.delta)
        rows = dict(zip(weights, exps))
        return {g: chars.monomial(self.t, rows[self.cartan.apply(self.w, g)])
                for g in weights}

    @cached_property
    def letter_monomials(self) -> list:
        """[t^(delta - w e_b)] over the letters b of B(delta), e_b the endpoint
        (paths._letter_table): the chamber moves' coefficients and, over
        S_delta, the free letter law."""
        ends = paths._letter_table(self.cartan, self.delta)[0]
        return [self.monomials[end] for end in ends]

    @cached_property
    def step_law(self) -> list:
        """[(gamma, K_gamma t^(delta - w gamma) / S_delta)] over the weights of
        V(delta) in table order, zero probabilities left out."""
        _, _, mults = chars._module_table(self.cartan, self.delta)
        s_delta = self.s_delta
        return [(g, q) for k, (g, mono) in zip(mults, self.monomials.items())
                if (q := k * mono / s_delta)]

    @cached_property
    def numerator_pack(self) -> chars.NumeratorPack:
        return chars.NumeratorPack(self.cartan, self.t)

    @cached_property
    def drift(self) -> tuple:
        """Expected increment of the free walk: (1/S_delta) sum K t^(delta - w gamma) gamma."""
        weights, _, mults = chars._module_table(self.cartan, self.delta)
        acc = np.zeros(self.cartan.rank)
        for m, g, mono in zip(mults, np.array(weights, dtype=float), self.monomials.values()):
            if mono:
                acc += m * mono * g
        return tuple(float(x) for x in acc / self.s_delta)

    def to_jsonable(self) -> dict:
        return {
            "type": f"{self.cartan.family}{self.cartan.rank}",
            "delta": [str(c) for c in self.delta],
            "t": [repr(x) for x in self.t],
            "w_word": [i + 1 for i in self.w.word],
            "drift": [repr(x) for x in self.drift],
            "s_hat": repr(s_hat_t(self.cartan, self.delta, self.t)),  # inf on faces
        }

    def __repr__(self):
        return f"BoundaryPoint(t={self.t}, w={self.w.word})"


def boundary_point(cartan: CartanDatum, delta, t, w: WeylElement = None,
                   canonicalize: bool = False) -> BoundaryPoint:
    """Validated boundary point; with canonicalize=True, w is replaced by its
    minimal representative modulo the stabilizer."""
    if w is None:
        w = cartan.identity
    if canonicalize:
        w = minimal_coset_rep(cartan, w, stabilizer_set(cartan, delta, t))
    return BoundaryPoint(cartan, delta, t, w)


def random_boundary_point(cartan: CartanDatum, delta, rng,
                          chamber: bool = False,
                          force_support=None, force_ones=None) -> BoundaryPoint:
    """Random canonical point: admissible support, interior or exactly-1 values,
    and a canonicalized random Weyl element (identity for chamber points)."""
    adms = polytope.admissible_subsets(cartan, delta)
    if force_support is None:
        support = adms[int(rng.integers(len(adms)))].indices
    else:
        support = tuple(sorted(force_support))
    t = [0.0] * cartan.rank
    for i in support:
        if force_ones is not None and i in force_ones:
            t[i] = 1.0
        elif force_ones is None and rng.random() < 0.25:
            t[i] = 1.0
        else:
            t[i] = float(0.05 + 0.93 * rng.random())
    if chamber:
        w = cartan.identity
    else:
        w = cartan.elements[int(rng.integers(cartan.weyl_order))]
    return boundary_point(cartan, delta, t, w, canonicalize=True)


# -- evaluation of the morphism ------------------------------------------------


def _sum_in_order(terms):
    """The terms added left to right, as the builtin sum does up to Python
    3.11; from 3.12 on it compensates float rounding, which would move the
    bits of every law and residual."""
    total = 0
    for x in terms:
        total += x
    return total


def _law_value(point: BoundaryPoint, e, n, log_factor=0.0) -> float:
    """exp(log_factor) t^e / S_delta^n in log space (S_delta^n overflows near
    n = 340 for the A2 adjoint); 0**0 = 1, and an underflow gives 0.0.  The
    logs are the point's, computed once: log_s_delta, and log_t, which leaves
    out every t_i = 1 and holds -inf for t_i = 0, so exp gives 0.0 there.

    Factors equal to 1 are skipped, so n and e may be any ints: every other log
    is at least 2^-53 in magnitude and negative, and an n or k past the float
    range (OverflowError) puts the exponent below -1e292."""
    log_s = point.log_s_delta
    try:
        return math.exp(log_factor - (n * log_s if log_s else 0.0)
                        + _sum_in_order(e[i] * log_ti for i, log_ti in point.log_t if e[i]))
    except OverflowError:
        return 0.0


def _level_weight(point: BoundaryPoint, gamma, n: int) -> tuple:
    """gamma as an int tuple; NotAWeight unless it is a weight of the n-th
    tensor power, InvalidWeight when it has the wrong rank.  The weights of
    V(delta)^(x)n are those of V(n delta), so gamma is one iff it is integral
    and n delta minus its dominant representative lies in Q+ (saturation)."""
    cartan = point.cartan
    check_rank(cartan, gamma)
    g = int_weight(gamma)
    below = None if g is None else \
        chars.free_exponent(cartan, point.delta, cartan.identity, n, cartan.descend(g)[0])
    if below is None or min(below) < 0:
        raise NotAWeight(f"{format_weight(gamma)} is not a weight at level {n}")
    return g


def _free_law(point: BoundaryPoint, g, n: int) -> float:
    """psi(t,w)(e^g, n) for an int weight g at level n (_level_weight)."""
    e = chars.free_exponent(point.cartan, point.delta, point.w, n, g)
    assert min(e) >= 0
    return _law_value(point, e, n)


def psi_eval(point: BoundaryPoint, gamma, n: int) -> float:
    """psi(t,w)(e^gamma, n) = t^(n delta - w gamma) / S_delta(t)^n.

    gamma must be a weight of the n-th tensor power (NotAWeight otherwise,
    _level_weight); the value is multiplicative under concatenation.
    InvalidWeight when gamma has the wrong rank."""
    return _free_law(point, _level_weight(point, gamma, n), n)


# -- drift inversion -------------------------------------------------------------


def _face_newton(cartan, delta, support, target):
    """Solve grad log S_delta(e^u) = target on the face cut out by `support`.

    The objective f(u) = log sum_gamma K e^(E u) - target . u is strictly
    convex on the face coordinates; damped Newton with Armijo backtracking.
    Returns the u vector indexed by `support`.
    """
    if not support:
        return {}
    _, exps, mults = polytope.face_rows(cartan, delta, support)
    e_mat = np.array([[row[j] for j in support] for row in exps], dtype=float)
    logm = np.log(np.array(mults, dtype=float))
    g_target = np.array([float(target[j]) for j in support])
    if np.any(g_target <= 0):
        raise NoConvergence(
            "face target has a nonpositive component; no interior solution",
            {"target": list(g_target), "support": list(support)},
        )

    def value_grad_hess(u):
        z = e_mat @ u + logm
        zmax = z.max()
        w = np.exp(z - zmax)
        total = w.sum()
        p = w / total
        val = zmax + math.log(total) - g_target @ u
        mean = e_mat.T @ p
        centered = e_mat - mean
        hess = centered.T @ (centered * p[:, None])
        return val, mean - g_target, hess

    u = np.zeros(len(support))
    val, grad, hess = value_grad_hess(u)
    for iteration in range(NEWTON_MAX_ITER):
        if np.max(np.abs(grad)) < NEWTON_GRAD_TOL:
            return dict(zip(support, u))
        try:
            step = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(hess + 1e-12 * np.eye(len(u)), -grad,
                                   rcond=None)[0]
        tau = 1.0
        descent = grad @ step
        gnorm = np.max(np.abs(grad))
        for _ in range(60):
            cand = u + tau * step
            cval, cgrad, chess = value_grad_hess(cand)
            # Armijo with a rounding allowance, or sufficient gradient decay
            # (the pure Armijo test stalls once |descent| drops below the
            # floating-point noise of the objective)
            if cval <= val + 1e-4 * tau * descent + 1e-14 * (1.0 + abs(val)) \
                    or np.max(np.abs(cgrad)) <= 0.5 * gnorm:
                break
            tau *= 0.5
        u, val, grad, hess = cand, cval, cgrad, chess
    raise NoConvergence(
        "Newton failed to reach gradient tolerance",
        {"residual": float(np.max(np.abs(grad))), "iterations": NEWTON_MAX_ITER,
         "support": list(support)},
    )


def invert_drift(cartan: CartanDatum, delta, m) -> BoundaryPoint:
    """The inverse of the drift map: m in K(delta) -> canonical (t, w).

    Procedure: exact face location of m, t_i = 0 off the face, damped Newton
    in log coordinates on the face (gradient tolerance 1e-12), clamp t_i to 1
    within 1e-9, re-canonicalize w.  Round trips close within 1e-8; the worst
    measured is 3.5e-9 (G2), within 1e-11 to 1e-6 of vertices, dominant-face
    midpoints and walls on all 12 types."""
    delta = chars.check_weight(cartan, delta, chars.DEFAULT_DIM_CAP)
    loc = polytope.locate(cartan, delta, m, strict=True)
    support = loc.face.indices
    target = [float(c) for c in cartan.alpha_coords(wsub(delta, loc.y))]
    u = _face_newton(cartan, delta, support, target)
    t = [0.0] * cartan.rank
    for i in support:
        ti = math.exp(u[i])
        if ti > 1.0 + 1e-6:
            raise NoConvergence(f"t_{i} = {ti} left the box",
                                {"t_i": ti, "support": list(support), "target": target})
        if abs(ti - 1.0) < CLAMP_TO_ONE:
            ti = 1.0
        t[i] = min(ti, 1.0)
    w = minimal_coset_rep(cartan, loc.w, stabilizer_set(cartan, delta, t))
    return BoundaryPoint(cartan, delta, t, w)


# -- central measures --------------------------------------------------------------


@lru_cache(maxsize=None)
def _two_step_offsets(cartan, delta, clipped):
    """The steps of at most two letters of B(delta), 0, E and E + E (E the
    endpoints, paths._letter_table), that keep lam dominant, for every lam
    with min(lam, 2 cap) = clipped: no coordinate of an endpoint is below
    -cap."""
    ends = set(paths._letter_table(cartan, delta)[0]) | {(0,) * cartan.rank}
    return tuple(off for off in sorted({wadd(a, b) for a in ends for b in ends})
                 if min(map(operator.add, clipped, off)) >= 0)


class CentralMeasure:
    """Evaluator p(lambda, n) and Markov kernel of an extremal central measure.

    kind 'free': the walk on the full weight lattice with i.i.d. increments.
    kind 'chamber': the dominant-chamber walk at a chamber point (w = identity,
    t in [0,1]^d), time-homogeneous kernel
    Q(lam -> mu) = e t^(lam+delta-mu) S_{mu,mu}/(S_delta S_{lam,lam}) with
    S_{nu,nu} = N_nu/N_0 (chars.weyl_numerator_batch), so N_0 cancels.  Rows,
    p and the sampler read one numerator cache; a miss at lam fills every
    uncached dominant weight within two letter steps of lam in one batch, so
    the first row out of any target of lam makes no call.  Past the point's
    deep bound (chars.NumeratorPack) the batch gives N = 1.0 exactly.  Rows
    read the chamber case of the step rule (paths.steps), which depends on lam
    only through min(lam, cap) (paths._letter_table), so each clipped weight
    caches its offsets, coefficients len(bs) t^(delta - e_b)
    (BoundaryPoint.letter_monomials) and letters.  A row out of
    lam >= cap whose lam and targets are all deep has every N = 1.0, so all
    such rows share one (probabilities, CDF, letters), built once by the same
    float operations; only their targets are built per row.

    Laws of both kinds are validated once, in p, and evaluated once per
    (lam, n): the measure's law table `laws` holds every value p or the
    growth-level laws (harmonicity_residual, pitman_equality_in_law) asked
    for, and lives and dies with the measure.  Those growth-level laws read
    the unchecked evaluator _law, because the vertices of
    paths.build_growth_graph are valid by construction.
    """

    def __init__(self, kind: str, point: BoundaryPoint):
        if kind not in ("free", "chamber"):
            raise ValueError("kind must be 'free' or 'chamber'")
        if kind == "chamber" and point.w != point.cartan.identity:
            raise NotDominantDrift(
                "chamber measures require a dominant drift (w = identity)")
        self.kind = kind
        self.point = point
        self.cartan = point.cartan
        self.delta = point.delta
        self.tables = {}
        self.numerators = {}
        self.patterns = {}
        self.laws = {}

    @cached_property
    def _cap(self):
        """The largest letter thresholds (paths._letter_table): a row depends on
        lam only through min(lam, cap), and which weights within two steps of
        lam are dominant only through min(lam, 2 cap), _reach."""
        return paths._letter_table(self.cartan, self.delta)[2]

    @cached_property
    def _reach(self):
        return tuple(2 * c for c in self._cap)

    def _fill(self, lam):
        """One batch for the uncached dominant weights within two steps of lam;
        InvalidWeight past the int64 limit, and then nothing is stored."""
        nums = self.numerators
        new = [nu for off in _two_step_offsets(self.cartan, self.delta,
                                               tuple(map(min, lam, self._reach)))
               if (nu := tuple(map(operator.add, lam, off))) not in nums]
        nums.update(zip(new, chars.weyl_numerator_batch(self.point.numerator_pack, new).tolist()))

    def numerator(self, lam) -> float:
        """N_lam(t) for the int weight lam, from the shared cache."""
        if lam not in self.numerators:
            self._fill(lam)
        return self.numerators[lam]

    def _pattern(self, clipped):
        """(offsets, coefficients, letters) of the chamber steps out of every lam
        with min(lam, cap) = clipped."""
        pattern = self.patterns.get(clipped)
        if pattern is None:
            moves = paths.steps(self.cartan, "chamber", self.delta, clipped)
            monos = self.point.letter_monomials
            pattern = self.patterns[clipped] = (
                [off for off, _ in moves],
                [len(bs) * monos[bs[0]] for _, bs in moves],
                [bs for _, bs in moves])
        return pattern

    def _row(self, coefs, nums, n_lam):
        """(probabilities, CDF) of a row with target numerators nums out of a
        weight with numerator n_lam."""
        # tests/chamber_walk_golden.json pins these float operations (the sum left to right)
        scale = self.point.s_delta * n_lam
        probs = [c * n / scale for c, n in zip(coefs, nums)]
        total = _sum_in_order(probs)
        assert abs(total - 1.0) < chars.ROW_TOL, f"kernel row sums to {total}"
        probs = [q / total for q in probs]
        if not all(q >= 0 for q in probs):
            raise ValueError("probabilities are not non-negative")
        cdf = list(itertools.accumulate(probs))
        return probs, [c / cdf[-1] for c in cdf]

    @cached_property
    def _deep(self):
        """(lo, hi, probabilities, CDF, letters), None when nothing is deep: lam
        in [lo, hi] has lam >= cap and lam and its targets deep, so its row has
        every numerator 1.0, and hi, the limit less twice the largest endpoint
        coordinates (0 where none is positive), keeps lam's two-step ball inside
        the int64 limit, past which _fill refuses lam."""
        pack = self.point.numerator_pack
        if pack.deep is None:
            return None
        offsets, coefs, letters = self._pattern(self._cap)  # every letter's endpoint
        cols = list(zip(*offsets))
        return (tuple(max(d - min(0, *col), c) for d, col, c in zip(pack.deep, cols, self._cap)),
                tuple(pack.limit - 2 * max(0, *col) for col in cols),
                *self._row(coefs, [1.0] * len(coefs), 1.0), letters)

    def table(self, lam):
        """Cached chamber step table out of the int weight lam: (targets,
        probabilities, CDF, letters).

        The CDF is the one `Generator.choice(n, p=probs)` builds, so
        bisect_right(cdf, rng.random()) draws the same target from the same
        stream; letters[k] lists the valid letters to targets[k] in index order.
        """
        cached = self.tables.get(lam)
        if cached is not None:
            return cached
        clipped = tuple(map(min, lam, self._cap))
        offsets, coefs, letters = self._pattern(clipped)
        mus = [tuple(map(operator.add, lam, off)) for off in offsets]
        deep = self._deep
        if deep and all(map(operator.le, deep[0], lam)) and all(map(operator.le, lam, deep[1])):
            out = (mus, *deep[2:])
        else:
            nums = self.numerators
            if lam not in nums or not all(map(nums.__contains__, mus)):
                self._fill(lam)
            out = (mus, *self._row(coefs, [nums[mu] for mu in mus], nums[lam]), letters)
        self.tables[lam] = out
        return out

    def p(self, lam, n: int) -> float:
        """Probability of any single length-n path ending at lam: lam is
        validated (free: psi_eval's weight test; chamber: a dominant integral
        weight), then read from the law table (_law)."""
        if self.kind == "free":
            return self._law(_level_weight(self.point, lam, n), n)
        return self._law(chars.check_weight(self.cartan, lam), n)

    def _law(self, top, n: int) -> float:
        """p(top, n) for an int weight top as p validates it, memoized in the
        law table: free, psi(t,w)(e^top, n) (_free_law); chamber,
        OrderViolation unless n delta >= top, else t^(n delta - top) N_top /
        N_0 / S_delta^n from the numerator cache."""
        key = top, n
        value = self.laws.get(key)
        if value is not None:
            return value
        if self.kind == "free":
            value = _free_law(self.point, top, n)
        else:
            cartan = self.cartan
            e = chars.free_exponent(cartan, self.delta, cartan.identity, n, top)
            if e is None or min(e) < 0:
                raise OrderViolation(f"{format_weight(tuple(n * c for c in self.delta))} "
                                     f"is not >= {format_weight(top)} in the root order")
            num = self.numerator  # S_{lam,lam} = N_lam / N_0
            value = _law_value(self.point, e, n, math.log(num(top) / num((0,) * len(top))))
        self.laws[key] = value
        return value

    def kernel_row(self, lam) -> dict:
        """Transition probabilities out of lam (from any level, homogeneous),
        keyed by int tuples; a chamber row is its step table.  lam must have
        the right rank (InvalidWeight), be integral (NotAWeight) and, for a
        chamber row, dominant (InvalidWeight)."""
        if self.kind == "chamber":
            mus, probs, _, _ = self.table(chars.check_weight(self.cartan, lam))
            return {mu: q for mu, q in zip(mus, probs) if q}
        check_rank(self.cartan, lam)
        start = int_weight(lam)
        if start is None:
            raise NotAWeight(f"{format_weight(lam)} is not an integral weight")
        # the weights gamma of V(delta) are distinct, and so are the targets
        return {tuple(map(operator.add, start, g)): q for g, q in self.point.step_law}

    def to_jsonable(self) -> dict:
        return dict(self.point.to_jsonable(), rank=self.cartan.rank, kind=self.kind)


def chamber_point(cartan: CartanDatum, delta, m) -> BoundaryPoint:
    """The point of drift m (invert_drift); NotDominantDrift unless m lies in
    K(delta)+, that is, unless its w is the identity."""
    point = invert_drift(cartan, delta, m)
    if point.w != cartan.identity:
        raise NotDominantDrift(f"{format_weight(m)} is not in K{format_weight(point.delta)}+")
    return point


def central_measure(cartan: CartanDatum, delta, kind: str, m) -> CentralMeasure:
    """Measure for a drift target m: m in K(delta) (free) or K(delta)+ (chamber)."""
    point = (chamber_point if kind == "chamber" else invert_drift)(cartan, delta, m)
    return CentralMeasure(kind, point)


def _harmonic_residual(cartan, kind, delta, n_max, f, c=1) -> float:
    """max over n <= n_max (ValueError when negative) and level-n vertices lam
    of |f(lam, n) - (1/c) sum_mu e(lam, mu) f(mu, n+1)|, f called once per
    vertex in level order, the step rule's targets added in target order."""
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    g = paths.build_growth_graph(cartan, kind, delta, n_max + 1)
    worst = 0.0
    f_next = {lam: f(lam, 0) for lam in g.levels[0]}
    for n in range(n_max + 1):
        f_cur, f_next = f_next, {mu: f(mu, n + 1) for mu in g.levels[n + 1]}
        for lam in g.levels[n]:
            rhs = _sum_in_order(len(bs) * f_next[tuple(map(operator.add, lam, off))]
                                for off, bs in paths.steps(cartan, kind, g.delta, lam))
            worst = max(worst, abs(f_cur[lam] - rhs / c))
    return worst


def harmonicity_residual(measure: CentralMeasure, n_max: int) -> float:
    """max over n <= n_max and level-n vertices of
    |p(lam, n) - sum_mu e(lam, mu) p(mu, n+1)|."""
    return _harmonic_residual(measure.cartan, measure.kind, measure.delta, n_max,
                              measure._law)


# -- c-harmonic classification -------------------------------------------------------


def s_hat_t(cartan: CartanDatum, delta, t) -> float:
    """s_delta evaluated at t: S_delta(t) / t^delta, +inf when some t_i = 0 or
    t^delta underflows to 0 (S_delta >= 1, so the value is beyond the float
    range).  ValueError when t has the wrong length or is not in [0,1]^d."""
    t = tuple(float(x) for x in t)
    if len(t) != cartan.rank:
        raise ValueError(f"t = {t} has wrong rank")
    if not all(0.0 <= x <= 1.0 for x in t):
        raise ValueError(f"t = {t} is not in [0,1]^d")
    if any(x == 0.0 for x in t):
        return math.inf
    s = chars.evaluate_S(cartan, delta, t)
    t_delta = chars.monomial(t, cartan.alpha_coords(delta))
    return s / t_delta if t_delta else math.inf


def s_hat(cartan: CartanDatum, delta, m) -> float:
    """s_hat of the chamber measure with drift m (requires m in K(delta)+)."""
    return s_hat_t(cartan, delta, chamber_point(cartan, delta, m).t)


@dataclass(frozen=True)
class CHarmonicLevel:
    """The extremal c-harmonic set: empty (c < 1), the t = 1 singleton (c = 1),
    or a sampler of the level set {s_hat = c Z} (c > 1)."""

    cartan: CartanDatum
    delta: tuple
    c: float
    kind: str  # "empty" | "singleton" | "level"

    def sample_points(self, count: int, seed: int = 0) -> list:
        """Boundary points on the level set, found by bisection along rays from
        t = 1 toward box faces (each ray crosses the level set exactly once).
        ValueError when c Z is out of reach of every ray: s_hat is convex in
        log t, so on the rays' ends (some t_j = end, the others in [end, 1)) it
        stays below its largest value on the corners of {end, 1}^d other than
        all ones."""
        if self.kind == "empty":
            return []
        ones = (1.0,) * self.cartan.rank
        if self.kind == "singleton":
            return [boundary_point(self.cartan, self.delta, ones)]
        z = chars.weyl_dim(self.cartan, self.delta)
        target = self.c * z
        reach = 1.0 - 1e-12  # every ray's bracket is [0, reach]
        end = 1.0 - reach  # t_j at a ray's end where direction_j = 0
        if target >= max(s_hat_t(self.cartan, self.delta, corner)
                         for corner in itertools.product((end, 1.0), repeat=self.cartan.rank)
                         if corner != ones):
            raise ValueError(f"c = {self.c} is out of reach of the sampler's rays")
        rng = np.random.default_rng(seed)
        out = []
        while len(out) < count:
            direction = rng.random(self.cartan.rank)
            direction[int(rng.integers(self.cartan.rank))] = 0.0

            def val(s):
                t = tuple(1.0 + s * (d - 1.0) for d in direction)
                return s_hat_t(self.cartan, self.delta, t)

            lo, hi = 0.0, reach
            if val(hi) < target:
                continue
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if val(mid) < target:
                    lo = mid
                else:
                    hi = mid
            s = 0.5 * (lo + hi)
            t = tuple(1.0 + s * (d - 1.0) for d in direction)
            out.append(boundary_point(self.cartan, self.delta, t))
        return out


def c_harmonic_level(cartan: CartanDatum, delta, c: float) -> CHarmonicLevel:
    """Classification of extremal c-harmonic measures on the chamber walk.

    Empty for c < 1; for c = 1 the singleton at t = 1 (drift 0); for c > 1 a
    sampler of the level set {s_hat = c dim V(delta)}.  ValueError unless c is
    finite and positive."""
    if not math.isfinite(c):
        raise ValueError("c must be finite")
    if c <= 0:
        raise ValueError("c must be positive")
    delta = chars.check_weight(cartan, delta)
    if c < 1:
        kind = "empty"
    elif c == 1:
        kind = "singleton"
    else:
        kind = "level"
    return CHarmonicLevel(cartan=cartan, delta=delta, c=float(c), kind=kind)


def harmonic_function_check(cartan: CartanDatum, delta, t, n_max: int = 4) -> float:
    """Residual of the c-harmonicity of h(lam) = s_lam(t) with c = s_delta(t)/Z.

    max over dominant vertices lam at levels <= n_max of
    |s_lam(t) - (1/(cZ)) sum_mu e(lam, mu) s_mu(t)|, with N_lam read from the
    chamber measure at t.  ValueError unless t lies in (0, 1]^d, n_max is
    nonnegative and (t, delta) is a boundary point, so delta is nonzero."""
    t = tuple(float(x) for x in t)
    if not all(0 < x <= 1 for x in t):
        raise ValueError("t must lie in the half-open box (0, 1]^d")
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")

    cz = s_hat_t(cartan, delta, t)  # c Z = s_delta(t)
    # s_lam(t) = S_{lam,lam}(t) / t^lam with S_{lam,lam} = N_lam / N_0
    num = CentralMeasure("chamber", boundary_point(cartan, delta, t)).numerator
    n_0 = num((0,) * cartan.rank)
    return _harmonic_residual(
        cartan, "chamber", delta, n_max,
        lambda lam, n: num(lam) / n_0 / chars.monomial(t, cartan.alpha_coords(lam)), cz)


# -- exports ---------------------------------------------------------------------------


def kernel_rows_csv(measure: CentralMeasure, lams) -> str:
    """CSV rows (lambda, mu, probability) for the kernel out of each given vertex."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["lambda", "mu", "probability"])
    for lam in lams:
        for mu, q in sorted(measure.kernel_row(lam).items()):
            writer.writerow([
                " ".join(str(c) for c in lam),
                " ".join(str(c) for c in mu),
                repr(q),
            ])
    return buf.getvalue()
