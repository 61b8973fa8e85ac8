"""Extremal central measures and the drift homeomorphism.

The parametrized morphisms act as psi(t,w)(e^gamma, n) = t^(n delta - w gamma)
/ S_delta(t)^n; their drifts sweep the weight polytope K(delta), and inverting
the drift map (exact face location + damped Newton on the log-partition
function of the face) realizes the homeomorphism between K(delta) and the
minimal boundary.  Chamber measures are the w = identity slice, with
p(lambda, n) = S_{lambda, n delta}(t) / S_delta(t)^n, evaluated through Weyl
numerators (ChamberKernel), so no law builds a module beyond V(delta).
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

from .errors import NoConvergence, NotAWeight, NotDominantDrift, format_weight
from .rootdata import CartanDatum, WeylElement, int_weight, minimal_coset_rep, wadd, wsub
from . import chars, paths, polytope

NEWTON_GRAD_TOL = 1e-12
NEWTON_MAX_ITER = 200
ROUND_TRIP_TOL = 1e-8
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
    default cap).  The free step law's monomials, and from them the drift, are
    computed lazily, once per point.
    """

    def __init__(self, cartan: CartanDatum, delta, t, w: WeylElement):
        self.cartan = cartan
        self.delta = chars.check_weight(cartan, delta, chars.DEFAULT_DIM_CAP)
        self.t = tuple(float(x) for x in t)
        self.w = w
        if not polytope.in_unit_box_delta(cartan, self.delta, self.t):
            raise ValueError(f"t = {self.t} is not in the restricted box")
        stab = stabilizer_set(cartan, self.delta, self.t)
        for i in stab:
            si_w = cartan.multiply(cartan.simple_reflection(i), w)
            if si_w.length < w.length:
                raise ValueError(
                    f"w = {w.word} is not minimal modulo the stabilizer {stab}")

    @cached_property
    def s_delta(self) -> float:
        return chars.evaluate_S(self.cartan, self.delta, self.delta, self.t)

    @cached_property
    def monomials(self) -> dict:
        """{gamma: t^(delta - w gamma)} over the weights of V(delta) in table
        order: S_delta(t) psi(t,w)(e^gamma, 1), the free step law's monomials."""
        cartan, delta = self.cartan, self.delta
        return {g: chars.monomial(self.t, chars.free_exponent(cartan, delta, self.w, 1, g))
                for g in chars._module_table(cartan, delta)[0]}

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

    def one_set(self) -> tuple:
        return tuple(i for i, x in enumerate(self.t) if x == 1.0)

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


def _law_value(t, e, n, s_delta, log_factor=0.0) -> float:
    """exp(log_factor) t^e / S_delta^n in log space (S_delta^n overflows near
    n = 340 for the A2 adjoint); 0**0 = 1, and an underflow gives 0.0."""
    if any(k and ti == 0.0 for ti, k in zip(t, e)):
        return 0.0
    return math.exp(log_factor - n * math.log(s_delta)
                    + sum(k * math.log(ti) for ti, k in zip(t, e) if k))


def psi_eval(point: BoundaryPoint, gamma, n: int) -> float:
    """psi(t,w)(e^gamma, n) = t^(n delta - w gamma) / S_delta(t)^n.

    gamma must be a weight of the n-th tensor power (NotAWeight otherwise);
    the value is multiplicative under concatenation.  The weights of
    V(delta)^(x)n are those of V(n delta), so gamma is one iff it is integral
    and n delta minus its dominant representative lies in Q+ (saturation)."""
    cartan = point.cartan
    g = int_weight(gamma)
    below = None if g is None else \
        chars.free_exponent(cartan, point.delta, cartan.identity, n, chars._dominant(cartan, g))
    if below is None or min(below) < 0:
        raise NotAWeight(f"{format_weight(gamma)} is not a weight at level {n}")
    e = chars.free_exponent(cartan, point.delta, point.w, n, g)
    assert min(e) >= 0
    return _law_value(point.t, e, n, point.s_delta)


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
    # C order: the column pick alone gives an F-ordered matrix, and BLAS sums it in another order
    e_mat = exps[:, list(support)].astype(float, order="C")
    logm = np.log(mults)
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
    within 1e-9, re-canonicalize w.  Round trips close within 1e-8."""
    delta = chars.check_weight(cartan, delta, chars.DEFAULT_DIM_CAP)
    loc = polytope.locate(cartan, delta, m, strict=True)
    support = loc.face.indices
    target = cartan.alpha_coords(wsub(delta, loc.y))
    assert all(c == 0 for k, c in enumerate(target) if k not in support)
    # interior solutions need strictly positive targets; drop exact-zero
    # coordinates when the reduced support is itself admissible
    active = tuple(k for k in support if target[k] != 0)
    if active != support and polytope.is_admissible(cartan, delta, active):
        support = active
    u = _face_newton(cartan, delta, support, [float(c) for c in target])
    t = [0.0] * cartan.rank
    for i in support:
        ti = math.exp(u[i])
        assert ti <= 1.0 + 1e-6, f"t_{i} = {ti} left the box"
        if abs(ti - 1.0) < CLAMP_TO_ONE:
            ti = 1.0
        t[i] = min(ti, 1.0)
    w = minimal_coset_rep(cartan, loc.w, stabilizer_set(cartan, delta, t))
    return BoundaryPoint(cartan, delta, t, w)


# -- central measures --------------------------------------------------------------


@lru_cache(maxsize=None)
def _two_step_offsets(cartan, delta):
    """The steps of at most two letters of B(delta): 0, E and E + E, E the endpoints."""
    ends = set(paths._letter_table(cartan, delta)[0]) | {(0,) * cartan.rank}
    return tuple(sorted({wadd(a, b) for a in ends for b in ends}))


class ChamberKernel:
    """The chamber law at a chamber point (w = identity, t in [0,1]^d): cached
    rows, moves and numerators; the letter weights t^(delta - e_b) are the
    point's free monomials (BoundaryPoint.monomials).

    Q(lam -> mu) = e t^(lam+delta-mu) S_{mu,mu}/(S_delta S_{lam,lam}) with
    S_{nu,nu} = N_nu/N_0 (chars.weyl_numerator_batch), so N_0 cancels.  Rows and
    p read one numerator cache; a miss at lam fills every uncached dominant
    weight within two letter steps of lam in one batch, so the first row out of
    any target of lam makes no call.  Letter validity depends on lam only
    through min(lam, cap), cap the largest thresholds (paths._letter_table), so
    each clipped weight caches its moves (paths.chamber_moves): target offsets,
    coefficients len(bs) t^(delta - e_b) and letter lists.
    """

    def __init__(self, point: BoundaryPoint):
        self.point = point
        cartan, delta = point.cartan, point.delta
        # t^(lam+delta-mu) only depends on the step mu-lam = a letter endpoint
        ends, thresholds = paths._letter_table(cartan, delta)
        self.letter_monomials = [point.monomials[end] for end in ends]
        self.cap = tuple(map(max, zip(*thresholds)))
        self.offsets = _two_step_offsets(cartan, delta)
        self.tables = {}
        self.numerators = {}
        self.patterns = {}

    def _fill(self, lam):
        """One batch for the uncached dominant weights within two steps of lam."""
        nums = self.numerators
        new = [nu for off in self.offsets
               if (nu := tuple(map(operator.add, lam, off))) not in nums and min(nu) >= 0]
        nums.update(zip(new, chars.weyl_numerator_batch(
            self.point.cartan, new, self.point.t).tolist()))

    def numerator(self, lam) -> float:
        """N_lam(t) for the int weight lam, from the shared cache."""
        if lam not in self.numerators:
            self._fill(lam)
        return self.numerators[lam]

    def table(self, lam):
        """Cached step table out of the int weight lam: (targets, probabilities,
        CDF, letters).

        The CDF is the one `Generator.choice(n, p=probs)` builds, so
        bisect_right(cdf, rng.random()) draws the same target from the same
        stream; letters[k] lists the valid letters to targets[k] in index order.
        """
        cached = self.tables.get(lam)
        if cached is not None:
            return cached
        pt = self.point
        clipped = tuple(map(min, lam, self.cap))
        pattern = self.patterns.get(clipped)
        if pattern is None:
            moves = sorted(paths.chamber_moves(pt.cartan, pt.delta, clipped).items())
            pattern = self.patterns[clipped] = (
                [wsub(mu, clipped) for mu, _ in moves],
                [len(bs) * self.letter_monomials[bs[0]] for _, bs in moves],
                [bs for _, bs in moves])
        offsets, coefs, letters = pattern
        mus = [tuple(map(operator.add, lam, off)) for off in offsets]
        nums = self.numerators
        if lam not in nums or not all(map(nums.__contains__, mus)):
            self._fill(lam)
        # tests/chamber_walk_golden.json pins these float operations (numpy's pairwise sum)
        scale = pt.s_delta * nums[lam]
        probs = [c * nums[mu] / scale for c, mu in zip(coefs, mus)]
        total = float(np.add.reduce(probs))
        assert abs(total - 1.0) < chars.ROW_TOL, f"kernel row sums to {total}"
        probs = [q / total for q in probs]
        if not all(q >= 0 for q in probs):
            raise ValueError("probabilities are not non-negative")
        cdf = list(itertools.accumulate(probs))
        out = (mus, probs, [c / cdf[-1] for c in cdf], letters)
        self.tables[lam] = out
        return out


class CentralMeasure:
    """Evaluator p(lambda, n) and Markov kernel of an extremal central measure.

    kind 'free': the walk on the full weight lattice with i.i.d. increments;
    kind 'chamber': the dominant-chamber walk, time-homogeneous kernel
    Q(lam -> mu) = e(lam, mu) S_{mu, lam+delta}(t) / (S_delta(t) S_lam(t)),
    read with p from the measure's ChamberKernel, which the sampler shares.
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
        self.chamber_kernel = ChamberKernel(point) if kind == "chamber" else None

    def p(self, lam, n: int) -> float:
        """Probability of any single length-n path ending at lam."""
        if self.kind == "free":
            return psi_eval(self.point, lam, n)
        top = chars.check_weight(self.cartan, lam)
        ndelta = tuple(n * c for c in self.delta)
        num = self.chamber_kernel.numerator  # S_{lam,lam} = N_lam / N_0
        return _law_value(self.point.t, chars.order_exponent(self.cartan, top, ndelta), n,
                          self.point.s_delta, math.log(num(top) / num((0,) * len(top))))

    def kernel_row(self, lam) -> dict:
        """Transition probabilities out of lam (from any level, homogeneous),
        keyed by int tuples; a chamber row is its ChamberKernel table.  lam
        must be integral (NotAWeight) and, for a chamber row, dominant
        (InvalidWeight)."""
        if self.kind == "chamber":
            mus, probs, _, _ = self.chamber_kernel.table(chars.check_weight(self.cartan, lam))
            return {mu: q for mu, q in zip(mus, probs) if q}
        start = int_weight(lam)
        if start is None:
            raise NotAWeight(f"{format_weight(lam)} is not an integral weight")
        _, _, mults = chars._module_table(self.cartan, self.delta)
        s_delta = self.point.s_delta
        # the weights gamma of V(delta) are distinct, and so are the targets
        monomials = self.point.monomials.items()
        return {wadd(start, g): q for k, (g, mono) in zip(mults.tolist(), monomials)
                if (q := k * mono / s_delta)}

    def to_jsonable(self) -> dict:
        return dict(self.point.to_jsonable(), rank=self.cartan.rank, kind=self.kind)


def central_measure(cartan: CartanDatum, delta, kind: str, m) -> CentralMeasure:
    """Measure for a drift target m: m in K(delta) (free) or K(delta)+ (chamber)."""
    point = invert_drift(cartan, delta, m)
    if kind == "chamber" and point.w != cartan.identity:
        raise NotDominantDrift(f"{m} is not in K(delta)+")
    return CentralMeasure(kind, point)


def harmonicity_residual(measure: CentralMeasure, n_max: int) -> float:
    """max over n <= n_max and level-n vertices of
    |p(lam, n) - sum_mu e(lam, mu) p(mu, n+1)|."""
    g = paths.build_growth_graph(measure.cartan, measure.kind, measure.delta,
                                 n_max + 1)
    worst = 0.0
    p_next = {lam: measure.p(lam, 0) for lam in g.levels[0]}
    for n in range(n_max + 1):
        p_cur, p_next = p_next, {mu: measure.p(mu, n + 1) for mu in g.levels[n + 1]}
        for lam in g.levels[n]:
            rhs = sum(e * p_next[mu] for mu, e in g.edges[n][lam])
            worst = max(worst, abs(p_cur[lam] - rhs))
    return worst


# -- c-harmonic classification -------------------------------------------------------


def s_hat_t(cartan: CartanDatum, delta, t) -> float:
    """s_delta evaluated at t: S_delta(t) / t^delta, +inf when some t_i = 0."""
    t = tuple(float(x) for x in t)
    if any(x == 0.0 for x in t):
        return math.inf
    s = chars.evaluate_S(cartan, delta, delta, t)
    return s / chars.monomial(t, cartan.alpha_coords(delta))


def s_hat(cartan: CartanDatum, delta, m) -> float:
    """s_hat of the chamber measure with drift m (requires m in K(delta)+)."""
    point = invert_drift(cartan, delta, m)
    if point.w != cartan.identity:
        raise NotDominantDrift(f"{m} is not in K(delta)+")
    return s_hat_t(cartan, delta, point.t)


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
        t = 1 toward box faces (each ray crosses the level set exactly once)."""
        if self.kind == "empty":
            return []
        ones = (1.0,) * self.cartan.rank
        if self.kind == "singleton":
            return [boundary_point(self.cartan, self.delta, ones)]
        z = chars.weyl_dim(self.cartan, self.delta)
        target = self.c * z
        rng = np.random.default_rng(seed)
        out = []
        while len(out) < count:
            direction = rng.random(self.cartan.rank)
            direction[int(rng.integers(self.cartan.rank))] = 0.0

            def val(s):
                t = tuple(1.0 + s * (d - 1.0) for d in direction)
                return s_hat_t(self.cartan, self.delta, t)

            lo, hi = 0.0, 1.0 - 1e-12
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
    sampler of the level set {s_hat = c dim V(delta)}."""
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
    |s_lam(t) - (1/(cZ)) sum_mu e(lam, mu) s_mu(t)|; t must lie in (0, 1]^d."""
    t = tuple(float(x) for x in t)
    if not all(0 < x <= 1 for x in t):
        raise ValueError("t must lie in the half-open box (0, 1]^d")

    cz = s_hat_t(cartan, delta, t)  # c Z = s_delta(t)
    g = paths.build_growth_graph(cartan, "chamber", delta, n_max + 1)
    # s_lam(t) = S_{lam,lam}(t) / t^lam with S_{lam,lam} = N_lam / N_0
    lams = list(dict.fromkeys(lam for level in g.levels for lam in level))
    nums = chars.weyl_numerator_batch(cartan, [(0,) * cartan.rank] + lams, t).tolist()
    s_val = {lam: num / nums[0] / chars.monomial(t, cartan.alpha_coords(lam))
             for lam, num in zip(lams, nums[1:])}
    worst = 0.0
    for n in range(n_max + 1):
        for lam in g.levels[n]:
            lhs = s_val[lam]
            rhs = sum(e * s_val[mu] for mu, e in g.edges[n][lam]) / cz
            worst = max(worst, abs(lhs - rhs))
    return worst


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
