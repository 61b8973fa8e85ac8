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
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import NoConvergence, NotAWeight, NotDominantDrift, format_weight
from .rootdata import CartanDatum, WeylElement, int_weight, minimal_coset_rep, \
    weight, wadd, wsub
from . import chars, paths, polytope

NEWTON_GRAD_TOL = 1e-12
NEWTON_MAX_ITER = 200
ROUND_TRIP_TOL = 1e-8
CLAMP_TO_ONE = 1e-9


@lru_cache(maxsize=None)
def _delta_tables(cartan, delta):
    """Per-(cartan, delta) arrays: weights, multiplicities, exponents of delta-gamma."""
    gammas = sorted(chars.weight_multiplicities(cartan, delta).entries)
    exps, mults = chars._module_table(cartan, int_weight(delta))
    coords = np.array([[float(c) for c in g] for g in gammas])
    return gammas, mults, coords, exps.astype(float)


def stabilizer_set(cartan: CartanDatum, delta, t) -> tuple:
    """Indices i with <w(drift), alpha_i^vee> = 0, computed exactly from t.

    This is 1(t) plus the walls orthogonal to every weight of the face cut out
    by the support of t; the extra walls occur only when delta is orthogonal
    to some simple root.
    """
    delta = weight(delta)
    t = tuple(float(x) for x in t)
    support = {i for i, x in enumerate(t) if x != 0.0}
    ones = {i for i, x in enumerate(t) if x == 1.0}
    face_weights = [
        g for g, e in chars._free_exponents(cartan, delta, cartan.identity).items()
        if all(c == 0 for k, c in enumerate(e) if k not in support)
    ]
    extra = {
        i for i in range(cartan.rank)
        if i not in support and all(g[i] <= 0 for g in face_weights)
    }
    return tuple(sorted(ones | extra))


class BoundaryPoint:
    """Canonical parameter pair (t, w) of an extremal central measure.

    t lies in the restricted box (support is delta-admissible) and w is the
    minimal right-coset representative modulo the stabilizer of the drift's
    dominant representative; drift is computed lazily.
    """

    def __init__(self, cartan: CartanDatum, delta, t, w: WeylElement):
        self.cartan = cartan
        self.delta = weight(delta)
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
    def drift(self) -> tuple:
        """Expected increment of the free walk: (1/S_delta) sum K t^(delta - w gamma) gamma."""
        cartan = self.cartan
        _, mults, coords, _ = _delta_tables(cartan, self.delta)
        exps = chars._free_exponents(cartan, self.delta, self.w).values()
        acc = np.zeros(cartan.rank)
        for m, g, e in zip(mults, coords, exps):
            mono = chars.monomial(self.t, e)
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
    delta = weight(delta)
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
    top = int_weight(point.delta)
    g = int_weight(gamma)
    below = None if g is None else \
        chars.free_exponent(cartan, top, cartan.identity, n, chars._dominant(cartan, g))
    if below is None or min(below) < 0:
        raise NotAWeight(f"{format_weight(gamma)} is not a weight at level {n}")
    e = chars.free_exponent(cartan, top, point.w, n, g)
    assert min(e) >= 0
    return _law_value(point.t, e, n, point.s_delta)


# -- drift inversion -------------------------------------------------------------


def _face_newton(cartan, delta, support, target, grad_tol=NEWTON_GRAD_TOL,
                 max_iter=NEWTON_MAX_ITER):
    """Solve grad log S_delta(e^u) = target on the face cut out by `support`.

    The objective f(u) = log sum_gamma K e^(E u) - target . u is strictly
    convex on the face coordinates; damped Newton with Armijo backtracking.
    Returns the u vector indexed by `support`.
    """
    if not support:
        return {}
    gammas, mults, _, exps_full = _delta_tables(cartan, delta)
    rows = [k for k, g in enumerate(gammas)
            if all(exps_full[k][j] == 0 for j in range(cartan.rank)
                   if j not in support)]
    e_mat = np.array([[exps_full[k][j] for j in support] for k in rows])
    logm = np.log(np.array([mults[k] for k in rows]))
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
    for iteration in range(max_iter):
        if np.max(np.abs(grad)) < grad_tol:
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
        {"residual": float(np.max(np.abs(grad))), "iterations": max_iter,
         "support": list(support)},
    )


def invert_drift(cartan: CartanDatum, delta, m) -> BoundaryPoint:
    """The inverse of the drift map: m in K(delta) -> canonical (t, w).

    Procedure: exact face location of m, t_i = 0 off the face, damped Newton
    in log coordinates on the face (gradient tolerance 1e-12), clamp t_i to 1
    within 1e-9, re-canonicalize w.  Round trips close within 1e-8."""
    delta = weight(delta)
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


class ChamberKernel:
    """The chamber law at one t in [0,1]^d: cached step tables and numerators.

    Q(lam -> mu) = e t^(lam+delta-mu) S_{mu,mu}/(S_delta S_{lam,lam}) with
    S_{nu,nu} = N_nu/N_0 (chars.weyl_numerator_batch), so N_0 cancels and a
    row costs one batch of |W/W_I| terms per weight whatever dim V(lam).
    """

    def __init__(self, point: BoundaryPoint):
        self.point = point
        # t^(lam+delta-mu) only depends on the step mu-lam = a letter endpoint
        exps = chars._free_exponents(point.cartan, point.delta, point.cartan.identity)
        ends, _ = paths._letter_table(point.cartan, point.delta)
        self.letter_monomials = [chars.monomial(point.t, exps[end]) for end in ends]
        self.tables = {}
        self.numerators = {}

    def numerator(self, lam) -> float:
        """N_lam(t) for the int weight lam, cached for p(lam, n)."""
        if lam not in self.numerators:
            self.numerators[lam] = float(
                chars.weyl_numerator_batch(self.point.cartan, [lam], self.point.t)[0])
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
        moves = sorted(paths.chamber_moves(pt.cartan, pt.delta, lam).items())
        nums = chars.weyl_numerator_batch(pt.cartan, [lam] + [mu for mu, _ in moves], pt.t)
        probs = np.array([len(bs) * self.letter_monomials[bs[0]] for _, bs in moves])
        probs *= nums[1:]
        probs /= pt.s_delta * nums[0]
        total = probs.sum()
        assert abs(total - 1.0) < chars.ROW_TOL, f"kernel row sums to {total}"
        probs /= total
        if not np.all(probs >= 0):
            raise ValueError("probabilities are not non-negative")
        cdf = probs.cumsum()
        cdf /= cdf[-1]
        out = ([mu for mu, _ in moves], probs, cdf.tolist(), [bs for _, bs in moves])
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
        ndelta = tuple(n * c for c in int_weight(self.delta))
        num = self.chamber_kernel.numerator  # S_{lam,lam} = N_lam / N_0
        return _law_value(self.point.t, chars.order_exponent(self.cartan, top, ndelta), n,
                          self.point.s_delta, math.log(num(top) / num((0,) * len(top))))

    def kernel_row(self, lam) -> dict:
        """Transition probabilities out of lam (from any level, homogeneous);
        a chamber row is its ChamberKernel table, keyed by exact weights."""
        if self.kind == "chamber":
            mus, probs, _, _ = self.chamber_kernel.table(chars.check_weight(self.cartan, lam))
            return {weight(mu): q for mu, q in zip(mus, probs.tolist()) if q}
        lam = weight(lam)
        gammas, mults, _, _ = _delta_tables(self.cartan, self.delta)
        exps = chars._free_exponents(self.cartan, self.delta, self.point.w).values()
        # the weights gamma of V(delta) are distinct, and so are the targets
        return {wadd(lam, g): q for g, k, e in zip(gammas, mults.tolist(), exps)
                if (q := k * chars.monomial(self.point.t, e) / self.point.s_delta)}

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
    delta = weight(delta)
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
    delta = weight(delta)
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
    delta = weight(delta)
    t = tuple(float(x) for x in t)
    if any(x <= 0 or x > 1 for x in t):
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
        lam = weight(lam)
        for mu, q in sorted(measure.kernel_row(lam).items()):
            writer.writerow([
                " ".join(str(c) for c in lam),
                " ".join(str(c) for c in mu),
                repr(q),
            ])
    return buf.getvalue()
