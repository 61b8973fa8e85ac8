"""Characters as weight multisets: Freudenthal multiplicities, Weyl dimensions,
evaluation of the shifted characters S_{lambda,mu}, tensor and exterior-power
decompositions, and the Toeplitz-minor total-positivity check.

The combinatorial layer (multiplicities, decompositions) is exact integer
arithmetic; evaluations at a parameter vector t in [0,1]^d are binary64 with
the convention 0**0 = 1, so boundary parameters are safe.  numpy is imported
inside the float evaluators only (_module_table, evaluate_S, the Toeplitz
minors, _coset_pack, weyl_numerator_batch), so the exact layers and the CLI
subcommands built on them start without it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import DimensionCap, InvalidWeight, OrderViolation, format_weight
from .rootdata import CartanDatum, WeylElement, int_weight, minimal_coset_rep, wadd, wsub

DEFAULT_DIM_CAP = 10**6


@dataclass(frozen=True)
class WeightMultiset:
    """A character: sparse map weight -> multiplicity, with its highest weight."""

    top: tuple
    entries: dict

    def total_mass(self) -> int:
        return sum(self.entries.values())

    def __iter__(self):
        return iter(self.entries.items())


def check_weight(cartan, lam, dim_cap=None):
    """lam as an int tuple; InvalidWeight unless it is a dominant integral
    weight of the right rank, DimensionCap when dim V(lambda) exceeds dim_cap."""
    top = int_weight(lam)
    if len(lam) != cartan.rank:
        raise InvalidWeight(f"weight {format_weight(lam)} has wrong rank")
    if top is None or min(top) < 0:
        raise InvalidWeight(f"{format_weight(lam)} is not a dominant integral weight")
    if dim_cap is not None and _weyl_dim(cartan, top) > dim_cap:
        raise DimensionCap(f"dim V{format_weight(top)} = {_weyl_dim(cartan, top)} "
                           f"exceeds cap {dim_cap}")
    return top


def weyl_dim(cartan: CartanDatum, lam) -> int:
    """dim V(lambda) by the Weyl dimension formula, evaluated in exact rationals."""
    return _weyl_dim(cartan, check_weight(cartan, lam))


@lru_cache(maxsize=None)
def _weyl_dim(cartan, lam):
    num = Fraction(1)
    lam_rho = wadd(lam, cartan.rho)
    for alpha in cartan.positive_roots:
        num *= cartan.pairing(lam_rho, alpha) / cartan.pairing(cartan.rho, alpha)
    assert num.denominator == 1 and num > 0
    return int(num)


def weight_multiplicities(cartan: CartanDatum, lam, dim_cap: int = DEFAULT_DIM_CAP) -> WeightMultiset:
    """Weight multiset of V(lambda) by the Freudenthal recursion, keyed by int
    tuples.

    Dominant weights mu <= lambda are processed by increasing height of
    lambda - mu; non-dominant multiplicities come for free by W-invariance.
    Raises DimensionCap when dim V(lambda) exceeds `dim_cap`.
    """
    return _weight_multiplicities(cartan, check_weight(cartan, lam, dim_cap))


@lru_cache(maxsize=None)
def _weight_multiplicities(cartan, lam):
    # the dominant weights below lam, reached from lam by subtracting positive
    # roots through dominant weights only (Stembridge 1998), with their heights
    roots = [(alpha, sum(cartan.int_alpha_coords(alpha))) for alpha in cartan.positive_roots]
    height = {lam: 0}
    frontier = [lam]
    while frontier:
        nxt = []
        for nu in frontier:
            for alpha, h in roots:
                mu = tuple(x - a for x, a in zip(nu, alpha))
                if min(mu) >= 0 and mu not in height:
                    height[mu] = height[nu] + h
                    nxt.append(mu)
        frontier = nxt

    # Freudenthal in the integer form den * (,) on omega-coordinates
    den = math.lcm(*(x.denominator for row in cartan._omega_form for x in row))
    form = [[int(x * den) for x in row] for row in cartan._omega_form]

    def pairing(v, u):
        return sum(x * sum(f * y for f, y in zip(row, u)) for x, row in zip(v, form))

    form_roots = [(alpha, [sum(f * a for f, a in zip(row, alpha)) for row in form])
                  for alpha, _ in roots]
    lam_rho = wadd(lam, cartan.rho)
    c_top = pairing(lam_rho, lam_rho)
    mult_dom = {}
    for h, mu in sorted((h, mu) for mu, h in height.items()):
        if h == 0:
            mult_dom[mu] = 1
            continue
        mu_rho = wadd(mu, cartan.rho)
        acc = 0
        for alpha, f_alpha in form_roots:
            nu = mu
            while True:
                nu = wadd(nu, alpha)
                m = mult_dom.get(_dominant(cartan, nu))
                if m is None:
                    break
                acc += m * sum(x * y for x, y in zip(nu, f_alpha))
        val, rem = divmod(2 * acc, c_top - pairing(mu_rho, mu_rho))
        assert rem == 0 and val > 0
        mult_dom[mu] = val

    entries = {}
    for mu, m in mult_dom.items():
        for nu in cartan.orbit(mu):
            entries[nu] = m
    assert sum(entries.values()) == _weyl_dim(cartan, lam)
    return WeightMultiset(top=lam, entries=entries)


def _dominant(cartan, v):
    """Dominant representative, no coset bookkeeping (internal fast path)."""
    y = v
    while not cartan.is_dominant(y):
        i = next(k for k in range(cartan.rank) if y[k] < 0)
        y = cartan.reflect(y, i)
    return y


@lru_cache(maxsize=None)
def _module_table(cartan, lam):
    """The one table of V(lambda), lambda an int tuple: (weights, exponents,
    multiplicities), one row per weight gamma in sorted order, gamma an int
    tuple, its exponent alpha(lambda - gamma) an int row and its multiplicity a
    float.  S_{lambda,mu} adds alpha(mu - lambda) to every exponent row.  No
    dimension-cap check: callers pass lambda through check_weight with the cap."""
    import numpy as np

    rows = sorted(_weight_multiplicities(cartan, lam).entries.items())
    weights = tuple(gamma for gamma, _ in rows)
    exps = [cartan.int_alpha_coords(wsub(lam, gamma)) for gamma in weights]
    assert all(k is not None and min(k) >= 0 for k in exps)
    return weights, np.array(exps, dtype=np.int64), np.array([m for _, m in rows], dtype=float)


def monomial(t, exponents) -> float:
    """prod t_i**k_i with the 0**0 = 1 convention."""
    out = 1.0
    for ti, ki in zip(t, exponents):
        kf = float(ki)
        if kf == 0.0:
            continue
        out *= float(ti) ** kf
    return out


def order_exponent(cartan: CartanDatum, top, mu):
    """alpha(mu - top) as ints, the exponent S_{top,mu} adds to every term;
    OrderViolation unless mu >= top in the root order."""
    shift = cartan.int_alpha_coords(tuple(m - c for m, c in zip(mu, top)))
    if shift is None or any(k < 0 for k in shift):
        raise OrderViolation(
            f"{format_weight(mu)} is not >= {format_weight(top)} in the root order")
    return shift


def evaluate_S(cartan: CartanDatum, lam, mu, t) -> float:
    """S_{lambda,mu}(t) = sum_gamma K_{lambda,gamma} t^(mu - gamma).

    Requires mu - lambda in Q+ (OrderViolation otherwise); the gamma = lambda
    term contributes t^(mu-lambda), so the value equals dim V(lambda) at t = 1
    and is 1 at mu = lambda, t = 0 under the 0**0 = 1 convention.  Raises
    DimensionCap before building the table of a module over DEFAULT_DIM_CAP.
    """
    import numpy as np

    top = check_weight(cartan, lam, DEFAULT_DIM_CAP)
    shift = order_exponent(cartan, top, mu)
    _, exps, mults = _module_table(cartan, top)
    tv = np.asarray([float(x) for x in t], dtype=float)
    return float(np.dot(mults, np.prod(tv ** (exps + shift), axis=1)))


def free_exponent(cartan: CartanDatum, delta, w: WeylElement, n: int, gamma):
    """alpha(n delta - w gamma) as ints, the exponent of psi(t,w)(e^gamma, n),
    for int tuples delta and gamma; None when it is off the root lattice."""
    wg = cartan.apply(w, gamma)
    return cartan.int_alpha_coords(tuple(n * d - x for d, x in zip(delta, wg)))


# -- decomposition into irreducibles -----------------------------------------


def decompose_character(cartan: CartanDatum, entries: dict) -> dict:
    """Decompose a W-invariant weight multiset into irreducible characters.

    Pivot order: dominant support weight of maximal root-lattice height, ties
    broken omega-lex largest; this refines the dominance order, so the pivot is
    always a highest weight and multiplicities stay nonnegative (asserted).
    """
    work = {k: v for k, v in entries.items() if v}
    out = {}
    while work:
        cands = [nu for nu in work if cartan.is_dominant(nu)]
        assert cands, f"nonempty multiset without dominant support: {work}"
        nu = check_weight(cartan, max(cands, key=lambda x: (sum(cartan.alpha_coords(x)), x)))
        m = work[nu]
        assert m > 0
        out[nu] = out.get(nu, 0) + m
        for gamma, k in _weight_multiplicities(cartan, nu).entries.items():
            r = work.get(gamma, 0) - m * k
            assert r >= 0, f"peeling produced negative multiplicity at {gamma}"
            if r:
                work[gamma] = r
            else:
                work.pop(gamma, None)
    return out


def convolve_multisets(a: dict, b: dict) -> dict:
    out = {}
    for ga, ma in a.items():
        for gb, mb in b.items():
            g = wadd(ga, gb)
            out[g] = out.get(g, 0) + ma * mb
    return out


def tensor_decompose(cartan: CartanDatum, lam, delta, dim_cap: int = DEFAULT_DIM_CAP) -> dict:
    """Multiplicities of the irreducibles of V(lambda) (x) V(delta).

    Independent character oracle: convolve the two weight multisets, then peel
    highest weights.  sum_nu mult(nu) dim V(nu) = dim V(lambda) dim V(delta).
    """
    lam = check_weight(cartan, lam)
    delta = check_weight(cartan, delta)
    if _weyl_dim(cartan, lam) * _weyl_dim(cartan, delta) > dim_cap:
        raise DimensionCap("tensor product dimension exceeds cap")
    prod = convolve_multisets(
        weight_multiplicities(cartan, lam, dim_cap).entries,
        weight_multiplicities(cartan, delta, dim_cap).entries,
    )
    return decompose_character(cartan, prod)


def exterior_power_weights(cartan: CartanDatum, delta, k: int) -> dict:
    """Weight multiset of the k-th exterior power of V(delta).

    Degree-k coefficient of prod_j (1 + x e^(gamma_j)) over the weight multiset
    of V(delta), i.e. all k-subset sums counted with multiplicity.
    """
    delta = check_weight(cartan, delta)
    if not 0 <= k <= _weyl_dim(cartan, delta):
        raise ValueError(f"k={k} out of range 0..{_weyl_dim(cartan, delta)}")
    return _exterior_power_weights(cartan, delta, int(k))


@lru_cache(maxsize=None)
def _exterior_power_weights(cartan, delta, k):
    letters = []
    for gamma, m in sorted(_weight_multiplicities(cartan, delta).entries.items()):
        letters.extend([gamma] * m)
    layers = [{} for _ in range(k + 1)]
    layers[0][(0,) * cartan.rank] = 1
    for gamma in letters:
        for deg in range(k, 0, -1):
            for g, m in layers[deg - 1].items():
                s = wadd(g, gamma)
                layers[deg][s] = layers[deg].get(s, 0) + m
    return layers[k]


def exterior_power_char(cartan: CartanDatum, delta, k: int) -> dict:
    """Irreducible decomposition of the k-th exterior power character.

    All coefficients are nonnegative integers (the wedge is a submodule of the
    k-th tensor power); the peeling asserts this.
    """
    return decompose_character(cartan, exterior_power_weights(cartan, delta, k))


# -- total positivity ---------------------------------------------------------


def wedge_sequence_values(cartan: CartanDatum, delta, t, w: WeylElement) -> list:
    """a_k = value of the k-th exterior-power character under the morphism (t, w).

    a_k = sum_gamma mult(gamma) t^(k delta - w gamma) / S_delta(t)^k for
    k = 0..dim V(delta); each a_k is nonnegative.
    """
    delta = check_weight(cartan, delta)
    n = _weyl_dim(cartan, delta)
    s_delta = evaluate_S(cartan, delta, delta, t)
    tv = [float(x) for x in t]
    out = []
    for k in range(n + 1):
        acc = 0.0
        for gamma, m in exterior_power_weights(cartan, delta, k).items():
            e = free_exponent(cartan, delta, w, k, gamma)
            assert min(e) >= 0
            acc += m * monomial(tv, e)
        out.append(acc / s_delta**k)
    return out


def toeplitz_min_minor(seq, kmax: int, chunk: int = 200000) -> float:
    """Minimum over the k x k minors, k <= kmax, of the lower-triangular Toeplitz
    matrix of seq, truncated to the window [0, len(seq) + kmax).

    Row/column index sets are enumerated over the window; determinants are
    batched through numpy in chunks to bound memory.
    """
    import numpy as np

    n = len(seq)
    size = n + kmax
    a = np.zeros(size, dtype=float)
    a[:n] = seq
    idx = np.subtract.outer(np.arange(size), np.arange(size))
    mat = np.where(idx >= 0, a[np.clip(idx, 0, size - 1)], 0.0)
    best = float(np.min(mat))
    for k in range(2, kmax + 1):
        combos = np.array(list(itertools.combinations(range(size), k)))
        nc = len(combos)
        rows_per_batch = max(1, chunk // (nc * k * k))
        for start in range(0, nc, rows_per_batch):
            rows = combos[start:start + rows_per_batch]
            sub = mat[rows[:, None, :, None], combos[None, :, None, :]]
            dets = np.linalg.det(sub.reshape(-1, k, k))
            best = min(best, float(np.min(dets)))
    return best


def total_positivity_min_minor(cartan: CartanDatum, delta, t, w: WeylElement, kmax: int) -> float:
    """Minimum Toeplitz minor of the wedge-character sequence at (t, w).

    The sequence comes from a polynomial whose roots are the nonpositive reals
    -f(e^gamma, 1), so every minor is >= 0 up to roundoff.
    """
    if kmax > 4:
        raise ValueError("kmax is capped at 4")
    seq = wedge_sequence_values(cartan, delta, t, w)
    return toeplitz_min_minor(seq, kmax)


# -- Weyl-formula evaluation (large weights, any t in [0,1]^d) ----------------

ROW_TOL = 1e-12  # a chamber kernel row sums to 1 within this bound


@lru_cache(maxsize=None)
def _coset_pack(cartan, ones):
    """The minimal coset representatives u of W_I\\W, I = ones, in enumeration
    order (all of W for I = ()), int tables (for weights x, x @ images holds every
    u(x) and x @ lifts every x - u(x) in root coordinates), dets, int coroots of
    Phi_I^+ (<v, alpha^vee> = row . v) and the guard."""
    import numpy as np

    reps = tuple(dict.fromkeys(minimal_coset_rep(cartan, w, ones)
                               for w in cartan.elements))
    units = [tuple(int(i == j) for j in range(cartan.rank)) for i in range(cartan.rank)]
    images = np.array([[cartan.apply(u, e) for u in reps] for e in units], dtype=np.int64)
    lifts = np.array([[cartan.int_alpha_coords(wsub(e, cartan.apply(u, e))) for u in reps]
                      for e in units], dtype=np.int64)
    dets = np.array([float(cartan.det(u)) for u in reps])
    coroots = tuple(
        tuple(int(2 * cartan.pairing(e, a) / cartan.pairing(a, a)) for e in units)
        for a in cartan.positive_roots
        if all(c == 0 for k, c in enumerate(cartan.alpha_coords(a)) if k not in ones))
    guard = len(reps) * 2.0**-53 / (ROW_TOL / 4)
    return (reps, images.reshape(cartan.rank, -1), lifts.reshape(cartan.rank, -1),
            dets, coroots, guard)


def _exact_numerator(cartan, reps, coroots, lam, t) -> float:
    """The same coset sum in integers, rounded once: t_i = p_i/q_i with q_i a
    power of two, so the sum is an integer over prod q_i^M_i."""
    mu = tuple(c + 1 for c in lam)  # lam + rho
    terms = []
    for u in reps:
        image = cartan.apply(u, mu)
        coef = cartan.det(u) * math.prod(sum(c * x for c, x in zip(row, image))
                                         for row in coroots)
        terms.append((coef, cartan.int_alpha_coords(wsub(mu, image))))
    ratios = [float(x).as_integer_ratio() for x in t]
    top = [max(e[i] for _, e in terms) for i in range(cartan.rank)]
    total = sum(coef * math.prod(p**k * q**(m - k) for (p, q), k, m in zip(ratios, e, top))
                for coef, e in terms)
    return total / math.prod(q**m for (_, q), m in zip(ratios, top))


def weyl_numerator_batch(cartan: CartanDatum, lams, t):
    """N_lambda(t) for a stack of weights at one t in [0,1]^d, as a float array.

    With I = {i : t_i = 1}, N_lambda(t) sums det(u) t^((lam+rho) - u(lam+rho))
    prod_{alpha in Phi_I^+} <u(lam+rho), alpha^vee> over the minimal coset
    representatives u of W_I\\W (parabolic Weyl character formula, Fulton-Harris
    24; the Weyl numerator for I = ()): S_{lam,lam}(t) = N_lambda(t)/N_0(t) on the
    whole box, at |W/W_I| terms whatever dim V(lambda), exponents in simple-root
    coordinates, 0**0 = 1.  A weight whose float sum cancels, kappa = sum|terms| /
    |sum| with the rounding bound kappa |W/W_I| 2^-53 over ROW_TOL / 4, is summed exactly.
    """
    import numpy as np

    t = [float(x) for x in t]
    ones = tuple(i for i, x in enumerate(t) if x == 1.0)
    zeros = [i for i, x in enumerate(t) if x == 0.0]
    reps, images, lifts, dets, coroots, guard = _coset_pack(cartan, ones)
    x = np.fromiter(itertools.chain.from_iterable(lams), np.int64).reshape(-1, cartan.rank)
    x += 1  # lam + rho
    exps = (x @ lifts).reshape(len(lams), len(reps), cartan.rank)
    # row-wise reductions, not matmuls: a weight's value does not depend on its batch
    terms = np.exp((exps * np.log([ti if ti else 1.0 for ti in t])).sum(axis=2))
    if zeros:
        terms[(exps[:, :, zeros] > 0).any(axis=2)] = 0.0
    if ones:
        pairings = (x @ images).reshape(len(lams), len(reps), cartan.rank) @ np.array(coroots).T
        terms *= np.prod(pairings.astype(float), axis=2)
    nums = (terms * dets).sum(axis=1)
    # terms are >= 0 before det(u) = +-1: guard sum(terms) / nums is the bound over ROW_TOL / 4
    for k, kept in enumerate((nums >= guard * terms.sum(axis=1)).tolist()):
        if not kept:
            nums[k] = _exact_numerator(cartan, reps, coroots, lams[k], t)
    return nums
