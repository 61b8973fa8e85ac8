"""Characters as weight multisets: Freudenthal multiplicities, Weyl dimensions,
evaluation of the character S_delta(t), tensor and exterior-power
decompositions, and the Toeplitz-minor total-positivity check.

The combinatorial layer (multiplicities, decompositions, the one table of a
module, _module_table) is exact integer arithmetic; evaluations at a parameter
vector t in [0,1]^d are binary64 with the convention 0**0 = 1, so boundary
parameters are safe.  Weyl numerators (weyl_numerator_batch) read one int
table of terms per weight, an alternating sum over the minimal coset
representatives of W_I\\W (by the sign test: the u with u(rho)_i > 0 for i in
I): exponent rows, signs and coroot pairings.  The table is summed in
binary64, or, when that sum cancels, in integers and rounded once; the
per-point part of that work is one NumeratorPack.  numpy is imported inside
the float evaluators only (evaluate_S, the Toeplitz minors, _coset_pack,
NumeratorPack, weyl_numerator_batch), which build their arrays from the int
tables, so the exact layers and the CLI subcommands built on them start
without it.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import DEFAULT_DIM_CAP, DimensionCap, InvalidWeight, format_weight
from .rootdata import CartanDatum, WeylElement, check_rank, int_weight, wadd, wsub


@dataclass(frozen=True)
class WeightMultiset:
    """A character: sparse map weight -> multiplicity, with its highest weight."""

    top: tuple
    entries: dict


def check_weight(cartan, lam, dim_cap=None):
    """lam as an int tuple; InvalidWeight unless it is a dominant integral
    weight of the right rank, DimensionCap when dim V(lambda) exceeds dim_cap."""
    top = int_weight(lam)
    check_rank(cartan, lam)
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
                m = mult_dom.get(cartan.descend(nu)[0])
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


@lru_cache(maxsize=None)
def _module_table(cartan, lam):
    """The one table of V(lambda), lambda an int tuple: (weights, exponents,
    multiplicities), one row per weight gamma in sorted order, gamma an int
    tuple, its exponent alpha(lambda - gamma) an int tuple and its multiplicity
    an int.  No dimension-cap check: callers pass lambda through check_weight
    with the cap."""
    rows = sorted(_weight_multiplicities(cartan, lam).entries.items())
    weights = tuple(gamma for gamma, _ in rows)
    exps = tuple(cartan.int_alpha_coords(wsub(lam, gamma)) for gamma in weights)
    assert all(k is not None and min(k) >= 0 for k in exps)
    return weights, exps, tuple(m for _, m in rows)


@lru_cache(maxsize=None)
def _table_arrays(cartan, lam):
    """evaluate_S's arrays of _module_table(cartan, lam): int64 exponent rows
    and float multiplicities."""
    import numpy as np

    _, exps, mults = _module_table(cartan, lam)
    return np.array(exps, dtype=np.int64), np.array(mults, dtype=float)


def monomial(t, exponents) -> float:
    """prod t_i**k_i with the 0**0 = 1 convention."""
    out = 1.0
    for ti, ki in zip(t, exponents):
        kf = float(ki)
        if kf == 0.0:
            continue
        out *= float(ti) ** kf
    return out


def evaluate_S(cartan: CartanDatum, delta, t) -> float:
    """S_delta(t) = sum_gamma K_{delta,gamma} t^(delta - gamma).

    The value is dim V(delta) at t = 1 and 1 at t = 0 under the 0**0 = 1
    convention.  Raises DimensionCap before building the table of a module
    over DEFAULT_DIM_CAP.
    """
    import numpy as np

    exps, mults = _table_arrays(cartan, check_weight(cartan, delta, DEFAULT_DIM_CAP))
    tv = np.asarray([float(x) for x in t], dtype=float)
    return float(np.dot(mults, np.prod(tv ** exps, axis=1)))


@lru_cache(maxsize=None)
def _exponent_rows(cartan, delta, matrix):
    """Pairs (den alpha_i(delta), row i of den C^-1 w) for the Weyl element w
    with this matrix, den = cartan._alpha_den: row i . gamma is den alpha_i(w gamma)."""
    return tuple((sum(map(operator.mul, row, delta)),
                  tuple(sum(map(operator.mul, row, col)) for col in zip(*matrix)))
                 for row in cartan._omega_to_alpha_int)


def free_exponent(cartan: CartanDatum, delta, w: WeylElement, n: int, gamma):
    """alpha(n delta - w gamma) as ints for int tuples delta and gamma; None when
    it is off the root lattice.  The one exponent map of the package: psi(t,w)
    (e^gamma, n) and the wedge sequence read it, and with w = identity it is
    the exponent alpha(n delta - lambda) of chamber p.  One divmod per
    coordinate, on int rows cached per (cartan, delta, w)."""
    den = cartan._alpha_den
    out = []
    for d, w_row in _exponent_rows(cartan, delta, w.matrix):
        q, r = divmod(n * d - sum(map(operator.mul, w_row, gamma)), den)
        if r:
            return None
        out.append(q)
    return tuple(out)


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

MINOR_CHUNK = 200000  # matrix entries per numpy batch of Toeplitz minors


def wedge_sequence_values(cartan: CartanDatum, delta, t, w: WeylElement) -> list:
    """a_k = value of the k-th exterior-power character under the morphism (t, w).

    a_k = sum_gamma mult(gamma) t^(k delta - w gamma) / S_delta(t)^k for
    k = 0..dim V(delta); each a_k is nonnegative.
    """
    delta = check_weight(cartan, delta)
    n = _weyl_dim(cartan, delta)
    s_delta = evaluate_S(cartan, delta, t)
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


def toeplitz_min_minor(seq, kmax: int) -> float:
    """Minimum over the k x k minors, k <= kmax, of the lower-triangular Toeplitz
    matrix of seq, truncated to the window [0, len(seq) + kmax).

    Row/column index sets are enumerated over the window; determinants are
    batched through numpy, about MINOR_CHUNK matrix entries at a time, to bound
    memory.
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
        rows_per_batch = max(1, MINOR_CHUNK // (nc * k * k))
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
    """Int tables of the minimal coset representatives u of W_I\\W, I = ones, in
    enumeration order (all of W for I = ()): for weights x, x @ images holds every
    u(x) and x @ lifts every x - u(x) in root coordinates; with them the dets, the
    int coroots of Phi_I^+ (<v, alpha^vee> = row . v), the guard and the largest
    |coordinate| of lambda for which lambda + rho keeps those products in int64."""
    import numpy as np

    # u is minimal in W_I u iff <u(rho), alpha_i^vee> > 0 for i in I
    reps = [u for u in cartan.elements if all(cartan.apply(u, cartan.rho)[i] > 0 for i in ones)]
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
    images, lifts = images.reshape(cartan.rank, -1), lifts.reshape(cartan.rank, -1)
    # |x @ lifts| <= max|x| * largest column sum, and likewise the pairings
    scale = np.abs(lifts).sum(axis=0).max(initial=1)
    if coroots:
        scale = max(scale, np.abs(images).sum(axis=0).max() * np.abs(coroots).sum(axis=1).max())
    return images, lifts, dets, coroots, guard, (2**63 - 1) // int(scale) - 1


def _exact_sum(coefs, exps, t) -> float:
    """sum_u coefs[u] t^exps[u] for int coefficients and int exponent rows, rounded
    once: t_i = p_i/q_i with q_i a power of two, so the sum is an integer over
    prod q_i^M_i, M_i the largest exponent of t_i, and each p_i^k q_i^(M_i-k) is
    formed once per (i, k)."""
    ratios = [x.as_integer_ratio() for x in t]
    cols = list(zip(*exps))
    top = [max(col) for col in cols]
    powers = [{k: p**k * q**(m - k) for k in set(col)}
              for (p, q), m, col in zip(ratios, top, cols)]
    total = sum(c * math.prod(pw[k] for pw, k in zip(powers, e)) for c, e in zip(coefs, exps))
    return total / math.prod(q**m for (_, q), m in zip(ratios, top))


class NumeratorPack:
    """The per-point part of weyl_numerator_batch at one t in [0,1]^d, built
    once per point and read by every batch there: t as floats, I = {i : t_i = 1}
    and the zero coordinates, _coset_pack(cartan, I), log t_i (0 for t_i = 0,
    whose terms are zeroed), the transposed coroot matrix of Phi_I^+, and deep,
    the least nu_i past which N_nu(t) is exactly 1.0 (None when some t_i = 1).

    deep: for u != id, (nu+rho) - u(nu+rho) >= (nu_i+1) alpha_i for some simple
    i, because s_i <= u in the Bruhat order (Humphreys, Reflection Groups and
    Coxeter Groups, 5.9-5.10).  With I = () the identity term is exp(0) = 1.0
    and the other |W| - 1 terms add up to at most (|W| - 1) max_i t_i^(nu_i+1).
    deep_i is the least nu_i with (|W| - 1) t_i^(nu_i+1) < 2^-55 (0 where
    t_i = 0).  The factor 2 below 2^-54 covers the rounding of that test and of
    the float terms (relative errors near 1e-12), so every partial sum of the
    other terms in numpy's pairwise sum stays below 2^-54 in magnitude, and
    1.0 plus such a sum rounds to 1.0 (ties to even at 1 - 2^-54).  The guard
    |W| 2^-53 / (ROW_TOL/4) is at most 0.52 up to rank 4, so the sum is kept:
    a weight nu with deep_i <= nu_i <= limit for every i has the numerator 1.0.
    """

    def __init__(self, cartan: CartanDatum, t):
        import numpy as np

        self.cartan = cartan
        self.t = [float(x) for x in t]
        self.ones = tuple(i for i, x in enumerate(self.t) if x == 1.0)
        self.zeros = [i for i, x in enumerate(self.t) if x == 0.0]
        self.images, self.lifts, self.dets, coroots, self.guard, self.limit = \
            _coset_pack(cartan, self.ones)
        self.coroots = np.array(coroots).T if self.ones else None
        self.log_t = np.log([ti if ti else 1.0 for ti in self.t])
        if self.ones:
            self.deep = None
        else:
            bound = math.log(2.0**-55 / (len(self.dets) - 1))
            self.deep = tuple(math.floor(bound / math.log(ti)) if ti else 0 for ti in self.t)


def weyl_numerator_batch(pack: NumeratorPack, lams):
    """N_lambda(t) for a stack of weights at the pack's t in [0,1]^d, as a float
    array.

    With I = {i : t_i = 1}, N_lambda(t) sums det(u) t^((lam+rho) - u(lam+rho))
    prod_{alpha in Phi_I^+} <u(lam+rho), alpha^vee> over the minimal coset
    representatives u of W_I\\W (parabolic Weyl character formula, Fulton-Harris
    24; the Weyl numerator for I = ()): S_{lam,lam}(t) = N_lambda(t)/N_0(t) on the
    whole box, at |W/W_I| terms whatever dim V(lambda), 0**0 = 1.  Each weight's
    terms form one int table: exponent rows in simple-root coordinates, signs
    det(u) and coroot pairings.  The table is summed in binary64; a weight whose
    float sum cancels, kappa = sum|terms| / |sum| with the rounding bound
    kappa |W/W_I| 2^-53 over ROW_TOL / 4, has the same table summed in integers
    and rounded once (_exact_sum).  A weight with a coordinate past the pack's
    int64 limit, or whose pairing product overflows binary64 (F4 at t = 1 near
    lambda = 10^14), is an InvalidWeight.  Past NumeratorPack.deep the value is
    exactly 1.0.
    """
    import numpy as np

    cartan, limit, dets = pack.cartan, pack.limit, pack.dets
    flat = list(itertools.chain.from_iterable(lams))
    if flat and not -limit <= min(flat) <= max(flat) <= limit:
        big = max(lams, key=lambda lam: max(map(abs, lam)))
        raise InvalidWeight(f"the Weyl numerator of {format_weight(big)} overflows int64 "
                            f"(coordinates at most {limit} in absolute value)")
    x = np.array(flat, dtype=np.int64).reshape(-1, cartan.rank)
    x += 1  # lam + rho
    exps = (x @ pack.lifts).reshape(len(lams), len(dets), cartan.rank)
    # row-wise sums, not matmuls: a weight's value does not depend on its batch.  Each
    # exponent adds its rank (<= 4) products left to right, as numpy's reduction of
    # fewer than 8 terms does from 0.0, which can change only the sign of a zero sum
    logs = exps * pack.log_t
    exponent = logs[..., 0]
    for i in range(1, cartan.rank):
        exponent = exponent + logs[..., i]
    terms = np.exp(exponent)
    if pack.zeros:
        terms[(exps[:, :, pack.zeros] > 0).any(axis=2)] = 0.0
    if pack.ones:
        pairings = (x @ pack.images).reshape(len(lams), len(dets), cartan.rank) @ pack.coroots
        # inside the int64 limit the binary64 product can still overflow: F4 at t = 1
        # multiplies 24 pairings, and past about 2^43 each that passes the float range
        with np.errstate(over="ignore"):
            products = np.prod(pairings.astype(float), axis=2)
        finite = np.isfinite(products).all(axis=1)
        if not finite.all():
            big = lams[int(finite.argmin())]
            raise InvalidWeight(f"the Weyl numerator of {format_weight(big)} overflows binary64 "
                                f"(its coroot pairings multiply past the float range)")
        terms *= products
    nums = (terms * dets).sum(axis=1)
    # terms are >= 0 before det(u) = +-1: guard sum(terms) / nums is the bound over ROW_TOL / 4
    for k, kept in enumerate((nums >= pack.guard * terms.sum(axis=1)).tolist()):
        if not kept:
            rows = pairings[k].tolist() if pack.ones else [()] * len(dets)
            coefs = [int(d) * math.prod(r) for d, r in zip(dets.tolist(), rows)]
            nums[k] = _exact_sum(coefs, exps[k].tolist(), pack.t)
    return nums
