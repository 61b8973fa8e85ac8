"""Exact root-system, weight-lattice and Weyl-group arithmetic for simple types.

Weights are tuples in the fundamental-weight basis, so the pairing with the
i-th simple coroot is just coordinate i.  Integral weights (roots, rho, the
weights of a module, lattice points of a walk) are tuples of ints; Fractions
are kept for rational points (path breakpoints, drifts, polytope location).
Weyl-group elements act by integer matrices on these coordinates.  |W| comes
from the heights of the positive roots, and the whole group is enumerated on
first use (desk scale: rank <= 4, |W| <= 2000).  W acts freely on the orbit
of the regular weight rho, so w(rho) names w: a word, a product or a coset
representative is one reflection loop or descent on rho and one dict lookup.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache, reduce

from .errors import InvalidWeight, UnsupportedType, format_weight

#: A weight: tuple of ints or Fractions, fundamental-weight (omega) coordinates.
Weight = tuple

WEYL_ORDER_CAP = 2000

# (Weyl order, number of positive roots) for the supported simple types.
_CLASSICAL = {
    ("A", 1): (2, 1),
    ("A", 2): (6, 3),
    ("A", 3): (24, 6),
    ("A", 4): (120, 10),
    ("B", 2): (8, 4),
    ("B", 3): (48, 9),
    ("B", 4): (384, 16),
    ("C", 3): (48, 9),
    ("C", 4): (384, 16),
    ("D", 4): (192, 12),
    ("G", 2): (12, 6),
    ("F", 4): (1152, 24),
}


def weight(coords) -> Weight:
    """Coerce an iterable of numbers into an exact weight tuple."""
    return tuple(Fraction(c) for c in coords)


def int_weight(coords):
    """coords as a tuple of ints, or None when one of them is not an integer."""
    out = []
    for x in coords:
        if not isinstance(x, int):
            if not isinstance(x, Fraction):
                x = Fraction(x)
            if x.denominator != 1:
                return None
            x = x.numerator
        out.append(x)
    return tuple(out)


def check_rank(cartan, lam):
    """InvalidWeight unless lam has one coordinate per simple root."""
    if len(lam) != cartan.rank:
        raise InvalidWeight(f"weight {format_weight(lam)} has wrong rank")


def wadd(a: Weight, b: Weight) -> Weight:
    return tuple(x + y for x, y in zip(a, b))


def wsub(a: Weight, b: Weight) -> Weight:
    return tuple(x - y for x, y in zip(a, b))


def wscale(c, a: Weight) -> Weight:
    c = Fraction(c)
    return tuple(c * x for x in a)


def wzero(rank: int) -> Weight:
    return (Fraction(0),) * rank


@dataclass(frozen=True)
class WeylElement:
    """A Weyl-group element: integer matrix on omega-coordinates + one reduced word.

    Equality and hashing use the matrix only; the word is a canonical reduced
    expression fixed by the enumeration order.
    """

    matrix: tuple
    word: tuple = field(compare=False)

    @property
    def length(self) -> int:
        return len(self.word)


def _mat_apply(matrix, v):
    return tuple(sum(map(operator.mul, row, v)) for row in matrix)


def _identity_matrix(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def _cartan_matrix(family: str, rank: int):
    """Cartan matrix with the convention A[i][j] = 2(alpha_i, alpha_j)/(alpha_j, alpha_j).

    Short roots have squared length 2; row i gives alpha_i in omega-coordinates.
    """
    a = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]

    def chain(lo, hi):
        for i in range(lo, hi):
            a[i][i + 1] = -1
            a[i + 1][i] = -1

    if family == "A":
        chain(0, rank - 1)
    elif family == "B":
        # alpha_1..alpha_{d-1} long, alpha_d short
        chain(0, rank - 2)
        a[rank - 2][rank - 1] = -2
        a[rank - 1][rank - 2] = -1
    elif family == "C":
        # alpha_1..alpha_{d-1} short, alpha_d long
        chain(0, rank - 2)
        a[rank - 2][rank - 1] = -1
        a[rank - 1][rank - 2] = -2
    elif family == "D":
        chain(0, rank - 2)
        a[rank - 2][rank - 1] = 0
        a[rank - 1][rank - 2] = 0
        a[rank - 3][rank - 1] = -1
        a[rank - 1][rank - 3] = -1
    elif family == "G":
        a[0][1] = -1
        a[1][0] = -3
    elif family == "F":
        a[0][1] = a[1][0] = -1
        a[1][2] = -2
        a[2][1] = -1
        a[2][3] = a[3][2] = -1
    return tuple(tuple(row) for row in a)


def _pivot(rows, r, col):
    """Scale row r of a Fraction matrix to 1 at col and clear col from every
    other row, in place."""
    lead = rows[r] = [x / rows[r][col] for x in rows[r]]
    for i, row in enumerate(rows):
        if i != r and row[col] != 0:
            f = row[col]
            rows[i] = [x - f * y for x, y in zip(row, lead)]


def _row_reduce(rows):
    """(rows, pivots): the reduced row echelon form of `rows` over Fractions
    and its pivot columns, so len(pivots) is the rank."""
    rows = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for col in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if piv is not None:
            rows[r], rows[piv] = rows[piv], rows[r]
            _pivot(rows, r, col)
            pivots.append(col)
    return rows, pivots


class CartanDatum:
    """Root datum of a simple Lie algebra and its Weyl group.

    weyl_order is prod (ht alpha + 1) / ht alpha over the positive roots
    (Kostant's height partition; Humphreys, Reflection Groups and Coxeter
    Groups, ch. 3); the elements are enumerated on first use.  Immutable once
    built; hashing is by identity, and :func:`build_root_system` caches one
    instance per (family, rank).
    """

    def __init__(self, family: str, rank: int):
        self.family = family
        self.rank = rank
        self.cartan = _cartan_matrix(family, rank)
        # (alpha_j, alpha_j) = A_ji (alpha_i, alpha_i) / A_ij along the Dynkin edges
        lengths, frontier = {0: Fraction(1)}, [0]
        while frontier:
            i = frontier.pop()
            for j, a_ij in enumerate(self.cartan[i]):
                if a_ij != 0 and j not in lengths:
                    lengths[j] = self.cartan[j][i] * lengths[i] / a_ij
                    frontier.append(j)
        if len(lengths) < rank:
            raise UnsupportedType(f"the Dynkin diagram of {family}{rank} is not connected")
        # d_i = 2/(alpha_i,alpha_i), short roots of squared length 2, makes
        # diag(d) . cartan symmetric
        short = min(lengths.values())
        self.symmetrizer = tuple(short / lengths[i] for i in range(rank))
        # alpha_i in omega-coordinates is row i of the Cartan matrix
        self.alpha = self.cartan
        # C = omega->alpha is the inverse of the transposed Cartan matrix
        identity = _identity_matrix(rank)
        rows, pivots = _row_reduce([col + e for col, e in zip(zip(*self.cartan), identity)])
        assert pivots == list(range(rank))
        self._omega_to_alpha = tuple(tuple(row[rank:]) for row in rows)
        # den * C^-1 as ints: integer root coordinates by exact division
        self._alpha_den = math.lcm(*(x.denominator for row in self._omega_to_alpha
                                     for x in row))
        self._omega_to_alpha_int = tuple(tuple(int(x * self._alpha_den) for x in row)
                                         for row in self._omega_to_alpha)
        # form on omega-coordinates: (omega_i, omega_j) = C_ij / d_i, as
        # (omega_i, alpha_j^vee) = delta_ij and alpha_j^vee = d_j alpha_j
        self._omega_form = tuple(tuple(x / d for x in row)
                                 for row, d in zip(self._omega_to_alpha, self.symmetrizer))
        assert all(self._omega_form[i][j] == self._omega_form[j][i]
                   for i in range(rank) for j in range(rank))
        self.positive_roots = self._generate_positive_roots()
        self.rho = (1,) * rank
        half_sum = wscale(Fraction(1, 2), reduce(wadd, self.positive_roots))
        assert half_sum == self.rho
        heights = [sum(self.int_alpha_coords(a)) for a in self.positive_roots]
        self.weyl_order, rem = divmod(math.prod(h + 1 for h in heights), math.prod(heights))
        assert rem == 0
        if self.weyl_order > WEYL_ORDER_CAP:
            raise UnsupportedType(f"Weyl group of {family}{rank} exceeds the "
                                  f"order cap {WEYL_ORDER_CAP}")
        self.identity = WeylElement(identity, ())
        # reduced word of the longest element: s_{i_k} ... s_{i_1} takes -rho to rho
        self.w0_word = tuple(reversed(self.descend((-1,) * rank)[1]))
        assert len(self.w0_word) == len(self.positive_roots)

    # -- basic linear algebra on weights --------------------------------

    def reflect(self, v: Weight, i: int) -> Weight:
        """s_i(v); int coordinates stay ints."""
        ci, row = v[i], self.cartan[i]
        return tuple(v[k] - ci * row[k] for k in range(self.rank))

    def apply(self, w: WeylElement, v: Weight) -> Weight:
        return _mat_apply(w.matrix, v)

    def pairing(self, v: Weight, u: Weight) -> Fraction:
        """Invariant bilinear form, short roots of squared length 2."""
        m = self._omega_form
        return sum(v[i] * sum(m[i][j] * u[j] for j in range(self.rank))
                   for i in range(self.rank))

    def alpha_coords(self, v: Weight) -> Weight:
        """Coordinates of v on the simple-root basis."""
        c = self._omega_to_alpha
        return tuple(sum(c[i][j] * v[j] for j in range(self.rank))
                     for i in range(self.rank))

    def int_alpha_coords(self, v):
        """Simple-root coordinates of v as ints, or None when v is not in the
        root lattice (a non-integral v never is)."""
        ints = int_weight(v)
        if ints is None:
            return None
        out = []
        for row in self._omega_to_alpha_int:
            q, r = divmod(sum(a * x for a, x in zip(row, ints)), self._alpha_den)
            if r:
                return None
            out.append(q)
        return tuple(out)

    def from_alpha(self, coords) -> Weight:
        """Weight with the given simple-root coordinates, in omega-coordinates."""
        coords = [Fraction(x) for x in coords]
        return tuple(sum(coords[i] * self.alpha[i][j] for i in range(self.rank))
                     for j in range(self.rank))

    def is_dominant(self, v: Weight) -> bool:
        return all(x >= 0 for x in v)

    def descend(self, v: Weight, walls=None):
        """(y, applied): y reached from v by reflecting at the first of `walls`
        (all simple roots by default) where the coordinate is negative, until
        none is, so y is dominant for those walls; applied lists the reflections
        in order, so s_{applied[-1]} ... s_{applied[0]} takes v to y."""
        walls = range(self.rank) if walls is None else tuple(walls)
        applied = []
        while (i := next((k for k in walls if v[k] < 0), None)) is not None:
            v = self.reflect(v, i)
            applied.append(i)
        return v, applied

    # -- construction helpers -------------------------------------------

    def _generate_positive_roots(self):
        # every root is a W-image of a simple root
        roots = set().union(*map(self.orbit, self.alpha))
        pos = [r for r in roots if all(c >= 0 for c in self.int_alpha_coords(r))]
        assert 2 * len(pos) == len(roots)
        return tuple(sorted(pos))

    @cached_property
    def elements(self) -> tuple:
        """W by increasing length, each element with its canonical reduced word."""
        # s_i = 1 - alpha_i e_i^T, so w s_i is a rank-one update of w: no matrix products
        positive = set(self.positive_roots)
        elements, frontier = [self.identity], [self.identity]
        seen = {self.identity.matrix}
        while frontier:
            nxt = []
            for w in frontier:
                for i in range(self.rank):
                    # l(w s_i) > l(w)  iff  w(alpha_i) is a positive root
                    img = _mat_apply(w.matrix, self.alpha[i])
                    if img not in positive:
                        continue
                    # w s_i: column i becomes w[:, i] - w(alpha_i)
                    mat = tuple(row[:i] + (row[i] - x,) + row[i + 1:]
                                for row, x in zip(w.matrix, img))
                    if mat not in seen:
                        seen.add(mat)
                        nxt.append(WeylElement(mat, w.word + (i,)))
            elements.extend(nxt)
            frontier = nxt
        assert len(elements) == self.weyl_order
        return tuple(elements)

    @cached_property
    def _index(self) -> dict:
        """w(rho) -> w: rho is regular, so its image names the element."""
        return {self.apply(w, self.rho): w for w in self.elements}

    # -- group queries ----------------------------------------------------

    def element_of_word(self, word) -> WeylElement:
        """s_{word[0]} ... s_{word[-1]}, found by its image of rho."""
        v = self.rho
        for i in reversed(tuple(word)):
            v = self.reflect(v, i)
        return self._index[v]

    def multiply(self, a: WeylElement, b: WeylElement) -> WeylElement:
        return self._index[self.apply(a, self.apply(b, self.rho))]

    def det(self, w: WeylElement) -> int:
        return -1 if w.length % 2 else 1

    def orbit(self, v: Weight, indices=None) -> tuple:
        """Orbit of v under the parabolic subgroup W_{indices} (full W if None)."""
        if indices is None:
            indices = range(self.rank)
        v = tuple(v)
        seen = {v}
        frontier = [v]
        while frontier:
            nxt = []
            for x in frontier:
                for i in indices:
                    y = self.reflect(x, i)
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
            frontier = nxt
        return tuple(sorted(seen))

    def to_jsonable(self) -> dict:
        frac = lambda x: str(Fraction(x))
        return {
            "family": self.family,
            "rank": self.rank,
            "cartan": [list(row) for row in self.cartan],
            "symmetrizer": [frac(d) for d in self.symmetrizer],
            "positive_roots": [[frac(c) for c in r] for r in self.positive_roots],
            "rho": [frac(c) for c in self.rho],
            "weyl_order": self.weyl_order,
            "w0_word": [i + 1 for i in self.w0_word],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_jsonable(), sort_keys=True)

    def __repr__(self):
        return f"CartanDatum({self.family}{self.rank})"


@lru_cache(maxsize=None)
def build_root_system(family: str, rank: int) -> CartanDatum:
    """Construct (and cache) the root datum for a supported simple type.

    Raises UnsupportedType for anything outside the desk-scale table
    (rank <= 4, |W| <= 2000).
    """
    family = str(family).upper()
    try:
        rank = int(rank)
    except (TypeError, ValueError):
        raise UnsupportedType(f"invalid rank {rank!r}")
    if (family, rank) not in _CLASSICAL:
        raise UnsupportedType(f"unsupported simple type {family}{rank}")
    datum = CartanDatum(family, rank)
    order, npos = _CLASSICAL[(family, rank)]
    assert datum.weyl_order == order
    assert len(datum.positive_roots) == npos
    return datum


def cartan_type(token: str) -> CartanDatum:
    """Parse a type token such as 'A2' or 'G2'."""
    token = token.strip()
    if len(token) < 2 or not token[1:].isdigit():
        raise UnsupportedType(f"cannot parse Cartan type {token!r}")
    return build_root_system(token[0], int(token[1:]))


def dominant_representative(cartan: CartanDatum, x: Weight):
    """Return (y, w) with y dominant, w(x) = y and w minimal in its right coset.

    Minimality: l(s w) > l(w) for every simple reflection s fixing y, which
    pins the unique shortest representative of the coset W_{S_y} w.  The
    descent's word gives it: each reflection at a negative coordinate removes
    one positive root from those pairing negatively with x, and every v with
    v(x) = y sends all of those to negative roots.
    """
    check_rank(cartan, x)
    y, applied = cartan.descend(weight(x))
    return y, cartan.element_of_word(reversed(applied))


def minimal_coset_rep(cartan: CartanDatum, w: WeylElement, indices) -> WeylElement:
    """Minimal-length representative u of the right coset W_{indices} w: the one
    with <u(rho), alpha_i^vee> > 0 for i in indices, so u = v w with v the
    reflections that the descent of w(rho) at those walls applies, and u(rho)
    is where that descent ends."""
    return cartan._index[cartan.descend(cartan.apply(w, cartan.rho), indices)[0]]
