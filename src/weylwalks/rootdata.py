"""Exact root-system, weight-lattice and Weyl-group arithmetic for simple types.

Weights are tuples in the fundamental-weight basis, so the pairing with the
i-th simple coroot is just coordinate i.  Integral weights (roots, rho, the
weights of a module, lattice points of a walk) are tuples of ints; Fractions
are kept for rational points (path breakpoints, drifts, polytope location).
Weyl-group elements act by integer matrices on these coordinates and the
whole group is enumerated once (desk scale: rank <= 4, |W| <= 2000), which
makes length, coset and orbit queries trivial and exactly testable.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, reduce

from .errors import UnsupportedType

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


def _mat_mul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


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


def _root_lengths_sq(family: str, rank: int):
    """Squared lengths (alpha_i, alpha_i), short roots normalized to 2."""
    if family == "A" or family == "D":
        return [Fraction(2)] * rank
    if family == "B":
        return [Fraction(4)] * (rank - 1) + [Fraction(2)]
    if family == "C":
        return [Fraction(2)] * (rank - 1) + [Fraction(4)]
    if family == "G":
        return [Fraction(2), Fraction(6)]
    if family == "F":
        return [Fraction(4), Fraction(4), Fraction(2), Fraction(2)]
    raise AssertionError(family)


def _invert_rational_matrix(m):
    n = len(m)
    aug = [[Fraction(m[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)]
           for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        p = aug[col][col]
        aug[col] = [x / p for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


class CartanDatum:
    """Root datum of a simple Lie algebra with its Weyl group fully enumerated.

    Immutable after construction; hashing is by identity, and
    :func:`build_root_system` caches one instance per (family, rank).
    """

    def __init__(self, family: str, rank: int):
        self.family = family
        self.rank = rank
        self.cartan = _cartan_matrix(family, rank)
        lengths = _root_lengths_sq(family, rank)
        # d_i = 2/(alpha_i,alpha_i) makes diag(d) . cartan symmetric
        self.symmetrizer = tuple(2 / l for l in lengths)
        # alpha_i in omega-coordinates is row i of the Cartan matrix
        self.alpha = self.cartan
        at = tuple(tuple(self.cartan[j][i] for j in range(rank)) for i in range(rank))
        self._omega_to_alpha = _invert_rational_matrix(at)
        # den * C^-1 as ints: integer root coordinates by exact division
        self._alpha_den = math.lcm(*(x.denominator for row in self._omega_to_alpha
                                     for x in row))
        self._omega_to_alpha_int = tuple(tuple(int(x * self._alpha_den) for x in row)
                                         for row in self._omega_to_alpha)
        # Gram matrix of the simple roots: (alpha_i, alpha_j) = A_ij / d_j
        gram = [[self.cartan[i][j] / self.symmetrizer[j] for j in range(rank)]
                for i in range(rank)]
        assert all(gram[i][j] == gram[j][i] for i in range(rank) for j in range(rank))
        self._alpha_gram = gram
        # form on omega-coordinates: (v, u) = (Cv)^T G (Cu), C = omega->alpha
        c = self._omega_to_alpha
        gc = [[sum(gram[i][k] * c[k][j] for k in range(rank)) for j in range(rank)]
              for i in range(rank)]
        self._omega_form = tuple(
            tuple(sum(c[k][i] * gc[k][j] for k in range(rank)) for j in range(rank))
            for i in range(rank)
        )
        self._simple_reflections = tuple(
            tuple(
                tuple((1 if k == j else 0) - (self.alpha[i][k] if j == i else 0)
                      for j in range(rank))
                for k in range(rank)
            )
            for i in range(rank)
        )
        self.positive_roots = self._generate_positive_roots()
        self.rho = (1,) * rank
        half_sum = wscale(Fraction(1, 2), reduce(wadd, self.positive_roots))
        assert half_sum == self.rho
        self._enumerate_weyl_group()
        self.weyl_order = len(self.elements)
        self.w0_word = self._descent_word_for_w0()
        assert len(self.w0_word) == len(self.positive_roots)
        self.w0 = self.element_of_word(self.w0_word)

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

    # -- construction helpers -------------------------------------------

    def _generate_positive_roots(self):
        roots = set(self.alpha)
        frontier = list(self.alpha)
        while frontier:
            nxt = []
            for beta in frontier:
                for i in range(self.rank):
                    img = self.reflect(beta, i)
                    if img not in roots:
                        roots.add(img)
                        nxt.append(img)
            frontier = nxt
        pos = [r for r in roots if all(c >= 0 for c in self.int_alpha_coords(r))]
        assert 2 * len(pos) == len(roots)
        return tuple(sorted(pos))

    def _enumerate_weyl_group(self):
        # s_i = 1 - alpha_i e_i^T, so w s_i and s_i w^-1 are rank-one updates of w
        # and w^-1: no matrix products
        rank = self.rank
        positive = set(self.positive_roots)
        ident = WeylElement(_identity_matrix(rank), ())
        elements = [ident]
        inv_mats = [ident.matrix]
        index = {ident.matrix: 0}
        frontier = [0]
        while frontier:
            nxt = []
            for idx in frontier:
                w = elements[idx]
                for i in range(rank):
                    # l(w s_i) > l(w)  iff  w(alpha_i) is a positive root
                    img = _mat_apply(w.matrix, self.alpha[i])
                    if img not in positive:
                        continue
                    # w s_i: column i becomes w[:, i] - w(alpha_i)
                    mat = tuple(row[:i] + (row[i] - x,) + row[i + 1:]
                                for row, x in zip(w.matrix, img))
                    if mat in index:
                        continue
                    if len(elements) >= WEYL_ORDER_CAP:
                        raise UnsupportedType(
                            f"Weyl group of {self.family}{rank} exceeds the "
                            f"order cap {WEYL_ORDER_CAP}"
                        )
                    elements.append(WeylElement(mat, w.word + (i,)))
                    # (w s_i)^{-1} = s_i w^{-1}: row k loses alpha_i[k] times row i
                    inv = inv_mats[idx]
                    inv_mats.append(tuple(
                        tuple(x - a * y for x, y in zip(row, inv[i])) if a else row
                        for row, a in zip(inv, self.alpha[i])))
                    index[mat] = len(elements) - 1
                    nxt.append(len(elements) - 1)
            frontier = nxt
        self.elements = tuple(elements)
        self._index = index
        self._inverse_index = tuple(index[m] for m in inv_mats)
        self.identity = ident

    def _descent_word_for_w0(self):
        """Reduced word for the longest element, least descent of -rho first."""
        x = wscale(-1, self.rho)
        applied = []
        while not self.is_dominant(x):
            i = next(k for k in range(self.rank) if x[k] < 0)
            x = self.reflect(x, i)
            applied.append(i)
        # product s_{i_k} ... s_{i_1} applied to -rho gives rho
        return tuple(reversed(applied))

    # -- group queries ----------------------------------------------------

    def element_of_matrix(self, matrix) -> WeylElement:
        return self.elements[self._index[matrix]]

    def element_of_word(self, word) -> WeylElement:
        mat = _identity_matrix(self.rank)
        for i in word:
            mat = _mat_mul(mat, self._simple_reflections[i])
        return self.element_of_matrix(mat)

    def simple_reflection(self, i: int) -> WeylElement:
        return self.element_of_matrix(self._simple_reflections[i])

    def multiply(self, a: WeylElement, b: WeylElement) -> WeylElement:
        return self.element_of_matrix(_mat_mul(a.matrix, b.matrix))

    def inverse(self, w: WeylElement) -> WeylElement:
        return self.elements[self._inverse_index[self._index[w.matrix]]]

    def det(self, w: WeylElement) -> int:
        return -1 if w.length % 2 else 1

    def parabolic_subgroup(self, indices) -> tuple:
        """All elements of the subgroup generated by {s_i : i in indices}."""
        gens = [self.simple_reflection(i) for i in indices]
        seen = {self.identity.matrix}
        out = [self.identity]
        frontier = [self.identity]
        while frontier:
            nxt = []
            for w in frontier:
                for g in gens:
                    m = _mat_mul(g.matrix, w.matrix)
                    if m not in seen:
                        seen.add(m)
                        el = self.element_of_matrix(m)
                        out.append(el)
                        nxt.append(el)
            frontier = nxt
        return tuple(out)

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
    pins the unique shortest representative of the coset W_{S_y} w.
    """
    x = weight(x)
    y = x
    applied = []
    while not cartan.is_dominant(y):
        i = next(k for k in range(cartan.rank) if y[k] < 0)
        y = cartan.reflect(y, i)
        applied.append(i)
    w = cartan.element_of_word(tuple(reversed(applied)))
    s_y = [i for i in range(cartan.rank) if y[i] == 0]
    return y, minimal_coset_rep(cartan, w, s_y)


def minimal_coset_rep(cartan: CartanDatum, w: WeylElement, indices) -> WeylElement:
    """Minimal-length representative of the right coset W_{indices} w."""
    indices = sorted(set(indices))
    changed = True
    while changed:
        changed = False
        for i in indices:
            sw = cartan.multiply(cartan.simple_reflection(i), w)
            if sw.length < w.length:
                w = sw
                changed = True
    return w
