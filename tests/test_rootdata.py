"""Root data: classical tables, form invariance, coset representatives."""

import functools
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weylwalks import (
    UnsupportedType,
    build_root_system,
    dominant_representative,
    minimal_coset_rep,
    weight,
    wzero,
)
from weylwalks import chars
from weylwalks import rootdata
from weylwalks.rootdata import _CLASSICAL, CartanDatum, _mat_apply, _row_reduce, cartan_type

CLASSICAL_CASES = [
    ("A", 1, 2, 1),
    ("A", 2, 6, 3),
    ("A", 3, 24, 6),
    ("B", 2, 8, 4),
    ("B", 3, 48, 9),
    ("C", 3, 48, 9),
    ("D", 4, 192, 12),
    ("G", 2, 12, 6),
]


@pytest.mark.parametrize("family,rank,order,npos", CLASSICAL_CASES)
def test_classical_tables(family, rank, order, npos):
    c = build_root_system(family, rank)
    assert c.weyl_order == order
    assert len(c.positive_roots) == npos
    assert len(c.w0_word) == npos
    assert c.rho == weight([1] * rank)


@pytest.mark.parametrize("family,rank,order,npos", CLASSICAL_CASES)
def test_cartan_matrix_shape_invariants(family, rank, order, npos):
    c = build_root_system(family, rank)
    for i in range(rank):
        assert c.cartan[i][i] == 2
        for j in range(rank):
            if i != j:
                assert c.cartan[i][j] <= 0
                assert (c.cartan[i][j] == 0) == (c.cartan[j][i] == 0)
    # symmetrizer check: diag(d) . A symmetric
    d = c.symmetrizer
    for i in range(rank):
        for j in range(rank):
            assert d[i] * c.cartan[i][j] == d[j] * c.cartan[j][i]


@pytest.mark.parametrize("family,rank", sorted(_CLASSICAL))
def test_weyl_order_from_root_heights(family, rank):
    c = CartanDatum(family, rank)
    assert "elements" not in vars(c)  # enumerated on first use
    assert c.weyl_order == _CLASSICAL[(family, rank)][0]
    assert len(c.elements) == c.weyl_order


def test_a1_data():
    c = build_root_system("A", 1)
    assert c.cartan == ((2,),)
    assert c.positive_roots == (weight([2]),)


def test_a2_cartan_matrix():
    c = build_root_system("A", 2)
    assert c.cartan == ((2, -1), (-1, 2))


def test_g2_data():
    c = build_root_system("G", 2)
    assert c.cartan == ((2, -1), (-3, 2))
    # short root squared length 2, long squared length 6
    assert c.pairing(c.alpha[0], c.alpha[0]) == 2
    assert c.pairing(c.alpha[1], c.alpha[1]) == 6


def test_f4_supported():
    c = build_root_system("F", 4)
    assert c.weyl_order == 1152
    assert len(c.positive_roots) == 24


@pytest.mark.parametrize("family,rank", [("Z", 9), ("A", 5), ("E", 6), ("B", 1), ("D", 3)])
def test_unsupported_types(family, rank):
    with pytest.raises(UnsupportedType):
        build_root_system(family, rank)


def test_cartan_type_parser():
    assert cartan_type("A2").family == "A"
    with pytest.raises(UnsupportedType):
        cartan_type("Z9")


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2), ("G", 2)])
def test_form_invariance_exhaustive(family, rank):
    c = build_root_system(family, rank)
    roots = set(c.positive_roots) | {weight([-x for x in r]) for r in c.positive_roots}
    for w in c.elements:
        for beta in c.positive_roots:
            img = c.apply(w, beta)
            assert img in roots
            assert c.pairing(img, img) == c.pairing(beta, beta)


def test_length_is_inversion_count():
    for family, rank in [("A", 2), ("B", 2), ("G", 2), ("A", 3)]:
        c = build_root_system(family, rank)
        for w in c.elements:
            inv = sum(
                1 for beta in c.positive_roots
                if any(x < 0 for x in c.alpha_coords(c.apply(w, beta)))
            )
            assert inv == w.length


def test_word_reconstructs_matrix():
    c = build_root_system("B", 2)
    for w in c.elements:
        assert c.element_of_word(w.word) == w


def test_inverse():
    for tok in ["A2", "B2", "G2"]:
        c = cartan_type(tok)
        for w in c.elements:
            assert c.multiply(w, c.element_of_word(reversed(w.word))) == c.identity


def test_dominant_representative_trivial():
    c = build_root_system("A", 2)
    x = weight((2, 1))
    y, w = dominant_representative(c, x)
    assert y == x and w == c.identity


def test_dominant_representative_a1():
    c = build_root_system("A", 1)
    y, w = dominant_representative(c, weight([-1]))
    assert y == weight([1])
    assert w == c.element_of_word((0,))


def test_dominant_representative_minimality_brute_force():
    # A2: x = s1 s2 (rho); check the returned w against all 6 elements
    c = build_root_system("A", 2)
    s1, s2 = c.element_of_word((0,)), c.element_of_word((1,))
    x = c.apply(c.multiply(s1, s2), c.rho)
    y, w = dominant_representative(c, x)
    assert y == c.rho
    assert c.apply(w, x) == y
    fiber = [v for v in c.elements if c.apply(v, x) == y]
    assert w.length == min(v.length for v in fiber)
    assert w == c.element_of_word((1, 0))  # (s1 s2)^-1


def test_dominant_representative_idempotent():
    c = build_root_system("B", 2)
    for x in [weight((1, 0)), weight((-2, 1)), weight((0, -3))]:
        y, _ = dominant_representative(c, x)
        y2, w2 = dominant_representative(c, y)
        assert y2 == y and w2 == c.identity


@pytest.mark.parametrize("tok", ["A1", "A2", "B2", "G2"])
def test_fiber_is_stabilizer_coset(tok):
    # the full fiber {v : v(x) dominant} is W_{S_y} w, exhaustively for rank <= 2
    c = cartan_type(tok)
    samples = [c.rho, weight([1] + [0] * (c.rank - 1)), wzero(c.rank),
               weight([-1] * c.rank)]
    for x in samples:
        y, w = dominant_representative(c, x)
        s_y = [i for i in range(c.rank) if y[i] == 0]
        coset = {c.multiply(v, w) for v in c.elements if set(v.word) <= set(s_y)}
        fiber = {v for v in c.elements if c.apply(v, x) == y}
        assert coset == fiber
        # minimality within the coset
        assert w.length == min(v.length for v in coset)


def test_minimal_coset_rep_examples():
    c = build_root_system("A", 2)
    s1, s2 = c.element_of_word((0,)), c.element_of_word((1,))
    assert minimal_coset_rep(c, c.identity, [0, 1]) == c.identity
    assert minimal_coset_rep(c, s1, [0]) == c.identity
    assert minimal_coset_rep(c, c.multiply(s1, s2), [0]) == s2


def test_minimal_coset_rep_postconditions():
    for c in map(cartan_type, ["B2", "G2", "C3"]):
        subsets = [s for r in range(c.rank + 1) for s in itertools.combinations(range(c.rank), r)]
        for w in c.elements:
            for sub in subsets:
                r = minimal_coset_rep(c, w, sub)
                group = [v for v in c.elements if set(v.word) <= set(sub)]
                assert any(c.multiply(v, r) == w for v in group)
                for i in sub:
                    assert c.multiply(c.element_of_word((i,)), r).length > r.length


def test_json_roundtrip():
    import json

    c = build_root_system("G", 2)
    doc = json.loads(c.to_json())
    assert doc["weyl_order"] == 12
    assert doc["rho"] == ["1", "1"]
    assert all("/" in x or x.lstrip("-").isdigit() for r in doc["positive_roots"] for x in r)


@settings(max_examples=60, deadline=None)
@given(
    tok=st.sampled_from(["A2", "B2", "G2"]),
    coords=st.lists(st.integers(min_value=-4, max_value=4), min_size=2, max_size=2),
)
def test_dominant_representative_properties(tok, coords):
    c = cartan_type(tok)
    x = weight(coords)
    y, w = dominant_representative(c, x)
    assert c.is_dominant(y)
    assert c.apply(w, x) == y
    for i in range(c.rank):
        if y[i] == 0:
            assert c.multiply(c.element_of_word((i,)), w).length > w.length


def _mat_mul(a, b):
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
                 for i in range(n))


def _simple_reflections(c):
    """s_i as integer matrices on omega-coordinates: s_i = 1 - alpha_i e_i^T."""
    return tuple(tuple(tuple(int(k == j) - (c.alpha[i][k] if j == i else 0)
                             for j in range(c.rank)) for k in range(c.rank))
                 for i in range(c.rank))


def _reference_enumeration(c):
    """The Weyl group by matrix products, the rule the rank-one updates replace:
    breadth first over w -> w s_i with l(w s_i) > l(w), inverses s_i w^-1."""
    refl = _simple_reflections(c)
    ident = tuple(tuple(int(i == j) for j in range(c.rank)) for i in range(c.rank))
    elements, inverses, index = [(ident, ())], [ident], {ident: 0}
    frontier = [0]
    while frontier:
        nxt = []
        for idx in frontier:
            mat, word = elements[idx]
            for i in range(c.rank):
                if min(c.int_alpha_coords(_mat_apply(mat, c.alpha[i]))) < 0:
                    continue
                new = _mat_mul(mat, refl[i])
                if new not in index:
                    index[new] = len(elements)
                    elements.append((new, word + (i,)))
                    inverses.append(_mat_mul(refl[i], inverses[idx]))
                    nxt.append(index[new])
        frontier = nxt
    return elements, tuple(index[m] for m in inverses)


@pytest.mark.parametrize("token", ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4",
                                   "D4", "G2", "F4"])
def test_weyl_enumeration_matches_matrix_products(token):
    c = cartan_type(token)
    elements, inverse_index = _reference_enumeration(c)
    assert [(w.matrix, w.word) for w in c.elements] == elements
    # each element is keyed by its image of rho
    assert c._index == {_mat_apply(mat, c.rho): w for w, (mat, _) in zip(c.elements, elements)}
    # w^-1 read from the reversed word
    position = {mat: k for k, (mat, _) in enumerate(elements)}
    assert tuple(position[c.element_of_word(reversed(w.word)).matrix]
                 for w in c.elements) == inverse_index
    # w0_word is a reduced word of the reference's longest element, its last one
    w0, w0_word = elements[-1]
    product = functools.reduce(_mat_mul, (_simple_reflections(c)[i] for i in c.w0_word))
    assert product == w0 and len(c.w0_word) == len(w0_word) == len(c.positive_roots)


class _MatrixQueries:
    """The Weyl-group queries by integer matrix products and a lookup by matrix,
    the rule the lookups by w(rho) replace."""

    def __init__(self, c):
        self.c, self.refl = c, _simple_reflections(c)
        self.by_matrix = {w.matrix: w for w in c.elements}

    def element_of_word(self, word):
        return self.by_matrix[functools.reduce(_mat_mul, (self.refl[i] for i in word),
                                               self.c.identity.matrix)]

    def multiply(self, a, b):
        return self.by_matrix[_mat_mul(a.matrix, b.matrix)]

    def minimal_coset_rep(self, w, indices):
        _, applied = self.c.descend(self.c.apply(w, self.c.rho), indices)
        return self.multiply(self.element_of_word(reversed(applied)), w)

    def coset_pack(self, ones):
        """chars._coset_pack from the minimal representatives of every element,
        de-duplicated in enumeration order."""
        c = self.c
        reps = tuple(dict.fromkeys(self.minimal_coset_rep(w, ones) for w in c.elements))
        units = [tuple(int(i == j) for j in range(c.rank)) for i in range(c.rank)]
        images = np.array([[c.apply(u, e) for u in reps] for e in units], dtype=np.int64)
        lifts = np.array([[c.int_alpha_coords(tuple(a - b for a, b in zip(e, c.apply(u, e))))
                           for u in reps] for e in units], dtype=np.int64)
        dets = np.array([float(c.det(u)) for u in reps])
        coroots = tuple(
            tuple(int(2 * c.pairing(e, a) / c.pairing(a, a)) for e in units)
            for a in c.positive_roots
            if all(x == 0 for k, x in enumerate(c.alpha_coords(a)) if k not in ones))
        guard = len(reps) * 2.0**-53 / (chars.ROW_TOL / 4)
        images, lifts = images.reshape(c.rank, -1), lifts.reshape(c.rank, -1)
        scale = np.abs(lifts).sum(axis=0).max(initial=1)
        if coroots:
            scale = max(scale, np.abs(images).sum(axis=0).max()
                        * np.abs(coroots).sum(axis=1).max())
        return images, lifts, dets, coroots, guard, (2**63 - 1) // int(scale) - 1


@pytest.mark.parametrize("token", ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4",
                                   "D4", "G2", "F4"])
def test_weyl_queries_match_matrix_products(token):
    c = cartan_type(token)
    ref = _MatrixQueries(c)
    subsets = [s for r in range(c.rank + 1) for s in itertools.combinations(range(c.rank), r)]
    gens = [c.element_of_word((i,)) for i in range(c.rank)]
    assert gens == [ref.element_of_word((i,)) for i in range(c.rank)]
    for w in c.elements:
        inverse = c.element_of_word(reversed(w.word))
        assert c.element_of_word(w.word) is w
        assert inverse == ref.element_of_word(reversed(w.word))
        for v in gens + [inverse, w]:
            assert c.multiply(w, v) == ref.multiply(w, v)
            assert c.multiply(v, w) == ref.multiply(v, w)
        for sub in subsets:
            assert minimal_coset_rep(c, w, sub) == ref.minimal_coset_rep(w, sub)
    for ones in subsets:
        pack, expected = chars._coset_pack(c, ones), ref.coset_pack(ones)
        for got, want in zip(pack, expected):
            if isinstance(want, np.ndarray):
                assert got.dtype == want.dtype and np.array_equal(got, want)
            else:
                assert got == want


# -- the root datum from the Cartan matrix alone --------------------------------


def _reference_lengths_sq(family, rank):
    """The per-family table of (alpha_i, alpha_i), short roots of squared length 2."""
    if family in "AD":
        return [2] * rank
    if family == "B":
        return [4] * (rank - 1) + [2]
    if family == "C":
        return [2] * (rank - 1) + [4]
    return {"G": [2, 6], "F": [4, 4, 2, 2]}[family]


def _reference_omega_form(c):
    """(v, u) = (Cv)^T G (Cu) with the Gram matrix G_kl = (alpha_k, alpha_l) =
    A_kl (alpha_l, alpha_l) / 2 of the length table and C = omega -> alpha."""
    n, lengths, to_alpha = c.rank, _reference_lengths_sq(c.family, c.rank), c._omega_to_alpha
    gram = [[Fraction(c.cartan[k][l] * lengths[l], 2) for l in range(n)] for k in range(n)]
    return tuple(tuple(sum(to_alpha[k][i] * gram[k][l] * to_alpha[l][j]
                           for k in range(n) for l in range(n))
                       for j in range(n)) for i in range(n))


@pytest.mark.parametrize("family,rank", sorted(_CLASSICAL))
def test_lengths_and_form_from_the_cartan_matrix_match_the_tables(family, rank):
    c = CartanDatum(family, rank)
    assert [2 / d for d in c.symmetrizer] == _reference_lengths_sq(family, rank)
    assert all(type(d) is Fraction for d in c.symmetrizer)
    # C is the inverse of the transposed Cartan matrix
    assert [[sum(x * a for x, a in zip(row, alpha)) for alpha in c.alpha]
            for row in c._omega_to_alpha] == [[int(i == j) for j in range(rank)]
                                              for i in range(rank)]
    assert c._omega_form == _reference_omega_form(c)
    for i, a in enumerate(c.alpha):
        assert c.pairing(a, a) == _reference_lengths_sq(family, rank)[i]


@pytest.mark.parametrize("matrix", [((2, 0), (0, 2)), ((2, 0, 0), (0, 2, -2), (0, -1, 2))],
                         ids=["A1xA1", "A1xB2"])
def test_a_disconnected_diagram_is_unsupported(monkeypatch, matrix):
    monkeypatch.setattr(rootdata, "_cartan_matrix", lambda family, rank: matrix)
    with pytest.raises(UnsupportedType, match="not connected"):
        CartanDatum("A", len(matrix))


def _leibniz_det(m):
    n = len(m)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * math.prod(Fraction(m[i][perm[i]]) for i in range(n))
    return total


def _minor_rank(m):
    """The largest k with a nonzero k x k minor."""
    rows, cols = len(m), len(m[0])
    for k in range(min(rows, cols), 0, -1):
        for r in itertools.combinations(range(rows), k):
            for c in itertools.combinations(range(cols), k):
                if _leibniz_det([[m[i][j] for j in c] for i in r]):
                    return k
    return 0


def test_row_reduce_against_determinants_and_ranks():
    rng = random.Random(3)
    for _ in range(300):
        n_rows, n_cols = rng.randint(1, 4), rng.randint(1, 5)
        m = [[rng.choice([0, 0, -2, -1, 1, 2, 3]) for _ in range(n_cols)]
             for _ in range(n_rows)]
        rows, pivots = _row_reduce(m)
        assert len(pivots) == _minor_rank(m)
        # reduced row echelon form: unit pivots, cleared pivot columns, zero rows last
        for r, col in enumerate(pivots):
            assert rows[r][col] == 1 and not any(rows[r][:col])
            assert all(rows[i][col] == 0 for i in range(n_rows) if i != r)
        assert all(not any(row) for row in rows[len(pivots):])
        assert all(type(x) is Fraction for row in rows for x in row)
        if n_rows == n_cols:
            # [m | 1] reduces to [1 | m^-1] exactly when det m != 0
            ident = [[int(i == j) for j in range(n_rows)] for i in range(n_rows)]
            rows, pivots = _row_reduce([row + e for row, e in zip(m, ident)])
            det = _leibniz_det(m)
            assert (pivots == list(range(n_rows))) == (det != 0)
            if det:
                assert _leibniz_det([row[n_rows:] for row in rows]) == 1 / det
