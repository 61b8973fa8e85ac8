"""Root data: classical tables, form invariance, coset representatives."""

import functools

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
from weylwalks.rootdata import _mat_apply, _mat_mul, cartan_type

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
            assert c.multiply(w, c.inverse(w)) == c.identity


def test_dominant_representative_trivial():
    c = build_root_system("A", 2)
    x = weight((2, 1))
    y, w = dominant_representative(c, x)
    assert y == x and w == c.identity


def test_dominant_representative_a1():
    c = build_root_system("A", 1)
    y, w = dominant_representative(c, weight([-1]))
    assert y == weight([1])
    assert w == c.simple_reflection(0)


def test_dominant_representative_minimality_brute_force():
    # A2: x = s1 s2 (rho); check the returned w against all 6 elements
    c = build_root_system("A", 2)
    s1, s2 = c.simple_reflection(0), c.simple_reflection(1)
    x = c.apply(c.multiply(s1, s2), c.rho)
    y, w = dominant_representative(c, x)
    assert y == c.rho
    assert c.apply(w, x) == y
    fiber = [v for v in c.elements if c.apply(v, x) == y]
    assert w.length == min(v.length for v in fiber)
    assert w == c.inverse(c.multiply(s1, s2))


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
        coset = {c.multiply(v, w) for v in c.parabolic_subgroup(s_y)}
        fiber = {v for v in c.elements if c.apply(v, x) == y}
        assert coset == fiber
        # minimality within the coset
        assert w.length == min(v.length for v in coset)


def test_minimal_coset_rep_examples():
    c = build_root_system("A", 2)
    s1, s2 = c.simple_reflection(0), c.simple_reflection(1)
    assert minimal_coset_rep(c, c.identity, [0, 1]) == c.identity
    assert minimal_coset_rep(c, s1, [0]) == c.identity
    assert minimal_coset_rep(c, c.multiply(s1, s2), [0]) == s2


def test_minimal_coset_rep_postconditions():
    c = build_root_system("B", 2)
    for w in c.elements:
        for sub in [(), (0,), (1,), (0, 1)]:
            r = minimal_coset_rep(c, w, sub)
            group = c.parabolic_subgroup(sub)
            assert any(c.multiply(v, r) == w for v in group)
            for i in sub:
                assert c.multiply(c.simple_reflection(i), r).length > r.length


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
            assert c.multiply(c.simple_reflection(i), w).length > w.length


def _reference_enumeration(c):
    """The Weyl group by matrix products, the rule the rank-one updates replace:
    breadth first over w -> w s_i with l(w s_i) > l(w), inverses s_i w^-1."""
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
                new = _mat_mul(mat, c._simple_reflections[i])
                if new not in index:
                    index[new] = len(elements)
                    elements.append((new, word + (i,)))
                    inverses.append(_mat_mul(c._simple_reflections[i], inverses[idx]))
                    nxt.append(index[new])
        frontier = nxt
    return elements, tuple(index[m] for m in inverses)


@pytest.mark.parametrize("token", ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4",
                                   "D4", "G2", "F4"])
def test_weyl_enumeration_matches_matrix_products(token):
    c = cartan_type(token)
    elements, inverse_index = _reference_enumeration(c)
    assert [(w.matrix, w.word) for w in c.elements] == elements
    assert c._inverse_index == inverse_index
    # w0_word is a reduced word of the reference's longest element, its last one
    w0, w0_word = elements[-1]
    product = functools.reduce(_mat_mul, (c._simple_reflections[i] for i in c.w0_word))
    assert product == w0 and len(c.w0_word) == len(w0_word) == len(c.positive_roots)
