"""Littelmann paths: root operators, crystal generation, growth-graph counts
against brute-force and convolution oracles, Pitman transforms, witnesses."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from weylwalks import (
    NotAdmissible,
    build_root_system,
    count_paths,
    generate_crystal,
    highest_weight_witness,
    in_chamber,
    pitman_chain,
    pitman_transform,
    root_operator,
    straight_path,
    tensor_decompose,
    weight,
    weight_multiplicities,
    weyl_dim,
    wzero,
    wadd,
)
from weylwalks.chars import convolve_multisets
from weylwalks.paths import (
    build_growth_graph,
    chamber_moves,
    crystal,
    crystal_to_dot,
    make_path,
    word_path,
)

A1 = build_root_system("A", 1)
A2 = build_root_system("A", 2)
B2 = build_root_system("B", 2)
G2 = build_root_system("G", 2)

SUITE = [
    (A1, weight((1,))),
    (A1, weight((2,))),
    (A2, weight((1, 0))),
    (A2, weight((1, 1))),
    (B2, weight((1, 0))),
    (B2, weight((0, 1))),
    (G2, weight((1, 0)) if weyl_dim(G2, (1, 0)) == 7 else weight((0, 1))),
]


# -- root operators -------------------------------------------------------------


def test_f_on_a1_highest_is_reflected_straight_path():
    pi0 = straight_path((1,))
    img = root_operator(A1, pi0, 0, "f")
    assert img == straight_path((-1,))


def test_f_twice_undefined_on_a1_fundamental():
    pi0 = straight_path((1,))
    img = root_operator(A1, pi0, 0, "f")
    assert root_operator(A1, img, 0, "f") is None


def test_e_undefined_on_dominant_paths():
    for cartan, delta in [(A2, (1, 1)), (B2, (1, 0))]:
        pi0 = straight_path(delta)
        for i in range(cartan.rank):
            assert root_operator(cartan, pi0, i, "e") is None


def test_e_inverts_f():
    for cartan, delta in SUITE:
        cb = crystal(cartan, delta)
        for (src, i), dst in cb.edges.items():
            back = root_operator(cartan, cb.paths[dst], i, "e")
            assert back == cb.paths[src]


def test_operator_shifts_endpoint_by_root():
    cb = crystal(G2, SUITE[-1][1])
    for (src, i), dst in cb.edges.items():
        diff = wadd(cb.paths[dst].endpoint(),
                    weight([-x for x in cb.paths[src].endpoint()]))
        assert diff == weight([-x for x in G2.alpha[i]])


# -- crystals ---------------------------------------------------------------------


def test_crystal_a1():
    cb = generate_crystal(A1, (1,))
    assert len(cb.paths) == 2


def test_crystal_a2_fundamental_endpoints():
    cb = generate_crystal(A2, (1, 0))
    d = weight((1, 0))
    expected = {d, wadd(d, weight([-x for x in A2.alpha[0]])),
                wadd(wadd(d, weight([-x for x in A2.alpha[0]])),
                     weight([-x for x in A2.alpha[1]]))}
    assert set(cb.endpoints()) == expected


@pytest.mark.parametrize("cartan,delta", SUITE)
def test_crystal_size_and_endpoint_multiset(cartan, delta):
    cb = crystal(cartan, delta)
    assert len(cb.paths) == weyl_dim(cartan, delta)
    counted = {}
    for e in cb.endpoints():
        counted[e] = counted.get(e, 0) + 1
    assert counted == weight_multiplicities(cartan, delta).entries


@pytest.mark.parametrize("cartan,delta", SUITE)
def test_crystal_connected(cartan, delta):
    cb = crystal(cartan, delta)
    reached = {cb.highest}
    frontier = [cb.highest]
    while frontier:
        nxt = []
        for src in frontier:
            for i in range(cartan.rank):
                dst = cb.edges.get((src, i))
                if dst is not None and dst not in reached:
                    reached.add(dst)
                    nxt.append(dst)
        frontier = nxt
    assert reached == set(range(len(cb.paths)))


def test_crystal_dot_export():
    dot = crystal_to_dot(crystal(A2, weight((1, 0))))
    assert dot.startswith("digraph") and dot.count("->") == 2


# -- chamber membership -------------------------------------------------------------


def test_in_chamber_examples():
    pi0 = straight_path((1,))
    assert in_chamber(A1, pi0, (0,))
    f = root_operator(A1, pi0, 0, "f")
    assert not in_chamber(A1, f, (0,))
    assert in_chamber(A1, f, (1,))


# -- growth graphs and counting oracles ----------------------------------------------


def brute_force_count(cartan, delta, lam, n, chamber):
    cb = crystal(cartan, delta)
    lam = weight(lam)
    total = 0
    for word in product(range(len(cb.paths)), repeat=n):
        path = word_path(cartan, delta, word)
        if path.endpoint() != lam:
            continue
        if chamber and not in_chamber(cartan, path, wzero(cartan.rank)):
            continue
        total += 1
    return total


def test_count_trivial_level_zero():
    assert count_paths(A2, "free", (1, 0), (0, 0), 0) == 1
    assert count_paths(A2, "chamber", (1, 0), (0, 0), 0) == 1


def test_a1_counts_known_values():
    assert count_paths(A1, "chamber", (1,), (0,), 4) == 2
    assert count_paths(A1, "free", (1,), (0,), 4) == 6


@pytest.mark.parametrize("cartan,delta,n", [
    (A1, (1,), 4), (A1, (2,), 3), (A2, (1, 0), 4), (A2, (1, 1), 2), (B2, (0, 1), 3),
])
def test_counts_against_brute_force(cartan, delta, n):
    g_free = build_growth_graph(cartan, "free", weight(delta), n)
    g_cham = build_growth_graph(cartan, "chamber", weight(delta), n)
    for lam, cnt in g_free.levels[n].items():
        assert cnt == brute_force_count(cartan, delta, lam, n, chamber=False)
    for lam, cnt in g_cham.levels[n].items():
        assert cnt == brute_force_count(cartan, delta, lam, n, chamber=True)
    # brute force finds no endpoints missing from the graphs
    cb = crystal(cartan, weight(delta))
    for word in product(range(len(cb.paths)), repeat=n):
        path = word_path(cartan, delta, word)
        assert path.endpoint() in g_free.levels[n]


@pytest.mark.parametrize("cartan,delta,n_max", [
    (A2, (1, 0), 4), (B2, (1, 0), 3), (G2, SUITE[-1][1], 2),
])
def test_free_counts_equal_convolution(cartan, delta, n_max):
    delta = weight(delta)
    conv = {wzero(cartan.rank): 1}
    ms = weight_multiplicities(cartan, delta).entries
    for n in range(1, n_max + 1):
        conv = convolve_multisets(conv, ms)
        g = build_growth_graph(cartan, "free", delta, n)
        assert g.levels[n] == conv


@pytest.mark.parametrize("cartan,delta,n_max", [
    (A2, (1, 0), 4), (A2, (1, 1), 3), (B2, (0, 1), 3), (G2, SUITE[-1][1], 2),
])
def test_chamber_counts_equal_iterated_tensor(cartan, delta, n_max):
    delta = weight(delta)
    comps = {wzero(cartan.rank): 1}
    for n in range(1, n_max + 1):
        nxt = {}
        for lam, m in comps.items():
            for nu, k in tensor_decompose(cartan, lam, delta).items():
                nxt[nu] = nxt.get(nu, 0) + m * k
        comps = nxt
        g = build_growth_graph(cartan, "chamber", delta, n)
        assert g.levels[n] == comps


@pytest.mark.parametrize("cartan,delta", [
    (A2, (1, 0)), (A2, (1, 1)), (B2, (0, 1)), (G2, SUITE[-1][1]),
])
def test_chamber_edge_weights_equal_tensor_multiplicities(cartan, delta):
    # e(lam, mu) = multiplicity of V(mu) in V(lam) (x) V(delta), edge by edge
    delta = weight(delta)
    g = build_growth_graph(cartan, "chamber", delta, 3)
    for n in range(3):
        for lam, edges in g.edges[n].items():
            assert dict(edges) == tensor_decompose(cartan, lam, delta)


@pytest.mark.parametrize("kind", ["free", "chamber"])
def test_growth_graph_weights_are_ints(kind):
    # Fraction delta in, int tuples throughout: delta, levels and edges
    g = build_growth_graph(G2, kind, weight((1, 0)), 3)
    assert all(type(c) is int for c in g.delta)
    for level, edges in zip(g.levels, g.edges):
        assert all(type(c) is int for lam in level for c in lam)
        assert all(type(c) is int for row in edges.values() for mu, _ in row for c in mu)
        assert set(edges) == set(level)


@pytest.mark.parametrize("cartan,delta", SUITE)
def test_chamber_edge_dimension_identity(cartan, delta):
    g = build_growth_graph(cartan, "chamber", delta, 3)
    z = weyl_dim(cartan, delta)
    for n in range(3):
        for lam, edges in g.edges[n].items():
            assert sum(e * weyl_dim(cartan, mu) for mu, e in edges) == \
                weyl_dim(cartan, lam) * z


def fraction_floors(cartan, delta):
    """Per crystal letter: (endpoint, componentwise breakpoint minimum), read
    from the Fraction breakpoints of crystal(...).paths.  Letter b is
    chamber-valid from base x iff x + floor_b >= 0 componentwise."""
    out = []
    for p in crystal(cartan, delta).paths:
        bps = [pos for _, pos in p.breakpoints()]
        out.append((p.endpoint(), tuple(min(pos[k] for pos in bps)
                                        for k in range(cartan.rank))))
    return out


@pytest.mark.parametrize("cartan,delta", SUITE)
def test_chamber_moves_match_fraction_floors(cartan, delta):
    # the integer thresholds decide validity as the Fraction floors do
    for lam in product(range(4), repeat=cartan.rank):
        expected = {}
        for b, (end, floor) in enumerate(fraction_floors(cartan, delta)):
            if all(x + f >= 0 for x, f in zip(lam, floor)):
                expected.setdefault(wadd(weight(lam), end), []).append(b)
        moves = chamber_moves(cartan, delta, lam)
        assert moves == expected
        assert all(type(c) is int for mu in moves for c in mu)


# -- Pitman transforms -----------------------------------------------------------------


def test_pitman_fixes_dominant_paths():
    pi0 = straight_path((1, 1))
    for i in range(2):
        assert pitman_transform(A2, pi0, i) == pi0


def test_pitman_a1_hand_example():
    # increments -omega1 then +omega1: the height dips to -1, endpoint maps to 2 omega1
    p = make_path([(1, (-1,)), (1, (1,))])
    out = pitman_transform(A1, p, 0)
    assert out.endpoint() == weight((2,))


def test_pitman_idempotent():
    for cartan, delta in [(A2, weight((1, 0))), (B2, weight((0, 1)))]:
        cb = crystal(cartan, delta)
        for word in product(range(len(cb.paths)), repeat=3):
            path = word_path(cartan, delta, word)
            for i in range(cartan.rank):
                once = pitman_transform(cartan, path, i)
                assert pitman_transform(cartan, once, i) == once


@pytest.mark.parametrize("cartan,delta", [(A1, (2,)), (A2, (1, 0)), (B2, (0, 1))])
def test_pitman_chain_lands_in_chamber(cartan, delta):
    delta = weight(delta)
    cb = crystal(cartan, delta)
    for word in product(range(len(cb.paths)), repeat=3):
        path = word_path(cartan, delta, word)
        out = pitman_chain(cartan, path)
        assert in_chamber(cartan, out, wzero(cartan.rank))
        assert cartan.is_dominant(out.endpoint())


def test_pitman_chain_preserves_chamber_paths():
    g = build_growth_graph(A2, "chamber", weight((1, 0)), 3)
    cb = crystal(A2, weight((1, 0)))
    for word in product(range(len(cb.paths)), repeat=3):
        path = word_path(A2, (1, 0), word)
        if in_chamber(A2, path, wzero(2)):
            assert pitman_chain(A2, path) == path


# -- highest-weight witnesses ------------------------------------------------------------


def test_witness_a1():
    lam, n = highest_weight_witness(A1, (1,), (0,), 0)
    assert (lam, n) == (weight((0,)), 2)


def test_witness_a2_depth_two():
    lam, n = highest_weight_witness(A2, (1, 0), (0, 1), 1)
    assert (lam, n) == (weight((0, 0)), 3)
    # 3 delta - 0 = 2 alpha_1 + alpha_2
    assert A2.alpha_coords(weight((3, 0))) == (Fraction(2), Fraction(1))


def test_witness_empty_subset_rejected():
    with pytest.raises(NotAdmissible):
        highest_weight_witness(A2, (1, 0), (), 0)
    with pytest.raises(NotAdmissible):
        highest_weight_witness(A2, (1, 0), (1,), 1)  # {alpha_2} not admissible


@pytest.mark.parametrize("cartan,delta", SUITE)
def test_witness_exists_for_every_admissible_root(cartan, delta):
    from weylwalks.polytope import admissible_subsets

    for adm in admissible_subsets(cartan, delta):
        for i in adm.indices:
            lam, n = highest_weight_witness(cartan, delta, adm.indices, i)
            assert count_paths(cartan, "chamber", delta, lam, n) > 0
            k = cartan.alpha_coords(wadd(weight([n * c for c in delta]),
                                         weight([-x for x in lam])))
            assert k[i] == 1
            allowed = {j for j in adm.indices
                       if adm.depths[j] < adm.depths[i]} | {i}
            assert all(k[j] == 0 for j in range(cartan.rank) if j not in allowed)


# -- path primitives ------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=4))
def test_word_paths_land_on_lattice(word):
    path = word_path(A2, (1, 0), word)
    assert path.length == len(word)
    for k in range(len(word) + 1):
        pos = path.position(k)
        assert all(c.denominator == 1 for c in pos)


def test_position_and_breakpoints():
    p = make_path([(Fraction(1, 2), (1, 0)), (Fraction(1, 2), (0, 1))])
    assert p.position(Fraction(1, 4)) == (Fraction(1, 4), Fraction(0))
    assert p.endpoint() == (Fraction(1, 2), Fraction(1, 2))
    assert len(p.breakpoints()) == 3
