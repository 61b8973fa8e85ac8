"""Characters: Freudenthal vs Weyl dimension, S-evaluations, tensor and wedge
decompositions with their exact oracles, total positivity."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from weylwalks import (
    DimensionCap,
    InvalidWeight,
    OrderViolation,
    build_root_system,
    evaluate_S,
    exterior_power_char,
    tensor_decompose,
    total_positivity_min_minor,
    weight,
    weight_multiplicities,
    weyl_dim,
    wzero,
    wadd,
)
from weylwalks.chars import (
    convolve_multisets,
    decompose_character,
    exterior_power_weights,
    monomial,
    weyl_numerator_batch,
    wedge_sequence_values,
)
from weylwalks import chars
from weylwalks.paths import crystal
from weylwalks.polytope import admissible_subsets
from weylwalks.rootdata import _CLASSICAL
A1 = build_root_system("A", 1)
A2 = build_root_system("A", 2)
B2 = build_root_system("B", 2)
G2 = build_root_system("G", 2)
A3 = build_root_system("A", 3)
C3 = build_root_system("C", 3)


def g2_seven_dim():
    (d,) = [w for w in [weight((1, 0)), weight((0, 1))] if weyl_dim(G2, w) == 7]
    return d


def test_a1_fundamental_multiset():
    ms = weight_multiplicities(A1, (1,))
    assert ms.entries == {weight([1]): 1, weight([-1]): 1}


def test_a2_adjoint_multiset():
    ms = weight_multiplicities(A2, (1, 1))
    assert ms.entries[wzero(2)] == 2
    roots = set(A2.positive_roots) | {weight([-x for x in r]) for r in A2.positive_roots}
    for r in roots:
        assert ms.entries[r] == 1
    assert ms.total_mass() == 8


def test_g2_seven_dimensional():
    d = g2_seven_dim()
    ms = weight_multiplicities(G2, d)
    assert ms.total_mass() == 7
    assert set(ms.entries.values()) == {1}
    assert len(ms.entries) == 7


@pytest.mark.parametrize("family,rank", sorted(_CLASSICAL))
def test_freudenthal_matches_crystal_endpoints(family, rank):
    # independent oracle: the endpoints of the path crystal B(lambda) count the
    # weights of V(lambda); every fundamental weight of dimension <= 300
    cartan = build_root_system(family, rank)
    for i in range(rank):
        lam = tuple(int(i == j) for j in range(rank))
        if weyl_dim(cartan, lam) > 300:
            continue
        counted = {}
        for end in crystal(cartan, lam).endpoints():
            counted[end] = counted.get(end, 0) + 1
        ms = weight_multiplicities(cartan, weight(lam))
        assert ms.entries == counted
        assert all(type(c) is int for gamma in (ms.top, *ms.entries) for c in gamma)


def test_decomposition_of_fraction_keys_gives_int_weights():
    # a caller's Fraction weights are converted before they reach the
    # Freudenthal cache, which every later caller shares
    ms = {}
    for end in crystal(A3, (0, 1, 1)).endpoints():  # Fraction tuples
        ms[end] = ms.get(end, 0) + 1
    for dec in (decompose_character(A3, ms), weight_multiplicities(A3, (0, 1, 1)).entries):
        assert all(type(c) is int for nu in dec for c in nu)
    assert decompose_character(A3, ms) == {(0, 1, 1): 1}


def test_weyl_dim_examples():
    assert weyl_dim(A2, (0, 0)) == 1
    for k in range(7):
        assert weyl_dim(A1, (k,)) == k + 1
    assert weyl_dim(A2, (1, 1)) == 8
    assert weyl_dim(B2, (1, 0)) == 5
    assert weyl_dim(B2, (0, 1)) == 4


@pytest.mark.parametrize("cartan,lam", [
    (A2, (2, 0)), (A2, (1, 2)), (B2, (1, 1)), (B2, (2, 0)), (G2, (1, 0)), (G2, (0, 1)),
])
def test_total_mass_is_dimension(cartan, lam):
    assert weight_multiplicities(cartan, lam).total_mass() == weyl_dim(cartan, lam)


@pytest.mark.parametrize("cartan", [A1, A2, B2])
def test_weyl_invariance_exhaustive(cartan):
    lam = weight([1] * cartan.rank)
    ms = weight_multiplicities(cartan, lam)
    for w in cartan.elements:
        for gamma, m in ms.entries.items():
            assert ms.entries[cartan.apply(w, gamma)] == m


def test_dimension_cap():
    with pytest.raises(DimensionCap):
        weight_multiplicities(A2, (40, 40), dim_cap=1000)
    with pytest.raises(DimensionCap):  # checked before Freudenthal runs
        evaluate_S(A2, (100, 100), (100, 100), (0.3, 0.3))


def test_evaluate_S_at_ones_is_dimension():
    for cartan, lam in [(A1, (3,)), (A2, (1, 1)), (B2, (1, 0)), (G2, g2_seven_dim())]:
        val = evaluate_S(cartan, lam, lam, [1.0] * cartan.rank)
        assert val == pytest.approx(weyl_dim(cartan, lam), rel=1e-12)


def test_evaluate_S_a1_closed_form():
    for t in [0.0, 0.25, 0.5, 1.0]:
        assert evaluate_S(A1, (1,), (1,), [t]) == pytest.approx(1 + t, abs=1e-15)


def test_evaluate_S_top_term_at_zero():
    for cartan, lam in [(A2, (1, 1)), (B2, (0, 1))]:
        assert evaluate_S(cartan, lam, lam, [0.0] * cartan.rank) == 1.0


def test_evaluate_S_order_violation():
    with pytest.raises(OrderViolation):
        evaluate_S(A2, (1, 1), (0, 0), [0.5, 0.5])


def _fraction_table_S(cartan, lam, mu, t):
    """The per-(lambda, mu) evaluation: exponents alpha(mu - gamma) computed in
    Fractions for every weight gamma, then the same numpy power, prod and dot."""
    ms = weight_multiplicities(cartan, lam)
    exps, mults = [], []
    for gamma, m in sorted(ms.entries.items()):
        k = cartan.alpha_coords(tuple(Fraction(a) - b for a, b in zip(mu, gamma)))
        assert all(c.denominator == 1 and c >= 0 for c in k)
        exps.append([int(c) for c in k])
        mults.append(m)
    exps, mults = np.array(exps, dtype=float), np.array(mults, dtype=float)
    tv = np.asarray([float(x) for x in t], dtype=float)
    return float(np.dot(mults, np.prod(tv[None, :] ** exps, axis=1)))


@pytest.mark.parametrize("cartan,lams", [
    (A2, [(0, 0), (1, 0), (1, 1), (2, 1)]),
    (B2, [(1, 0), (0, 1), (1, 1)]),
    (G2, [(1, 0), (0, 1)]),
    (build_root_system("A", 3), [(1, 0, 0), (0, 1, 0), (1, 0, 1)]),
    (build_root_system("C", 3), [(1, 0, 0), (0, 0, 1)]),
])
def test_evaluate_S_matches_fraction_table_reference(cartan, lams):
    rng = np.random.default_rng(17)
    ts = [[0.0] * cartan.rank, [1.0] * cartan.rank,
          [0.0, 1.0] + [0.5] * (cartan.rank - 2)]
    ts += [list(rng.random(cartan.rank)) for _ in range(3)]
    for lam in lams:
        for _ in range(4):
            shift = [int(k) for k in rng.integers(0, 3, cartan.rank)]
            mu = tuple(a + b for a, b in zip(weight(lam), cartan.from_alpha(shift)))
            for t in ts:
                assert evaluate_S(cartan, lam, mu, t) == _fraction_table_S(cartan, lam, mu, t)


def test_invalid_weights_raise_readable_invalid_weight():
    for lam in [(-1, 1), (Fraction(1, 2), 0), (1, 0, 0)]:
        with pytest.raises(InvalidWeight) as exc:
            evaluate_S(A2, lam, (2, 2), [0.5, 0.5])
        assert isinstance(exc.value, ValueError)
        assert "Fraction" not in str(exc.value)
    with pytest.raises(InvalidWeight, match=r"^\(1/2, 0\) is not a dominant integral"):
        weyl_dim(A2, (Fraction(1, 2), 0))
    with pytest.raises(OrderViolation, match=r"^\(1, 1\) is not >= \(2, 2\) in the root order$"):
        evaluate_S(A2, (2, 2), weight((1, 1)), [0.5, 0.5])


def test_monomial_zero_conventions():
    assert monomial([0.0, 0.5], [0, 2]) == 0.25
    assert monomial([0.0, 0.0], [0, 0]) == 1.0


def test_tensor_trivial():
    assert tensor_decompose(A2, (2, 1), (0, 0)) == {weight((2, 1)): 1}


def test_tensor_a1():
    assert tensor_decompose(A1, (1,), (1,)) == {weight((2,)): 1, weight((0,)): 1}


def test_tensor_a2():
    assert tensor_decompose(A2, (1, 0), (1, 0)) == {weight((2, 0)): 1, weight((0, 1)): 1}


@pytest.mark.parametrize("cartan,lam,delta", [
    (A2, (1, 1), (1, 0)), (B2, (1, 0), (0, 1)), (G2, (1, 0), (1, 0)), (A2, (2, 1), (1, 1)),
])
def test_tensor_dimension_and_reconvolution(cartan, lam, delta):
    dec = tensor_decompose(cartan, lam, delta)
    assert sum(m * weyl_dim(cartan, nu) for nu, m in dec.items()) == \
        weyl_dim(cartan, lam) * weyl_dim(cartan, delta)
    # rebuilding the product multiset from the components is exact
    rebuilt = {}
    for nu, m in dec.items():
        for gamma, k in weight_multiplicities(cartan, nu).entries.items():
            rebuilt[gamma] = rebuilt.get(gamma, 0) + m * k
    product = convolve_multisets(
        weight_multiplicities(cartan, lam).entries,
        weight_multiplicities(cartan, delta).entries,
    )
    assert rebuilt == product


def test_tensor_peeling_order_regression():
    # Pi(2 omega_2) in A2 contains (1,0), which is omega-lex bigger than the
    # highest weight (0,2); the dominance-refining pivot must still peel (0,2).
    dec = tensor_decompose(A2, (0, 1), (0, 1))
    assert dec == {weight((0, 2)): 1, weight((1, 0)): 1}


def test_character_identity_under_evaluation():
    rng = np.random.default_rng(7)
    cases = [(A2, (1, 0), (1, 1)), (B2, (1, 0), (0, 1)), (A1, (2,), (1,)),
             (G2, g2_seven_dim(), g2_seven_dim())]
    for cartan, lam, delta in cases:
        lam, delta = weight(lam), weight(delta)
        dec = tensor_decompose(cartan, lam, delta)
        for _ in range(4):
            t = rng.random(cartan.rank)
            lhs = evaluate_S(cartan, lam, lam, t) * evaluate_S(cartan, delta, delta, t)
            rhs = sum(m * evaluate_S(cartan, nu, wadd(lam, delta), t)
                      for nu, m in dec.items())
            assert lhs == pytest.approx(rhs, rel=1e-12)


def test_shifted_character_sandwich_bounds():
    # 1 <= S_{lam, n delta}(t)/t^(n delta - lam) <= dim V(lam) over actual
    # chamber-graph pairs (lam, n)
    from weylwalks.paths import build_growth_graph

    rng = np.random.default_rng(3)
    for cartan, delta in [(A1, (1,)), (A2, (1, 0)), (B2, (0, 1))]:
        delta = weight(delta)
        g = build_growth_graph(cartan, "chamber", delta, 3)
        for n in range(1, 4):
            ndelta = weight([n * c for c in delta])
            for lam in g.levels[n]:
                for _ in range(3):
                    t = 0.01 + 0.99 * rng.random(cartan.rank)
                    val = evaluate_S(cartan, lam, ndelta, t)
                    shift = monomial(t, cartan.alpha_coords(
                        weight([nc - lc for nc, lc in zip(ndelta, lam)])))
                    assert 1.0 - 1e-12 <= val / shift <= weyl_dim(cartan, lam) + 1e-9


def test_exterior_powers_trivial_and_examples():
    assert exterior_power_char(A1, (1,), 0) == {wzero(1): 1}
    assert exterior_power_char(A1, (1,), 2) == {wzero(1): 1}
    assert exterior_power_char(A2, (1, 0), 2) == {weight((0, 1)): 1}


@pytest.mark.parametrize("cartan,delta", [
    (A1, (1,)), (A1, (2,)), (A2, (1, 0)), (A2, (1, 1)), (B2, (1, 0)), (B2, (0, 1)),
])
def test_exterior_power_coefficients_nonnegative_and_dim(cartan, delta):
    n = weyl_dim(cartan, weight(delta))
    for k in range(n + 1):
        dec = exterior_power_char(cartan, delta, k)
        assert all(isinstance(m, int) and m > 0 for m in dec.values())
        assert sum(m * weyl_dim(cartan, nu) for nu, m in dec.items()) == math.comb(n, k)


def test_wedge_weights_match_subset_sums():
    # brute subset-sum oracle on the 3-dimensional A2 fundamental
    ms = weight_multiplicities(A2, (1, 0)).entries
    letters = [g for g, m in sorted(ms.items()) for _ in range(m)]
    from itertools import combinations

    for k in range(4):
        brute = {}
        for combo in combinations(range(3), k):
            s = wzero(2)
            for i in combo:
                s = wadd(s, letters[i])
            brute[s] = brute.get(s, 0) + 1
        assert exterior_power_weights(A2, weight((1, 0)), k) == brute


def test_total_positivity_kmax1_values_nonnegative():
    rng = np.random.default_rng(11)
    for cartan, delta in [(A1, (1,)), (A2, (1, 0))]:
        w = cartan.elements[int(rng.integers(cartan.weyl_order))]
        seq = wedge_sequence_values(cartan, weight(delta), rng.random(cartan.rank), w)
        assert all(a >= -1e-15 for a in seq)


def test_total_positivity_a1_t1_explicit():
    # a = (1, 1, 1/4): explicit 2x2 minors of the Toeplitz matrix are >= 0
    seq = wedge_sequence_values(A1, weight((1,)), [1.0], A1.identity)
    assert seq == pytest.approx([1.0, 1.0, 0.25])
    assert total_positivity_min_minor(A1, (1,), [1.0], A1.identity, 3) >= -1e-15


def test_total_positivity_random_sweep_a2():
    rng = np.random.default_rng(5)
    delta = weight((1, 0))
    for _ in range(20):
        t = rng.random(2)
        w = A2.elements[int(rng.integers(6))]
        assert total_positivity_min_minor(A2, delta, t, w, 3) >= -1e-9


def test_character_json_export():
    ms = weight_multiplicities(A1, (1,))
    doc = [{"weight": [str(c) for c in gamma], "mult": m}
           for gamma, m in sorted(ms.entries.items())]
    assert doc == [{"weight": ["-1"], "mult": 1}, {"weight": ["1"], "mult": 1}]


def test_minor_report_rows():
    samples = [([1.0], A1.identity, 2), ([0.5], A1.simple_reflection(0), 2)]
    assert [w.word for _, w, _ in samples] == [(), (0,)]
    for t, w, kmax in samples:
        assert total_positivity_min_minor(A1, weight((1,)), t, w, kmax) >= -1e-9


def box_patterns(cartan, delta, rng):
    """One t per {0, 1, interior} pattern of each delta-admissible support."""
    out = []
    for adm in admissible_subsets(cartan, delta):
        for ones in itertools.product((False, True), repeat=len(adm.indices)):
            t = [0.0] * cartan.rank
            for i, one in zip(adm.indices, ones):
                t[i] = 1.0 if one else float(0.05 + 0.9 * rng.random())
            out.append(tuple(t))
    return out


def test_weyl_numerator_ratio_matches_direct_character():
    # Weyl character formula on the closed box: N_lambda(t)/N_0(t) = S_{lambda,lambda}(t)
    rng = np.random.default_rng(13)
    for cartan, delta, lams in [
            (A2, (1, 1), [(2, 1), (0, 3)]), (B2, (1, 0), [(1, 1), (2, 0)]),
            (G2, (1, 0), [(1, 0), (1, 1)]), (A3, (1, 0, 0), [(1, 0, 1), (0, 2, 0)]),
            (C3, (1, 0, 0), [(1, 1, 0), (0, 0, 1)])]:
        for t in box_patterns(cartan, delta, rng) + box_patterns(cartan, delta, rng):
            nums = weyl_numerator_batch(cartan, [weight(lam) for lam in lams]
                                        + [wzero(cartan.rank)], t)
            for lam, num in zip(lams, nums):
                assert num / nums[-1] == pytest.approx(evaluate_S(cartan, lam, lam, t),
                                                       rel=1e-12)


def test_weyl_numerator_does_not_depend_on_its_batch():
    # every entry of a batch has the bits of its singleton call, so one cache can
    # hold numerators from batches of any shape
    rng = np.random.default_rng(41)
    for cartan, delta in [(A2, (1, 1)), (B2, (1, 0)), (G2, (1, 0)), (A3, (1, 0, 0)),
                          (C3, (1, 0, 0))]:
        lams = [tuple(int(c) for c in rng.integers(0, 6, cartan.rank)) for _ in range(25)]
        for t in box_patterns(cartan, delta, rng):  # interior, face and t_i = 1
            batch = weyl_numerator_batch(cartan, lams, t).tolist()
            for lam, num in zip(lams, batch):
                assert num == weyl_numerator_batch(cartan, [lam], t)[0], (t, lam)


def test_weyl_numerator_empty_batch():
    for t in [(0.3, 0.4), (1.0, 0.4), (0.3, 0.0)]:
        assert weyl_numerator_batch(A2, [], t).shape == (0,)


def test_weyl_numerator_float_sum_is_exact_on_faces(monkeypatch):
    # at moderate t the float sum alone is right on faces and at t_i = 1: no
    # weight needs the exact re-summation
    monkeypatch.setattr(chars, "_exact_numerator", None)
    for cartan, lam in [(A2, (2, 1)), (B2, (1, 1)), (G2, (1, 0)), (A3, (1, 0, 1))]:
        for t in itertools.product((0.0, 0.4, 1.0), repeat=cartan.rank):
            num, den = weyl_numerator_batch(cartan, [lam, (0,) * cartan.rank], t)
            assert num / den == pytest.approx(evaluate_S(cartan, lam, lam, t), rel=1e-13)

