"""Characters: Freudenthal vs Weyl dimension, S-evaluations, tensor and wedge
decompositions with their exact oracles, total positivity."""

import itertools
import math
import warnings
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
    NumeratorPack,
    weyl_numerator_batch,
    wedge_sequence_values,
)
from weylwalks import chars
from weylwalks.paths import crystal
from weylwalks.polytope import admissible_subsets
from weylwalks.errors import DEFAULT_DIM_CAP, format_weight
from weylwalks.rootdata import _CLASSICAL, int_weight, wsub
A1 = build_root_system("A", 1)
A2 = build_root_system("A", 2)
B2 = build_root_system("B", 2)
G2 = build_root_system("G", 2)
A3 = build_root_system("A", 3)
C3 = build_root_system("C", 3)


def shifted_S(cartan, lam, mu, t):
    """The reference kernel S_{lambda,mu}(t) = sum_gamma K_{lambda,gamma} t^(mu - gamma):
    the table of V(lambda) with alpha(mu - lambda) added to every exponent row.
    OrderViolation unless mu - lambda is in Q+; at mu = lambda it is evaluate_S."""
    top = chars.check_weight(cartan, lam, DEFAULT_DIM_CAP)
    mu_int = int_weight(mu)
    shift = None if mu_int is None else chars.free_exponent(cartan, mu_int, cartan.identity,
                                                            1, top)
    if shift is None or min(shift) < 0:
        raise OrderViolation(
            f"{format_weight(mu)} is not >= {format_weight(top)} in the root order")
    exps, mults = chars._table_arrays(cartan, top)
    tv = np.asarray([float(x) for x in t], dtype=float)
    return float(np.dot(mults, np.prod(tv ** (exps + shift), axis=1)))


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
    assert sum(ms.entries.values()) == 8


def test_g2_seven_dimensional():
    d = g2_seven_dim()
    ms = weight_multiplicities(G2, d)
    assert sum(ms.entries.values()) == 7
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
    assert sum(weight_multiplicities(cartan, lam).entries.values()) == weyl_dim(cartan, lam)


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
        evaluate_S(A2, (100, 100), (0.3, 0.3))


def test_evaluate_S_at_ones_is_dimension():
    for cartan, lam in [(A1, (3,)), (A2, (1, 1)), (B2, (1, 0)), (G2, g2_seven_dim())]:
        val = evaluate_S(cartan, lam, [1.0] * cartan.rank)
        assert val == pytest.approx(weyl_dim(cartan, lam), rel=1e-12)


def test_evaluate_S_a1_closed_form():
    for t in [0.0, 0.25, 0.5, 1.0]:
        assert evaluate_S(A1, (1,), [t]) == pytest.approx(1 + t, abs=1e-15)


def test_evaluate_S_top_term_at_zero():
    for cartan, lam in [(A2, (1, 1)), (B2, (0, 1))]:
        assert evaluate_S(cartan, lam, [0.0] * cartan.rank) == 1.0


def test_evaluate_S_order_violation():
    # the shift alpha(mu - lambda) lives in the reference kernel only
    with pytest.raises(OrderViolation):
        shifted_S(A2, (1, 1), (0, 0), [0.5, 0.5])
    with pytest.raises(TypeError):
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
                assert shifted_S(cartan, lam, mu, t) == _fraction_table_S(cartan, lam, mu, t)
        for t in ts:
            assert evaluate_S(cartan, lam, t) == _fraction_table_S(cartan, lam, lam, t) \
                == shifted_S(cartan, lam, lam, t)


@pytest.mark.parametrize("family,rank,lam", [
    ("A", 2, (1, 1)), ("B", 2, (1, 0)), ("G", 2, (1, 0)), ("B", 3, (0, 0, 1)),
    ("D", 4, (1, 0, 0, 0)), ("F", 4, (0, 0, 0, 1))])
def test_module_table_is_an_int_table(family, rank, lam):
    cartan = build_root_system(family, rank)
    weights, exps, mults = chars._module_table(cartan, lam)
    rows = sorted(weight_multiplicities(cartan, lam).entries.items())
    assert weights == tuple(gamma for gamma, _ in rows)
    assert exps == tuple(cartan.int_alpha_coords(wsub(lam, gamma)) for gamma, _ in rows)
    assert mults == tuple(m for _, m in rows)
    assert all(type(x) is int for row in weights + exps + (mults,) for x in row)


def test_invalid_weights_raise_readable_invalid_weight():
    for lam in [(-1, 1), (Fraction(1, 2), 0), (1, 0, 0)]:
        with pytest.raises(InvalidWeight) as exc:
            evaluate_S(A2, lam, [0.5, 0.5])
        assert isinstance(exc.value, ValueError)
        assert "Fraction" not in str(exc.value)
    with pytest.raises(InvalidWeight, match=r"^\(1/2, 0\) is not a dominant integral"):
        weyl_dim(A2, (Fraction(1, 2), 0))
    with pytest.raises(OrderViolation, match=r"^\(1, 1\) is not >= \(2, 2\) in the root order$"):
        shifted_S(A2, (2, 2), weight((1, 1)), [0.5, 0.5])


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
            lhs = evaluate_S(cartan, lam, t) * evaluate_S(cartan, delta, t)
            rhs = sum(m * shifted_S(cartan, nu, wadd(lam, delta), t)
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
                    val = shifted_S(cartan, lam, ndelta, t)
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
    samples = [([1.0], A1.identity, 2), ([0.5], A1.element_of_word((0,)), 2)]
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
            nums = weyl_numerator_batch(NumeratorPack(cartan, t),
                                        [weight(lam) for lam in lams] + [wzero(cartan.rank)])
            for lam, num in zip(lams, nums):
                assert num / nums[-1] == pytest.approx(evaluate_S(cartan, lam, t),
                                                       rel=1e-12)


def test_weyl_numerator_does_not_depend_on_its_batch():
    # every entry of a batch has the bits of its singleton call, so one cache can
    # hold numerators from batches of any shape
    rng = np.random.default_rng(41)
    for cartan, delta in [(A2, (1, 1)), (B2, (1, 0)), (G2, (1, 0)), (A3, (1, 0, 0)),
                          (C3, (1, 0, 0))]:
        lams = [tuple(int(c) for c in rng.integers(0, 6, cartan.rank)) for _ in range(25)]
        for t in box_patterns(cartan, delta, rng):  # interior, face and t_i = 1
            batch = weyl_numerator_batch(NumeratorPack(cartan, t), lams).tolist()
            for lam, num in zip(lams, batch):
                assert num == weyl_numerator_batch(NumeratorPack(cartan, t), [lam])[0], (t, lam)


def test_weyl_numerator_empty_batch():
    for t in [(0.3, 0.4), (1.0, 0.4), (0.3, 0.0)]:
        assert weyl_numerator_batch(NumeratorPack(A2, t), []).shape == (0,)


@pytest.mark.parametrize("family,rank", sorted(_CLASSICAL))
def test_weyl_numerator_int64_limit(family, rank):
    # at the pack's limit the int64 exponent rows and pairings do not wrap: the
    # identity term, prod_{alpha in Phi_I^+} <lam + rho, alpha^vee>, is the whole
    # value (the other terms underflow); one past the limit is refused
    cartan = build_root_system(family, rank)
    for t in [(0.5,) * rank, (1.0,) + (0.5,) * (rank - 1)]:
        ones = tuple(i for i, x in enumerate(t) if x == 1.0)
        limit = chars._coset_pack(cartan, ones)[-1]
        shifted = (limit + 1,) * rank
        expected = math.prod(
            2 * cartan.pairing(shifted, a) / cartan.pairing(a, a) for a in cartan.positive_roots
            if all(c == 0 for k, c in enumerate(cartan.alpha_coords(a)) if k not in ones))
        (num,) = weyl_numerator_batch(NumeratorPack(cartan, t), [(limit,) * rank])
        assert num == pytest.approx(float(expected), rel=1e-12)
        with pytest.raises(InvalidWeight, match="overflows int64"):
            weyl_numerator_batch(NumeratorPack(cartan, t), [(0,) * (rank - 1) + (limit + 1,)])


def test_weyl_numerator_pairing_product_past_binary64():
    # at t = 1 an F4 numerator is one term, the product of 24 coroot pairings:
    # near lambda = 10^14 it passes the float range well inside the int64 limit
    # and is refused, naming the weight, without a RuntimeWarning
    f4 = build_root_system("F", 4)
    ones = (1.0,) * 4
    small, big = (1000,) * 4, (10**14,) * 4
    assert max(big) < chars._coset_pack(f4, (0, 1, 2, 3))[-1]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(InvalidWeight, match=r"^the Weyl numerator of \(100000000000000, "
                                                r"100000000000000, 100000000000000, "
                                                r"100000000000000\) overflows binary64"):
            weyl_numerator_batch(NumeratorPack(f4, ones), [small, big])
        (num,) = weyl_numerator_batch(NumeratorPack(f4, ones), [small])
    shifted = wadd(small, f4.rho)
    expected = math.prod(2 * f4.pairing(shifted, a) / f4.pairing(a, a)
                         for a in f4.positive_roots)
    assert num == pytest.approx(float(expected), rel=1e-12)


def test_weyl_numerator_float_sum_is_exact_on_faces(monkeypatch):
    # at moderate t the float sum alone is right on faces and at t_i = 1: no
    # weight needs the exact re-summation
    monkeypatch.setattr(chars, "_exact_sum", None)
    for cartan, lam in [(A2, (2, 1)), (B2, (1, 1)), (G2, (1, 0)), (A3, (1, 0, 1))]:
        for t in itertools.product((0.0, 0.4, 1.0), repeat=cartan.rank):
            num, den = weyl_numerator_batch(NumeratorPack(cartan, t), [lam, (0,) * cartan.rank])
            assert num / den == pytest.approx(evaluate_S(cartan, lam, t), rel=1e-13)


def _coset_sum_reference(cartan, lam, t):
    """N_lambda(t) term by term over the minimal coset representatives u of
    W_I\\W, I = {i : t_i = 1}, in integers over prod q_i^M_i, rounded once.  u is
    minimal iff u^-1(alpha_i) > 0 for i in I, i.e. iff <u(rho), alpha_i^vee> > 0."""
    ones = [i for i, x in enumerate(t) if x == 1.0]
    reps = [u for u in cartan.elements if all(cartan.apply(u, cartan.rho)[i] > 0 for i in ones)]
    units = [tuple(int(i == j) for j in range(cartan.rank)) for i in range(cartan.rank)]
    coroots = [[int(2 * cartan.pairing(e, a) / cartan.pairing(a, a)) for e in units]
               for a in cartan.positive_roots
               if all(c == 0 for k, c in enumerate(cartan.alpha_coords(a)) if k not in ones)]
    mu = tuple(c + 1 for c in lam)
    terms = []
    for u in reps:
        image = cartan.apply(u, mu)
        coef = cartan.det(u) * math.prod(sum(c * x for c, x in zip(row, image))
                                         for row in coroots)
        terms.append((coef, cartan.int_alpha_coords(wsub(mu, image))))
    ratios = [x.as_integer_ratio() for x in t]
    top = [max(e[i] for _, e in terms) for i in range(cartan.rank)]
    total = sum(coef * math.prod(p**k * q**(m - k) for (p, q), k, m in zip(ratios, e, top))
                for coef, e in terms)
    return total / math.prod(q**m for (_, q), m in zip(ratios, top))


@pytest.mark.parametrize("family,lam", [("B", (1, 0, 0, 0)), ("C", (1, 0, 0, 0)),
                                        ("D", (1, 0, 0, 0)), ("F", (0, 0, 0, 1))])
def test_rank_four_exact_numerator_is_the_coset_sum(monkeypatch, family, lam):
    # near t = 1 the float sum cancels: the exact path runs, and its value has
    # the bits of the per-representative integer sum
    cartan = build_root_system(family, 4)
    exact_sum, calls = chars._exact_sum, []
    monkeypatch.setattr(chars, "_exact_sum", lambda *a: calls.append(a) or exact_sum(*a))
    near = 1 - 1e-9
    for t in [(near,) * 4, (1 - 1e-7, near, 1 - 1e-8, near),  # interior
              (1.0, near, 1.0, near), (0.0, near, near, 1.0)]:  # t_i = 1, face
        for mu in (lam, (0,) * 4):
            before = len(calls)
            (num,) = weyl_numerator_batch(NumeratorPack(cartan, t), [mu])
            assert len(calls) == before + 1, (t, mu)
            assert num == _coset_sum_reference(cartan, mu, t), (t, mu)


@pytest.mark.parametrize("family,rank", [("A", 1), ("A", 2), ("B", 2), ("G", 2), ("A", 3),
                                         ("B", 3), ("D", 4)])
def test_weyl_numerator_is_one_past_the_deep_bound(family, rank):
    # for u != id, (lam+rho) - u(lam+rho) >= (lam_i+1) alpha_i for some i, so the
    # |W| - 1 other terms add up to at most (|W| - 1) max_i t_i^(lam_i+1): past
    # NumeratorPack.deep that is below 2^-55 and the batch returns exactly 1.0,
    # as the coset sum rounded once does; deep_i is the least such lam_i
    cartan = build_root_system(family, rank)
    rng = np.random.default_rng(31 + rank)
    bound = Fraction(2) ** -55
    for face in (False, True):
        for _ in range(3):
            t = [float(x) for x in 0.05 + 0.9 * rng.random(rank)]
            if face:
                t[int(rng.integers(rank))] = 0.0
            pack = NumeratorPack(cartan, t)
            assert len(pack.dets) == cartan.weyl_order
            for ti, d in zip(t, pack.deep):
                if ti == 0.0:
                    assert d == 0
                    continue
                assert (cartan.weyl_order - 1) * Fraction(ti) ** (d + 1) < bound * (1 + 1e-12)
                assert (cartan.weyl_order - 1) * Fraction(ti) ** d >= bound * (1 - 1e-12)
            near = [tuple(d + int(k) for d, k in zip(pack.deep, rng.integers(0, 3, rank)))
                    for _ in range(8)]
            far = [tuple(d + int(k) for d, k in zip(pack.deep, rng.integers(0, 10**6, rank)))
                   for _ in range(8)]
            assert weyl_numerator_batch(pack, near + far).tolist() == [1.0] * 16, t
            if rank < 4:
                assert all(_coset_sum_reference(cartan, lam, t) == 1.0 for lam in near[:3]), t


def test_weyl_numerator_has_no_deep_bound_at_one():
    # with some t_i = 1 the identity term is a product of coroot pairings, not 1
    for t in [(1.0, 0.3), (0.2, 1.0), (1.0, 1.0)]:
        assert NumeratorPack(A2, t).deep is None
    assert NumeratorPack(A2, (0.2, 0.0)).deep == (NumeratorPack(A2, (0.2, 0.3)).deep[0], 0)


def _parent_numerator_batch(cartan, lams, t):
    """The batch before NumeratorPack: every per-point table rebuilt per call and
    the exponents summed by numpy's reduction."""
    t = [float(x) for x in t]
    ones = tuple(i for i, x in enumerate(t) if x == 1.0)
    zeros = [i for i, x in enumerate(t) if x == 0.0]
    images, lifts, dets, coroots, guard, _ = chars._coset_pack(cartan, ones)
    x = np.array(lams, dtype=np.int64).reshape(-1, cartan.rank) + 1
    exps = (x @ lifts).reshape(len(lams), len(dets), cartan.rank)
    terms = np.exp((exps * np.log([ti if ti else 1.0 for ti in t])).sum(axis=2))
    if zeros:
        terms[(exps[:, :, zeros] > 0).any(axis=2)] = 0.0
    if ones:
        pairings = (x @ images).reshape(len(lams), len(dets), cartan.rank) @ np.array(coroots).T
        terms *= np.prod(pairings.astype(float), axis=2)
    nums = (terms * dets).sum(axis=1)
    return [num if num >= guard * s else None for num, s in zip(nums, terms.sum(axis=1))]


def test_numpy_sums_a_short_last_axis_left_to_right():
    # weyl_numerator_batch adds each exponent's rank products left to right in
    # place of numpy's sum over the last axis: equal up to the sign of a zero sum
    rng = np.random.default_rng(3)
    for rank in range(1, 5):
        logs = rng.integers(0, 60, (200, 24, rank)) * np.log(rng.random(rank))
        left = logs[..., 0]
        for i in range(1, rank):
            left = left + logs[..., i]
        assert (left == logs.sum(axis=2)).all()


@pytest.mark.parametrize("family,rank", [("A", 1), ("A", 2), ("B", 2), ("G", 2), ("A", 3),
                                         ("C", 3), ("B", 4), ("D", 4)])
def test_weyl_numerator_keeps_the_float_bits(family, rank):
    # the per-point tables come from the pack and the exponents add left to
    # right: every float-path numerator has the bits of the batch it replaced
    cartan = build_root_system(family, rank)
    rng = np.random.default_rng(47)
    for t in box_patterns(cartan, tuple([1] + [0] * (rank - 1)), rng):
        lams = [tuple(int(c) for c in rng.integers(0, 40, rank)) for _ in range(12)]
        got = weyl_numerator_batch(NumeratorPack(cartan, t), lams).tolist()
        for lam, num, ref in zip(lams, got, _parent_numerator_batch(cartan, lams, t)):
            assert ref is None or num.hex() == ref.hex(), (t, lam)
