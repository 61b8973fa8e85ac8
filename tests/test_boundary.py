"""Boundary points, the morphism values, drift inversion and central measures."""

import functools
import json
import math
import operator
import re
import time
from fractions import Fraction

import numpy as np
import pytest

from weylwalks import (
    DimensionCap,
    InvalidWeight,
    NoConvergence,
    NotAWeight,
    NotDominantDrift,
    NotInPolytope,
    OrderViolation,
    WeylWalksError,
    boundary_point,
    build_growth_graph,
    build_root_system,
    chars,
    c_harmonic_level,
    central_measure,
    dominant_faces,
    harmonic_function_check,
    harmonicity_residual,
    invert_drift,
    psi_eval,
    random_boundary_point,
    s_hat,
    s_hat_t,
    weight,
    weyl_dim,
    wzero,
)
import weylwalks.boundary as boundary_module
from weylwalks.boundary import (
    CentralMeasure,
    _face_newton,
    _law_value,
    kernel_rows_csv,
    stabilizer_set,
)
from weylwalks.errors import format_weight
from weylwalks.rootdata import check_rank, int_weight, wadd

A1 = build_root_system("A", 1)
A2 = build_root_system("A", 2)
B2 = build_root_system("B", 2)
G2 = build_root_system("G", 2)

G2_SEVEN = weight((1, 0)) if weyl_dim(G2, (1, 0)) == 7 else weight((0, 1))

SUITE = [
    (A1, weight((1,))),
    (A1, weight((2,))),
    (A2, weight((1, 0))),
    (A2, weight((1, 1))),
    (B2, weight((1, 0))),
    (B2, weight((0, 1))),
    (G2, G2_SEVEN),
]


# -- morphism values ---------------------------------------------------------------


def test_psi_at_all_ones_is_uniform():
    for cartan, delta in [(A1, (1,)), (A2, (1, 0))]:
        delta = weight(delta)
        pt = boundary_point(cartan, delta, [1.0] * cartan.rank)
        z = weyl_dim(cartan, delta)
        for n in range(1, 3):
            from weylwalks.paths import build_growth_graph

            g = build_growth_graph(cartan, "free", delta, n)
            for gamma in g.levels[n]:
                assert psi_eval(pt, gamma, n) == pytest.approx(z**-n, rel=1e-12)


def test_psi_a1_zero_parameter():
    pt = boundary_point(A1, (1,), [0.0])
    assert psi_eval(pt, (1,), 1) == 1.0


def test_psi_a1_half():
    pt = boundary_point(A1, (1,), [0.5])
    assert psi_eval(pt, (-1,), 1) == pytest.approx(1 / 3, rel=1e-14)


def test_psi_rejects_non_weights():
    pt = boundary_point(A1, (1,), [0.5])
    with pytest.raises(NotAWeight):
        psi_eval(pt, (2,), 1)


def test_psi_saturation_test_matches_path_counts():
    # gamma is a weight at level n iff the free growth graph reaches it; the
    # box holds half-integral points and points off the coset n delta + Q
    from itertools import product

    from weylwalks import chars
    from weylwalks.paths import count_paths

    rng = np.random.default_rng(3)
    for cartan, delta in SUITE:
        pt = random_boundary_point(cartan, delta, rng)
        box = [Fraction(k, 2) for k in range(-10, 11)]
        for n in range(5):
            for gamma in product(box, repeat=cartan.rank):
                reachable = count_paths(cartan, "free", delta, gamma, n) > 0
                try:
                    value = psi_eval(pt, gamma, n)
                except NotAWeight:
                    assert not reachable, (cartan, delta, gamma, n)
                    continue
                assert reachable, (cartan, delta, gamma, n)
                # the Fraction form of the exponent gives the same float
                ndelta = tuple(n * c for c in delta)
                e = cartan.alpha_coords(tuple(a - b for a, b in
                                              zip(ndelta, cartan.apply(pt.w, gamma))))
                assert value == _law_value(pt, e, n)
                assert value == pytest.approx(chars.monomial(pt.t, e) / pt.s_delta**n,
                                              rel=1e-14, abs=0.0)


def test_psi_not_a_weight_detail_is_readable():
    pt = boundary_point(A2, (1, 0), [0.5, 0.5])
    with pytest.raises(NotAWeight, match=r"^\(1/2, 0\) is not a weight at level 1$"):
        psi_eval(pt, (Fraction(1, 2), 0), 1)


def test_psi_multiplicative():
    rng = np.random.default_rng(1)
    from weylwalks.paths import build_growth_graph

    for cartan, delta in [(A2, weight((1, 0))), (B2, weight((0, 1)))]:
        pt = random_boundary_point(cartan, delta, rng)
        g = build_growth_graph(cartan, "free", delta, 4)
        levels = [sorted(g.levels[n]) for n in range(5)]
        for _ in range(20):
            n, m = int(rng.integers(1, 3)), int(rng.integers(1, 3))
            ga = levels[n][int(rng.integers(len(levels[n])))]
            gb = levels[m][int(rng.integers(len(levels[m])))]
            lhs = psi_eval(pt, tuple(a + b for a, b in zip(ga, gb)), n + m)
            rhs = psi_eval(pt, ga, n) * psi_eval(pt, gb, m)
            assert lhs == pytest.approx(rhs, rel=1e-12)


# -- drift --------------------------------------------------------------------------


def test_drift_at_ones_is_zero():
    for cartan, delta in SUITE:
        pt = boundary_point(cartan, delta, [1.0] * cartan.rank)
        assert max(abs(x) for x in pt.drift) < 1e-14


def test_drift_at_zeros_is_delta():
    for cartan, delta in SUITE:
        pt = boundary_point(cartan, delta, [0.0] * cartan.rank)
        assert pt.drift == tuple(float(c) for c in delta)


def x_i(cartan, delta, i):
    # projection of delta on the wall of alpha_i: delta - <delta, alpha_i^vee>/2 alpha_i
    shift = Fraction(delta[i], 2)
    return tuple(float(c - shift * a) for c, a in zip(delta, cartan.alpha[i]))


def test_drift_at_indicator_is_wall_projection():
    for cartan, delta in SUITE:
        for i in range(cartan.rank):
            if delta[i] == 0:
                continue
            t = [0.0] * cartan.rank
            t[i] = 1.0
            pt = boundary_point(cartan, delta, t, canonicalize=True)
            expected = x_i(cartan, delta, i)
            assert max(abs(a - b) for a, b in zip(pt.drift, expected)) < 1e-14


def test_drift_lands_in_w_inverse_chamber():
    rng = np.random.default_rng(2)
    for cartan, delta in SUITE:
        for _ in range(10):
            pt = random_boundary_point(cartan, delta, rng)
            m = pt.drift
            y = cartan.apply(pt.w, tuple(Fraction(x).limit_denominator(10**12)
                                         for x in m))
            assert all(float(c) > -1e-10 for c in y)


@pytest.mark.parametrize("cartan,delta", [(A1, weight((1,))), (A2, weight((1, 0))),
                                          (A2, weight((1, 1))), (B2, weight((0, 1)))])
def test_position_drift_equivalence_exhaustive(cartan, delta):
    # w'(M) dominant iff w' is in W_{S*} w, exhaustively over W (rank <= 2);
    # S* = 1(t) exactly when no face-orthogonality degeneracy occurs
    rng = np.random.default_rng(3)
    for _ in range(8):
        pt = random_boundary_point(cartan, delta, rng)
        stab = stabilizer_set(cartan, delta, pt.t)
        coset = {cartan.multiply(v, pt.w) for v in cartan.elements if set(v.word) <= set(stab)}
        m = pt.drift
        for wprime in cartan.elements:
            img = cartan.apply(wprime, tuple(Fraction(x).limit_denominator(10**12)
                                             for x in m))
            dominant = all(float(c) > -1e-10 for c in img)
            assert dominant == (wprime in coset)


def test_one_set_equals_stabilizer_without_degeneracy():
    # interior-support parameters: S* is exactly 1(t)
    rng = np.random.default_rng(4)
    for cartan, delta in SUITE:
        for _ in range(6):
            pt = random_boundary_point(cartan, delta, rng,
                                       force_support=range(cartan.rank))
            ones = tuple(i for i, x in enumerate(pt.t) if x == 1.0)
            assert stabilizer_set(cartan, delta, pt.t) == ones


def test_stabilizer_degenerate_case_a2():
    # t = 0: the located face is the vertex delta; alpha_2 is orthogonal to it
    assert stabilizer_set(A2, weight((1, 0)), (0.0, 0.0)) == (1,)


# -- drift inversion ----------------------------------------------------------------


def test_invert_origin_gives_all_ones():
    for cartan, delta in SUITE:
        pt = invert_drift(cartan, delta, wzero(cartan.rank))
        assert pt.t == (1.0,) * cartan.rank
        assert pt.w == cartan.identity


def test_invert_a1_closed_form():
    pt = invert_drift(A1, (1,), (Fraction(1, 3),))
    assert pt.t[0] == pytest.approx(0.5, abs=1e-12)


def test_invert_delta_gives_all_zeros():
    for cartan, delta in SUITE:
        pt = invert_drift(cartan, delta, delta)
        assert pt.t == (0.0,) * cartan.rank
        assert pt.w == cartan.identity


def test_invert_outside_raises():
    with pytest.raises(NotInPolytope):
        invert_drift(A2, (1, 0), (2, 0))


def random_interior_points(cartan, delta, count, seed):
    rng = np.random.default_rng(seed)
    orbit = cartan.orbit(delta)
    pts = []
    for _ in range(count):
        coeffs = rng.dirichlet(np.ones(len(orbit)) * 2.0)
        pts.append(tuple(
            float(sum(c * float(v[k]) for c, v in zip(coeffs, orbit)))
            for k in range(cartan.rank)))
    return pts


@pytest.mark.parametrize("cartan,delta", SUITE)
def test_round_trip_m_to_point_to_m(cartan, delta):
    for m in random_interior_points(cartan, delta, 15, seed=5):
        pt = invert_drift(cartan, delta, m)
        assert max(abs(a - b) for a, b in zip(pt.drift, m)) < 1e-8


@pytest.mark.parametrize("cartan,delta", SUITE)
def test_round_trip_point_to_m_to_point(cartan, delta):
    rng = np.random.default_rng(6)
    for _ in range(10):
        pt = random_boundary_point(cartan, delta, rng)
        back = invert_drift(cartan, delta, pt.drift)
        assert back.w == pt.w
        assert max(abs(a - b) for a, b in zip(back.t, pt.t)) < 1e-8


def test_newton_gradient_matches_finite_differences():
    # the gradient of log S_delta(e^u) is the alpha-coordinate vector of
    # delta - drift; compare against central differences
    from weylwalks.chars import evaluate_S

    rng = np.random.default_rng(7)
    for cartan, delta in [(A2, weight((1, 1))), (B2, weight((1, 0)))]:
        for _ in range(10):
            u = -2.0 * rng.random(cartan.rank)
            t = tuple(math.exp(x) for x in u)
            pt = boundary_point(cartan, delta, t, canonicalize=True)
            grad = cartan.alpha_coords(weight(
                [Fraction(dc) - Fraction(mc).limit_denominator(10**12)
                 for dc, mc in zip(delta, pt.drift)]))
            h = 1e-6
            for k in range(cartan.rank):
                up = u.copy(); up[k] += h
                dn = u.copy(); dn[k] -= h
                fd = (math.log(evaluate_S(cartan, delta, tuple(map(math.exp, up))))
                      - math.log(evaluate_S(cartan, delta, tuple(map(math.exp, dn))))) / (2 * h)
                assert fd == pytest.approx(float(grad[k]), abs=1e-6)


def test_log_partition_hessian_psd():
    from weylwalks.chars import _module_table
    from weylwalks.rootdata import int_weight

    rng = np.random.default_rng(8)
    for cartan, delta in [(A2, weight((1, 0))), (G2, G2_SEVEN)]:
        _, exps, mults = _module_table(cartan, int_weight(delta))
        exps, mults = np.array(exps, dtype=float), np.array(mults, dtype=float)
        for _ in range(10):
            u = -3.0 * rng.random(cartan.rank)
            z = exps @ u + np.log(mults)
            p = np.exp(z - z.max())
            p /= p.sum()
            mean = exps.T @ p
            centered = exps - mean
            hess = centered.T @ (centered * p[:, None])
            assert np.linalg.eigvalsh(hess).min() >= -1e-10


def test_face_newton_rejects_zero_target():
    with pytest.raises(NoConvergence):
        _face_newton(A2, weight((1, 0)), (0, 1), [0.5, 0.0])


# -- central measures -----------------------------------------------------------------


def test_chamber_requires_dominant_drift():
    # the detail prints m and delta as plain weights, as NotInPolytope does
    from weylwalks import pitman_equality_in_law
    with pytest.raises(NotDominantDrift, match=re.escape("(-0.5) is not in K(1)+")):
        central_measure(A1, (1,), "chamber", (-0.5,))
    m = (Fraction(-1, 5), Fraction(1, 5))
    for call in (lambda: central_measure(A2, (1, 0), "chamber", m),
                 lambda: s_hat(A2, (1, 0), m),
                 lambda: pitman_equality_in_law(A2, (1, 0), m, 2)):
        with pytest.raises(NotDominantDrift) as info:
            call()
        assert str(info.value) == "(-1/5, 1/5) is not in K(1, 0)+"


def test_a1_uniform_chamber_kernel():
    meas = central_measure(A1, (1,), "chamber", (0,))
    for k in range(5):
        row = meas.kernel_row((k,))
        up = row[weight((k + 1,))]
        assert up == pytest.approx((k + 2) / (2 * (k + 1)), rel=1e-12)
        assert sum(row.values()) == pytest.approx(1.0, rel=1e-12)


def test_free_uniform_increments_at_ones():
    meas = central_measure(A2, (1, 0), "free", (0, 0))
    row = meas.kernel_row(wzero(2))
    assert all(v == pytest.approx(1 / 3, rel=1e-12) for v in row.values())


def test_a1_level_two_probabilities():
    meas = central_measure(A1, (1,), "chamber", (0,))
    assert meas.p((2,), 2) == pytest.approx(3 / 4, rel=1e-12)
    assert meas.p((0,), 2) == pytest.approx(1 / 4, rel=1e-12)


def test_a1_chamber_p_closed_form_at_large_n():
    # S_{lam,lam}(t) = (1 - t^(lam+1)) / (1 - t) on V(lam) of sl2, and omega = alpha/2:
    # p(200, 300) = t^50 S_{200,200}(t) / (1 + t)^300, exact in Fractions
    lam, n = 200, 300
    for t in (0.05, 0.3, 0.5, 0.9, 1.0 - 1e-9, 1.0):
        meas = CentralMeasure("chamber", boundary_point(A1, (1,), (t,)))
        q = Fraction(t)
        s_lam = sum(q**k for k in range(lam + 1))
        exact = q ** ((n - lam) // 2) * s_lam / (1 + q) ** n
        assert meas.p((lam,), n) == pytest.approx(float(exact), rel=1e-12, abs=0.0)


def test_chamber_p_where_s_delta_power_overflows():
    # at t = 1, p(n delta, n) = dim V(n delta) / 8^n for the A2 adjoint; 8^342 =
    # 2^1026 overflows binary64 but the quotient is a normal float near 5.6e-302
    meas = central_measure(A2, (1, 1), "chamber", (0, 0))
    assert meas.point.t == (1.0, 1.0)
    n = 342
    exact = Fraction(weyl_dim(A2, (n, n)), 8**n)
    assert meas.p((n, n), n) == pytest.approx(float(exact), rel=1e-12, abs=0.0)


def test_chamber_laws_refuse_invalid_weights():
    meas = central_measure(A2, (1, 1), "chamber", (0.3, 0.3))
    for lam, detail in [((-1, 2), "(-1, 2) is not a dominant integral weight"),
                        ((Fraction(1, 2), 0), "(1/2, 0) is not a dominant integral weight"),
                        ((1,), "weight (1) has wrong rank")]:
        for law in (partial_p(meas, 3), meas.kernel_row):
            with pytest.raises(InvalidWeight, match=re.escape(detail)):
                law(lam)
    with pytest.raises(OrderViolation,
                       match=re.escape("(1, 1) is not >= (2, 2) in the root order")):
        meas.p((2, 2), 1)


def partial_p(meas, n):
    return lambda lam: meas.p(lam, n)


@pytest.mark.parametrize("kind", ["free", "chamber"])
def test_laws_refuse_weights_of_the_wrong_rank(kind):
    meas = CentralMeasure(kind, boundary_point(A2, (1, 0), (0.4, 0.3)))
    for lam in [(1,), (1, 0, 0)]:
        for law in (partial_p(meas, 1), meas.kernel_row):
            with pytest.raises(InvalidWeight, match="has wrong rank"):
                law(lam)


@pytest.mark.parametrize("m", [(0.1,), (0.1, 0.0, 0.0), (Fraction(1, 10),) * 3])
def test_drift_entry_points_refuse_m_of_the_wrong_rank(m):
    from weylwalks import dominant_representative, locate, pitman_equality_in_law

    for call in (lambda: invert_drift(A2, (1, 0), m),
                 lambda: central_measure(A2, (1, 0), "free", m),
                 lambda: central_measure(A2, (1, 0), "chamber", m),
                 lambda: s_hat(A2, (1, 0), m),
                 lambda: pitman_equality_in_law(A2, (1, 0), m, 2),
                 lambda: locate(A2, (1, 0), m),
                 lambda: dominant_representative(A2, m)):
        with pytest.raises(InvalidWeight, match="has wrong rank"):
            call()


def test_s_hat_t_refuses_t_of_the_wrong_length():
    for t in [(0.5,), (0.5, 0.5, 0.5), ()]:
        with pytest.raises(ValueError, match="wrong rank"):
            s_hat_t(A2, (1, 0), t)


def test_s_hat_t_refuses_t_outside_the_box():
    # outside [0,1]^d the formula returned a complex number or a finite value
    for t in [(-0.5, 0.5), (2.0, 0.5), (0.5, 1.0 + 2.0**-52), (math.nan, 0.5)]:
        with pytest.raises(ValueError, match=re.escape("is not in [0,1]^d")):
            s_hat_t(A2, (1, 0), t)


@pytest.mark.parametrize("kind", ["free", "chamber"])
def test_kernel_rows_and_delta_are_int_tuples(kind):
    meas = central_measure(G2, weight((1, 0)), kind, (0.2, 0.1))
    assert all(type(c) is int for c in meas.delta)
    for lam in [(0, 0), weight((2, 1)), (Fraction(3), 0)]:
        row = meas.kernel_row(lam)
        assert row and all(type(c) is int for mu in row for c in mu)


def test_chamber_marginal_masses_sum_to_one():
    from weylwalks.paths import build_growth_graph

    rng = np.random.default_rng(9)
    for cartan, delta in SUITE:
        pt = random_boundary_point(cartan, delta, rng, chamber=True)
        meas = CentralMeasure("chamber", pt)
        g = build_growth_graph(cartan, "chamber", delta, 4)
        for n in range(5):
            mass = sum(cnt * meas.p(lam, n) for lam, cnt in g.levels[n].items())
            assert mass == pytest.approx(1.0, abs=1e-12)


def test_harmonicity_residuals_random_points():
    rng = np.random.default_rng(10)
    for cartan, delta in [(A1, weight((1,))), (A2, weight((1, 0))),
                          (B2, weight((0, 1)))]:
        for kind in ("free", "chamber"):
            pt = random_boundary_point(cartan, delta, rng, chamber=(kind == "chamber"))
            meas = CentralMeasure(kind, pt)
            assert harmonicity_residual(meas, 3) < 1e-12


def test_harmonicity_a2_interior_example():
    pt = boundary_point(A2, (1, 0), (0.3, 0.7))
    meas = CentralMeasure("chamber", pt)
    assert harmonicity_residual(meas, 3) < 1e-12


def _add_left_to_right(terms):
    """The terms added in order, as the library does: from Python 3.12 the
    builtin sum compensates rounding, and these references are compared with ==."""
    return functools.reduce(operator.add, terms, 0)


def _per_edge_residual(measure, n_max):
    """Harmonicity residual with p evaluated once per incoming edge."""
    from weylwalks.paths import build_growth_graph, steps

    g = build_growth_graph(measure.cartan, measure.kind, measure.delta, n_max + 1)
    worst = 0.0
    for n in range(n_max + 1):
        for lam in g.levels[n]:
            lhs = measure.p(lam, n)
            rhs = _add_left_to_right(len(bs) * measure.p(wadd(lam, off), n + 1) for off, bs in
                                     steps(measure.cartan, measure.kind, measure.delta, lam))
            worst = max(worst, abs(lhs - rhs))
    return worst


def test_harmonicity_residual_matches_per_edge_reference():
    rng = np.random.default_rng(21)
    for cartan, delta in SUITE:
        for kind in ("free", "chamber"):
            pt = random_boundary_point(cartan, delta, rng, chamber=(kind == "chamber"))
            meas = CentralMeasure(kind, pt)
            assert harmonicity_residual(meas, 3) == _per_edge_residual(meas, 3)


def test_harmonicity_detector_catches_perturbation():
    pt = boundary_point(A1, (1,), (0.5,))
    meas = CentralMeasure("chamber", pt)

    class Broken:
        kind = meas.kind
        cartan = meas.cartan
        delta = meas.delta

        def p(self, lam, n):
            return meas.p(lam, n) + (1e-3 if n == 2 else 0.0)

    assert harmonicity_residual(Broken(), 3) >= 5e-4


def test_kernel_time_homogeneity():
    # Q computed from p-ratios at level n is independent of n and matches kernel_row
    from weylwalks.paths import build_growth_graph, steps

    rng = np.random.default_rng(11)
    for cartan, delta in [(A2, weight((1, 0))), (B2, weight((0, 1)))]:
        pt = random_boundary_point(cartan, delta, rng, chamber=True)
        meas = CentralMeasure("chamber", pt)
        g = build_growth_graph(cartan, "chamber", delta, 4)
        for n in range(3):
            for lam in g.levels[n]:
                p_lam = meas.p(lam, n)
                if p_lam == 0:
                    continue
                row = meas.kernel_row(lam)
                for off, bs in steps(cartan, "chamber", delta, lam):
                    mu = wadd(lam, off)
                    q_n = len(bs) * meas.p(mu, n + 1) / p_lam
                    assert q_n == pytest.approx(row.get(mu, 0.0), abs=1e-12)


# -- c-harmonic classification -----------------------------------------------------------


def test_s_hat_at_origin_is_dimension():
    for cartan, delta in SUITE:
        assert s_hat(cartan, delta, wzero(cartan.rank)) == pytest.approx(
            weyl_dim(cartan, delta), rel=1e-12)


def test_s_hat_infinite_on_boundary_faces():
    assert s_hat_t(A2, (1, 0), (0.0, 0.0)) == math.inf
    assert s_hat(A2, (1, 0), (1, 0)) == math.inf


def test_s_hat_minimum_at_ones():
    rng = np.random.default_rng(12)
    for cartan, delta in SUITE:
        z = weyl_dim(cartan, delta)
        assert s_hat_t(cartan, delta, (1.0,) * cartan.rank) == pytest.approx(z, rel=1e-12)
        for _ in range(10):
            t = 0.05 + 0.95 * rng.random(cartan.rank)
            assert s_hat_t(cartan, delta, t) >= z - 1e-9


def test_c_harmonic_classification():
    level = c_harmonic_level(A2, (1, 0), 0.5)
    assert level.kind == "empty" and level.sample_points(3) == []
    level = c_harmonic_level(A2, (1, 0), 1.0)
    assert level.kind == "singleton"
    (pt,) = level.sample_points(1)
    assert pt.t == (1.0, 1.0)
    level = c_harmonic_level(A2, (1, 0), 2.0)
    assert level.kind == "level"
    z = weyl_dim(A2, (1, 0))
    for pt in level.sample_points(4, seed=1):
        assert s_hat_t(A2, (1, 0), pt.t) == pytest.approx(2.0 * z, rel=1e-9)


@pytest.mark.parametrize("c", [math.nan, math.inf, 1e40])
def test_c_harmonic_level_refuses_unreachable_c(c):
    # NaN and inf are refused outright; 1e40 Z lies above s_hat on every ray's bracket
    start = time.perf_counter()
    with pytest.raises(ValueError):
        c_harmonic_level(A2, (1, 0), c).sample_points(1)
    assert time.perf_counter() - start < 1.0


def test_c_harmonic_level_samples_where_t_delta_underflows():
    # t^delta = t1^30 t2^30 is 0.0 in binary64 at the rays' ends (t_j = 1e-12), where
    # s_hat = S_delta / t^delta >= 1 / t^delta lies beyond the float range
    assert s_hat_t(A2, (30, 30), (1e-12, 0.5)) == math.inf
    z = weyl_dim(A2, (30, 30))
    points = c_harmonic_level(A2, (30, 30), 2.0).sample_points(2)
    assert len(points) == 2
    for pt in points:
        assert s_hat_t(A2, (30, 30), pt.t) == pytest.approx(2.0 * z, rel=1e-9)


def test_harmonic_function_check_examples():
    assert harmonic_function_check(A1, (1,), (1.0,)) < 1e-12
    assert harmonic_function_check(A1, (1,), (0.5,)) < 1e-12
    assert harmonic_function_check(A2, (1, 0), (0.9, 0.4)) < 1e-12
    for t in [(math.nan, 0.5), (0.5, math.nan), (0.5, 1.5)]:
        with pytest.raises(ValueError, match="half-open box"):
            harmonic_function_check(A2, (1, 0), t)
    with pytest.raises(ValueError):
        harmonic_function_check(A1, (1,), (0.0,))


def _batch_harmonic_function_check(cartan, delta, t, n_max=4):
    # the evaluator it replaced: its own level list and one numerator batch
    t = tuple(float(x) for x in t)
    cz = s_hat_t(cartan, delta, t)
    levels = build_growth_graph(cartan, "chamber", delta, n_max + 1).levels
    lams = list(dict.fromkeys(lam for level in levels for lam in level))
    nums = chars.weyl_numerator_batch(chars.NumeratorPack(cartan, t),
                                      [(0,) * cartan.rank] + lams).tolist()
    s_val = {lam: num / nums[0] / chars.monomial(t, cartan.alpha_coords(lam))
             for lam, num in zip(lams, nums[1:])}
    return boundary_module._harmonic_residual(cartan, "chamber", delta, n_max,
                                              lambda lam, n: s_val[lam], cz)


@pytest.mark.parametrize("cartan, delta, t", [
    (A2, (1, 0), (1.0, 1.0)), (A2, (1, 0), (0.5, 0.8)), (A2, (1, 0), (0.9, 0.4)),
    (A1, (1,), (1.0,)), (A1, (1,), (0.5,)), (G2, G2_SEVEN, (0.7, 0.2)),
], ids=["A2-ones", "A2-demo", "A2-example", "A1-ones", "A1-half", "G2"])
def test_harmonic_function_check_reads_the_chamber_numerators(cartan, delta, t):
    # a numerator's value does not depend on the batch it came from
    assert harmonic_function_check(cartan, delta, t) == \
        _batch_harmonic_function_check(cartan, delta, t)
    # delta = 0 is no boundary point (the batch evaluator returns 0.0)
    with pytest.raises(ValueError, match="restricted box"):
        harmonic_function_check(cartan, (0,) * cartan.rank, t)


# -- validation and exports ------------------------------------------------------------


def test_boundary_point_validation():
    with pytest.raises(ValueError):
        boundary_point(A2, (1, 0), (0.0, 0.5))  # support not admissible
    for t in [(math.nan, 0.5), (0.5, math.nan), (math.inf, 0.5), (-1e-300, 0.5)]:
        with pytest.raises(ValueError, match="restricted box"):
            boundary_point(A2, (1, 0), t)
    s2 = A2.element_of_word((1,))
    with pytest.raises(ValueError):
        boundary_point(A2, (1, 0), (0.0, 0.0), s2)  # s2 stabilizes the face
    pt = boundary_point(A2, (1, 0), (0.0, 0.0), s2, canonicalize=True)
    assert pt.w == A2.identity


@pytest.mark.parametrize("call", [
    lambda delta: boundary_point(A2, delta, (0.5, 0.5)),
    lambda delta: stabilizer_set(A2, delta, (0.5, 0.0)),
    lambda delta: invert_drift(A2, delta, (0, 0)),
    lambda delta: dominant_faces(A2, delta),
], ids=["boundary_point", "stabilizer_set", "invert_drift", "dominant_faces"])
def test_entry_points_refuse_delta_over_dimension_cap(call):
    # each reads the table of V(delta), which is never built over the cap
    start = time.perf_counter()
    with pytest.raises(DimensionCap):
        call((200, 200))
    assert time.perf_counter() - start < 1.0


def test_measure_json_and_kernel_csv():
    meas = central_measure(A1, (1,), "chamber", (Fraction(1, 3),))
    doc = json.loads(json.dumps(meas.to_jsonable(), sort_keys=True))
    assert doc["type"] == "A1" and doc["kind"] == "chamber"
    assert doc["t"] == [repr(0.5)]
    csv_text = kernel_rows_csv(meas, [(0,), (1,)])
    lines = csv_text.strip().splitlines()
    assert lines[0] == "lambda,mu,probability"
    assert len(lines) == 1 + 1 + 2  # one row from 0, two rows from omega1


# -- the law evaluators against the formulas they replaced -----------------------


def _reference_exponent(cartan, delta, w, n, gamma):
    # alpha(n delta - w gamma) through apply and int_alpha_coords
    wg = cartan.apply(w, gamma)
    return cartan.int_alpha_coords(tuple(n * d - x for d, x in zip(delta, wg)))


def _reference_law_value(t, e, n, s_delta, log_factor=0.0):
    # every log recomputed per call
    if any(k and ti == 0.0 for ti, k in zip(t, e)):
        return 0.0
    try:
        return math.exp(log_factor - (n * math.log(s_delta) if s_delta != 1.0 else 0.0)
                        + _add_left_to_right(k * math.log(ti) for ti, k in zip(t, e)
                                             if k and ti != 1.0))
    except OverflowError:
        return 0.0


def _reference_psi(point, gamma, n):
    cartan = point.cartan
    check_rank(cartan, gamma)
    g = int_weight(gamma)
    below = None if g is None else \
        _reference_exponent(cartan, point.delta, cartan.identity, n, cartan.descend(g)[0])
    if below is None or min(below) < 0:
        raise NotAWeight(f"{format_weight(gamma)} is not a weight at level {n}")
    e = _reference_exponent(cartan, point.delta, point.w, n, g)
    return _reference_law_value(point.t, e, n, point.s_delta)


def _reference_p(meas, lam, n):
    cartan, point = meas.cartan, meas.point
    if meas.kind == "free":
        return _reference_psi(point, lam, n)
    top = chars.check_weight(cartan, lam)
    ndelta = tuple(n * c for c in meas.delta)
    shift = cartan.int_alpha_coords(tuple(m - c for m, c in zip(ndelta, top)))
    if shift is None or any(k < 0 for k in shift):
        raise OrderViolation(
            f"{format_weight(ndelta)} is not >= {format_weight(top)} in the root order")
    num = meas.numerator
    return _reference_law_value(point.t, shift, n, point.s_delta,
                                math.log(num(top) / num((0,) * len(top))))


def _reference_free_row(point, lam):
    check_rank(point.cartan, lam)
    start = int_weight(lam)
    if start is None:
        raise NotAWeight(f"{format_weight(lam)} is not an integral weight")
    _, _, mults = chars._module_table(point.cartan, point.delta)
    return {wadd(start, g): q for k, (g, mono) in zip(mults, point.monomials.items())
            if (q := k * mono / point.s_delta)}


def _outcome(law, *args):
    try:
        return law(*args)
    except WeylWalksError as exc:
        return type(exc).__name__, str(exc)


LAW_CASES = [
    (A2, (1, 1), [(0.3, 0.6), (1.0, 0.45), (0.6, 0.0), (0.0, 0.0), (1.0, 1.0)]),
    (B2, (1, 0), [(0.3, 0.6), (0.45, 1.0), (0.6, 0.0), (0.0, 0.0), (1.0, 1.0)]),
    (G2, (1, 0), [(0.3, 0.6), (1.0, 0.35), (0.6, 0.0), (0.0, 0.0), (1.0, 1.0)]),
    (build_root_system("A", 3), (1, 0, 0),
     [(0.3, 0.6, 0.8), (0.5, 1.0, 0.25), (0.5, 0.3, 0.0), (0.0, 0.0, 0.0)]),
]


@pytest.mark.parametrize("cartan, delta, ts", LAW_CASES,
                         ids=[f"{c.family}{c.rank}" for c, _, _ in LAW_CASES])
def test_law_evaluators_match_the_per_call_formulas_bitwise(cartan, delta, ts):
    # interior, t_i = 1, face, vertex and t = 1 points, each with w = identity
    # and with a w != identity; every growth-graph weight to level 5 and weights
    # that raise NotAWeight, InvalidWeight or OrderViolation
    rank = cartan.rank
    odd = (Fraction(1, 2),) + (0,) * (rank - 1)
    for t in ts:
        for w in (cartan.identity, cartan.element_of_word((1, 0))):
            point = boundary_point(cartan, delta, t, w, canonicalize=True)
            kinds = ["free"] + (["chamber"] if point.w == cartan.identity else [])
            for kind in kinds:
                meas = CentralMeasure(kind, point)
                graph = build_growth_graph(cartan, kind, delta, 5)
                calls = [(lam, n) for n in range(6) for lam in graph.levels[n]]
                calls += [(tuple(n * c for c in delta), n) for n in (400, 10**400 + 1)]
                calls += [(odd, 2), ((1,) * (rank + 1), 2), ((-1,) + (0,) * (rank - 1), 1),
                          (tuple(3 * c for c in delta), 2), ((0,) * rank, 1)]
                for lam, n in calls:
                    # free p is psi_eval
                    assert _outcome(meas.p, lam, n) == _outcome(_reference_p, meas, lam, n), \
                        (t, w.word, kind, lam, n)
                    if kind == "free":
                        assert _outcome(meas.kernel_row, lam) == \
                            _outcome(_reference_free_row, point, lam)


def _zeros_law_value(point, e, n, log_factor=0.0):
    # the evaluator with a separate table of zero coordinates and an early return
    if any(e[i] for i, x in enumerate(point.t) if x == 0.0):
        return 0.0
    log_s = point.log_s_delta
    try:
        return math.exp(log_factor - (n * log_s if log_s else 0.0)
                        + boundary_module._sum_in_order(
                            e[i] * math.log(x) for i, x in enumerate(point.t)
                            if x not in (0.0, 1.0) and e[i]))
    except OverflowError:
        return 0.0


@pytest.mark.parametrize("cartan, delta, ts", LAW_CASES,
                         ids=[f"{c.family}{c.rank}" for c, _, _ in LAW_CASES])
def test_face_points_read_log_zero_as_minus_infinity(cartan, delta, ts):
    from itertools import product

    for t in ts:
        point = boundary_point(cartan, delta, t)
        assert point.log_t == tuple((i, math.log(x) if x else -math.inf)
                                    for i, x in enumerate(point.t) if x != 1.0)
        if 0.0 not in point.t:
            continue
        zero = point.t.index(0.0)
        exps = list(product(range(3), repeat=cartan.rank))
        exps += [tuple(big if i == zero else 1 for i in range(cartan.rank))
                 for big in (10**6, 10**400)]
        for e in exps:
            for n in (0, 1, 7, 10**6, 10**400):
                for log_factor in (0.0, -1.5, 2.0):
                    assert _law_value(point, e, n, log_factor) == \
                        _zeros_law_value(point, e, n, log_factor), (t, e, n, log_factor)


@pytest.mark.parametrize("cartan, delta, ts", LAW_CASES,
                         ids=[f"{c.family}{c.rank}" for c, _, _ in LAW_CASES])
def test_free_exponent_matches_apply_and_root_coordinates(cartan, delta, ts):
    rng = np.random.default_rng(7)
    for w in cartan.elements:
        for _ in range(10):
            gamma = tuple(int(x) for x in rng.integers(-9, 10, cartan.rank))
            n = int(rng.integers(0, 12))
            assert chars.free_exponent(cartan, delta, w, n, gamma) == \
                _reference_exponent(cartan, delta, w, n, gamma)


def test_laws_and_residuals_keep_their_bits_under_a_compensated_sum(monkeypatch):
    # the builtin sum compensates float rounding from Python 3.12 on; the laws
    # and residuals add left to right, so a compensated sum changes no bit
    a3 = build_root_system("A", 3)
    delta = (1, 0, 0)

    def values():
        out = []
        for t in ((0.3, 0.6, 0.8), (0.9, 0.8, 0.7)):
            for kind, w in (("free", a3.element_of_word((1, 0))), ("chamber", a3.identity)):
                meas = CentralMeasure(kind, boundary_point(a3, delta, t, w, canonicalize=True))
                graph = build_growth_graph(a3, kind, delta, 6)
                out += [meas.p(lam, n) for n in range(7) for lam in graph.levels[n]]
                out.append(harmonicity_residual(meas, 5))
        return out

    expected = values()
    monkeypatch.setattr(boundary_module, "sum", math.fsum, raising=False)
    assert values() == expected


@pytest.mark.parametrize("cartan, delta, m", [
    (build_root_system("A", 3), (1, 0, 0), (0.9999999974881136, 0, 0)),
    (build_root_system("F", 4), (0, 0, 0, 1), (0, 0, 0, 0.999999999)),
])
def test_inversion_leaving_the_box_is_no_convergence(cartan, delta, m):
    with pytest.raises(NoConvergence, match=r"^t_\d = .* left the box$") as exc:
        invert_drift(cartan, delta, m)
    assert sorted(exc.value.diagnostics) == ["support", "t_i", "target"]
    assert exc.value.diagnostics["t_i"] > 1.0 + 1e-6


def test_pairwise_sum_matches_numpy_bitwise():
    # chamber rows sum their probabilities with numpy's pairwise sum in plain
    # Python: the bits of np.add.reduce for lengths 1-300, mixed signs and
    # magnitudes and signed zeros; a left-to-right sum differs past 7 terms
    rng = np.random.default_rng(8)
    differs = 0
    for n in range(1, 301):
        for _ in range(12):
            xs = rng.choice([-1.0, 1.0], n) * rng.random(n) * 10.0 ** rng.integers(-12, 13, n)
            if rng.random() < 0.2:
                xs[rng.random(n) < 0.5] = rng.choice([0.0, -0.0])
            xs = xs.tolist()
            got = boundary_module._pairwise_sum(xs)
            assert got.hex() == float(np.add.reduce(xs)).hex(), xs
            differs += got != _add_left_to_right(xs)
    assert differs > 1000
