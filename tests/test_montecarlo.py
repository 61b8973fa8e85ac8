"""Samplers, LLN checks, and exact Pitman equality in law."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from weylwalks import (
    boundary_point,
    build_root_system,
    central_measure,
    lln_check,
    pitman_equality_in_law,
    random_boundary_point,
    sample_trajectory,
    weight,
    wsub,
    wzero,
)
from weylwalks import chars
from weylwalks.boundary import CentralMeasure
from weylwalks.errors import EnumerationCap, NotDominantDrift
from weylwalks.montecarlo import (
    _ChamberStepper,
    _free_letter_probs,
    trajectory_csv,
)
from weylwalks.paths import _letter_data, build_growth_graph, crystal

A1 = build_root_system("A", 1)
A2 = build_root_system("A", 2)
B2 = build_root_system("B", 2)
G2 = build_root_system("G", 2)
A3 = build_root_system("A", 3)


def interior_measure(cartan, delta, kind, seed=0):
    rng = np.random.default_rng(seed)
    pt = random_boundary_point(cartan, delta, rng, chamber=(kind == "chamber"),
                               force_support=range(cartan.rank), force_ones=())
    return CentralMeasure(kind, pt)


# -- samplers -------------------------------------------------------------------


def test_sampler_deterministic():
    meas = interior_measure(A2, weight((1, 0)), "chamber")
    t1 = sample_trajectory(meas, 50, seed=123)
    t2 = sample_trajectory(meas, 50, seed=123)
    assert t1 == t2
    t3 = sample_trajectory(meas, 50, seed=124)
    assert t1 != t3


def test_chamber_trajectory_stays_dominant():
    for meas in [interior_measure(A2, weight((1, 0)), "chamber", 1),
                 central_measure(A1, (1,), "chamber", (0,))]:
        traj = sample_trajectory(meas, 200, seed=7)
        cb = crystal(meas.cartan, meas.delta)
        for pos in traj.positions:
            assert meas.cartan.is_dominant(pos)
        # letters are consistent with the positions
        for k, b in enumerate(traj.letters):
            assert traj.positions[k + 1] == tuple(
                a + c for a, c in zip(traj.positions[k],
                                      cb.paths[b].endpoint()))


def test_free_letter_frequencies_uniform_at_ones():
    meas = central_measure(A2, (1, 0), "free", (0, 0))
    steps = 10000
    traj = sample_trajectory(meas, steps, seed=11)
    counts = np.bincount(traj.letters, minlength=3)
    # binomial 3-sigma band around steps/3
    sigma = math.sqrt(steps * (1 / 3) * (2 / 3))
    assert all(abs(c - steps / 3) < 3.5 * sigma for c in counts)


def test_free_sampler_mean_matches_drift():
    meas = interior_measure(B2, weight((0, 1)), "free", 3)
    traj = sample_trajectory(meas, 4000, seed=5)
    emp = traj.empirical_drift()
    assert max(abs(a - b) for a, b in zip(emp, meas.point.drift)) < 0.08


def test_chamber_stepper_matches_direct_kernel():
    # the Weyl-numerator fast path equals the S-ratio kernel on small vertices
    rng = np.random.default_rng(13)
    for cartan, delta in [(A1, weight((2,))), (A2, weight((1, 1))), (B2, weight((1, 0)))]:
        pt = random_boundary_point(cartan, delta, rng, chamber=True,
                                   force_support=range(cartan.rank), force_ones=())
        meas = CentralMeasure("chamber", pt)
        stepper = _ChamberStepper(meas)
        assert not stepper.all_ones and not stepper.has_zero
        g = build_growth_graph(cartan, "chamber", delta, 3)
        for n in range(3):
            for lam in g.levels[n]:
                mus, probs = stepper.row(lam)
                direct = meas.kernel_row(lam)
                for mu, q in zip(mus, probs):
                    assert q == pytest.approx(direct.get(mu, 0.0),
                                              rel=1e-5, abs=1e-7)


def test_chamber_stepper_dimension_kernel_at_ones():
    meas = central_measure(A1, (1,), "chamber", (0,))
    stepper = _ChamberStepper(meas)
    assert stepper.all_ones
    mus, probs = stepper.row(weight((3,)))
    expected = {weight((4,)): 5 / 8, weight((2,)): 3 / 8}
    assert {mu: pytest.approx(p) for mu, p in zip(mus, probs)} == expected


def reference_chamber_walk(measure, steps, seed):
    """The sampler's previous algorithm: Generator.choice over the kernel row,
    then a uniform chamber-valid letter chosen by the Fraction floors."""
    cartan = measure.cartan
    rng = np.random.default_rng(seed)
    ends, floors = _letter_data(cartan, measure.delta)
    stepper = _ChamberStepper(measure)
    lam = wzero(cartan.rank)
    letters, positions = [], [lam]
    for _ in range(steps):
        mus, probs = stepper.row(lam)
        mu = mus[int(rng.choice(len(mus), p=probs))]
        eps = wsub(mu, lam)
        valid = [b for b, end in enumerate(ends)
                 if end == eps and all(lam[k] + floors[b][k] >= 0
                                       for k in range(cartan.rank))]
        letters.append(valid[int(rng.integers(len(valid)))])
        lam = mu
        positions.append(lam)
    return tuple(letters), tuple(positions)


@pytest.mark.parametrize("cartan, delta", [
    (A1, (2,)), (A2, (1, 1)), (B2, (1, 0)), (G2, (1, 0)), (A3, (1, 0, 0))])
def test_chamber_sampler_matches_reference_loop(cartan, delta):
    # interior t, one t_i = 1 (the nudged branch) and t = 1, several seeds each
    rng = np.random.default_rng(29)
    ts = [tuple(float(0.15 + 0.7 * rng.random()) for _ in range(cartan.rank))
          for _ in range(2)]
    if cartan.rank > 1:
        ts.append((1.0,) + ts[0][1:])
    ts.append((1.0,) * cartan.rank)
    for t in ts:
        meas = CentralMeasure("chamber", boundary_point(cartan, delta, t,
                                                        cartan.identity))
        for seed in (0, 1, [5, 3]):
            traj = sample_trajectory(meas, 150, seed=seed)
            assert (traj.letters, traj.positions) == \
                reference_chamber_walk(meas, 150, seed)
            assert all(type(c) is Fraction for pos in traj.positions for c in pos)


def test_negative_kernel_entry_is_rejected(monkeypatch):
    # a row that sums to 1 but has a negative entry fails as Generator.choice did
    meas = central_measure(A1, (1,), "chamber", (0.3,))
    (down, up), (p_down, p_up) = _ChamberStepper(meas).row(weight((1,)))
    assert (down, up) == (weight((0,)), weight((2,)))
    real = chars.weyl_numerator_batch

    def skewed(cartan, lams, log_t):
        nums = real(cartan, lams, log_t)
        if len(lams) == 3:  # the row out of (1,): lam, then targets (0,), (2,)
            nums[1] *= -1.0
            nums[2] *= (1.0 + p_down) / p_up
        return nums

    monkeypatch.setattr(chars, "weyl_numerator_batch", skewed)
    with pytest.raises(ValueError, match="probabilities are not non-negative"):
        sample_trajectory(meas, 5, seed=0)


def test_chamber_sampler_endpoint_distribution():
    # empirical endpoint law at small n vs the exact marginal, TV < 4/sqrt(N)
    meas = interior_measure(A2, weight((1, 0)), "chamber", 5)
    n, reps = 3, 20000
    counts = {}
    rng_seeds = range(reps)
    # one long walk per rep is wasteful; sample endpoints by simulating n steps
    for rep in rng_seeds:
        traj = sample_trajectory(meas, n, seed=[99, rep])
        end = traj.positions[-1]
        counts[end] = counts.get(end, 0) + 1
    g = build_growth_graph(A2, "chamber", weight((1, 0)), n)
    exact = {lam: cnt * meas.p(lam, n) for lam, cnt in g.levels[n].items()}
    tv = 0.5 * sum(abs(counts.get(lam, 0) / reps - exact.get(lam, 0.0))
                   for lam in set(counts) | set(exact))
    assert tv < 4 / math.sqrt(reps)


# -- LLN ------------------------------------------------------------------------------


def test_lln_requires_enough_steps():
    meas = central_measure(A1, (1,), "chamber", (0,))
    with pytest.raises(ValueError):
        lln_check(meas, 10, 1)


def test_lln_chamber_small():
    meas = interior_measure(A2, weight((1, 0)), "chamber", 8)
    report = lln_check(meas, 2000, 2, seed=42)
    assert report.passed
    assert report.n_reps == 2 and len(report.deviations) == 2
    # reproducibility
    report2 = lln_check(meas, 2000, 2, seed=42)
    assert report == report2


def test_lln_free_exact_mean():
    # the free walk has i.i.d. increments with mean exactly the drift
    meas = interior_measure(A2, weight((1, 0)), "free", 9)
    probs = _free_letter_probs(meas)
    cb = crystal(A2, weight((1, 0)))
    mean = np.zeros(2)
    for b, p in enumerate(probs):
        mean += p * np.array([float(c) for c in cb.paths[b].endpoint()])
    assert np.max(np.abs(mean - np.array(meas.point.drift))) < 1e-12


def test_lln_at_origin():
    meas = central_measure(A1, (1,), "chamber", (0,))
    report = lln_check(meas, 5000, 1, seed=3)
    assert report.max_deviation < 0.05


# -- Pitman equality in law ---------------------------------------------------------------


def test_pitman_tv_a1_uniform_n2():
    tv = pitman_equality_in_law(A1, (1,), (0,), 2)
    assert tv < 1e-14
    # and the pushed distribution is the documented {2w1: 3/4, 0: 1/4}
    meas = central_measure(A1, (1,), "chamber", (0,))
    assert meas.p((2,), 2) * 1 == pytest.approx(3 / 4)


def test_pitman_tv_single_letter():
    for cartan, delta in [(A1, (1,)), (A2, (1, 0)), (B2, (0, 1))]:
        assert pitman_equality_in_law(cartan, weight(delta),
                                      wzero(cartan.rank), 1) < 1e-14


def test_pitman_tv_interior_points():
    rng = np.random.default_rng(17)
    for cartan, delta, n in [(A1, weight((1,)), 5), (A2, weight((1, 0)), 3)]:
        pt = random_boundary_point(cartan, delta, rng, chamber=True,
                                   force_support=range(cartan.rank), force_ones=())
        tv = pitman_equality_in_law(cartan, delta, pt.drift, n)
        assert tv < 1e-12


@pytest.mark.parametrize("delta", [weight((1, 0)), weight((0, 1))])
def test_pitman_tv_b2_full_sweep(delta):
    # uniform parameter plus two random interior drifts, all n <= 3
    rng = np.random.default_rng(23)
    targets = [wzero(2)]
    for _ in range(2):
        pt = random_boundary_point(B2, delta, rng, chamber=True,
                                   force_support=(0, 1), force_ones=())
        targets.append(pt.drift)
    for m in targets:
        for n in range(1, 4):
            assert pitman_equality_in_law(B2, delta, m, n) < 1e-12


def test_pitman_rejects_nondominant():
    with pytest.raises(NotDominantDrift):
        pitman_equality_in_law(A1, (1,), (-0.5,), 2)


def test_pitman_enumeration_cap():
    with pytest.raises(EnumerationCap):
        pitman_equality_in_law(A2, (1, 0), (0, 0), 4, cap=10)


# -- exports ----------------------------------------------------------------------------


def test_trajectory_csv_and_report_json():
    meas = central_measure(A1, (1,), "chamber", (0,))
    traj = sample_trajectory(meas, 5, seed=1)
    text = trajectory_csv(traj)
    lines = text.strip().splitlines()
    assert lines[0] == "step,omega_1"
    assert len(lines) == 7
    report = lln_check(meas, 1000, 1, seed=1)
    doc = json.dumps(report.to_jsonable(), sort_keys=True)
    assert '"passed"' in doc
