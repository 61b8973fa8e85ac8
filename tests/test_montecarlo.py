"""Samplers, LLN checks, and exact Pitman equality in law."""

import json
import math
import warnings
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, product
from pathlib import Path

import numpy as np
import pytest

from weylwalks import (
    boundary_point,
    build_root_system,
    central_measure,
    lln_check,
    harmonic_function_check,
    harmonicity_residual,
    invert_drift,
    pitman_equality_in_law,
    random_boundary_point,
    sample_trajectory,
    weight,
    wsub,
    wzero,
)
from weylwalks import chars, paths, polytope
from weylwalks.chars import monomial
from weylwalks.boundary import CentralMeasure
from weylwalks.errors import EnumerationCap, InvalidWeight, NotDominantDrift
from weylwalks.montecarlo import (
    _free_letter_probs,
    _pitman_law,
    trajectory_csv,
)
from weylwalks.paths import (
    build_growth_graph,
    crystal,
    pitman_chain,
    pitman_step,
    pitman_transform,
    steps,
    word_path,
)
from weylwalks.rootdata import int_weight, wadd

from test_chars import box_patterns, shifted_S
from test_paths import fraction_floors

A1 = build_root_system("A", 1)
A2 = build_root_system("A", 2)
B2 = build_root_system("B", 2)
G2 = build_root_system("G", 2)
A3 = build_root_system("A", 3)
C3 = build_root_system("C", 3)
B3 = build_root_system("B", 3)
D4 = build_root_system("D", 4)


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


def chamber_measure(cartan, delta, t):
    return CentralMeasure("chamber", boundary_point(cartan, delta, t))


def test_chamber_stepper_matches_direct_kernel():
    # the one row builder (the sampler's step table, which kernel_row returns)
    # equals the positive-term kernel e S_{mu,lam+delta} / (S_delta S_lam) on
    # small vertices, on every {0, 1, interior} pattern of an admissible support
    rng = np.random.default_rng(13)
    for cartan, delta in [(A1, weight((2,))), (A2, weight((1, 1))), (B2, weight((1, 0)))]:
        g = build_growth_graph(cartan, "chamber", delta, 3)
        for t in box_patterns(cartan, delta, rng):
            meas = chamber_measure(cartan, delta, t)
            s_delta = chars.evaluate_S(cartan, delta, t)
            for n in range(3):
                for lam in g.levels[n]:
                    s_lam = chars.evaluate_S(cartan, lam, t)
                    target = tuple(a + b for a, b in zip(lam, delta))
                    direct = {}
                    for off, letters in steps(cartan, "chamber", delta, int_weight(lam)):
                        mu = wadd(lam, off)
                        val = len(letters) * shifted_S(cartan, mu, target, t) \
                            / (s_delta * s_lam)
                        if val:
                            direct[weight(mu)] = val
                    row = meas.kernel_row(lam)
                    mus, probs, _, _ = meas.table(int_weight(lam))
                    assert row == {weight(mu): q for mu, q in zip(mus, probs) if q}
                    assert set(row) == set(direct)
                    for mu, q in row.items():
                        assert q == pytest.approx(direct[mu], rel=1e-12, abs=1e-14)


def test_chamber_stepper_dimension_kernel_at_ones():
    meas = central_measure(A1, (1,), "chamber", (0,))
    assert meas.point.t == (1.0,)
    expected = {(4,): 5 / 8, (2,): 3 / 8}
    assert meas.kernel_row((3,)) == {mu: pytest.approx(p) for mu, p in expected.items()}


@pytest.mark.parametrize("cartan, delta", [
    (A2, (1, 1)), (B2, (1, 0)), (G2, (1, 0)), (A3, (1, 0, 0)), (C3, (1, 0, 0))])
def test_chamber_rows_sum_to_one_on_closed_box(cartan, delta):
    # sum_b t^(delta - e_b) N_{lam+e_b} = S_delta N_lam over the chamber-valid
    # letters, within 1e-12 before normalisation: on every {0, 1, interior}
    # pattern and on grids down to t = 1 - 1e-8
    rng = np.random.default_rng(31)
    ts = box_patterns(cartan, delta, rng)
    for k in range(1, 9):
        near = 1.0 - 10.0**-k
        ts.append((near,) * cartan.rank)
        ts.append(tuple(near if i % 2 else 1.0 - 0.5 * 10.0**-k
                        for i in range(cartan.rank)))
        ts.append((1.0,) + (near,) * (cartan.rank - 1))
        ts.append((near,) + (0.5,) * (cartan.rank - 1))
    lams = [lam for level in build_growth_graph(cartan, "chamber", delta, 4).levels
            for lam in level]
    lams.append(tuple(7 * c + 3 for c in delta))
    for t in ts:
        meas = chamber_measure(cartan, delta, t)
        for lam in lams:
            lam = int_weight(lam)
            moves = [(wadd(lam, off), bs) for off, bs in steps(cartan, "chamber", delta, lam)]
            nums = chars.weyl_numerator_batch(chars.NumeratorPack(cartan, t),
                                              [lam] + [mu for mu, _ in moves])
            total = sum(len(bs) * monomial(t, chars.free_exponent(
                            cartan, delta, cartan.identity, 1, wsub(mu, lam))) * num
                        for (mu, bs), num in zip(moves, nums[1:]))
            assert abs(total / (meas.point.s_delta * nums[0]) - 1.0) < 1e-12, (t, lam)
            meas.table(lam)  # asserts the same bound on its own row


def test_chamber_rows_stay_on_the_delta_module(monkeypatch):
    # at every t, a new sampler row makes at most one Weyl-numerator batch (the
    # two-step prefetch makes fewer batches than rows on an interior walk), and
    # no chamber law (p, kernel rows, harmonicity, the harmonic-function check,
    # Pitman) evaluates the character of a module beyond V(delta) or builds its table
    seen = []
    for name in ("evaluate_S", "_module_table", "_weight_multiplicities"):
        real = getattr(chars, name)
        monkeypatch.setattr(chars, name, lambda cartan, lam, *args, _real=real:
                            seen.append(int_weight(lam)) or _real(cartan, lam, *args))
    batches = []
    real_batch = chars.weyl_numerator_batch
    monkeypatch.setattr(chars, "weyl_numerator_batch", lambda *args:
                        batches.append(1) or real_batch(*args))
    for t in [(0.5, 0.0), (0.0, 1.0), (1.0, 0.3), (1.0, 1.0), (1.0 - 1e-8, 0.4),
              (0.3, 0.6)]:
        meas = chamber_measure(A2, (1, 1), t)
        batches.clear()
        sample_trajectory(meas, 60, seed=4)
        assert len(batches) <= len(meas.tables)
        if t == (0.3, 0.6):
            assert len(batches) < len(meas.tables)
        meas = chamber_measure(A2, (1, 1), t)
        for lam in [(0, 0), (1, 1), (3, 0), (2, 2), (40, 40)]:
            meas.p(lam, 70)
            meas.kernel_row(lam)
        harmonicity_residual(meas, 3)
    harmonic_function_check(A2, (1, 1), (0.6, 0.3), n_max=3)
    pitman_equality_in_law(A2, (1, 1), (0.2, 0.1), 3)
    assert set(seen) == {(1, 1)}


@pytest.mark.parametrize("cartan, delta", [
    (A2, (1, 1)), (B2, (1, 0)), (G2, (1, 0)), (A3, (1, 0, 0)), (A2, (2, 1))])
def test_chamber_rows_do_not_depend_on_history(cartan, delta):
    # one numerator cache serves every row: a fresh measure's rows have the same
    # bits whether the sampler builds them or kernel_row does, in a shuffled order
    rng = np.random.default_rng(37)
    for t in box_patterns(cartan, delta, rng):
        point = boundary_point(cartan, delta, t)
        walked = CentralMeasure("chamber", point)
        sample_trajectory(walked, 120, seed=8)
        lams = list(walked.tables)
        rng.shuffle(lams)
        direct = CentralMeasure("chamber", point)
        for lam in lams:
            direct.kernel_row(lam)
        assert direct.tables == walked.tables, t


WALK_GOLDEN = json.loads((Path(__file__).parent / "chamber_walk_golden.json").read_text())


@pytest.mark.parametrize("record", WALK_GOLDEN,
                         ids=lambda r: f"{r['type']}-{','.join(map(str, r['t']))}")
def test_chamber_walks_match_golden_letters(record):
    # the chamber sampler's RNG streams, pinned at an interior, a t_i = 1 and a
    # face point per type
    cartan = build_root_system(record["type"][0], int(record["type"][1:]))
    meas = chamber_measure(cartan, tuple(record["delta"]), tuple(record["t"]))
    traj = sample_trajectory(meas, 100, seed=record["seed"])
    assert list(traj.letters) == record["letters"]


def free_law_record(cartan, delta, t, word, seed):
    """The free law's floats as reprs: drift, s_delta, the t that inverts the
    drift, kernel rows out of 0 and one other weight, letter probabilities and a
    100-step walk's letters."""
    point = boundary_point(cartan, delta, t, cartan.element_of_word(word))
    meas = CentralMeasure("free", point)
    other = (1, -1) + (0,) * (cartan.rank - 2)
    return {
        "drift": [repr(x) for x in point.drift],
        "s_delta": repr(point.s_delta),
        "inverse_t": [repr(x) for x in invert_drift(cartan, delta, point.drift).t],
        "kernel_rows": [[[list(mu), repr(q)] for mu, q in sorted(meas.kernel_row(lam).items())]
                        for lam in [(0,) * cartan.rank, other]],
        "letter_probs": [repr(float(q)) for q in _free_letter_probs(point)],
        "letters": list(sample_trajectory(meas, 100, seed=seed).letters),
    }


FREE_GOLDEN = json.loads((Path(__file__).parent / "free_law_golden.json").read_text())


@pytest.mark.parametrize("record", FREE_GOLDEN,
                         ids=lambda r: f"{r['type']}-{','.join(map(str, r['t']))}")
def test_free_law_matches_golden_bits(record):
    # the free step law's bits, pinned at an interior point with w != identity, a
    # t_i = 1 point and a face point per type
    cartan = build_root_system(record["type"][0], int(record["type"][1:]))
    got = free_law_record(cartan, tuple(record["delta"]), tuple(record["t"]),
                          tuple(record["w_word"]), record["seed"])
    assert got == {key: record[key] for key in got}


def reference_chamber_walk(measure, steps, seed):
    """The sampler's previous algorithm: Generator.choice over the kernel row,
    then a uniform chamber-valid letter chosen by the Fraction floors."""
    cartan = measure.cartan
    rng = np.random.default_rng(seed)
    ends, floors = zip(*fraction_floors(cartan, measure.delta))
    lam = wzero(cartan.rank)
    letters, positions = [], [lam]
    for _ in range(steps):
        row = measure.kernel_row(lam)
        mus = list(row)
        mu = mus[int(rng.choice(len(mus), p=list(row.values())))]
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
    # interior t, one t_i = 1 and t = 1, several seeds each
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
            assert all(type(c) is int for pos in traj.positions for c in pos)


def test_negative_kernel_entry_is_rejected(monkeypatch):
    # a row that sums to 1 but has a negative entry fails as Generator.choice did
    meas = central_measure(A1, (1,), "chamber", (0.3,))
    row = meas.kernel_row((1,))
    (down, up), (p_down, p_up) = row.keys(), row.values()
    assert (down, up) == ((0,), (2,))
    meas = CentralMeasure("chamber", meas.point)  # no cached rows or numerators
    real = chars.weyl_numerator_batch
    skew = {(0,): -1.0, (2,): (1.0 + p_down) / p_up}  # the row out of (1,) still sums to 1

    def skewed(pack, lams):
        return real(pack, lams) * [skew.get(lam, 1.0) for lam in lams]

    monkeypatch.setattr(chars, "weyl_numerator_batch", skewed)
    with pytest.raises(ValueError, match="probabilities are not non-negative"):
        meas.kernel_row((1,))


def _parent_row(cartan, delta, point, lam):
    """The row builder before deep rows: every numerator from one batch and
    numpy's sum, as tests/chamber_walk_golden.json was recorded."""
    moves = steps(cartan, "chamber", delta, lam)
    mus = [wadd(lam, off) for off, _ in moves]
    n_lam, *nums = chars.weyl_numerator_batch(chars.NumeratorPack(cartan, point.t),
                                              [lam] + mus).tolist()
    scale = point.s_delta * n_lam
    probs = [len(bs) * point.letter_monomials[bs[0]] * n / scale
             for (_, bs), n in zip(moves, nums)]
    total = float(np.add.reduce(probs))
    probs = [q / total for q in probs]
    cdf = list(accumulate(probs))
    return mus, probs, [c / cdf[-1] for c in cdf], [bs for _, bs in moves]


@pytest.mark.parametrize("cartan,delta", [(A1, (1,)), (A1, (2,)), (A2, (1, 0)), (A2, (1, 1)),
                                          (B2, (1, 0)), (B2, (0, 1)), (G2, (1, 0)),
                                          (A3, (1, 0, 0))])
def test_deep_rows_share_the_parent_row_bitwise(monkeypatch, cartan, delta):
    # past the deep bound every numerator is 1.0: those rows share one
    # (probabilities, CDF, letters) and make no batch, and around the corner of
    # that region every row, shared or not, has the parent builder's bits
    rng = np.random.default_rng(17)
    cap = paths._letter_table(cartan, delta)[2]
    for face in (False, True):
        t = [float(x) for x in 0.15 + 0.7 * rng.random(cartan.rank)]
        if face:
            support = min(polytope.admissible_subsets(cartan, delta),
                          key=lambda a: len(a.indices)).indices
            t = [x if i in support else 0.0 for i, x in enumerate(t)]
        point = boundary_point(cartan, delta, t)
        corner = tuple(d + c for d, c in zip(point.numerator_pack.deep, cap))
        batches = []
        real = chars.weyl_numerator_batch
        monkeypatch.setattr(chars, "weyl_numerator_batch",
                            lambda *args: batches.append(1) or real(*args))
        meas = CentralMeasure("chamber", point)
        far = tuple(c + int(k) for c, k in zip(corner, rng.integers(0, 10**9, cartan.rank)))
        shared = [meas.table(corner), meas.table(far)]
        meas.numerator(far)
        assert batches == [] and shared[0][1] is shared[1][1]
        lams = [lam for ks in product(range(-2, 2), repeat=cartan.rank)
                if min(lam := tuple(c + k for c, k in zip(corner, ks))) >= 0]
        rows = [meas.table(lam) for lam in lams]
        monkeypatch.undo()
        for lam, row in zip([corner, far] + lams, shared + rows):
            assert row == _parent_row(cartan, delta, point, lam), (t, lam)


def test_deep_rows_keep_the_int64_limit():
    # a deep row whose two-step ball stays inside the int64 limit is served;
    # one past it is refused, as the batch refuses the ball
    meas = chamber_measure(A2, (1, 1), (0.3, 0.2))
    limit = meas.point.numerator_pack.limit
    mus, probs, _, _ = meas.table((limit - 4, limit - 4))
    assert max(map(max, mus)) == limit - 2 and probs is meas.table((60, 60))[1]
    for lam in [(limit - 3, limit - 3), (limit - 4, limit + 1), (2**62, 2**62)]:
        with pytest.raises(InvalidWeight, match="overflows int64"):
            meas.kernel_row(lam)
        if lam[0] == lam[1]:  # n delta - lam in the root lattice
            with pytest.raises(InvalidWeight, match="overflows int64"):
                meas.p(lam, 2**63)


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


def test_lln_requires_a_rep():
    # no rep used to divide by zero (RuntimeWarning) and then fail on max([])
    meas = central_measure(A1, (1,), "chamber", (0,))
    for reps in (0, -1):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="at least one rep"):
                lln_check(meas, 1000, reps)


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
    probs = _free_letter_probs(meas.point)
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


@pytest.mark.parametrize("cartan,delta", [(B3, (0, 0, 1)), (D4, (0, 1, 0, 0))])
def test_pitman_tv_beyond_rank_two(cartan, delta):
    rng = np.random.default_rng(41)
    pt = random_boundary_point(cartan, delta, rng, chamber=True,
                               force_support=range(cartan.rank), force_ones=())
    assert pitman_equality_in_law(cartan, delta, pt.drift, 3) < 1e-12


def test_pitman_rejects_nondominant():
    with pytest.raises(NotDominantDrift):
        pitman_equality_in_law(A1, (1,), (-0.5,), 2)


def test_pitman_enumeration_cap():
    with pytest.raises(EnumerationCap):
        pitman_equality_in_law(A2, (1, 0), (0, 0), 4, cap=10)


PITMAN_CASES = [(A1, (1,), 6), (A1, (2,), 4), (A2, (1, 0), 4), (A2, (1, 1), 3),
                (B2, (1, 0), 3), (B2, (0, 1), 3), (G2, (1, 0), 3)]


@lru_cache(maxsize=None)
def pitman_word_endpoints(cartan, delta, n):
    """Every length-n word with the endpoint of its path through pitman_chain."""
    return [(word, pitman_chain(cartan, word_path(cartan, delta, word)).endpoint())
            for word in product(range(len(crystal(cartan, delta).paths)), repeat=n)]


def enumerated_pitman_law(cartan, delta, probs, n):
    """Reference: the words' float letter probabilities multiplied and summed
    exactly per endpoint."""
    law = {}
    for word, end in pitman_word_endpoints(cartan, delta, n):
        law[end] = law.get(end, 0) + math.prod(Fraction(probs[b]) for b in word)
    return {end: mass for end, mass in law.items() if mass}


@pytest.mark.parametrize("cartan,delta,n", PITMAN_CASES)
def test_pitman_law_matches_word_enumeration(cartan, delta, n):
    # t = 1, interior t and faces: the dynamic program equals the enumeration
    rng = np.random.default_rng(29)
    delta = weight(delta)
    for t in box_patterns(cartan, delta, rng):
        probs = _free_letter_probs(boundary_point(cartan, delta, t))
        law = _pitman_law(cartan, int_weight(delta), probs, n, 10**6)
        reference = enumerated_pitman_law(cartan, delta, probs, n)
        assert set(law) == set(reference), t
        assert max(abs(law[end] - float(reference[end])) for end in law) < 1e-15, t


@pytest.mark.parametrize("cartan,delta,n", PITMAN_CASES)
def test_pitman_step_follows_the_chain_stage_by_stage(cartan, delta, n):
    # int states; summed steps end where pitman_chain ends, and gaps[s] is the
    # height of stage s's input above its running minimum, stages in order of
    # application
    delta = weight(delta)
    for word, end in pitman_word_endpoints(cartan, delta, n):
        gaps, total = (0,) * len(cartan.w0_word), (0,) * cartan.rank
        for b in word:
            step, gaps = pitman_step(cartan, delta, gaps, b)
            assert all(type(x) is int for x in step + gaps)
            total = tuple(x + y for x, y in zip(total, step))
        assert total == end
        path = word_path(cartan, delta, word)
        for i, gap in zip(reversed(cartan.w0_word), gaps):
            heights = [pos[i] for _, pos in path.breakpoints()]
            assert gap == heights[-1] - min(heights), word
            path = pitman_transform(cartan, path, i)


def test_pitman_step_refuses_non_integral_state():
    with pytest.raises(ValueError):
        pitman_step(A1, (1,), (Fraction(1, 2),), 0)


# -- exports ----------------------------------------------------------------------------


def test_trajectory_csv():
    meas = central_measure(A1, (1,), "chamber", (0,))
    traj = sample_trajectory(meas, 5, seed=1)
    text = trajectory_csv(traj)
    lines = text.strip().splitlines()
    assert lines[0] == "step,omega_1"
    assert len(lines) == 7
