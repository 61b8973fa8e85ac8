"""Samplers for free and chamber walks under extremal central measures,
law-of-large-numbers checks, and exact equality in law for the Pitman chain
(a dynamic program over its causal states, never two-sample statistics).

RNG contract: numpy Generators seeded as default_rng([seed, rep]); per-rep
streams are independent and the whole report is reproducible from
(configuration, seed).  The chamber sampler walks on int weights and draws
each move by inverse CDF, bisect_right(cdf, rng.random()) over the CDF of
the measure's step table (CentralMeasure.table), whose probabilities kernel_row
returns, as Generator.choice(n, p=row) does; a row has the same bits whatever
rows or p values the measure built before it.  Rows hold on all of [0,1]^d,
faces (t_i = 0), t_i = 1 and t near 1 included.
"""

from __future__ import annotations

import csv
import io
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import EnumerationCap
from .rootdata import CartanDatum
from . import boundary, paths

LLN_PASS_THRESHOLD = 0.05  # at 5000 steps, about 3.5 standard errors (see lln_check)


@dataclass(frozen=True)
class Trajectory:
    """A sampled walk: crystal-letter indices and its positions at integer
    times, int tuples."""

    letters: tuple
    positions: tuple
    seed: object

    def empirical_drift(self):
        n = len(self.letters)
        end = self.positions[-1]
        return tuple(float(c) / n for c in end)


@dataclass(frozen=True)
class SimReport:
    n_steps: int
    n_reps: int
    empirical_drift: tuple
    target_drift: tuple
    max_deviation: float
    deviations: tuple
    threshold: float

    @property
    def passed(self) -> bool:
        return self.max_deviation < self.threshold


# -- sampling -------------------------------------------------------------------


def _free_letter_probs(point):
    """Probability of each crystal letter under the free measure at point."""
    arr = np.array([mono / point.s_delta for mono in point.letter_monomials])
    assert abs(arr.sum() - 1.0) < 1e-9
    return arr / arr.sum()


def sample_trajectory(measure, steps: int, seed) -> Trajectory:
    """Sample a length-`steps` walk under the measure, deterministic given seed.

    Free kind: i.i.d. crystal letters with probability K t^(delta - w gamma) /
    S_delta(t).  Chamber kind: Markov steps with the homogeneous kernel, then
    a uniformly random chamber-valid letter consistent with the move.
    """
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    rng = np.random.default_rng(seed)
    ends = paths._letter_table(measure.cartan, measure.delta)[0]
    lam = (0,) * measure.cartan.rank
    path = [lam]
    letters = []
    if measure.kind == "free":
        probs = _free_letter_probs(measure.point)
        draws = rng.choice(len(probs), size=steps, p=probs) if steps else []
        for b in draws:
            b = int(b)
            letters.append(b)
            lam = tuple(x + e for x, e in zip(lam, ends[b]))
            path.append(lam)
    else:
        # the measure's step tables are shared across its trajectories
        for _ in range(steps):
            mus, _, cdf, letter_lists = measure.table(lam)
            k = bisect_right(cdf, rng.random())
            valid = letter_lists[k]
            # integers(1) draws no bits, so a lone letter needs no call
            letters.append(valid[int(rng.integers(len(valid)))] if len(valid) > 1
                           else valid[0])
            lam = mus[k]
            path.append(lam)
    return Trajectory(letters=tuple(letters), positions=tuple(path), seed=seed)


def lln_check(measure, steps: int, reps: int, seed: int = 0) -> SimReport:
    """Check tau(n)/n against the drift, sup-norm per rep.

    The report passes below LLN_PASS_THRESHOLD: 0.05 at n = 5000 is about 3.5
    standard errors for increments bounded by the weight diameter of the
    letter alphabet, so a false failure is a < 1e-3 event per coordinate."""
    if steps < 1000:
        raise ValueError("LLN checks need at least 1000 steps")
    if reps < 1:
        raise ValueError("LLN checks need at least one rep")
    target = measure.point.drift
    deviations = []
    acc = np.zeros(len(target))
    for rep in range(reps):
        traj = sample_trajectory(measure, steps, seed=[seed, rep])
        emp = np.array(traj.empirical_drift())
        acc += emp
        deviations.append(float(np.max(np.abs(emp - np.array(target)))))
    return SimReport(
        n_steps=steps,
        n_reps=reps,
        empirical_drift=tuple(acc / reps),
        target_drift=tuple(float(x) for x in target),
        max_deviation=max(deviations),
        deviations=tuple(deviations),
        threshold=LLN_PASS_THRESHOLD,
    )


# -- exact equality in law ----------------------------------------------------------


def _pitman_law(cartan, delta, letter_probs, n, cap):
    """{endpoint: mass} of the free letter law pushed through the Pitman chain to
    time n, over levels of merged causal states (paths.pitman_step), <= cap each.
    Steps are cached for this call only; one first met in the last level is
    not stored, so it is computed again for each last-level state with the
    same gaps (A1 states share gaps with different endpoints; F4 (0,0,0,1)
    at n = 4 has none)."""
    letters = [(b, p) for b, p in enumerate(letter_probs) if p != 0.0]
    level = {((0,) * cartan.rank, (0,) * len(cartan.w0_word)): 1.0}
    steps = {}
    for k in range(1, n + 1):
        nxt = {}
        for (end, gaps), mass in level.items():
            for b, p in letters:
                hit = steps.get((gaps, b))
                if hit is None:
                    hit = paths.pitman_step(cartan, delta, gaps, b)
                    if k < n:
                        steps[gaps, b] = hit
                step, new_gaps = hit
                key = (tuple(x + y for x, y in zip(end, step)), new_gaps)
                nxt[key] = nxt.get(key, 0.0) + mass * p
            if len(nxt) > cap:
                raise EnumerationCap(f"level {k} has more than {cap} Pitman states")
        level = nxt
    law = {}
    for (end, _), mass in level.items():
        law[end] = law.get(end, 0.0) + mass
    return law


def pitman_equality_in_law(cartan: CartanDatum, delta, m, n: int,
                           cap: int = 10**6) -> float:
    """Total-variation distance between the Pitman-transformed free endpoint law
    and the chamber endpoint law (count times p(lambda, n)) at time n, exactly.

    m must lie in K(delta)+.  The free letter law goes through the chain along
    the fixed reduced word of w0 by a dynamic program over the chain's causal
    states (_pitman_law), equal to enumerating all |B(delta)|^n words."""
    point = boundary.chamber_point(cartan, delta, m)
    delta = point.delta
    chamber = boundary.CentralMeasure("chamber", point)
    pushed = _pitman_law(cartan, delta, _free_letter_probs(point), n, cap)
    assert all(cartan.is_dominant(end) for end in pushed)

    exact = {}
    for lam, cnt in paths.build_growth_graph(cartan, "chamber", delta, n).levels[n].items():
        exact[lam] = cnt * chamber._law(lam, n)

    tv = 0.0
    for lam in set(pushed) | set(exact):
        tv += abs(pushed.get(lam, 0.0) - exact.get(lam, 0.0))
    return 0.5 * tv


# -- exports --------------------------------------------------------------------------


def trajectory_csv(traj: Trajectory) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    rank = len(traj.positions[0])
    writer.writerow(["step"] + [f"omega_{i+1}" for i in range(rank)])
    for k, pos in enumerate(traj.positions):
        writer.writerow([k] + [str(c) for c in pos])
    return buf.getvalue()

