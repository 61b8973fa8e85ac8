"""Growth levels and the step rule against the builder with stored edges, the
level cache policy, read-only levels and negative levels."""

import functools
import operator

import numpy as np
import pytest

from weylwalks import (
    LevelCap,
    build_growth_graph,
    build_root_system,
    chars,
    count_paths,
    harmonic_function_check,
    harmonicity_residual,
    random_boundary_point,
    wadd,
)
from weylwalks.acceptance import suite_deltas
from weylwalks.boundary import CentralMeasure, central_measure, s_hat_t
from weylwalks.errors import DEFAULT_LEVEL_CAP
from weylwalks.montecarlo import pitman_equality_in_law
from weylwalks import paths
from weylwalks.paths import steps

A2 = build_root_system("A", 2)
A3 = build_root_system("A", 3)

CASES = [(cartan, delta, 6) for _, cartan, delta in suite_deltas()] + [(A3, (1, 0, 0), 8)]
IDS = [f"{c.family}{c.rank}-{','.join(map(str, d))}" for c, d, _ in CASES]


def reference_graph(cartan, kind, delta, n_max, level_cap=DEFAULT_LEVEL_CAP):
    """(levels, edges) as built with stored edges: every letter grouped by
    endpoint (free), or the chamber-valid letters out of each vertex, targets
    in first-letter order; edges[n][lam] the sorted (mu, e(lam, mu)) list."""
    ends, thresholds, _ = paths._letter_table(cartan, delta)
    levels, edges = [{(0,) * cartan.rank: 1}], []
    for n in range(n_max):
        nxt, out_edges = {}, {}
        for lam, cnt in levels[-1].items():
            row = {}
            for end, threshold in zip(ends, thresholds):
                if kind == "free" or all(map(operator.ge, lam, threshold)):
                    mu = tuple(map(operator.add, lam, end))
                    row[mu] = row.get(mu, 0) + 1
            out_edges[lam] = sorted(row.items())
            for mu, k in row.items():
                nxt[mu] = nxt.get(mu, 0) + cnt * k
        if len(nxt) > level_cap:
            raise LevelCap(f"level {n + 1} has {len(nxt)} vertices > cap {level_cap}")
        edges.append(out_edges)
        levels.append(nxt)
    return levels, edges


def add_left_to_right(terms):
    """The terms added in order, as the library does: from Python 3.12 the
    builtin sum compensates rounding, and these references are compared with ==."""
    return functools.reduce(operator.add, terms, 0)


def reference_residual(measure, n_max):
    levels, edges = reference_graph(measure.cartan, measure.kind, measure.delta, n_max + 1)
    worst = 0.0
    p_next = {lam: measure.p(lam, 0) for lam in levels[0]}
    for n in range(n_max + 1):
        p_cur, p_next = p_next, {mu: measure.p(mu, n + 1) for mu in levels[n + 1]}
        for lam in levels[n]:
            rhs = add_left_to_right(e * p_next[mu] for mu, e in edges[n][lam])
            worst = max(worst, abs(p_cur[lam] - rhs))
    return worst


def reference_harmonic_check(cartan, delta, t, n_max):
    cz = s_hat_t(cartan, delta, t)
    levels, edges = reference_graph(cartan, "chamber", delta, n_max + 1)
    lams = list(dict.fromkeys(lam for level in levels for lam in level))
    nums = chars.weyl_numerator_batch(chars.NumeratorPack(cartan, t),
                                      [(0,) * cartan.rank] + lams).tolist()
    s_val = {lam: num / nums[0] / chars.monomial(t, cartan.alpha_coords(lam))
             for lam, num in zip(lams, nums[1:])}
    worst = 0.0
    for n in range(n_max + 1):
        for lam in levels[n]:
            rhs = add_left_to_right(e * s_val[mu] for mu, e in edges[n][lam]) / cz
            worst = max(worst, abs(s_val[lam] - rhs))
    return worst


@pytest.mark.parametrize("cartan, delta, n_max", CASES, ids=IDS)
@pytest.mark.parametrize("kind", ["free", "chamber"])
def test_levels_and_steps_match_the_stored_edges(kind, cartan, delta, n_max):
    # levels equal with their insertion order; the step rule is the sorted edge list
    levels, edges = reference_graph(cartan, kind, delta, n_max)
    g = build_growth_graph(cartan, kind, delta, n_max)
    assert [list(level.items()) for level in g.levels] == \
        [list(level.items()) for level in levels]
    for n in range(n_max):
        for lam in g.levels[n]:
            row = [(wadd(lam, off), len(bs)) for off, bs in steps(cartan, kind, delta, lam)]
            assert row == sorted(row) == edges[n][lam]


@pytest.mark.parametrize("cartan, delta, n_max", CASES, ids=IDS)
@pytest.mark.parametrize("kind", ["free", "chamber"])
def test_harmonicity_residual_matches_the_stored_edges(kind, cartan, delta, n_max):
    rng = np.random.default_rng(5)
    for _ in range(2):
        point = random_boundary_point(cartan, delta, rng, chamber=(kind == "chamber"))
        assert harmonicity_residual(CentralMeasure(kind, point), n_max - 1) == \
            reference_residual(CentralMeasure(kind, point), n_max - 1)


@pytest.mark.parametrize("cartan, delta, n_max", CASES, ids=IDS)
def test_harmonic_function_check_matches_the_stored_edges(cartan, delta, n_max):
    rng = np.random.default_rng(6)
    for t in [tuple(0.05 + 0.95 * rng.random(cartan.rank)), (1.0,) * cartan.rank,
              (1.0,) + (0.4,) * (cartan.rank - 1)]:
        assert harmonic_function_check(cartan, delta, t, n_max - 1) == \
            reference_harmonic_check(cartan, delta, t, n_max - 1)


def test_cached_levels_still_meet_a_smaller_level_cap():
    # a build at the default cap keeps levels 0..10; smaller caps still raise
    # at the first level past them, with the same detail
    build_growth_graph(A2, "chamber", (1, 1), 10)
    for cap in (1, 2, 5, 8, 12, 20):
        try:
            reference_graph(A2, "chamber", (1, 1), 10, cap)
        except LevelCap as exc:
            with pytest.raises(LevelCap) as new:
                build_growth_graph(A2, "chamber", (1, 1), 10, cap)
            assert str(new.value) == str(exc)
        else:
            assert len(build_growth_graph(A2, "chamber", (1, 1), 10, cap).levels) == 11
    with pytest.raises(LevelCap, match=r"^level 3 has 8 vertices > cap 5$"):
        build_growth_graph(A2, "chamber", (1, 1), 10, 5)


def test_a_level_loop_computes_each_level_once(monkeypatch):
    # level n + 1 reads the step rule once per vertex of level n, and only once
    calls = []

    def counted(*args):
        calls.append(args)
        return steps(*args)

    monkeypatch.setattr(paths, "steps", counted)
    monkeypatch.setattr(paths, "_LEVELS", {})
    for n in range(1, 61):
        g = build_growth_graph(A2, "chamber", (1, 1), n)
        assert len(g.levels) == n + 1
        assert len(calls) == sum(map(len, g.levels[:n]))


def test_levels_are_read_only():
    # a caller cannot change the cached levels that later builds extend
    g = build_growth_graph(A2, "free", (1, 0), 2)
    with pytest.raises(TypeError):
        g.levels[2][(0, 0)] = 100
    assert g.levels[2] == {(2, 0): 1, (0, 1): 2, (1, -1): 2, (-2, 2): 1, (-1, 0): 2, (0, -2): 1}
    assert count_paths(A2, "free", (1, 0), (1, 0), 3) == 0


def test_count_paths_at_a_negative_level_is_a_value_error():
    with pytest.raises(ValueError, match="nonnegative"):
        count_paths(A2, "free", (1, 0), (0, 0), -1)


def test_growth_graph_at_a_negative_level_is_a_value_error():
    for kind in ("free", "chamber"):
        with pytest.raises(ValueError, match="nonnegative"):
            build_growth_graph(A2, kind, (1, 0), -3)


def test_pitman_law_at_a_negative_level_is_a_value_error():
    with pytest.raises(ValueError, match="nonnegative"):
        pitman_equality_in_law(A2, (1, 0), (0.3, 0.2), -1)


def test_harmonicity_residual_at_a_negative_level_is_a_value_error():
    for kind in ("free", "chamber"):
        measure = central_measure(A2, (1, 0), kind, (0.3, 0.2))
        for n_max in (-1, -2):
            with pytest.raises(ValueError, match="nonnegative"):
                harmonicity_residual(measure, n_max)
    with pytest.raises(ValueError, match="nonnegative"):
        harmonic_function_check(A2, (1, 0), (0.5, 0.5), -1)
