"""Weight polytope: admissible subsets, dominant faces, exact point location.

The exact simplex (the hull oracle) is cross-checked against an independent
dominance-order characterization of hull membership and against an exact
monotone-chain hull on rank-2 cases; point location, which uses the dominance
cone, is cross-checked against the simplex on the orbit and on each face.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from weylwalks import (
    NotInPolytope,
    admissible_subsets,
    build_root_system,
    dominant_faces,
    in_unit_box_delta,
    locate,
    weight,
    weight_multiplicities,
    wsub,
)
from weylwalks import chars
from weylwalks.polytope import (
    FLOAT_SNAP,
    admissible_depths,
    face_lattice_jsonable,
    face_rows,
    hull_contains,
    is_admissible,
    l1_infeasibility,
    snap_coords,
)
from weylwalks.rootdata import dominant_representative

A1 = build_root_system("A", 1)
A2 = build_root_system("A", 2)
B2 = build_root_system("B", 2)
G2 = build_root_system("G", 2)
A3 = build_root_system("A", 3)
B3 = build_root_system("B", 3)
C3 = build_root_system("C", 3)
D4 = build_root_system("D", 4)
F4 = build_root_system("F", 4)


# -- exact feasibility core -------------------------------------------------------


def test_l1_infeasibility_basic():
    cols = [(Fraction(0),), (Fraction(1),)]
    assert l1_infeasibility(cols, (Fraction(1, 2),)) == 0
    assert l1_infeasibility(cols, (Fraction(2),)) == 1
    assert l1_infeasibility(cols, (Fraction(-1),)) == 1


def test_hull_contains_triangle():
    cols = [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)),
            (Fraction(0), Fraction(1))]
    assert hull_contains(cols, (Fraction(1, 3), Fraction(1, 3)))
    assert hull_contains(cols, (Fraction(1, 2), Fraction(1, 2)))  # edge point
    assert not hull_contains(cols, (Fraction(2, 3), Fraction(2, 3)))


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def monotone_chain_hull(points):
    """Convex hull of integer points in the plane: counter-clockwise vertices,
    collinear points dropped, by Andrew's monotone chain in exact integers."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def half(seq):
        chain = []
        for p in seq:
            while len(chain) >= 2 and _cross(chain[-2], chain[-1], p) <= 0:
                chain.pop()
            chain.append(p)
        return chain[:-1]

    return half(pts) + half(pts[::-1])


def test_hull_against_monotone_chain_random_polygons():
    rng = np.random.default_rng(0)
    for _ in range(10):
        pts = [tuple(int(x) for x in p) for p in rng.integers(-5, 6, size=(6, 2))]
        hull = monotone_chain_hull(pts)
        assert len(hull) >= 3
        cols = [tuple(Fraction(x) for x in p) for p in pts]
        for _ in range(10):
            q = tuple(int(x) for x in rng.integers(-6, 7, size=2))
            # orientation of q against each ccw edge: all > 0 inside, any < 0 outside
            side = min(_cross(a, b, q) for a, b in zip(hull, hull[1:] + hull[:1]))
            if side == 0:
                continue  # skip boundary draws
            assert hull_contains(cols, tuple(Fraction(x) for x in q)) == (side > 0)


def dominance_hull_oracle(cartan, delta, m):
    """Independent membership test: the dominant representative y of m lies in
    K(delta) iff delta - y is a nonnegative real combination of simple roots."""
    y, _ = dominant_representative(cartan, m)
    return all(c >= 0 for c in cartan.alpha_coords(wsub(weight(delta), y)))


@pytest.mark.parametrize("cartan,delta", [
    (A1, (2,)), (A2, (1, 0)), (A2, (1, 1)), (B2, (1, 0)), (G2, (1, 0)),
    (A3, (1, 0, 0)), (B3, (0, 0, 1)), (C3, (1, 0, 0)), (D4, (1, 0, 0, 0)),
    (F4, (0, 0, 0, 1)),
])
def test_hull_matches_dominance_oracle(cartan, delta):
    rng = np.random.default_rng(42)
    delta = weight(delta)
    orbit = cartan.orbit(delta)
    for _ in range(25):
        raw = rng.integers(-3, 4, size=cartan.rank)
        den = int(rng.integers(1, 4))
        m = tuple(Fraction(int(x), den) for x in raw)
        assert hull_contains(orbit, m) == dominance_hull_oracle(cartan, delta, m)


# -- admissible subsets --------------------------------------------------------------


def test_admissible_a2_omega1_matches_known_list():
    subsets = [a.indices for a in admissible_subsets(A2, (1, 0))]
    assert subsets == [(), (0,), (0, 1)]


def test_admissible_a2_omega2_by_symmetry():
    subsets = [a.indices for a in admissible_subsets(A2, (0, 1))]
    assert subsets == [(), (1,), (0, 1)]


@pytest.mark.parametrize("cartan,delta", [(A2, (1, 1)), (B2, (1, 1)), (G2, (1, 1))])
def test_regular_delta_gives_all_subsets(cartan, delta):
    assert len(admissible_subsets(cartan, delta)) == 2**cartan.rank


def test_admissible_subsets_are_searched_once_per_delta(monkeypatch):
    # locate reads the subsets of one search per (type, delta); each call of
    # admissible_subsets still returns a fresh list
    from weylwalks import polytope

    points = [(0, 1, 0), (Fraction(1, 2), 0, 0), (0.1, 0.2, 0.3), (0, 0, 0)]
    expected = [locate(B3, (0, 1, 0), m) for m in points]
    polytope._admissible_subsets.cache_clear()
    searches = []
    real = polytope.admissible_depths
    monkeypatch.setattr(polytope, "admissible_depths",
                        lambda *args: searches.append(args) or real(*args))
    for _ in range(3):
        assert [locate(B3, (0, 1, 0), m) for m in points] == expected
    assert len(searches) == 2**B3.rank
    admissible_subsets(B3, (0, 1, 0)).clear()
    assert [a.indices for a in admissible_subsets(B3, weight((0, 1, 0)))] == \
        [(), (1,), (0, 1), (1, 2), (0, 1, 2)]
    assert len(searches) == 2**B3.rank


def test_depths_a2_omega1():
    depths = admissible_depths(A2, weight((1, 0)), (0, 1))
    assert depths == {0: 1, 1: 2}


def test_is_admissible_edge_cases():
    assert is_admissible(A2, weight((1, 0)), ())
    assert not is_admissible(A2, weight((1, 0)), (1,))
    assert is_admissible(G2, weight((1, 0)), (0, 1))


def test_indices_outside_the_rank_are_not_admissible():
    assert not is_admissible(A2, (1, 0), (2,))
    assert not is_admissible(A2, (1, 0), (-1, 0))
    assert admissible_depths(A2, (1, 0), (-1, 0)) == {0: 1}


# -- dominant faces -------------------------------------------------------------------


def test_face_of_empty_set_is_vertex():
    faces = dominant_faces(A2, (1, 0))
    f0 = faces[0]
    assert f0.admissible.indices == ()
    assert f0.vertices == (weight((1, 0)),)
    assert f0.dim() == 0
    assert f0.face_weights == (weight((1, 0)),)


def test_face_segment_a2():
    faces = {f.admissible.indices: f for f in dominant_faces(A2, (1, 0))}
    seg = faces[(0,)]
    assert set(seg.vertices) == {weight((1, 0)), weight((-1, 1))}
    assert seg.dim() == 1


@pytest.mark.parametrize("cartan,delta", [
    (A1, (1,)), (A1, (2,)), (A2, (1, 0)), (A2, (1, 1)), (B2, (1, 0)), (B2, (0, 1)),
    (G2, (1, 0)),
])
def test_face_bijection_and_dimensions(cartan, delta):
    delta = weight(delta)
    adms = admissible_subsets(cartan, delta)
    faces = dominant_faces(cartan, delta)
    assert len(faces) == len(adms)
    assert len({f.vertices for f in faces}) == len(faces)  # injective on vertex sets
    for f in faces:
        assert f.dim() == len(f.admissible.indices)
        # full set gives the whole weight multiset
        if len(f.admissible.indices) == cartan.rank:
            assert set(f.face_weights) == set(weight_multiplicities(cartan, delta).entries)


@pytest.mark.parametrize("cartan,delta", [(A2, (1, 0)), (B2, (0, 1)), (G2, (1, 0))])
def test_face_weights_equal_hull_slice(cartan, delta):
    # Pi_F computed by support equals Pi_delta intersected with the face hull
    delta = weight(delta)
    ms = weight_multiplicities(cartan, delta)
    for f in dominant_faces(cartan, delta):
        by_hull = tuple(sorted(
            g for g in ms.entries if hull_contains(f.vertices, g)))
        assert by_hull == f.face_weights


def _numpy_face_rows(cartan, delta, support):
    """The face rule as a numpy mask over the exponent array, as earlier versions
    computed it."""
    weights, exps, mults = chars._module_table(cartan, delta)
    exps, mults = np.array(exps, dtype=np.int64), np.array(mults, dtype=float)
    on = ~exps[:, [k for k in range(cartan.rank) if k not in support]].any(axis=1)
    return tuple(g for g, keep in zip(weights, on.tolist()) if keep), exps[on], mults[on]


@pytest.mark.parametrize("cartan,delta", [
    (A1, (2,)), (A2, (1, 1)), (B2, (1, 0)), (G2, (1, 0)), (A3, (1, 0, 1)), (B3, (0, 0, 1)),
    (C3, (1, 0, 0)), (D4, (1, 0, 0, 0)), (F4, (0, 0, 0, 1))])
def test_face_rows_match_the_numpy_mask(cartan, delta):
    for adm in admissible_subsets(cartan, delta):
        weights, exps, mults = face_rows(cartan, delta, adm.indices)
        ref_weights, ref_exps, ref_mults = _numpy_face_rows(cartan, delta, adm.indices)
        assert weights == ref_weights
        assert [list(row) for row in exps] == ref_exps.tolist()
        assert list(mults) == ref_mults.tolist()
        assert all(type(x) is int for row in exps + (mults,) for x in row)


def test_face_lattice_jsonable():
    doc = face_lattice_jsonable(dominant_faces(A2, (1, 0)))
    assert [d["subset"] for d in doc] == [[], [1], [1, 2]]
    assert [d["dim"] for d in doc] == [0, 1, 2]


# -- point location --------------------------------------------------------------------


def test_locate_vertex_delta():
    res = locate(A2, (1, 0), (1, 0))
    assert res.inside and res.y == weight((1, 0))
    assert res.w == A2.identity
    assert res.face.indices == ()


def test_locate_outside_raises():
    with pytest.raises(NotInPolytope):
        locate(A2, (1, 0), (2, 0))
    res = locate(A2, (1, 0), (2, 0), strict=False)
    assert not res.inside and res.face is None


def test_locate_origin_a1():
    res = locate(A1, (1,), (0,))
    assert res.inside and res.face.indices == (0,)
    assert res.w == A1.identity


def test_locate_face_empty_iff_vertex():
    delta = weight((1, 0))
    for v in A2.orbit(delta):
        res = locate(A2, delta, v)
        assert res.face.indices == ()
    res = locate(A2, delta, (Fraction(1, 2), 0))
    assert res.face.indices != ()


def test_locate_float_inputs_snap():
    res = locate(A2, (1, 0), (0.3333333333333333, 0.1))
    assert res.inside
    # snapped to the exact rational 1/3
    assert res.y[0] == Fraction(1, 3) or res.y == res.y


def test_locate_float_near_boundary():
    # a point 1e-12 outside the hull still passes under the float slack
    res = locate(A1, (1,), (1.0 + 1e-12,))
    assert res.inside


@pytest.mark.parametrize("cartan,delta", [
    (A2, (1, 0)), (B2, (0, 1)), (G2, (1, 0)), (A3, (0, 1, 0)), (B3, (0, 0, 1)),
])
@pytest.mark.parametrize("eps,inside", [(1e-12, True), (1e-6, False)])
def test_locate_float_slack_on_both_sides(cartan, delta, eps, inside):
    # y0 = delta - c delta_i alpha_i lies on the edge [delta, s_i delta] with
    # generic float coordinates, so snapping keeps the push (1 + eps) y0, which
    # leaves K(delta) by about eps on every other simple-root coordinate
    delta = weight(delta)
    i = next(k for k, d in enumerate(delta) if d)
    c = 1 / math.pi
    y0 = tuple(float(d - c * delta[i] * a) for d, a in zip(delta, cartan.alpha[i]))
    m = tuple(x * (1 + eps) for x in y0)
    assert min(cartan.alpha_coords(wsub(delta, snap_coords(m)))) < 0
    if not inside:
        with pytest.raises(NotInPolytope):
            locate(cartan, delta, m)
        assert not locate(cartan, delta, m, strict=False).inside
        return
    res = locate(cartan, delta, m)
    assert res.inside and res.w == cartan.identity
    support = [k for k, x in enumerate(cartan.alpha_coords(wsub(delta, res.y))) if x]
    assert support == [i] and res.face.indices == (i,)


def simplex_locate(cartan, delta, m):
    """Reference location by the simplex alone: (inside, y, w, face indices) with
    hull membership on the Weyl orbit of delta and, for the dominant
    representative y, the first admissible set whose face orbit holds y."""
    slack = FLOAT_SNAP if any(isinstance(c, float) for c in m) else 0
    mq = snap_coords(m)
    y, w = dominant_representative(cartan, mq)
    if not hull_contains(cartan.orbit(delta), mq, slack):
        return False, y, w, None
    face = next(a for a in admissible_subsets(cartan, delta)
                if hull_contains(cartan.orbit(delta, a.indices), y, slack))
    return True, y, w, face.indices


@pytest.mark.parametrize("cartan,delta", [
    (A2, (1, 1)), (B2, (0, 1)), (G2, (1, 0)), (A3, (0, 1, 0)), (B3, (0, 0, 1)),
    (C3, (1, 0, 0)), (D4, (1, 0, 0, 0)), (F4, (0, 0, 0, 1)),
])
def test_locate_matches_simplex_reference(cartan, delta):
    rng = np.random.default_rng(5)
    delta = weight(delta)
    orbit = cartan.orbit(delta)
    adms = admissible_subsets(cartan, delta)

    def mixture(vertices, exact):
        if exact:
            c = [Fraction(int(x)) for x in rng.integers(0, 4, size=len(vertices))]
            c[0] += 1
            c = [x / sum(c) for x in c]
        else:
            c = rng.dirichlet(np.ones(len(vertices))).tolist()
        return tuple(sum(a * v[k] for a, v in zip(c, vertices)) for k in range(cartan.rank))

    def moved(v):
        for i in rng.integers(0, cartan.rank, size=6):
            v = cartan.reflect(v, int(i))
        return v

    points = []
    for _ in range(4):
        den = int(rng.integers(1, 4))
        points.append(tuple(Fraction(int(x), den) for x in rng.integers(-3, 4, size=cartan.rank)))
        points.append(mixture(orbit, exact=False))
        face = adms[int(rng.integers(len(adms)))]
        on_face = moved(mixture(cartan.orbit(delta, face.indices), exact=True))
        points.append(on_face)
        points.append(tuple(float(x) + 1e-12 * float(rng.choice([-1, 1])) for x in on_face))
    for m in points:
        res = locate(cartan, delta, m, strict=False)
        inside, y, w, face = simplex_locate(cartan, delta, m)
        assert (res.inside, res.w) == (inside, w), m
        assert (res.face.indices if res.inside else None) == face, m
        if any(isinstance(c, float) for c in m):
            assert max(abs(a - b) for a, b in zip(res.y, y)) < 1e-8
        else:
            assert res.y == y


def test_locate_nondominant_point():
    res = locate(A2, (1, 0), (Fraction(-1, 2), Fraction(1, 4)))
    assert res.inside
    assert A2.is_dominant(res.y)
    assert A2.apply(res.w, (Fraction(-1, 2), Fraction(1, 4))) == res.y


def test_locate_random_convex_combinations():
    rng = np.random.default_rng(9)
    for cartan, delta in [(A2, (1, 1)), (B2, (1, 0)), (G2, (1, 0))]:
        delta = weight(delta)
        orbit = cartan.orbit(delta)
        for _ in range(10):
            coeffs = rng.dirichlet(np.ones(len(orbit)))
            m = tuple(float(sum(c * float(v[k]) for c, v in zip(coeffs, orbit)))
                      for k in range(cartan.rank))
            res = locate(cartan, delta, m)
            assert res.inside


def test_snap_coords():
    assert snap_coords((0.5, Fraction(1, 3))) == (Fraction(1, 2), Fraction(1, 3))
    assert snap_coords((1 / 3 + 1e-16,)) == (Fraction(1, 3),)


# -- the restricted box ------------------------------------------------------------------


def test_unit_box_examples():
    assert in_unit_box_delta(A2, (1, 0), (1.0, 1.0))
    assert not in_unit_box_delta(A2, (1, 0), (0.0, 0.5))
    assert in_unit_box_delta(A2, (1, 0), (0.0, 0.0))
    assert not in_unit_box_delta(A2, (1, 0), (1.5, 0.5))
    assert not in_unit_box_delta(A2, (1, 0), (math.nan, 0.5))
    assert not in_unit_box_delta(A2, (1, 1), (0.5, math.nan))
