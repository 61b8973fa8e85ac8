"""The weight polytope K(delta): delta-admissible subsets of simple roots,
dominant faces, exact point location, and the restricted parameter box
[0,1]^d_delta.

Hull membership is decided by a phase-1 simplex over exact rationals on the
vertex description (the Weyl orbit of delta); float inputs are snapped to
rationals at 1e-9 before exact tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .errors import InvalidWeight, NotInPolytope, format_weight
from .rootdata import CartanDatum, WeylElement, dominant_representative, \
    weight, wsub
from . import chars

FLOAT_SNAP = Fraction(1, 10**9)


# -- exact feasibility ---------------------------------------------------------


def l1_infeasibility(columns, target) -> Fraction:
    """Minimal one-sided L1 residual of {sum c_j col_j = target, sum c_j = 1, c >= 0}.

    Phase-1 simplex over Fractions with Bland's rule; the optimum is 0 exactly
    when the target is a convex combination of the columns.
    """
    m = len(target) + 1
    n = len(columns)
    rows = [[Fraction(col[i]) for col in columns] for i in range(len(target))]
    rows.append([Fraction(1)] * n)
    b = [Fraction(x) for x in target] + [Fraction(1)]
    for i in range(m):
        if b[i] < 0:
            rows[i] = [-x for x in rows[i]]
            b[i] = -b[i]
    # tableau columns: n structural + m artificial + rhs
    tab = [rows[i] + [Fraction(int(i == j)) for j in range(m)] + [b[i]]
           for i in range(m)]
    basis = [n + i for i in range(m)]

    def reduced_costs():
        # cost: 1 on artificials; reduced cost c_j - sum over rows in basis
        rc = []
        for j in range(n + m):
            c = Fraction(1) if j >= n else Fraction(0)
            rc.append(c - sum(tab[i][j] for i in range(m) if basis[i] >= n))
        return rc

    while True:
        rc = reduced_costs()
        enter = next((j for j in range(n + m) if rc[j] < 0), None)
        if enter is None:
            break
        best = None
        for i in range(m):
            if tab[i][enter] > 0:
                ratio = tab[i][-1] / tab[i][enter]
                if best is None or ratio < best[0] or \
                        (ratio == best[0] and basis[i] < basis[best[1]]):
                    best = (ratio, i)
        assert best is not None, "phase-1 objective is bounded below by zero"
        _, leave = best
        piv = tab[leave][enter]
        tab[leave] = [x / piv for x in tab[leave]]
        for i in range(m):
            if i != leave and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [x - f * y for x, y in zip(tab[i], tab[leave])]
        basis[leave] = enter
    return sum(tab[i][-1] for i in range(m) if basis[i] >= n)


def hull_contains(columns, target, slack=Fraction(0)) -> bool:
    return l1_infeasibility(columns, target) <= slack


# -- admissible subsets and faces ------------------------------------------------


@dataclass(frozen=True)
class AdmissibleSet:
    """A delta-admissible subset of simple-root indices with subchain depths."""

    indices: tuple
    depths: dict

    def __contains__(self, i):
        return i in self.indices

    def __len__(self):
        return len(self.indices)


@dataclass(frozen=True)
class DominantFace:
    """A dominant face of K(delta): the hull of a parabolic orbit of delta."""

    admissible: AdmissibleSet
    vertices: tuple
    face_weights: tuple

    def dim(self) -> int:
        return _affine_rank(self.vertices)


def is_admissible(cartan: CartanDatum, delta, subset) -> bool:
    """Every Dynkin component of `subset` meets a root non-orthogonal to delta."""
    delta = weight(delta)
    subset = sorted(set(subset))
    todo = set(subset)
    while todo:
        comp = {todo.pop()}
        grow = True
        while grow:
            grow = False
            for j in list(todo):
                if any(cartan.cartan[j][k] != 0 for k in comp):
                    comp.add(j)
                    todo.discard(j)
                    grow = True
        if all(delta[j] == 0 for j in comp):
            return False
    return True


def admissible_depths(cartan: CartanDatum, delta, subset) -> dict:
    """Depth of each root in `subset`: length of its shortest Dynkin subchain
    inside `subset` ending at a root non-orthogonal to delta."""
    delta = weight(delta)
    subset = sorted(set(subset))
    depths = {}
    frontier = [j for j in subset if delta[j] != 0]
    for j in frontier:
        depths[j] = 1
    level = 1
    while frontier:
        level += 1
        nxt = []
        for j in subset:
            if j in depths:
                continue
            if any(cartan.cartan[j][k] != 0 for k in frontier):
                depths[j] = level
                nxt.append(j)
        frontier = nxt
    assert set(depths) == set(subset), "subset must be admissible"
    return depths


def admissible_subsets(cartan: CartanDatum, delta) -> list:
    """All delta-admissible subsets, by exhaustive test over 2^d candidates,
    sorted by (cardinality, indices).  The empty set is always included."""
    delta = weight(delta)
    if all(c == 0 for c in delta):
        raise InvalidWeight("delta must be nonzero")
    out = []
    for r in range(cartan.rank + 1):
        for subset in combinations(range(cartan.rank), r):
            if is_admissible(cartan, delta, subset):
                out.append(AdmissibleSet(
                    indices=subset,
                    depths=admissible_depths(cartan, delta, subset),
                ))
    return out


def _affine_rank(points) -> int:
    pts = [weight(p) for p in points]
    if len(pts) <= 1:
        return 0
    base = pts[0]
    vecs = [wsub(p, base) for p in pts[1:]]
    # exact row reduction
    rows = [list(v) for v in vecs]
    rank = 0
    ncols = len(base)
    for col in range(ncols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        lead = rows[rank][col]
        rows[rank] = [x / lead for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def dominant_faces(cartan: CartanDatum, delta) -> list:
    """One dominant face per admissible subset: F = Conv(W_subset . delta).

    face_weights is the slice of the weight multiset supported on the subset,
    which equals Pi_delta intersected with delta + span(subset)."""
    delta = weight(delta)
    ms = chars.weight_multiplicities(cartan, delta)
    faces = []
    for adm in admissible_subsets(cartan, delta):
        vertices = cartan.orbit(delta, adm.indices)
        span = set(adm.indices)
        fw = []
        for gamma in sorted(ms.entries):
            coords = cartan.alpha_coords(wsub(delta, gamma))
            if all(c == 0 for k, c in enumerate(coords) if k not in span):
                fw.append(gamma)
        face = DominantFace(admissible=adm, vertices=vertices, face_weights=tuple(fw))
        assert face.dim() == len(adm.indices)
        faces.append(face)
    return faces


# -- point location -----------------------------------------------------------------


@dataclass(frozen=True)
class LocateResult:
    inside: bool
    y: tuple                 # dominant representative (exact)
    w: WeylElement           # minimal-coset element with w(m) = y
    face: AdmissibleSet      # smallest admissible set with y in its face; None outside


def snap_coords(m) -> tuple:
    """Exact coordinates: floats are snapped to rationals with denominator <= 1e9."""
    out = []
    for c in m:
        if isinstance(c, float):
            out.append(Fraction(c).limit_denominator(10**9))
        else:
            out.append(Fraction(c))
    return tuple(out)


@lru_cache(maxsize=None)
def _full_orbit(cartan, delta):
    return cartan.orbit(delta)


def locate(cartan: CartanDatum, delta, m, strict: bool = True) -> LocateResult:
    """Locate m in K(delta): hull membership, dominant representative with its
    minimal coset element, and the smallest admissible set whose face holds it.

    Float input is snapped at 1e-9 and tested with 1e-9 L1 slack; exact input
    is tested exactly.  With strict=True a point outside raises NotInPolytope.
    """
    delta = weight(delta)
    is_float = any(isinstance(c, float) for c in m)
    mq = snap_coords(m)
    slack = FLOAT_SNAP if is_float else Fraction(0)
    orbit = _full_orbit(cartan, delta)
    inside = hull_contains(orbit, mq, slack)
    y, w = dominant_representative(cartan, mq)
    if not inside:
        if strict:
            raise NotInPolytope(f"{format_weight(m)} is outside K{format_weight(delta)}")
        return LocateResult(inside=False, y=y, w=w, face=None)

    # Project away sub-threshold support noise so face tests are exact.
    coords = cartan.alpha_coords(wsub(delta, y))
    support = tuple(k for k, c in enumerate(coords) if abs(c) > slack)
    if is_float:
        y = wsub(delta, cartan.from_alpha(
            [c if k in support else Fraction(0) for k, c in enumerate(coords)]))

    face = None
    for adm in admissible_subsets(cartan, delta):
        if not set(support) <= set(adm.indices):
            continue
        vertices = cartan.orbit(delta, adm.indices)
        if hull_contains(vertices, y, slack):
            face = adm
            break
    assert face is not None, "the full set of simple roots always succeeds"
    return LocateResult(inside=True, y=y, w=w, face=face)


def in_unit_box_delta(cartan: CartanDatum, delta, t) -> bool:
    """Whether t in [0,1]^d has delta-admissible support (exact zero test)."""
    t = tuple(float(x) for x in t)
    if len(t) != cartan.rank or any(x < 0 or x > 1 for x in t):
        return False
    support = [i for i, x in enumerate(t) if x != 0.0]
    return is_admissible(cartan, weight(delta), support)


def face_lattice_jsonable(faces) -> list:
    return [
        {
            "subset": [i + 1 for i in f.admissible.indices],
            "depths": {str(i + 1): d for i, d in sorted(f.admissible.depths.items())},
            "vertices": [[str(c) for c in v] for v in f.vertices],
            "dim": f.dim(),
            "face_weights": [[str(c) for c in g] for g in f.face_weights],
        }
        for f in faces
    ]
