"""The weight polytope K(delta): delta-admissible subsets of simple roots,
dominant faces, exact point location, and the restricted parameter box
[0,1]^d_delta.

Point location uses the dominance cone (Humphreys 13.4): a dominant y lies in
K(delta) iff delta - y is a nonnegative combination of simple roots, and in the
face of J iff that combination is supported on J.  Float inputs are snapped to
rationals at 1e-9 first.  A phase-1 simplex over exact rationals on the vertex
description (l1_infeasibility, hull_contains) is kept only as the independent
hull oracle that the acceptance checks and tests compare against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .errors import InvalidWeight, NotInPolytope, format_weight
from .rootdata import CartanDatum, WeylElement, _pivot, _row_reduce, \
    dominant_representative, weight, wsub
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
        _pivot(tab, leave, enter)
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


@dataclass(frozen=True)
class DominantFace:
    """A dominant face of K(delta): the hull of a parabolic orbit of delta."""

    admissible: AdmissibleSet
    vertices: tuple
    face_weights: tuple

    def dim(self) -> int:
        """The affine rank of the vertices, by exact row reduction."""
        base, *rest = self.vertices
        return len(_row_reduce([wsub(v, base) for v in rest])[1])


def admissible_depths(cartan: CartanDatum, delta, subset) -> dict:
    """Depth of each root in `subset`: length of its shortest Dynkin subchain
    inside `subset` ending at a root non-orthogonal to delta.  A breadth-first
    search from those roots; indices it does not reach (outside range(rank),
    or on a component orthogonal to delta) get no depth."""
    subset = [j for j in sorted(set(subset)) if j in range(cartan.rank)]
    depths, level = {}, 0
    frontier = [j for j in subset if delta[j] != 0]
    while frontier:
        level += 1
        depths.update(dict.fromkeys(frontier, level))
        frontier = [j for j in subset if j not in depths
                    and any(cartan.cartan[j][k] != 0 for k in frontier)]
    return depths


def is_admissible(cartan: CartanDatum, delta, subset) -> bool:
    """The depth search reaches every index of `subset`: each Dynkin component
    of it meets a root non-orthogonal to delta."""
    subset = set(subset)
    return len(admissible_depths(cartan, delta, subset)) == len(subset)


def admissible_subsets(cartan: CartanDatum, delta) -> list:
    """All delta-admissible subsets, by exhaustive test over 2^d candidates,
    sorted by (cardinality, indices).  The empty set is always included."""
    if all(c == 0 for c in delta):
        raise InvalidWeight("delta must be nonzero")
    return list(_admissible_subsets(cartan, tuple(delta)))


@lru_cache(maxsize=None)
def _admissible_subsets(cartan, delta):
    out = []
    for r in range(cartan.rank + 1):
        for subset in combinations(range(cartan.rank), r):
            depths = admissible_depths(cartan, delta, subset)
            if len(depths) == r:
                out.append(AdmissibleSet(indices=subset, depths=depths))
    return tuple(out)


@lru_cache(maxsize=None)
def face_rows(cartan: CartanDatum, delta, support) -> tuple:
    """The face rule: the rows (weights, exponents, multiplicities) of the
    table of V(delta) (chars._module_table) whose exponent alpha(delta - gamma)
    is zero off `support`, an index tuple; their weights are Pi_delta
    intersected with delta + span(support).  delta is a checked int tuple."""
    off = [k for k in range(cartan.rank) if k not in support]
    rows = [(g, e, m) for g, e, m in zip(*chars._module_table(cartan, delta))
            if not any(e[k] for k in off)]
    return tuple(zip(*rows))  # never empty: the row of delta has exponent 0


def dominant_faces(cartan: CartanDatum, delta) -> list:
    """One dominant face per admissible subset: F = Conv(W_subset . delta).

    face_weights are the weights of the face's rows of the table of V(delta)
    (face_rows).  Raises DimensionCap when dim V(delta) exceeds the default cap."""
    delta = chars.check_weight(cartan, delta, chars.DEFAULT_DIM_CAP)
    faces = []
    for adm in admissible_subsets(cartan, delta):
        face = DominantFace(admissible=adm, vertices=cartan.orbit(delta, adm.indices),
                            face_weights=face_rows(cartan, delta, adm.indices)[0])
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


def locate(cartan: CartanDatum, delta, m, strict: bool = True) -> LocateResult:
    """Locate m in K(delta) by the dominance cone: with y the dominant
    representative of m, m is inside iff delta - y has nonnegative simple-root
    coordinates, and y is in the face of an admissible J iff those coordinates
    vanish off J; the face is the smallest such J.

    Float input is snapped at 1e-9 and read with a 1e-9 slack on the simple-root
    coordinates, below which they are projected to zero; exact input is read
    exactly.  With strict=True a point outside raises NotInPolytope.
    """
    delta = weight(delta)
    slack = FLOAT_SNAP if any(isinstance(c, float) for c in m) else Fraction(0)
    y, w = dominant_representative(cartan, snap_coords(m))
    coords = cartan.alpha_coords(wsub(delta, y))
    if min(coords) < -slack:
        if strict:
            raise NotInPolytope(f"{format_weight(m)} is outside K{format_weight(delta)}")
        return LocateResult(inside=False, y=y, w=w, face=None)
    support = {k for k, c in enumerate(coords) if abs(c) > slack}
    if slack:
        y = wsub(delta, cartan.from_alpha(
            [c if k in support else Fraction(0) for k, c in enumerate(coords)]))
    face = next(adm for adm in admissible_subsets(cartan, delta)
                if support <= set(adm.indices))
    return LocateResult(inside=True, y=y, w=w, face=face)


def in_unit_box_delta(cartan: CartanDatum, delta, t) -> bool:
    """Whether t in [0,1]^d has delta-admissible support (exact zero test)."""
    t = tuple(float(x) for x in t)
    if len(t) != cartan.rank or not all(0 <= x <= 1 for x in t):
        return False
    support = [i for i, x in enumerate(t) if x != 0.0]
    return is_admissible(cartan, delta, support)


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
