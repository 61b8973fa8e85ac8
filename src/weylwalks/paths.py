"""The Littelmann path model: piecewise-linear paths, root operators, the
crystal B(delta), chamber membership, growth graphs with exact path counting,
Pitman transforms, and highest-weight witnesses along Dynkin subchains.

All path arithmetic is exact: durations, velocities and breakpoints are
Fractions, and chamber tests are decided at breakpoints only (piecewise
linearity makes that exact).  The integral weights around the paths are int
tuples: the highest weight delta, the letters' endpoints and chamber
thresholds (one table per crystal, _letter_table), the vertices of the growth
graphs, and the Pitman chain's states and steps (pitman_step, a lookup in the
crystal's tables with no path arithmetic).  One step rule (steps, a cached
pattern per clipped weight) gives the growth levels, the harmonicity sums and
the chamber kernel rows.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

from .errors import DEFAULT_LEVEL_CAP, LevelCap, NotAdmissible
from .rootdata import CartanDatum, int_weight, weight, wadd, wscale, wzero
from . import chars


@dataclass(frozen=True)
class PLPath:
    """Piecewise-linear path from 0: ordered (duration, velocity) segments.

    Normal form: positive durations, no two consecutive equal velocities.
    """

    segments: tuple

    @property
    def length(self) -> Fraction:
        return sum((d for d, _ in self.segments), Fraction(0))

    def endpoint(self) -> tuple:
        if not self.segments:
            return ()
        rank = len(self.segments[0][1])
        pos = wzero(rank)
        for d, v in self.segments:
            pos = wadd(pos, wscale(d, v))
        return pos

    def breakpoints(self):
        """(time, position) at every segment boundary, 0 and the end included."""
        if not self.segments:
            return [(Fraction(0), ())]
        rank = len(self.segments[0][1])
        t = Fraction(0)
        pos = wzero(rank)
        out = [(t, pos)]
        for d, v in self.segments:
            t = t + d
            pos = wadd(pos, wscale(d, v))
            out.append((t, pos))
        return out

    def position(self, time) -> tuple:
        time = Fraction(time)
        assert 0 <= time <= self.length
        rank = len(self.segments[0][1]) if self.segments else 0
        pos = wzero(rank)
        t = Fraction(0)
        for d, v in self.segments:
            if time <= t + d:
                return wadd(pos, wscale(time - t, v))
            pos = wadd(pos, wscale(d, v))
            t += d
        return pos


def _normalize(segments) -> tuple:
    out = []
    for d, v in segments:
        d = Fraction(d)
        if d == 0:
            continue
        v = weight(v)
        if out and out[-1][1] == v:
            out[-1] = (out[-1][0] + d, v)
        else:
            out.append((d, v))
    return tuple(out)


def make_path(segments) -> PLPath:
    return PLPath(_normalize(segments))


def straight_path(target, duration=1) -> PLPath:
    """The straight path t -> t * target of the given duration."""
    return make_path([(Fraction(duration), weight(target))])


def concat(a: PLPath, b: PLPath) -> PLPath:
    return PLPath(_normalize(a.segments + b.segments))


# -- root operators ------------------------------------------------------------


def root_operator(cartan: CartanDatum, path: PLPath, i: int, direction: str = "f"):
    """Littelmann root operator f_i or e_i; returns None where undefined.

    Cut-reflect recipe on the coroot height h(t) = <path(t), alpha_i^vee>
    (Littelmann 1995).  h is linear between breakpoints, so its minimum m is
    taken at a breakpoint, and one cut per segment, where h crosses m + 1
    strictly inside it, makes every time of h = m or h = m + 1 that the recipe
    needs a breakpoint.  f reflects from the last h = m to the next h = m + 1
    and lowers the endpoint by alpha_i; e reflects from the last h = m + 1
    before the first h = m up to that first h = m.  Requires an integral m
    (integral concatenations of crystal paths).
    """
    if direction not in ("e", "f"):
        raise ValueError("direction must be 'e' or 'f'")
    heights = [Fraction(0)]
    for d, v in path.segments:
        heights.append(heights[-1] + d * v[i])
    m = min(heights)
    if m.denominator != 1:
        raise ValueError("root operator needs integer height minima")
    if direction == "f" and heights[-1] < m + 1 or direction == "e" and m > -1:
        return None
    segs, cut = [], [heights[0]]  # the cut path and its breakpoint heights
    for (d, v), h0, h1 in zip(path.segments, heights, heights[1:]):
        if min(h0, h1) < m + 1 < max(h0, h1):
            c = d * (m + 1 - h0) / (h1 - h0)
            segs.append((c, v))
            cut.append(m + 1)
            d -= c
        segs.append((d, v))
        cut.append(h1)
    if direction == "f":  # segs[a:b] is the stretch to reflect
        a = max(k for k, h in enumerate(cut) if h == m)
        b = cut.index(m + 1, a)
    else:
        b = cut.index(m)
        a = max(k for k in range(b) if cut[k] == m + 1)
    out = segs[:a] + [(d, cartan.reflect(v, i)) for d, v in segs[a:b]] + segs[b:]
    result = PLPath(_normalize(out))
    shift = cartan.alpha[i] if direction == "e" else wscale(-1, cartan.alpha[i])
    assert result.endpoint() == wadd(path.endpoint(), shift)
    return result


# -- the crystal B(delta) -------------------------------------------------------


@dataclass(frozen=True)
class CrystalB:
    """The path crystal B(delta): f-closure of the straight dominant path, paths[0]."""

    delta: tuple
    paths: tuple
    edges: dict  # (source index, root index) -> target index

    def endpoints(self):
        return [p.endpoint() for p in self.paths]


def generate_crystal(cartan: CartanDatum, delta, dim_cap: int = chars.DEFAULT_DIM_CAP) -> CrystalB:
    """Close the straight path to delta under all lowering operators."""
    delta = chars.check_weight(cartan, delta, dim_cap)
    pi0 = straight_path(delta)
    paths = [pi0]
    index = {pi0: 0}
    edges = {}
    frontier = [0]
    while frontier:
        nxt = []
        for src in frontier:
            for i in range(cartan.rank):
                img = root_operator(cartan, paths[src], i, "f")
                if img is None:
                    continue
                if img not in index:
                    index[img] = len(paths)
                    paths.append(img)
                    nxt.append(index[img])
                edges[(src, i)] = index[img]
        frontier = nxt
    assert len(paths) == chars.weyl_dim(cartan, delta)
    return CrystalB(delta=delta, paths=tuple(paths), edges=edges)


_crystal_cached = lru_cache(maxsize=None)(generate_crystal)


def crystal(cartan, delta) -> CrystalB:
    """Cached crystal of B(delta), keyed by delta as an int tuple."""
    return _crystal_cached(cartan, chars.check_weight(cartan, delta))


def in_chamber(cartan: CartanDatum, path: PLPath, base) -> bool:
    """Whether base + path stays in the dominant chamber, decided at breakpoints."""
    return all(
        all(c >= 0 for c in wadd(base, pos))
        for _, pos in path.breakpoints()
    )


@lru_cache(maxsize=None)
def _letter_table(cartan, delta):
    """(endpoints, thresholds, cap): per crystal letter of B(delta), delta an
    int tuple, its endpoint and validity threshold as int tuples, read once from
    the letter's Fraction breakpoints, and cap, the largest thresholds.

    From an integral weight lam, letter b is chamber-valid iff
    lam_k >= threshold_b[k] for every k, where threshold_b[k] is the ceiling of
    minus the least breakpoint coordinate k, so validity depends on lam only
    through min(lam, cap).  The minima of a Littelmann path's coroot heights are
    integers; the ceiling keeps the test exact without relying on that.
    Coordinate k is the alpha_k-height, so threshold_b[k] is also eps_k(b), the
    length of b's e_k-string (pitman_step).
    """
    ends, thresholds = [], []
    for p in crystal(cartan, delta).paths:
        bps = [pos for _, pos in p.breakpoints()]
        ends.append(int_weight(bps[-1]))
        thresholds.append(tuple(-math.floor(min(col)) for col in zip(*bps)))
    assert None not in ends
    return tuple(ends), tuple(thresholds), tuple(map(max, zip(*thresholds)))


@lru_cache(maxsize=None)
def _step_pattern(cartan, delta, clipped) -> tuple:
    """((offset, letters), ...) in offset order: the letters of B(delta)
    grouped by endpoint, each group in increasing index order.  clipped None
    keeps every letter (free steps); an int tuple min(lam, cap) (_letter_table)
    keeps the letters chamber-valid from lam, those with clipped >= threshold_b."""
    ends, thresholds, _ = _letter_table(cartan, delta)
    moves = {}
    for b, (end, threshold) in enumerate(zip(ends, thresholds)):
        if clipped is None or all(map(operator.ge, clipped, threshold)):
            moves.setdefault(end, []).append(b)
    return tuple(sorted((off, tuple(bs)) for off, bs in moves.items()))


def steps(cartan, kind: str, delta, lam) -> tuple:
    """The step rule out of the int weight lam: ((offset, letters), ...), the
    letters from lam to mu = lam + offset, so e(lam, mu) = len(letters), in
    offset order, which is target order.  Free steps take every letter of
    B(delta); chamber steps the letters that keep lam + b in the chamber."""
    return _step_pattern(cartan, delta, None if kind == "free" else
                         tuple(map(min, lam, _letter_table(cartan, delta)[2])))


# -- growth graphs ---------------------------------------------------------------


@dataclass(frozen=True)
class GrowthGraph:
    """Levels 0..n_max of the free or chamber growth graph: levels[n] maps a
    weight to the exact number of length-n paths ending there; steps(...)
    gives the edges.  delta and every weight are int tuples."""

    kind: str
    delta: tuple
    levels: tuple  # tuple of read-only dict views


_LEVELS = {}  # (cartan, kind, delta) -> read-only views of the levels computed so far


def build_growth_graph(cartan: CartanDatum, kind: str, delta, n_max: int,
                       level_cap: int = DEFAULT_LEVEL_CAP) -> GrowthGraph:
    """The growth graph up to level n_max (ValueError when negative).

    Free kind: edge weight K_{delta, mu-lambda}.  Chamber kind: edge weight is
    the number of crystal letters that stay in the chamber from lambda, which
    equals the multiplicity of V(mu) in V(lambda) (x) V(delta).  Each level is
    computed once per (cartan, kind, delta) and kept, and handed out as a
    read-only view, so no caller can change a later build; LevelCap at the first
    level past level_cap vertices, cached or not.
    """
    if kind not in ("free", "chamber"):
        raise ValueError("kind must be 'free' or 'chamber'")
    delta = chars.check_weight(cartan, delta)
    n_max, level_cap = int(n_max), int(level_cap)
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    levels = _LEVELS.setdefault((cartan, kind, delta),
                                [MappingProxyType({(0,) * cartan.rank: 1})])
    for n in range(1, n_max + 1):
        if n == len(levels):  # each vertex's targets enter in first-letter order
            nxt = {}
            for lam, cnt in levels[-1].items():
                for off, bs in sorted(steps(cartan, kind, delta, lam), key=lambda s: s[1][0]):
                    mu = tuple(map(operator.add, lam, off))
                    nxt[mu] = nxt.get(mu, 0) + cnt * len(bs)
            levels.append(MappingProxyType(nxt))
        if len(levels[n]) > level_cap:
            raise LevelCap(f"level {n} has {len(levels[n])} vertices > cap {level_cap}")
    return GrowthGraph(kind=kind, delta=delta, levels=tuple(levels[:n_max + 1]))


def count_paths(cartan: CartanDatum, kind: str, delta, lam, n: int,
                level_cap: int = DEFAULT_LEVEL_CAP) -> int:
    """#Gamma(lam, n): exact number of length-n paths from 0 to lam.

    Free kind: the multiplicity of lam as a weight of V(delta)^(x)n.  Chamber
    kind: the multiplicity of V(lam) in V(delta)^(x)n.
    """
    g = build_growth_graph(cartan, kind, delta, n, level_cap)
    return g.levels[n].get(tuple(lam), 0)


def word_path(cartan: CartanDatum, delta, word) -> PLPath:
    """Concatenation of the crystal letters named by `word`."""
    cb = crystal(cartan, delta)
    out = PLPath(())
    for b in word:
        out = concat(out, cb.paths[b])
    return out


# -- Pitman transforms ------------------------------------------------------------


def pitman_transform(cartan: CartanDatum, path: PLPath, i: int) -> PLPath:
    """P_alpha(path)(t) = path(t) - (inf_{s<=t} <path(s), alpha_i^vee>) alpha_i.

    The running infimum is piecewise linear with rational breakpoints, so the
    output is again an exact piecewise-linear path; its alpha_i-height is
    nonnegative everywhere.
    """
    if not path.segments:
        return path
    out = []
    run_min = h = 0
    for d, v in path.segments:
        slope = v[i]
        h_end = h + slope * d
        if slope >= 0 or h_end >= run_min:
            out.append((d, v))
        else:
            # height dips below the running minimum inside this segment
            c = (h - run_min) / -slope
            if c:
                out.append((c, v))
            out.append((d - c, cartan.reflect(v, i)))
            run_min = h_end
        h = h_end
    result = PLPath(_normalize(out))
    assert min(p[i] for _, p in result.breakpoints()) >= 0
    return result


def pitman_chain(cartan: CartanDatum, path: PLPath, word=None) -> PLPath:
    """Chain of Pitman transforms along a reduced word of the longest element.

    For word [i_1, ..., i_r] (product s_{i_1}...s_{i_r}) the operators apply
    innermost-first, i.e. P_{i_1} o ... o P_{i_r}; the output lies in the
    dominant chamber.
    """
    if word is None:
        word = cartan.w0_word
    out = path
    for i in reversed(word):
        out = pitman_transform(cartan, out, i)
    return out


@lru_cache(maxsize=None)
def _raising_edges(cartan, delta):
    """{(b, i): e_i b} over the letters of B(delta), delta an int tuple: the
    crystal's f_i edges inverted."""
    return {(dst, i): src for (src, i), dst in crystal(cartan, delta).edges.items()}


def pitman_step(cartan: CartanDatum, delta, gaps, b):
    """Letter b of B(delta) appended to the input of the chain P_{w0}.

    The chain is causal: after a prefix, its state is the height gaps[s] >= 0 of
    each stage's input above its running minimum (stages in `pitman_chain`'s
    order of application).  On crystal letters each stage is a crystal move:
    P_alpha_i at gap g lifts letter b by a = max(0, eps_i(b) - g), so it passes
    on the letter e_i^a(b) and moves to gap g + <wt b, alpha_i^vee> + a
    (Biane-Bougerol-O'Connell 2005).  Returns (output increment, new gaps) as
    int tuples, the increment being the last letter's endpoint.
    """
    ints = int_weight(gaps)
    if ints is None or min(ints) < 0:
        raise ValueError("Pitman chain state is not a tuple of nonnegative integers")
    ends, thresholds, _ = _letter_table(cartan, delta)
    raising = _raising_edges(cartan, delta)
    new_gaps = []
    for i, gap in zip(reversed(cartan.w0_word), ints):
        a = max(0, thresholds[b][i] - gap)
        new_gaps.append(gap + ends[b][i] + a)
        for _ in range(a):
            b = raising[b, i]
    return ends[b], tuple(new_gaps)


# -- highest-weight witnesses -------------------------------------------------------


def highest_weight_witness(cartan: CartanDatum, delta, subset, i: int,
                           n_cap: int = 60):
    """Smallest-n pair (lam, n) with V(lam) in V(delta)^(x)n and
    n delta - lam = alpha_i + sum of alpha_j over j in `subset` of smaller depth.

    `subset` must be delta-admissible and contain i (NotAdmissible otherwise);
    existence is guaranteed, searched breadth-first over chamber levels.
    """
    from .polytope import admissible_depths

    delta = chars.check_weight(cartan, delta)
    subset = tuple(sorted(set(subset)))
    depths = admissible_depths(cartan, delta, subset)
    if len(depths) != len(subset) or i not in depths:
        raise NotAdmissible(f"subset {subset} with root {i} is not usable for {delta}")
    allowed = {j for j in subset if depths[j] < depths[i]}
    for n in range(1, n_cap + 1):
        g = build_growth_graph(cartan, "chamber", delta, n)
        hits = []
        for lam in g.levels[n]:
            k = cartan.int_alpha_coords(tuple(n * d - x for d, x in zip(delta, lam)))
            if k is None or any(c < 0 for c in k):
                continue
            if k[i] != 1:
                continue
            if all(k[j] == 0 for j in range(cartan.rank) if j != i and j not in allowed):
                hits.append(lam)
        if hits:
            return min(hits), n
    raise RuntimeError(f"no witness found up to n = {n_cap}")


# -- exports -----------------------------------------------------------------------


def crystal_to_dot(cb: CrystalB) -> str:
    """Crystal graph in DOT format: nodes are path endpoints, edges root indices."""
    lines = ["digraph crystal {"]
    for k, p in enumerate(cb.paths):
        end = ",".join(str(c) for c in p.endpoint())
        lines.append(f'  n{k} [label="{end}"];')
    for (src, i), dst in sorted(cb.edges.items()):
        lines.append(f'  n{src} -> n{dst} [label="{i + 1}"];')
    lines.append("}")
    return "\n".join(lines)


def graph_levels_jsonable(g: GrowthGraph) -> list:
    return [
        [{"weight": [str(c) for c in lam], "count": cnt}
         for lam, cnt in sorted(level.items())]
        for level in g.levels
    ]
