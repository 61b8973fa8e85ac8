"""The Littelmann path model: piecewise-linear paths, root operators, the
crystal B(delta), chamber membership, growth graphs with exact path counting,
Pitman transforms, and highest-weight witnesses along Dynkin subchains.

All path arithmetic is exact: durations, velocities and breakpoints are
Fractions, and chamber tests are decided at breakpoints only (piecewise
linearity makes that exact).  The integral weights around the paths are int
tuples: the highest weight delta, the letters' endpoints and chamber
thresholds (one table per crystal, _letter_table), and the vertices of the
growth graphs.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import LevelCap, NotAdmissible
from .rootdata import CartanDatum, int_weight, weight, wadd, wscale, wzero
from . import chars

DEFAULT_LEVEL_CAP = 200000


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


def _height_profile(cartan, path, i):
    """Breakpoint times and heights h(t) = <path(t), alpha_i^vee>."""
    bps = path.breakpoints()
    return [t for t, _ in bps], [p[i] for _, p in bps]


def _split_at(segments, time):
    """Segments split so that `time` is a breakpoint."""
    out = []
    t = Fraction(0)
    for d, v in segments:
        if t < time < t + d:
            out.append((time - t, v))
            out.append((t + d - time, v))
        else:
            out.append((d, v))
        t += d
    return out


def root_operator(cartan: CartanDatum, path: PLPath, i: int, direction: str = "f"):
    """Littelmann root operator f_i or e_i; returns None where undefined.

    Cut-reflect recipe on the coroot height h(t) = <path(t), alpha_i^vee>:
    for f, reflect between the last minimum of h and the first subsequent
    rise by 1; endpoint drops by alpha_i.  e is the mirror image.  Requires
    integral minima (integral concatenations of crystal paths).
    """
    if direction not in ("e", "f"):
        raise ValueError("direction must be 'e' or 'f'")
    times, heights = _height_profile(cartan, path, i)
    m = min(heights)
    if m.denominator != 1:
        raise ValueError("root operator needs integer height minima")
    end = heights[-1]

    def cross_after(t0, level):
        # first time >= t0 with h = level, h reaching level from below
        for k in range(len(times) - 1):
            if times[k + 1] <= t0:
                continue
            h0, h1 = heights[k], heights[k + 1]
            lo = max(times[k], t0)
            hlo = h0 + (h1 - h0) * (lo - times[k]) / (times[k + 1] - times[k]) \
                if times[k + 1] != times[k] else h0
            if hlo <= level <= h1 and h1 != hlo:
                return lo + (level - hlo) * (times[k + 1] - lo) / (h1 - hlo)
            if hlo == level:
                return lo
        return None

    def cross_before(t0, level):
        # last time <= t0 with h = level, h leaving level downwards
        best = None
        for k in range(len(times) - 1):
            if times[k] >= t0:
                break
            h0, h1 = heights[k], heights[k + 1]
            hi = min(times[k + 1], t0)
            hhi = h0 + (h1 - h0) * (hi - times[k]) / (times[k + 1] - times[k])
            if h0 >= level >= hhi and h0 != hhi:
                best = times[k] + (h0 - level) * (hi - times[k]) / (h0 - hhi)
            elif hhi == level:
                best = hi
        return best

    if direction == "f":
        if end - m < 1:
            return None
        t1 = max(t for t, h in zip(times, heights) if h == m)
        t2 = cross_after(t1, m + 1)
        assert t2 is not None
    else:
        if m > -1:
            return None
        t2 = min(t for t, h in zip(times, heights) if h == m)
        t1 = cross_before(t2, m + 1)
        assert t1 is not None

    segs = _split_at(_split_at(list(path.segments), t1), t2)
    out = []
    t = Fraction(0)
    for d, v in segs:
        if t1 <= t and t + d <= t2:
            out.append((d, cartan.reflect(v, i)))
        else:
            out.append((d, v))
        t += d
    result = PLPath(_normalize(out))
    shift = cartan.alpha[i] if direction == "e" else wscale(-1, cartan.alpha[i])
    assert result.endpoint() == wadd(path.endpoint(), shift)
    return result


# -- the crystal B(delta) -------------------------------------------------------


@dataclass(frozen=True)
class CrystalB:
    """The path crystal B(delta): f-closure of the straight dominant path."""

    delta: tuple
    paths: tuple
    edges: dict  # (source index, root index) -> target index
    highest: int = 0

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
    """Per crystal letter of B(delta), delta an int tuple: (endpoint, validity
    threshold) as int tuples, read once from the letter's Fraction breakpoints.

    From an integral weight lam, letter b is chamber-valid iff
    lam_k >= threshold_b[k] for every k, where threshold_b[k] is the ceiling of
    minus the least breakpoint coordinate k.  The minima of a Littelmann path's
    coroot heights are integers; the ceiling keeps the test exact without
    relying on that.
    """
    ends, thresholds = [], []
    for p in crystal(cartan, delta).paths:
        bps = [pos for _, pos in p.breakpoints()]
        ends.append(int_weight(bps[-1]))
        thresholds.append(tuple(-math.floor(min(col)) for col in zip(*bps)))
    assert None not in ends
    return tuple(ends), tuple(thresholds)


def chamber_moves(cartan, delta, lam) -> dict:
    """Chamber-valid letters out of lam, for int tuples delta and lam.

    Returns {mu: [b, ...]}: each int target mu = lam + endpoint_b with the
    letters reaching it in increasing index order; targets appear in the order
    of their first letter.
    """
    ends, thresholds = _letter_table(cartan, delta)
    moves = {}
    for b, (end, threshold) in enumerate(zip(ends, thresholds)):
        if all(map(operator.ge, lam, threshold)):
            moves.setdefault(tuple(map(operator.add, lam, end)), []).append(b)
    return moves


# -- growth graphs ---------------------------------------------------------------


@dataclass(frozen=True)
class GrowthGraph:
    """Levels and weighted edges of the free or chamber growth graph.

    levels[n] maps a weight to the exact number of length-n paths ending there;
    edges[n] maps a level-n weight to a list of (next weight, multiplicity).
    delta and every weight are int tuples.
    """

    kind: str
    delta: tuple
    levels: tuple  # tuple of dicts
    edges: tuple   # tuple of dicts

    @property
    def n_max(self) -> int:
        return len(self.levels) - 1


def build_growth_graph(cartan: CartanDatum, kind: str, delta, n_max: int,
                       level_cap: int = DEFAULT_LEVEL_CAP) -> GrowthGraph:
    """Construct the growth graph up to level n_max.

    Free kind: edge weight K_{delta, mu-lambda}.  Chamber kind: edge weight is
    the number of crystal letters that stay in the chamber from lambda, which
    equals the multiplicity of V(mu) in V(lambda) (x) V(delta).
    """
    if kind not in ("free", "chamber"):
        raise ValueError("kind must be 'free' or 'chamber'")
    return _build_growth_graph(cartan, kind, chars.check_weight(cartan, delta),
                               int(n_max), int(level_cap))


@lru_cache(maxsize=None)
def _build_growth_graph(cartan, kind, delta, n_max, level_cap):
    ends, _ = _letter_table(cartan, delta)
    free_steps = {}
    for e in ends:
        free_steps[e] = free_steps.get(e, 0) + 1

    levels = [{(0,) * cartan.rank: 1}]
    edges = []
    for n in range(n_max):
        cur = levels[-1]
        out_edges = {}
        nxt = {}
        for lam, cnt in cur.items():
            row = {}
            if kind == "free":
                for gamma, k in free_steps.items():
                    mu = tuple(map(operator.add, lam, gamma))
                    row[mu] = row.get(mu, 0) + k
            else:
                for mu, letters in chamber_moves(cartan, delta, lam).items():
                    row[mu] = len(letters)
            out_edges[lam] = sorted(row.items())
            for mu, k in row.items():
                nxt[mu] = nxt.get(mu, 0) + cnt * k
        if len(nxt) > level_cap:
            raise LevelCap(f"level {n + 1} has {len(nxt)} vertices > cap {level_cap}")
        edges.append(out_edges)
        levels.append(nxt)
    return GrowthGraph(kind=kind, delta=delta, levels=tuple(levels), edges=tuple(edges))


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


def _pitman_stage(cartan, segments, i, gap):
    """P_alpha_i on a continuation: the input's alpha_i-height starts `gap`
    above its running minimum.  Returns the output segments and the change
    (<= 0) of the running minimum over them."""
    out = []
    run_min, h = 0, gap
    for d, v in segments:
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
    return out, run_min


def pitman_transform(cartan: CartanDatum, path: PLPath, i: int) -> PLPath:
    """P_alpha(path)(t) = path(t) - (inf_{s<=t} <path(s), alpha_i^vee>) alpha_i.

    The running infimum is piecewise linear with rational breakpoints, so the
    output is again an exact piecewise-linear path; its alpha_i-height is
    nonnegative everywhere.
    """
    if not path.segments:
        return path
    result = PLPath(_normalize(_pitman_stage(cartan, path.segments, i, 0)[0]))
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
def pitman_step(cartan: CartanDatum, delta, gaps, b):
    """Letter b of B(delta) appended to the input of the chain P_{w0}.

    The chain is causal: after a prefix, its state is the height gaps[s] >= 0 of
    each stage's input above its running minimum (stages in `pitman_chain`'s
    order of application).  Returns (output increment, new gaps) as int tuples.
    """
    segments = crystal(cartan, delta).paths[b].segments
    new_gaps = []
    for i, gap in zip(reversed(cartan.w0_word), gaps):
        rise = sum(d * v[i] for d, v in segments)
        segments, drop = _pitman_stage(cartan, segments, i, gap)
        new_gaps.append(gap + rise - drop)
    step = int_weight(PLPath(tuple(segments)).endpoint()), int_weight(new_gaps)
    if None in step:
        raise ValueError("Pitman chain state is not integral")
    return step


# -- highest-weight witnesses -------------------------------------------------------


def highest_weight_witness(cartan: CartanDatum, delta, subset, i: int,
                           n_cap: int = 60):
    """Smallest-n pair (lam, n) with V(lam) in V(delta)^(x)n and
    n delta - lam = alpha_i + sum of alpha_j over j in `subset` of smaller depth.

    `subset` must be delta-admissible and contain i (NotAdmissible otherwise);
    existence is guaranteed, searched breadth-first over chamber levels.
    """
    from .polytope import admissible_depths, is_admissible

    delta = chars.check_weight(cartan, delta)
    subset = tuple(sorted(set(subset)))
    if not is_admissible(cartan, delta, subset) or i not in subset:
        raise NotAdmissible(f"subset {subset} with root {i} is not usable for {delta}")
    depths = admissible_depths(cartan, delta, subset)
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
