"""Independent computations the benchmark checks the program's outputs against.

Everything here is exact (ints and Fractions) and uses nothing from the
program except a Cartan matrix, whose convention is the package's:
A[i][j] = 2(alpha_i, alpha_j)/(alpha_j, alpha_j), and row i is alpha_i in
fundamental-weight (omega) coordinates.  Weights are tuples in omega
coordinates, as the program prints them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

# |W| for the simple types of rank <= 4 (Bourbaki, Plates I-IX).
WEYL_ORDER = {
    "A1": 2, "A2": 6, "A3": 24, "A4": 120,
    "B2": 8, "B3": 48, "B4": 384,
    "C2": 8, "C3": 48, "C4": 384,
    "D4": 192, "F4": 1152, "G2": 12,
}

# Number of positive roots, the same tables.
POSITIVE_ROOTS = {
    "A1": 1, "A2": 3, "A3": 6, "A4": 10,
    "B2": 4, "B3": 9, "B4": 16,
    "C2": 4, "C3": 9, "C4": 16,
    "D4": 12, "F4": 24, "G2": 6,
}


class CheckFailed(AssertionError):
    """An output of the program broke a property the method must have."""


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


class Lattice:
    """Root-lattice arithmetic for one Cartan matrix, done by the benchmark."""

    def __init__(self, cartan_matrix):
        self.a = tuple(tuple(int(x) for x in row) for row in cartan_matrix)
        self.rank = len(self.a)
        self.lengths = self._root_lengths()

    def _root_lengths(self):
        # A[i][j] d_j = A[j][i] d_i with d_i = (alpha_i, alpha_i); the Dynkin
        # diagram is connected, so d is fixed up to scale by a walk from d_0.
        d = [None] * self.rank
        d[0] = Fraction(1)
        todo = [0]
        while todo:
            i = todo.pop()
            for j in range(self.rank):
                if d[j] is None and self.a[i][j] != 0:
                    d[j] = d[i] * self.a[j][i] / self.a[i][j]
                    todo.append(j)
        assert all(x is not None for x in d)
        return tuple(d)

    def to_alpha(self, v):
        """Simple-root coordinates c of v: sum_i c_i A[i] = v, by elimination."""
        n = self.rank
        rows = [[Fraction(self.a[j][i]) for j in range(n)] + [Fraction(v[i])]
                for i in range(n)]
        for col in range(n):
            piv = next(r for r in range(col, n) if rows[r][col] != 0)
            rows[col], rows[piv] = rows[piv], rows[col]
            p = rows[col][col]
            rows[col] = [x / p for x in rows[col]]
            for r in range(n):
                if r != col and rows[r][col] != 0:
                    f = rows[r][col]
                    rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
        return tuple(rows[i][n] for i in range(n))

    def reflect(self, v, i):
        vi = v[i]
        return tuple(v[k] - vi * self.a[i][k] for k in range(self.rank))

    def dominant(self, v):
        v = tuple(Fraction(x) for x in v)
        while True:
            neg = next((i for i in range(self.rank) if v[i] < 0), None)
            if neg is None:
                return v
            v = self.reflect(v, neg)

    def is_weight_of(self, delta, gamma):
        """Saturation test: gamma is a weight of V(delta) iff delta minus the
        dominant representative of gamma has nonnegative integer root coordinates."""
        c = self.to_alpha(tuple(Fraction(x) - y for x, y in
                                zip(delta, self.dominant(gamma))))
        return all(x.denominator == 1 and x >= 0 for x in c)

    def positive_roots(self):
        """Positive roots in simple-root coordinates, by root strings."""
        n = self.rank
        simple = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        roots = set(simple)
        layer = list(simple)
        while layer:
            nxt = []
            for beta in layer:
                for i in range(n):
                    # <beta, alpha_i^vee> = sum_j beta_j A[j][i] = p - q
                    pairing = sum(beta[j] * self.a[j][i] for j in range(n))
                    p = 0
                    down = list(beta)
                    while True:
                        down[i] -= 1
                        if tuple(down) not in roots:
                            break
                        p += 1
                    if p - pairing > 0:
                        up = tuple(b + (k == i) for k, b in enumerate(beta))
                        if up not in roots:
                            roots.add(up)
                            nxt.append(up)
            layer = nxt
        return sorted(roots)

    def weyl_dim(self, lam):
        """dim V(lam) = prod over alpha > 0 of (lam + rho, alpha^vee)/(rho, alpha^vee)."""
        return _weyl_dim(self.a, tuple(int(x) for x in lam))


@lru_cache(maxsize=None)
def _weyl_dim(a, lam):
    lat = Lattice(a)
    d = lat.lengths
    num = Fraction(1)
    for c in lat.positive_roots():
        top = sum(ci * (li + 1) * di for ci, li, di in zip(c, lam, d))
        bottom = sum(ci * di for ci, di in zip(c, d))
        num *= Fraction(top) / bottom
    assert num.denominator == 1
    return int(num)


def letter_table(crystal_paths):
    """(endpoint, componentwise breakpoint minimum) of each crystal letter,
    summed from the letter's (duration, velocity) segments."""
    out = []
    for path in crystal_paths:
        rank = len(path.segments[0][1])
        pos = (Fraction(0),) * rank
        floor = pos
        for dur, vel in path.segments:
            pos = tuple(p + Fraction(dur) * Fraction(v) for p, v in zip(pos, vel))
            floor = tuple(min(f, p) for f, p in zip(floor, pos))
        out.append((pos, floor))
    return out


def free_drift(lattice, delta, ends, t):
    """Drift of the free walk at parameter t, summed over the crystal letters:
    sum_b t^(delta - e_b) e_b / sum_b t^(delta - e_b)."""
    total = 0.0
    acc = [0.0] * lattice.rank
    for e in ends:
        expo = lattice.to_alpha(tuple(Fraction(x) - y for x, y in zip(delta, e)))
        mono = 1.0
        for ti, k in zip(t, expo):
            if k:
                mono *= ti ** int(k)
        total += mono
        for i in range(lattice.rank):
            acc[i] += mono * float(e[i])
    return tuple(x / total for x in acc)
