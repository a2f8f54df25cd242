"""The column lattice of a space's weight matrix.

The matrix A has one column (e_j, w) per homogeneous coordinate: the
indicator of its factor j, then its torus weight w.  The sections of L^k
of weight mu are the alpha >= 0 with A alpha = k b1 + (0, mu), where
b1 = (degrees, -twist) is ``Scenario.ray``.  Everything read off A is
built here once per space (``Space.column_lattice``), and every bundle on
the space reads it:

* an echelon basis of the lattice the columns span, and membership in it
  (``ColumnLattice.spans``).  Its pivot rows are a maximal independent set
  of A's rows.  Eliminating the factor rows leaves the weight differences,
  so Z^(nf+r) modulo the columns is Z^r modulo the difference lattice, the
  character group of the generic stabilizer, and mu is compatible with L
  exactly when some r*b1 + (0, mu) lies in the lattice;
* the lcm of the maximal minors, which the period of the counts divides
  (Sturmfels, "On vector partition functions", JCTA 1995);
* the walls, sets of rank A - 1 independent columns, with their cofactor
  normals.  Past the ray's last wall crossing the counts are one
  quasi-polynomial (Brion-Vergne, JAMS 1997), and the critical values of
  the moment map are the points of the wall cones.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import gcd, lcm
from operator import mul


def det(rows) -> int:
    """Determinant of a square integer matrix, by fraction-free (Bareiss)
    elimination."""
    a = [list(row) for row in rows]
    n = len(a)
    sign, prev = 1, 1
    for i in range(n):
        piv = i
        while not a[piv][i]:
            piv += 1
            if piv == n:
                return 0
        if piv != i:
            a[i], a[piv], sign = a[piv], a[i], -sign
        top = a[i]
        for row in a[i + 1 :]:
            f = row[i]
            for c in range(i + 1, n):
                row[c] = (row[c] * top[i] - f * top[c]) // prev
        prev = top[i]
    return sign * prev


def echelon(vectors, n: int) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """A basis of the lattice spanned by integer `vectors` of length n, and
    the pivot row of each basis vector: it is zero above its pivot and
    positive at it (entries below are not reduced).

    Row i runs Euclid's algorithm on coordinate i over the vectors left by
    the rows before it, which all vanish above i.  A row on which they all
    vanish has no pivot and is skipped, so the pivot rows are the rows of
    the matrix with columns `vectors` that are independent of those above."""
    basis, pivots = [], []
    rest = [v for v in vectors if any(v)]
    for i in range(n):
        pivot, left = None, []
        for v in rest:
            if v[i] and pivot is None:
                pivot = v
                continue
            while v[i]:
                q = pivot[i] // v[i]
                pivot, v = v, tuple(x - q * y for x, y in zip(pivot, v))
            if any(v):
                left.append(v)
        if pivot is not None:
            basis.append(pivot if pivot[i] > 0 else tuple(-x for x in pivot))
            pivots.append(i)
        rest = left
    return tuple(basis), tuple(pivots)


@dataclass(frozen=True)
class ColumnLattice:
    """The weight matrix A on its kept rows ``keep``: the echelon pivots,
    d = rank A of them, of the echelon ``basis`` of the lattice A's columns
    span.

    ``contents`` holds the gcd of each kept row and ``minors_lcm`` the lcm
    of the nonzero maximal minors of A with each row divided by its
    content.  Each wall is a pair (d - 1 distinct columns, their cofactor
    normal n), with <n, b> = det(wall columns, b); sets of dependent
    columns, whose normal is 0, are left out.  ``stabilizer`` is the weight
    block of the echelon basis: a lower-triangular basis of the difference
    lattice with a positive diagonal, or None when that lattice has rank
    < r.
    """

    keep: tuple[int, ...]
    basis: tuple[tuple[int, ...], ...]
    contents: tuple[int, ...]
    minors_lcm: int
    walls: tuple[tuple[tuple, tuple[int, ...]], ...]
    stabilizer: tuple[tuple[int, ...], ...] | None

    def spans(self, v) -> bool:
        """Whether the integer vector v of length nf + r lies in the lattice:
        each basis vector in turn, zero above its pivot, reduces v's pivot
        entry modulo its own, and v lies in the lattice iff nothing is left
        over, that is, iff every division is exact and every row outside
        ``keep`` ends at 0."""
        for i, b in zip(self.keep, self.basis):
            q = v[i] // b[i]
            v = tuple(x - q * y for x, y in zip(v, b))
        return not any(v)

    def cut(self, v) -> tuple[int, ...]:
        """The entries of a vector of length nf + r on the kept rows."""
        return tuple(v[i] for i in self.keep)

    def on_wall(self, b) -> bool:
        """Whether the cut vector b lies in the closed cone of a wall:
        <n, b> = 0, and b's coefficient on each wall column is >= 0.  By
        Cramer's rule on (wall columns, n), whose determinant <n, n> is
        positive, that coefficient has the sign of the determinant with the
        column replaced by b."""
        return any(
            not sum(map(mul, n, b))
            and all(det(wall[:i] + (b,) + wall[i + 1 :] + (n,)) >= 0 for i in range(len(wall)))
            for wall, n in self.walls
        )


def column_lattice(torus_weights) -> ColumnLattice:
    """The column lattice of A for the factors' torus weights."""
    nf, r = len(torus_weights), len(torus_weights[0][0])
    # a repeated column adds no basis vector, minor or wall
    cols = list(
        dict.fromkeys(tuple(int(i == j) for i in range(nf)) + w for j, ws in enumerate(torus_weights) for w in ws)
    )
    basis, keep = echelon(cols, nf + r)
    d = len(keep)
    cols = [tuple(c[i] for i in keep) for c in cols]
    contents = tuple(gcd(*row) for row in zip(*cols))
    scaled = [tuple(x // g for x, g in zip(c, contents)) for c in cols]
    minors_lcm = lcm(*(abs(det(m)) or 1 for m in combinations(scaled, d)))
    units = [tuple(int(i == j) for i in range(d)) for j in range(d)]
    walls = []
    for wall in combinations(cols, d - 1):
        n = tuple(det(wall + (e,)) for e in units)
        if any(n):
            walls.append((wall, n))
    # the factor rows always pivot, and their basis vectors come first
    stabilizer = tuple(v[nf:] for v in basis[nf:]) if d == nf + r else None
    return ColumnLattice(keep, basis, contents, minors_lcm, tuple(walls), stabilizer)
