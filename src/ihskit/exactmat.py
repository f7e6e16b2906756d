"""Exact linear algebra over the integers and rationals.

Everything in this package works with lattices of rank at most 23, so the
implementations below favour exactness and clarity over asymptotics.  Matrices
are sequences of rows; entries are Python ints or fractions.Fraction.  A
matrix that is mostly zeros can also be given by its ``sparse_rows``.

The reduced row-echelon basis kept by ``rref_insert`` (which grows it in
place) and read by ``rref_kernel`` is fraction-free: every rational row or
vector is a list of integers over one positive common denominator, divided
by their gcd whenever it is stored or returned, as in integer-preserving
elimination (Bareiss, Math. Comp. 22, 1968).  All other functions are pure
and return fresh lists.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction
from typing import Iterator, Sequence

Row = Sequence
Matrix = Sequence[Row]


def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def transpose(a: Matrix) -> list[list]:
    return [list(col) for col in zip(*a)] if len(a) else []


def mat_mul(a: Matrix, b: Matrix) -> list[list]:
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def mat_vec(a: Matrix, v: Row) -> list:
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def is_integral(a: Matrix) -> bool:
    return all(Fraction(x).denominator == 1 for row in a for x in row)


def det_int(a: Matrix) -> int:
    """Determinant of an integer matrix (fraction-free Bareiss elimination)."""
    n = len(a)
    if n == 0:
        return 1
    m = [[int(x) for x in row] for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def scaled(a: Matrix) -> tuple[list[list[int]], int]:
    """A rational matrix as (integer entries, least positive common
    denominator).  Entries may be ints, Fractions or floats; a float enters
    by its exact binary value, and a non-finite one raises ValueError or
    OverflowError."""
    a = [[x if isinstance(x, (int, Fraction)) else Fraction(x) for x in row] for row in a]
    den = math.lcm(*(x.denominator for row in a for x in row))
    return [[x.numerator * (den // x.denominator) for x in row] for row in a], den


def sparse_rows(a: Matrix) -> list[list[tuple[int, object]]]:
    """The nonzero entries (j, a[i][j]) of each row i of ``a``."""
    return [[(j, x) for j, x in enumerate(row) if x] for row in a]


def sparse_mat_mul(a: Sequence[Sequence[tuple]],
                   b: Sequence[Sequence[tuple]]) -> list[list[tuple]]:
    """The product of two matrices given as ``sparse_rows``, in the same form."""
    out = []
    for row in a:
        acc: dict = {}
        for k, x in row:
            for j, y in b[k]:
                acc[j] = acc.get(j, 0) + x * y
        out.append(sorted((j, v) for j, v in acc.items() if v))
    return out


def _primitive(v: list[int], lead: int) -> list[int]:
    """``v`` divided by the gcd of its entries, with the sign that makes the
    entry at index ``lead`` positive."""
    g = math.gcd(*v)
    if v[lead] < 0:
        g = -g
    return v if g == 1 else [x // g for x in v]


def rref_insert(rows: list[list[int]], pivots: list[int], row: Row) -> bool:
    """Add the integer ``row`` to a reduced row-echelon basis, in place.

    Each basis row is a primitive integer vector whose entry in its own pivot
    column is positive and whose entries in the other rows' pivot columns are
    0; divided by its pivot entry it is the rational reduced row.  ``pivots``
    lists those columns in ascending order.  Returns False, leaving the basis
    unchanged, when ``row`` already lies in its span.  The reduced basis of a
    row space is unique, so the result does not depend on the insertion order
    or on the scale of ``row``.
    """
    row = list(row)
    for basis_row, c in zip(rows, pivots):
        factor = row[c]
        if factor:
            den = basis_row[c]
            row = [den * x - factor * y for x, y in zip(row, basis_row)]
    pivot = next((c for c, x in enumerate(row) if x), None)
    if pivot is None:
        return False
    row = _primitive(row, pivot)
    den = row[pivot]
    for i, basis_row in enumerate(rows):
        factor = basis_row[pivot]
        if factor:
            rows[i] = _primitive([den * x - factor * y for x, y in zip(basis_row, row)],
                                pivots[i])
    k = bisect.bisect(pivots, pivot)
    pivots.insert(k, pivot)
    rows.insert(k, row)
    return True


def rref_kernel(rows: Matrix, pivots: Sequence[int], cols: int) -> Iterator[tuple[list[int], int]]:
    """Basis of the right null space of a reduced row-echelon basis kept by
    ``rref_insert``: one vector per free column, in ascending order, with a 1
    in that column.  Each vector is yielded, built only when it is asked
    for, as (integer entries, positive common denominator) with
    gcd(den, *entries) = 1.  The basis must not change while it is read."""
    pivot_set = set(pivots)
    for c in range(cols):
        if c in pivot_set:
            continue
        used = [(row, p) for row, p in zip(rows, pivots) if row[c]]
        den = math.lcm(*(row[p] for row, p in used))
        vec = [0] * cols
        vec[c] = den
        for row, p in used:
            vec[p] = -row[c] * (den // row[p])
        g = math.gcd(*vec)
        yield [x // g for x in vec], den // g


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) = a x + b y and g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def integer_kernel(a: Matrix) -> list[list[int]]:
    """Basis (rows) of {x in Z^cols : a x = 0}.

    Computed by unimodular column reduction, so the result is a basis of the
    full integer kernel; the sublattice it spans is automatically saturated.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    h = [[int(x) for x in row] for row in a]
    v = identity(cols)

    def col_swap(c1: int, c2: int) -> None:
        for mat in (h, v):
            for row in mat:
                row[c1], row[c2] = row[c2], row[c1]

    def col_combine(c1: int, c2: int, x: int, y: int, nb: int, na: int) -> None:
        # (col c1, col c2) <- (x*c1 + y*c2, -nb*c1 + na*c2); determinant x*na + y*nb = 1
        for mat in (h, v):
            for row in mat:
                a1, a2 = row[c1], row[c2]
                row[c1] = x * a1 + y * a2
                row[c2] = -nb * a1 + na * a2

    pc = 0
    for pr in range(rows):
        if pc >= cols:
            break
        nonzero = [c for c in range(pc, cols) if h[pr][c] != 0]
        if not nonzero:
            continue
        if nonzero[0] != pc:
            col_swap(nonzero[0], pc)
        for c in range(pc + 1, cols):
            if h[pr][c] != 0:
                g, x, y = _xgcd(h[pr][pc], h[pr][c])
                col_combine(pc, c, x, y, h[pr][c] // g, h[pr][pc] // g)
        pc += 1
    kernel = [[v[i][c] for i in range(cols)] for c in range(pc, cols)]
    # Canonical sign: first nonzero coordinate positive.
    for vec in kernel:
        lead = next((x for x in vec if x != 0), 0)
        if lead < 0:
            for i in range(len(vec)):
                vec[i] = -vec[i]
    return kernel


def invariant_factors(a: Matrix) -> list[int]:
    """Invariant factors d_1 | d_2 | ... | d_r of an integer matrix of full
    rank r.

    The matrix, transposed if it has more rows than columns, must have full
    row rank r; any other input raises ValueError.  Pick a nonzero r x r
    minor d: the r columns at the pivots of its row-echelon form, or the
    determinant for a square matrix.  The column lattice then contains
    d Z^r, so the elimination works modulo d (symmetric residues) and each
    pivot is replaced by gcd(pivot, d); a trailing block that reduces to
    zero gives factors d (Domich, Kannan and Trotter, Math. Oper. Res. 12,
    1987).  Without the reduction, entries can grow without bound even on
    small matrices.
    """
    m = [[int(x) for x in row] for row in a]
    if m and len(m) > len(m[0]):
        m = transpose(m)
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = list(range(cols))
    if rows < cols:
        echelon: list[list[int]] = []
        pivots = []
        for row in m:
            rref_insert(echelon, pivots, row)
    d = abs(det_int([[row[j] for j in pivots] for row in m])) if len(pivots) == rows else 0
    if d == 0:
        raise ValueError("invariant factors need a matrix of full rank")

    def reduce(x: int) -> int:
        return (x + d // 2) % d - d // 2

    m = [[reduce(x) for x in row] for row in m]
    divisors: list[int] = []
    t = 0
    while t < min(rows, cols):
        # Locate the smallest nonzero entry of the trailing submatrix.
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if m[i][j] != 0 and (best is None or abs(m[i][j]) < abs(m[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            divisors += [d] * (rows - t)
            break
        i0, j0 = best
        m[t], m[i0] = m[i0], m[t]
        for row in m:
            row[t], row[j0] = row[j0], row[t]
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, rows):
                if m[i][t] != 0:
                    q = m[i][t] // m[t][t]
                    for j in range(t, cols):
                        m[i][j] = reduce(m[i][j] - q * m[t][j])
                    if m[i][t] != 0:
                        m[t], m[i] = m[i], m[t]
                        dirty = True
            for j in range(t + 1, cols):
                if m[t][j] != 0:
                    q = m[t][j] // m[t][t]
                    for i in range(t, rows):
                        m[i][j] = reduce(m[i][j] - q * m[i][t])
                    if m[t][j] != 0:
                        for row in m:
                            row[t], row[j] = row[j], row[t]
                        dirty = True
        m[t][t] = math.gcd(m[t][t], d)
        # The pivot must divide every entry of the trailing block.
        offender = None
        for i in range(t + 1, rows):
            if any(m[i][j] % m[t][t] for j in range(t + 1, cols)):
                offender = i
                break
        if offender is not None:
            for j in range(t, cols):
                m[t][j] = reduce(m[t][j] + m[offender][j])
            continue
        divisors.append(m[t][t])
        t += 1
    return divisors
