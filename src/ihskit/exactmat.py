"""Exact dense linear algebra over the integers and rationals.

Everything in this package works with lattices of rank at most 23, so the
implementations below favour exactness and clarity over asymptotics.  Matrices
are sequences of rows; entries are Python ints or fractions.Fraction.  All
functions are pure and return fresh lists, except ``rref_insert``, which grows
a reduced row-echelon basis in place.
"""

from __future__ import annotations

import bisect
from fractions import Fraction
from typing import Sequence

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


def mat_sub(a: Matrix, b: Matrix) -> list[list]:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_eq(a: Matrix, b: Matrix) -> bool:
    if len(a) != len(b):
        return False
    return all(len(ra) == len(rb) and all(x == y for x, y in zip(ra, rb))
               for ra, rb in zip(a, b))


def mat_fraction(a: Matrix) -> list[list[Fraction]]:
    return [[Fraction(x) for x in row] for row in a]


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


def det_fraction(a: Matrix) -> Fraction:
    """Determinant over Q by Gaussian elimination."""
    n = len(a)
    if n == 0:
        return Fraction(1)
    m = mat_fraction(a)
    det = Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det *= m[k][k]
        inv = 1 / m[k][k]
        for i in range(k + 1, n):
            if m[i][k] != 0:
                factor = m[i][k] * inv
                for j in range(k, n):
                    m[i][j] -= factor * m[k][j]
    return det


def rref_insert(rows: list[list[Fraction]], pivots: list[int], row: Row) -> bool:
    """Add ``row`` to a reduced row-echelon basis, in place.

    ``rows`` are the basis rows, each with a 1 in its pivot column and 0 in
    every other row's pivot column; ``pivots`` lists those columns in
    ascending order.  Returns False, leaving the basis unchanged, when
    ``row`` already lies in its span.  The reduced basis of a row space is
    unique, so the result does not depend on the insertion order.
    """
    row = [Fraction(x) for x in row]
    for basis_row, c in zip(rows, pivots):
        factor = row[c]
        if factor:
            row = [x - factor * y for x, y in zip(row, basis_row)]
    pivot = next((c for c, x in enumerate(row) if x), None)
    if pivot is None:
        return False
    inv = 1 / row[pivot]
    row = [x * inv for x in row]
    for basis_row in rows:
        factor = basis_row[pivot]
        if factor:
            basis_row[:] = [x - factor * y for x, y in zip(basis_row, row)]
    k = bisect.bisect(pivots, pivot)
    pivots.insert(k, pivot)
    rows.insert(k, row)
    return True


def rref_kernel(rows: Matrix, pivots: Sequence[int], cols: int) -> list[list[Fraction]]:
    """Basis of the right null space of a reduced row-echelon basis: one
    vector per free column, in ascending order, with a 1 in that column."""
    basis = []
    pivot_set = set(pivots)
    for c in range(cols):
        if c in pivot_set:
            continue
        vec = [Fraction(0)] * cols
        vec[c] = Fraction(1)
        for row, p in zip(rows, pivots):
            vec[p] = -row[c]
        basis.append(vec)
    return basis


def solve_fraction(a: Matrix, rhs: Row) -> list[Fraction] | None:
    """Solve a x = rhs over Q; None when inconsistent.

    For underdetermined consistent systems an arbitrary particular solution is
    returned (free variables set to zero).
    """
    cols = len(a[0]) if len(a) else 0
    rows: list[list[Fraction]] = []
    pivots: list[int] = []
    for row, b in zip(a, rhs):
        rref_insert(rows, pivots, [*row, b])
    if cols in pivots:  # a pivot in the right-hand side column reads 0 = 1
        return None
    x = [Fraction(0)] * cols
    for row, c in zip(rows, pivots):
        x[c] = row[cols]
    return x


def fraction_kernel(a: Matrix) -> list[list[Fraction]]:
    """Basis of the right null space of a over Q (rows of the result)."""
    rows: list[list[Fraction]] = []
    pivots: list[int] = []
    for row in a:
        rref_insert(rows, pivots, row)
    return rref_kernel(rows, pivots, len(a[0]) if len(a) else 0)


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
    """Nonzero invariant factors d_1 | d_2 | ... of an integer matrix.

    The length of the result is the rank of the matrix.
    """
    m = [[int(x) for x in row] for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
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
                        m[i][j] -= q * m[t][j]
                    if m[i][t] != 0:
                        m[t], m[i] = m[i], m[t]
                        dirty = True
            for j in range(t + 1, cols):
                if m[t][j] != 0:
                    q = m[t][j] // m[t][t]
                    for i in range(t, rows):
                        m[i][j] -= q * m[i][t]
                    if m[t][j] != 0:
                        for row in m:
                            row[t], row[j] = row[j], row[t]
                        dirty = True
        # The pivot must divide every entry of the trailing block.
        offender = None
        for i in range(t + 1, rows):
            if any(m[i][j] % m[t][t] for j in range(t + 1, cols)):
                offender = i
                break
        if offender is not None:
            for j in range(t, cols):
                m[t][j] += m[offender][j]
            continue
        divisors.append(abs(m[t][t]))
        t += 1
    return divisors
