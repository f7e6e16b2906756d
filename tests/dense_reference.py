"""Dense Fraction linear algebra, congruence diagonalization and the dense
Cartan-Dieudonne factorization: the test oracles for ``ihskit.exactmat``,
``ihskit.lattice.signature`` and ``ihskit.isometry.cartan_dieudonne``.

Everything here works on ``Fraction`` entries and builds each object from its
definition, with dense products but none of the fraction-free kernels or the
reflection code of the library: a reduced row-echelon basis with a 1 in every
pivot, a kernel read off it, and every reflection as the full matrix
1 - m (x) 2 (G m)^T / (m, m) followed by a full matrix product, with the
orthocomplement recomputed on every step, so a step costs O(rank^3).  The
library must emit exactly the same mirrors.
"""

from __future__ import annotations

import bisect
from fractions import Fraction

from ihskit.errors import IsometryError
from ihskit.exactmat import mat_mul, mat_vec


def rref_insert(rows: list[list[Fraction]], pivots: list[int], row) -> bool:
    """Add ``row`` to a reduced row-echelon basis over Q, in place: each
    basis row has a 1 in its pivot column and 0 in every other row's pivot
    column.  Returns False, leaving the basis unchanged, when ``row``
    already lies in its span."""
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


def rref_kernel(rows, pivots, cols: int) -> list[list[Fraction]]:
    """Basis of the right null space of a reduced row-echelon basis: one
    vector per free column, in ascending order, with a 1 in that column."""
    basis = []
    for c in range(cols):
        if c in pivots:
            continue
        vec = [Fraction(0)] * cols
        vec[c] = Fraction(1)
        for row, p in zip(rows, pivots):
            vec[p] = -row[c]
        basis.append(vec)
    return basis


def solve_fraction(a, rhs) -> list[Fraction] | None:
    """Solve a x = rhs over Q; None when inconsistent.  An underdetermined
    consistent system gets the particular solution with free variables 0."""
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


def fraction_kernel(a) -> list[list[Fraction]]:
    """Basis of the right null space of a over Q (rows of the result)."""
    rows: list[list[Fraction]] = []
    pivots: list[int] = []
    for row in a:
        rref_insert(rows, pivots, row)
    return rref_kernel(rows, pivots, len(a[0]) if len(a) else 0)


def det_fraction(a) -> Fraction:
    """Determinant over Q by Gaussian elimination."""
    n = len(a)
    m = [[Fraction(x) for x in row] for row in a]
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


def congruence_signature(gram) -> tuple[int, int]:
    """Signature (positive, negative) of a nondegenerate symmetric matrix by
    congruence diagonalization over Q: symmetric row and column operations
    clear the rows and columns of one nonzero diagonal pivot at a time."""
    n = len(gram)
    m = [[Fraction(x) for x in row] for row in gram]
    active = list(range(n))
    pos = neg = 0
    while active:
        pivot = next((i for i in active if m[i][i] != 0), None)
        if pivot is None:
            # All diagonal entries vanish; make one nonzero with x_i -> x_i + x_j.
            i, j = next((i, j) for i in active for j in active if i != j and m[i][j] != 0)
            for c in range(n):
                m[i][c] += m[j][c]
            for r in range(n):
                m[r][i] += m[r][j]
            pivot = i
        p = m[pivot][pivot]
        if p > 0:
            pos += 1
        else:
            neg += 1
        active.remove(pivot)
        for i in active:
            if m[i][pivot] != 0:
                factor = m[i][pivot] / p
                for c in range(n):
                    m[i][c] -= factor * m[pivot][c]
                for r in range(n):
                    m[r][i] -= factor * m[r][pivot]
    return pos, neg


def reflection_matrix(gram, mirror) -> list[list[Fraction]]:
    """The matrix of s_m(x) = x - (2 (x, m) / (m, m)) m, entry by entry."""
    n = len(gram)
    m = [Fraction(x) for x in mirror]
    gram_m = mat_vec(gram, m)
    norm = sum(a * b for a, b in zip(m, gram_m))
    if norm == 0:
        raise IsometryError("cannot reflect in an isotropic vector")
    return [[Fraction(i == j) - 2 * m[i] * gram_m[j] / norm for j in range(n)]
            for i in range(n)]


def _orthocomplement_basis(gram, fixed: list[list[Fraction]]) -> list[list[Fraction]]:
    if not fixed:
        n = len(gram)
        return [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    return fraction_kernel([mat_vec(gram, f) for f in fixed])


def dense_cartan_dieudonne(g) -> list[tuple]:
    gram = g.lattice.gram
    n = len(gram)

    def inner(u, w):
        return sum(a * b for a, b in zip(u, mat_vec(gram, w)))

    current = [[Fraction(x) for x in row] for row in g.matrix]
    mirrors: list[tuple] = []
    fixed: list[list[Fraction]] = []

    def apply_left(mirror: list[Fraction]) -> None:
        mirrors.append(tuple(mirror))
        current[:] = mat_mul(reflection_matrix(gram, mirror), current)

    while len(fixed) < n:
        basis = _orthocomplement_basis(gram, fixed)
        if not basis:
            break
        x = next((w for w in basis if inner(w, w) != 0), None)
        if x is None:
            pair = next(((u, w) for u in basis for w in basis if inner(u, w) != 0))
            x = [a + b for a, b in zip(pair[0], pair[1])]
        gx = mat_vec(current, x)
        diff = [a - b for a, b in zip(x, gx)]
        if all(d == 0 for d in diff):
            fixed.append(x)
            continue
        if inner(diff, diff) != 0:
            apply_left(diff)
        else:
            apply_left([a + b for a, b in zip(x, gx)])
            apply_left(x)
        fixed.append(x)
    if current != [[Fraction(i == j) for j in range(n)] for i in range(n)]:
        raise IsometryError("reflection factorization failed to terminate")
    return mirrors
