"""Dense Cartan-Dieudonne factorization, the test oracle for
``ihskit.isometry.cartan_dieudonne``.

Every step recomputes the orthocomplement of the clamped vectors with a fresh
``exactmat.fraction_kernel`` and applies each reflection as a validated
``reflection()`` isometry followed by a full matrix product, so a step costs
O(rank^3).  The library must emit exactly the same mirrors.
"""

from __future__ import annotations

from fractions import Fraction

from ihskit import exactmat
from ihskit.errors import IsometryError
from ihskit.isometry import Isometry, reflection
from ihskit.lattice import Lattice


def _orthocomplement_basis(lat: Lattice, fixed: list[list[Fraction]]) -> list[list[Fraction]]:
    if not fixed:
        n = lat.rank
        return [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    pairing = [exactmat.mat_vec(lat.gram, f) for f in fixed]
    return exactmat.fraction_kernel(pairing)


def dense_cartan_dieudonne(g: Isometry) -> list[tuple]:
    lat = g.lattice
    n = lat.rank
    current = [[Fraction(x) for x in row] for row in g.matrix]
    mirrors: list[tuple] = []
    fixed: list[list[Fraction]] = []

    def apply_left(mirror: list[Fraction]) -> None:
        mirrors.append(tuple(mirror))
        refl = reflection(lat, mirror).matrix
        current[:] = exactmat.mat_mul(refl, current)

    while len(fixed) < n:
        basis = _orthocomplement_basis(lat, fixed)
        if not basis:
            break
        x = next((w for w in basis if lat.norm(w) != 0), None)
        if x is None:
            pair = next(((u, w) for u in basis for w in basis if lat.inner(u, w) != 0))
            x = [a + b for a, b in zip(pair[0], pair[1])]
        gx = exactmat.mat_vec(current, x)
        diff = [a - b for a, b in zip(x, gx)]
        if all(d == 0 for d in diff):
            fixed.append([Fraction(v) for v in x])
            continue
        if lat.norm(diff) != 0:
            apply_left(diff)
        else:
            apply_left([a + b for a, b in zip(x, gx)])
            apply_left([Fraction(v) for v in x])
        fixed.append([Fraction(v) for v in x])
    if not exactmat.mat_eq(current, exactmat.identity(n)):
        raise IsometryError("reflection factorization failed to terminate")
    return mirrors
