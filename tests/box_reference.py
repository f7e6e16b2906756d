"""Recursive box search for wall vectors, the test oracle for the bounded
path of ``ihskit.chambers.enumerate_delta``.

Every nonzero vector of the box |x_i| <= bound is built by a recursive prefix
builder and paired with the induced Gram matrix; a vector of norm -10 is
embedded into the ambient lattice for its divisibility.  A box therefore costs
(2 bound + 1)^rank pairings.  The library must return exactly the same walls.
"""

from __future__ import annotations

from ihskit.chambers import NORM_DEEP, NORM_MAIN
from ihskit.lattice import Sublattice, divisibility


def box_candidates(m: Sublattice, bound: int) -> set[tuple[int, ...]]:
    coords: set[tuple[int, ...]] = set()

    def rec(prefix: list[int], k: int) -> None:
        if k == m.rank:
            if any(prefix):
                coords.add(tuple(prefix))
            return
        for x in range(-bound, bound + 1):
            rec(prefix + [x], k + 1)

    rec([], 0)
    return coords


def box_walls(m: Sublattice, bound: int) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Sorted wall vectors of the box and their norms."""
    induced = m.induced()
    vectors = []
    norms = []
    for coords in sorted(box_candidates(m, bound)):
        norm = induced.norm(coords)
        if norm == NORM_MAIN or (
                norm == NORM_DEEP and divisibility(m.ambient, m.embed(coords)) == 2):
            vectors.append(coords)
            norms.append(norm)
    return tuple(vectors), tuple(norms)
