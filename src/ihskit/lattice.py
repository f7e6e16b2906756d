"""Integral quadratic lattices: Gram data, classical invariants, catalog.

A lattice here is a free Z-module of finite rank with an integer Gram matrix.
``Lattice.pairing`` (x -> G x over the nonzero Gram entries) is the one
place a vector is paired with the lattice.  Signatures are read off an
orthogonal basis built over Z by a fraction-free orthocomplement walk, the
one the Cartan-Dieudonne factorization clamps, and the discriminant group
comes from the Smith normal form, so every invariant in this module is exact.
"""

from __future__ import annotations

import json
import math
import operator
import os
import re
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Iterator, Sequence

from . import exactmat
from .errors import LatticeError

Vector = tuple[int, ...]
Gram = tuple[tuple[int, ...], ...]

_CATALOG_ENV = "IHSKIT_CATALOG"
_CATALOG_DEFAULT = Path(__file__).parent / "data" / "catalog.json"


def _dot(u: Sequence, v: Sequence):
    return sum(map(operator.mul, u, v))


@dataclass(frozen=True)
class Lattice:
    """A nondegenerate integral lattice given by its Gram matrix."""

    label: str
    gram: Gram
    det: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        gram = tuple(tuple(int(x) for x in row) for row in self.gram)
        object.__setattr__(self, "gram", gram)
        n = len(gram)
        if n == 0:
            raise LatticeError("lattice rank must be at least 1")
        if any(len(row) != n for row in gram):
            raise LatticeError("Gram matrix must be square")
        for i in range(n):
            for j in range(i):
                if gram[i][j] != gram[j][i]:
                    raise LatticeError("Gram matrix must be symmetric")
        det = exactmat.det_int(gram)
        if det == 0:
            raise LatticeError("Gram matrix must be nondegenerate")
        object.__setattr__(self, "det", det)

    @property
    def rank(self) -> int:
        return len(self.gram)

    @property
    def is_even(self) -> bool:
        return all(self.gram[i][i] % 2 == 0 for i in range(self.rank))

    @cached_property
    def sparse_gram(self) -> list[list[tuple[int, int]]]:
        """The nonzero entries (j, G[i][j]) of each Gram row i."""
        return exactmat.sparse_rows(self.gram)

    def _check_vector(self, v: Sequence) -> None:
        if len(v) != self.rank:
            raise LatticeError(
                f"vector length {len(v)} does not match rank {self.rank}")

    def pairing(self, v: Sequence) -> list:
        """G v: entry i is the pairing of v with the i-th basis vector.
        Only the nonzero Gram entries are summed; ``v`` may be rational."""
        self._check_vector(v)
        return [sum([a * v[j] for j, a in row]) for row in self.sparse_gram]

    def inner(self, x: Sequence, y: Sequence):
        """Bilinear pairing (x, y) in this lattice's Gram form."""
        self._check_vector(x)
        return _dot(x, self.pairing(y))

    def norm(self, x: Sequence):
        """Self-intersection (x, x)."""
        return self.inner(x, x)

    def __repr__(self) -> str:
        return f"Lattice({self.label!r}, rank={self.rank})"


def direct_sum(*lattices: Lattice) -> Lattice:
    if not lattices:
        raise LatticeError("direct_sum needs at least one summand")
    total = sum(lat.rank for lat in lattices)
    gram = [[0] * total for _ in range(total)]
    offset = 0
    for lat in lattices:
        for i in range(lat.rank):
            for j in range(lat.rank):
                gram[offset + i][offset + j] = lat.gram[i][j]
        offset += lat.rank
    return Lattice("+".join(lat.label for lat in lattices), gram)


def rescale(lat: Lattice, k: int) -> Lattice:
    """The lattice L(k): same module, pairing multiplied by k."""
    if k == 0:
        raise LatticeError("rescale factor must be nonzero")
    return Lattice(f"{lat.label}({k})", [[k * x for x in row] for row in lat.gram])


def orthogonal_basis(lat: Lattice) -> Iterator[tuple[list[int], int, int]]:
    """An orthogonal basis of L (x) Q of anisotropic vectors, yielded one at
    a time as (integer entries, positive common denominator, norm of the
    integer entries).

    Each vector lies in the orthocomplement of those before it: the kernel
    (``exactmat.rref_kernel``, read lazily) of the reduced row-echelon basis
    of their pairing rows G x.  It is the first anisotropic kernel vector
    or, when all of them are isotropic, the sum of the first pair that pairs
    nontrivially, whose norm is twice that pairing.  The complement of a
    nondegenerate subspace is nondegenerate, so such a pair exists.  The
    vectors depend on G alone; the Cartan-Dieudonne factorization clamps
    them in this order.  Each step costs O(rank^2) integer operations.
    """
    n = lat.rank
    rows: list[list[int]] = []
    pivots: list[int] = []
    for step in range(n):
        isotropic = []
        for x, den in exactmat.rref_kernel(rows, pivots, n):
            gram_x = lat.pairing(x)
            norm = _dot(x, gram_x)
            if norm:
                break
            isotropic.append((x, den, gram_x))
        else:
            (u, du, gu), (w, dw, gw) = next((a, b) for a in isotropic for b in isotropic
                                            if _dot(a[0], b[2]))
            x, den = [a * dw + b * du for a, b in zip(u, w)], du * dw
            gram_x = [a * dw + b * du for a, b in zip(gu, gw)]
            norm = _dot(x, gram_x)
        yield x, den, norm
        if step < n - 1:  # the last vector's row would constrain no later step
            exactmat.rref_insert(rows, pivots, gram_x)


def signature(lat: Lattice) -> tuple[int, int]:
    """Signature (positive, negative): the signs of the norms of an
    orthogonal basis (Sylvester's law of inertia)."""
    pos = sum(norm > 0 for _, _, norm in orthogonal_basis(lat))
    return pos, lat.rank - pos


def is_hyperbolic(lat: Lattice) -> bool:
    """True when the signature is (1, rank - 1)."""
    return signature(lat) == (1, lat.rank - 1)


def discriminant_group(lat: Lattice) -> tuple[int, ...]:
    """Elementary divisors > 1 of the discriminant group L^vee / L."""
    return tuple(d for d in exactmat.invariant_factors(lat.gram) if d > 1)


def is_2_elementary(lat: Lattice) -> bool:
    """True when the discriminant group is (Z/2)^l for some l >= 0."""
    return all(d == 2 for d in discriminant_group(lat))


def divisibility(lat: Lattice, v: Sequence[int]) -> int:
    """div(v) = the positive generator of the ideal (v, L) of Z."""
    g = math.gcd(*lat.pairing(v))
    if g == 0:
        raise LatticeError("divisibility of the zero vector is undefined")
    return g


def is_primitive_sublattice(lat: Lattice, basis: Sequence[Sequence[int]]) -> bool:
    """True when the Z-span of ``basis`` is saturated in the ambient lattice.

    ``basis`` rows must be Z-linearly independent vectors in ambient
    coordinates.
    """
    return Sublattice(lat, basis).is_primitive


@dataclass(frozen=True)
class Sublattice:
    """A sublattice of an ambient lattice, given by linearly independent
    basis rows in ambient coordinates.  Construction only validates the
    basis; the induced lattice and primitivity are computed on first use."""

    ambient: Lattice
    basis: tuple[Vector, ...]
    label: str = ""

    def __post_init__(self) -> None:
        basis = tuple(tuple(int(x) for x in v) for v in self.basis)
        object.__setattr__(self, "basis", basis)
        if not basis:
            raise LatticeError("sublattice basis must be non-empty")
        if len(basis) > self.ambient.rank:
            raise LatticeError("sublattice rank exceeds ambient rank")
        for v in basis:
            self.ambient._check_vector(v)
        echelon: list[list[int]] = []
        pivots: list[int] = []
        if not all(exactmat.rref_insert(echelon, pivots, v) for v in basis):
            raise LatticeError("sublattice basis rows are linearly dependent")

    @cached_property
    def is_primitive(self) -> bool:
        """True when the span is saturated in the ambient lattice: every
        invariant factor of the basis coordinate matrix is 1."""
        return all(d == 1 for d in exactmat.invariant_factors(self.basis))

    @property
    def rank(self) -> int:
        return len(self.basis)

    def _check_coords(self, coords: Sequence[int]) -> None:
        if len(coords) != self.rank:
            raise LatticeError(
                f"coordinate length {len(coords)} does not match rank {self.rank}")

    def embed(self, coords: Sequence[int]) -> Vector:
        """Ambient coordinates of a vector given in the sublattice basis."""
        self._check_coords(coords)
        n = self.ambient.rank
        return tuple(sum(coords[k] * self.basis[k][i] for k in range(self.rank))
                     for i in range(n))

    def induced(self) -> Lattice:
        """The sublattice as an abstract lattice (restricted Gram matrix),
        built once per sublattice and then shared."""
        return self._induced

    @cached_property
    def _basis_pairings(self) -> tuple[list[int], ...]:
        """G b for each basis vector b, in basis order."""
        return tuple(self.ambient.pairing(v) for v in self.basis)

    @cached_property
    def _induced(self) -> Lattice:
        gram = [[_dot(u, gv) for gv in self._basis_pairings] for u in self.basis]
        return Lattice(self.label or f"sub({self.ambient.label})", gram)

    def ambient_divisibility(self, coords: Sequence[int]) -> int:
        """div of the embedded vector, read off the basis pairing rows."""
        self._check_coords(coords)
        g = math.gcd(*(_dot(coords, col) for col in zip(*self._basis_pairings)))
        if g == 0:
            raise LatticeError("divisibility of the zero vector is undefined")
        return g


# ---------------------------------------------------------------------------
# Catalog


def catalog_path() -> Path:
    override = os.environ.get(_CATALOG_ENV)
    return Path(override) if override else _CATALOG_DEFAULT


@lru_cache(maxsize=8)
def _load_catalog(path_str: str) -> dict[str, Lattice]:
    path = Path(path_str)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise LatticeError(f"cannot load lattice catalog {path}: {exc}") from exc
    lattices = {}
    for entry in doc.get("lattices", []):
        lat = Lattice(entry["label"], entry["gram"])
        lattices[_canon(lat.label)] = lat
    return lattices


def _canon(name: str) -> str:
    return name.replace("_", "").replace("-", "").upper()


def catalog_labels() -> list[str]:
    return sorted(lat.label for lat in _load_catalog(str(catalog_path())).values())


def build_standard(name: str, scale: int = 1) -> Lattice:
    """Look up a catalog lattice by label, optionally rescaled.

    Labels: U, E8, LK3, L2, Lambda_0 .. Lambda_9 (plus the second rank-4
    variant Lambda_8U), and the parametric rank-1 family Z<n> with Gram [[n]].
    Lookup ignores case, underscores and hyphens.
    """
    # Parametric family first, on the raw name: a hyphen after Z is a minus
    # sign ("Z-2" is the rank-1 lattice with Gram [[-2]]).
    match = re.fullmatch(r"[Zz]_?(-?\d+)", name.strip())
    if match:
        try:
            n = int(match.group(1), 10)
        except ValueError as exc:  # more digits than sys.get_int_max_str_digits()
            raise LatticeError(f"rank-1 lattice label {name[:20]}...: {exc}") from exc
        if n == 0:
            raise LatticeError("rank-1 lattice Z0 is degenerate")
        lat = Lattice(f"Z{n}", ((n,),))
        return rescale(lat, scale) if scale != 1 else lat
    key = _canon(name)
    catalog = _load_catalog(str(catalog_path()))
    if key not in catalog:
        raise LatticeError(f"unknown catalog lattice {name!r}; "
                           f"known labels: {', '.join(catalog_labels())}")
    lat = catalog[key]
    return rescale(lat, scale) if scale != 1 else lat


def lattice_summary(lat: Lattice) -> dict:
    """The exact invariant record emitted by the CLI for a lattice."""
    pos, neg = signature(lat)
    group = discriminant_group(lat)
    return {
        "label": lat.label,
        "rank": lat.rank,
        "det": lat.det,
        "signature": [pos, neg],
        "even": lat.is_even,
        "hyperbolic": (pos, neg) == (1, lat.rank - 1),
        "discriminant_group": list(group),
        "two_elementary": all(d == 2 for d in group),
    }
