"""Isometries of integral lattices.

Reflections, constructive Cartan-Dieudonne factorization over Q, the real
spinor norm, invariant sublattices, and the two-step construction that turns a
rank-r involution of the K3 lattice into an admissible invariant sublattice of
the larger rank-23 lattice by letting it fix the extra Z(-2) summand.

Conventions: an isometry acts on coordinate columns, ``apply(v) = M v``; a
reflection factorization ``[m_1, ..., m_k]`` means the matrix product
``refl(m_1) @ refl(m_2) @ ... @ refl(m_k)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import exactmat
from .errors import IsometryError
from .lattice import (Lattice, Sublattice, build_standard, is_2_elementary, is_hyperbolic,
                      orthogonal_basis, signature)

Matrix = tuple[tuple, ...]


def _freeze_matrix(matrix: Sequence[Sequence]) -> Matrix:
    out = []
    for row in matrix:
        frozen = []
        for x in row:
            if type(x) is not int:
                x = Fraction(x)
                if x.denominator == 1:
                    x = x.numerator
            frozen.append(x)
        out.append(tuple(frozen))
    return tuple(out)


@dataclass(frozen=True)
class Isometry:
    """A linear map preserving the Gram form of ``lattice``.

    Entries may be rational: intermediate reflection factors produced by the
    Cartan-Dieudonne algorithm are honest isometries of L (x) Q even when they
    do not preserve the lattice itself.
    """

    lattice: Lattice
    matrix: Matrix

    def __post_init__(self) -> None:
        matrix = _freeze_matrix(self.matrix)
        object.__setattr__(self, "matrix", matrix)
        n = self.lattice.rank
        if len(matrix) != n or any(len(row) != n for row in matrix):
            raise IsometryError(f"matrix must be {n}x{n} for this lattice")
        gram = self.lattice.sparse_gram
        columns = exactmat.sparse_rows(exactmat.transpose(matrix))
        image = exactmat.sparse_mat_mul(exactmat.sparse_mat_mul(columns, gram),
                                        exactmat.sparse_rows(matrix))
        if image != gram:
            raise IsometryError("matrix does not preserve the Gram form")

    @property
    def rank(self) -> int:
        return self.lattice.rank

    @property
    def is_integral(self) -> bool:
        return all(isinstance(x, int) for row in self.matrix for x in row)

    def apply(self, v: Sequence) -> tuple:
        return tuple(exactmat.mat_vec(self.matrix, v))

    def compose(self, other: "Isometry") -> "Isometry":
        if self.lattice.gram != other.lattice.gram:
            raise IsometryError("cannot compose isometries of different lattices")
        return Isometry(self.lattice, exactmat.mat_mul(self.matrix, other.matrix))

    def trace(self):
        return sum(self.matrix[i][i] for i in range(self.rank))

    @property
    def is_involution(self) -> bool:
        rows = exactmat.sparse_rows(self.matrix)
        return exactmat.sparse_mat_mul(rows, rows) == [[(i, 1)] for i in range(self.rank)]


def identity_isometry(lat: Lattice) -> Isometry:
    return Isometry(lat, exactmat.identity(lat.rank))


def reflection(lat: Lattice, mirror: Sequence) -> Isometry:
    """The reflection s_m(x) = x - (2 (x, m) / (m, m)) m.

    ``mirror`` may have rational coordinates; it must be anisotropic.
    """
    return product_of_reflections(lat, [mirror])


def product_of_reflections(lat: Lattice, mirrors: Sequence[Sequence]) -> Isometry:
    """The isometry refl(m_1) @ ... @ refl(m_k); the empty word is the identity.

    Mirrors may have rational coordinates; an isotropic one raises
    ``IsometryError``.  The product is built by the integer rank-1 updates
    of ``_product`` and validated once.
    """
    factors = [_mirror(lat, exactmat.scaled([m])[0][0]) for m in mirrors]
    matrix, den = _product(lat.rank, factors)
    if den != 1:
        matrix = [[Fraction(x, den) for x in row] for row in matrix]
    return Isometry(lat, matrix)


def _mirror(lat: Lattice, mirror: list[int]) -> tuple[list[int], list[int], int]:
    """An integer mirror as (m, G m, (m, m)); an isotropic mirror raises
    IsometryError.  A reflection does not change when its mirror is scaled,
    so a rational mirror enters through its numerators."""
    gram_m = lat.pairing(mirror)
    norm = sum(a * b for a, b in zip(mirror, gram_m))
    if norm == 0:
        raise IsometryError("cannot reflect in an isotropic vector")
    return mirror, gram_m, norm


def _reflect_rows(matrix: list[list[int]], den: int, mirror: Sequence[int],
                  gram_mirror: Sequence[int], norm: int) -> int:
    """Replace the rational matrix ``matrix / den`` by refl(mirror) @ (matrix
    / den), in place, and return the new denominator.

    refl(m) = 1 - m (x) 2 (G m)^T / N with N = (m, m), so the integer update
    is matrix <- |N| matrix - sgn(N) m (x) 2 (G m)^T matrix over |N| den,
    followed by division by gcd(den, *entries).
    """
    scale = abs(norm)
    two = 2 if norm > 0 else -2
    update = [0] * len(matrix)
    for c, row in zip(gram_mirror, matrix):
        if c:
            update = [u + two * c * x for u, x in zip(update, row)]
    for i, m in enumerate(mirror):
        row = matrix[i]
        matrix[i] = ([scale * x - m * y for x, y in zip(row, update)] if m
                     else [scale * x for x in row])
    den *= scale
    g = math.gcd(den, *(math.gcd(*row) for row in matrix))
    if g > 1:
        for i, row in enumerate(matrix):
            matrix[i] = [x // g for x in row]
    return den // g


def _product(n: int, factors: Sequence[tuple]) -> tuple[list[list[int]], int]:
    """refl(m_1) @ ... @ refl(m_k) from ``_mirror`` triples, right factor
    first, as (integer entries, positive common denominator)."""
    product = exactmat.identity(n)
    den = 1
    for factor in reversed(factors):
        den = _reflect_rows(product, den, *factor)
    return product, den


def _reflection_factors(g: Isometry) -> list[tuple[tuple, Fraction]]:
    """The Cartan-Dieudonne mirrors of ``g`` in list order, each with its
    norm (m, m); see ``cartan_dieudonne``."""
    n = g.rank
    lat = g.lattice

    # The reduced isometry is current / den; a mirror is (numerators, den).
    target = exactmat.scaled(g.matrix)
    current, den = list(target[0]), target[1]
    factors: list[tuple[tuple, int]] = []

    def apply_left(mirror: list[int], mirror_den: int) -> None:
        nonlocal den
        factor = _mirror(lat, mirror)
        factors.append((factor, mirror_den))
        den = _reflect_rows(current, den, *factor)

    for x, x_den, _ in orthogonal_basis(lat):
        # g(x) = current x / (den x_den); scale x - g(x) and x + g(x) by den x_den.
        support = [(j, v) for j, v in enumerate(x) if v]
        gx = [sum(row[j] * v for j, v in support) for row in current]
        diff = [den * a - b for a, b in zip(x, gx)]
        if any(diff):
            if lat.norm(diff) != 0:
                apply_left(diff, den * x_den)
            else:
                apply_left([den * a + b for a, b in zip(x, gx)], den * x_den)
                apply_left(x, x_den)
    if den != 1 or current != exactmat.identity(n):
        raise IsometryError("reflection factorization failed to terminate")
    # The loop built r_k ... r_1 g = 1, so g = r_1 r_2 ... r_k (involutions).
    if _product(n, [factor for factor, _ in factors]) != target:
        raise IsometryError("reflection factorization does not reproduce the isometry")
    return [(tuple(Fraction(a, d) for a in mirror), Fraction(norm, d * d))
            for (mirror, _, norm), d in factors]


def cartan_dieudonne(g: Isometry) -> list[tuple]:
    """Factor ``g`` into at most 2 * rank reflections.

    Returns mirror vectors (rational tuples); the product of their reflections
    in list order equals ``g``.  The identity factors as the empty list.

    The vectors x of ``lattice.orthogonal_basis`` are clamped in turn, each
    in the orthocomplement of those before it: when x - g(x) is anisotropic
    a single reflection sends g(x) back to x, otherwise x + g(x) is
    anisotropic (the two norms add up to 4 (x, x)) and s_x composed with
    s_{x + g(x)} does the job.

    Each step costs O(rank^2) exact integer operations.  Every rational
    vector and matrix is carried fraction-free, as integer entries over one
    positive common denominator divided by their gcd after each update:
    each reflection is a rank-1 update (``_reflect_rows``), and pairings use
    only the nonzero Gram entries (``Lattice.pairing``).  Scaling changes
    neither a reflection nor the orthogonal basis, so the mirrors are those
    of the same algorithm over Q; a ``Fraction`` is built only for the
    returned mirrors.  Two runtime checks guard the result: the reduced
    isometry must end as exactly the identity over the denominator 1, and
    the product of the emitted reflections, rebuilt by the same integer
    updates, must equal ``g``.  An isotropic mirror raises ``IsometryError``.
    """
    return [mirror for mirror, _ in _reflection_factors(g)]


def spinor_norm(g: Isometry) -> int:
    """Real spinor norm: sign of the product of -(m, m) over any reflection
    factorization of ``g``.  Returns +1 or -1; +1 for the identity."""
    sign = 1
    for _, norm in _reflection_factors(g):
        if norm > 0:
            sign = -sign
    return sign


def in_o_plus(g: Isometry) -> bool:
    """Membership in O^+(L), the kernel of the real spinor norm."""
    return spinor_norm(g) == 1


def invariant_lattice(g: Isometry) -> Sublattice:
    """The fixed sublattice {x in L : g(x) = x}, always saturated."""
    if not g.is_integral:
        raise IsometryError("invariant lattice requires an integral isometry")
    delta = [[x - (i == j) for j, x in enumerate(row)] for i, row in enumerate(g.matrix)]
    kernel = exactmat.integer_kernel(delta)
    if not kernel:
        raise IsometryError("isometry has trivial invariant lattice")
    return Sublattice(g.lattice, tuple(tuple(v) for v in kernel),
                      label=f"fix({g.lattice.label})")


# ---------------------------------------------------------------------------
# Involutions of the K3 lattice extended from a primitive 2-elementary part


def nikulin_extension(m0: Sublattice, candidate: Sequence[Sequence[int]]) -> Isometry:
    """Validate an integral involution acting as +1 on ``m0`` and -1 on its
    orthocomplement.

    ``m0`` must be a primitive, hyperbolic, 2-elementary sublattice of the K3
    lattice.  The candidate matrix is validated, never derived: this package
    only ships catalog constructions (see ``catalog_nikulin``).
    """
    ambient = m0.ambient
    induced = m0.induced()
    if not m0.is_primitive:
        raise IsometryError("invariant part must be a primitive sublattice")
    if not is_hyperbolic(induced):
        raise IsometryError("invariant part must be hyperbolic")
    if not is_2_elementary(induced):
        raise IsometryError("invariant part must be 2-elementary")
    if not exactmat.is_integral(candidate):
        raise IsometryError("candidate involution must be integral")
    iso = Isometry(ambient, candidate)
    if not iso.is_involution:
        raise IsometryError("candidate must be an involution")
    for v in m0.basis:
        if iso.apply(v) != tuple(v):
            raise IsometryError("candidate does not fix the invariant part")
    # The +1 eigenspace of an involution has dimension (n + tr) / 2 and is
    # orthogonal to the -1 eigenspace.  It contains M0 (x) Q, so when the
    # dimensions agree it is M0 (x) Q, the -1 eigenspace is M0^perp (M0 is
    # nondegenerate), and the fixed lattice is M0 itself (M0 is primitive).
    if ambient.rank + iso.trace() != 2 * m0.rank:
        raise IsometryError("candidate is not -1 on the orthocomplement")
    return iso


def catalog_nikulin(name: str) -> Isometry:
    """The two built-in K3-lattice involutions.

    ``"Zh"``: invariant part Z h, h = f + g of norm 2 in the first hyperbolic
    plane; the involution swaps f and g there and is -1 elsewhere.
    ``"U"``: invariant part the first hyperbolic plane; +1 there, -1 elsewhere.
    """
    lk3 = build_standard("LK3")
    n = lk3.rank
    u_start = 16  # basis layout: E8, E8, U, U, U
    key = name.strip().lower()
    if key == "zh":
        basis = [tuple(1 if i in (u_start, u_start + 1) else 0 for i in range(n))]
        matrix = [[0] * n for _ in range(n)]
        for i in range(n):
            matrix[i][i] = -1
        matrix[u_start][u_start] = matrix[u_start + 1][u_start + 1] = 0
        matrix[u_start][u_start + 1] = matrix[u_start + 1][u_start] = 1
    elif key == "u":
        basis = [tuple(1 if i == u_start else 0 for i in range(n)),
                 tuple(1 if i == u_start + 1 else 0 for i in range(n))]
        matrix = [[0] * n for _ in range(n)]
        for i in range(n):
            matrix[i][i] = 1 if i in (u_start, u_start + 1) else -1
    else:
        raise IsometryError(f"unknown catalog involution {name!r} (expected 'Zh' or 'U')")
    m0 = Sublattice(lk3, tuple(basis), label=f"M0[{name}]")
    return nikulin_extension(m0, matrix)


@dataclass(frozen=True)
class AdmissibleSublattice:
    """An invariant sublattice M of the rank-23 lattice together with the
    involution realizing it, the trace parameter t = tr(iota) + 2 and the
    real spinor norm of iota."""

    ambient: Lattice
    sublattice: Sublattice
    iota: Isometry
    t: int
    spinor_norm: int


def make_admissible(iota_k3: Isometry) -> AdmissibleSublattice:
    """Extend a K3-lattice involution to the rank-23 lattice by +1 on the
    extra Z(-2) summand, and validate admissibility.

    Checks: the extension is an integral involutive isometry, its invariant
    lattice is hyperbolic, its real spinor norm is +1 (monodromy condition),
    and t = tr + 2 is odd with -19 <= t <= 21.
    """
    lk3 = build_standard("LK3")
    if iota_k3.lattice.gram != lk3.gram:
        raise IsometryError("involution must act on the K3 lattice")
    if not iota_k3.is_integral or not iota_k3.is_involution:
        raise IsometryError("need an integral involution of the K3 lattice")
    l2 = build_standard("L2")
    n = l2.rank
    matrix = [[0] * n for _ in range(n)]
    for i in range(n - 1):
        for j in range(n - 1):
            matrix[i][j] = iota_k3.matrix[i][j]
    matrix[n - 1][n - 1] = 1
    iota = Isometry(l2, matrix)
    fix = invariant_lattice(iota)
    pos, neg = signature(fix.induced())
    if (pos, neg) != (1, fix.rank - 1):
        raise IsometryError(f"invariant lattice has signature {(pos, neg)}, not hyperbolic")
    # iota is the product of the reflections in an orthogonal basis of its -1
    # eigenspace M^perp, so its spinor norm is (-1)^(positive index of M^perp)
    # and that index is pos(L2) - pos(M).
    sign = (-1) ** (signature(l2)[0] - pos)
    if sign != 1:
        raise IsometryError("involution has real spinor norm -1")
    t = int(iota.trace()) + 2
    if t % 2 == 0 or not -19 <= t <= 21:
        raise IsometryError(f"trace parameter t = {t} out of range")
    return AdmissibleSublattice(ambient=l2, sublattice=fix, iota=iota, t=t, spinor_norm=sign)
