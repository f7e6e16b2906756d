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

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import exactmat
from .errors import IsometryError
from .lattice import Lattice, Sublattice, build_standard, is_hyperbolic, signature

Matrix = tuple[tuple, ...]


def _freeze_matrix(matrix: Sequence[Sequence]) -> Matrix:
    out = []
    for row in matrix:
        frozen = []
        for x in row:
            f = Fraction(x)
            frozen.append(int(f) if f.denominator == 1 else f)
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
        gram = self.lattice.gram
        mt = exactmat.transpose(matrix)
        if not exactmat.mat_eq(exactmat.mat_mul(exactmat.mat_mul(mt, gram), matrix), gram):
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
        prod = exactmat.mat_mul(self.matrix, self.matrix)
        return exactmat.mat_eq(prod, exactmat.identity(self.rank))


def identity_isometry(lat: Lattice) -> Isometry:
    return Isometry(lat, exactmat.identity(lat.rank))


def reflection(lat: Lattice, mirror: Sequence) -> Isometry:
    """The reflection s_m(x) = x - (2 (x, m) / (m, m)) m.

    ``mirror`` may have rational coordinates; it must be anisotropic.
    """
    m = [Fraction(x) for x in mirror]
    lat._check_vector(m)
    norm = lat.norm(m)
    if norm == 0:
        raise IsometryError("cannot reflect in an isotropic vector")
    n = lat.rank
    gram_m = [sum(Fraction(lat.gram[i][j]) * m[j] for j in range(n)) for i in range(n)]
    cols = []
    for j in range(n):
        basis = [Fraction(0)] * n
        basis[j] = Fraction(1)
        coeff = 2 * gram_m[j] / norm
        cols.append([basis[i] - coeff * m[i] for i in range(n)])
    matrix = [[cols[j][i] for j in range(n)] for i in range(n)]
    return Isometry(lat, matrix)


def product_of_reflections(lat: Lattice, mirrors: Sequence[Sequence]) -> Isometry:
    out = identity_isometry(lat)
    for m in mirrors:
        out = out.compose(reflection(lat, m))
    return out


def _reflect_rows(matrix: list[list[Fraction]], mirror: Sequence, gram_mirror: Sequence,
                  norm: Fraction) -> None:
    """Replace ``matrix`` by refl(mirror) @ matrix in place, as the rank-1
    update matrix -= mirror (x) (2 (G mirror)^T matrix / (mirror, mirror))."""
    scale = 2 / norm
    terms = [(scale * c, row) for c, row in zip(gram_mirror, matrix) if c]
    update = [sum(c * row[j] for c, row in terms) for j in range(len(matrix))]
    for i, m in enumerate(mirror):
        if m:
            matrix[i] = [x - m * y for x, y in zip(matrix[i], update)]


def _reflection_factors(g: Isometry) -> list[tuple[tuple, Fraction]]:
    """The Cartan-Dieudonne mirrors of ``g`` in list order, each with its
    norm (m, m); see ``cartan_dieudonne``."""
    lat = g.lattice
    n = lat.rank
    gram = [[(j, a) for j, a in enumerate(row) if a] for row in lat.gram]

    def pair(v: Sequence) -> list:
        return [sum(a * v[j] for j, a in row) for row in gram]

    def dot(u: Sequence, v: Sequence):
        return sum(a * b for a, b in zip(u, v))

    current = [[Fraction(x) for x in row] for row in g.matrix]
    factors: list[tuple[tuple, list, Fraction]] = []

    def apply_left(mirror: list[Fraction]) -> None:
        gram_mirror = pair(mirror)
        norm = dot(mirror, gram_mirror)
        if norm == 0:
            raise IsometryError("cannot reflect in an isotropic vector")
        factors.append((tuple(mirror), gram_mirror, norm))
        _reflect_rows(current, mirror, gram_mirror, norm)

    # Reduced row-echelon basis of the pairing rows G x of the clamped vectors;
    # its kernel is their orthocomplement.
    rows: list[list[Fraction]] = []
    pivots: list[int] = []
    while len(rows) < n:
        basis = exactmat.rref_kernel(rows, pivots, n)
        x = next((w for w in basis if dot(w, pair(w)) != 0), None)
        if x is None:
            # Nondegenerate subspace of isotropic basis vectors: some pair
            # pairs nontrivially and their sum is anisotropic.
            u, w = next((u, w) for u in basis for w in basis if dot(u, pair(w)) != 0)
            x = [a + b for a, b in zip(u, w)]
        support = [(j, v) for j, v in enumerate(x) if v]
        gx = [sum(row[j] * v for j, v in support) for row in current]
        diff = [a - b for a, b in zip(x, gx)]
        if any(diff):
            if dot(diff, pair(diff)) != 0:
                apply_left(diff)
            else:
                apply_left([a + b for a, b in zip(x, gx)])
                apply_left(x)
        exactmat.rref_insert(rows, pivots, pair(x))
    if not exactmat.mat_eq(current, exactmat.identity(n)):
        raise IsometryError("reflection factorization failed to terminate")
    # The loop built r_k ... r_1 g = 1, so g = r_1 r_2 ... r_k (involutions).
    # Rebuild that product from the mirrors alone, right factor first.
    product = exactmat.mat_fraction(exactmat.identity(n))
    for mirror, gram_mirror, norm in reversed(factors):
        _reflect_rows(product, mirror, gram_mirror, norm)
    if not exactmat.mat_eq(product, g.matrix):
        raise IsometryError("reflection factorization does not reproduce the isometry")
    return [(mirror, norm) for mirror, _, norm in factors]


def cartan_dieudonne(g: Isometry) -> list[tuple]:
    """Factor ``g`` into at most 2 * rank reflections.

    Returns mirror vectors (rational tuples); the product of their reflections
    in list order equals ``g``.  The identity factors as the empty list.

    At each step an anisotropic vector x of the remaining orthocomplement is
    clamped: when x - g(x) is anisotropic a single reflection sends g(x) back
    to x, otherwise x + g(x) is anisotropic (the two norms add up to 4 (x, x))
    and s_x composed with s_{x + g(x)} does the job.

    Each step costs O(rank^2) exact operations: a reflection is applied as a
    rank-1 update, the pairing row G x of the clamped vector is added once to
    a reduced row-echelon basis whose kernel is the orthocomplement, and
    pairings use only the nonzero Gram entries.  (A step whose complement
    basis is all isotropic searches its pairs, O(rank^3).)  Two runtime
    checks guard the result: the reduced isometry must end as the identity,
    and the product of the emitted reflections, rebuilt by rank-1 updates,
    must equal ``g``.  An isotropic mirror raises ``IsometryError``.
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
    n = g.rank
    delta = exactmat.mat_sub(g.matrix, exactmat.identity(n))
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
    if not all(d == 2 for d in _discriminant(induced)):
        raise IsometryError("invariant part must be 2-elementary")
    if not exactmat.is_integral(candidate):
        raise IsometryError("candidate involution must be integral")
    iso = Isometry(ambient, candidate)
    if not iso.is_involution:
        raise IsometryError("candidate must be an involution")
    for v in m0.basis:
        if iso.apply(v) != tuple(v):
            raise IsometryError("candidate does not fix the invariant part")
    pairing = [exactmat.mat_vec(ambient.gram, list(v)) for v in m0.basis]
    for w in exactmat.fraction_kernel(pairing):
        if any(a + b != 0 for a, b in zip(iso.apply(w), w)):
            raise IsometryError("candidate is not -1 on the orthocomplement")
    fix = invariant_lattice(iso)
    if not _same_span(fix, m0):
        raise IsometryError("invariant lattice of the candidate is not the given part")
    return iso


def _discriminant(lat: Lattice) -> tuple[int, ...]:
    divisors = exactmat.invariant_factors(lat.gram)
    return tuple(d for d in divisors if d > 1)


def _same_span(a: Sublattice, b: Sublattice) -> bool:
    def contains(outer: Sublattice, inner: Sublattice) -> bool:
        rows = [list(v) for v in outer.basis]
        cols = exactmat.transpose(rows)
        for v in inner.basis:
            sol = exactmat.solve_fraction(cols, list(v))
            if sol is None or any(x.denominator != 1 for x in sol):
                return False
        return True

    return contains(a, b) and contains(b, a)


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
    induced = fix.induced(label="M")
    if not is_hyperbolic(induced):
        raise IsometryError(
            f"invariant lattice has signature {signature(induced)}, not hyperbolic")
    sign = spinor_norm(iota)
    if sign != 1:
        raise IsometryError("involution has real spinor norm -1")
    t = int(iota.trace()) + 2
    if t % 2 == 0 or not -19 <= t <= 21:
        raise IsometryError(f"trace parameter t = {t} out of range")
    return AdmissibleSublattice(ambient=l2, sublattice=fix, iota=iota, t=t, spinor_norm=sign)
