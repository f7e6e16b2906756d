"""Wall sets and rank-2 chamber decompositions.

The wall set of an embedded sublattice M collects the vectors of
self-intersection -2, together with those of self-intersection -10 whose
pairing ideal with the ambient lattice is exactly 2Z.  Every wall set carries a
completeness certificate: ``exact`` when the defining norm equations reduce to
finite divisor-pair problems (rank 1, or rank 2 with square discriminant),
``bounded(B)`` when only a coordinate box |x_i| <= B was searched.

For rank-2 hyperbolic M with an exact wall set, the positive cone component
chosen by an anchor vector decomposes into finitely many chambers bounded by
wall rays and the two rational isotropic boundary rays.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import cmp_to_key
from typing import Iterable, Sequence

from . import exactmat
from .errors import ChamberError
from .lattice import Sublattice

NORM_MAIN = -2
NORM_DEEP = -10
DEFAULT_BOUND = 50
# Most prefixes a box scan may visit: rank 4 at the default bound (101^3, a few
# seconds) fits, rank 5 (101^4, minutes) does not.
MAX_BOX_PREFIXES = 2_000_000

Vec2 = tuple[int, int]


@dataclass(frozen=True)
class Completeness:
    kind: str  # "exact" | "bounded"
    bound: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("exact", "bounded"):
            raise ChamberError(f"unknown completeness kind {self.kind!r}")
        if (self.kind == "bounded") != (self.bound is not None):
            raise ChamberError("bounded completeness carries a bound, exact does not")


EXACT = Completeness("exact")


@dataclass(frozen=True)
class DeltaSet:
    """Wall vectors of an embedded sublattice, in sublattice coordinates."""

    sublattice: Sublattice
    vectors: tuple[tuple[int, ...], ...]
    norms: tuple[int, ...]
    completeness: Completeness

    def __post_init__(self) -> None:
        if len(self.vectors) != len(self.norms):
            raise ChamberError("vectors and norms must align")

    def __len__(self) -> int:
        return len(self.vectors)

    def __contains__(self, coords: Sequence[int]) -> bool:
        return tuple(coords) in self.vectors


def _wall_condition(gram: Sequence[Sequence[int]], m: Sublattice,
                    coords: Sequence[int]) -> int | None:
    """The norm of a wall vector, or None when ``coords`` is not a wall.

    ``gram`` is the induced Gram matrix of ``m``."""
    norm = _norm(gram, coords)
    if norm == NORM_MAIN:
        return NORM_MAIN
    if norm == NORM_DEEP and m.ambient_divisibility(coords) == 2:
        return NORM_DEEP
    return None


def _norm(gram: Sequence[Sequence[int]], x: Sequence[int]) -> int:
    return sum(map(operator.mul, x, [sum(map(operator.mul, row, x)) for row in gram]))


def _binary_form_solutions(gram: Sequence[Sequence[int]], target: int) -> list[Vec2] | None:
    """All integer solutions of a x^2 + 2 b x y + c y^2 = target, or None when
    the discriminant b^2 - a c is not a positive perfect square.

    Requires target != 0.  Square discriminant makes the form factor into two
    rational linear forms, so solutions biject with divisor pairs of a bounded
    integer; anything else is left to the bounded box search.  With a != 0,
    a Q = (a x + (b - s) y)(a x + (b + s) y), and the contents of the two
    factors multiply to |a| k with k = gcd(a, 2 b, c) (Gauss's lemma), so the
    first factor is gcd(a, b - s) times a divisor of target / k: the search
    costs O(sqrt|target|) however large the Gram entries are.
    """
    a, b, c = gram[0][0], gram[0][1], gram[1][1]
    disc = b * b - a * c
    if disc <= 0:
        return None
    root = math.isqrt(disc)
    if root * root != disc:
        return None
    s = root
    sols: set[Vec2] = set()
    if a != 0:
        rhs = a * target
        content, k = math.gcd(a, b - s), math.gcd(a, 2 * b, c)
        for u in [content * d for d in _signed_divisors(target // k)] if target % k == 0 else []:
            v = rhs // u
            num_y = v - u
            if num_y % (2 * s):
                continue
            y = num_y // (2 * s)
            num_x = u - (b - s) * y
            if num_x % a:
                continue
            sols.add((num_x // a, y))
    else:
        # Q = y (2 b x + c y); here s = |b| != 0.
        for y in _signed_divisors(target):
            rest = target // y - c * y
            if rest % (2 * b):
                continue
            sols.add((rest // (2 * b), y))
    return sorted(sols)


def _signed_divisors(n: int) -> list[int]:
    mag = abs(n)
    divs: list[int] = []
    for d in range(1, math.isqrt(mag) + 1):
        if mag % d == 0:
            divs.extend((d, mag // d))
    uniq = sorted(set(divs))
    return [s * d for d in uniq for s in (1, -1)]


def enumerate_delta(m: Sublattice, bound: int = DEFAULT_BOUND) -> DeltaSet:
    """Enumerate the wall set of ``m`` with a completeness certificate.

    Rank 1, and rank 2 with square discriminant, are solved exactly.  Any
    other shape is searched in the coordinate box |x_i| <= bound and gets a
    ``bounded(bound)`` certificate.  The box scan visits the
    (2 bound + 1)^(rank - 1) prefixes of the first rank - 1 coordinates; for
    each prefix the norm is a quadratic in the last coordinate, whose integer
    roots in the box are solved exactly.  A box of more than
    ``MAX_BOX_PREFIXES`` prefixes is refused with a ChamberError.
    """
    if bound < 1:
        raise ChamberError("bound must be positive")
    gram = m.induced().gram
    exact = True
    found: set[tuple[int, ...]] = set()
    if m.rank == 1:
        g = gram[0][0]
        for target in (NORM_MAIN, NORM_DEEP):
            if target % g == 0 and target // g >= 0:
                r = math.isqrt(target // g)
                if r * r == target // g and r > 0:
                    found.update({(r,), (-r,)})
    elif m.rank == 2:
        for target in (NORM_MAIN, NORM_DEEP):
            sols = _binary_form_solutions(gram, target)
            if sols is None:
                exact = False
                break
            found.update(sols)
        if not exact:
            found = _box_hits(gram, bound)
    else:
        exact = False
        found = _box_hits(gram, bound)

    vectors = []
    norms = []
    for coords in sorted(found):
        norm = _wall_condition(gram, m, coords)
        if norm is not None:
            vectors.append(coords)
            norms.append(norm)
    completeness = EXACT if exact else Completeness("bounded", bound)
    return DeltaSet(sublattice=m, vectors=tuple(vectors), norms=tuple(norms),
                    completeness=completeness)


def _box_hits(gram: Sequence[Sequence[int]], bound: int) -> set[tuple[int, ...]]:
    """The vectors of norm -2 or -10 in the box |x_i| <= bound.

    With a = G[r-1][r-1], b = sum_i G[r-1][i] x_i and q the norm of the
    prefix x, the vector (x, t) has norm T exactly when
    a t^2 + 2 b t + (q - T) = 0.
    """
    r = len(gram)
    prefixes = (2 * bound + 1) ** (r - 1)
    if prefixes > MAX_BOX_PREFIXES:
        raise ChamberError(
            f"box search over (2*{bound}+1)^{r - 1} = {prefixes} prefixes exceeds "
            f"the limit of {MAX_BOX_PREFIXES}; lower the bound")
    head = [row[:r - 1] for row in gram[:r - 1]]
    last = gram[r - 1][:r - 1]
    a = gram[r - 1][r - 1]
    hits: set[tuple[int, ...]] = set()
    for x in itertools.product(range(-bound, bound + 1), repeat=r - 1):
        q = _norm(head, x)
        b = sum(map(operator.mul, last, x))
        for target in (NORM_MAIN, NORM_DEEP):
            hits.update(x + (t,) for t in _last_coordinates(a, b, q - target, bound))
    return hits


def _last_coordinates(a: int, b: int, c: int, bound: int) -> Iterable[int]:
    """The integers t with |t| <= bound and a t^2 + 2 b t + c = 0."""
    if a == 0:
        if b == 0:
            return range(-bound, bound + 1) if c == 0 else ()
        t, rem = divmod(-c, 2 * b)
        return (t,) if rem == 0 and abs(t) <= bound else ()
    disc = b * b - a * c
    if disc < 0:
        return ()
    s = math.isqrt(disc)
    if s * s != disc:
        return ()
    return [n // a for n in {-b - s, -b + s} if n % a == 0 and abs(n // a) <= bound]


def classify_delta(m: Sublattice, coords: Sequence[int]) -> int:
    """Classify a wall vector of M = M0 (+) Z e by its M0 component d.

    The last basis vector of ``m`` must be the distinguished e summand:
    norm -2 and orthogonal to the rest.  Returns the first matching case:
    1 when (d, d) >= 0; 2 when d is a -2-vector of M0; 3 when d is twice a
    -2-vector of M0.
    """
    induced = m.induced()
    r = m.rank
    if r < 2:
        raise ChamberError("classification needs M = M0 (+) Ze with rank >= 2")
    if len(coords) != r:
        raise ChamberError(f"{tuple(coords)} is not a vector of this rank-{r} sublattice")
    if induced.gram[r - 1][r - 1] != -2 or any(induced.gram[r - 1][j] != 0 for j in range(r - 1)):
        raise ChamberError("last basis vector is not an orthogonal -2 summand")
    if _wall_condition(induced.gram, m, coords) is None:
        raise ChamberError(f"{tuple(coords)} is not a wall vector of this sublattice")
    d = coords[:r - 1]
    d_norm = induced.norm([*d, 0])  # e is orthogonal to M0
    if d_norm >= 0:
        return 1
    if d_norm == -2:
        return 2
    if all(x % 2 == 0 for x in d) and d_norm == -8:
        return 3
    raise ChamberError(f"wall vector {tuple(coords)} escapes the classification")


# ---------------------------------------------------------------------------
# Rank-2 chamber geometry


@dataclass(frozen=True)
class BoundaryTag:
    kind: str  # "wall" | "isotropic"
    delta: Vec2 | None = None


@dataclass(frozen=True)
class Chamber2:
    """An open chamber of the positive cone component, spanned by two rays."""

    ray_low: Vec2
    ray_high: Vec2
    tag_low: BoundaryTag
    tag_high: BoundaryTag

    @property
    def interior_sample(self) -> Vec2:
        return (self.ray_low[0] + self.ray_high[0], self.ray_low[1] + self.ray_high[1])


def _primitive(v: Sequence[int]) -> Vec2:
    g = math.gcd(v[0], v[1])
    if g == 0:
        raise ChamberError("zero vector has no ray")
    return (v[0] // g, v[1] // g)


def _cross(u: Vec2, v: Vec2) -> int:
    return u[0] * v[1] - u[1] * v[0]


def _isotropic_rays(gram: Sequence[Sequence[int]]) -> list[Vec2]:
    """Primitive generators of the two isotropic lines, up to sign."""
    a, b, c = gram[0][0], gram[0][1], gram[1][1]
    disc = b * b - a * c
    if disc <= 0:
        raise ChamberError("form is not hyperbolic")
    s = math.isqrt(disc)
    if s * s != disc:
        raise ChamberError("isotropic rays are irrational (non-square discriminant)")
    if a != 0:
        rays = [(-b + s, a), (-b - s, a)]
    else:
        rays = [(1, 0), (-c, 2 * b)]
    return [_primitive(r) for r in rays]


def check_rank2(m: Sublattice) -> None:
    """Chamber decompositions are defined here for rank-2 sublattices only."""
    if m.rank != 2:
        raise ChamberError("chamber decomposition requires a rank-2 sublattice")


def chambers_rank2(delta: DeltaSet, anchor: Sequence[int]) -> list[Chamber2]:
    """Chamber decomposition of the anchor's positive cone component.

    Requires an exact wall set for a rank-2 hyperbolic sublattice and an
    anchor of positive self-intersection.  Rays are primitive, oriented into
    the component, and ordered by exact cross-product comparison from one
    isotropic boundary to the other.
    """
    m = delta.sublattice
    check_rank2(m)
    if delta.completeness.kind != "exact":
        raise ChamberError("chamber decomposition requires an exact wall set")
    induced = m.induced()
    anchor = (int(anchor[0]), int(anchor[1]))
    if induced.norm(anchor) <= 0:
        raise ChamberError("anchor must have positive self-intersection")

    def pair(u: Vec2, v: Vec2) -> int:
        return induced.inner(u, v)

    def orient(ray: Vec2) -> Vec2:
        if pair(ray, anchor) > 0:
            return ray
        return (-ray[0], -ray[1])

    boundary = [orient(r) for r in _isotropic_rays(induced.gram)]
    rays: dict[Vec2, BoundaryTag] = {r: BoundaryTag("isotropic") for r in boundary}
    for coords in delta.vectors:
        gv = induced.pairing(coords)
        ray = orient(_primitive((-gv[1], gv[0])))
        if ray not in rays:
            rays[ray] = BoundaryTag("wall", tuple(coords))

    def cmp(u: Vec2, v: Vec2) -> int:
        return -_cross(u, v)

    ordered = sorted(rays, key=cmp_to_key(cmp))
    if ordered[0] not in boundary or ordered[-1] not in boundary:
        raise ChamberError("wall rays escape the positive cone component")
    chambers = []
    for low, high in zip(ordered, ordered[1:]):
        chamber = Chamber2(ray_low=low, ray_high=high,
                           tag_low=rays[low], tag_high=rays[high])
        sample = chamber.interior_sample
        if induced.norm(sample) <= 0 or pair(sample, anchor) <= 0:
            raise ChamberError("chamber sample escaped the positive cone")
        if any(induced.inner(sample, d) == 0 for d in delta.vectors):
            raise ChamberError("chamber sample lies on a wall")
        chambers.append(chamber)
    return chambers


def is_natural(m0_direction: Sequence[int], chamber: Chamber2) -> bool:
    """True when a boundary ray of the chamber spans the given rank-1 line."""
    direction = _primitive((int(m0_direction[0]), int(m0_direction[1])))
    neg = (-direction[0], -direction[1])
    return chamber.ray_low in (direction, neg) or chamber.ray_high in (direction, neg)


def chamber_orbits(chambers: Sequence[Chamber2], delta: DeltaSet,
                   generators: Sequence[Sequence[Sequence[int]]]) -> list[tuple[int, ...]]:
    """Orbits of the chamber list under integral isometries of M.

    Each generator must preserve the induced form, the positive cone
    component, and the wall set; orbits are returned as sorted tuples of
    0-based chamber indices, ordered by least element.
    """
    if not chambers:
        raise ChamberError("no chambers to act on")
    m = delta.sublattice
    induced = m.induced()
    index_of = {(c.ray_low, c.ray_high): i for i, c in enumerate(chambers)}
    sample = chambers[0].interior_sample

    perms = []
    for mat in generators:
        g = [[int(x) for x in row] for row in mat]
        if len(g) != 2 or any(len(row) != 2 for row in g):
            raise ChamberError("chamber generators must be 2x2 matrices")
        image_gram = exactmat.mat_mul(exactmat.mat_mul(exactmat.transpose(g), induced.gram), g)
        if image_gram != list(map(list, induced.gram)):
            raise ChamberError("generator does not preserve the form")
        image_sample = tuple(exactmat.mat_vec(g, sample))
        if induced.inner(image_sample, sample) <= 0:
            raise ChamberError("generator swaps the positive cone components")
        wall_set = set(delta.vectors)
        for coords in delta.vectors:
            if tuple(exactmat.mat_vec(g, list(coords))) not in wall_set:
                raise ChamberError("generator does not preserve the wall set")
        perm = []
        for chamber in chambers:
            img = [tuple(exactmat.mat_vec(g, list(ray)))
                   for ray in (chamber.ray_low, chamber.ray_high)]
            img = [_primitive(r) for r in img]
            if _cross(img[0], img[1]) < 0:
                img.reverse()
            key = (img[0], img[1])
            if key not in index_of:
                raise ChamberError("generator image is not a chamber")
            perm.append(index_of[key])
        perms.append(perm)

    seen: set[int] = set()
    orbits = []
    for start in range(len(chambers)):
        if start in seen:
            continue
        orbit = {start}
        frontier = [start]
        while frontier:
            cur = frontier.pop()
            for perm in perms:
                nxt = perm[cur]
                if nxt not in orbit:
                    orbit.add(nxt)
                    frontier.append(nxt)
        seen |= orbit
        orbits.append(tuple(sorted(orbit)))
    return orbits


# ---------------------------------------------------------------------------
# Deterministic SVG rendering


def chambers_svg(delta: DeltaSet, chambers: Sequence[Chamber2]) -> str:
    """A byte-for-byte deterministic SVG picture of a chamber decomposition."""
    size = 640
    cx, cy = size // 2, size - 40
    radius = size // 2 - 60
    palette = ["#cfe8ff", "#ffe3c2", "#d6f5d6", "#f5d6eb", "#e6e0f8", "#fff2b3"]

    def screen(ray: Vec2) -> tuple[float, float]:
        length = math.hypot(ray[0], ray[1])
        return (cx + radius * ray[0] / length, cy - radius * ray[1] / length)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    for i, chamber in enumerate(chambers):
        x1, y1 = screen(chamber.ray_low)
        x2, y2 = screen(chamber.ray_high)
        color = palette[i % len(palette)]
        parts.append(
            f'<path d="M {cx} {cy} L {x1:.2f} {y1:.2f} L {x2:.2f} {y2:.2f} Z" '
            f'fill="{color}" stroke="none"/>')
        mx, my = (cx + x1 + x2) / 3, (cy + y1 + y2) / 3
        parts.append(f'<text x="{mx:.2f}" y="{my:.2f}" font-size="16" '
                     f'text-anchor="middle" fill="#333">{i + 1}</text>')
    drawn: set[Vec2] = set()
    for chamber in chambers:
        for ray, tag in ((chamber.ray_low, chamber.tag_low),
                         (chamber.ray_high, chamber.tag_high)):
            if ray in drawn:
                continue
            drawn.add(ray)
            x, y = screen(ray)
            if tag.kind == "isotropic":
                style = 'stroke="#888" stroke-width="2" stroke-dasharray="6 4"'
                label = "isotropic"
            else:
                style = 'stroke="#c0392b" stroke-width="2"'
                label = "wall " + ",".join(str(c) for c in tag.delta)
            parts.append(f'<line x1="{cx}" y1="{cy}" x2="{x:.2f}" y2="{y:.2f}" {style}/>')
            parts.append(f'<text x="{x:.2f}" y="{y - 6:.2f}" font-size="12" '
                         f'text-anchor="middle" fill="#555">{label} '
                         f'({ray[0]},{ray[1]})</text>')
    parts.append(f'<circle cx="{cx}" cy="{cy}" r="3" fill="#000"/>')
    parts.append('</svg>')
    return "\n".join(parts) + "\n"
