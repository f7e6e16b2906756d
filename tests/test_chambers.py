import itertools
import random
from math import gcd, isqrt

import pytest

from box_reference import box_walls
from ihskit.chambers import (
    Completeness,
    _binary_form_solutions,
    chamber_orbits,
    chambers_rank2,
    chambers_svg,
    classify_delta,
    enumerate_delta,
    is_natural,
)
from ihskit.errors import ChamberError, LatticeError
from ihskit.lattice import Lattice, Sublattice, build_standard, direct_sum


def unit(n, *idx, coef=1):
    return tuple(coef if i in idx else 0 for i in range(n))


def flagship():
    """Rank-2 sublattice of the extended K3 lattice spanned by a square-2
    class in the first hyperbolic plane and the extra (-2) vector."""
    l2 = build_standard("L2")
    h = tuple(1 if i in (16, 17) else 0 for i in range(23))
    e = unit(23, 22)
    return Sublattice(l2, (h, e), label="M")


def brute_walls(m, bound):
    """Wall vectors by direct search: square -2, or square -10 with ambient
    divisibility exactly 2, computed straight from the ambient Gram matrix."""
    ambient = m.ambient
    out = []
    for coords in itertools.product(range(-bound, bound + 1), repeat=m.rank):
        if not any(coords):
            continue
        v = m.embed(coords)
        n = ambient.norm(v)
        if n == -2:
            out.append(coords)
        elif n == -10:
            pairings = [sum(g * x for g, x in zip(row, v)) for row in ambient.gram]
            if gcd(*(abs(p) for p in pairings)) == 2:
                out.append(coords)
    return sorted(out)


def test_flagship_wall_set_exact():
    delta = enumerate_delta(flagship())
    assert delta.completeness.kind == "exact"
    assert delta.vectors == ((-2, -3), (-2, 3), (0, -1), (0, 1), (2, -3), (2, 3))
    assert delta.norms == (-10, -10, -2, -2, -10, -10)
    assert (0, 1) in delta
    assert (1, 1) not in delta


def test_flagship_walls_match_brute_force():
    m = flagship()
    assert list(enumerate_delta(m).vectors) == brute_walls(m, 50)


def test_rank_one_wall_sets():
    l2 = build_standard("L2")
    e = Sublattice(l2, (unit(23, 22),), label="Ze")
    delta = enumerate_delta(e)
    assert delta.completeness.kind == "exact"
    assert delta.vectors == ((-1,), (1,))

    # Square -4 generator: no walls at all.
    m4 = Sublattice(Lattice("A", ((-4,),)), ((1,),))
    assert enumerate_delta(m4).vectors == ()

    # Square -10 generator with ambient divisibility 2.
    amb = Lattice("B", ((-2, 0), (0, -2)))
    m10 = Sublattice(amb, ((1, 2),))
    assert enumerate_delta(m10).vectors == ((-1,), (1,))

    # Square -10 generator with ambient divisibility 10: not a wall.
    m10b = Sublattice(Lattice("C", ((-10,),)), ((1,),))
    assert enumerate_delta(m10b).vectors == ()


def test_scaled_families_closed_form():
    # M = Z(m h) + Z e inside the extended K3 lattice; the wall equations
    # reduce to b^2 - (ma)^2 in {1, 5}, so the answer is known in closed form.
    # m = 2^80 makes (m h, m h) too large to enumerate its divisors.
    l2 = build_standard("L2")
    e = unit(23, 22)
    for block in ((16, 17), (18, 19)):
        h = unit(23, *block)
        for m in (*range(1, 7), 2 ** 80):
            sub = Sublattice(l2, (tuple(m * x for x in h), e), label=f"M{m}")
            delta = enumerate_delta(sub)
            assert delta.completeness.kind == "exact", m
            expected = {(0, 1), (0, -1)}
            if m in (1, 2):
                a = 2 // m
                expected |= {(a, 3), (a, -3), (-a, 3), (-a, -3)}
            assert set(delta.vectors) == expected, (block, m)
            assert list(delta.vectors) == brute_walls(sub, 20) or m > 2


def divisor_pair_solutions(gram, target):
    """The solutions of a x^2 + 2 b x y + c y^2 = target, a != 0, with square
    discriminant s^2: one candidate per divisor u of a * target, from
    a * target = (a x + (b - s) y)(a x + (b + s) y)."""
    a, b, c = gram[0][0], gram[0][1], gram[1][1]
    s = isqrt(b * b - a * c)
    rhs = a * target
    out = set()
    for u in (sign * d for d in range(1, abs(rhs) + 1) if rhs % d == 0 for sign in (1, -1)):
        y, rem = divmod(rhs // u - u, 2 * s)
        if not rem and (u - (b - s) * y) % a == 0:
            out.add(((u - (b - s) * y) // a, y))
    return sorted(out)


def test_binary_form_solutions_match_every_divisor_pair():
    # Forms with square discriminant and Gram entries sharing factors, so the
    # contents of the two linear factors are often not 1.
    rng = random.Random(402)
    checked = 0
    while checked < 400:
        k = rng.choice((1, 1, 2, 3, 5, 6))
        a, b, c = (k * rng.randint(-6, 6) for _ in range(3))
        disc = b * b - a * c
        if a == 0 or disc <= 0 or isqrt(disc) ** 2 != disc:
            continue
        for target in (-2, -10):
            gram = ((a, b), (b, c))
            assert _binary_form_solutions(gram, target) == divisor_pair_solutions(gram, target)
        checked += 1


def test_box_fallback_rank3_is_flagged():
    l2 = build_standard("L2")
    sub = Sublattice(l2, (unit(23, 16, 17), unit(23, 18, 19), unit(23, 22)),
                     label="rank3")
    delta = enumerate_delta(sub, bound=3)
    assert delta.completeness.kind == "bounded"
    assert delta.completeness.bound == 3
    # Bounded enumeration still agrees with brute force inside the box.
    assert list(delta.vectors) == brute_walls(sub, 3)
    assert set(delta.norms) == {-2, -10}


def _random_box_sublattice(rng, rank):
    """A random sublattice of L2 whose wall set needs the box search."""
    l2 = build_standard("L2")
    while True:
        basis = []
        for _ in range(rank):
            v = [0] * 23
            for i in rng.sample(range(23), rng.randint(1, 3)):
                v[i] = rng.choice((-2, -1, 1, 2))
            basis.append(tuple(v))
        try:
            m = Sublattice(l2, tuple(basis))
            gram = m.induced().gram
        except LatticeError:
            continue  # dependent rows or a degenerate induced form
        if rank == 2:
            disc = gram[0][1] ** 2 - gram[0][0] * gram[1][1]
            if disc > 0 and isqrt(disc) ** 2 == disc:
                continue  # split over Q: solved exactly, not by the box
        return m


def _box_cases():
    rng = random.Random(20240618)
    cases = [(_random_box_sublattice(rng, rank), rng.randint(2, 9))
             for rank in (2,) * 10 + (3,) * 10 + (4,) * 4]
    l2 = build_standard("L2")
    f, g, e = unit(23, 16), unit(23, 17), unit(23, 22)
    eps = unit(23, 0)
    # Isotropic last basis vector f: a = 0, b = the g coefficient, and a = b = 0
    # when that coefficient vanishes (then every t solves at prefix norm -2).
    cases += [(Sublattice(l2, (e, g, f)), 4),
              (Sublattice(l2, (eps, e, tuple(x + y for x, y in zip(g, eps)), f)), 3)]
    # Indefinite, with -10 walls of ambient divisibility 2.
    cases += [(Sublattice(l2, (f, g, e)), 6),
              (Sublattice(l2, (tuple(x + y for x, y in zip(f, g)), e, eps)), 7)]
    # E8 simple roots, the shapes of the box-search benchmark jobs.
    for roots, bound in (((0, 2, 3, 4), 8), ((8, 10, 11, 12), 6), ((1, 3, 4), 12),
                         ((5, 6), 50)):
        cases.append((Sublattice(l2, tuple(unit(23, i) for i in roots)), bound))
    return cases


def test_box_scan_matches_reference():
    saw_deep = saw_isotropic_run = False
    for m, bound in _box_cases():
        delta = enumerate_delta(m, bound)
        assert delta.completeness == Completeness("bounded", bound)
        assert (delta.vectors, delta.norms) == box_walls(m, bound), (m.basis, bound)
        saw_deep |= -10 in delta.norms
        saw_isotropic_run |= (1, 0, 0) in delta and (1, 0, 4) in delta
    assert saw_deep and saw_isotropic_run


def test_box_scan_pairs_no_candidate(monkeypatch):
    calls = 0
    pairing = Lattice.pairing

    def counting(self, v):
        nonlocal calls
        calls += 1
        return pairing(self, v)

    monkeypatch.setattr(Lattice, "pairing", counting)
    l2 = build_standard("L2")
    m = Sublattice(l2, tuple(unit(23, i) for i in (0, 2, 3, 4)))
    delta = enumerate_delta(m, bound=8)
    assert delta.completeness.kind == "bounded"
    # The r pairings G b of the basis vectors, then at most one per wall;
    # a pairing per box candidate would be 17^4 - 1 = 83520.
    assert m.rank <= calls <= len(delta) + m.rank ** 2


def test_box_scan_refuses_oversize_box():
    l2 = build_standard("L2")
    roots = Sublattice(l2, (unit(23, 0), unit(23, 2)))
    with pytest.raises(ChamberError, match="2000001 prefixes"):
        enumerate_delta(roots, bound=10 ** 6)
    # The exact paths search no box, so the limit does not apply to them.
    assert enumerate_delta(flagship(), bound=10 ** 9).completeness.kind == "exact"


def test_classification_of_walls():
    m = flagship()
    # All flagship walls have orthogonal part of nonnegative square.
    for coords in ((0, 1), (0, -1), (2, 3), (2, -3), (-2, 3), (-2, -3)):
        assert classify_delta(m, coords) == 1
    with pytest.raises(ChamberError):
        classify_delta(m, (1, 1))  # not a wall


def test_classification_case_two():
    amb = Lattice("D", ((-2, 0), (0, -2)))
    m = Sublattice(amb, ((1, 0), (0, 1)))
    assert classify_delta(m, (1, 0)) == 2


def test_classification_case_three_in_u():
    # delta = 2(f - g) + e with f, g the hyperbolic basis: the orthogonal
    # part has square -8 and halves to a (-2)-vector.
    amb = direct_sum(build_standard("U"), build_standard("Z-2"))
    m = Sublattice(amb, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    delta = (2, -2, 1)
    assert amb.norm(delta) == -10
    assert classify_delta(m, delta) == 3


def test_classification_requires_split_minus_two():
    u = build_standard("U")
    m = Sublattice(u, ((1, 0), (0, 1)))
    with pytest.raises(ChamberError):
        classify_delta(m, (1, -1))


def test_flagship_chambers():
    delta = enumerate_delta(flagship())
    chams = chambers_rank2(delta, (1, 0))
    rays = [(c.ray_low, c.ray_high) for c in chams]
    assert rays == [((1, -1), (3, -2)), ((3, -2), (1, 0)),
                    ((1, 0), (3, 2)), ((3, 2), (1, 1))]
    # End rays are isotropic, interior rays are walls.
    assert chams[0].tag_low.kind == "isotropic"
    assert chams[-1].tag_high.kind == "isotropic"
    for c in chams:
        for tag, ray in ((c.tag_low, c.ray_low), (c.tag_high, c.ray_high)):
            if tag.kind == "wall":
                gram = delta.sublattice.induced().gram
                pair = sum(ray[i] * gram[i][j] * tag.delta[j]
                           for i in range(2) for j in range(2))
                assert pair == 0


def test_flagship_chamber_samples():
    delta = enumerate_delta(flagship())
    gram = delta.sublattice.induced().gram
    for c in chambers_rank2(delta, (1, 0)):
        s = c.interior_sample
        norm = sum(s[i] * gram[i][j] * s[j] for i in range(2) for j in range(2))
        assert norm > 0
        for w in delta.vectors:
            assert sum(s[i] * gram[i][j] * w[j] for i in range(2) for j in range(2)) != 0


def test_flagship_natural_chambers():
    delta = enumerate_delta(flagship())
    chams = chambers_rank2(delta, (1, 0))
    assert [is_natural((1, 0), c) for c in chams] == [False, True, True, False]
    # Direction only matters up to sign and scale.
    assert is_natural((-2, 0), chams[1])


def test_flagship_orbits():
    delta = enumerate_delta(flagship())
    chams = chambers_rank2(delta, (1, 0))
    refl_e = ((1, 0), (0, -1))
    assert chamber_orbits(chams, delta, [refl_e]) == [(0, 3), (1, 2)]
    assert chamber_orbits(chams, delta, []) == [(0,), (1,), (2,), (3,)]


def test_orbit_generator_validation():
    delta = enumerate_delta(flagship())
    chams = chambers_rank2(delta, (1, 0))
    with pytest.raises(ChamberError):
        chamber_orbits(chams, delta, [((1, 1), (0, 1))])  # not an isometry
    with pytest.raises(ChamberError):
        chamber_orbits(chams, delta, [((-1, 0), (0, -1))])  # swaps components


def test_empty_wall_set_single_chamber():
    # Gram diag(2, -50): both wall equations are unsolvable, so the positive
    # cone component is a single chamber between the isotropic rays.
    l2 = build_standard("L2")
    h = unit(23, 16, 17)
    sub = Sublattice(l2, (h, unit(23, 22, coef=5)), label="wide")
    delta = enumerate_delta(sub)
    assert delta.vectors == ()
    assert delta.completeness.kind == "exact"
    chams = chambers_rank2(delta, (1, 0))
    assert [(c.ray_low, c.ray_high) for c in chams] == [((5, -1), (5, 1))]
    assert chams[0].tag_low.kind == "isotropic"
    assert chams[0].tag_high.kind == "isotropic"


def test_chambers_rejects_bad_anchor():
    delta = enumerate_delta(flagship())
    with pytest.raises(ChamberError):
        chambers_rank2(delta, (0, 1))  # negative square
    with pytest.raises(ChamberError):
        chambers_rank2(delta, (1, 1))  # isotropic


def test_chambers_rejects_incomplete_delta():
    l2 = build_standard("L2")
    sub = Sublattice(l2, (unit(23, 16, 17), unit(23, 18, 19), unit(23, 22)),
                     label="rank3")
    delta = enumerate_delta(sub, bound=2)
    with pytest.raises(ChamberError):
        chambers_rank2(delta, (1, 0, 0))


def test_random_rank2_chambers_are_consistent():
    # Random primitive anchors in the flagship chamber structure: the chamber
    # list is independent of the anchor as long as it stays in one component.
    delta = enumerate_delta(flagship())
    base = [(c.ray_low, c.ray_high) for c in chambers_rank2(delta, (1, 0))]
    rng = random.Random(401)
    for _ in range(30):
        a = rng.randint(1, 9)
        b = rng.randint(-a + 1, a - 1)  # 2a^2 - 2b^2 > 0
        chams = chambers_rank2(delta, (a, b))
        assert [(c.ray_low, c.ray_high) for c in chams] == base


def test_svg_deterministic():
    delta = enumerate_delta(flagship())
    chams = chambers_rank2(delta, (1, 0))
    svg1 = chambers_svg(delta, chams)
    svg2 = chambers_svg(delta, chams)
    assert svg1 == svg2
    assert svg1.startswith("<svg")
    assert "wall" in svg1
    assert svg1.count("<path") == len(chams)
