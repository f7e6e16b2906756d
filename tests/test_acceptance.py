"""Acceptance gate: ten end-to-end criteria, one test and one line each.

Each test prints "criterion NN PASS" after its asserts; a failing criterion
shows up as a failed test with the frozen expectation in the diff.
"""

import math
import random
import time
from fractions import Fraction

from zeta_reference import riemann_zeta_em

from ihskit.chambers import chamber_orbits, chambers_rank2, enumerate_delta, is_natural
from ihskit.forms import (
    chern_values_from_roots,
    reference_checks,
    verify_product_identity,
    wedge_norm_identity,
)
from ihskit.isometry import (
    cartan_dieudonne,
    catalog_nikulin,
    make_admissible,
    product_of_reflections,
    reflection,
    spinor_norm,
)
from ihskit.lattice import (
    Lattice,
    Sublattice,
    build_standard,
    direct_sum,
    discriminant_group,
    is_2_elementary,
    signature,
)
from ihskit.torsion import (
    FiniteSpectrum,
    PowerSpectrum,
    equivariant_torsion,
    numerology,
    omega_integral_from_parts,
    zeta_prime_zero,
)


def flagship():
    l2 = build_standard("L2")
    h = tuple(1 if i in (16, 17) else 0 for i in range(23))
    e = tuple(1 if i == 22 else 0 for i in range(23))
    return Sublattice(l2, (h, e), label="M")


def report(n, text):
    print(f"criterion {n:02d} PASS: {text}")


def test_criterion_01_wall_set():
    """Rank-2 wall set: exact certificate, frozen vectors, under a second."""
    start = time.perf_counter()
    delta = enumerate_delta(flagship())
    elapsed = time.perf_counter() - start
    assert delta.completeness.kind == "exact"
    assert delta.vectors == ((-2, -3), (-2, 3), (0, -1), (0, 1), (2, -3), (2, 3))
    assert delta.norms == (-10, -10, -2, -2, -10, -10)
    assert elapsed < 1.0
    report(1, f"wall set exact, 6 vectors, {elapsed * 1000:.0f} ms")


def test_criterion_02_chamber_structure():
    """Chamber walk: ray order, the two distinguished chambers, naturality,
    two reflection orbits."""
    delta = enumerate_delta(flagship())
    chams = chambers_rank2(delta, (1, 0))
    rays = [(c.ray_low, c.ray_high) for c in chams]
    assert rays == [((1, -1), (3, -2)), ((3, -2), (1, 0)),
                    ((1, 0), (3, 2)), ((3, 2), (1, 1))]
    # The two chambers on either side of the square-2 ray.
    assert rays[2] == ((1, 0), (3, 2))
    assert rays[3] == ((3, 2), (1, 1))
    assert [is_natural((1, 0), c) for c in chams] == [False, True, True, False]
    orbits = chamber_orbits(chams, delta, [((1, 0), (0, -1))])
    assert orbits == [(0, 3), (1, 2)]
    report(2, "4 chambers in frozen order, natural = {2, 3}, 2 orbits")


def test_criterion_03_product_identity():
    """Weight-3 product identity: residual identically zero, plus 100 random
    Chern-root evaluations below 1e-12, under a second."""
    start = time.perf_counter()
    rep = verify_product_identity()
    assert rep.passed and rep.residual.is_zero
    rng = random.Random(811)
    worst = 0.0
    for _ in range(100):
        roots = [complex(rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1))
                 for _ in range(4)]
        vals = chern_values_from_roots(roots[:2], roots[2:])
        worst = max(worst, abs(rep.lhs.evaluate(vals) - rep.rhs.evaluate(vals)))
    elapsed = time.perf_counter() - start
    assert worst < 1e-12
    assert elapsed < 1.0
    report(3, f"residual 0, max numeric error {worst:.1e}")


def test_criterion_04_series_tables():
    """Every anchored series coefficient table reproduced exactly."""
    failures = [name for name, computed, expected in reference_checks()
                if computed != expected]
    assert failures == []
    report(4, f"{len(reference_checks())} coefficient tables exact")


def test_criterion_05_characteristic_integral():
    """Closed form -3(t^2 + 7) from parts for all 21 odd trace values, with
    integral Euler characteristics."""
    for t in range(-19, 22, 2):
        assert omega_integral_from_parts(t) == -3 * (t * t + 7)
        rec = numerology(t)
        assert rec.omega_int == -3 * (t * t + 7)
        assert rec.chi.denominator == 1
        assert rec.dim_def.denominator == 1 and rec.dim_def >= 0
    report(5, "all 21 odd t values match, chi and deformation dim integral")


def test_criterion_06_catalog():
    """Catalog invariants: signatures, determinants, and the rank-10
    2-elementary example."""
    assert signature(build_standard("U")) == (1, 1)
    assert build_standard("U").det == -1
    assert signature(build_standard("E8")) == (0, 8)
    assert build_standard("E8").det == 1
    assert signature(build_standard("LK3")) == (3, 19)
    assert build_standard("LK3").det == -1
    assert signature(build_standard("L2")) == (3, 20)
    assert build_standard("L2").det == 2
    twisted = direct_sum(build_standard("U", scale=2), build_standard("E8", scale=2))
    assert is_2_elementary(twisted)
    assert len(discriminant_group(twisted)) == 10
    report(6, "catalog signatures and determinants, 2-elementary of length 10")


def test_criterion_07_reflection_suite():
    """Spinor norms of reflections, exact reflection factorization round
    trips, and multiplicativity, within ten seconds."""
    pool = [
        build_standard("U"),
        Lattice("pm", ((1, 0), (0, -1))),
        Lattice("two", ((2, 0), (0, -2))),
        direct_sum(build_standard("U"), build_standard("Z-2")),
        Lattice("sig22", ((1, 0, 0, 0), (0, 1, 0, 0),
                          (0, 0, -1, 0), (0, 0, 0, -1))),
        direct_sum(build_standard("U"), build_standard("U")),
    ]

    def anisotropic(rng, lat):
        while True:
            v = tuple(rng.randint(-3, 3) for _ in range(lat.rank))
            if any(v) and lat.norm(v) != 0:
                return v

    start = time.perf_counter()
    rng = random.Random(812)
    for _ in range(100):
        lat = pool[rng.randrange(len(pool))]
        v = anisotropic(rng, lat)
        assert spinor_norm(reflection(lat, v)) == (1 if lat.norm(v) < 0 else -1)

    for _ in range(100):
        lat = pool[rng.randrange(len(pool))]
        word = [anisotropic(rng, lat) for _ in range(rng.randint(0, 6))]
        g = product_of_reflections(lat, word)
        mirrors = cartan_dieudonne(g)
        assert len(mirrors) <= 2 * lat.rank
        assert product_of_reflections(lat, mirrors).matrix == g.matrix
        expected = 1
        for m in word:
            expected *= 1 if lat.norm(m) < 0 else -1
        assert spinor_norm(g) == expected

    for _ in range(50):
        lat = pool[rng.randrange(len(pool))]
        g = product_of_reflections(lat, [anisotropic(rng, lat)
                                         for _ in range(rng.randint(0, 4))])
        h = product_of_reflections(lat, [anisotropic(rng, lat)
                                         for _ in range(rng.randint(0, 4))])
        assert spinor_norm(g.compose(h)) == spinor_norm(g) * spinor_norm(h)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(7, f"reflection suite exact, {elapsed:.1f} s")


def test_criterion_08_admissible_involution():
    """Admissible extension of the catalog square-2 involution: invariant
    lattice, spinor norm, trace parameter, Euler characteristic."""
    adm = make_admissible(catalog_nikulin("Zh"))
    assert adm.t == -17
    assert spinor_norm(adm.iota) == 1
    assert adm.sublattice.induced().gram == ((2, 0), (0, -2))
    n = adm.ambient.rank
    h = tuple(1 if i in (16, 17) else 0 for i in range(n))
    e = tuple(1 if i == n - 1 else 0 for i in range(n))
    assert sorted(adm.sublattice.basis) == sorted((h, e))
    chi = numerology(adm.t).chi
    assert chi == 37 == 1 + 36
    report(8, "t = -17, invariant lattice as expected, chi = 37")


def test_criterion_09_zeta_and_torsion():
    """Spectral zeta closed form against the Euler-Maclaurin oracle, and the
    torsion combination identities."""
    got = zeta_prime_zero(PowerSpectrum(a=1.0, p=2.0, w=2.0))
    assert abs(got + 2 * math.log(2 * math.pi)) < 1e-9
    value0, deriv0 = riemann_zeta_em(0.0)
    assert abs(got - 2.0 * (2.0 * deriv0 - math.log(1.0) * value0)) < 1e-9

    assert equivariant_torsion({}, 4) == 1.0
    spectra = {1: FiniteSpectrum(((2.0, 1.5), (3.0, -0.5))),
               2: FiniteSpectrum(((7.0, 2.0),))}
    flipped = {q: FiniteSpectrum(tuple((lam, -w) for lam, w in sp.entries))
               for q, sp in spectra.items()}
    assert abs(equivariant_torsion(spectra, 4)
               * equivariant_torsion(flipped, 4) - 1.0) < 1e-12
    tau = equivariant_torsion({1: FiniteSpectrum(((math.e, 1.0),))}, 4)
    assert abs(tau - math.exp(-1.0)) < 1e-12
    report(9, "power zeta matches oracle at 1e-9, torsion identities at 1e-12")


def test_criterion_10_pointwise_norms():
    """Pointwise Hermitian norm identity on 100 random forms, ratio within
    1e-10, under a second."""
    start = time.perf_counter()
    rng = random.Random(813)
    worst = 0.0
    for _ in range(100):
        alpha = [[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(4)]
                 for _ in range(4)]
        mu = complex(rng.gauss(0, 1), rng.gauss(0, 1)) + 0.5
        lhs, rhs = wedge_norm_identity(alpha, mu)
        worst = max(worst, abs(lhs / rhs - 1))
    elapsed = time.perf_counter() - start
    assert worst < 1e-10
    assert elapsed < 1.0
    report(10, f"norm ratio within {worst:.1e}")
