import math
import random
from fractions import Fraction

import pytest
from dense_reference import dense_cartan_dieudonne

from ihskit import exactmat
from ihskit.errors import IsometryError
from ihskit.lattice import (
    Lattice,
    Sublattice,
    build_standard,
    direct_sum,
    is_hyperbolic,
    signature,
)
from ihskit.isometry import (
    Isometry,
    cartan_dieudonne,
    catalog_nikulin,
    identity_isometry,
    in_o_plus,
    invariant_lattice,
    make_admissible,
    nikulin_extension,
    product_of_reflections,
    reflection,
    spinor_norm,
)

# Small test lattices of rank <= 4 with plenty of integral isometries.
POOL = [
    build_standard("U"),
    Lattice("Z1+Z-1", ((1, 0), (0, -1))),
    Lattice("Z2+Z-2", ((2, 0), (0, -2))),
    direct_sum(build_standard("U"), build_standard("Z-2")),
    Lattice("diag(1,1,-1,-1)", ((1, 0, 0, 0), (0, 1, 0, 0),
                                (0, 0, -1, 0), (0, 0, 0, -1))),
    direct_sum(build_standard("U"), build_standard("U")),
]
CATALOG = [build_standard(name) for name in ("E8", "Lambda_4", "Lambda_0")]


def random_anisotropic(rng, lat, lo=-3, hi=3):
    while True:
        v = tuple(rng.randint(lo, hi) for _ in range(lat.rank))
        if any(v) and lat.norm(v) != 0:
            return v


def random_word(rng, lat, max_mirrors=6):
    mirrors = [random_anisotropic(rng, lat) for _ in range(rng.randint(0, max_mirrors))]
    return product_of_reflections(lat, mirrors), mirrors


def rational_mirrors(rng, lat, count):
    out = []
    while len(out) < count:
        u, w = random_anisotropic(rng, lat), random_anisotropic(rng, lat)
        m = tuple(a + Fraction(b, rng.randint(2, 5)) for a, b in zip(u, w))
        if lat.norm(m) != 0:
            out.append(m)
    return out


def orthogonal_mirrors(rng, lat, count, lo=-3, hi=3):
    """Pairwise orthogonal anisotropic mirrors (Gram-Schmidt over Q); the
    product of their reflections is an involution."""
    out = []
    while len(out) < count:
        v = [Fraction(x) for x in random_anisotropic(rng, lat, lo, hi)]
        for m in out:
            c = lat.inner(v, m) / lat.norm(m)
            v = [a - c * b for a, b in zip(v, m)]
        if lat.norm(v) != 0:
            out.append(tuple(v))
    return out


def minus_eigenspace_positive_index(g):
    """Positive index of the form on the -1 eigenspace of ``g``."""
    shifted = [[x + (i == j) for j, x in enumerate(row)] for i, row in enumerate(g.matrix)]
    basis = []
    for v in exactmat.fraction_kernel(shifted):
        scale = math.lcm(*(x.denominator for x in v))
        basis.append([int(x * scale) for x in v])
    gram = [[g.lattice.inner(u, w) for w in basis] for u in basis]
    return signature(Lattice("minus", gram))[0]


def test_isometry_validation():
    u = build_standard("U")
    with pytest.raises(IsometryError):
        Isometry(u, ((1, 1), (0, 1)))  # shear does not preserve the form
    with pytest.raises(IsometryError):
        Isometry(u, ((1, 0),))  # wrong shape
    swap = Isometry(u, ((0, 1), (1, 0)))
    assert swap.is_involution
    assert swap.trace() == 0


def test_reflection_basics():
    lat = Lattice("m", ((2, 0), (0, -2)))
    s = reflection(lat, (0, 1))
    assert s.apply((0, 1)) == (0, -1)
    assert s.apply((1, 0)) == (1, 0)
    assert s.compose(s).matrix == identity_isometry(lat).matrix
    with pytest.raises(IsometryError):
        reflection(build_standard("U"), (1, 0))  # isotropic mirror


def test_reflection_rational_mirror():
    # Mirrors only need nonzero norm, not integrality of the image lattice.
    lat = Lattice("z2", ((2, 0), (0, 2)))
    s = reflection(lat, (Fraction(1, 2), Fraction(1, 2)))
    assert s.apply((1, 1)) == (-1, -1)
    assert s.apply((1, -1)) == (1, -1)


def test_cartan_dieudonne_roundtrip_exact():
    rng = random.Random(301)
    for _ in range(100):
        lat = POOL[rng.randrange(len(POOL))]
        g, _ = random_word(rng, lat)
        mirrors = cartan_dieudonne(g)
        assert len(mirrors) <= 2 * lat.rank
        assert product_of_reflections(lat, mirrors).matrix == g.matrix


def test_cartan_dieudonne_matches_dense_reference():
    # Same mirrors, exactly, as the dense O(rank^3)-per-step factorization;
    # for involutions the spinor norm also matches (-1)^(positive index of
    # the form on the -1 eigenspace).
    rng = random.Random(306)
    cases = []
    for lat in POOL + CATALOG:
        for _ in range(4 if lat in POOL else 2):
            cases.append(random_word(rng, lat)[0])
            cases.append(product_of_reflections(lat, rational_mirrors(rng, lat, rng.randint(1, 3))))
            count = rng.randint(1, min(lat.rank, 5))
            cases.append(product_of_reflections(lat, orthogonal_mirrors(rng, lat, count)))
    l2 = build_standard("L2")
    cases.append(product_of_reflections(
        l2, [random_anisotropic(rng, l2, -1, 1) for _ in range(3)]))
    cases.append(product_of_reflections(l2, orthogonal_mirrors(rng, l2, 4, -1, 1)))
    involutions = non_involutions = 0
    for g in cases:
        mirrors = cartan_dieudonne(g)
        assert mirrors == dense_cartan_dieudonne(g)
        if not mirrors:
            continue
        if g.is_involution:
            involutions += 1
            assert spinor_norm(g) == (-1) ** minus_eigenspace_positive_index(g)
        else:
            non_involutions += 1
    assert cases[-1].is_involution and not cases[-2].is_involution
    assert not all(g.is_integral for g in cases)
    assert involutions >= 20 and non_involutions >= 20


def test_cartan_dieudonne_does_no_dense_work(monkeypatch):
    # The factorization applies reflections as rank-1 updates and keeps the
    # orthocomplement incrementally: no matrix product, no validated
    # reflection isometry and no fresh kernel on any step.
    iota = make_admissible(catalog_nikulin("Zh")).iota
    calls = {"mat_mul": 0, "fraction_kernel": 0, "Isometry": 0}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(exactmat, "mat_mul", counting("mat_mul", exactmat.mat_mul))
    monkeypatch.setattr(exactmat, "fraction_kernel",
                        counting("fraction_kernel", exactmat.fraction_kernel))
    monkeypatch.setattr(Isometry, "__post_init__",
                        counting("Isometry", Isometry.__post_init__))
    mirrors = cartan_dieudonne(iota)
    assert len(mirrors) == 21
    assert calls == {"mat_mul": 0, "fraction_kernel": 0, "Isometry": 0}
    reflection(iota.lattice, mirrors[0])  # the counters see the dense path
    assert calls["Isometry"] == 1 and calls["mat_mul"] == 2


def test_cartan_dieudonne_identity_is_empty():
    for lat in POOL:
        assert cartan_dieudonne(identity_isometry(lat)) == []


def test_spinor_norm_of_single_reflection():
    # Positive exactly when the mirror has negative square.
    rng = random.Random(302)
    for _ in range(100):
        lat = POOL[rng.randrange(len(POOL))]
        v = random_anisotropic(rng, lat)
        expected = 1 if lat.norm(v) < 0 else -1
        assert spinor_norm(reflection(lat, v)) == expected


def test_spinor_norm_multiplicative():
    rng = random.Random(303)
    for _ in range(60):
        lat = POOL[rng.randrange(len(POOL))]
        g, _ = random_word(rng, lat)
        h, _ = random_word(rng, lat)
        assert spinor_norm(g.compose(h)) == spinor_norm(g) * spinor_norm(h)


def test_spinor_norm_factorization_independent():
    # The defining factorization is not unique; the sign must not depend on it.
    rng = random.Random(304)
    for _ in range(60):
        lat = POOL[rng.randrange(len(POOL))]
        g, word = random_word(rng, lat)
        direct = 1
        for m in word:
            direct *= 1 if lat.norm(m) < 0 else -1
        assert spinor_norm(g) == direct


def test_spinor_norm_frozen_values():
    u = build_standard("U")
    assert spinor_norm(Isometry(u, ((-1, 0), (0, -1)))) == -1
    neg = Lattice("neg", ((-2, 0), (0, -2)))
    assert spinor_norm(Isometry(neg, ((-1, 0), (0, -1)))) == 1
    assert spinor_norm(identity_isometry(u)) == 1
    assert in_o_plus(identity_isometry(u))
    assert not in_o_plus(Isometry(u, ((-1, 0), (0, -1))))


def test_invariant_lattice_swap_on_u():
    u = build_standard("U")
    fix = invariant_lattice(Isometry(u, ((0, 1), (1, 0))))
    assert fix.basis == ((1, 1),)
    assert fix.induced().gram == ((2,),)
    assert fix.is_primitive


def test_invariant_lattice_is_saturated():
    rng = random.Random(305)
    found = 0
    while found < 30:
        lat = POOL[rng.randrange(len(POOL))]
        g, _ = random_word(rng, lat)
        try:
            fix = invariant_lattice(g)
        except IsometryError:
            continue  # trivial fixed part
        assert fix.is_primitive
        for v in fix.basis:
            assert g.apply(v) == v
        found += 1


def test_invariant_lattice_trivial_raises():
    u = build_standard("U")
    with pytest.raises(IsometryError):
        invariant_lattice(Isometry(u, ((-1, 0), (0, -1))))


def test_catalog_nikulin_zh():
    iota = catalog_nikulin("Zh")
    assert iota.lattice.label == "LK3"
    assert iota.is_involution
    assert iota.trace() == -20
    fix = invariant_lattice(iota)
    assert fix.rank == 1
    assert fix.induced().gram == ((2,),)


def test_catalog_nikulin_u():
    iota = catalog_nikulin("U")
    assert iota.trace() == -18
    fix = invariant_lattice(iota)
    assert fix.rank == 2
    assert fix.induced().gram in (((0, 1), (1, 0)), ((0, -1), (-1, 0)))


def test_catalog_nikulin_unknown():
    with pytest.raises(IsometryError):
        catalog_nikulin("E8")


def test_nikulin_extension_rejects_wrong_action():
    lk3 = build_standard("LK3")
    n = lk3.rank
    h = tuple(1 if i in (16, 17) else 0 for i in range(n))
    m0 = Sublattice(lk3, (h,), label="Zh")
    minus_id = tuple(tuple(-1 if i == j else 0 for j in range(n)) for i in range(n))
    with pytest.raises(IsometryError):
        nikulin_extension(m0, minus_id)  # acts by -1 on M0 itself


def test_nikulin_extension_rejects_non_involution():
    lk3 = build_standard("LK3")
    n = lk3.rank
    h = tuple(1 if i in (16, 17) else 0 for i in range(n))
    m0 = Sublattice(lk3, (h,), label="Zh")
    with pytest.raises(IsometryError):
        nikulin_extension(m0, identity_isometry(lk3).matrix)


def test_make_admissible_zh():
    adm = make_admissible(catalog_nikulin("Zh"))
    assert adm.t == -17
    assert adm.iota.trace() == -19
    assert spinor_norm(adm.iota) == adm.spinor_norm == 1
    assert adm.sublattice.rank == 2
    assert adm.sublattice.induced().gram == ((2, 0), (0, -2))
    assert is_hyperbolic(adm.sublattice.induced())
    # Basis spans exactly h and the extra (-2) vector.
    n = adm.ambient.rank
    h = tuple(1 if i in (16, 17) else 0 for i in range(n))
    e = tuple(1 if i == n - 1 else 0 for i in range(n))
    assert sorted(adm.sublattice.basis) == sorted((h, e))


def test_make_admissible_u():
    adm = make_admissible(catalog_nikulin("U"))
    assert adm.t == -15
    assert adm.sublattice.rank == 3


def test_make_admissible_rejects_wrong_lattice():
    u = build_standard("U")
    with pytest.raises(IsometryError):
        make_admissible(identity_isometry(u))
