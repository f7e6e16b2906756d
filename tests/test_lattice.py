import random
from math import gcd

import pytest

from conftest import random_unimodular
from dense_reference import congruence_signature, fraction_kernel

from ihskit import exactmat
from ihskit.errors import LatticeError
from ihskit.lattice import (
    Lattice,
    Sublattice,
    build_standard,
    catalog_labels,
    direct_sum,
    discriminant_group,
    divisibility,
    is_2_elementary,
    is_hyperbolic,
    is_primitive_sublattice,
    lattice_summary,
    orthogonal_basis,
    rescale,
    signature,
)


def test_catalog_invariants_frozen():
    expected = {
        "U": (2, -1, (1, 1), True),
        "E8": (8, 1, (0, 8), True),
        "LK3": (22, -1, (3, 19), True),
        "L2": (23, 2, (3, 20), True),
        "Lambda_8U": (4, 1, (2, 2), True),
    }
    for name, (rank, det, sig, even) in expected.items():
        lat = build_standard(name)
        assert lat.rank == rank, name
        assert lat.det == det, name
        assert signature(lat) == sig, name
        assert lat.is_even == even, name


def test_catalog_series_lambda():
    # Odd forms of signature (2, 10 - k), rank 12 - k.
    for k in range(10):
        lat = build_standard(f"Lambda_{k}")
        assert lat.rank == 12 - k
        assert signature(lat) == (2, 10 - k)
        assert not lat.is_even
        assert abs(lat.det) == 1


def test_catalog_unknown_label():
    with pytest.raises(LatticeError):
        build_standard("NOPE")
    assert "U" in catalog_labels()


def test_parametric_rank_one():
    assert build_standard("Z5").gram == ((5,),)
    assert build_standard("Z-2").gram == ((-2,),)
    with pytest.raises(LatticeError):
        build_standard("Z0")
    with pytest.raises(LatticeError, match="Exceeds the limit"):
        build_standard("Z" + "1" * 5000)


def test_rescale():
    u2 = build_standard("U", scale=2)
    assert u2.gram == ((0, 2), (2, 0))
    assert u2.det == -4
    e82 = build_standard("E8", scale=2)
    assert e82.det == 256
    assert discriminant_group(e82) == (2,) * 8


def test_two_elementary_example():
    # U(2) + E8(2) has discriminant group (Z/2)^10.
    lat = direct_sum(build_standard("U", scale=2), build_standard("E8", scale=2))
    assert is_2_elementary(lat)
    assert discriminant_group(lat) == (2,) * 10


def test_l2_discriminant():
    l2 = build_standard("L2")
    assert discriminant_group(l2) == (2,)
    assert is_2_elementary(l2)


def test_signature_invariant_under_congruence():
    rng = random.Random(201)
    for _ in range(30):
        lat = random.Random(rng.random()).choice(
            [build_standard("U"), build_standard("E8"),
             Lattice("d", ((1, 0, 0), (0, -3, 1), (0, 1, -2)))])
        s = random_unimodular(rng, lat.rank)
        g = exactmat.mat_mul(exactmat.mat_mul(s, lat.gram), exactmat.transpose(s))
        assert signature(Lattice("t", tuple(tuple(r) for r in g))) == signature(lat)


def test_signature_additive_under_direct_sum():
    a, b = build_standard("U"), build_standard("E8")
    pa, na = signature(a)
    pb, nb = signature(b)
    assert signature(direct_sum(a, b)) == (pa + pb, na + nb)


def test_signature_zero_diagonal_pivot():
    # Forces the pivot repair: no nonzero diagonal entry to start from.
    assert signature(build_standard("U")) == (1, 1)
    assert signature(Lattice("uu", ((0, 0, 0, 1), (0, 0, 1, 0),
                                    (0, 1, 0, 0), (1, 0, 0, 0)))) == (2, 2)


def random_symmetric(rng, n, zero_diagonal=False):
    """A random nondegenerate symmetric integer matrix with small, often zero,
    entries; with ``zero_diagonal`` every basis vector is isotropic."""
    while True:
        gram = [[0] * n for _ in range(n)]
        for i in range(n):
            if not zero_diagonal:
                gram[i][i] = rng.choice([0, 2, -2, 1, -1, 3, -4])
            for j in range(i + 1, n):
                gram[i][j] = gram[j][i] = rng.choice([0, 0, 1, -1, 2, -3])
        if exactmat.det_int(gram):
            return gram


def signature_cases(rng):
    """Dense Grams of ranks 1-23, block-diagonal and zero-diagonal Grams,
    and the catalog."""
    cases = [random_symmetric(rng, n) for n in range(1, 24) for _ in range(2)]
    for _ in range(10):
        blocks = [Lattice("b", random_symmetric(rng, rng.randint(1, 4)))
                  for _ in range(rng.randint(2, 5))]
        cases.append(direct_sum(*blocks).gram)
    cases += [random_symmetric(rng, n, zero_diagonal=True)
              for n in (2, 2, 3, 4, 4, 5, 6, 8, 10, 12) for _ in range(2)]
    cases += [build_standard(label).gram for label in catalog_labels()]
    return cases


def test_signature_matches_congruence_diagonalization():
    # The dense-reference oracle is an independent elimination over Q.
    for gram in signature_cases(random.Random(211)):
        lat = Lattice("t", gram)
        assert signature(lat) == congruence_signature(gram), gram


def test_orthogonal_basis_is_an_anisotropic_orthogonal_basis():
    for gram in signature_cases(random.Random(212))[::3]:
        lat = Lattice("t", gram)
        triples = list(orthogonal_basis(lat))
        basis = [x for x, _, _ in triples]
        assert len(basis) == lat.rank and exactmat.det_int(basis) != 0
        for i, (x, den, norm) in enumerate(triples):
            assert den > 0 and norm == lat.norm(x) != 0
            assert all(lat.inner(x, y) == 0 for y in basis[:i])


def test_divisibility_frozen_cases():
    u = build_standard("U")
    assert divisibility(u, (1, 1)) == 1
    assert divisibility(build_standard("U", scale=2), (1, 0)) == 2
    l2 = build_standard("L2")
    e = tuple(1 if i == 22 else 0 for i in range(23))
    h = tuple(1 if i in (16, 17) else 0 for i in range(23))
    assert divisibility(l2, e) == 2
    assert divisibility(l2, h) == 1
    with pytest.raises(LatticeError):
        divisibility(u, (0, 0))


def test_divisibility_scales_linearly():
    rng = random.Random(202)
    lat = build_standard("E8")
    for _ in range(20):
        v = [rng.randint(-3, 3) for _ in range(8)]
        if not any(v):
            continue
        k = rng.randint(1, 5)
        assert divisibility(lat, [k * x for x in v]) == k * divisibility(lat, v)


def brute_primitive(lat, basis):
    """Primitivity via determinantal divisors: the span is primitive iff
    every invariant factor of the coordinate matrix is 1, which for a full
    set of k x k minors means their gcd is 1."""
    from itertools import combinations

    k, n = len(basis), lat.rank
    g = 0
    for cols in combinations(range(n), k):
        sub = [[row[c] for c in cols] for row in basis]
        g = gcd(g, abs(exactmat.det_int(sub)))
    return g == 1


def test_primitive_sublattice_frozen_cases():
    u = build_standard("U")
    assert is_primitive_sublattice(u, [(1, 0), (0, 1)])
    assert is_primitive_sublattice(u, [(1, 1)])
    assert not is_primitive_sublattice(u, [(2, 0)])
    assert not is_primitive_sublattice(u, [(2, 2)])
    with pytest.raises(LatticeError):
        is_primitive_sublattice(u, [(1, 0), (2, 0)])


def test_primitive_sublattice_against_minor_gcd_oracle():
    rng = random.Random(203)
    lat = direct_sum(build_standard("U"), build_standard("U"))
    checked = 0
    while checked < 60:
        k = rng.randint(1, 3)
        basis = [[rng.randint(-4, 4) for _ in range(4)] for _ in range(k)]
        if len(fraction_kernel(basis)) != 4 - k:
            continue  # keep only independent rows
        assert is_primitive_sublattice(lat, basis) == brute_primitive(lat, basis)
        checked += 1


def test_sublattice_induced_gram():
    l2 = build_standard("L2")
    h = tuple(1 if i in (16, 17) else 0 for i in range(23))
    e = tuple(1 if i == 22 else 0 for i in range(23))
    m = Sublattice(l2, (h, e), label="M")
    assert m.induced().gram == ((2, 0), (0, -2))
    assert m.is_primitive
    assert m.ambient_divisibility((2, 3)) == 2
    assert m.ambient_divisibility((1, 0)) == 1
    assert m.embed((2, 3)) == tuple(
        2 if i in (16, 17) else (3 if i == 22 else 0) for i in range(23))


def test_sublattice_rejects_dependent_basis():
    u = build_standard("U")
    with pytest.raises(LatticeError):
        Sublattice(u, ((1, 1), (2, 2)))


def test_sublattice_rejects_rank_deficient_basis_quickly():
    # Seven rows of rank 6, zero-padded to L2 coordinates: refused from the
    # row-echelon rank before any Smith normal form is attempted.
    rows = [[-4, -6, -4, 1, -6, 5], [0, -1, 4, 3, 2, 2], [3, 2, 0, -2, -3, 3],
            [-2, -1, -3, 3, 0, -3], [-1, 3, -3, 6, -1, -5], [-6, -2, 2, -3, 1, -6],
            [-1, -1, -4, 6, 2, 1]]
    basis = [row + [0] * 17 for row in rows]
    with pytest.raises(LatticeError, match="linearly dependent"):
        Sublattice(build_standard("L2"), basis)
    assert Sublattice(build_standard("L2"), basis[:6]).rank == 6


def test_hyperbolic_predicate():
    assert is_hyperbolic(build_standard("U"))
    assert is_hyperbolic(Lattice("m", ((2, 0), (0, -2))))
    assert not is_hyperbolic(build_standard("E8"))
    assert not is_hyperbolic(Lattice("pp", ((1, 0), (0, 1))))


def test_lattice_validation():
    with pytest.raises(LatticeError):
        Lattice("bad", ((1, 2), (3, 4)))  # not symmetric
    with pytest.raises(LatticeError):
        Lattice("bad", ((1, 2),))  # not square
    with pytest.raises(LatticeError):
        Lattice("bad", ((0,),))  # degenerate
    with pytest.raises(LatticeError):
        Lattice("bad", ((2, 2), (2, 2)))  # degenerate


def test_lattice_summary_payload():
    s = lattice_summary(build_standard("L2"))
    assert s["label"] == "L2"
    assert s["signature"] == [3, 20]
    assert s["det"] == 2
    assert s["even"] is True
    assert s["hyperbolic"] is False
    assert s["discriminant_group"] == [2]
    assert s["two_elementary"] is True


def test_catalog_env_override(tmp_path, monkeypatch):
    import json

    alt = tmp_path / "cat.json"
    alt.write_text(json.dumps({
        "version": 1,
        "lattices": [{"label": "W", "gram": [[7]]}],
    }))
    monkeypatch.setenv("IHSKIT_CATALOG", str(alt))
    assert build_standard("W").gram == ((7,),)
    with pytest.raises(LatticeError):
        build_standard("E8")  # the override replaces the catalog wholesale
