import random
from fractions import Fraction
from itertools import combinations

from conftest import random_unimodular

from ihskit import exactmat


def random_int_matrix(rng, rows, cols, lo=-6, hi=6):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def test_det_int_matches_fraction_det():
    rng = random.Random(101)
    for _ in range(60):
        n = rng.randint(1, 5)
        m = random_int_matrix(rng, n, n)
        assert exactmat.det_int(m) == exactmat.det_fraction(m)


def test_det_int_exact_on_large_entries():
    # A matrix whose determinant overflows float precision.
    big = 10**20
    m = [[big, 1], [1, big]]
    assert exactmat.det_int(m) == big * big - 1


def test_solve_fraction_roundtrip():
    rng = random.Random(102)
    for _ in range(40):
        n = rng.randint(1, 4)
        a = random_int_matrix(rng, n, n)
        if exactmat.det_int(a) == 0:
            continue
        x = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
        b = exactmat.mat_vec(exactmat.mat_fraction(a), x)
        assert exactmat.solve_fraction(a, b) == x


def test_solve_fraction_inconsistent_returns_none():
    assert exactmat.solve_fraction([[1, 1], [1, 1]], [0, 1]) is None


def test_fraction_kernel_dimension_and_membership():
    rng = random.Random(103)
    for _ in range(40):
        rows, cols = rng.randint(1, 4), rng.randint(1, 5)
        m = random_int_matrix(rng, rows, cols)
        kernel = exactmat.fraction_kernel(m)
        mf = exactmat.mat_fraction(m)
        for v in kernel:
            assert all(x == 0 for x in exactmat.mat_vec(mf, v))
        rank = rows - len(exactmat.fraction_kernel(exactmat.transpose(m)))
        assert len(kernel) == cols - rank


def test_integer_kernel_is_saturated():
    # Kernel generators must be primitive: (2, -1), never (4, -2).
    kernel = exactmat.integer_kernel([[2, 4]])
    assert len(kernel) == 1
    from math import gcd

    assert gcd(*kernel[0]) == 1


def test_integer_kernel_annihilates():
    rng = random.Random(104)
    for _ in range(40):
        rows, cols = rng.randint(1, 3), rng.randint(1, 5)
        m = random_int_matrix(rng, rows, cols)
        for v in exactmat.integer_kernel(m):
            assert all(x == 0 for x in exactmat.mat_vec(m, list(v)))
            assert any(v)


def test_invariant_factors_known_cases():
    assert exactmat.invariant_factors([[2, 0], [0, 4]]) == [2, 4]
    assert exactmat.invariant_factors([[2, 0], [0, 3]]) == [1, 6]
    assert exactmat.invariant_factors([[0, 0], [0, 0]]) == []
    assert exactmat.invariant_factors([[5]]) == [5]


def test_invariant_factors_divisibility_chain_and_product():
    rng = random.Random(105)
    for _ in range(60):
        n = rng.randint(1, 4)
        m = random_int_matrix(rng, n, n)
        factors = exactmat.invariant_factors(m)
        for a, b in zip(factors, factors[1:]):
            assert b % a == 0
        det = exactmat.det_int(m)
        if det != 0:
            prod = 1
            for f in factors:
                prod *= f
            assert prod == abs(det)


def minor_gcds(m, k):
    """gcd of all k x k minors, the classical determinantal divisor."""
    from math import gcd

    rows, cols = len(m), len(m[0])
    g = 0
    for ri in combinations(range(rows), k):
        for ci in combinations(range(cols), k):
            sub = [[m[i][j] for j in ci] for i in ri]
            g = gcd(g, abs(exactmat.det_int(sub)))
    return g


def test_invariant_factors_match_determinantal_divisors():
    # Independent route: d_1 ... d_k equals the gcd of the k x k minors.
    rng = random.Random(106)
    for _ in range(40):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        m = random_int_matrix(rng, rows, cols, -5, 5)
        factors = exactmat.invariant_factors(m)
        prod = 1
        for k, f in enumerate(factors, start=1):
            prod *= f
            assert prod == minor_gcds(m, k)


def test_invariant_factors_unimodular_invariance():
    rng = random.Random(107)
    for _ in range(25):
        n = rng.randint(2, 4)
        m = random_int_matrix(rng, n, n)
        u = random_unimodular(rng, n)
        v = random_unimodular(rng, n)
        transformed = exactmat.mat_mul(exactmat.mat_mul(u, m), v)
        assert exactmat.invariant_factors(transformed) == exactmat.invariant_factors(m)


def test_rref_insert_is_order_independent():
    # The reduced row-echelon basis of a row space is unique, so the
    # orthocomplement kept by cartan_dieudonne matches a fresh kernel.
    rng = random.Random(108)
    for _ in range(40):
        rows_in = random_int_matrix(rng, rng.randint(1, 4), rng.randint(1, 5), -3, 3)
        bases = []
        for order in (rows_in, rows_in[::-1]):
            rows, pivots = [], []
            for row in order:
                exactmat.rref_insert(rows, pivots, row)
            bases.append((rows, pivots))
        assert bases[0] == bases[1]
        rows, pivots = bases[0]
        before = [list(r) for r in rows]
        combo = [2 * a - b for a, b in zip(rows_in[0], rows_in[-1])]
        assert not exactmat.rref_insert(rows, pivots, combo)
        assert rows == before
