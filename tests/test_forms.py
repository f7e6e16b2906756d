import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ihskit.errors import IhskitError, InputError
from ihskit.forms import (
    GENERATORS,
    MAX_WEIGHT,
    GradedElement,
    ch_bundle,
    chern_values_from_roots,
    equivariant_ch_cotangent,
    equivariant_todd,
    normal_relations,
    reference_checks,
    scalar_exp,
    scalar_sigmoid,
    scalar_todd,
    sigmoid_det_factor,
    substitute_normal_relations,
    todd_series,
    verify_product_identity,
    wedge_norm_identity,
)


def gen(name, cap=4):
    return GradedElement.generator(name, cap)


# ---------------------------------------------------------------------------
# Ring structure


small_elements = st.builds(
    lambda entries: sum(
        (Fraction(c) * gen(name) for c, name in entries),
        GradedElement.zero()),
    st.lists(st.tuples(st.integers(-4, 4), st.sampled_from(GENERATORS)),
             max_size=4))


@settings(max_examples=60, deadline=None)
@given(small_elements, small_elements, small_elements)
def test_ring_laws(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a + (-a) == GradedElement.zero()


def test_truncation_above_cap():
    c1 = gen("c1F", 2)
    assert (c1 * c1 * c1).is_zero
    assert not (c1 * c1).is_zero


def test_cap_mismatch_rejected():
    with pytest.raises(IhskitError):
        gen("c1F", 2) + gen("c1F", 3)


@pytest.mark.parametrize("cap", [-1, MAX_WEIGHT + 1])
@pytest.mark.parametrize("build", [
    scalar_todd, scalar_sigmoid, scalar_exp, todd_series, sigmoid_det_factor,
    equivariant_todd, equivariant_ch_cotangent, normal_relations,
    lambda cap: ch_bundle("c1F", "c2F", cap=cap),
    lambda cap: GradedElement.generator("c1F", cap)])
def test_weight_cap_outside_range_refused(build, cap):
    # At -3 scalar_todd raised IndexError; at 60 eq-todd ran for 8 s.
    with pytest.raises(InputError, match=f"between 0 and {MAX_WEIGHT}, got {cap}"):
        build(cap=cap)


def test_weight_cap_at_max_accepted():
    assert len(scalar_todd(MAX_WEIGHT)) == MAX_WEIGHT + 1
    assert todd_series(cap=MAX_WEIGHT).cap == MAX_WEIGHT


def test_unknown_generator_rejected():
    with pytest.raises(IhskitError):
        GradedElement.generator("c3F")


def test_weight_component_and_coefficient():
    el = todd_series()
    assert el.weight_component(0) == GradedElement.one()
    assert el.coefficient((1, 0, 0, 0, 0, 0)) == Fraction(1, 2)
    assert el.coefficient((0, 1, 0, 0, 0, 0)) == Fraction(1, 12)
    assert el.coefficient((2, 0, 0, 0, 0, 0)) == Fraction(1, 12)


def test_str_is_sorted_and_stable():
    el = equivariant_todd(cap=2)
    assert str(el) == ("1/4 + 1/8*c1N + 1/8*c1F + 1/16*c2N + 1/48*c2F"
                       " + 1/16*c1F*c1N + 1/48*c1F^2")


# ---------------------------------------------------------------------------
# Scalar series, with their defining functions as oracles


def test_scalar_series_frozen_heads():
    assert scalar_todd(4) == [1, Fraction(1, 2), Fraction(1, 12), 0, Fraction(-1, 720)]
    assert scalar_sigmoid(4) == [Fraction(1, 2), Fraction(1, 4), 0, Fraction(-1, 48), 0]
    assert scalar_exp(4) == [1, 1, Fraction(1, 2), Fraction(1, 6), Fraction(1, 24)]


def eval_series(coeffs, x):
    return sum(float(c) * x ** k for k, c in enumerate(coeffs))


def test_scalar_series_match_functions():
    rng = random.Random(501)
    todd, sig = scalar_todd(8), scalar_sigmoid(8)
    for _ in range(50):
        x = rng.uniform(-0.2, 0.2)
        if abs(x) < 1e-3:
            continue
        assert abs(eval_series(todd, x) - x / (1 - math.exp(-x))) < 1e-8
        assert abs(eval_series(sig, x) - 1 / (1 + math.exp(-x))) < 1e-8


# ---------------------------------------------------------------------------
# Rank-2 bundle series vs direct Chern-root products.
# Tolerances follow the measured weight-5 truncation remainder: at root
# radius 0.1 the worst case is ~1.2e-7, at 0.01 it is below 1e-12.


def analytic_todd(x):
    return x / (1 - math.exp(-x)) if x != 0 else 1.0


def analytic_sigmoid(x):
    return 1 / (1 + math.exp(-x))


@pytest.mark.parametrize("radius,tol", [(0.1, 1e-6), (0.01, 1e-10)])
def test_series_against_analytic_products(radius, tol):
    rng = random.Random(502)
    for _ in range(200):
        f = [rng.uniform(-radius, radius) for _ in range(2)]
        n = [rng.uniform(-radius, radius) for _ in range(2)]
        vals = chern_values_from_roots([complex(x) for x in f],
                                       [complex(x) for x in n])
        assert abs(todd_series().evaluate(vals)
                   - analytic_todd(f[0]) * analytic_todd(f[1])) < tol
        assert abs(sigmoid_det_factor().evaluate(vals)
                   - analytic_sigmoid(n[0]) * analytic_sigmoid(n[1])) < tol
        assert abs(ch_bundle("c1F", "c2F", dual=True).evaluate(vals)
                   - (math.exp(-f[0]) + math.exp(-f[1]))) < tol
        assert abs(ch_bundle("c1N", "c2N").evaluate(vals)
                   - (math.exp(n[0]) + math.exp(n[1]))) < tol


def test_equivariant_series_are_products():
    # Exact ring identities at the shared truncation.
    assert equivariant_todd() == todd_series() * sigmoid_det_factor()
    assert equivariant_ch_cotangent() == (
        ch_bundle("c1F", "c2F", dual=True) - ch_bundle("c1N", "c2N", dual=True))


# ---------------------------------------------------------------------------
# Frozen low-weight tables


def test_reference_tables_all_match():
    for name, computed, expected in reference_checks():
        assert computed == expected, name


def test_reference_tables_cover_all_series():
    names = [name for name, _, _ in reference_checks()]
    assert names == ["todd", "sigmoid_det_factor", "ch_cotangent",
                     "equivariant_todd", "equivariant_ch_cotangent",
                     "product_weight3_raw"]


# ---------------------------------------------------------------------------
# The weight-3 product identity


def test_product_identity_residual_is_zero():
    report = verify_product_identity()
    assert report.passed
    assert report.residual.is_zero
    assert report.lhs == report.rhs


def test_product_identity_needs_substitution():
    # Without eliminating the normal-bundle classes the two sides differ:
    # the closed form only holds on the Whitney-sum locus.
    report = verify_product_identity()
    assert report.product_raw != report.rhs
    assert substitute_normal_relations(report.product_raw) == report.rhs


def test_product_raw_has_mixed_term():
    # The subtle cross term: -5/48 on c2F * c1N.
    report = verify_product_identity()
    assert report.product_raw.coefficient((0, 1, 0, 0, 1, 0)) == Fraction(-5, 48)
    assert report.product_raw.coefficient((2, 0, 0, 0, 1, 0)) == Fraction(1, 48)
    assert report.product_raw.coefficient((0, 0, 0, 0, 3, 0)) == Fraction(-1, 48)


def test_normal_relations_whitney_consistency():
    # Under any Chern-root assignment the eliminations are exact identities.
    rng = random.Random(503)
    rel = normal_relations()
    for _ in range(50):
        roots = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(4)]
        vals = chern_values_from_roots(roots[:2], roots[2:])
        assert abs(rel["c1N"].evaluate(vals) - vals["c1N"]) < 1e-12
        assert abs(rel["c2N"].evaluate(vals) - vals["c2N"]) < 1e-12


def test_product_identity_numeric_hundred_roots():
    report = verify_product_identity()
    rng = random.Random(504)
    for _ in range(100):
        roots = [complex(rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1))
                 for _ in range(4)]
        vals = chern_values_from_roots(roots[:2], roots[2:])
        assert abs(report.lhs.evaluate(vals) - report.rhs.evaluate(vals)) < 1e-12
        assert abs(report.product_raw.evaluate(vals) - report.lhs.evaluate(vals)) < 1e-12


def test_evaluate_missing_generator():
    with pytest.raises(IhskitError):
        gen("c1F").evaluate({"c2F": 1.0})


# ---------------------------------------------------------------------------
# Pointwise norm identity


def test_wedge_norm_zero_form():
    lhs, rhs = wedge_norm_identity([[0] * 4 for _ in range(4)], 3.0)
    assert lhs == rhs == 0


def test_wedge_norm_single_entry():
    alpha = [[0] * 4 for _ in range(4)]
    alpha[0][0] = 1
    assert wedge_norm_identity(alpha, 2.0) == (4.0, 4.0)


def test_wedge_norm_shape_check():
    with pytest.raises(IhskitError):
        wedge_norm_identity([[0] * 3 for _ in range(4)], 1.0)


def test_wedge_norm_random_ratio_one():
    rng = random.Random(505)
    for _ in range(100):
        alpha = [[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(4)]
                 for _ in range(4)]
        mu = complex(rng.gauss(0, 1), rng.gauss(0, 1))
        if abs(mu) < 1e-3:
            continue
        lhs, rhs = wedge_norm_identity(alpha, mu)
        assert rhs > 0
        assert abs(lhs / rhs - 1) < 1e-10
