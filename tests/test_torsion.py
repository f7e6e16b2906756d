import math
import random
from fractions import Fraction

import pytest

from conftest import random_unimodular
from zeta_reference import riemann_zeta_em

from ihskit.errors import TorsionError
from ihskit.torsion import (
    FiniteSpectrum,
    PowerSpectrum,
    TorsionIngredients,
    assemble_invariant,
    equivariant_torsion,
    gram_covolume,
    numerology,
    omega_integral_from_parts,
    quillen_combination,
    zeta_prime_zero,
)

LOG_2PI = math.log(2 * math.pi)


# ---------------------------------------------------------------------------
# Zeta derivative at zero


def test_finite_spectrum_dzeta():
    assert zeta_prime_zero(FiniteSpectrum(((math.e, 1.0),))) == pytest.approx(-1.0)
    assert zeta_prime_zero(FiniteSpectrum(((math.e ** 2, 3.0),))) == pytest.approx(-6.0)
    assert zeta_prime_zero(FiniteSpectrum(())) == 0.0
    # lambda = 1 contributes nothing regardless of weight.
    assert zeta_prime_zero(FiniteSpectrum(((1.0, 17.0),))) == 0.0


def test_finite_spectrum_rejects_nonpositive():
    with pytest.raises(TorsionError):
        FiniteSpectrum(((0.0, 1.0),))
    with pytest.raises(TorsionError):
        FiniteSpectrum(((-2.0, 1.0),))


def test_power_spectrum_closed_form():
    # lambda_n = a n^p with weight w: zeta'(0) = w (log(a)/2 - p log(2pi)/2).
    assert zeta_prime_zero(PowerSpectrum(a=1.0, p=2.0, w=2.0)) == pytest.approx(
        -2.0 * LOG_2PI, abs=1e-12)
    assert zeta_prime_zero(PowerSpectrum(a=4.0, p=1.0, w=1.0)) == pytest.approx(
        math.log(2) - LOG_2PI / 2, abs=1e-12)


def test_power_spectrum_validation():
    with pytest.raises(TorsionError):
        PowerSpectrum(a=0.0, p=1.0, w=1.0)
    with pytest.raises(TorsionError):
        PowerSpectrum(a=1.0, p=-1.0, w=1.0)


# ---------------------------------------------------------------------------
# The Riemann zeta oracle (Euler-Maclaurin), validated at classical points


def test_zeta_em_special_values():
    value, _ = riemann_zeta_em(2.0)
    assert abs(value - math.pi ** 2 / 6) < 1e-12
    value, _ = riemann_zeta_em(-1.0)
    assert abs(value - Fraction(-1, 12)) < 1e-12
    value, _ = riemann_zeta_em(3.0)
    assert abs(value - 1.2020569031595942854) < 1e-12
    value, _ = riemann_zeta_em(0.0)
    assert abs(value + 0.5) < 1e-14


def test_zeta_em_derivative_at_zero():
    _, deriv = riemann_zeta_em(0.0)
    assert abs(deriv + LOG_2PI / 2) < 1e-12


def test_zeta_em_derivative_matches_difference_quotient():
    h = 1e-6
    for s in (0.5, 2.0, -0.5):
        _, deriv = riemann_zeta_em(s)
        up, _ = riemann_zeta_em(s + h)
        down, _ = riemann_zeta_em(s - h)
        assert abs(deriv - (up - down) / (2 * h)) < 1e-6


def test_zeta_em_pole_guard():
    with pytest.raises(TorsionError):
        riemann_zeta_em(1.0)


def test_power_spectrum_against_em_oracle():
    # Independent route: zeta_lambda(s) = w a^-s zeta_R(ps), differentiated at 0.
    value0, deriv0 = riemann_zeta_em(0.0)
    rng = random.Random(601)
    for _ in range(20):
        a = rng.uniform(0.5, 4.0)
        p = rng.uniform(0.5, 3.0)
        w = rng.uniform(-2.0, 2.0)
        expected = w * (-math.log(a) * value0 + p * deriv0)
        assert abs(zeta_prime_zero(PowerSpectrum(a=a, p=p, w=w)) - expected) < 1e-9


# ---------------------------------------------------------------------------
# Torsion combinations


def test_equivariant_torsion_identities():
    assert equivariant_torsion({}, 4) == 1.0
    tau = equivariant_torsion({1: FiniteSpectrum(((math.e, 1.0),))}, 4)
    assert tau == pytest.approx(math.exp(-1.0))
    # Degree 0 never contributes: the alternating sum weights by q.
    tau0 = equivariant_torsion({0: FiniteSpectrum(((5.0, 3.0),))}, 4)
    assert tau0 == 1.0


def test_equivariant_torsion_weight_flip_inverts():
    spectra = {1: FiniteSpectrum(((2.0, 1.5), (3.0, -0.5))),
               2: FiniteSpectrum(((7.0, 2.0),))}
    flipped = {q: FiniteSpectrum(tuple((lam, -w) for lam, w in sp.entries))
               for q, sp in spectra.items()}
    product = equivariant_torsion(spectra, 4) * equivariant_torsion(flipped, 4)
    assert abs(product - 1.0) < 1e-12


def test_equivariant_torsion_degree_range():
    with pytest.raises(TorsionError):
        equivariant_torsion({5: FiniteSpectrum(((2.0, 1.0),))}, 4)
    with pytest.raises(TorsionError):
        equivariant_torsion({-1: FiniteSpectrum(((2.0, 1.0),))}, 4)


def test_quillen_combination():
    assert quillen_combination(2.0, 3.0, 1.5) == pytest.approx(8.0)
    with pytest.raises(TorsionError):
        quillen_combination(-1.0, 1.0, 1.0)
    with pytest.raises(TorsionError):
        quillen_combination(1.0, 1.0, 0.0)


# ---------------------------------------------------------------------------
# Exact numerology in the trace parameter


def test_numerology_frozen_records():
    r = numerology(-17)
    assert (r.c1sq, r.chi, r.c2, r.dim_def) == (288, 37, 156, 19)
    assert r.omega_int == -888
    assert r.exp_vol == 27
    assert r.coef_curv16 == 10
    assert r.coef_curv8 == 20
    assert r.coef_prop32 == Fraction(17, 2)
    assert r.coef_l34_plus == -1
    assert r.coef_l34_minus == Fraction(-19, 2)

    r1 = numerology(1)
    assert (r1.c1sq, r1.chi, r1.c2, r1.dim_def) == (0, 1, 12, 10)
    assert r1.omega_int == -24
    assert r1.exp_vol == 0

    r21 = numerology(21)
    assert r21.dim_def == 0
    assert r21.chi == 56

    r19 = numerology(-19)
    assert r19.dim_def == 20
    assert r19.chi == 46
    assert r19.exp_vol == Fraction(65, 2)


def test_numerology_to_dict_key_order():
    keys = list(numerology(1).to_dict())
    assert keys == ["t", "c1sq", "chi", "c2", "dim_def", "omega_int", "exp_vol",
                    "coef_curv16", "coef_curv8", "coef_prop32",
                    "coef_l34_plus", "coef_l34_minus"]


def test_numerology_rejects_bad_t():
    for t in (0, 4, -20, 23, -21):
        with pytest.raises(TorsionError):
            numerology(t)


def test_omega_integral_closed_form_all_t():
    for t in range(-19, 22, 2):
        assert omega_integral_from_parts(t) == -3 * (t * t + 7)
        assert omega_integral_from_parts(t) == numerology(t).omega_int
        assert numerology(t).chi.denominator == 1
        assert numerology(t).dim_def.denominator == 1
        assert numerology(t).dim_def >= 0


# ---------------------------------------------------------------------------
# Covolume and final assembly


def test_gram_covolume_table():
    assert gram_covolume([[2, 1], [1, 2]]) == 3
    assert isinstance(gram_covolume([[2, 1], [1, 2]]), Fraction)


def test_gram_covolume_with_vectors():
    pairing = [[0, 1], [1, 0]]
    assert gram_covolume(pairing, [[1, 0], [0, 1]]) == -1
    assert gram_covolume(pairing, [[1, 1], [1, -1]]) == -4


def test_gram_covolume_float_path():
    v = gram_covolume([[1.5, 0.0], [0.0, 2.0]])
    assert isinstance(v, float)
    assert v == pytest.approx(3.0)
    # Exact in the binary values of the entries, rounded once.
    exact = Fraction(0.1) * Fraction(0.3) - Fraction(0.2) ** 2
    assert gram_covolume([[0.1, 0.2], [0.2, 0.3]]) == float(exact)


def test_gram_covolume_unimodular_invariance():
    rng = random.Random(602)
    pairing = [[2, 1, 0], [1, 2, 1], [0, 1, 4]]
    base = gram_covolume(pairing, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    for _ in range(20):
        s = random_unimodular(rng, 3)
        assert gram_covolume(pairing, [list(r) for r in s]) == base


def test_gram_covolume_validation():
    with pytest.raises(TorsionError):
        gram_covolume([[1, 2], [3, 4]])  # not symmetric
    with pytest.raises(TorsionError):
        gram_covolume([[1, 2, 3], [4, 5, 6]])  # not square
    with pytest.raises(TorsionError):
        gram_covolume([[0, 1], [1, 0]], [[1, 0, 0]])
    for table in ([[math.inf, 0.0], [0.0, 1.0]], [[math.nan]],
                  [[1e300, 0.0], [0.0, 1e300]]):  # the last overflows the float range
        with pytest.raises(TorsionError):
            gram_covolume(table)


def test_assemble_invariant_spot_value():
    ing = TorsionIngredients(tau_iota=2.0, vol_x=1.5, tau_o_fix=1.0,
                             vol_fix=1.0, vol_l2_h1=1.0, t=-17)
    assert assemble_invariant(ing) == pytest.approx(2.0 * 1.5 ** 27)


def test_assemble_invariant_uses_all_factors():
    ing = TorsionIngredients(tau_iota=3.0, vol_x=2.0, tau_o_fix=2.0,
                             vol_fix=4.0, vol_l2_h1=5.0, t=1, a_factor=7.0)
    # exp_vol at t=1 is 0, so the volume drops out.
    assert assemble_invariant(ing) == pytest.approx(3.0 * 7.0 / (4.0 * 16.0) * 5.0)


def test_torsion_ingredients_validation():
    with pytest.raises(TorsionError):
        TorsionIngredients(tau_iota=-1.0, vol_x=1.0, tau_o_fix=1.0,
                           vol_fix=1.0, vol_l2_h1=1.0, t=1)
    with pytest.raises(TorsionError):
        TorsionIngredients(tau_iota=1.0, vol_x=1.0, tau_o_fix=1.0,
                           vol_fix=1.0, vol_l2_h1=1.0, t=2)


def test_results_outside_the_float_range_raise():
    with pytest.raises(TorsionError):
        equivariant_torsion({2: FiniteSpectrum(((1e300, 1.0),))}, 2)  # exp overflows
    with pytest.raises(TorsionError):
        equivariant_torsion({2: FiniteSpectrum(((1e-300, 1.0),))}, 2)  # exp underflows to 0
    with pytest.raises(TorsionError):
        zeta_prime_zero(FiniteSpectrum(((1e300, 1e308),)))  # -inf
    for tau_o_fix, vol_fix in ((1e-200, 1.0), (1e200, 1.0), (1.0, 1e-200)):
        ing = TorsionIngredients(tau_iota=1.5, vol_x=2.0, tau_o_fix=tau_o_fix,
                                 vol_fix=vol_fix, vol_l2_h1=0.9, t=5)
        with pytest.raises(TorsionError):
            assemble_invariant(ing)
