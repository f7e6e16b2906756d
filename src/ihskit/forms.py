"""Truncated characteristic-form algebra on a surface fixed locus.

The symbolic side of the fixed-point computation lives in a graded-commutative
polynomial ring over Q with six generators: the first and second Chern forms
of the fixed-surface tangent bundle (``c1F``, ``c2F``), of the restricted
ambient tangent bundle (``c1X``, ``c2X``), and of the normal bundle (``c1N``,
``c2N``).  Generators of the first kind have weight 1, of the second weight 2,
and everything is truncated above a weight cap (default 4); on a surface fixed
locus inside a 4-fold only weights <= 3 carry geometry, the extra weight is
oracle headroom.

All series tables (Todd, the determinant factor 1/det(1 + exp(-.)) coming from
the fixed-point theorem, Chern characters) are derived here from the scalar
power series by exact rational arithmetic, then validated against numeric
Chern-root evaluation in the test suite.

The module also carries the pointwise Hermitian-norm identity used to pin the
metric conventions: on a 4-dimensional complex vector space with
h(v^i, v^j) = 2 delta_ij, wedging a (1,1)-form with the conjugated symplectic
form scales norms by |mu|^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import IhskitError, InputError

GENERATORS = ("c1F", "c2F", "c1X", "c2X", "c1N", "c2N")
WEIGHTS = (1, 2, 1, 2, 1, 2)
DEFAULT_CAP = 4
# The series grow steeply with the cap (eq-todd: under a second at 32, 7 s and
# 44 MB of output at 60), so a larger cap is refused instead of run for minutes.
MAX_WEIGHT = 32

Monomial = tuple[int, int, int, int, int, int]
_ZERO_MONO: Monomial = (0, 0, 0, 0, 0, 0)


def _check_cap(cap: int) -> None:
    if not 0 <= cap <= MAX_WEIGHT:
        raise InputError(f"weight cap must be between 0 and {MAX_WEIGHT}, got {cap}")


def _weight(mono: Monomial) -> int:
    return sum(e * w for e, w in zip(mono, WEIGHTS))


def monomial_text(mono: Monomial) -> str:
    """A monomial written as ``c1F^2*c2N``; the empty string for 1."""
    return "*".join(f"{name}^{e}" if e > 1 else name
                    for name, e in zip(GENERATORS, mono) if e)


class GradedElement:
    """An element of the truncated graded ring, with exact rational coefficients."""

    __slots__ = ("cap", "_coeffs")

    def __init__(self, coeffs: Mapping[Monomial, Fraction] | None = None,
                 cap: int = DEFAULT_CAP):
        _check_cap(cap)
        cleaned: dict[Monomial, Fraction] = {}
        for mono, coeff in (coeffs or {}).items():
            q = Fraction(coeff)
            if q != 0 and _weight(mono) <= cap:
                cleaned[tuple(mono)] = q  # type: ignore[index]
        self.cap = cap
        self._coeffs = cleaned

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, cap: int = DEFAULT_CAP) -> "GradedElement":
        return cls({}, cap)

    @classmethod
    def scalar(cls, value, cap: int = DEFAULT_CAP) -> "GradedElement":
        return cls({_ZERO_MONO: Fraction(value)}, cap)

    @classmethod
    def one(cls, cap: int = DEFAULT_CAP) -> "GradedElement":
        return cls.scalar(1, cap)

    @classmethod
    def generator(cls, name: str, cap: int = DEFAULT_CAP) -> "GradedElement":
        if name not in GENERATORS:
            raise IhskitError(f"unknown generator {name!r}; have {GENERATORS}")
        mono = [0] * len(GENERATORS)
        mono[GENERATORS.index(name)] = 1
        return cls({tuple(mono): Fraction(1)}, cap)  # type: ignore[arg-type]

    # -- ring structure ----------------------------------------------------

    def _require_same_cap(self, other: "GradedElement") -> None:
        if self.cap != other.cap:
            raise IhskitError(f"weight caps differ: {self.cap} vs {other.cap}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = GradedElement.scalar(other, self.cap)
        if not isinstance(other, GradedElement):
            return NotImplemented
        self._require_same_cap(other)
        out = dict(self._coeffs)
        for mono, coeff in other._coeffs.items():
            out[mono] = out.get(mono, Fraction(0)) + coeff
        return GradedElement(out, self.cap)

    __radd__ = __add__

    def __neg__(self):
        return GradedElement({m: -c for m, c in self._coeffs.items()}, self.cap)

    def __sub__(self, other):
        return self + (-other if isinstance(other, GradedElement)
                       else GradedElement.scalar(-Fraction(other), self.cap))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return GradedElement({m: c * Fraction(other) for m, c in self._coeffs.items()},
                                 self.cap)
        if not isinstance(other, GradedElement):
            return NotImplemented
        self._require_same_cap(other)
        out: dict[Monomial, Fraction] = {}
        for m1, c1 in self._coeffs.items():
            w1 = _weight(m1)
            for m2, c2 in other._coeffs.items():
                if w1 + _weight(m2) > self.cap:
                    continue
                mono = tuple(a + b for a, b in zip(m1, m2))
                out[mono] = out.get(mono, Fraction(0)) + c1 * c2  # type: ignore[index]
        return GradedElement(out, self.cap)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if exponent < 0:
            raise IhskitError("negative powers are not defined here")
        out = GradedElement.one(self.cap)
        for _ in range(exponent):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = GradedElement.scalar(other, self.cap)
        if not isinstance(other, GradedElement):
            return NotImplemented
        return self.cap == other.cap and self._coeffs == other._coeffs

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    # -- graded structure --------------------------------------------------

    def weight_component(self, weight: int) -> "GradedElement":
        return GradedElement({m: c for m, c in self._coeffs.items()
                              if _weight(m) == weight}, self.cap)

    def coefficient(self, mono: Monomial) -> Fraction:
        return self._coeffs.get(tuple(mono), Fraction(0))  # type: ignore[arg-type]

    def terms(self) -> list[tuple[Monomial, Fraction]]:
        """Terms sorted by (weight, exponent tuple) for deterministic output."""
        return sorted(self._coeffs.items(), key=lambda kv: (_weight(kv[0]), kv[0]))

    # -- evaluation and substitution ---------------------------------------

    def evaluate(self, values: Mapping[str, complex]) -> complex:
        missing = [g for g in GENERATORS
                   if g not in values and any(m[GENERATORS.index(g)] for m in self._coeffs)]
        if missing:
            raise IhskitError(f"no values supplied for generators {missing}")
        total: complex = 0
        for mono, coeff in self._coeffs.items():
            term: complex = float(coeff)
            for name, e in zip(GENERATORS, mono):
                if e:
                    term *= values[name] ** e
            total += term
        return total

    def substitute(self, replacements: Mapping[str, "GradedElement"]) -> "GradedElement":
        for name in replacements:
            if name not in GENERATORS:
                raise IhskitError(f"unknown generator {name!r} in substitution")
        out = GradedElement.zero(self.cap)
        gens = [replacements.get(name, GradedElement.generator(name, self.cap))
                for name in GENERATORS]
        for mono, coeff in self._coeffs.items():
            term = GradedElement.scalar(coeff, self.cap)
            for base, e in zip(gens, mono):
                for _ in range(e):
                    term = term * base
            out = out + term
        return out

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        parts = []
        for mono, coeff in self.terms():
            body = monomial_text(mono)
            if body:
                parts.append(f"{coeff}*{body}" if coeff != 1 else body)
            else:
                parts.append(str(coeff))
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"GradedElement({self!s}, cap={self.cap})"


# ---------------------------------------------------------------------------
# Scalar power series, derived exactly


def _series_reciprocal(denom: Sequence[Fraction], cap: int) -> list[Fraction]:
    if denom[0] == 0:
        raise IhskitError("series has no reciprocal")
    inv0 = 1 / denom[0]
    out = [inv0]
    for n in range(1, cap + 1):
        acc = Fraction(0)
        for k in range(1, n + 1):
            if k < len(denom):
                acc += denom[k] * out[n - k]
        out.append(-inv0 * acc)
    return out


def scalar_todd(cap: int = DEFAULT_CAP) -> list[Fraction]:
    """Coefficients of x / (1 - exp(-x)) up to x^cap."""
    _check_cap(cap)
    denom = [Fraction((-1) ** k, math.factorial(k + 1)) for k in range(cap + 1)]
    return _series_reciprocal(denom, cap)


def scalar_sigmoid(cap: int = DEFAULT_CAP) -> list[Fraction]:
    """Coefficients of 1 / (1 + exp(-x)) up to x^cap."""
    _check_cap(cap)
    denom = [Fraction(2)] + [Fraction((-1) ** k, math.factorial(k)) for k in range(1, cap + 1)]
    return _series_reciprocal(denom, cap)


def scalar_exp(cap: int = DEFAULT_CAP) -> list[Fraction]:
    _check_cap(cap)
    return [Fraction(1, math.factorial(k)) for k in range(cap + 1)]


def _power_sum_table(cap: int) -> list[dict[tuple[int, int], Fraction]]:
    """p_k(x1, x2) expressed in e1 = x1 + x2, e2 = x1 x2, for k = 0..cap."""
    table = [{(0, 0): Fraction(2)}, {(1, 0): Fraction(1)}]
    while len(table) <= cap:
        prev, prev2 = table[-1], table[-2]
        nxt: dict[tuple[int, int], Fraction] = {}
        for (i, j), c in prev.items():
            key = (i + 1, j)
            nxt[key] = nxt.get(key, Fraction(0)) + c
        for (i, j), c in prev2.items():
            key = (i, j + 1)
            nxt[key] = nxt.get(key, Fraction(0)) - c
        table.append(nxt)
    return table


def _e_poly_to_element(poly: Mapping[tuple[int, int], Fraction], c1: str, c2: str,
                       cap: int) -> GradedElement:
    i1, i2 = GENERATORS.index(c1), GENERATORS.index(c2)
    coeffs: dict[Monomial, Fraction] = {}
    for (i, j), c in poly.items():
        mono = [0] * len(GENERATORS)
        mono[i1] += i
        mono[i2] += j
        key = tuple(mono)
        coeffs[key] = coeffs.get(key, Fraction(0)) + c  # type: ignore[index]
    return GradedElement(coeffs, cap)


def _multiplicative_class(scalar: Sequence[Fraction], c1: str, c2: str,
                          cap: int) -> GradedElement:
    """f(x1) f(x2) for a rank-2 bundle with Chern roots x1, x2, reduced to the
    elementary symmetric generators via Newton power sums."""
    psums = _power_sum_table(cap)
    poly: dict[tuple[int, int], Fraction] = {}

    def add(target: Mapping[tuple[int, int], Fraction], factor: Fraction, shift: int) -> None:
        for (i, j), c in target.items():
            if i + 2 * (j + shift) <= cap:
                key = (i, j + shift)
                poly[key] = poly.get(key, Fraction(0)) + factor * c

    for i in range(len(scalar)):
        for j in range(i + 1):
            if i + j > cap:
                continue
            if i == j:
                key = (0, i)
                poly[key] = poly.get(key, Fraction(0)) + scalar[i] * scalar[i]
            else:
                # x1^i x2^j + x1^j x2^i = e2^j p_{i-j}
                add(psums[i - j], scalar[i] * scalar[j], j)
    return _e_poly_to_element(poly, c1, c2, cap)


def _additive_class(scalar: Sequence[Fraction], c1: str, c2: str, cap: int,
                    dual: bool) -> GradedElement:
    """g(x1) + g(x2) in the elementary symmetric generators; ``dual`` flips
    the roots' signs (Chern classes of the dual bundle)."""
    psums = _power_sum_table(cap)
    poly: dict[tuple[int, int], Fraction] = {}
    for k in range(min(len(scalar) - 1, cap) + 1):
        coeff = scalar[k] * ((-1) ** k if dual else 1)
        for (i, j), c in psums[k].items():
            if i + 2 * j <= cap:
                key = (i, j)
                poly[key] = poly.get(key, Fraction(0)) + coeff * c
    return _e_poly_to_element(poly, c1, c2, cap)


# ---------------------------------------------------------------------------
# Public series


def todd_series(cap: int = DEFAULT_CAP) -> GradedElement:
    """Todd class of the fixed tangent bundle, in its Chern forms (c1F, c2F)."""
    return _multiplicative_class(scalar_todd(cap), "c1F", "c2F", cap)


def sigmoid_det_factor(cap: int = DEFAULT_CAP) -> GradedElement:
    """The determinant factor det(1 / (1 + exp(-.))) of the normal bundle,
    expanded in its Chern forms (c1N, c2N); constant term 1/4."""
    return _multiplicative_class(scalar_sigmoid(cap), "c1N", "c2N", cap)


def ch_bundle(c1: str, c2: str, dual: bool = False,
              cap: int = DEFAULT_CAP) -> GradedElement:
    """Chern character of a rank-2 bundle (or its dual) with the given
    Chern-form generators."""
    return _additive_class(scalar_exp(cap), c1, c2, cap, dual)


def equivariant_todd(cap: int = DEFAULT_CAP) -> GradedElement:
    """Fixed-point Todd form: Todd of the fixed tangent bundle times the
    normal-bundle determinant factor."""
    return todd_series(cap) * sigmoid_det_factor(cap)


def equivariant_ch_cotangent(cap: int = DEFAULT_CAP) -> GradedElement:
    """Fixed-point Chern character of the restricted cotangent bundle:
    ch of the fixed cotangent minus ch of the dual normal bundle."""
    return (ch_bundle("c1F", "c2F", dual=True, cap=cap)
            - ch_bundle("c1N", "c2N", dual=True, cap=cap))


def normal_relations(cap: int = DEFAULT_CAP) -> dict[str, GradedElement]:
    """Chern forms of the normal bundle expressed through the fixed and
    restricted ambient tangent bundles (Whitney sum on the fixed locus)."""
    c1f = GradedElement.generator("c1F", cap)
    c2f = GradedElement.generator("c2F", cap)
    c1x = GradedElement.generator("c1X", cap)
    c2x = GradedElement.generator("c2X", cap)
    return {
        "c1N": -c1f + c1x,
        "c2N": c1f * c1f - c2f - c1f * c1x + c2x,
    }


def substitute_normal_relations(element: GradedElement) -> GradedElement:
    return element.substitute(normal_relations(element.cap))


@dataclass(frozen=True)
class ProductIdentityReport:
    """Outcome of the weight-3 fixed-point product identity check."""

    passed: bool
    lhs: GradedElement
    rhs: GradedElement
    residual: GradedElement
    product_raw: GradedElement  # weight-3 product before eliminating c1N, c2N


def verify_product_identity() -> ProductIdentityReport:
    """Check the closed form of the weight-3 component of the fixed-point
    product Td_fix * ch_fix after eliminating the normal-bundle classes:

        [product]_3 = 2 [Todd(fix)]_3 + (1/48) c1X (c1F^2 - 8 c2F - c1X^2 + 3 c2X)

    Returns the exact residual; a nonzero residual means the identity failed.
    """
    cap = 3  # the identity lives in weight 3
    product = equivariant_todd(cap) * equivariant_ch_cotangent(cap)
    raw = product.weight_component(3)
    lhs = substitute_normal_relations(raw)
    c1f = GradedElement.generator("c1F", cap)
    c2f = GradedElement.generator("c2F", cap)
    c1x = GradedElement.generator("c1X", cap)
    c2x = GradedElement.generator("c2X", cap)
    omega = c1f * c1f - 8 * c2f - c1x * c1x + 3 * c2x
    rhs = 2 * todd_series(cap).weight_component(3) \
        + Fraction(1, 48) * c1x * omega
    residual = lhs - rhs
    return ProductIdentityReport(passed=residual.is_zero, lhs=lhs, rhs=rhs,
                                 residual=residual, product_raw=raw)


def chern_values_from_roots(fixed_roots: Sequence[complex],
                            normal_roots: Sequence[complex]) -> dict[str, complex]:
    """Numeric generator values from Chern roots of the fixed tangent and
    normal bundles; the restricted ambient bundle is their Whitney sum, so the
    normal-bundle relations hold identically under this assignment."""
    if len(fixed_roots) != 2 or len(normal_roots) != 2:
        raise IhskitError("expected two Chern roots per bundle")
    f1, f2 = fixed_roots
    n1, n2 = normal_roots
    c1f, c2f = f1 + f2, f1 * f2
    c1n, c2n = n1 + n2, n1 * n2
    return {
        "c1F": c1f, "c2F": c2f,
        "c1N": c1n, "c2N": c2n,
        "c1X": c1f + c1n, "c2X": c2f + c1f * c1n + c2n,
    }


def _restrict(element: GradedElement, weights: Sequence[int]) -> GradedElement:
    out = GradedElement.zero(element.cap)
    for w in weights:
        out = out + element.weight_component(w)
    return out


def reference_checks() -> list[tuple[str, GradedElement, GradedElement]]:
    """Hand-checked low-weight expansions frozen as regression anchors.

    Returns (name, computed, expected) triples where ``computed`` is the
    derived series restricted to the anchored weights and ``expected`` was
    expanded by hand once and transcribed here.  Any drift in the series
    machinery shows up as an inequality.
    """
    cap = DEFAULT_CAP
    c1f = GradedElement.generator("c1F", cap)
    c2f = GradedElement.generator("c2F", cap)
    c1n = GradedElement.generator("c1N", cap)
    c2n = GradedElement.generator("c2N", cap)
    half = Fraction(1, 2)

    checks = [
        ("todd",
         _restrict(todd_series(cap=cap), range(5)),
         1 + half * c1f + Fraction(1, 12) * (c1f ** 2 + c2f)
         + Fraction(1, 24) * c1f * c2f
         + Fraction(1, 720) * (-(c1f ** 4) + 4 * c1f ** 2 * c2f + 3 * c2f ** 2)),
        ("sigmoid_det_factor",
         _restrict(sigmoid_det_factor(cap=cap), range(5)),
         Fraction(1, 4) + Fraction(1, 8) * c1n + Fraction(1, 16) * c2n
         - Fraction(1, 96) * (c1n ** 3 - 3 * c1n * c2n)
         - Fraction(1, 192) * (c1n ** 2 * c2n - 2 * c2n ** 2)),
        ("ch_cotangent",
         _restrict(ch_bundle("c1F", "c2F", dual=True, cap=cap), range(5)),
         2 - c1f + half * (c1f ** 2 - 2 * c2f)
         - Fraction(1, 6) * (c1f ** 3 - 3 * c1f * c2f)
         + Fraction(1, 24) * (c1f ** 4 - 4 * c1f ** 2 * c2f + 2 * c2f ** 2)),
        ("equivariant_todd",
         _restrict(equivariant_todd(cap=cap), range(3)),
         Fraction(1, 4) + Fraction(1, 8) * (c1f + c1n)
         + Fraction(1, 48) * (c1f ** 2 + c2f + 3 * c1f * c1n + 3 * c2n)),
        ("equivariant_ch_cotangent",
         _restrict(equivariant_ch_cotangent(cap=cap), range(4)),
         (-c1f + c1n) + half * (c1f ** 2 - 2 * c2f - c1n ** 2 + 2 * c2n)
         - Fraction(1, 6) * (c1f ** 3 - 3 * c1f * c2f - c1n ** 3 + 3 * c1n * c2n)),
    ]

    # The raw weight-3 product, before eliminating the normal-bundle classes.
    report = verify_product_identity()
    c1f3 = GradedElement.generator("c1F", 3)
    c2f3 = GradedElement.generator("c2F", 3)
    c1n3 = GradedElement.generator("c1N", 3)
    c2n3 = GradedElement.generator("c2N", 3)
    checks.append((
        "product_weight3_raw",
        report.product_raw,
        Fraction(1, 48) * (c1f3 ** 2 * c1n3 - c1n3 ** 3 - c1f3 * c2f3
                           + 3 * c1f3 * c2n3 + 3 * c1n3 * c2n3
                           - 5 * c1n3 * c2f3)))
    return checks


# ---------------------------------------------------------------------------
# Pointwise Hermitian norm identity on the model exterior algebra


_Form = dict[tuple[tuple[int, ...], tuple[int, ...]], complex]


def _merge_sorted(t1: tuple[int, ...], t2: tuple[int, ...]) -> tuple[tuple[int, ...], int] | None:
    merged = list(t1) + list(t2)
    if len(set(merged)) != len(merged):
        return None
    sign = 1
    # Insertion sort, counting transpositions.
    for i in range(1, len(merged)):
        j = i
        while j > 0 and merged[j - 1] > merged[j]:
            merged[j - 1], merged[j] = merged[j], merged[j - 1]
            sign = -sign
            j -= 1
    return tuple(merged), sign


def _wedge(a: _Form, b: _Form) -> _Form:
    out: _Form = {}
    for (h1, a1), c1 in a.items():
        for (h2, a2), c2 in b.items():
            holo = _merge_sorted(h1, h2)
            anti = _merge_sorted(a1, a2)
            if holo is None or anti is None:
                continue
            # Moving the antiholomorphic block of the first factor past the
            # holomorphic block of the second costs one sign per crossing.
            sign = holo[1] * anti[1] * (-1) ** (len(a1) * len(h2))
            key = (holo[0], anti[0])
            out[key] = out.get(key, 0j) + sign * c1 * c2
    return {k: v for k, v in out.items() if v != 0}


def _norm_squared(form: _Form) -> float:
    # Basis monomials are orthogonal; each index contributes a factor
    # h(v^i, v^i) = 2 to the Gram determinant.
    return sum(abs(c) ** 2 * 2.0 ** (len(h) + len(a)) for (h, a), c in form.items())


def wedge_norm_identity(alpha: Sequence[Sequence[complex]], mu: complex) -> tuple[float, float]:
    """Evaluate both sides of the pointwise norm identity
    h(theta ^ alpha, theta ^ alpha) = |mu|^2 h(alpha, alpha).

    ``alpha`` is the 4x4 coefficient matrix of the (1,1)-form
    (1/2) sum alpha_ij v^i v̄^j; theta = (mu/2) times the conjugate of the
    standard symplectic form i v^1 v^2 + i v^3 v^4.  Metric normalization:
    h(v^i, v^j) = 2 delta_ij.  Returns (lhs, rhs).
    """
    if len(alpha) != 4 or any(len(row) != 4 for row in alpha):
        raise IhskitError("alpha must be a 4x4 matrix")
    sigma_conj: _Form = {((), (1, 2)): -1j, ((), (3, 4)): -1j}
    theta: _Form = {k: (mu / 2) * v for k, v in sigma_conj.items()}
    alpha_form: _Form = {}
    for i in range(4):
        for j in range(4):
            if alpha[i][j] != 0:
                alpha_form[((i + 1,), (j + 1,))] = alpha[i][j] / 2
    lhs = _norm_squared(_wedge(theta, alpha_form))
    rhs = abs(mu) ** 2 * _norm_squared(alpha_form)
    return lhs, rhs
