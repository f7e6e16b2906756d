"""Spectral zeta derivatives, equivariant torsion, and the trace-parameter
numerology feeding the final invariant.

Spectra are explicit: either a finite weighted list of eigenvalues or a power
law lambda_n = a * n^p with a single weight.  For the power law the derivative
at zero has the closed form w * (log(a)/2 - (p/2) log(2 pi)), which rests on
the two Riemann zeta constants zeta(0) = -1/2 and zeta'(0) = -log(2 pi)/2.
The test suite checks the closed form against an Euler-Maclaurin evaluator
of the Riemann zeta function and its s-derivative (``tests/zeta_reference.py``).

The trace parameter t (trace of the involution on the degree-2 form lattice,
plus 2) drives every fixed-locus count used downstream; ``numerology`` bundles
them, and ``assemble_invariant`` multiplies the analytic ingredients into the
final positive scalar.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Mapping, Sequence, Union

from . import exactmat
from .errors import TorsionError


@dataclass(frozen=True)
class FiniteSpectrum:
    """Finitely many eigenvalues with trace weights: entries (lambda, w)."""

    entries: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        entries = tuple((float(l), float(w)) for l, w in self.entries)
        object.__setattr__(self, "entries", entries)
        if any(l <= 0 for l, _ in entries):
            raise TorsionError("eigenvalues must be positive")


@dataclass(frozen=True)
class PowerSpectrum:
    """The eigenvalue family lambda_n = a * n^p (n >= 1) with weight w."""

    a: float
    p: float
    w: float

    def __post_init__(self) -> None:
        if self.a <= 0 or self.p <= 0:
            raise TorsionError("power spectrum needs a > 0 and p > 0")


WeightedSpectrum = Union[FiniteSpectrum, PowerSpectrum]

LOG_2PI = math.log(2 * math.pi)


def zeta_prime_zero(spectrum: WeightedSpectrum) -> float:
    """zeta'(0) of the weighted spectral zeta function sum w * lambda^-s.

    Finite spectra: -sum w log(lambda).  Power law: the analytic continuation
    w * a^-s * zeta_R(p s) differentiates to w * (log(a)/2 - p log(2 pi)/2).
    """
    if isinstance(spectrum, FiniteSpectrum):
        value = -sum(w * math.log(l) for l, w in spectrum.entries)
    elif isinstance(spectrum, PowerSpectrum):
        value = spectrum.w * (0.5 * math.log(spectrum.a) - 0.5 * spectrum.p * LOG_2PI)
    else:
        raise TorsionError(f"unknown spectrum type {type(spectrum).__name__}")
    if not math.isfinite(value):
        raise TorsionError(f"zeta'(0) is not a finite float ({value!r})")
    return value


def equivariant_torsion(spectra: Mapping[int, WeightedSpectrum], dim: int) -> float:
    """exp(-sum_q (-1)^q q zeta'_q(0)) over form degrees q = 0..dim.

    ``spectra`` maps a degree q to its weighted spectrum; missing degrees
    contribute nothing (empty spectrum).
    """
    if dim < 0:
        raise TorsionError("dimension must be nonnegative")
    for q in spectra:
        if not 0 <= q <= dim:
            raise TorsionError(f"degree {q} outside 0..{dim}")
    acc = 0.0
    for q, spectrum in spectra.items():
        acc += (-1) ** q * q * zeta_prime_zero(spectrum)
    return _positive_float(lambda: math.exp(-acc), "equivariant torsion")


def _positive_float(compute, what: str) -> float:
    """The value of ``compute()``; TorsionError when it overflows, underflows
    to 0 or is not a number, so that no caller takes the log of 0 or inf."""
    try:
        value = compute()
    except OverflowError:
        value = math.inf
    if not 0.0 < value < math.inf:
        raise TorsionError(f"{what} is not a positive finite float ({value!r})")
    return value


def quillen_combination(tau_g: float, l2_plus: float, l2_minus: float) -> float:
    """Square of the equivariant Quillen norm: tau_g * (l2_plus / l2_minus)^2.

    ``l2_plus`` and ``l2_minus`` are the L2 norms of the components of a
    section on the +1 and -1 eigenspaces; the equivariant L2 norm is their
    ratio, and the Quillen square norm multiplies its square by the torsion.
    """
    if tau_g <= 0 or l2_plus <= 0 or l2_minus <= 0:
        raise TorsionError("torsion and norms must be positive")
    return tau_g * (l2_plus / l2_minus) ** 2


# ---------------------------------------------------------------------------
# Trace-parameter numerology


def _check_t(t: int) -> None:
    if t % 2 == 0 or not -19 <= t <= 21:
        raise TorsionError(f"trace parameter t = {t} must be odd in [-19, 21]")


@dataclass(frozen=True)
class Numerology:
    """Exact fixed-locus counts and curvature coefficients for a trace
    parameter t.  Keys mirror the CLI record field for field."""

    t: int
    c1sq: Fraction        # self-intersection of c1 on the fixed surface
    chi: Fraction         # holomorphic Euler characteristic of the fixed surface
    c2: Fraction          # Euler number of the fixed surface
    dim_def: Fraction     # dimension of the deformation space
    omega_int: Fraction   # fiber integral of c1F^2 - 8 c2F - c1X^2 + 3 c2X
    exp_vol: Fraction     # exponent of the volume factor in the invariant
    coef_curv16: Fraction  # curvature coefficient, period-map normalization
    coef_curv8: Fraction   # curvature coefficient, moduli normalization
    coef_prop32: Fraction  # degree-(1,1) coefficient of the direct-image character
    coef_l34_plus: Fraction   # eigenbundle combination coefficient, +1 component
    coef_l34_minus: Fraction  # eigenbundle combination coefficient, -1 component

    def to_dict(self) -> dict:
        return asdict(self)


def numerology(t: int) -> Numerology:
    """All exact t-dependent constants used by the invariant assembly."""
    _check_t(t)
    tt = Fraction(t)
    return Numerology(
        t=t,
        c1sq=tt * tt - 1,
        chi=(tt * tt + 7) / 8,
        c2=(tt * tt + 23) / 2,
        dim_def=(21 - tt) / 2,
        omega_int=-3 * (tt * tt + 7),
        exp_vol=(tt - 1) * (tt - 7) / 16,
        coef_curv16=(tt + 1) * (tt + 7) / 16,
        coef_curv8=(tt + 1) * (tt + 7) / 8,
        coef_prop32=-tt / 2,
        coef_l34_plus=-(21 + tt) / 4,
        coef_l34_minus=-(21 - tt) / 4,
    )


def omega_integral_from_parts(t: int) -> Fraction:
    """The characteristic fiber integral reassembled from its four parts.

    The c1F^2 integral is t^2 - 1 and the c2F integral (t^2 + 23)/2;
    the restricted ambient c1 integrates to zero (trivial canonical bundle),
    and the restricted c2 integral follows from the Whitney relation
    c2X| = 2 c2F - c1F^2, which integrates to the constant 24.
    """
    _check_t(t)
    tt = Fraction(t)
    c1f_sq = tt * tt - 1
    c2f = (tt * tt + 23) / 2
    c1x_sq = Fraction(0)
    c2x = 2 * c2f - c1f_sq
    return c1f_sq - 8 * c2f - c1x_sq + 3 * c2x


def gram_covolume(pairing: Sequence[Sequence], vectors: Sequence[Sequence] | None = None):
    """Determinant of the Gram matrix of ``vectors`` under a pairing table.

    With ``vectors`` omitted the table itself is the Gram matrix.  The
    determinant is computed exactly, float entries by their exact binary
    values, and returned as a Fraction when all inputs are rational, as a
    float otherwise.  Unimodular integer changes of the vector list leave
    the result unchanged.  A non-finite entry, or a float result out of
    range, raises TorsionError.
    """
    n = len(pairing)
    if any(len(row) != n for row in pairing):
        raise TorsionError("pairing table must be square")
    for i in range(n):
        for j in range(i):
            if pairing[i][j] != pairing[j][i]:
                raise TorsionError("pairing table must be symmetric")
    gram = pairing
    if vectors is not None:
        if any(len(v) != n for v in vectors):
            raise TorsionError("vector length does not match the pairing table")
        gram = exactmat.mat_mul(exactmat.mat_mul(vectors, pairing), exactmat.transpose(vectors))
    exact = all(isinstance(x, (int, Fraction)) and not isinstance(x, bool)
                for row in gram for x in row)
    try:
        entries, den = exactmat.scaled(gram)
        det = Fraction(exactmat.det_int(entries), den ** len(entries))
        return det if exact else float(det)
    except (ValueError, OverflowError) as exc:
        raise TorsionError(f"Gram covolume is not a finite number: {exc}") from exc


@dataclass(frozen=True)
class TorsionIngredients:
    """The scalar ingredients of the final invariant.

    ``a_factor`` is the conformal correction; it equals 1 exactly in the
    Ricci-flat normalization, which is the default.
    """

    tau_iota: float
    vol_x: float
    tau_o_fix: float
    vol_fix: float
    vol_l2_h1: float
    t: int
    a_factor: float = 1.0

    def __post_init__(self) -> None:
        for name in ("tau_iota", "vol_x", "tau_o_fix", "vol_fix", "vol_l2_h1", "a_factor"):
            if getattr(self, name) <= 0:
                raise TorsionError(f"{name} must be positive")
        _check_t(self.t)


def assemble_invariant(ingredients: TorsionIngredients) -> float:
    """The invariant: equivariant torsion of the cotangent bundle, volume to
    the exponent (t-1)(t-7)/16, the conformal factor, divided by the squared
    fixed-locus torsion and volume, times the degree-1 lattice covolume."""
    i = ingredients
    exponent = float(numerology(i.t).exp_vol)
    return _positive_float(lambda: (i.tau_iota
                                    * i.vol_x ** exponent
                                    * i.a_factor
                                    * i.tau_o_fix ** -2
                                    * i.vol_fix ** -2
                                    * i.vol_l2_h1), "invariant")
