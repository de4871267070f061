"""Closed forms for the archimedean local factors.

Second degree phases at the real and complex places come in four shapes:
a plain real Gaussian phase, a hermitian phase on the complex plane, a
holomorphic square phase on the complex plane, and a radial phase on a
real vector space.  Each has a closed-form multiplicative transform
built from one gamma factor and one Kummer function; everything here is
elementary once the right parameters are matched, and the quadrature
oracles exist so no formula in this module is trusted on faith.

Conventions.  The real additive character is exp(-2 pi i x); the complex
one is its trace composition, exp(-2 pi i (z + conj(z))).  The angular
character on the complex units is c_n(z) = (z / |z|)^n with |.| the
Euclidean absolute value.  Hermitian linear terms pair z against
conj(b), so the transform is holomorphic in b of degree n, not in
conj(b)."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PoleError
from .specfun import (
    _POINTWISE_BELOW,
    _as_complex,
    _cexp,
    _is_array,
    _pointwise,
    _zero_like,
    gamma,
    gamma_ratio,
    hyp1f1,
)

__all__ = [
    "Real",
    "ComplexHermitian",
    "ComplexSquare",
    "RealRadial",
    "Trivial",
    "RealSign",
    "ComplexCn",
    "zeta_real",
    "zeta_complex_hermitian",
    "zeta_complex_square",
    "zeta_rn_radial",
    "zeta_arch",
    "weil_index_arch",
    "tate_rho",
    "tate_rho_self_check",
    "functional_equation_residual",
]


# ---------------------------------------------------------------------------
# Parameter and character types.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Real:
    """Phase exp(-2 pi i (a y^2 / 2 + b y)) on the real line."""

    a: float
    b: float = 0.0

    def __post_init__(self):
        if self.a == 0:
            raise DomainError("quadratic coefficient must be nonzero")


@dataclass(frozen=True)
class ComplexHermitian:
    """Phase built on a |z|^2 / 2 plus a conj(b)-paired linear term."""

    a: float
    b: complex = 0j

    def __post_init__(self):
        if not self.a > 0:
            raise DomainError("hermitian coefficient must be positive")


@dataclass(frozen=True)
class ComplexSquare:
    """Phase built on the holomorphic square a z^2 / 2 + b z."""

    a: complex
    b: complex = 0j

    def __post_init__(self):
        if self.a == 0:
            raise DomainError("quadratic coefficient must be nonzero")


@dataclass(frozen=True)
class RealRadial:
    """Rotation-invariant phase on n real variables; only the norm of
    the linear coefficient matters."""

    n: int
    a: float
    bnorm: float = 0.0

    def __post_init__(self):
        if self.n < 1:
            raise DomainError("dimension must be at least 1")
        if self.a == 0:
            raise DomainError("quadratic coefficient must be nonzero")
        if self.bnorm < 0:
            raise DomainError("linear coefficient enters through its norm")


@dataclass(frozen=True)
class Trivial:
    pass


@dataclass(frozen=True)
class RealSign:
    pass


@dataclass(frozen=True)
class ComplexCn:
    n: int


# ---------------------------------------------------------------------------
# Shared pieces.
# ---------------------------------------------------------------------------

_POLE_TOL = 1e-12


def _gamma_arg(w: complex) -> complex:
    """Gamma(w) with an explicit pole signal; w may be an array."""

    if _is_array(w):
        r = np.round(w.real)
        bad = (np.abs(w.imag) < _POLE_TOL) & (r <= 0) & (np.abs(w.real - r) < _POLE_TOL)
        if bad.any():
            raise PoleError(f"gamma factor has a pole at argument {w[bad][0]}")
    elif abs(w.imag) < _POLE_TOL and w.real <= 0.5:
        if abs(w.real - round(w.real)) < _POLE_TOL and round(w.real) <= 0:
            raise PoleError(f"gamma factor has a pole at argument {w}")
    return gamma(w)


def _powc(base: float, expo: complex) -> complex:
    # base > 0
    return _cexp(expo * math.log(base))


def _quarter_phase(k: complex) -> complex:
    """exp(-i pi k / 4)."""

    return _cexp(-0.25j * math.pi * k)


# ---------------------------------------------------------------------------
# Real place.
# ---------------------------------------------------------------------------


def zeta_real(a: float, b: float, s: complex, char=Trivial()) -> complex:
    """Transform of the real phase against y^s and a sign character.

    Negative a is handled by conjugation: flipping the sign of the phase
    conjugates the integrand, so the value is the conjugate of the
    transform at (|a|, -b, conj(s)).  The Kummer argument is
    pi i b^2 / a; far outside the unit range the series is hopeless and
    the call is rejected rather than answered badly.  s may be an array
    of points; the result then is an array of its shape."""

    a, b = float(a), float(b)
    if _is_array(s) and s.size < _POINTWISE_BELOW:
        return _pointwise(lambda z: zeta_real(a, b, z, char), s)
    s = _as_complex(s)
    if a == 0:
        raise DomainError("quadratic coefficient must be nonzero")
    if a < 0:
        return zeta_real(-a, -b, s.conjugate(), char).conjugate()
    z = 1j * math.pi * b * b / a
    if isinstance(char, Trivial):
        return (
            _quarter_phase(s)
            * _powc(math.pi * a, -0.5 * s)
            * _gamma_arg(0.5 * s)
            * hyp1f1(0.5 * s, 0.5, z)
        )
    if isinstance(char, RealSign):
        if b == 0:
            return _zero_like(s)
        return (
            -2j * math.pi * b
            * _quarter_phase(s + 1)
            * _powc(math.pi * a, -0.5 * (s + 1))
            * _gamma_arg(0.5 * (s + 1))
            * hyp1f1(0.5 * (s + 1), 1.5, z)
        )
    raise DomainError(f"unsupported character {char!r} at the real place")


# ---------------------------------------------------------------------------
# Complex place, hermitian phase.
# ---------------------------------------------------------------------------


def zeta_complex_hermitian(a: float, b: complex, n: int, s: complex) -> complex:
    """Transform of the hermitian phase against c_n(z) |z|^(2s).

    Vanishes for n != 0 when b = 0 (pure angular integral).  Negative n
    trades b for its conjugate: substituting z -> conj(z) in the
    integral fixes the phase and flips the angular character."""

    a, b, n, s = float(a), complex(b), int(n), complex(s)
    if not a > 0:
        raise DomainError("hermitian coefficient must be positive")
    if n < 0:
        n, b = -n, b.conjugate()
    if b == 0 and n != 0:
        return 0j
    babs = abs(b)
    z = 2j * math.pi * babs * babs / a
    # principal log of 2 pi i a, a > 0
    logp = math.log(2.0 * math.pi * a) + 0.5j * math.pi
    pref = 1.0 if n == 0 else (
        ((-1j) ** (n % 4)) * (2.0 * math.pi * babs) ** n
        * cmath.exp(1j * n * cmath.phase(b)) / math.factorial(n)
    )
    return (
        pref
        * 2.0 * math.pi
        * _gamma_arg(s + 0.5 * n)
        * cmath.exp(-(s + 0.5 * n) * logp)
        * hyp1f1(s + 0.5 * n, n + 1.0, z)
    )


# ---------------------------------------------------------------------------
# Complex place, square phase.
# ---------------------------------------------------------------------------


def _square_unit(b: complex, s: complex) -> complex:
    """Square-phase transform at a = 1, n = 0.

    Splits into the even and odd sectors of the two light-cone
    directions; each contributes a gamma quotient times a pair of Kummer
    factors in b^2 and conj(b)^2."""

    bb = b * b
    bbc = bb.conjugate()
    even = (
        gamma_ratio(0.5 * s, 1.0 - 0.5 * s)
        * hyp1f1(0.5 * s, 0.5, 1j * math.pi * bb)
        * hyp1f1(0.5 * s, 0.5, 1j * math.pi * bbc)
    )
    odd = (
        -4.0 * math.pi * abs(b) ** 2
        * gamma_ratio(0.5 * (s + 1.0), 0.5 * (1.0 - s))
        * hyp1f1(0.5 * (s + 1.0), 1.5, 1j * math.pi * bb)
        * hyp1f1(0.5 * (s + 1.0), 1.5, 1j * math.pi * bbc)
    )
    return _powc(math.pi, 1.0 - s) * (even + odd)


def zeta_complex_square(a: complex, b: complex, n: int, s: complex) -> complex:
    """Transform of the square phase against c_n(z) |z|^(2s).

    Supported sectors: any even n with b = 0, and n = 0 with any b (the
    general case folds into a = 1 by the substitution z -> z / sqrt(a),
    principal branch, which costs |a|^(-s)).  Odd n with b = 0 vanishes
    by central symmetry.  The remaining combinations have no closed form
    here and are rejected."""

    a, b, n, s = complex(a), complex(b), int(n), complex(s)
    if a == 0:
        raise DomainError("quadratic coefficient must be nonzero")
    if n == 0:
        return _powc(abs(a), -s) * _square_unit(b / cmath.sqrt(a), s)
    if b == 0:
        if n % 2:
            return 0j
        m = n // 2
        return (
            _powc(abs(a), -s)
            * cmath.exp(-1j * m * cmath.phase(a))
            * ((-1j) ** (abs(m) % 4))
            * _powc(math.pi, 1.0 - s)
            * gamma_ratio(0.5 * s + 0.5 * abs(m), 1.0 - 0.5 * s + 0.5 * abs(m))
        )
    raise DomainError("square phase supports n = 0 or b = 0 only")


# ---------------------------------------------------------------------------
# Radial vectors.
# ---------------------------------------------------------------------------


def zeta_rn_radial(a: float, bnorm: float, n: int, s: complex) -> complex:
    """Transform of the radial phase over n real variables against
    |x|^s; for n = 1 this collapses to the real-place transform with
    its trivial character (the two-point sphere average is a cosine)."""

    a, bnorm, n, s = float(a), float(bnorm), int(n), complex(s)
    if n < 1:
        raise DomainError("dimension must be at least 1")
    if a == 0:
        raise DomainError("quadratic coefficient must be nonzero")
    if bnorm < 0:
        raise DomainError("linear coefficient enters through its norm")
    if a < 0:
        return zeta_rn_radial(-a, bnorm, n, s.conjugate()).conjugate()
    z = 1j * math.pi * bnorm * bnorm / a
    logp = math.log(math.pi * a) + 0.5j * math.pi
    return (
        math.pi ** (0.5 * n) / gamma(0.5 * n)
        * _gamma_arg(0.5 * s)
        * cmath.exp(-0.5 * s * logp)
        * hyp1f1(0.5 * s, 0.5 * n, z)
    )


# ---------------------------------------------------------------------------
# Dispatch, index, rho.
# ---------------------------------------------------------------------------


def zeta_arch(sdc, char, s: complex) -> complex:
    """Type-driven dispatch over the four archimedean shapes."""

    if isinstance(sdc, Real):
        if isinstance(char, (Trivial, RealSign)):
            return zeta_real(sdc.a, sdc.b, s, char)
        raise DomainError("real place takes the trivial or sign character")
    if isinstance(sdc, ComplexHermitian):
        n = _complex_char_n(char)
        return zeta_complex_hermitian(sdc.a, sdc.b, n, s)
    if isinstance(sdc, ComplexSquare):
        n = _complex_char_n(char)
        return zeta_complex_square(sdc.a, sdc.b, n, s)
    if isinstance(sdc, RealRadial):
        if isinstance(char, Trivial):
            return zeta_rn_radial(sdc.a, sdc.bnorm, sdc.n, s)
        raise DomainError("radial phases take the trivial character only")
    raise DomainError(f"unsupported parameter type {type(sdc).__name__}")


def _complex_char_n(char) -> int:
    if isinstance(char, Trivial):
        return 0
    if isinstance(char, ComplexCn):
        return char.n
    raise DomainError("complex place takes the angular characters c_n")


def weil_index_arch(sdc) -> complex:
    """Unit-modulus eighth-root-flavored constant of the phase.

    Real: exp(-sign(a) i pi / 4) times the additive character at
    -b^2 / (2a).  Complex hermitian: -i times the trace character at
    -|b|^2 / (2a).  Complex square: the trace character at -b^2 / (2a)
    alone.  Radial phases multiply n real indices."""

    if isinstance(sdc, Real):
        sign = 1.0 if sdc.a > 0 else -1.0
        return _quarter_phase(sign) * cmath.exp(
            1j * math.pi * sdc.b * sdc.b / sdc.a
        )
    if isinstance(sdc, ComplexHermitian):
        return -1j * cmath.exp(2j * math.pi * abs(sdc.b) ** 2 / sdc.a)
    if isinstance(sdc, ComplexSquare):
        w = -sdc.b * sdc.b / (2.0 * sdc.a)
        return cmath.exp(-4j * math.pi * w.real)
    if isinstance(sdc, RealRadial):
        sign = 1.0 if sdc.a > 0 else -1.0
        return _quarter_phase(sign * sdc.n) * cmath.exp(
            1j * math.pi * sdc.bnorm**2 / sdc.a
        )
    raise DomainError(f"unsupported parameter type {type(sdc).__name__}")


def tate_rho(s: complex, char) -> complex:
    """Local gamma quotient of the functional equation at an
    archimedean place, fixed by the transform of the plain Gaussian
    phase and equal to the classical completed-L quotients."""

    s = complex(s)
    if isinstance(char, Trivial):
        return _powc(math.pi, 0.5 - s) * gamma_ratio(0.5 * s, 0.5 * (1.0 - s))
    if isinstance(char, RealSign):
        return (
            1j
            * _powc(math.pi, 0.5 - s)
            * gamma_ratio(0.5 * (s + 1.0), 0.5 * (2.0 - s))
        )
    if isinstance(char, ComplexCn):
        m = abs(char.n)
        return (
            ((-1j) ** (m % 4))
            * _powc(2.0 * math.pi, 1.0 - 2.0 * s)
            * gamma_ratio(s + 0.5 * m, 1.0 - s + 0.5 * m)
        )
    raise DomainError(f"unsupported character {char!r}")


def tate_rho_self_check(points=None) -> float:
    """Largest relative gap, over a reference grid, between tate_rho and
    the quotient it is meant to be: transform over index times reflected
    conjugate transform.  Uses the plain Gaussian phase for the trivial
    character and a shifted phase for the sign character, where the
    transform does not vanish."""

    if points is None:
        points = [
            complex(re, im)
            for re in (0.2, 0.35, 0.5, 0.65, 0.8)
            for im in (-4.0, -1.5, 0.0, 1.5, 4.0)
        ]
    worst = 0.0
    trivial = Real(1.0, 0.0)
    shifted = Real(1.0, 0.5)
    for s in points:
        for sdc, char in ((trivial, Trivial()), (shifted, RealSign())):
            direct = zeta_arch(sdc, char, s)
            reflected = zeta_arch(sdc, char, (1.0 - s.conjugate()))
            implied = (
                weil_index_arch(sdc) * reflected.conjugate() * tate_rho(s, char)
            )
            worst = max(worst, abs(direct - implied) / abs(direct))
    return worst


# ---------------------------------------------------------------------------
# Functional equation residual.
# ---------------------------------------------------------------------------


def functional_equation_residual(sdc, char, s: complex) -> float:
    """Relative residual of the local functional equation at s.

    The reflection sends s to 1 - conj(s) at the rank-one places and to
    n - conj(s) for the n-variable radial phase; the constant is the
    index times the rho quotient times the appropriate modulus power of
    the quadratic coefficient."""

    s = complex(s)
    gamma_f = weil_index_arch(sdc)
    if isinstance(sdc, Real):
        direct = zeta_arch(sdc, char, s)
        mirrored = zeta_arch(sdc, char, 1.0 - s.conjugate()).conjugate()
        implied = gamma_f * tate_rho(s, char) * _powc(abs(sdc.a), 0.5 - s) * mirrored
    elif isinstance(sdc, ComplexHermitian):
        n = _complex_char_n(char)
        direct = zeta_arch(sdc, char, s)
        mirrored = zeta_complex_hermitian(
            sdc.a, sdc.b, n, 1.0 - s.conjugate()
        ).conjugate()
        # complex modulus of a is the square of the Euclidean one; the
        # nonzero angular sectors also twist by the angle of b
        phi_b = cmath.phase(sdc.b) if sdc.b != 0 else 0.0
        twist = (-1.0) ** (n % 2) * cmath.exp(2j * n * phi_b)
        implied = (
            gamma_f
            * twist
            * tate_rho(s, ComplexCn(n))
            * _powc(sdc.a**2, 0.5 - s)
            * mirrored
        )
    elif isinstance(sdc, ComplexSquare):
        n = _complex_char_n(char)
        direct = zeta_arch(sdc, char, s)
        mirrored = zeta_complex_square(
            sdc.a, sdc.b, n, 1.0 - s.conjugate()
        ).conjugate()
        # the reflection also picks up the angular character of a itself
        twist = cmath.exp(-1j * n * cmath.phase(sdc.a))
        implied = (
            gamma_f
            * twist
            * tate_rho(s, ComplexCn(n))
            * _powc(abs(sdc.a) ** 2, 0.5 - s)
            * mirrored
        )
    elif isinstance(sdc, RealRadial):
        if not isinstance(char, Trivial):
            raise DomainError("radial phases take the trivial character only")
        n = sdc.n
        direct = zeta_arch(sdc, char, s)
        mirrored = zeta_rn_radial(
            sdc.a, sdc.bnorm, n, n - s.conjugate()
        ).conjugate()
        aa = abs(sdc.a)
        rho_n = _powc(math.pi, 0.5 * n - s) * gamma_ratio(0.5 * s, 0.5 * (n - s))
        sign_fix = 1.0 if sdc.a > 0 else None
        if sign_fix is None:
            raise DomainError("use positive a; negative a conjugates the phase")
        implied = gamma_f * rho_n * _powc(aa, 0.5 * n - s) * mirrored
    else:
        raise DomainError(f"unsupported parameter type {type(sdc).__name__}")
    scale = max(abs(direct), abs(implied), 1e-30)
    return abs(direct - implied) / scale
