"""Closed forms for the archimedean local factors.

Second degree phases at the real and complex places come in four shapes:
a plain real Gaussian phase, a hermitian phase on the complex plane, a
holomorphic square phase on the complex plane, and a radial phase on a
real vector space.  Each transform is one gamma factor times one Kummer
function, and the quadrature oracles check every formula here.  zeta_real
and zeta_rn_radial also take arrays of s; _entry checks s and picks the
forms of the body once.

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

from .errors import DomainError
from .specfun import (
    _exp_array,
    _is_array,
    _log_gamma,
    _log_gamma_array,
    _point,
    _points,
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
# Parameter and character types, each with the one check that its class
# and its closed form share.
# ---------------------------------------------------------------------------


def _check_finite(shape: str, a, b) -> None:
    if not (cmath.isfinite(a) and cmath.isfinite(b)):
        raise DomainError(f"the {shape} phase needs finite coefficients, got {a!r} and {b!r}")


def _check_real(a, b) -> None:
    _check_finite("real", a, b)
    if a == 0:
        raise DomainError("quadratic coefficient must be nonzero")


def _check_hermitian(a, b) -> None:
    _check_finite("hermitian", a, b)
    if not a > 0:
        raise DomainError("hermitian coefficient must be positive")


def _check_square(a, b) -> None:
    _check_finite("square", a, b)
    if a == 0:
        raise DomainError("quadratic coefficient must be nonzero")


def _check_radial(n, a, bnorm) -> None:
    if n < 1:
        raise DomainError("dimension must be at least 1")
    _check_finite("radial", a, bnorm)
    if a == 0:
        raise DomainError("quadratic coefficient must be nonzero")
    if bnorm < 0:
        raise DomainError("linear coefficient enters through its norm")


@dataclass(frozen=True)
class Real:
    """Phase exp(-2 pi i (a y^2 / 2 + b y)) on the real line."""

    a: float
    b: float = 0.0

    def __post_init__(self):
        _check_real(self.a, self.b)


@dataclass(frozen=True)
class ComplexHermitian:
    """Phase built on a |z|^2 / 2 plus a conj(b)-paired linear term."""

    a: float
    b: complex = 0j

    def __post_init__(self):
        _check_hermitian(self.a, self.b)


@dataclass(frozen=True)
class ComplexSquare:
    """Phase built on the holomorphic square a z^2 / 2 + b z."""

    a: complex
    b: complex = 0j

    def __post_init__(self):
        _check_square(self.a, self.b)


@dataclass(frozen=True)
class RealRadial:
    """Rotation-invariant phase on n real variables; only the norm of
    the linear coefficient matters."""

    n: int
    a: float
    bnorm: float = 0.0

    def __post_init__(self):
        _check_radial(self.n, self.a, self.bnorm)


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


# exp and log-gamma, scalar and array, for _gamma_kummer
_SCALAR = (cmath.exp, _log_gamma)
_ARRAY = (_exp_array, _log_gamma_array)


def _gamma_kummer(w, scale: float, c: float, z: complex, pref=None, forms=_SCALAR):
    """pref e^(-i pi w / 2) scale^(-w) Gamma(w) 1F1(w; c; z), multiplied
    left to right; pref None stands for 1, and w is an array with forms
    _ARRAY.

    Every closed form built on one Kummer function has this shape: the
    quadratic part of the phase gives Gamma(w) (i scale)^(-w), and the
    linear part the Kummer series in z (DLMF 13.2).  At z = 0 the Kummer
    factor is 1F1(w; c; 0) = 1 and is left out; c is never near a
    non-positive integer here."""

    exp, log_gamma = forms
    out = exp(-0.5j * math.pi * w)
    if pref is not None:
        out = pref * out
    out = out * exp(-w * math.log(scale)) * exp(log_gamma(w))
    if z == 0:
        return out
    return out * hyp1f1(w, c, z)


def _powc(base: float, expo: complex) -> complex:
    # base > 0
    return cmath.exp(expo * math.log(base))


def _quarter_phase(k: complex) -> complex:
    """exp(-i pi k / 4)."""

    return cmath.exp(-0.25j * math.pi * k)


def _entry(s, what: str):
    """(s checked, the forms of its body): one check and one dispatch."""
    if _is_array(s):
        return _points(s, what), _ARRAY
    return _point(s, what), _SCALAR


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
    _check_real(a, b)
    s, forms = _entry(s, "zeta_real")
    flip = a < 0
    if flip:
        a, b, s = -a, -b, s.conjugate()
    z = 1j * math.pi * b * b / a
    if isinstance(char, Trivial):
        value = _gamma_kummer(0.5 * s, math.pi * a, 0.5, z, None, forms)
    elif not isinstance(char, RealSign):
        raise DomainError(f"unsupported character {char!r} at the real place")
    elif b == 0:
        value = s - s  # zeros of the kind of s
    else:
        value = _gamma_kummer(0.5 * (s + 1), math.pi * a, 1.5, z, -2j * math.pi * b, forms)
    return value.conjugate() if flip else value


# ---------------------------------------------------------------------------
# Complex place, hermitian phase.
# ---------------------------------------------------------------------------


def zeta_complex_hermitian(a: float, b: complex, n: int, s: complex) -> complex:
    """Transform of the hermitian phase against c_n(z) |z|^(2s).

    Vanishes for n != 0 when b = 0 (pure angular integral).  Negative n
    trades b for its conjugate: substituting z -> conj(z) in the
    integral fixes the phase and flips the angular character."""

    a, b, n, s = float(a), complex(b), int(n), complex(s)
    _check_hermitian(a, b)
    if n < 0:
        n, b = -n, b.conjugate()
    if b == 0 and n != 0:
        return 0j
    babs = abs(b)
    z = 2j * math.pi * babs * babs / a
    pref = 2.0 * math.pi if n == 0 else (
        ((-1j) ** (n % 4)) * (2.0 * math.pi * babs) ** n
        * cmath.exp(1j * n * cmath.phase(b)) / math.factorial(n)
        * 2.0 * math.pi
    )
    return _gamma_kummer(s + 0.5 * n, 2.0 * math.pi * a, n + 1.0, z, pref)


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
    _check_square(a, b)
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
    its trivial character (the two-point sphere average is a cosine).
    s may be an array of points, as for zeta_real."""

    a, bnorm, n = float(a), float(bnorm), int(n)
    _check_radial(n, a, bnorm)
    s, forms = _entry(s, "zeta_rn_radial")
    flip = a < 0
    if flip:
        a, s = -a, s.conjugate()
    z = 1j * math.pi * bnorm * bnorm / a
    pref = math.pi ** (0.5 * n) / gamma(0.5 * n)
    value = _gamma_kummer(0.5 * s, math.pi * a, 0.5 * n, z, pref, forms)
    return value.conjugate() if flip else value


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


# ---------------------------------------------------------------------------
# Reflection law.
# ---------------------------------------------------------------------------


def _reflection(sdc, char, s: complex):
    """(n, c(s)) with Z(s) = c(s) conj(Z(n - conj(s))) for the shape.

    The centre n is 1 at the rank-one places and the dimension of a
    radial phase.  The constant is the index times the rho quotient
    times the modulus power of a, |a|^(n/2 - s) (the complex modulus is
    |a|^2), times the shape's twist: chi(a) = sign(a) for the real sign
    character, (-1)^n e^(2 i n arg b) for a hermitian phase and
    e^(-i n arg a) for a square phase.  The radial quotient is
    pi^(n/2 - s) Gamma(s/2) / Gamma((n - s)/2), tate_rho's trivial
    quotient at n = 1.  A negative a needs nothing more: the index
    already carries its sign."""

    gamma_f = weil_index_arch(sdc)
    if isinstance(sdc, Real):
        chi_a = -1.0 if sdc.a < 0 and isinstance(char, RealSign) else 1.0
        return 1, gamma_f * tate_rho(s, char) * _powc(abs(sdc.a), 0.5 - s) * chi_a
    if isinstance(sdc, RealRadial):
        if not isinstance(char, Trivial):
            raise DomainError("radial phases take the trivial character only")
        n = sdc.n
        rho_n = _powc(math.pi, 0.5 * n - s) * gamma_ratio(0.5 * s, 0.5 * (n - s))
        return n, gamma_f * rho_n * _powc(abs(sdc.a), 0.5 * n - s)
    n = _complex_char_n(char)
    if isinstance(sdc, ComplexHermitian):
        twist = (-1.0) ** (n % 2) * cmath.exp(2j * n * cmath.phase(sdc.b))
    else:
        twist = cmath.exp(-1j * n * cmath.phase(sdc.a))
    return 1, (
        gamma_f * twist * tate_rho(s, ComplexCn(n)) * _powc(abs(sdc.a) ** 2, 0.5 - s)
    )


def functional_equation_residual(sdc, char, s: complex) -> float:
    """Relative residual of the local functional equation at s: Z(s)
    against c(s) conj(Z(n - conj(s))), the centre n and the constant c(s)
    from the shape's reflection law (_reflection), which serves every
    shape, negative a included."""

    s = complex(s)
    direct = zeta_arch(sdc, char, s)
    centre, constant = _reflection(sdc, char, s)
    implied = constant * zeta_arch(sdc, char, centre - s.conjugate()).conjugate()
    scale = max(abs(direct), abs(implied), 1e-30)
    return abs(direct - implied) / scale


def tate_rho_self_check() -> float:
    """Largest functional-equation residual at a = 1 over a reference
    grid of the strip, for the plain Gaussian phase with the trivial
    character and a shifted phase with the sign character (where the
    transform does not vanish).  At a = 1 the modulus power is 1, so
    this checks tate_rho against the transforms it is the quotient of."""

    grid = [
        complex(re, im)
        for re in (0.2, 0.35, 0.5, 0.65, 0.8)
        for im in (-4.0, -1.5, 0.0, 1.5, 4.0)
    ]
    cases = ((Real(1.0, 0.0), Trivial()), (Real(1.0, 0.5), RealSign()))
    return max(
        functional_equation_residual(sdc, char, s)
        for sdc, char in cases
        for s in grid
    )
