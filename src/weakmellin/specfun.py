"""Special functions used by the zeta-factor machinery.

Everything here is self-contained: a Lanczos log-gamma, Euler-Maclaurin
Riemann zeta and Dirichlet L, a Kummer confluent hypergeometric summed
in fixed-point integers (see hyp1f1), Dirichlet characters of general
modulus, and the completed Riemann xi.  mpmath and sympy appear only in
the tests.

One character convention serves the whole package.  The units mod each
prime power p^k have fixed generators (`_local_generators`): the least
primitive root for odd p, -1 and 3 for 2^k with k >= 3, 3 for 4.  A
character's index is its exponents against them, one discrete-log table
per prime power (`_dlog_array`, the 16 used last kept) reads any unit's
exponents, and the conductor and the inducing primitive character are
read off the index.  The p-adic unit characters of `padic_core` use the
same generators and table, so a character's local component at odd p is
its exponent there.

log_gamma, gamma, riemann_zeta, dirichlet_l and completed_xi take a
complex scalar or an ndarray of points, and hyp1f1 the same in a alone,
with scalar b and z.  Each entry checks s (hyp1f1: a) and picks its body
once: a scalar runs the cmath body, an array of any size a numpy body
elementwise, returning an array of its shape.  No body
checks or dispatches again; exp, x ** w, exprel, log-gamma and the power
table each have one scalar and one array form.  A bad point in an array
raises what the scalar call raises there: PoleError, DomainError, or
OverflowError where numpy would return inf.  The Euler-Maclaurin zetas
read one power plan per modulus and residues (_PowerPlan), and a point
takes M(|s|) Bernoulli corrections from the table _EM_TERMS: 5 up to
|s| = 2, 12 up to 30, 22 from 58 on, the fewest that keep the first
omitted one at or below 4.7e-17; a numpy block takes those of its
largest |s|.

Accuracy targets: ~1e-13 relative for gamma and zeta on Re(s) >= -0.5,
|Im(s)| <= 60, away from poles; outside it reflection formulas serve or
DomainError is raised.  Riemann zeta is regular at s = 0 and good to a few
ulps just left of it.  The Euler-Maclaurin kernel returns the entire part
zeta(s, a) - 1/(s - 1), so that part (_hurwitz_em) and a non-principal
dirichlet_l are within 1.5e-15 (1 + |value|) of mpmath at |s - 1| from
1e-7 to 0.3.  Left of Re(s) = 0 the Euler-Maclaurin sum of a
non-principal L cancels by about 24^(1 - Re s) / |s - 1| (80 at
s = -0.5), so dirichlet_l there is good to about 1e-13 (1 + |L|)
against 30-digit mpmath, for -0.5 <= Re(s) <= -0.1, |Im(s)| <= 60.
"""

from __future__ import annotations

import cmath
import itertools
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import add, itemgetter, mul

import numpy as np

from .errors import (
    ConvergenceError,
    DomainError,
    PoleError,
    PrecisionWarning,
)

__all__ = [
    "log_gamma",
    "gamma",
    "gamma_ratio",
    "EvalQuality",
    "hyp1f1",
    "hyp1f1_eval",
    "riemann_zeta",
    "DirichletCharacter",
    "characters",
    "dirichlet_l",
    "completed_xi",
]

TWO_PI = 2.0 * math.pi

# Lanczos approximation, g = 7, 9 coefficients.  Gives ~15 significant
# digits for Re(z) >= 0.5; the reflection formula covers the rest.
_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_POLE_TOL = 1e-9


def _is_array(x) -> bool:
    return isinstance(x, np.ndarray) and x.ndim > 0


def _point(s, what: str) -> complex:
    """complex(s), the scalar entry check: DomainError unless finite."""
    z = complex(s)
    if not cmath.isfinite(z):
        raise DomainError(f"{what} needs a finite s")
    return z


def _points(s: np.ndarray, what: str) -> np.ndarray:
    """A complex copy of the array s after _point's check."""
    z = s.astype(complex)
    if not np.isfinite(z).all():
        raise DomainError(f"{what} needs a finite s")
    return z


def _exp_array(w: np.ndarray) -> np.ndarray:
    """np.exp, raising OverflowError where cmath.exp would."""
    with np.errstate(over="ignore"):
        out = np.exp(w)
    if np.isinf(out).any():
        raise OverflowError("math range error")
    return out


def _near_nonpositive_int(z: complex) -> bool:
    # every gamma body passes here, so it also refuses non-finite z
    if not cmath.isfinite(z):
        raise DomainError(f"gamma needs a finite argument, got {z}")
    if abs(z.imag) > _POLE_TOL:
        return False
    r = round(z.real)
    return r <= 0 and abs(z.real - r) <= _POLE_TOL


def _raise_at_poles(z: np.ndarray, what: str) -> None:
    # the array form of _near_nonpositive_int
    bad = ~np.isfinite(z)
    if bad.any():
        raise DomainError(f"gamma needs a finite argument, got {z[bad][0]}")
    near = np.abs(z.imag) <= _POLE_TOL
    if near.any():
        z = z[near]
        r = np.round(z.real)
        bad = (r <= 0) & (np.abs(z.real - r) <= _POLE_TOL)
        if bad.any():
            raise PoleError(f"{what} at z = {z[bad][0]}")


def _log_gamma_array(z: np.ndarray) -> np.ndarray:
    _raise_at_poles(z, "gamma pole")
    refl = z.real < 0.5
    w = np.where(refl, 1.0 - z, z)
    zz = w - 1.0
    x = _LANCZOS_C[0]
    for i in range(1, 9):
        x = x + _LANCZOS_C[i] / (zz + i)
    t = zz + _LANCZOS_G + 0.5
    # (zz + 1/2) log t reaches a few hundred at |Im z| = 60, and gamma
    # turns its rounding into relative error, so it is rounded as the
    # scalar product is: numpy's fused complex product differs in the
    # last bit
    u, v = zz + 0.5, np.log(t)
    big = np.empty(u.shape, dtype=complex)
    big.real = u.real * v.real - u.imag * v.imag
    big.imag = u.real * v.imag + u.imag * v.real
    out = 0.5 * math.log(TWO_PI) + big - t + np.log(x)
    if refl.any():
        zr = z[refl]
        n = np.round(zr.real)
        with np.errstate(over="ignore", invalid="ignore"):
            sin_pi = np.sin(math.pi * (zr - n))
        if not np.isfinite(sin_pi).all():
            raise OverflowError("math range error")
        sin_pi = np.where(n % 2 == 1.0, -sin_pi, sin_pi)
        out[refl] = np.log(math.pi / sin_pi) - out[refl]
    return out


def _log_gamma(z: complex) -> complex:
    """log_gamma's scalar body: the Lanczos sum at z, or at 1 - z and
    reflected for Re z < 1/2, as the array body does."""
    if _near_nonpositive_int(z):
        raise PoleError(f"gamma pole at z = {z}")
    refl = z.real < 0.5
    zz = (1.0 - z if refl else z) - 1.0
    x = _LANCZOS_C[0]
    for i in range(1, 9):
        x += _LANCZOS_C[i] / (zz + i)
    t = zz + _LANCZOS_G + 0.5
    out = 0.5 * math.log(TWO_PI) + (zz + 0.5) * cmath.log(t) - t + cmath.log(x)
    if refl:
        # log pi/sin(pi z) - log_gamma(1 - z), with sin(pi z) taken at the
        # exact offset from the nearest integer n, so that it keeps its
        # relative accuracy next to a pole
        n = round(z.real)
        sin_pi = cmath.sin(math.pi * (z - n))
        if n & 1:
            sin_pi = -sin_pi
        out = cmath.log(math.pi / sin_pi) - out
    return out


def log_gamma(z: complex) -> complex:
    """Log of the gamma function.

    The imaginary part is continuous along the Lanczos evaluation, not
    reduced to the principal branch; exp(log_gamma(z)) is always Gamma(z).
    Raises PoleError within 1e-9 of a non-positive integer and DomainError
    at a non-finite z.
    """
    if _is_array(z):
        return _log_gamma_array(z.astype(complex))
    return _log_gamma(complex(z))


def gamma(z: complex) -> complex:
    if _is_array(z):
        return _exp_array(_log_gamma_array(z.astype(complex)))
    return cmath.exp(_log_gamma(complex(z)))


def gamma_ratio(num: complex, den: complex) -> complex:
    """Gamma(num) / Gamma(den) with pole bookkeeping.

    A pole in the denominator alone kills the ratio exactly (returns 0).
    A pole in the numerator alone is a genuine pole of the ratio.  Both at
    poles is a removable 0/0 whose limit depends on the approach direction,
    which plain values cannot resolve, so it is refused.
    """
    num_pole = _near_nonpositive_int(complex(num))
    den_pole = _near_nonpositive_int(complex(den))
    if den_pole and not num_pole:
        return 0.0 + 0.0j
    if num_pole and den_pole:
        raise PoleError(
            f"gamma_ratio 0/0 at num={num}, den={den}; evaluate at a nearby point"
        )
    if num_pole:
        raise PoleError(f"gamma_ratio pole at num={num}")
    return cmath.exp(_log_gamma(complex(num)) - _log_gamma(complex(den)))


@dataclass(frozen=True)
class EvalQuality:
    """Value of a series plus how much cancellation it survived."""

    value: complex
    cancellation_ratio: float
    terms_used: int


_HYP_MAX_TERMS = 500
_HYP_Z_CAP = 40.0
_HYP_BITS = 128  # fractional bits of a disc's first pass
_HYP_STOP_BITS = 64  # a term below 2^-64 of the partial sum counts as small
_HYP_REL_TARGET = 1e-12
_HYP_MAX_DIGITS = 60  # digits of the point pass and of a disc's rerun


def _to_fixed(x: float, bits: int) -> int:
    """floor(x * 2^bits), exact for every double not below 2^-bits.

    The 53-bit significand is shifted as an integer, so no float product
    is formed: x * 2.0**bits would overflow for |x| above about 1e270 at
    128 bits.
    """
    m, e = math.frexp(x)
    n = int(m * 9007199254740992.0)  # m * 2^53 is the significand, exactly
    shift = e - 53 + bits
    return n << shift if shift >= 0 else n >> -shift


def _kummer_series(a: complex, b: complex, z: complex, bits: int):
    """One pass of the Kummer series in integers scaled by 2^bits.

    Returns (value, largest partial sum in the 1-norm, terms used).  The
    inputs are converted exactly, q_k = (a + k) z is advanced by adding z,
    and each term is divided by (b + k)(k + 1) with one floor division per
    part when b is real (a complex b divides through the conjugate), so
    every rounding is relative to 2^-bits at the scale of the largest
    term.  The pass stops after three terms in a row below 2^-64 of the
    current partial sum.  Raises as hyp1f1_eval does.
    """
    # at most one k brings b + k within 1e-12 of 0; the loop ends short of
    # it, and raises PoleError there unless the series has stopped before
    last = _HYP_MAX_TERMS
    if b.real < 0.5:
        kp = round(-b.real)
        if kp < last and abs(complex(b.real + kp, b.imag)) < 1e-12:
            last = kp

    one = 1 << bits
    ar, ai = _to_fixed(a.real, bits), _to_fixed(a.imag, bits)
    zr, zi = _to_fixed(z.real, bits), _to_fixed(z.imag, bits)
    # b + k - 1, advanced by one
    br, bi = _to_fixed(b.real, bits), _to_fixed(b.imag, bits)

    # Refuse at once what the loop would refuse after all its terms.  Term
    # k is term k - 1 times (a + k - 1) z / ((b + k - 1) k), whose modulus
    # for 1 <= k <= 500 is at least r = (|a| - 499) |z| / (500 (|b| + 499)),
    # taken at the fixed-point values the loop uses (fa, fz bound |a|, |z|
    # from below and fb bounds |b| from above, with no float overflow).
    # When r >= 1 no term is smaller than the one before, up to a relative
    # 1e-13 after 500 roundings of the test and the floor divisions.  Every
    # term is then at least about 1 and at least 1/1002 of every partial
    # sum, far above the stop rule's 2^-64 of it, so the loop would run all
    # 500 terms and raise ConvergenceError.  A pole that ends the loop early
    # (last < 500) keeps its PoleError.
    if last == _HYP_MAX_TERMS:
        fa = max(abs(ar), abs(ai)) / one
        fz = max(abs(zr), abs(zi)) / one
        fb = abs(br) / one + abs(bi) / one
        if fz and (fa - (last - 1)) / (fb + (last - 1)) >= last / fz:
            raise ConvergenceError(
                f"hyp1f1({a}, {b}, {z}) did not converge in {_HYP_MAX_TERMS} terms"
            )

    qr = (ar * zr - ai * zi) >> bits  # (a + k - 1) z, advanced by z
    qi = (ar * zi + ai * zr) >> bits
    tr, ti = one, 0  # term
    sr, si = one, 0  # partial sum
    peak = one  # largest |partial sum|, in the 1-norm
    small_run = 0
    for k in range(1, last + 1):
        xr = tr * qr - ti * qi
        xi = tr * qi + ti * qr
        d = br * k  # (b + k - 1) k
        if bi:
            e = bi * k
            xr, xi = xr * d + xi * e, xi * d - xr * e
            d = d * d + e * e
        tr = xr // d
        ti = xi // d
        sr += tr
        si += ti
        qr += zr
        qi += zi
        br += one
        mag = abs(sr) + abs(si)
        if mag > peak:
            peak = mag
        # a floored term never rounds to zero below -1, hence the + 2
        if abs(tr) + abs(ti) <= (mag >> _HYP_STOP_BITS) + 2:
            small_run += 1
            if small_run >= 3:
                return complex(sr / one, si / one), peak / one, k
        else:
            small_run = 0
    if last < _HYP_MAX_TERMS:
        raise PoleError(f"hyp1f1 pole: b = {b} hits a non-positive integer")
    raise ConvergenceError(
        f"hyp1f1({a}, {b}, {z}) did not converge in {_HYP_MAX_TERMS} terms"
    )


def _hyp1f1_decimal(a: complex, b: complex, z: complex, digits: int):
    """The one point pass of hyp1f1_eval: _kummer_series at
    ceil(digits log2 10) fractional bits.  The name, from an older rescue
    pass, stays: perfbench/tracing.py counts the calls to it."""
    return _kummer_series(a, b, z, math.ceil(digits * math.log2(10)))


def hyp1f1_eval(a: complex, b: complex, z: complex) -> EvalQuality:
    """Kummer 1F1(a; b; z) by Taylor series in fixed-point integers.

    One pass of the series (_kummer_series) at _HYP_MAX_DIGITS = 60
    digits, 200 fractional bits, so twelve digits survive while the
    largest partial sum exceeds the value by up to about 1e45.  The
    largest partial sum over the value (the cancellation ratio) times the
    terms used and 10^-60 estimates the relative error.  Within
    |z| <= 40 the ratio reaches about 1e32, e.g. (0.25+30j, 0.5, 40j) at
    1.8e32, and on top of a zero it grows as the value shrinks.

    Restricted to finite inputs and |z| <= 40 (DomainError otherwise),
    where the 60-digit pass holds; callers rescale upstream.  Raises PoleError when b + k lies
    within 1e-12 of 0 before the series stops, and ConvergenceError after
    500 terms.  Emits PrecisionWarning only if the pass leaves fewer than
    about seven clean digits.
    """
    a = complex(a)
    b = complex(b)
    z = complex(z)
    if not (cmath.isfinite(a) and cmath.isfinite(b) and cmath.isfinite(z)):
        raise DomainError(f"hyp1f1({a}, {b}, {z}) needs finite arguments")
    if abs(z) > _HYP_Z_CAP:
        raise DomainError(f"hyp1f1 argument |z| = {abs(z):.3g} exceeds {_HYP_Z_CAP}")
    value, max_partial, k = _hyp1f1_decimal(a, b, z, _HYP_MAX_DIGITS)
    ratio = max_partial / max(abs(value), 1e-300)
    est_rel = k * 10.0**-_HYP_MAX_DIGITS * ratio
    if est_rel > 1e-7:
        warnings.warn(
            f"hyp1f1({a}, {b}, {z}): cancellation ratio {ratio:.2e} leaves "
            f"an estimated relative error {est_rel:.1e}",
            PrecisionWarning,
            stacklevel=2,
        )
    return EvalQuality(value=value, cancellation_ratio=ratio, terms_used=k)


# Taylor discs in the upper parameter.  With b and z fixed, 1F1(a; b; z)
# is entire in a, and the series term z^k (a)_k / ((b)_k k!) at
# a = centre + r u is a polynomial of degree k in u.  One fixed-point pass
# over those polynomials, truncated at degree _DISC_DEGREE, gives the
# Taylor coefficients of the disc |a - centre| <= r.  Centres lie on the
# lattice Re a = j/2 + 1/4, Im a integer, so every a is within 0.56 of its
# centre (|u| <= 0.932).
_DISC_RADIUS = 0.6
_DISC_DEGREE = 24
_DISC_TARGET = 1e-13  # accepted error, relative to the disc scale
# Rounding of a disc value at one point, relative to sum |D_m| |u|^m:
# Horner's rule in complex arithmetic, within gamma_4M of that sum (Higham
# 2002, 5.1, with a complex product good to sqrt(2) gamma_2, 3.6); u =
# (a - centre) / r rounded within gamma_2 of itself, which moves the
# value by at most M gamma_2 of it; each stored D_m, its fixed-point
# value rounded once a part, within 2^-53 of |D_m| (gamma_1); and one
# gamma_1 more for forming the sum itself in floating point, whose
# rounding moves the bound by a second-order gamma_6M gamma_(2M+1).
# gamma_n = n 2^-53 / (1 - n 2^-53).
_DISC_HORNER = (6 * _DISC_DEGREE + 2) * 2.0**-53 / (1 - (6 * _DISC_DEGREE + 2) * 2.0**-53)


def _disc_series(b: float, z: complex, centre: complex, bits: int):
    """One pass of the Kummer series at a = centre + r u, each term a
    polynomial in u of degree at most _DISC_DEGREE, in integers scaled by
    2^bits.

    Returns (coefficients, highest degree first, for np.polyval; the sum
    over the degrees of the largest |partial sum| in the 1-norm; terms
    used), or None when the series has not stopped after 500 terms.  Term
    k + 1 is term k times (centre + k + r u) z / ((b + k)(k + 1)), formed
    as term k times (centre + k) z plus term k shifted up a degree times
    r z, with one floor division per part, so every rounding is relative
    to 2^-bits at the scale of the largest coefficient (the factors
    z^k / ((b)_k k!) and (centre + r u)_k kept apart lose about seven
    digits at |z| = 14).  The stop rule is _kummer_series' on the 1-norm
    of the polynomials.  b is real and positive.
    """
    M, last = _DISC_DEGREE, _HYP_MAX_TERMS
    # no term of the first 500 shrinks, as in _kummer_series
    if (abs(centre) - _DISC_RADIUS - (last - 1)) * abs(z) >= last * (b + last - 1):
        return None
    one = 1 << bits
    zr, zi = _to_fixed(z.real, bits), _to_fixed(z.imag, bits)
    ar, ai = _to_fixed(centre.real, bits), _to_fixed(centre.imag, bits)
    rad = _to_fixed(_DISC_RADIUS, bits)
    pr, pi = (rad * zr) >> bits, (rad * zi) >> bits  # r z
    qr = (ar * zr - ai * zi) >> bits  # (centre + k - 1) z, advanced by z
    qi = (ar * zi + ai * zr) >> bits
    br = _to_fixed(b, bits)  # b + k - 1, advanced by one
    zeros = [0] * M
    tr, ti = [one] + zeros, [0] + zeros  # term
    sr, si = tr, ti  # partial sum
    peaks = [one] + zeros  # largest |partial sum| per degree, in the 1-norm
    small_run = 0
    for k in range(1, last + 1):
        d = br * k  # (b + k - 1) k
        ur, ui = [0] + tr[:-1], [0] + ti[:-1]  # term times u
        tr, ti = (
            [(x * qr - y * qi + v * pr - w * pi) // d
             for x, y, v, w in zip(tr, ti, ur, ui)],
            [(x * qi + y * qr + v * pi + w * pr) // d
             for x, y, v, w in zip(tr, ti, ur, ui)],
        )
        sr, si = list(map(add, sr, tr)), list(map(add, si, ti))
        qr += zr
        qi += zi
        br += one
        mags = list(map(add, map(abs, sr), map(abs, si)))
        peaks = list(map(max, peaks, mags))
        # a floored coefficient never rounds to zero below -1, hence 2 a degree
        size = sum(map(abs, tr)) + sum(map(abs, ti))
        if size <= (sum(mags) >> _HYP_STOP_BITS) + 2 * M + 2:
            small_run += 1
            if small_run >= 3:
                coeffs = np.array([complex(x / one, y / one) for x, y in zip(sr, si)])
                return coeffs[::-1].copy(), sum(peaks) / one, k
        else:
            small_run = 0
    return None


@lru_cache(maxsize=256)
def _kummer_disc(b: float, z: complex, centre: complex):
    """(coefficients, error estimate) of the disc: the Taylor coefficients
    D_m of 1F1(centre + r u; b; z) = sum D_m u^m, m <= _DISC_DEGREE,
    highest first, and the disc's own estimate of its error anywhere in
    |u| <= 1; or None for a disc whose estimate misses 1e-13 of the disc
    scale.

    The disc scale is max |1F1| over 32 points of the ring |u| = 1 (the
    ring is built here, not at import: numpy's first complex exp costs a
    quarter megabyte of resident memory).  The error estimate
    is the rounding of the pass (largest partial sums times terms times
    2^-bits, summed over the degrees) plus the tail,
    taken as the last two terms |D_(M-1)| + |D_M| at |u| = 1.  A disc is
    accepted when that is within 1e-13 of the scale.  The first pass
    keeps 128 fractional bits; one that
    misses only by rounding reruns once at the point pass's 60 digits
    (200 bits), and any other miss refuses the disc.
    """
    ring = np.exp(2j * np.pi * np.arange(32) / 32)
    for bits in (_HYP_BITS, math.ceil(_HYP_MAX_DIGITS * math.log2(10))):
        run = _disc_series(b, z, centre, bits)
        if run is None:
            return None
        coeffs, peak, k = run
        scale = np.abs(np.polyval(coeffs, ring)).max()
        target = _DISC_TARGET * scale
        tail = abs(coeffs[0]) + abs(coeffs[1])
        err = tail + k * 2.0**-bits * peak
        if err <= target:
            coeffs.flags.writeable = False
            return coeffs, err
        if tail > target:
            return None
    return None


def _has_discs(b: complex, z: complex) -> bool:
    """Whether 1F1(a; b; z) has Taylor discs in a: b real and positive
    and 0 < |z| <= 40."""
    # abs(z) <= _HYP_Z_CAP is False at a non-finite z, as is 0 < b.real
    # < inf at a non-finite b
    return b.imag == 0 and 0 < b.real < math.inf and z != 0 and abs(z) <= _HYP_Z_CAP


def _hyp1f1_on_discs(a: np.ndarray, b: float, z: complex, out: np.ndarray) -> np.ndarray:
    """hyp1f1 at the points of the flat finite array a, written to out
    from the disc of each point's lattice cell, for real b > 0 and
    0 < |z| <= 40.  Returns the indices of the points of a refused disc,
    left for hyp1f1_eval.

    Each cell's disc is fetched once, the cells in sorted order, and
    every point is evaluated in one Horner sweep over a table of the
    accepted discs' coefficients, the per-point arithmetic of np.polyval.
    """
    cells = np.floor(2.0 * a.real) + 1j * np.round(a.imag)
    order = np.argsort(cells)
    cells = cells[order]
    starts = np.ones(cells.size, dtype=bool)  # where each cell's points start
    starts[1:] = cells[1:] != cells[:-1]
    cell = np.cumsum(starts) - 1  # each point's cell, numbered in order
    centres = [complex(0.5 * c.real + 0.25, c.imag) for c in cells[starts].tolist()]
    discs = [_kummer_disc(b, z, centre) for centre in centres]
    refused = np.array([disc is None for disc in discs], dtype=bool)
    drop = refused[cell]
    rest = np.sort(order[drop])
    order, cell = order[~drop], cell[~drop]
    # row m: each point's coefficient of u^(M - m), from its cell's disc
    accepted = np.array([disc[0] for disc in discs if disc is not None])
    coeffs = accepted.reshape(-1, _DISC_DEGREE + 1).T[:, (np.cumsum(~refused) - 1)[cell]]
    u = (a[order] - np.array(centres)[cell]) / _DISC_RADIUS
    value = np.zeros_like(u)
    for row in coeffs:
        value = value * u + row
    out[order] = value
    return rest


def _hyp1f1_point(a: complex, b: complex, z: complex) -> complex:
    """hyp1f1 at one point, good to about 1e-12 of the value itself.

    With real b > 0 and 0 < |z| <= 40, a finite a evaluates the disc of
    its lattice cell, built here when missing, so the value depends on
    (a, b, z) alone.  The disc value stands when its error bound there,
    the disc's own error estimate (at most 1e-13 of the disc scale) plus
    the rounding of Horner's rule (_DISC_HORNER, 1.6e-14 of
    sum |D_m| |u|^m), is within 1e-12 of its modulus, as it is down to
    values of about 1e-3 of the scale; every other point takes
    hyp1f1_eval.
    """
    a, b, z = complex(a), complex(b), complex(z)
    # 2a finite keeps floor(2 Re a) an integer
    if _has_discs(b, z) and cmath.isfinite(2.0 * a):
        centre = complex(0.5 * math.floor(2.0 * a.real) + 0.25, round(a.imag))
        disc = _kummer_disc(b.real, z, centre)
        if disc is not None:
            coeffs, err = disc
            u = (a - centre) / _DISC_RADIUS
            r = abs(u)
            value, size = 0j, 0.0
            for c in coeffs.tolist():
                value = value * u + c
                size = size * r + abs(c)
            if err + _DISC_HORNER * size <= _HYP_REL_TARGET * abs(value):
                return value
    return hyp1f1_eval(a, b, z).value


def hyp1f1(a: complex, b: complex, z: complex) -> complex:
    """1F1(a; b; z) at a scalar a, or elementwise at an ndarray a.

    b and z are scalars; an array b or z raises DomainError.  An array a
    holding a non-finite point raises the scalar call's DomainError
    before any other work.  Two accuracy contracts, and each value
    depends on (a, b, z) and the kind of call alone, never on the cache
    or on the other points:

    - An array a with b real and positive and 0 < |z| <= 40 takes every
      point from the cached Taylor disc (_kummer_disc) of its lattice
      cell, centred at Re a = j/2 + 1/4 and an integer Im a.  Such a
      value is good to about 1e-13 of the disc's scale, max |1F1| within
      0.6 of the centre, not of the point's value, which is smaller near
      a zero of 1F1 in a.
    - A scalar call is good to about 1e-12 of the value itself, and
      exactly 1 at z = 0 (_hyp1f1_point: the disc value where it is that
      good, a missing disc built first in about 1 to 15 ms, else the
      series); every other point of an array call, those of a refused
      disc or of any other b and z, is the series (hyp1f1_eval).
    """
    if _is_array(b) or _is_array(z):
        raise DomainError("hyp1f1 takes an array in a alone; b and z must be scalars")
    if not _is_array(a):
        return _hyp1f1_point(a, b, z)
    a, b, z = np.asarray(a, dtype=complex), complex(b), complex(z)
    flat = a.ravel()
    bad = flat[~np.isfinite(flat)]
    if bad.size:
        raise DomainError(f"hyp1f1({complex(bad[0])}, {b}, {z}) needs finite arguments")
    out = np.empty(a.shape, dtype=complex)
    res = out.reshape(-1)
    rest = _hyp1f1_on_discs(flat, b.real, z, res) if _has_discs(b, z) else range(flat.size)
    for i in rest:
        res[i] = hyp1f1_eval(flat[i], b, z).value
    return out


# Bernoulli numbers B_2 .. B_44 as exact fractions, used by Euler-Maclaurin.
_BERNOULLI = (
    Fraction(1, 6),
    Fraction(-1, 30),
    Fraction(1, 42),
    Fraction(-1, 30),
    Fraction(5, 66),
    Fraction(-691, 2730),
    Fraction(7, 6),
    Fraction(-3617, 510),
    Fraction(43867, 798),
    Fraction(-174611, 330),
    Fraction(854513, 138),
    Fraction(-236364091, 2730),
    Fraction(8553103, 6),
    Fraction(-23749461029, 870),
    Fraction(8615841276005, 14322),
    Fraction(-7709321041217, 510),
    Fraction(2577687858367, 6),
    Fraction(-26315271553053477373, 1919190),
    Fraction(2929993913841559, 6),
    Fraction(-261082718496449122051, 13530),
    Fraction(1520097643918070802691, 1806),
    Fraction(-27833269579301024235023, 690),
)

# Euler-Maclaurin head length and the most Bernoulli corrections, which
# leave 4.7e-17 at the worst corner of the domain, s = -0.5 +- 60i with
# a -> 0 (see _hurwitz_em); N = 20 would leave 1.6e-13.  _EM_TERMS[h]: the
# corrections of a point with ceil(|s|) = h, the fewest that leave no
# more at Re s = -0.5, |s| = h: 5 up to h = 2, one more past each height
# listed (22 from 58 on); the lookups cap h at 60
_EM_N = 24
_EM_M = 22
_EM_TERMS = tuple(5 + sum(h > r for r in (2, 5, 9, 13, 17, 22, 26, 30, 33, 37, 41, 44,
                                          47, 50, 52, 55, 57)) for h in range(61))
# B_2k / (2k)! for k = 1 .. _EM_M, rounded once from the exact fractions
_EM_COEFFS = tuple(
    float(_BERNOULLI[k - 1] / math.factorial(2 * k)) for k in range(1, _EM_M + 1)
)
# the numpy body's columns of B_2k/(2k)! and of 2k - 1 for k < _EM_M
_EM_COEFF_COLUMN = np.array(_EM_COEFFS)[:, None]
_EM_ODD_COLUMN = np.arange(1.0, 2 * _EM_M - 2, 2)[:, None]
# the weights of the Riemann zeta's single residue
_ONE = (1.0,)
_ONE_ARRAY = np.ones(1)
_ZETA_IM_CAP = 60.0


def _check_height(height: float, what: str) -> None:
    """DomainError if height, an |Im s|, is above _ZETA_IM_CAP: the one
    height rule of the zeta functions and the global functions on them."""
    if height > _ZETA_IM_CAP:
        raise DomainError(f"{what} reaches |Im s| = {height:g}; zeta functions "
                          f"are evaluated for |Im s| <= {_ZETA_IM_CAP:g}")


def _expm1(w, xp):
    """e^w - 1 for a complex w, in math or np (xp) alike.

    It is expm1(x) cos y - 2 sin(y/2)^2 + i e^x sin y for w = x + iy, the
    real-part expm1, good to a few ulps of |e^w - 1| as w -> 0 in every
    direction (Higham, Accuracy and Stability of Numerical Algorithms,
    2002, ch. 1).
    """
    x, y = w.real, w.imag
    h = xp.sin(0.5 * y)
    return xp.expm1(x) * xp.cos(y) - 2.0 * h * h + 1j * (xp.exp(x) * xp.sin(y))


def _exprel(w: complex) -> complex:
    """(e^w - 1) / w, 1 below |w| = 1e-300 (off by at most 1e-300), where
    numpy's complex division overflows; _exprel_array is its array form."""
    return _expm1(w, math) / w if abs(w) >= 1e-300 else 1.0


def _exprel_array(w: np.ndarray) -> np.ndarray:
    return np.divide(_expm1(w, np), w, out=np.ones_like(w), where=np.abs(w) >= 1e-300)


def _real_pow(x, w: np.ndarray, log_x=None) -> np.ndarray:
    """x ** w for real x > 0 and a complex array w, broadcast together.

    It is rounded as CPython rounds the scalar power x ** w: pow(x, Re w)
    times the unit phase of Im w log x.  numpy's complex power loses the
    last bits of that phase, which reaches hundreds on the scan lines.
    log_x, when given, is log(x).
    """
    mag = np.power(x, w.real)
    phase = w.imag * (math.log(x) if log_x is None else log_x)
    out = np.empty(mag.shape, dtype=complex)
    np.multiply(mag, np.cos(phase, out=out.real), out=out.real)
    np.multiply(mag, np.sin(phase, out=out.imag), out=out.imag)
    return out


# The Euler-Maclaurin kernel works on power plans.  q^-s zeta(s, r/q) has
# the head terms (n q + r)^-s, n < N, and the cutoff (N q + r)^-s, so at
# an integer residue r every base is an integer m.  A plan raises m to -s
# only at a prime m and forms every other m^-s as p^-s (m/p)^-s, p the
# least prime of m, in rounds by the number of prime factors of m: the
# sieved power sums of Johansson, "Rigorous high-precision computation of
# the Hurwitz zeta function and its derivatives", Numer. Algorithms 2015.
# A point of zeta takes 9 complex powers, of L mod 997 2 755 (25 and
# 24 901 raised one by one).


def _least_primes(top: int) -> list[int]:
    """f[m] = the least prime factor of m for 2 <= m <= top; f[1] = 1."""
    f = list(range(top + 1))
    # the least prime of a composite writes it last
    for d in range(math.isqrt(top), 1, -1):
        f[d * d :: d] = [d] * ((top - d * d) // d + 1)
    return f


class _PowerPlan:
    """The powers of one Euler-Maclaurin sum: q^-s zeta(s, r/q) for every
    r of `residues`, and q^-s.

    `values` lists the bases of the sum, one entry each.  Entry 0 is 1,
    entries 1 .. D are the bases raised directly (`bases`, with their
    `logs`), and entry D + 1 + t is the product of entries left[t] and
    right[t], both formed before it; `rounds` splits the products into
    runs that read only earlier runs.  rows[i, n] is the entry of
    n q + r, r the i-th residue, for n = 0 .. N (n = N the cutoff), and
    `scale` is the entry of q.  The residues are integers, the bases
    raised directly are the primes, each composite is its least prime
    times its cofactor, and the entries are closed under both.  The tail
    reads cut = N + r/q, log cut and the weights cut^(1 - 2k),
    k = 1 .. M, a row per k.
    """

    def __init__(self, q: int, residues: tuple):
        N = _EM_N
        ints = [[n * q + r for n in range(N + 1)] for r in residues]
        top = max(q, *(row[-1] for row in ints))
        least = _least_primes(top)
        omega = [0] * (top + 1)  # the number of prime factors
        present = [False] * (top + 1)
        for m in range(2, top + 1):
            omega[m] = omega[m // least[m]] + 1
        for m in (1, q, *itertools.chain.from_iterable(ints)):
            present[m] = True
        for m in range(top, 1, -1):  # close the entries under m -> (p, m / p)
            p = least[m]
            if present[m] and p < m:
                present[p] = present[m // p] = True
        values = sorted(itertools.compress(range(top + 1), present), key=omega.__getitem__)
        at = {m: i for i, m in enumerate(values)}
        comp = [m for m in values if omega[m] > 1]
        self.left = np.array([at[least[m]] for m in comp], dtype=np.int32)
        self.right = np.array([at[m // least[m]] for m in comp], dtype=np.int32)
        ends = list(itertools.accumulate(
            len(list(run)) for _, run in itertools.groupby(omega[m] for m in comp)
        ))
        self.rounds = tuple(zip([0, *ends[:-1]], ends))
        self.rows = np.array([[at[m] for m in row] for row in ints], dtype=np.int32)
        self.scale = at[q]
        self.bases = np.array([m for m in values if omega[m] == 1], dtype=float)
        self.values = np.array(values, dtype=float)
        cut = np.array([row[-1] / q for row in ints])
        self.logs = np.log(self.bases)
        self.lb = np.log(cut)
        self.weights = cut ** -np.arange(1.0, 2 * _EM_M, 2)[:, None]
        self.cut = cut

    @cached_property
    def lists(self):
        """The scalar body's plan: the bases raised directly, as complex
        numbers (CPython rounds x ** w alike at a float or a complex x);
        per round, a getter of its factors in pairs; per residue (a getter
        of the head entries, the cutoff entry, 1/cut, 1/cut^2, log cut)."""
        pairs = np.column_stack((self.left, self.right)).tolist()
        cut = self.cut
        return (
            [complex(x) for x in self.bases.tolist()],
            [itemgetter(*itertools.chain(*pairs[lo:hi])) for lo, hi in self.rounds],
            list(zip(map(itemgetter, *self.rows[:, :-1].T.tolist()), self.rows[:, -1].tolist(),
                     (1.0 / cut).tolist(), (1.0 / (cut * cut)).tolist(), self.lb.tolist())),
        )


# a plan near q = 1000 holds 24 901 entries, 0.7 MB of arrays
@lru_cache(maxsize=16)
def _em_plan(q: int, residues: tuple) -> _PowerPlan:
    """The power plan of (q, residues), kept for the 16 used last."""
    return _PowerPlan(q, residues)


def _entries(plan: _PowerPlan, w: complex) -> list:
    """m^w at every entry m of the plan, in a list; _entries_array is the
    array form.  Each raises the bases in one place."""
    bases, rounds, _ = plan.lists
    pw = [1.0, *[x**w for x in bases]]
    for factors in rounds:
        pair = iter(factors(pw))
        pw += map(mul, pair, pair)
    return pw


def _entries_array(plan: _PowerPlan, w: np.ndarray) -> np.ndarray:
    """The (entries, points) table of _entries at a 1-D array w."""
    D = plan.bases.size
    table = np.empty((plan.values.size, w.size), dtype=complex)
    table[0] = 1.0
    table[1 : D + 1] = _real_pow(plan.bases[:, None], w, plan.logs[:, None])
    for lo, hi in plan.rounds:
        np.multiply(table[plan.left[lo:hi]], table[plan.right[lo:hi]],
                    out=table[D + 1 + lo : D + 1 + hi])
    return table


def _hurwitz_em(s: complex, plan: _PowerPlan, weights) -> complex:
    """sum_i weights[i] q^-s H(s, r_i/q) over the plan's residues r_i,
    H(s, a) = zeta(s, a) - 1/(s - 1) the entire part, by Euler-Maclaurin
    for Re(s) > -0.5, |Im(s)| <= 60.  With cut = N + a, N = _EM_N = 24
    and M = _EM_TERMS[ceil |s|] corrections,

        H(s, a) = sum_{n < N} (n + a)^-s - log(cut) exprel((1 - s) log cut)
                  + cut^-s (1/2 + sum_{k <= M} A_k cut^(1-2k)),

    A_k = B_2k/(2k)! (s)_{2k-1}, the exprel term being (cut^(1-s) - 1) /
    (s - 1).  Times q^-s every power is an entry of the plan, (n q + r)^-s,
    and the exprel term alone takes q^-s.  A_k is formed once a point, and
    each residue sums its tail by Horner's rule in the real 1/cut^2.  The
    truncation error is about the first omitted correction,
    B_2(M+1)/(2(M+1))! (s)_{2M+1} cut^(-s-2M-1), largest at Re s = -0.5
    as a -> 0 (cut = 24); _EM_TERMS keeps it at or below 4.7e-17 (M sized
    from the bound, as by Johansson 2015).
    """
    pw = _entries(plan, -s)
    # (s)_{2k+1} = (s)_{2k-1} P_k, P_k = (s + 2k - 1)(s + 2k), and P_k
    # steps by the differences 4s + 8k + 2
    rise, step, diff = s, (s + 1.0) * (s + 2.0), 4.0 * s + 2.0
    rising = [_EM_COEFFS[0] * s]
    for coeff in _EM_COEFFS[1 : _EM_TERMS[min(math.ceil(abs(s)), 60)]]:
        rise *= step
        rising.append(coeff * rise)
        diff += 8.0
        step += diff
    rising.reverse()
    main = reg = 0.0
    for (head, cut, inv, x2, lb), c in zip(plan.lists[2], weights):
        tail = 0.0
        for a in rising:
            tail = tail * x2 + a
        main += c * (sum(head(pw)) + pw[cut] * (0.5 + tail * inv))
        reg += c * lb * _exprel((1.0 - s) * lb)
    return main - pw[plan.scale] * reg


# table entries (plan entries times points) per block of the array
# Euler-Maclaurin sum: a block's table of powers is at most 96 KB, and the
# head rows gathered from it as much again.  At 8 192 entries the largest
# block of the global census held 0.16 MB more than at 6 144
_EM_BLOCK = 6144


def _hurwitz_em_array(s: np.ndarray, plan: _PowerPlan, weights: np.ndarray) -> np.ndarray:
    """_hurwitz_em at every point of a 1-D array s, in blocks of at most
    _EM_BLOCK table entries (one point at least).

    A block's table (_entries_array) holds the plan's entries times its
    points.  The head sums its rows in the scalar order, since it cancels
    up to about a hundred to one at Re(s) = -0.5.  The tail, in the
    corrections of the block's largest |s|, sums A_k times the weights
    cut^(1-2k) over k, where the scalar body runs Horner's rule.
    """
    head, cut = plan.rows[:, :-1], plan.rows[:, -1]
    lb = plan.lb[:, None]
    out = np.empty(s.size, dtype=complex)
    step = max(1, _EM_BLOCK // plan.values.size)
    for start in range(0, s.size, step):
        sb = s[start : start + step]
        # A_k, a row per k
        M = _EM_TERMS[min(math.ceil(np.abs(sb).max()), 60)]
        rising = np.empty((M, sb.size), dtype=complex)
        rising[0] = sb
        odd = _EM_ODD_COLUMN[: M - 1]
        rising[1:] = (sb + odd) * (sb + (odd + 1.0))
        np.cumprod(rising, axis=0, out=rising)
        rising *= _EM_COEFF_COLUMN[:M]
        # summed over k in real arithmetic on the (real, imaginary) pairs,
        # by einsum: a BLAS matrix product would map its workspace, 0.5 MB
        # of peak RSS
        tail = np.einsum("kr,kx->rx", plan.weights[:M], rising.view(float)).view(complex)
        # each large array is dropped once read, so that a block holds at
        # most two of them at a time
        del rising
        table = _entries_array(plan, -sb)
        acc = table[cut] * (0.5 + tail)
        scale = table[plan.scale]
        terms = table[head]
        del table
        acc += np.cumsum(terms, axis=1, out=terms)[:, -1]
        del terms
        reg = lb * _exprel_array((1.0 - sb) * lb)
        out[start : start + step] = (
            np.einsum("r,rp->p", weights, acc) - scale * np.einsum("r,rp->p", weights, reg)
        )
    return out


def _zeta_point(s, what: str, re_min: float = -math.inf, pole: bool = False) -> complex:
    """complex(s) after the zeta check: DomainError for a non-finite s,
    Re(s) < re_min or |Im(s)| > 60, with `pole` PoleError near s = 1."""
    z = _point(s, what)
    if z.real < re_min:
        raise DomainError(f"{what} restricted to Re(s) >= {re_min}, got {z}")
    _check_height(abs(z.imag), what)
    if pole and abs(z - 1.0) < 1e-6:
        raise PoleError(f"{what} pole at s = {z}")
    return z


def _zeta_points(s: np.ndarray, what: str, re_min: float = -math.inf,
                 pole: bool = False) -> np.ndarray:
    """The array s, flat and complex, after _zeta_point's check of its
    first bad point."""
    z = _points(s, what).ravel()
    bad = (z.real < re_min) | (np.abs(z.imag) > _ZETA_IM_CAP)
    if pole:
        bad |= np.abs(z - 1.0) < 1e-6
    if bad.any():
        _zeta_point(z[bad][0], what, re_min, pole)
    return z


def riemann_zeta(s: complex) -> complex:
    """Riemann zeta by Euler-Maclaurin, functional equation for Re(s) < 0.

    Raises PoleError within 1e-6 of s = 1 and DomainError for a
    non-finite s or |Im(s)| > 60 (the correction terms start losing
    accuracy there).  Right of 0 it is H(s) + 1/(s - 1), H the kernel's
    entire part.  The reflection takes zeta(1 - s) = H(1 - s) - 1/s and
    the term sin(pi s/2)/s in closed form, so it stays regular at s = 0.
    """
    plan = _em_plan(1, (1,))
    if not _is_array(s):
        z = _zeta_point(s, "riemann_zeta", pole=True)
        if z.real >= 0.0:
            return _hurwitz_em(z, plan, _ONE) + 1.0 / (z - 1.0)
        # zeta(s) = 2^s pi^(s-1) sin(pi s/2) Gamma(1-s) zeta(1-s)
        x = math.pi * z / 2.0
        half = cmath.sin(x)
        return (
            2.0**z
            * math.pi ** (z - 1.0)
            * (half * _hurwitz_em(1.0 - z, plan, _ONE) - math.pi / 2.0 * (half / x))
            * cmath.exp(_log_gamma(1.0 - z))
        )
    z = _zeta_points(s, "riemann_zeta", pole=True)
    refl = z.real < 0.0
    out = _hurwitz_em_array(np.where(refl, 1.0 - z, z), plan, _ONE_ARRAY)
    out[~refl] += 1.0 / (z[~refl] - 1.0)
    if refl.any():
        zr = z[refl]
        x = math.pi * zr / 2.0
        half = np.sin(x)
        # sin(x)/x, which is 1 to the last bit below |x| = 1e-8, where
        # numpy's complex division would overflow on a subnormal x
        sinc = np.divide(half, x, out=np.ones_like(x), where=np.abs(x) >= 1e-8)
        out[refl] = (
            _real_pow(2.0, zr)
            * _real_pow(math.pi, zr - 1.0)
            * (half * out[refl] - math.pi / 2.0 * sinc)
            * _exp_array(_log_gamma_array(1.0 - zr))
        )
    return out.reshape(s.shape)


# ---------------------------------------------------------------------------
# Dirichlet characters of general modulus, in the convention of the module
# docstring; values are exact rational phases.
# ---------------------------------------------------------------------------


def _factorize(q: int) -> list[tuple[int, int]]:
    out = []
    d = 2
    while d * d <= q:
        if q % d == 0:
            k = 0
            while q % d == 0:
                q //= d
                k += 1
            out.append((d, k))
        d += 1
    if q > 1:
        out.append((q, 1))
    return out


def _mult_order(g: int, mod: int, group_order: int) -> int:
    order = group_order
    for p, _ in _factorize(group_order):
        while order % p == 0 and pow(g, order // p, mod) == 1:
            order //= p
    return order


@lru_cache(maxsize=None)
def _local_generators(p: int, k: int) -> tuple[tuple[int, int], ...]:
    """Generators (g, order) of the unit group mod p^k."""
    mod = p**k
    if p == 2:
        if k == 1:
            return ()
        if k == 2:
            return ((3, 2),)
        return ((mod - 1, 2), (3, 2 ** (k - 2)))
    phi = (p - 1) * p ** (k - 1)
    g = 2
    while g % p == 0 or _mult_order(g, mod, phi) != phi:
        g += 1
    return ((g, phi),)


# a table is 8 p^k bytes a generator, 0.8 MB near the chi-modulus cap
@lru_cache(maxsize=16)
def _dlog_array(p: int, k: int) -> np.ndarray:
    """dlog[r] = the exponents of r mod p^k against the local generators,
    one column per generator; every column is -1 at a non-unit r."""
    mod = p**k
    units = np.ones(1, dtype=np.int64)
    exps = np.zeros((1, 0), dtype=np.int64)
    for g, order in _local_generators(p, k):
        powers = np.ones(1, dtype=np.int64)  # g^t for t < len(powers)
        while len(powers) < order:
            powers = np.concatenate(
                (powers, powers * pow(g, len(powers), mod) % mod)
            )
        units = (units[:, None] * powers[None, :order] % mod).ravel()
        exps = np.column_stack(
            (np.repeat(exps, order, axis=0), np.tile(np.arange(order), len(exps)))
        )
    out = np.full((mod, exps.shape[1]), -1, dtype=np.int64)
    out[units] = exps
    return out


@lru_cache(maxsize=None)
def _fractions(L: int) -> tuple[Fraction, ...]:
    """j / L for j = 0 .. L-1, shared by the characters whose phases have
    denominator dividing L."""
    return tuple(Fraction(j, L) for j in range(L))


def _primitive_exponents(p: int, k: int, exps: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """(n, e): the character with exponents exps against the generators mod
    p^k has conductor p^n and exponents e against the generators mod p^n."""
    if not any(exps):
        return 0, ()
    if p == 2 and k >= 3:
        a, b = exps
        if b == 0:
            return 3, (1, 0)
        if a == 1 and b == 2 ** (k - 3):
            return 2, (1,)
    # the units = 1 mod p^n are the powers of g^(order / p^(k-n)) for the
    # last generator g (n >= 3 at p = 2), so chi is trivial on them exactly
    # when p^(k-n) divides g's exponent
    n, m = k, exps[-1]
    while m % p == 0:
        n, m = n - 1, m // p
    return n, exps[:-1] + (m,)


class DirichletCharacter:
    """A Dirichlet character mod q, q <= 1000, with exact phase arithmetic.

    `index` lists one exponent per local generator of the module
    docstring, smallest p first (-1 before 3 at 2^k, k >= 3).
    chi(g) = exp(2 pi i m / order(g)) for a generator g with exponent m,
    and the conductor is p^k / gcd(m, p^k) at odd p.
    """

    def __init__(self, q: int, index: tuple[int, ...]):
        if not 1 <= q <= 1000:
            raise DomainError(f"modulus {q} outside supported range 1..1000")
        self.modulus = q
        gens = [(p, k, _local_generators(p, k)) for p, k in _factorize(q)]
        orders = [order for *_, g in gens for _, order in g]
        if len(index) != len(orders):
            raise DomainError(
                f"index length {len(index)} != generator count {len(orders)} for q={q}"
            )
        self.index = tuple(m % order for order, m in zip(orders, index))
        # p -> (k, the exponents against the generators mod p^k)
        exps = iter(self.index)
        self._local: dict[int, tuple[int, tuple[int, ...]]] = {
            p: (k, tuple(itertools.islice(exps, len(g)))) for p, k, g in gens
        }

    @classmethod
    def principal(cls, q: int) -> "DirichletCharacter":
        flat_len = sum(len(_local_generators(p, k)) for p, k in _factorize(q))
        return cls(q, tuple(0 for _ in range(flat_len)))

    def phase(self, n: int) -> Fraction | None:
        """chi(n) = exp(2 pi i * phase(n)); None when gcd(n, q) > 1."""
        return self._phases[n % self.modulus]

    @cached_property
    def _phases(self) -> tuple[Fraction | None, ...]:
        # phase over the residues 0 .. q-1, built once per character: every
        # residue's exponents are read off the table at once, and the phases
        # are j / L for L the exponent of the unit group
        q = self.modulus
        residues = np.arange(q)
        L = math.lcm(*(
            order for p, (k, _) in self._local.items() for _, order in _local_generators(p, k)
        ))
        num = np.zeros(q, dtype=np.int64)
        for p, (k, exps) in self._local.items():
            dlog = _dlog_array(p, k)[residues % p**k]
            for (_, order), m, column in zip(_local_generators(p, k), exps, dlog.T):
                num += m * (L // order) * column
        num = np.where(np.gcd(residues, q) == 1, num % L, L)
        table = _fractions(L) + (None,)
        return tuple(table[j] for j in num.tolist())

    @cached_property
    def _values(self) -> tuple[complex, ...]:
        # chi over the residues 0 .. q-1, built once per character
        return tuple(
            0j if ph is None else cmath.exp(2j * math.pi * float(ph))
            for ph in self._phases
        )

    def __call__(self, n: int) -> complex:
        return self._values[n % self.modulus]

    @cached_property
    def _em_weights(self) -> tuple[tuple[int, ...], tuple[complex, ...]]:
        # (the residues r = 1 .. q with chi(r) != 0, and chi(r) at each),
        # the weights of dirichlet_l's Euler-Maclaurin sum, built once per
        # character
        pairs = [(r, c) for r, c in enumerate(self._values[1:] + self._values[:1], 1) if c]
        return tuple(r for r, _ in pairs), tuple(c for _, c in pairs)

    @cached_property
    def _primes(self) -> tuple[int, ...]:
        # the primes of q: a principal dirichlet_l's Euler factors
        return tuple(p for p, _ in _factorize(self.modulus))

    @cached_property
    def _em_sum(self) -> tuple:
        # dirichlet_l's power plan and weights, as a tuple and an array
        residues, weights = self._em_weights
        return _em_plan(self.modulus, residues), weights, np.array(weights)

    @cached_property
    def is_principal(self) -> bool:
        return all(m == 0 for m in self.index)

    @property
    def is_even(self) -> bool:
        return self.phase(-1) == 0

    @property
    def conductor(self) -> int:
        return math.prod(
            p ** _primitive_exponents(p, k, exps)[0]
            for p, (k, exps) in self._local.items()
        )

    @property
    def is_primitive(self) -> bool:
        return self.conductor == self.modulus

    def primitive_character(self) -> "DirichletCharacter":
        """The primitive character of conductor f inducing this one."""
        f, index = 1, ()
        for p, (k, exps) in self._local.items():
            n, reduced = _primitive_exponents(p, k, exps)
            if n == 0:
                continue
            # the exponents carry over only if each generator mod p^n is the
            # one mod p^k reduced; true for the least primitive roots of
            # every p^k <= 1000
            gens = zip(_local_generators(p, k), _local_generators(p, n))
            assert all(g % p**n == h for (g, _), (h, _) in gens)
            f *= p**n
            index += reduced
        return DirichletCharacter(f, index)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DirichletCharacter):
            return NotImplemented
        return self.modulus == other.modulus and self.index == other.index

    def __hash__(self) -> int:
        return hash((self.modulus, self.index))

    def __repr__(self) -> str:
        return f"DirichletCharacter(q={self.modulus}, index={self.index})"


def characters(q: int):
    """Iterate over all phi(q) Dirichlet characters mod q."""
    orders = [order for p, k in _factorize(q) for _, order in _local_generators(p, k)]
    for index in itertools.product(*(range(order) for order in orders)):
        yield DirichletCharacter(q, index)


def dirichlet_l(s: complex, chi: DirichletCharacter) -> complex:
    """Dirichlet L-function via Hurwitz zeta over residues.

    Non-principal characters evaluate smoothly through s = 1 because the
    per-residue pole parts carry weight sum(chi) = 0 and are dropped exactly.
    DomainError for a non-finite s or one past the height cap.
    """
    if chi.is_principal:
        # L(s, chi0) = zeta(s) * prod_{p | q} (1 - p^-s); pole at 1 survives
        val = riemann_zeta(s)
        if chi._primes:
            z, power = (s.astype(complex), _real_pow) if _is_array(s) else (complex(s), pow)
            for p in chi._primes:
                val *= 1.0 - power(p, -z)
        return val
    plan, weights, weight_array = chi._em_sum
    if _is_array(s):
        z = _zeta_points(s, "dirichlet_l", -0.5)
        return _hurwitz_em_array(z, plan, weight_array).reshape(s.shape)
    return _hurwitz_em(_zeta_point(s, "dirichlet_l", -0.5), plan, weights)


def completed_xi(s: complex) -> complex:
    """pi^(-s/2) Gamma(s/2) zeta(s), reflected to itself at s -> 1-s.

    Meromorphic with simple poles at 0 and 1 only; the trivial zeros of zeta
    are cancelled, so values like completed_xi(-2) are finite and nonzero.
    s may be an array; PoleError if any point lies within 1e-6 of a pole.
    """
    array = _is_array(s)
    s = s.astype(complex) if array else complex(s)
    near = (abs(s) < 1e-6) | (abs(s - 1.0) < 1e-6)
    if np.any(near):
        raise PoleError(f"completed xi pole at s = {s[near][0] if array else s}")
    if array:
        s = np.where(s.real < 0.0, 1.0 - s, s)
    elif s.real < 0.0:
        s = 1.0 - s
    return (_real_pow if array else pow)(math.pi, -s / 2.0) * gamma(s / 2.0) * riemann_zeta(s)
