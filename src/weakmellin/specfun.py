"""Special functions used by the zeta-factor machinery.

Everything here is self-contained: a Lanczos log-gamma, Euler-Maclaurin
Riemann and Hurwitz zeta, a Kummer confluent hypergeometric summed in
fixed-point integers (2^-128 resolution: twelve digits survive
cancellation by up to about 1e24) with a wide-decimal tier for the rare
heavier cases, Dirichlet characters of general modulus, and the
completed Riemann xi.
External packages (mpmath, sympy) appear only in the test suite as
cross-checks, never here.

log_gamma, gamma, hyp1f1, riemann_zeta, hurwitz_zeta and dirichlet_l take
a complex scalar or an ndarray of points.  A scalar runs the cmath body; an
array runs a numpy body elementwise (Euler-Maclaurin over the points in
blocks, hyp1f1 one kernel call per point off z = 0) and returns an array
of its shape.  A bad point in an array raises what
the scalar call raises there: PoleError, DomainError, or OverflowError
where numpy would return inf.

Accuracy targets: ~1e-13 relative for gamma and zeta on the working region
Re(s) >= -0.5, |Im(s)| <= 60, away from poles.  Values outside that region go
through reflection formulas or raise DomainError.
"""

from __future__ import annotations

import cmath
import decimal
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

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
    "hurwitz_zeta",
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


# zeta_real and GlobalFactorization.evaluate run an array of fewer points
# than this through the scalar body, point by point.  On a 2-vCPU x86 VM
# with numpy 2.4 the numpy body of the global function costs about 0.5 ms
# a call at any size and its scalar body 50 us a point, so the loop wins
# below about 12 points; Newton's steps call with 1 and 4 points.
_POINTWISE_BELOW = 8


def _is_array(x) -> bool:
    return isinstance(x, np.ndarray) and x.ndim > 0


def _pointwise(f, s: np.ndarray) -> np.ndarray:
    """f at each point of the array s, one scalar call each."""
    return np.array([f(z) for z in s.ravel().tolist()], dtype=complex).reshape(s.shape)


def _as_complex(x):
    """complex(x), or a complex copy of an array x."""
    return x.astype(complex) if _is_array(x) else complex(x)


def _zero_like(x):
    """0j, or complex zeros of the shape of an array x."""
    return np.zeros(x.shape, dtype=complex) if _is_array(x) else 0j


def _cexp(w):
    """cmath.exp, elementwise on an array; OverflowError either way."""
    if not _is_array(w):
        return cmath.exp(w)
    with np.errstate(over="ignore"):
        out = np.exp(w)
    if np.isinf(out).any():
        raise OverflowError("math range error")
    return out


def _near_nonpositive_int(z: complex) -> bool:
    if abs(z.imag) > _POLE_TOL:
        return False
    r = round(z.real)
    return r <= 0 and abs(z.real - r) <= _POLE_TOL


def _raise_at_poles(z: np.ndarray, what: str) -> None:
    # the array form of _near_nonpositive_int
    r = np.round(z.real)
    bad = (np.abs(z.imag) <= _POLE_TOL) & (r <= 0) & (np.abs(z.real - r) <= _POLE_TOL)
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


def log_gamma(z: complex) -> complex:
    """Log of the gamma function.

    The imaginary part is continuous along the Lanczos evaluation, not
    reduced to the principal branch; exp(log_gamma(z)) is always Gamma(z).
    Raises PoleError within 1e-9 of a non-positive integer.
    """
    if _is_array(z):
        return _log_gamma_array(z.astype(complex))
    z = complex(z)
    if _near_nonpositive_int(z):
        raise PoleError(f"gamma pole at z = {z}")
    if z.real < 0.5:
        # reflection: log pi/sin(pi z) - log_gamma(1 - z), with sin(pi z)
        # taken at the exact offset from the nearest integer n, so that
        # it keeps its relative accuracy next to a pole
        n = round(z.real)
        sin_pi = cmath.sin(math.pi * (z - n))
        if n & 1:
            sin_pi = -sin_pi
        return cmath.log(math.pi / sin_pi) - log_gamma(1.0 - z)
    zz = z - 1.0
    x = _LANCZOS_C[0]
    for i in range(1, 9):
        x += _LANCZOS_C[i] / (zz + i)
    t = zz + _LANCZOS_G + 0.5
    return 0.5 * math.log(TWO_PI) + (zz + 0.5) * cmath.log(t) - t + cmath.log(x)


def gamma(z: complex) -> complex:
    return _cexp(log_gamma(z))


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
    return cmath.exp(log_gamma(num) - log_gamma(den))


@dataclass(frozen=True)
class EvalQuality:
    """Value of a series plus how much cancellation it survived."""

    value: complex
    cancellation_ratio: float
    terms_used: int


_HYP_MAX_TERMS = 500
_HYP_Z_CAP = 40.0
_HYP_BITS = 128  # fractional bits of the fixed-point series
_HYP_STOP_BITS = 64  # a term below 2^-64 of the partial sum counts as small
_HYP_REL_TARGET = 1e-12
_HYP_MAX_DIGITS = 60


# what the series returns at z = 0; frozen, so one instance serves every call
_HYP_AT_ZERO = EvalQuality(value=1.0 + 0.0j, cancellation_ratio=1.0, terms_used=3)


def _to_fixed(x: float) -> int:
    """floor(x * 2^_HYP_BITS), exact for every double not below 2^-_HYP_BITS.

    The 53-bit significand is shifted as an integer, so no float product
    is formed: x * 2.0**128 would overflow for |x| above about 1e270.
    """
    m, e = math.frexp(x)
    n = int(m * 9007199254740992.0)  # m * 2^53 is the significand, exactly
    shift = e - 53 + _HYP_BITS
    return n << shift if shift >= 0 else n >> -shift


def _hyp1f1_decimal(a: complex, b: complex, z: complex, digits: int) -> complex:
    """Rerun the Kummer series with ``digits``-place decimal arithmetic.

    Same recurrence as the fixed-point pass, reached only when
    cancellation has chewed through its 128 fractional bits.  Inputs are
    double precision, so rounding them is not the bottleneck; the wide
    significand is.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        ar, ai = decimal.Decimal(a.real), decimal.Decimal(a.imag)
        br, bi = decimal.Decimal(b.real), decimal.Decimal(b.imag)
        zr, zi = decimal.Decimal(z.real), decimal.Decimal(z.imag)
        tr = sr = decimal.Decimal(1)
        ti = si = decimal.Decimal(0)
        floor = decimal.Decimal(10) ** -(digits + 3)
        max_partial = decimal.Decimal(1)
        small_run = 0
        for k in range(_HYP_MAX_TERMS):
            nr, ni = ar + k, ai
            tr, ti = tr * nr - ti * ni, tr * ni + ti * nr
            tr, ti = tr * zr - ti * zi, tr * zi + ti * zr
            dr, di = br + k, bi
            dmod = (dr * dr + di * di) * (k + 1)
            tr, ti = (tr * dr + ti * di) / dmod, (ti * dr - tr * di) / dmod
            sr += tr
            si += ti
            partial = abs(sr) + abs(si)
            if partial > max_partial:
                max_partial = partial
            if abs(tr) + abs(ti) <= floor * max_partial:
                small_run += 1
                if small_run >= 3:
                    return complex(float(sr), float(si))
            else:
                small_run = 0
    raise ConvergenceError(
        f"hyp1f1({a}, {b}, {z}) did not converge in {_HYP_MAX_TERMS} terms"
    )


def hyp1f1_eval(a: complex, b: complex, z: complex) -> EvalQuality:
    """Kummer 1F1(a; b; z) by Taylor series in fixed-point integers.

    The inputs are converted exactly to Python integers scaled by 2^128,
    and one pass of the term recurrence runs on them: q_k = (a + k) z is
    advanced by adding z, and each term is divided by (b + k)(k + 1) with
    one floor division per part when b is real (a complex b divides
    through the conjugate).  Every rounding is relative to 2^-128 at the
    scale of the largest term, so twelve digits survive while the largest
    partial sum exceeds the value by up to about 1e24.  The pass stops
    after three terms in a row below 2^-64 of the current partial sum.

    The largest partial sum over the value (the cancellation ratio) times
    the terms used and 2^-128 estimates the relative error.  Only when
    that exceeds 1e-12 does the series rerun in decimal arithmetic wide
    enough to absorb the loss (up to 60 places).  Two kinds of input
    reach that tier: |z| >= 38 with Im a >= 20, e.g. (0.25+30j, 0.5, 40j)
    with a ratio of 1.8e32, and evaluations on top of a zero (|value|
    below about 3e-16, such as the last Newton step of a zero search).

    Restricted to finite inputs and |z| <= 40 (DomainError otherwise):
    beyond that the scale swings outgrow even the decimal budget and
    callers must rescale upstream.  Raises PoleError when b + k lies
    within 1e-12 of 0 before the series stops, and ConvergenceError after
    500 terms.  Emits PrecisionWarning only if the widest rerun still
    leaves fewer than about seven clean digits.
    """
    a = complex(a)
    b = complex(b)
    z = complex(z)
    if not (cmath.isfinite(a) and cmath.isfinite(b) and cmath.isfinite(z)):
        raise DomainError(f"hyp1f1({a}, {b}, {z}) needs finite arguments")
    if abs(z) > _HYP_Z_CAP:
        raise DomainError(f"hyp1f1 argument |z| = {abs(z):.3g} exceeds {_HYP_Z_CAP}")
    if z == 0 and min(abs(b), abs(b + 1.0), abs(b + 2.0)) > 2e-12:
        # At z = 0 every term after the first is zero, so the series
        # stops after three terms with the sum exactly 1.  Near a pole
        # (b within 2e-12 of 0, -1 or -2) it runs anyway, so that its
        # pole test decides.
        return _HYP_AT_ZERO

    # The series divides by b + k for k = 0, 1, ...; at most one k brings
    # that within 1e-12 of 0.  The loop ends short of it, and raises
    # PoleError there unless the series has stopped before.
    last = _HYP_MAX_TERMS
    if b.real < 0.5:
        kp = round(-b.real)
        if kp < last and abs(complex(b.real + kp, b.imag)) < 1e-12:
            last = kp

    bits = _HYP_BITS
    one = 1 << bits
    ar, ai = _to_fixed(a.real), _to_fixed(a.imag)
    zr, zi = _to_fixed(z.real), _to_fixed(z.imag)
    br, bi = _to_fixed(b.real), _to_fixed(b.imag)  # b + k - 1, advanced by one

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
                break
        else:
            small_run = 0
    else:
        if last < _HYP_MAX_TERMS:
            raise PoleError(f"hyp1f1 pole: b = {b} hits a non-positive integer")
        raise ConvergenceError(
            f"hyp1f1({a}, {b}, {z}) did not converge in {_HYP_MAX_TERMS} terms"
        )

    value = complex(sr / one, si / one)
    max_partial = peak / one
    ratio = max_partial / max(abs(value), 1e-300)
    est_rel = k * 2.0**-bits * ratio
    if est_rel > _HYP_REL_TARGET:
        digits = min(_HYP_MAX_DIGITS, 25 + int(math.log10(max(ratio, 1.0))))
        value = _hyp1f1_decimal(a, b, z, digits)
        for _ in range(2):
            # the fixed-point value may have underestimated the ratio; recheck
            ratio = max_partial / max(abs(value), 1e-300)
            est_rel = 10.0 ** (1 - digits) * ratio
            if est_rel <= _HYP_REL_TARGET or digits >= _HYP_MAX_DIGITS:
                break
            digits = min(_HYP_MAX_DIGITS, 25 + int(math.log10(max(ratio, 1.0))))
            value = _hyp1f1_decimal(a, b, z, digits)
    if est_rel > 1e-7:
        warnings.warn(
            f"hyp1f1({a}, {b}, {z}): cancellation ratio {ratio:.2e} leaves "
            f"an estimated relative error {est_rel:.1e}",
            PrecisionWarning,
            stacklevel=2,
        )
    return EvalQuality(value=value, cancellation_ratio=ratio, terms_used=k)


def hyp1f1(a: complex, b: complex, z: complex) -> complex:
    """Value of hyp1f1_eval; arguments may be arrays, broadcast together.

    On arrays the points at z = 0 that pass the scalar pole guard are 1 at
    once, and every other point runs the fixed-point kernel.
    """
    if not (_is_array(a) or _is_array(b) or _is_array(z)):
        return hyp1f1_eval(a, b, z).value
    a, b, z = np.broadcast_arrays(
        *(np.asarray(x, dtype=complex) for x in (a, b, z))
    )
    out = np.ones(a.shape, dtype=complex)
    at_zero = (
        (z == 0)
        & np.isfinite(a) & np.isfinite(b)
        & (np.minimum(np.abs(b), np.minimum(np.abs(b + 1.0), np.abs(b + 2.0))) > 2e-12)
    )
    for i in zip(*np.nonzero(~at_zero)):
        out[i] = hyp1f1_eval(a[i], b[i], z[i]).value
    return out


# Bernoulli numbers B_2 .. B_24 as exact fractions, used by Euler-Maclaurin.
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
)

_EM_N = 50
_EM_M = 12
# B_2k / (2k)! for k = 1 .. _EM_M, rounded once from the exact fractions
_EM_COEFFS = tuple(
    float(_BERNOULLI[k - 1] / math.factorial(2 * k)) for k in range(1, _EM_M + 1)
)
_ZETA_IM_CAP = 60.0


def _cexpm1(w: complex) -> complex:
    # complex expm1; cmath has none.  Taylor near 0, direct otherwise.
    if abs(w) < 1e-4:
        return w * (1.0 + w * (0.5 + w * (1.0 / 6.0 + w / 24.0)))
    return cmath.exp(w) - 1.0


def _em_tail(s: complex, base: float) -> complex:
    """Euler-Maclaurin correction terms at cutoff `base` (= N + a)."""
    out = 0.0 + 0.0j
    rising = s  # (s)_{2k-1} built incrementally
    for k, coeff in enumerate(_EM_COEFFS, start=1):
        out += coeff * rising * base ** (-s - (2 * k - 1))
        if k < _EM_M:
            rising *= (s + 2 * k - 1) * (s + 2 * k)
    return out


def _hurwitz_em(s: complex, a: float, skip_pole: bool) -> complex:
    """Euler-Maclaurin Hurwitz zeta, valid Re(s) > -0.5, |Im(s)| <= 60.

    With skip_pole the exact simple-pole part 1/(s-1) is omitted, which is
    what character sums with zero mean need to pass smoothly through s = 1.
    """
    acc = 0.0 + 0.0j
    for n in range(_EM_N):
        acc += (n + a) ** (-s)
    base = _EM_N + a
    lb = math.log(base)
    # base^(1-s)/(s-1) = [expm1((1-s) lb)] / (s-1)  +  1/(s-1)
    if abs(s - 1.0) < 1e-12:
        regular = complex(-lb)
    else:
        regular = _cexpm1((1.0 - s) * lb) / (s - 1.0)
    acc += regular
    if not skip_pole:
        acc += 1.0 / (s - 1.0)
    acc += 0.5 * base ** (-s)
    acc += _em_tail(s, base)
    return acc


# (point, offset) pairs per block of the array Euler-Maclaurin sum: a
# block of the power sum is (pairs, _EM_N) complex, 0.2 MB
_EM_BLOCK = 256


@lru_cache(maxsize=None)
def _em_tables(offsets: tuple):
    """For each offset a: the bases n + a for n < _EM_N with their logs,
    and the cutoff N + a with its log, one row per offset."""
    a = np.array(offsets, dtype=float)[:, None]
    bases = np.arange(_EM_N) + a
    return bases, np.log(bases), _EM_N + a, np.log(_EM_N + a)


def _real_pow(x, w, log_x=None):
    """x ** w for real x > 0 and complex w, scalars or arrays (broadcast).

    On arrays it is rounded as CPython rounds the scalar power: pow(x,
    Re w) times the unit phase of Im w log x.  numpy's complex power loses
    the last bits of that phase, which reaches hundreds on the scan lines.
    log_x, when given, is log(x).
    """
    if not (_is_array(x) or _is_array(w)):
        return x**w
    mag = np.power(x, w.real)
    phase = w.imag * (math.log(x) if log_x is None else log_x)
    out = np.empty(mag.shape, dtype=complex)
    np.multiply(mag, np.cos(phase, out=out.real), out=out.real)
    np.multiply(mag, np.sin(phase, out=out.imag), out=out.imag)
    return out


def _hurwitz_em_array(s: np.ndarray, offsets: tuple, skip_pole: bool) -> np.ndarray:
    """_hurwitz_em at every point of a 1-D array s and every offset,
    shape (len(s), len(offsets)), in blocks of at most _EM_BLOCK points
    times offsets.

    The sum cancels up to a few hundred to one at Re(s) = -0.5, so its
    terms are rounded as the scalar ones (see _real_pow) and added in the
    same order; only complex products and quotients round differently.
    """
    bases, logs, base, lb = _em_tables(offsets)
    odd = np.arange(1, 2 * _EM_M, 2)  # 2k - 1
    out = np.empty((s.size, len(offsets)), dtype=complex)
    step = max(1, _EM_BLOCK // len(offsets))
    for lo in range(0, s.size, step):
        sb = s[lo : lo + step, None, None]
        terms = _real_pow(bases, -sb, logs)
        acc = np.cumsum(terms, axis=-1, out=terms)[..., -1]
        sb = sb[..., 0]
        near = np.abs(sb - 1.0) < 1e-12
        w = (1.0 - sb) * lb[:, 0]
        expm1 = np.where(
            np.abs(w) < 1e-4,
            w * (1.0 + w * (0.5 + w * (1.0 / 6.0 + w / 24.0))),
            np.exp(w) - 1.0,
        )
        acc += np.where(near, -lb[:, 0], expm1 / np.where(near, 1.0, sb - 1.0))
        if not skip_pole:
            acc += 1.0 / (sb - 1.0)
        powers = _real_pow(base, -sb[..., None] - np.append(0, odd), lb)
        acc += 0.5 * powers[..., 0]
        rising = np.cumprod(
            np.concatenate([sb, (sb + odd[:-1]) * (sb + (odd[:-1] + 1))], axis=1),
            axis=1,
        )
        tail = np.array(_EM_COEFFS) * rising
        acc += np.cumsum(tail[:, None, :] * powers[..., 1:], axis=-1)[..., -1]
        out[lo : lo + step] = acc
    return out


def _check_em_domain(s: np.ndarray, what: str, re_min: float = -math.inf) -> None:
    bad = s.real < re_min
    if bad.any():
        raise DomainError(f"{what} restricted to Re(s) >= {re_min}, got {s[bad][0]}")
    bad = np.abs(s.imag) > _ZETA_IM_CAP
    if bad.any():
        raise DomainError(f"{what} restricted to |Im s| <= {_ZETA_IM_CAP}")


def _raise_near_one(s: np.ndarray, what: str) -> None:
    bad = np.abs(s - 1.0) < 1e-6
    if bad.any():
        raise PoleError(f"{what} pole at s = {s[bad][0]}")


def _riemann_zeta_array(s: np.ndarray) -> np.ndarray:
    _raise_near_one(s, "zeta")
    _check_em_domain(s, "riemann_zeta")
    refl = s.real < 0.0
    out = _hurwitz_em_array(np.where(refl, 1.0 - s, s), (1.0,), False)[:, 0]
    if refl.any():
        sr = s[refl]
        out[refl] = (
            _real_pow(2.0, sr)
            * _real_pow(math.pi, sr - 1.0)
            * np.sin(math.pi * sr / 2.0)
            * gamma(1.0 - sr)
            * out[refl]
        )
    return out


def riemann_zeta(s: complex) -> complex:
    """Riemann zeta by Euler-Maclaurin, functional equation for Re(s) < 0.

    Raises PoleError within 1e-6 of s = 1 and DomainError for |Im(s)| > 60
    (the correction terms start losing accuracy there).
    """
    if _is_array(s):
        return _riemann_zeta_array(s.astype(complex).ravel()).reshape(s.shape)
    s = complex(s)
    if abs(s - 1.0) < 1e-6:
        raise PoleError(f"zeta pole at s = {s}")
    if abs(s.imag) > _ZETA_IM_CAP:
        raise DomainError(f"riemann_zeta restricted to |Im s| <= {_ZETA_IM_CAP}")
    if s.real < 0.0:
        # zeta(s) = 2^s pi^(s-1) sin(pi s/2) Gamma(1-s) zeta(1-s)
        return (
            2.0**s
            * math.pi ** (s - 1.0)
            * cmath.sin(math.pi * s / 2.0)
            * gamma(1.0 - s)
            * riemann_zeta(1.0 - s)
        )
    return _hurwitz_em(s, 1.0, skip_pole=False)


def hurwitz_zeta(s: complex, a: float, *, skip_pole: bool = False) -> complex:
    """Hurwitz zeta(s, a) for real a in (0, 1].

    skip_pole=True returns zeta(s, a) - 1/(s-1), the entire part, computed
    without cancellation near s = 1.
    """
    if not 0.0 < a <= 1.0:
        raise DomainError(f"hurwitz_zeta needs 0 < a <= 1, got a = {a}")
    if _is_array(s):
        z = s.astype(complex).ravel()
        _check_em_domain(z, "hurwitz_zeta", re_min=-0.5)
        if not skip_pole:
            _raise_near_one(z, "hurwitz_zeta")
        return _hurwitz_em_array(z, (float(a),), skip_pole)[:, 0].reshape(s.shape)
    s = complex(s)
    if s.real < -0.5:
        raise DomainError("hurwitz_zeta restricted to Re(s) >= -0.5")
    if abs(s.imag) > _ZETA_IM_CAP:
        raise DomainError(f"hurwitz_zeta restricted to |Im s| <= {_ZETA_IM_CAP}")
    if not skip_pole and abs(s - 1.0) < 1e-6:
        raise PoleError(f"hurwitz_zeta pole at s = {s}")
    return _hurwitz_em(s, a, skip_pole)


# ---------------------------------------------------------------------------
# Dirichlet characters of general modulus.
#
# The unit group mod q is the product over prime powers p^k || q of cyclic
# pieces: a primitive-root power for odd p, the pair {-1, 3} for 2^k with
# k >= 3, {3} for k = 2, trivial for k = 1.  A character is a choice of
# exponent against each generator; values are exact rational phases.
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


@lru_cache(maxsize=None)
def _dlog_table(p: int, k: int) -> dict[int, tuple[int, ...]]:
    """unit mod p^k  ->  exponent tuple against the local generators."""
    gens = _local_generators(p, k)
    mod = p**k
    table = {1 % mod: tuple(0 for _ in gens)}
    if not gens:
        return table
    # enumerate the full product of generator powers; group order <= 1000
    def extend(idx: int, val: int, exps: tuple[int, ...]) -> None:
        if idx == len(gens):
            table.setdefault(val, exps)
            return
        g, order = gens[idx]
        cur = 1
        for e in range(order):
            extend(idx + 1, (val * cur) % mod, exps + (e,))
            cur = (cur * g) % mod

    extend(0, 1, ())
    return table


class DirichletCharacter:
    """A Dirichlet character mod q, q <= 1000, with exact phase arithmetic.

    `index` lists one exponent per local generator, in the order produced by
    iterating the prime-power factors of q smallest first.
    """

    def __init__(self, q: int, index: tuple[int, ...]):
        if not 1 <= q <= 1000:
            raise DomainError(f"modulus {q} outside supported range 1..1000")
        self.modulus = q
        self._factors = _factorize(q)
        self._gens: list[tuple[int, int, int, int]] = []  # (p, k, order, exponent)
        flat = []
        for p, k in self._factors:
            for _, order in _local_generators(p, k):
                flat.append((p, k, order))
        if len(index) != len(flat):
            raise DomainError(
                f"index length {len(index)} != generator count {len(flat)} for q={q}"
            )
        self.index = tuple(m % order for (_, _, order), m in zip(flat, index))
        for (p, k, order), m in zip(flat, self.index):
            self._gens.append((p, k, order, m))

    @classmethod
    def principal(cls, q: int) -> "DirichletCharacter":
        flat_len = sum(len(_local_generators(p, k)) for p, k in _factorize(q))
        return cls(q, tuple(0 for _ in range(flat_len)))

    def phase(self, n: int) -> Fraction | None:
        """chi(n) = exp(2 pi i * phase(n)); None when gcd(n, q) > 1."""
        n %= self.modulus
        if self.modulus == 1:
            return Fraction(0)
        if math.gcd(n, self.modulus) != 1:
            return None
        total = Fraction(0)
        pos = 0
        for p, k in self._factors:
            exps = _dlog_table(p, k)[n % (p**k)]
            for e in exps:
                _, _, order, m = self._gens[pos]
                total += Fraction(m * e, order)
                pos += 1
        return total % 1

    @cached_property
    def _values(self) -> tuple[complex, ...]:
        # chi over the residues 0 .. q-1, built once per character
        out = []
        for n in range(self.modulus):
            ph = self.phase(n)
            if ph is None:
                out.append(0.0 + 0.0j)
            else:
                out.append(cmath.exp(2j * math.pi * float(ph)))
        return tuple(out)

    def __call__(self, n: int) -> complex:
        return self._values[n % self.modulus]

    @property
    def is_principal(self) -> bool:
        return all(m == 0 for m in self.index)

    @property
    def is_even(self) -> bool:
        ph = self.phase(self.modulus - 1) if self.modulus > 1 else Fraction(0)
        return ph == 0

    @property
    def order(self) -> int:
        out = 1
        for _, _, order, m in self._gens:
            out = math.lcm(out, order // math.gcd(order, m))
        return out

    @lru_cache(maxsize=None)
    def _conductor(self) -> int:
        q = self.modulus
        for d in sorted(_divisors(q)):
            ok = True
            for n in range(1, q + 1):
                if math.gcd(n, q) == 1 and n % d == 1 % d:
                    if self.phase(n) != 0:
                        ok = False
                        break
            if ok:
                return d
        return q  # unreachable: d = q always works

    @property
    def conductor(self) -> int:
        return self._conductor()

    @property
    def is_primitive(self) -> bool:
        return self.conductor == self.modulus

    def primitive_character(self) -> "DirichletCharacter":
        """The primitive character of conductor f inducing this one."""
        f = self.conductor
        if f == self.modulus:
            return self
        for cand in characters(f):
            if all(
                cand.phase(n) == self.phase(n)
                for n in range(1, self.modulus + 1)
                if math.gcd(n, self.modulus) == 1
            ):
                return cand
        raise ConvergenceError("no inducing primitive character found")  # unreachable

    def value_tuple(self) -> tuple:
        return tuple(self.phase(n) for n in range(self.modulus))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DirichletCharacter):
            return NotImplemented
        return self.modulus == other.modulus and self.index == other.index

    def __hash__(self) -> int:
        return hash((self.modulus, self.index))

    def __repr__(self) -> str:
        return f"DirichletCharacter(q={self.modulus}, index={self.index})"


def _divisors(q: int) -> list[int]:
    out = [1]
    for p, k in _factorize(q):
        out = [d * p**e for d in out for e in range(k + 1)]
    return out


def characters(q: int):
    """Iterate over all phi(q) Dirichlet characters mod q."""
    flat = []
    for p, k in _factorize(q):
        for _, order in _local_generators(p, k):
            flat.append(order)
    if not flat:
        yield DirichletCharacter(q, ())
        return

    def rec(prefix: tuple[int, ...], rest: list[int]):
        if not rest:
            yield DirichletCharacter(q, prefix)
            return
        for m in range(rest[0]):
            yield from rec(prefix + (m,), rest[1:])

    yield from rec((), flat)


def dirichlet_l(s: complex, chi: DirichletCharacter) -> complex:
    """Dirichlet L-function via Hurwitz zeta over residues.

    Non-principal characters evaluate smoothly through s = 1 because the
    per-residue pole parts carry weight sum(chi) = 0 and are dropped exactly.
    """
    s = _as_complex(s)
    q = chi.modulus
    if chi.is_principal:
        # L(s, chi0) = zeta(s) * prod_{p | q} (1 - p^-s); pole at 1 survives
        val = riemann_zeta(s)
        for p, _ in _factorize(q):
            val *= 1.0 - _real_pow(p, -s)
        return val
    if _is_array(s):
        z = s.ravel()
        _check_em_domain(z, "hurwitz_zeta", re_min=-0.5)
        residues = [n for n in range(1, q + 1) if chi(n) != 0]
        parts = _hurwitz_em_array(z, tuple(n / q for n in residues), True)
        acc = (parts * np.array([chi(n) for n in residues])).sum(axis=1)
        return _real_pow(q, -s) * acc.reshape(s.shape)
    acc = 0.0 + 0.0j
    for n in range(1, q + 1):
        c = chi(n)
        if c != 0:
            acc += c * hurwitz_zeta(s, n / q, skip_pole=True)
    return q ** (-s) * acc


def completed_xi(s: complex) -> complex:
    """pi^(-s/2) Gamma(s/2) zeta(s), reflected to itself at s -> 1-s.

    Meromorphic with simple poles at 0 and 1 only; the trivial zeros of zeta
    are cancelled, so values like completed_xi(-2) are finite and nonzero.
    """
    s = complex(s)
    if abs(s) < 1e-6 or abs(s - 1.0) < 1e-6:
        raise PoleError(f"completed xi pole at s = {s}")
    if s.real < 0.0:
        return completed_xi(1.0 - s)
    return math.pi ** (-s / 2.0) * gamma(s / 2.0) * riemann_zeta(s)
