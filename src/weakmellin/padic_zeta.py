"""Closed-form zeta factors of quadratic-phase characters at finite places.

For f(x) = psi(a x^2/2 + b x) on the p-adic field, the transfer factor is

    Z(s, chi) = sum_j m(j) p^(-js),   m(j) = unit average of f chi at p^j.

The profile m(j) has rigid structure: it is exactly 1 (or exactly 0 for
ramified chi) for large j, exactly 0 below a support cutoff, and carries a
geometric phase tail in between.  That turns Z into an explicit rational
function of p^(-s).  This module computes the structure constants

    k      escape level after rescaling
    delta  parity of the valuation of the quadratic coefficient
    gamma  quadratic Gauss phase, modulus 1

and stores every factor as one numerator polynomial P(X) in
X = q^(s - n/2) times an explicit prefactor (see LocalFactor).  For an
unramified character the numerator is the self-inversive

    P(X) = gamma X^D - (gamma/Q) X^(D-1) - X/Q + 1,

Q = q^(n/2), D = 2k + delta, whose roots sit on |X| = 1; root extraction
and certification live in zero_engine.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    DegenerateError,
    DomainError,
    PoleError,
    SupportEscapeError,
    WeakMellinError,
)
from .padic_core import (
    UnitCharacter,
    _residue_sum,
    theta_additive,
    unit_average,
    unit_coset_level,
    valuation,
)
from .specfun import _as_complex, _is_array, _real_pow

__all__ = [
    "LocalFactor",
    "local_factor",
    "local_factor_unramified",
    "local_factor_ramified",
    "padic_vector_factor",
    "unramified_from_constants",
    "qp2_special_eval",
    "weil_index_padic",
    "rho0_gauss_sum",
    "rescale_normal_form",
]

_POLE_EPS = 1e-12


def rescale_normal_form(a, b, p: int, n_chi: int = 0):
    """Substitute x -> cx with a p-power c so the quadratic coefficient has
    valuation delta in {0, 1} (unramified) or -n_chi + delta (ramified).

    Returns (a_norm, b_norm, e_scale, delta) with the original factor equal
    to p^(e_scale * s') times the normalized one, s' the twist-shifted s.
    """
    a, b = Fraction(a), Fraction(b)
    if a == 0:
        raise DegenerateError("quadratic coefficient must be nonzero")
    va = int(valuation(a, p))
    target_parity_base = -n_chi
    # choose e with v(a) + 2e in {target_parity_base, target_parity_base + 1}
    e = math.ceil((target_parity_base - va) / 2)
    c = Fraction(p) ** e
    a_norm = a * c * c
    b_norm = b * c
    delta = int(valuation(a_norm, p)) - target_parity_base
    e_scale = -e  # |c|^s = p^(e_scale * s)
    return a_norm, b_norm, e_scale, delta


def _trivial_on_integers(a_half, b, p: int) -> bool:
    """Is x -> psi(a_half x^2 + b x) identically 1 on the p-adic integers?

    For odd p this needs both coefficients integral.  At p = 2 the square
    has the extra structure x^2 - x in 2 Z_2, so the sharp rule is
    v(a_half) >= -1 together with v(a_half + b) >= 0.
    """
    va = valuation(a_half, p)
    vb = valuation(b, p)
    if p != 2:
        return va >= 0 and vb >= 0
    return va >= -1 and valuation(a_half + b, p) >= 0


def detect_escape_level(a_norm, b_norm, p: int) -> int:
    """Smallest k with the phase trivial on integer multiples of p^j for
    every j >= k.  Exact: scans with exact valuations from a guaranteed
    stability point downward."""
    a_norm, b_norm = Fraction(a_norm), Fraction(b_norm)

    def trivial(j: int) -> bool:
        y = Fraction(p) ** j
        return _trivial_on_integers(a_norm * y * y / 2, b_norm * y, p)

    delta = int(valuation(a_norm, p))
    vb = valuation(b_norm, p)
    j = max(0, 1 - delta, *( [int(-vb)] if b_norm != 0 else [] ))
    while not trivial(j):  # p = 2 cancellation can push past the envelope
        j += 1
        if j > 64:
            raise SupportEscapeError("no escape level found below 64")
    while j > -64 and trivial(j - 1):
        j -= 1
    return j


def weil_index_padic(a, b, p: int) -> complex:
    """Unit-modulus Gauss phase gamma of the normalized pair.

    gamma = q^(k + delta/2) * theta(p^(-k-delta)) where theta is the exact
    additive integral; the tail recursion theta(y/p) = theta(y)/q makes the
    choice of depth immaterial.  Completing the square gives the law
    gamma_{a,b} = gamma_{a,0} * psi(-b^2/(2a)) for escape level matching b.
    """
    a_norm, b_norm, _, delta = rescale_normal_form(a, b, p)
    k = detect_escape_level(a_norm, b_norm, p)
    th = theta_additive(a_norm, b_norm, p, Fraction(p) ** (-k - delta))
    gamma = p ** (k + delta / 2.0) * th
    if abs(abs(gamma) - 1.0) > 1e-9:
        raise WeakMellinError(
            f"gauss phase lost unit modulus: |gamma| = {abs(gamma)}"
        )
    return gamma


@dataclass(frozen=True)
class LocalFactor:
    """Closed-form factor at one finite place.

    Every kind is stored in one form,

        Z(s) = p^(e_scale s') * scale * X^(-shift) * P(X) / (1 - p^(-s'))^pole

    with s' = shifted_s(s) and X = p^(s' - n_dim/2).  The fields:

      poly     coefficients of the numerator P, highest degree first; empty
               for a factor that vanishes identically
      shift    power of X pulled out in front of P
      scale    constant prefactor
      pole     whether the denominator 1 - p^(-s') is present
      e_scale  exponent of the normalizing substitution x -> cx
      twist    unramified twist, absorbed into s' as a vertical shift
      n_dim    dimension of the underlying space

    kind ("unramified", "ramified", "vanishing", "vector") and the structure
    constants k (escape or stabilization level), delta (parity), gamma
    (Gauss phase), C and omega (top coefficient and unit mirror ratio of a
    ramified factor) record how the numerator was built; evaluation reads
    none of them.  The roots of P are the zeros of Z in one vertical period.
    """

    p: int
    kind: str
    poly: tuple = ()
    shift: int = 0
    scale: complex = 1.0 + 0.0j
    pole: bool = False
    e_scale: int = 0
    twist: complex = 1.0 + 0.0j
    n_dim: int = 1
    chi: UnitCharacter | None = None
    k: int = 0
    delta: int = 0
    gamma: complex = 1.0 + 0.0j
    C: complex = 0.0 + 0.0j
    omega: complex = 0.0 + 0.0j

    @property
    def degree(self) -> int:
        """Number of zeros per vertical period, len(poly) - 1; -1 for a
        factor that vanishes identically."""
        return len(self.poly) - 1

    def shifted_s(self, s: complex) -> complex:
        """Absorb an unramified twist into a vertical shift of s."""
        s = _as_complex(s)
        arg = cmath.phase(complex(self.twist))
        if arg == 0.0:
            return s
        return s - 1j * arg / math.log(self.p)

    def _numerator(self, s: complex) -> complex:
        # s is already shifted; Horner's rule keeps P(X) one expression for
        # scalars and numpy arrays alike
        h = self.n_dim / 2.0
        x = _real_pow(self.p, s - h)
        acc = 0.0 + 0.0j
        for c in self.poly:
            acc = acc * x + c
        expo = self.e_scale * s - self.shift * (s - h)
        return self.scale * _real_pow(self.p, expo) * acc

    def evaluate(self, s: complex) -> complex:
        """Value at any complex s away from the pole lattice of the factor;
        s may be an array of points."""
        s = self.shifted_s(s)
        value = self._numerator(s)
        if self.pole:
            den = 1.0 - _real_pow(self.p, -s)
            near = abs(den) < _POLE_EPS
            if np.any(near):
                at = s[near][0] if _is_array(s) else s
                raise PoleError(f"local factor pole near s = {at} (p = {self.p})")
            value /= den
        return value

    def entire_eval(self, s: complex) -> complex:
        """(1 - twist p^(-s))^pole * factor, written without the cancelled
        pole; equal to evaluate() for a factor without one.

        This is the form the global assembly multiplies against the
        correction quotient; it is entire, so no PoleError is possible.
        """
        return self._numerator(self.shifted_s(s))

    def zero_poly(self):
        """Coefficients (highest degree first) of the numerator polynomial
        in X = q^(s - n/2), plus (Q, D) with Q = q^(n/2) and D the degree.
        Roots give the zeros of the factor within one vertical period."""
        return (
            np.array(self.poly, dtype=complex),
            self.p ** (self.n_dim / 2.0),
            self.degree,
        )


def unramified_from_constants(p: int, k: int, delta: int, gamma: complex,
                              e_scale: int = 0, twist: complex = 1.0) -> LocalFactor:
    """The unramified factor with escape level k, parity delta and Gauss
    phase gamma, in the stored form.

    With Q = p^(1/2) and D = 2k + delta the factor is

        p^(e_scale s) Q^(-k) X^(-k) P(X) / ((1 - 1/p) (1 - p^(-s))),
        P(X) = gamma X^D - (gamma/Q) X^(D-1) - X/Q + 1,

    and k = delta = 0 leaves 1 / (1 - p^(-s)).
    """
    D = 2 * k + delta
    if D == 0:
        poly, scale = (1.0 + 0j,), 1.0 + 0j
    else:
        Q = p ** 0.5
        coeffs = np.zeros(D + 1, dtype=complex)
        coeffs[0] += gamma
        coeffs[1] += -gamma / Q
        coeffs[-2] += -1.0 / Q
        coeffs[-1] += 1.0
        poly = tuple(complex(c) for c in coeffs)
        scale = complex(Q ** (-k) / (1.0 - 1.0 / p))
    return LocalFactor(
        p=p, kind="unramified", poly=poly, shift=k, scale=scale, pole=True,
        e_scale=e_scale, twist=complex(twist), k=k, delta=delta,
        gamma=complex(gamma),
    )


def local_factor_unramified(a, b, p: int, twist: complex = 1.0) -> LocalFactor:
    a_norm, b_norm, e_scale, delta = rescale_normal_form(a, b, p)
    k = detect_escape_level(a_norm, b_norm, p)
    if k == 0 and delta == 0:
        gamma = 1.0 + 0.0j
    else:
        gamma = p ** (k + delta / 2.0) * theta_additive(
            a_norm, b_norm, p, Fraction(p) ** (-k - delta)
        )
        if abs(abs(gamma) - 1.0) > 1e-9:
            raise WeakMellinError(f"|gamma| = {abs(gamma)} off the unit circle")
    return unramified_from_constants(p, k, delta, gamma, e_scale, twist)


def qp2_special_eval(s: complex) -> complex:
    """The 2-adic factor of psi(x^2/2) written out longhand.

    Kept as an independent expression (not routed through LocalFactor) so
    the generic machinery can be checked against it.
    """
    s = complex(s)
    den = 1.0 - 2.0 ** (-s)
    if abs(den) < _POLE_EPS:
        raise PoleError(f"pole near s = {s}")
    e8 = cmath.exp(1j * math.pi / 4.0)
    return (2.0 ** (1.0 - s) * (1.0 - 2.0 ** (s - 1.0)) + e8 * 2.0**s * den) / den


# The most unit cosets one level of the ramified scan may sum over.  It
# bounds no time: `unit_average` visits only the cosets its linear
# indicator keeps, so the mirror term at level -(k + delta) of b = 3^-20
# costs under 1 ms.  It guards the absolute 1e-13 drop in the scan: the
# mirror term has modulus |C| p^-(k + delta/2), and once that falls below
# 1e-13 a two-term factor would silently come back with one term (for
# b = p^-m against a character mod p: two terms up to m = 27 at p = 3 and
# m = 18 at p = 5, one above).  The cap refuses p = 3 from m = 12 on.
_RAMIFIED_MAX_COSETS = 1 << 20


def _ramified_window(a_norm, b_norm, p: int, chi: UnitCharacter):
    """Exact profile of unit averages on the provably complete support.

    Scans downward from the triviality edge.  A level j is provably zero
    without computation when the linear part of the coset decomposition has
    uniformly negative valuation: no residue survives the indicator.  Three
    consecutive provable zeros below the cancellation level (where the
    quadratic and linear valuations meet) end the scan: the predicate is
    monotone in -j there, since the quadratic valuation falls twice as fast.
    Above that level a gap of provable zeros can still hide the mirror term.
    """
    n = chi.conductor_exponent
    delta = int(valuation(a_norm, p)) + n
    vb = valuation(b_norm, p)  # inf when b_norm == 0

    # above this, phase trivial on conductor-level cosets, so average = 0
    hi = max(1, (2 - delta) // 2)
    if b_norm != 0:
        hi = max(hi, 1 - n - int(vb))

    def provably_zero(j: int) -> bool:
        va_j = -n + delta + 2 * j
        m_min = max(n, math.ceil(-va_j / 2))
        if b_norm == 0:
            return va_j < -m_min
        vb_j = int(vb) + j
        if va_j == vb_j:
            return False  # cancellation possible, must compute
        return min(va_j, vb_j) < -m_min

    # the scan may end only below the cancellation level, if there is one
    cancel = int(vb) + n - delta if b_norm != 0 else math.inf

    profile = {}
    j = hi
    consec = 0
    while consec < 3 or j >= cancel:
        if j < hi - 64:
            raise SupportEscapeError("ramified support scan exceeded 64 levels")
        if provably_zero(j):
            consec += 1
        else:
            consec = 0
            y = Fraction(p) ** j
            if p ** unit_coset_level(a_norm, p, y, n) > _RAMIFIED_MAX_COSETS:
                raise SupportEscapeError(
                    f"ramified level {j} at p = {p} needs a sum over more "
                    f"than {_RAMIFIED_MAX_COSETS} unit cosets"
                )
            val = unit_average(a_norm, b_norm, p, y, chi=chi)
            if abs(val) > 1e-13:
                profile[j] = val
        j -= 1
    return profile, delta


def local_factor_ramified(a, b, p: int, chi: UnitCharacter, twist: complex = 1.0) -> LocalFactor:
    """Factor against a ramified character: a finite Laurent polynomial.

    The exact profile has at most two nonzero coefficients, at the escape
    level k and its mirror -(k + delta).  An empty profile means the factor
    vanishes identically (an odd character against an even phase).
    """
    if p == 2:
        raise DomainError("ramified factors at p = 2 are out of scope")
    n = chi.conductor_exponent
    if n == 0:
        raise DomainError("character is unramified; use local_factor_unramified")
    a_norm, b_norm, e_scale, delta = rescale_normal_form(a, b, p, n_chi=n)
    profile, delta_check = _ramified_window(a_norm, b_norm, p, chi)
    if delta != delta_check:
        raise WeakMellinError("normalization parity mismatch")
    if not profile:
        return LocalFactor(
            p=p, kind="vanishing", chi=chi, e_scale=e_scale, twist=complex(twist)
        )
    ks = sorted(profile)
    k = ks[-1]
    C = profile[k]
    if len(ks) == 1:
        # degenerate single-term factor: monomial, zero-free
        omega, poly = 0.0, (1.0 + 0j,)
    elif len(ks) != 2 or ks[0] != -(k + delta):
        raise WeakMellinError(
            f"unexpected ramified support {ks}; two-term structure violated"
        )
    else:
        bottom = profile[-(k + delta)]
        omega = bottom / C * p ** (k + delta / 2.0)
        if abs(abs(omega) - 1.0) > 1e-9:
            raise WeakMellinError(f"|omega| = {abs(omega)} off the unit circle")
        # C (p^(-ks) + omega p^(-k-delta/2) p^((k+delta)s)) is
        # C Q^(-k) X^(-k) (omega X^D + 1) with D = 2k + delta
        coeffs = np.zeros(2 * k + delta + 1, dtype=complex)
        coeffs[0] = omega
        coeffs[-1] = 1.0
        poly = tuple(complex(c) for c in coeffs)
    return LocalFactor(
        p=p, kind="ramified", poly=poly, shift=k,
        scale=complex(C) * p ** (-k / 2.0), e_scale=e_scale,
        twist=complex(twist), chi=chi, k=k, delta=delta, C=complex(C),
        omega=complex(omega),
    )


def local_factor(a, b, p: int, chi: UnitCharacter | None = None, twist: complex = 1.0) -> LocalFactor:
    if chi is None or chi.is_trivial:
        return local_factor_unramified(a, b, p, twist=twist)
    return local_factor_ramified(a, b, p, chi, twist=twist)


def rho0_gauss_sum(chi: UnitCharacter) -> complex:
    """Normalized Gauss sum of a ramified character, modulus exactly 1."""
    n = chi.conductor_exponent
    if n == 0:
        raise DomainError("gauss sum needs a ramified character")
    p = chi.p
    # sum over units eps mod p^n of chi(eps) psi(eps / p^n)
    total = _residue_sum(Fraction(0), Fraction(1, p**n), p, n, True, chi)
    return total / p ** (n / 2.0)


def _theta_product(configs, p: int, y) -> complex:
    out = 1.0 + 0.0j
    for a, b in configs:
        out *= theta_additive(a, b, p, y)
    return out


def padic_vector_factor(configs, p: int, twist: complex = 1.0) -> LocalFactor:
    """Diagonal-scaling factor of a product of quadratic phases on an
    n-dimensional p-adic space.

    Detects the stable region (product of thetas equal to 1) and the
    geometric lower tail (ratio p^n per step) from exact values, and builds
    the exact numerator from the finite middle between them.

    The zeros all sit on Re(s) = n/2 when the component quadratic
    coefficients have valuations of equal parity.  Mixing parities
    genuinely moves zeros off that line (the numerator stops being
    self-inversive); zero_poly still reports the true roots.
    """
    configs = tuple((Fraction(a), Fraction(b)) for a, b in configs)
    n = len(configs)
    if n == 0:
        raise DegenerateError("empty configuration")
    for a, _ in configs:
        if a == 0:
            raise DegenerateError("quadratic coefficient must be nonzero")

    cache: dict[int, complex] = {}

    def theta(j: int) -> complex:
        if j not in cache:
            cache[j] = _theta_product(configs, p, Fraction(p) ** j)
        return cache[j]

    # upper stabilization: theta == 1 exactly from some m on
    m = 0
    while any(abs(theta(j) - 1.0) > 1e-13 for j in (m, m + 1, m + 2)):
        m += 1
        if m > 48:
            raise SupportEscapeError("no upper stabilization below 48")
    while m > -48 and all(
        abs(theta(j) - 1.0) <= 1e-13 for j in (m - 1, m, m + 1)
    ):
        m -= 1

    # lower tail: theta(p^(j-1)) = theta(p^j) / p^n exactly
    ratio = float(p) ** n

    def in_tail(j: int) -> bool:
        # a genuine tail value is nonzero; a support gap fakes the ratio
        t0, t1 = theta(j - 1), theta(j)
        if abs(t1) == 0.0:
            return False
        return abs(t0 * ratio - t1) <= 1e-12 * abs(t1)

    t = m
    while not (in_tail(t) and in_tail(t - 1) and in_tail(t - 2)):
        t -= 1
        if t < m - 96:
            raise SupportEscapeError("no lower tail found within 96 levels")
    while t < m and in_tail(t + 1):
        t += 1
    tail_j = t - 1  # highest level already inside the geometric tail

    # With t = p^(-s) the factor times (1 - 1/p) t (1 - t) is the Laurent
    # polynomial
    #
    #     (t - p^-n) (1 - t) mid(t) + (t - p^-n) t^m + c t^(T+1) (1 - t)
    #
    # (mid(t) the sum of theta(p^j) t^j over T < j < m, T the tail start,
    # c = theta(p^T)).  Neither t = 1 nor t = p^(-n) is a root, so after
    # clearing powers of t the remaining roots are exactly the zeros of the
    # factor.
    lo = tail_j + 1  # lowest power appearing
    c = np.zeros(m - lo + 2, dtype=complex)  # c[i] multiplies t^(lo + i)
    pn = float(p) ** (-n)
    for j in range(lo, m):
        coeff = theta(j)
        if abs(coeff) > 1e-15:
            # (t - p^-n)(1 - t) t^j = -t^(j+2) + (1 + p^-n) t^(j+1) - p^-n t^j
            c[j + 2 - lo] += -coeff
            c[j + 1 - lo] += (1.0 + pn) * coeff
            c[j - lo] += -pn * coeff
    c[m + 1 - lo] += 1.0
    c[m - lo] += -pn
    c[0] += theta(tail_j)
    c[1] += -theta(tail_j)

    # strip structurally cancelled ends (exact zeros up to roundoff)
    keep = np.nonzero(np.abs(c) > 1e-10 * np.max(np.abs(c)))[0]
    if keep.size == 0:
        raise WeakMellinError("vector numerator collapsed to zero")
    low = lo + int(keep[0])  # lowest surviving power of t
    c = c[keep[0] : keep[-1] + 1]
    D = c.size - 1
    Q = float(p) ** (n / 2.0)
    # sum_i c[i] t^(low + i) with t = 1 / (Q X) is Q^(-low) X^(-low - D)
    # P(X), P(X) = sum_i c[i] Q^(-i) X^(D - i) highest degree first
    poly = tuple(complex(c[i] * Q ** (-float(i))) for i in range(c.size))
    return LocalFactor(
        p=p, kind="vector", poly=poly, shift=low + D - 1,
        scale=complex(Q ** (1 - low) / (1.0 - 1.0 / p)), pole=True,
        twist=complex(twist), n_dim=n, k=m,
    )
