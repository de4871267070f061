"""Closed-form zeta factors of quadratic-phase characters at finite places.

For f(x) = psi(a x^2/2 + b x) on the p-adic field, the transfer factor is

    Z(s, chi) = sum_j m(j) p^(-js),   m(j) = unit average of f chi at p^j.

The profile m(j) has rigid structure, and every level of it is read off
the valuations of a and b; no level is found by a search.  For trivial chi
it is exactly 1 from the escape level k on, the first level at which the
phase is trivial on the cosets (detect_escape_level); for ramified chi it
has two terms, at the level k where the linear term has valuation -n (n
the conductor exponent) and at its mirror -(k + delta) under the local
functional equation (local_factor_ramified).  That turns Z into an
explicit rational function of p^(-s).  This module computes the structure
constants

    k      escape level (top level) after rescaling
    delta  parity of the valuation of the quadratic coefficient
    gamma  quadratic Gauss phase, modulus 1 (weil_index_padic)

and stores every factor as one numerator polynomial P(X) in
X = q^(s - n/2) times an explicit prefactor (see LocalFactor).  For an
unramified character the numerator is the self-inversive

    P(X) = gamma X^D - (gamma/Q) X^(D-1) - X/Q + 1,

Q = q^(n/2), D = 2k + delta, whose roots sit on |X| = 1; root extraction
and certification live in zero_engine.

The same constants give each pair's additive integrals theta(p^j) in
closed form: 1 from a top level on, 0 in a gap below it, and a geometric
tail gamma p^-(k + delta/2) p^(j - bottom) from a bottom level down.  A
factor on an n-dimensional space (padic_vector_factor) multiplies the
profiles of its components and reads its numerator off the finite middle.
gamma itself is Weil's closed index: gamma(a, 0) psi(-b^2/(2a)), with
gamma(a, 0) a Legendre symbol times eps_p for odd p and an eighth root of
unity read off the unit part of a mod 8 at p = 2.  So no unramified or
vector factor runs an exact sum; only the ramified builder (its two level
averages and rho0_gauss_sum) and the oracles do.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateError,
    DomainError,
    PoleError,
    WeakMellinError,
)
from .padic_core import (
    UnitCharacter,
    _rational,
    _require_prime,
    _residue_sum,
    _root_of_unity,
    _split,
    frac_lambda,
    unit_average,
    valuation,
)
from .specfun import _is_array, _point, _points, _real_pow

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
    a, b = _rational(a), _rational(b)
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


def detect_escape_level(a_norm, b_norm, p: int) -> int:
    """Smallest k with x -> psi(a x^2/2 + b x) trivial on p^j Z_p for every
    j >= k, read off the valuations of a and b.

    On p^j Z_p the phase is psi(A x^2 + B x) on Z_p with A = a p^(2j)/2 and
    B = b p^j.  For odd p it is trivial exactly when A and B are integral,
    so k = max(ceil(-v(a)/2), -v(b)).  At p = 2 the square has
    x^2 - x in 2 Z_2, so the sharp condition is v(A) >= -1 together with
    v(A + B) >= 0: k = max(ceil((1 - v(a))/2), -v(b)), except when v(a) is
    even and v(b) = v(a)/2 - 1, where at j = -v(a)/2 both A and B have
    valuation -1 and the linear term cancels the half-integral square, so
    k = -v(a)/2.  The -v(b) term drops for b = 0.
    """
    va = int(valuation(a_norm, p))
    vb = valuation(b_norm, p)  # inf for b = 0
    if p == 2 and va % 2 == 0 and vb == va // 2 - 1:
        return -(va // 2)
    return max(-((va - 1) // 2) if p == 2 else -(va // 2), -vb)


@dataclass(frozen=True)
class _Unramified:
    """Exact constants of an unramified pair (a, b) and its theta profile.

    With top = k - e_scale and bottom = -(k + delta) - e_scale the additive
    integral theta(p^j) of psi(a x^2/2 + b x) over p^j Z_p (mass 1) is

        1                                      for j >= top,
        0                                      for bottom < j < top,
        gamma p^-(k + delta/2) p^(j - bottom)  for j <= bottom,

    the tail by the recursion theta(y/p) = theta(y)/p.
    """

    p: int
    k: int
    delta: int
    gamma: complex
    e_scale: int

    @property
    def top(self) -> int:
        return self.k - self.e_scale

    @property
    def bottom(self) -> int:
        return -(self.k + self.delta) - self.e_scale

    def theta(self, j: int) -> complex:
        if j >= self.top:
            return 1.0 + 0.0j
        if j > self.bottom:
            return 0.0 + 0.0j
        return self.gamma * float(self.p) ** (j - self.bottom - self.k - self.delta / 2.0)


def _unramified(a, b, p: int) -> _Unramified:
    """Rescale (a, b) and read its escape level and Gauss phase off the
    valuations and residues; no sum is run."""
    a_norm, b_norm, e_scale, delta = rescale_normal_form(a, b, p)
    k = detect_escape_level(a_norm, b_norm, p)
    return _Unramified(p, k, delta, weil_index_padic(a_norm, b_norm, p), e_scale)


def weil_index_padic(a, b, p: int) -> complex:
    """Weil index gamma of psi(a x^2/2 + b x) at p, in closed form.

    Completing the square gives gamma(a, b) = gamma(a, 0) psi(-b^2/(2a)),
    and gamma(a, 0) is an eighth root of unity read off the square class
    of a = p^v u, u a unit (Weil, Acta Math. 1964):

      odd p: 1 for even v, and ((2u)/p) eps_p for odd v, with the Legendre
        symbol and eps_p = 1 for p = 1 mod 4, i for p = 3 mod 4, the phase
        of the quadratic Gauss sum (Berndt, Evans and Williams, Gauss and
        Jacobi Sums, 1998, ch. 1);
      p = 2: exp(i pi u/4) for even v, with u mod 8, and exp(+-i pi/4) for
        odd v, + when u = 1 mod 4 and - when u = 3 mod 4.

    It is the phase q^(k + delta/2) theta(p^(-k-delta)) of the normalized
    pair, whose tail recursion theta(y/p) = theta(y)/q makes the depth
    immaterial; only the oracles evaluate that sum.  The phase is summed in
    exact turns, so gamma is exactly 1 when they cancel.  Refuses a p that
    is not a prime and a non-finite a or b with DomainError, and a = 0 with
    DegenerateError.
    """
    _require_prime(p)
    a, b = _rational(a), _rational(b)
    if a == 0:
        raise DegenerateError("quadratic coefficient must be nonzero")
    f, num = _split(a.numerator, p)
    e, den = _split(a.denominator, p)
    # a = p^v w / den^2, so w = num den is a unit in the square class of u
    v, w = f - e, num * den
    if p == 2:
        turns = Fraction(w % 8 if v % 2 == 0 else 2 - w % 4, 8)
    elif v % 2 == 0:
        turns = Fraction(0)
    else:
        # Euler's criterion gives the Legendre symbol ((2w)/p); its -1 is
        # half a turn, and eps_p = i a quarter turn
        minus = pow(2 * w % p, (p - 1) // 2, p) != 1
        turns = Fraction(2 * minus + (p % 4 == 3), 4)
    if b:
        turns += frac_lambda(-b * b / (2 * a), p)
    return _root_of_unity(turns)


@dataclass(frozen=True)
class LocalFactor:
    """Closed-form factor at one finite place.

    Every kind is stored in one form,

        Z(s) = p^(e_scale s') * scale * X^(-shift) * P(X) / (1 - p^(-s'))^pole

    with s' = s - i arg(twist) / log p and X = p^(s' - n_dim/2).  The fields:

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
    none of them.  The roots of P are the zeros of Z in one vertical period;
    zero_engine certifies them from poly alone, on every call.
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

    @cached_property
    def _shift(self) -> complex:
        # i arg(twist) / log p, taken off s once per factor
        arg = cmath.phase(complex(self.twist))
        return 1j * arg / math.log(self.p) if arg else 0j

    def _entry(self, s):
        # (s', the power of its body): one check and one dispatch
        if _is_array(s):
            return _points(s, "a local factor") - self._shift, _real_pow
        return _point(s, "a local factor") - self._shift, pow

    def _numerator(self, s: complex, power) -> complex:
        # Horner's rule keeps P(X) one expression for both forms of power
        h = self.n_dim / 2.0
        x = power(self.p, s - h)
        acc = 0.0 + 0.0j
        for c in self.poly:
            acc = acc * x + c
        expo = self.e_scale * s - self.shift * (s - h)
        return self.scale * power(self.p, expo) * acc

    def evaluate(self, s: complex) -> complex:
        """Value at any complex s away from the pole lattice of the factor;
        s may be an array of points."""
        s, power = self._entry(s)
        value = self._numerator(s, power)
        if self.pole:
            den = 1.0 - power(self.p, -s)
            near = abs(den) < _POLE_EPS
            if np.any(near):
                at = s if near is True else s[near][0]
                raise PoleError(f"local factor pole near s = {at} (p = {self.p})")
            value /= den
        return value

    def entire_eval(self, s: complex) -> complex:
        """(1 - twist p^(-s))^pole * factor, written without the cancelled
        pole; equal to evaluate() for a factor without one.

        This is the form the global assembly multiplies against the
        correction quotient; it is entire, so no PoleError is possible.
        """
        return self._numerator(*self._entry(s))

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
    u = _unramified(a, b, p)
    return unramified_from_constants(p, u.k, u.delta, u.gamma, u.e_scale, twist)


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


def local_factor_ramified(a, b, p: int, chi: UnitCharacter, twist: complex = 1.0) -> LocalFactor:
    """Factor against a ramified character: a finite Laurent polynomial.

    With n the conductor exponent of chi and (a, b) rescaled so that
    v(a) = -n + delta, the profile has at most two nonzero coefficients,
    both read off n, delta and k = -n - v(b):

      k > 0, or k = 0 with delta = 1: the top level k, where the linear
        term has valuation v(b p^k) = -n and the average is a Gauss sum of
        chi (see test_ramified_top_coefficient_identity), and its mirror
        -(k + delta), the image of k under the local functional equation
        (the Fourier transform of psi(a x^2/2 + b x) is a Gauss phase
        times psi(-(x - b)^2/(2a)));
      otherwise (b = 0 or k < 0, or k = 0 with delta = 0): the single
        level 0 when delta = 0 and its average is nonzero, else nothing.

    Every other level gives exactly 0: above the top level the phase is
    constant on the cosets of 1 + p^(n-1) Z_p, over which chi averages to
    0, and below it the derivative of the phase has valuation below -n at
    every unit, except at the mirror, where the quadratic and linear terms
    have equal valuation.  An empty profile means the factor vanishes
    identically (an odd character against an even phase).

    Refuses a character of another prime, and an unramified one, with
    DomainError.
    """
    if chi.p != p:
        raise DomainError(f"character of p = {chi.p} at p = {p}")
    n = chi.conductor_exponent
    if n == 0:
        raise DomainError("character is unramified; use local_factor_unramified")
    a_norm, b_norm, e_scale, delta = rescale_normal_form(a, b, p, n_chi=n)

    def average(j: int) -> complex:
        return unit_average(a_norm, b_norm, p, Fraction(p) ** j, chi=chi, margin=0)

    k = -n - valuation(b_norm, p)  # -inf for b = 0
    if k > 0 or (k == 0 and delta == 1):
        C = average(k)
        omega = average(-(k + delta)) / C * p ** (k + delta / 2.0)
        if abs(abs(omega) - 1.0) > 1e-9:
            raise WeakMellinError(f"|omega| = {abs(omega)} off the unit circle")
        # C (p^(-ks) + omega p^(-k-delta/2) p^((k+delta)s)) is
        # C Q^(-k) X^(-k) (omega X^D + 1) with D = 2k + delta
        coeffs = np.zeros(2 * k + delta + 1, dtype=complex)
        coeffs[0] = omega
        coeffs[-1] = 1.0
        poly = tuple(complex(c) for c in coeffs)
    elif delta == 0 and abs(C := average(0)) > 1e-13:
        # degenerate single-term factor: monomial, zero-free
        k, omega, poly = 0, 0.0, (1.0 + 0j,)
    else:
        return LocalFactor(
            p=p, kind="vanishing", chi=chi, e_scale=e_scale, twist=complex(twist)
        )
    return LocalFactor(
        p=p, kind="ramified", poly=poly, shift=k,
        scale=complex(C) * p ** (-k / 2.0), e_scale=e_scale,
        twist=complex(twist), chi=chi, k=k, delta=delta, C=complex(C),
        omega=complex(omega),
    )


def local_factor(a, b, p: int, chi: UnitCharacter | None = None, twist: complex = 1.0) -> LocalFactor:
    """The factor of psi(a x^2/2 + b x) against chi at p, unramified when
    chi is None or trivial, times the unramified twist.

    Refuses a p that is not a prime (see padic_core._require_prime), a
    non-finite a or b and a character of another prime with DomainError,
    all before any work, and a = 0 with DegenerateError.
    """
    _require_prime(p)
    if chi is not None and chi.p != p:
        raise DomainError(f"character of p = {chi.p} at p = {p}")
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
    total = _residue_sum((0, 1), (1, p**n), p, n, True, chi)
    return total / p ** (n / 2.0)


def padic_vector_factor(configs, p: int, twist: complex = 1.0) -> LocalFactor:
    """Diagonal-scaling factor of a product of quadratic phases on an
    n-dimensional p-adic space.

    theta(p^j) of the product is the product of the components' closed-form
    profiles (see _Unramified): exactly 1 from m = max top on, a product of
    geometric tails with ratio p^n per step from min bottom down, and a
    finite middle between.  The exact numerator is built from that middle.

    The zeros all sit on Re(s) = n/2 when the component quadratic
    coefficients have valuations of equal parity.  Mixing parities
    genuinely moves zeros off that line (the numerator stops being
    self-inversive); zero_poly still reports the true roots.
    """
    _require_prime(p)
    profiles = [_unramified(a, b, p) for a, b in configs]
    n = len(profiles)
    if n == 0:
        raise DegenerateError("empty configuration")

    def theta(j: int) -> complex:
        out = 1.0 + 0.0j
        for u in profiles:
            out *= u.theta(j)
        return out

    m = max(u.top for u in profiles)
    tail_j = min(u.bottom for u in profiles) - 1  # highest level inside the tail

    # With t = p^(-s) the factor times (1 - 1/p) t (1 - t) is the Laurent
    # polynomial
    #
    #     (t - p^-n) (1 - t) mid(t) + (t - p^-n) t^m + c t^(T+1) (1 - t)
    #
    # (mid(t) the sum of theta(p^j) t^j over T < j < m, T the tail start,
    # c = theta(p^T)).  Its lowest power t^(T+1) cancels exactly, since
    # theta(p^(T+1)) = p^n c in the tail; the next one and the highest,
    # t^(m+1) with 1 - theta(p^(m-1)), never do.  Neither t = 1 nor
    # t = p^(-n) is a root, so after clearing powers of t the remaining
    # roots are exactly the zeros of the factor.
    lo = tail_j + 1
    c = np.zeros(m - lo + 2, dtype=complex)  # c[i] multiplies t^(lo + i)
    pn = float(p) ** (-n)
    for j in range(lo, m):
        coeff = theta(j)
        # (t - p^-n)(1 - t) t^j = -t^(j+2) + (1 + p^-n) t^(j+1) - p^-n t^j
        c[j + 2 - lo] += -coeff
        c[j + 1 - lo] += (1.0 + pn) * coeff
        c[j - lo] += -pn * coeff
    c[m + 1 - lo] += 1.0
    c[m - lo] += -pn
    c[1] += -theta(tail_j)
    low = lo + 1  # lowest surviving power of t
    c = c[1:]
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
