"""Exact p-adic arithmetic on rational inputs.

Everything in this module is exact until the final complex exponential:
valuations, p-power fractional parts, and the two workhorse integrals (the
additive integral over the ring of integers and the multiplicative average
over the unit group) all reduce to finite sums of roots of unity indexed by
residues, evaluated with integer arithmetic.

The key cost saving: both integrals split into cosets x0 + p^L Z_p at a
level L where the quadratic part of the phase is constant on each coset.
The surviving linear part integrates to an exact 0-or-1 indicator, and the
residues it keeps solve one linear congruence 2A x0 + B = 0 mod p^k, so
they form a single arithmetic progression.  `_residue_sum` finds that
progression with a gcd and a modular inverse and visits only its members,
in fixed-size numpy blocks; L grows like half the scale of the quadratic
phase instead of the whole of it.

That level is the least exact one, and the ramified builder sums there
(margin 0): the quadratic part a (x0 + p^L t)^2 y^2 / 2 differs from its
value at x0 by a term linear in t, which the indicator accounts for, plus
a y^2 p^(2L) t^2 / 2, which is p-integral for every t once
2L >= v(2) - v(a y^2), the v(2) = 1 of p = 2 included; and the level is at
least chi's conductor exponent, so chi is constant on every coset too.
A larger margin visits p times more residues per unit and returns the
same sum up to rounding; the oracles sum at margin 1 for a ramified
character, over other residues than the builder's, and at margin 0
otherwise.  The unramified builders run no sum: their Gauss phase is
Weil's closed index (padic_zeta.weil_index_padic), a Legendre symbol or
a class mod 8 times psi(-b^2/(2a)).

Every entry point refuses a base p that is not a prime int at most
_MAX_P, and a non-finite float where it wants a rational, with
DomainError.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import DegenerateError, DomainError
from .specfun import _dlog_array, _factorize

__all__ = [
    "valuation",
    "frac_lambda",
    "psi_p",
    "sdc_eval",
    "UnitCharacter",
    "unit_characters",
    "unit_average",
    "unit_coset_level",
    "theta_additive",
    "rat_mod",
]

TWO_PI = 2.0 * math.pi

# `_residue_sum` reduces products of two residues mod P: in int64 up to this
# modulus (3e9^2 < 2^63), on arrays of Python ints above it
_VECTOR_MOD_CAP = 3_000_000_000

# p is proved prime by trial division, about 0.15 s at the cap and growing
# as sqrt(p); a larger p is refused before any division
_MAX_P = 10**12

# residues one numpy pass of `_residue_sum` visits; bounds its temporaries
# at a few 8-16 MB arrays however many residues survive
_BLOCK = 1 << 20


def _rational(x) -> Fraction:
    """x itself if it is a Fraction, else Fraction(x); DomainError for a
    non-finite float.  A Fraction is exact and already reduced, so it is
    not rebuilt; the oracles key their profile caches by its numerator
    and denominator."""
    if type(x) is Fraction:
        return x
    try:
        return Fraction(x)
    except (ValueError, OverflowError) as exc:
        raise DomainError(f"p-adic inputs are rationals, got {x!r}") from exc


def _ratio(x) -> tuple[int, int]:
    """Numerator and denominator of a rational, read once."""
    if not isinstance(x, (int, Fraction)):
        x = _rational(x)
    return x.numerator, x.denominator


def _power(p: int, j: int) -> int | Fraction:
    """p^j as an exact rational, an int for j >= 0 (cheaper than a
    Fraction power)."""
    return p**j if j >= 0 else Fraction(1, p**-j)


def _split(n: int, p: int) -> tuple[int, int]:
    """(v, m) with n = p^v m and m prime to p, by integer division; n != 0."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def _require_prime(p: int) -> None:
    """DomainError unless p is an int (not a bool) with 2 <= p <= _MAX_P,
    tested before any trial division, and prime.  For the entry points
    only: `_split` with p = 1 never ends, and it runs too often to check
    there."""
    if not (type(p) is int and 2 <= p <= _MAX_P and _is_prime(p)):
        raise DomainError(f"the base p must be a prime at most {_MAX_P}, got {p!r}")


# an entry is about 80 bytes; unbounded, a sweep of many bases (say one
# valuation per odd q below 2e6) would keep every one of them
@lru_cache(maxsize=256)
def _is_prime(p: int) -> bool:
    # cached: the entry points check the same few p over and over
    return _factorize(p) == [(p, 1)]


def _int_valuation(num: int, den: int, p: int) -> int:
    # valuation of num/den != 0, the fraction not necessarily reduced
    return _split(num, p)[0] - _split(den, p)[0]


def valuation(x, p: int):
    """p-adic valuation of a rational; +inf for zero."""
    _require_prime(p)
    num, den = _ratio(x)
    if num == 0:
        return math.inf
    return _int_valuation(num, den, p)


def frac_lambda(x, p: int) -> Fraction:
    """Fractional part with respect to p: the unique rational in [0, 1)
    with p-power denominator such that x - frac_lambda(x) is p-integral."""
    x = _rational(x)
    v = valuation(x, p)
    if v >= 0:
        return Fraction(0)
    m = -int(v)
    pm = p**m
    d = x.denominator // pm  # prime-to-p part
    r = (x.numerator * pow(d, -1, pm)) % pm
    return Fraction(r, pm)


def _root_of_unity(turns: Fraction) -> complex:
    """exp(2 pi i turns) for a rational number of turns; exactly 1 at 0."""
    t = float(turns % 1)
    return complex(math.cos(TWO_PI * t), math.sin(TWO_PI * t))


def psi_p(x, p: int) -> complex:
    """Standard additive character: exp(2 pi i frac_lambda(x))."""
    return _root_of_unity(frac_lambda(x, p))


def sdc_eval(a, b, x, p: int) -> complex:
    """Quadratic-phase character value psi(a x^2/2 + b x) at rational x."""
    a, b, x = _rational(a), _rational(b), _rational(x)
    return psi_p(a * x * x / 2 + b * x, p)


def rat_mod(x, p: int, k: int) -> int:
    """Residue of a p-integral rational modulo p^k, for a prime p."""
    _require_prime(p)
    x = _rational(x)
    pk = p**k
    if x.denominator % p == 0:
        raise DomainError(f"{x} is not p-integral at p = {p}")
    return (x.numerator * pow(x.denominator, -1, pk)) % pk


class UnitCharacter:
    """Multiplicative character of the p-adic units, stored at its exact
    conductor p^n.  Odd p only for n >= 1; the trivial character (n = 0)
    exists for every p.

    chi(g) = exp(2 pi i m / phi(p^n)) for g the least primitive root mod
    p^n, the generator `specfun` fixes there, so the index m is the exponent
    the Dirichlet characters mod p^n carry and the unit's exponent is read
    from the same table, `specfun._dlog_array`.  m is prime to p when
    n >= 2, so p^n is the exact conductor.
    """

    def __init__(self, p: int, n: int, m: int = 0):
        _require_prime(p)
        if n < 0:
            raise DomainError("conductor exponent must be >= 0")
        if n >= 1 and p == 2:
            raise DomainError("ramified characters at p = 2 are out of scope")
        if n == 0:
            if m != 0:
                raise DomainError("the unramified character is trivial here")
        else:
            phi = (p - 1) * p ** (n - 1)
            m %= phi
            if m == 0 or (n >= 2 and m % p == 0):
                raise DomainError(
                    f"index {m} does not give exact conductor {p}^{n}"
                )
        self.p = p
        self.conductor_exponent = n
        self.index = m

    @property
    def is_trivial(self) -> bool:
        return self.conductor_exponent == 0

    @property
    def group_order(self) -> int:
        n = self.conductor_exponent
        return 1 if n == 0 else (self.p - 1) * self.p ** (n - 1)

    @property
    def is_even(self) -> bool:
        # chi(-1) = exp(pi i m) since -1 = g^(phi/2)
        if self.is_trivial:
            return True
        return self.index % 2 == 0

    def phase(self, u) -> Fraction:
        """chi(u) = exp(2 pi i phase(u)); u must be a p-adic unit."""
        if valuation(u, self.p) != 0:
            raise DomainError(f"{u} is not a unit at p = {self.p}")
        if self.is_trivial:
            return Fraction(0)
        n = self.conductor_exponent
        r = rat_mod(u, self.p, n)
        t = int(_dlog_array(self.p, n)[r, 0])
        return Fraction(self.index * t, self.group_order) % 1

    def __call__(self, u) -> complex:
        return _root_of_unity(self.phase(u))

    def bar(self) -> "UnitCharacter":
        """Complex conjugate character."""
        if self.is_trivial:
            return self
        return UnitCharacter(
            self.p, self.conductor_exponent, (-self.index) % self.group_order
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, UnitCharacter):
            return NotImplemented
        return (self.p, self.conductor_exponent, self.index) == (
            other.p,
            other.conductor_exponent,
            other.index,
        )

    def __hash__(self) -> int:
        return hash((self.p, self.conductor_exponent, self.index))

    def __repr__(self) -> str:
        return (
            f"UnitCharacter(p={self.p}, n={self.conductor_exponent}, "
            f"m={self.index})"
        )


def unit_characters(p: int, n: int):
    """All characters of exact conductor p^n."""
    if n == 0:
        yield UnitCharacter(p, 0, 0)
        return
    phi = (p - 1) * p ** (n - 1)
    for m in range(1, phi):
        if n >= 2 and m % p == 0:
            continue
        yield UnitCharacter(p, n, m)


# a table is 1.6 MB near the chi-modulus cap; the benchmark's crosscheck
# pass uses 12 to 14 characters
@lru_cache(maxsize=16)
def _char_value_array(p: int, n: int, m: int) -> np.ndarray:
    """chi over residues mod p^n (0 at non-units), n >= 1."""
    phi = (p - 1) * p ** (n - 1)
    dlog = _dlog_array(p, n)[:, 0]
    phases = np.where(dlog >= 0, (m * dlog) % phi, 0)
    out = np.exp(2j * np.pi * phases / phi)
    out[dlog < 0] = 0.0
    return out


def _scaled_residue(num: int, den: int, p: int, k: int) -> int:
    """(p^k x) mod p^k for x = num/den with v(x) >= -k, in integers.

    With num = p^f n' and den = p^e d' (n', d' prime to p) the residue is
    n' p^(k+f-e) d'^(-1) mod p^k, the value rat_mod(x * p**k, p, k) gives,
    whether or not num/den is reduced.
    """
    if num == 0:
        return 0
    f, n1 = _split(num, p)
    e, d1 = _split(den, p)
    if f >= e:
        return 0  # x is p-integral
    pk = p**k
    return n1 * p ** (k + f - e) * pow(d1, -1, pk) % pk


def _quadratic_level(an: int, ad: int, yn: int, yd: int, p: int) -> int:
    """-(v(a y^2/2) // 2) for a = an/ad and y = yn/yd, both nonzero: from
    this coset level on, the quadratic part psi(a (xy)^2/2) of the phase is
    constant on every coset x0 + p^level Z_p."""
    v2 = 1 if p == 2 else 0
    return -((_int_valuation(an, ad, p) + 2 * _int_valuation(yn, yd, p) - v2) // 2)


def _phase_sum_front(a, b, p: int, y, floor: int, margin: int):
    """The front end of the sums over psi(a (xy)^2/2 + b xy): refuse a p
    that is not a prime, a = 0 and y = 0, read each rational once, and
    return a y^2/2 and b y as (numerator, denominator) pairs with the coset
    level, `_quadratic_level` or `floor` if higher, plus `margin`."""
    _require_prime(p)
    (an, ad), (yn, yd) = _ratio(a), _ratio(y)
    if an == 0:
        raise DegenerateError("quadratic coefficient must be nonzero")
    if yn == 0:
        raise DomainError("phase sum undefined at y = 0")
    bn, bd = _ratio(b)
    return ((an * yn * yn, 2 * ad * yd * yd), (bn * yn, bd * yd),
            max(floor, _quadratic_level(an, ad, yn, yd, p)) + margin)


def unit_coset_level(a, p: int, y, n_chi: int = 0, margin: int = 1) -> int:
    """Level m0 of the cosets u + p^m0 Z_p that `unit_average` sums over.

    The sum visits the units among the p^m0 residues, so its cost grows
    as p^m0.  Raises DegenerateError for a = 0 and DomainError for y = 0,
    as `unit_average` does, and DomainError for a p that is not a prime.
    """
    return _phase_sum_front(a, 0, p, y, max(1, n_chi), margin)[2]


def _residue_sum(alpha: tuple[int, int], beta: tuple[int, int], p: int,
                 level: int, units: bool,
                 chi: UnitCharacter | None = None) -> complex:
    """Sum of psi(alpha x^2 + beta x) chi(x) over the residues x mod p^level
    (units only when `units`) on whose coset x + p^level Z_p the linear
    part of the phase does not integrate to zero.

    With P = p^big the common denominator of both phase coefficients and
    A, B their numerators mod P, the phase on a coset is e((A x^2 + B x)/P)
    plus a linear term ((2A x + B)/P) p^level t; the coset survives when
    2A x + B = 0 mod P / p^level.  For a unit x, x (2A x + B) = 0 holds
    exactly when 2A x + B = 0, so one indicator serves both callers.  Its
    solutions are the progression x0 + step k, empty when the gcd of 2A
    and the modulus does not divide B; only its members are visited, in
    blocks of `_BLOCK`.  The caller chooses `level` so the quadratic part
    is constant on every coset and chi's conductor divides p^level.
    alpha and beta are (numerator, denominator) pairs of integers, not
    necessarily reduced, so A, B and P come from integer arithmetic alone.
    Each phase is scaled by 2 pi i / P while P fits a float; beyond the
    float range it is first reduced to a float in [0, 1) by int division.
    """
    big = max(
        [level, 0]
        + [-_int_valuation(num, den, p) for num, den in (alpha, beta) if num]
    )
    P = p**big
    ind_mod = p ** (big - level)
    A = _scaled_residue(*alpha, p, big)
    B = _scaled_residue(*beta, p, big)

    c = 2 * A % ind_mod
    g = math.gcd(c, ind_mod)
    if B % g:
        return 0j
    step = ind_mod // g
    x0 = (-B // g) * pow(c // g, -1, step) % step

    size = p**level
    if units and step == 1:
        count = size - size // p

        def residue(k):  # the k-th unit in [1, size)
            return k // (p - 1) * p + k % (p - 1) + 1
    else:
        count = 0 if units and x0 % p == 0 else max(0, -(-(size - x0) // step))

        def residue(k):
            return x0 + step * k

    dtype = np.int64 if P <= _VECTOR_MOD_CAP else object
    try:
        w = 2j * np.pi / P
    except OverflowError:  # P beyond the float range
        w = None
    if chi is not None and not chi.is_trivial:
        pn = p**chi.conductor_exponent
        chi_values = _char_value_array(p, chi.conductor_exponent, chi.index)
    else:
        chi_values = None
    total = 0j
    for start in range(0, count, _BLOCK):
        x = residue(np.arange(start, min(start + _BLOCK, count), dtype=dtype))
        ph = (A * (x * x % P) % P + B * x % P) % P
        if w is not None:
            vals = np.exp(w * ph.astype(np.float64))
        else:
            # ph / P divides Python ints, correctly rounded into [0, 1)
            vals = np.exp(2j * np.pi * (ph / P).astype(np.float64))
        if chi_values is not None:
            vals = vals * chi_values[(x % pn).astype(np.int64)]
        part = complex(vals.sum())
        total = part if start == 0 else total + part
    return total


def unit_average(a, b, p: int, y, chi: UnitCharacter | None = None, margin: int = 1) -> complex:
    """Average of psi(a (uy)^2/2 + b uy) chi(u) over the unit group,
    multiplicative measure normalized to total mass 1.

    Exact up to floating roots of unity.  `margin` pads the coset level; any
    value >= the minimal one returns the same number, which the tests use as
    a consistency check.
    """
    n_chi = 0 if chi is None else chi.conductor_exponent
    alpha, beta, m0 = _phase_sum_front(a, b, p, y, max(1, n_chi), margin)
    total = _residue_sum(alpha, beta, p, m0, True, chi)
    scale = 1.0 / ((1.0 - 1.0 / p) * p**m0)
    return total * scale


def theta_additive(a, b, p: int, y, margin: int = 1) -> complex:
    """Integral of psi(a (xy)^2/2 + b xy) over the p-adic integers,
    additive measure 1, computed as an exact finite sum.

    Residues where the derivative of the phase stays too large integrate to
    zero and are skipped; the level only needs to neutralize the quadratic
    term.
    """
    alpha, beta, L = _phase_sum_front(a, b, p, y, 0, margin)
    return _residue_sum(alpha, beta, p, L, False) / p**L
