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
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import DegenerateError, DomainError
from .specfun import _local_generators

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

# residues one numpy pass of `_residue_sum` visits; bounds its temporaries
# at a few 8-16 MB arrays however many residues survive
_BLOCK = 1 << 20


def valuation(x, p: int):
    """p-adic valuation of a rational; +inf for zero."""
    x = Fraction(x)
    if x == 0:
        return math.inf
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def frac_lambda(x, p: int) -> Fraction:
    """Fractional part with respect to p: the unique rational in [0, 1)
    with p-power denominator such that x - frac_lambda(x) is p-integral."""
    x = Fraction(x)
    v = valuation(x, p)
    if v >= 0:
        return Fraction(0)
    m = -int(v)
    pm = p**m
    d = x.denominator // pm  # prime-to-p part
    r = (x.numerator * pow(d, -1, pm)) % pm
    return Fraction(r, pm)


def psi_p(x, p: int) -> complex:
    """Standard additive character: exp(2 pi i frac_lambda(x))."""
    lam = frac_lambda(x, p)
    if lam == 0:
        return 1.0 + 0.0j
    return complex(math.cos(TWO_PI * float(lam)), math.sin(TWO_PI * float(lam)))


def sdc_eval(a, b, x, p: int) -> complex:
    """Quadratic-phase character value psi(a x^2/2 + b x) at rational x."""
    a, b, x = Fraction(a), Fraction(b), Fraction(x)
    return psi_p(a * x * x / 2 + b * x, p)


def rat_mod(x, p: int, k: int) -> int:
    """Residue of a p-integral rational modulo p^k."""
    x = Fraction(x)
    pk = p**k
    if x.denominator % p == 0:
        raise DomainError(f"{x} is not p-integral at p = {p}")
    return (x.numerator * pow(x.denominator, -1, pk)) % pk


@lru_cache(maxsize=None)
def _dlog_array(p: int, n: int) -> np.ndarray:
    """dlog[r] = t with g^t = r mod p^n for units, -1 otherwise.

    g is the generator `specfun.DirichletCharacter` is indexed by, so a unit
    character and the Dirichlet character with the same index agree.
    """
    mod = p**n
    phi = (p - 1) * p ** (n - 1)
    g = _local_generators(p, n)[0][0]
    powers = np.ones(1, dtype=np.int64)  # g^t for t < len(powers)
    while len(powers) < phi:
        powers = np.concatenate(
            (powers, powers * pow(g, len(powers), mod) % mod)
        )
    out = np.full(mod, -1, dtype=np.int64)
    out[powers[:phi]] = np.arange(phi)
    return out


class UnitCharacter:
    """Multiplicative character of the p-adic units, stored at its exact
    conductor p^n.  Odd p only for n >= 1; the trivial character (n = 0)
    exists for every p.

    chi(g) = exp(2 pi i m / phi(p^n)) against the cached primitive root g.
    """

    def __init__(self, p: int, n: int, m: int = 0):
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
        if self.is_trivial:
            if valuation(u, self.p) != 0:
                raise DomainError(f"{u} is not a unit at p = {self.p}")
            return Fraction(0)
        n = self.conductor_exponent
        if valuation(u, self.p) != 0:
            raise DomainError(f"{u} is not a unit at p = {self.p}")
        r = rat_mod(u, self.p, n)
        t = int(_dlog_array(self.p, n)[r])
        return Fraction(self.index * t, self.group_order) % 1

    def __call__(self, u) -> complex:
        ph = self.phase(u)
        return complex(
            math.cos(TWO_PI * float(ph)), math.sin(TWO_PI * float(ph))
        )

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


@lru_cache(maxsize=None)
def _char_value_array(p: int, n: int, m: int) -> np.ndarray:
    """chi over residues mod p^n (0 at non-units), n >= 1."""
    phi = (p - 1) * p ** (n - 1)
    dlog = _dlog_array(p, n)
    phases = np.where(dlog >= 0, (m * dlog) % phi, 0)
    out = np.exp(2j * np.pi * phases / phi)
    out[dlog < 0] = 0.0
    return out


def _int_rep_mod(x: Fraction, p: int, k: int) -> int:
    # residue of p^k * x modulo p^k, requiring v(x) >= -k
    scaled = x * Fraction(p) ** k
    return rat_mod(scaled, p, k)


def unit_coset_level(a, p: int, y, n_chi: int = 0, margin: int = 1) -> int:
    """Level m0 of the cosets u + p^m0 Z_p that `unit_average` sums over.

    The sum visits the units among the p^m0 residues, so its cost grows
    as p^m0; a nonzero `a` and `y` are assumed.
    """
    v2 = 1 if p == 2 else 0
    va = valuation(a, p)
    vy = valuation(y, p)
    return max(1, n_chi, math.ceil((v2 - va - 2 * vy) / 2)) + margin


def _residue_sum(alpha: Fraction, beta: Fraction, p: int, level: int,
                 units: bool, chi: UnitCharacter | None = None) -> complex:
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
    """
    big = max(
        [level, 0] + [-int(valuation(c, p)) for c in (alpha, beta) if c != 0]
    )
    P = p**big
    ind_mod = p ** (big - level)
    A = _int_rep_mod(alpha, p, big)
    B = _int_rep_mod(beta, p, big)

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
    w = 2j * np.pi / P
    if chi is not None and not chi.is_trivial:
        pn = p**chi.conductor_exponent
        chi_values = _char_value_array(p, chi.conductor_exponent, chi.index)
    else:
        chi_values = None
    total = 0j
    for start in range(0, count, _BLOCK):
        x = residue(np.arange(start, min(start + _BLOCK, count), dtype=dtype))
        ph = (A * (x * x % P) % P + B * x % P) % P
        vals = np.exp(w * ph.astype(np.float64))
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
    a, b, y = Fraction(a), Fraction(b), Fraction(y)
    if a == 0:
        raise DegenerateError("quadratic coefficient must be nonzero")
    if y == 0:
        raise DomainError("average undefined at y = 0")
    n_chi = 0 if chi is None else chi.conductor_exponent
    m0 = unit_coset_level(a, p, y, n_chi, margin)
    total = _residue_sum(a * y * y / 2, b * y, p, m0, True, chi)
    scale = 1.0 / ((1.0 - 1.0 / p) * p**m0)
    return total * scale


def theta_additive(a, b, p: int, y, margin: int = 1) -> complex:
    """Integral of psi(a (xy)^2/2 + b xy) over the p-adic integers,
    additive measure 1, computed as an exact finite sum.

    Residues where the derivative of the phase stays too large integrate to
    zero and are skipped; the level only needs to neutralize the quadratic
    term.
    """
    a, b, y = Fraction(a), Fraction(b), Fraction(y)
    if a == 0:
        raise DegenerateError("quadratic coefficient must be nonzero")
    if y == 0:
        raise DomainError("integral undefined at y = 0")
    A = a * y * y / 2
    L = max(0, math.ceil(-valuation(A, p) / 2)) + margin
    return _residue_sum(A, b * y, p, L, False) / p**L
