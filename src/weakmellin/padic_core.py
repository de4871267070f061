"""Exact p-adic arithmetic on rational inputs.

Everything in this module is exact until the final complex exponential:
valuations, p-power fractional parts, and the two workhorse integrals (the
additive integral over the ring of integers and the multiplicative average
over the unit group) all reduce to finite sums of roots of unity indexed by
residues, evaluated with integer arithmetic.

The key cost saving: the average of psi(alpha u^2 + beta u) chi(u) over
units does not require enumerating residues at the level where the
integrand is literally constant.  Averaging over each coset u0 (1 + p^m t),
t integral, leaves a Gaussian-type integral whose quadratic part is trivial
once m is large enough, and the surviving linear part integrates to an
exact 0-or-1 indicator.  The enumeration level then grows like half the
scale of the quadratic phase instead of the whole of it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import DegenerateError, DomainError

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

# beyond this modulus int64 products could overflow; fall back to exact ints
_VECTOR_MOD_CAP = 3_000_000_000


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
def _primitive_root_mod_pn(p: int, n: int) -> int:
    phi = (p - 1) * p ** (n - 1)
    mod = p**n
    factors = set()
    m = phi
    d = 2
    while d * d <= m:
        while m % d == 0:
            factors.add(d)
            m //= d
        d += 1
    if m > 1:
        factors.add(m)
    g = 2
    while True:
        if g % p != 0 and all(pow(g, phi // q, mod) != 1 for q in factors):
            return g
        g += 1


@lru_cache(maxsize=None)
def _dlog_array(p: int, n: int) -> np.ndarray:
    """dlog[r] = t with g^t = r mod p^n for units, -1 otherwise."""
    mod = p**n
    phi = (p - 1) * p ** (n - 1)
    g = _primitive_root_mod_pn(p, n)
    out = np.full(mod, -1, dtype=np.int64)
    cur = 1
    for t in range(phi):
        out[cur] = t
        cur = (cur * g) % mod
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

    alpha = a * y * y / 2  # quadratic phase coefficient
    beta = b * y
    need = [m0, 0, -int(valuation(alpha, p))]
    if beta != 0:
        need.append(-int(valuation(beta, p)))
    big = max(need)

    P0 = p**m0
    P = p**big
    ind_mod = p ** (big - m0)  # linear-part divisibility threshold

    A = _int_rep_mod(alpha, p, big)
    B = _int_rep_mod(beta, p, big) if beta != 0 else 0

    if P <= _VECTOR_MOD_CAP:
        u = np.arange(1, P0, dtype=np.int64)
        u = u[u % p != 0]
        usq = (u * u) % P
        # reduce every product mod P before summing: operands < 3e9 keep
        # each product inside int64, but an unreduced sum would not fit
        phase_num = ((A * usq) % P + (B * u) % P) % P
        if ind_mod > 1:
            lin = (((2 * A) % P) * usq % P + (B * u) % P) % P
            keep = lin % ind_mod == 0
        else:
            keep = np.ones(len(u), bool)
        vals = np.exp((2j * np.pi / P) * phase_num[keep].astype(np.float64))
        if chi is not None and not chi.is_trivial:
            base = _char_value_array(p, chi.conductor_exponent, chi.index)
            vals = vals * base[u[keep] % p**chi.conductor_exponent]
        total = complex(vals.sum())
    else:
        total = 0.0 + 0.0j
        for u0 in range(1, P0):
            if u0 % p == 0:
                continue
            lin = (2 * A * u0 * u0 + B * u0) % P
            if ind_mod > 1 and lin % ind_mod != 0:
                continue
            ph = (A * u0 * u0 + B * u0) % P
            w = complex(
                math.cos(TWO_PI * ph / P), math.sin(TWO_PI * ph / P)
            )
            if chi is not None and not chi.is_trivial:
                w *= chi(u0)
            total += w

    scale = 1.0 / ((1.0 - 1.0 / p) * P0)
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
    A = a * y * y / 2
    B = b * y
    vA = valuation(A, p)
    L = max(0, math.ceil(-vA / 2)) + margin

    need = [L, 0, -int(vA)]
    if B != 0:
        need.append(-int(valuation(B, p)))
    big = max(need)
    P = p**big
    PL = p**L
    ind_mod = p ** (big - L)

    Ai = _int_rep_mod(A, p, big)
    Bi = _int_rep_mod(B, p, big) if B != 0 else 0

    if P <= _VECTOR_MOD_CAP:
        x = np.arange(PL, dtype=np.int64)
        xsq = (x * x) % P
        if ind_mod > 1:
            lin = ((((2 * Ai) % P) * x) % P + Bi) % P
            keep = lin % ind_mod == 0
        else:
            keep = np.ones(len(x), bool)
        ph = ((Ai * xsq) % P + (Bi * x) % P) % P
        vals = np.exp((2j * np.pi / P) * ph[keep].astype(np.float64))
        total = complex(vals.sum())
    else:
        total = 0.0 + 0.0j
        for x0 in range(PL):
            lin = (2 * Ai * x0 + Bi) % P
            if ind_mod > 1 and lin % ind_mod != 0:
                continue
            ph = (Ai * x0 * x0 + Bi * x0) % P
            total += complex(
                math.cos(TWO_PI * ph / P), math.sin(TWO_PI * ph / P)
            )
    return total / PL
