"""Assembly of the completed transform over the rationals.

A global quadratic phase factors into local pieces, one per place.  Away
from a finite set S the local data is the normalized standard pair, so
the full product collapses to finitely many explicit local factors, a
matching set of Euler-factor corrections, and one Dirichlet L function:

    Xi(s) = zeta_inf(s) * prod_{p in S, p unram} (1 - chi(p) p^(-s)) zeta_p(s)
            * prod_{p in S, p ram} zeta_p(s) * L(s, chi)

The corrections cancel the local poles, so the strip behaviour of Xi is
exactly L times entire local numerators.  Zeros therefore split into
local ones (a numerator vanishes) and global ones (L vanishes); the
classifier below reproduces that split point by point.

Only primitive Dirichlet characters are accepted; the functional
equation helpers additionally require the principal character, where
the product of local root numbers collapses to gamma_f |a|^(1/2-s).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .arch_zeta import Real, RealSign, Trivial, weil_index_arch, zeta_real
from .errors import DomainError, PoleError, UncertifiedError
from .padic_core import UnitCharacter, _rational, _require_prime, valuation
from .padic_zeta import LocalFactor, local_factor, weil_index_padic
from .specfun import (
    DirichletCharacter,
    _factorize,
    _is_array,
    _zeta_point,
    _zeta_points,
    completed_xi,
    dirichlet_l,
)
from .zero_engine import ZeroReport

_EULER_PRIME_LIMIT = 100_000
# relative smallness that counts as "this local factor vanishes here"
_VANISH_RATIO = 1e-6
_CORR_TOL = 1e-8


def xi_f_reference(s: complex) -> complex:
    """Closed form of the completed transform for the standard pair.

    The dyadic bracket times the completed zeta; poles only at 0 and 1.
    """
    s = complex(s)
    bracket = 2.0 ** (1.0 - s) * (1.0 - 2.0 ** (s - 1.0)) + cmath.exp(
        0.25j * math.pi
    ) * 2.0**s * (1.0 - 2.0 ** (-s))
    return cmath.exp(-0.25j * math.pi * s) * bracket * completed_xi(s)


@dataclass(frozen=True)
class GlobalSpec:
    """Finitely many explicit places plus the everywhere-else convention.

    arch carries the real-place quadratic data; finite lists (p, a, b)
    triples with distinct primes, always including 2.  Outside the
    listed places the local data is the standard normalized pair, which
    contributes through L alone.  chi must be primitive (pass
    chi.primitive_character() if needed); its ramified primes must all
    be listed so their local factors can carry the ramified character.
    """

    arch: Real
    finite: tuple = ()
    chi: DirichletCharacter = field(
        default_factory=lambda: DirichletCharacter.principal(1)
    )

    def __post_init__(self):
        primes = [entry[0] for entry in self.finite]
        for p in primes:
            _require_prime(p)
        if len(set(primes)) != len(primes):
            raise DomainError("finite places must be distinct primes")
        if 2 not in primes:
            raise DomainError("the finite set must contain the place 2")
        for p, a, b in self.finite:
            if _rational(a) == 0:
                raise DomainError(f"quadratic coefficient vanishes at p = {p}")
            _rational(b)  # refuses a non-finite b at construction
        if not self.chi.is_primitive:
            raise DomainError(
                "spec characters must be primitive; "
                "use chi.primitive_character()"
            )
        for p, _ in _factorize(self.chi.conductor):
            if p not in primes:
                raise DomainError(
                    f"character ramified at {p}, which is outside the "
                    "listed places"
                )

    @property
    def places(self) -> tuple:
        return ("inf",) + tuple(entry[0] for entry in self.finite)

    @cached_property
    def _factorization(self) -> "GlobalFactorization":
        # built once per spec; cached on the instance, so it also works for
        # a spec whose finite places are an (unhashable) list
        return factorize_global(self)


def _local_character_component(chi: DirichletCharacter, p: int, n: int):
    """The restriction of chi to the units at p, as a unit character.

    Both characters index against the generator `specfun` fixes mod p^n,
    so the component's index is chi's exponent at p.
    """
    if p == 2:
        raise DomainError("ramified characters at p = 2 are out of scope")
    _, (m,) = chi._local[p]
    return UnitCharacter(p, n, m)


@dataclass(frozen=True)
class GlobalFactorization:
    """The assembled product: local parts, corrections, and the L factor.

    identically_zero marks the two degenerate situations (odd sign
    character against an even real phase, or a vanishing ramified
    factor); evaluation is then exactly 0 everywhere.
    """

    spec: "GlobalSpec"
    arch: Real
    arch_char: object
    local_parts: dict
    correction_primes: tuple
    chi: DirichletCharacter
    identically_zero: bool

    def correction_term(self, p: int, s: complex) -> complex:
        return 1.0 - self.chi(p) * p ** (-complex(s))

    def arch_value(self, s: complex) -> complex:
        return zeta_real(self.arch.a, self.arch.b, s, self.arch_char)

    def evaluate(self, s: complex) -> complex:
        """L-mode value: corrections folded into the entire numerators.

        A ramified factor has no pole to cancel; its entire_eval is its
        value.  s may be an array of points; the result then is an array
        of its shape.  DomainError for a non-finite s or |Im s| > 60,
        before any factor runs.
        """
        s = (_zeta_points(s, "a global function").reshape(s.shape) if _is_array(s)
             else _zeta_point(s, "a global function"))
        if self.identically_zero:
            return s - s  # zeros of the kind of s
        out = zeta_real(self.arch.a, self.arch.b, s, self.arch_char)
        for lf in self.local_parts.values():
            out *= lf.entire_eval(s)
        return out * dirichlet_l(s, self.chi)

    def evaluate_reflected(self, s: complex) -> complex:
        """Value at Re(s) < 1/2 through the (principal) reflection law.

        Useful left of the strip where the Gamma poles meet the trivial
        zeros of L; the reflection sidesteps the 0 * inf evaluation.
        The law itself is residual-tested elsewhere, not assumed here.
        """
        if not self.chi.is_principal:
            raise DomainError("reflection shortcut needs the principal "
                              "character")
        s = complex(s)
        return (
            gamma_f(self.spec)
            * idele_modulus(self.spec) ** (0.5 - s)
            * self.evaluate(1.0 - s.conjugate()).conjugate()
        )

    def euler_product(self, s: complex,
                      prime_limit: int = _EULER_PRIME_LIMIT) -> complex:
        """Direct product over primes up to the limit; needs Re(s) > 1."""
        if self.identically_zero:
            return 0.0 + 0.0j
        s = complex(s)
        if s.real <= 1.0:
            raise DomainError("euler product mode needs Re(s) > 1")
        out = self.arch_value(s)
        for lf in self.local_parts.values():
            out *= lf.evaluate(s)
        skip = set(self.local_parts) | set(self.chi._primes)
        primes = _primes_below(prime_limit)
        chi_vals = np.array([self.chi(int(p)) for p in primes])
        mask = np.array([int(p) not in skip for p in primes])
        pool = primes[mask]
        terms = 1.0 - chi_vals[mask] * np.exp(-s * np.log(pool))
        return out * complex(1.0 / np.prod(terms))

    def euler_tail_bound(self, s: complex,
                         prime_limit: int = _EULER_PRIME_LIMIT) -> float:
        """Crude bound on the log of the omitted tail of the product."""
        sigma = complex(s).real
        if sigma <= 1.0:
            raise DomainError("euler product mode needs Re(s) > 1")
        # sum_{p > P} p^-sigma <= integral + first-term slack
        return 2.0 * prime_limit ** (1.0 - sigma) / (
            (sigma - 1.0) * math.log(prime_limit)
        )


@lru_cache(maxsize=4)
def _primes_below(limit: int) -> np.ndarray:
    sieve = np.ones(limit, dtype=bool)
    sieve[:2] = False
    for p in range(2, int(limit**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.nonzero(sieve)[0].astype(float)


def factorize_global(spec: GlobalSpec) -> GlobalFactorization:
    """Build the local factors and correction list for a spec."""
    chi = spec.chi
    arch_char = Trivial() if chi.is_even else RealSign()
    ram = dict(_factorize(chi.conductor))

    if isinstance(arch_char, RealSign) and spec.arch.b == 0:
        # odd character against an even real phase: the archimedean
        # factor vanishes identically and takes the whole product with it
        return GlobalFactorization(
            spec=spec, arch=spec.arch, arch_char=arch_char, local_parts={},
            correction_primes=(), chi=chi, identically_zero=True,
        )

    local_parts = {}
    corrections = []
    dead = False
    for p, a, b in spec.finite:
        if p in ram:
            comp = _local_character_component(chi, p, ram[p])
            lf = local_factor(a, b, p, chi=comp)
            if lf.kind == "vanishing":
                dead = True
        else:
            lf = local_factor(a, b, p, twist=chi(p))
            corrections.append(p)
        local_parts[p] = lf
    return GlobalFactorization(
        spec=spec, arch=spec.arch, arch_char=arch_char,
        local_parts=local_parts, correction_primes=tuple(corrections),
        chi=chi, identically_zero=dead,
    )


def reference_spec() -> GlobalSpec:
    """The standard pair at every place: one explicit factor at 2."""
    return GlobalSpec(
        arch=Real(a=1.0, b=0.0),
        finite=((2, Fraction(1), Fraction(0)),),
    )


# ---------------------------------------------------------------------------
# functional equation


def gamma_f(spec: GlobalSpec) -> complex:
    """Product of the local quadratic Gauss phases over the listed places."""
    out = weil_index_arch(spec.arch)
    for p, a, b in spec.finite:
        out *= weil_index_padic(a, b, p)
    return out


def idele_modulus(spec: GlobalSpec) -> float:
    """Product of |a_v| over the listed places (1 everywhere else)."""
    out = abs(spec.arch.a)
    for p, a, _ in spec.finite:
        out *= float(p) ** (-valuation(Fraction(a), p))
    return out


def global_fe_residual(spec: GlobalSpec, s: complex) -> float:
    """Defect of the reflection law, relative to 1 + |value|.

    Xi(s) against gamma_f |a|^(1/2-s) conj(Xi(1 - conj(s))).  Only the
    principal character is in scope: its local root numbers multiply
    out to exactly gamma_f |a|^(1/2-s).
    """
    if not spec.chi.is_principal:
        raise DomainError(
            "functional equation verification covers the principal "
            "character only"
        )
    s = complex(s)
    fact = spec._factorization
    direct = fact.evaluate(s)
    implied = fact.evaluate_reflected(s)
    return abs(direct - implied) / (1.0 + abs(direct))


# ---------------------------------------------------------------------------
# zero classification


@dataclass(frozen=True)
class ZeroClass:
    """Where a zero of the assembled product comes from.

    kind is "local" (a listed place's factor vanishes; place recorded),
    "global" (attributed to the L factor), or "rejected" (a zero of a
    correction term that cancels against the local pole, so not a zero
    of the product at all).
    """

    kind: str
    place: object = None


def _vanishes_nearby(value: complex, probe_values) -> bool:
    scale = max(abs(v) for v in probe_values)
    if scale == 0.0:
        return True
    return abs(value) <= _VANISH_RATIO * scale


def classify_zero(report: ZeroReport, spec: GlobalSpec) -> ZeroClass:
    """Attribute a certified zero to a place, to L, or reject it.

    Rejection implements the cancellation rule: a zero of a correction
    term 1 - chi(p) p^(-s) coincides with the local pole it cancels, so
    unless the entire numerator at p vanishes there too, the point is
    not a zero of the product.
    """
    if not report.certified:
        raise UncertifiedError(
            "refusing to classify an uncertified zero report"
        )
    fact = spec._factorization
    if fact.identically_zero:
        raise DomainError("the assembled product vanishes identically")
    z = complex(report.location)
    probes = (z + 0.071 + 0.037j, z - 0.059 + 0.043j)

    for p in fact.correction_primes:
        if abs(fact.correction_term(p, z)) <= _CORR_TOL:
            lf = fact.local_parts[p]
            entire = lf.entire_eval(z)
            entire_probes = [lf.entire_eval(w) for w in probes]
            if not _vanishes_nearby(entire, entire_probes):
                return ZeroClass(kind="rejected", place=p)

    arch_val = fact.arch_value(z)
    arch_probes = [fact.arch_value(w) for w in probes]
    if _vanishes_nearby(arch_val, arch_probes):
        return ZeroClass(kind="local", place="inf")

    for p, lf in fact.local_parts.items():
        val = lf.entire_eval(z)
        vals = [lf.entire_eval(w) for w in probes]
        # an entire-numerator zero on the correction lattice was already
        # handled above; anything else vanishing here is a local zero
        if _vanishes_nearby(val, vals):
            return ZeroClass(kind="local", place=p)

    return ZeroClass(kind="global", place=None)
