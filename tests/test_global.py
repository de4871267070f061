"""Global assembly: reference identity, functional equation, classification."""

import cmath
import math
from fractions import Fraction as F
from functools import lru_cache

import numpy as np
import pytest

from weakmellin import global_zeta
from weakmellin.arch_zeta import Real, zeta_real
from weakmellin.errors import DomainError, PoleError, UncertifiedError
from weakmellin.global_zeta import (
    GlobalSpec,
    classify_zero,
    factorize_global,
    gamma_f,
    global_fe_residual,
    idele_modulus,
    reference_spec,
)
from weakmellin.padic_zeta import local_factor
from weakmellin.specfun import _factorize, characters, completed_xi
from weakmellin.zero_engine import (
    ZeroReport,
    census,
    exp_poly_roots,
    line_zeros,
    zeros_in_window,
)

S_GRID = [0.3 + 5j, 0.5, 0.8 - 2j, 2.0, 1.7 - 3j, 0.25 + 11j]


def _chi(q, predicate):
    return next(c for c in characters(q) if predicate(c))


# ---------------------------------------------------------------------------
# reference identity and assembly modes

_EULER_PRIME_LIMIT = 100_000


def _xi_f_reference(s: complex) -> complex:
    """Closed form of the completed transform for the standard pair.

    The dyadic bracket times the completed zeta; poles only at 0 and 1.
    """
    s = complex(s)
    bracket = 2.0 ** (1.0 - s) * (1.0 - 2.0 ** (s - 1.0)) + cmath.exp(
        0.25j * math.pi
    ) * 2.0**s * (1.0 - 2.0 ** (-s))
    return cmath.exp(-0.25j * math.pi * s) * bracket * completed_xi(s)


@lru_cache(maxsize=4)
def _primes_below(limit: int) -> np.ndarray:
    sieve = np.ones(limit, dtype=bool)
    sieve[:2] = False
    for p in range(2, int(limit**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.nonzero(sieve)[0].astype(float)


def _euler_product(fact, s: complex) -> complex:
    """Xi of a factorization as a direct product over the primes below
    _EULER_PRIME_LIMIT, an independent route for Re(s) > 1."""
    if fact.identically_zero:
        return 0.0 + 0.0j
    s = complex(s)
    if s.real <= 1.0:
        raise DomainError("euler product mode needs Re(s) > 1")
    chi = fact.spec.chi
    out = fact.arch_value(s)
    for lf in fact.local_parts.values():
        out *= lf.evaluate(s)
    skip = set(fact.local_parts) | set(chi._primes)
    primes = _primes_below(_EULER_PRIME_LIMIT)
    chi_vals = np.array([chi(int(p)) for p in primes])
    mask = np.array([int(p) not in skip for p in primes])
    pool = primes[mask]
    terms = 1.0 - chi_vals[mask] * np.exp(-s * np.log(pool))
    return out * complex(1.0 / np.prod(terms))


def _euler_tail_bound(s: complex) -> float:
    """Crude bound on the log of the omitted tail of the product."""
    sigma = complex(s).real
    if sigma <= 1.0:
        raise DomainError("euler product mode needs Re(s) > 1")
    # sum_{p > P} p^-sigma <= integral + first-term slack
    return 2.0 * _EULER_PRIME_LIMIT ** (1.0 - sigma) / (
        (sigma - 1.0) * math.log(_EULER_PRIME_LIMIT)
    )


def test_assembly_matches_reference_closed_form():
    spec = reference_spec()
    for s in S_GRID:
        value = spec._factorization.evaluate(s)
        want = _xi_f_reference(s)
        assert abs(value - want) <= 1e-10 * max(1.0, abs(want))


def test_reference_pole_guards():
    with pytest.raises(PoleError):
        _xi_f_reference(1.0)
    with pytest.raises(PoleError):
        _xi_f_reference(0.0)


def test_euler_product_agrees_within_tail_bound():
    spec = reference_spec()
    fact = factorize_global(spec)
    s = 2.0 + 0.0j
    direct = _euler_product(fact, s)
    smooth = fact.evaluate(s)
    bound = _euler_tail_bound(s)
    assert bound < 1e-5
    assert abs(direct - smooth) <= 2.0 * bound * abs(smooth)


def test_euler_product_needs_right_half_plane():
    fact = factorize_global(reference_spec())
    with pytest.raises(DomainError):
        _euler_product(fact, 0.9)
    with pytest.raises(DomainError):
        _euler_tail_bound(1.0)


def test_pole_structure_is_simple_at_zero_and_one():
    # s (1 - s) Xi stays bounded on small punctured circles around 0, 1
    fact = factorize_global(reference_spec())
    for center in (0.0, 1.0):
        vals = []
        for k in range(8):
            s = center + 3e-4 * cmath.exp(2j * math.pi * (k + 0.5) / 8)
            vals.append(abs(s * (1.0 - s) * fact.evaluate(s)))
        assert max(vals) < 10.0
        assert min(vals) > 1e-6  # genuinely simple, not removable


def test_correction_zero_is_not_a_pole_of_the_assembly():
    # the correction zero cancels the local pole; evaluation sails through
    fact = factorize_global(reference_spec())
    s = complex(0.0, 2.0 * math.pi / math.log(2.0))
    value = fact.evaluate(s)
    assert abs(value) < 1e3
    assert abs(1.0 - 2.0 ** (-s)) < 1e-12


# ---------------------------------------------------------------------------
# functional equation


def test_fe_residual_small_on_grid():
    spec = reference_spec()
    for s in (0.3 + 5j, 0.7 - 2j, 0.25 + 11j, 1.8 + 0.4j):
        assert global_fe_residual(spec, s) <= 1e-9


def test_fe_fixed_point():
    assert global_fe_residual(reference_spec(), 0.5) <= 1e-10


def test_fe_covariant_under_local_rescale():
    # a -> 4a at the place 2 changes gamma_f and |a| but not the defect
    spec = GlobalSpec(arch=Real(1.0, 0.0), finite=((2, F(4), F(0)),))
    assert abs(idele_modulus(spec) - 0.25) < 1e-15
    for s in (0.3 + 5j, 0.6 - 1j, 0.5):
        assert global_fe_residual(spec, s) <= 1e-9


def test_fe_requires_principal_character():
    chi3 = _chi(3, lambda c: not c.is_principal)
    spec = GlobalSpec(
        arch=Real(1.0, 0.5),
        finite=((2, F(1), F(0)), (3, F(1), F(1, 3))),
        chi=chi3,
    )
    with pytest.raises(DomainError):
        global_fe_residual(spec, 0.4 + 1j)


def test_gamma_f_unit_modulus_and_reference_value():
    spec = reference_spec()
    g = gamma_f(spec)
    assert abs(abs(g) - 1.0) <= 1e-12
    assert abs(g - 1.0) <= 1e-12  # opposite eighth-turns at inf and 2
    assert idele_modulus(spec) == 1.0


def test_reflected_evaluation_matches_direct():
    fact = factorize_global(reference_spec())
    for s in (0.7 + 2j, 1.4 - 1j):
        direct = fact.evaluate(s)
        via_fe = fact.evaluate_reflected(s)
        assert abs(direct - via_fe) <= 1e-9 * (1.0 + abs(direct))


def test_no_zeros_at_minus_two_and_minus_four():
    # Gamma poles against trivial L zeros: finite nonzero values, reached
    # through the reflection to dodge the 0 * inf evaluation
    fact = factorize_global(reference_spec())
    for s in (-2.0, -4.0):
        val = fact.evaluate_reflected(s)
        assert abs(val) > 1e-3


# ---------------------------------------------------------------------------
# spec validation


def test_spec_requires_place_two():
    with pytest.raises(DomainError):
        GlobalSpec(arch=Real(1.0, 0.0), finite=((3, F(1), F(0)),))


def test_spec_rejects_duplicate_primes():
    with pytest.raises(DomainError):
        GlobalSpec(
            arch=Real(1.0, 0.0),
            finite=((2, F(1), F(0)), (2, F(2), F(0))),
        )


def test_spec_rejects_vanishing_coefficient():
    with pytest.raises(DomainError):
        GlobalSpec(
            arch=Real(1.0, 0.0), finite=((2, F(0), F(0)),)
        )


def test_spec_rejects_imprimitive_character():
    from weakmellin.specfun import DirichletCharacter

    chi0_mod4 = DirichletCharacter.principal(4)
    with pytest.raises(DomainError):
        GlobalSpec(
            arch=Real(1.0, 0.0), finite=((2, F(1), F(0)),), chi=chi0_mod4
        )


def test_spec_requires_ramified_primes_listed():
    chi3 = _chi(3, lambda c: not c.is_principal)
    with pytest.raises(DomainError):
        GlobalSpec(
            arch=Real(1.0, 0.5), finite=((2, F(1), F(0)),), chi=chi3
        )


# ---------------------------------------------------------------------------
# degenerate assemblies


def test_odd_character_even_phase_vanishes_identically():
    chi3 = _chi(3, lambda c: not c.is_principal)
    spec = GlobalSpec(
        arch=Real(1.0, 0.0),
        finite=((2, F(1), F(0)), (3, F(1), F(1, 3))),
        chi=chi3,
    )
    fact = factorize_global(spec)
    assert fact.identically_zero
    assert fact.evaluate(0.7 + 2j) == 0j
    assert _euler_product(fact, 2.5) == 0j


def test_ramified_assembly_engages_local_character():
    chi3 = _chi(3, lambda c: not c.is_principal)
    spec = GlobalSpec(
        arch=Real(1.0, 0.5),
        finite=((2, F(1), F(0)), (3, F(1), F(1, 3))),
        chi=chi3,
    )
    fact = factorize_global(spec)
    assert fact.local_parts[3].kind in ("ramified", "vanishing")
    assert fact.correction_primes == (2,)
    if not fact.identically_zero:
        assert abs(fact.evaluate(0.6 + 1.5j)) > 0.0


def test_dyadic_ramification_out_of_scope():
    chi4 = _chi(4, lambda c: not c.is_principal)
    spec = GlobalSpec(
        arch=Real(1.0, 0.5), finite=((2, F(1), F(0)),), chi=chi4
    )
    with pytest.raises(DomainError):
        factorize_global(spec)


def test_dyadic_ramification_dead_shortcut_still_works():
    # with b = 0 the archimedean rule fires before the 2-adic character
    # would be needed, so the degenerate case stays in scope
    chi4 = _chi(4, lambda c: not c.is_principal)
    spec = GlobalSpec(
        arch=Real(1.0, 0.0), finite=((2, F(1), F(0)),), chi=chi4
    )
    fact = factorize_global(spec)
    assert fact.identically_zero


@pytest.mark.parametrize("q", [15, 21, 45, 63, 75, 105])
def test_local_character_component_is_the_restriction(q):
    # the component read off the generator agrees with chi at the CRT lift
    # (u mod p^n, 1 mod the rest of q) of every unit u mod p^n
    seen = 0
    for chi in characters(q):
        if not chi.is_primitive:
            continue
        for p, n in _factorize(q):
            mod_p = p**n
            rest = q // mod_p
            comp = global_zeta._local_character_component(chi, p, n)
            assert comp.conductor_exponent == n
            for u in range(1, mod_p):
                if u % p == 0:
                    continue
                lift = next(x for x in range(u, q * mod_p, mod_p) if x % rest == 1 % rest)
                assert comp.phase(u) == chi.phase(lift)
            seen += 1
    assert seen > 0


def test_local_character_component_at_two_is_out_of_scope():
    chi12 = _chi(12, lambda c: c.is_primitive)
    with pytest.raises(DomainError, match="p = 2 are out of scope"):
        global_zeta._local_character_component(chi12, 2, 2)


# ---------------------------------------------------------------------------
# zero location and classification


def _scan_reference(lo, hi):
    spec = reference_spec()
    fact = factorize_global(spec)
    return spec, line_zeros(fact.evaluate, 0.5, lo, hi, samples=2048)


def test_scan_certifies_a_zero_next_to_the_height_cap():
    # a zero at Im s = 59.9935: the dip circle of radius 0.01 about it
    # reaches past |Im s| = 60, where the zeta functions refuse to go, so
    # that circle is called alone and left uncounted, and its retry of
    # radius 0.0025 stays below the cap and certifies the zero
    chi = next(c for c in characters(7) if c.index == (4,))
    spec = GlobalSpec(arch=Real(0.6649203759849425, 0.0),
                      finite=((2, F(2), F(0)), (7, F(3, 2), F(1, 7))), chi=chi)
    reports = line_zeros(factorize_global(spec).evaluate, 0.5, 59.0, 60.0,
                         samples=2048)
    top = [r for r in reports if r.location.imag > 59.99]
    assert len(top) == 1 and top[0].certified
    assert abs(top[0].location - (0.5 + 59.99346607610423j)) <= 1e-9


def test_reference_strip_zero_census():
    spec, reports = _scan_reference(1.0, 30.0)
    assert len(reports) == 9
    labels = []
    for rep in reports:
        assert rep.certified
        assert abs(rep.location.real - 0.5) <= 1e-6
        labels.append(classify_zero(rep, spec))
    kinds = [(c.kind, c.place) for c in labels]
    # interleaving pattern: dyadic bracket family around the L zeros
    assert kinds.count(("local", 2)) == 6
    assert kinds.count(("global", None)) == 3
    glob_ims = [
        r.location.imag for r, c in zip(reports, labels) if c.kind == "global"
    ]
    for got, want in zip(glob_ims, (14.1347, 21.0220, 25.0109)):
        assert abs(got - want) <= 2e-4


# (p, k, a): the winding count of each dense two-place spec
# ((2, 1, 0), (p, a, p^-k)) that censuses on -0.1 <= Re s <= 1.1,
# 1 <= Im s <= 40.  The other 64 specs of the grid p in {3, 5, 7, 11, 101,
# 1009, 10007}, k in {1, 2, 3, 4, 6, 8, 12, 20}, a in {1, 2} fail at the
# winding count or at a line report; the set that censuses may only grow
_CORPUS_COUNTS = {
    (3, 1, 1): 27, (3, 1, 2): 27, (3, 2, 1): 41, (3, 2, 2): 41, (3, 3, 1): 54,
    (3, 4, 1): 68, (3, 4, 2): 68, (3, 6, 1): 95, (3, 6, 2): 95, (3, 8, 2): 123,
    (3, 12, 1): 177, (3, 12, 2): 177,
    (5, 1, 1): 34, (5, 1, 2): 34, (5, 2, 1): 54, (5, 2, 2): 54, (5, 3, 1): 74,
    (5, 3, 2): 74, (5, 4, 1): 94, (5, 4, 2): 94, (5, 6, 1): 134, (5, 6, 2): 134,
    (5, 8, 1): 174,
    (7, 1, 1): 38, (7, 1, 2): 38, (7, 2, 1): 62, (7, 2, 2): 62, (7, 3, 1): 87,
    (7, 3, 2): 87, (7, 4, 1): 111, (7, 4, 2): 110, (7, 6, 1): 159, (7, 6, 2): 159,
    (11, 1, 1): 44, (11, 1, 2): 44, (11, 2, 1): 74, (11, 2, 2): 73, (11, 3, 1): 103,
    (11, 3, 2): 103, (11, 4, 1): 133, (11, 4, 2): 133,
    (101, 1, 1): 71, (101, 1, 2): 71, (101, 2, 1): 129, (101, 2, 2): 129,
    (1009, 1, 1): 100, (1009, 1, 2): 100,
    (10007, 1, 1): 129,
}


@pytest.mark.parametrize("p, k, a", list(_CORPUS_COUNTS))
def test_dense_two_place_spec_censuses(p, k, a):
    # a regression in the scan or the box count of a dense product shows
    # here, where no single factor fails
    spec = GlobalSpec(arch=Real(1.0, 0.0), finite=((2, F(1), F(0)), (p, F(a), F(1, p**k))))
    _, count = census(factorize_global(spec).evaluate, (-0.1, 1.1, 1, 40), poles=(0, 1))
    assert count == _CORPUS_COUNTS[p, k, a]


def test_family_zeros_match_companion_roots():
    spec, reports = _scan_reference(1.0, 12.0)
    fact = factorize_global(spec)
    base = exp_poly_roots(fact.local_parts[2])
    period = 2.0 * math.pi / math.log(2.0)
    family = [
        r for r in reports
        if classify_zero(r, spec).kind == "local"
    ]
    assert family
    for rep in family:
        folded = rep.location.imag % period
        assert any(
            abs(folded - b.location.imag) <= 1e-6
            or abs(abs(folded - b.location.imag) - period) <= 1e-6
            for b in base
        )


def test_classification_builds_the_factors_once_per_spec(monkeypatch):
    built = []

    def counting_local_factor(*args, **kwargs):
        built.append(args[2])
        return local_factor(*args, **kwargs)

    monkeypatch.setattr(global_zeta, "local_factor", counting_local_factor)
    # a list of places: the spec cannot be hashed, and still keeps its
    # factorization
    spec = GlobalSpec(
        arch=Real(1.0, 0.0), finite=[(2, F(1), F(0)), (3, F(1), F(1, 3))]
    )
    zeros = (7.259065041117216, 9.737285490734761, 14.134725141734693)
    kinds = [
        classify_zero(ZeroReport(complex(0.5, im), 1, "CauchyCircle", True, 0.0),
                      spec).kind
        for im in zeros
    ]
    assert kinds == ["local", "local", "global"]
    assert sorted(built) == [2, 3]


def test_three_way_classification_with_deeper_place():
    # an extra depth-one place at 3 adds its own zero family
    spec = GlobalSpec(
        arch=Real(1.0, 0.0),
        finite=((2, F(1), F(0)), (3, F(1), F(1, 3))),
    )
    fact = factorize_global(spec)
    reports = line_zeros(fact.evaluate, 0.5, 1.0, 15.0, samples=2048)
    labels = [classify_zero(r, spec) for r in reports]
    kinds = {(c.kind, c.place) for c in labels}
    assert ("local", 2) in kinds
    assert ("local", 3) in kinds
    assert ("global", None) in kinds

    base3 = exp_poly_roots(fact.local_parts[3])
    period3 = 2.0 * math.pi / math.log(3.0)
    for rep, c in zip(reports, labels):
        assert rep.certified
        assert abs(rep.location.real - 0.5) <= 1e-6
        if c.kind == "local" and c.place == 3:
            folded = rep.location.imag % period3
            assert any(
                abs(folded - b.location.imag) <= 1e-6
                or abs(abs(folded - b.location.imag) - period3) <= 1e-6
                for b in base3
            )


@pytest.mark.parametrize("spec,n_arch", [
    (GlobalSpec(Real(0.5, 1.5), ((2, 1, F(1, 2)),)), 10),
    (GlobalSpec(Real(1.0, 0.3), ((2, 1, 0), (3, 1, F(1, 27)))), 2),
], ids=["arch-only", "arch-and-two-places"])
def test_archimedean_zeros_are_labelled_by_the_real_place(spec, n_arch):
    # with b != 0 the archimedean factor has zeros of its own: the "inf"
    # labels are exactly the zeros of zeta_real scanned alone, and each
    # place's labels exactly the zeros of its own factor
    fact = factorize_global(spec)
    reports = line_zeros(fact.evaluate, 0.5, 1.0, 58.0, samples=4096)
    assert reports and all(r.certified for r in reports)
    labels = [classify_zero(r, spec) for r in reports]

    def heights(place):
        return [r.location.imag for r, c in zip(reports, labels)
                if c.kind == "local" and c.place == place]

    arch = line_zeros(lambda s: zeta_real(spec.arch.a, spec.arch.b, s),
                      0.5, 1.0, 58.0, samples=4096)
    assert len(arch) == n_arch and all(r.certified for r in arch)
    want = {"inf": [r.location.imag for r in arch]}
    for p, lf in fact.local_parts.items():
        want[p] = [r.location.imag for r in zeros_in_window(lf, 1.0, 58.0)]
    for place, ims in want.items():
        got = heights(place)
        assert len(got) == len(ims), place
        assert all(abs(g - w) <= 1e-9 for g, w in zip(got, ims)), place
    assert sum(c.kind == "global" for c in labels) == len(reports) - sum(map(len, want.values()))


def test_classify_refuses_uncertified():
    spec = reference_spec()
    probe = ZeroReport(
        location=0.5 + 14.13j, multiplicity=1, method="CauchyCircle",
        certified=False, residual=1e-3,
    )
    with pytest.raises(UncertifiedError):
        classify_zero(probe, spec)


def test_classify_refuses_identically_zero_assembly():
    chi3 = _chi(3, lambda c: not c.is_principal)
    spec = GlobalSpec(
        arch=Real(1.0, 0.0),
        finite=((2, F(1), F(0)), (3, F(1), F(1, 3))),
        chi=chi3,
    )
    probe = ZeroReport(
        location=0.5 + 2j, multiplicity=1, method="CauchyCircle",
        certified=True, residual=0.0,
    )
    with pytest.raises(DomainError):
        classify_zero(probe, spec)
