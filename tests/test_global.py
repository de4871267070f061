"""Global assembly: reference identity, functional equation, classification."""

import cmath
import math
from fractions import Fraction as F

import pytest

from weakmellin import global_zeta
from weakmellin.arch_zeta import Real
from weakmellin.errors import DomainError, PoleError, UncertifiedError
from weakmellin.global_zeta import (
    GlobalSpec,
    ZeroClass,
    assemble_xi_f,
    classify_zero,
    factorize_global,
    gamma_f,
    global_fe_residual,
    idele_modulus,
    reference_spec,
    xi_f_reference,
)
from weakmellin.padic_zeta import local_factor
from weakmellin.specfun import characters
from weakmellin.zero_engine import ZeroReport, exp_poly_roots, line_zeros

S_GRID = [0.3 + 5j, 0.5, 0.8 - 2j, 2.0, 1.7 - 3j, 0.25 + 11j]


def _chi(q, predicate):
    return next(c for c in characters(q) if predicate(c))


# ---------------------------------------------------------------------------
# reference identity and assembly modes


def test_assembly_matches_reference_closed_form():
    spec = reference_spec()
    for s in S_GRID:
        value, fact = assemble_xi_f(spec, s)
        want = xi_f_reference(s)
        assert abs(value - want) <= 1e-10 * max(1.0, abs(want))


def test_reference_pole_guards():
    with pytest.raises(PoleError):
        xi_f_reference(1.0)
    with pytest.raises(PoleError):
        xi_f_reference(0.0)


def test_euler_product_agrees_within_tail_bound():
    spec = reference_spec()
    fact = factorize_global(spec)
    s = 2.0 + 0.0j
    direct = fact.euler_product(s)
    smooth = fact.evaluate(s)
    bound = fact.euler_tail_bound(s)
    assert bound < 1e-5
    assert abs(direct - smooth) <= 2.0 * bound * abs(smooth)


def test_euler_product_needs_right_half_plane():
    fact = factorize_global(reference_spec())
    with pytest.raises(DomainError):
        fact.euler_product(0.9)
    with pytest.raises(DomainError):
        fact.euler_tail_bound(1.0)


def test_unknown_mode_rejected():
    with pytest.raises(DomainError):
        assemble_xi_f(reference_spec(), 2.0, mode="guesswork")


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
    assert abs(fact.correction_term(2, s)) < 1e-12


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
    assert fact.euler_product(2.5) == 0j


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


# ---------------------------------------------------------------------------
# zero location and classification


def _scan_reference(lo, hi):
    spec = reference_spec()
    fact = factorize_global(spec)
    return spec, line_zeros(fact.evaluate, 0.5, lo, hi, samples=2048)


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
        classify_zero(ZeroReport(complex(0.5, im), 1, "Winding+Bisection", True, 0.0),
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


def test_classify_rejects_correction_lattice_point():
    spec = GlobalSpec(
        arch=Real(1.0, 0.0),
        finite=((2, F(1), F(0)), (3, F(1), F(0))),
    )
    z = complex(0.0, 2.0 * math.pi / math.log(3.0))
    probe = ZeroReport(
        location=z, multiplicity=1, method="CompanionRoots",
        certified=True, residual=0.0,
    )
    got = classify_zero(probe, spec)
    assert got == ZeroClass(kind="rejected", place=3)


def test_classify_refuses_uncertified():
    spec = reference_spec()
    probe = ZeroReport(
        location=0.5 + 14.13j, multiplicity=1, method="Winding+Bisection",
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
        location=0.5 + 2j, multiplicity=1, method="Winding+Bisection",
        certified=True, residual=0.0,
    )
    with pytest.raises(DomainError):
        classify_zero(probe, spec)
