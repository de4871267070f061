"""Special-function layer against independent references.

mpmath is the numerical reference here; the library itself never imports it.
"""

import cmath
import math
import random
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weakmellin import specfun as sf
from weakmellin.errors import DomainError, PoleError, PrecisionWarning

mp.mp.dps = 30


GAMMA_POINTS = [
    0.5,
    3.7,
    1.0,
    12.25,
    2 - 5j,
    0.3 + 59j,
    -4.3 + 0.2j,
    -0.5,
    -7.8 - 3j,
    7.5 + 30j,
    0.001 + 0.001j,
]


def test_gamma_matches_reference_on_grid():
    for z in GAMMA_POINTS:
        ref = complex(mp.gamma(z))
        assert abs(sf.gamma(z) - ref) <= 5e-13 * abs(ref), z


def test_log_gamma_exponentiates_to_gamma():
    for z in GAMMA_POINTS:
        assert cmath.isclose(
            cmath.exp(sf.log_gamma(z)), complex(mp.gamma(z)), rel_tol=5e-13
        )


@pytest.mark.parametrize("z", [0.0, -1.0, -6.0, -3 + 1e-10j, -2.0000000001])
def test_gamma_pole_raises(z):
    with pytest.raises(PoleError):
        sf.log_gamma(z)


@settings(max_examples=60, deadline=None)
@given(
    st.complex_numbers(
        min_magnitude=0.1, max_magnitude=20, allow_nan=False, allow_infinity=False
    )
)
def test_gamma_recurrence(z):
    # Gamma(z+1) = z Gamma(z); skip accidental pole hits
    if sf._near_nonpositive_int(z) or sf._near_nonpositive_int(z + 1):
        return
    lhs = sf.gamma(z + 1)
    rhs = z * sf.gamma(z)
    assert abs(lhs - rhs) <= 1e-11 * max(abs(lhs), abs(rhs), 1e-200)


@pytest.mark.parametrize("z", [-1 + 5.960464477539063e-08j, -3.0000001, -7 + 1e-6j])
def test_gamma_next_to_a_pole_keeps_its_relative_accuracy(z):
    ref = complex(mp.gamma(z))
    assert abs(sf.gamma(z) - ref) <= 1e-13 * abs(ref)


def test_gamma_ratio_denominator_pole_gives_zero():
    assert sf.gamma_ratio(2.5, -3.0) == 0


def test_gamma_ratio_numerator_pole_raises():
    with pytest.raises(PoleError):
        sf.gamma_ratio(-1.0, 2.5)
    with pytest.raises(PoleError):
        sf.gamma_ratio(-1.0, -2.0)


def test_gamma_ratio_generic_value():
    ref = complex(mp.gamma(2.5 + 1j) / mp.gamma(0.25 - 2j))
    assert abs(sf.gamma_ratio(2.5 + 1j, 0.25 - 2j) - ref) <= 1e-12 * abs(ref)


ZETA_POINTS = [2.0, 3 + 0.5j, 0.5 + 59j, -3.7, -0.4 + 2j, 1.001, 0.25 - 30j, -10.5]


def test_riemann_zeta_matches_reference():
    for s in ZETA_POINTS:
        ref = complex(mp.zeta(s))
        assert abs(sf.riemann_zeta(s) - ref) <= 1e-12 * max(abs(ref), 1.0), s


def test_riemann_zeta_absolute_accuracy_near_first_zero():
    s = 0.5 + 14.134725j
    assert abs(sf.riemann_zeta(s) - complex(mp.zeta(s))) < 1e-13


def test_riemann_zeta_pole_and_domain_guards():
    with pytest.raises(PoleError):
        sf.riemann_zeta(1.0 + 1e-8j)
    with pytest.raises(DomainError):
        sf.riemann_zeta(2.0 + 61j)


def test_hurwitz_matches_reference():
    for s, a in [(2.5, 0.3), (0.5 + 30j, 0.7), (-0.3 + 5j, 0.123), (1.7, 1.0), (4.0, 0.011)]:
        ref = complex(mp.zeta(s, a))
        assert abs(sf.hurwitz_zeta(s, a) - ref) <= 1e-12 * max(abs(ref), 1.0)


def test_hurwitz_skip_pole_is_exact_pole_subtraction():
    s = 1.3 + 2j
    a = 0.4
    full = sf.hurwitz_zeta(s, a)
    cut = sf.hurwitz_zeta(s, a, skip_pole=True)
    assert abs(full - cut - 1.0 / (s - 1.0)) < 1e-13


def test_hurwitz_skip_pole_smooth_through_one():
    a = 0.4
    v0 = sf.hurwitz_zeta(1.0, a, skip_pole=True)
    v1 = sf.hurwitz_zeta(1.0 + 1e-9, a, skip_pole=True)
    assert abs(v0 - v1) < 1e-7


def test_hurwitz_guards():
    with pytest.raises(DomainError):
        sf.hurwitz_zeta(2.0, 1.5)
    with pytest.raises(DomainError):
        sf.hurwitz_zeta(-0.9, 0.5)
    with pytest.raises(PoleError):
        sf.hurwitz_zeta(1.0, 0.5)


def test_hyp1f1_matches_reference_moderate_argument():
    cases = [
        (0.5, 0.5, 3.2j),
        (1.25 - 2j, 0.5, -7j),
        (2.5, 1.5, 11j),
        (0.5 + 7j, 3, 12 - 4j),
        (-2.0, 1.5, 5.5j),
    ]
    for a, b, z in cases:
        ref = complex(mp.hyp1f1(a, b, z))
        assert abs(sf.hyp1f1(a, b, z) - ref) <= 1e-11 * max(abs(ref), 1e-3)


def test_hyp1f1_domain_cap():
    with pytest.raises(DomainError):
        sf.hyp1f1(0.5, 0.5, 41j)


def test_hyp1f1_pole_in_lower_parameter():
    with pytest.raises(PoleError):
        sf.hyp1f1(0.5, -2.0, 1.0j)


def test_hyp1f1_heavy_cancellation_is_rescued():
    # 39j sits just under the argument cap; the partial sums exceed the
    # value by 6e15, so a double-precision series would keep no digit.
    ref = complex(mp.hyp1f1(2.5, 1.5, 39j))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        val = sf.hyp1f1(2.5, 1.5, 39j)
    assert abs(val - ref) <= 1e-10 * abs(ref)


def _count_decimal_calls(monkeypatch):
    calls = []
    original = sf._hyp1f1_decimal

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(sf, "_hyp1f1_decimal", counted)
    return calls


def test_hyp1f1_fixed_point_pass_covers_ratio_6e15(monkeypatch):
    calls = _count_decimal_calls(monkeypatch)
    q = sf.hyp1f1_eval(2.5, 1.5, 39j)
    assert q.cancellation_ratio > 1e15
    assert calls == []


def test_hyp1f1_decimal_tier_fires_beyond_128_bits(monkeypatch):
    # Im a = 30 at |z| = 40: the partial sums exceed the value by ~1e32
    calls = _count_decimal_calls(monkeypatch)
    q = sf.hyp1f1_eval(0.25 + 30j, 0.5, 40j)
    assert q.cancellation_ratio > 1e30
    assert len(calls) == 1
    with mp.workdps(60):
        ref = complex(mp.hyp1f1(0.25 + 30j, 0.5, 40j))
    assert abs(q.value - ref) <= 1e-12 * abs(ref)


def test_hyp1f1_warns_when_digit_budget_caps_out(monkeypatch):
    monkeypatch.setattr(sf, "_HYP_MAX_DIGITS", 12)
    with pytest.warns(PrecisionWarning):
        sf.hyp1f1(0.25 + 30j, 0.5, 40j)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.5, math.nan)])
@pytest.mark.parametrize("slot", ["a", "b", "z"])
def test_hyp1f1_rejects_non_finite_arguments(slot, bad):
    args = {"a": 0.5 + 1j, "b": 1.5, "z": 2j}
    args[slot] = bad
    with pytest.raises(DomainError):
        sf.hyp1f1_eval(**args)


def _criterion_5_kummer_points():
    # every 4th point of the 2048-point scans of acceptance criterion 5:
    # s = 1/2 + it, t in [0, 40], z = i pi b^2 / a, both characters
    ts = np.linspace(0.0, 40.0, 2048)[::4].tolist()
    points = []
    for a, b in ((1.0, 1.0), (2.0, 0.5), (0.5, 1.5)):
        z = 1j * math.pi * b * b / a
        for t in ts:
            s = complex(0.5, t)
            points.append((0.5 * s, 0.5, z))
            points.append((0.5 * (s + 1), 1.5, z))
    return points


def _assert_matches_mpmath(points, rel):
    worst = 0.0
    with mp.workdps(50):
        for a, b, z in points:
            ref = complex(mp.hyp1f1(a, b, z))
            worst = max(worst, abs(sf.hyp1f1(a, b, z) - ref) / abs(ref))
    assert worst <= rel


def test_hyp1f1_matches_mpmath_on_criterion_5_scans():
    _assert_matches_mpmath(_criterion_5_kummer_points(), 1e-12)


def test_hyp1f1_matches_mpmath_near_argument_cap():
    rng = random.Random(4)
    points = [
        (
            complex(rng.choice((0.25, 0.75)), rng.uniform(0.0, 20.0)),
            rng.choice((0.5, 1.5)),
            complex(0.0, rng.uniform(34.0, 40.0)),
        )
        for _ in range(100)
    ]
    _assert_matches_mpmath(points, 1e-12)


def test_hyp1f1_eval_quality_fields():
    q = sf.hyp1f1_eval(0.5, 1.5, 2j)
    assert q.terms_used > 3
    assert q.cancellation_ratio >= 1.0
    assert abs(q.value - complex(mp.hyp1f1(0.5, 1.5, 2j))) < 1e-13


@pytest.mark.parametrize("a", [0.5, 1.0 + 2.0j, -3.0 - 1.0j, 0.0, 1e300])
@pytest.mark.parametrize("b", [0.5, 2.0 + 1.0j, -3.0, -5.0, -1.0 + 1.5e-12, -0.5j])
@pytest.mark.parametrize("z", [0.0, -0.0, complex(-0.0, -0.0)])
def test_hyp1f1_at_zero_argument_is_exactly_one(a, b, z):
    # the fields the full series produces at z = 0: sum 1 (imaginary
    # part +0.0), no cancellation, three terms before it stops; past
    # b = -2 the series never meets its pole
    q = sf.hyp1f1_eval(a, b, z)
    assert q == sf.EvalQuality(value=1.0 + 0.0j, cancellation_ratio=1.0, terms_used=3)
    assert math.copysign(1.0, q.value.imag) == 1.0


@pytest.mark.parametrize("b", [0.0, -1.0, -2.0, -1.0 + 5e-13, -2.0 - 5e-13j])
def test_hyp1f1_at_zero_argument_keeps_pole_test(b):
    # the series tests b + k for k = 0, 1, 2 before it stops at z = 0
    with pytest.raises(PoleError):
        sf.hyp1f1_eval(0.5, b, 0.0)


def test_euler_maclaurin_coefficients_are_the_exact_fractions():
    expect = tuple(
        float(sf._BERNOULLI[k - 1] / math.factorial(2 * k))
        for k in range(1, sf._EM_M + 1)
    )
    assert sf._EM_COEFFS == expect  # exact float equality


@settings(max_examples=40, deadline=None)
@given(
    st.floats(-3, 3),
    st.floats(-3, 3),
    st.floats(-8, 8),
    st.floats(-8, 8),
)
def test_hyp1f1_kummer_transform(ar, ai, zr, zi):
    # 1F1(a;b;z) = e^z 1F1(b-a;b;-z)
    a = complex(ar, ai)
    b = 1.75 + 0.5j
    z = complex(zr, zi)
    lhs = sf.hyp1f1(a, b, z)
    rhs = cmath.exp(z) * sf.hyp1f1(b - a, b, -z)
    assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1.0)


def test_character_count_and_orthogonality():
    for q in [5, 8, 12, 24]:
        chars = list(sf.characters(q))
        phi = sum(1 for n in range(1, q + 1) if math.gcd(n, q) == 1)
        assert len(chars) == phi
        for chi in chars:
            total = sum(chi(n) for n in range(q))
            expect = phi if chi.is_principal else 0.0
            assert abs(total - expect) < 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 1000), st.integers(1, 1000))
def test_character_multiplicativity(m, n):
    chi = sf.DirichletCharacter(45, (3, 1))
    assert abs(chi(m * n) - chi(m) * chi(n)) < 1e-13


def test_character_conductors_mod_twelve():
    # characters mod 12 have conductors 1, 3, 4, 12
    conds = sorted(chi.conductor for chi in sf.characters(12))
    assert conds == [1, 3, 4, 12]


def test_character_conductors_mod_eight():
    conds = sorted(chi.conductor for chi in sf.characters(8))
    assert conds == [1, 4, 8, 8]


def test_primitive_character_induces_original():
    for chi in sf.characters(24):
        prim = chi.primitive_character()
        assert prim.modulus == chi.conductor
        assert prim.is_primitive
        for n in range(1, 25):
            if math.gcd(n, 24) == 1:
                assert abs(prim(n) - chi(n)) < 1e-13


def test_character_parity_split():
    chars = list(sf.characters(5))
    evens = [c for c in chars if c.is_even]
    assert len(evens) == 2  # half of a cyclic group of order 4


@pytest.mark.parametrize("q", [1, 2, 5, 8, 12, 21])
def test_character_values_follow_the_exact_phase(q):
    for chi in sf.characters(q):
        for n in range(-q, 3 * q):
            ph = chi.phase(n)
            expect = 0.0 if ph is None else cmath.exp(2j * math.pi * float(ph))
            assert chi(n) == expect, (chi, n)


def test_dirichlet_l_against_direct_sum():
    chi = next(c for c in sf.characters(5) if not c.is_principal)
    direct = sum(chi(n) / n**2 for n in range(1, 200001))
    assert abs(sf.dirichlet_l(2.0, chi) - direct) < 1e-9


def test_dirichlet_l_principal_factors_through_zeta():
    chi0 = sf.DirichletCharacter.principal(6)
    s = 2.5 + 1j
    expect = sf.riemann_zeta(s) * (1 - 2.0 ** (-s)) * (1 - 3.0 ** (-s))
    assert abs(sf.dirichlet_l(s, chi0) - expect) < 1e-13


def test_dirichlet_l_nonprincipal_smooth_at_one():
    chi = sf.DirichletCharacter(5, (1,))
    assert abs(sf.dirichlet_l(1.0, chi) - sf.dirichlet_l(1.0 + 1e-7, chi)) < 1e-6


def test_completed_xi_functional_equation():
    for s in [0.3 + 2j, 0.5 + 14j, 2.2 - 1j, -1.7 + 0.4j]:
        resid = abs(sf.completed_xi(s) - sf.completed_xi(1 - s))
        assert resid <= 1e-12 * max(abs(sf.completed_xi(s)), 1e-6)


def test_completed_xi_finite_at_trivial_zero():
    # Gamma pole cancels the zeta trivial zero; value equals the s=3 value
    v = sf.completed_xi(-2.0)
    ref = complex(mp.pi ** -1.5 * mp.gamma(1.5) * mp.zeta(3))
    assert abs(v - ref) < 1e-13


def test_completed_xi_poles():
    for s in [0.0, 1.0, 1e-9 + 1e-9j]:
        with pytest.raises(PoleError):
            sf.completed_xi(s)
