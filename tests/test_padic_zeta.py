"""Closed-form local factors against the exact profile-sum oracle.

The oracle in weakmellin.oracle sums the unit-average profile directly with
provable truncation, so agreement here is a genuine dual-route check.
"""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from weakmellin import padic_core, padic_zeta
from weakmellin.errors import DomainError, PoleError
from weakmellin.oracle import oracle_padic_mellin, oracle_padic_vector
from weakmellin.padic_core import (
    psi_p,
    theta_additive,
    unit_average,
    unit_characters,
    valuation,
)
from weakmellin.padic_zeta import (
    _unramified,
    detect_escape_level,
    local_factor,
    local_factor_unramified,
    padic_vector_factor,
    qp2_special_eval,
    rescale_normal_form,
    rho0_gauss_sum,
    weil_index_padic,
)
from weakmellin.zero_engine import zeros_in_window

S_GRID = [0.3, 0.7, 1.5, 0.3 + 1j, 0.7 + 1j, 1.5 + 1j, 0.3 + 5j, 0.7 + 5j, 1.5 + 5j]

F = Fraction


# ------------------------------------------------------------ normalization


def test_rescale_targets_parity_window():
    for p in (2, 3, 5):
        for a in (1, 2, F(1, 2), F(3, 8), p, F(1, p**3)):
            for n_chi in (0, 1, 2):
                a_n, b_n, e_scale, delta = rescale_normal_form(a, 7, p, n_chi)
                assert delta in (0, 1)
                assert valuation(a_n, p) == -n_chi + delta
                c = F(p) ** (-e_scale)
                assert a_n == F(a) * c * c
                assert b_n == 7 * c


def test_escape_level_frozen():
    assert detect_escape_level(1, 0, 2) == 1
    assert detect_escape_level(1, 1, 2) == 1
    assert detect_escape_level(1, F(1, 2), 2) == 0  # the linear term cancels
    assert detect_escape_level(1, F(1, 9), 3) == 2
    assert detect_escape_level(F(1, 9), 0, 3) == 1
    assert detect_escape_level(1, 0, 5) == 0
    assert detect_escape_level(3**200, 0, 3) == -100


def _with_valuation(unit: int, v: int, p: int) -> Fraction:
    # a rational of valuation exactly v with a unit part built from `unit`
    return F(unit * p + 1, 2 * p + 1) * F(p) ** v


@settings(max_examples=300, deadline=None)
@given(
    p=st.sampled_from((2, 3, 5, 7)),
    va=st.one_of(st.integers(-8, 8), st.integers(120, 240)),
    vb=st.one_of(st.none(), st.integers(-10, 8), st.integers(100, 200)),
    ua=st.integers(-20, 20),
    ub=st.integers(-20, 20),
    cancel=st.booleans(),
)
def test_escape_level_is_where_theta_turns_one(p, va, vb, ua, ub, cancel):
    # the phase is trivial on p^j Z_p exactly when theta(p^j) = 1; any other
    # value has modulus at most p^(-1/2), so 1e-12 separates the two
    if p == 2 and cancel:
        va -= va % 2
        vb = va // 2 - 1  # the linear term cancels the half-integral square
    a = _with_valuation(ua, va, p)
    b = 0 if vb is None else _with_valuation(ub, vb, p)
    k = detect_escape_level(a, b, p)
    for j in range(k - 3, k + 3):
        one = abs(theta_additive(a, b, p, F(p) ** j) - 1.0) < 1e-12
        assert one == (j >= k), (j, k)


# ------------------------------------------------------- unramified factors


UNRAMIFIED_CASES = [
    (p, a, b)
    for p in (2, 3, 5, 7, 11)
    for a, b in [(1, 0), (1, 1), (1, F(1, p)), (p, 0), (F(1, p * p), F(1, p))]
] + [(2, 1, F(3, 8)), (2, F(1, 2), F(1, 4)), (3, 2, F(2, 3))]


@pytest.mark.parametrize("p,a,b", UNRAMIFIED_CASES)
def test_unramified_matches_oracle(p, a, b):
    lf = local_factor(a, b, p)
    for s in S_GRID:
        assert abs(lf.evaluate(s) - oracle_padic_mellin(a, b, p, s)) < 1e-12


def test_qp2_dual_route():
    lf = local_factor(1, 0, 2)
    assert lf.k == 1 and lf.delta == 0
    assert abs(lf.gamma - cmath.exp(1j * math.pi / 4)) < 1e-14
    for s in S_GRID:
        assert abs(qp2_special_eval(s) - lf.evaluate(s)) < 1e-13
    want = 2 * cmath.exp(1j * math.pi / 4)
    assert abs(qp2_special_eval(1) - want) < 1e-13


def test_gauss_phase_frozen_values():
    e8 = cmath.exp(1j * math.pi / 4)
    assert abs(weil_index_padic(1, 0, 2) - e8) < 1e-14
    assert abs(weil_index_padic(1, 1, 2) + e8) < 1e-14
    for p in (3, 5, 7, 11):
        assert abs(weil_index_padic(1, 0, p) - 1) < 1e-14


def _summed_phase(a, b, p, margin):
    # q^(k + delta/2) theta(p^(-k-delta)) of the normalized pair, from the
    # exact residue sum the oracles run, at the minimal coset level plus
    # margin: a route independent of weil_index_padic's closed form
    a_n, b_n, _, delta = rescale_normal_form(a, b, p)
    k = detect_escape_level(a_n, b_n, p)
    y = F(p) ** (-k - delta)
    return p ** (k + delta / 2.0) * theta_additive(a_n, b_n, p, y, margin=margin)


@settings(max_examples=200, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                       53, 101, 103, 997, 1009]),
    u=st.integers(1, 10**6),
    w=st.integers(1, 10**6),
    v=st.integers(-6, 6),
    c=st.integers(-50, 50),
    vb=st.integers(-2, 2),
    margin=st.sampled_from((0, 1)),
)
def test_gauss_phase_is_the_closed_quadratic_gauss_sum_phase(p, u, w, v, c, vb, margin):
    # a = (u/w) p^v and b = (c/w) p^vb, b = 0 included: the closed index
    # (Legendre symbol and eps_p for odd p, the square class mod 8 at
    # p = 2, times psi(-b^2/(2a))) against the exact residue sum; margin 1
    # visits p times more residues, so it runs at the small primes only
    assume(u % p and w % p)
    if p > 13:
        margin = 0
    a = F(u, w) * F(p) ** v
    b = F(c, w) * F(p) ** vb
    assert abs(weil_index_padic(a, b, p) - _summed_phase(a, b, p, margin)) < 1e-12


@pytest.mark.parametrize(
    "p,a,b",
    [
        (2, 1, 1), (2, 1, F(1, 2)), (2, 1, F(3, 8)), (2, 2, 1), (2, F(1, 2), 1),
        (3, 1, F(1, 3)), (3, 3, F(1, 3)), (3, F(1, 9), F(1, 3)),
        (5, 2, F(3, 25)), (7, 1, F(1, 7)),
    ]
    # the eight square classes u mod 8, v(a) mod 2 at p = 2 (3/11 = 1 mod
    # 8), each with b != 0
    + [(2, F(3 * u, 11) * 2**v, F(3, 4)) for u in (1, 3, 5, 7) for v in (0, 1)]
    + [(1009, F(3, 7) * 1009, F(2, 7)), (1009, F(3, 7), F(2, 1009)),
       (1019, F(5, 1019), F(1, 1019))],
)
def test_gauss_phase_composition_law(p, a, b):
    # completing the square moves the linear term into a pure phase: the
    # residue sums obey the law, and the closed index equals them
    for margin in (0, 1):
        summed = _summed_phase(a, b, p, margin)
        law = _summed_phase(a, 0, p, margin) * psi_p(-F(b) * F(b) / (2 * F(a)), p)
        assert abs(summed - law) < 1e-12
        assert abs(weil_index_padic(a, b, p) - summed) < 1e-12


@pytest.mark.parametrize(
    "p,a,b",
    [(2, 1, 0), (2, 1, 1), (2, 1, F(1, 2)), (2, 2, 0), (3, 1, F(1, 3)),
     (3, 3, 0), (5, 1, F(1, 5)), (5, 2, 1), (11, F(1, 11), 0)],
)
def test_local_functional_equation(p, a, b):
    lf = local_factor(a, b, p)
    gam = weil_index_padic(a, b, p)
    mod_a = float(p) ** (-valuation(a, p))
    for s in (0.3, 0.7 + 1j, 1.5 + 5j, 0.5 + 0.25j):
        s = complex(s)
        rho = (1 - p ** (s - 1)) / (1 - p ** (-s))
        rhs = gam * rho * mod_a ** (0.5 - s) * lf.evaluate(1 - s.conjugate()).conjugate()
        assert abs(lf.evaluate(s) - rhs) < 1e-12


def test_entire_eval_removes_the_pole():
    for p, a, b in [(2, 1, 0), (3, 1, F(1, 3)), (5, 1, 0)]:
        lf = local_factor(a, b, p)
        for s in (0.4 + 0.3j, 1.2 - 2j):
            direct = (1 - p ** (-s)) * lf.evaluate(s)
            assert abs(lf.entire_eval(s) - direct) < 1e-13
        with pytest.raises(PoleError):
            lf.evaluate(0.0)
        # finite at the pole and equal to the nearby limit
        eps = 1e-7
        limit = (1 - p ** (-(0 + eps))) * lf.evaluate(0 + eps)
        assert abs(lf.entire_eval(0.0) - limit) < 1e-5


def test_unramified_twist_shifts_vertically():
    p = 3
    tw = cmath.exp(0.8j)
    lf = local_factor(1, F(1, 3), p, twist=tw)
    plain = local_factor(1, F(1, 3), p)
    for s in (0.6, 1.1 + 2j):
        shifted = s - 1j * 0.8 / math.log(p)
        assert abs(lf.evaluate(s) - plain.evaluate(shifted)) < 1e-13


# ------------------------------------------------------------- X polynomial


@pytest.mark.parametrize("p,k", [(3, 1), (3, 2), (5, 1), (2, 2)])
def test_zero_poly_roots_on_unit_circle(p, k):
    lf = local_factor(1, F(1, p**k), p)
    assert lf.k == k and lf.delta == 0
    coeffs, Q, D = lf.zero_poly()
    assert D == 2 * k
    roots = np.roots(coeffs)
    assert len(roots) == D
    for r in roots:
        assert abs(abs(r) - 1.0) <= 1e-10


def test_zero_poly_is_self_inversive():
    for p, a, b in [(3, 1, F(1, 3)), (2, 1, 0), (5, F(1, 5), F(1, 5))]:
        lf = local_factor(a, b, p)
        coeffs, Q, D = lf.zero_poly()
        if D == 0:
            continue
        # reversing and conjugating reproduces the polynomial up to gamma
        rev = np.conj(coeffs[::-1])
        assert np.allclose(coeffs, lf.gamma * rev, atol=1e-12)


def test_degree_is_numerator_degree():
    odd = next(c for c in unit_characters(3, 1) if not c.is_even)
    factors = [
        local_factor(1, F(1, 9), 3),
        local_factor(1, 0, 5),
        local_factor(1, F(1, 3), 3, chi=odd),
        local_factor(1, F(1, 125), 5, chi=next(iter(unit_characters(5, 1)))),
        local_factor(1, 0, 3, chi=odd),
        padic_vector_factor(((3, 0), (3, 0)), 3),
        padic_vector_factor(((1, 0), (3, 0)), 3),
    ]
    assert {lf.kind for lf in factors} == {
        "unramified", "ramified", "vanishing", "vector"
    }
    for lf in factors:
        coeffs, _, D = lf.zero_poly()
        assert lf.degree == D == len(coeffs) - 1


def test_zeros_match_evaluation():
    lf = local_factor(1, F(1, 9), 3)
    zeros = [r.location for r in zeros_in_window(lf, -10.0, 10.0)]
    # 4 roots per period of 2 pi / ln 3 ~ 5.72 inside a width-20 window
    assert 12 <= len(zeros) <= 16
    for z in zeros:
        assert abs(z.real - 0.5) < 1e-10
        assert abs(lf.evaluate(z)) < 1e-10


# --------------------------------------------------------- ramified factors


@pytest.mark.parametrize("p", [3, 5])
def test_ramified_vanish_or_match(p):
    configs = [(1, 0), (1, F(1, p)), (p, 0), (1, 1), (F(1, p), F(1, p))]
    for n in (1, 2):
        for chi in unit_characters(p, n):
            for a, b in configs:
                lf = local_factor(a, b, p, chi=chi)
                if lf.kind == "vanishing":
                    for s in (0.3, 0.7, 1.5, 0.5 + 2j, 1.0 + 5j):
                        assert abs(oracle_padic_mellin(a, b, p, s, chi=chi)) < 1e-12
                    continue
                assert lf.kind == "ramified"
                for s in (0.3, 0.7 + 1j, 1.5 + 5j):
                    got = lf.evaluate(s)
                    want = oracle_padic_mellin(a, b, p, s, chi=chi)
                    assert abs(got - want) < 1e-12
                if lf.omega != 0:
                    assert abs(abs(lf.omega) - 1.0) < 1e-12


def test_ramified_zeros_on_critical_line():
    seen = 0
    for p in (3, 5):
        for chi in unit_characters(p, 1):
            lf = local_factor(1, F(1, p), p, chi=chi)
            if lf.kind != "ramified" or lf.omega == 0:
                continue
            zeros = [r.location for r in zeros_in_window(lf, -8.0, 8.0)]
            assert zeros
            seen += len(zeros)
            for z in zeros:
                assert abs(z.real - 0.5) <= 1e-10
                assert abs(lf.evaluate(z)) < 1e-10
    assert seen > 0


def test_ramified_top_coefficient_identity():
    """Top Laurent coefficient = chibar(unit of b) rho0 p^(-n/2)/(1 - 1/p)
    whenever the top level is the linear Gauss level."""
    for p in (3, 5):
        for n in (1, 2):
            for chi in unit_characters(p, n):
                for a, b in [(1, F(1, p)), (1, F(1, p * p)), (2, F(1, p))]:
                    lf = local_factor(a, b, p, chi=chi)
                    if lf.kind != "ramified" or lf.omega == 0:
                        continue
                    a_n, b_n, _, _ = rescale_normal_form(a, b, p, n_chi=n)
                    vb = int(valuation(b_n, p))
                    if vb + lf.k != -n:
                        continue
                    w = b_n / F(p) ** vb
                    w_res = int(w.numerator * pow(w.denominator, -1, p**n)) % p**n
                    pred = (
                        chi(w_res).conjugate()
                        * rho0_gauss_sum(chi)
                        * p ** (-n / 2)
                        / (1 - 1 / p)
                    )
                    assert abs(lf.C - pred) < 1e-13


# b = p^-m puts the top term at escape level m - 1 or m; from level 2 on
# its mirror term sits below a gap of provably zero levels
RAMIFIED_LEVEL_CASES = [
    (p, n, a, m) for p in (3, 5) for n in (1, 2) for a in (1, p) for m in (1, 2, 3, 4)
]


@pytest.mark.parametrize("p,n,a,m", RAMIFIED_LEVEL_CASES)
def test_ramified_closed_form_and_oracle_match_direct_sum(p, n, a, m):
    b = F(1, p**m)
    for chi in unit_characters(p, n):
        # every level of these inputs outside [-6, 5] is provably zero
        profile = {
            j: unit_average(a, b, p, F(p) ** j, chi=chi) for j in range(-6, 6)
        }
        assert abs(profile[-6]) < 1e-13 and abs(profile[5]) < 1e-13
        lf = local_factor(a, b, p, chi=chi)
        for s in (0.7 + 1.3j, 1.2 - 4j):
            want = sum(v * p ** (-j * s) for j, v in profile.items())
            assert abs(lf.evaluate(s) - want) < 1e-12
            assert abs(oracle_padic_mellin(a, b, p, s, chi=chi) - want) < 1e-12


def test_ramified_mirror_is_kept_by_its_modulus():
    # b = 3^-m: the mirror term at level -(k + delta) has modulus
    # |C| 3^-(k + delta/2), below 1e-13 from m = 28 on; it is kept because
    # its level is read off the valuations, however small its value
    chi = next(iter(unit_characters(3, 1)))
    for m in range(12, 61):
        b = F(1, 3**m)
        lf = local_factor(1, b, 3, chi=chi)
        assert lf.kind == "ramified"
        assert lf.degree == 2 * lf.k + lf.delta
        assert abs(abs(lf.omega) - 1.0) < 1e-12
        for s in (0.7 + 1j, 1.2 - 4j):
            want = oracle_padic_mellin(1, b, 3, s, chi=chi)
            assert abs(lf.evaluate(s) - want) <= 1e-12 * abs(want)


@settings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from((3, 5, 7)),
    n=st.integers(1, 3),
    index=st.integers(0, 10**6),
    va=st.integers(-3, 1),
    vb=st.one_of(st.none(), st.integers(-60, 2)),
    ua=st.integers(-20, 20),
    ub=st.integers(-20, 20),
)
def test_ramified_factor_matches_oracle_at_any_depth(p, n, index, va, vb, ua, ub):
    # the top level and its mirror lie up to about 2 |v(b)| levels apart;
    # both come from the valuations, so no depth is out of reach
    chars = list(unit_characters(p, n))
    chi = chars[index % len(chars)]
    a = _with_valuation(ua, va, p)
    b = 0 if vb is None else _with_valuation(ub, vb, p)
    lf = local_factor(a, b, p, chi=chi)
    for s in (0.7 + 1.3j, 0.3 + 9j):
        want = oracle_padic_mellin(a, b, p, s, chi=chi)
        if lf.kind == "vanishing":
            assert lf.evaluate(s) == 0 and abs(want) < 1e-12
        else:
            assert abs(lf.evaluate(s) - want) <= 1e-12 * abs(want)


# (p, conductor exponent, v(a), v(b)) with |v| up to 200, b = 0 for
# v(b) = None; the oracle's window is counted from its own anchors, so
# none of these is out of its reach.  The ramified pairs keep b != 0 off
# the vanishing factors, whose oracle sum is rounding noise weighted by
# |p^(-js)|.
LARGE_VALUATION_CASES = [
    (p, 0, va, vb)
    for p in (2, 3, 5)
    for va, vb in ((0, -62), (0, -200), (200, None), (-200, 0), (-200, 200))
] + [
    (p, 1, va, vb)
    for p in (3, 5)
    for va, vb in ((0, -62), (0, -200), (-200, -200), (100, -100), (200, -1))
]


@pytest.mark.parametrize("p,n,va,vb", LARGE_VALUATION_CASES)
def test_oracle_matches_factor_at_large_valuations(p, n, va, vb):
    chi = None if n == 0 else padic_core.UnitCharacter(p, 1, 2 if p == 5 else 1)
    a = _with_valuation(2, va, p)
    b = 0 if vb is None else _with_valuation(3, vb, p)
    lf = local_factor(a, b, p, chi=chi)
    assert lf.kind != "vanishing"
    for s in (0.7 + 1j, 1.2 - 4j):
        want = lf.evaluate(s)
        assert abs(oracle_padic_mellin(a, b, p, s, chi=chi) - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("p,cfg", [
    (3, ((1, F(1, 3**66)), (1, 0))),
    (3, ((1, F(1, 3**200)), (1, 0))),
    (2, ((1, F(1, 2**100)), (1, 0))),
    (5, ((1, F(1, 5**100)), (1, 0))),
    (3, ((F(1, 3**200), 0),)),
    (5, ((F(5**200), F(1, 5)),)),
    (2, ((F(1, 2**120), F(2**60)), (F(2**70), F(1, 2**40)))),
])
def test_vector_oracle_matches_factor_at_large_valuations(p, cfg):
    lf = padic_vector_factor(cfg, p)
    for s in (0.7 + 1j, 1.2 - 4j):
        want = lf.evaluate(s)
        assert abs(oracle_padic_vector(cfg, p, s) - want) <= 1e-12 * abs(want)


def test_factors_above_the_float_modulus_match_the_oracle():
    # both need residue sums mod P = p^big with P beyond the float range,
    # which the kernel reduces to phases in [0, 1) before scaling by 2 pi
    s = 0.7 + 1j
    a, b = 5**62 * F(2, 7), F(5) ** -200 * F(4, 11)
    want = local_factor(a, b, 5).evaluate(s)
    assert abs(oracle_padic_mellin(a, b, 5, s) - want) <= 1e-10 * abs(want)
    cfg = ((F(3, 5**200), F(5**200)), (F(5**100), F(2, 5**66)))
    want = padic_vector_factor(cfg, 5).evaluate(s)
    assert abs(oracle_padic_vector(cfg, 5, s) - want) <= 1e-10 * abs(want)


@pytest.mark.parametrize("p", [1, 0, -3])
def test_factor_builders_refuse_a_base_below_two(p):
    # p = 1 never ended the valuation loop
    with pytest.raises(DomainError):
        local_factor(1, 1, p)
    with pytest.raises(DomainError):
        padic_vector_factor(((1, 1),), p)


@pytest.mark.parametrize("p", [9, 4, 10**12, 1_000_000_000_039, True, 5.0])
@pytest.mark.parametrize("call", [
    lambda p: local_factor(1, 0, p),
    lambda p: padic_vector_factor(((1, 0),), p),
    lambda p: weil_index_padic(1, 0, p),
    lambda p: oracle_padic_mellin(1, 0, p, 2),
    lambda p: oracle_padic_vector(((1, 0),), p, 2),
    lambda p: padic_core.UnitCharacter(p, 1, 1),
    lambda p: padic_core.valuation(3, p),
    lambda p: unit_average(1, 0, p, 1),
    lambda p: theta_additive(1, 0, p, 1),
], ids=["local_factor", "padic_vector_factor", "weil_index_padic",
        "oracle_padic_mellin", "oracle_padic_vector", "UnitCharacter",
        "valuation", "unit_average", "theta_additive"])
def test_entry_points_refuse_a_base_that_is_not_a_prime(call, p, monkeypatch):
    # composites returned values here before the prime rule moved into
    # padic_core; a p above the cap is refused before any trial division
    def no_division(q):
        if q > padic_core._MAX_P:
            raise AssertionError("trial division above the cap")
        return factorize(q)

    factorize = padic_core._factorize
    monkeypatch.setattr(padic_core, "_factorize", no_division)
    with pytest.raises(DomainError, match="base p"):
        call(p)


@pytest.mark.parametrize("b", [0, 1, F(1, 5)])
@pytest.mark.parametrize("n,m", [(1, 1), (0, 0)])
def test_local_factor_refuses_a_character_of_another_prime(monkeypatch, b, n, m):
    # the ramified case came back "vanishing", the trivial one unramified;
    # the oracles refuse both, and so does the builder, before any sum
    def no_sum(*args, **kwargs):
        raise AssertionError("an exact sum ran")

    monkeypatch.setattr(padic_core, "_residue_sum", no_sum)
    monkeypatch.setattr(padic_zeta, "_residue_sum", no_sum)
    with pytest.raises(DomainError):
        local_factor(1, b, 5, chi=padic_core.UnitCharacter(3, n, m))


@pytest.mark.parametrize("a,b,p,n", [
    (1, F(1, 3), 3, 0),
    (F(2, 25), F(3, 5), 5, 0),
    (F(1, 8), 0, 2, 0),
    (F(3, 4), F(5, 8), 2, 0),
    (1, F(1, 3), 3, 1),
    (F(1, 5), F(2, 25), 5, 1),
])
def test_twisted_factor_matches_oracle(a, b, p, n):
    # factorize_global builds unramified factors with twist chi(p), a root
    # of unity; the twist enters the oracle as the per-level weight
    # twist p^(-s), not as the builder's vertical shift
    chi = None if n == 0 else padic_core.UnitCharacter(p, 1, 1)
    for tau in (-1.0, 1j, cmath.exp(2j * math.pi / 3), cmath.exp(0.8j)):
        lf = local_factor(a, b, p, chi=chi, twist=tau)
        for s in (0.7 + 1.3j, 1.2 - 4j):
            want = oracle_padic_mellin(a, b, p, s, chi=chi, twist=tau)
            assert abs(lf.evaluate(s) - want) < 1e-13


def test_vanishing_factor_for_odd_character_even_phase():
    chi = next(c for c in unit_characters(3, 1) if not c.is_even)
    lf = local_factor(1, 0, 3, chi=chi)
    assert lf.kind == "vanishing"
    assert lf.evaluate(0.7 + 3j) == 0


# ---------------------------------------------------------------- gauss rho0


def test_rho0_unit_modulus():
    for p in (3, 5, 7):
        for n in (1, 2):
            for chi in unit_characters(p, n):
                assert abs(abs(rho0_gauss_sum(chi)) - 1.0) < 1e-12


def test_rho0_quadratic_mod3_is_i():
    chi = next(iter(unit_characters(3, 1)))
    assert chi.group_order == 2
    assert abs(rho0_gauss_sum(chi) - 1j) < 1e-14


def test_rho0_fourier_pairing():
    """Fourier transform of the character bump is the conjugate bump at the
    reflected scale, rotated by rho0."""
    p, n = 3, 2
    pn = p**n
    for chi in unit_characters(p, n):
        rho = rho0_gauss_sum(chi)
        bar = chi.bar()
        # F(phi)(x) = p^-n sum_u chi(u) psi(x u), x = v / p^n
        for v in (1, 2, 4, 7):
            total = sum(
                chi(u) * psi_p(F(v * u, pn), p) for u in range(1, pn) if u % p
            )
            got = total / pn
            want = rho * p ** (-n / 2) * bar(v)
            assert abs(got - want) < 1e-13
        # off the support shell the transform collapses
        for x in (F(1, p), 1):
            total = sum(
                chi(u) * psi_p(x * u, p) for u in range(1, pn) if u % p
            )
            assert abs(total) / pn < 1e-13


# ------------------------------------------------------------ vector factors


VECTOR_CASES = [
    (3, ((1, 0), (1, F(1, 3)))),
    (3, ((3, 0), (3, 0))),
    (5, ((1, 0), (1, F(1, 5)))),
    (5, ((2, F(1, 5)), (1, 0))),
    (2, ((1, 0), (1, 0))),
    (2, ((1, 1), (1, 0), (1, 0))),
]


@pytest.mark.parametrize("p,cfg", VECTOR_CASES)
def test_vector_matches_oracle(p, cfg):
    lf = padic_vector_factor(cfg, p)
    assert lf.n_dim == len(cfg)
    for s in (0.4, 0.9 + 1j, 1.3 + 4j, float(len(cfg))):
        got = lf.evaluate(s)
        want = oracle_padic_vector(cfg, p, s)
        assert abs(got - want) < 1e-12


@pytest.mark.parametrize("p,cfg", VECTOR_CASES)
def test_vector_zeros_on_half_dimension_line(p, cfg):
    lf = padic_vector_factor(cfg, p)
    n = lf.n_dim
    coeffs, Q, D = lf.zero_poly()
    zeros = [r.location for r in zeros_in_window(lf, -6.0, 6.0)]
    if D == 0:
        assert zeros == []
        return
    assert len(zeros) >= D  # the window is wider than one vertical period
    for z in zeros:
        assert abs(z.real - n / 2.0) <= 1e-10
        assert abs(lf.evaluate(z)) < 1e-10


@pytest.mark.parametrize("seed", range(3))
def test_one_component_vector_factor_is_the_unramified_factor(seed):
    # padic_vector_factor(((a, b),), p) and local_factor_unramified(a, b, p)
    # build the same function from two numerators; seeded (a, b) with odd
    # and even v(a), b = 0 included, at p up to 101.  A twist off 1 shifts
    # the scalar factor vertically by arg(twist) / ln p
    rng = np.random.default_rng(seed)
    for _ in range(40):
        p = int(rng.choice([2, 3, 5, 7, 11, 13, 101]))
        unit = lambda: int(rng.choice([u for u in (1, -1, 2, 3, -5, 7, 11, 19) if u % p]))
        a = F(unit(), unit()) * F(p) ** int(rng.integers(-3, 4))
        b = 0 if rng.random() < 0.25 else F(unit(), unit()) * F(p) ** int(rng.integers(-3, 3))
        twist = cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi)) if rng.random() < 0.5 else 1.0
        vector = padic_vector_factor(((a, b),), p)
        scalar = local_factor_unramified(a, b, p, twist=twist)
        assert vector.degree == scalar.degree
        s = rng.uniform(0.2, 3.0, 20) + 1j * rng.uniform(-30.0, 30.0, 20)
        want = scalar.evaluate(s)
        got = vector.evaluate(s - 1j * cmath.phase(twist) / math.log(p))
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


def test_vector_mixed_parity_zero_is_honestly_off_line():
    """Components with mismatched coefficient parity genuinely push the zero
    off Re(s) = n/2; the oracle confirms the off-line location."""
    p, cfg = 3, ((1, 0), (3, 0))
    lf = padic_vector_factor(cfg, p)
    coeffs, Q, D = lf.zero_poly()
    assert D == 1
    root = np.roots(coeffs)[0]
    assert abs(abs(root) - 1.0) > 0.1  # not on the line, and not nearly
    s0 = lf.n_dim / 2.0 + cmath.log(root) / math.log(p)
    assert abs(oracle_padic_vector(cfg, p, s0)) < 1e-12


def test_vector_pole_guards():
    lf = padic_vector_factor(((1, 0), (1, 0)), 3)
    with pytest.raises(PoleError):
        lf.evaluate(0.0)
    # the lower tail's geometric sum has no pole at s = n
    assert abs(lf.evaluate(2.0) - oracle_padic_vector(((1, 0), (1, 0)), 3, 2.0)) < 1e-12


@pytest.mark.parametrize("lf", [
    local_factor(1, Fraction(1, 3), 3),
    padic_vector_factor(((1, 0), (1, Fraction(1, 3))), 3),
], ids=["unramified", "vector"])
def test_array_pole_raises_at_the_pole(lf):
    # the scalar path tests a Python bool, an array its .any(): an array
    # holding a pole of the lattice raises PoleError at the first pole it
    # holds, with the message of a scalar call there
    period = 2j * math.pi / math.log(3)
    for pole, pts in ((0j, [2.0, 0.0, 0.5 + 1j]), (period, [0.5 + 1j, period, 0.0])):
        with pytest.raises(PoleError) as scalar:
            lf.evaluate(pole)
        with pytest.raises(PoleError) as array:
            lf.evaluate(np.array(pts))
        assert str(array.value) == str(scalar.value)
        assert str(scalar.value) == f"local factor pole near s = {pole} (p = 3)"


def test_unramified_builders_run_no_residue_sum(monkeypatch):
    # every unramified profile and Gauss phase is closed-form, at any p up
    # to the cap; only the ramified builder and the oracles sum
    def no_sum(*args, **kwargs):
        raise AssertionError("an exact sum ran")

    monkeypatch.setattr(padic_core, "_residue_sum", no_sum)
    monkeypatch.setattr(padic_zeta, "_residue_sum", no_sum)
    for p, cfg in VECTOR_CASES:
        padic_vector_factor(cfg, p)
    for p, a, b in UNRAMIFIED_CASES + [(999999999989, F(1, 999999999989), 0)]:
        local_factor(a, b, p)
        weil_index_padic(a, b, p)


@st.composite
def _unramified_pair(draw, p):
    def unit():
        return draw(st.integers(1, 40).filter(lambda u: u % p))

    a = F(draw(st.sampled_from((-1, 1))) * unit(), unit()) * F(p) ** draw(st.integers(-3, 3))
    if draw(st.booleans()):
        b = F(draw(st.integers(-40, 40)), unit()) * F(p) ** draw(st.integers(-4, 2))
    else:
        b = F(0)
    return a, b


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((2, 3, 5, 7)).flatmap(
    lambda p: st.tuples(st.just(p), _unramified_pair(p))
))
def test_theta_profile_law(case):
    # theta(p^j) is 1 from top on, 0 strictly between bottom and top, and
    # gamma p^-(k + delta/2) p^(j - bottom) from bottom down
    p, (a, b) = case
    profile = _unramified(a, b, p)
    assert profile.bottom <= profile.top
    for j in range(-8, 9):
        want = theta_additive(a, b, p, F(p) ** j)
        assert abs(profile.theta(j) - want) <= 1e-13, (j, profile)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from((2, 3, 5, 7)).flatmap(
    lambda p: st.tuples(st.just(p), st.lists(_unramified_pair(p), min_size=1, max_size=3))
))
def test_vector_profile_product_matches_oracle(case):
    p, cfg = case
    lf = padic_vector_factor(cfg, p)
    for s in (0.7 + 1.1j, 1.6 - 3.0j):
        want = oracle_padic_vector(cfg, p, s)
        assert abs(lf.evaluate(s) - want) <= 1e-12 * max(1.0, abs(want))
        if len(cfg) == 1:
            single = local_factor(*cfg[0], p).evaluate(s)
            assert abs(lf.evaluate(s) - single) <= 1e-12 * max(1.0, abs(single))


def test_vector_oracle_weighs_small_shell_averages():
    # theta(7^-6) = 1.6e-15 sits below the oracle's 1e-14 zero tolerance,
    # but |7^(6s)| = 3.9e6 at Re s = 1.3: the term must still be summed
    p = 7
    cfg = ((F(441, 8), 0), (F(1, 1029), 0), (F(-49, 2), F(-2, 12005)))
    s = 1.3 + 4j
    want = padic_vector_factor(cfg, p).evaluate(s)
    assert abs(oracle_padic_vector(cfg, p, s) - want) <= 1e-12 * abs(want)


def test_vector_keeps_a_small_tail_coefficient():
    # theta(5^-5) = 7.3e-11 is the whole lower tail here; its Laurent
    # coefficient must survive next to the top coefficient 1
    p, cfg = 5, ((-1, 0), (-1, 0), (-5, F(1, 625)))
    lf = padic_vector_factor(cfg, p)
    assert lf.degree == 9
    for s in (0.7 + 1.1j, 1.6 - 3.0j):
        want = oracle_padic_vector(cfg, p, s)
        assert abs(lf.evaluate(s) - want) <= 1e-12 * abs(want)
