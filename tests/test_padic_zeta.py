"""Closed-form local factors against the exact profile-sum oracle.

The oracle in weakmellin.oracle sums the unit-average profile directly with
provable truncation, so agreement here is a genuine dual-route check.
"""

import cmath
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from weakmellin.errors import PoleError, SupportEscapeError
from weakmellin.oracle import oracle_padic_mellin, oracle_padic_vector
from weakmellin.padic_core import psi_p, unit_average, unit_characters, valuation
from weakmellin.padic_zeta import (
    detect_escape_level,
    local_factor,
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


@pytest.mark.parametrize(
    "p,a,b",
    [
        (2, 1, 1), (2, 1, F(1, 2)), (2, 1, F(3, 8)), (2, 2, 1), (2, F(1, 2), 1),
        (3, 1, F(1, 3)), (3, 3, F(1, 3)), (3, F(1, 9), F(1, 3)),
        (5, 2, F(3, 25)), (7, 1, F(1, 7)),
    ],
)
def test_gauss_phase_composition_law(p, a, b):
    # completing the square moves the linear term into a pure phase
    lhs = weil_index_padic(a, b, p)
    rhs = weil_index_padic(a, 0, p) * psi_p(-F(b) * F(b) / (2 * F(a)), p)
    assert abs(lhs - rhs) < 1e-12


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


def test_ramified_scan_refuses_an_oversized_mirror_sum():
    # the mirror term of b = 3^-20 would need a sum over 3^21 unit cosets
    chi = next(iter(unit_characters(3, 1)))
    t0 = time.perf_counter()
    with pytest.raises(SupportEscapeError, match="p = 3"):
        local_factor(1, F(1, 3**20), 3, chi=chi)
    assert time.perf_counter() - t0 < 1.0


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
