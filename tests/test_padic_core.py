"""Exact p-adic layer: phases, characters, unit averages.

Everything here is finitely computable, so the comparisons are brute-force
residue sums and frozen algebraic values rather than numerical references.
"""

import cmath
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from weakmellin import padic_core
from weakmellin.errors import DegenerateError, DomainError
from weakmellin.padic_core import (
    UnitCharacter,
    frac_lambda,
    psi_p,
    rat_mod,
    sdc_eval,
    theta_additive,
    unit_average,
    unit_characters,
    unit_coset_level,
    valuation,
)
from weakmellin.specfun import DirichletCharacter


def p_rational(p, max_num=200, max_exp=4):
    """Strategy for rationals m / p^e, the natural p-adic test inputs."""
    return st.builds(
        lambda m, e: Fraction(m, p**e),
        st.integers(min_value=-max_num, max_value=max_num),
        st.integers(min_value=0, max_value=max_exp),
    )


# ---------------------------------------------------------------- valuation


def test_valuation_frozen():
    assert valuation(12, 2) == 2
    assert valuation(12, 3) == 1
    assert valuation(Fraction(3, 8), 2) == -3
    assert valuation(Fraction(3, 8), 3) == 1
    assert valuation(Fraction(-5, 49), 7) == -2
    assert valuation(0, 5) == math.inf


def test_rational_returns_a_fraction_as_it_is_and_refuses_non_finite_floats():
    # a Fraction is exact and reduced, so it is not rebuilt; anything else
    # converts as Fraction(x) does, except that nan and inf are refused
    x = Fraction(6, 4)
    assert padic_core._rational(x) is x
    for y in (3, 1.5, "3/2", np.float64(0.25)):
        assert padic_core._rational(y) == Fraction(y)
        assert type(padic_core._rational(y)) is Fraction
    for bad in (math.nan, math.inf, -math.inf, np.float64("nan")):
        with pytest.raises(DomainError, match="p-adic inputs are rationals"):
            padic_core._rational(bad)


@pytest.mark.parametrize("p", [2, 3, 7])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_valuation_is_additive_and_ultrametric(p, data):
    x = data.draw(p_rational(p))
    y = data.draw(p_rational(p))
    if x != 0 and y != 0:
        assert valuation(x * y, p) == valuation(x, p) + valuation(y, p)
    lo = min(valuation(x, p), valuation(y, p))
    assert valuation(x + y, p) >= lo
    if x != 0 and y != 0 and valuation(x, p) != valuation(y, p):
        assert valuation(x + y, p) == lo


# ------------------------------------------------------------------- phases


def test_psi_frozen_values():
    assert abs(psi_p(Fraction(1, 2), 2) + 1) < 1e-15
    assert abs(psi_p(Fraction(1, 4), 2) - 1j) < 1e-15
    assert abs(psi_p(Fraction(1, 8), 2) - cmath.exp(1j * math.pi / 4)) < 1e-15
    assert abs(psi_p(Fraction(1, 3), 3) - cmath.exp(2j * math.pi / 3)) < 1e-15
    assert abs(psi_p(Fraction(2, 5), 5) - cmath.exp(4j * math.pi / 5)) < 1e-15


@pytest.mark.parametrize(
    "x,p", [(7, 2), (0, 3), (Fraction(3, 4), 3), (Fraction(10, 2), 5)]
)
def test_psi_trivial_on_p_integers(x, p):
    assert abs(psi_p(x, p) - 1) < 1e-15


@pytest.mark.parametrize("p", [2, 3, 5])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_psi_is_additive(p, data):
    x = data.draw(p_rational(p))
    y = data.draw(p_rational(p))
    assert abs(psi_p(x + y, p) - psi_p(x, p) * psi_p(y, p)) < 1e-12


@pytest.mark.parametrize("p", [2, 3, 5])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_frac_lambda_is_the_p_part(p, data):
    x = data.draw(p_rational(p))
    lam = frac_lambda(x, p)
    assert 0 <= lam < 1
    # remainder is p-integral and the denominator is a pure p-power
    assert valuation(x - lam, p) >= 0
    d = lam.denominator
    while d % p == 0:
        d //= p
    assert d == 1


def test_sdc_eval_is_the_quadratic_phase():
    for p, a, b, x in [
        (2, 1, 0, Fraction(1, 2)),
        (2, 1, 1, Fraction(3, 4)),
        (3, Fraction(1, 3), Fraction(2, 3), Fraction(1, 3)),
        (5, 2, Fraction(1, 5), 3),
    ]:
        a, b, x = Fraction(a), Fraction(b), Fraction(x)
        direct = psi_p(a * x * x / 2 + b * x, p)
        assert abs(sdc_eval(a, b, x, p) - direct) < 1e-15


# ------------------------------------------------------------------ residues


def test_rat_mod_values():
    assert rat_mod(14, 3, 2) == 5
    assert rat_mod(Fraction(7, 5), 3, 2) == 5  # 5^-1 = 2 mod 9
    assert rat_mod(Fraction(-1, 3), 2, 3) == 5  # -3^-1 = -3 = 5 mod 8


def test_rat_mod_rejects_nonintegral():
    with pytest.raises(DomainError):
        rat_mod(Fraction(1, 3), 3, 2)


# ---------------------------------------------------------------- characters


def euler_phi_pn(p, n):
    return p**n - p ** (n - 1) if n >= 1 else 1


@pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (5, 1), (5, 2), (7, 1)])
def test_character_count_matches_exact_conductor(p, n):
    chars = list(unit_characters(p, n))
    lower = euler_phi_pn(p, n - 1) if n >= 2 else 1
    assert len(chars) == euler_phi_pn(p, n) - lower
    for chi in chars:
        assert chi.conductor_exponent == n
        # not trivial one level down: some 1 + t p^(n-1) sees a phase
        if n >= 2:
            assert any(
                abs(chi(1 + t * p ** (n - 1)) - 1) > 1e-9 for t in range(1, p)
            )


@pytest.mark.parametrize("p,n", [(3, 2), (5, 1), (7, 2)])
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_character_multiplicativity(p, n, data):
    chars = list(unit_characters(p, n))
    chi = data.draw(st.sampled_from(chars))
    pn = p**n
    units = [u for u in range(1, pn) if u % p]
    u = data.draw(st.sampled_from(units))
    v = data.draw(st.sampled_from(units))
    assert abs(chi(u * v % pn) - chi(u) * chi(v)) < 1e-12
    assert abs(chi(u)) == pytest.approx(1.0, abs=1e-13)


@pytest.mark.parametrize("p,n", [(3, 1), (5, 2)])
def test_character_bar_and_parity(p, n):
    for chi in unit_characters(p, n):
        bar = chi.bar()
        pn = p**n
        for u in range(1, pn):
            if u % p == 0:
                continue
            assert abs(bar(u) - chi(u).conjugate()) < 1e-13
        sign = chi(pn - 1)  # value at -1
        assert abs(sign - (1 if chi.is_even else -1)) < 1e-12


@pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (5, 1)])
def test_character_orthogonality(p, n):
    pn = p**n
    for chi in unit_characters(p, n):
        total = sum(chi(u) for u in range(1, pn) if u % p)
        assert abs(total) < 1e-10


@pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (5, 2), (7, 1), (11, 1)])
def test_unit_character_agrees_with_the_dirichlet_character(p, n):
    # both are indexed against the same generator of (Z/p^n)^*
    pn = p**n
    for chi in unit_characters(p, n):
        dirichlet = DirichletCharacter(pn, (chi.index,))
        for u in range(1, pn):
            if u % p:
                assert abs(chi(u) - dirichlet(u)) < 1e-12


def test_character_tables_stay_within_their_cache_bound():
    # each table is p^n values, 1.6 MB near the chi-modulus cap; sweep
    # more characters than the cache keeps, twice
    table = padic_core._char_value_array
    bound = table.cache_info().maxsize
    chis = list(unit_characters(41, 1)) + list(unit_characters(5, 2))
    assert len(chis) > bound
    for _ in range(2):
        for chi in chis:
            table(chi.p, chi.conductor_exponent, chi.index)
    assert table.cache_info().currsize == bound
    for chi in chis:
        fresh = table.__wrapped__(chi.p, chi.conductor_exponent, chi.index)
        assert np.array_equal(table(chi.p, chi.conductor_exponent, chi.index), fresh)


def test_primality_answers_stay_within_their_cache_bound():
    # one valuation per odd base, prime or not, checks every base once;
    # sweep far more bases than the cache keeps, twice
    check = padic_core._is_prime
    bound = check.cache_info().maxsize
    assert bound is not None
    limit = 8 * bound
    sieve = np.ones(limit, dtype=bool)
    sieve[:2] = False
    for d in range(2, math.isqrt(limit) + 1):
        sieve[d * d :: d] = False
    for _ in range(2):
        for q in range(3, limit, 2):
            if sieve[q]:
                assert valuation(q, q) == 1
            else:
                with pytest.raises(DomainError):
                    valuation(1, q)
    assert check.cache_info().currsize == bound
    assert [check(q) for q in range(limit)] == sieve.tolist()


def test_characters_at_2_are_out_of_scope():
    with pytest.raises(DomainError):
        UnitCharacter(2, 1, 1)


@pytest.mark.parametrize("integral", [theta_additive, unit_average])
def test_integrals_refuse_y_zero(integral):
    # the coset level grows with -v(y), which is -inf at y = 0
    with pytest.raises(DomainError):
        integral(1, Fraction(1, 3), 3, 0)


@pytest.mark.parametrize("p", [1, 0, -3])
@pytest.mark.parametrize("call", [
    lambda p: valuation(3, p),
    lambda p: frac_lambda(Fraction(1, 3), p),
    lambda p: unit_coset_level(1, p, 1),
    lambda p: unit_average(1, 0, p, 1),
    lambda p: theta_additive(1, 0, p, 1),
    lambda p: UnitCharacter(p, 1, 1),
    lambda p: UnitCharacter(p, 0),
], ids=["valuation", "frac_lambda", "unit_coset_level", "unit_average",
        "theta_additive", "ramified_character", "trivial_character"])
def test_entry_points_refuse_a_base_below_two(call, p):
    # p = 1 would divide by p forever, p = 0 by zero
    with pytest.raises(DomainError, match="base p"):
        call(p)


def test_coset_level_refuses_zero_inputs():
    # v(0) = inf gives no level: the errors unit_average raises, not an
    # OverflowError from the rounding
    assert unit_coset_level(Fraction(1, 9), 3, Fraction(1, 3)) == 3
    with pytest.raises(DegenerateError):
        unit_coset_level(0, 3, Fraction(1, 3))
    with pytest.raises(DomainError):
        unit_coset_level(1, 3, 0)
    with pytest.raises(DegenerateError):
        unit_average(0, 1, 3, Fraction(1, 3))


# ------------------------------------------------------------- unit averages


def brute_unit_average(a, b, p, y, chi, level):
    """Direct Riemann sum over units mod p^level; exact once the integrand
    is constant on those cosets."""
    a, b, y = Fraction(a), Fraction(b), Fraction(y)
    P = p**level
    total = 0.0 + 0.0j
    for u in range(1, P):
        if u % p == 0:
            continue
        val = sdc_eval(a, b, u * y, p)
        if chi is not None:
            val *= chi(u)
        total += val
    return total / (P * (1 - Fraction(1, p)))


BRUTE_CASES = [
    (2, 1, 0, 1, None),
    (2, 1, 1, Fraction(1, 2), None),
    (2, Fraction(3, 4), Fraction(1, 2), Fraction(1, 2), None),
    (2, 1, Fraction(3, 8), Fraction(1, 4), None),
    (3, 1, 0, Fraction(1, 3), None),
    (3, Fraction(1, 9), Fraction(1, 3), 1, None),
    (3, 2, Fraction(2, 3), Fraction(1, 3), None),
]


@pytest.mark.parametrize("p,a,b,y,chi", BRUTE_CASES)
def test_unit_average_matches_brute_force(p, a, b, y, chi):
    level = 8 if p == 2 else 6
    got = unit_average(a, b, p, y, chi=chi)
    want = brute_unit_average(a, b, p, y, chi, level)
    assert abs(got - want) < 1e-13


@pytest.mark.parametrize("n", [1, 2])
def test_unit_average_matches_brute_force_ramified(n):
    p = 3
    for chi in unit_characters(p, n):
        for y in (1, Fraction(1, 3), Fraction(1, 9)):
            got = unit_average(1, Fraction(1, 3), p, y, chi=chi)
            want = brute_unit_average(1, Fraction(1, 3), p, y, chi, 6)
            assert abs(got - want) < 1e-13


@pytest.mark.parametrize(
    "p,a,b,y",
    [(2, 1, Fraction(3, 8), Fraction(1, 8)), (3, Fraction(1, 9), 1, Fraction(1, 3))],
)
def test_unit_average_margin_invariance(p, a, b, y):
    # margin 0, the builders' level, is exact already
    vals = [unit_average(a, b, p, y, margin=m) for m in (0, 1, 2, 3)]
    for left, right in zip(vals, vals[1:]):
        assert abs(left - right) < 1e-14


# ------------------------------------------------------------ additive theta


def test_theta_frozen_2adic_values():
    # x^2/2 reduces to x/2 on the 2-adic integers, so the integral cancels
    assert abs(theta_additive(1, 0, 2, 1)) < 1e-15
    want = cmath.exp(1j * math.pi / 4) / 2
    assert abs(theta_additive(1, 0, 2, Fraction(1, 2)) - want) < 1e-14


@pytest.mark.parametrize(
    "p,a,b,start",
    [(2, 1, 0, Fraction(1, 2)), (3, 1, Fraction(1, 3), Fraction(1, 9)), (5, 5, 0, Fraction(1, 5))],
)
def test_theta_geometric_tail(p, a, b, start):
    # below the oscillation threshold each downward step divides by p
    y = Fraction(start)
    for _ in range(3):
        deep = theta_additive(a, b, p, y / p)
        here = theta_additive(a, b, p, y)
        assert abs(deep - here / p) < 1e-13
        y /= p


@pytest.mark.parametrize(
    "p,a,b,y",
    [(2, 1, 1, Fraction(1, 4)), (3, Fraction(1, 9), Fraction(2, 3), 1)],
)
def test_theta_decomposes_into_unit_shells(p, a, b, y):
    """Integral over p-adic integers = sum of unit-shell averages."""
    y = Fraction(y)
    J = 9
    # past J the shell averages must have stabilized at 1
    for j in (J, J + 1):
        assert abs(unit_average(a, b, p, y * p**j) - 1) < 1e-13
    shells = sum(
        (1 - 1 / p) * p ** (-j) * unit_average(a, b, p, y * p**j)
        for j in range(J)
    )
    total = shells + p ** (-J)  # closed tail of ones
    assert abs(theta_additive(a, b, p, y) - total) < 1e-12


@pytest.mark.parametrize(
    "p,a,b,y", [(2, 1, Fraction(1, 2), Fraction(1, 4)), (3, 3, 1, Fraction(1, 3))]
)
def test_theta_margin_invariance(p, a, b, y):
    vals = [theta_additive(a, b, p, y, margin=m) for m in (0, 1, 2, 3)]
    for left, right in zip(vals, vals[1:]):
        assert abs(left - right) < 1e-14


# ------------------------------------------------------- exact residue sums


def brute_coset_sum(alpha, beta, p, level, units, chi=None):
    """Sum of psi(alpha x^2 + beta x) chi(x) over every residue x mod
    p^level (units only when asked), keeping the cosets x + p^level Z_p on
    which the linear part (2 alpha x + beta) p^level t integrates to 1.
    Exact once alpha p^(2 level) is p-integral and chi's conductor divides
    p^level."""
    scale = p**level
    total = 0.0 + 0.0j
    for x in range(scale):
        if units and x % p == 0:
            continue
        if valuation((2 * alpha * x + beta) * scale, p) < 0:
            continue
        val = psi_p(alpha * x * x + beta * x, p)
        if chi is not None:
            val *= chi(x)
        total += val
    return total


def assert_sums_match(a, b, p, y, chi, margin):
    """unit_average and theta_additive against the coset reference taken at
    the least exact level, so the margin is checked at the same time."""
    a, b, y = Fraction(a), Fraction(b), Fraction(y)
    alpha, beta = a * y * y / 2, b * y
    n = 0 if chi is None else chi.conductor_exponent
    least = max(n, math.ceil(-valuation(alpha, p) / 2))
    level = max(1, least)
    mass = (1 - Fraction(1, p)) * p**level
    want = brute_coset_sum(alpha, beta, p, level, True, chi)
    got = unit_average(a, b, p, y, chi=chi, margin=margin) * float(mass)
    assert abs(got - want) < 1e-10
    if chi is None:
        want = brute_coset_sum(alpha, beta, p, least, False)
        got = theta_additive(a, b, p, y, margin=margin) * p**least
        assert abs(got - want) < 1e-10


# largest reference level per prime: at most about 700 residues per sum
_REF_LEVEL = {2: 9, 3: 6, 5: 4, 7: 3}
# least exponent with p^e above _VECTOR_MOD_CAP = 3e9
_OBJECT_EXP = {2: 32, 3: 21, 5: 14, 7: 12}


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_residue_sums_match_the_coset_reference(p, data):
    chi = None
    if p != 2 and data.draw(st.booleans(), label="ramified"):
        n = data.draw(st.integers(1, 2 if p <= 5 else 1), label="conductor")
        chi = data.draw(st.sampled_from(tuple(unit_characters(p, n))), label="chi")
    margin = data.draw(st.integers(0, 3), label="margin")
    ey = data.draw(st.integers(-3, 2), label="v(y)")
    v_alpha = data.draw(st.integers(-2 * _REF_LEVEL[p], 3), label="v(alpha)")
    # half the draws put the linear coefficient's denominator above the
    # int64 range of the kernel, P > _VECTOR_MOD_CAP
    v_beta = data.draw(
        st.one_of(
            st.integers(-2 * _REF_LEVEL[p] - 3, 3),
            st.integers(-_OBJECT_EXP[p] - 12, -_OBJECT_EXP[p]),
        ),
        label="v(beta)",
    )
    unit = data.draw(st.sampled_from([1, -1, 2, -3, 5, 11, 13]), label="unit")
    if unit % p == 0:
        unit += 1 if unit > 0 else -1
    y = Fraction(p) ** ey
    v2 = 1 if p == 2 else 0
    a = unit * Fraction(p) ** (v_alpha - 2 * ey + v2)
    if data.draw(st.booleans(), label="b = 0"):
        b = Fraction(0)
    else:
        m = data.draw(st.integers(-30, 30).filter(lambda m: m % p), label="m")
        b = m * Fraction(p) ** (v_beta - ey)
    assert_sums_match(a, b, p, y, chi, margin)


@pytest.mark.parametrize(
    "p,a,b,y,chi",
    [
        # P = 2^32 and 5^14: the kernel sums Python-int arrays
        (2, 2, Fraction(3, 2**15), Fraction(1, 2**16), None),
        (5, 1, Fraction(3, 5**7), Fraction(1, 5**7), None),
        (5, 1, Fraction(3, 5**7), Fraction(1, 5**7), UnitCharacter(5, 1, 1)),
    ],
)
def test_residue_sums_above_the_int64_modulus(p, a, b, y, chi):
    alpha, beta = Fraction(a) * Fraction(y) ** 2 / 2, Fraction(b) * y
    big = -min(valuation(alpha, p), valuation(beta, p))
    assert p**big > padic_core._VECTOR_MOD_CAP
    assert unit_average(a, b, p, y, chi=chi) != 0  # some residues survive
    assert_sums_match(a, b, p, y, chi, margin=1)


def _theta_single_array(p):
    """theta_additive(1, 1/p, p, 1/p) as one numpy sum over all p^2
    residues: alpha = 1/(2 p^2), beta = 1/p^2 and nothing is filtered."""
    P = p * p
    A = (P + 1) // 2  # 1/2 mod P
    x = np.arange(P, dtype=np.int64)
    phase = (A * (x * x % P) % P + x) % P
    return complex(np.exp((2j * np.pi / P) * phase.astype(np.float64)).sum()) / P


def test_theta_sum_over_two_blocks_matches_one_array():
    p = 1031
    assert padic_core._BLOCK < p * p <= 2 * padic_core._BLOCK
    got = theta_additive(1, Fraction(1, p), p, Fraction(1, p))
    assert abs(got - _theta_single_array(p)) < 1e-15


def test_theta_sum_memory_stays_bounded():
    # 4.0e6 residues survive; the blocks keep the peak far below the
    # roughly 220 MB that one array of each temporary needs
    p = 2003
    theta_additive(1, Fraction(1, 7), 7, Fraction(1, 7))  # warm the caches
    tracemalloc.start()
    try:
        got = theta_additive(1, Fraction(1, p), p, Fraction(1, p))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100e6
    assert abs(got - _theta_single_array(p)) < 1e-15


# ------------------------------------------- integer residues, Fraction route


def _fraction_valuation(x, p):
    x = Fraction(x)
    v, num, den = 0, x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def _fraction_residue_sum(alpha, beta, p, level, units, chi=None):
    """The residue sum with A, B and P found by Fraction arithmetic, the
    kernel otherwise step for step that of padic_core._residue_sum (one
    block: the callers keep below _BLOCK residues)."""
    big = max(
        [level, 0] + [-_fraction_valuation(c, p) for c in (alpha, beta) if c != 0]
    )
    P = p**big
    ind_mod = p ** (big - level)
    A = rat_mod(alpha * Fraction(p) ** big, p, big)
    B = rat_mod(beta * Fraction(p) ** big, p, big)
    c = 2 * A % ind_mod
    g = math.gcd(c, ind_mod)
    if B % g:
        return 0j
    step = ind_mod // g
    x0 = (-B // g) * pow(c // g, -1, step) % step
    size = p**level
    dtype = np.int64 if P <= padic_core._VECTOR_MOD_CAP else object
    if units and step == 1:
        count = size - size // p
        k = np.arange(count, dtype=dtype)
        x = k // (p - 1) * p + k % (p - 1) + 1
    else:
        count = 0 if units and x0 % p == 0 else max(0, -(-(size - x0) // step))
        x = x0 + step * np.arange(count, dtype=dtype)
    assert count <= padic_core._BLOCK
    if count == 0:
        return 0j
    ph = (A * (x * x % P) % P + B * x % P) % P
    vals = np.exp(2j * np.pi / P * ph.astype(np.float64))
    if chi is not None and not chi.is_trivial:
        n = chi.conductor_exponent
        chi_values = padic_core._char_value_array(p, n, chi.index)
        vals = vals * chi_values[(x % p**n).astype(np.int64)]
    return complex(vals.sum())


def _fraction_unit_average(a, b, p, y, chi, margin):
    a, b, y = Fraction(a), Fraction(b), Fraction(y)
    n_chi = 0 if chi is None else chi.conductor_exponent
    v2 = 1 if p == 2 else 0
    va, vy = _fraction_valuation(a, p), _fraction_valuation(y, p)
    m0 = max(1, n_chi, math.ceil((v2 - va - 2 * vy) / 2)) + margin
    total = _fraction_residue_sum(a * y * y / 2, b * y, p, m0, True, chi)
    return total * (1.0 / ((1.0 - 1.0 / p) * p**m0))


def _fraction_theta_additive(a, b, p, y, margin):
    a, b, y = Fraction(a), Fraction(b), Fraction(y)
    A = a * y * y / 2
    L = max(0, math.ceil(-_fraction_valuation(A, p) / 2)) + margin
    return _fraction_residue_sum(A, b * y, p, L, False) / p**L


def mixed_rational(p, max_num=60, max_exp=4, nonzero=False):
    """Signed rationals whose denominator has a p-power and a unit part."""
    nums = st.integers(1, max_num)
    nums = st.one_of(nums, nums.map(lambda m: -m) if nonzero else st.integers(-max_num, 0))
    unit = st.sampled_from([1, 2, 3, 7, 11, 14]).filter(lambda d: d % p)
    return st.builds(
        lambda m, e, d: Fraction(m, p**e * d), nums, st.integers(0, max_exp), unit
    )


@pytest.mark.parametrize("p", [2, 3, 5, 13])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_integer_residues_match_the_fraction_route(p, data):
    x = data.draw(mixed_rational(p), label="x")
    # the kernels see numerators and denominators that need not be reduced
    c = p ** data.draw(st.integers(0, 2), label="i") * data.draw(
        st.sampled_from([1, 7, 11]), label="u"
    )
    num, den = x.numerator * c, x.denominator * c
    least = 0 if x == 0 else max(0, -valuation(x, p))
    for k in range(least, least + 6):
        assert padic_core._scaled_residue(num, den, p, k) == rat_mod(x * p**k, p, k)

    # whole sums: exactly the values of the Fraction route
    a = data.draw(mixed_rational(p, max_exp=3, nonzero=True), label="a")
    b = data.draw(st.one_of(st.just(Fraction(0)), mixed_rational(p)), label="b")
    y = data.draw(
        st.builds(lambda e, u: Fraction(p) ** e * u, st.integers(-1, 1),
                  st.sampled_from([1, -1, 2, 3, Fraction(1, 7)]).filter(
                      lambda u: valuation(u, p) == 0)),
        label="y",
    )
    margin = data.draw(st.integers(0, 2), label="margin")
    chi = None
    if p != 2 and data.draw(st.booleans(), label="ramified"):
        n = data.draw(st.integers(1, 2 if p <= 5 else 1), label="conductor")
        chi = data.draw(st.sampled_from(tuple(unit_characters(p, n))), label="chi")
    v2 = 1 if p == 2 else 0
    n_chi = 0 if chi is None else chi.conductor_exponent
    v_quad = valuation(a, p) + 2 * valuation(y, p) - v2
    assume(p ** (max(1, n_chi, -(v_quad // 2)) + margin) <= 20_000)
    assert unit_average(a, b, p, y, chi=chi, margin=margin) == (
        _fraction_unit_average(a, b, p, y, chi, margin)
    )
    assert theta_additive(a, b, p, y, margin=margin) == (
        _fraction_theta_additive(a, b, p, y, margin)
    )
