"""Array-valued evaluation: the numpy bodies against the scalar bodies.

Every function that takes an ndarray of points must return, point by
point, what the scalar call returns there, up to the last few bits that
numpy's complex products and powers round differently: within
5e-14 (1 + |scalar value|).  An array holding one bad point must raise
what the scalar call raises at that point.  Arrays hold at least
_POINTWISE_BELOW points, so zeta_real and GlobalFactorization.evaluate
run their numpy bodies and not their per-point loops.
"""

from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from weakmellin import specfun as sf
from weakmellin.arch_zeta import Real, RealSign, Trivial, zeta_real
from weakmellin.global_zeta import GlobalSpec, factorize_global, reference_spec
from weakmellin.padic_core import unit_characters
from weakmellin.padic_zeta import local_factor, padic_vector_factor
from weakmellin.specfun import _POINTWISE_BELOW

TOL = 5e-14


def _clear(z):
    # away from the poles of the functions below: the non-positive
    # integers (gamma factors) and s = 1 (zeta)
    return abs(z - min(round(z.real), 1)) > 1e-6


def _points(re_lo, re_hi, im_max, max_size=24, keep=_clear):
    point = st.builds(
        complex,
        st.floats(re_lo, re_hi, allow_nan=False),
        st.floats(-im_max, im_max, allow_nan=False),
    ).filter(keep)
    return st.lists(point, min_size=_POINTWISE_BELOW, max_size=max_size)


def _assert_elementwise(f, pts):
    got = f(np.array(pts, dtype=complex))
    assert isinstance(got, np.ndarray) and got.shape == (len(pts),)
    for z, value in zip(pts, got):
        want = f(z)
        assert abs(value - want) <= TOL * (1.0 + abs(want)), (z, value, want)


# ---------------------------------------------------------------------------
# special functions


@settings(max_examples=60, deadline=None)
@given(_points(-12.0, 0.5, 60.0))
def test_log_gamma_and_gamma_left_of_one_half(pts):
    _assert_elementwise(sf.log_gamma, pts)
    _assert_elementwise(sf.gamma, pts)


@settings(max_examples=60, deadline=None)
@given(st.lists(
    st.builds(
        lambda k, r, phi: complex(-k) + r * complex(np.cos(phi), np.sin(phi)),
        st.integers(0, 12),
        st.floats(1e-8, 1e-2),
        st.floats(0.0, 6.283),
    ),
    min_size=_POINTWISE_BELOW, max_size=24,
))
def test_gamma_next_to_its_poles(pts):
    _assert_elementwise(sf.log_gamma, pts)
    _assert_elementwise(sf.gamma, pts)


@settings(max_examples=60, deadline=None)
@given(_points(-4.0, 0.0, 60.0))
def test_riemann_zeta_left_of_zero(pts):
    _assert_elementwise(sf.riemann_zeta, pts)


@settings(max_examples=60, deadline=None)
@given(st.lists(
    st.builds(
        lambda r, phi: 1.0 + r * complex(np.cos(phi), np.sin(phi)),
        st.floats(2e-6, 1e-2),
        st.floats(0.0, 6.283),
    ),
    min_size=_POINTWISE_BELOW, max_size=24,
))
def test_riemann_zeta_next_to_its_pole(pts):
    _assert_elementwise(sf.riemann_zeta, pts)


def test_riemann_zeta_over_several_blocks():
    # more points than one block of the Euler-Maclaurin sum
    pts = list(0.5 + 1j * np.linspace(-59.0, 59.0, 3 * sf._EM_BLOCK + 7))
    _assert_elementwise(sf.riemann_zeta, pts)


_CHARACTERS = [chi for q in (1, 4, 5, 7) for chi in sf.characters(q)]


# Left of Re s = 0 the Euler-Maclaurin sum of a Hurwitz zeta (and so of a
# non-principal L) cancels by about N^(1 - Re s) / |s - 1| (180 at
# Re s = -0.5), so the last bits of the scalar value are rounding noise of
# that size, and the comparison runs where that noise stays under the
# tolerance: the strip the census scans, -0.1 <= Re s <= 2.
@settings(max_examples=80, deadline=None)
@given(st.sampled_from(_CHARACTERS), _points(-0.1, 2.0, 60.0))
def test_dirichlet_l_on_the_strip(chi, pts):
    _assert_elementwise(lambda s: sf.dirichlet_l(s, chi), pts)


@settings(max_examples=40, deadline=None)
@given(st.floats(0.05, 1.0), st.booleans(), _points(-0.1, 2.0, 60.0))
def test_hurwitz_zeta(a, skip_pole, pts):
    _assert_elementwise(lambda s: sf.hurwitz_zeta(s, a, skip_pole=skip_pole), pts)


def test_hyp1f1_on_arrays():
    a = np.array([0.25 + 3j, 1.5, -0.5 + 1j, 2.0 - 7j])
    # z = 0 answers 1 at once, as the scalar call does
    assert np.array_equal(sf.hyp1f1(a, 0.5, 0.0), np.ones(4))
    z = np.array([0.0, 1j, -2.0 + 0.5j, 10j])
    got = sf.hyp1f1(a, 1.5, z)
    want = [sf.hyp1f1(x, 1.5, w) for x, w in zip(a, z)]
    assert np.array_equal(got, want)  # the same fixed-point kernel


# ---------------------------------------------------------------------------
# closed forms and the global function


@settings(max_examples=40, deadline=None)
@given(
    st.floats(0.25, 4.0),
    st.booleans(),
    st.sampled_from([0.0, 0.3, -0.8, 1.5]),
    st.sampled_from([Trivial(), RealSign()]),
    _points(-0.9, 2.0, 30.0, max_size=16),
)
def test_zeta_real(a, negative, b, char, pts):
    a = -a if negative else a
    assume(np.pi * b * b / abs(a) <= 10.0)
    _assert_elementwise(lambda s: zeta_real(a, b, s, char), pts)


def _local_factors():
    chi3 = next(iter(unit_characters(3, 1)))
    return [
        local_factor(1, 0, 2),
        local_factor(F(1, 3), F(2, 9), 3, twist=-1.0),
        local_factor(5, F(1, 25), 5, twist=1j),
        local_factor(1, F(1, 3), 3, chi=chi3),
        padic_vector_factor(((1, 0), (1, F(1, 3))), 3),
    ]


# evaluate divides by 1 - p^(-s), which cancels to about |Re s| log p next
# to its pole lattice on Re s = 0, and magnifies the rounding of p^(-s) by
# that much; the comparison keeps |Re s| >= 0.05, where it stays below 30.
@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(_local_factors()),
    _points(-1.0, 2.0, 60.0, keep=lambda z: True),
    _points(-1.0, 2.0, 60.0, keep=lambda z: abs(z.real) >= 0.05),
)
def test_local_factor(fac, pts, off_lattice):
    _assert_elementwise(fac.entire_eval, pts)
    _assert_elementwise(fac.evaluate, off_lattice)


def _global_functions():
    chi5 = next(c for c in sf.characters(5) if c.is_primitive and c.is_even)
    chi7 = next(c for c in sf.characters(7) if c.is_primitive and c.is_even)
    specs = [
        reference_spec(),
        GlobalSpec(arch=Real(1.0, 0.0), finite=((2, F(1), F(0)), (3, F(1), F(1, 3)))),
        GlobalSpec(arch=Real(0.7, 0.0), finite=((2, F(2, 3), F(1)), (5, F(3, 2), F(2, 5))),
                   chi=chi5),
        GlobalSpec(arch=Real(1.6, 0.0), finite=((2, F(6), F(0)), (7, F(4), F(3, 7))),
                   chi=chi7),
    ]
    return [factorize_global(spec) for spec in specs]


# Next to s = 0 the pole of Gamma(s/2) meets a zero of L (the 0 * inf
# that evaluate_reflected sidesteps), so L's rounding noise is amplified
# by |Gamma(s/2)|; the comparison keeps |s| >= 1/2, clear of it.
@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_global_functions()), _points(-0.1, 1.1, 60.0, keep=lambda z: _clear(z) and abs(z) >= 0.5))
def test_global_evaluate(fact, pts):
    _assert_elementwise(fact.evaluate, pts)


def test_small_arrays_take_the_scalar_body():
    fact = factorize_global(reference_spec())
    pts = [0.5 + 14.134725j, 0.4 + 3j, 0.6 - 20j]
    got = fact.evaluate(np.array(pts))
    assert list(got) == [fact.evaluate(z) for z in pts]
    assert fact.evaluate(np.array(pts).reshape(3, 1)).shape == (3, 1)


# ---------------------------------------------------------------------------
# a bad point raises what the scalar call raises there


def _bad_points():
    chi5 = next(c for c in sf.characters(5) if not c.is_principal)
    unram = local_factor(1, 0, 2)
    fact = factorize_global(reference_spec())
    return [
        ("log_gamma pole", sf.log_gamma, -2.0),
        ("gamma overflow", sf.gamma, 200.0),
        ("log_gamma sine overflow", sf.log_gamma, -0.5 + 300j),
        ("zeta pole", sf.riemann_zeta, 1.0),
        ("zeta height cap", sf.riemann_zeta, 0.5 + 61j),
        ("hurwitz left edge", lambda s: sf.hurwitz_zeta(s, 0.5), -0.6),
        ("L height cap", lambda s: sf.dirichlet_l(s, chi5), 0.5 + 61j),
        ("hyp1f1 argument cap", lambda z: sf.hyp1f1(0.5, 0.5, z), 41.0),
        ("hyp1f1 lower-parameter pole", lambda a: sf.hyp1f1(a, 0.0, 0.0), 0.5),
        ("zeta_real gamma pole", lambda s: zeta_real(1.0, 0.0, s), 0.0),
        ("zeta_real overflow", lambda s: zeta_real(1.0, 0.0, s), -2000.0),
        ("local pole", unram.evaluate, 0.0),
        ("global pole", fact.evaluate, 1.0),
    ]


@pytest.mark.parametrize("f,bad", [case[1:] for case in _bad_points()],
                         ids=[case[0] for case in _bad_points()])
def test_bad_point_raises_the_scalar_error(f, bad):
    with pytest.raises(Exception) as scalar:
        f(complex(bad))
    good = [0.5 + 0.25j * k for k in range(1, 2 * _POINTWISE_BELOW)]
    pts = np.array(good[:5] + [bad] + good[5:], dtype=complex)
    with pytest.raises(scalar.type):
        f(pts)
