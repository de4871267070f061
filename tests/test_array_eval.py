"""Array-valued evaluation: the numpy bodies against the scalar bodies.

Every function that takes an ndarray of points must return, point by
point, what the scalar call returns there, up to the last few bits that
numpy's complex products and powers round differently: within
5e-14 (1 + |scalar value|).  An array holding one bad point must raise
what the scalar call raises at that point.  An array of any size runs
the numpy body, so the arrays here hold from 1 point up.  hyp1f1 on an
array a with scalar real b > 0 and 0 < |z| <= 40 sums Taylor discs
instead, good to 1e-13 of the disc's scale rather than of the value;
test_specfun pins them to mpmath.
"""

from fractions import Fraction as F

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from weakmellin import acceptance, global_zeta
from weakmellin import specfun as sf
from weakmellin.arch_zeta import Real, RealSign, Trivial, zeta_real, zeta_rn_radial
from weakmellin.errors import DomainError
from weakmellin.global_zeta import GlobalSpec, factorize_global, reference_spec
from weakmellin.padic_core import unit_characters
from weakmellin.padic_zeta import LocalFactor, local_factor, padic_vector_factor
from weakmellin.zero_engine import census

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
    return st.lists(point, min_size=1, max_size=max_size)


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
    min_size=1, max_size=24,
))
def test_gamma_next_to_its_poles(pts):
    _assert_elementwise(sf.log_gamma, pts)
    _assert_elementwise(sf.gamma, pts)


def _off_one(z):
    # zeta's one pole; zeta is regular at 0, so points next to 0 stay
    return abs(z - 1.0) > 1e-6


@settings(max_examples=60, deadline=None)
@given(_points(-4.0, 0.0, 60.0, keep=_off_one))
def test_riemann_zeta_left_of_zero(pts):
    _assert_elementwise(sf.riemann_zeta, pts)


@pytest.mark.parametrize("s", [-1e-8, -1e-7, -1e-6, -1e-5, -1e-3 + 1e-3j])
def test_riemann_zeta_just_left_of_zero_matches_mpmath(s):
    # the reflection there is sin(pi s/2) zeta(1 - s), a near-zero times a
    # near-pole, unless the pole term is taken in closed form
    want = complex(mp.zeta(s))
    for got in (sf.riemann_zeta(s), sf.riemann_zeta(np.array([s], dtype=complex))[0]):
        assert abs(got - want) <= 1e-13 * abs(want), (s, got, want)


@settings(max_examples=60, deadline=None)
@given(st.lists(
    st.builds(
        lambda r, phi: 1.0 + r * complex(np.cos(phi), np.sin(phi)),
        st.floats(2e-6, 1e-2),
        st.floats(0.0, 6.283),
    ),
    min_size=1, max_size=24,
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


@settings(max_examples=40, deadline=None)
@given(
    st.floats(0.25, 4.0),
    st.booleans(),
    st.sampled_from([0.0, 0.3, 0.8, 1.5]),
    st.integers(1, 4),
    _points(-0.9, 3.0, 30.0, max_size=16),
)
def test_zeta_rn_radial(a, negative, bnorm, n, pts):
    a = -a if negative else a
    assume(np.pi * bnorm * bnorm / abs(a) <= 10.0)
    _assert_elementwise(lambda s: zeta_rn_radial(a, bnorm, n, s), pts)


def test_radial_scans_of_criterion_8_take_one_call_per_grid(monkeypatch):
    sizes = []

    def counted(a, bnorm, n, s):
        sizes.append(s.size if isinstance(s, np.ndarray) else None)
        return zeta_rn_radial(a, bnorm, n, s)

    monkeypatch.setattr(acceptance, "zeta_rn_radial", counted)
    ok, _ = acceptance._criterion_8()
    assert ok
    # four scans of 1536 samples, each one call, and the dip circles of a
    # scan and every winding round one array call each.  Only the
    # residuals call with a scalar, once for each of the 18 zeros; a scan
    # lifted to a per-point loop would add 1536 scalar calls, and circles
    # lifted to one 64 a dip
    assert sizes.count(1536) == 4
    assert sizes.count(None) == 18
    assert all(size >= 64 for size in sizes if size is not None)


def test_real_census_sums_discs_not_points(monkeypatch):
    # the box, scan and circle points come from three Taylor discs (Im s/2
    # near 0, 1 and 2), so only the residuals' scalar calls run the series,
    # each so near a zero that the disc value is not good to 1e-12 of
    # itself: 3 runs and 3 discs, against 2534 runs point by point
    runs = []
    series = sf._kummer_series
    monkeypatch.setattr(sf, "_kummer_series", lambda *args: runs.append(args) or series(*args))
    sf._kummer_disc.cache_clear()
    reports, count = census(lambda s: zeta_real(0.5, 1.5, s), (0.1, 0.9, 0.0, 5.0))
    assert count == len(reports) == 3
    assert len(runs) <= 60
    assert sf._kummer_disc.cache_info().misses <= 3


# The domain: -3 <= Re s <= 4, |Im s| <= 40, at least 1e-3 from the poles
# at 0 and 1; points left of Re s = 0 are reflected to 1 - s.
@settings(max_examples=60, deadline=None)
@given(_points(-3.0, 4.0, 40.0, keep=lambda z: abs(z) >= 1e-3 and abs(z - 1.0) >= 1e-3))
def test_completed_xi(pts):
    _assert_elementwise(sf.completed_xi, pts)


def test_completed_xi_scan_of_criterion_7_takes_arrays(monkeypatch):
    sizes = []

    def counted(s):
        sizes.append(s.size if isinstance(s, np.ndarray) else None)
        return sf.completed_xi(s)

    monkeypatch.setattr(acceptance, "completed_xi", counted)
    ok, _ = acceptance._criterion_7()
    assert ok
    # the 1024-sample scan is one call and the circles of its 3 dips
    # another.  Only the residuals call with a scalar, once for each of the
    # 3 zeros; a scan lifted to a per-point loop would add 1024 scalar
    # calls, and circles lifted to one 64 a dip
    assert [size for size in sizes if size is not None] == [1024, 3 * 64]
    assert sizes.count(None) == 3
    assert all(size >= 64 for size in sizes if size is not None)


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


# |s| just below and just above each height where the table of
# Euler-Maclaurin corrections steps up, on Re s = 1/2: a scalar call takes
# the corrections of its own |s|, an array block those of its largest |s|
_BAND_EDGES = [h for h in range(1, 60) if sf._EM_TERMS[h + 1] > sf._EM_TERMS[h]]
_EDGE_POINTS = [complex(0.5, sign * np.sqrt((h + d) ** 2 - 0.25))
                for h in _BAND_EDGES for d in (-1e-9, 1e-9) for sign in (1, -1)]


@pytest.mark.parametrize("fact", [_global_functions()[0], _global_functions()[3]],
                         ids=["reference", "mod 7"])
def test_global_evaluate_across_the_correction_bands(fact):
    assert len(_BAND_EDGES) == 17
    _assert_elementwise(fact.evaluate, _EDGE_POINTS)
    for s in _EDGE_POINTS:
        _assert_elementwise(fact.evaluate, [s])


@pytest.mark.parametrize("fact", [_global_functions()[0], _global_functions()[3]],
                         ids=["reference", "mod 7"])
def test_global_evaluate_calls_each_factor_once(fact, monkeypatch):
    # through the module attributes the benchmark tracer wraps: one
    # zeta_real, one entire_eval per local part and one dirichlet_l per
    # evaluation, scalar or array
    calls = []

    def counted(name, f):
        return lambda *args: calls.append(name) or f(*args)

    monkeypatch.setattr(global_zeta, "zeta_real", counted("arch", global_zeta.zeta_real))
    monkeypatch.setattr(global_zeta, "dirichlet_l", counted("L", global_zeta.dirichlet_l))
    monkeypatch.setattr(LocalFactor, "entire_eval", counted("local", LocalFactor.entire_eval))
    for s in (0.5 + 14j, np.array([0.5 + 14j, 0.3 - 2j, 0.7 + 40j])):
        calls.clear()
        fact.evaluate(s)
        assert sorted(calls) == sorted(["arch", "L"] + ["local"] * len(fact.local_parts))


def test_global_evaluate_keeps_the_array_shape():
    fact = factorize_global(reference_spec())
    pts = [0.5 + 14.134725j, 0.4 + 3j, 0.6 - 20j]
    assert fact.evaluate(np.array(pts).reshape(3, 1)).shape == (3, 1)


def test_global_evaluate_just_left_of_zero():
    # zeta there reflects to 1 - s, within 1e-6 of its pole at 1, and
    # both calls answer
    fact = factorize_global(reference_spec())
    want = fact.evaluate(-1e-7)
    got = fact.evaluate(np.array([-1e-7 + 0j]))[0]
    assert abs(got - want) <= TOL * (1.0 + abs(want)), (got, want)


def test_gamma_callers_refuse_a_non_finite_point():
    # both reach gamma before any other numpy work, so a NaN is refused
    # there rather than warned about
    fact = factorize_global(reference_spec())
    for f in (lambda s: zeta_real(1.0, 0.0, s), fact.evaluate):
        for s in (complex("nan"), np.array([0.5 + 14j, complex("nan")])):
            with pytest.raises(DomainError, match="finite"):
                f(s)


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("call", [
    lambda: local_factor(_NAN, 0, 5),
    lambda: local_factor(1, _INF, 5),
    lambda: padic_vector_factor(((1, _NAN),), 5),
    lambda: local_factor(1, 0, 5).evaluate(complex(_NAN)),
    lambda: local_factor(1, 0, 5).evaluate(np.array([2.0, complex(0.5, _INF)])),
    lambda: local_factor(1, F(1, 5), 5).entire_eval(complex(_INF)),
    lambda: sf.riemann_zeta(complex(_NAN)),
    lambda: sf.riemann_zeta(np.array([2.0, _NAN])),
    lambda: sf.hurwitz_zeta(complex(0.5, _NAN), 0.5),
    lambda: sf.hurwitz_zeta(np.array([complex(_INF)]), 0.5),
    lambda: sf.dirichlet_l(complex(_NAN), next(c for c in sf.characters(5) if not c.is_principal)),
    lambda: sf.dirichlet_l(np.array([_NAN + 0j]), next(c for c in sf.characters(5) if not c.is_principal)),
    lambda: sf.dirichlet_l(complex(_NAN), next(c for c in sf.characters(5) if c.is_principal)),
])
def test_entry_points_refuse_non_finite_input(call):
    # each raised ValueError or OverflowError, or returned nan+nanj
    with pytest.raises(DomainError):
        call()


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
        ("completed_xi pole at 0", sf.completed_xi, 1e-7j),
        ("completed_xi pole at 1", sf.completed_xi, 1.0 - 5e-7),
        ("local pole", unram.evaluate, 0.0),
        ("global pole", fact.evaluate, 1.0),
    ]


@pytest.mark.parametrize("f,bad", [case[1:] for case in _bad_points()],
                         ids=[case[0] for case in _bad_points()])
def test_bad_point_raises_the_scalar_error(f, bad):
    with pytest.raises(Exception) as scalar:
        f(complex(bad))
    good = [0.5 + 0.25j * k for k in range(1, 16)]
    pts = np.array(good[:5] + [bad] + good[5:], dtype=complex)
    with pytest.raises(scalar.type):
        f(pts)
