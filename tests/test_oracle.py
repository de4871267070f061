"""Oracle internals: contour routes, damping ladders, panels, dual routes,
and the p-adic oracle's exact sums."""

import cmath
import math
import random
import time
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weakmellin import oracle
from weakmellin.acceptance import ARCH_POINTS, S_GRID
from weakmellin.arch_zeta import (
    RealSign,
    zeta_complex_hermitian,
    zeta_complex_square,
    zeta_real,
    zeta_rn_radial,
)
from weakmellin.errors import DegenerateError, DomainError, QuadratureError, SupportEscapeError
from weakmellin.oracle import (
    _fold_even,
    _fold_odd,
    _hermitian_damped,
    _panel_edges,
    _real_damped,
    _sphere_average,
    _square_bessel,
    oracle_complex_square_mellin,
    oracle_hermitian_mellin,
    oracle_padic_mellin,
    oracle_padic_vector,
    oracle_radial_mellin,
    oracle_real_mellin,
    oracle_real_sign_mellin,
)
from weakmellin.padic_core import UnitCharacter, unit_average, unit_characters
from weakmellin.padic_zeta import local_factor


def test_eps_ladder_ratios_are_near_two():
    # clean linear eps-dependence halves the successive differences; the
    # damped route is called directly, as the public oracles answer these
    # points on their contour routes
    for res in (
        _real_damped(1.0, 0.5, 0.6 + 0.4j, _fold_even),
        _hermitian_damped(1.0, 0.3 + 0j, 1, 0.5 - 0.2j),
        _real_damped(1.0, 0.6, 0.7 + 0j, partial(_sphere_average, 2)),
    ):
        assert res.route == "damped"
        assert 1.8 <= res.ratio <= 2.2
        assert len(res.eps_values) == 3
        assert res.err_est < 1e-5 * abs(res.value)


def test_doubled_order_check_refuses_a_nan_integrand():
    # NaN compares false with every bound, so the check must be written
    # "not err <= bound" to refuse it
    with pytest.raises(QuadratureError, match="doubled-order totals disagree"):
        oracle._checked_integral(lambda x: np.full_like(x, np.nan), np.array([0.0, 1.0, 2.0]))


def test_exact_zero_paths():
    for res in (
        oracle_real_sign_mellin(1, 0, 0.6),
        oracle_hermitian_mellin(1, 0, 2, 0.6),
        oracle_complex_square_mellin(1, 0, 3, 0.6),
    ):
        assert complex(res) == 0
        assert res.route == "exact"


# ---------------------------------------------------------------------------
# Contour routes against the closed forms.  a is drawn from the crosscheck
# band (and its negative for the forms that allow a < 0), |Im s| <= 2, and
# Re s stays inside each oracle's strip.
# ---------------------------------------------------------------------------

_A_BAND = st.floats(0.9, 1.1)
_SIGNED_A = st.tuples(st.sampled_from((-1.0, 1.0)), _A_BAND).map(lambda t: t[0] * t[1])
_IM = st.floats(-2.0, 2.0)


def _s_in(lo, hi):
    return st.builds(complex, st.floats(lo, hi), _IM)


def _assert_contour(res, want, route):
    assert res.route == route
    assert res.ratio == math.inf and res.eps_values == ()
    assert abs(complex(res) - want) <= 1e-12 * abs(want)
    assert res.err_est <= 1e-12 * abs(res.value)


@settings(max_examples=40, deadline=None)
@given(_SIGNED_A, st.floats(-1.0, 1.0), _s_in(0.16, 2.49))
def test_rotated_real_matches_closed_form(a, b, s):
    _assert_contour(oracle_real_mellin(a, b, s), zeta_real(a, b, s), "rotated")


@settings(max_examples=40, deadline=None)
@given(_SIGNED_A, st.floats(0.1, 1.0), st.sampled_from((-1.0, 1.0)), _s_in(0.16, 2.49))
def test_rotated_real_sign_matches_closed_form(a, b, sign, s):
    want = zeta_real(a, sign * b, s, RealSign())
    _assert_contour(oracle_real_sign_mellin(a, sign * b, s), want, "rotated")


# b = 0 with n = 0 takes the Bessel fold at J_0(0) = 1, at both strip edges
@settings(max_examples=40, deadline=None)
@given(_A_BAND, st.floats(0.1, 0.6), st.floats(0.0, 2.0 * math.pi),
       st.integers(-3, 3), _s_in(0.11, 1.59))
@example(1.0, 0.0, 0.0, 0, 0.11 + 0j)
@example(0.9, 0.0, 0.0, 0, 0.11 - 2j)
@example(1.0, 0.0, 0.0, 0, 1.59 + 0j)
@example(1.1, 0.0, 0.0, 0, 1.59 + 2j)
@example(1.05, 0.0, 0.0, 0, 0.7 + 0.3j)
def test_rotated_hermitian_matches_closed_form(a, babs, phase, n, s):
    b = babs * cmath.exp(1j * phase)
    want = zeta_complex_hermitian(a, b, n, s)
    _assert_contour(oracle_hermitian_mellin(a, b, n, s), want, "rotated")


@settings(max_examples=40, deadline=None)
@given(_SIGNED_A, st.floats(0.0, 1.2), st.integers(1, 5), _s_in(0.16, 2.49))
def test_rotated_radial_matches_closed_form(a, bnorm, n, s):
    want = zeta_rn_radial(a, bnorm, n, s)
    _assert_contour(oracle_radial_mellin(a, bnorm, n, s), want, "rotated")


@settings(max_examples=40, deadline=None)
@given(_A_BAND, st.floats(0.4, 0.6), st.sampled_from((-1.0, 1.0)),
       st.sampled_from((-4, -2, 2, 4)), _s_in(0.11, 1.59))
def test_hankel_square_matches_closed_form(re_a, im_a, sign, n, s):
    a = complex(re_a, sign * im_a)
    want = zeta_complex_square(a, 0, n, s)
    _assert_contour(oracle_complex_square_mellin(a, 0, n, s), want, "hankel")


def _damped_twin(oracle_fn, args):
    """The damped route for the same transform, or None where there is
    none (the square phase with b != 0 has only the Gaussian-parameter
    route)."""
    if oracle_fn is oracle_real_mellin:
        a, b, s = args
        return _real_damped(float(a), float(b), complex(s), _fold_even)
    if oracle_fn is oracle_real_sign_mellin:
        a, b, s = args
        return _real_damped(float(a), float(b), complex(s), _fold_odd)
    if oracle_fn is oracle_hermitian_mellin:
        a, b, n, s = args
        return _hermitian_damped(float(a), complex(b), n, complex(s))
    if oracle_fn is oracle_radial_mellin:
        a, bnorm, n, s = args
        pref = 2.0 * math.pi ** (0.5 * n) / math.gamma(0.5 * n)
        fold = partial(_sphere_average, n)
        return pref * complex(_real_damped(float(a), float(bnorm), complex(s), fold))
    a, b, n, s = args
    if b == 0:
        return _square_bessel(complex(a), n, complex(s))
    return None


# the criterion-6 points, and a hermitian point at b = 0, n = 0
_TWIN_POINTS = ARCH_POINTS + (
    ("hermitian", zeta_complex_hermitian, oracle_hermitian_mellin, (1, 0, 0, 0.7 + 0.3j)),
)


@pytest.mark.parametrize(
    "point", _TWIN_POINTS, ids=[f"{pt[0]}-{i}" for i, pt in enumerate(_TWIN_POINTS)]
)
def test_contour_and_damped_routes_agree_on_criterion_6(point):
    # independent machinery on both sides: the contour route (or, for the
    # square phase at n = 0, the Gaussian-parameter route) against the
    # damped eps ladder
    _, _, oracle_fn, args = point
    res = oracle_fn(*args)
    assert res.route in ("rotated", "hankel", "schwinger")
    twin = _damped_twin(oracle_fn, args)
    if twin is None:
        assert res.route == "schwinger"
        return
    assert abs(complex(res) - complex(twin)) <= 1e-8 * abs(complex(res))


def _cut_points(family, count=40, seed=44):
    """count seeded points of one family, |Im s| <= 8, inside its strip."""
    rng = random.Random(f"{family}-{seed}")
    pts = []
    for _ in range(count):
        a = rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0)
        s = complex(rng.uniform(0.16, 2.49), rng.uniform(-8.0, 8.0))
        if family == "real":
            pts.append((oracle_real_mellin, (a, rng.uniform(-1.0, 1.0), s)))
        elif family == "sign":
            pts.append((oracle_real_sign_mellin, (a, rng.uniform(-1.0, 1.0), s)))
        elif family == "radial":
            pts.append((oracle_radial_mellin, (a, rng.uniform(0.0, 1.2), rng.randint(1, 5), s)))
        else:
            b = rng.uniform(0.0, 0.6) * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
            s = complex(rng.uniform(0.11, 1.59), s.imag)
            pts.append((oracle_hermitian_mellin, (abs(a), b, rng.randint(-3, 3), s)))
    return pts


@pytest.mark.parametrize("family", ["real", "sign", "radial", "hermitian"])
def test_contour_cut_at_each_points_own_tail(monkeypatch, family):
    # a contour sum starts where e^(Re(s) u) (e^(Re(2s) u) on the
    # hermitian line) falls below the tail level; a tail level of 0 sums
    # from u = -260 at every point, and takes the same route to the same
    # value.  The damped route does not read the tail level, so a stand-in
    # marks where the contour refuses a point, both ways
    marker = oracle.ArchOracleResult(1.0, 0.0, math.inf, (), "damped")
    monkeypatch.setattr(oracle, "_real_damped", lambda *args: marker)
    for fn, args in _cut_points(family):
        cut = fn(*args)
        with monkeypatch.context() as m:
            m.setattr(oracle, "_CONTOUR_TAIL", 0.0)
            full = fn(*args)
        assert cut.route == full.route, args
        assert abs(complex(cut) - complex(full)) <= 1e-13 * abs(complex(full)), args


def test_integrands_take_at_most_a_block_of_nodes_a_call():
    # a complex block of _BLOCK entries stays below glibc malloc's 128 KiB
    # mmap threshold; the blocked sums are the sums over every node
    assert 16 * oracle._BLOCK < 128 * 1024
    sizes = []

    def g(u):
        sizes.append(len(u))
        return np.exp(0.2 * u - np.exp(2.0 * u)) + 0j

    # integral of e^(0.2 u - e^(2u)) du over the real line: Gamma(0.1) / 2
    value, diff, _ = oracle._log_trapezoid(g, 0.2)
    assert sizes == [oracle._BLOCK, oracle._BLOCK, len(oracle._CONTOUR_NODES) - 2 * oracle._BLOCK]
    assert abs(value - math.gamma(0.1) / 2.0) <= 1e-13 * abs(value)
    assert diff <= 1e-12 * abs(value)
    del sizes[:]

    def f(x):
        sizes.append(len(x))
        return np.exp(1j * x)

    edges = np.linspace(0.0, 10.0, 1001)
    total, l1 = oracle._integrate_panels(f, edges, 40)
    assert max(sizes) <= oracle._BLOCK and sum(sizes) == 1000 * 40
    assert abs(total - (cmath.exp(10j) - 1.0) / 1j) <= 1e-13
    assert l1 == pytest.approx(10.0, rel=1e-13)


def test_contour_start_is_even_and_below_the_tail():
    nodes = oracle._CONTOUR_NODES
    for sigma in (0.1, 0.15, 0.3, 0.5, 1.0, 2.5, 3.2):
        start = oracle._contour_start(sigma)
        assert start % 2 == 0
        assert math.exp(sigma * nodes[start]) < oracle._CONTOUR_TAIL or start == 0
        # past the clamp at u = -260, the next even node is above the tail
        if start > 0:
            assert math.exp(sigma * nodes[start + 2]) > oracle._CONTOUR_TAIL
    assert oracle._contour_start(0.15) == 0  # e^(0.15 u) reaches 1e-40 below -260


@pytest.mark.parametrize("sigma", [0.85, 0.9, 0.91, 0.919])
def test_schwinger_counts_the_mass_below_its_first_panel(sigma):
    # near the strip edge Re s = 0.92 the integrand t^(-s) decays so slowly
    # at t -> 0 that the part below the first panel carries weight; it is
    # added in closed form and the point matches the closed form
    a, b, s = 1 + 0.5j, 0.2 + 0.1j, complex(sigma, 0.4)
    res = oracle_complex_square_mellin(a, b, 0, s)
    want = zeta_complex_square(a, b, 0, s)
    assert res.route == "schwinger"
    dev = abs(complex(res) - want)
    assert dev <= 1e-13
    assert dev <= res.err_est


@pytest.mark.parametrize("family", ["sign", "radial"])
def test_damped_err_est_covers_the_closed_form(family):
    # seeded points with |Im s| <= 30 that the contour route refuses,
    # where cancellation leaves the ladder's value off the closed form by
    # up to 9e5 times the closed form's size: err_est, which weights each
    # rung's doubled-order difference and the rounding of its sums as the
    # extrapolation weights the rung, covers that distance (the largest
    # difference unweighted, without the rounding, fell short by up to
    # 1.75 times)
    rng = random.Random(f"damped-{family}")
    damped = 0
    while damped < 6:
        a = rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0)
        b = rng.uniform(-1.0, 1.0)
        s = complex(rng.uniform(0.16, 2.49), rng.uniform(-30.0, 30.0))
        if family == "sign":
            res, want = oracle_real_sign_mellin(a, b, s), zeta_real(a, b, s, RealSign())
        else:
            n, b = rng.randint(1, 5), 1.2 * abs(b)
            res, want = oracle_radial_mellin(a, b, n, s), zeta_rn_radial(a, b, n, s)
        if res.route == "damped":
            damped += 1
            assert abs(complex(res) - want) <= res.err_est, (a, b, s)


@pytest.mark.parametrize("a,b,s", [(2, 0.5, 0.5 + 25j), (0.5, 1.5, 0.5 + 14j)])
def test_contour_refuses_heavy_cancellation(a, b, s):
    # the rotation costs about exp(pi |Im s| / 4) in cancellation; these
    # points cannot be answered to 1e-12 on the ray and go to the ladder
    res = oracle_real_mellin(a, b, s)
    assert res.route == "damped"
    assert len(res.eps_values) == 3


def test_strip_rejections():
    with pytest.raises(DomainError):
        oracle_real_mellin(1, 0, 0.05)
    with pytest.raises(DomainError):
        oracle_complex_square_mellin(1, 0.2, 0, 0.95)
    with pytest.raises(DomainError):
        oracle_complex_square_mellin(1, 0.2, 2, 0.5)
    with pytest.raises(DomainError):
        oracle_real_mellin(0, 1, 0.5)


def _doubling_loop_edges(lo, split, hi, rate, max_phase):
    """The panel edges of a doubling loop from lo to split, each edge
    twice the last, then the oscillation-limited panels up to hi."""
    edges, x = [lo], lo
    while x < split:
        x = min(x * 2.0, split)
        edges.append(x)
    while x < hi:
        dx = max_phase / rate(x)
        dx = max_phase / rate(min(x + 0.5 * dx, hi))
        x = min(x + dx, hi)
        edges.append(x)
    return np.asarray(edges)


def test_panel_edges_respect_the_phase_budget():
    rate = lambda x: 2 * math.pi * x + 1.0
    edges = _panel_edges(1e-120, 1.0, 50.0, rate, 8.0)
    assert edges[0] == 1e-120 and edges[-1] == 50.0
    assert np.all(np.diff(edges) > 0)
    osc = edges[edges >= 1.0]
    widths = np.diff(osc)
    # budget checked against the rate at the left edge of each panel
    assert np.all(widths * (2 * math.pi * osc[:-1] + 1.0) < 8.0 * 1.3)
    # the doubling run is lo 2^k, bit for bit the loop's edges: split an
    # exact power of two above lo, just past one, a subnormal lo, no run
    # at all (lo = split = 0, lo above split)
    for lo, split, hi in ((1e-120, 1.0, 50.0), (2.0**-40, 1.0, 3.0),
                          (2.0**-40 * (1 + 2**-52), 1.0, 3.0), (1e-16 / 3.0, 0.3, 1.0),
                          (5e-324, 1.0, 2.0), (0.0, 0.0, 8.0), (2.0, 1.0, 5.0)):
        got = _panel_edges(lo, split, hi, rate, 8.0)
        want = _doubling_loop_edges(lo, split, hi, rate, 8.0)
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_sphere_average_small_and_large_arguments():
    w = np.array([0.0, 1e-9, 0.5, 2.0, 10.0])
    # two-point sphere: plain cosine
    got = _sphere_average(1, w)
    assert np.allclose(got, np.cos(w), atol=1e-12)
    # three variables: the classical sinc profile
    got3 = _sphere_average(3, w[2:])
    assert np.allclose(got3, np.sin(w[2:]) / w[2:], atol=1e-12)
    # continuity across the series switch
    lo, hi = _sphere_average(4, np.array([9.99e-7, 1.01e-6]))
    assert abs(lo - hi) < 1e-9
    # complex arguments on the rotated ray, including the series branch
    wc = np.array([0.0, 1e-9, 0.5, 2.0, 10.0]) * cmath.exp(-0.25j * math.pi)
    assert np.allclose(_sphere_average(1, wc), np.cos(wc), rtol=1e-13, atol=0)
    assert np.allclose(_sphere_average(3, wc[2:]), np.sin(wc[2:]) / wc[2:], rtol=1e-13, atol=0)
    assert abs(_sphere_average(3, wc[1:2])[0] - 1.0) < 1e-15


def test_square_dual_routes_agree():
    # the Gaussian-parameter route and the damped Bessel route are
    # independent machinery; at b = 0 both apply
    for a in (1.0 + 0j, 1.5 - 0.8j):
        for s in (0.45 + 0.6j, 0.7):
            schwinger = complex(oracle_complex_square_mellin(a, 0, 0, s))
            bessel = complex(_square_bessel(complex(a), 0, complex(s)))
            assert abs(schwinger - bessel) < 2e-7 * abs(schwinger)


def test_negative_angular_index_matches_conjugate_symmetry():
    # substituting z -> conj(z) in the integral flips n and conjugates b
    b = 0.35 * complex(math.cos(0.5), math.sin(0.5))
    s = 0.5 + 0.3j
    direct = complex(oracle_hermitian_mellin(1, b, -2, s))
    swapped = complex(oracle_hermitian_mellin(1, b.conjugate(), 2, s))
    assert abs(direct - swapped) < 1e-7 * abs(direct)


# ---------------------------------------------------------------------------
# p-adic oracle


@pytest.mark.parametrize(
    "a,b,p,n_chi",
    [
        (1, Fraction(1, 9), 3, 0),  # escape level 2: a two-sided profile
        (Fraction(1, 8), 0, 2, 0),
        (Fraction(2, 25), Fraction(3, 5), 5, 0),
        (1, Fraction(1, 3), 3, 1),  # ramified
        (Fraction(1, 5), 0, 5, 1),  # ramified, b = 0
    ],
)
def test_padic_oracle_sums_each_level_once(monkeypatch, a, b, p, n_chi):
    chi = None if n_chi == 0 else next(iter(unit_characters(p, n_chi)))
    want = oracle_padic_mellin(a, b, p, 0.7 + 3j, chi=chi)
    levels = []

    def counted(a_, b_, p_, y, chi=None, margin=1):
        levels.append(y)
        return unit_average(a_, b_, p_, y, chi=chi, margin=margin)

    monkeypatch.setattr(oracle, "unit_average", counted)
    _clear_profiles()  # a cached profile would sum nothing at all
    assert oracle_padic_mellin(a, b, p, 0.7 + 3j, chi=chi) == want
    assert levels
    assert len(levels) == len(set(levels))


def _clear_profiles():
    oracle._mellin_profile.cache_clear()
    oracle._vector_profile.cache_clear()


def _no_exact_sums(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("exact sum on a cached input")

    monkeypatch.setattr(oracle, "unit_average", refused)
    monkeypatch.setattr(oracle, "theta_additive", refused)


def test_padic_oracles_reuse_the_profile_at_a_new_s(monkeypatch):
    chi = next(iter(unit_characters(5, 1)))
    cfg = ((Fraction(1, 9), Fraction(2, 3)), (2, 0))
    mellin = [(1, Fraction(1, 9), 3, None), (Fraction(2, 25), Fraction(3, 5), 5, chi)]
    for a, b, p, c in mellin:
        oracle_padic_mellin(a, b, p, 0.7 + 3j, chi=c)
    oracle_padic_vector(cfg, 3, 0.7 + 3j)
    _no_exact_sums(monkeypatch)
    for a, b, p, c in mellin:
        oracle_padic_mellin(a, b, p, 1.2 - 5j, chi=c, twist=0.5 + 0.5j)
    oracle_padic_vector(cfg, 3, 1.2 - 5j)
    assert oracle._mellin_profile.cache_info().maxsize == 256
    assert oracle._vector_profile.cache_info().maxsize == 256


@pytest.mark.parametrize("p", [211, 1009])
def test_oracles_of_sumless_builders_sum_at_margin_zero(p):
    # a = 3p/7 (odd v(a)) and b = 2/p: at margin 1 the Mellin oracle took
    # 49 s at p = 1009 and the vector oracle 12.8 s at p = 211; the
    # unramified and vector builders run no sum, so their oracles sum at
    # the minimal level and take about a millisecond
    a, b = Fraction(3 * p, 7), Fraction(2, p)
    _clear_profiles()
    start = time.perf_counter()
    mellin = oracle_padic_mellin(a, b, p, 2)
    oracle_padic_vector(((a, b),), p, 2)
    assert time.perf_counter() - start < 0.25
    want = local_factor(a, b, p).evaluate(2)
    assert abs(mellin - want) <= 1e-13 * abs(want)


def test_padic_oracle_refusals_are_not_cached():
    # a window of 0 levels ends every upper scan; each call refuses anew
    for _ in range(2):
        with pytest.raises(SupportEscapeError):
            oracle_padic_mellin(1, Fraction(1, 9), 3, 0.7 + 3j, max_window=0)
        with pytest.raises(SupportEscapeError):
            oracle_padic_vector(((1, Fraction(1, 9)),), 3, 0.7 + 3j, max_window=0)


def _seeded_padic_inputs(seed, count):
    """count seeded (kind, args) oracle inputs: mellin with chi None,
    trivial or mod p, and vectors of 1 to 3 components."""
    rng = random.Random(seed)

    def rational(p):
        unit = rng.choice([u for u in (1, -1, 2, 3, -5, 7, 11) if u % p])
        return Fraction(unit) * Fraction(p) ** rng.randint(-5, 5)

    out = []
    for _ in range(count):
        p = rng.choice([2, 3, 5, 7])
        if rng.random() < 0.7:
            chars = [None] + list(unit_characters(p, 0))
            if p != 2:
                chars += list(unit_characters(p, 1))
            b = 0 if rng.random() < 0.2 else rational(p)
            out.append(("mellin", (rational(p), b, p, rng.choice(chars))))
        else:
            cfg = tuple((rational(p), rational(p)) for _ in range(rng.randint(1, 3)))
            out.append(("vector", (cfg, p)))
    return out


def _padic_value(kind, args, s, twist):
    if kind == "mellin":
        a, b, p, chi = args
        return oracle_padic_mellin(a, b, p, s, chi=chi, twist=twist)
    return oracle_padic_vector(*args, s)


def test_cached_profiles_give_the_cold_values():
    grid = [(s, (1.0, 0.5 + 0.5j)[k % 2]) for k, s in enumerate(S_GRID)]
    for kind, args in _seeded_padic_inputs(18, 24):
        cold = []
        for s, twist in grid:
            _clear_profiles()
            cold.append(repr(_padic_value(kind, args, s, twist)))
        warm = [repr(_padic_value(kind, args, s, twist)) for s, twist in grid]
        assert warm == cold, (kind, args)


@pytest.mark.parametrize("call,error", [
    (lambda: oracle_padic_mellin(0, 1, 5, 1.0), DegenerateError),
    (lambda: oracle_padic_vector(((1, 1), (0, 1)), 5, 1.0), DegenerateError),
    (lambda: oracle_padic_mellin(1, 1, 1, 1.0), DomainError),
    (lambda: oracle_padic_vector(((1, 1),), 1, 1.0), DomainError),
    (lambda: oracle_padic_mellin(1, 0, 5, 1.0, chi=UnitCharacter(3, 1, 1)), DomainError),
    (lambda: oracle_padic_mellin(1, 1, 5, math.nan), DomainError),
    (lambda: oracle_padic_vector(((1, 1),), 5, complex(0.5, math.nan)), DomainError),
], ids=["a=0", "vector-a=0", "p=1", "vector-p=1", "chi-of-3-at-5", "s=nan",
        "vector-s=nan"])
def test_padic_oracles_refuse_bad_inputs(call, error):
    # a = 0 overflowed int(inf), p = 1 never ended the valuation loop, a
    # character of another prime and s = nan gave a value
    with pytest.raises(error):
        call()


def test_vector_oracle_refuses_an_empty_configuration():
    # as padic_vector_factor(()) does; with no component there is no shell
    # average to walk
    with pytest.raises(DegenerateError):
        oracle_padic_vector((), 3, 1.0)
