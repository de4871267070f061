"""Special-function layer against independent references.

mpmath is the numerical reference here; the library itself never imports it.
"""

import cmath
import gc
import itertools
import math
import random
import time
import warnings
import weakref
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weakmellin import specfun as sf
from weakmellin.errors import ConvergenceError, DomainError, PoleError, PrecisionWarning

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


def _lanczos_loop(zz):
    # the array body's Lanczos sum as a loop over the fractions, in order
    x = sf._LANCZOS_C[0]
    for i in range(1, 9):
        x = x + sf._LANCZOS_C[i] / (zz + i)
    return x


def test_batched_lanczos_sum_is_the_sequential_loop_bit_for_bit(monkeypatch):
    # log_gamma's array body sums the eight Lanczos fractions of a block
    # of points as one table; every value equals the loop's, bit for bit,
    # on a seeded grid over both half-planes, |Im z| <= 60, and 1e-6 off
    # the poles, as one call of 1 972 points (blocks of 512 and a last
    # one of 436), as one point alone and as a call whose last block is
    # one point
    rng = random.Random(46)
    z = [complex(rng.uniform(-12.0, 12.0), rng.uniform(-60.0, 60.0)) for _ in range(1900)]
    z += [complex(-k, 0.0) + 1e-6 * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
          for k in range(12) for _ in range(6)]
    z = np.array(z)
    assert z.size == 1972
    got = sf.log_gamma(z)
    calls = [sf.log_gamma(z[i:i + 1])[0] for i in range(0, z.size, 97)]
    tail = sf.log_gamma(z[:sf._LANCZOS_BLOCK + 1])
    monkeypatch.setattr(sf, "_lanczos_sum", _lanczos_loop)
    assert np.array_equal(got, sf.log_gamma(z))
    assert np.array_equal(calls, [sf.log_gamma(z[i:i + 1])[0] for i in range(0, z.size, 97)])
    assert np.array_equal(tail, sf.log_gamma(z[:sf._LANCZOS_BLOCK + 1]))
    zz = np.where(z.real < 0.5, 1.0 - z, z) - 1.0
    for n in (1, 2, 3, 511, 512, 513, 1025, 1972):
        assert np.array_equal(sf._lanczos_sum(zz[:n]), _lanczos_loop(zz[:n])), n


@pytest.mark.parametrize("z", [complex("nan"), complex("inf"), complex(1, math.inf)])
def test_gamma_refuses_a_non_finite_point(z):
    for f in (sf.gamma, sf.log_gamma, lambda w: sf.gamma_ratio(w, 2.5)):
        with pytest.raises(DomainError, match="finite"):
            f(z)
    with pytest.raises(DomainError, match="finite"):
        sf.gamma(np.array([1.5, z, 2.5]))


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


ZETA_POINTS = [2.0, 3 + 0.5j, 0.5 + 59j, -3.7, -0.4 + 2j, 1.001, 0.25 - 30j, -10.5, 1.7]


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


def _hurwitz(s, a):
    """zeta(s, a) - 1/(s - 1), the entire part, for a = r/q in (0, 1] and
    a scalar or a 1-D array s: the Euler-Maclaurin kernel on the power plan
    of the one residue r mod q, which dirichlet_l mod q also reads, gives
    q^-s times it."""
    frac = Fraction(a).limit_denominator(1000)
    q, plan = frac.denominator, sf._em_plan(frac.denominator, (frac.numerator,))
    if isinstance(s, np.ndarray):
        return sf._hurwitz_em_array(s, plan, sf._ONE_ARRAY) * sf._real_pow(q, s)
    return sf._hurwitz_em(complex(s), plan, sf._ONE) * q ** complex(s)


def test_hurwitz_matches_reference():
    for s, a in [(2.5, 0.3), (0.5 + 30j, 0.7), (-0.3 + 5j, 0.123), (4.0, 0.011)]:
        ref = complex(mp.zeta(s, a))
        assert abs(_hurwitz(s, a) + 1.0 / (s - 1.0) - ref) <= 1e-12 * max(abs(ref), 1.0)


def test_hurwitz_skip_pole_smooth_through_one():
    # the entire part, the kernel's value, is smooth across the pole
    a = 0.4
    v0 = _hurwitz(1.0, a)
    v1 = _hurwitz(1.0 + 1e-9, a)
    assert abs(v0 - v1) < 1e-7


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
    assert calls == [(2.5, 1.5, 39j, 60)]
    with mp.workdps(50):
        ref = complex(mp.hyp1f1(2.5, 1.5, 39j))
    assert abs(q.value - ref) <= 1e-12 * abs(ref)


def test_hyp1f1_one_pass_covers_ratio_1e32(monkeypatch):
    # Im a = 30 at |z| = 40: the partial sums exceed the value by ~1e32
    calls = _count_decimal_calls(monkeypatch)
    q = sf.hyp1f1_eval(0.25 + 30j, 0.5, 40j)
    assert q.cancellation_ratio > 1e30
    assert calls == [(0.25 + 30j, 0.5, 40j, 60)]
    with mp.workdps(60):
        ref = complex(mp.hyp1f1(0.25 + 30j, 0.5, 40j))
    assert abs(q.value - ref) <= 1e-12 * abs(ref)


def test_hyp1f1_warns_when_digit_budget_caps_out(monkeypatch):
    # a 12-digit point pass cannot absorb a ratio of 1e32
    monkeypatch.setattr(sf, "_HYP_MAX_DIGITS", 12)
    with pytest.warns(PrecisionWarning):
        sf.hyp1f1_eval(0.25 + 30j, 0.5, 40j)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.5, math.nan)])
@pytest.mark.parametrize("slot", ["a", "b", "z"])
def test_hyp1f1_rejects_non_finite_arguments(slot, bad):
    args = {"a": 0.5 + 1j, "b": 1.5, "z": 2j}
    args[slot] = bad
    with pytest.raises(DomainError):
        sf.hyp1f1_eval(**args)


def test_hyp1f1_refuses_a_series_whose_terms_cannot_shrink():
    # (|a| - 499) |z| >= 500 (|b| + 499): no term of the first 500 is smaller
    # than the one before, so the stop rule cannot fire; refused up front
    start = time.perf_counter()
    with pytest.raises(ConvergenceError):
        sf.hyp1f1_eval(1e300, 1, 1e-10)
    assert time.perf_counter() - start < 0.01
    # a pole that cuts the series short still decides
    with pytest.raises(PoleError):
        sf.hyp1f1_eval(1e300, -3, 1e-10)


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


def _cell_points(rng, j, m, n, on_line):
    """n points a with floor(2 Re a) = j and round(Im a) = m, inside
    -0.45 <= Re a <= 1.6; on_line puts every other one on Re a = j/2 + 1/4,
    which is Re s = 1/2 for a = s/2 or (s + 1)/2."""
    lo, hi = max(0.5 * j, -0.45), min(0.5 * j + 0.49, 1.6)
    return np.array([
        complex(0.5 * j + 0.25 if on_line and i % 2 else rng.uniform(lo, hi),
                m + rng.uniform(-0.49, 0.49))
        for i in range(n)
    ])


def test_hyp1f1_discs_match_mpmath_on_a_seeded_grid():
    # an array call with a full group of points in a lattice cell takes
    # the cell's Taylor disc; its error is bounded by 1e-13 of the disc
    # scale, max |1F1| on the ring |a - centre| = 0.6, and the disc's own
    # error estimate is within that bound
    rng = random.Random(22)
    ring = np.exp(2j * np.pi * np.arange(32) / 32)
    worst = 0.0
    with mp.workdps(30):
        for case in range(16):
            b = (0.5, 1.0, 1.5, 2.0)[case % 4]
            phase = (0.5 * math.pi, -0.5 * math.pi, rng.uniform(-math.pi, math.pi))[case % 3]
            z = rng.uniform(0.5, 40.0) * cmath.exp(1j * phase)
            j, m = rng.randint(-1, 3), rng.randint(-30, 30)
            a = _cell_points(rng, j, m, 16, on_line=j in (0, 1))
            centre = complex(0.5 * j + 0.25, m)
            disc = sf._kummer_disc(b, z, centre)
            assert disc is not None, (b, z, centre)
            coeffs, err = disc[:2]
            scale = np.abs(np.polyval(coeffs, ring)).max()
            got = sf.hyp1f1(a, b, z)
            for x, value in zip(a[::2], got[::2]):
                ref = complex(mp.hyp1f1(x, b, z))
                worst = max(worst, abs(value - ref) / scale)
            assert err <= 1e-13 * scale
    assert worst <= 1e-13


def _disc_pass_widths(monkeypatch):
    widths = []
    original = sf._disc_series

    def counted(b, z, centre, bits):
        widths.append(bits)
        return original(b, z, centre, bits)

    monkeypatch.setattr(sf, "_disc_series", counted)
    return widths


def test_disc_missing_by_rounding_reruns_once_at_200_bits(monkeypatch):
    # a 64-bit first pass misses the 1e-13 target by rounding alone; the
    # one rerun at the point pass's 200 bits meets it, with the 128-bit
    # disc's coefficients to within 1e-13 of the disc scale
    sf._kummer_disc.cache_clear()
    try:
        ref = sf._kummer_disc(1.5, 14.1j, 0.25 + 3j)[0]
        sf._kummer_disc.cache_clear()
        widths = _disc_pass_widths(monkeypatch)
        monkeypatch.setattr(sf, "_HYP_BITS", 64)
        coeffs, err = sf._kummer_disc(1.5, 14.1j, 0.25 + 3j)[:2]
    finally:
        sf._kummer_disc.cache_clear()  # no 64-bit disc outlives the patch
    assert widths == [64, 200]
    scale = np.abs(np.polyval(ref, np.exp(2j * np.pi * np.arange(32) / 32))).max()
    assert err <= 1e-13 * scale
    assert np.abs(coeffs - ref).max() <= 1e-13 * scale


def test_hyp1f1_refused_disc_falls_back_to_the_series(monkeypatch):
    # no disc meets a 1e-40 bound, and the tail alone misses it, so the
    # disc is refused after its one 128-bit pass: the refusal is cached as
    # None and the full group gets the per-point values bit for bit
    monkeypatch.setattr(sf, "_DISC_TARGET", 1e-40)
    a = _cell_points(random.Random(7), 0, 3, 16, on_line=True)
    sf._kummer_disc.cache_clear()
    widths = _disc_pass_widths(monkeypatch)
    try:
        got = sf.hyp1f1(a, 1.5, 14.1j)
        assert widths == [128]
        assert sf._kummer_disc(1.5, 14.1j, 0.25 + 3j) is None
        assert np.array_equal(got, [sf.hyp1f1_eval(x, 1.5, 14.1j).value for x in a])
        assert np.array_equal(got, [sf.hyp1f1(x, 1.5, 14.1j) for x in a])
    finally:
        sf._kummer_disc.cache_clear()  # no refusal outlives the patch


def _one_point_calls(a, b, z):
    """hyp1f1 at each point of a called as a one-point array."""
    return np.array([sf.hyp1f1(a[i:i + 1], b, z)[0] for i in range(a.size)])


def test_hyp1f1_array_values_do_not_depend_on_the_call(monkeypatch):
    # a lone point in a cell and a full cell each take their cell's disc:
    # every value is the disc polynomial at the point, and equals the
    # same point called alone, bit for bit, as does every point of a
    # refused disc and of z = 0; a scalar call's value does not depend on
    # which discs the cache holds
    rng = random.Random(5)
    b, z = 0.5, 14.1j
    cells = {0.25 + 12j: _cell_points(rng, 0, 12, 16, on_line=True),
             0.75 - 3j: _cell_points(rng, 1, -3, 1, on_line=False)}
    a = np.concatenate(list(cells.values()))
    sf._kummer_disc.cache_clear()
    got = sf.hyp1f1(a, b, z)
    assert sf._kummer_disc.cache_info().misses == 2
    assert np.array_equal(got, _one_point_calls(a, b, z))
    want = [np.polyval(sf._kummer_disc(b, z, centre)[0], (x - centre) / sf._DISC_RADIUS)
            for centre, x in cells.items()]
    assert np.array_equal(got, np.concatenate(want))

    sf._kummer_disc.cache_clear()
    scalars = [sf.hyp1f1(x, b, z) for x in a.tolist()]
    sf._kummer_disc.cache_clear()
    assert [sf.hyp1f1(x, b, z) for x in a.tolist()[::-1]] == scalars[::-1]
    assert np.array_equal(sf.hyp1f1(a, b, 0.0), np.ones(a.shape))
    assert np.array_equal(sf.hyp1f1(a, b, 0.0), _one_point_calls(a, b, 0.0))

    monkeypatch.setattr(sf, "_DISC_TARGET", 1e-40)
    sf._kummer_disc.cache_clear()
    try:
        got = sf.hyp1f1(a, b, z)
        assert sf._kummer_disc(b, z, 0.25 + 12j) is None
        assert np.array_equal(got, _one_point_calls(a, b, z))
    finally:
        sf._kummer_disc.cache_clear()  # no refusal outlives the patch


def test_hyp1f1_disc_sweep_matches_polyval_per_cell(monkeypatch):
    # seven cells of 1 to 16 points, shuffled together, one cell's disc
    # refused: each disc is fetched once, in the order of the cells, and
    # built once; every point of an accepted cell takes np.polyval of its
    # own cell's disc bit for bit, and the points of the refused cell are
    # left untouched for the series
    rng = random.Random(41)
    b, z = 1.5, 14.1j
    sizes = {(0, 12): 16, (1, -3): 1, (-1, 0): 5, (2, 5): 3, (3, 5): 8, (0, 13): 2, (1, 0): 11}
    pairs = [(complex(0.5 * j + 0.25, m), x)
             for (j, m), n in sizes.items() for x in _cell_points(rng, j, m, n, on_line=True)]
    rng.shuffle(pairs)
    labels = [centre for centre, _ in pairs]
    a = np.array([x for _, x in pairs])
    refused = 1.25 + 5j
    disc = sf._kummer_disc
    fetched = []

    def refusing(b, z, centre):
        fetched.append(centre)
        return None if centre == refused else disc(b, z, centre)

    monkeypatch.setattr(sf, "_kummer_disc", refusing)
    disc.cache_clear()
    try:
        out = np.full(a.shape, 7.0 + 7.0j)
        rest = sf._hyp1f1_on_discs(a, b, z, out)
        centres = sorted(set(labels), key=lambda c: (c.real, c.imag))
        assert fetched == centres
        assert disc.cache_info().misses == len(centres) - 1
        left = [i for i, c in enumerate(labels) if c == refused]
        assert rest.tolist() == left
        assert np.all(out[left] == 7.0 + 7.0j)
        for centre in centres:
            at = [i for i, c in enumerate(labels) if c == centre]
            if centre != refused:
                want = np.polyval(disc(b, z, centre)[0], (a[at] - centre) / sf._DISC_RADIUS)
                assert np.array_equal(out[at], want), centre

        got = sf.hyp1f1(a, b, z)
        assert np.array_equal(got, _one_point_calls(a, b, z))
        at = [i for i, x in enumerate(a) if round(x.imag) == 5 and x.real < 1.5]
        assert np.array_equal(got[at], [sf.hyp1f1_eval(x, b, z).value for x in a[at]])
        with pytest.raises(DomainError):
            sf.hyp1f1(np.append(a, complex(math.nan, 0.0)), b, z)
        assert sf._hyp1f1_on_discs(a[:0], b, z, out[:0]).size == 0
        assert sf.hyp1f1(a[:0], b, z).shape == (0,)
    finally:
        disc.cache_clear()


def _kummer_zeros_on_line(b, z, re_a, count):
    """The first zeros of 1F1(a; b; z) on Re a = re_a, Im a in (0, 20), to
    30 digits: the local minima of |1F1| on a 0.01 grid, polished by
    mp.findroot."""
    ts = np.arange(0.0, 20.0, 0.01)
    v = np.abs(sf.hyp1f1(re_a + 1j * ts, b, z))
    starts = [t for t, lo, x, hi in zip(ts[1:], v, v[1:], v[2:]) if x < lo and x < hi]
    return [mp.findroot(lambda a: mp.hyp1f1(a, b, z), mp.mpc(re_a, t))
            for t in starts[:count]]


def test_scalar_hyp1f1_matches_mpmath_near_and_away_from_zeros(monkeypatch):
    # scalar calls at the (b, z) of the real census and criterion 5:
    # a disc value stands only where its bound is within 1e-12 of the
    # value, so every value is good to about 1e-12 of itself; within
    # 1e-6 of a zero of 1F1 in a the value is too small against the disc
    # scale, and every such call runs the series
    rng = random.Random(24)
    zs = [1j * math.pi * b * b / a for a, b in ((2.0, 0.5), (1.0, 1.0), (0.5, 1.5))]
    zs.append(1j * rng.uniform(34.0, 38.0))  # the seeded real-census stratum
    runs = []
    series = sf._kummer_series
    monkeypatch.setattr(sf, "_kummer_series", lambda *args: runs.append(args) or series(*args))
    worst, on_discs, near = 0.0, 0, 0
    with mp.workdps(30):
        for b, z in itertools.product((0.5, 1.5), zs):
            re_a = 0.5 * b  # Re s = 1/2 for a = s/2 at b = 1/2, (s + 1)/2 at b = 3/2
            for _ in range(4):
                a = complex(re_a + rng.choice((0.0, rng.uniform(-0.2, 0.2))),
                            rng.uniform(0.0, 20.0))
                del runs[:]
                value = sf.hyp1f1(a, b, z)
                on_discs += not runs
                ref = complex(mp.hyp1f1(a, b, z))
                worst = max(worst, abs(value - ref) / abs(ref))
            for root in _kummer_zeros_on_line(b, z, re_a, 2):
                for phase in (0.3, 2.0, 4.1):
                    a = complex(root) + 1e-7 * cmath.exp(1j * phase)
                    del runs[:]
                    value = sf.hyp1f1(a, b, z)
                    assert runs, (a, b, z)
                    near += 1
                    ref = complex(mp.hyp1f1(a, b, z))
                    worst = max(worst, abs(value - ref) / abs(ref))
    assert worst <= 2e-12
    assert near == 45  # 15 zeros; 1F1(a; 3/2; i pi / 8) has one with Im a < 20
    assert on_discs >= 24  # of 32 grid points; 30 take the disc


def test_scalar_disc_values_are_good_to_1e12_of_the_value(monkeypatch):
    # a scalar call keeps its disc value where the disc's own error
    # estimate plus Horner's rounding is within 1e-12 of it, which holds
    # down to values near 1e-4 of the disc scale: seeded points near
    # zeros of 1F1 in a, points at cell corners (|u| = 0.93) and |z| up to
    # 40, every disc value against 30-digit mpmath
    rng = random.Random(25)
    ring = np.exp(2j * np.pi * np.arange(32) / 32)
    runs = []
    series = sf._kummer_series
    monkeypatch.setattr(sf, "_kummer_series", lambda *args: runs.append(args) or series(*args))
    worst, banded, corners = 0.0, 0, 0
    with mp.workdps(30):
        for b, y in ((0.5, 40.0), (1.5, 38.0), (1.0, 14.1), (2.0, 25.0)):
            z = 1j * y
            points = [complex(root) + 10.0 ** rng.uniform(-4.5, -0.7)
                      * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
                      for root in _kummer_zeros_on_line(b, z, 0.5 * b, 2)
                      for _ in range(8)]
            for _ in range(6):
                j, m = rng.randint(-1, 3), rng.randint(-20, 20)
                dx = rng.choice((1e-9, 0.5 - 1e-9))
                dy = rng.choice((-0.5 + 1e-9, 0.5 - 1e-9))
                points.append(complex(0.5 * j + dx, m + dy))
            for a in points:
                del runs[:]
                value = sf.hyp1f1(a, b, z)
                if runs:
                    continue  # the series ran: not a disc value
                centre = complex(0.5 * math.floor(2.0 * a.real) + 0.25, round(a.imag))
                scale = np.abs(np.polyval(sf._kummer_disc(b, z, centre)[0], ring)).max()
                banded += 1e-3 <= abs(value) / scale <= 1e-1
                corners += abs(a - centre) / sf._DISC_RADIUS >= 0.93
                ref = complex(mp.hyp1f1(a, b, z))
                worst = max(worst, abs(value - ref) / abs(ref))
    assert worst <= 1e-12
    assert banded >= 20 and corners >= 15


def _a_priori_accepts(a, b, z):
    """The scalar disc test before the running bound: the disc's error
    estimate plus _DISC_HORNER sum |D_m| |u|^m within 1e-12 of the
    value, kept here as the reference the running bound must cover."""
    centre = complex(0.5 * math.floor(2.0 * a.real) + 0.25, round(a.imag))
    coeffs, err = sf._kummer_disc(b, z, centre)[:2]
    u = (a - centre) / sf._DISC_RADIUS
    r = abs(u)
    value, size = 0j, 0.0
    for c in coeffs.tolist():
        value = value * u + c
        size = size * r + abs(c)
    return err + sf._DISC_HORNER * size <= 1e-12 * abs(value)


def _disc_bound(a, b, z):
    """(|u|, disc value, scale, the running bound _hyp1f1_point computes
    for the value): the disc's error estimate plus the running bound of
    its Horner pass."""
    centre = complex(0.5 * math.floor(2.0 * a.real) + 0.25, round(a.imag))
    coeffs, err, terms, _ = sf._kummer_disc(b, z, centre)
    u = (a - centre) / sf._DISC_RADIUS
    value = 0j
    for c in terms:
        value = value * u + c
    ring = np.exp(2j * np.pi * np.arange(32) / 32)
    return (abs(u), value, np.abs(np.polyval(coeffs, ring)).max(),
            err + sf._horner_rounding(terms, u))


def test_scalar_disc_values_lie_within_their_running_bound(monkeypatch):
    # seeded points at cell corners (|u| >= 0.93) and near zeros of 1F1
    # in a, down to 1e-4 of the disc scale, over b in {1/2, 1, 3/2, 2},
    # z = iy with y up to 40 and two complex z: every value a scalar call
    # takes from its disc is within the bound the code computed there and
    # within 1e-12 of 30-digit mpmath, and every point the a priori
    # Horner bound accepts takes the disc
    rng = random.Random(46)
    runs = []
    series = sf._kummer_series
    monkeypatch.setattr(sf, "_kummer_series", lambda *args: runs.append(args) or series(*args))
    cases = [(b, 1j * rng.uniform(y - 10.0, y)) for b, y in
             itertools.product((0.5, 1.0, 1.5, 2.0), (10.0, 25.0, 40.0))]
    cases += [(1.5, 20.0 * cmath.exp(0.4j)), (0.5, 30.0 * cmath.exp(-2.0j))]
    worst, least, served, running, corners = 0.0, 1.0, 0, 0, 0
    with mp.workdps(30):
        for b, z in cases:
            points = [complex(0.5 * j + rng.choice((1e-9, 0.5 - 1e-9)),
                              m + rng.choice((-0.5 + 1e-9, 0.5 - 1e-9)))
                      for j, m in ((rng.randint(-1, 3), rng.randint(-20, 20)) for _ in range(4))]
            if z.real == 0:
                points += [complex(root) + 10.0 ** rng.uniform(-5.0, -1.0)
                           * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
                           for root in _kummer_zeros_on_line(b, z, 0.5 * b, 2)
                           for _ in range(4)]
            for a in points:
                del runs[:]
                value = sf.hyp1f1(a, b, z)
                if _a_priori_accepts(a, b, z):
                    assert not runs, (a, b, z)
                if runs:
                    continue
                r, disc_value, scale, bound = _disc_bound(a, b, z)
                assert value == disc_value
                ref = complex(mp.hyp1f1(a, b, z))
                assert abs(value - ref) <= bound, (a, b, z)
                worst = max(worst, abs(value - ref) / abs(ref))
                served += 1
                running += not _a_priori_accepts(a, b, z)
                corners += r >= 0.93
                least = min(least, abs(value) / scale)
    assert worst <= 1e-12
    # 118 of 152 points take their disc, 41 of them by the running bound
    # alone, and the least is 3e-5 of its disc's scale
    assert served >= 100 and running >= 30 and corners >= 40 and least <= 1e-4


@pytest.mark.parametrize("a, b", [(0.25 + 0.1875j, 0.5), (0.25 + 2.421875j, 0.5),
                                  (0.25 + 2.4375j, 0.5), (0.75 + 7.40625j, 1.5),
                                  (0.75 + 7.421875j, 1.5)])
def test_real_census_cut_probes_take_their_disc(a, b, monkeypatch):
    # five window-cut probes of a real-census pass (seed 1) at z = 4.5 pi i,
    # which the a priori Horner bound refused: the running bound accepts
    # them, so no series runs, and each value is within 1e-12 of 30-digit
    # mpmath
    z = 4.5j * math.pi
    runs = []
    series = sf._kummer_series
    monkeypatch.setattr(sf, "_kummer_series", lambda *args: runs.append(args) or series(*args))
    value = sf.hyp1f1(a, b, z)
    assert not runs
    assert not _a_priori_accepts(a, b, z)
    with mp.workdps(30):
        ref = complex(mp.hyp1f1(a, b, z))
    assert abs(value - ref) <= 1e-12 * abs(ref)


@pytest.mark.parametrize("b, z", [(np.array([1.5, 1.5]), 14.1j),
                                  (1.5, np.array([14.1j, 14.1j])),
                                  (np.array([1.5]), np.array([14.1j]))],
                         ids=["array b", "array z", "both"])
def test_hyp1f1_refuses_an_array_b_or_z(b, z):
    # an array moves in a alone; a call with an array b or z is refused,
    # with a scalar a and with an array a, before any disc is fetched
    sf._kummer_disc.cache_clear()
    for a in (0.25 + 3j, np.array([0.25 + 3j, 2.25 + 9j])):
        with pytest.raises(DomainError, match="array in a alone"):
            sf.hyp1f1(a, b, z)
    assert sf._kummer_disc.cache_info().misses == 0


@pytest.mark.parametrize("bad", [complex(math.nan, 0.0), complex(math.inf, 1.0),
                                 complex(0.5, -math.inf)])
def test_hyp1f1_refuses_a_non_finite_a_before_any_disc(bad):
    # the array call raises the scalar call's error at its non-finite
    # point, and builds no disc for the finite points before it
    with pytest.raises(DomainError) as scalar:
        sf.hyp1f1(bad, 1.5, 14.1j)
    sf._kummer_disc.cache_clear()
    with pytest.raises(DomainError) as array:
        sf.hyp1f1(np.array([0.25 + 3j, 2.25 + 9j, bad]), 1.5, 14.1j)
    assert str(array.value) == str(scalar.value)
    assert sf._kummer_disc.cache_info().misses == 0


def test_scalar_hyp1f1_builds_its_cell_disc_once(monkeypatch):
    # the first scalar call in a fresh cell builds the cell's disc and
    # takes its value, the second finds the disc cached; neither runs the
    # series
    runs = []
    series = sf._kummer_series
    monkeypatch.setattr(sf, "_kummer_series", lambda *args: runs.append(args) or series(*args))
    sf._kummer_disc.cache_clear()
    sf.hyp1f1(0.3 + 7.2j, 1.5, 14.1j)
    assert sf._kummer_disc.cache_info()[:2] == (0, 1)  # (hits, misses)
    sf.hyp1f1(0.4 + 6.9j, 1.5, 14.1j)  # the same cell, centred at 0.25 + 7i
    assert sf._kummer_disc.cache_info()[:2] == (1, 1)
    assert not runs


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


def test_bernoulli_table_is_mpmaths():
    expect = tuple(
        Fraction(*map(int, mp.bernfrac(2 * k))) for k in range(1, sf._EM_M + 1)
    )
    assert sf._BERNOULLI == expect


def _first_omitted(M, s):
    # B_2(M+1)/(2(M+1))! (s)_{2M+1} cut^(-s-2M-1) at a -> 0, cut = N
    k = M + 1
    return abs(mp.bernoulli(2 * k) / mp.factorial(2 * k) * mp.rf(s, 2 * k - 1)
               * mp.power(sf._EM_N, -s - (2 * k - 1)))


def test_euler_maclaurin_first_omitted_correction_is_below_1e_16():
    # the worst corner of the domain: Re s = -0.5, |Im s| = 60 and a -> 0,
    # so the cutoff N + a is N
    corner = [_first_omitted(sf._EM_M, mp.mpc(-0.5, y)) for y in (60, -60)]
    assert max(corner) < 1e-16
    # each band ceil(|s|) = h of the table keeps the first omitted
    # correction at or below that corner's 4.7e-17.  Along |s| = h the term
    # falls as Re s grows, so the band's worst corner is Re s = -0.5; band
    # 0 is s = 0 alone, where every correction vanishes
    bound = corner[0]
    assert len(sf._EM_TERMS) == 61 and sf._EM_TERMS[60] == sf._EM_M == 22
    for h in range(1, 61):
        M = sf._EM_TERMS[h]
        arc = [mp.mpc(x, mp.sqrt(h * h - x * x)) for x in (-0.5, 0.0, 0.5 * h, h - 0.1)]
        terms = [_first_omitted(M, s) for s in arc]
        assert max(terms) == terms[0] <= bound, h


# the Euler-Maclaurin domain, the truncation corner Re s = -0.5, |Im s| = 60
# included, at offsets down to 1/997 (the smallest of a modulus near 1000)
_EM_GRID = np.array([
    complex(x, y)
    for x in (-0.5, 0.0, 0.5, 1.0, 2.5)
    for y in np.linspace(-60.0, 60.0, 25)
    if complex(x, y) != 1.0
])


@pytest.mark.parametrize("a", [1.0, 1 / 2, 1 / 3, 1 / 7, 6 / 7, 1 / 997])
def test_hurwitz_zeta_matches_mpmath_over_the_domain(a):
    values = _hurwitz(_EM_GRID, a) + 1.0 / (_EM_GRID - 1.0)
    for s, value in zip(_EM_GRID.tolist(), values.tolist()):
        ref = complex(mp.zeta(s, a))
        tol = 2e-13 * (1.0 + abs(ref))
        assert abs(_hurwitz(s, a) + 1.0 / (s - 1.0) - ref) <= tol, (s, a)
        assert abs(value - ref) <= tol, (s, a)


def test_riemann_zeta_matches_mpmath_over_the_domain():
    # right of Re s = 0 riemann_zeta runs the kernel directly
    points = _EM_GRID[_EM_GRID.real >= 0.0]
    values = sf.riemann_zeta(points)
    for s, value in zip(points.tolist(), values.tolist()):
        ref = complex(mp.zeta(s))
        tol = 2e-13 * (1.0 + abs(ref))
        assert abs(sf.riemann_zeta(s) - ref) <= tol, s
        assert abs(value - ref) <= tol, s


def _mp_dirichlet(s, tables):
    """mp.dirichlet(s, table) for each table of one modulus q, with each
    Hurwitz zeta(s, r/q) computed once for all of them: the sum that
    mp.dirichlet forms, q^(-s) sum chi(r) zeta(s, r/q) over r = 1 .. q,
    at its 10 extra bits, rounded back as it rounds."""
    s, q = mp.mpmathify(s), len(tables[0])
    with mp.extraprec(10):
        zetas = {r: mp.zeta(s, (r, q)) for r in range(1, q + 1)
                 if any(table[r % q] for table in tables)}
        sums = []
        for table in tables:
            total = mp.mpf(0)
            for r in range(1, q + 1):
                if table[r % q]:
                    total += table[r % q] * zetas[r]
            sums.append(total / q**s)
    return [+total for total in sums]


@pytest.mark.parametrize("q", [5, 7])
def test_dirichlet_l_matches_mpmath_on_the_critical_line(q):
    points = 0.5 + 1j * np.linspace(-60.0, 60.0, 25)
    chars = list(sf.characters(q))
    tables = [[chi(n) for n in range(q)] for chi in chars]
    refs = [[complex(ref) for ref in _mp_dirichlet(s, tables)] for s in points.tolist()]
    for k, chi in enumerate(chars):
        values = sf.dirichlet_l(points, chi)
        for s, value, row in zip(points.tolist(), values.tolist(), refs):
            ref = row[k]
            tol = 2e-13 * (1.0 + abs(ref))
            assert abs(sf.dirichlet_l(s, chi) - ref) <= tol, (chi, s)
            assert abs(value - ref) <= tol, (chi, s)


# |s - 1| from 1e-7 to 0.3 in three directions, where the regular part
# (base^(1-s) - 1) / (s - 1) of the Euler-Maclaurin kernel is 0 / 0 in
# the limit
_NEAR_ONE = np.array([
    1.0 + r * u
    for r in np.geomspace(1e-7, 0.3, 15)
    for u in (1.0, 1j, cmath.exp(-0.75j * math.pi))
])


@pytest.mark.parametrize("a", [1 / 7, 1 / 2, 1.0])
def test_hurwitz_entire_part_matches_mpmath_near_one(a):
    values = _hurwitz(_NEAR_ONE, a)
    with mp.workdps(40):
        for s, value in zip(_NEAR_ONE.tolist(), values.tolist()):
            z = mp.mpc(s)
            ref = complex(mp.zeta(z, a) - 1 / (z - 1))
            tol = 1e-14 * (1.0 + abs(ref))
            assert abs(_hurwitz(s, a) - ref) <= tol, (s, a)
            assert abs(value - ref) <= tol, (s, a)


@pytest.mark.parametrize("a", [1 / 7, 1 / 2, 1.0])
def test_hurwitz_entire_part_at_one_is_minus_digamma(a):
    # at s = 1 and a subnormal step from it, where numpy's complex division
    # by (1 - s) log(N + a) would overflow, both bodies take exprel as 1
    points = np.array([1.0, 1.0 + 1e-310j, 1.0 - 1e-320j])
    ref = -complex(mp.digamma(a))
    values = _hurwitz(points, a)
    for s, value in zip(points.tolist(), values.tolist()):
        assert abs(_hurwitz(s, a) - ref) <= 1e-14 * abs(ref), s
        assert abs(value - ref) <= 1e-14 * abs(ref), s


@pytest.mark.parametrize("q", [5, 7])
def test_dirichlet_l_matches_mpmath_near_one(q):
    chars = [chi for chi in sf.characters(q) if not chi.is_principal]
    with mp.workdps(40):
        # exact phases: rounded values of chi would give the reference a
        # pole part, their rounded sum over (s - 1)
        tables = [[0 if (ph := chi.phase(n)) is None
                   else mp.expjpi(2 * mp.mpf(ph.numerator) / ph.denominator)
                   for n in range(q)] for chi in chars]
        refs = [[complex(ref) for ref in _mp_dirichlet(mp.mpc(s), tables)]
                for s in _NEAR_ONE.tolist()]
    for k, chi in enumerate(chars):
        values = sf.dirichlet_l(_NEAR_ONE, chi)
        for s, value, row in zip(_NEAR_ONE.tolist(), values.tolist(), refs):
            ref = row[k]
            tol = 1e-14 * (1.0 + abs(ref))
            assert abs(sf.dirichlet_l(s, chi) - ref) <= tol, (chi, s)
            assert abs(value - ref) <= tol, (chi, s)


def test_euler_maclaurin_tables_stay_within_their_cache_bound():
    # one power plan per modulus; sweep more moduli than the cache keeps:
    # every kept plan equals a fresh build
    plans = sf._em_plan
    bound = plans.cache_info().maxsize
    assert bound == 16
    points = np.array([0.5 + 14j, 2.0 - 3j])
    moduli = [q for q in range(500, 1000) if all(q % d for d in range(2, 32))][:bound + 4]
    assert len(moduli) > bound
    for q in moduli:
        chi = sf.DirichletCharacter(q, (1,))
        sf.dirichlet_l(points, chi)
    assert plans.cache_info().currsize == bound
    for q in moduli[-bound:]:
        residues = tuple(range(1, q))
        kept, fresh = plans(q, residues), plans.__wrapped__(q, residues)
        assert (kept.rounds, kept.scale) == (fresh.rounds, fresh.scale)
        for name in ("values", "bases", "logs", "left", "right", "rows", "cut", "lb", "weights"):
            assert np.array_equal(getattr(kept, name), getattr(fresh, name)), name
        assert kept.left.dtype == kept.right.dtype == kept.rows.dtype == np.int32


def _l_plan(q):
    chi = next(c for c in sf.characters(q) if not c.is_principal)
    residues, weights = chi._em_weights
    return chi, sf._em_plan(q, residues), weights


def _units(q):
    return tuple(r for r in range(1, q + 1) if math.gcd(r, q) == 1)


class _CountingExponent(complex):
    """A complex s that counts the powers x ** -s taken with it."""

    count = 0

    def __neg__(self):
        return _CountingExponent(-complex(self))

    def __rpow__(self, base):
        _CountingExponent.count += 1
        return base ** complex(self)


@pytest.mark.parametrize("q, powers", [(1, 9), (5, 30), (7, 40), (997, 2755)])
def test_euler_maclaurin_powers_per_point(q, powers, monkeypatch):
    # the complex powers a point costs, at the one power call of each
    # body; raised one by one the bases would cost 25 for zeta and
    # 25 phi(q) + 1 for L: 101, 151 and 24 901
    if q == 1:
        plan, weights = sf._em_plan(1, (1,)), (1.0,)
        call = sf.riemann_zeta
    else:
        chi, plan, weights = _l_plan(q)
        call = lambda s: sf.dirichlet_l(s, chi)  # noqa: E731
    _CountingExponent.count = 0
    scalar = sf._hurwitz_em(_CountingExponent(0.5 + 14j), plan, weights)
    assert _CountingExponent.count == powers
    assert scalar == sf._hurwitz_em(0.5 + 14j, plan, weights)
    sizes = []
    real_pow = sf._real_pow

    def counting(x, w, log_x=None):
        out = real_pow(x, w, log_x)
        sizes.append(out.size)
        return out

    monkeypatch.setattr(sf, "_real_pow", counting)
    points = 0.5 + 1j * np.linspace(1.0, 59.0, 3)
    call(points)
    assert sum(sizes) == powers * points.size


@pytest.mark.parametrize("q", [1, 5, 7, 12, 997])
def test_power_plans_raise_primes_and_multiply_the_rest(q):
    residues = _units(q)
    plan = sf._em_plan(q, residues)
    values = plan.values.astype(np.int64).tolist()
    D = plan.bases.size
    assert len(set(values)) == len(values) and values[0] == 1
    assert values[plan.scale] == q
    for i, r in enumerate(residues):
        assert [values[e] for e in plan.rows[i]] == [n * q + r for n in range(sf._EM_N + 1)]
    # every prime is raised directly, and nothing else
    primes = [m for m in values if m > 1 and all(m % d for d in range(2, math.isqrt(m) + 1))]
    assert values[1 : D + 1] == primes and plan.bases.tolist() == primes
    # every composite is the product of two entries of earlier rounds
    assert len(values) == D + 1 + plan.left.size
    bounds = [0, *itertools.chain(*plan.rounds), plan.left.size]
    assert bounds[::2] == bounds[1::2]  # the rounds run through the products
    for lo, hi in plan.rounds:
        for t in range(lo, hi):
            left, right = int(plan.left[t]), int(plan.right[t])
            assert max(left, right) < D + 1 + lo
            assert values[D + 1 + t] == values[left] * values[right]


# the corners of the domain and seeded points inside it
_SIEVE_RNG = random.Random(36)
_SIEVE_POINTS = [complex(x, y) for x in (-0.5, 2.5) for y in (-60.0, 60.0)] + [
    complex(_SIEVE_RNG.uniform(-0.5, 2.5), _SIEVE_RNG.uniform(-60.0, 60.0)) for _ in range(4)
]


@pytest.mark.parametrize("q", [1, 7, 997])
def test_sieved_powers_match_the_direct_powers(q):
    # m^-s formed as products of prime powers against CPython's m ** -s.
    # The direct power rounds its phase Im(s) log m, so the scale of both
    # errors is the ulp of |s| log m, and the two agree to four of those
    plan = sf._em_plan(q, _units(q))
    values = plan.values.tolist()
    points = _SIEVE_POINTS if q < 997 else _SIEVE_POINTS[:3]
    table = sf._entries_array(plan, -np.array(points))
    eps = 2.0**-52
    for j, s in enumerate(points):
        for m, scalar, array in zip(values, sf._entries(plan, -s), table[:, j].tolist()):
            direct = m ** -s
            tol = 4 * eps * (1 + abs(s) * math.log(m)) * abs(direct)
            assert abs(scalar - direct) <= tol, (m, s)
            assert abs(array - direct) <= tol, (m, s)


def test_character_weights_are_built_once(monkeypatch):
    # dirichlet_l reads the character's (residues, weights) pair, kept on
    # the character, not chi(n) at every residue on every call
    chi = sf.DirichletCharacter(7, (2,))
    residues, weights = chi._em_weights
    assert residues == tuple(n for n in range(1, 8) if chi(n) != 0)
    assert weights == tuple(chi(n) for n in residues)
    assert chi._em_weights is chi._em_weights
    calls = []
    call = sf.DirichletCharacter.__call__
    monkeypatch.setattr(sf.DirichletCharacter, "__call__",
                        lambda self, n: calls.append(n) or call(self, n))
    sf.dirichlet_l(0.5 + 3j, chi)
    sf.dirichlet_l(np.array([0.5 + 3j, 2.0]), chi)
    assert calls == []


def test_discrete_log_tables_stay_within_their_cache_bound():
    # one table per prime power; sweep more primes than the cache keeps:
    # a character's phases at each prime come out as before the sweep,
    # and every kept table equals a fresh build
    tables = sf._dlog_array
    bound = tables.cache_info().maxsize
    primes = [q for q in range(3, 200) if all(q % d for d in range(2, q))][:bound + 4]
    assert len(primes) > bound

    def values():
        return [sf.DirichletCharacter(q, (1,))._phases for q in primes]

    before = values()
    tables.cache_clear()
    assert values() == before
    assert tables.cache_info().currsize == bound
    for q in primes[-bound:]:
        assert np.array_equal(tables(q, 1), tables.__wrapped__(q, 1))


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


def test_conductor_does_not_keep_its_character_alive():
    chi = sf.DirichletCharacter(7, (2,))
    assert chi.conductor == 7
    ref = weakref.ref(chi)
    del chi
    gc.collect()
    assert ref() is None


def test_primitive_character_induces_original():
    for chi in sf.characters(24):
        prim = chi.primitive_character()
        assert prim.modulus == chi.conductor
        assert prim.is_primitive
        for n in range(1, 25):
            if math.gcd(n, 24) == 1:
                assert abs(prim(n) - chi(n)) < 1e-13


def _brute_force_characters(q):
    """Index tuples of every character mod q and their phases over the
    residues mod q, as numerators over L (-1 at non-units): the discrete
    logs come from enumerating every product of the CRT-lifted local
    generator powers."""
    gens = []
    for p, k in sf._factorize(q):
        pk, rest = p**k, q // p**k
        for g, order in sf._local_generators(p, k):
            lift = next(x for x in range(q) if x % pk == g % pk and x % rest == 1 % rest)
            gens.append((lift, order))
    L = math.lcm(*(order for _, order in gens))
    indices = list(itertools.product(*(range(order) for _, order in gens)))
    dlog = np.zeros((q, len(gens)), dtype=np.int64)
    units = set()
    for exps in indices:
        unit = math.prod(pow(g, e, q) for (g, _), e in zip(gens, exps)) % q
        units.add(unit)
        dlog[unit] = exps
    assert units == {n for n in range(q) if math.gcd(n, q) == 1}
    weights = np.array(
        [[m * (L // order) for (_, order), m in zip(gens, index)] for index in indices],
        dtype=np.int64,
    ).reshape(len(indices), len(gens))
    num = weights @ dlog.T % L
    num[:, [n for n in range(q) if n not in units]] = -1
    return indices, L, num


@pytest.mark.parametrize("moduli", [range(1, 129), (243, 256, 343, 625, 1000)])
def test_characters_match_the_brute_force(moduli):
    # conductor: the least d | q with chi = 1 on the units = 1 mod d;
    # primitive character: the one mod the conductor that agrees with chi
    # on every unit mod q
    reference = {}

    def brute_force(q):
        if q not in reference:
            reference[q] = _brute_force_characters(q)
        return reference[q]

    for q in moduli:
        indices, L, num = brute_force(q)
        units = np.flatnonzero(num[0] >= 0)
        conductor = np.full(len(indices), q)
        for d in sorted((d for d in range(1, q + 1) if q % d == 0), reverse=True):
            trivial = (num[:, units[units % d == 1 % d]] == 0).all(axis=1)
            conductor[trivial] = d
        row_of = {index: row for row, index in enumerate(indices)}
        fractions = [Fraction(j, L) for j in range(L)] + [None]  # num -1 -> None
        for chi in sf.characters(q):
            row = row_of[chi.index]
            expect = [fractions[j] for j in num[row].tolist()]
            assert [chi.phase(n) for n in range(q)] == expect, chi
            f = int(conductor[row])
            assert chi.conductor == f, chi
            assert chi.is_primitive == (f == q), chi
            if f == q:
                inducing = [chi.index]
            else:
                f_indices, f_L, f_num = brute_force(f)
                agree = (f_num[:, units % f] * L == num[row, units] * f_L).all(axis=1)
                inducing = [f_indices[i] for i in np.flatnonzero(agree)]
            prim = chi.primitive_character()
            assert (prim.modulus, [prim.index]) == (f, inducing), chi


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
