"""Zero engine: companion roots, circle certificates, winding, line scans."""

import bisect
import cmath
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weakmellin.errors import (
    BoundaryZeroError,
    ConvergenceError,
    DomainError,
    UncertifiedError,
)
from weakmellin.padic_core import unit_characters
from weakmellin.padic_zeta import (
    local_factor,
    local_factor_unramified,
    padic_vector_factor,
    unramified_from_constants,
)
from weakmellin.zero_engine import (
    _BOUNDARY_DIP,
    ZeroReport,
    _boundary_points,
    _check_boundary_clear,
    circle_zeros,
    exp_poly_roots,
    line_zeros,
    unit_circle_certificate,
    winding_count,
)


# ---------------------------------------------------------------------------
# report plumbing


def test_report_rejects_zero_multiplicity():
    with pytest.raises(DomainError):
        ZeroReport(0.5 + 1j, 0, "CompanionRoots", True, 0.0)


def test_report_rejects_unknown_method():
    with pytest.raises(DomainError):
        ZeroReport(0.5 + 1j, 1, "Guessing", False, 0.0)


# ---------------------------------------------------------------------------
# companion roots of finite-place numerators


def _escape_case(p, k):
    # a unit quadratic coefficient with |b| = p^k lands at level k
    return Fraction(1), Fraction(1, p**k)


@pytest.mark.parametrize("p,k", [(3, 1), (3, 2), (5, 1)])
def test_companion_roots_on_unit_circle(p, k):
    a, b = _escape_case(p, k)
    factor = local_factor_unramified(a, b, p)
    assert factor.k == k and factor.delta == 0
    reports = exp_poly_roots(factor)
    assert len(reports) == 2 * k
    for rep in reports:
        assert rep.method == "CompanionRoots"
        assert rep.certified
        assert rep.residual <= 1e-10
        x = p ** (rep.location - factor.n_dim / 2.0)
        assert abs(abs(x) - 1.0) <= 1e-10
        assert 0.0 <= rep.location.imag < 2.0 * math.pi / math.log(p)
    count, _ = unit_circle_certificate(factor)
    assert count == 2 * k


def test_no_zeros_at_trivial_level():
    factor = local_factor_unramified(Fraction(1), Fraction(0), 5)
    assert factor.k == 0 and factor.delta == 0
    assert exp_poly_roots(factor) == []
    assert unit_circle_certificate(factor) == (0, [])


def test_two_adic_base_roots():
    factor = local_factor_unramified(Fraction(1), Fraction(0), 2)
    reports = exp_poly_roots(factor)
    assert len(reports) == 2
    for rep in reports:
        assert rep.certified
        # |2^s| = sqrt(2) on the zero set
        assert abs(abs(2.0 ** complex(rep.location)) - math.sqrt(2)) <= 1e-9


def test_ramified_roots_on_critical_line():
    seen = 0
    for chi in unit_characters(3, 1):
        factor = local_factor(1, Fraction(1, 3), 3, chi=chi)
        if factor.kind != "ramified" or factor.omega == 0:
            continue
        reports = exp_poly_roots(factor)
        assert reports
        seen += len(reports)
        for rep in reports:
            assert rep.certified
            assert abs(rep.location.real - 0.5) <= 1e-10
            assert abs(factor.evaluate(rep.location)) < 1e-10
    assert seen > 0


def test_circle_zeros_match_companion_roots():
    factor = local_factor_unramified(Fraction(1), Fraction(1, 9), 3)
    assert factor.k == 2
    comp = exp_poly_roots(factor)
    circ = circle_zeros(factor)
    assert len(comp) == len(circ)
    for rc, rs in zip(comp, circ):
        assert rs.method == "SignChange"
        assert rs.certified
        assert abs(rc.location - rs.location) <= 1e-8


def test_twist_shifts_reported_zeros():
    plain = local_factor_unramified(Fraction(1), Fraction(1, 3), 3)
    phase = cmath.exp(0.7j)
    twisted = local_factor_unramified(
        Fraction(1), Fraction(1, 3), 3, twist=phase
    )
    period = 2.0 * math.pi / math.log(3)
    plain_ims = sorted(r.location.imag for r in exp_poly_roots(plain))
    twist_ims = sorted(r.location.imag for r in exp_poly_roots(twisted))
    shift = 0.7 / math.log(3)
    expected = sorted((im + shift) % period for im in plain_ims)
    assert np.allclose(twist_ims, expected, atol=1e-9)
    for rep in exp_poly_roots(twisted):
        assert abs(twisted.evaluate(rep.location)) < 1e-9


@pytest.mark.parametrize(
    "p,configs",
    [
        (3, ((1, 0), (1, Fraction(1, 3)))),
        (3, ((3, 0), (3, 0))),
        (5, ((1, 0), (1, Fraction(1, 5)))),
    ],
)
def test_vector_factor_roots_verified_by_winding(p, configs):
    # parity-homogeneous component valuations keep the zeros on Re = n/2
    factor = padic_vector_factor(configs, p)
    reports = exp_poly_roots(factor)
    assert reports, "expected zeros for the two-component factor"
    for rep in reports:
        assert rep.certified
        assert abs(rep.location.real - factor.n_dim / 2.0) <= 1e-10
        assert abs(factor.evaluate(rep.location)) < 1e-8


def test_vector_mixed_parity_root_reported_off_line():
    # the off-line zero must come back uncensored and still certified
    factor = padic_vector_factor(((1, 0), (3, 0)), 3)
    reports = exp_poly_roots(factor)
    assert len(reports) == 1
    rep = reports[0]
    assert rep.certified
    assert abs(rep.location.real - factor.n_dim / 2.0) > 0.05


@settings(max_examples=25, deadline=None)
@given(
    theta=st.floats(0.0, 2.0 * math.pi, allow_nan=False),
    k=st.integers(1, 3),
    delta=st.integers(0, 1),
    p=st.sampled_from([2, 3, 5, 7]),
)
def test_random_scalar_numerators_stay_on_circle(theta, k, delta, p):
    factor = unramified_from_constants(p, k, delta, cmath.exp(1j * theta))
    reports = exp_poly_roots(factor)
    assert len(reports) == 2 * k + delta
    count, _ = unit_circle_certificate(factor)
    assert count == 2 * k + delta
    for rep in reports:
        x = p ** (rep.location - 0.5)
        assert abs(abs(x) - 1.0) <= 1e-9


# ---------------------------------------------------------------------------
# winding counts


def test_winding_counts_known_roots():
    roots = [0.3 + 0.4j, 0.7 + 0.6j, 0.5 + 0.5j]

    def fn(z):
        out = 1.0 + 0.0j
        for r in roots:
            out *= z - r
        return out

    assert winding_count(fn, (0.0, 1.0, 0.0, 1.0)) == 3
    assert winding_count(fn, (0.0, 0.5 - 0.01, 0.0, 1.0)) == 1


def test_winding_adds_back_listed_poles():
    def fn(z):
        return (z - 0.4 - 0.5j) / (z - 0.6 - 0.5j)

    count = winding_count(fn, (0.0, 1.0, 0.0, 1.0), poles=[0.6 + 0.5j])
    assert count == 1


def test_winding_counts_multiplicity():
    def fn(z):
        return (z - 0.5 - 0.5j) ** 3

    assert winding_count(fn, (0.0, 1.0, 0.0, 1.0)) == 3


def test_winding_refuses_boundary_zero():
    def fn(z):
        return z - 0.5  # zero sits exactly on the bottom edge

    with pytest.raises(BoundaryZeroError):
        winding_count(fn, (0.0, 1.0, 0.0, 1.0))


def test_winding_refuses_pole_near_contour():
    def fn(z):
        return 1.0 / (z - 0.5 - 0.0004j)

    with pytest.raises(BoundaryZeroError):
        winding_count(fn, (0.0, 1.0, 0.0, 1.0), poles=[0.5 + 0.0004j])


def test_winding_rejects_degenerate_rect():
    with pytest.raises(DomainError):
        winding_count(lambda z: z, (1.0, 1.0, 0.0, 1.0))


def test_winding_gives_up_on_discontinuous_phase():
    def fn(z):
        # half-angle phase is discontinuous along a ray crossing the
        # contour, so the step criterion can never be met there
        return cmath.exp(0.5j * cmath.phase(z - 0.5 - 0.5j))

    with pytest.raises(ConvergenceError):
        winding_count(fn, (0.0, 1.0, 0.0, 1.0), max_samples=4096)


def test_winding_unaffected_by_huge_scale_variation():
    # modulus varies by ~1e-10 top to bottom, as completed strip
    # functions do; the windowed boundary check must not misfire
    def fn(z):
        return (z - 0.5 - 15j) * cmath.exp(-0.75 * z.imag)

    assert winding_count(fn, (-0.1, 1.1, 1.0, 30.0)) == 1


@settings(max_examples=20, deadline=None)
@given(
    st.lists(
        st.complex_numbers(
            min_magnitude=0.0, max_magnitude=0.35, allow_nan=False,
            allow_infinity=False,
        ),
        min_size=0, max_size=4,
    )
)
def test_winding_counts_random_interior_roots(offsets):
    center = 0.5 + 0.5j
    roots = [center + off for off in offsets]

    def fn(z):
        out = 1.0 + 0.0j
        for r in roots:
            out *= z - r
        return out

    assert winding_count(fn, (0.0, 1.0, 0.0, 1.0)) == len(roots)


@pytest.mark.parametrize("start_samples", [64, 130])
def test_winding_evaluates_each_contour_point_once(start_samples):
    # the zero sits 0.004 from the bottom edge, so the phase steps force
    # several doublings; every round reuses the samples of the last one,
    # also from a start count that is not a multiple of 4
    batches = []

    def fn(z):
        batches.append(z)
        return z - 0.5 - 0.004j

    assert winding_count(fn, (0.0, 1.0, 0.0, 1.0),
                         start_samples=start_samples) == 1
    calls = np.concatenate(batches).tolist()
    assert len(calls) == len(set(calls))
    assert len(calls) > 256
    assert len(calls) & (len(calls) - 1) == 0  # the final sample count


def _recording(fn):
    batches = []

    def recorded(zs):
        batches.append(len(zs))
        return fn(zs)

    return recorded, batches


def test_scans_call_fn_once_per_grid_and_per_round():
    # the points match a per-point loop over the same scan: 1615 for the
    # ladder (600 grid points, 960 on 15 certifying squares, 55 in
    # Newton) and 1024 for the winding count, as counted point by point
    fn, batches = _recording(lambda s: np.sin(1j * np.pi * (s - 0.5)))
    reports = line_zeros(fn, 0.5, 0.4, 5.6, samples=600)
    assert len(reports) == 5 and all(r.certified for r in reports)
    assert batches[0] == 600  # the whole grid in one call
    assert sum(batches) == 1615

    fn, batches = _recording(lambda z: z - 0.5 - 0.004j)
    assert winding_count(fn, (0.0, 1.0, 0.0, 1.0)) == 1
    assert batches == [64, 64, 128, 256, 512]  # one call per round
    assert sum(batches) == 1024


def _scalar_only(kind):
    def fn(z):
        if kind == "type":
            return complex(z) - 0.5 - 0.5j  # TypeError on an array
        if kind == "value" and abs(z) >= 0.0:  # ambiguous truth value
            return z - 0.5 - 0.5j
        return complex(np.mean(z)) - 0.5 - 0.5j  # one value for the batch

    return fn


@pytest.mark.parametrize("kind", ["type", "value", "shape"])
def test_scalar_callables_are_lifted_to_a_loop(kind):
    calls = []
    scalar = _scalar_only(kind)

    def fn(z):
        calls.append(z)
        return scalar(z)

    assert winding_count(fn, (0.0, 1.0, 0.0, 1.0)) == 1
    # the first batch is tried once, then every point is a scalar call
    assert isinstance(calls[0], np.ndarray)
    assert all(isinstance(z, complex) for z in calls[1:])
    assert len(calls) == 1 + 64


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(-50.0, 50.0), min_size=4, max_size=4),
    st.integers(min_value=4, max_value=600),
)
def test_boundary_points_match_the_per_point_formula(edges, n):
    re_lo, re_hi = sorted(edges[:2])
    im_lo, im_hi = sorted(edges[2:])
    rect = (re_lo, re_hi, im_lo, im_hi)
    corners = (
        complex(re_lo, im_lo),
        complex(re_hi, im_lo),
        complex(re_hi, im_hi),
        complex(re_lo, im_hi),
    )
    per_edge = n // 4
    want = [
        corners[k] + (corners[(k + 1) % 4] - corners[k]) * (j / per_edge)
        for k in range(4)
        for j in range(per_edge)
    ]
    got = _boundary_points(rect, n)
    assert got.tolist() == want
    assert np.signbit(got.real).tolist() == [math.copysign(1, z.real) < 0 for z in want]
    assert np.signbit(got.imag).tolist() == [math.copysign(1, z.imag) < 0 for z in want]


def _boundary_clear_by_loop(vals):
    # one median per sample, the contour read cyclically
    mags = np.abs(np.asarray(vals))
    if not np.all(np.isfinite(mags)) or np.any(mags == 0.0):
        raise BoundaryZeroError("vanished or blew up")
    n = len(mags)
    half = max(8, n // 64)
    ext = np.concatenate([mags[-half:], mags, mags[:half]])
    for i in range(n):
        window = ext[i : i + 2 * half + 1]
        if mags[i] < _BOUNDARY_DIP * float(np.median(window)):
            raise BoundaryZeroError("dip")


def _raises_boundary_error(check, vals):
    try:
        check(vals)
    except BoundaryZeroError:
        return True
    return False


@settings(max_examples=200, deadline=None)
@given(
    st.integers(8, 1100),
    st.integers(0, 2**32 - 1),
    st.lists(
        st.tuples(
            # sample index mod n: small ones sit next to the wrap-around
            st.one_of(st.integers(-24, 24), st.integers(0, 1100)),
            # new modulus over the old, on both sides of the threshold
            st.sampled_from([0.0, 1e-9, 5e-5, 9.99e-5, 1e-4, 1.01e-4, 3e-4, 1e-2]),
        ),
        max_size=6,
    ),
)
def test_boundary_check_matches_per_sample_loop(n, seed, dips):
    rng = np.random.default_rng(seed)
    # moduli spread over six decades, with a trend like a decaying strip
    mags = 10.0 ** rng.uniform(-3.0, 3.0, n) * np.exp(-np.arange(n) / n)
    for i, ratio in dips:
        mags[i % n] *= ratio
    vals = mags * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, n))
    assert _raises_boundary_error(_check_boundary_clear, vals) == (
        _raises_boundary_error(_boundary_clear_by_loop, vals)
    )


def _boundary_clear_by_running_median(vals):
    # the same rule with a sorted window slid along the contour, an
    # O(n log n) reference that stays cheap at the largest contours
    mags = np.abs(np.asarray(vals))
    n = len(mags)
    half = max(8, n // 64)
    ext = np.concatenate([mags[-half:], mags, mags[:half]]).tolist()
    window = sorted(ext[: 2 * half + 1])
    for i in range(n):
        if i:
            del window[bisect.bisect_left(window, ext[i - 1])]
            bisect.insort(window, ext[i + 2 * half])
        if mags[i] < _BOUNDARY_DIP * window[half]:
            raise BoundaryZeroError("dip")


@pytest.mark.parametrize("dip", [1e-5, 1e-3])
def test_boundary_check_at_largest_contour(dip):
    # winding_count's sample budget: 131072 samples, windows of 4097.  A
    # smooth bowl down to 1e-6, centred on the seam, puts about 5000
    # samples below the dip threshold of the maximum, so their medians
    # span many blocks, yet none of them dips below its own window.  A
    # single sample at the bottom is then scaled by dip, which fails
    # the check only when far below the 2.4e-6 median around it.  Memory
    # must stay O(n): the whole window array alone would take 4 GB.
    n = 131072
    rng = np.random.default_rng(7)
    dist = np.minimum(np.arange(n), n - np.arange(n))
    mags = 10.0 ** (-6.0 * np.exp(-((dist / 4000.0) ** 2)))
    mags *= 1.0 + 0.1 * rng.uniform(size=n)
    mags[0] *= dip
    vals = mags * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, n))
    tracemalloc.start()
    try:
        raised = _raises_boundary_error(_check_boundary_clear, vals)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert raised == _raises_boundary_error(
        _boundary_clear_by_running_median, vals
    )
    assert raised == (dip < _BOUNDARY_DIP)
    assert peak < 64 * 2**20


def test_running_median_reference_matches_per_sample_loop():
    rng = np.random.default_rng(3)
    for n in (8, 64, 1000):
        mags = 10.0 ** rng.uniform(-3.0, 3.0, n)
        for i in rng.integers(0, n, 3):
            mags[i] *= 9e-5
        vals = mags.astype(complex)
        assert _raises_boundary_error(
            _boundary_clear_by_running_median, vals
        ) == _raises_boundary_error(_boundary_clear_by_loop, vals)


def test_boundary_check_catches_dip_across_the_seam():
    mags = np.ones(64)
    mags[0] = 5e-5  # its window wraps round to the last eight samples
    with pytest.raises(BoundaryZeroError):
        _check_boundary_clear(mags.astype(complex))
    mags[0] = 2e-4
    _check_boundary_clear(mags.astype(complex))


# ---------------------------------------------------------------------------
# vertical-line scans


def _sin_line_fn(s):
    # zeros exactly at s = 1/2 + i k for integer k
    return cmath.sin(1j * math.pi * (s - 0.5))


def test_line_scan_finds_integer_ladder():
    reports = line_zeros(_sin_line_fn, 0.5, 0.4, 5.6, samples=600)
    assert len(reports) == 5
    for n, rep in enumerate(reports, start=1):
        assert rep.method == "Winding+Bisection"
        assert rep.certified
        assert rep.multiplicity == 1
        assert rep.residual <= 1e-10
        assert abs(rep.location - complex(0.5, n)) <= 1e-9
    ims = [r.location.imag for r in reports]
    assert ims == sorted(ims)


def test_line_scan_recovers_slightly_offline_zero():
    z0 = 0.5002 + 2.0j

    def fn(s):
        return (s - z0) * cmath.exp(0.1 * s)

    reports = line_zeros(fn, 0.5, 1.0, 3.0, samples=400)
    assert len(reports) == 1
    assert abs(reports[0].location - z0) <= 1e-9
    assert reports[0].certified


def test_line_scan_handles_decaying_scale():
    # same ladder, modulated by a strong vertical decay; the relative
    # dip detector must still see every zero
    def fn(s):
        return _sin_line_fn(s) * cmath.exp(-0.9 * s.imag)

    reports = line_zeros(fn, 0.5, 0.4, 5.6, samples=600)
    assert [round(r.location.imag) for r in reports] == [1, 2, 3, 4, 5]
    assert all(r.certified for r in reports)


def test_line_scan_separates_close_pair():
    # gap fits inside the outer winding square but not the inner shells
    z1, z2 = 0.5 + 2.0j, 0.5 + 2.0008j

    def fn(s):
        return (s - z1) * (s - z2)

    reports = line_zeros(fn, 0.5, 1.9, 2.1, samples=2000)
    assert len(reports) == 2
    for rep, want in zip(reports, (z1, z2)):
        assert rep.certified
        assert rep.multiplicity == 1  # the inner shells see one zero each
        assert abs(rep.location - want) <= 1e-8


def test_line_scan_reports_double_zero_multiplicity():
    z0 = 0.5 + 2.0j

    def fn(s):
        return (s - z0) ** 2

    reports = line_zeros(fn, 0.5, 1.5, 2.5, samples=400)
    assert len(reports) == 1
    assert reports[0].multiplicity == 2
    assert abs(reports[0].location - z0) <= 1e-5


def test_line_scan_strict_raises_on_unpolishable_dip():
    # real-valued modulus dip with no analytic zero: the Jacobian is
    # singular, polish fails, and strict mode refuses the result
    def fn(s):
        return abs(s - (0.5 + 2.0j)) + 1e-3

    reports = line_zeros(fn, 0.5, 1.5, 2.5, samples=400)
    assert reports and not any(r.certified for r in reports)
    with pytest.raises(UncertifiedError):
        line_zeros(fn, 0.5, 1.5, 2.5, samples=400, strict=True)


def test_line_scan_ignores_smooth_nonvanishing_stretch():
    def fn(s):
        return cmath.exp(0.3 * s) + 2.0

    assert line_zeros(fn, 0.5, 0.0, 10.0, samples=500) == []


def test_line_scan_rejects_empty_range():
    with pytest.raises(DomainError):
        line_zeros(_sin_line_fn, 0.5, 2.0, 1.0)


def test_line_scan_respects_listed_poles():
    # simple pole just outside the scan line must not break certification
    z0 = 0.5 + 3.0j
    pole = 0.5 + 7.0j

    def fn(s):
        return (s - z0) / (s - pole)

    reports = line_zeros(fn, 0.5, 2.0, 4.0, samples=300, poles=[pole])
    assert len(reports) == 1
    assert reports[0].certified
    assert abs(reports[0].location - z0) <= 1e-9
