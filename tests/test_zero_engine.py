"""Zero engine: companion roots, circle certificates, winding, line scans."""

import bisect
import cmath
import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from weakmellin import zero_engine
from weakmellin.errors import (
    BoundaryZeroError,
    ConvergenceError,
    DomainError,
    NonIntegerWindingError,
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
    _integer_winding,
    _round_turns,
    census,
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


def _polyroots_in_s(factor):
    """The numerator's roots X from 30-digit mpmath.polyroots, mapped to
    s = n/2 + log X / ln p, Im s shifted by arg(twist) / ln p and folded
    into [0, 2 pi / ln p), in the order of exp_poly_roots' reports.  A
    root on the seam, within 1e-12 below the period, folds to 0."""
    coeffs, _, _ = factor.zero_poly()
    with mp.workdps(30):
        roots = mp.polyroots([mp.mpc(c) for c in coeffs], maxsteps=200, extraprec=60)
        log_p = mp.log(factor.p)
        period = 2 * mp.pi / log_p
        shift = mp.arg(mp.mpc(factor.twist)) / log_p
        out = []
        for x in roots:
            s = factor.n_dim / mp.mpf(2) + mp.log(x) / log_p
            im = (s.imag + shift) % period
            out.append(complex(float(s.real), 0.0 if period - im < 1e-12 else float(im)))
    return sorted(out, key=lambda z: (z.imag, z.real))


def test_circle_zeros_match_companion_roots():
    factor = local_factor_unramified(Fraction(1), Fraction(1, 9), 3)
    assert factor.k == 2
    comp = exp_poly_roots(factor)
    want = _polyroots_in_s(factor)
    assert len(comp) == len(want)
    for rc, z in zip(comp, want):
        assert rc.certified
        assert abs(rc.location - z) <= 1e-8


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


def _count_profile_calls(monkeypatch):
    """Patch the circle profile formulas, the grid's and the one single
    angles go through, so that each evaluation records its number of
    angles."""
    calls = []
    values, grid = zero_engine._profile_values, zero_engine._grid_profile

    def counting(rot, coeffs, turn, xs):
        calls.append(np.size(xs))
        return values(rot, coeffs, turn, xs)

    def counting_grid(coeffs, degree):
        out = grid(coeffs, degree)
        calls.append(np.size(out))
        return out

    monkeypatch.setattr(zero_engine, "_profile_values", counting)
    monkeypatch.setattr(zero_engine, "_grid_profile", counting_grid)
    return calls


def _certificate_case(ramified):
    chi = next(iter(unit_characters(3, 1))) if ramified else None
    return local_factor(1, Fraction(1, 9), 3, chi=chi)


@pytest.mark.parametrize("ramified", [False, True])
def test_certificate_path_runs_no_bisection(monkeypatch, ramified):
    # the certificate is one sign test per companion root, both ends of
    # every root's arc in one array call, and no grid scan; the grid
    # brackets each root in one of its cells
    calls = _count_profile_calls(monkeypatch)
    factor = _certificate_case(ramified)
    reports = exp_poly_roots(factor)
    assert calls == [2 * len(reports)]
    assert all(rep.certified for rep in reports)
    del calls[:]
    count, brackets = unit_circle_certificate(factor)
    assert calls == [zero_engine._CIRCLE_SAMPLES]
    assert count == factor.degree == len(reports) == len(brackets)
    step = 2.0 * math.pi / zero_engine._CIRCLE_SAMPLES
    for (lo, hi), rep in zip(brackets, reports):
        assert hi - lo in (0.0, pytest.approx(step))
        assert lo <= (rep.location.imag * math.log(3)) % (2.0 * math.pi) <= hi


@pytest.mark.parametrize("delta", [0, 1])
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_root_on_the_grid_seam_is_certified(p, k, delta):
    # gamma = -1 puts a root at X = 1, the grid's first angle and the
    # seam where the profile closes (antiperiodically for odd D)
    factor = unramified_from_constants(p, k, delta, -1)
    reports = exp_poly_roots(factor)
    count, _ = unit_circle_certificate(factor)
    assert count == factor.degree == len(reports)
    assert any(abs(p ** (rep.location - 0.5) - 1.0) <= 1e-10 for rep in reports)
    want = _polyroots_in_s(factor)
    assert len(want) == len(reports)
    for rep, z in zip(reports, want):
        assert rep.certified
        assert abs(rep.location - z) <= 1e-8


def test_double_root_on_the_circle_is_not_certified():
    # a tangential zero shows no sign change: the count misses it and no
    # root's bracket straddles one
    factor = dataclasses.replace(
        unramified_from_constants(3, 1, 0, -1), poly=(1, -2, 1)
    )
    reports = exp_poly_roots(factor)
    assert reports and not any(rep.certified for rep in reports)
    assert unit_circle_certificate(factor)[0] < factor.degree


@pytest.mark.parametrize("ramified", [False, True])
@pytest.mark.parametrize("before, after", [(1e-18, -1e-18), (0.0, -1.0), (0.0, 0.0)])
def test_arc_ends_within_rounding_certify_nothing(monkeypatch, ramified, before, after):
    # the profile at the two ends of every root's arc, in units of
    # sum |c_k|: a value at or under the rounding of the Horner sum,
    # 4 D eps sum |c_k|, has noise for a sign, and an exact 0 makes no
    # sign change, so neither certifies a root
    factor = _certificate_case(ramified)
    coeffs, _, degree = factor.zero_poly()
    scale = float(np.sum(np.abs(coeffs)))

    def at_the_ends(rot, poly, turn, xs):
        return np.repeat([before * scale, after * scale], np.size(xs) // 2)

    monkeypatch.setattr(zero_engine, "_profile_values", at_the_ends)
    reports = exp_poly_roots(factor)
    assert len(reports) == degree
    assert not any(rep.certified for rep in reports)


# the half-width of a root's arc at p = 3
_ARC = zero_engine._CERT_RADIUS * math.log(3)


@pytest.mark.parametrize("gap, certified", [(5e-4, True), (1e-3, True), (1.5 * _ARC, False)])
def test_close_simple_circle_roots_are_certified_on_disjoint_arcs(gap, certified):
    # 5e-4 and 1e-3 rad put both roots inside one grid cell
    # (2 pi / 4096 = 1.5e-3), where the grid sees no sign change, but
    # their own arcs are disjoint.  At 1.5 half-widths each root's arc
    # still shows a sign change, but the arcs overlap, so the sign
    # changes need not be two distinct zeros
    roots = [cmath.exp(0.1j), cmath.exp(1j * (0.1 + gap))]
    factor = dataclasses.replace(
        unramified_from_constants(3, 1, 0, -1), poly=tuple(np.poly(roots))
    )
    reports = exp_poly_roots(factor)
    assert [rep.multiplicity for rep in reports] == [1, 1]
    assert [rep.certified for rep in reports] == [certified, certified]
    want = sorted(cmath.log(x).imag / math.log(3) for x in roots)
    got = [rep.location.imag for rep in reports]
    assert got == pytest.approx(want, abs=1e-9)


@pytest.mark.parametrize("poly, mult", [
    ((1, -2, 1), 2),
    ((1, -3, 3, -1), 3),
    (tuple(np.poly([1j, 1j, -1.0, 0.6 + 0.8j])), 2),
])
def test_multiple_root_is_one_report(poly, mult):
    # the eigenvalue solver splits an m-fold root over about eps^(1/m):
    # 1 +- 1.5e-8 i for the double root, 1.8e-5 across for the triple
    factor = dataclasses.replace(
        unramified_from_constants(3, 1, 0, -1), poly=poly
    )
    reports = exp_poly_roots(factor)
    multiple = [rep for rep in reports if rep.multiplicity > 1]
    assert [rep.multiplicity for rep in multiple] == [mult]
    assert sum(rep.multiplicity for rep in reports) == factor.degree
    assert not multiple[0].certified


def test_double_root_on_a_grid_angle_counts_once():
    # X = i is a grid angle, where the profile of the double root is
    # rounding noise of either sign; under the rounding floor it is one
    # bracket (pi/2, pi/2), not two sign changes, so the count is 3 != D
    # and no root is certified on it (X = -1 is a grid angle too)
    factor = dataclasses.replace(
        unramified_from_constants(3, 1, 0, -1),
        poly=tuple(np.poly([1j, 1j, -1.0, 0.6 + 0.8j])),
    )
    count, brackets = unit_circle_certificate(factor)
    assert count == 3 < factor.degree
    assert (math.pi / 2, math.pi / 2) in brackets
    assert (math.pi, math.pi) in brackets
    assert not any(rep.certified for rep in exp_poly_roots(factor))


@pytest.mark.parametrize("degree", [*range(1, 9), 40])
def test_grid_tables_match_the_profile_bit_for_bit(degree):
    # the grid reads e^(i phi) and e^(-i D phi/2) from cached tables and
    # runs its Horner sweep in place; its values are the profile's at the
    # same angles with both exponentials computed and np.polyval's sweep,
    # as exp_poly_roots computes them at single angles, the seam phi = 0
    # included
    gamma = cmath.exp(0.3j)
    factor = unramified_from_constants(5, degree // 2, degree % 2, gamma)
    coeffs, _, D = factor.zero_poly()
    assert D == degree
    rot = zero_engine._circle_rotation(coeffs)

    def h(phi):
        return zero_engine._profile_values(
            rot, coeffs, zero_engine._half_turn(D, phi), np.exp(1j * phi))

    phis, xs = zero_engine._circle_points()
    grid = zero_engine._grid_profile(coeffs, D)
    assert np.array_equal(grid, h(phis[:zero_engine._CIRCLE_SAMPLES]))
    assert np.array_equal(
        grid, zero_engine._profile_values(rot, coeffs, zero_engine._circle_turn(D), xs))
    assert grid[0] == h(phis[:1])[0]
    assert not xs.flags.writeable and not zero_engine._circle_turn(D).flags.writeable


def test_grid_tables_are_built_on_first_use_and_bounded():
    src = os.path.dirname(os.path.dirname(os.path.abspath(zero_engine.__file__)))
    probe = (
        "import weakmellin.cli; from weakmellin import zero_engine as z; "
        "print(z._circle_points.cache_info().currsize, "
        "z._circle_turn.cache_info().currsize)"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src), check=True,
    )
    assert done.stdout.split() == ["0", "0"]
    for degree in range(1, 3 * zero_engine._CIRCLE_TURNS):
        zero_engine._circle_turn(degree)
    assert zero_engine._circle_turn.cache_info().currsize == zero_engine._CIRCLE_TURNS


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


@pytest.mark.parametrize("rect", [
    (0.0, math.inf, 0.0, 1.0),
    (0.0, 1.0, -math.inf, 1.0),
    (0.0, 1.0, math.nan, 1.0),
])
def test_winding_rejects_unbounded_rect(rect):
    with pytest.raises(DomainError):
        winding_count(lambda z: z, rect)


def test_winding_gives_up_on_discontinuous_phase(monkeypatch):
    def fn(z):
        # half-angle phase is discontinuous along a ray crossing the
        # contour, so the step criterion can never be met there
        return np.exp(0.5j * np.angle(z - 0.5 - 0.5j))

    monkeypatch.setattr(zero_engine, "_MAX_SAMPLES", 4096)
    with pytest.raises(ConvergenceError):
        winding_count(fn, (0.0, 1.0, 0.0, 1.0))


@pytest.mark.parametrize("fn", [lambda z: z - 0.3, lambda z: 1.0 / (z - 0.3)],
                         ids=["zero", "pole"])
def test_winding_refuses_an_edge_feature_early(fn):
    # a zero or pole on the bottom edge between samples keeps a step of
    # exactly pi in the stretch that holds it, round after round: three
    # rounds (256 points) refuse the contour where the budget took 131072
    fn, points = _recording(fn)
    with pytest.raises(ConvergenceError, match="round after round"):
        winding_count(fn, (0.0, 1.0, 0.0, 1.0))
    assert points == [64, 64, 128]


@pytest.mark.parametrize("d, count", [(1e-4, 1), (2e-5, None)])
def test_winding_near_edge_zero_keeps_the_budget(d, count):
    # a zero d off the edge: its step nears pi and then falls as the
    # rounds halve the spacing, so it is counted or runs the budget out,
    # as without the early refusal
    fn, points = _recording(lambda z: z - 0.3 - 1j * d)
    if count is None:
        with pytest.raises(ConvergenceError, match="sample budget"):
            winding_count(fn, (0.0, 1.0, 0.0, 1.0))
    else:
        assert winding_count(fn, (0.0, 1.0, 0.0, 1.0)) == count
    assert sum(points) == (65536 if count else zero_engine._MAX_SAMPLES)


def test_winding_refuses_an_unlisted_pole_on_the_edge_early():
    # the reference function's pole at s = 0 or 1 sits on the bottom edge
    # of this box and no sample lands on it
    fn, points = _recording(_reference_global())
    with pytest.raises(ConvergenceError, match="round after round"):
        winding_count(fn, (-0.13, 1.1, 0.0, 10.0))
    assert sum(points) <= 4096


@pytest.mark.parametrize("rect", [(-0.5, 1.5, 0.0, 10.0), (-0.1, 1.1, 0.0, 10.0)])
def test_pole_at_a_contour_sample_refuses_the_contour(rect):
    # a sample lands exactly on s = 0: the PoleError of fn refuses the
    # contour, and census turns that into UncertifiedError
    fn = _reference_global()
    with pytest.raises(BoundaryZeroError, match="pole on the winding contour"):
        winding_count(fn, rect)
    with pytest.raises(UncertifiedError, match="no winding count"):
        census(fn, rect, samples=64)


def test_winding_unaffected_by_huge_scale_variation():
    # modulus varies by ~1e-10 top to bottom, as completed strip
    # functions do; the windowed boundary check must not misfire
    def fn(z):
        return (z - 0.5 - 15j) * np.exp(-0.75 * z.imag)

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
        out = np.ones_like(z)
        for r in roots:
            out *= z - r
        return out

    assert winding_count(fn, (0.0, 1.0, 0.0, 1.0)) == len(roots)


def test_winding_evaluates_each_contour_point_once():
    # the zero sits 0.004 from the bottom edge, so the phase steps force
    # several doublings; every round reuses the samples of the last one
    batches = []

    def fn(z):
        batches.append(z)
        return z - 0.5 - 0.004j

    assert winding_count(fn, (0.0, 1.0, 0.0, 1.0)) == 1
    calls = np.concatenate(batches).tolist()
    assert len(calls) == len(set(calls))
    assert len(calls) > 256
    assert len(calls) & (len(calls) - 1) == 0  # the final sample count


def _recording(fn):
    batches = []

    def recorded(zs):
        # an array call records its size, a scalar call None
        batches.append(zs.size if isinstance(zs, np.ndarray) else None)
        return fn(zs)

    return recorded, batches


def test_scans_call_fn_once_per_grid_and_per_round():
    # the points match a per-point loop over the same scan: 925 for the
    # ladder (600 grid points, 320 on the 5 dip circles, and 5 residuals)
    # and 1024 for the winding count, as counted point by point
    fn, batches = _recording(lambda s: np.sin(1j * np.pi * (s - 0.5)))
    reports = line_zeros(fn, 0.5, 0.4, 5.6, samples=600)
    assert len(reports) == 5 and all(r.certified for r in reports)
    # the whole grid in one call, then every circle in one call; the
    # residuals alone call with a scalar, one a report
    assert batches == [600, 320] + [None] * 5

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


_ENTRIES = (
    lambda fn: line_zeros(fn, 0.5, 0.0, 1.0, samples=64),
    lambda fn: winding_count(fn, (0.0, 1.0, 0.0, 1.0)),
    lambda fn: census(fn, (0.0, 1.0, 0.0, 1.0), samples=64),
)


@pytest.mark.parametrize("kind, error", [
    ("type", TypeError), ("value", ValueError), ("shape", DomainError),
], ids=["type", "value", "shape"])
def test_scalar_callables_are_not_lifted_to_a_loop(kind, error):
    # line_zeros, winding_count and census call fn once with the first
    # batch and never retry it point by point: what fn raises propagates,
    # and a scalar result is refused
    scalar = _scalar_only(kind)
    for entry in _ENTRIES:
        calls = []

        def fn(z):
            calls.append(z)
            return scalar(z)

        with pytest.raises(error):
            entry(fn)
        assert len(calls) == 1 and isinstance(calls[0], np.ndarray)


@pytest.mark.parametrize("result", [
    lambda z: np.append(z, 0.0) - 0.5 - 0.5j,
    lambda z: (z - 0.5 - 0.5j)[:, None],
], ids=["longer", "column"])
def test_engine_refuses_a_result_of_another_shape(result):
    # holomorphic with one zero at 0.5 + 0.5j, but what it returns for an
    # array is not the array of its values
    for entry in _ENTRIES:
        with pytest.raises(DomainError, match="same shape"):
            entry(result)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(-50.0, 50.0), min_size=4, max_size=4),
    st.lists(st.integers(min_value=1, max_value=150), min_size=4, max_size=4),
)
def test_boundary_points_match_the_per_point_formula(edges, counts):
    re_lo, re_hi = sorted(edges[:2])
    im_lo, im_hi = sorted(edges[2:])
    rect = (re_lo, re_hi, im_lo, im_hi)
    corners = (
        complex(re_lo, im_lo),
        complex(re_hi, im_lo),
        complex(re_hi, im_hi),
        complex(re_lo, im_hi),
    )
    want = [
        corners[k] + (corners[(k + 1) % 4] - corners[k]) * (j / counts[k])
        for k in range(4)
        for j in range(counts[k])
    ]
    got = _boundary_points(rect, counts)
    assert got.tolist() == want
    assert np.signbit(got.real).tolist() == [math.copysign(1, z.real) < 0 for z in want]
    assert np.signbit(got.imag).tolist() == [math.copysign(1, z.imag) < 0 for z in want]


def _uniform_grid(rect, n):
    # the contour before arc-length sampling: n // 4 points on every edge
    re_lo, re_hi, im_lo, im_hi = rect
    corners = np.array([
        complex(re_lo, im_lo),
        complex(re_hi, im_lo),
        complex(re_hi, im_hi),
        complex(re_lo, im_hi),
    ])
    per_edge = n // 4
    t = np.arange(per_edge) / per_edge
    steps = np.roll(corners, -1) - corners
    return (corners[:, None] + steps[:, None] * t).ravel()


@settings(max_examples=100, deadline=None)
@given(
    st.complex_numbers(max_magnitude=60.0, allow_nan=False, allow_infinity=False),
    st.sampled_from([2e-5, 2e-4, 2e-3, 1e-6, 0.5, 1.0, 3.0]),
)
def test_squares_keep_the_uniform_grid(centre, hw):
    # a square, as line_zeros and exp_poly_roots build them around a
    # point, gets a quarter of every round on each edge, so every round
    # evaluates the same points, bit for bit, as the uniform grid
    rect = (centre.real - hw, centre.real + hw, centre.imag - hw, centre.imag + hw)
    assert zero_engine._edge_counts(rect) == (16, 16, 16, 16)
    for k in range(5):
        n = 64 << k
        got = _boundary_points(rect, [n // 4] * 4)
        want = _uniform_grid(rect, n)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("rect, counts", [
    ((0.0, 1.0, 0.0, 1.0), (16, 16, 16, 16)),
    ((0.1, 0.9, 0.0, 40.0), (1, 31, 1, 31)),
    ((-0.1, 1.1, 1.0, 30.0), (1, 31, 1, 31)),
    ((0.0, 2.0, 0.0, 1.0), (21, 11, 21, 11)),
    ((0.0, 1e3, 0.0, 1e-3), (31, 1, 31, 1)),
])
def test_first_round_is_split_by_edge_length(rect, counts):
    assert zero_engine._edge_counts(rect) == counts
    assert sum(counts) == zero_engine._START_SAMPLES


def test_tall_box_samples_its_long_edges():
    # criterion 5's (a, b) = (0.5, 1.5) box, nine zeros on Re s = 1/2 up
    # to Im 40: 1 and 31 first-round points on its short and long edges,
    # doubled five times
    from weakmellin.arch_zeta import zeta_real

    fn, points = _recording(lambda s: zeta_real(0.5, 1.5, s))
    assert winding_count(fn, (0.1, 0.9, 0.0, 40.0)) == 9
    assert sum(points) == 2048


@settings(max_examples=40, deadline=None)
@given(
    st.floats(1.0, 60.0),
    st.booleans(),
    st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
    st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.05, 0.95)),
             min_size=0, max_size=5),
    st.floats(0.5, 3.0),
)
def test_winding_counts_roots_in_long_rectangles(aspect, tall, corner, spots, c):
    # simple interior roots at least 5 % of the short side off the
    # contour, each in its own slot along the long side, times a chirp
    # whose phase turns with |z|.  (A cluster of roots that close to an
    # edge is refused by the boundary dip check, not miscounted.)
    long_side, short = 1.0, 1.0 / aspect
    slot = 1.0 / max(len(spots), 1)
    roots = []
    for k, (u, v) in enumerate(spots):
        along = long_side * slot * (k + 0.2 + 0.6 * u)
        across = short * v
        roots.append(corner + (complex(across, along) if tall
                               else complex(along, across)))
    width, height = (short, long_side) if tall else (long_side, short)
    rect = (corner.real, corner.real + width, corner.imag, corner.imag + height)

    def fn(z):
        out = np.exp(-1j * c * z * z)
        for r in roots:
            out = out * (z - r)
        return out

    assert winding_count(fn, rect) == len(roots)


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


def _boundary_clear_with_full_window(vals):
    # the check with the window array built for every contour
    mags = np.abs(np.asarray(vals))
    if not np.all(np.isfinite(mags)) or np.any(mags == 0.0):
        raise BoundaryZeroError("vanished or blew up")
    half = max(8, len(mags) // 64)
    ext = np.concatenate([mags[-half:], mags, mags[:half]])
    windows = sliding_window_view(ext, 2 * half + 1)
    suspects = np.flatnonzero(mags < _BOUNDARY_DIP * mags.max())
    if np.any(mags[suspects] < _BOUNDARY_DIP * np.median(windows[suspects], axis=1)):
        raise BoundaryZeroError("dip")


def _round_turns_by_roll(vals):
    # the steps with the cyclic shift formed by np.roll
    if np.any(vals == 0.0):
        raise BoundaryZeroError("exact zero")
    steps = np.angle(np.roll(vals, -1) / vals)
    sizes = np.abs(steps)
    if not np.max(sizes) < math.pi / 4.0:
        return None, sizes
    _boundary_clear_with_full_window(vals)
    return _integer_winding(float(np.sum(steps))), sizes


def _outcome(f, vals):
    """f(vals) as comparable bytes, or the class of its refusal."""
    try:
        with np.errstate(invalid="ignore"):
            got = f(vals)
    except (BoundaryZeroError, NonIntegerWindingError) as exc:
        return type(exc)
    if got is None:
        return None
    return got[0], got[1].tobytes()


@settings(max_examples=100, deadline=None)
@given(
    st.integers(8, 400),
    st.integers(-3, 3),
    st.sampled_from([0.0, 0.02, 0.5]),
    st.integers(0, 2**32 - 1),
    st.lists(st.tuples(st.integers(0, 399), st.sampled_from(["dip", "stretch", "zero", "nan", "inf"])),
             max_size=3),
)
@example(64, 1, 0.0, 0, [(5, "dip")])
@example(64, 1, 0.0, 0, [(30, "stretch")])
@example(64, 0, 0.0, 0, [(3, "zero")])
@example(64, -1, 0.0, 0, [(9, "nan")])
@example(64, 2, 0.0, 0, [(0, "inf")])
def test_winding_round_matches_its_reference_formulas(n, winding, noise, seed, edits):
    # the same turns, step sizes bit for bit and refusal class as the
    # formulas with np.roll and the window array built for every contour
    rng = np.random.default_rng(seed)
    t = 2.0 * math.pi * np.arange(n) / n
    vals = 10.0 ** rng.uniform(-1.0, 1.0, n) * np.exp(1j * (winding * t + noise * rng.normal(size=n)))
    # a sample far below its window fails the median test; a sunk stretch
    # of half the contour holds suspects that pass it
    for i, kind in edits:
        i %= n
        with np.errstate(invalid="ignore"):  # an inf sample scaled
            if kind == "dip":
                vals[i] *= 1e-9
            elif kind == "stretch":
                vals[i : i + n // 2] *= 1e-6
            else:
                vals[i] = {"zero": 0.0, "nan": math.nan, "inf": math.inf}[kind]
    for check, reference in ((_round_turns, _round_turns_by_roll),
                             (_check_boundary_clear, _boundary_clear_with_full_window)):
        assert _outcome(check, vals) == _outcome(reference, vals)


# ---------------------------------------------------------------------------
# vertical-line scans


def _sin_line_fn(s):
    # zeros exactly at s = 1/2 + i k for integer k
    return np.sin(1j * np.pi * (s - 0.5))


def test_line_scan_finds_integer_ladder():
    reports = line_zeros(_sin_line_fn, 0.5, 0.4, 5.6, samples=600)
    assert len(reports) == 5
    for n, rep in enumerate(reports, start=1):
        assert rep.method == "CauchyCircle"
        assert rep.certified
        assert rep.multiplicity == 1
        assert rep.residual <= 1e-10
        assert abs(rep.location - complex(0.5, n)) <= 1e-9
    ims = [r.location.imag for r in reports]
    assert ims == sorted(ims)


def test_line_scan_recovers_slightly_offline_zero():
    z0 = 0.5002 + 2.0j

    def fn(s):
        return (s - z0) * np.exp(0.1 * s)

    reports = line_zeros(fn, 0.5, 1.0, 3.0, samples=400)
    assert len(reports) == 1
    assert abs(reports[0].location - z0) <= 1e-9
    assert reports[0].certified


def test_line_scan_handles_decaying_scale():
    # same ladder, modulated by a strong vertical decay, exp(-0.9 Im s)
    # in modulus on the line; the relative dip detector must still see
    # every zero
    def fn(s):
        return _sin_line_fn(s) * np.exp(0.9j * (s - 0.5))

    reports = line_zeros(fn, 0.5, 0.4, 5.6, samples=600)
    assert [round(r.location.imag) for r in reports] == [1, 2, 3, 4, 5]
    assert all(r.certified and r.multiplicity == 1 for r in reports)
    assert all(abs(r.location - complex(0.5, round(r.location.imag))) <= 1e-9
               for r in reports)


def test_line_scan_leaves_non_holomorphic_dips_uncertified():
    # the same decay as the real factor exp(-0.9 Im s), which is not
    # holomorphic: the dips are found, but no Taylor polynomial fits the
    # circles, so none is counted and every dip stays uncertified
    def fn(s):
        return _sin_line_fn(s) * np.exp(-0.9 * s.imag)

    reports = line_zeros(fn, 0.5, 0.4, 5.6, samples=600)
    assert [round(r.location.imag) for r in reports] == [1, 2, 3, 4, 5]
    assert not any(r.certified for r in reports)


def test_line_scan_separates_close_pair():
    # the gap, 0.0008, is eight sample steps: two dips, whose circles of
    # radius 0.01 (the least) both hold both zeros, each reported once
    z1, z2 = 0.5 + 2.0j, 0.5 + 2.0008j

    def fn(s):
        return (s - z1) * (s - z2)

    reports = line_zeros(fn, 0.5, 1.9, 2.1, samples=2000)
    assert len(reports) == 2
    for rep, want in zip(reports, (z1, z2)):
        assert rep.certified
        assert rep.multiplicity == 1
        assert abs(rep.location - want) <= 1e-8


def test_line_scan_reports_double_zero_multiplicity():
    z0 = 0.5 + 2.0j

    def fn(s):
        return (s - z0) ** 2

    reports = line_zeros(fn, 0.5, 1.5, 2.5, samples=400)
    assert len(reports) == 1
    assert reports[0].multiplicity == 2
    assert abs(reports[0].location - z0) <= 1e-5


@pytest.mark.parametrize("power", [2, 3])
@pytest.mark.parametrize("z0", [
    0.5 + 2.0j, 0.5003 + 2.0j, 0.4995 + 2.3j,
    complex(0.5, np.linspace(1.5, 2.5, 400)[200]),  # on a scan sample
])
def test_circle_lands_on_a_polynomial_multiple_zero(z0, power):
    # the circle's Taylor polynomial is (s - z0)^power itself, so its
    # roots give the zero and its multiplicity, off the line too.  On a
    # sample the zero sits on the circle's centre, where the companion
    # matrix of the power sums' factor splits it by about eps^(1/power):
    # the slope test of _cluster_roots, taken at max(|root|, 1), still
    # groups the split
    scalar = []

    def fn(s):
        if not isinstance(s, np.ndarray):
            scalar.append(s)
        return (s - z0) ** power

    reports = line_zeros(fn, 0.5, 1.5, 2.5, samples=400)
    assert len(reports) == 1
    rep = reports[0]
    assert rep.certified and rep.multiplicity == power
    assert abs(rep.location - z0) <= 1e-10
    # one scalar call, for the residual, also when two dips see the zero
    assert len(scalar) == 1 and abs(scalar[0] - z0) <= 1e-10


def _scalar_calls(f):
    calls = []

    def fn(s):
        if not isinstance(s, np.ndarray):
            calls.append(s)
        return f(s)

    return fn, calls


def test_dip_between_two_off_line_zeros_reports_both():
    # on the line cos(20 (s - s0)) is cosh(20 (Im s - 2.003)), a dip whose
    # nearest zeros lie at Re s = 1/2 +- pi/40, 0.079 off the line and
    # inside the circle of ten sample steps: the circle counts both
    s0 = 0.5 + 2.003j
    fn, calls = _scalar_calls(lambda s: np.cos(20.0 * (s - s0)))
    reports = line_zeros(fn, 0.5, 1.5, 2.5, samples=101)
    assert len(reports) == 2
    for rep, side in zip(sorted(reports, key=lambda r: r.location.real), (-1, 1)):
        assert rep.certified and rep.multiplicity == 1
        assert abs(rep.location - (s0 + side * math.pi / 40.0)) <= 1e-10
    assert len(calls) == 2


def test_zero_free_dip_stops_at_the_wander_cap():
    # exp(-500 (s - s0)^2) has no zero, but on the line its modulus is
    # exp(500 (Im s - 2.003)^2), a dip.  On its circle of ten sample
    # steps the argument steps by about 1 between points, too far to
    # count, and its retry winds 0 times: one uncertified report inside
    # the circle, one scalar call
    s0 = 0.5 + 2.003j
    fn, calls = _scalar_calls(lambda s: np.exp(-500.0 * (s - s0) ** 2))
    reports = line_zeros(fn, 0.5, 1.5, 2.5, samples=101)
    assert len(reports) == 1 and not reports[0].certified
    dip = complex(0.5, np.linspace(1.5, 2.5, 101)[50])
    radius = 10.0 * 0.01
    assert abs(reports[0].location - dip) <= radius
    assert calls == [reports[0].location]


def test_dip_among_crowded_zeros_stays_uncertified():
    # on this coarse scan (spacing 0.5) the dip at 1/2 + i sits among
    # zeros of cos(P(s)) about 0.01 apart: 64 points resolve the argument
    # on neither its circle of radius 0.25 nor its retry of radius
    # 0.0625, so the dip is reported once, uncertified
    roots = (0.25 + 9j, 1.5 + 3.684434971662871j,
             -0.03472091558225976 + 3.4691509582302027j, 5.5j)

    def fn(s):
        out = 1.0
        for r in roots:
            out = out * (s - r)
        return np.cos(out)

    reports = line_zeros(fn, 0.5, 0.0, 10.0, samples=21)
    near = [r for r in reports if abs(r.location - (0.5 + 1j)) <= 0.5]
    assert len(near) == 1 and not near[0].certified


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.tuples(st.floats(0.2, 0.8), st.floats(-1.0, 1.0)),
             min_size=1, max_size=4),
    st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
)
def test_line_scan_certifies_simple_zeros_near_the_line(spots, c):
    # one simple zero in each unit slot of Im s in [1, 5], at most one
    # sample step off the line, times exp(c s): every zero is reported,
    # certified, once, within the certification radius
    step = 0.005
    zeros = [complex(0.5 + v * step, 1.0 + k + u) for k, (u, v) in enumerate(spots)]

    def fn(s):
        out = np.exp(c * s)
        for w in zeros:
            out = out * (s - w)
        return out

    reports = line_zeros(fn, 0.5, 0.5, 5.5, samples=1001)
    assert len(reports) == len(zeros)
    for rep, w in zip(reports, zeros):
        assert rep.certified and rep.multiplicity == 1
        assert abs(rep.location - w) <= zero_engine._CERT_RADIUS


def test_line_scan_strict_raises_on_unpolishable_dip():
    # real-valued modulus dip with no analytic zero: each of its two dip
    # circles winds 0 times, and so does its retry, so both dips are
    # reported uncertified, one scalar call each, and a census refuses
    # them
    fn, calls = _scalar_calls(lambda s: abs(s - (0.5 + 2.0j)) + 1e-3)

    reports = line_zeros(fn, 0.5, 1.5, 2.5, samples=400)
    assert len(reports) == 2 and not any(r.certified for r in reports)
    assert len(calls) == 2
    with pytest.raises(UncertifiedError, match="failed certification"):
        census(fn, (0.4, 0.6, 1.5, 2.5), samples=400)


def test_line_scan_ignores_smooth_nonvanishing_stretch():
    def fn(s):
        return np.exp(0.3 * s) + 2.0

    assert line_zeros(fn, 0.5, 0.0, 10.0, samples=500) == []


def test_line_scan_rejects_empty_range():
    with pytest.raises(DomainError):
        line_zeros(_sin_line_fn, 0.5, 2.0, 1.0)


@pytest.mark.parametrize("line, fn", [
    ((0.5, 0.4, math.inf), _sin_line_fn),
    ((0.5, math.nan, 5.6), _sin_line_fn),
    ((math.inf, 0.4, 5.6), _sin_line_fn),
    ((0.5, 0.4, 5.6), lambda s: s * math.nan),
    ((0.5, 0.4, 5.6), lambda s: np.where(np.imag(s) < 0.5, np.inf, s)),
], ids=["inf_im_hi", "nan_im_lo", "inf_re", "nan_fn", "inf_sample"])
def test_line_scan_refuses_non_finite_input(line, fn):
    # a scan over a non-finite range, or of a non-finite fn, finds no dip;
    # reporting no zeros there would pass for a census that found none
    with pytest.raises(DomainError, match="finite"):
        line_zeros(fn, *line, samples=64)


@pytest.mark.parametrize("samples", [0, 1, 2])
def test_line_scan_needs_three_samples(samples):
    # too few samples hold no dip, so the scan would list nothing unseen
    with pytest.raises(DomainError, match="at least 3 samples"):
        line_zeros(_sin_line_fn, 0.5, 0.4, 5.6, samples=samples)


def test_census_refuses_too_few_samples_before_counting():
    with pytest.raises(DomainError, match="at least 3 samples"):
        census(_sin_line_fn, (0.4, 0.6, 0.5, 1.5), samples=2)


def test_line_scan_respects_listed_poles():
    # a simple pole past the end of the scan must not break certification:
    # it is 4 units from every certification square
    z0 = 0.5 + 3.0j
    pole = 0.5 + 7.0j

    def fn(s):
        return (s - z0) / (s - pole)

    reports = line_zeros(fn, 0.5, 2.0, 4.0, samples=300)
    assert len(reports) == 1
    assert reports[0].certified
    assert abs(reports[0].location - z0) <= 1e-9


# ---------------------------------------------------------------------------
# census: certified reports whose multiplicities match the box's winding count

_Z0 = 0.5 + 2.0j


def test_census_counts_a_double_zero_twice():
    reports, count = census(lambda s: (s - _Z0) ** 2, (0.4, 0.6, 1.5, 2.5),
                            samples=400)
    assert count == 2
    assert [r.multiplicity for r in reports] == [2]


def test_census_leaves_out_a_report_outside_the_open_box():
    # the circle about the dip on Re s = 1/2 holds the zero at Re s = 0.56,
    # right of the box: listed, not counted, and the box counts none
    z1 = 0.56 + 2.0j
    reports, count = census(lambda s: s - z1, (0.45, 0.55, 1.0, 3.0),
                            samples=100)
    assert count == 0
    assert len(reports) == 1 and abs(reports[0].location - z1) <= 1e-9


def test_census_counts_a_close_pair_below_the_scan_step():
    # 0.0008 apart against a sample step of 0.0025: one dip, whose circle
    # holds and counts both zeros
    def fn(s):
        return (s - _Z0) * (s - _Z0 - 0.0008j)

    for rect, samples in (((0.4, 0.6, 1.5, 2.5), 400), ((0.4, 0.6, 1.9, 2.1), 2000)):
        reports, count = census(fn, rect, samples=samples)
        assert count == 2 and len(reports) == 2
        assert all(r.certified and r.multiplicity == 1 for r in reports)


def test_census_refuses_a_zero_beyond_every_circle():
    # the zero at 0.85 + 2.5i lies inside the box but 0.35 from the line:
    # no dip on the line and beyond every circle (radius at most 0.25),
    # so the scan lists one zero where the box counts two
    def fn(s):
        return (s - _Z0) * (s - (0.85 + 2.5j))

    with pytest.raises(UncertifiedError,
                       match="lists 1 zeros .* winding count is 2"):
        census(fn, (0.1, 0.9, 1.5, 3.5), samples=400)
    # a coarse scan too, whose circles reach their cap of 0.25
    with pytest.raises(UncertifiedError,
                       match="lists 1 zeros .* winding count is 2"):
        census(fn, (0.1, 0.9, 1.5, 3.5), samples=16)


def test_census_adds_back_a_listed_pole_inside_the_box():
    pole = 0.55 + 2.5j

    def fn(s):
        return (s - _Z0) / (s - pole)

    rect = (0.4, 0.6, 1.5, 3.5)
    with pytest.raises(UncertifiedError, match="winding count is 0"):
        census(fn, rect, samples=400)
    reports, count = census(fn, rect, samples=400, poles=[pole])
    assert count == 1 and len(reports) == 1


def test_census_refuses_a_listed_pole_on_the_box_edge():
    pole = 0.4 + 2.5j

    def fn(s):
        return (s - _Z0) / (s - pole)

    with pytest.raises(UncertifiedError, match=r"edge") as refused:
        census(fn, (0.4, 0.6, 1.5, 3.5), samples=400, poles=[pole])
    assert f"s = {pole}" in str(refused.value)


# ---------------------------------------------------------------------------
# dip circles: one circle per dip locates, counts and certifies its zeros.
# The three-square walk they replaced stays here as a reference rule

_SQUARES = (2e-3, 2e-4, 2e-5)  # the walk's half-widths, widest first
_REFUSALS = (BoundaryZeroError, NonIntegerWindingError, ConvergenceError)


def _three_square_rule(counts):
    """(multiplicity, confirmed) from the counts on all three squares,
    widest first, None where a count raised: the last count that did not
    raise decides confirmation, the last count >= 1 the multiplicity."""
    mult, confirmed = 1, False
    for count in counts:
        if count is None:
            continue
        if count >= 1:
            mult, confirmed = count, True
        else:
            confirmed = False
    return mult, confirmed


def _square_index(rect):
    # 0 for the widest square, 2 for the tightest
    return round(math.log10(2.0 * _SQUARES[0] / (rect[1] - rect[0])))


def _real_counts(fn, z, poles=()):
    counts = []
    for hw in _SQUARES:
        rect = (z.real - hw, z.real + hw, z.imag - hw, z.imag + hw)
        try:
            counts.append(winding_count(fn, rect, poles=poles))
        except _REFUSALS:
            counts.append(None)
    return counts


_ANSWERS = ("raise", 0, 1, 2)


@pytest.mark.parametrize("answers", [
    (wide, mid, tight)
    for wide in _ANSWERS for mid in _ANSWERS for tight in _ANSWERS
], ids=lambda answers: "-".join(map(str, answers)))
def test_certification_walk_matches_three_square_rule(monkeypatch, answers):
    # the walk is gone: whatever winding_count would answer on each of the
    # three squares, line_zeros never asks it, and the dip's circle alone
    # gives the report the three-square rule gives on the real counts
    z0 = 0.5 + 2.0j
    want = _three_square_rule(_real_counts(lambda s: s - z0, z0))
    asked = []

    def scripted_winding_count(fn, rect, poles=()):
        asked.append(rect)
        answer = answers[_square_index(rect)]
        if answer == "raise":
            raise BoundaryZeroError("scripted refusal")
        return answer

    monkeypatch.setattr(zero_engine, "winding_count", scripted_winding_count)
    reports = line_zeros(lambda s: s - z0, 0.5, 1.5, 2.5, samples=400)
    assert asked == []
    assert [(r.multiplicity, r.certified) for r in reports] == [want] == [(1, True)]


def _reference_global():
    from weakmellin.global_zeta import factorize_global, reference_spec

    return factorize_global(reference_spec()).evaluate


def _hard_real_pair():
    from weakmellin.arch_zeta import zeta_real

    return lambda s: zeta_real(0.5, 1.5, s)


@pytest.mark.parametrize("build, lo, hi", [
    (_reference_global, 1.0, 58.0),
    (_hard_real_pair, 0.0, 25.0),
], ids=["reference-global", "zeta_real-0.5-1.5"])
def test_census_reports_agree_with_three_square_rule(build, lo, hi):
    fn = build()
    reports = line_zeros(fn, 0.5, lo, hi)
    assert reports and all(r.certified for r in reports)
    for rep in reports:
        mult, confirmed = _three_square_rule(_real_counts(fn, rep.location))
        assert rep.multiplicity == mult
        assert rep.certified == confirmed


@pytest.mark.parametrize("gap", [1e-4, 8e-4])
def test_close_pair_below_scan_step_gives_two_reports(gap):
    # 1e-4 and 8e-4 apart against a sample step of 0.0025: the circle
    # about the dip holds both zeros, and its polynomial separates them
    z1, z2 = 0.5 + 2.0j, 0.5 + (2.0 + gap) * 1j

    def fn(s):
        return (s - z1) * (s - z2)

    reports = line_zeros(fn, 0.5, 1.5, 2.5, samples=400)
    assert len(reports) == 2
    for rep, want in zip(reports, (z1, z2)):
        assert rep.certified and rep.multiplicity == 1
        assert abs(rep.location - want) <= 1e-10


@pytest.mark.parametrize("angle", [0.0, 0.25 * math.pi, 0.5 * math.pi])
@pytest.mark.parametrize("rho", [0.8, 1.0, 1.3])
def test_zero_with_a_neighbour_near_its_circle_stays_certified(rho, angle):
    # the circle about the dip of z0 has radius 0.1; a second zero rho
    # radii away, off the line or on it, may sit on that circle and refuse
    # its count.  The retry, a quarter as wide and in one more array
    # call, then counts z0 alone
    z0 = 0.5 + 2.0j
    z1 = z0 + 0.1 * rho * cmath.exp(1j * angle)
    fn, batches = _recording(lambda s: (s - z0) * (s - z1))
    reports = line_zeros(fn, 0.5, 1.5, 2.5, samples=101)
    near = [r for r in reports if abs(r.location - z0) <= 1e-10]
    assert len(near) == 1 and near[0].certified and near[0].multiplicity == 1
    if rho == 1.0 and angle == 0.0:
        assert batches == [101, 64, 64, None]


def test_circle_past_the_domain_of_fn_is_called_alone():
    # fn refuses Im s > 2.1, which the circle (radius 0.1) about the dip
    # near 2.05 reaches: the one call for both circles raises, each circle
    # is called alone, the high one is not counted, and its retry of
    # radius 0.025 stays inside the domain and counts the zero
    def fn(s):
        if np.max(np.imag(s)) > 2.1:
            raise DomainError("scripted height cap")
        return (s - (0.5 + 2.05j)) * (s - (0.5 + 1.7j))

    fn, batches = _recording(fn)
    reports = line_zeros(fn, 0.5, 1.5, 2.1, samples=61)
    assert len(reports) == 2 and all(r.certified for r in reports)
    for rep, want in zip(reports, (0.5 + 1.7j, 0.5 + 2.05j)):
        assert abs(rep.location - want) <= 1e-10
    assert batches == [61, 128, 64, 64, 64, None, None]


@pytest.mark.parametrize("lo, zero", [(14.0, 14.134725141734695), (59.0, 59.34704400260235)])
def test_dense_scan_circle_cuts_its_rounding_noise(monkeypatch, lo, zero):
    # a 2048-sample scan of a unit window puts the dip circle at its
    # radius floor of 0.01, where the reference function's array values
    # carry rounding well above 64 eps of the largest sample; the cut at
    # the noise of the upper half of the coefficients keeps the Taylor
    # polynomial short (degree 5 and 6) instead of degree 63
    from weakmellin.global_zeta import factorize_global, reference_spec

    degrees = []
    taylor = zero_engine._dip_taylor

    def spy(vals):
        poly = taylor(vals)
        degrees.append(len(poly) - 1)
        return poly

    monkeypatch.setattr(zero_engine, "_dip_taylor", spy)
    reports = line_zeros(factorize_global(reference_spec()).evaluate, 0.5, lo, lo + 1.0)
    assert len(reports) == 1 and reports[0].certified and reports[0].multiplicity == 1
    assert abs(reports[0].location - complex(0.5, zero)) <= 1e-10
    assert degrees and max(degrees) <= 16


def test_dip_circle_of_noise_alone_is_not_counted():
    # values with no holomorphic part put every Taylor coefficient near one
    # level, below four times the median of the upper half: the cut keeps
    # the largest coefficient, and the circle is not counted
    rng = np.random.default_rng(1)
    vals = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    _, counted = zero_engine._dip_circle_roots(vals)
    assert not counted


# the locator of the roots inside a dip circle, against the companion
# solve of the whole cut Taylor polynomial (np.roots) that it replaced


def _seeded_circle(rng, inner, outer=8):
    """Values at the dip circle's samples of a polynomial with the roots
    inner, outer more at |w| in [1.5, 4], and a random scale."""
    far = rng.uniform(1.5, 4.0, outer) * np.exp(2j * np.pi * rng.uniform(size=outer))
    poly = np.poly(np.concatenate([np.asarray(inner, dtype=complex), far]))
    return complex(*rng.standard_normal(2)) * np.polyval(poly, zero_engine._DIP_UNIT)


def _whole_companion_solve(vals):
    """(zeros, counted, poly): np.roots of the cut Taylor polynomial, the
    roots inside grouped by _cluster_roots, counted when the winding of
    vals is their multiplicity."""
    poly = zero_engine._dip_taylor(vals)
    roots = np.roots(poly)
    zeros = zero_engine._cluster_roots(roots[np.abs(roots) < 1.0], poly)
    return zeros, zero_engine._turns(vals) == sum(k for _, k in zeros) >= 1, poly


def _spot(rng, lo, hi):
    return rng.uniform(lo, hi) * cmath.exp(2j * math.pi * rng.uniform())


def _close_pair(rng):
    c = _spot(rng, 0.0, 0.5)
    return [c, c + _spot(rng, 1e-3, 1e-3)]


_LOCATOR_CASES = {
    "simple": lambda rng: [_spot(rng, 0.0, 0.6)],
    "simple at 0.9": lambda rng: [_spot(rng, 0.9, 0.9)],
    "two simple": lambda rng: [_spot(rng, 0.0, 0.7), _spot(rng, 0.0, 0.7)],
    "close pair": _close_pair,
    "double": lambda rng: [_spot(rng, 0.0, 0.5)] * 2,
    "three simple, one at 0.9": lambda rng: [
        _spot(rng, 0.9, 0.9), _spot(rng, 0.0, 0.6), _spot(rng, 0.0, 0.6)],
    "triple": lambda rng: [_spot(rng, 0.0, 0.5)] * 3,
}


@pytest.mark.parametrize("case", list(_LOCATOR_CASES))
def test_dip_circle_locates_the_roots_the_companion_solve_finds_inside(case):
    # P has 1, 2 or 3 roots inside the circle and 8 at |w| in [1.5, 4].
    # The located roots have np.roots' multiplicities, and a simple one
    # lies within 1e-13 of np.roots' root, or within 16 times the root's
    # condition eps sum |c_k| |r|^k / |P'(r)| where that is larger: the
    # two roots of a close pair move by a few times that in either
    # solve.  A root at |w| = 0.9 is located, but the argument of the
    # samples may step by up to 1 rad near it, and where that is too far
    # to read their winding the circle does not count, as under the
    # companion solve
    eps = np.finfo(float).eps
    rng = np.random.default_rng(sum(map(ord, case)))
    for _ in range(20):
        inner = _LOCATOR_CASES[case](rng)
        vals = _seeded_circle(rng, inner)
        zeros, counted = zero_engine._dip_circle_roots(vals)
        want, want_counted, poly = _whole_companion_solve(vals)
        assert counted == want_counted
        assert counted or max(map(abs, inner)) > 0.8
        assert sorted(k for _, k in zeros) == sorted(k for _, k in want)
        assert sum(k for _, k in zeros) == len(inner)
        slope = np.polyder(poly)
        for w, k in zeros:
            r = min((r for r, kk in want if kk == k), key=lambda r: abs(r - w))
            if k == 1:
                cond = eps * np.polyval(np.abs(poly), abs(r)) / abs(np.polyval(slope, r))
                assert abs(w - r) <= max(1e-13, 16.0 * cond)
            else:
                assert abs(w - r) <= 1e-10


def test_dip_circle_whose_polynomial_winds_otherwise_does_not_count():
    # on the samples 2 conj(w) is 2 w^63, so P = 2 w^63 + w - 0.3 has 63
    # roots inside, while the samples w - 0.3 + 2 / w wind -1 times: the
    # trapezoid count of P's roots reads 63, more than a readable winding
    # can be, so no root is located and the circle does not count
    w = zero_engine._DIP_UNIT
    vals = w - 0.3 + 2.0 / w
    _, _, poly = _whole_companion_solve(vals)
    roots = np.roots(poly)
    assert np.sum(np.abs(roots) < 1.0) == 63 and zero_engine._turns(vals) == -1
    assert zero_engine._dip_circle_roots(vals) == ([], False)


def test_line_scan_runs_no_companion_solve_of_a_taylor_polynomial(monkeypatch):
    # the census dips are settled from their circles' power sums alone
    def refuse(poly):
        raise AssertionError(f"companion solve of degree {len(poly) - 1}")

    monkeypatch.setattr(np, "roots", refuse)
    fn = _reference_global()
    reports, count = census(fn, (0.4, 0.6, 10.0, 30.0), samples=512)
    assert count == len(reports) >= 3
