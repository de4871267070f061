"""Zero location and certification for local factors and strip functions.

Four mechanisms feed a common report format:

* companion-matrix roots of the finite-place numerator polynomials,
  folded into one vertical period of the zero lattice;
* a sign-change certificate on the unit circle for self-inversive
  numerators: the companion roots are confirmed together by a sign change
  of a real profile across each root's own arc, the arcs disjoint (any
  other numerator's roots by a winding count on a small circle each), and
  one grid scan of the same profile counts and brackets the circle zeros;
  the arc ends, the grid and the small circles are one array Horner sweep
  each (specfun._horner_sweep);
* argument-principle winding counts around rectangles, sampled evenly in
  arc length and doubled round by round, which count a census box;
* vertical-line scans, each dip of |fn| settled on one Cauchy circle
  whose samples give the Taylor polynomial of fn there, whose power sums
  on the same samples give the zeros inside, and only those, with their
  multiplicities, and whose argument principle gives the count that
  certifies them.

A report is marked certified only when the located zero passes a small
residual test and an independent count confirms it.  Anything that fails
stays in the output with certified=False rather than being dropped;
census refuses it instead, as it refuses a scan whose multiplicities miss
the winding count of its box.

The function fn handed to winding_count, line_zeros and census must map
a 1-D complex ndarray elementwise to an array of the same shape:
line_zeros evaluates its whole scan grid in one call and the circles of
all its dips in another, and winding_count each doubling round's fresh
points in one call.  A result of any other shape, a scalar included,
raises DomainError; an error that fn raises on an array propagates.  fn
must also take a Python complex: the residual of each line-scan report
is one such call, so it comes from fn's scalar body and not from the
circle's values.  GlobalFactorization.evaluate, zeta_real,
zeta_complex_hermitian, zeta_rn_radial, LocalFactor.evaluate and
entire_eval, and the special functions riemann_zeta, dirichlet_l,
completed_xi, gamma, log_gamma and hyp1f1 (in a) take both.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from functools import cache, lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    BoundaryZeroError,
    ConvergenceError,
    DomainError,
    NonIntegerWindingError,
    PoleError,
    UncertifiedError,
)
from .padic_zeta import LocalFactor
from .specfun import _horner_sweep

_METHODS = ("CompanionRoots", "CauchyCircle")

# residual gate for certification, relative to the natural local scale
_ROOT_RESIDUAL = 1e-10
# matching radius between a located zero and its independent confirmation
_CERT_RADIUS = 1e-6
# line_zeros: a scan dip is a local minimum of |fn| below _DIP_RATIO times
# the largest |fn| within _DIP_WINDOW samples on either side, settled on a
# circle of _DIP_POINTS points about it whose radius is _DIP_STEPS sample
# steps, clamped to [_DIP_RADIUS_MIN, _DIP_RADIUS_MAX]
_DIP_RATIO = 0.25
_DIP_WINDOW = 12
_DIP_POINTS = 64
_DIP_STEPS = 10.0
_DIP_RADIUS_MIN = 0.01
_DIP_RADIUS_MAX = 0.25
# what winding_count raises when it cannot count a contour
_COUNT_REFUSALS = (BoundaryZeroError, NonIntegerWindingError, ConvergenceError)


@dataclass(frozen=True)
class ZeroReport:
    """One located zero with its provenance.

    location is a point in the s plane.  residual is dimensionless:
    the function value at the location divided by the relevant scale
    (max polynomial coefficient, or the largest |fn| of the scan window
    around the dip).  certified means the residual is at most 1e-10
    (_ROOT_RESIDUAL) and an independent count confirmed the zero.
    """

    location: complex
    multiplicity: int
    method: str
    certified: bool
    residual: float

    def __post_init__(self):
        if self.multiplicity < 1:
            raise DomainError("zero multiplicity must be at least 1")
        if self.method not in _METHODS:
            raise DomainError(f"unknown location method {self.method!r}")


def _sorted_reports(reports):
    return sorted(reports, key=lambda r: (r.location.imag, r.location.real))


def _values(fn, zs):
    """fn at the points of the 1-D complex array zs, from one call of fn
    with the array.  A result of another shape raises DomainError."""
    out = np.asarray(fn(zs), dtype=complex)
    if out.shape != zs.shape:
        raise DomainError(
            f"fn must map an array of shape {zs.shape} to values of the same "
            f"shape, got shape {out.shape}"
        )
    return out


# ---------------------------------------------------------------------------
# unit-circle sign-change certificate


# grid angles the circle certificate scans for sign changes
_CIRCLE_SAMPLES = 4096
# degrees whose grid table of e^(-i D phi/2) is kept (least recently used
# first out); the benchmark's crosscheck meets degrees 1 to 7
_CIRCLE_TURNS = 8


@cache
def _circle_points():
    """(phis, xs): the _CIRCLE_SAMPLES + 1 grid angles 2 pi k / _CIRCLE_SAMPLES,
    the last closing the loop at 2 pi, and xs = e^(i phi) at all but the
    last.  Built on first use, so importing the package costs nothing."""
    phis = 2.0 * math.pi * np.arange(_CIRCLE_SAMPLES + 1) / _CIRCLE_SAMPLES
    xs = np.exp(1j * phis[:_CIRCLE_SAMPLES])
    phis.flags.writeable = xs.flags.writeable = False
    return phis, xs


@lru_cache(maxsize=_CIRCLE_TURNS)
def _circle_turn(degree: int):
    """e^(-i degree phi/2) at the xs of _circle_points."""
    turn = np.exp(-0.5j * degree * _circle_points()[0][:_CIRCLE_SAMPLES])
    turn.flags.writeable = False
    return turn


def _profile(rot, coeffs, turn, xs):
    """Re(rot turn P(xs)) for xs = e^(i phi) and turn = e^(-i D phi/2): the
    circle profile h of _circle_rotation at the angles phi, one
    _horner_sweep and one product."""
    return (rot * turn * _horner_sweep(coeffs, xs)).real


def _profile_floor(coeffs, degree: int) -> float:
    """4 D eps sum |c_k|, the rounding of the Horner sum behind the
    circle profile (Higham, Accuracy and Stability of Numerical
    Algorithms, 2002, 5.1): a profile value at most this large has a
    sign that is noise."""
    return 4.0 * degree * np.finfo(float).eps * float(np.sum(np.abs(coeffs)))


def _circle_rotation(coeffs):
    """conj(sqrt(u)), the rotation of the circle profile h.  Raises
    DomainError unless the numerator is self-inversive.

    A self-inversive P satisfies P(X) = u X^D conj(P(1/conj(X))) with
    u = P[0] / conj(P[-1]) of modulus 1, so on the circle X = e^(i phi)

        h(phi) = Re(conj(sqrt(u)) e^(-i D phi/2) P(e^(i phi)))

    is real up to roundoff and vanishes exactly where P does.  For the
    unramified numerators h is the trigonometric binomial
    2 Re(c1 e^(i nu phi)) + 2 Re(c2 e^(i (nu-1) phi)) with |c1| = 1 and
    |c2| = 1/Q < 1, which has no tangential zero, so every circle zero of
    the numerator is a clean sign change of h.
    """
    u = coeffs[0] / np.conj(coeffs[-1])
    cs, uc = coeffs.tolist(), complex(u)
    if max(abs(c - uc * m.conjugate()) for c, m in zip(cs, reversed(cs))) > (
            1e-8 * max(map(abs, cs))):
        raise DomainError(
            "circle certificate needs a self-inversive numerator"
        )
    return np.conj(np.sqrt(u))


def unit_circle_certificate(factor: LocalFactor):
    """Count circle zeros of the numerator by sign changes and bracket them.

    Returns (count, brackets) from one evaluation of the circle profile h
    of _circle_rotation on a grid of _CIRCLE_SAMPLES angles, which reads
    both exponentials from the cached tables (_circle_points,
    _circle_turn).  A bracket (lo, hi) is a grid cell over which h
    changes sign, and so holds a circle zero by the intermediate value
    theorem, or (phi, phi) where h is 0 at a grid angle; the brackets come
    in order of angle, and count = len(brackets).  A grid value within the
    rounding of the Horner sum (_profile_floor) counts as 0: its sign is
    noise, and a double root on a grid angle would otherwise show two sign
    changes.  No bracket is refined and no eigenvalue is taken.  Needs a
    self-inversive numerator (every unramified and ramified one is), and
    raises DomainError for any other; D = 0 gives (0, []).
    """
    coeffs, _, degree = factor.zero_poly()
    if degree < 1:
        return 0, []
    phis, xs = _circle_points()
    vals = _profile(_circle_rotation(coeffs), coeffs, _circle_turn(degree), xs)
    vals = np.where(np.abs(vals) <= _profile_floor(coeffs, degree), 0.0, vals)
    # close the loop; odd degree profiles are antiperiodic
    vals = np.append(vals, vals[0] if degree % 2 == 0 else -vals[0])
    lo = np.flatnonzero((vals[:-1] == 0.0) | (vals[:-1] * vals[1:] < 0.0))
    brackets = list(zip(phis[lo].tolist(), phis[lo + (vals[lo] != 0.0)].tolist()))
    return len(brackets), brackets


# ---------------------------------------------------------------------------
# companion-matrix roots of the finite-place numerators


def _fold_imag(im: float, period: float) -> float:
    folded = math.fmod(im, period)
    if folded < 0.0:
        folded += period
    # avoid emitting period - epsilon for a zero sitting on the seam
    if period - folded < 1e-12:
        folded = 0.0
    return folded


# an m-fold root comes back from the eigenvalue solver, or from Newton's
# method once |P| is rounding, split over a circle of radius about
# eps^(1/m) times its scale, and each member of the split has a slope |P'|
# near eps^((m-1)/m) of its natural size
_CLUSTER_SPREAD = 10.0
_CLUSTER_SLOPE = 1e-4


def _cluster_roots(roots, coeffs):
    """(location, multiplicity) pairs of the roots of P = coeffs.

    roots is an ndarray of approximate roots of P: all of them from the
    companion matrix (_companion_roots), or those inside a dip circle, each
    polished by Newton's method (_dip_circle_roots).  A root with a
    slope |P'| of its natural size, sum k |c_k| max(1, |root|)^(k-1), is
    simple; taking the size at 1 or more keeps a multiple root split about
    0, where the higher terms vanish, from passing for simple roots.  Each
    other root, in order of (Re, Im), joins the largest group of k of the
    nearest such roots, itself included, that lies within _CLUSTER_SPREAD
    eps^(1/k) max(1, |c|) of its mean c, and the group is reported as one
    root at c of multiplicity k.
    """
    degrees = np.arange(len(coeffs) - 1, 0, -1)
    slope = coeffs[:-1] * degrees
    powers = roots[:, None] ** (degrees - 1)
    sizes = np.maximum(np.abs(roots), 1.0)[:, None] ** (degrees - 1)
    flat = np.abs(powers @ slope) <= _CLUSTER_SLOPE * (sizes @ np.abs(slope))
    out = [(complex(r), 1) for r in roots[~flat]]
    free = sorted(roots[flat].tolist(), key=lambda z: (z.real, z.imag))
    eps = np.finfo(float).eps
    while free:
        near = sorted(free, key=lambda z: abs(z - free[0]))
        for k in range(len(near), 0, -1):
            mean = sum(near[:k]) / k
            if k == 1 or max(abs(z - mean) for z in near[:k]) <= (
                    _CLUSTER_SPREAD * eps ** (1.0 / k) * max(1.0, abs(mean))):
                break
        free = sorted(near[k:], key=lambda z: (z.real, z.imag))
        out.append((near[0] if k == 1 else mean, k))
    return out


def _companion_roots(coeffs):
    """np.roots(coeffs) for a complex array coeffs, from the same companion
    matrix and so the same eigenvalues, without np.roots' wrapper, which
    costs about as much as the eigensolve at the degrees of the finite
    places.
    As np.roots does, zero leading coefficients are dropped and each zero
    trailing one gives a root 0."""
    nonzero = [i for i, c in enumerate(coeffs.tolist()) if c]
    if not nonzero:
        return np.array([])
    lo, hi = nonzero[0], nonzero[-1] + 1
    if hi - lo > 1:
        companion = np.eye(hi - lo - 1, k=-1, dtype=complex)
        companion[0] = -coeffs[lo + 1:hi] / coeffs[lo]
        roots = np.linalg.eigvals(companion)
    else:
        roots = np.array([])
    if hi < len(coeffs):
        roots = np.concatenate((roots, np.zeros(len(coeffs) - hi, roots.dtype)))
    return roots


def exp_poly_roots(factor: LocalFactor) -> list[ZeroReport]:
    """All zeros of a finite-place factor in one fundamental vertical strip.

    The numerator polynomial in X = q^(s - n/2) is solved by the
    companion matrix, each root is pulled back to s and folded into
    0 <= Im(s) < 2 pi / ln q (after the twist shift), and each root is
    confirmed on its own matching disk.  The roots of a self-inversive
    numerator are confirmed together when all D are simple, each has |X|
    within 1e-8 of 1, h(phi - d) and h(phi + d) have strictly opposite
    signs at its angle phi for the circle profile h (_circle_rotation),
    d = _CERT_RADIUS ln q, both above the rounding floor of h
    (_profile_floor), from one array call of h made once the other tests
    pass, and the angles lie pairwise more than 2d apart round the
    circle, so the arcs
    [phi - d, phi + d] are disjoint: the intermediate value theorem then
    puts D distinct circle zeros, all of P's, one in each arc.  A root of
    any other numerator is confirmed when the winding number of P on
    _DIP_POINTS points of the circle of radius _CERT_RADIUS about it
    (_turns) is its multiplicity.  A factor that vanishes identically has
    no isolated zeros and gives [].
    """
    coeffs, _, D = factor.zero_poly()
    if D < 1:
        return []
    log_p = math.log(factor.p)
    clustered = _cluster_roots(_companion_roots(coeffs), coeffs)
    # the D roots and their checks are Python scalars: at the degrees of
    # the finite places an array call costs more than the loop it replaces
    xs = [x_root for x_root, _ in clustered]
    cs = coeffs.tolist()
    try:
        rot = _circle_rotation(coeffs)
    except DomainError:  # not self-inversive
        rings = _horner_sweep(coeffs, np.array(xs)[:, None] + _CERT_RADIUS * _DIP_UNIT)
        confirmed = [_turns(vals) == mult for (_, mult), vals in zip(clustered, rings)]
    else:
        half = _CERT_RADIUS * log_p
        phis = [cmath.phase(x_root) for x_root in xs]
        ordered = sorted(phis)
        on_arcs = (len(xs) == D and all(abs(abs(x_root) - 1.0) <= 1e-8 for x_root in xs)
                   and all(b - a > 2.0 * half
                           for a, b in zip(ordered, ordered[1:] + [ordered[0] + 2.0 * math.pi])))
        if on_arcs:
            ends = np.array([phi - half for phi in phis] + [phi + half for phi in phis])
            h = _profile(rot, coeffs, np.exp(-0.5j * D * ends), np.exp(1j * ends)).tolist()
            floor = _profile_floor(coeffs, D)
            on_arcs = (all(lo * hi < 0.0 for lo, hi in zip(h[:D], h[D:]))
                       and all(abs(v) > floor for v in h))
        confirmed = [on_arcs] * len(xs)
    # s = n/2 + log X / ln q, Im s shifted by the twist and folded into
    # 0 <= Im s < 2 pi / ln q
    period = 2.0 * math.pi / log_p
    shift = cmath.phase(complex(factor.twist)) / log_p
    locations = [factor.n_dim / 2.0 + cmath.log(x_root) / log_p for x_root in xs]
    locations = [complex(s.real, _fold_imag(s.imag + shift, period)) for s in locations]
    # |P(x)| over the largest coefficient modulus
    coeff_scale = max(map(abs, cs))
    residuals = [abs(_horner(cs, x_root)[0]) / coeff_scale for x_root in xs]
    return _sorted_reports(
        ZeroReport(location=s, multiplicity=mult, method="CompanionRoots", residual=resid,
                   certified=bool(ok and resid <= _ROOT_RESIDUAL))
        for s, (_, mult), resid, ok in zip(locations, clustered, residuals, confirmed)
    )


def zeros_in_window(factor: LocalFactor, im_lo: float,
                    im_hi: float) -> list[ZeroReport]:
    """The exp_poly_roots reports unfolded over im_lo <= Im(s) <= im_hi.

    The zeros of a finite-place factor repeat with period 2 pi / ln p, so
    each zero of the fundamental strip is copied to every translate that
    falls inside the window.
    """
    period = 2.0 * math.pi / math.log(factor.p)
    out = []
    for rep in exp_poly_roots(factor):
        im0 = rep.location.imag % period
        m = math.floor((im_lo - im0) / period)
        while im0 + m * period <= im_hi:
            im = im0 + m * period
            if im >= im_lo:
                out.append(replace(rep, location=complex(rep.location.real, im)))
            m += 1
    return _sorted_reports(out)


# ---------------------------------------------------------------------------
# argument-principle winding on a rectangle

# boundary samples whose modulus dips this far below the local window
# median indicate a zero or pole sitting on the contour
_BOUNDARY_DIP = 1e-4
_POLE_MARGIN = 1e-3
# window entries per block of boundary medians (8 MB of float64)
_MEDIAN_BLOCK = 1 << 20
# winding_count's first and largest contour sizes; rounds double every
# edge's share of the first round, so every round is _START_SAMPLES times
# a power of two and holds the last round's points
_START_SAMPLES = 64
_MAX_SAMPLES = 131072
# rounds in a row over which a step near pi in nested stretches of the
# contour refuses it before the budget runs out
_STUCK_ROUNDS = 3


def _edge_counts(rect) -> tuple:
    """Points of winding_count's first round on each edge, bottom, right,
    top, left: _START_SAMPLES split in proportion to the edge lengths, at
    least one an edge.  A square gets _START_SAMPLES // 4 on every edge."""
    re_lo, re_hi, im_lo, im_hi = rect
    half = _START_SAMPLES // 2
    width = re_hi - re_lo
    across = min(max(round(half * width / (width + (im_hi - im_lo))), 1), half - 1)
    return (across, half - across, across, half - across)


def _boundary_points(rect, counts) -> np.ndarray:
    """counts[k] points on edge k, counterclockwise from the lower left
    corner: corner a to corner b at a + (b - a) (j / counts[k])."""
    re_lo, re_hi, im_lo, im_hi = rect
    corners = [
        complex(re_lo, im_lo),
        complex(re_hi, im_lo),
        complex(re_hi, im_hi),
        complex(re_lo, im_hi),
    ]
    ends = corners[1:] + corners[:1]
    return np.concatenate([
        a + (b - a) * (np.arange(count) / count)
        for a, b, count in zip(corners, ends, counts)
    ])


def _contour_values(fn, points):
    """fn at the contour points; a pole of fn on the contour is a refusal
    of the contour, not an error of the caller."""
    try:
        return _values(fn, points)
    except PoleError as exc:
        raise BoundaryZeroError(f"pole on the winding contour: {exc}") from exc


def _check_boundary_clear(vals):
    """Refuse a contour whose modulus dips far below its neighbourhood.

    Each sample is compared with the median of the 2*half + 1 samples
    centred on it (half = max(8, n // 64)), the contour read
    cyclically.  Needs n >= 8 samples; winding_count uses at least 64.
    A window median never exceeds the largest modulus, so only samples
    below _BOUNDARY_DIP times that maximum can fail: the windows are
    built only when there is such a suspect, and their medians are taken
    in blocks of at most _MEDIAN_BLOCK window entries, which keeps memory
    O(n) up to winding_count's largest contour.
    """
    mags = np.abs(np.asarray(vals))
    if not np.all(np.isfinite(mags)) or np.any(mags == 0.0):
        raise BoundaryZeroError("function vanished or blew up on the contour")
    suspects = np.flatnonzero(mags < _BOUNDARY_DIP * mags.max())
    if suspects.size == 0:
        return
    half = max(8, len(mags) // 64)
    ext = np.concatenate([mags[-half:], mags, mags[:half]])
    windows = sliding_window_view(ext, 2 * half + 1)
    step = max(1, _MEDIAN_BLOCK // (2 * half + 1))
    for lo in range(0, len(suspects), step):
        idx = suspects[lo : lo + step]
        medians = np.median(windows[idx], axis=1)
        if np.any(mags[idx] < _BOUNDARY_DIP * medians):
            raise BoundaryZeroError(
                "boundary modulus dips far below its neighbourhood; "
                "a zero or pole sits on or next to the contour"
            )


def _integer_winding(total_phase: float) -> int:
    w = total_phase / (2.0 * math.pi)
    nearest = round(w)
    if abs(w - nearest) > 1e-3:
        raise NonIntegerWindingError(
            f"accumulated argument {w:.6f} turns is not an integer"
        )
    return int(nearest)


def _round_turns(vals):
    """(turns, sizes) of one round of samples around a closed contour:
    sizes[k] = |arg(vals[k+1] / vals[k])|, read cyclically, and the
    winding number once every step is below pi/4, after
    _check_boundary_clear, or None before.  A 0 sample raises
    BoundaryZeroError."""
    if np.any(vals == 0.0):
        raise BoundaryZeroError("exact zero on the winding contour")
    steps = np.angle(np.concatenate((vals[1:], vals[:1])) / vals)
    sizes = np.abs(steps)
    if not np.max(sizes) < math.pi / 4.0:
        return None, sizes
    _check_boundary_clear(vals)
    return _integer_winding(float(np.sum(steps))), sizes


def _turns(vals):
    """The winding number of one round of vals (_round_turns), or None
    where its steps are too large or it refuses the contour."""
    try:
        return _round_turns(vals)[0]
    except _COUNT_REFUSALS:
        return None


def winding_count(fn, rect, poles=()) -> int:
    """Zeros minus unlisted poles inside a rectangle, by argument count.

    rect is (re_lo, re_hi, im_lo, im_hi).  Known poles inside the
    rectangle may be passed in poles; their (simple) winding is added
    back so the return value is the zero count.  A listed pole close to
    the boundary is refused outright.

    The contour is sampled evenly in arc length: the _START_SAMPLES points
    of the first round are split among the edges in proportion to their
    lengths (_edge_counts), and each round doubles every edge until every
    consecutive argument step is below pi/4.  The samples of one round are
    exactly the even-numbered points of the next, so fn runs once per
    distinct contour point.  A zero, or a PoleError of fn, at a sample
    raises BoundaryZeroError, and a result of fn of another shape than
    its array of points raises DomainError.  Past _MAX_SAMPLES it raises
    ConvergenceError, and it does so early when a step stays within
    2n / _MAX_SAMPLES of pi over _STUCK_ROUNDS rounds of n samples in a row,
    each stretch inside the last: a simple zero or pole that keeps a step
    that close to pi sits nearer the contour than the budget's spacing
    (or on it), so no later round could settle it.
    """
    re_lo, re_hi, im_lo, im_hi = rect
    if not (re_lo < re_hi and im_lo < im_hi
            and math.isfinite(re_hi - re_lo + im_hi - im_lo)):
        raise DomainError("winding rectangle must have positive, finite extent")
    inside = 0
    for pole in poles:
        z = complex(pole)
        dx = max(re_lo - z.real, 0.0, z.real - re_hi)
        dy = max(im_lo - z.imag, 0.0, z.imag - im_hi)
        if dx == 0.0 and dy == 0.0:
            d_contour = min(
                z.real - re_lo, re_hi - z.real,
                z.imag - im_lo, im_hi - z.imag,
            )
            if d_contour >= _POLE_MARGIN:
                inside += 1
                continue
        else:
            d_contour = math.hypot(dx, dy)
        if d_contour < _POLE_MARGIN:
            raise BoundaryZeroError(
                f"listed pole {z} hugs the contour; shift the rectangle"
            )

    counts = np.array(_edge_counts(rect))
    arr = _contour_values(fn, _boundary_points(rect, counts))
    # rounds in a row that the stretch after each sample, or the one it
    # halves, has stepped within 2n / _MAX_SAMPLES of pi
    stuck = np.zeros(len(arr) // 2, dtype=int)
    while True:
        turns, size = _round_turns(arr)
        if turns is not None:
            return turns + inside
        worst = float(np.max(size))
        n = len(arr)
        near = 2.0 * n / _MAX_SAMPLES
        if math.pi - worst < near:
            stuck = np.where(math.pi - size < near, np.repeat(stuck, 2) + 1, 0)
            if stuck.max() >= _STUCK_ROUNDS:
                raise ConvergenceError(
                    "winding phase steps by pi across the same stretch of "
                    "the contour round after round; a zero or pole sits on it"
                )
        else:
            stuck = np.zeros(n, dtype=int)
        counts *= 2
        if 2 * n > _MAX_SAMPLES:
            raise ConvergenceError(
                "winding phase did not settle; a zero or pole is too close "
                "to the contour for the sample budget"
            )
        doubled = np.empty(2 * n, dtype=complex)
        doubled[0::2] = arr
        doubled[1::2] = _contour_values(fn, _boundary_points(rect, counts)[1::2])
        arr = doubled


# ---------------------------------------------------------------------------
# vertical-line scan, each dip settled on one Cauchy circle

# the trapezoidal rule on the circle: for vals = fn(c + r _DIP_UNIT),
# vals @ _DIP_TAYLOR are the Taylor coefficients of fn(c + r w), w^0 first
_DIP_INDEX = np.arange(_DIP_POINTS)
_DIP_UNIT = np.exp(2j * np.pi * _DIP_INDEX / _DIP_POINTS)
_DIP_TAYLOR = np.conj(_DIP_UNIT[np.outer(_DIP_INDEX, _DIP_INDEX) % _DIP_POINTS]) / _DIP_POINTS


def _dip_circles(fn, centres, radius: float):
    """fn on the circles of radius about the centres, a row a circle, from
    one array call.  If that call raises PoleError or DomainError (a circle
    through a pole or past the domain of fn), each circle takes its own
    call, and one whose call raises gets NaN, which no count accepts."""
    points = centres[:, None] + radius * _DIP_UNIT
    try:
        return _values(fn, points.ravel()).reshape(points.shape)
    except (PoleError, DomainError):
        if len(centres) == 1:
            return np.full(points.shape, np.nan, dtype=complex)
        return np.vstack([_dip_circles(fn, c[None], radius) for c in centres])


def _dip_taylor(vals):
    """The Taylor polynomial P of fn(c + r w) from the values vals of fn
    on one dip circle, highest degree first, cut after its last
    coefficient above the noise.  The noise is _DIP_POINTS eps max|vals|,
    or four times the median size of the upper half of the coefficients
    where that is larger: the rounding of the values, which array calls
    of the census functions carry well above eps, fills every degree at
    that level, and a cut below it would leave a degree-63 polynomial of
    noise.  The largest coefficient always survives the cut, even on
    values that are noise alone."""
    coeffs = vals @ _DIP_TAYLOR
    sizes = np.abs(coeffs)
    upper = np.sort(sizes[_DIP_POINTS // 2:])
    # four times the median of the upper half, the mean of its middle two
    # (the first np.median call costs about 1.8 MB of resident memory)
    noise = max(_DIP_POINTS * np.finfo(float).eps * np.max(np.abs(vals)),
                2.0 * (upper[_DIP_POINTS // 4 - 1] + upper[_DIP_POINTS // 4]))
    return coeffs[np.flatnonzero(sizes >= min(noise, sizes.max()))[-1]::-1]


# Newton's method polishes a located root: at most _NEWTON_STEPS steps,
# each halved at most _NEWTON_HALVINGS times until it lowers |P|, the
# last one of at most _NEWTON_TOL (w is in units of the radius)
_NEWTON_STEPS = 64
_NEWTON_HALVINGS = 10
_NEWTON_TOL = 4.0 * np.finfo(float).eps
# the trapezoid count of P's roots inside a dip circle must lie this close
# to an integer; a root at |w| = 0.93 is off it by 0.93^_DIP_POINTS, 0.01
_MOMENT_TOL = 0.01
# a winding read from _DIP_POINTS steps, each below pi/4 (_round_turns), is
# below _DIP_POINTS / 8: a circle with more roots inside cannot count, and
# they are not located
_MAX_INNER = _DIP_POINTS // 8


def _horner(cs, w):
    """(P(w), P'(w)) for the polynomial cs, highest degree first."""
    p = dp = 0j
    for c in cs:
        dp = dp * w + p
        p = p * w + c
    return p, dp


def _polish(cs, w):
    """Newton's method on the polynomial cs (highest degree first, Python
    complex) from w, each step halved until it lowers |P|.  It stops
    after a step of at most _NEWTON_TOL, or where no step lowers |P|: at
    a simple root a step or two past the quadratic phase, at a multiple
    one, where the steps shrink linearly, once |P| is rounding.  w itself
    if a step leaves the unit disc."""
    start = w
    p, dp = _horner(cs, w)
    for _ in range(_NEWTON_STEPS):
        if dp == 0.0:
            break
        step = p / dp
        if abs(step) <= _NEWTON_TOL:
            w -= step
            break
        for _ in range(_NEWTON_HALVINGS):
            q, dq = _horner(cs, w - step)
            if abs(q) < abs(p):
                break
            step *= 0.5
        else:
            break
        w, p, dp = w - step, q, dq
        if not abs(w) < 1.0:
            return start
    return w


def _inner_roots(poly):
    """(m, roots): the number m of roots of P = poly inside the dip
    circle and approximations of them, from P at the circle's
    _DIP_POINTS samples alone; (None, []) where those cannot settle m.

    P and w P' at the samples come from the coefficients through
    _DIP_TAYLOR.  The trapezoid means s_p of w^p w P'(w) / P(w) over the
    samples are the power sums of the roots inside, p = 0 their count
    (Delves and Lyness, Math. Comp. 1967), up to |r|^_DIP_POINTS for a
    root r from its aliases.  m is s_0 rounded, which must lie within
    _MOMENT_TOL of s_0 and in 1 <= m < _MAX_INNER: P's winding number,
    read from P' as well as P, so it holds with a root near the circle,
    where the steps between samples are too large to read (_turns).
    Newton's identities turn s_1 .. s_m into the monic factor g of
    degree m whose roots they are, and g's m x m companion matrix gives
    them; for m = 1 the root is s_1."""
    low = poly[::-1]
    size = len(low)
    # P and w P' over _DIP_POINTS at the conjugate samples, the samples
    # taken clockwise; the mean against conj(w)^p is then column p.  Each
    # is a vector-matrix product: one matrix product of the two would run
    # zgemm, whose first call adds about 0.25 MB of resident memory
    table = _DIP_TAYLOR[:size]
    pv, dpv = low @ table, (_DIP_INDEX[:size] * low) @ table
    if not np.all(pv):
        return None, []
    sums = ((dpv / pv) @ _DIP_TAYLOR[:, :size]).tolist()
    count = sums.pop(0)
    m = round(count.real) if cmath.isfinite(count) else 0
    if not (1 <= m < min(size, _MAX_INNER) and abs(count - m) <= _MOMENT_TOL):
        return None, []
    sums = sums[:m]
    if m == 1:
        return m, sums
    # g's coefficients, w^m first
    g = [1.0]
    for k in range(1, m + 1):
        g.append(-sum(s * c for s, c in zip(sums[:k], reversed(g))) / k)
    companion = np.diag(np.ones(m - 1, dtype=complex), -1)
    companion[0] = -np.array(g[1:])
    return m, np.linalg.eigvals(companion).tolist()


def _dip_circle_roots(vals):
    """(zeros, counted) for the values vals of fn on one dip circle:
    (w, multiplicity) of the roots |w| < 1 of the Taylor polynomial P of
    fn(c + r w) (_dip_taylor), located from P at the circle's samples
    (_inner_roots) and each polished by Newton's method on P (_polish);
    and whether the winding number of vals (_round_turns) is P's number
    of roots inside, at least 1, every one of them located in the unit
    disc.  Where there are two or more,
    _cluster_roots groups the polished roots, and a k-fold one is
    polished again as a simple root of P's (k-1)-th derivative.  No root
    of P outside the circle is computed."""
    if not np.all(np.isfinite(vals)):
        return [], False
    poly = _dip_taylor(vals)
    m, roots = _inner_roots(poly)
    cs = poly.tolist()
    roots = [w for w in (_polish(cs, w) for w in roots) if abs(w) < 1.0]
    if len(roots) < 2:
        zeros = [(w, 1) for w in roots]
    else:
        zeros = [(w if k == 1 else _polish(np.polyder(poly, k - 1).tolist(), w), k)
                 for w, k in _cluster_roots(np.array(roots), poly)]
    return zeros, m is not None and _turns(vals) == m == len(roots)


def line_zeros(fn, re: float, im_lo: float, im_hi: float, *,
               samples: int = 2048) -> list[ZeroReport]:
    """Zeros of fn near the vertical line Re(s) = re, Im(s) in [lo, hi].

    fn must be holomorphic near the line, as every census function is,
    and map a 1-D array of points to the array of its values there (see
    the module docstring); a result of another shape raises DomainError.
    The scan samples the line at samples points, at least 3, and flags
    local minima of |fn| that dip below a quarter of the largest |fn|
    within 12 samples on either side; the relative test keeps the scan
    honest when the function itself decays by orders of magnitude along
    the line.  Each dip is settled on one Cauchy circle of _DIP_POINTS
    points about it, of radius ten sample steps, at least 0.01 and at most
    0.25 (every pole of the package's census functions lies at least 1/2
    from its line); the circles of all dips take one array call.  The
    trapezoidal rule gives the Taylor coefficients of fn on each (Trefethen
    and Weideman, SIAM Rev. 2014).  Its roots inside the circle, and only
    those, are located from its power sums on the same samples (Delves
    and Lyness, Math. Comp. 1967; _inner_roots) and polished by Newton's
    method, which gives the zeros with their multiplicities, and the
    argument principle on the samples counts them (Austin, Kravanja and
    Trefethen, SIAM J. Numer. Anal. 2014; _dip_circle_roots).  A circle
    whose count is not the polynomial's number of roots inside, or is 0,
    is tried once more at a quarter of the radius, all such in one more
    array call; one on which fn raises PoleError or DomainError is not
    counted (_dip_circles).

    Every zero of a counted circle is reported once, from the counted
    circle whose centre it is nearest, and is certified when its residual
    |fn| over the largest |fn| of its dip's window, from one call of fn
    with a Python complex, is at most 1e-10.  A dip whose circles both
    stay uncounted (no zero, or fn not holomorphic) gives one uncertified
    report, at its root nearest the dip, or at the dip if it has none.
    Reports are sorted by Im(s).  A line or range that is not finite, or a
    scan value that is not, raises DomainError.

    A pair of zeros closer than the sample step is reported as two when
    one circle holds both, but a zero beyond every dip's circle is not
    reported at all.  Callers wanting a completeness guarantee should call
    census, which checks the total against an independent winding count
    over the whole box.
    """
    if not all(map(math.isfinite, (re, im_lo, im_hi))):
        raise DomainError("a line scan needs a finite line and range")
    if im_hi <= im_lo:
        raise DomainError("empty scan range")
    if samples < 3:
        # a dip is a sample below both neighbours
        raise DomainError(f"a line scan needs at least 3 samples, got {samples}")
    ts = np.linspace(im_lo, im_hi, samples)
    spacing = (im_hi - im_lo) / (samples - 1)
    points = re + 1j * ts
    vals = _values(fn, points)
    mags = np.abs(vals)
    if not np.all(np.isfinite(mags)):
        raise DomainError("fn is not finite on the scan line")

    dips, scales = [], []
    inner = mags[1:-1]
    for i in np.flatnonzero((inner <= mags[:-2]) & (inner <= mags[2:])) + 1:
        lo_w = max(0, i - _DIP_WINDOW)
        hi_w = min(samples, i + _DIP_WINDOW + 1)
        local_scale = float(np.max(mags[lo_w:hi_w]))
        if local_scale == 0.0:
            raise BoundaryZeroError("scan window is identically zero")
        if mags[i] < _DIP_RATIO * local_scale:
            dips.append(i)
            scales.append(local_scale)

    # (zeros, counted, radius) of each dip's last circle
    circles = [None] * len(dips)
    radius = min(max(_DIP_STEPS * spacing, _DIP_RADIUS_MIN), _DIP_RADIUS_MAX)
    todo = list(range(len(dips)))
    for r in (radius, radius / 4.0):
        if not todo:
            break
        rows = _dip_circles(fn, points[[dips[k] for k in todo]], r)
        for k, row in zip(todo, rows):
            circles[k] = (*_dip_circle_roots(row), r)
        todo = [k for k in todo if not circles[k][1]]

    # (uncounted, distance from the centre, location, multiplicity, scale),
    # counted circles first, then nearest its centre first
    found = []
    for i, scale, (zeros, counted, r) in zip(dips, scales, circles):
        if not counted:
            zeros = [min(zeros, key=lambda z: abs(z[0]), default=(0j, 1))]
        found += [(not counted, abs(w) * r, complex(points[i] + r * w), mult, scale)
                  for w, mult in zeros]
    kept = []
    for cand in sorted(found, key=lambda c: c[:2]):
        if all(abs(cand[2] - k[2]) >= _CERT_RADIUS for k in kept):
            kept.append(cand)
    reports = []
    for uncounted, _, z, mult, scale in kept:
        resid = abs(complex(fn(z))) / scale
        reports.append(ZeroReport(
            location=z, multiplicity=mult, method="CauchyCircle",
            certified=bool(not uncounted and resid <= _ROOT_RESIDUAL), residual=resid))
    return _sorted_reports(reports)


def census(fn, rect, *, samples: int = 2048, poles=()):
    """(reports, count): line_zeros on the centre line of rect, with
    samples points, and winding_count of rect, with the listed poles.

    rect is (re_lo, re_hi, im_lo, im_hi), and fn must be holomorphic in
    it but for the listed poles.  Raises UncertifiedError when a report is
    uncertified, when the box cannot be counted, or when the multiplicities
    of the reports strictly inside rect do not add up to the count: a zero
    that no dip of the scan shows, or one off the line beyond every dip's
    circle (radius ten sample steps, at least 0.01 and at most 0.25).  A
    close pair on the line is counted by the circle that holds it.
    """
    re_lo, re_hi, im_lo, im_hi = rect
    reports = line_zeros(fn, 0.5 * (re_lo + re_hi), im_lo, im_hi,
                         samples=samples)
    for rep in reports:
        if not rep.certified:
            raise UncertifiedError(
                f"zero near {rep.location} failed certification "
                f"(residual {rep.residual:.2e})"
            )
    box = (f"the box {re_lo:g} <= Re s <= {re_hi:g}, "
           f"{im_lo:g} <= Im s <= {im_hi:g}")
    try:
        count = winding_count(fn, rect, poles=poles)
    except _COUNT_REFUSALS as exc:
        listed = ", ".join(f"s = {p}" for p in poles)
        culprit = f"a zero or a listed pole ({listed})" if poles else "a zero"
        raise UncertifiedError(
            f"no winding count of {box}: {exc} ({culprit} lies on or next "
            "to the box edge)"
        ) from exc
    found = sum(
        rep.multiplicity for rep in reports
        if re_lo < rep.location.real < re_hi and im_lo < rep.location.imag < im_hi
    )
    if found != count:
        raise UncertifiedError(
            f"the census lists {found} zeros in {box} but its winding "
            f"count is {count}; a finer scan (more samples) may find the rest"
        )
    return reports, count
