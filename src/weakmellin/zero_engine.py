"""Zero location and certification for local factors and strip functions.

Four mechanisms feed a common report format:

* companion-matrix roots of the finite-place numerator polynomials,
  folded into one vertical period of the zero lattice;
* a sign-change certificate on the unit circle for self-inversive
  numerators: one grid scan of a real profile counts and brackets the
  circle zeros without any eigenvalue work, and a companion root is
  confirmed by a sign change of the profile across its matching disk;
* argument-principle winding counts around rectangles, sampled evenly in
  arc length and doubled round by round, which count a census box;
* vertical-line scans, each dip of |fn| settled on one Cauchy circle
  whose samples give the Taylor polynomial of fn there, hence the zeros
  inside and their multiplicities, and by the argument principle the
  count that certifies them.

A report is marked certified only when the located zero passes a small
residual test and an independent count confirms it.  Anything that fails
stays in the output with certified=False rather than being dropped;
census refuses it instead, as it refuses a scan whose multiplicities miss
the winding count of its box.

The function fn handed to winding_count and line_zeros must accept a
complex scalar and return its value there; line_zeros also needs it
holomorphic near its line.  If fn also maps a 1-D complex ndarray
elementwise, to an array of the same shape, line_zeros evaluates its
whole scan grid in one call and the circles of all its dips in another,
and winding_count each doubling round's fresh points in one call;
otherwise those calls are lifted once to a loop over the points (if the
first array call raises TypeError or ValueError or returns another shape,
fn is called once per point from then on).  The residual of a line-scan
report always takes one call of fn with a Python complex.
GlobalFactorization.evaluate, zeta_real,
LocalFactor.evaluate and entire_eval, and the special functions
riemann_zeta, hurwitz_zeta, dirichlet_l, gamma, log_gamma and hyp1f1 take
arrays.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from functools import partial

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

_METHODS = ("CompanionRoots", "SignChange", "Winding+Bisection")

# residual gates for certification, relative to the natural local scale
# (see ZeroReport for which method uses which)
_CERT_RESIDUAL = 1e-8
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
    around the dip).  certified means the residual passed its gate and an
    independent count confirmed the zero; the gate is 1e-10
    (_ROOT_RESIDUAL) for exp_poly_roots and line_zeros and 1e-8
    (_CERT_RESIDUAL) for circle_zeros.
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


def _elementwise(fn):
    """fn as a map from a 1-D complex array to the complex array of its
    values at those points.

    The first call hands fn the array itself.  A callable that cannot take
    one, shown by a TypeError or ValueError or by a result of another shape
    on that call, is lifted for good to a loop that calls it per point.
    """
    takes_arrays = None

    def call(zs):
        nonlocal takes_arrays
        if takes_arrays is None:
            try:
                out = np.asarray(fn(zs), dtype=complex)
                takes_arrays = out.shape == zs.shape
            except (TypeError, ValueError):
                takes_arrays = False
            if takes_arrays:
                return out
        if takes_arrays:
            return np.asarray(fn(zs), dtype=complex)
        return np.array([complex(fn(z)) for z in zs], dtype=complex)

    return call


# ---------------------------------------------------------------------------
# unit-circle sign-change certificate


# grid angles the circle certificate scans for sign changes
_CIRCLE_SAMPLES = 4096


def _circle_profile(coeffs, degree: int):
    """Real function on [0, 2pi) whose sign changes are the circle zeros,
    or None when the numerator is not self-inversive.

    A self-inversive P satisfies P(X) = u X^D conj(P(1/conj(X))) with
    u = P[0] / conj(P[-1]) of modulus 1, so on the circle X = e^(i phi)

        h(phi) = Re(conj(sqrt(u)) e^(-i D phi/2) P(e^(i phi)))

    is real up to roundoff and vanishes exactly where P does.  For the
    unramified numerators h is the trigonometric binomial
    2 Re(c1 e^(i nu phi)) + 2 Re(c2 e^(i (nu-1) phi)) with |c1| = 1 and
    |c2| = 1/Q < 1, which has no tangential zero, so every circle zero of
    the numerator is a clean sign change of h.  h takes scalar or array
    angles.
    """
    u = coeffs[0] / np.conj(coeffs[-1])
    mirror = u * np.conj(coeffs[::-1])
    if np.max(np.abs(coeffs - mirror)) > 1e-8 * np.max(np.abs(coeffs)):
        return None
    rot = np.conj(np.sqrt(u))

    def h(phi):
        return (
            rot * np.exp(-0.5j * degree * phi) * np.polyval(coeffs, np.exp(1j * phi))
        ).real

    return h


def _circle_grid(coeffs, degree: int):
    """(h, lo, hi, h_lo): h of _circle_profile, and the brackets (lo, hi)
    of its _CIRCLE_SAMPLES grid, with h at lo.  A bracket is a grid cell
    over which h changes sign, or (phi, phi) where h is exactly 0 at a
    grid angle.  Raises DomainError unless the numerator is self-inversive.
    """
    h = _circle_profile(coeffs, degree)
    if h is None:
        raise DomainError(
            "circle certificate needs a self-inversive numerator"
        )
    samples = _CIRCLE_SAMPLES
    phis = 2.0 * math.pi * np.arange(samples + 1) / samples
    vals = h(phis[:samples])
    # close the loop; odd degree profiles are antiperiodic
    vals = np.append(vals, vals[0] if degree % 2 == 0 else -vals[0])
    lo = np.flatnonzero((vals[:samples] == 0.0) | (vals[:samples] * vals[1:] < 0.0))
    return h, phis[lo], phis[lo + (vals[lo] != 0.0)], vals[lo]


def unit_circle_certificate(factor: LocalFactor):
    """Count circle zeros of the numerator by sign changes and bracket them.

    Returns (count, brackets) from one evaluation of the circle profile
    on a grid of _CIRCLE_SAMPLES angles: the sorted brackets of
    _circle_grid, each holding a circle zero by the intermediate value
    theorem, and count = len(brackets).  No bracket is refined
    (circle_zeros bisects them).  Needs a self-inversive numerator (every
    unramified and ramified one is); D = 0 gives (0, []).
    """
    coeffs, _, degree = factor.zero_poly()
    if degree < 1:
        return 0, []
    _, lo, hi, _ = _circle_grid(coeffs, degree)
    brackets = sorted(zip(lo.tolist(), hi.tolist()))
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


def _numerator_frame(factor: LocalFactor):
    """(coeffs, D, log q, to_s, residuals) of a finite-place factor: its
    numerator P in X = q^(s - n/2) and degree D; to_s(log X), the s of X
    after the twist shift, folded into 0 <= Im(s) < 2 pi / ln q; and
    residuals(xs), the list of |P(x)| over the largest coefficient modulus
    for the points x of xs, from one np.polyval call.
    """
    coeffs, _, D = factor.zero_poly()
    log_p = math.log(factor.p)
    period = 2.0 * math.pi / log_p
    shift = cmath.phase(complex(factor.twist)) / log_p
    coeff_scale = float(np.max(np.abs(coeffs), initial=0.0))

    def to_s(log_x: complex) -> complex:
        s_val = factor.n_dim / 2.0 + log_x / log_p
        return complex(s_val.real, _fold_imag(s_val.imag + shift, period))

    def residuals(xs) -> list[float]:
        # abs of a Python complex, not np.abs, which rounds differently
        return [abs(complex(v)) / coeff_scale for v in np.polyval(coeffs, xs)]

    return coeffs, D, log_p, to_s, residuals


# an m-fold root comes back from the eigenvalue solver split over a circle
# of radius about eps^(1/m) times its scale, and each member of the split
# has a slope |P'| near eps^((m-1)/m) of its natural size
_CLUSTER_SPREAD = 10.0
_CLUSTER_SLOPE = 1e-4


def _cluster_roots(roots, coeffs):
    """(location, multiplicity) pairs of the companion roots of P = coeffs.

    roots is an ndarray of roots np.roots gives for P.  A root with a
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


def exp_poly_roots(factor: LocalFactor) -> list[ZeroReport]:
    """All zeros of a finite-place factor in one fundamental vertical strip.

    The numerator polynomial in X = q^(s - n/2) is solved by the
    companion matrix, each root is pulled back to s and folded into
    0 <= Im(s) < 2 pi / ln q (after the twist shift), and the result is
    certified against an independent count.  A root at angle phi of a
    self-inversive numerator needs D brackets on the circle grid, as
    unit_circle_certificate counts them, |X| within 1e-8 of 1 and
    h(phi - d) h(phi + d) <= 0 for the circle profile h,
    d = _CERT_RADIUS ln q: a circle zero in the matching disk by the
    intermediate value theorem (one array call of h serves every root).  Other numerators take a tight winding count in the X plane.
    A factor that vanishes identically has no isolated zeros and gives [].
    """
    coeffs, D, log_p, to_s, residuals = _numerator_frame(factor)
    if D < 1:
        return []
    roots = np.roots(coeffs)
    clustered = _cluster_roots(roots, coeffs)

    try:
        h, lo, _, _ = _circle_grid(coeffs, D)
    except DomainError:  # not self-inversive
        h = None
    else:
        half = _CERT_RADIUS * log_p
        phis = np.array([cmath.phase(x_root) for x_root, _ in clustered])
        ends = h(np.concatenate([phis - half, phis + half]))
        straddles = ends[: len(phis)] * ends[len(phis):] <= 0.0

    resids = residuals([x_root for x_root, _ in clustered])
    reports = []
    for i, ((x_root, mult), resid) in enumerate(zip(clustered, resids)):
        if h is not None:
            confirmed = (len(lo) == D and straddles[i]
                         and abs(abs(x_root) - 1.0) <= 1e-8)
        else:
            box = (x_root.real - _CERT_RADIUS, x_root.real + _CERT_RADIUS,
                   x_root.imag - _CERT_RADIUS, x_root.imag + _CERT_RADIUS)
            try:
                confirmed = winding_count(partial(np.polyval, coeffs), box) == mult
            except _COUNT_REFUSALS:
                confirmed = False
        reports.append(
            ZeroReport(
                location=to_s(cmath.log(x_root)),
                multiplicity=mult,
                method="CompanionRoots",
                certified=bool(confirmed and resid <= _ROOT_RESIDUAL),
                residual=resid,
            )
        )
    return _sorted_reports(reports)


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


def circle_zeros(factor: LocalFactor) -> list[ZeroReport]:
    """Zeros from the circle sign changes alone, no eigenvalues.

    Locations are the brackets of unit_circle_certificate bisected to
    machine accuracy on Re(s) = n/2; a zero is certified when there are D
    brackets.  Raises DomainError unless the numerator is self-inversive.
    """
    coeffs, D, _, to_s, residuals = _numerator_frame(factor)
    if D < 1:
        return []
    h, a, b, fa = _circle_grid(coeffs, D)
    # bisect every bracket at once; an exact zero collapses its bracket.
    # A step that moves nothing is a fixed point: every later step would
    # repeat its midpoints, so the loop stops there
    for _ in range(60):
        mid = 0.5 * (a + b)
        fm = h(mid)
        zero = fm == 0.0
        left = fa * fm < 0.0
        a_next = np.where(zero | ~left, mid, a)
        b_next = np.where(zero | left, mid, b)
        fa_next = np.where(left, fa, fm)
        if (np.array_equal(a_next, a) and np.array_equal(b_next, b)
                and np.array_equal(fa_next, fa)):
            break
        a, b, fa = a_next, b_next, fa_next
    angles = sorted((0.5 * (a + b)).tolist())
    reports = []
    for ang, resid in zip(angles, residuals([cmath.exp(1j * ang) for ang in angles])):
        reports.append(
            ZeroReport(
                location=to_s(1j * ang),
                multiplicity=1,
                method="SignChange",
                certified=bool(len(a) == D and resid <= _CERT_RESIDUAL),
                residual=resid,
            )
        )
    return _sorted_reports(reports)


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
        return fn(points)
    except PoleError as exc:
        raise BoundaryZeroError(f"pole on the winding contour: {exc}") from exc


def _check_boundary_clear(vals):
    """Refuse a contour whose modulus dips far below its neighbourhood.

    Each sample is compared with the median of the 2*half + 1 samples
    centred on it (half = max(8, n // 64)), the contour read
    cyclically.  Needs n >= 8 samples; winding_count uses at least 64.
    A window median never exceeds the largest modulus, so only samples
    below _BOUNDARY_DIP times that maximum can fail; their medians are
    taken in blocks of at most _MEDIAN_BLOCK window entries, which keeps
    memory O(n) up to winding_count's largest contour.
    """
    mags = np.abs(np.asarray(vals))
    if not np.all(np.isfinite(mags)) or np.any(mags == 0.0):
        raise BoundaryZeroError("function vanished or blew up on the contour")
    n = len(mags)
    half = max(8, n // 64)
    ext = np.concatenate([mags[-half:], mags, mags[:half]])
    windows = sliding_window_view(ext, 2 * half + 1)
    suspects = np.flatnonzero(mags < _BOUNDARY_DIP * mags.max())
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
    steps = np.angle(np.roll(vals, -1) / vals)
    sizes = np.abs(steps)
    if not np.max(sizes) < math.pi / 4.0:
        return None, sizes
    _check_boundary_clear(vals)
    return _integer_winding(float(np.sum(steps))), sizes


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
    raises BoundaryZeroError.  Past _MAX_SAMPLES it raises
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

    fn = _elementwise(fn)
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


def _dip_circles(scan, centres, radius: float):
    """fn on the circles of radius about the centres, a row a circle, from
    one array call.  If that call raises PoleError or DomainError (a circle
    through a pole or past the domain of fn), each circle takes its own
    call, and one whose call raises gets NaN, which no count accepts."""
    points = centres[:, None] + radius * _DIP_UNIT
    try:
        return scan(points.ravel()).reshape(points.shape)
    except (PoleError, DomainError):
        if len(centres) == 1:
            return np.full(points.shape, np.nan, dtype=complex)
        return np.vstack([_dip_circles(scan, c[None], radius) for c in centres])


def _dip_circle_zeros(vals):
    """(zeros, counted) for the values vals of fn on one dip circle:
    (w, multiplicity) of the roots |w| < 1 of the Taylor polynomial of
    fn(c + r w), cut after its last coefficient above the noise and
    grouped by _cluster_roots; and whether the winding number of vals
    (_round_turns) is at least 1 and their multiplicity.  The noise is
    _DIP_POINTS eps max|vals|, or four times the median size of the upper
    half of the coefficients where that is larger: the rounding of the
    values, which array calls of the census functions carry well above
    eps, fills every degree at that level, and a cut below it would make
    np.roots solve a degree-63 polynomial of noise.  The largest
    coefficient always survives the cut, even on values that are noise
    alone."""
    if not np.all(np.isfinite(vals)):
        return [], False
    coeffs = vals @ _DIP_TAYLOR
    sizes = np.abs(coeffs)
    upper = np.sort(sizes[_DIP_POINTS // 2:])
    # four times the median of the upper half, the mean of its middle two
    # (the first np.median call costs about 1.8 MB of resident memory)
    noise = max(_DIP_POINTS * np.finfo(float).eps * np.max(np.abs(vals)),
                2.0 * (upper[_DIP_POINTS // 4 - 1] + upper[_DIP_POINTS // 4]))
    poly = coeffs[np.flatnonzero(sizes >= min(noise, sizes.max()))[-1]::-1]
    roots = np.roots(poly)
    zeros = _cluster_roots(roots[np.abs(roots) < 1.0], poly)
    try:
        turns, _ = _round_turns(vals)
    except _COUNT_REFUSALS:
        turns = None
    return zeros, turns == sum(m for _, m in zeros) >= 1


def line_zeros(fn, re: float, im_lo: float, im_hi: float, *,
               samples: int = 2048) -> list[ZeroReport]:
    """Zeros of fn near the vertical line Re(s) = re, Im(s) in [lo, hi].

    fn must be holomorphic near the line, as every census function is.
    The scan samples the line at samples points, at least 3, and flags
    local minima of |fn| that dip below a quarter of the largest |fn|
    within 12 samples on either side; the relative test keeps the scan
    honest when the function itself decays by orders of magnitude along
    the line.  Each dip is settled on one Cauchy circle of _DIP_POINTS
    points about it, of radius ten sample steps, at least 0.01 and at most
    0.25 (every pole of the package's census functions lies at least 1/2
    from its line); the circles of all dips take one array call.  The
    trapezoidal rule gives the Taylor coefficients of fn on each (Trefethen
    and Weideman, SIAM Rev. 2014), whose roots inside the circle locate
    its zeros with their multiplicities, and the argument principle on the
    same samples counts them (Austin, Kravanja and Trefethen, SIAM J.
    Numer. Anal. 2014; _dip_circle_zeros).  A circle whose count is not
    the total multiplicity of its roots, or is 0, is tried once more at a
    quarter of the radius, all such in one more array call; one on which
    fn raises PoleError or DomainError is not counted (_dip_circles).

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
    scan = _elementwise(fn)
    ts = np.linspace(im_lo, im_hi, samples)
    spacing = (im_hi - im_lo) / (samples - 1)
    points = re + 1j * ts
    vals = scan(points)
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
        rows = _dip_circles(scan, points[[dips[k] for k in todo]], r)
        for k, row in zip(todo, rows):
            circles[k] = (*_dip_circle_zeros(row), r)
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
            location=z, multiplicity=mult, method="Winding+Bisection",
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
