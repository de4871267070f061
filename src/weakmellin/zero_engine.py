"""Zero location and certification for local factors and strip functions.

Three independent mechanisms feed a common report format:

* companion-matrix roots of the finite-place numerator polynomials,
  folded into one vertical period of the zero lattice;
* a sign-change certificate on the unit circle for self-inversive
  numerators, counting circle zeros without any eigenvalue work;
* argument-principle winding counts around rectangles, used both as a
  standalone counter and as the certificate behind vertical-line scans.

A report is marked certified only when the located zero passes a small
residual test and an independent mechanism confirms the count inside a
tight disk around it.  Anything that fails stays in the output with
certified=False rather than being dropped.

The function fn handed to winding_count and line_zeros is called on a 1-D
complex ndarray of points and must be elementwise: it returns an array of
the same shape holding its value at each point.  line_zeros evaluates its
whole scan grid in one call, winding_count each doubling round's fresh
points in one call, and a Newton step its four difference points in one
call and its new iterate in another, so the points are exactly those a
per-point loop would visit.  A scalar callable still works: if the first
call raises TypeError or ValueError or returns another shape, fn is called
once per point from then on.  GlobalFactorization.evaluate, zeta_real,
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
    UncertifiedError,
)
from .padic_zeta import LocalFactor

_METHODS = ("CompanionRoots", "SignChange", "Winding+Bisection")

# residual gate for certification, relative to the natural local scale
_CERT_RESIDUAL = 1e-8
# matching radius between a located zero and its independent confirmation
_CERT_RADIUS = 1e-6


@dataclass(frozen=True)
class ZeroReport:
    """One located zero with its provenance.

    location is a point in the s plane.  residual is dimensionless:
    the function value at the location divided by the relevant scale
    (max polynomial coefficient, or the largest boundary value of the
    certifying contour).  certified means the residual passed the
    1e-8 gate and an independent count confirmed the zero.
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


def unit_circle_certificate(factor: LocalFactor, samples: int = 4096):
    """Count circle zeros of the numerator by sign changes and bracket them.

    Returns (count, angles) with the angles refined by bisection to
    machine accuracy.  Needs a self-inversive numerator (every unramified
    and ramified one is); D = 0 gives (0, []).
    """
    coeffs, _, degree = factor.zero_poly()
    if degree < 1:
        return 0, []
    h = _circle_profile(coeffs, degree)
    if h is None:
        raise DomainError(
            "circle certificate needs a self-inversive numerator"
        )
    two_pi = 2.0 * math.pi
    phis = two_pi * np.arange(samples + 1) / samples
    vals = h(phis[:samples])
    # close the loop; odd degree profiles are antiperiodic
    vals = np.append(vals, vals[0] if degree % 2 == 0 else -vals[0])
    on_grid = vals[:samples] == 0.0
    lo = np.flatnonzero(~on_grid & (vals[:samples] * vals[1:] < 0.0))
    # bisect every bracket at once; an exact zero collapses its bracket
    a, b, fa = phis[lo], phis[lo + 1], vals[lo]
    for _ in range(60):
        mid = 0.5 * (a + b)
        fm = h(mid)
        exact = fm == 0.0
        left = fa * fm < 0.0
        b = np.where(exact | left, mid, b)
        a = np.where(exact | ~left, mid, a)
        fa = np.where(left, fa, fm)
    angles = np.concatenate([phis[np.flatnonzero(on_grid)], 0.5 * (a + b)])
    angles = sorted(float(x) for x in angles)
    return len(angles), angles


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


def _cluster_roots(roots, tol=1e-8):
    """Greedy clustering; returns (mean, size) pairs."""
    out = []
    for r in sorted(roots, key=lambda z: (z.real, z.imag)):
        for i, (mean, size) in enumerate(out):
            if abs(r - mean) <= tol:
                out[i] = ((mean * size + r) / (size + 1), size + 1)
                break
        else:
            out.append((r, 1))
    return out


def _poly_winding_count(coeffs, center: complex, half_width: float) -> int:
    rect = (
        center.real - half_width,
        center.real + half_width,
        center.imag - half_width,
        center.imag + half_width,
    )
    return winding_count(partial(np.polyval, coeffs), rect)


def exp_poly_roots(factor: LocalFactor) -> list[ZeroReport]:
    """All zeros of a finite-place factor in one fundamental vertical strip.

    The numerator polynomial in X = q^(s - n/2) is solved by the
    companion matrix, each root is pulled back to s and folded into
    0 <= Im(s) < 2 pi / ln q (after the twist shift), and the result is
    certified against an independent count: the circle sign-change
    certificate for self-inversive numerators, a tight winding count in
    the X plane otherwise.  A factor that vanishes identically has no
    isolated zeros and gives [].
    """
    coeffs, _, D = factor.zero_poly()
    if D < 1:
        return []
    p = factor.p
    log_p = math.log(p)
    period = 2.0 * math.pi / log_p
    shift = cmath.phase(complex(factor.twist)) / log_p
    coeff_scale = float(np.max(np.abs(coeffs)))

    roots = np.roots(coeffs)
    clustered = _cluster_roots([complex(r) for r in roots])

    on_circle = _circle_profile(coeffs, D) is not None
    if on_circle:
        count, angles = unit_circle_certificate(factor)
        count_ok = count == D

    reports = []
    for x_root, mult in clustered:
        resid = abs(complex(np.polyval(coeffs, x_root))) / coeff_scale
        s_val = factor.n_dim / 2.0 + cmath.log(x_root) / log_p
        s_loc = complex(s_val.real, _fold_imag(s_val.imag + shift, period))

        if on_circle:
            # independent confirmation: a certificate angle within the
            # matching disk, measured in s units
            phi = cmath.phase(x_root) % (2.0 * math.pi)
            matched = any(
                min(abs(phi - ang), 2.0 * math.pi - abs(phi - ang)) / log_p
                <= _CERT_RADIUS
                for ang in angles
            )
            confirmed = count_ok and matched and abs(abs(x_root) - 1.0) <= 1e-8
        else:
            try:
                w = _poly_winding_count(coeffs, x_root, _CERT_RADIUS)
                confirmed = w == mult
            except (
                BoundaryZeroError,
                NonIntegerWindingError,
                ConvergenceError,
            ):
                confirmed = False

        reports.append(
            ZeroReport(
                location=s_loc,
                multiplicity=mult,
                method="CompanionRoots",
                certified=bool(confirmed and resid <= 1e-10),
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
    """Zeros from the sign-change certificate alone, no eigenvalues.

    Locations come from the bisected bracket angles; the residual is the
    numerator value at the located point over the coefficient scale.
    """
    coeffs, _, D = factor.zero_poly()
    if D < 1:
        return []
    p = factor.p
    log_p = math.log(p)
    period = 2.0 * math.pi / log_p
    shift = cmath.phase(complex(factor.twist)) / log_p
    coeff_scale = float(np.max(np.abs(coeffs)))
    count, angles = unit_circle_certificate(factor)
    reports = []
    for ang in angles:
        x = cmath.exp(1j * ang)
        resid = abs(complex(np.polyval(coeffs, x))) / coeff_scale
        s_loc = complex(
            factor.n_dim / 2.0, _fold_imag(ang / log_p + shift, period)
        )
        reports.append(
            ZeroReport(
                location=s_loc,
                multiplicity=1,
                method="SignChange",
                certified=bool(count == D and resid <= _CERT_RESIDUAL),
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


def _boundary_points(rect, n: int) -> np.ndarray:
    """n // 4 points on each edge, counterclockwise from the lower left
    corner: corner a to corner b at a + (b - a) (j / (n // 4))."""
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


def winding_count(fn, rect, poles=(), start_samples: int = 64,
                  max_samples: int = 131072) -> int:
    """Zeros minus unlisted poles inside a rectangle, by argument count.

    rect is (re_lo, re_hi, im_lo, im_hi).  Known poles inside the
    rectangle may be passed in poles; their (simple) winding is added
    back so the return value is the zero count.  A listed pole close to
    the boundary is refused outright.  Sampling starts at start_samples
    (rounded down to a multiple of 4, at least 64) around the contour
    and doubles until every consecutive argument step is below pi/4.
    The samples of one round are kept when n doubles: they are exactly
    the even-numbered points of the next round, so fn runs once per
    distinct contour point.
    """
    re_lo, re_hi, im_lo, im_hi = rect
    if not (re_lo < re_hi and im_lo < im_hi):
        raise DomainError("winding rectangle must have positive extent")
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
    n = 4 * max(16, start_samples // 4)  # a multiple of 4, so rounds nest
    arr = fn(_boundary_points(rect, n))
    while True:
        if np.any(arr == 0.0):
            raise BoundaryZeroError("exact zero on the winding contour")
        ratios = np.roll(arr, -1) / arr
        steps = np.angle(ratios)
        if float(np.max(np.abs(steps))) < math.pi / 4.0:
            _check_boundary_clear(arr)
            return _integer_winding(float(np.sum(steps))) + inside
        n *= 2
        if n > max_samples:
            raise ConvergenceError(
                "winding phase did not settle; a zero or pole is too close "
                "to the contour for the sample budget"
            )
        doubled = np.empty(n, dtype=complex)
        doubled[0::2] = arr
        doubled[1::2] = fn(_boundary_points(rect, n)[1::2])
        arr = doubled


# ---------------------------------------------------------------------------
# vertical-line scan with Newton polish and winding certification


def _at(fn, *zs) -> list[complex]:
    """Values of an elementwise fn at the points zs, from one call."""
    return [complex(v) for v in fn(np.array(zs, dtype=complex))]


def _newton_polish(fn, z0: complex, scale: float, max_iter: int = 60):
    """Two-dimensional Newton with finite-difference Jacobian.

    fn is elementwise (see _elementwise); each iteration calls it twice,
    on the four difference points and on the new iterate.  Returns (z,
    relative_residual, converged).  The residual is |fn(z)| over the
    supplied local scale, so a flat-out tiny function does not
    self-certify.
    """
    z = z0
    (fz,) = _at(fn, z)
    best_z, best_r = z, abs(fz) / scale
    for _ in range(max_iter):
        h = 1e-7 * max(1.0, abs(z))
        fxp, fxm, fyp, fym = _at(fn, z + h, z - h, z + 1j * h, z - 1j * h)
        dfx = (fxp - fxm) / (2.0 * h)
        dfy = (fyp - fym) / (2.0 * h)
        jac = np.array(
            [[dfx.real, dfy.real], [dfx.imag, dfy.imag]], dtype=float
        )
        rhs = np.array([-fz.real, -fz.imag], dtype=float)
        try:
            delta = np.linalg.solve(jac, rhs)
        except np.linalg.LinAlgError:
            return best_z, best_r, False
        step = complex(delta[0], delta[1])
        # clamp wild steps so a bad Jacobian cannot fling the iterate away
        if abs(step) > 0.5:
            step *= 0.5 / abs(step)
        z = z + step
        (fz,) = _at(fn, z)
        rel = abs(fz) / scale
        if rel < best_r:
            best_z, best_r = z, rel
        if rel <= 1e-12 or abs(step) <= 1e-14 * max(1.0, abs(z)):
            return best_z, best_r, best_r <= 1e-10
    return best_z, best_r, best_r <= 1e-10


def line_zeros(fn, re: float, im_lo: float, im_hi: float, *,
               samples: int = 2048, poles=(), dip_ratio: float = 0.25,
               window: int = 12, cert_half_width: float = 2e-3,
               strict: bool = False) -> list[ZeroReport]:
    """Zeros of fn near the vertical line Re(s) = re, Im(s) in [lo, hi].

    The scan flags local minima of |fn| that dip below dip_ratio times
    the surrounding window maximum; the relative test keeps the scan
    honest when the function itself decays by orders of magnitude along
    the line.  Each candidate is polished by Newton in both coordinates
    and certified by a winding count on a small square around the
    polished point.  Failed polish or certification is reported with
    certified=False; a polish that runs away from its dip counts as
    failed and the raw sample point is reported instead.  With
    strict=True any uncertified candidate raises UncertifiedError.
    Reports are sorted by Im(s).

    Certification is per zero, not per scan: a pair closer together
    than the sample step shows up as one report.  Callers wanting a
    completeness guarantee should compare the total against an
    independent winding count over the whole rectangle.
    """
    if im_hi <= im_lo:
        raise DomainError("empty scan range")
    fn = _elementwise(fn)
    ts = np.linspace(im_lo, im_hi, samples)
    mags = np.abs(fn(re + 1j * ts))

    candidates = []
    inner = mags[1:-1]
    for i in np.flatnonzero((inner <= mags[:-2]) & (inner <= mags[2:])) + 1:
        lo_w = max(0, i - window)
        hi_w = min(samples, i + window + 1)
        local_scale = float(np.max(mags[lo_w:hi_w]))
        if local_scale == 0.0:
            raise BoundaryZeroError("scan window is identically zero")
        if mags[i] < dip_ratio * local_scale:
            candidates.append((complex(re, float(ts[i])), local_scale))

    spacing = (im_hi - im_lo) / (samples - 1)
    wander_cap = max(10.0 * spacing, 5.0 * cert_half_width)
    reports = []
    for z0, scale in candidates:
        z, resid, converged = _newton_polish(fn, z0, scale)
        if abs(z - z0) > wander_cap:
            # Newton escaped the dip's neighbourhood; whatever it found
            # out there is not this dip's zero
            z = z0
            resid = abs(_at(fn, z0)[0]) / scale
            converged = False
        if any(abs(z - r.location) < _CERT_RADIUS for r in reports):
            continue  # same zero seen from a neighbouring dip
        mult = 1
        confirmed = False
        if converged:
            # shrinking shells separate a genuine multiple zero (count
            # stays put) from a distinct neighbour (count drops to 1)
            for hw in (cert_half_width, cert_half_width / 10.0,
                       cert_half_width / 100.0):
                rect = (
                    z.real - hw, z.real + hw, z.imag - hw, z.imag + hw,
                )
                try:
                    count = winding_count(fn, rect, poles=poles)
                except (
                    BoundaryZeroError,
                    NonIntegerWindingError,
                    ConvergenceError,
                ):
                    continue
                if count >= 1:
                    mult = count
                    confirmed = True
                else:
                    confirmed = False
        certified = bool(converged and confirmed and resid <= _CERT_RESIDUAL)
        if strict and not certified:
            raise UncertifiedError(
                f"zero near {z} failed certification (residual {resid:.2e})"
            )
        reports.append(
            ZeroReport(
                location=z,
                multiplicity=mult,
                method="Winding+Bisection",
                certified=certified,
                residual=resid,
            )
        )
    return _sorted_reports(reports)
