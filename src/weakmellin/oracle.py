"""Brute-force reference transforms.

Nothing in here knows the closed forms.  Both p-adic oracles sum exact
level averages against p^(-js) through one level walk, which attaches an
analytic geometric tail where the averages provably stabilize.  Its
window reaches `max_window` levels beyond two anchors read off v(a) and
v(b), not off the builders' escape formula: above, the level where both
coefficients turn integral; below, the lower of the cancellation level
v(b) - v(a) and the level where a y^2 turns integral.  The walk does not
depend on s: the levels it visits, their exact averages and the first
level of the tail form a profile, computed once per exact input and kept
in a cache of at most 256 inputs per oracle (a refusal is not kept);
s and the twist only weight its terms.  The real, sign, radial and
hermitian oracles all compute one folded real-line integral (the
hermitian one through r = y / sqrt(2)).  It is first rotated onto
the steepest-descent contour, where the quadratic phase becomes a
Gaussian, and summed by the trapezoidal rule in log radius (the square
phase at b = 0 takes a Hankel contour instead).  Each contour value
carries its own check and is refused, never guessed, when the check
fails; a refused point falls back to damped numerical quadrature with
Richardson extrapolation.  The result records which route answered.
Tests compare these against the closed-form modules; the two sides share
only the exact primitives and the input rules: each archimedean oracle
runs its shape's check from arch_zeta (finite coefficients, a nonzero or
positive a, n >= 1 and a non-negative norm), and every oracle refuses a
non-finite s, but no numerics cross over.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache, partial

import numpy as np
from scipy import special

from .arch_zeta import _check_hermitian, _check_radial, _check_real, _check_square
from .errors import DegenerateError, DomainError, QuadratureError, SupportEscapeError
from .padic_core import (
    UnitCharacter,
    _rational,
    _require_prime,
    theta_additive,
    unit_average,
    unit_coset_level,
    valuation,
)
from .specfun import _point

__all__ = [
    "oracle_padic_mellin",
    "oracle_padic_vector",
    "oracle_real_mellin",
    "oracle_real_sign_mellin",
    "oracle_hermitian_mellin",
    "oracle_radial_mellin",
    "oracle_complex_square_mellin",
]


# p-adic oracles: a level average within _ZERO_TOL of its stable value
# counts as stable, and _STABLE_RUN such levels in a row end a walk
_ZERO_TOL = 1e-14
_STABLE_RUN = 3


def _anchors(a: Fraction, b: Fraction, p: int) -> tuple[int, int, int | None]:
    """(top, bottom, floor) of the phase a y^2/2 + b y: top is the first
    level >= 0 where both coefficients are integral, floor the
    cancellation level v(b) - v(a) (None for b = 0), and bottom the lower
    of floor and the level where a y^2 turns integral."""
    va = int(valuation(a, p))
    quad = -(va // 2)
    if b == 0:
        return max(0, quad), quad, None
    vb = int(valuation(b, p))
    return max(0, quad, -vb), min(quad, vb - va), vb - va


def _power(p: int, j: int) -> int | Fraction:
    """p^j as an exact rational, an int for j >= 0 (cheaper than a
    Fraction power)."""
    return p**j if j >= 0 else Fraction(1, p**-j)


def _level_profile(term, stable, top, bottom, floor, max_window,
                   vanishes=None, need_run=_STABLE_RUN):
    """The levels of sum_j term(j) x^j that are summed term by term, and
    the first level of its geometric tail; neither depends on x.

    term(j) is `stable` from some level on and vanishes deep below, and is
    computed at most once a call.  The scan climbs from `top` until
    _STABLE_RUN levels in a row sit within _ZERO_TOL of `stable`, then walks
    back to the first stable level j_hi (moot for a stable value of 0),
    where the tail stable x^j / (1 - x) starts.  The walk then records each
    level below until `need_run` levels in a row count as zero below
    `floor` (None: no floor).  A level counts as zero where `vanishes(j)`
    proves it (its term is then neither computed nor recorded; a computed
    term never counts) or, without that rule, where its bare term is
    within _ZERO_TOL of 0.  That term is still recorded, as it can carry
    weight |x^j| >> 1; weighting the test instead would let tail rounding
    grow without bound.  Returns (j_hi, ((j, term(j)), ...)) in walk order.
    Raises SupportEscapeError past top + max_window or below
    bottom - max_window.
    """
    term = cache(term)
    j_hi, run = top, 0
    while run < _STABLE_RUN:
        if j_hi > top + max_window:
            raise SupportEscapeError("no upper stabilization in window")
        run = run + 1 if abs(term(j_hi) - stable) <= _ZERO_TOL else 0
        j_hi += 1
    if stable:
        while (j_hi > bottom - max_window
               and abs(term(j_hi - 1) - stable) <= _ZERO_TOL):
            j_hi -= 1
    levels = []
    j, run = j_hi, 0
    while run < need_run or (floor is not None and j >= floor):
        j -= 1
        if j < bottom - max_window:
            raise SupportEscapeError("no lower support escape in window")
        if vanishes is not None and vanishes(j):
            run += 1
            continue
        v = term(j)
        levels.append((j, v))
        run = run + 1 if vanishes is None and abs(v) <= _ZERO_TOL else 0
    return j_hi, tuple(levels)


def _level_sum(profile, stable, x) -> complex:
    """sum_j term(j) x^j from a `_level_profile`: the geometric tail from
    its first stable level, then each recorded level in walk order."""
    j_hi, levels = profile
    total = 0j
    if stable:
        total += stable * x**j_hi / (1.0 - x)
    for j, v in levels:
        total += v * x**j
    return total


def _require_point(s: complex) -> None:
    _point(s, "oracle")
    if not s.real > 0:
        raise DomainError(f"oracle needs Re(s) > 0 for the upper tail, got {s}")


def _mellin_stable(chi: UnitCharacter | None) -> float:
    return 0.0 if chi is not None and not chi.is_trivial else 1.0


@lru_cache(maxsize=256)
def _mellin_profile(a: Fraction, b: Fraction, p: int,
                    chi: UnitCharacter | None, max_window: int):
    """The level profile of the unit averages of oracle_padic_mellin."""
    n_chi = 0 if chi is None else chi.conductor_exponent
    va = int(valuation(a, p))
    vb = int(valuation(b, p)) if b != 0 else None
    top, bottom, floor = _anchors(a, b, p)

    def vanishes(j: int) -> bool:
        # every coset fails the linear-part indicator at the minimal coset
        # level: the average is exactly zero, no summation needed.  At the
        # cancellation level the two parts can cancel, so it is computed.
        if j == floor:
            return False
        v = va + 2 * j if vb is None else min(va + 2 * j, vb + j)
        return v < -unit_coset_level(a, p, _power(p, j), n_chi, margin=0)

    # the ramified builder sums at margin 0, so a ramified oracle sums at
    # margin 1, over other residues; the unramified builder runs no sum,
    # and margin 1 would only visit p times as many residues
    margin = 1 if chi is not None and not chi.is_trivial else 0

    # without a cancellation floor the only gap risk is a ramified b = 0
    # window, at most conductor wide; pad the required zero run to cover it
    return _level_profile(
        lambda j: unit_average(a, b, p, _power(p, j), chi=chi, margin=margin),
        _mellin_stable(chi),
        top, bottom, floor, max_window, vanishes,
        _STABLE_RUN if floor is not None else _STABLE_RUN + n_chi + 2,
    )


def oracle_padic_mellin(
    a,
    b,
    p: int,
    s: complex,
    chi: UnitCharacter | None = None,
    twist: complex = 1.0,
    max_window: int = 64,
) -> complex:
    """Direct sum of unit averages against (twist p^(-s))^j, geometric tail
    attached, for Re(s) > 0, where that tail converges.  Raises
    SupportEscapeError if the profile neither stabilizes within
    max_window levels above the level where both coefficients turn
    integral nor dies within max_window levels below the lower of
    v(b) - v(a) and the level where a y^2 turns integral; DegenerateError
    for a = 0; DomainError for a p that is not a prime, a non-finite a or
    b, a character of another prime, or an s that is not finite with
    Re(s) > 0.  The level profile is computed once per
    (a, b, p, chi, max_window) and cached; s and twist only weight its
    terms.
    """
    s = complex(s)
    _require_point(s)
    _require_prime(p)
    a, b = _rational(a), _rational(b)
    if a == 0:
        raise DegenerateError("quadratic coefficient must be nonzero")
    if chi is not None and chi.p != p:
        raise DomainError(f"character of p = {chi.p} at p = {p}")
    return _level_sum(
        _mellin_profile(a, b, p, chi, max_window),
        _mellin_stable(chi),
        complex(twist) * p ** (-s),
    )


@lru_cache(maxsize=256)
def _vector_profile(configs: tuple, p: int, max_window: int):
    """The level profile of the shell averages of oracle_padic_vector."""
    n = len(configs)

    @cache  # each product serves two shell averages
    def theta_prod(j: int) -> complex:
        out, y = 1.0 + 0.0j, _power(p, j)
        for ai, bi in configs:
            # margin 0: the vector builder runs no residue sum at all
            out *= theta_additive(ai, bi, p, y, margin=0)
        return out

    anchors = [_anchors(ai, bi, p) for ai, bi in configs]
    # a middle gap of zeros can be wide; only below every component's
    # cancellation level is a run of zeros conclusive
    floors = [floor for _, _, floor in anchors if floor is not None]
    return _level_profile(
        lambda j: theta_prod(j) - theta_prod(j + 1) / p**n,
        1.0 - 1.0 / p**n,
        max(top for top, _, _ in anchors),
        min(bottom for _, bottom, _ in anchors),
        min(floors) if floors else None,
        max_window,
    )


def oracle_padic_vector(
    configs,
    p: int,
    s: complex,
    max_window: int = 64,
) -> complex:
    """Reference for the diagonal-scaling factor on a product space.

    Sums the difference lambda(y) = theta(y) - p^(-n) theta(py), the
    n-dimensional shell average, which is exactly zero deep in both tails,
    through the level walk of oracle_padic_mellin.  Its window is counted
    from the highest top and the lowest bottom anchor of the components.
    Raises DegenerateError for an empty configuration or a component with
    a = 0, and DomainError as oracle_padic_mellin does.  The level profile
    is cached per (configs, p, max_window); s only weights its terms.
    """
    s = complex(s)
    _require_point(s)
    _require_prime(p)
    configs = tuple((_rational(a), _rational(b)) for a, b in configs)
    n = len(configs)
    if n == 0:
        raise DegenerateError("empty configuration")
    if any(a == 0 for a, _ in configs):
        raise DegenerateError("quadratic coefficient must be nonzero")
    total = _level_sum(
        _vector_profile(configs, p, max_window), 1.0 - 1.0 / p**n, p ** (-s)
    )
    return total / (1.0 - 1.0 / p)


# ---------------------------------------------------------------------------
# Archimedean quadrature.  Every oscillatory transform is first tried on a
# contour where its phase stops oscillating.  For a > 0 the ray
# y = t e^(-i pi/4) turns exp(-pi i a y^2) into the Gaussian exp(-pi a t^2)
# (a < 0 takes the conjugate ray).  The hermitian radial integral of
# exp(-2 pi i a r^2) J_n(4 pi |b| r) r^(2s-1) dr is, with r = y / sqrt(2),
# 2^(-s) times the real-line integral at (a, sqrt(2) |b|, 2s) with the fold
# J_n, so it rides the same ray and damped ladder.  The rotated integrand
# decays at both ends of u = log t and is analytic in a strip about the
# real u-axis, so the trapezoidal rule in u converges exponentially
# (Trefethen and Weideman, "The exponentially convergent trapezoidal rule",
# SIAM Review 2014).  The sum is taken at step h and at h/2 on nested
# nodes; the point is refused unless
# max(|T_h - T_{h/2}|, 1e-15 L1) <= 1e-12 |value|, where the L1 mass
# measures the cancellation the rotation costs (it grows like
# exp(pi |Im s| / 4)).  The square phase at b = 0 goes through x = r^2
# instead: the segment (0, 1) stays on the real axis, and beyond x = 1 the
# Bessel kernel splits into its Hankel halves, which decay up and down the
# vertical rays from x = 1; a doubled-order Gauss-Legendre pass checks it
# under the same rule.  No contour route touches 1F1.
#
# A refused point goes to the damped route, which computes the transform as
# the limit of Gaussian-damped integrals: multiply the integrand by a
# damping envelope exp(-c*eps*x^2), integrate over a truncated range with
# Gauss-Legendre panels sized to a fixed phase budget, and remove the
# damping by Richardson extrapolation over a halving eps ladder.  Every
# panel pass is repeated at doubled order and the two totals must agree.
#
# The one transform where direct damping fails (the complex square phase
# with a linear term, whose radial decay degenerates along the light-cone
# angles) is evaluated instead through a Gaussian-parameter representation:
# writing |z|^(2s-2) as an integral of exp(-t|z|^2) turns the plane
# integral into a single smooth t-integral of elementary functions.  That
# route shares no series or special-function machinery with the closed
# forms it is checked against.
# ---------------------------------------------------------------------------


# Damped and Gaussian-parameter routes.  _EPS_SCHEDULE is the damping
# ladder, each entry half the previous; the reported value is the second
# order Richardson limit.  _TAIL_LOG sets the truncation radius through
# envelope(cut) = exp(-_TAIL_LOG), and _X_MIN is the lower end of the
# panels.  _MAX_PHASE is the phase budget per panel in radians;
# _PANEL_ORDER Gauss-Legendre nodes resolve that budget to far below
# _ORDER_TOL, and the doubled-order repeat has to agree to _ORDER_TOL.
_EPS_SCHEDULE = (1e-3, 5e-4, 2.5e-4)
_X_MIN = 1e-120
_TAIL_LOG = 27.6
_PANEL_ORDER = 20
_MAX_PHASE = 8.0
_ORDER_TOL = 1e-8

_MAX_PANELS = 200_000

# Contour routes.  The trapezoidal step in u = log(tau), tau the radius in
# units where the Gaussian is exp(-tau^2); the check reruns at half of it.
_CONTOUR_STEP = 1.0 / 16.0
# u range: at the low end tau^0.15 < 2e-17, below every strip's lower edge
# (the integrands fall at least like tau^Re(s) there); at the high end
# exp(-tau^2) < 1e-64.
_CONTOUR_U = (-260.0, 2.5)
# the h/2 grid; its step count is even, so both ends lie on the h grid too
_CONTOUR_NODES = np.linspace(
    *_CONTOUR_U, round((_CONTOUR_U[1] - _CONTOUR_U[0]) / (0.5 * _CONTOUR_STEP)) + 1
)
_CONTOUR_TOL = 1e-12
_CONTOUR_FLOOR = 1e-15
# square phase: Gauss-Legendre order and phase budget of the contour
# panels (the check reruns at twice the order), and the length of the
# vertical rays in units of 1/c, where the Hankel halves are down to e^-50
_HANKEL_ORDER = 20
_HANKEL_PHASE = 4.0
_HANKEL_RAY = 50.0

# e^(-i pi/4), the direction of the steepest-descent ray for a > 0
_EIGHTH = cmath.exp(-0.25j * math.pi)


@dataclass(frozen=True)
class ArchOracleResult:
    """Oracle value with its error estimate and the route that produced it.

    route is "rotated" (trapezoidal rule on the steepest-descent ray),
    "hankel" (square phase on the Hankel contour), "damped" (eps ladder),
    "schwinger" (Gaussian-parameter integral) or "exact" (zero by
    symmetry).  ratio is |r(eps) - r(eps/2)| / |r(eps/2) - r(eps/4)|; a
    clean linear eps-dependence gives ratio close to 2.  Routes with no
    damping ladder report ratio = inf and an empty eps_values."""

    value: complex
    err_est: float
    ratio: float
    eps_values: tuple
    route: str

    def __complex__(self):
        return complex(self.value)


@cache
def _gl_rule(order):
    return np.polynomial.legendre.leggauss(order)


def _panel_edges(lo, split, hi, rate, max_phase):
    """Geometric doubling panels on (lo, split), then oscillation-limited
    panels on (split, hi) with at most max_phase radians of accumulated
    phase each.  rate(x) bounds the local phase derivative."""

    edges = [lo]
    x = lo
    while x < split:
        x = min(x * 2.0, split)
        edges.append(x)
    while x < hi:
        dx = max_phase / rate(x)
        dx = max_phase / rate(min(x + 0.5 * dx, hi))
        x = min(x + dx, hi)
        edges.append(x)
        if len(edges) > _MAX_PANELS:
            raise QuadratureError("panel subdivision did not terminate")
    return np.asarray(edges)


def _integrate_panels(fn, edges, order):
    """Gauss-Legendre total over the panel list plus the L1 mass used to
    put the error checks on an absolute footing."""

    t, w = _gl_rule(order)
    mids = 0.5 * (edges[1:] + edges[:-1])
    halfs = 0.5 * (edges[1:] - edges[:-1])
    xs = (mids[:, None] + halfs[:, None] * t[None, :]).ravel()
    ws = (halfs[:, None] * w[None, :]).ravel()
    vals = fn(xs)
    return np.dot(ws, vals), float(np.dot(ws, np.abs(vals)))


def _gl_pair(fn, edges, order):
    """The doubled-order total, its distance from the single-order total,
    and the L1 mass."""

    v1, l1 = _integrate_panels(fn, edges, order)
    v2, _ = _integrate_panels(fn, edges, 2 * order)
    return v2, abs(v1 - v2), l1


def _checked_integral(fn, edges):
    v2, err, l1 = _gl_pair(fn, edges, _PANEL_ORDER)
    if not err <= _ORDER_TOL * max(abs(v2), 1e-6 * l1, 1e-300):  # also refuses NaN
        raise QuadratureError(
            f"doubled-order totals disagree by {err:.3e} "
            f"(value {abs(v2):.3e}, L1 mass {l1:.3e})"
        )
    return v2, err


def _log_trapezoid(g):
    """Trapezoidal sums of g(u) over _CONTOUR_U at step h and at h/2 on the
    nested nodes: the h/2 sum, its checked difference and the L1 mass.

    g must decay at both ends of the range; the mass beyond either end is
    bounded by ten end samples (the decay is at least e^(0.1 u) at the low
    end and Gaussian at the high end) and enters the difference.  Overflow
    and NaN are not trapped here: they make the check refuse the point."""

    with np.errstate(all="ignore"):
        vals = g(_CONTOUR_NODES)
        fine = 0.5 * _CONTOUR_STEP * vals.sum()
        coarse = _CONTOUR_STEP * vals[::2].sum()
        l1 = 0.5 * _CONTOUR_STEP * float(np.abs(vals).sum())
        diff = max(abs(fine - coarse), 10.0 * (abs(vals[0]) + abs(vals[-1])))
    return complex(fine), float(diff), l1


def _contour_result(value, diff, l1, pref, route):
    """A contour value times pref, or None when the check refuses it:
    max(diff, 1e-15 L1) must be at most 1e-12 |value|."""

    err = max(diff, _CONTOUR_FLOOR * l1)
    if not err <= _CONTOUR_TOL * abs(value):  # also refuses NaN
        return None
    return ArchOracleResult(pref * value, abs(pref) * err, math.inf, (), route)


def _damped_limit(build):
    """Runs the eps ladder and Richardson-extrapolates to eps = 0.

    build(eps) returns (edges, integrand); the integrand must include the
    damping envelope for that eps."""

    vals = []
    worst = 0.0
    for eps in _EPS_SCHEDULE:
        edges, fn = build(eps)
        v, err = _checked_integral(fn, edges)
        vals.append(v)
        worst = max(worst, err)
    r1, r2, r3 = vals
    first_a = 2.0 * r2 - r1
    first_b = 2.0 * r3 - r2
    value = (4.0 * first_b - first_a) / 3.0
    d1, d2 = abs(r1 - r2), abs(r2 - r3)
    ratio = d1 / d2 if d2 > 0.0 else math.inf
    err_est = abs(first_b - first_a) / 3.0 + worst
    return ArchOracleResult(value, err_est, ratio, tuple(vals), "damped")


def _scaled(result, c):
    mag = abs(c)
    return ArchOracleResult(
        c * result.value,
        mag * result.err_est,
        result.ratio,
        tuple(c * v for v in result.eps_values),
        result.route,
    )


_EXACT_ZERO = ArchOracleResult(0j, 0.0, math.inf, (), "exact")

# (-i)^n without power-function roundoff
_I_POW = (1 + 0j, -1j, -1 + 0j, 1j)


def _cgamma(z):
    return cmath.exp(complex(special.loggamma(complex(z))))


def _require_strip(s, lo, hi, who):
    _point(s, f"{who} oracle")
    if not lo < s.real < hi:
        raise DomainError(
            f"{who} oracle needs {lo} < Re(s) < {hi}, got {s.real}"
        )


def _fold_even(t):
    """y -> -y fold of the trivial character: 2 cos."""
    return 2.0 * np.cos(t)


def _fold_odd(t):
    """y -> -y fold of the sign character: -2i sin."""
    return -2j * np.sin(t)


def _real_rotated(a, b, s, fold):
    """Contour route for the integral over (0, inf) of
    exp(-pi i a y^2) fold(2 pi b y) y^(s-1) dy.

    On the ray y = omega t, omega = e^(-i pi/4 sign(a)), and in
    tau = sqrt(pi |a|) t it is omega^s (pi |a|)^(-s/2) times the integral
    of tau^s exp(-tau^2) fold(2 pi b omega tau / sqrt(pi |a|)) d(log tau).
    fold must be entire and take complex arrays."""

    c = math.sqrt(math.pi * abs(a))
    omega = _EIGHTH if a > 0 else _EIGHTH.conjugate()
    k = 2.0 * math.pi * b * omega / c

    def g(u):
        tau = np.exp(u)
        return np.exp(s * u - tau * tau) * fold(k * tau)

    pref = cmath.exp(-s * complex(math.log(c), math.copysign(0.25 * math.pi, a)))
    return _contour_result(*_log_trapezoid(g), pref, "rotated")


def _real_damped(a, b, s, fold):
    """Damped-quadrature limit of the integral over (0, inf) of
    exp(-pi i a y^2) fold(2 pi b y) y^(s-1) dy, the transform of
    exp(-pi i a y^2 - 2 pi i b y) on the real line with y -> -y folded in."""

    def build(eps):
        hi = math.sqrt(_TAIL_LOG / (math.pi * eps))
        smooth = abs(s - 1.0) + 1.0

        def rate(y):
            return 2.0 * math.pi * (abs(a) * y + abs(b) + eps * y) + smooth / y

        edges = _panel_edges(_X_MIN, 1.0, hi, rate, _MAX_PHASE)
        q = math.pi * (eps + 1j * a)

        def fn(y):
            return (
                np.exp(-q * y * y)
                * fold(2.0 * math.pi * b * y)
                * np.exp((s - 1.0) * np.log(y))
            )

        return edges, fn

    return _damped_limit(build)


def _real_line_mellin(a, b, s, fold):
    """The folded real-line integral: the contour route, or the damped
    route where the contour route refuses the point.  Each public oracle
    checks its own strip first; the hermitian one calls this at 2s."""

    return _real_rotated(a, b, s, fold) or _real_damped(a, b, s, fold)


def oracle_real_mellin(a, b, s):
    """Multiplicative transform of exp(-pi i a y^2 - 2 pi i b y) on the
    real line against the trivial sign character.

    Folding y -> -y gives 2 * integral over (0, inf) of
    exp(-pi i a y^2) cos(2 pi b y) y^(s-1) dy, which is computed on the
    steepest-descent ray, or by the damped-quadrature limit where the ray
    refuses the point.  Only the closed forms know anything about
    confluent hypergeometric functions; neither route touches them."""

    a, b, s = float(a), float(b), complex(s)
    _check_real(a, b)
    _require_strip(s, 0.15, 2.5, "real")
    return _real_line_mellin(a, b, s, _fold_even)


def oracle_real_sign_mellin(a, b, s):
    """Same transform as oracle_real_mellin but against the sign
    character, so the fold produces -2i sin(2 pi b y) in place of the
    cosine.  Identically zero when b = 0."""

    a, b, s = float(a), float(b), complex(s)
    _check_real(a, b)
    _require_strip(s, 0.15, 2.5, "real sign")
    if b == 0.0:
        return _EXACT_ZERO
    return _real_line_mellin(a, b, s, _fold_odd)


def _hermitian_pref(b, n):
    """4 pi (-i)^n e^(i n arg b), the angular factor of the hermitian
    transform."""

    phi = cmath.phase(b) if b != 0 else 0.0
    return 4.0 * math.pi * _I_POW[n % 4] * cmath.exp(1j * n * phi)


def _hermitian_line(line, a, b, n, s):
    """The hermitian transform from a real-line route, through
    r = y / sqrt(2).  The damped envelope exp(-pi eps y^2) is then the
    r-integral's own exp(-2 pi eps r^2), ladder and cut-off included."""

    fold = partial(special.jv, n)
    pref = _hermitian_pref(b, n) * 2.0 ** (-s)
    return _scaled(line(a, math.sqrt(2.0) * abs(b), 2.0 * s, fold), pref)


def _hermitian_damped(a, b, n, s):
    """Damped-quadrature limit of the hermitian transform."""

    return _hermitian_line(_real_damped, a, b, n, s)


def oracle_hermitian_mellin(a, b, n, s):
    """Transform of the hermitian phase exp(-2 pi i a |z|^2) twisted by
    the linear term and the angular character (z/|z|)^n.

    The angular integral is a Bessel function, leaving
    4 pi (-i)^n e^(i n arg b) * integral of
    exp(-2 pi i a r^2) J_n(4 pi |b| r) r^(2s-1) dr, which is the folded
    real-line integral of oracle_real_mellin at (a, sqrt(2) |b|, 2s) with
    the fold J_n, times 2^(-s)."""

    a, b, n, s = float(a), complex(b), int(n), complex(s)
    _check_hermitian(a, b)
    _require_strip(s, 0.1, 1.6, "hermitian")
    if b == 0 and n != 0:
        return _EXACT_ZERO
    return _hermitian_line(_real_line_mellin, a, b, n, s)


def _sphere_average(n, w):
    """Average of a plane wave over the unit sphere in n variables, as a
    function of w = |frequency| * radius, real or complex.  Equals 1 at
    w = 0."""

    nu = 0.5 * n - 1.0
    w = np.asarray(w)
    out = np.empty_like(w, dtype=np.result_type(w, 1.0))
    small = np.abs(w) < 1e-6
    ws = w[small]
    out[small] = 1.0 - ws * ws / (2.0 * n)
    wl = w[~small]
    out[~small] = (
        math.gamma(0.5 * n)
        * np.power(0.5 * wl, -nu)
        * special.jv(nu, wl)
    )
    return out


def oracle_radial_mellin(a, bnorm, n, s):
    """Transform of exp(-pi i a |x|^2 - 2 pi i b.x) over n real variables
    against |x|^s, reduced to the radial line.

    The angular average of the linear phase is a normalized Bessel
    kernel, which takes the place of the fold of the real-line transform
    (for n = 1 it is the cosine); the remaining integral carries the
    surface measure 2 pi^(n/2) / Gamma(n/2)."""

    a, bnorm, n, s = float(a), float(bnorm), int(n), complex(s)
    _check_radial(n, a, bnorm)
    _require_strip(s, 0.15, 2.5, "radial")
    pref = 2.0 * math.pi ** (0.5 * n) / math.gamma(0.5 * n)
    fold = partial(_sphere_average, n)
    return _scaled(_real_line_mellin(a, bnorm, s, fold), pref)


def _square_pref(a, m):
    """4 pi (-i)^|m| e^(-i m arg a), the angular factor of the square
    transform at b = 0 and n = 2m."""

    return 4.0 * math.pi * _I_POW[abs(m) % 4] * cmath.exp(-1j * m * cmath.phase(a))


def _square_hankel(a, n, s):
    """Contour route for the b = 0, even n != 0 branch of the complex
    square transform.

    With x = r^2 the radial integral is half the integral over (0, inf)
    of x^(s-1) J_|m|(c x) dx, c = 2 pi |a|, n = 2m.  The segment (0, 1)
    stays on the real axis; beyond x = 1, J = (H1 + H2) / 2 and the
    halves are taken up the ray x = 1 + it and down the ray x = 1 - it,
    where they decay like e^(-ct)."""

    m = n // 2
    order = abs(m)
    c = 2.0 * math.pi * abs(a)
    smooth = abs(s - 1.0) + 1.0
    split = min(1.0, 1.0 / c)
    segment = _panel_edges(
        1e-16 * split, split, 1.0, lambda x: c + smooth / x, _HANKEL_PHASE
    )
    ray = _panel_edges(
        0.0, 0.0, _HANKEL_RAY / c, lambda t: c + smooth / (1.0 + t), _HANKEL_PHASE
    )

    def on_segment(x):
        return np.exp((s - 1.0) * np.log(x)) * special.jv(order, c * x)

    def up(t):
        x = 1.0 + 1j * t
        return 0.5j * np.exp((s - 1.0) * np.log(x)) * special.hankel1(order, c * x)

    def down(t):
        x = 1.0 - 1j * t
        return -0.5j * np.exp((s - 1.0) * np.log(x)) * special.hankel2(order, c * x)

    value, diff, l1 = 0j, 0.0, 0.0
    with np.errstate(all="ignore"):
        for fn, edges in ((on_segment, segment), (up, ray), (down, ray)):
            v, d, l = _gl_pair(fn, edges, _HANKEL_ORDER)
            value, diff, l1 = value + v, diff + d, l1 + l
    return _contour_result(complex(value), diff, l1, 0.5 * _square_pref(a, m), "hankel")


def _square_bessel(a, n, s):
    """b = 0 branch of the complex square transform: the angular integral
    of exp(-2 pi i Re(a z^2)) (z/|z|)^n vanishes for odd n and reduces to
    a Bessel function of order |n|/2 for even n.  Damped route."""

    m = n // 2
    mag = abs(a)

    def build(eps):
        hi = math.sqrt(_TAIL_LOG / (2.0 * math.pi * eps))
        smooth = abs(2.0 * s - 1.0) + 1.0

        def rate(r):
            return 4.0 * math.pi * (mag + eps) * r + smooth / r

        edges = _panel_edges(_X_MIN, 1.0, hi, rate, _MAX_PHASE)

        def fn(r):
            rr = r * r
            return (
                np.exp(-2.0 * math.pi * eps * rr + (2.0 * s - 1.0) * np.log(r))
                * special.jv(abs(m), 2.0 * math.pi * mag * rr)
            )

        return edges, fn

    return _scaled(_damped_limit(build), _square_pref(a, m))


def _square_schwinger(a, b, s):
    """n = 0 branch of the complex square transform through the
    Gaussian-parameter representation.

    Writing the radial weight as an integral of exp(-t |z|^2) and doing
    the now-Gaussian plane integral exactly gives

        2 pi / Gamma(1-s) * integral over t > 0 of
        t^(-s) (t^2 + 4 pi^2 |a|^2)^(-1/2) exp(E(t)) dt,

    E(t) = (-16 pi^2 |b|^2 t + 32 i pi^3 Re(conj(a) b^2)) /
           (4 (t^2 + 4 pi^2 |a|^2)).

    The integrand is smooth and positive-tailed, so no damping ladder is
    needed; the tail beyond the truncation point is added analytically
    from its first two asymptotic orders."""

    mag2 = 4.0 * math.pi**2 * abs(a) ** 2
    bb = abs(b) ** 2
    cross = (a.conjugate() * b * b).real
    lin = 16.0 * math.pi**2 * bb
    const = 32.0 * math.pi**3 * abs(cross)

    t_hi = 1e10
    smooth = abs(s) + 2.0

    def rate(t):
        det = t * t + mag2
        # power-law wiggle plus the derivative bound on the exponent
        return smooth / t + lin / (4.0 * det) + (lin * t + const) * t / (2.0 * det * det)

    edges = _panel_edges(1e-120, 1.0, t_hi, rate, _MAX_PHASE)
    expo_const = 32.0j * math.pi**3 * cross

    def fn(t):
        det = t * t + mag2
        expo = (expo_const - lin * t) / (4.0 * det)
        return np.exp(-s * np.log(t) + expo) / np.sqrt(det)

    value, err = _checked_integral(fn, edges)
    # tail: integrand ~ t^(-s-1) (1 - 4 pi^2 |b|^2 / t + ...)
    tail = t_hi ** (-s) / s - 4.0 * math.pi**2 * bb * t_hi ** (-s - 1.0) / (s + 1.0)
    total = value + tail
    pref = 2.0 * math.pi / _cgamma(1.0 - s)
    return ArchOracleResult(pref * total, abs(pref) * err, math.inf, (), "schwinger")


def oracle_complex_square_mellin(a, b, n, s):
    """Transform of exp(-2 pi i Re(a z^2 + 2 b z)) ... the holomorphic
    square phase on the complex plane, against (z/|z|)^n |z|^(2s).

    Routes: odd n with b = 0 is exactly zero by symmetry; even n != 0
    with b = 0 goes through the Bessel reduction, on the Hankel contour
    or, where that refuses the point, by the damped-quadrature limit;
    n = 0 with any b goes through the Gaussian-parameter representation.
    Other combinations are out of scope."""

    a, b, n, s = complex(a), complex(b), int(n), complex(s)
    _check_square(a, b)
    if n == 0:
        _require_strip(s, 0.1, 0.92, "square")
        return _square_schwinger(a, b, s)
    if b != 0:
        raise DomainError("square-phase oracle supports n = 0 or b = 0 only")
    _require_strip(s, 0.1, 1.6, "square")
    if n % 2:
        return _EXACT_ZERO
    return _square_hankel(a, n, s) or _square_bessel(a, n, s)
