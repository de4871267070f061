"""Brute-force reference transforms.

Nothing in here knows the closed forms.  The p-adic oracles sum exact unit
averages term by term until the profile provably stabilizes, then attach an
analytic geometric tail.  The archimedean oracles do damped numerical
quadrature with internal error control.  Tests compare these against the
closed-form modules; the two routes share only the exact primitives.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy import special

from .errors import DomainError, QuadratureError, SupportEscapeError
from .padic_core import UnitCharacter, theta_additive, unit_average, valuation

__all__ = [
    "PadicOracleParams",
    "oracle_padic_mellin",
    "oracle_padic_vector",
    "ArchOracleParams",
    "oracle_real_mellin",
    "oracle_real_sign_mellin",
    "oracle_hermitian_mellin",
    "oracle_radial_mellin",
    "oracle_complex_square_mellin",
]


@dataclass(frozen=True)
class PadicOracleParams:
    max_window: int = 64
    zero_tol: float = 1e-14
    stable_run: int = 3


def oracle_padic_mellin(
    a,
    b,
    p: int,
    s: complex,
    chi: UnitCharacter | None = None,
    twist: complex = 1.0,
    params: PadicOracleParams | None = None,
) -> complex:
    """Direct sum of unit averages against p^(-js), geometric tail attached.

    Works for Re(s) > 0, where the stable-region tail converges.  Raises
    SupportEscapeError if the profile neither stabilizes above nor dies
    below within the window.
    """
    params = params or PadicOracleParams()
    s = complex(s)
    if s.real <= 0:
        raise DomainError("oracle needs Re(s) > 0 for the upper tail")
    a, b = Fraction(a), Fraction(b)
    ramified = chi is not None and not chi.is_trivial
    n_chi = 0 if chi is None else chi.conductor_exponent
    stable_value = 0.0 if ramified else 1.0
    x = complex(twist) * p ** (-s)  # per-step weight
    va = int(valuation(a, p))
    v2 = 1 if p == 2 else 0

    def ua(j: int) -> complex:
        return unit_average(a, b, p, Fraction(p) ** j, chi=chi)

    def provably_zero(j: int) -> bool:
        # every coset fails the linear-part indicator at the minimal valid
        # level: the average is exactly zero, no summation needed
        v_quad = va + 2 * j  # valuation of a y^2
        m_min = max(1, n_chi, math.ceil(-(v_quad - v2) / 2))
        if b == 0:
            return v_quad < -m_min
        v_lin = int(valuation(b, p)) + j
        if v_quad == v_lin:
            return False  # cancellation level, must compute
        return min(v_quad, v_lin) < -m_min

    # cancellation can only resurrect the average at one level
    j_floor = (int(valuation(b, p)) - va) if b != 0 else None

    # find the upper stable edge; a term can sit anywhere below the level
    # where both coefficients turn integral, so the scan starts there
    j_hi = max(0, math.ceil(-va / 2))
    if b != 0:
        j_hi = max(j_hi, -int(valuation(b, p)))
    run = 0
    while run < params.stable_run:
        if j_hi > params.max_window:
            raise SupportEscapeError("no upper stabilization in window")
        if abs(ua(j_hi) - stable_value) <= params.zero_tol:
            run += 1
        else:
            run = 0
        j_hi += 1
    if not ramified:
        # walk the edge back to the exact start of the stable region; for
        # ramified characters the stable value is 0 and the edge is moot
        while j_hi > -params.max_window and abs(ua(j_hi - 1) - 1.0) <= params.zero_tol:
            j_hi -= 1

    total = 0.0 + 0.0j
    if not ramified:
        total += x**j_hi / (1.0 - x)  # sum over the stable region

    # without a cancellation floor the only gap risk is a ramified b = 0
    # window, at most conductor wide; pad the required zero run to cover it.
    # A computed zero does not count toward the run: a term can sit below
    # a gap of them.
    need_run = params.stable_run if j_floor is not None else params.stable_run + n_chi + 2
    j = j_hi - 1
    run = 0
    while True:
        if j < -params.max_window:
            raise SupportEscapeError("no lower support escape in window")
        if provably_zero(j):
            run += 1
        else:
            run = 0
            v = ua(j)
            if abs(v) > params.zero_tol:
                total += v * x**j
        if run >= need_run and (j_floor is None or j < j_floor):
            break
        j -= 1
    return total


def oracle_padic_vector(
    configs,
    p: int,
    s: complex,
    params: PadicOracleParams | None = None,
) -> complex:
    """Reference for the diagonal-scaling factor on a product space.

    Uses the difference lambda(y) = theta(y) - p^(-n) theta(py), the
    n-dimensional shell average, which is exactly zero deep in both tails.
    """
    params = params or PadicOracleParams()
    s = complex(s)
    if s.real <= 0:
        raise DomainError("oracle needs Re(s) > 0 for the upper tail")
    configs = tuple((Fraction(a), Fraction(b)) for a, b in configs)
    n = len(configs)
    x = p ** (-s)

    cache: dict[int, complex] = {}

    def theta_prod(j: int) -> complex:
        if j not in cache:
            out = 1.0 + 0.0j
            for ai, bi in configs:
                out *= theta_additive(ai, bi, p, Fraction(p) ** j)
            cache[j] = out
        return cache[j]

    def lam(j: int) -> complex:
        return theta_prod(j) - theta_prod(j + 1) / p**n

    stable = 1.0 - 1.0 / p**n
    j_hi = 0
    run = 0
    while run < params.stable_run:
        if j_hi > params.max_window:
            raise SupportEscapeError("no upper stabilization in window")
        if abs(lam(j_hi) - stable) <= params.zero_tol:
            run += 1
        else:
            run = 0
        j_hi += 1
    while j_hi > -params.max_window and abs(lam(j_hi - 1) - stable) <= params.zero_tol:
        j_hi -= 1

    # a middle gap of zeros can be wide; only below every component's
    # cancellation level is a run of zeros conclusive
    floors = [
        int(valuation(bi, p)) - int(valuation(ai, p))
        for ai, bi in configs
        if bi != 0
    ]
    j_floor = min(floors) if floors else None

    total = stable * x**j_hi / (1.0 - x)
    j = j_hi - 1
    run = 0
    while True:
        if j < -params.max_window:
            raise SupportEscapeError("no lower support escape in window")
        v = lam(j)
        if abs(v) <= params.zero_tol:
            run += 1
        else:
            run = 0
            total += v * x**j
        if run >= params.stable_run and (j_floor is None or j < j_floor):
            break
        j -= 1
    return total / (1.0 - 1.0 / p)


# ---------------------------------------------------------------------------
# Archimedean quadrature.  The oscillatory transforms are computed as the
# limit of Gaussian-damped integrals: multiply the integrand by a damping
# envelope exp(-c*eps*x^2), integrate over a truncated range with
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


@dataclass(frozen=True)
class ArchOracleParams:
    """Knobs for the archimedean oracles.

    eps_schedule is the damping ladder, each entry half the previous; the
    reported value is the second order Richardson limit.  tail_log sets
    the truncation radius through envelope(cut) = exp(-tail_log).
    max_phase is the phase budget per panel in radians; panel_order
    Gauss-Legendre nodes resolve that budget to far below order_tol, and
    the doubled-order repeat has to agree to order_tol."""

    eps_schedule: tuple = (1e-3, 5e-4, 2.5e-4)
    x_min: float = 1e-120
    tail_log: float = 27.6
    panel_order: int = 20
    max_phase: float = 8.0
    order_tol: float = 1e-8


_ARCH_DEFAULT = ArchOracleParams()

_MAX_PANELS = 200_000


@dataclass(frozen=True)
class ArchOracleResult:
    """Damped-quadrature value with its convergence diagnostics.

    ratio is |r(eps) - r(eps/2)| / |r(eps/2) - r(eps/4)|; a clean linear
    eps-dependence gives ratio close to 2.  Routes with no damping ladder
    report ratio = inf and an empty eps_values."""

    value: complex
    err_est: float
    ratio: float
    eps_values: tuple

    def __complex__(self):
        return complex(self.value)


def _gl_rule(order):
    rule = _GL_RULES.get(order)
    if rule is None:
        rule = np.polynomial.legendre.leggauss(order)
        _GL_RULES[order] = rule
    return rule


_GL_RULES: dict = {}


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


def _checked_integral(fn, edges, params):
    v1, l1 = _integrate_panels(fn, edges, params.panel_order)
    v2, _ = _integrate_panels(fn, edges, 2 * params.panel_order)
    err = abs(v1 - v2)
    if err > params.order_tol * max(abs(v2), 1e-6 * l1, 1e-300):
        raise QuadratureError(
            f"doubled-order totals disagree by {err:.3e} "
            f"(value {abs(v2):.3e}, L1 mass {l1:.3e})"
        )
    return v2, err


def _damped_limit(build, params):
    """Runs the eps ladder and Richardson-extrapolates to eps = 0.

    build(eps) returns (edges, integrand); the integrand must include the
    damping envelope for that eps."""

    vals = []
    worst = 0.0
    for eps in params.eps_schedule:
        edges, fn = build(eps)
        v, err = _checked_integral(fn, edges, params)
        vals.append(v)
        worst = max(worst, err)
    r1, r2, r3 = vals
    first_a = 2.0 * r2 - r1
    first_b = 2.0 * r3 - r2
    value = (4.0 * first_b - first_a) / 3.0
    d1, d2 = abs(r1 - r2), abs(r2 - r3)
    ratio = d1 / d2 if d2 > 0.0 else math.inf
    err_est = abs(first_b - first_a) / 3.0 + worst
    return ArchOracleResult(value, err_est, ratio, tuple(vals))


def _scaled(result, c):
    mag = abs(c)
    return ArchOracleResult(
        c * result.value,
        mag * result.err_est,
        result.ratio,
        tuple(c * v for v in result.eps_values),
    )


_EXACT_ZERO = ArchOracleResult(0j, 0.0, math.inf, ())

# (-i)^n without power-function roundoff
_I_POW = (1 + 0j, -1j, -1 + 0j, 1j)


def _cgamma(z):
    return cmath.exp(complex(special.loggamma(complex(z))))


def _require_strip(s, lo, hi, who):
    if not lo < s.real < hi:
        raise DomainError(
            f"{who} oracle needs {lo} < Re(s) < {hi}, got {s.real}"
        )


def _real_line_mellin(a, b, s, params, fold, who):
    """Damped-quadrature limit of the integral over (0, inf) of
    exp(-pi i a y^2) fold(2 pi b y) y^(s-1) dy, the transform of
    exp(-pi i a y^2 - 2 pi i b y) on the real line with y -> -y folded in."""

    params = params or _ARCH_DEFAULT
    _require_strip(s, 0.15, 2.5, who)

    def build(eps):
        hi = math.sqrt(params.tail_log / (math.pi * eps))
        smooth = abs(s - 1.0) + 1.0

        def rate(y):
            return 2.0 * math.pi * (abs(a) * y + abs(b) + eps * y) + smooth / y

        edges = _panel_edges(params.x_min, 1.0, hi, rate, params.max_phase)
        q = math.pi * (eps + 1j * a)

        def fn(y):
            return (
                np.exp(-q * y * y)
                * fold(2.0 * math.pi * b * y)
                * np.exp((s - 1.0) * np.log(y))
            )

        return edges, fn

    return _damped_limit(build, params)


def oracle_real_mellin(a, b, s, params=None):
    """Multiplicative transform of exp(-pi i a y^2 - 2 pi i b y) on the
    real line against the trivial sign character.

    Folding y -> -y gives 2 * integral over (0, inf) of
    exp(-pi i a y^2) cos(2 pi b y) y^(s-1) dy, which is computed by the
    damped-quadrature limit.  Only the closed forms know anything about
    confluent hypergeometric functions; this route never touches them."""

    a, b, s = float(a), float(b), complex(s)
    if a == 0.0:
        raise DomainError("quadratic coefficient must be nonzero")
    return _real_line_mellin(a, b, s, params, lambda t: 2.0 * np.cos(t), "real")


def oracle_real_sign_mellin(a, b, s, params=None):
    """Same transform as oracle_real_mellin but against the sign
    character, so the fold produces -2i sin(2 pi b y) in place of the
    cosine.  Identically zero when b = 0."""

    a, b, s = float(a), float(b), complex(s)
    if a == 0.0:
        raise DomainError("quadratic coefficient must be nonzero")
    if b == 0.0:
        return _EXACT_ZERO
    return _real_line_mellin(
        a, b, s, params, lambda t: -2j * np.sin(t), "real sign"
    )


def oracle_hermitian_mellin(a, b, n, s, params=None):
    """Transform of the hermitian phase exp(-2 pi i a |z|^2) twisted by
    the linear term and the angular character (z/|z|)^n.

    The angular integral is a Bessel function, leaving
    4 pi (-i)^n e^(i n arg b) * integral of
    exp(-2 pi i a r^2) J_n(4 pi |b| r) r^(2s-1) dr."""

    params = params or _ARCH_DEFAULT
    a, b, n, s = float(a), complex(b), int(n), complex(s)
    if a <= 0.0:
        raise DomainError("hermitian quadratic coefficient must be positive")
    if b == 0 and n != 0:
        return _EXACT_ZERO
    _require_strip(s, 0.1, 1.6, "hermitian")
    babs = abs(b)
    phi = cmath.phase(b) if babs > 0.0 else 0.0
    pref = 4.0 * math.pi * _I_POW[n % 4] * cmath.exp(1j * n * phi)

    def build(eps):
        hi = math.sqrt(params.tail_log / (2.0 * math.pi * eps))
        smooth = abs(2.0 * s - 1.0) + 1.0

        def rate(r):
            return 4.0 * math.pi * (a + eps) * r + 4.0 * math.pi * babs + smooth / r

        edges = _panel_edges(params.x_min, 1.0, hi, rate, params.max_phase)
        q = 2.0 * math.pi * (eps + 1j * a)

        def fn(r):
            out = np.exp(-q * r * r + (2.0 * s - 1.0) * np.log(r))
            if babs > 0.0:
                out = out * special.jv(n, 4.0 * math.pi * babs * r)
            return out

        return edges, fn

    return _scaled(_damped_limit(build, params), pref)


def _sphere_average(n, w):
    """Average of a plane wave over the unit sphere in n variables, as a
    function of w = |frequency| * radius.  Equals 1 at w = 0."""

    nu = 0.5 * n - 1.0
    out = np.empty_like(w, dtype=float)
    small = w < 1e-6
    ws = w[small]
    out[small] = 1.0 - ws * ws / (2.0 * n)
    wl = w[~small]
    out[~small] = (
        math.gamma(0.5 * n)
        * np.power(0.5 * wl, -nu)
        * special.jv(nu, wl)
    )
    return out


def oracle_radial_mellin(a, bnorm, n, s, params=None):
    """Transform of exp(-pi i a |x|^2 - 2 pi i b.x) over n real variables
    against |x|^s, reduced to the radial line.

    The angular average of the linear phase is a normalized Bessel
    kernel; the remaining integral carries the surface measure
    2 pi^(n/2) / Gamma(n/2)."""

    params = params or _ARCH_DEFAULT
    a, bnorm, n, s = float(a), float(bnorm), int(n), complex(s)
    if a == 0.0:
        raise DomainError("quadratic coefficient must be nonzero")
    if n < 1:
        raise DomainError("dimension must be at least 1")
    if bnorm < 0.0:
        raise DomainError("the linear coefficient enters through its norm")
    _require_strip(s, 0.15, 2.5, "radial")
    pref = 2.0 * math.pi ** (0.5 * n) / math.gamma(0.5 * n)

    def build(eps):
        hi = math.sqrt(params.tail_log / (math.pi * eps))
        smooth = abs(s - 1.0) + 1.0

        def rate(r):
            return 2.0 * math.pi * ((abs(a) + eps) * r + bnorm) + smooth / r

        edges = _panel_edges(params.x_min, 1.0, hi, rate, params.max_phase)
        q = math.pi * (eps + 1j * a)

        def fn(r):
            out = np.exp(-q * r * r + (s - 1.0) * np.log(r))
            if bnorm > 0.0:
                out = out * _sphere_average(n, 2.0 * math.pi * bnorm * r)
            return out

        return edges, fn

    return _scaled(_damped_limit(build, params), pref)


def _square_bessel(a, n, s, params):
    """b = 0 branch of the complex square transform: the angular integral
    of exp(-2 pi i Re(a z^2)) (z/|z|)^n vanishes for odd n and reduces to
    a Bessel function of order |n|/2 for even n."""

    m = n // 2
    phi = cmath.phase(a)
    pref = 4.0 * math.pi * _I_POW[abs(m) % 4] * cmath.exp(-1j * m * phi)
    mag = abs(a)

    def build(eps):
        hi = math.sqrt(params.tail_log / (2.0 * math.pi * eps))
        smooth = abs(2.0 * s - 1.0) + 1.0

        def rate(r):
            return 4.0 * math.pi * (mag + eps) * r + smooth / r

        edges = _panel_edges(params.x_min, 1.0, hi, rate, params.max_phase)

        def fn(r):
            rr = r * r
            return (
                np.exp(-2.0 * math.pi * eps * rr + (2.0 * s - 1.0) * np.log(r))
                * special.jv(abs(m), 2.0 * math.pi * mag * rr)
            )

        return edges, fn

    return _scaled(_damped_limit(build, params), pref)


def _square_schwinger(a, b, s, params):
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

    edges = _panel_edges(1e-120, 1.0, t_hi, rate, params.max_phase)
    expo_const = 32.0j * math.pi**3 * cross

    def fn(t):
        det = t * t + mag2
        expo = (expo_const - lin * t) / (4.0 * det)
        return np.exp(-s * np.log(t) + expo) / np.sqrt(det)

    value, err = _checked_integral(fn, edges, params)
    # tail: integrand ~ t^(-s-1) (1 - 4 pi^2 |b|^2 / t + ...)
    tail = t_hi ** (-s) / s - 4.0 * math.pi**2 * bb * t_hi ** (-s - 1.0) / (s + 1.0)
    total = value + tail
    pref = 2.0 * math.pi / _cgamma(1.0 - s)
    return ArchOracleResult(pref * total, abs(pref) * err, math.inf, ())


def oracle_complex_square_mellin(a, b, n, s, params=None):
    """Transform of exp(-2 pi i Re(a z^2 + 2 b z)) ... the holomorphic
    square phase on the complex plane, against (z/|z|)^n |z|^(2s).

    Routes: odd n with b = 0 is exactly zero by symmetry; even n with
    b = 0 goes through the Bessel reduction; n = 0 with any b goes
    through the Gaussian-parameter representation.  Other combinations
    are out of scope."""

    params = params or _ARCH_DEFAULT
    a, b, n, s = complex(a), complex(b), int(n), complex(s)
    if a == 0:
        raise DomainError("quadratic coefficient must be nonzero")
    if n == 0:
        _require_strip(s, 0.1, 0.92, "square")
        return _square_schwinger(a, b, s, params)
    if b == 0:
        if n % 2:
            return _EXACT_ZERO
        _require_strip(s, 0.1, 1.6, "square")
        return _square_bessel(a, n, s, params)
    raise DomainError(
        "square-phase oracle supports n = 0 or b = 0 only"
    )
