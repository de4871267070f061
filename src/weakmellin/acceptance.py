"""End-to-end acceptance battery.

Nine numbered checks, each with a wall-clock budget, sweeping the whole
surface: exact p-adic factors against the combinatorial oracle, root
location and certification on the unit circle, archimedean closed forms
against contour quadrature, the assembled reference function with its
strip census, and the cross-cutting property suites.  Everything is
recomputed at run time on the caller's machine; nothing is read from
golden files.  The CLI ``verify`` command and the acceptance test
module both drive :func:`run_all`.
"""

from __future__ import annotations

import cmath
import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

import numpy as np

from .arch_zeta import (
    Real,
    RealSign,
    Trivial,
    functional_equation_residual,
    zeta_complex_hermitian,
    zeta_complex_square,
    zeta_real,
    zeta_rn_radial,
)
from .errors import DomainError, UncertifiedError
from .global_zeta import (
    classify_zero,
    global_fe_residual,
    reference_spec,
)
from .oracle import (
    _fold_even,
    _fold_odd,
    _hermitian_damped,
    _real_damped,
    _sphere_average,
    oracle_complex_square_mellin,
    oracle_hermitian_mellin,
    oracle_padic_mellin,
    oracle_radial_mellin,
    oracle_real_mellin,
    oracle_real_sign_mellin,
)
from .padic_core import theta_additive, unit_characters
from .padic_zeta import (
    local_factor,
    padic_vector_factor,
    qp2_special_eval,
    rho0_gauss_sum,
)
from .specfun import completed_xi, gamma, hyp1f1
from .zero_engine import (
    census,
    exp_poly_roots,
    line_zeros,
    unit_circle_certificate,
    zeros_in_window,
)

__all__ = ["CriterionResult", "battery", "run_criterion", "run_all"]

# shared 9-point evaluation grid for the exact p-adic comparisons
S_GRID = tuple(
    complex(re, im) for im in (0.0, 1.0, 5.0) for re in (0.3, 0.7, 1.5)
)


@dataclass(frozen=True)
class CriterionResult:
    number: int
    title: str
    passed: bool
    elapsed: float
    budget: float
    detail: str

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return (
            f"{tag} criterion {self.number}: {self.title} "
            f"[{self.elapsed:.2f}s of {self.budget:.0f}s] {self.detail}"
        )


def _criterion_1():
    """Odd-prime base factors equal 1/(1 - p^-s) and the exact oracle."""
    worst = 0.0
    for p in (3, 5, 7, 11):
        fac = local_factor(1, 0, p)
        for s in S_GRID:
            closed = fac.evaluate(s)
            textbook = 1.0 / (1.0 - p ** (-s))
            exact = oracle_padic_mellin(1, 0, p, s)
            worst = max(worst, abs(closed - exact), abs(closed - textbook))
    return worst <= 1e-12, f"worst deviation {worst:.2e} (tol 1e-12)"


def _criterion_2():
    """Dyadic base factor against the oracle plus its s = 1 value."""
    worst = max(
        abs(qp2_special_eval(s) - oracle_padic_mellin(1, 0, 2, s))
        for s in S_GRID
    )
    spot = abs(qp2_special_eval(1.0) - 2.0 * cmath.exp(0.25j * math.pi))
    ok = worst <= 1e-12 and spot <= 1e-12
    return ok, f"grid deviation {worst:.2e}, s=1 deviation {spot:.2e} (tol 1e-12)"


def _criterion_3():
    """Escape level k puts exactly 2k certified roots on the unit circle."""
    ok = True
    notes = []
    for p, k in ((3, 1), (3, 2), (5, 1)):
        fac = local_factor(1, Fraction(1, p**k), p)
        reports = exp_poly_roots(fac)
        count, _ = unit_circle_certificate(fac)
        dev = max(
            (abs(abs(p ** (r.location - fac.n_dim / 2.0)) - 1.0) for r in reports),
            default=1.0,
        )
        case_ok = (
            fac.k == k
            and len(reports) == 2 * k
            and count == 2 * k
            and dev <= 1e-10
            and all(r.certified for r in reports)
        )
        ok = ok and case_ok
        notes.append(f"p={p},k={k}: {len(reports)} roots, sign changes {count}, "
                     f"|X| off by {dev:.1e}")
    return ok, "; ".join(notes)


def _criterion_4():
    """Ramified factors vanish identically or sit on the half line."""
    sample_s = (0.4, 0.8 + 0.6j, 1.2, 0.5 + 2.0j, 1.5 - 1.0j)
    ok = True
    n_vanish = n_live = 0
    worst_val = worst_line = worst_rho = 0.0
    for p in (3, 5):
        for chi in unit_characters(p, 1):
            worst_rho = max(worst_rho, abs(abs(rho0_gauss_sum(chi)) - 1.0))
            for b in (Fraction(0), Fraction(1, p)):
                fac = local_factor(1, b, p, chi=chi)
                if fac.kind == "vanishing":
                    n_vanish += 1
                    dead = max(
                        abs(oracle_padic_mellin(1, b, p, s, chi=chi))
                        for s in sample_s
                    )
                    worst_val = max(worst_val, dead)
                else:
                    n_live += 1
                    miss = max(
                        abs(fac.evaluate(s) - oracle_padic_mellin(1, b, p, s, chi=chi))
                        for s in sample_s
                    )
                    worst_val = max(worst_val, miss)
                    reports = exp_poly_roots(fac)
                    ok = ok and len(reports) >= 1
                    worst_line = max(
                        worst_line,
                        max(abs(r.location.real - 0.5) for r in reports),
                    )
    ok = ok and worst_val <= 1e-10 and worst_line <= 1e-10 and worst_rho <= 1e-12
    return ok, (
        f"{n_vanish} vanishing / {n_live} live cases, oracle deviation "
        f"{worst_val:.1e}, |Re-1/2| {worst_line:.1e}, unit-sum defect {worst_rho:.1e}"
    )


def _criterion_5():
    """Kummer identity, real-place reflection, and the strip zero census."""
    rng = random.Random(20260823)
    worst_kummer = 0.0
    for _ in range(200):
        a = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        b = rng.choice((0.5, 1.5, 2.5)) + rng.randint(0, 2)
        z = complex(rng.uniform(-6, 6), rng.uniform(-6, 6))
        lhs = hyp1f1(a, b, z)
        rhs = cmath.exp(z) * hyp1f1(b - a, b, -z)
        worst_kummer = max(
            worst_kummer, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0)
        )

    pairs = ((1.0, 0.0), (1.0, 1.0), (2.0, 0.5), (0.5, 1.5))
    strip = [complex(re, im) for re in (0.2, 0.5, 0.8) for im in (-2.0, 0.6, 3.0)]
    worst_fe = 0.0
    for a, b in pairs:
        shape = Real(a, b)
        for char in (Trivial(), RealSign()):
            for s in strip:
                worst_fe = max(
                    worst_fe, functional_equation_residual(shape, char, s)
                )

    census_ok = True
    worst_line = 0.0
    total = 0
    for a, b in pairs:
        if b == 0.0:
            continue
        for char in (Trivial(), RealSign()):
            fn = lambda s, a=a, b=b, char=char: zeta_real(a, b, s, char)
            try:
                reports, count = census(fn, (0.1, 0.9, 0.0, 40.0))
            except UncertifiedError:
                census_ok = False
                continue
            worst_line = max(
                worst_line,
                max((abs(r.location.real - 0.5) for r in reports), default=0.0),
            )
            total += count
    ok = (
        worst_kummer <= 1e-10
        and worst_fe <= 1e-9
        and census_ok
        and worst_line <= 1e-8
    )
    return ok, (
        f"Kummer residual {worst_kummer:.1e}, reflection residual {worst_fe:.1e}, "
        f"{total} certified zeros with |Re-1/2| <= {worst_line:.1e}"
    )


def _real_sign(a, b, s):
    return zeta_real(a, b, s, RealSign())


_B_TURN = 0.4 * cmath.exp(1j * math.pi / 6)

# criterion 6: (family, closed form, oracle, arguments)
ARCH_POINTS = (
    ("real", zeta_real, oracle_real_mellin, (2, 0.5, 0.45 + 0.9j)),
    ("real", zeta_real, oracle_real_mellin, (2, 0.5, 1.8 - 0.6j)),
    ("real", _real_sign, oracle_real_sign_mellin, (1, 1, 0.7 - 0.3j)),
    ("real", _real_sign, oracle_real_sign_mellin, (1, 1, 2.1 + 1.2j)),
    ("hermitian", zeta_complex_hermitian, oracle_hermitian_mellin, (1, _B_TURN, 0, 0.5 + 0.4j)),
    ("hermitian", zeta_complex_hermitian, oracle_hermitian_mellin, (1, _B_TURN, 1, 0.9)),
    ("hermitian", zeta_complex_hermitian, oracle_hermitian_mellin, (1, _B_TURN, 2, 1.3 - 0.5j)),
    ("hermitian", zeta_complex_hermitian, oracle_hermitian_mellin, (1, _B_TURN, -1, 0.35 + 0.2j)),
    ("square", zeta_complex_square, oracle_complex_square_mellin, (1 + 0.5j, 0.25, 0, 0.45 + 0.6j)),
    ("square", zeta_complex_square, oracle_complex_square_mellin, (1 + 0.5j, 0.25, 0, 0.7)),
    ("square", zeta_complex_square, oracle_complex_square_mellin, (1 + 0.5j, 0, 0, 0.55)),
    ("square", zeta_complex_square, oracle_complex_square_mellin, (1 + 0.5j, 0, 2, 0.8)),
    ("radial", zeta_rn_radial, oracle_radial_mellin, (1, 0.8, 1, 1.7)),
    ("radial", zeta_rn_radial, oracle_radial_mellin, (1, 0.6, 2, 0.7 + 0.5j)),
    ("radial", zeta_rn_radial, oracle_radial_mellin, (1, 0.7, 3, 0.45 + 0.9j)),
    ("radial", zeta_rn_radial, oracle_radial_mellin, (1, 0.5, 4, 1.1 - 0.7j)),
)


def _criterion_6():
    """Every archimedean closed form against its quadrature oracle."""
    worst = {}
    routes = {}
    for name, closed_fn, oracle_fn, args in ARCH_POINTS:
        closed = closed_fn(*args)
        res = oracle_fn(*args)
        exact = complex(res)
        dev = abs(closed - exact) / max(abs(exact), 1e-30)
        worst[name] = max(worst.get(name, 0.0), dev)
        routes[res.route] = routes.get(res.route, 0) + 1
    ok = all(dev <= 1e-5 for dev in worst.values())
    notes = ", ".join(f"{name} {dev:.1e}" for name, dev in worst.items())
    answered = ", ".join(f"{route} {count}" for route, count in sorted(routes.items()))
    return ok, f"relative deviations: {notes} (tol 1e-5); routes: {answered}"


def _criterion_7():
    """Assembled reference function: reflection grid and strip census."""
    spec = reference_spec()
    fact = spec._factorization
    grid = [
        complex(re, im)
        for re in (0.2, 0.35, 0.5, 0.65, 0.8)
        for im in (-4.0, -1.5, 0.0, 1.5, 4.0)
    ]
    worst_fe = max(global_fe_residual(spec, s) for s in grid)

    try:
        reports, box = census(fact.evaluate, (-0.1, 1.1, 1.0, 30.0))
    except UncertifiedError as exc:
        return False, f"reflection residual {worst_fe:.1e}, census refused: {exc}"
    worst_line = max(
        (abs(r.location.real - 0.5) for r in reports), default=1.0
    )

    # expected heights, recomputed on the spot rather than quoted: the
    # dyadic factor supplies the periodic local family and a fresh scan
    # of the completed zeta supplies the global ones
    family = [r.location.imag for r in zeros_in_window(fact.local_parts[2], 1.0, 30.0)]
    xi_ims = [
        r.location.imag
        for r in line_zeros(completed_xi, 0.5, 1.0, 30.0, samples=1024)
    ]

    match_ok = len(xi_ims) == 3 and len(family) == 6 and len(reports) == 9
    label_ok = True
    for r in reports:
        d_fam = min((abs(r.location.imag - h) for h in family), default=math.inf)
        d_glob = min((abs(r.location.imag - h) for h in xi_ims), default=math.inf)
        cls = classify_zero(r, fact.spec)
        if d_fam <= 1e-5 and d_fam < d_glob:
            label_ok = label_ok and cls.kind == "local" and cls.place == 2
        elif d_glob <= 1e-5:
            label_ok = label_ok and cls.kind == "global"
        else:
            match_ok = False

    ok = (
        worst_fe <= 1e-9
        and box == 9
        and match_ok
        and label_ok
        and worst_line <= 1e-6
    )
    return ok, (
        f"reflection residual {worst_fe:.1e}, census {len(reports)} zeros "
        f"(winding {box}): {len(family)} dyadic local + {len(xi_ims)} global, "
        f"|Re-1/2| <= {worst_line:.1e}, labels {'agree' if label_ok else 'DISAGREE'}"
    )


def _criterion_8():
    """Rank-two products and radial factors zero out on Re = n/2."""
    worst_vec = 0.0
    vec_ok = True
    n_vec = 0
    for p, configs in (
        (3, ((1, 0), (1, Fraction(1, 3)))),
        (3, ((3, 0), (3, 0))),
        (5, ((1, 0), (1, Fraction(1, 5)))),
    ):
        fac = padic_vector_factor(configs, p)
        reports = exp_poly_roots(fac)
        vec_ok = vec_ok and len(reports) >= 1 and all(r.certified for r in reports)
        worst_vec = max(
            worst_vec,
            max(abs(r.location.real - fac.n_dim / 2.0) for r in reports),
        )
        n_vec += len(reports)
    vec_ok = vec_ok and worst_vec <= 1e-10

    worst_rad = 0.0
    rad_ok = True
    n_rad = 0
    for n in (2, 3):
        for bnorm in (1.0, 1.5):
            fn = lambda s, n=n, b=bnorm: zeta_rn_radial(1.0, b, n, s)
            try:
                reports, _ = census(
                    fn, (n / 2.0 - 0.4, n / 2.0 + 0.4, 0.0, 30.0), samples=1536
                )
            except UncertifiedError:
                rad_ok = False
                continue
            rad_ok = rad_ok and len(reports) >= 1
            worst_rad = max(
                worst_rad,
                max((abs(r.location.real - n / 2.0) for r in reports), default=0.0),
            )
            n_rad += len(reports)
    rad_ok = rad_ok and worst_rad <= 1e-8

    return vec_ok and rad_ok, (
        f"{n_vec} product roots off the line by {worst_vec:.1e} (tol 1e-10), "
        f"{n_rad} radial zeros off by {worst_rad:.1e} (tol 1e-8)"
    )


def _gauss_quad(fn, hi):
    # fixed-order panels; the integrands are analytic with Gaussian decay
    nodes, weights = np.polynomial.legendre.leggauss(40)
    edges = np.linspace(-hi, hi, 25)
    total = 0j
    for lo, up in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (lo + up), 0.5 * (up - lo)
        total += half * sum(w * fn(mid + half * x) for w, x in zip(weights, nodes))
    return total


def _criterion_9():
    """Exactness, scaling covariance, Fourier pairing, damping ladder."""
    # widening the additive-profile margin or the oracle window must not
    # move a digit: the sums are exact, not truncated approximations
    exact_dev = 0.0
    for p in (2, 3, 5):
        for y in (Fraction(1), Fraction(1, p), Fraction(p), Fraction(1, p * p)):
            exact_dev = max(exact_dev, abs(
                theta_additive(1, Fraction(1, p), p, y, margin=1)
                - theta_additive(1, Fraction(1, p), p, y, margin=4)
            ))
    for p, a, b in ((3, 1, 0), (2, 1, 1), (5, 1, Fraction(1, 5))):
        s = 0.7 + 1.0j
        exact_dev = max(exact_dev, abs(
            oracle_padic_mellin(a, b, p, s)
            - oracle_padic_mellin(a, b, p, s, max_window=96)
        ))
    exact_ok = exact_dev <= 1e-14

    # x -> x/c carries (a, b) to (a c^2, b c) and scales by |c|^-s
    scale_dev = 0.0
    for s in (0.6 + 0.4j, 1.1 - 0.8j):
        c = 1.7
        for char in (Trivial(), RealSign()):
            got = zeta_real(1.3 * c * c, 0.6 * c, s, char)
            want = c ** (-s) * zeta_real(1.3, 0.6, s, char)
            scale_dev = max(scale_dev, abs(got - want) / max(abs(want), 1e-30))
        p, m = 3, 1
        cc = Fraction(p) ** m  # |c|_p = p^-m
        got = local_factor(cc * cc, Fraction(1, 9) * cc, p).evaluate(s)
        want = complex(p) ** (m * s) * local_factor(1, Fraction(1, 9), p).evaluate(s)
        scale_dev = max(scale_dev, abs(got - want) / abs(want))
    scale_ok = scale_dev <= 1e-10

    # pairing the transform against a Gaussian in the linear coefficient
    # swaps the additive character for the dual Gaussian weight
    a, s = 1.0, 0.55 + 0.8j
    hi = min(6.0, math.sqrt(39.9 * a / math.pi))
    lhs = _gauss_quad(
        lambda b: zeta_real(a, b, s) * math.exp(-math.pi * b * b), hi
    )
    rhs = gamma(0.5 * s) * cmath.exp(-0.5 * s * cmath.log(math.pi * (1 + 1j * a)))
    fourier_dev = abs(lhs - rhs) / abs(rhs)
    lhs = _gauss_quad(
        lambda b: zeta_real(a, b, s, RealSign()) * b * math.exp(-math.pi * b * b),
        hi,
    )
    rhs = -1j * gamma(0.5 * (s + 1)) * cmath.exp(
        -0.5 * (s + 1) * cmath.log(math.pi * (1 + 1j * a))
    )
    fourier_dev = max(fourier_dev, abs(lhs - rhs) / abs(rhs))
    fourier_ok = fourier_dev <= 1e-6

    # halving the damping parameter must halve the remaining error; the
    # damped route is called directly, since the public oracles answer
    # these points on their contour routes.  The Gaussian-parameter route
    # has no damping ladder and reports an exact-path error instead
    ladder_ok = True
    worst_ratio = math.inf
    for res in (
        _real_damped(1.0, 0.5, 0.6 + 0.4j, _fold_even),
        _real_damped(1.0, 1.0, 0.7 + 0j, _fold_odd),
        _hermitian_damped(1.0, 0.3 + 0j, 1, 0.5 - 0.2j),
        _real_damped(1.0, 0.6, 0.7 + 0j, partial(_sphere_average, 2)),
        oracle_complex_square_mellin(1 + 0.5j, 0.25, 0, 0.5),
    ):
        clean = res.route in ("damped", "schwinger") and (
            res.ratio >= 1.8 or res.err_est <= 1e-11 * abs(res.value)
        )
        ladder_ok = ladder_ok and clean
        worst_ratio = min(worst_ratio, res.ratio)

    ok = exact_ok and scale_ok and fourier_ok and ladder_ok
    return ok, (
        f"exactness drift {exact_dev:.1e}, scaling deviation {scale_dev:.1e}, "
        f"Fourier pairing {fourier_dev:.1e}, slowest ladder ratio {worst_ratio:.2f}"
    )


_BATTERY = (
    (1, "odd-prime base factors against the exact oracle", 1.0, _criterion_1),
    (2, "dyadic base factor and its s = 1 value", 1.0, _criterion_2),
    (3, "escape-level roots on the unit circle", 5.0, _criterion_3),
    (4, "ramified factors vanish or sit on the half line", 10.0, _criterion_4),
    (5, "real place: Kummer, reflection, zero census", 60.0, _criterion_5),
    (6, "archimedean closed forms against quadrature", 120.0, _criterion_6),
    (7, "assembled reference function and strip census", 300.0, _criterion_7),
    (8, "rank-two products and radial factors on Re = n/2", 60.0, _criterion_8),
    (9, "exactness, scaling, Fourier pairing, damping ladder", 120.0, _criterion_9),
)


def battery():
    """The (number, title, budget_seconds) rows of the acceptance battery."""
    return tuple((num, title, budget) for num, title, budget, _ in _BATTERY)


def run_criterion(number: int) -> CriterionResult:
    for num, title, budget, fn in _BATTERY:
        if num == number:
            start = time.perf_counter()
            ok, detail = fn()
            elapsed = time.perf_counter() - start
            if elapsed >= budget:
                ok = False
                detail += f"; over budget ({elapsed:.2f}s >= {budget:.0f}s)"
            return CriterionResult(num, title, bool(ok), elapsed, budget, detail)
    raise DomainError(f"no acceptance criterion numbered {number}")


def run_all() -> list[CriterionResult]:
    return [run_criterion(num) for num, _, _, _ in _BATTERY]
