"""Archimedean closed forms: functional equations, index laws, duals.

The quadrature comparisons here are spot checks; the acceptance module
sweeps the full grids.  Everything else is exact structure that the
closed forms must carry: Kummer reflection, the index evaluation law,
derivative recurrences in the linear coefficient, and the Gaussian
Fourier pairing across the b-parameter.
"""

import cmath
import math
import random

import numpy as np
import pytest

from weakmellin.arch_zeta import (
    ComplexCn,
    ComplexHermitian,
    ComplexSquare,
    Real,
    RealRadial,
    RealSign,
    Trivial,
    functional_equation_residual,
    tate_rho,
    weil_index_arch,
    zeta_arch,
    zeta_complex_hermitian,
    zeta_complex_square,
    zeta_real,
    zeta_rn_radial,
)
from weakmellin.errors import DomainError, PoleError
from weakmellin.oracle import (
    oracle_complex_square_mellin,
    oracle_hermitian_mellin,
    oracle_radial_mellin,
    oracle_real_mellin,
    oracle_real_sign_mellin,
)
from weakmellin.specfun import gamma, hyp1f1

EIGHTH = cmath.exp(-0.25j * math.pi)

STRIP = [complex(re, im) for re in (0.2, 0.5, 0.8) for im in (-3.0, 0.0, 4.0)]


# ---------------------------------------------------------------------------
# Frozen values and the index.
# ---------------------------------------------------------------------------


def test_weil_index_frozen_values():
    assert weil_index_arch(Real(1, 0)) == pytest.approx(EIGHTH, abs=1e-15)
    assert weil_index_arch(Real(1, 1)) == pytest.approx(-EIGHTH, abs=1e-15)
    assert weil_index_arch(Real(-1, 0)) == pytest.approx(EIGHTH.conjugate(), abs=1e-15)
    assert weil_index_arch(ComplexSquare(1, 0)) == pytest.approx(1.0, abs=1e-15)
    # |b|^2 / a = 1, so the trace character contributes a full turn
    g = weil_index_arch(ComplexHermitian(2, 1 + 1j))
    assert g == pytest.approx(-1j, abs=1e-14)


def test_weil_index_has_unit_modulus():
    rng = random.Random(7)
    for _ in range(50):
        a = rng.uniform(0.2, 3.0) * rng.choice([-1, 1])
        b = rng.uniform(-2.0, 2.0)
        assert abs(abs(weil_index_arch(Real(a, b))) - 1.0) < 1e-14
        assert abs(abs(weil_index_arch(RealRadial(3, a, abs(b)))) - 1.0) < 1e-14


def test_index_evaluation_law_rank_one():
    # at s = 1 the transform collapses to the index over sqrt of the
    # modulus of the quadratic coefficient
    for sdc in (Real(1, 0), Real(1, 1), Real(2, 0.5), Real(-1.5, 0.7)):
        got = zeta_arch(sdc, Trivial(), 1.0)
        want = weil_index_arch(sdc) / math.sqrt(abs(sdc.a))
        assert got == pytest.approx(want, abs=1e-10)
    for sdc in (ComplexHermitian(1, 0), ComplexHermitian(2, 0.5 + 0.1j)):
        got = zeta_arch(sdc, Trivial(), 1.0)
        want = weil_index_arch(sdc) / abs(sdc.a)
        assert got == pytest.approx(want, abs=1e-10)
    for sdc in (ComplexSquare(1, 0.3), ComplexSquare(1 + 1j, 0.2 - 0.1j)):
        got = zeta_arch(sdc, Trivial(), 1.0)
        want = weil_index_arch(sdc) / abs(sdc.a)
        assert got == pytest.approx(want, abs=1e-10)


def test_index_evaluation_law_radial():
    # the collapse point for n variables is s = n
    for n in (1, 2, 3, 4):
        sdc = RealRadial(n, 1.5, 0.5)
        got = zeta_arch(sdc, Trivial(), float(n))
        want = weil_index_arch(sdc) / abs(sdc.a) ** (0.5 * n)
        assert got == pytest.approx(want, abs=1e-10)


# ---------------------------------------------------------------------------
# Kummer reflection, 200 random draws.
# ---------------------------------------------------------------------------


def test_kummer_reflection_200():
    rng = random.Random(20260823)
    for _ in range(200):
        alpha = complex(rng.uniform(-3, 4), rng.uniform(-8, 8))
        beta = rng.choice([0.5, 1.0, 1.5, 2.0, 2.5])
        z = cmath.rect(rng.uniform(0, 10), rng.uniform(0, 2 * math.pi))
        lhs = hyp1f1(alpha, beta, z)
        rhs = cmath.exp(z) * hyp1f1(beta - alpha, beta, -z)
        scale = max(abs(lhs), abs(rhs), 1.0)
        assert abs(lhs - rhs) / scale < 1e-10


# ---------------------------------------------------------------------------
# Functional equations.
# ---------------------------------------------------------------------------

FE_CASES = [
    (Real(1, 0), Trivial()),
    (Real(1, 1), Trivial()),
    (Real(1, 1), RealSign()),
    (Real(2, 0.5), Trivial()),
    (Real(2, 0.5), RealSign()),
    (Real(0.5, 1.5), Trivial()),
    (Real(0.5, 1.5), RealSign()),
    (Real(-1, 0.5), Trivial()),
    (ComplexHermitian(1, 0), Trivial()),
    (ComplexHermitian(1.5, 0.4 + 0.3j), ComplexCn(0)),
    (ComplexHermitian(1, 0.5j), ComplexCn(1)),
    (ComplexHermitian(2, 0.3 - 0.2j), ComplexCn(2)),
    (ComplexHermitian(1, 0.4), ComplexCn(-1)),
    (ComplexSquare(1, 0.3 + 0.2j), Trivial()),
    (ComplexSquare(1 + 0.5j, 0.25), ComplexCn(0)),
    (ComplexSquare(2 - 1j, 0), ComplexCn(2)),
    (ComplexSquare(1j, 0), ComplexCn(-4)),
    # chi(a) = sign(a) = -1 enters the constant
    (Real(-1, 0.5), RealSign()),
    (Real(-2, 0.3), RealSign()),
    (Real(-0.5, 1.5), RealSign()),
]


@pytest.mark.parametrize("sdc,char", FE_CASES)
def test_functional_equation_on_strip(sdc, char):
    worst = max(functional_equation_residual(sdc, char, s) for s in STRIP)
    assert worst < 1e-9


@pytest.mark.parametrize("n", [2, 3, 4])
def test_functional_equation_radial(n):
    # negative a conjugates the phase; the same law covers it
    pts = [complex(f * n, im) for f in (0.25, 0.5, 0.75) for im in (-2.0, 0.0, 3.0)]
    for a in (1.0, -1.0):
        sdc = RealRadial(n, a, 0.6)
        worst = max(functional_equation_residual(sdc, Trivial(), s) for s in pts)
        assert worst < 1e-9


def test_rho_matches_the_classical_quotients():
    # the functional-equation residual at a = 1 over a grid of the strip,
    # for the plain Gaussian phase with the trivial character and a
    # shifted phase with the sign character (where the transform does not
    # vanish); at a = 1 the modulus power is 1, so this checks tate_rho
    # against the transforms it is the quotient of
    grid = [
        complex(re, im)
        for re in (0.2, 0.35, 0.5, 0.65, 0.8)
        for im in (-4.0, -1.5, 0.0, 1.5, 4.0)
    ]
    cases = ((Real(1.0, 0.0), Trivial()), (Real(1.0, 0.5), RealSign()))
    worst = max(
        functional_equation_residual(sdc, char, s)
        for sdc, char in cases
        for s in grid
    )
    assert worst < 1e-8


def test_rho_complex_frozen_shape():
    s = 0.3 + 0.7j
    want = (
        (-1j)
        * (2 * math.pi) ** complex(1 - 2 * s)
        * gamma(s + 0.5)
        / gamma(1 - s + 0.5)
    )
    assert tate_rho(s, ComplexCn(1)) == pytest.approx(want, rel=1e-12)
    assert tate_rho(s, ComplexCn(-1)) == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# Oracle spot checks (the acceptance sweep covers the full grids).
# ---------------------------------------------------------------------------

SPOT = [0.45 + 0.9j, 0.7 - 0.3j]


@pytest.mark.parametrize("s", SPOT)
def test_real_forms_match_oracle(s):
    v = zeta_real(2, 0.5, s)
    assert abs(v - complex(oracle_real_mellin(2, 0.5, s))) < 1e-11 * abs(v)
    w = zeta_real(1, 1, s, RealSign())
    assert abs(w - complex(oracle_real_sign_mellin(1, 1, s))) < 1e-11 * abs(w)


@pytest.mark.parametrize("s", SPOT)
def test_hermitian_matches_oracle_both_orientations(s):
    b = 0.4 * cmath.exp(1j * math.pi / 6)
    for n in (1, -1):
        v = zeta_complex_hermitian(1, b, n, s)
        assert abs(v - complex(oracle_hermitian_mellin(1, b, n, s))) < 1e-11 * abs(v)


@pytest.mark.parametrize("s", SPOT)
def test_square_and_radial_match_oracle(s):
    v = zeta_complex_square(1 + 0.5j, 0.25, 0, s)
    assert abs(v - complex(oracle_complex_square_mellin(1 + 0.5j, 0.25, 0, s))) < 1e-11 * abs(v)
    w = zeta_rn_radial(1, 0.7, 3, s)
    assert abs(w - complex(oracle_radial_mellin(1, 0.7, 3, s))) < 1e-11 * abs(w)


# ---------------------------------------------------------------------------
# Structure in the parameters.
# ---------------------------------------------------------------------------


def test_radial_n1_collapses_to_the_real_line():
    for s in SPOT:
        assert zeta_rn_radial(1.3, 0.8, 1, s) == pytest.approx(
            zeta_real(1.3, 0.8, s), rel=1e-13
        )


def test_negative_a_is_conjugation():
    for s in SPOT:
        lhs = zeta_real(-1.5, 0.5, s)
        rhs = zeta_real(1.5, -0.5, s.conjugate()).conjugate()
        assert lhs == pytest.approx(rhs, rel=1e-14)


def test_odd_sectors_vanish():
    assert zeta_real(1, 0, 0.6, RealSign()) == 0
    assert zeta_complex_hermitian(1, 0, 3, 0.6) == 0
    assert zeta_complex_square(1 + 1j, 0, 5, 0.6) == 0


def test_derivative_recurrence_in_b():
    # d/db of the trivial transform steps s by one and flips to the sign
    # character; the second derivative steps by two and flips back
    a, b, s, h = 1.0, 0.7, 0.6 + 0.4j, 1e-4
    up = zeta_real(a, b + h, s)
    dn = zeta_real(a, b - h, s)
    mid = zeta_real(a, b, s)
    d1 = (up - dn) / (2 * h)
    d2 = (up - 2 * mid + dn) / (h * h)
    want1 = -2j * math.pi * zeta_real(a, b, s + 1, RealSign())
    want2 = (-2j * math.pi) ** 2 * zeta_real(a, b, s + 2)
    assert abs(d1 - want1) < 1e-5 * max(1.0, abs(want1))
    assert abs(d2 - want2) < 1e-5 * max(1.0, abs(want2))


def _gauss_pair_quad(fn, hi):
    # fixed-order panels are plenty for these analytic integrands
    nodes, weights = np.polynomial.legendre.leggauss(40)
    edges = np.linspace(-hi, hi, 25)
    total = 0j
    for lo, up in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (lo + up), 0.5 * (up - lo)
        xs = mid + half * nodes
        total += half * sum(w * fn(x) for w, x in zip(weights, xs))
    return total


@pytest.mark.filterwarnings("ignore:hyp1f1")
def test_fourier_pairing_across_b_trivial():
    # integrating the transform against a Gaussian in b replaces the
    # additive character by the dual Gaussian weight; near the cutoff the
    # Kummer values are noisy but carry Gaussian weight exp(-39.9)
    a, s = 1.0, 0.55 + 0.8j
    hi = min(6.0, math.sqrt(39.9 * a / math.pi))
    lhs = _gauss_pair_quad(
        lambda b: zeta_real(a, b, s) * math.exp(-math.pi * b * b), hi
    )
    rhs = gamma(0.5 * s) * cmath.exp(
        -0.5 * s * cmath.log(math.pi * (1 + 1j * a))
    )
    assert abs(lhs - rhs) < 1e-6 * abs(rhs)


@pytest.mark.filterwarnings("ignore:hyp1f1")
def test_fourier_pairing_across_b_sign():
    a, s = 1.0, 0.55 + 0.8j
    hi = min(6.0, math.sqrt(39.9 * a / math.pi))
    lhs = _gauss_pair_quad(
        lambda b: zeta_real(a, b, s, RealSign()) * b * math.exp(-math.pi * b * b),
        hi,
    )
    rhs = -1j * gamma(0.5 * (s + 1)) * cmath.exp(
        -0.5 * (s + 1) * cmath.log(math.pi * (1 + 1j * a))
    )
    assert abs(lhs - rhs) < 1e-6 * abs(rhs)


# ---------------------------------------------------------------------------
# Rejections.
# ---------------------------------------------------------------------------


def test_domain_rejections():
    with pytest.raises(DomainError):
        zeta_real(1, 4.0, 0.6)  # Kummer argument beyond the cap
    with pytest.raises(DomainError):
        zeta_complex_square(1, 0.3, 2, 0.6)  # unsupported sector
    with pytest.raises(DomainError):
        Real(0, 1)
    with pytest.raises(DomainError):
        ComplexHermitian(-1, 0)
    with pytest.raises(DomainError):
        RealRadial(0, 1, 0)
    with pytest.raises(DomainError):
        zeta_arch(RealRadial(2, 1, 0), RealSign(), 0.5)


def test_pole_guard():
    with pytest.raises(PoleError):
        zeta_real(1, 0.5, 0.0)
    with pytest.raises(PoleError):
        zeta_complex_hermitian(1, 0.2, 0, 0.0)
