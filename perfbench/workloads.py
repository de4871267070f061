"""Seeded job lists for the three benchmark workloads, and their checks.

A workload is a list of jobs built from the seed.  Building the list also
builds the workload's fixed objects (the factorized global specs), which
is the set-up a CLI call pays before its first job.  Every job returns the
list of checks it failed; an empty list means every output was verified.

The library is always called through its module attributes
(``zero_engine.line_zeros``, ``oracle.oracle_padic_mellin``, ...) so that
the traced run's wrappers, installed at those attributes, see every call.

Job cost is governed by a few input properties: for ``real-census`` the
Kummer argument z = pi b^2 / a and the window, for ``global-census`` the
conductor of the character and the zero density of the listed places,
for ``crosscheck`` the closed form's family, its quadratic coefficient
and its angular index.  The acceptance pairs and the reference spec are
the same on every seed; the seed draws every other input, with those
properties inside fixed strata, so that two seeds give different inputs
with the same cost profile.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from weakmellin import (
    arch_zeta,
    global_zeta,
    padic_core,
    padic_zeta,
    specfun,
    zero_engine,
)
from weakmellin.errors import WeakMellinError

# A scan never reports a zero at its two end samples, so every census
# scans a little past its window and keeps the reports inside it.
SCAN_PAD = 0.25
# window edges move to the largest |f| within EDGE_SEARCH of their place
EDGE_SEARCH = 0.5
EDGE_POINTS = 33

# acceptance tolerances (criteria 1-4 and 6)
PADIC_TOL = 1e-10
ARCH_REL_TOL = 1e-5


@dataclass(frozen=True)
class Job:
    """One unit of work.  ``run`` returns the checks that failed.

    ``diagnose`` takes the failed checks of a failed run and names the
    documented defect that explains all of them, or returns "" when
    nothing known does.  Explained failures still count in ``failed``,
    but they do not make the run incorrect.
    """

    label: str
    run: Callable[[], list]
    diagnose: Callable[[list], str] | None = None


def _scan_samples(lo: float, hi: float, density: float) -> int:
    return int(round((hi - lo) * density)) + 1


def _cut(fn, edge):
    """The point of Re s = 1/2 near ``edge`` where |fn| is largest.

    Windows are cut there to keep the counting contour away from zeros: a
    zero next to the contour makes ``winding_count`` double its samples
    until the phase steps resolve it.  The cut depends only on ``edge``
    and ``fn``, so windows that share a nominal edge still tile.
    """
    ims = [edge + EDGE_SEARCH * (2.0 * i / (EDGE_POINTS - 1) - 1.0)
           for i in range(EDGE_POINTS)]
    return max(ims, key=lambda im: abs(fn(complex(0.5, im))))


def _census(fn, re_box, lo, hi, density):
    """Census of the box re_box x [lo, hi], whose edges are first moved to
    cuts: scan Re s = 1/2, count the box, return (inside, problems)."""
    lo, hi = _cut(fn, lo), _cut(fn, hi)
    reports = zero_engine.line_zeros(
        fn, 0.5, lo - SCAN_PAD, hi + SCAN_PAD,
        samples=_scan_samples(lo - SCAN_PAD, hi + SCAN_PAD, density),
    )
    inside = [
        r for r in reports
        if re_box[0] <= r.location.real <= re_box[1]
        and lo <= r.location.imag <= hi
    ]
    box = zero_engine.winding_count(fn, (re_box[0], re_box[1], lo, hi))
    problems = []
    found = sum(r.multiplicity for r in inside)
    if found != box:
        problems.append(f"scan found {found} zeros, winding count {box}")
    uncertified = [r.location for r in inside if not r.certified]
    if uncertified:
        problems.append(f"uncertified zeros at {uncertified}")
    return inside, problems


CLOSE_PAIR_DEFECT = (
    "close pair merged: zeros closer than the scan step show up as one "
    "report (documented line_zeros limitation)"
)


def _explain_short_census(fn, re_box, lo, hi, density):
    """Name the close-pair defect if it accounts for every missing zero.

    Reported zeros within a few scan steps of each other are grouped, and
    each group is counted by winding over a box a few steps wide.  The
    failure is explained when these counts add up to the count of the
    whole window while exceeding the number of reports.
    """
    inside, problems = _census(fn, re_box, lo, hi, density)
    if not problems or any(p.startswith("uncertified") for p in problems):
        return ""
    lo, hi = _cut(fn, lo), _cut(fn, hi)
    w = 2.0 / density
    groups = []
    for im in sorted(r.location.imag for r in inside):
        if groups and im - groups[-1][1] <= 2.0 * w:
            groups[-1][1] = im
            groups[-1][2] += 1
        else:
            groups.append([im, im, 1])
    total = merged = 0
    try:
        for g_lo, g_hi, n in groups:
            count = zero_engine.winding_count(
                fn, (0.5 - w, 0.5 + w, max(lo, g_lo - w), min(hi, g_hi + w))
            )
            total += count
            merged += max(0, count - n)
        box = zero_engine.winding_count(fn, (re_box[0], re_box[1], lo, hi))
    except WeakMellinError:
        return ""
    if merged and total == box:
        return f"{CLOSE_PAIR_DEFECT}; {merged} zero(s) within {w:.3g} of another"
    return ""


# ---------------------------------------------------------------------------
# real-census: zeta_real(a, b, s, char) on Re s = 1/2, Im s in [0, 40]

REAL_HEIGHT = 5.0
REAL_DENSITY = 51.2  # samples per unit height: 512 per 10, as in criterion 5
# Rows of (a, b), or of a stratum of z = pi b^2 / a for a seeded pair,
# with the lower edges of the windows scanned with the trivial and with
# the sign character.  The fixed pairs are the acceptance pairs with
# b != 0; (0.5, 1.5) is the hard pair.  The seeded stratum reaches the
# hyp1f1 cap |z| <= 40.  Cost rises with z: the rows give 2 cheap jobs,
# the 5 hard-pair windows and 1 dearer seeded window.  So the median job
# falls in the middle of the hard-pair windows, and the tail percentile
# among their dearest samples: on inputs that are the same on every seed,
# and not at the edge of a group of jobs, where the few fastest or
# slowest samples of the group would decide them.
REAL_FIXED = (
    ((2.0, 0.5), (), (30.0,)),
    ((1.0, 1.0), (0.0,), ()),
    ((0.5, 1.5), (0.0, 20.0), (10.0, 20.0, 30.0)),
)
REAL_SEEDED = (
    ((34.0, 38.0), (), (0.0,)),
)


def _real_job(a, b, char, lo):
    hi = lo + REAL_HEIGHT
    name = "sign" if isinstance(char, arch_zeta.RealSign) else "trivial"

    def fn(s):
        return arch_zeta.zeta_real(a, b, s, char)

    def run():
        return _census(fn, (0.1, 0.9), lo, hi, REAL_DENSITY)[1]

    return Job(
        f"real a={a:.6g} b={b:.6g} z={math.pi * b * b / a:.3g} "
        f"{name} Im[{lo:.4f}, {hi:.4f}]",
        run,
        diagnose=lambda _: _explain_short_census(fn, (0.1, 0.9), lo, hi, REAL_DENSITY),
    )


def real_census(rng: random.Random) -> list:
    trivial, sign = arch_zeta.Trivial(), arch_zeta.RealSign()
    rows = list(REAL_FIXED)
    for (z_lo, z_hi), trivial_los, sign_los in REAL_SEEDED:
        z = rng.uniform(z_lo, z_hi)
        a = 2.0 ** rng.uniform(-2.0, 2.0)
        b = rng.choice((-1.0, 1.0)) * math.sqrt(z * a / math.pi)
        rows.append(((a, b), trivial_los, sign_los))
    jobs = []
    for (a, b), trivial_los, sign_los in rows:
        jobs += [_real_job(a, b, trivial, lo) for lo in trivial_los]
        jobs += [_real_job(a, b, sign, lo) for lo in sign_los]
    return jobs


# ---------------------------------------------------------------------------
# global-census: assembled functions on Re s = 1/2, Im s in [0.5, 59]

GLOBAL_DENSITY = 1024 / 15.0  # samples per unit height
# The reference spec gets 8 short windows, one at the foot of each eighth
# of [1, 58], and one tall window.  Each seeded spec gets one short window
# low on the line, where its windows cost least and vary least between
# seeds: a window's cost follows the number of zeros in it and how close
# they come to the counting contour.  The short reference windows are the
# majority, so the median job is one of them; the tall window costs more
# than any seeded window, and a run makes enough passes that the tail
# percentile falls among its samples.  So both fall on inputs that are the
# same on every seed.
GLOBAL_REF_WINDOWS = 8
GLOBAL_REF_STRIDE = 7.125
GLOBAL_REF_HEIGHT = 3.5625
GLOBAL_TALL = (30.0, 58.0)
GLOBAL_SEEDED_LO = 2.0
GLOBAL_SEEDED_HEIGHT = 1.8125


def _unit(rng, p, hi=9):
    while True:
        u = rng.randint(1, hi)
        if u % p:
            return u


def _even_primitive(q):
    return [c for c in specfun.characters(q) if c.is_primitive and c.is_even]


def _seeded_spec(rng, q):
    """Spec with a seeded even primitive character mod the prime q.

    Listed places: 2 and the ramified place q.  The seed draws the
    coefficients, but each listed place has exactly one zero per vertical
    period (a of odd valuation at 2, q ramified at level 0), so the number
    of zeros in a window changes little between seeds.
    """
    chi = rng.choice(_even_primitive(q))
    finite = [(2, Fraction(2 * _unit(rng, 2), _unit(rng, 2)),
               Fraction(rng.choice((0, _unit(rng, 2))))),
              (q, Fraction(_unit(rng, q), _unit(rng, q)), Fraction(_unit(rng, q), q))]
    arch = arch_zeta.Real(a=2.0 ** rng.uniform(-1.0, 1.0), b=0.0)
    return global_zeta.GlobalSpec(arch=arch, finite=tuple(finite), chi=chi)


def _global_job(label, spec, fact, lo, hi):
    def run():
        inside, problems = _census(fact.evaluate, (-0.1, 1.1), lo, hi, GLOBAL_DENSITY)
        for r in inside:
            if not r.certified:
                continue
            cls = global_zeta.classify_zero(r, spec)
            if cls.kind == "rejected":
                problems.append(f"zero at {r.location} classified as rejected")
        return problems

    return Job(
        f"{label} Im[{lo:.4f}, {hi:.4f}]",
        run,
        diagnose=lambda _: _explain_short_census(
            fact.evaluate, (-0.1, 1.1), lo, hi, GLOBAL_DENSITY
        ),
    )


def global_census(rng: random.Random) -> list:
    specs = [("reference", global_zeta.reference_spec())]
    specs.append(("spec mod 5", _seeded_spec(rng, 5)))
    specs.append(("spec mod 7", _seeded_spec(rng, 7)))
    jobs = []
    for name, spec in specs:
        fact = global_zeta.factorize_global(spec)
        label = f"global {name} {spec.finite} chi={spec.chi.modulus}{spec.chi.index} a={spec.arch.a:.6g}"
        if name == "reference":
            for i in range(GLOBAL_REF_WINDOWS):
                lo = 1.0 + i * GLOBAL_REF_STRIDE
                jobs.append(_global_job(label, spec, fact, lo, lo + GLOBAL_REF_HEIGHT))
            jobs.append(_global_job(label, spec, fact, *GLOBAL_TALL))
        else:
            jobs.append(_global_job(label, spec, fact, GLOBAL_SEEDED_LO,
                                    GLOBAL_SEEDED_LO + GLOBAL_SEEDED_HEIGHT))
    return jobs


# ---------------------------------------------------------------------------
# crosscheck: many seeded factors against the oracles

PADIC_PRIMES = (2, 3, 5, 7, 11, 13)
ESCAPE_LEVELS = (0, 1, 2, 3)
VECTOR_PRIMES = (2, 3, 5, 7)
RAMIFIED_DEFECT = (
    "ramified factor at escape level >= 2: closed form disagrees with the "
    "exact oracle"
)


def _oracle():
    """The oracle module, imported on first use.  It loads scipy, which
    only crosscheck needs: census set-up pays for no more than
    ``import weakmellin.cli`` and the census jobs themselves import."""
    from weakmellin import oracle

    return oracle


def _check_roots(fac):
    problems = []
    if fac.kind == "vanishing":
        return problems
    degree = fac.zero_poly()[2]
    reports = zero_engine.exp_poly_roots(fac)
    found = sum(r.multiplicity for r in reports)
    if found != degree:
        problems.append(f"{found} roots for numerator degree {degree}")
    if not all(r.certified for r in reports):
        problems.append("uncertified root")
    if fac.kind in ("unramified", "ramified"):
        count, _ = zero_engine.unit_circle_certificate(fac)
        if count != degree:
            problems.append(f"{count} circle sign changes for degree {degree}")
    return problems


def _padic_checks(a, b, p, chi, grid):
    fac = padic_zeta.local_factor(a, b, p, chi=chi)
    dev = max(
        abs(fac.evaluate(s) - _oracle().oracle_padic_mellin(a, b, p, s, chi=chi))
        for s in grid
    )
    problems = [] if dev <= PADIC_TOL else [f"oracle deviation {dev:.3e}"]
    return problems + _check_roots(fac)


def _prime_job(p, factors, grid):
    """Cross-check every seeded factor at one prime: (a, b, chi, level) rows."""
    names = [
        f"a={a} b={b} chi={chi.index if chi else 'trivial'} level={level}"
        for a, b, chi, level in factors
    ]
    defect = {name for name, (_, _, chi, level) in zip(names, factors)
              if chi is not None and level >= 2}

    def run():
        return [
            f"{name}: {problem}"
            for name, (a, b, chi, _) in zip(names, factors)
            for problem in _padic_checks(a, b, p, chi, grid)
        ]

    def diagnose(problems):
        if all(problem.split(": ")[0] in defect for problem in problems):
            return RAMIFIED_DEFECT
        return ""

    return Job(f"padic p={p}, {len(factors)} factors", run, diagnose)


def _vector_job(configs, p, grid):
    def run():
        fac = padic_zeta.padic_vector_factor(configs, p)
        dev = max(
            abs(fac.evaluate(s) - _oracle().oracle_padic_vector(configs, p, s))
            for s in grid
        )
        problems = [] if dev <= PADIC_TOL else [f"oracle deviation {dev:.3e}"]
        return problems + _check_roots(fac)

    return Job(f"vector p={p} configs={[(str(a), str(b)) for a, b in configs]}", run)


def _arch_job(label, closed, exact, args):
    def run():
        got = complex(closed(*args))
        want = complex(exact(*args))
        rel = abs(got - want) / max(abs(want), 1e-30)
        return [] if rel <= ARCH_REL_TOL else [f"relative deviation {rel:.3e}"]

    return Job(label, run)


# closed form and oracle of each archimedean family; the library is looked
# up at call time, where the tracer patches it
ARCH_FORMS = {
    "real": (lambda a, b, s: arch_zeta.zeta_real(a, b, s),
             lambda a, b, s: _oracle().oracle_real_mellin(a, b, s)),
    "real-sign": (lambda a, b, s: arch_zeta.zeta_real(a, b, s, arch_zeta.RealSign()),
                  lambda a, b, s: _oracle().oracle_real_sign_mellin(a, b, s)),
    "hermitian": (lambda *x: arch_zeta.zeta_complex_hermitian(*x),
                  lambda *x: _oracle().oracle_hermitian_mellin(*x)),
    "square": (lambda *x: arch_zeta.zeta_complex_square(*x),
               lambda *x: _oracle().oracle_complex_square_mellin(*x)),
    "radial": (lambda *x: arch_zeta.zeta_rn_radial(*x),
               lambda *x: _oracle().oracle_radial_mellin(*x)),
}


def _arch_jobs(rng):
    """Closed forms against their quadrature oracles, two per family.

    Quadrature cost grows with the quadratic coefficient and changes with
    the angular index n and with s, so a stays in a narrow band around the
    acceptance value 1 and each family takes two fixed values of n; b and
    s are seeded inside the oracle's strip.  The two real forms sit next
    to the median job, so their b and s are drawn from narrower bands.
    """

    def u(lo, hi):
        return rng.uniform(lo, hi)

    def s_in(re_lo, re_hi, im):
        return complex(u(re_lo, re_hi), u(-im, im))

    def b_real():
        return rng.choice((-1, 1)) * u(0.5, 1.0)

    rows = []
    for n_herm, n_square, n_radial in ((0, 2, 1), (2, 4, 3)):
        rows += [
            ("real", (u(0.9, 1.1), b_real(), s_in(0.6, 1.6, 2.0))),
            ("real-sign", (u(0.9, 1.1), b_real(), s_in(0.6, 1.6, 2.0))),
            ("hermitian", (u(0.9, 1.1), u(0.2, 0.6) * cmath.exp(1j * u(0.0, 2.0 * math.pi)),
                           n_herm, s_in(0.3, 1.4, 2.0))),
            ("square", (complex(u(0.9, 1.1), u(0.4, 0.6)), 0, n_square, s_in(0.3, 1.4, 1.5))),
            ("radial", (u(0.9, 1.1), u(0.3, 1.2), n_radial, s_in(0.3, 2.2, 2.0))),
        ]
    # the square form with b != 0 has only the n = 0 oracle route
    rows.append(("square", (complex(u(0.9, 1.1), u(0.4, 0.6)),
                            complex(u(-0.4, 0.4), u(-0.4, 0.4)), 0, s_in(0.3, 0.85, 1.5))))
    return [
        _arch_job(f"arch {form} args=({', '.join(f'{x:.6g}' for x in args)})",
                  *ARCH_FORMS[form], args)
        for form, args in rows
    ]


def crosscheck(rng: random.Random) -> list:
    # the acceptance S_GRID; importing it loads the oracles and scipy,
    # which a crosscheck from the command line pays for in its set-up
    from weakmellin.acceptance import S_GRID

    jobs = []
    for p in PADIC_PRIMES:
        ramified = [] if p == 2 else list(padic_core.unit_characters(p, 1))
        factors = []
        for level in ESCAPE_LEVELS:
            a = Fraction(_unit(rng, p, 12), _unit(rng, p, 12))
            factors.append((a, Fraction(_unit(rng, p, 12), p**level), None, level))
            if ramified:
                chi = rng.choice(ramified)
                a = Fraction(_unit(rng, p, 12), _unit(rng, p, 12))
                b = Fraction(_unit(rng, p, 12), p ** (level + 1))
                factors.append((a, b, chi, level))
        jobs.append(_prime_job(p, factors, S_GRID))
    for p in VECTOR_PRIMES:
        configs = tuple(
            (Fraction(_unit(rng, p)),
             Fraction(_unit(rng, p), p ** rng.randint(0, 1)) if rng.random() < 0.7 else Fraction(0))
            for _ in range(2)
        )
        jobs.append(_vector_job(configs, p, S_GRID))
    return jobs + _arch_jobs(rng)


BUILDERS = {
    "real-census": real_census,
    "global-census": global_census,
    "crosscheck": crosscheck,
}


def build_jobs(workload: str, seed: int) -> list:
    """The workload's job list for a seed; the same seed gives the same jobs."""
    return BUILDERS[workload](random.Random(f"{workload}:{seed}"))
