"""Run one benchmark workload against the weakmellin package and print its metrics.

    python3 perfbench/run.py --workload real-census --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
One process drives the library in a closed loop with one client: the jobs
of the workload's seeded list run one after another, and the list is run
again (a pass) a fixed number of times, scaled from ``--seconds``.  Every
job's output is checked.  An untraced run also times set-up on fresh child
interpreters, between the passes; a traced run times a bare
``import weakmellin.cli`` instead.

Times of an untraced run are scaled to a reference machine speed, which a
short fixed computation (the speed probe) measures between the jobs, and
a fixed child start (the reference start) around each set-up start; the
summary prints the raw times too.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` every job runs both untraced
and traced, and it carries the per-layer metrics and the tracing overhead.
Spans of a traced run are written to ``perfbench/out/``.  See README.md in
this directory for the workloads, the metrics and the known defects.
"""

from __future__ import annotations

import argparse
import cmath
import decimal
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

# one thread: the benchmark is a single closed-loop client, and a BLAS
# thread pool would compete with it for the two cores it was sized on
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402  (after the thread pins)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

# Seconds of one warm untraced pass over each workload's job list on the
# machine the benchmark was defined on (2-vCPU VM, at its usual speed).
# A run makes a fixed number of passes, --seconds / PASS_S rounded, after
# an untimed warm-up pass.  So the work of a run, its count of checks and
# latency samples, and the job that job_tail_s lands on depend neither on
# the speed of the code nor on that of the machine.  A traced pass runs
# every job twice, traced and not.
PASS_S = {"real-census": 4.2, "global-census": 1.8, "crosscheck": 6.0}
TRACED_PASS_FACTOR = 2.2
# Only on a machine this much slower than usual does a run stop early,
# after two timed passes at least, to stay within its time limit.
SAFETY_FACTOR = 3.0
SETUP_STARTS = 5  # timed child starts per run, spread between the passes
PROBE_WINDOW = 6  # a job is scaled by this many probes nearest it
CLI_STARTS = 3
CHILD_TIMEOUT_S = 60
TAIL_BEYOND = 10  # samples the tail percentile must leave above it
# Mean seconds of one speed probe, and of one reference start
# (``setup_probe.py reference``), on the machine the benchmark was defined
# on, at its usual speed.  An untraced run reports every time scaled to
# that speed: a job by REFERENCE_PROBE_S over the mean of the probes
# nearest it, a set-up start by REFERENCE_START_S over the mean of the
# reference starts just before and just after it.
REFERENCE_PROBE_S = 0.0045
REFERENCE_START_S = 0.2


def speed_probe():
    """Seconds of a fixed computation that uses nothing of weakmellin.

    It mixes what the library spends its time on: complex floating point
    through cmath, Decimal and Fraction arithmetic and small numpy arrays.
    The shared virtual machines the benchmark runs on change speed, by up
    to a factor of two, for seconds to minutes at a time; probing between
    the jobs measures that speed over the same stretches as the jobs.
    """
    t0 = time.perf_counter()
    z, acc = 0.3 + 0.4j, 0j
    for k in range(1, 1600):
        acc += cmath.exp(-z * k) * cmath.sqrt(z + k) / (1.0 + k)
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        d = decimal.Decimal(1)
        for k in range(1, 480):
            d = d * decimal.Decimal(k + 1) / decimal.Decimal(k) + decimal.Decimal(1) / k
    f = Fraction(0)
    for k in range(1, 160):
        f += Fraction(k % 5, k)
    a = np.linspace(0.0, 1.0, 64) + 0j
    for _ in range(240):
        a = np.exp(-a) * 0.5 + a * a * 0.25
    return time.perf_counter() - t0


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("real-census", "global-census", "crosscheck"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def run_child(*argv):
    """Run setup_probe.py in a fresh interpreter: (wall seconds, stdout)."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), *argv], cwd=ROOT,
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    return time.perf_counter() - t0, proc.stdout


def run_job(job, tracer=None):
    """Run one job, traced when a tracer is given: (latency, problems)."""
    t0 = time.perf_counter()
    try:
        if tracer is None:
            problems = job.run()
        else:
            tracer.job = job.label
            tracer.install()
            try:
                with tracer.span("job"):
                    problems = job.run()
            finally:
                tracer.uninstall()
    except Exception as exc:  # a raising job is a failed job; keep going
        problems = [f"raised {type(exc).__name__}: {exc}"]
    return time.perf_counter() - t0, problems


def tail(values, planned):
    """The latency at the highest percentile that leaves TAIL_BEYOND
    samples above it in ``planned`` samples, the count of a run that makes
    all its planned passes: (value, percentile).  A run stopped early
    keeps the same percentile, so it lands on the same job."""
    pct = (planned - TAIL_BEYOND) / planned
    ordered = sorted(values)
    idx = min(len(ordered), max(1, round(pct * len(ordered)))) - 1
    return ordered[idx], 100.0 * pct


def per_layer(counts, times, cli, untraced, traced):
    """Per-layer metrics from one traced pass's counters and median times."""

    def t(name):
        return times.get(name + ".self_s", 0.0)

    def n(name):
        return counts[name + ".calls"]

    m = {}
    hyp, rescues = n("specfun.hyp1f1"), n("specfun._hyp1f1_decimal")
    m["specfun.hyp1f1.calls"] = (hyp, "count")
    m["specfun.hyp1f1.self_s"] = (t("specfun.hyp1f1"), "s")
    m["specfun.hyp1f1.decimal_rescues"] = (rescues, "count")
    m["specfun.hyp1f1.decimal_s"] = (t("specfun._hyp1f1_decimal"), "s")
    m["specfun.hyp1f1.rescue_share"] = (rescues / hyp if hyp else 0.0, "ratio")
    for name in (
        "specfun.riemann_zeta", "specfun.dirichlet_l", "arch_zeta.zeta_real",
        "arch_zeta.complex", "padic_core.unit_average", "padic_core.theta_additive",
        "padic_zeta.local_factor", "padic_zeta.padic_vector_factor",
        "padic_zeta.LocalFactor.evaluate",
    ):
        m[name + ".calls"] = (n(name), "count")
        m[name + ".self_s"] = (t(name), "s")
    scan_evals = counts["zero_engine.line_zeros.fn_evals"]
    reported = counts["zero_engine.line_zeros.reported"]
    m["zero_engine.line_zeros.calls"] = (n("zero_engine.line_zeros"), "count")
    m["zero_engine.line_zeros.self_s"] = (t("zero_engine.line_zeros"), "s")
    m["zero_engine.line_zeros.fn_evals"] = (scan_evals, "count")
    m["zero_engine.line_zeros.newton_evals"] = (
        scan_evals - counts["zero_engine.line_zeros.samples"], "count")
    m["zero_engine.line_zeros.certified_share"] = (
        counts["zero_engine.line_zeros.certified"] / reported if reported else 0.0, "ratio")
    wind, wind_evals = n("zero_engine.winding_count"), counts["zero_engine.winding_count.fn_evals"]
    m["zero_engine.winding_count.calls"] = (wind, "count")
    m["zero_engine.winding_count.self_s"] = (t("zero_engine.winding_count"), "s")
    m["zero_engine.winding_count.fn_evals"] = (wind_evals, "count")
    m["zero_engine.winding_count.evals_per_call"] = (wind_evals / wind if wind else 0.0, "count")
    m["zero_engine.winding_count.failures"] = (
        counts["zero_engine.winding_count.failures"], "count")
    for name in (
        "zero_engine.exp_poly_roots", "zero_engine.unit_circle_certificate",
        "global_zeta.evaluate", "global_zeta.factorize_global",
        "global_zeta.classify_zero", "oracle.padic", "oracle.arch",
    ):
        m[name + ".calls"] = (n(name), "count")
        m[name + ".self_s"] = (t(name), "s")
    m["cli.import_s"] = (statistics.median(c["import_s"] for c in cli), "s")
    m["cli.scipy_modules"] = (cli[0]["scipy_modules"], "count")
    m["trace.wall_s"] = (statistics.median(traced), "s")
    m["trace.untraced_wall_s"] = (statistics.median(untraced), "s")
    m["trace.overhead_s"] = (statistics.median(traced) - statistics.median(untraced), "s")
    return m


def main(argv):
    args = parse_args(argv)
    started = time.perf_counter()
    # One core for the run and its set-up children, which inherit it: a
    # child then runs at the speed the probes around it measured.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import weakmellin.cli  # noqa: F401  (what every CLI call imports)

        import tracing
        import workloads
    except ImportError as exc:
        print(f"cannot import the weakmellin package from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    package = Path(weakmellin.cli.__file__).resolve().parent
    if package != ROOT / "src" / "weakmellin":
        print(f"weakmellin was imported from {package}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    if args.trace:
        passes = max(2, round(args.seconds / PASS_S[args.workload] / TRACED_PASS_FACTOR))
    else:
        passes = max(1, round(args.seconds / PASS_S[args.workload]) - 1)

    def child(*argv):
        try:
            return run_child(*argv)
        except subprocess.SubprocessError as exc:
            raise SystemExit(f"set-up probe failed: {exc} {getattr(exc, 'stderr', '')}")

    def timed_start():
        """One set-up start: (raw seconds, scale to the reference speed).

        Set-up is mostly interpreter start and imports, which follow the
        speed probe less closely than jobs do; a reference start, which
        does the same kind of work, follows it closely."""
        around = [child("reference")[0]]
        seconds = child("setup", args.workload, str(args.seed))[0]
        around.append(child("reference")[0])
        return seconds, REFERENCE_START_S / statistics.fmean(around)

    setup, cli, probes = [], [], []
    if args.trace:
        cli = [json.loads(child("cli")[1]) for _ in range(CLI_STARTS)]
    else:
        child("setup", args.workload, str(args.seed))  # warms the bytecode cache

    jobs = workloads.build_jobs(args.workload, args.seed)
    tracer = tracing.Tracer() if args.trace else None
    # the warm-up pass fills the library's caches; its outputs are checked
    outcomes = [(i, run_job(job)[1]) for i, job in enumerate(jobs)]

    # A traced run times every job twice in a row, once traced and once
    # not, alternating which goes first from job to job and pass to pass,
    # so that neither machine drift nor warm caches show up as overhead.
    # An untraced run probes the machine's speed before the first job of a
    # pass and after every job, and makes its set-up starts, each between
    # two reference starts, between its passes.
    untraced, traced, timed = [], [], []  # timed: (pass, latency, probe before)
    counts, times = [], []
    for k in range(passes):
        while not args.trace and len(setup) < SETUP_STARTS * (k + 1) // passes:
            setup.append(timed_start())
        if tracer is None:
            probes.append(speed_probe())
        else:
            tracer.reset()
        plain, traced_s = [], 0.0
        for i, job in enumerate(jobs):
            if tracer is None:
                order = (None,)
            else:
                order = (None, tracer) if (i + k) % 2 == 0 else (tracer, None)
            for t in order:
                latency, problems = run_job(job, t)
                outcomes.append((i, problems))
                if t is None:
                    plain.append(latency)
                    if tracer is None:
                        timed.append((k, latency, len(probes) - 1))
                else:
                    traced_s += latency
            if tracer is None:
                probes.append(speed_probe())
        untraced.append(sum(plain))
        if tracer is not None:
            traced.append(traced_s)
            counts.append(tracing.layer_counts(tracer))
            times.append(tracing.layer_times(tracer))
        if k >= 1 and time.perf_counter() - started > SAFETY_FACTOR * args.seconds:
            print(f"stopped after {k + 1} of {passes} passes: the machine is "
                  f"more than {SAFETY_FACTOR:g} x slower than usual")
            break

    # every failure counts; a failure is unexpected unless a documented
    # defect explains it, and a job that raised is always unexpected
    attempted = len(outcomes)
    failed_jobs = {}
    for i, problems in outcomes:
        if problems:
            failed_jobs.setdefault(i, [problems, 0])[1] += 1
    failed = sum(n for _, n in failed_jobs.values())
    unexpected = []
    report_lines = []
    for i, (problems, times_failed) in failed_jobs.items():
        job = jobs[i]
        cause = ""
        if job.diagnose is not None and not problems[0].startswith("raised"):
            try:
                cause = job.diagnose(problems)
            except Exception as exc:  # an undiagnosable failure stays unexpected
                problems = problems + [f"diagnosis raised {type(exc).__name__}: {exc}"]
        if not cause:
            unexpected.append(job.label)
        tag = f"known defect: {cause}" if cause else "UNEXPECTED"
        report_lines.append(f"  FAIL x{times_failed} [{tag}] {job.label}: {'; '.join(problems)}")

    correct = not unexpected
    if args.trace and any(c != counts[0] for c in counts[1:]):
        correct = False
        report_lines.append("  work counters differ between traced passes of one seed")

    mode = "traced" if args.trace else "untraced"
    print(f"workload {args.workload} seed {args.seed}: {len(jobs)} jobs per pass, "
          f"a warm-up pass, then {len(untraced)} untraced and {len(traced)} traced "
          f"passes of {passes} planned ({mode} run)")
    print(f"fail_ratio {failed}/{attempted} = {failed / attempted:.4f} "
          f"({len(unexpected)} unexpected)")
    for line in report_lines:
        print(line)

    if args.trace:
        median_times = {
            key: statistics.median(t.get(key, 0.0) for t in times)
            for key in set().union(*times)
        }
        metrics = per_layer(counts[0], median_times, cli, untraced, traced)
        OUT_DIR.mkdir(exist_ok=True)
        out = OUT_DIR / f"trace-{args.workload}-{args.seed}.json"
        with out.open("w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "counts": counts[0], "spans": tracer.spans}, fh)
        print(f"spans: {len(tracer.spans)} written to {out.relative_to(ROOT)}")
    else:
        # each job at the reference speed, by the probes nearest it
        half = PROBE_WINDOW // 2
        latencies = [
            latency * REFERENCE_PROBE_S / statistics.fmean(probes[max(0, p - half + 1):p + half + 1])
            for _, latency, p in timed
        ]
        walls = [0.0] * len(untraced)
        for (k, _, _), latency in zip(timed, latencies):
            walls[k] += latency
        tail_s, tail_pct = tail(latencies, passes * len(jobs))
        metrics = {
            "setup_s": (statistics.median(x * scale for x, scale in setup), "s"),
            "wall_s": (statistics.fmean(walls), "s"),
            "job_p50_s": (statistics.median(latencies), "s"),
            "job_tail_s": (tail_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        print(f"jobs {len(latencies)}: job_tail_s is the p{tail_pct:.1f} latency")
        print(f"speed: {len(probes)} probes between jobs, mean {statistics.fmean(probes) * 1e3:.4f} ms, "
              f"reference {REFERENCE_PROBE_S * 1e3:g} ms")
        print("set-up starts, raw s: " + ", ".join(f"{x:.4f}" for x, _ in setup))
        print("  their scales to the reference speed: "
              + ", ".join(f"{scale:.3f}" for _, scale in setup))
        print("passes, raw s: " + ", ".join(f"{x:.4f}" for x in untraced))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
