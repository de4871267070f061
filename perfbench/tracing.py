"""Span tracing for the benchmark's traced run.

The tracer replaces selected functions of the ``weakmellin`` package with
timing wrappers, at every module attribute that refers to them (the lookup
sites the package itself calls through), and restores the originals on
``uninstall``.  Nothing under ``src/`` changes.

Each wrapped call opens a frame with a name, start and parent.  Calls of
low frequency (jobs, scans, winding counts, oracles, factor builds) are
kept as spans; high-frequency leaf calls (special functions, factor
evaluations, exact sums) are aggregated per owning span as call counts
and total time.  Every call also feeds per-name totals of calls, time and
self time (time minus the time of wrapped calls made inside it).  Wrapped
calls made inside an oracle run untraced, so they count in the oracle's
self time.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

from weakmellin.errors import (
    BoundaryZeroError,
    ConvergenceError,
    NonIntegerWindingError,
)

_WINDING_ERRORS = (BoundaryZeroError, NonIntegerWindingError, ConvergenceError)

# (span name, owner, attribute, leaf).  The owner is a weakmellin module or
# a class in one, by dotted name.  A module owner means "every weakmellin
# module attribute bound to this function"; a class owner is patched on
# the class itself.  Owners whose module was never imported are skipped:
# the tracer imports nothing, so a census does not load the oracles.
TARGETS = (
    ("specfun.hyp1f1", "specfun", "hyp1f1", True),
    ("specfun._hyp1f1_decimal", "specfun", "_hyp1f1_decimal", True),
    ("specfun.riemann_zeta", "specfun", "riemann_zeta", True),
    ("specfun.dirichlet_l", "specfun", "dirichlet_l", True),
    ("arch_zeta.zeta_real", "arch_zeta", "zeta_real", True),
    ("arch_zeta.complex", "arch_zeta", "zeta_complex_hermitian", True),
    ("arch_zeta.complex", "arch_zeta", "zeta_complex_square", True),
    ("arch_zeta.complex", "arch_zeta", "zeta_rn_radial", True),
    ("padic_core.unit_average", "padic_core", "unit_average", True),
    ("padic_core.theta_additive", "padic_core", "theta_additive", True),
    ("padic_zeta.local_factor", "padic_zeta", "local_factor", False),
    ("padic_zeta.padic_vector_factor", "padic_zeta", "padic_vector_factor", False),
    ("padic_zeta.LocalFactor.evaluate", "padic_zeta.LocalFactor", "evaluate", True),
    ("padic_zeta.LocalFactor.evaluate", "padic_zeta.LocalFactor", "entire_eval", True),
    ("zero_engine.line_zeros", "zero_engine", "line_zeros", False),
    ("zero_engine.winding_count", "zero_engine", "winding_count", False),
    ("zero_engine.exp_poly_roots", "zero_engine", "exp_poly_roots", False),
    ("zero_engine.unit_circle_certificate", "zero_engine", "unit_circle_certificate", False),
    ("global_zeta.evaluate", "global_zeta.GlobalFactorization", "evaluate", True),
    ("global_zeta.factorize_global", "global_zeta", "factorize_global", False),
    ("global_zeta.classify_zero", "global_zeta", "classify_zero", False),
    ("oracle.padic", "oracle", "oracle_padic_mellin", False),
    ("oracle.padic", "oracle", "oracle_padic_vector", False),
    ("oracle.arch", "oracle", "oracle_real_mellin", False),
    ("oracle.arch", "oracle", "oracle_real_sign_mellin", False),
    ("oracle.arch", "oracle", "oracle_hermitian_mellin", False),
    ("oracle.arch", "oracle", "oracle_radial_mellin", False),
    ("oracle.arch", "oracle", "oracle_complex_square_mellin", False),
)

_ENGINE = ("zero_engine.line_zeros", "zero_engine.winding_count")


class _Frame:
    __slots__ = ("name", "start", "child", "span_id", "owner", "leaves")

    def __init__(self, name, start, span_id, owner):
        self.name = name
        self.start = start
        self.child = 0.0
        self.span_id = span_id
        # the frame whose span record aggregates this frame's leaf calls
        self.owner = owner if owner is not None else self
        self.leaves = {}


class Tracer:
    """In-memory spans and per-name totals for one benchmark process."""

    def __init__(self):
        self.spans = []
        self.totals = {}  # name -> [calls, total_s, self_s]
        self.counts = Counter()
        self._stack = []
        self._patches = []
        self._next_id = 1
        self._in_oracle = False
        self.job = None

    # -- frames -----------------------------------------------------------

    def _push(self, name, leaf):
        parent = self._stack[-1] if self._stack else None
        if leaf and parent is not None:
            frame = _Frame(name, time.perf_counter(), 0, parent.owner)
        else:
            frame = _Frame(name, time.perf_counter(), self._next_id, None)
            self._next_id += 1
        self._stack.append(frame)
        return frame

    def _pop(self, frame):
        end = time.perf_counter()
        self._stack.pop()
        dur = end - frame.start
        tot = self.totals.get(frame.name)
        if tot is None:
            tot = self.totals[frame.name] = [0, 0.0, 0.0]
        tot[0] += 1
        tot[1] += dur
        tot[2] += dur - frame.child
        if self._stack:
            self._stack[-1].child += dur
        if frame.span_id:
            parent = self._stack[-1].owner.span_id if self._stack else 0
            self.spans.append({
                "id": frame.span_id,
                "parent": parent,
                "name": frame.name,
                "job": self.job,
                "start": frame.start,
                "end": end,
                "leaves": {k: [c, round(t, 9)] for k, (c, t) in frame.leaves.items()},
            })
        else:
            agg = frame.owner.leaves.get(frame.name)
            if agg is None:
                frame.owner.leaves[frame.name] = [1, dur]
            else:
                agg[0] += 1
                agg[1] += dur

    def span(self, name):
        """Context manager for a span opened by the benchmark itself."""
        return _SpanContext(self, name)

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, name, fn, leaf):
        tracer = self
        if name == "zero_engine.line_zeros":
            return self._wrap_line_zeros(fn)
        if name == "zero_engine.winding_count":
            return self._wrap_winding(fn)

        if name.startswith("oracle."):
            return self._wrap_oracle(name, fn)

        def traced(*args, **kwargs):
            if tracer._in_oracle:
                return fn(*args, **kwargs)
            frame = tracer._push(name, leaf)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._pop(frame)

        traced.__wrapped__ = fn
        return traced

    def _wrap_oracle(self, name, fn):
        """An oracle call is one span; the wrapped calls it makes (its exact
        sums in ``padic_core``, nested oracles) run untraced, so they count
        in the oracle's self time and not in the layers they live in."""
        tracer = self

        def traced(*args, **kwargs):
            if tracer._in_oracle:
                return fn(*args, **kwargs)
            frame = tracer._push(name, False)
            tracer._in_oracle = True
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._in_oracle = False
                tracer._pop(frame)

        traced.__wrapped__ = fn
        return traced

    def _counted(self, fn):
        """Count evaluations of fn against the innermost engine frame."""
        if getattr(fn, "_perfbench_counted", False):
            return fn
        stack = self._stack
        counts = self.counts

        def counted(z):
            for frame in reversed(stack):
                if frame.name in _ENGINE:
                    counts[frame.name + ".fn_evals"] += 1
                    break
            return fn(z)

        counted._perfbench_counted = True
        return counted

    def _wrap_line_zeros(self, fn):
        tracer = self

        def traced(f, re, im_lo, im_hi, **kwargs):
            frame = tracer._push("zero_engine.line_zeros", False)
            try:
                reports = fn(tracer._counted(f), re, im_lo, im_hi, **kwargs)
            finally:
                tracer._pop(frame)
            tracer.counts["zero_engine.line_zeros.samples"] += kwargs.get("samples", 2048)
            tracer.counts["zero_engine.line_zeros.reported"] += len(reports)
            tracer.counts["zero_engine.line_zeros.certified"] += sum(
                1 for r in reports if r.certified
            )
            return reports

        traced.__wrapped__ = fn
        return traced

    def _wrap_winding(self, fn):
        tracer = self

        def traced(f, rect, *args, **kwargs):
            frame = tracer._push("zero_engine.winding_count", False)
            try:
                return fn(tracer._counted(f), rect, *args, **kwargs)
            except _WINDING_ERRORS:
                tracer.counts["zero_engine.winding_count.failures"] += 1
                raise
            finally:
                tracer._pop(frame)

        traced.__wrapped__ = fn
        return traced

    # -- install / uninstall ----------------------------------------------

    def install(self):
        modules = [
            m for key, m in sys.modules.items()
            if key == "weakmellin" or key.startswith("weakmellin.")
        ]
        for name, owner_name, attr, leaf in TARGETS:
            module_name, _, class_name = owner_name.partition(".")
            owner = sys.modules.get("weakmellin." + module_name)
            if owner is None:
                continue
            if class_name:
                owner = getattr(owner, class_name)
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, leaf)
            if class_name:
                sites = [owner]
            else:
                sites = [m for m in modules if getattr(m, attr, None) is original]
            for site in sites:
                self._patches.append((site, attr, original))
                setattr(site, attr, wrapper)

    def uninstall(self):
        for site, attr, original in reversed(self._patches):
            setattr(site, attr, original)
        self._patches.clear()

    def reset(self):
        """Start a fresh pass: clear totals and counts, keep the spans."""
        self.totals = {}
        self.counts = Counter()


class _SpanContext:
    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.frame = self.tracer._push(self.name, False)
        return self

    def __exit__(self, *exc):
        self.tracer._pop(self.frame)
        return False


def _calls(totals, name):
    return totals.get(name, (0, 0.0, 0.0))[0]


def layer_counts(tracer):
    """Work counters of one traced pass; these repeat exactly per seed."""
    out = {name + ".calls": _calls(tracer.totals, name)
           for name in dict.fromkeys(name for name, *_ in TARGETS)}
    for key in (
        "zero_engine.line_zeros.fn_evals", "zero_engine.line_zeros.samples",
        "zero_engine.line_zeros.reported", "zero_engine.line_zeros.certified",
        "zero_engine.winding_count.fn_evals", "zero_engine.winding_count.failures",
    ):
        out[key] = tracer.counts[key]
    return out


def layer_times(tracer):
    """Self time of every traced name over one pass, in seconds."""
    return {name + ".self_s": tot[2] for name, tot in tracer.totals.items()}
