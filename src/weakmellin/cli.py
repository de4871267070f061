"""Command-line front end.

Five subcommands over the library surface:

  local       evaluate one local factor on an s-grid
  global      evaluate the assembled function with reflection residuals
  zeros       scan and certify zeros, emit the report table
  verify      run the acceptance battery
  weil-index  quadratic Gauss phases per place and their product

Artifacts go to stdout or ``--output`` as JSON ({"schema_version": 1,
"command": ..., "inputs": ..., "results": ...}) or CSV with a fixed
header.  Floats print with 17 significant digits and rows sort by
imaginary part then real part, so identical configs produce
byte-identical output.  Exit codes: 0 success, 1 numeric failure, 2 bad
configuration.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, replace
from fractions import Fraction

from .arch_zeta import RealSign, Trivial, weil_index_arch, zeta_real
from .errors import UncertifiedError, WeakMellinError
from .global_zeta import (
    classify_zero,
    factorize_global,
    gamma_f,
    global_fe_residual,
    reference_spec,
)
from .padic_core import unit_characters
from .padic_zeta import local_factor, weil_index_padic
from .specfun import _factorize
from .zero_engine import line_zeros, zeros_in_window

__all__ = ["ConfigError", "JobConfig", "main", "run"]


class ConfigError(Exception):
    """Rejected job configuration; maps to exit code 2."""


# allowed mapping keys per command; "command" itself is implicit
_ALLOWED = {
    "local": {"field", "p", "a", "b", "char", "chi_mod", "chi_index",
              "s", "format", "output"},
    "global": {"spec", "s", "tol", "format", "output"},
    "zeros": {"spec", "field", "p", "a", "b", "chi_mod", "chi_index",
              "im_lo", "im_hi", "samples", "strict", "format", "output"},
    "verify": {"suite"},
    "weil-index": {"spec", "format", "output"},
}

_DEFAULT_FORMAT = {
    "local": "json", "global": "json", "zeros": "csv",
    "verify": "text", "weil-index": "json",
}


def _fmt17(x: float) -> str:
    return f"{float(x):.17g}"


def _parse_complex(text: str) -> complex:
    """Accepts either a Python complex literal or a "re,im" pair; both
    parts must be finite."""
    text = str(text).strip()
    try:
        if "," in text:
            re_part, im_part = text.split(",")
            z = complex(float(re_part), float(im_part))
        else:
            z = complex(text.replace(" ", ""))
    except ValueError as exc:
        raise ConfigError(f"cannot parse {text!r} as a complex number") from exc
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ConfigError(f"{text!r} is not a finite complex number")
    return z


def _canon_complex(text: str) -> str:
    z = _parse_complex(text)
    return f"{_fmt17(z.real)},{_fmt17(z.imag)}"


def _canon_rational(text: str) -> str:
    try:
        return str(Fraction(str(text)))
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"cannot parse {text!r} as a rational") from exc


def _finite_float(text) -> float:
    try:
        x = float(text)
    except ValueError as exc:
        raise ConfigError(f"cannot parse {text!r} as a number") from exc
    if not math.isfinite(x):
        raise ConfigError(f"{text!r} is not a finite number")
    return x


def _canon_float(text: str) -> str:
    return _fmt17(_finite_float(text))


def _prime_power_exponent(mod: int, p: int) -> int:
    n, m = 0, mod
    while m % p == 0 and m > 1:
        m //= p
        n += 1
    if m != 1 or n < 1:
        raise ConfigError(f"chi modulus {mod} is not a positive power of {p}")
    return n


@dataclass(frozen=True)
class JobConfig:
    """Canonical description of one CLI job.

    Built through :meth:`from_mapping`, which rejects unknown fields and
    normalizes every value, so two configs describing the same job
    compare equal and round-trip through :meth:`to_mapping` unchanged.
    """

    command: str
    field: str | None = None
    spec: str | None = None
    p: int | None = None
    a: str | None = None
    b: str | None = None
    char: str | None = None
    chi_mod: int | None = None
    chi_index: int | None = None
    s_values: tuple[str, ...] = ()
    im_lo: float | None = None
    im_hi: float | None = None
    samples: int = 2048
    strict: bool = False
    tol: float | None = None
    suite: str | None = None
    fmt: str = "json"
    output: str | None = None

    @classmethod
    def from_mapping(cls, mapping) -> "JobConfig":
        data = dict(mapping)
        command = data.pop("command", None)
        if command not in _ALLOWED:
            raise ConfigError(f"unknown command {command!r}")
        unknown = set(data) - _ALLOWED[command]
        if unknown:
            raise ConfigError(
                f"unknown fields for {command}: {', '.join(sorted(unknown))}"
            )

        cfg = cls(command=command)
        fmt = data.get("format", _DEFAULT_FORMAT[command])
        if fmt not in ("json", "csv", "text"):
            raise ConfigError(f"unknown format {fmt!r}")
        cfg = replace(cfg, fmt=fmt, output=data.get("output"))

        if command in ("local", "zeros") and data.get("field") is not None:
            fld = data["field"]
            if fld not in ("qp", "real"):
                raise ConfigError(f"unknown field kind {fld!r}")
            cfg = replace(cfg, field=fld)
        if command in ("global", "zeros", "weil-index"):
            spec = data.get("spec")
            if spec is not None and spec != "reference":
                raise ConfigError(f"unknown named spec {spec!r}")
            cfg = replace(cfg, spec=spec)

        if cfg.field is not None:
            if cfg.field == "qp":
                p = data.get("p")
                if not isinstance(p, int) or _factorize(p) != [(p, 1)]:
                    raise ConfigError("qp factors need a prime --p")
                cfg = replace(
                    cfg, p=p,
                    a=_canon_rational(data.get("a", "1")),
                    b=_canon_rational(data.get("b", "0")),
                )
                if data.get("chi_mod") is not None:
                    _prime_power_exponent(data["chi_mod"], p)
                    cfg = replace(
                        cfg, chi_mod=data["chi_mod"],
                        chi_index=int(data.get("chi_index", 0)),
                    )
                elif data.get("chi_index") is not None:
                    raise ConfigError("chi_index needs chi_mod")
            else:
                if data.get("char", "trivial") not in ("trivial", "sign"):
                    raise ConfigError("real-place character is trivial or sign")
                cfg = replace(
                    cfg,
                    a=_canon_float(data.get("a", "1")),
                    b=_canon_float(data.get("b", "0")),
                    char=data.get("char", "trivial"),
                )

        if command in ("local", "global"):
            raw = data.get("s", ())
            if isinstance(raw, str):
                raw = (raw,)
            if not raw:
                raise ConfigError(f"{command} needs at least one --s point")
            cfg = replace(cfg, s_values=tuple(_canon_complex(x) for x in raw))
        if command == "global":
            cfg = replace(cfg, tol=_finite_float(data.get("tol", 1e-9)))
        if command == "local" and cfg.field is None:
            raise ConfigError("local needs --field qp or --field real")

        if command == "zeros":
            if (cfg.spec is None) == (cfg.field is None):
                raise ConfigError(
                    "zeros needs exactly one of --global SPEC or --field qp"
                )
            if cfg.field == "real":
                raise ConfigError(
                    "zeros scans qp factors or a named global spec"
                )
            if data.get("im_hi") is None:
                raise ConfigError("zeros needs --imax")
            lo_default = 1.0 if cfg.spec else 0.0
            cfg = replace(
                cfg,
                im_lo=_finite_float(data.get("im_lo", lo_default)),
                im_hi=_finite_float(data["im_hi"]),
                samples=int(data.get("samples", 2048)),
                strict=bool(data.get("strict", False)),
            )
            if cfg.samples < 16:
                raise ConfigError("zeros needs at least 16 samples")
            if cfg.im_hi <= cfg.im_lo:
                raise ConfigError("zeros needs im_lo < im_hi")

        if command == "verify":
            suite = str(data.get("suite", "all"))
            if suite != "all":
                from .acceptance import battery  # loads scipy; verify only

                numbers = {str(num) for num, _, _ in battery()}
                if suite not in numbers:
                    raise ConfigError(f"unknown suite {suite!r}")
            cfg = replace(cfg, suite=suite, fmt="text")

        if command in ("global", "weil-index") and cfg.spec is None:
            cfg = replace(cfg, spec="reference")
        return cfg

    def to_mapping(self) -> dict:
        out = {"command": self.command}
        for key, val in (
            ("field", self.field), ("spec", self.spec), ("p", self.p),
            ("a", self.a), ("b", self.b), ("char", self.char),
            ("chi_mod", self.chi_mod), ("chi_index", self.chi_index),
        ):
            if val is not None:
                out[key] = val
        if self.s_values:
            out["s"] = list(self.s_values)
        for key, val in (
            ("im_lo", self.im_lo), ("im_hi", self.im_hi), ("tol", self.tol),
            ("suite", self.suite),
        ):
            if val is not None:
                out[key] = val
        if self.command == "zeros":
            out["samples"] = self.samples
            out["strict"] = self.strict
        if self.command != "verify":
            out["format"] = self.fmt
            if self.output is not None:
                out["output"] = self.output
        return out


# ---------------------------------------------------------------------------
# command bodies
# ---------------------------------------------------------------------------


def _as_pair(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


def _local_callable(cfg: JobConfig):
    if cfg.field == "qp":
        chi = None
        if cfg.chi_mod is not None:
            n = _prime_power_exponent(cfg.chi_mod, cfg.p)
            chars = tuple(unit_characters(cfg.p, n))
            if not 0 <= cfg.chi_index < len(chars):
                raise ConfigError(
                    f"chi index {cfg.chi_index} out of range; modulus "
                    f"{cfg.chi_mod} has {len(chars)} primitive characters"
                )
            chi = chars[cfg.chi_index]
        fac = local_factor(Fraction(cfg.a), Fraction(cfg.b), cfg.p, chi=chi)
        return fac.evaluate, fac
    char = RealSign() if cfg.char == "sign" else Trivial()
    a, b = float(cfg.a), float(cfg.b)
    return (lambda s: zeta_real(a, b, s, char)), None


def _run_local(cfg: JobConfig):
    fn, _ = _local_callable(cfg)
    rows = []
    for text in cfg.s_values:
        s = _parse_complex(text)
        rows.append({"s": _as_pair(s), "value": _as_pair(fn(s))})
    if cfg.fmt == "csv":
        lines = ["s_re,s_im,value_re,value_im"]
        for row in rows:
            lines.append(",".join(_fmt17(v) for v in (
                row["s"]["re"], row["s"]["im"],
                row["value"]["re"], row["value"]["im"],
            )))
        return "\n".join(lines) + "\n", True
    return _json_artifact(cfg, rows), True


def _run_global(cfg: JobConfig):
    spec = reference_spec()
    fact = factorize_global(spec)
    breakdown = {
        "type": "breakdown",
        "archimedean_character": type(fact.arch_char).__name__,
        "finite_places": sorted(fact.local_parts),
        "correction_primes": list(fact.correction_primes),
        "gamma_product": _as_pair(gamma_f(spec)),
        "identically_zero": fact.identically_zero,
    }
    rows = [breakdown]
    ok = True
    for text in cfg.s_values:
        s = _parse_complex(text)
        resid = global_fe_residual(spec, s)
        ok = ok and resid <= cfg.tol
        rows.append({
            "type": "value",
            "s": _as_pair(s),
            "value": _as_pair(fact.evaluate(s)),
            "fe_residual": resid,
        })
    if cfg.fmt == "csv":
        lines = ["s_re,s_im,value_re,value_im,fe_residual"]
        for row in rows[1:]:
            lines.append(",".join(_fmt17(v) for v in (
                row["s"]["re"], row["s"]["im"], row["value"]["re"],
                row["value"]["im"], row["fe_residual"],
            )))
        return "\n".join(lines) + "\n", ok
    return _json_artifact(cfg, rows), ok


def _zero_rows_global(cfg: JobConfig):
    spec = reference_spec()
    fact = factorize_global(spec)
    rows = []
    for rep in line_zeros(
        fact.evaluate, 0.5, cfg.im_lo, cfg.im_hi, samples=cfg.samples,
        strict=cfg.strict,
    ):
        kind, place = "", ""
        if rep.certified:
            cls = classify_zero(rep, spec)
            kind = cls.kind
            place = "" if cls.place is None else str(cls.place)
        rows.append((rep, kind, place))
    return rows


def _run_zeros(cfg: JobConfig):
    if cfg.spec:
        rows = _zero_rows_global(cfg)
    else:
        _, fac = _local_callable(cfg)
        rows = [
            (rep, "local", str(cfg.p))
            for rep in zeros_in_window(fac, cfg.im_lo, cfg.im_hi)
        ]
    rows.sort(key=lambda row: (row[0].location.imag, row[0].location.real))
    ok = all(rep.certified for rep, _, _ in rows) if cfg.strict else True
    if cfg.fmt == "json":
        payload = [{
            "re": rep.location.real,
            "im": rep.location.imag,
            "multiplicity": rep.multiplicity,
            "certified": rep.certified,
            "method": rep.method,
            "class": kind,
            "place": place,
        } for rep, kind, place in rows]
        return _json_artifact(cfg, payload), ok
    lines = ["re,im,multiplicity,certified,method,class,place"]
    for rep, kind, place in rows:
        lines.append(",".join((
            _fmt17(rep.location.real), _fmt17(rep.location.imag),
            str(rep.multiplicity), "true" if rep.certified else "false",
            rep.method, kind, place,
        )))
    return "\n".join(lines) + "\n", ok


def _run_verify(cfg: JobConfig):
    from .acceptance import run_all, run_criterion  # loads scipy; verify only

    if cfg.suite == "all":
        results = run_all()
    else:
        results = [run_criterion(int(cfg.suite))]
    lines = [res.line() for res in results]
    failed = [res for res in results if not res.passed]
    for res in failed:
        lines.append(f"failing: criterion {res.number} ({res.title})")
    return "\n".join(lines) + "\n", not failed


def _run_weil_index(cfg: JobConfig):
    spec = reference_spec()
    rows = [{"place": "inf", "gamma": _as_pair(weil_index_arch(spec.arch))}]
    for p, a, b in spec.finite:
        rows.append({"place": str(p), "gamma": _as_pair(weil_index_padic(a, b, p))})
    rows.append({"place": "product", "gamma": _as_pair(gamma_f(spec))})
    if cfg.fmt == "csv":
        lines = ["place,gamma_re,gamma_im"]
        for row in rows:
            lines.append(",".join((
                row["place"], _fmt17(row["gamma"]["re"]), _fmt17(row["gamma"]["im"]),
            )))
        return "\n".join(lines) + "\n", True
    return _json_artifact(cfg, rows), True


def _json_artifact(cfg: JobConfig, results) -> str:
    doc = {
        "schema_version": 1,
        "command": cfg.command,
        "inputs": cfg.to_mapping(),
        "results": results,
    }
    return json.dumps(doc, indent=2) + "\n"


_RUNNERS = {
    "local": _run_local,
    "global": _run_global,
    "zeros": _run_zeros,
    "verify": _run_verify,
    "weil-index": _run_weil_index,
}


def run(cfg: JobConfig) -> tuple[str, bool]:
    """Artifact text plus pass/fail for a validated config."""
    return _RUNNERS[cfg.command](cfg)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weakmellin",
        description="Local and global zeta factors of quadratic-phase characters",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p):
        p.add_argument("--format", choices=("json", "csv"))
        p.add_argument("--output", metavar="PATH")

    p_local = sub.add_parser("local", help="evaluate one local factor")
    p_local.add_argument("--field", choices=("qp", "real"), required=True)
    p_local.add_argument("--p", type=int)
    p_local.add_argument("--a", default="1")
    p_local.add_argument("--b", default="0")
    p_local.add_argument("--char", choices=("trivial", "sign"))
    p_local.add_argument("--chi-mod", type=int, dest="chi_mod")
    p_local.add_argument("--chi-index", type=int, dest="chi_index")
    p_local.add_argument("--s", action="append", required=True)
    add_output(p_local)

    p_global = sub.add_parser("global", help="evaluate the assembled function")
    p_global.add_argument("--spec", default="reference")
    p_global.add_argument("--s", action="append", required=True)
    p_global.add_argument("--tol", type=float)
    add_output(p_global)

    p_zeros = sub.add_parser("zeros", help="scan and certify zeros")
    p_zeros.add_argument("--global", dest="spec", metavar="SPEC")
    p_zeros.add_argument("--field", choices=("qp",))
    p_zeros.add_argument("--p", type=int)
    p_zeros.add_argument("--a", default="1")
    p_zeros.add_argument("--b", default="0")
    p_zeros.add_argument("--chi-mod", type=int, dest="chi_mod")
    p_zeros.add_argument("--chi-index", type=int, dest="chi_index")
    p_zeros.add_argument("--imin", type=float, dest="im_lo")
    p_zeros.add_argument("--imax", type=float, dest="im_hi")
    p_zeros.add_argument("--samples", type=int)
    p_zeros.add_argument("--strict", action="store_true", default=None)
    add_output(p_zeros)

    p_verify = sub.add_parser("verify", help="run the acceptance battery")
    p_verify.add_argument("--suite", default="all")

    p_weil = sub.add_parser("weil-index", help="Gauss phases per place")
    p_weil.add_argument("--spec", default="reference")
    add_output(p_weil)

    return parser


def _mapping_from_namespace(ns: argparse.Namespace) -> dict:
    mapping = {}
    for key, val in vars(ns).items():
        if val is None:
            continue
        mapping[key] = val
    return mapping


def main(argv=None) -> int:
    try:
        ns = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse already printed its message
        return int(exc.code or 0)

    try:
        cfg = JobConfig.from_mapping(_mapping_from_namespace(ns))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        artifact, ok = run(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except UncertifiedError as exc:
        print(f"certification failure: {exc}", file=sys.stderr)
        return 1
    except (WeakMellinError, ArithmeticError) as exc:
        # ArithmeticError: a float overflow on an accepted but extreme input
        print(f"numeric failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    if cfg.output:
        with open(cfg.output, "w", newline="") as handle:
            handle.write(artifact)
    else:
        sys.stdout.write(artifact)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
