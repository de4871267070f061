"""CLI surface: config canonicalization, artifacts, determinism, exits."""

import contextlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weakmellin import cli, global_zeta, padic_core
from weakmellin.arch_zeta import RealSign, zeta_real
from weakmellin.cli import ConfigError, JobConfig
from weakmellin.errors import DomainError


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------------ config


def test_round_trip_to_canonical_form():
    mapping = {
        "command": "local", "field": "qp", "p": 5,
        "a": "2/4", "b": "0", "s": ["2"],
    }
    cfg = JobConfig.from_mapping(mapping)
    assert cfg.a == "1/2"
    assert cfg.s_values == ("2,0",)
    again = JobConfig.from_mapping(cfg.to_mapping())
    assert again == cfg
    assert again.to_mapping() == cfg.to_mapping()


def test_unknown_fields_rejected():
    with pytest.raises(ConfigError):
        JobConfig.from_mapping({
            "command": "local", "field": "qp", "p": 5, "s": ["1"],
            "frobnicate": 1,
        })
    with pytest.raises(ConfigError):
        JobConfig.from_mapping({"command": "warp", "s": ["1"]})


def test_zeros_needs_exactly_one_target():
    base = {"command": "zeros", "im_hi": 10.0}
    with pytest.raises(ConfigError):
        JobConfig.from_mapping(base)
    with pytest.raises(ConfigError):
        JobConfig.from_mapping({
            **base, "spec": "reference", "field": "qp", "p": 3,
        })


def test_dangling_chi_index_rejected():
    with pytest.raises(ConfigError):
        JobConfig.from_mapping({
            "command": "local", "field": "qp", "p": 3, "s": ["1"],
            "chi_index": 1,
        })


def test_verify_round_trip():
    cfg = JobConfig.from_mapping({"command": "verify", "suite": "3"})
    assert JobConfig.from_mapping(cfg.to_mapping()) == cfg


# ------------------------------------------------------------------- local


def test_local_qp_frozen_example(capsys):
    code, out, _ = run_cli(
        ["local", "--field", "qp", "--p", "5", "--a", "1", "--b", "0",
         "--s", "2"], capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert doc["command"] == "local"
    value = doc["results"][0]["value"]
    assert abs(value["re"] - 25.0 / 24.0) < 1e-12
    assert abs(value["im"]) < 1e-15


def test_local_real_sign_matches_library(capsys):
    code, out, _ = run_cli(
        ["local", "--field", "real", "--a", "1", "--b", "1",
         "--char", "sign", "--s", "0.6+0.4j"], capsys,
    )
    assert code == 0
    value = json.loads(out)["results"][0]["value"]
    want = zeta_real(1, 1, 0.6 + 0.4j, RealSign())
    assert abs(complex(value["re"], value["im"]) - want) < 1e-12


def test_local_csv_table(capsys):
    code, out, _ = run_cli(
        ["local", "--field", "qp", "--p", "3", "--b", "1/3",
         "--s", "0.5,1", "--s", "0.5,2", "--format", "csv"], capsys,
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "s_re,s_im,value_re,value_im"
    assert len(lines) == 3


# ------------------------------------------------------------------ global


def test_global_values_and_breakdown(capsys):
    code, out, _ = run_cli(
        ["global", "--s", "0.5,14", "--s", "2,0"], capsys,
    )
    assert code == 0
    doc = json.loads(out)
    breakdown = doc["results"][0]
    assert breakdown["type"] == "breakdown"
    assert breakdown["finite_places"] == [2]
    assert breakdown["correction_primes"] == [2]
    assert not breakdown["identically_zero"]
    for row in doc["results"][1:]:
        assert row["fe_residual"] <= 1e-9


def test_global_csv_table(capsys):
    # one row per --s, no breakdown row
    code, out, _ = run_cli(
        ["global", "--s=0.5,14", "--s=0.8,3", "--format", "csv"], capsys,
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "s_re,s_im,value_re,value_im,fe_residual"
    assert [line.split(",")[:2] for line in lines[1:]] == [["0.5", "14"],
                                                         ["0.80000000000000004", "3"]]
    assert all(float(line.split(",")[4]) <= 1e-9 for line in lines[1:])


def test_global_tolerance_override_fails_numerically(capsys):
    code, _, _ = run_cli(
        ["global", "--s", "0.5,14", "--tol", "1e-30"], capsys,
    )
    assert code == 1


# ------------------------------------------------------------------- zeros


def test_zeros_reference_census_and_determinism(capsys):
    args = ["zeros", "--global", "reference", "--imax", "30"]
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "re,im,multiplicity,certified,method,class,place"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 9
    labels = [(row[5], row[6]) for row in rows]
    assert labels.count(("local", "2")) == 6
    assert labels.count(("global", "")) == 3
    for row in rows:
        assert abs(float(row[0]) - 0.5) <= 1e-6
        assert row[3] == "true"
    ims = [float(row[1]) for row in rows]
    assert ims == sorted(ims)

    code2, out2, _ = run_cli(args, capsys)
    assert code2 == 0
    assert out2 == out  # byte-identical artifact for an identical config


def test_strict_census_matches_the_winding_count(capsys):
    args = ["zeros", "--global", "reference", "--imax", "30"]
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    code, strict_out, err = run_cli(args + ["--strict"], capsys)
    assert code == 0 and err == ""
    assert strict_out == out


def test_strict_census_refuses_a_scan_that_misses_a_zero(capsys):
    # 16 samples over Im 50..60 (spacing 0.67) miss the global zero near
    # Im 52.97, and the dip sample at Im 55.33 lies 0.27 from the zero near
    # Im 55.06, beyond its circle's cap of 0.25: that dip is listed
    # uncertified, and the census refuses it
    args = ["zeros", "--global", "reference", "--imin", "50", "--imax", "60",
            "--samples", "16"]
    code, out, _ = run_cli(args, capsys)
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert code == 0 and len(rows) == 4
    assert [row[3] for row in rows] == ["true", "false", "true", "true"]
    code, out, err = run_cli(args + ["--strict"], capsys)
    assert code == 1 and out == ""
    assert err.startswith("certification failure:")
    assert "zero near (0.5+55.33" in err and "failed certification" in err


def test_strict_census_refuses_a_pole_on_the_box_edge(capsys):
    # the reference function has poles at s = 0 and s = 1, on Im s = 0
    args = ["zeros", "--global", "reference", "--imin", "0", "--imax", "10"]
    code, _, _ = run_cli(args, capsys)
    assert code == 0
    code, out, err = run_cli(args + ["--strict"], capsys)
    assert code == 1 and out == ""
    assert err.startswith("certification failure:")
    assert "edge" in err and "s = 0" in err


def test_zeros_local_factor_periodized(capsys):
    code, out, _ = run_cli(
        ["zeros", "--field", "qp", "--p", "3", "--b", "1/3",
         "--imax", "10"], capsys,
    )
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert len(rows) == 4  # one base pair plus one period of 2*pi/ln 3
    for row in rows:
        assert abs(float(row[0]) - 0.5) <= 1e-10
        assert row[2] == "1" and row[3] == "true"
        assert row[4] == "CompanionRoots"
        assert (row[5], row[6]) == ("local", "3")


def test_zeros_json_format(capsys):
    code, out, _ = run_cli(
        ["zeros", "--field", "qp", "--p", "3", "--b", "1/3",
         "--imax", "5", "--format", "json"], capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert all(row["class"] == "local" for row in doc["results"])


def test_zeros_output_file(tmp_path, capsys):
    target = tmp_path / "zeros.csv"
    args = ["zeros", "--field", "qp", "--p", "3", "--b", "1/3",
            "--imax", "10", "--output", str(target)]
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    assert out == ""
    first = target.read_bytes()
    code2, _, _ = run_cli(args, capsys)
    assert code2 == 0
    assert target.read_bytes() == first


@pytest.mark.parametrize(
    "window", [["--imax", "1e300"], ["--imin=-1e308", "--imax", "1e308"]],
)
def test_zeros_qp_window_past_the_row_cap_exits_2(window, capsys):
    # two zeros in each period of 2 pi / ln 3: refused before any row of
    # the window is built (the second span overflows to inf)
    code, out, err = run_cli(
        ["zeros", "--field", "qp", "--p", "3", "--b", "1/3", *window], capsys,
    )
    assert code == 2
    assert out == ""
    assert err.startswith("config error: the window could hold more than")


@pytest.mark.parametrize("imax,refused", [("20", False), ("30", True)])
def test_zeros_qp_row_cap_is_degree_times_periods(monkeypatch, capsys, imax, refused):
    # the bound is degree x (ceil(span / period) + 1): two zeros a period of
    # 5.72 give 2 x (4 + 1) = 10 rows for Im in [0, 20], 2 x (6 + 1) = 14
    # for [0, 30]
    monkeypatch.setattr(cli, "_MAX_ZERO_ROWS", 10)
    code, out, err = run_cli(
        ["zeros", "--field", "qp", "--p", "3", "--b", "1/3", "--imax", imax],
        capsys,
    )
    if refused:
        assert code == 2 and err.startswith("config error:")
    else:
        assert code == 0
        assert 1 <= len(out.splitlines()) - 1 <= 10


@pytest.mark.parametrize("argv", [
    ["zeros", "--global", "reference", "--imax", "80"],
    ["zeros", "--global", "reference", "--imin", "0", "--imax", "1e6",
     "--samples", "16"],
    ["global", "--s", "0.5,70"],
], ids=["zeros-imax-80", "zeros-imax-1e6", "global-s-70"])
def test_global_heights_past_the_zeta_cap_exit_2(argv, monkeypatch, capsys):
    # riemann_zeta and dirichlet_l stop at |Im s| = 60: refused before the
    # global function is even assembled
    def unreachable(spec):
        raise AssertionError("evaluated a job the config should refuse")

    monkeypatch.setattr(global_zeta, "factorize_global", unreachable)
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("config error:") and "|Im s| <= 60" in err


@pytest.mark.parametrize("argv", [
    ["zeros", "--global", "reference", "--imax", "30"],
    ["zeros", "--global", "reference", "--imax", "30", "--strict"],
    ["global", "--s", "0.5,14", "--s", "2,0"],
], ids=["zeros", "zeros-strict", "global"])
def test_one_factorization_per_run(argv, monkeypatch, capsys):
    # the run, the zero classifier and the reflection residual all read
    # the spec's cached factorization
    builds = []
    real = global_zeta.GlobalFactorization

    def counted(**fields):
        builds.append(fields["spec"])
        return real(**fields)

    monkeypatch.setattr(global_zeta, "GlobalFactorization", counted)
    code, _, _ = run_cli(argv, capsys)
    assert code == 0
    assert len(builds) == 1


@pytest.mark.parametrize("mapping,refused", [
    ({"command": "zeros", "spec": "reference", "im_hi": 60.0}, False),
    ({"command": "zeros", "spec": "reference", "im_hi": 60.5}, True),
    ({"command": "zeros", "spec": "reference", "im_lo": -60.5, "im_hi": 1.0}, True),
    ({"command": "zeros", "field": "qp", "p": 3, "im_hi": 80.0}, False),
    ({"command": "global", "s": ["0.5,-60"]}, False),
    ({"command": "global", "s": ["2,0", "0.5,-60.5"]}, True),
])
def test_zeta_cap_bounds_global_heights_only(mapping, refused):
    # the height rule is the library's own (specfun._check_height)
    if refused:
        with pytest.raises(DomainError, match=r"\|Im s\| <= 60"):
            JobConfig.from_mapping(mapping)
    else:
        JobConfig.from_mapping(mapping)


# ------------------------------------------------------------------ verify


def test_verify_single_suite(capsys):
    code, out, _ = run_cli(["verify", "--suite", "2"], capsys)
    assert code == 0
    assert out.startswith("PASS criterion 2:")


def test_verify_unknown_suite(capsys):
    code, _, err = run_cli(["verify", "--suite", "77"], capsys)
    assert code == 2
    assert "config error" in err


# -------------------------------------------------------------- weil-index


def test_weil_index_places_and_product(capsys):
    code, out, _ = run_cli(["weil-index"], capsys)
    assert code == 0
    rows = json.loads(out)["results"]
    by_place = {row["place"]: complex(row["gamma"]["re"], row["gamma"]["im"])
                for row in rows}
    assert set(by_place) == {"inf", "2", "product"}
    for g in by_place.values():
        assert abs(abs(g) - 1.0) < 1e-12
    assert abs(by_place["product"] - 1.0) < 1e-12


def test_weil_index_csv_table(capsys):
    code, out, _ = run_cli(["weil-index", "--format", "csv"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "place,gamma_re,gamma_im"
    assert [line.split(",")[0] for line in lines[1:]] == ["inf", "2", "product"]
    assert lines[-1] == "product,1,0"


# ------------------------------------------------------------- exit codes


def test_unknown_flag_exits_2(capsys):
    assert cli.main(["local", "--bogus"]) == 2
    capsys.readouterr()


def test_bad_s_value_exits_2(capsys):
    code, _, err = run_cli(
        ["local", "--field", "qp", "--p", "5", "--s", "nope"], capsys,
    )
    assert code == 2
    assert "config error" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["global", "--s", "nan,1"],
        ["global", "--s", "0.5+infj"],
        ["global", "--s", "2", "--tol", "nan"],
        ["zeros", "--global", "reference", "--imax", "nan"],
        ["zeros", "--global", "reference", "--imin", "1", "--imax", "inf",
         "--samples", "16"],
        ["local", "--field", "real", "--a", "nan", "--s", "2"],
        ["local", "--field", "real", "--b", "inf", "--s", "2"],
    ],
)
def test_non_finite_numbers_exit_2(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("config error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["local", "--field", "qp", "--p", "3", "--a", "0", "--s", "2"],
        ["local", "--field", "real", "--a", "0", "--s", "2"],
        ["local", "--field", "real", "--a", "-0.0", "--s", "2"],
        ["zeros", "--field", "qp", "--p", "5", "--a", "0/7", "--imax", "3"],
    ],
)
def test_zero_quadratic_coefficient_exits_2(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    # the library's refusal (rescale_normal_form, zeta_real), mapped to exit 2
    assert err.startswith("config error: quadratic coefficient must be nonzero")


@pytest.mark.parametrize(
    "argv",
    [
        ["local", "--field", "real", "--a", "1", "--b", "0.5", "--s", "400,0"],
        ["local", "--field", "real", "--a", "1", "--b", "0.5", "--s", "1e300,0"],
        ["global", "--s", "1e10,0"],
        ["local", "--field", "qp", "--p", "3", "--a", "1", "--b", "1/3",
         "--s", "1e300,0"],
    ],
)
def test_float_overflow_is_a_numeric_failure(argv, capsys):
    # accepted inputs whose values overflow a double: no traceback
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("numeric failure: OverflowError:")


def test_nonprime_p_exits_2(capsys):
    code, _, err = run_cli(
        ["local", "--field", "qp", "--p", "4", "--s", "1"], capsys,
    )
    assert code == 2
    assert "config error" in err


@pytest.mark.parametrize("p,refused", [
    (999_999_999_989, False),  # the largest prime below the cap
    (1_000_000_000_039, True),  # the smallest prime above it
    (1_000_000_000_000_000_003, True),
])
def test_p_above_the_cap_exits_2_before_trial_division(p, refused, monkeypatch, capsys):
    # the cap and the trial division are padic_core._require_prime's
    factorize = padic_core._factorize
    calls = []
    monkeypatch.setattr(padic_core, "_factorize", lambda q: calls.append(q) or factorize(q))
    if not refused:
        mapping = {"command": "local", "field": "qp", "p": p, "s": ["2"]}
        assert JobConfig.from_mapping(mapping).p == p
        return
    code, out, err = run_cli(["local", "--field", "qp", "--p", str(p), "--s", "2"], capsys)
    assert code == 2 and out == ""
    assert err == f"config error: the base p must be a prime at most 1000000000000, got {p}\n"
    assert calls == []


@pytest.mark.parametrize("p,chi_mod,refused", [
    (3, 3**10, False),
    (99_991, 99_991, False),
    (3, 3**11, True),
    (100_003, 100_003, True),
])
def test_chi_modulus_above_the_cap_exits_2(p, chi_mod, refused, capsys):
    if not refused:
        mapping = {"command": "local", "field": "qp", "p": p, "chi_mod": chi_mod,
                   "chi_index": 1, "s": ["2"]}
        assert JobConfig.from_mapping(mapping).chi_mod == chi_mod
        return
    code, out, err = run_cli(
        ["local", "--field", "qp", "--p", str(p), "--chi-mod", str(chi_mod),
         "--chi-index", "1", "--s", "2"],
        capsys,
    )
    assert code == 2 and out == ""
    assert err.startswith(f"config error: chi modulus {chi_mod} is above the cap")


@pytest.mark.parametrize("chi_mod", [0, -25, 1, 10])
def test_chi_modulus_not_a_power_of_p_exits_2(chi_mod, capsys):
    # 0 is refused before the p-adic split, which would never end on it
    code, out, err = run_cli(
        ["local", "--field", "qp", "--p", "5", f"--chi-mod={chi_mod}", "--s", "2"],
        capsys,
    )
    assert code == 2 and out == ""
    assert err == f"config error: chi modulus {chi_mod} is not a positive power of 5\n"


@pytest.mark.parametrize("chi_mod", ["25", 25.0, True])
def test_chi_modulus_that_is_not_an_int_is_a_config_error(chi_mod):
    # a mapping, unlike the argparse front end, can hold any JSON value
    mapping = {"command": "local", "field": "qp", "p": 5, "chi_mod": chi_mod,
               "chi_index": 1, "s": ["2"]}
    with pytest.raises(ConfigError, match="chi modulus must be an integer"):
        JobConfig.from_mapping(mapping)


_ZEROS_QP = {"command": "zeros", "field": "qp", "p": 5, "im_hi": 30.0}


@pytest.mark.parametrize("mapping", [
    {**_ZEROS_QP, "samples": "many"},
    {**_ZEROS_QP, "samples": 2048.7},
    {**_ZEROS_QP, "chi_mod": 5, "chi_index": "one"},
    {**_ZEROS_QP, "im_hi": [30]},
    {**_ZEROS_QP, "strict": "false"},
    {"command": "global", "s": ["2"], "tol": None},
    {"command": "global", "s": 5},
    {**_ZEROS_QP, "im_hi": True},
    {"command": "global", "s": ["2"], "output": 5},
])
def test_malformed_mapping_values_are_config_errors(mapping):
    # each of these raised ValueError or TypeError, or was read as some
    # other value (2048.7 as 2048, "false" as True, True as 1.0, 5 as a
    # path)
    with pytest.raises(ConfigError):
        JobConfig.from_mapping(mapping)


@pytest.mark.parametrize("samples,refused", [
    (16, False),
    (2048, False),
    (cli._MAX_SAMPLES, False),
    (cli._MAX_SAMPLES + 1, True),
    (10**9, True),
])
def test_samples_above_the_cap_exit_2(samples, refused, monkeypatch, capsys):
    # scan time and memory grow linearly with the sample count: refused
    # before the global function is even assembled
    if not refused:
        mapping = {"command": "zeros", "spec": "reference", "im_hi": 30.0,
                   "samples": samples}
        assert JobConfig.from_mapping(mapping).samples == samples
        return

    def unreachable(spec):
        raise AssertionError("evaluated a job the config should refuse")

    monkeypatch.setattr(global_zeta, "factorize_global", unreachable)
    code, out, err = run_cli(
        ["zeros", "--global", "reference", "--imax", "30", "--samples", str(samples)],
        capsys,
    )
    assert code == 2 and out == ""
    assert err.startswith(f"config error: --samples {samples} is above the cap")


def test_mw_threads_validation(capsys):
    code, out, _ = run_cli(["verify", "--suite", "2"], capsys)
    assert code == 0
    assert "PASS" in out


def test_local_qp_with_unit_character(capsys):
    code, out, _ = run_cli(
        ["local", "--field", "qp", "--p", "3", "--chi-mod", "3",
         "--chi-index", "0", "--s", "2"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["inputs"]["chi_mod"] == 3 and doc["inputs"]["chi_index"] == 0
    assert len(doc["results"]) == 1


def test_zeros_qp_with_unit_character(capsys):
    code, out, _ = run_cli(
        ["zeros", "--field", "qp", "--p", "5", "--chi-mod", "25",
         "--chi-index", "3", "--imax", "10"],
        capsys,
    )
    assert code == 0
    assert out.startswith("re,im,multiplicity,certified,method,class,place\n")


@pytest.mark.parametrize("command", ["local", "zeros"])
def test_unit_character_index_out_of_range_exits_2(command, capsys):
    tail = ["--s", "2"] if command == "local" else ["--imax", "10"]
    code, out, err = run_cli(
        [command, "--field", "qp", "--p", "3", "--chi-mod", "3",
         "--chi-index", "1", *tail],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert err.startswith("config error: chi index 1 out of range")


@pytest.mark.parametrize("command", ["local", "zeros"])
def test_unit_character_at_2_exits_2(command, capsys):
    # UnitCharacter's own refusal, mapped to exit 2
    tail = ["--s", "2"] if command == "local" else ["--imax", "10"]
    code, out, err = run_cli(
        [command, "--field", "qp", "--p", "2", "--chi-mod", "8", *tail], capsys
    )
    assert code == 2
    assert out == ""
    assert err.startswith(
        "config error: ramified characters at p = 2 are out of scope"
    )


def _scipy_modules_after(code):
    """The scipy modules loaded, in a fresh interpreter on the source tree,
    after each statement of code: one sorted list per statement."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    record = "seen.append(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    probe = "\n".join(
        ["import json, sys", "seen = []"]
        + [part for line in code for part in (line, record)]
        + ["print(json.dumps(seen))"]
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src), check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def test_cli_import_loads_no_scipy():
    # only the hermitian, radial and square oracles need scipy, and they
    # load it on their first call: neither the CLI nor a verify suite
    # that runs none of them does
    seen = _scipy_modules_after([
        "import weakmellin.cli",
        "weakmellin.cli.main(['verify', '--suite', '1'])",
    ])
    assert seen == [[], []]


@pytest.mark.parametrize("code", [
    "import weakmellin.acceptance",
    "import weakmellin.oracle",
    "from weakmellin.oracle import oracle_padic_mellin; oracle_padic_mellin(1, 0, 3, 2)",
    "from weakmellin.oracle import oracle_real_mellin; oracle_real_mellin(1, 0.5, 0.7+0.2j)",
    "from weakmellin.acceptance import run_criterion; run_criterion(1)",
], ids=["acceptance", "oracle", "padic", "real", "criterion-1"])
def test_oracles_load_no_scipy_until_one_needs_it(code):
    seen = _scipy_modules_after([
        code, "from weakmellin.oracle import oracle_radial_mellin; oracle_radial_mellin(1, 0.5, 3, 0.7)",
    ])
    assert seen[0] == []
    assert "scipy.special" in seen[1]


@pytest.mark.parametrize("b", ["0", "1/999999999989"])
def test_local_qp_at_a_prime_near_the_cap_finishes(b):
    # v(a) odd at the largest prime below the --p cap: the Gauss phase is
    # read off a Legendre symbol, where a residue sum would visit about p
    # residues
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    argv = ["local", "--field", "qp", "--p", "999999999989",
            "--a", "1/999999999989", "--b", b, "--s", "2"]
    done = subprocess.run(
        [sys.executable, "-m", "weakmellin.cli", *argv], capture_output=True,
        text=True, env=dict(os.environ, PYTHONPATH=src), timeout=20,
    )
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr
    assert json.loads(done.stdout)["results"][0]["value"]


_AT_THE_CAPS = {
    # ramified factors of conductor at the chi-modulus cap of 10^5
    "ramified-99991": ("local --field qp --p 99991 --chi-mod 99991 --chi-index 7 --a 1 --b 1/99991 --s 2", 0),
    "ramified-99991-b0": ("local --field qp --p 99991 --chi-mod 99991 --chi-index 7 --a 1/99991 --b 0 --s 2", 0),
    "ramified-313^2": ("local --field qp --p 313 --chi-mod 97969 --chi-index 5 --a 1/313 --b 1/30664297 --s 2", 0),
    "ramified-99991-zeros": ("zeros --field qp --p 99991 --chi-mod 99991 --chi-index 7 --a 1 --b 1/9998200081 --imax 1", 0),
    # the largest prime below the --p cap, v(a) and v(b) odd
    "unramified-p-cap-zeros": ("zeros --field qp --p 999999999989 --a 1/999999999989 --b 1/999999999989 --imax 1", 0),
    # 317^2, the least prime square past the chi-modulus cap
    "chi-mod-317^2": ("local --field qp --p 317 --chi-mod 100489 --chi-index 5 --a 1 --b 1/100489 --s 2", 2),
}


@pytest.mark.parametrize("argv,code", _AT_THE_CAPS.values(), ids=_AT_THE_CAPS.keys())
def test_cli_at_the_input_caps_ends_in_an_exit_code(argv, code):
    # each takes about 0.2 s with Python start-up; the timeout bounds an
    # accepted input that would run for hours
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    done = subprocess.run(
        [sys.executable, "-m", "weakmellin.cli", *argv.split()], capture_output=True,
        text=True, env=dict(os.environ, PYTHONPATH=src), timeout=20,
    )
    assert done.returncode == code, done.stderr
    assert "Traceback" not in done.stderr


# ------------------------------------------------------------ CLI grammar

# small primes, composites, 0, 1 and the --p cap (itself composite)
_GRAMMAR_P = (2, 3, 5, 7, 4, 9, 15, 0, 1, 10**12)
_HEIGHT = st.floats(-80.0, 80.0)


def _point(draw, re_lo, re_hi):
    return f"{draw(st.floats(re_lo, re_hi))!r},{draw(_HEIGHT)!r}"


def _padic_rational(draw, p):
    k = draw(st.integers(1, 3))
    return draw(st.sampled_from(("0", "1", "-1", f"1/{p**k}", f"{p**k}")))


@st.composite
def _cli_argv(draw):
    """One `local --field qp|real`, `global` or `zeros --field qp` command
    line; every value is passed as --flag=value, so a negative number is
    not read as a flag."""
    command = draw(st.sampled_from(("local-qp", "local-real", "global", "zeros-qp")))
    if command == "global":
        count = draw(st.integers(1, 2))
        return ["global", *(f"--s={_point(draw, -1.0, 2.0)}" for _ in range(count))]
    if command == "local-real":
        return ["local", "--field", "real",
                f"--a={draw(st.sampled_from((0.0, 1.0, -1.0, 0.5, -2.0)))!r}",
                f"--b={draw(st.floats(-15.0, 15.0))!r}",
                f"--char={draw(st.sampled_from(('trivial', 'sign')))}",
                f"--s={_point(draw, -2.0, 3.0)}"]
    p = draw(st.sampled_from(_GRAMMAR_P))
    argv = ["local" if command == "local-qp" else "zeros", "--field", "qp",
            f"--p={p}", f"--a={_padic_rational(draw, p)}",
            f"--b={_padic_rational(draw, p)}"]
    n = draw(st.sampled_from((None, 1, 2)))
    if n is not None:
        argv += [f"--chi-mod={p**n}", f"--chi-index={draw(st.integers(0, 2))}"]
    if command == "local-qp":
        return argv + [f"--s={_point(draw, -1.0, 3.0)}"]
    lo, hi = sorted((draw(_HEIGHT), draw(_HEIGHT)))
    return argv + [f"--imin={lo!r}", f"--imax={hi!r}"]


@settings(max_examples=120, deadline=None)
@given(_cli_argv())
def test_cli_grammar_ends_in_an_exit_code_with_its_message(argv):
    # in-process: no exception escapes main, exit 2 is a config error and
    # exit 1 a numeric or certification failure, never a domain refusal
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    if code == 2:
        assert err.startswith("config error:") and out == ""
    elif code == 1:
        assert err.startswith(("numeric failure:", "certification failure:"))
        assert "DomainError" not in err and "DegenerateError" not in err
    else:
        assert err == "" and out
