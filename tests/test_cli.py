"""CLI surface: config canonicalization, artifacts, determinism, exits."""

import json
import os
import subprocess
import sys

import pytest

from weakmellin import cli
from weakmellin.arch_zeta import RealSign, zeta_real
from weakmellin.cli import ConfigError, JobConfig


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
        ["local", "--field", "real", "--a", "1", "--b", "0.5", "--s", "400,0"],
        ["local", "--field", "real", "--a", "1", "--b", "0.5", "--s", "1e300,0"],
        ["global", "--s", "1e10,0"],
        ["local", "--field", "qp", "--p", "3", "--a", "1", "--b", "1/3",
         "--s", "1e300,0"],
        ["zeros", "--global", "reference", "--imin", "0", "--imax", "1e6",
         "--samples", "16"],
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


def test_cli_import_loads_no_scipy():
    # only verify needs the oracles, and with them scipy
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    probe = (
        "import sys, weakmellin.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        env=env, check=True,
    )
    assert done.stdout.strip() == "[]"
