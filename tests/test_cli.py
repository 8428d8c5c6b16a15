from __future__ import annotations

import csv
import hashlib
import io
import json
from collections import Counter
from pathlib import Path

import pytest

from christoffel import mp_family, mp_symmetry_residual, zeros
from christoffel.cli import (
    ENV_PRECISION,
    RunConfig,
    _flatten,
    build_parser,
    main,
    run_decompose,
    run_table,
    run_verify,
)


REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference.json"


def _strip_timestamp(text: str) -> str:
    data = json.loads(text)
    data["meta"].pop("timestamp")
    return json.dumps(data, indent=2, ensure_ascii=False)


def _matches_reference(text: str, key: str) -> bool:
    """The report, without meta.timestamp, hashes to the recorded digest."""
    digest = hashlib.sha256((_strip_timestamp(text) + "\n").encode("utf-8")).hexdigest()
    return digest == json.loads(REFERENCE.read_text(encoding="utf-8"))["reports"][key]["sha256"]


def test_table2_all_rows_pass():
    config = RunConfig(command="table", table_id=2)
    report = run_table(2, config)
    assert report.summary == {"rows": 4, "pass": 4, "flagged": 0, "fail": 0}
    assert report.exit_code == 0
    for row in report.rows:
        assert set(row["cells"].values()) == {"pass"}


def test_table1_has_single_flagged_cell():
    report = run_table(1, RunConfig(command="table", table_id=1))
    assert report.summary["fail"] == 0
    assert report.summary["flagged"] == 1
    flagged = [r for r in report.rows if r["verdict"] == "flagged"]
    assert len(flagged) == 1
    assert flagged[0]["inputs"]["phi"] == "1.57"
    assert flagged[0]["cells"]["B2"] == "flagged"


def test_table3_flags_recorded_and_extra_misprints():
    report = run_table(3, RunConfig(command="table", table_id=3))
    assert report.summary["fail"] == 0
    cells = {
        (row["inputs"]["a"], row["inputs"]["b"]): row["cells"] for row in report.rows
    }
    assert cells[("-55", "5")]["B2"] == "flagged"
    assert cells[("-35", "1")]["B0"] == "flagged"
    # recomputed smallest zeros of the first two rows disagree with print
    assert cells[("-35", "8")]["x_min"] == "flagged"
    assert cells[("-35", "1")]["x_min"] == "flagged"
    assert cells[("-35", "0")] == {c: "pass" for c in cells[("-35", "0")]}


def test_json_deterministic_modulo_timestamp():
    config = RunConfig(command="table", table_id=2)
    first = run_table(2, config).to_json()
    second = run_table(2, config).to_json()
    assert _strip_timestamp(first) == _strip_timestamp(second)


def test_csv_and_json_carry_identical_row_data():
    config = RunConfig(command="table", table_id=2)
    report = run_table(2, config)
    parsed = list(csv.DictReader(io.StringIO(report.to_csv())))
    assert len(parsed) == len(report.rows)
    for row, csv_row in zip(report.rows, parsed):
        flat = _flatten(row)
        for key, value in flat.items():
            assert csv_row[key] == value


def test_decompose_command_row():
    config = RunConfig(command="decompose", family="mp", lam="0.5", phi="0.9", n=8, m=2, k=2)
    report = run_decompose(config)
    row = report.rows[0]
    assert row["verdict"] == "pass"
    assert row["computed"]["deg_a"] == 2
    assert row["computed"]["deg_G"] == 1
    assert row["computed"]["linear_G"] is True
    assert len(row["computed"]["d"]) == 5


def test_main_writes_file_and_prints(tmp_path, capsys):
    out = tmp_path / "t2.json"
    assert main(["--table", "2", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["summary"]["fail"] == 0
    assert capsys.readouterr().out == ""
    assert main(["--table", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["summary"]["pass"] == 4


def test_main_csv_format(capsys):
    assert main(["--table", "2", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    header = out.splitlines()[0]
    assert header.startswith("inputs.a,inputs.b,inputs.n,computed.")


def test_exit_code_on_config_errors(capsys):
    # precondition violation: degree 5 needs a < -5
    code = main(["--decompose", "--family", "pj", "--a", "-5", "--b", "1", "--n", "5", "--m", "2", "--k", "1"])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err
    assert main(["--decompose", "--family", "mp", "--lambda", "0.5", "--phi", "0.9", "--n", "8", "--m", "2"]) == 2
    assert main(["--table", "2", "--precision-bits", "32"]) == 2
    capsys.readouterr()


def test_exit_code_on_numerical_failure(capsys):
    # phi next to pi: c g has components below the basis range of the expansion
    argv = ["--decompose", "--family", "mp", "--lambda", "0.5", "--phi", "3.14159265", "--n", "8", "--m", "2", "--k", "2"]
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith("numerical failure: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["--decompose", "--family", "mp", "--lambda", "inf", "--phi", "0.9", "--n", "5", "--m", "2", "--k", "1"],
        ["--decompose", "--family", "pj", "--a", "-inf", "--b", "1", "--n", "5", "--m", "2", "--k", "1"],
        ["--decompose", "--family", "pj", "--a", "-20", "--b", "nan", "--n", "5", "--m", "2", "--k", "1"],
        ["--grid", "--n", "4", "--rel-tol", "nan"],
        ["--verify", "--rel-tol", "-1"],
        ["--table", "2", "--abs-tol", "inf"],
    ],
)
def test_non_finite_or_negative_inputs_are_configuration_errors(argv, capsys):
    # rejected where the value is read, not later as a numerical failure
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and "must be" in err and "finite" in err


def test_verify_shares_its_families(monkeypatch, policy):
    solved = Counter()
    solve = zeros._solve

    def counted(family, n, policy):
        solved[family.label, n] += 1
        return solve(family, n, policy)

    monkeypatch.setattr(zeros, "_solve", counted)
    run_verify(RunConfig(command="verify"))
    assert sum(solved.values()) == 19
    assert set(solved.values()) == {1}

    fam = mp_family("0.5", "0.9", policy)
    mp_symmetry_residual(fam, 5, "1.3", policy)
    mirror = fam.owned("mirror", lambda: pytest.fail("the mirror is not kept by the family"))
    mp_symmetry_residual(fam, 7, "0.4", policy)
    assert fam.owned("mirror", lambda: None) is mirror


def test_exit_code_contract_on_failures():
    from christoffel.cli import Report

    failing = Report(meta={}, rows=[{"verdict": "fail"}], summary={"rows": 1, "pass": 0, "flagged": 0, "fail": 1})
    assert failing.exit_code == 1
    flagged = Report(meta={}, rows=[{"verdict": "flagged"}], summary={"rows": 1, "pass": 0, "flagged": 1, "fail": 0})
    assert flagged.exit_code == 0


def test_argparse_rejects_unknown_modes():
    with pytest.raises(SystemExit) as err:
        build_parser().parse_args(["--table", "7"])
    assert err.value.code == 2
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


@pytest.mark.parametrize("argv", [["--a", "-1e30", "--b", "-2.5e3"], ["--a=-1e30", "--b=-2.5e3"]])
def test_negative_exponent_values_parse(argv):
    args = build_parser().parse_args(["--decompose", "--family", "pj", *argv])
    assert (args.a, args.b) == ("-1e30", "-2.5e3")


@pytest.mark.parametrize("a", [["--a", "-2e1"], ["--a=-2e1"]])
def test_negative_exponent_values_run(a, capsys):
    assert main(["--decompose", "--family", "pj", *a, "--b", "8", "--n", "9", "--m", "4", "--k", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["summary"]["pass"] == 1


def test_env_precision_override(monkeypatch, capsys):
    monkeypatch.setenv(ENV_PRECISION, "128")
    assert main(["--table", "2"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["meta"]["precision_bits"] == 128
    assert data["summary"]["fail"] == 0


def test_explicit_precision_beats_env(monkeypatch, capsys):
    monkeypatch.setenv(ENV_PRECISION, "128")
    assert main(["--table", "2", "--precision-bits", "192"]) == 0
    assert json.loads(capsys.readouterr().out)["meta"]["precision_bits"] == 192


def test_verify_scales_to_low_precision(capsys):
    # thresholds are derived from the policy, so the suites stay green at 64 bits
    assert main(["--verify", "--precision-bits", "64"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["summary"]["fail"] == 0
    assert data["meta"]["precision_bits"] == 64


def test_verify_default_precision_passes(capsys):
    assert main(["--verify"]) == 0
    out = capsys.readouterr().out
    assert _matches_reference(out, "verify")
    data = json.loads(out)
    assert data["summary"]["fail"] == 0
    suites = {r["suite"] for r in data["rows"]}
    assert {
        "recurrence",
        "associated-bridge",
        "extension",
        "mp-symmetry",
        "transform-oracle",
        "decomposition-residual",
        "decomposition-degrees",
        "stieltjes",
        "gauss-orthogonality",
        "transform-discrete-orthogonality",
        "bound-separation",
    } <= suites


def test_default_grid_is_byte_identical_to_reference(capsys):
    assert main(["--grid"]) == 0
    assert _matches_reference(capsys.readouterr().out, "grid")


def test_grid_beyond_default_degree_cap(capsys):
    # k runs to m + 2 = 15 at n = 13, past the modifiers the default grid needs
    assert main(["--grid", "--n", "13"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["summary"] == {"rows": 660, "pass": 660, "flagged": 0, "fail": 0}


def test_small_grid_runs_clean(capsys):
    assert main(["--grid", "--n", "5"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["summary"]["fail"] == 0
    assert data["summary"]["rows"] == sum(m + 3 for n in (4, 5) for m in range(2, n + 1))
    by_key = {
        (r["inputs"]["n"], r["inputs"]["m"], r["inputs"]["k"]): r["computed"] for r in data["rows"]
    }
    # gap-2 order-zero decomposition reduces to the recurrence itself
    assert by_key[(4, 2, 0)]["deg_a"] == 0
    assert by_key[(4, 2, 0)]["deg_G"] == 1
    assert by_key[(4, 2, 3)]["interlace"].startswith("fails")
    assert by_key[(4, 2, 1)]["interlace"] == "holds"
