from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import json
from collections import Counter
from pathlib import Path

import pytest
from mpmath import mp

from christoffel import (
    DEFAULT_POLICY,
    Polynomial,
    cli,
    connection_decompose,
    custom_family,
    even_modifier,
    inner_bound,
    mp_family,
    mp_symmetry_residual,
    polynomial_real_roots,
    transform,
    values_ladder,
    zeros,
    zeros_golub_welsch,
)
from christoffel.cli import (
    ENV_PRECISION,
    RunConfig,
    _family,
    _flatten,
    build_parser,
    config_from_args,
    dispatch,
    main,
)
from christoffel.core import _unpack

from polyhelpers import assert_grid_q_is_the_mpf_route
from polyhelpers import solved_span_label as _solved_span_label


REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference.json"


def _strip_timestamp(text: str) -> str:
    data = json.loads(text)
    data["meta"].pop("timestamp")
    return json.dumps(data, indent=2, ensure_ascii=False)


def _digest(text: str) -> str:
    """SHA-256 of the report without meta.timestamp."""
    return hashlib.sha256((_strip_timestamp(text) + "\n").encode("utf-8")).hexdigest()


def _matches_reference(text: str, key: str) -> bool:
    """The report, without meta.timestamp, hashes to the recorded digest."""
    return _digest(text) == json.loads(REFERENCE.read_text(encoding="utf-8"))["reports"][key]["sha256"]


def test_table2_all_rows_pass():
    config = RunConfig(command="table", table_id=2)
    report = dispatch(config)
    assert report.summary == {"rows": 4, "pass": 4, "flagged": 0, "fail": 0}
    assert report.exit_code == 0
    for row in report.rows:
        assert set(row["cells"].values()) == {"pass"}


def test_table1_has_single_flagged_cell():
    report = dispatch(RunConfig(command="table", table_id=1))
    assert report.summary["fail"] == 0
    assert report.summary["flagged"] == 1
    flagged = [r for r in report.rows if r["verdict"] == "flagged"]
    assert len(flagged) == 1
    assert flagged[0]["inputs"]["phi"] == "1.57"
    assert flagged[0]["cells"]["B2"] == "flagged"


def test_table3_flags_recorded_and_extra_misprints():
    report = dispatch(RunConfig(command="table", table_id=3))
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
    first = dispatch(config).to_json()
    second = dispatch(config).to_json()
    assert _strip_timestamp(first) == _strip_timestamp(second)


def test_csv_and_json_carry_identical_row_data():
    config = RunConfig(command="table", table_id=2)
    report = dispatch(config)
    parsed = list(csv.DictReader(io.StringIO(report.to_csv())))
    assert len(parsed) == len(report.rows)
    for row, csv_row in zip(report.rows, parsed):
        flat = _flatten(row)
        for key, value in flat.items():
            assert csv_row[key] == value


def test_decompose_command_row(capsys):
    config = RunConfig(command="decompose", family="mp", lam="0.5", phi="0.9", n=8, m=2, k=2)
    report = dispatch(config)
    row = report.rows[0]
    assert row["verdict"] == "pass"
    assert row["computed"]["deg_a"] == 2
    assert row["computed"]["deg_G"] == 1
    assert row["computed"]["linear_G"] is True
    assert len(row["computed"]["d"]) == 5
    # the CSV row joins each list field's entries with ";", in order
    argv = ["--decompose", "--family", "mp", "--lambda", "0.5", "--phi", "0.9", "--n", "8", "--m", "2", "--k", "2"]
    assert main([*argv, "--format", "csv"]) == 0
    [csv_row] = csv.DictReader(io.StringIO(capsys.readouterr().out))
    for key in ("a_coeffs", "G_coeffs", "g_coeffs", "d"):
        assert csv_row[f"computed.{key}"].split(";") == [str(v) for v in row["computed"][key]]


def test_main_writes_file_and_prints(tmp_path, capsys):
    out = tmp_path / "t2.json"
    assert main(["--table", "2", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["summary"]["fail"] == 0
    assert capsys.readouterr().out == ""
    assert main(["--table", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["summary"]["pass"] == 4


def test_main_unwritable_out_is_configuration_error(tmp_path, capsys):
    out = tmp_path / "missing" / "x.json"
    assert main(["--table", "2", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"configuration error: cannot write {out}")
    assert not out.parent.exists()


@pytest.mark.parametrize(
    "argv, unread",
    [
        (["--table", "2", "--lambda", "3", "--n", "9"], "--lambda, --n"),
        (["--verify", "--family", "mp", "--k", "2"], "--family, --k"),
        (["--grid", "--family", "pj", "--a", "-20", "--b", "8"], "--family, --a, --b"),
        (["--grid", "--n", "5", "--m", "3"], "--m"),
        (["--decompose", "--family", "mp", "--lambda", "0.5", "--phi", "0.9", "--b", "8",
          "--n", "8", "--m", "2", "--k", "2"], "--b"),
        (["--decompose", "--family", "pj", "--a", "-20", "--b", "8", "--lambda", "0.5",
          "--n", "8", "--m", "2", "--k", "1"], "--lambda"),
    ],
)
def test_flags_the_mode_does_not_read_are_rejected(argv, unread, capsys):
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"configuration error: --{argv[0][2:]} does not read {unread}\n")


def test_main_csv_format(capsys):
    assert main(["--table", "2", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    header = out.splitlines()[0]
    assert header.startswith("inputs.a,inputs.b,inputs.n,computed.")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "00fdc1302270ca14ab51497ddcc7b61ef611c494648060dc6bc7799140a3db58"
    )


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["--decompose", "--family", "mp", "--lambda", "0.5", "--phi", "0.9", "--n", "8", "--m", "2", "--k", "2"],
         "b2fe3b55df2f51950b5eef5d86502160a70053038becff3e34ccbf7d1db481c2"),
        (["--decompose", "--family", "pj", "--a", "-20", "--b", "8", "--n", "9", "--m", "4", "--k", "1"],
         "c0ca1f2b0f88a0b5504943bb6d926d66dd1e149a98e0210cbd932444b1466c38"),
        # (1+x^2)^2: the zero pair +-i twice
        (["--decompose", "--family", "pj", "--a", "-20", "--b", "8", "--n", "8", "--m", "2", "--k", "2"],
         "b6874b9c9b486891b5fc908ed3dc6a513b0301e7a086ac36720a7cee7f30811a"),
    ],
)
def test_decompose_reports_are_pinned(argv, digest, capsys):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert _digest(out) == digest
    row = json.loads(out)["rows"][0]
    assert row["verdict"] == "pass"
    if row["computed"]["B"] is not None:
        # G is linear, and its root is the inner bound B_n(k) of the report's family
        config = config_from_args(build_parser().parse_args(argv))
        bound = inner_bound(_family(config, DEFAULT_POLICY), config.n, config.k)
        assert row["computed"]["B"] == mp.nstr(bound, 12)


@pytest.mark.parametrize(
    "argv, code, err",
    [
        (["--decompose", "--family", "mp", "--lambda", "0.5", "--phi", "3.14159265", "--n", "8", "--m", "2", "--k", "2"], 3,
         "numerical failure: modified polynomial has components below the expected basis range; "
         "the transform inputs are inconsistent\n"),
        (["--decompose", "--family", "mp", "--lambda", "0.5", "--n", "8", "--m", "2", "--k", "2"], 2,
         "configuration error: Meixner-Pollaczek needs --lambda and --phi\n"),
        (["--decompose", "--family", "pj", "--a", "-20", "--n", "8", "--m", "2", "--k", "1"], 2,
         "configuration error: Pseudo-Jacobi needs --a and --b\n"),
    ],
)
def test_decompose_failures_are_pinned(argv, code, err, capsys):
    assert main(argv) == code
    assert capsys.readouterr() == ("", err)


def test_reports_print_at_any_precision(capsys):
    # mp.nstr writes the whole mantissa out as a decimal integer, and Python
    # converts no integer of more than 4300 digits (about 14,300 bits)
    argv = ["--decompose", "--family", "mp", "--lambda", "0.5", "--phi", "0.9", "--n", "4", "--m", "2", "--k", "1"]
    assert main([*argv, "--precision-bits", "16000"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)["rows"][0]["verdict"] == "pass"
    for bits in (53, 4096, 16000):
        with mp.workprec(bits):
            third = mp.mpf(1) / 3
        assert cli._fmt(third) == "0.333333333333"
        assert cli._fmt(third, 3) == "0.333"
    # a value of at most 4096 bits prints as nstr prints it
    with mp.workprec(4096):
        near = 1 - mp.ldexp(1, -4095)
    assert cli._fmt(near, 1300) == mp.nstr(near, 1300)


@pytest.mark.parametrize(
    "argv, value",
    [
        (["--table", "2", "--rel-tol", "abc"], "'abc'"),
        (["--table", "2", "--rel-tol", ""], "''"),
        (["--decompose", "--family", "mp", "--lambda", "abc", "--phi", "0.9", "--n", "8", "--m", "2", "--k", "2"], "'abc'"),
        (["--grid", "--lambda", "1+2j", "--n", "4"], "complex '1+2j'"),
        (["--grid", "--lambda="], "''"),
        (["--grid", "--phi="], "''"),
    ],
)
def test_flag_values_that_are_not_real_numbers_are_configuration_errors(argv, value, capsys):
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"configuration error: expected a real number, got {value}\n")


def test_parser_destinations_are_run_config_fields():
    # config_from_args copies the parsed flags into RunConfig by name
    dests = {action.dest for action in build_parser()._actions if action.dest != "help"}
    assert dests == {field.name for field in dataclasses.fields(RunConfig)}


def test_exit_code_on_config_errors(capsys):
    # precondition violation: degree 5 needs a < -5
    code = main(["--decompose", "--family", "pj", "--a", "-5", "--b", "1", "--n", "5", "--m", "2", "--k", "1"])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err
    assert main(["--decompose", "--family", "mp", "--lambda", "0.5", "--phi", "0.9", "--n", "8", "--m", "2"]) == 2
    assert main(["--table", "2", "--precision-bits", "32"]) == 2
    capsys.readouterr()
    assert main(["--grid", "--n", "0"]) == 2
    assert capsys.readouterr().err == "configuration error: grid needs --n of at least 4\n"
    # two zeros of p_30 are 0.95 apart: the tolerance, not the solver, is at fault
    assert main(["--table", "1", "--abs-tol", "1"]) == 2
    assert capsys.readouterr().err.startswith("configuration error: abs_tol 1.0 is at least the gap ")


def test_exit_code_on_numerical_failure(capsys):
    # phi next to pi: c g has components below the basis range of the expansion
    argv = ["--decompose", "--family", "mp", "--lambda", "0.5", "--phi", "3.14159265", "--n", "8", "--m", "2", "--k", "2"]
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith("numerical failure: ")
    # rel_tol 1 chops every coefficient of G, so the first grid cell's connection coefficient is 0
    assert main(["--grid", "--n", "4", "--rel-tol", "1"]) == 3
    assert capsys.readouterr().err == "numerical failure: connection coefficient G vanished\n"


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
    # bound separation finishes only the extreme zeros, so a spectrum is the unit of zero work
    spectra, polished = Counter(), Counter()
    spectrum, polish = zeros._Spectrum, zeros._polish

    def counted(family, n, policy):
        spectra[family.label, n] += 1
        return spectrum(family, n, policy)

    def polished_once(rows, label, n, lo, hi, *args):
        polished[label, n, lo, hi] += 1
        return polish(rows, label, n, lo, hi, *args)

    built = []
    determinant = transform.christoffel_transform

    def transformed(family, modifier, deg, policy):
        built.append((family.label, modifier.k, deg))
        return determinant(family, modifier, deg, policy)

    monkeypatch.setattr(zeros, "_Spectrum", counted)
    monkeypatch.setattr(zeros, "_polish", polished_once)
    for module in (cli, transform):
        monkeypatch.setattr(module, "christoffel_transform", transformed)
    dispatch(RunConfig(command="verify"))
    assert sum(spectra.values()) == 19
    assert set(spectra.values()) == set(polished.values()) == {1}
    # the transform oracle's 4 x 7 transforms; the discrete-orthogonality
    # suite reads its MP k = 2 ones instead of building them again
    assert len(built) == len(set(built)) == 28

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


def test_env_precision_must_be_an_integer(monkeypatch, capsys):
    monkeypatch.setenv(ENV_PRECISION, "abc")
    assert main(["--table", "2"]) == 2
    assert capsys.readouterr() == ("", f"configuration error: {ENV_PRECISION} must be an integer number of bits, got 'abc'\n")


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


@pytest.mark.parametrize("table", [1, 2, 3])
def test_tables_are_byte_identical_to_reference(table, capsys):
    assert main(["--table", str(table)]) == 0
    assert _matches_reference(capsys.readouterr().out, f"table{table}")


# these grids run once per session (conftest.py); each test parses its own copy of the report
_N13 = ("--grid", "--n", "13")
_PINNED_GRIDS = {
    ("--grid", "--lambda", "3.25", "--phi", "2.4", "--n", "9"): "934f4166d64639fae572c1cb85c04f6712e7b59959ca690761288569939f0a68",
    ("--grid", "--phi", "1.5707963267948966", "--n", "8"): "d1d3db285a870c7af11b3947788fadf6000b7f51fd4d473a3c113a8dbec6983c",
    ("--grid", "--lambda", "0.05", "--phi", "3.0", "--n", "8"): "c38f885ee10e766ba07deb1b7d42657ecf77ea5fe9d5b3b03116b9f6b72bd8df",
}


def test_default_grid_is_byte_identical_to_reference(default_grid):
    assert default_grid.run.code == 0
    assert _matches_reference(default_grid.run.out, "grid")


@pytest.fixture
def n13_grid(cli_runs):
    return cli_runs(_N13)


def test_grid_beyond_default_degree_cap(n13_grid):
    # k runs to m + 2 = 15 at n = 13, past the modifiers the default grid needs
    assert n13_grid.code == 0
    assert json.loads(n13_grid.out)["summary"] == {"rows": 660, "pass": 660, "flagged": 0, "fail": 0}
    assert _digest(n13_grid.out) == "1246341c3863f0e73df0d610b144fc6f735bc5e7059971e496026522d8a38124"


@pytest.mark.parametrize(
    "grid_run, digest",
    [pytest.param(argv, digest, id=f"argv{i}-{digest}") for i, (argv, digest) in enumerate(_PINNED_GRIDS.items())],
    indirect=["grid_run"],
)
def test_grid_reports_are_pinned(grid_run, digest):
    assert grid_run.code == 0
    assert _digest(grid_run.out) == digest


def test_grid_builds_each_modifier_once(default_grid):
    assert default_grid.modifiers == list(range(15))  # k runs to m + 2 = 14


def test_grid_asserts_interlacing_for_every_k_up_to_m(monkeypatch, capsys):
    # cell (6, 3, 3) forced not to interlace: the theorem covers it, not only m = 2
    cells, decompose = [], cli.connection_decompose

    def interlace(*args):
        verdict = zeros.interlace_strict(*args)
        return dataclasses.replace(verdict, strict=False) if (cells[-1].n, cells[-1].m, cells[-1].k) == (6, 3, 3) else verdict

    monkeypatch.setattr(cli, "connection_decompose", lambda *args: cells.append(decompose(*args)) or cells[-1])
    monkeypatch.setattr(cli, "interlace_strict", interlace)
    assert main(["--grid", "--n", "6"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["summary"] == {"rows": 79, "pass": 78, "flagged": 0, "fail": 1}
    [failed] = [r for r in data["rows"] if r["verdict"] == "fail"]
    assert failed["inputs"] == {"n": 6, "m": 3, "k": 3}
    assert failed["computed"]["interlace"] == "fails"


def test_grid_keeps_no_shift_by_zero(default_grid):
    assert default_grid.run.code == 0
    [fam] = default_grid.families
    # k = 0 cells read the family itself; k = 1..14 each keep one shifted family
    assert sorted(key[1] for key in fam._store if key[0] == "shifted") == list(range(1, 15))
    assert fam.shifted(0) is fam
    assert ("shifted", 0) not in fam._store


def test_grid_solves_only_the_zeros_of_p_n(default_grid):
    assert default_grid.run.code == 0
    # once per n; the zeros of g outside the span are sign counts on the sweep
    assert default_grid.solved == {(mp_family("0.5", "0.9").label, n): 1 for n in range(4, 13)}


@pytest.mark.parametrize(
    "grid_run",
    [_N13, *_PINNED_GRIDS, ("--grid", "--lambda", "20", "--phi", "0.1", "--n", "9")],  # n = 13 holds the default grid's cells
    ids=["0.5-0.9-13", "3.25-2.4-9", "0.5-1.5707963267948966-8", "0.05-3.0-8", "20-0.1-9"],
    indirect=True,
)
def test_grid_span_counts_match_solved_zeros(grid_run, policy):
    # the m = 2, k = 3 cells name their failure from sign counts on the sweep
    # rows; solving g's zeros, the grid's former route, is the oracle
    meta, rows = (json.loads(grid_run.out)[key] for key in ("meta", "rows"))
    labels = {r["inputs"]["n"]: r["computed"]["interlace"] for r in rows if r["inputs"]["m"] == 2 and r["inputs"]["k"] == 3}
    assert sorted(labels) == list(range(4, meta["n_max"] + 1))
    fam = mp_family(meta["lambda"], meta["phi"], policy)
    assert labels == {n: _solved_span_label(fam, n, policy) for n in labels}


def test_sweep_sign_changes_count_the_zeros_above(policy):
    # Sturm property: sign changes of p_0(x), ..., p_d(x), zero entries
    # dropped, count the zeros of p_d above x.  With C = 0 and Lambda = 1,
    # p_j(0) = 0 for every odd j, so the zero entries are exact.
    fam = custom_family(lambda j: mp.mpf(0), lambda j: mp.mpf(1), policy=policy)
    for d in range(1, 8):
        zs = zeros_golub_welsch(fam, d, policy)
        with policy.workprec():
            near = [z + s * mp.mpf("1e-9") for z in zs.values for s in (-1, 1)]
            points = [mp.mpf(0), mp.mpf(-3), mp.mpf(3), mp.mpf("0.3"), *near]
            for x in points:
                values = [v for v, _ in values_ladder(fam, d, x, policy)]
                assert cli._sign_changes(values) == sum(1 for z in zs.values if z > x and abs(z - x) > policy.abs_tol)


def _kernel_sweeps(fam, d, zp, policy) -> list:
    """``_grid_interlace``'s rows: fam's sweep rows at the zeros zp, as kernel pairs."""
    return [[(*_unpack(v._mpf_), *_unpack(s._mpf_)) for v, s in values_ladder(fam, d, x, policy)] for x in zp.values]


def test_grid_span_count_keeps_zeros_at_the_extremes_inside(policy):
    # g = p_5 of C = 0, Lambda = 1, with zeros 0, +-1, +-sqrt(3), against the
    # span [0, 1]: the zeros at both ends are not outside, -sqrt(3), -1 and
    # sqrt(3) are; a constant G adds no roots
    fam = mp_family("0.5", "0.9", policy)
    decomp = connection_decompose(fam, even_modifier(fam, 3, policy), 7, 2, policy)
    g_fam = custom_family(lambda j: mp.mpf(0), lambda j: mp.mpf(1), policy=policy)
    zp = zeros.ZeroSet((mp.mpf(0), mp.mpf(1)), "span")
    rows = _kernel_sweeps(g_fam, 5, zp, policy)
    assert rows[0][5][0] == rows[1][5][0] == 0
    cell = dataclasses.replace(decomp, G_poly=Polynomial([1]))
    assert cli._grid_interlace(cell, zp, rows, policy) == "fails(size 5 vs 1, 3 outside span)"


def test_grid_interlace_names_each_failure(policy):
    fam = mp_family("0.5", "0.9", policy)
    n, m, k = 6, 3, 2
    decomp = connection_decompose(fam, even_modifier(fam, k, policy), n, m, policy)
    zp = zeros_golub_welsch(fam, n, policy)
    rows = _kernel_sweeps(fam.shifted(k), n - m, zp, policy)
    with policy.workprec():
        gap = zp[1] - zp[0]
        mid, third = zp[0] + gap / 2, zp[0] + gap / 3
        cases = [
            (decomp.G_poly, "holds"),
            (Polynomial([1, 0, 1]), "fails(2 nonreal G roots)"),
            (Polynomial([zp[2] * mid, -(zp[2] + mid), 1]), "fails(common zeros)"),  # through the zero zp[2]
            (Polynomial([third * mid, -(third + mid), 1]), "fails"),  # both roots in the first gap
        ]
    for G, label in cases:
        assert cli._grid_interlace(dataclasses.replace(decomp, G_poly=G), zp, rows, policy) == label


def _solved_counts(G, zp, policy) -> tuple:
    """``_root_counts``'s (real, below, above), and the nonreal count, from G's roots solved by polyroots."""
    roots, nonreal = polynomial_real_roots(G, policy)
    with policy.workprec():
        tol = policy.abs_tol * max(1, abs(zp[0]), abs(zp[-1]))
        return len(roots), sum(1 for r in roots if r < zp[0] - tol), sum(1 for r in roots if r > zp[-1] + tol), nonreal


def test_root_counts_are_the_solved_roots(policy):
    zp = zeros_golub_welsch(mp_family("0.5", "0.9", policy), 6, policy)
    pair = Polynomial([1, 0, 1])  # x^2 + 1
    with policy.workprec():
        x1, xn, mid = zp[0], zp[-1], (zp[2] + zp[3]) / 2
        lin = [Polynomial([-r, 1]) for r in (x1 - 1, x1, zp[1], mid, zp[4], xn, xn + 1)]
        cases = [
            (lin[2] * lin[3] * lin[4], (3, 0, 0, 0)),  # all real, inside the span
            (pair * lin[3], (1, 0, 0, 2)),  # a complex pair
            (lin[1], (1, 0, 0, 0)),  # a root exactly at x_1 is not below
            (pair * lin[1], (1, 0, 0, 2)),  # exact coefficients: x^3 - x_1 x^2 + x - x_1
            (lin[5], (1, 0, 0, 0)),  # nor one at x_n above
            (lin[0] * lin[3] * lin[6], (3, 1, 1, 0)),  # outside the span on both sides
            (lin[0] * lin[6] * pair, (2, 1, 1, 2)),
            (Polynomial([0, 1, 0, 0, 1]), (2, 0, 0, 2)),  # x^4 + x: G' = 4x^3 + 1 is divided by -x, delta 3 with lc -1
            (Polynomial([3]), (0, 0, 0, 0)),  # a constant G has no roots
        ]
        assert lin[1](x1) == (pair * lin[1])(x1) == lin[5](xn) == 0
    for G, counts in cases:
        real, below, above = cli._root_counts(G, zp, (6, 2, 3))
        assert (real, below, above, G.degree - real) == counts == _solved_counts(G, zp, policy), G
    # an exact repeated root: (x - 1)^2 (x - 3), whose chain ends in x - 1
    with pytest.raises(ArithmeticError, match=r"G of cell \(n, m, k\) = \(6, 2, 3\) has a repeated root"):
        cli._root_counts(Polynomial([-3, 7, -5, 1]), zp, (6, 2, 3))


@pytest.mark.parametrize(
    "lam, phi, bits, n_max, cells",
    [("0.5", "0.9", 256, 12, 408), ("0.5", "0.9", 64, 8, 130)],
    ids=["default-grid", "64-bits-n8"],
)
def test_grid_q_and_verdicts_are_the_mpf_route_bit_for_bit(lam, phi, bits, n_max, cells):
    # q = G g and q' on kernel pairs, and the interlacing rule on them, against
    # the mpf loops and rule they replaced; the larger grids are in tests/slow_oracles.py
    assert assert_grid_q_is_the_mpf_route(lam, phi, bits, n_max) == cells


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


# The grid's known wrong answers (ROADMAP item 1): the decomposition chops a's
# leading coefficient against a sup norm of monomial coefficients, so these
# cells measure too low a degree.  Each is a strict xfail until that is mended.
_WRONG_CELLS = {
    ("--grid", "--lambda", "20", "--phi", "0.1", "--n", "9"): [(9, 9, 11)],
    ("--grid", "--n", "8", "--precision-bits", "64"): [(7, 7, 9), (8, 8, 10)],
}


@pytest.fixture(scope="module")
def wrong_cell_grids(cli_runs) -> dict:
    """{argv: (policy, {(n, m, k): row})} for each grid of _WRONG_CELLS."""

    def cells(argv) -> dict:
        return {(r["inputs"]["n"], r["inputs"]["m"], r["inputs"]["k"]): r for r in json.loads(cli_runs(argv).out)["rows"]}

    return {argv: (config_from_args(build_parser().parse_args(argv)).policy(), cells(argv)) for argv in _WRONG_CELLS}


@pytest.mark.xfail(strict=True, reason="degrees of a and G measured too low: ROADMAP item 1")
@pytest.mark.parametrize(
    "argv, cell",
    [
        pytest.param(argv, cell, id="_".join([*(a.lstrip("-") for a in argv[1:]), *map(str, cell)]))
        for argv, cells in _WRONG_CELLS.items()
        for cell in cells
    ],
)
def test_known_wrong_grid_cells_follow_the_law(argv, cell, wrong_cell_grids):
    policy, rows = wrong_cell_grids[argv]
    computed = rows[cell]["computed"]
    assert (computed["deg_a"], computed["deg_G"]) == (computed["law_deg_a"], computed["law_deg_G"])
    assert mp.mpf(computed["residual"]) <= policy.rel_tol


def test_grids_with_known_wrong_cells_pass_everywhere_else(wrong_cell_grids):
    # a new failure in these grids cannot hide behind the xfails above
    for argv, (_, rows) in wrong_cell_grids.items():
        failing = sorted(cell for cell, row in rows.items() if row["verdict"] != "pass")
        assert failing == _WRONG_CELLS[argv], " ".join(argv)
