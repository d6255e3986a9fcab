import csv
import dataclasses
import io
import json
import math
import re

import pytest

from pdmdirac import Grid, ModelParams, cli, rm2_solve_from_params, susy
from pdmdirac.cli import main


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


SPECTRUM_ARGS = ["spectrum", "--example", "1", "--omega", "3", "--alpha", "2",
                 "--gamma", "0.1", "--beta", "6", "--beta-mode", "literal",
                 "--m2", "2", "--n-max", "5"]


def test_spectrum_json_round_trips(capsys):
    code, out, _ = run_cli(SPECTRUM_ARGS + ["--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["meta"]["command"] == "spectrum"
    assert doc["meta"]["beta_mode"] == "literal"
    params = ModelParams(omega=3.0, alpha=2.0, gamma=0.1, beta=6.0, m2=2.0)
    sol = rm2_solve_from_params(params, n_max=5)
    for row, lv in zip(doc["rows"], sol.spectrum):
        assert row["n"] == lv.n
        assert row["e_bar"] == lv.e_bar  # exact float round trip
        assert row["e_re"] == lv.e_rel.real
        assert row["e_im"] == lv.e_rel.imag
        assert row["is_real"] == lv.is_real
        assert row["admissible"] == lv.admissible


def test_spectrum_csv_round_trips(capsys):
    code, out, _ = run_cli(SPECTRUM_ARGS, capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    params = ModelParams(omega=3.0, alpha=2.0, gamma=0.1, beta=6.0, m2=2.0)
    sol = rm2_solve_from_params(params, n_max=5)
    for row, lv in zip(rows, sol.spectrum):
        assert float(row["e_bar"]) == lv.e_bar
        assert float(row["e_re"]) == lv.e_rel.real
        assert row["is_real"] == ("true" if lv.is_real else "false")
    assert "\r" not in out  # LF line endings only


def test_cli_is_deterministic(capsys):
    _, out1, _ = run_cli(SPECTRUM_ARGS + ["--format", "json"], capsys)
    _, out2, _ = run_cli(SPECTRUM_ARGS + ["--format", "json"], capsys)
    assert out1 == out2


def test_spectrum_direct_coefficients(capsys):
    code, out, _ = run_cli(["spectrum", "--v0", "10", "--v1", "6", "--v2", "0",
                            "--n-max", "1"], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert float(rows[0]["e_bar"]) == 0.0
    assert float(rows[1]["e_bar"]) == 3.0


def test_spectrum_rejects_mixed_modes(capsys):
    code, _, err = run_cli(["spectrum", "--example", "1", "--v1", "6"], capsys)
    assert code == 1
    assert "direct-coefficient" in err


def test_spectrum_missing_family_is_config_error(capsys):
    code, _, err = run_cli(["spectrum", "--omega", "3"], capsys)
    assert code == 1


def test_constraints_reports_absent_m1(capsys):
    code, out, _ = run_cli(["constraints", "--omega", "3", "--alpha", "2",
                            "--gamma", "0.1", "--m2", "2",
                            "--beta-mode", "coupling"], capsys)
    assert code == 0
    row = next(csv.DictReader(io.StringIO(out)))
    assert row["status"] == "m1-absent"
    assert row["m1_plus"] == ""
    assert float(row["sigma"]) == pytest.approx(25.0 / 9.0)


def test_sweep_monotone_and_nan_free(capsys):
    code, out, _ = run_cli(["sweep", "--example", "2", "--omega", "5",
                            "--alpha", "1", "--gamma", "10", "--delta", "0.5",
                            "--c", "3", "--m2", "1", "--level", "3",
                            "--param", "m2", "--from", "0.1", "--to", "8",
                            "--steps", "40"], capsys)
    assert code == 0
    assert "nan" not in out.lower()
    rows = list(csv.DictReader(io.StringIO(out)))
    values = [float(r["m2"]) for r in rows]
    assert values == sorted(values)
    # imaginary window below ~1.404, real above
    for r in rows:
        m2 = float(r["m2"])
        if m2 < 1.39:
            assert r["is_real"] == "false"
        if m2 > 1.42:
            assert r["is_real"] == "true"


def test_sweep_never_serializes_a_nonfinite_swept_value(capsys):
    # example 2 never reads m1, so the array pass settles every row even
    # where the swept value itself is nan (0 * inf) or inf
    code, out, _ = run_cli(["sweep", "--example", "2", "--omega", "5",
                            "--alpha", "1", "--gamma", "10", "--delta", "0.5",
                            "--c", "3", "--m2", "1", "--level", "3",
                            "--param", "m1", "--from", "0", "--to", "inf",
                            "--steps", "3"], capsys)
    assert code == 0
    assert out == "m1,e_re,e_im,is_real,admissible,status\n" + \
        ",0,9.852030247619016,false,false,\n" * 3


def test_sweep_requires_range(capsys):
    code, _, err = run_cli(["sweep", "--example", "1", "--omega", "3",
                            "--alpha", "2", "--gamma", "0.1", "--beta", "6",
                            "--m2", "2", "--param", "m2"], capsys)
    assert code == 1
    assert err == "error: missing required option(s): --from, --to, --steps\n"


def test_sweep_rejects_param_the_mode_never_reads(capsys):
    code, out, err = run_cli(["sweep", "--v0", "1", "--v1", "12", "--v2", "1",
                              "--param", "m2", "--from", "1", "--to", "2",
                              "--steps", "4", "--level", "1"], capsys)
    assert code == 1
    assert out == ""
    assert "--param m2" in err
    code, _, err = run_cli(["sweep", "--sp-a", "9", "--sp-b", "1.5",
                            "--param", "omega", "--from", "1", "--to", "2",
                            "--steps", "4", "--level", "1"], capsys)
    assert code == 1
    assert "--param omega" in err


@pytest.mark.parametrize("argv, message", [
    (["--example", "1", "--omega", "3", "--alpha", "2", "--gamma", "0.1",
      "--param", "omega"], "missing required option(s): --m2"),
    (["--sp-a", "9", "--param", "gamma"], "missing required option(s): --sp-b"),
    (["--example", "1", "--beta-mode", "literal", "--omega", "3", "--alpha", "2",
      "--gamma", "0.1", "--m2", "5", "--param", "m2"],
     "literal beta-mode requires --beta"),
    (["--example", "1", "--omega", "3", "--alpha", "2", "--gamma", "0.1",
      "--m2", "5", "--param", "m2", "--level=-1"], "--level must be nonnegative"),
], ids=["example-m2", "direct-sp-b", "literal-beta", "negative-level"])
def test_sweep_missing_shared_option_is_config_error(argv, message, capsys):
    code, out, err = run_cli(["sweep", *argv, "--from", "1", "--to", "2",
                              "--steps", "3"], capsys)
    assert code == 1
    assert out == ""
    assert message in err


def test_sweep_swept_key_need_not_be_given(capsys):
    for argv in (["--example", "1", "--omega", "3", "--alpha", "2", "--gamma", "0.1",
                  "--param", "m2"],
                 ["--example", "1", "--beta-mode", "literal", "--omega", "3",
                  "--alpha", "2", "--gamma", "0.1", "--m2", "5", "--param", "beta"]):
        code, out, _ = run_cli(["sweep", *argv, "--from", "4", "--to", "6",
                                "--steps", "3", "--level", "3"], capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 3 and all(r["status"] == "" for r in rows)


def test_sweep_direct_gpt_mode_moves_with_swept_key(capsys):
    code, out, _ = run_cli(["sweep", "--sp-a", "9", "--sp-b", "1.5",
                            "--param", "gamma", "--from", "1", "--to", "2",
                            "--steps", "4", "--level", "1"], capsys)
    assert code == 0
    energies = [float(r["e_re"]) for r in csv.DictReader(io.StringIO(out))]
    assert len(set(energies)) == 4
    # m2 = 0 is a value like any other, not a stand-in for the default 1
    code, out, _ = run_cli(["sweep", "--sp-a", "9", "--sp-b", "1.5", "--gamma", "1",
                            "--param", "m2", "--from", "0", "--to", "1",
                            "--steps", "2", "--level", "1"], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert float(rows[0]["e_re"]) < float(rows[1]["e_re"])


def test_wavefunction_with_spinor_columns(capsys):
    code, out, _ = run_cli(["wavefunction", "--v1", "12", "--v2", "1",
                            "--level", "1", "--grid-points", "64",
                            "--x-min", "-8", "--x-max", "8", "--with-spinor",
                            "--omega", "3", "--alpha", "0.5", "--gamma", "1.0",
                            "--beta", "0.25", "--m1", "0.1", "--m2", "1.2"],
                           capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert set(rows[0]) == {"x", "phi", "spinor"}
    assert len(rows) == 64


def test_wavefunction_inadmissible_level_is_config_error(capsys):
    code, _, err = run_cli(["wavefunction", "--v1", "6", "--v2", "0",
                            "--level", "2", "--grid-points", "64"], capsys)
    assert code == 1
    assert "not admissible" in err


@pytest.mark.parametrize("points", ["0", "15"])
def test_wavefunction_grid_points_below_floor_is_config_error(points, capsys):
    # 0 is a value, not a missing option: the grid's own check refuses it
    code, out, err = run_cli(["wavefunction", "--v1", "12", "--v2", "1",
                              "--level", "1", "--grid-points", points], capsys)
    assert code == 1
    assert out == ""
    assert "n_points must be at least 16" in err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_wavefunction_refuses_nonfinite_samples(capsys, monkeypatch):
    # the far-field Poschl-Teller state overflows to NaN
    code, out, err = run_cli(["wavefunction", "--sp-a", "9", "--sp-b", "1.5",
                              "--c", "1", "--level", "1", "--x-max", "400",
                              "--grid-points", "4000"], capsys)
    assert code == 3
    assert out == ""
    assert "non-finite" in err and "x = " in err
    # the message names the first non-finite node
    real = cli.rm2_wavefunction

    def poisoned(*args, **kwargs):
        state = real(*args, **kwargs)
        samples = state.samples.copy()
        samples[[5, 9]] = math.inf
        return dataclasses.replace(state, samples=samples)

    monkeypatch.setattr(cli, "rm2_wavefunction", poisoned)
    code, out, err = run_cli(["wavefunction", "--v1", "12", "--v2", "1",
                              "--grid-points", "64", "--x-min", "-8",
                              "--x-max", "8"], capsys)
    assert code == 3
    assert out == ""
    assert f"x = {float(Grid(-8.0, 8.0, 64).points[5])!r} (node 5)" in err


def test_config_file_merge_and_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("omega = 3.0\nalpha = 2.0\ngamma = 0.1\nbeta = 6\n"
                   "beta-mode = literal\nm2 = 2\nn-max = 1\n# comment\n",
                   encoding="utf-8")
    code, out, _ = run_cli(["spectrum", "--example", "1", "--config", str(cfg),
                            "--m2", "4.2145", "--n-max", "3"], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 4  # CLI --n-max overrides the file
    assert rows[3]["is_real"] == "false"  # m2 override took effect


def test_config_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus = 1\n", encoding="utf-8")
    code, _, err = run_cli(["spectrum", "--example", "1", "--config", str(cfg)],
                           capsys)
    assert code == 1
    assert "unknown key" in err


def test_unknown_flag_exits_one(capsys):
    assert run_cli(["spectrum", "--nonsense"], capsys)[0] == 1


def test_cached_parser_carries_no_state(capsys, monkeypatch):
    runs = [
        ["sweep", "--example", "2", "--omega", "5", "--alpha", "1", "--gamma", "10",
         "--delta", "0.5", "--c", "3", "--m2", "1", "--level", "3", "--param", "m2",
         "--from", "0.1", "--to", "8", "--steps", "40"],
        SPECTRUM_ARGS + ["--format", "json"],
        ["sweep", "--sp-a", "9", "--sp-b", "1.5", "--gamma", "2", "--param", "m2",
         "--from", "-1e-5", "--to", "2", "--steps", "7"],
    ]
    cli._parser.cache_clear()
    cached = [run_cli(argv, capsys) for argv in runs]
    assert cli._parser.cache_info().misses == 1
    monkeypatch.setattr(cli, "_parser", cli.build_parser)  # a new parser per call
    assert cached == [run_cli(argv, capsys) for argv in runs]
    assert all(code == 0 for code, _, _ in cached)


def test_output_file(tmp_path, capsys):
    path = tmp_path / "out.csv"
    code, out, _ = run_cli(SPECTRUM_ARGS + ["--output", str(path)], capsys)
    assert code == 0
    assert out == ""
    text = path.read_text(encoding="utf-8")
    assert text.startswith("n,e_bar")


def test_verify_quick_suite_passes(capsys):
    code, out, _ = run_cli(["verify", "--suite", "model"], capsys)
    assert code == 0
    assert "[PASS]" in out and "[FAIL]" not in out


def test_verify_corrupted_tolerance_fails(capsys):
    code, out, _ = run_cli(["verify", "--suite", "model",
                            "--tolerance-scale", "1e-12"], capsys)
    assert code == 2
    assert "[FAIL]" in out


def test_verify_json_format(capsys):
    code, out, _ = run_cli(["verify", "--suite", "model", "--format", "json"],
                           capsys)
    assert code == 0
    doc = json.loads(out)
    assert all(row["passed"] for row in doc["rows"])


@pytest.mark.parametrize("scale", ["inf", "nan", "0", "-1", "1.5"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_verify_tolerance_scale_outside_unit_interval_is_config_error(
        scale, source, tmp_path, capsys):
    if source == "flag":
        argv = [f"--tolerance-scale={scale}"]
    else:
        cfg = tmp_path / "verify.cfg"
        cfg.write_text(f"tolerance-scale = {scale}\n", encoding="utf-8")
        argv = ["--config", str(cfg)]
    code, out, err = run_cli(["verify", "--suite", "model", *argv], capsys)
    assert code == 1
    assert out == ""
    assert "--tolerance-scale must be finite and in (0, 1]" in err


def test_verify_fails_when_the_ladder_is_wrong(monkeypatch, capsys):
    # the gate must trip on a fault in the code under test, at scale 1
    real = susy.si_remainder_ladder
    monkeypatch.setattr(susy, "si_remainder_ladder",
                        lambda w, n: real(w, n) + (1e-2 if n >= 1 else 0.0))
    code, out, _ = run_cli(["verify", "--suite", "numerics", "--format", "json"],
                           capsys)
    assert code == 2
    failed = {row["name"] for row in json.loads(out)["rows"] if not row["passed"]}
    assert failed == {"criterion 1: Rosen-Morse ladder vs eigensolver, worst error/tol",
                      "criterion 2: Poschl-Teller ladder vs eigensolver, worst error/tol"}


@pytest.mark.parametrize("argv", [
    ["sweep", "--sp-a", "9", "--sp-b", "1.5", "--param", "gamma",
     "--from", "-1e-5", "--to", "2", "--steps", "3"],
    ["spectrum", "--v0", "10", "--v1", "12", "--v2", "-2e-3"],
], ids=["sweep", "spectrum"])
def test_negative_scientific_notation_is_a_value(argv, capsys):
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    # the same values joined to their flags by "=", which argparse always reads
    joined = re.sub(r" (-[0-9])", r"=\1", " ".join(argv)).split()
    assert joined != argv
    assert run_cli(joined, capsys)[:2] == (0, out)


README_EXAMPLES = {
    "constraints": ["constraints", "--omega", "3", "--alpha", "2", "--gamma", "0.1",
                    "--m2", "2", "--beta-mode", "coupling"],
    "spectrum": SPECTRUM_ARGS + ["--format", "json"],
    "wavefunction": ["wavefunction", "--v1", "12", "--v2", "1", "--level", "1",
                     "--grid-points", "2000", "--with-spinor", "--omega", "3",
                     "--alpha", "0.5", "--gamma", "1.0", "--beta", "0.25",
                     "--m1", "0.1", "--m2", "1.2"],
    "sweep": ["sweep", "--example", "2", "--omega", "5", "--alpha", "1",
              "--gamma", "10", "--delta", "0.5", "--c", "3", "--m2", "1",
              "--level", "3", "--param", "m2", "--from", "0.1", "--to", "8",
              "--steps", "400"],
}


@pytest.mark.parametrize("command", sorted(README_EXAMPLES))
def test_config_file_spelling_every_flag_gives_the_same_bytes(command, tmp_path,
                                                              capsys):
    argv = README_EXAMPLES[command]
    lines, rest = [], argv[1:]
    while rest:
        flag, rest = rest[0][2:], rest[1:]
        if rest and not rest[0].startswith("--"):
            value, rest = rest[0], rest[1:]
        else:
            value = "true"  # a switch
        lines.append(f"{flag} = {value}\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(lines), encoding="utf-8")
    expected = run_cli(argv, capsys)
    assert expected[0] == 0
    assert run_cli([command, "--config", str(cfg)], capsys) == expected


@pytest.mark.parametrize("key", ["from", "sweep_from", "sweep-from"])
def test_config_key_is_the_flag_name_or_its_dest(key, tmp_path, capsys):
    argv = README_EXAMPLES["sweep"]
    i = argv.index("--from")
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(f"{key} = {argv[i + 1]}\n", encoding="utf-8")
    expected = run_cli(argv, capsys)
    without_from = argv[:i] + argv[i + 2:]
    assert run_cli(without_from + ["--config", str(cfg)], capsys) == expected


@pytest.mark.parametrize("command, line, message", [
    ("verify", "suite = bogus", "argument --suite: invalid choice: 'bogus'"),
    ("spectrum", "format = xml", "argument --format: invalid choice: 'xml'"),
    ("wavefunction", "level = 1.5", "argument --level: invalid int value: '1.5'"),
    ("wavefunction", "with-spinor = maybe",
     "expected a boolean for 'with-spinor', got 'maybe'"),
    ("spectrum", "config = other.cfg", "unknown key 'config'"),
    ("spectrum", "omega 3", "expected 'key = value'"),
])
def test_config_value_is_checked_like_its_flag(command, line, message, tmp_path,
                                               capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"# a comment\n{line}\n", encoding="utf-8")
    code, out, err = run_cli([command, "--config", str(cfg)], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {cfg}:2: {message}")
    assert "Traceback" not in err


def test_config_switch_off_and_command_line_override(tmp_path, capsys):
    argv = README_EXAMPLES["wavefunction"]
    cfg = tmp_path / "off.cfg"
    cfg.write_text("with_spinor = no\n", encoding="utf-8")
    plain = [a for a in argv if a != "--with-spinor"]
    assert run_cli(plain + ["--config", str(cfg)], capsys) == run_cli(plain, capsys)
    assert run_cli(argv + ["--config", str(cfg)], capsys) == run_cli(argv, capsys)


def test_spectrum_overflow_rows_carry_a_status(capsys):
    argv = ["spectrum", "--v0", "1.7e308", "--v1", "1e308", "--v2", "0", "--n-max", "2"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert out == ("n,e_bar,e_re,e_im,is_real,admissible,status\n"
                   "0,,,,,,overflow\n1,,,,,,overflow\n2,,,,,,overflow\n")
    code, out, _ = run_cli(argv + ["--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["rows"][0] == {
        "n": 0, "e_bar": None, "e_re": None, "e_im": None, "is_real": None,
        "admissible": None, "status": "overflow"}


def test_constraints_overflow_row_carries_a_status(capsys):
    # gamma^2 overflows: epsilon and e_squared are not finite, and the row
    # must not read like an absent m1
    argv = ["constraints", "--omega", "3", "--alpha", "2", "--gamma", "1e200",
            "--m2", "2", "--beta-mode", "coupling"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert out == ("sigma,beta,epsilon,e_squared,m1_plus,m1_minus,status\n"
                   ",,,,,,overflow\n")
    code, out, _ = run_cli(argv + ["--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["rows"] == [{
        "sigma": None, "beta": None, "epsilon": None, "e_squared": None,
        "m1_plus": None, "m1_minus": None, "status": "overflow"}]


def test_spectrum_negative_n_max_is_config_error(capsys):
    code, out, err = run_cli(["spectrum", "--v0", "1", "--v1", "12", "--v2", "1",
                              "--n-max=-1"], capsys)
    assert code == 1
    assert out == ""
    assert "--n-max must be nonnegative" in err


def test_wavefunction_infinite_grid_end_is_config_error(capsys):
    # an infinite --x-min made NaN grid points, and the run exited 3 with
    # "non-finite wavefunction sample at x = nan"
    code, out, err = run_cli(["wavefunction", "--v1", "12", "--v2", "1", "--level", "0",
                              "--x-min=-inf"], capsys)
    assert code == 1
    assert out == ""
    assert err == ("error: x_min and x_max must be finite and finitely far apart, "
                   "got -inf and 15.0\n")


@pytest.mark.parametrize("mode", [
    ["--sp-a", "9", "--sp-b", "1.5"],
    ["--example", "2", "--omega", "5", "--alpha", "1", "--gamma", "10",
     "--delta", "0.5", "--m2", "1"],
], ids=["gpt", "example2"])
@pytest.mark.parametrize("c", ["0", "-1"])
def test_half_line_wavefunction_nonpositive_c_is_config_error(mode, c, capsys):
    # the half-line default grid is [1e-3/c, 20/c]: c = 0 divided by zero
    # (exit 3) and c < 0 was reported as an empty interval
    code, out, err = run_cli(["wavefunction", *mode, f"--c={c}", "--level", "0"],
                             capsys)
    assert code == 1
    assert out == ""
    assert err == f"error: c must be positive, got {float(c)}\n"
