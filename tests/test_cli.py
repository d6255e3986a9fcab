import csv
import io
import json
import re
import warnings

import pytest

from pdmdirac import (ModelParams, cli, dirac, model, numerics, rm2_solve_from_params,
                      susy, wavefunctions)
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


EXAMPLE_1 = ["--omega", "3", "--alpha", "0.5", "--gamma", "0.5", "--beta=-0.9",
             "--m1", "0.35", "--m2", "0.5"]
EXAMPLE_2 = ["--omega", "3", "--alpha", "0.5", "--gamma", "3.5", "--beta=-0.5",
             "--m1", "0.3", "--m2", "2", "--c", "1"]


@pytest.mark.parametrize("spinor", [False, True], ids=["plain", "spinor"])
@pytest.mark.parametrize("example", [1, 2])
def test_wavefunction_example_matches_direct_coefficients(example, spinor, capsys):
    # --example N passes the well coefficients of the model constants on;
    # the direct run gets them as repr floats, so the bytes must agree
    if example == 1:
        model_flags = EXAMPLE_1
        co = susy.rm2_coefficients_from_params(
            ModelParams(omega=3.0, alpha=0.5, gamma=0.5, beta=-0.9, m1=0.35, m2=0.5))
        direct = [f"--v1={co.v1!r}", f"--v2={co.v2!r}"]
    else:
        model_flags = EXAMPLE_2
        a, b = susy.gpt_params_ab(
            ModelParams(omega=3.0, alpha=0.5, gamma=3.5, beta=-0.5, m1=0.3, m2=2.0, c=1.0))
        direct = [f"--sp-a={a!r}", f"--sp-b={b!r}", "--c", "1"]
    common = ["--level", "1", "--grid-points", "400"]
    if spinor:
        direct += model_flags
        common.append("--with-spinor")
    code, out, err = run_cli(["wavefunction", "--example", str(example), *model_flags,
                              *common], capsys)
    assert (code, err) == (0, "")
    assert out.startswith("x,phi,spinor\n" if spinor else "x,phi\n")
    assert out.count("\n") == 401
    assert run_cli(["wavefunction", *direct, *common], capsys) == (0, out, "")


@pytest.mark.parametrize("argv, message", [
    (["sweep", "--example", "1", *EXAMPLE_1, "--param", "m2", "--from", "1",
      "--to", "2", "--steps", "1"], "--steps must be at least 2"),
    (["wavefunction", "--v1", "12", "--sp-a", "9", "--level", "0"],
     "give either --v0/--v1/--v2 or --sp-a/--sp-b, not both"),
    (["spectrum", "--example", "1", "--v0", "1", "--v1", "12", "--v2", "1"],
     "direct-coefficient mode excludes --example"),
    (["spectrum", "--omega", "3"],
     "select --example 1|2 or direct coefficients (--v0/--v1/--v2 or --sp-a/--sp-b)"),
    # refused by the library: ModelParams, the grid, the level, the spectrum
    (["constraints", "--omega", "-3", "--alpha", "2", "--gamma", "0.1", "--m2", "2"],
     "omega must be positive, got -3.0"),
    (["wavefunction", "--sp-a", "9", "--sp-b", "1.5", "--c", "1", "--level", "0",
      "--x-min", "-1"], "grid must lie in x > 0"),
    (["wavefunction", "--v1", "12", "--v2", "1", "--level", "9"],
     "level n = 9 is not admissible: needs C2 - n > 0 and (C2 - n)^2 > |V2|/2 "
     "with C2 = 3.0"),
    (["spectrum", "--v0", "1", "--v1", "-0.25", "--v2", "1"],
     "1 + 4*V1 must be positive for real energies to exist (got 1 + 4*V1 = 0.0)"),
], ids=["one-step", "both-families", "example-and-direct", "no-family",
        "model-omega", "grid-domain", "level-inadmissible", "rm2-radicand"])
def test_config_error_exits_1(argv, message, capsys):
    assert run_cli(argv, capsys) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("call", [
    lambda: susy.rm2_solve(1.0, -1.0, 1.0),
    lambda: wavefunctions.rm2_exponents(0, -1.0, 1.0),
    lambda: wavefunctions.rm2_state_evaluator(0, -1.0, 1.0),
    lambda: wavefunctions.rm2_wavefunction(0, -1.0, 1.0, numerics.Grid(-5.0, 5.0, 64)),
    ["spectrum", "--v0", "1", "--v1", "-1", "--v2", "1"],
    ["wavefunction", "--v1", "-1", "--v2", "1"],
], ids=["rm2_solve", "rm2_exponents", "rm2_state_evaluator", "rm2_wavefunction",
        "spectrum", "wavefunction"])
def test_one_rm2_radicand_refusal_text(call, capsys):
    message = "1 + 4*V1 must be positive for real energies to exist (got 1 + 4*V1 = -3.0)"
    if isinstance(call, list):
        assert run_cli(call, capsys) == (1, "", f"error: {message}\n")
        return
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_missing_config_file_exits_1(tmp_path, capsys):
    path = tmp_path / "missing.cfg"
    assert run_cli(["spectrum", "--config", str(path)], capsys) == (
        1, "", f"error: cannot read config file: [Errno 2] No such file or "
               f"directory: {str(path)!r}\n")


def test_config_file_that_is_not_utf8_exits_1(tmp_path, capsys):
    path = tmp_path / "latin1.cfg"
    path.write_bytes(b"omega = 3\xff\n")
    assert run_cli(["spectrum", "--config", str(path)], capsys) == (
        1, "", f"error: cannot read config file: {path}: 'utf-8' codec can't decode "
               f"byte 0xff in position 9: invalid start byte\n")


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


def test_wavefunction_refuses_nonfinite_samples(capsys):
    # m2 * gamma overflows, so the spinor factor sqrt(M) is infinite;
    # numerics.normalize refuses the samples and names the node
    # (tests/test_wavefunctions.py pins that)
    code, out, err = run_cli(["wavefunction", "--sp-a", "9", "--sp-b", "1.5",
                              "--c", "1", "--level", "1", "--with-spinor",
                              "--omega", "3", "--alpha", "0.5", "--gamma", "10",
                              "--beta", "0", "--m1", "0.1", "--m2", "1e308"], capsys)
    assert code == 3
    assert out == ""
    assert "non-finite" in err and "x = " in err


_SPINOR_1E308 = ["--with-spinor", "--omega", "3", "--alpha", "0.5", "--gamma", "10",
                 "--m1", "0.1", "--m2", "1e308"]


@pytest.mark.parametrize("argv, x", [
    (["--sp-a", "9", "--sp-b", "1.5", "--c", "1", "--level", "1", *_SPINOR_1E308,
      "--beta", "0.25"], "0.004332611231461423"),
    (["--v1", "12", "--v2", "1", "--level", "1", *_SPINOR_1E308, "--beta", "10"],
     "-14.995000833194467"),
    (["--sp-a", "44.4239", "--sp-b", "1e-12", "--c", "2.23e-231", "--level", "3",
      "--grid-points", "400", "--x-min", "0.001", "--x-max", "153"], "0.3825436408977556"),
    (["--v1", "5.33e+162", "--v2", "1e6", "--level", "3", "--grid-points", "400",
      "--x-min", "-1.539", "--x-max", "3.09"], "-1.5274563591022443"),
], ids=["gpt-spinor-mass", "rm2-spinor-mass", "gpt-tiny-c", "rm2-huge-v1"])
def test_overflowing_wavefunction_exits_3_without_a_warning(argv, x, capsys):
    # each warned on its way to this refusal: an overflow or inf - inf in
    # the spinor mass, log1p(-1), an overflowing Jacobi recurrence
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(["wavefunction", *argv], capsys) == (
            3, "", f"numerical failure: non-finite wavefunction sample at x = {x} (node 0)\n")


@pytest.mark.parametrize("argv, flag, value", [
    # read as nan or inf, these ran on: spectrum and constraints exited 0
    # with rows marked overflow
    (["spectrum", "--v0", "nan", "--v1", "12", "--v2", "1"], "--v0", "nan"),
    (["constraints", "--omega", "3", "--alpha", "nan", "--gamma", "0.1", "--m2", "2",
      "--beta-mode", "coupling"], "--alpha", "nan"),
    (["spectrum", "--sp-a", "9", "--sp-b=-inf"], "--sp-b", "-inf"),
    (["wavefunction", "--v1", "inf", "--v2", "1"], "--v1", "inf"),
    (["sweep", *SPECTRUM_ARGS[1:-2], "--m1", "1e400", "--param", "m2", "--from", "1",
      "--to", "2", "--steps", "4"], "--m1", "1e400"),
], ids=["v0", "alpha", "sp-b", "v1", "m1-overflows"])
def test_nonfinite_model_and_coefficient_flags_exit_1(argv, flag, value, capsys):
    assert run_cli(argv, capsys) == (
        1, "", f"error: argument {flag}: must be a finite number, got '{value}'\n")


def test_unparsable_float_flag_exits_1(capsys):
    assert run_cli(["spectrum", "--v0", "abc", "--v1", "12", "--v2", "1"], capsys) == (
        1, "", "error: argument --v0: invalid float value: 'abc'\n")


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


def test_unwritable_output_file_exits_1(tmp_path, capsys):
    # this ended in a FileNotFoundError traceback
    path = tmp_path / "missing" / "out.csv"
    assert run_cli(["spectrum", "--v0", "1", "--v1", "12", "--v2", "1",
                    "--output", str(path)], capsys) == (
        1, "", f"error: cannot write output file: [Errno 2] No such file or "
               f"directory: {str(path)!r}\n")
    assert not path.parent.exists()


@pytest.mark.parametrize("argv, refusal", [
    (["wavefunction", "--v1", "12", "--v2", "1", "--grid-points", str(10**18)],
     f"--grid-points must be at most 1000000, got {10**18}"),
    (["sweep", "--example", "1", *EXAMPLE_1, "--param", "m2", "--from", "1", "--to", "2",
      "--steps", str(10**18)], f"--steps must be at most 1000000, got {10**18}"),
    (["spectrum", "--v0", "1", "--v1", "12", "--v2", "1", "--n-max", "1000000000"],
     "--n-max must be at most 100000, got 1000000000"),
    # the level's Jacobi recurrence would run about an hour
    (["wavefunction", "--v1", "1e12", "--v2", "1", "--level", "1000000000",
      "--grid-points", "16"], "--level must be at most 100000, got 1000000000"),
], ids=["wavefunction", "sweep", "spectrum", "wavefunction-level"])
def test_request_too_large_to_allocate_exits_1(argv, refusal, capsys):
    # a request above its flag's cap is refused before anything is
    # allocated, with one error line that names the flag and its cap
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (1, "")
    assert err == f"error: {refusal}\n"


def test_wavefunction_level_at_the_cap_passes_it(capsys):
    # the cap is inclusive: level 100000 reaches the admissibility check
    code, out, err = run_cli(["wavefunction", "--v1", "6", "--v2", "0",
                              "--level", "100000"], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: level n = 100000 is not admissible")


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


def test_verify_bits_do_not_depend_on_the_profile_memo(monkeypatch, capsys):
    # only the wall-clock values of the "seconds" checks may differ
    def lines():
        code, out, _ = run_cli(["verify", "--suite", "all"], capsys)
        assert code == 0
        return [re.sub(r"(: seconds .*\(value )[^,]+", r"\1*", line)
                for line in out.splitlines()]

    memoized = lines()
    assert sum("(value *," in line for line in memoized) == 3
    # every lookup of the profile memo and of the Dirac field memos a miss:
    # a fresh object() key equals no stored one
    for module in (model, dirac):
        monkeypatch.setattr(module, "_memoized",
                            lambda name, key, compute, *args, **kwargs:
                            numerics._memoized(name, object(), compute, *args, **kwargs))
    assert lines() == memoized


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
    ("constraints", "alpha = nan", "argument --alpha: must be a finite number, got 'nan'"),
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


@pytest.mark.parametrize("argv", [
    ["--v1", "12", "--v2", "1"],
    ["--sp-a", "9", "--sp-b", "2.5"],
], ids=["rosen-morse", "poschl-teller"])
def test_wavefunction_negative_level_is_config_error(argv, capsys):
    # the refusal names the flag, as sweep's and spectrum's do, instead of
    # jacobi_eval's "polynomial degree must be nonnegative"
    code, out, err = run_cli(["wavefunction", *argv, "--level=-1"], capsys)
    assert code == 1
    assert out == ""
    assert err == "error: --level must be nonnegative\n"


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
