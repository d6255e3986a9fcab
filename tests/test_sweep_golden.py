"""Byte-level guards on ``pdmdirac sweep``, ``pdmdirac wavefunction`` and
the oracle demo's output.

The sweep digests and the tiny-sweep rows below were recorded from the
point-by-point sweep (one ``_sweep_point`` per swept value).  The property
test rebuilds every sweep that way, writes it with the ``csv`` and ``json``
modules (``_reference``, not the writer under test) and asks ``main`` for
the same bytes.
The wavefunction digests were recorded from its row-by-row writer.
"""

import contextlib
import csv
import hashlib
import io
import json
import math
import pathlib
import runpy
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdmdirac import cli
from pdmdirac.susy import LevelColumns, relativistic_energy

README_SWEEP = ["sweep", "--example", "2", "--omega", "5", "--alpha", "1",
                "--gamma", "10", "--delta", "0.5", "--c", "3", "--m2", "1",
                "--level", "3", "--param", "m2", "--from", "0.1", "--to", "8",
                "--steps", "400"]


def _run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _md5(text):
    return hashlib.md5(text.encode("utf-8")).hexdigest()


PARSER = cli.build_parser()


def _cell(value):
    if value is None or isinstance(value, float) and not math.isfinite(value):
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return format(value, ".17g") if isinstance(value, float) else str(value)


def _reference(fmt, meta, columns, rows):
    """The documented output of ``rows``, written by the csv and json modules."""
    if fmt == "json":
        clean = [{key: None if isinstance(row.get(key), float) and not math.isfinite(row[key])
                  else row.get(key) for key in columns} for row in rows]
        return json.dumps({"meta": meta, "rows": clean}, indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([_cell(row.get(key)) for key in columns] for row in rows)
    return buf.getvalue()


def _point_by_point(argv):
    """The sweep's bytes with every row built by ``_sweep_point``, as
    ``_reference`` writes them."""
    ns = vars(PARSER.parse_args(argv))
    mode = cli._resolve_mode(ns)
    steps, lo = ns["steps"], ns["sweep_from"]
    span = ns["sweep_to"] - lo
    values = [lo + span * i / (steps - 1) for i in range(steps)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rows = [cli._sweep_point(ns, mode, v, ns["level"]) for v in values]
    cols = [ns["param"], "e_re", "e_im", "is_real", "admissible", "status"]
    return _reference(ns["format"], cli._meta(ns, "sweep"), cols, rows)


def test_readme_sweep_bytes():
    code, out = _run(README_SWEEP)
    assert code == 0
    assert _md5(out) == "9be25504b50a9c86b02ad90d650af2ed"
    code, out = _run(README_SWEEP + ["--format", "json"])
    assert code == 0
    assert _md5(out) == "c20c17cb87b1a772d232084113cae00b"


README_WAVEFUNCTION = ["wavefunction", "--v1", "12", "--v2", "1", "--level", "1",
                      "--grid-points", "2000", "--with-spinor", "--omega", "3",
                      "--alpha", "0.5", "--gamma", "1.0", "--beta", "0.25",
                      "--m1", "0.1", "--m2", "1.2"]

# the half-line spinor state: sqrt(M) with M = m2 g - 2c (m1 + b m2) csch(2cx)
HALF_LINE_SPINOR = ["wavefunction", "--example", "2", "--omega", "3", "--alpha", "0.5",
                    "--gamma", "3.5", "--beta", "-0.5", "--m1", "0.3", "--m2", "2",
                    "--c", "1", "--level", "1", "--grid-points", "400", "--with-spinor"]


@pytest.mark.parametrize("argv, csv_md5, json_md5", [
    (README_WAVEFUNCTION, "83a83b0722f81bff8b7d1af15aa3a337",
     "ef17a8d456df5e36ca4b31772ffcddd1"),
    (HALF_LINE_SPINOR, "2cedbb820127a15e41caecb9d4037954",
     "f3dea8dc8b8a22c49235dbe0fb727f8d"),
], ids=["rosen-morse", "poschl-teller"])
def test_readme_wavefunction_bytes(argv, csv_md5, json_md5):
    code, out = _run(argv)
    assert code == 0
    assert _md5(out) == csv_md5
    code, out = _run(argv + ["--format", "json"])
    assert code == 0
    assert _md5(out) == json_md5


def test_exact_spectra_demo_bytes():
    # the demo prints the oracle's eigenvalues-only solves to 8 decimals, so
    # a change to the oracle that moves a printed digit changes this digest
    demo = pathlib.Path(__file__).resolve().parents[1] / "demos" / "03_exact_spectra.py"
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        runpy.run_path(str(demo), run_name="__main__")
    assert _md5(buf.getvalue()) == "237c4200ce57e78f6b8944012acdf5c4"


@pytest.mark.parametrize("argv, expected", [
    (["--example", "1", "--beta-mode", "literal", "--beta", "1", "--alpha", "0",
      "--gamma", "0", "--m2", "1", "--level", "1", "--param", "omega",
      "--from", "4", "--to", "5", "--steps", "3"],
     "omega,e_re,e_im,is_real,admissible,status\n"
     "4,1.5024511016604549,0,true,false,\n"
     "4.5,,,,,pole\n"
     "5,1.6602962114476534,0,true,true,\n"),
    (["--example", "1", "--beta-mode", "literal", "--beta", "6", "--omega", "3",
      "--alpha", "2", "--gamma", "0.1", "--m2", "5", "--level", "3",
      "--param", "m2", "--from", "1e-200", "--to", "1e200", "--steps", "3"],
     "m2,e_re,e_im,is_real,admissible,status\n"
     "9.9999999999999998e-201,,,,,overflow\n"
     "4.9999999999999998e+199,,,,,invalid: 1 + 4*V1 must be positive for real "
     "energies to exist (got 1 + 4*V1 = -inf)\n"
     "9.9999999999999997e+199,,,,,invalid: 1 + 4*V1 must be positive for real "
     "energies to exist (got 1 + 4*V1 = -inf)\n"),
    (README_SWEEP[1:-8] + ["--param", "omega", "--from", "-1", "--to", "3",
                           "--steps", "5"],
     "omega,e_re,e_im,is_real,admissible,status\n"
     '-1,,,,,"invalid: omega must be positive, got -1.0"\n'
     '0,,,,,"invalid: omega must be positive, got 0.0"\n'
     "1,0,19.584751721683887,false,false,\n"
     "2,0,12.607041683122969,false,false,\n"
     "3,0,10.84646639847897,false,false,\n"),
], ids=["pole", "overflow-then-invalid", "invalid-omega"])
def test_tiny_sweep_rows(argv, expected):
    code, out = _run(["sweep"] + argv)
    assert code == 0
    assert out == expected


def test_only_irregular_rows_take_the_scalar_path(monkeypatch):
    seen = []
    point = cli._sweep_point
    monkeypatch.setattr(cli, "_sweep_point",
                        lambda ns, mode, value, level: seen.append(value)
                        or point(ns, mode, value, level))
    _run(README_SWEEP)
    assert seen == []
    _run(["sweep", "--example", "1", "--beta-mode", "literal", "--beta", "1",
          "--alpha", "0", "--gamma", "0", "--m2", "1", "--level", "1",
          "--param", "omega", "--from", "4", "--to", "5", "--steps", "3"])
    assert seen == [4.5]


EXAMPLE_1 = ["--example", "1", "--omega", "3", "--alpha", "2", "--gamma", "0.1",
             "--beta", "6", "--m2", "5"]
MODES = {
    "ex1-literal": (EXAMPLE_1 + ["--beta-mode", "literal"], cli.MODEL_KEYS),
    "ex1-coupling": (EXAMPLE_1 + ["--beta-mode", "coupling"], cli.MODEL_KEYS),
    "ex1-mass-ratio": (EXAMPLE_1 + ["--beta-mode", "mass-ratio", "--m1", "0.3"],
                       cli.MODEL_KEYS),
    "ex2": (README_SWEEP[1:15], cli.MODEL_KEYS),
    "gpt": (["--sp-a", "9", "--sp-b", "1.5", "--c", "1", "--gamma", "2",
             "--m2", "0.5"], cli._MODE_MODEL_KEYS["gpt"]),
}
CASES = [(mode, key) for mode, (_, keys) in MODES.items() for key in keys]

# ends of a swept range: moderate values, signed zeros, and magnitudes out
# to 1e+-200 where the closed forms overflow, underflow or divide by zero
ENDS = st.one_of(
    st.floats(-12.0, 12.0),
    st.sampled_from([0.0, -0.0, 1e-200, -1e-200, 1e200, -1e200, 1e-160, 1e160]),
    st.floats(-1e200, 1e200),
)
# a value for a key the sweep holds fixed: mostly moderate, sometimes zero
FIXED = st.one_of(st.floats(-12.0, 12.0), st.sampled_from([0.0, 1.0, 1e-170, 1e170]))


@pytest.mark.parametrize("mode, key", CASES, ids=[f"{m}-{k}" for m, k in CASES])
@given(data=st.data())
@settings(max_examples=10, deadline=None)
def test_sweep_matches_point_by_point(mode, key, data):
    base, keys = MODES[mode]
    argv = ["sweep", *base]
    for other in keys:
        if other != key and data.draw(st.booleans(), label=f"move {other}"):
            argv.append(f"--{other}={data.draw(FIXED, label=other)!r}")
    # "--key=value": argparse reads a bare "-1e-141" as an option
    argv += ["--param", key, f"--level={data.draw(st.integers(0, 4), label='level')}",
             f"--from={data.draw(ENDS, label='from')!r}",
             f"--to={data.draw(ENDS, label='to')!r}",
             f"--steps={data.draw(st.integers(2, 24), label='steps')}",
             f"--format={data.draw(st.sampled_from(['csv', 'json']), label='format')}"]
    code, out = _run(argv)
    assert code == 0
    assert out == _point_by_point(argv)


# example 1 with beta = 1.5, alpha = 0 and m2 = 1 has V1 = omega/2, so level 1
# is a pole at omega = 4, the value of row 10; omega <= 0 is invalid
ROW_CLASSES = ["sweep", "--example", "1", "--beta-mode", "literal", "--beta", "1.5",
               "--alpha", "0", "--gamma", "0.5", "--m2", "1", "--level", "1",
               "--param", "omega", "--from", "-1", "--to", "9", "--steps", "21"]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_with_row_classes_pole_and_invalid_rows(fmt):
    code, out = _run(ROW_CLASSES + ["--format", fmt])
    assert code == 0
    assert out == _point_by_point(ROW_CLASSES + ["--format", fmt])
    if fmt == "csv":
        rows = list(csv.DictReader(io.StringIO(out)))
        # the class (is_real false, admissible true) is out of reach of
        # both families: an admissible level's radicand is positive
        assert {(r["is_real"], r["admissible"]) for r in rows if not r["status"]} == {
            ("true", "true"), ("true", "false"), ("false", "false")}
        assert {r["status"].split(":")[0] for r in rows} == {"", "pole", "invalid"}


META = {"command": "sweep", "note": "100% []"}
COLS = ["m2", "e_re", "e_im", "is_real", "admissible", "status"]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_literal_lines_may_hold_percent_signs(fmt):
    ns = {"format": fmt}
    rows = [{"m2": 0.1, "status": "invalid: 5% of %s, %(a)d and %%"},
            {"m2": float("nan"), "e_re": -0.0, "status": "%"}]
    assert cli._emit(ns, META, COLS, rows) == _reference(fmt, META, COLS, rows)
    # literal lines around a template with fields, in one % call
    template = cli._line(fmt, COLS, [cli._FLOAT[fmt]] * 3
                         + [cli._cell(fmt, value) for value in (True, False, "")])
    lines = [cli._literal(fmt, COLS, rows[0]), template, cli._literal(fmt, COLS, rows[1])]
    filled = {"m2": 0.2, "e_re": 1.5, "e_im": 0.0, "is_real": True, "admissible": False,
              "status": ""}
    assert cli._text(ns, META, COLS, lines, [0.2, 1.5, 0.0]) == _reference(
        fmt, META, COLS, [rows[0], filled, rows[1]])


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_lines_cover_every_class_and_keep_a_negative_zero_root(fmt):
    # radicand -0.0 is real with root sqrt(-0.0) = -0.0, which must print as
    # -0; row 1 is the class no family reaches, row 3 goes in literally
    e_re, e_im, is_real = relativistic_energy(np.array([4.0, -9.0, -0.0, 2.25, -1.0, 0.0]))
    admissible = np.array([True, True, False, False, False, True])
    lv = LevelColumns(e_re, e_im, is_real, admissible, np.ones(6, dtype=bool))
    values = np.array([0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
    scalar = {3: {"m2": 2.0, "e_re": None, "e_im": None, "is_real": None,
                  "admissible": None, "status": "invalid: 100% off, %s"}}
    lines, fields = cli._sweep_lines(fmt, COLS, values, lv, scalar)
    rows = [scalar.get(i) or dict(zip(COLS, (*row, "")))
            for i, row in enumerate(zip(values.tolist(), e_re.tolist(), e_im.tolist(),
                                        is_real.tolist(), admissible.tolist()))]
    text = cli._text({"format": fmt}, META, COLS, lines, fields)
    assert text == _reference(fmt, META, COLS, rows)
    if fmt == "csv":
        assert "\n1.5,-0,0,true,false,\n" in text
    else:
        assert '"e_re": -0.0' in text
