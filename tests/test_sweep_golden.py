"""Byte-level guards on ``pdmdirac sweep`` and ``pdmdirac wavefunction``.

The sweep digests and the tiny-sweep rows below were recorded from the
point-by-point sweep (one ``_sweep_point`` per swept value).  The property
test rebuilds every sweep that way and asks ``main`` for the same bytes.
The wavefunction digests were recorded from its row-by-row writer.
"""

import contextlib
import hashlib
import io
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdmdirac import cli

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


def _point_by_point(argv):
    """The sweep's bytes with every row built by ``_sweep_point``."""
    ns = vars(PARSER.parse_args(argv))
    mode = cli._resolve_mode(ns)
    steps, lo = ns["steps"], ns["sweep_from"]
    span = ns["sweep_to"] - lo
    values = [lo + span * i / (steps - 1) for i in range(steps)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rows = [cli._sweep_point(ns, mode, v, ns["level"]) for v in values]
    cols = [ns["param"], "e_re", "e_im", "is_real", "admissible", "status"]
    return cli._emit(ns, cli._meta(ns, "sweep"), cols, rows)


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


def test_readme_wavefunction_bytes():
    code, out = _run(README_WAVEFUNCTION)
    assert code == 0
    assert _md5(out) == "83a83b0722f81bff8b7d1af15aa3a337"
    code, out = _run(README_WAVEFUNCTION + ["--format", "json"])
    assert code == 0
    assert _md5(out) == "ef17a8d456df5e36ca4b31772ffcddd1"


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
