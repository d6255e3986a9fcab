"""Command-line front end.

Subcommands
-----------
constraints   derived constants for a parameter set
spectrum      exact level table for example 1 (Rosen-Morse) or 2 (Poschl-Teller)
wavefunction  sampled bound state, optionally with the upper spinor component
sweep         relativistic energy of one level swept over a model parameter
verify        named self-checks with residuals (exit 2 on any failure)

Parameters may come from flags or from a flat ``key = value`` config file
(``--config``) whose lines are read as the flags their keys name; flags
override the file, unknown keys are hard errors.
Output is CSV (default) or JSON with a ``meta``/``rows`` layout; floats are
serialized with 17 significant digits so they round-trip exactly.

Exit codes: 0 success; 1 invalid input, that is every ValueError, including
an output file that cannot be written and a request above the caps on
``--n-max`` and ``wavefunction --level`` (MAX_N_MAX), ``--grid-points`` and
``--steps`` (MAX_POINTS);
2 verification failure; 3 numerical failure (overflow, poles, solver
non-convergence).
"""

from __future__ import annotations

import argparse
import cmath
import csv
import functools
import json
import math
import re
import sys
import types
import warnings

import numpy as np

from . import verify as verify_mod
from .errors import ConvergenceError, PoleError, SingularityError
from .model import BetaMode, ModelParams, derived_constants, in_domain, resolve_beta
from .numerics import Grid
from .susy import (gpt_ab, gpt_level_columns, gpt_params_ab, gpt_solve,
                   gpt_solve_from_params, gpt_superpotential, rm2_coefficients,
                   rm2_coefficients_from_params, rm2_level_columns, rm2_solve,
                   rm2_solve_from_params)
from .wavefunctions import gpt_wavefunction, rm2_wavefunction


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes only "-1" and "-.5" style strings for negative numbers
        # and reads "-1e-5" as an option; accept scientific notation as a value
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        raise ValueError(message)


MODEL_KEYS = ("omega", "alpha", "gamma", "beta", "delta", "c", "m1", "m2")
# the largest requests served, refused before anything is allocated
MAX_N_MAX = 100_000
MAX_POINTS = 1_000_000
# model keys each direct-coefficient mode reads; the example modes read all
_MODE_MODEL_KEYS = {"rm2": (), "gpt": ("c", "delta", "gamma", "m2")}


def _finite(text: str) -> float:
    """A flag's value as a finite float; argparse names the flag on refusal."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _add_model_opts(p: _Parser):
    for key in MODEL_KEYS:
        p.add_argument(f"--{key}", type=_finite, default={"delta": 1.0, "c": 1.0, "m1": 0.0}.get(key))
    p.add_argument("--beta-mode", dest="beta_mode", choices=[m.value for m in BetaMode])


def _add_family_opts(p: _Parser):
    p.add_argument("--example", type=int, choices=(1, 2),
                   help="1 = Rosen-Morse (cosh profile), 2 = Poschl-Teller (coth)")
    p.add_argument("--v0", type=_finite)
    p.add_argument("--v1", type=_finite)
    p.add_argument("--v2", type=_finite)
    p.add_argument("--sp-a", dest="sp_a", type=_finite,
                   help="superpotential tanh strength (half-line family)")
    p.add_argument("--sp-b", dest="sp_b", type=_finite,
                   help="superpotential coth strength (half-line family)")


def _add_grid_opts(p: _Parser):
    p.add_argument("--grid-points", dest="grid_points", type=int)
    p.add_argument("--x-min", dest="x_min", type=float)
    p.add_argument("--x-max", dest="x_max", type=float)


def _add_output_opts(p: _Parser):
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output")
    p.add_argument("--config")


def build_parser() -> _Parser:
    parser = _Parser(prog="pdmdirac", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constraints", help="derived constants")
    _add_model_opts(p)
    _add_output_opts(p)

    p = sub.add_parser("spectrum", help="exact level table")
    _add_model_opts(p)
    _add_family_opts(p)
    _add_output_opts(p)
    p.add_argument("--n-max", dest="n_max", type=int, default=5)

    p = sub.add_parser("wavefunction", help="sampled bound state")
    _add_model_opts(p)
    _add_family_opts(p)
    _add_grid_opts(p)
    _add_output_opts(p)
    p.add_argument("--level", type=int, default=0)
    p.add_argument("--with-spinor", dest="with_spinor",
                   action=argparse.BooleanOptionalAction, default=False)

    p = sub.add_parser("sweep", help="level energy over a parameter range")
    _add_model_opts(p)
    _add_family_opts(p)
    _add_output_opts(p)
    p.add_argument("--param", choices=MODEL_KEYS)
    p.add_argument("--from", dest="sweep_from", type=float)
    p.add_argument("--to", dest="sweep_to", type=float)
    p.add_argument("--steps", type=int)
    p.add_argument("--level", type=int, default=0)

    p = sub.add_parser("verify", help="self-check suites")
    _add_output_opts(p)
    p.add_argument("--suite", default="all", choices=sorted(verify_mod.SUITES) + ["all"])
    p.add_argument("--tolerance-scale", dest="tolerance_scale", type=float, default=1.0)

    # each subcommand's options by flag name and by dest ("-" read as "_"):
    # the keys of a config file, and the flags that _require names
    parser.options = {
        command: {key.replace("-", "_"): action for action in subparser._actions
                  if action.dest not in ("help", "config")
                  for key in (action.option_strings[0][2:], action.dest)}
        for command, subparser in sub.choices.items()}
    return parser


def _config_flags(parser: _Parser, command: str, path: str) -> list[str]:
    """The ``key = value`` lines of a config file as flags, one token a line."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ValueError(f"cannot read config file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValueError(f"cannot read config file: {path}: {exc}") from exc
    tokens = []
    for lineno, line in enumerate(lines, 1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        try:
            if "=" not in text:
                raise ValueError("expected 'key = value'")
            key, raw = (part.strip() for part in text.split("=", 1))
            action = parser.options[command].get(key.replace("-", "_"))
            if action is None:
                raise ValueError(f"unknown key {key!r}")
            token = f"{action.option_strings[0]}={raw}"
            if isinstance(action, argparse.BooleanOptionalAction):
                if raw.lower() not in ("true", "1", "yes", "false", "0", "no"):
                    raise ValueError(f"expected a boolean for {key!r}, got {raw!r}")
                # option_strings is (--flag, --no-flag)
                token = action.option_strings[raw.lower() in ("false", "0", "no")]
            parser.parse_args([command, token])  # each line checked alone
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
        tokens.append(token)
    return tokens


def _require(ns: dict, *keys: str):
    missing = [k for k in keys if ns.get(k) is None]
    if missing:
        options = _parser().options[ns["command"]]
        raise ValueError("missing required option(s): " + ", ".join(
            options[k].option_strings[0] for k in missing))


def _model_fields(ns: dict) -> dict:
    """The fields of ModelParams from the options, unchecked against its domain."""
    _require(ns, "omega", "alpha", "gamma", "m2")
    beta = ns.get("beta")
    if ns.get("beta_mode") is None:
        # literal when beta was given, the omega/alpha closed form otherwise
        mode = BetaMode.LITERAL if beta is not None else BetaMode.COUPLING
    else:
        mode = BetaMode(ns["beta_mode"])
    if mode is BetaMode.LITERAL and beta is None:
        raise ValueError("literal beta-mode requires --beta")
    return {"omega": ns["omega"], "alpha": ns["alpha"], "gamma": ns["gamma"],
            "beta": 0.0 if beta is None else beta, "delta": ns["delta"],
            "c": ns["c"], "m1": ns["m1"], "m2": ns["m2"], "beta_mode": mode}


def _model_params(ns: dict) -> ModelParams:
    fields = _model_fields(ns)
    ns["beta_mode"] = fields["beta_mode"].value  # resolved mode lands in the emitted meta
    return ModelParams(**fields)


def _gpt_args(ns: dict) -> dict:
    """gpt_solve's arguments in direct Poschl-Teller mode."""
    _require(ns, "sp_a", "sp_b")
    return {"a": ns["sp_a"], "b": ns["sp_b"], "c": ns["c"], "delta": ns["delta"],
            "gamma": ns.get("gamma") or 0.0,
            "m2": 1.0 if ns.get("m2") is None else ns["m2"]}


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if not math.isfinite(value):
            return ""
        return format(value, ".17g")
    return str(value)


# writerow returns what the file's write returns: here the CSV line itself
_CSV_LINE = csv.writer(types.SimpleNamespace(write=str), lineterminator="\n")
# a finite float field of a line template, written as _fmt and json write it
_FLOAT = {"csv": "%.17g", "json": "%r"}


def _cell(fmt: str, value) -> str:
    """A literal cell of a line template: ``value`` as written, ``%`` doubled."""
    if fmt == "csv":
        return _fmt(value).replace("%", "%%")
    if isinstance(value, float) and not math.isfinite(value):
        value = None  # json writes a non-finite float as null
    return json.dumps(value).replace("%", "%%")


def _line(fmt: str, columns: list[str], cells) -> str:
    """The template of one row from its cells (literal cells or float fields)."""
    if fmt == "json":
        # json.dumps(..., indent=2) of a row object in the "rows" list
        return "    {\n" + ",\n".join(f"      {json.dumps(key)}: {cell}"
                                      for key, cell in zip(columns, cells)) + "\n    }"
    return _CSV_LINE.writerow(cells)


def _literal(fmt: str, columns: list[str], row: dict) -> str:
    """The template of a row dict: literal cells only."""
    return _line(fmt, columns, [_cell(fmt, row.get(key)) for key in columns])


def _text(ns: dict, meta: dict, columns: list[str], lines: list[str], args=()) -> str:
    """The output of ``columns`` and the rows whose templates are ``lines``.

    The rows are written with one ``%`` over the joined templates, which
    take their float fields from ``args`` in order.  CSV is the header line
    and the rows; JSON is ``json.dumps({"meta": meta, "rows": rows},
    indent=2)`` with the rows spliced into the list.
    """
    if ns["format"] == "json":
        head, tail = json.dumps({"meta": meta, "rows": []}, indent=2).rsplit("[]", 1)
        rows = ("[\n" + ",\n".join(lines) % tuple(args) + "\n  ]") if lines else "[]"
        return head + rows + tail + "\n"
    return _CSV_LINE.writerow(columns) + "".join(lines) % tuple(args)


def _emit(ns: dict, meta: dict, columns: list[str], rows: list[dict]) -> str:
    return _text(ns, meta, columns, [_literal(ns["format"], columns, row) for row in rows])


def _write(ns: dict, text: str):
    if ns.get("output"):
        try:
            with open(ns["output"], "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write output file: {exc}") from exc
    else:
        sys.stdout.write(text)


def _meta(ns: dict, command: str) -> dict:
    keep = {k: v for k, v in sorted(ns.items())
            if k not in ("output", "config") and v is not None}
    keep["command"] = command
    return keep


def _at_most(flag: str, value, cap: int):
    if value is not None and value > cap:
        raise ValueError(f"{flag} must be at most {cap}, got {value}")


def _resolve_mode(ns: dict) -> str:
    direct_rm2 = any(ns.get(k) is not None for k in ("v0", "v1", "v2"))
    direct_gpt = any(ns.get(k) is not None for k in ("sp_a", "sp_b"))
    if direct_rm2 and direct_gpt:
        raise ValueError("give either --v0/--v1/--v2 or --sp-a/--sp-b, not both")
    if ns.get("example") is not None and (direct_rm2 or direct_gpt):
        raise ValueError("direct-coefficient mode excludes --example")
    if direct_rm2:
        return "rm2"
    if direct_gpt:
        return "gpt"
    if ns.get("example") == 1:
        return "example1"
    if ns.get("example") == 2:
        return "example2"
    raise ValueError("select --example 1|2 or direct coefficients "
                     "(--v0/--v1/--v2 or --sp-a/--sp-b)")


def _solve_spectrum(ns: dict, mode: str, n_max: int):
    if mode == "rm2":
        _require(ns, "v0", "v1", "v2")
        return rm2_solve(ns["v0"], ns["v1"], ns["v2"], n_max=n_max)
    if mode == "gpt":
        return gpt_solve(**_gpt_args(ns), n_max=n_max)
    params = _model_params(ns)
    if mode == "example1":
        return rm2_solve_from_params(params, n_max=n_max)
    return gpt_solve_from_params(params, n_max=n_max)


def _spectrum_rows(solution) -> list[dict]:
    rows = []
    for lv in solution.spectrum:
        if lv.e_bar is None:
            rows.append({"n": lv.n, "e_bar": None, "e_re": None, "e_im": None,
                         "is_real": lv.is_real, "admissible": lv.admissible,
                         "status": "pole"})
            continue
        if not (math.isfinite(lv.e_bar) and cmath.isfinite(lv.e_rel)):
            rows.append({"n": lv.n, "status": "overflow"})
            continue
        rows.append({"n": lv.n, "e_bar": lv.e_bar, "e_re": lv.e_rel.real,
                     "e_im": lv.e_rel.imag, "is_real": lv.is_real,
                     "admissible": lv.admissible, "status": ""})
    return rows


def cmd_constraints(ns: dict) -> int:
    sol = derived_constants(_model_params(ns))
    cols = ["sigma", "beta", "epsilon", "e_squared", "m1_plus", "m1_minus", "status"]
    row = {key: getattr(sol, key) for key in cols[:-1]}
    if all(val is None or math.isfinite(val) for val in row.values()):
        row["status"] = "" if sol.has_m1 else "m1-absent"
    else:
        row = {"status": "overflow"}
    _write(ns, _emit(ns, _meta(ns, "constraints"), cols, [row]))
    return 0


def cmd_spectrum(ns: dict) -> int:
    mode = _resolve_mode(ns)
    if ns["n_max"] < 0:
        raise ValueError("--n-max must be nonnegative")
    _at_most("--n-max", ns["n_max"], MAX_N_MAX)
    sol = _solve_spectrum(ns, mode, ns["n_max"])
    cols = ["n", "e_bar", "e_re", "e_im", "is_real", "admissible", "status"]
    _write(ns, _emit(ns, _meta(ns, "spectrum"), cols, _spectrum_rows(sol)))
    return 0


def cmd_wavefunction(ns: dict) -> int:
    mode = _resolve_mode(ns)
    n = ns["level"]
    if n < 0:
        raise ValueError("--level must be nonnegative")
    _at_most("--level", n, MAX_N_MAX)
    params = _model_params(ns) if (mode.startswith("example") or ns["with_spinor"]) else None
    if mode == "example1":
        co = rm2_coefficients_from_params(params)
        make, coeffs, ends = rm2_wavefunction, (co.v1, co.v2), (-15.0, 15.0)
    elif mode == "rm2":
        _require(ns, "v1", "v2")
        make, coeffs, ends = rm2_wavefunction, (ns["v1"], ns["v2"]), (-15.0, 15.0)
    else:
        if mode == "gpt":
            _require(ns, "sp_a", "sp_b")
        a, b = gpt_params_ab(params) if mode == "example2" else (ns["sp_a"], ns["sp_b"])
        # the superpotential refuses c <= 0 before the box [1e-3/c, 20/c] divides by c
        w = gpt_superpotential(a, b, ns["c"])
        make, coeffs, ends = gpt_wavefunction, w, (1e-3 / w.c, 20.0 / w.c)
    n_points = ns.get("grid_points")
    _at_most("--grid-points", n_points, MAX_POINTS)
    grid = Grid(ends[0] if ns.get("x_min") is None else ns["x_min"],
                ends[1] if ns.get("x_max") is None else ns["x_max"],
                6000 if n_points is None else n_points)
    state = make(n, *coeffs, grid)
    spin = make(n, *coeffs, grid, params) if ns["with_spinor"] else None
    cols = ["x", "phi"]
    samples = [grid.points, state.samples]
    if spin is not None:
        cols.append("spinor")
        samples.append(spin.samples)
    # normalize refuses non-finite samples, so every row takes one template
    fmt = ns["format"]
    lines = [_line(fmt, cols, [_FLOAT[fmt]] * len(cols))] * len(grid.points)
    fields = np.column_stack(samples).ravel().tolist()
    _write(ns, _text(ns, _meta(ns, "wavefunction"), cols, lines, fields))
    return 0


def _sweep_point(ns: dict, mode: str, value: float, level: int) -> dict:
    point = dict(ns)
    point[ns["param"]] = value
    row = {ns["param"]: value, "e_re": None, "e_im": None,
           "is_real": None, "admissible": None, "status": ""}
    try:
        sol = _solve_spectrum(point, mode, level)
        lv = sol.spectrum.levels[level]
        if lv.e_bar is None:
            row["status"] = "pole"
            return row
        if not (math.isfinite(lv.e_rel.real) and math.isfinite(lv.e_rel.imag)):
            row["status"] = "overflow"
            return row
        row.update({"e_re": lv.e_rel.real, "e_im": lv.e_rel.imag,
                    "is_real": lv.is_real, "admissible": lv.admissible})
    except OverflowError:
        row["status"] = "overflow"
    except (PoleError, SingularityError, ZeroDivisionError):
        row["status"] = "pole"
    except ValueError as exc:
        row["status"] = f"invalid: {exc}"
    return row


def _sweep_columns(ns: dict, mode: str, values: np.ndarray):
    """The swept level over all ``values`` in one array pass.

    Returns the LevelColumns and the mask of rows that the array pass
    settles; the other rows need the scalar path.  Raises ValueError when an
    option that every point shares is missing.
    """
    param, level = ns["param"], ns["level"]
    # the swept key is given by the sweep itself, so it is never missing
    shared = {**ns, param: 0.0}
    args = _gpt_args(shared) if mode == "gpt" else _model_fields(shared)
    beta_mode = args.pop("beta_mode", None)
    k = {key: values if key == param else np.full(values.shape, float(val))
         for key, val in args.items()}
    with np.errstate(all="ignore"):
        if mode == "example1":
            beta = resolve_beta(beta_mode, k["omega"], k["alpha"], k["beta"],
                                k["m1"], k["m2"])
            co = rm2_coefficients(k["omega"], k["alpha"], k["gamma"], beta, k["m2"])
            lv = rm2_level_columns(co.v0, co.v1, co.v2, level)
        else:
            a, b = ((k["a"], k["b"]) if mode == "gpt" else
                    gpt_ab(k["omega"], k["alpha"], k["gamma"], k["delta"], k["c"], k["m2"]))
            lv = gpt_level_columns(a, b, k["c"], level, delta=k["delta"],
                                   gamma=k["gamma"], m2=k["m2"])
    if mode == "gpt":
        return lv, lv.regular
    return lv, lv.regular & in_domain(k["omega"], k["m2"], k["delta"], k["c"])


def _sweep_lines(fmt: str, columns: list[str], values: np.ndarray, lv, scalar: dict):
    """The line templates and float fields of a sweep's rows.

    ``relativistic_energy`` puts a literal 0.0 in the energy that is not
    the root, so a row that the array pass settles is one of four classes
    by its (is_real, admissible) flags.  Each class's template holds the
    zero and both flags as literals; its fields are the swept value and
    the root, with its sign.  Row i in ``scalar`` is that row dict,
    written as literal cells.
    """
    f, zero = _FLOAT[fmt], _cell(fmt, 0.0)
    by_class = np.array([_line(fmt, columns, [f, *((f, zero) if real else (zero, f)),
                                              _cell(fmt, real), _cell(fmt, adm), _cell(fmt, "")])
                         for real in (False, True) for adm in (False, True)], dtype=object)
    lines = by_class[2 * lv.is_real + lv.admissible].tolist()
    for i, row in scalar.items():
        lines[i] = _literal(fmt, columns, row)
    fields = np.column_stack([values, np.where(lv.is_real, lv.e_re, lv.e_im)])
    return lines, np.delete(fields, list(scalar), axis=0).ravel().tolist()


def cmd_sweep(ns: dict) -> int:
    mode = _resolve_mode(ns)
    _require(ns, "param", "sweep_from", "sweep_to", "steps")
    read = _MODE_MODEL_KEYS.get(mode, MODEL_KEYS)
    if ns["param"] not in read:
        raise ValueError(f"--param {ns['param']} is never read in {mode} mode "
                         f"(it reads {', '.join(read) or 'no model key'})")
    if ns["steps"] < 2:
        raise ValueError("--steps must be at least 2")
    _at_most("--steps", ns["steps"], MAX_POINTS)
    if ns["level"] < 0:
        raise ValueError("--level must be nonnegative")
    param, steps = ns["param"], ns["steps"]
    span = ns["sweep_to"] - ns["sweep_from"]
    # the IEEE operations of sweep_from + span * i / (steps - 1), row by row
    with np.errstate(all="ignore"):
        values = ns["sweep_from"] + span * np.arange(steps) / (steps - 1)
    lv, regular = _sweep_columns(ns, mode, values)
    settled = regular & np.isfinite(values)
    # the scalar path names the status of every row the array pass cannot
    # settle (pole, overflow, invalid), and writes a non-finite swept value,
    # which a float field cannot, as an empty cell or null; its warnings are
    # carried by the row flags, and the filter is set here once because it is
    # process-global
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        scalar = {i: _sweep_point(ns, mode, float(values[i]), ns["level"])
                  for i in np.flatnonzero(~settled).tolist()}
    cols = [param, "e_re", "e_im", "is_real", "admissible", "status"]
    lines, fields = _sweep_lines(ns["format"], cols, values, lv, scalar)
    _write(ns, _text(ns, _meta(ns, "sweep"), cols, lines, fields))
    return 0


def cmd_verify(ns: dict) -> int:
    scale = ns["tolerance_scale"]
    if not 0.0 < scale <= 1.0:  # also refuses nan
        raise ValueError(f"--tolerance-scale must be finite and in (0, 1], got {scale!r}")
    names = sorted(verify_mod.SUITES) if ns["suite"] == "all" else [ns["suite"]]
    results, all_ok = verify_mod.run_suites(names, scale)
    if ns["format"] == "json":
        rows = [{"suite": s, "name": c.name, "value": c.value, "tol": c.tol,
                 "passed": ok} for s, c, ok in results]
        cols = ["suite", "name", "value", "tol", "passed"]
        _write(ns, _emit(ns, _meta(ns, "verify"), cols, rows))
    else:
        lines = [verify_mod.result_line(*result) for result in results]
        lines.append(f"{'all checks passed' if all_ok else 'FAILURES present'}")
        _write(ns, "\n".join(lines) + "\n")
    return 0 if all_ok else 2


COMMANDS = {
    "constraints": cmd_constraints,
    "spectrum": cmd_spectrum,
    "wavefunction": cmd_wavefunction,
    "sweep": cmd_sweep,
    "verify": cmd_verify,
}


@functools.cache
def _parser() -> _Parser:
    """The parser, built on the first ``main`` call; parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        parser = _parser()
        ns = vars(parser.parse_args(argv))
        if ns["config"] is not None:
            # the file's flags go first, so the command line overrides them
            file_flags = _config_flags(parser, ns["command"], ns["config"])
            ns = vars(parser.parse_args([ns["command"], *file_flags, *argv[1:]]))
        return COMMANDS[ns["command"]](ns)
    except (OverflowError, ConvergenceError, SingularityError, PoleError,
            ZeroDivisionError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
