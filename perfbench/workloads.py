"""The three workloads: seeded inputs, one operation, its check and the
check's self-test.

Every operation of a workload has the same kind and size; the seed varies
only the parameters.  ``run`` is the timed operation and calls pdmdirac
through its public functions only.  ``check`` runs outside the timed region,
compares the output with the references in ``reference.py`` and returns the
operation's error (the workload's ``max_err`` is the largest of them).
``corrupt`` makes a deliberately wrong copy of an output that ``check``
must reject.
"""

from __future__ import annotations

import csv
import math
import os
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

import reference as ref
from reference import require

LEVELS = 3            # states per family
GRID_POINTS = 6000    # the acceptance-size grid
HALF_LINE_SKIP = 45   # residual points cut at the half-line wall, as in the acceptance suite
# inverse iteration leaves errors of about 1e-12 of the peak in an eigenvector's
# tails, which flip the sign of samples there; nodes are counted above this share
FD_NODE_FLOOR = 1e-6


def _eigen_tol(e_bar: float) -> float:
    return max(5e-4, 1e-3 * abs(e_bar))


def _overlap(f, g, h) -> float:
    return abs(h * float(np.dot(f, g))) / math.sqrt(ref.grid_norm2(f, h) * ref.grid_norm2(g, h))


class CountingPotential:
    """V(x) = v_minus of one superpotential; counts the samples it serves."""

    def __init__(self, pd, w):
        self.pd, self.w, self.samples = pd, w, 0

    def __call__(self, x):
        self.samples += np.size(x)
        return self.pd.partner_potentials(self.w, x).v_minus


# ----------------------------------------------------------------------
# oracle: one 6000-point finite-difference solve per parameter set
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class OracleInput:
    family: str          # "rm" (whole line) or "pt" (half line)
    coeffs: tuple        # (v0, v1, v2) or (a, b, c)
    grid: object


class Oracle:
    """Alternates the two families, one operation per round: a solve of
    either family costs the same (the median ratio of the two over 91 pairs
    was 0.999), so every round has the same size.  The Poschl-Teller ground
    level carries the largest grid error, and that error moves with b and c,
    so their range is kept narrow enough for the run's worst error to be set
    by the grid."""

    name = "oracle"
    round_size = 1
    rounds_per_second = 2

    def __init__(self, pd):
        self.pd = pd

    def build(self, rng, n_rounds):
        pd = self.pd
        line = pd.Grid(-15.0, 15.0, GRID_POINTS)
        half = pd.Grid(1e-3, 20.0, GRID_POINTS)
        rounds = []
        for _ in range(n_rounds):
            v = (rng.uniform(0.0, 10.0), rng.uniform(18.0, 22.0), rng.uniform(-3.0, 3.0))
            b = rng.uniform(2.4, 2.6)
            pt = (b + 4.0 + rng.uniform(2.4, 2.8), b, 1.0)
            rounds += [[OracleInput("rm", v, line)], [OracleInput("pt", pt, half)]]
        return rounds[:n_rounds]

    def run(self, inp):
        pd = self.pd
        if inp.family == "rm":
            v0, v1, v2 = inp.coeffs
            sol = pd.rm2_solve(v0, v1, v2, n_max=LEVELS - 1)
            states = [pd.rm2_wavefunction(n, v1, v2, inp.grid) for n in range(LEVELS)]
        else:
            a, b, c = inp.coeffs
            sol = pd.gpt_solve(a, b, c, n_max=LEVELS - 1)
            states = [pd.gpt_wavefunction(n, a, b, c, inp.grid) for n in range(LEVELS)]
        potential = CountingPotential(pd, sol.w)
        fd = pd.discretize_and_solve(potential, inp.grid, k=LEVELS, eigenvectors=True)
        return {"eigenvalues": fd.eigenvalues, "vectors": fd.eigenvectors,
                "ladder": [lv.e_bar for lv in sol.spectrum.levels],
                "states": [st.samples for st in states],
                "samples": potential.samples}

    def check(self, inp, out):
        g = inp.grid
        x, h = ref.grid_points(g.x_min, g.x_max, g.n_points)
        if inp.family == "rm":
            v0, v1, v2 = inp.coeffs
            exact = [ref.rm_level(v1, v2, n) for n in range(LEVELS)]
            exact_states = [ref.rm_state(v1, v2, n, x) for n in range(LEVELS)]
        else:
            a, b, c = inp.coeffs
            exact = [ref.pt_level(a, b, c, n) for n in range(LEVELS)]
            exact_states = [ref.pt_state(a, b, c, n, x) for n in range(LEVELS)]
        lams = np.asarray(out["eigenvalues"], dtype=float)
        require(lams.shape == (LEVELS,) and np.all(np.isfinite(lams)),
                f"eigenvalues {lams}")
        worst = 0.0
        for n, (lam, e_bar) in enumerate(zip(lams, exact)):
            require(abs(lam - e_bar) <= _eigen_tol(e_bar),
                    f"{inp.family} level {n}: oracle {lam!r} vs exact {e_bar!r}")
            require(abs(out["ladder"][n] - e_bar) <= 1e-12 * max(1.0, abs(e_bar)),
                    f"{inp.family} level {n}: ladder {out['ladder'][n]!r} vs {e_bar!r}")
            worst = max(worst, abs(lam - e_bar) / max(1.0, abs(e_bar)))
            vec, closed = out["vectors"][n], out["states"][n]
            require(np.all(np.isfinite(vec)) and np.all(np.isfinite(closed)),
                    f"{inp.family} level {n}: non-finite state")
            require(_overlap(vec, exact_states[n], h) >= 1.0 - 1e-5,
                    f"{inp.family} level {n}: eigenvector overlap")
            require(_overlap(closed, exact_states[n], h) >= 1.0 - 1e-9,
                    f"{inp.family} level {n}: closed-form state overlap")
            require(ref.sign_changes(vec, FD_NODE_FLOOR) == n, f"{inp.family} level {n}: nodes")
        return worst

    def corrupt(self, inp, out):
        bad = dict(out)
        lams = np.array(out["eigenvalues"], dtype=float)
        lams[-1] += 2.0 * _eigen_tol(lams[-1])
        bad["eigenvalues"] = lams
        return bad


# ----------------------------------------------------------------------
# sweep: one in-process `pdmdirac sweep` of SWEEP_STEPS points per operation
# ----------------------------------------------------------------------

SWEEP_STEPS = 3000
SWEEP_LEVEL = 3
CAPTION = {"omega": 3.0, "alpha": 2.0, "gamma": 0.1, "beta": 6.0}  # example 1, literal beta
EXAMPLE_2 = {"omega": 5.0, "alpha": 1.0, "gamma": 10.0, "delta": 0.5, "c": 3.0}


@dataclass(frozen=True)
class SweepInput:
    label: str           # "paper-ex2", "paper-ex1", "pt-direct" or "ex1-seeded"
    argv: tuple
    m2_range: tuple
    consts: dict         # everything except m2 that the radicand needs
    output: str

    def radicand(self, m2):
        """(value, round-off bound, scale of E) at the given m2."""
        k = self.consts
        if self.label in ("paper-ex1", "ex1-seeded"):
            coeffs = ref.rm_coefficients(k["omega"], k["alpha"], k["gamma"], k["beta"], m2)
            return (*ref.rm_radicand(coeffs, SWEEP_LEVEL), 1.0)
        if self.label == "paper-ex2":
            a, b = ref.pt_coefficients(k["omega"], k["alpha"], k["gamma"], k["delta"], k["c"], m2)
        else:
            a, b = k["a"], k["b"]
        return (*ref.pt_radicand(a, b, k["c"], k["gamma"], m2, SWEEP_LEVEL), abs(k["delta"]))

    def admissible(self, m2):
        k = self.consts
        if self.label in ("paper-ex1", "ex1-seeded"):
            _, v1, v2 = ref.rm_coefficients(k["omega"], k["alpha"], k["gamma"], k["beta"], m2)
            return ref.rm_admissible(v1, v2, SWEEP_LEVEL)
        if self.label == "paper-ex2":
            a, b = ref.pt_coefficients(k["omega"], k["alpha"], k["gamma"], k["delta"], k["c"], m2)
        else:
            a, b = k["a"], k["b"]
        return ref.pt_admissible(a, b, k["c"], SWEEP_LEVEL)


def _sweep_argv(family_args, m2_lo, m2_hi, output):
    argv = ["sweep", *family_args, "--level", str(SWEEP_LEVEL), "--param", "m2",
            "--from", repr(m2_lo), "--to", repr(m2_hi), "--steps", str(SWEEP_STEPS),
            "--output", output]
    return tuple(argv)


def _model_args(consts, m2):
    out = []
    for key, val in consts.items():
        out += [f"--{key}", repr(val)]
    return out + ["--m2", repr(m2)]


class Sweep:
    """A round is the paper's two reality-window scans plus one seeded
    direct-coefficient Poschl-Teller sweep and one seeded example-1 sweep.
    The Rosen-Morse family is seeded through example 1 because its direct
    mode (--v0/--v1/--v2) ignores every sweepable key and would write
    identical rows."""

    name = "sweep"
    round_size = 4
    rounds_per_second = 40

    def __init__(self, pd, out_dir):
        self.pd, self.out_dir = pd, out_dir

    def build(self, rng, n_rounds):
        path = [os.path.join(self.out_dir, f"sweep-{i}.csv") for i in range(self.round_size)]
        paper_ex2 = SweepInput(
            "paper-ex2",
            _sweep_argv(["--example", "2", *_model_args(EXAMPLE_2, 1.0)], 0.1, 8.0, path[0]),
            (0.1, 8.0), EXAMPLE_2, path[0])
        paper_ex1 = SweepInput(
            "paper-ex1",
            _sweep_argv(["--example", "1", "--beta-mode", "literal",
                         *_model_args(CAPTION, 5.0)], 4.0, 6.0, path[1]),
            (4.0, 6.0), CAPTION, path[1])
        rounds = []
        for _ in range(n_rounds):
            c = rng.uniform(0.8, 1.2)
            b = rng.uniform(1.0, 2.0) * c
            a = b + rng.uniform(0.5, 2.5) * c
            gamma, delta = rng.uniform(1.0, 3.0), rng.uniform(0.5, 1.5)
            root = math.sqrt(-ref.pt_level(a, b, c, SWEEP_LEVEL)) / gamma
            lo, hi = root * rng.uniform(0.3, 0.7), root * rng.uniform(1.3, 1.7)
            pt = {"a": a, "b": b, "c": c, "gamma": gamma, "delta": delta}
            pt_args = ["--sp-a", repr(a), "--sp-b", repr(b), "--c", repr(c),
                       "--gamma", repr(gamma), "--delta", repr(delta), "--m2", repr(lo)]
            ex1 = {k: v * rng.uniform(0.98, 1.02) for k, v in CAPTION.items()}
            rounds.append([
                paper_ex2, paper_ex1,
                SweepInput("pt-direct", _sweep_argv(pt_args, lo, hi, path[2]),
                           (lo, hi), pt, path[2]),
                SweepInput("ex1-seeded",
                           _sweep_argv(["--example", "1", "--beta-mode", "literal",
                                        *_model_args(ex1, 5.0)], 4.0, 6.0, path[3]),
                           (4.0, 6.0), ex1, path[3])])
        return rounds

    def run(self, inp):
        return self.pd.cli.main(list(inp.argv)), inp.output

    def check(self, inp, out):
        code, path = out
        require(code == 0, f"{inp.label}: exit code {code}")
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        return self._check_rows(inp, rows)

    def _check_rows(self, inp, rows):
        lo, hi = inp.m2_range
        step = (hi - lo) / (SWEEP_STEPS - 1)
        require(len(rows) == SWEEP_STEPS, f"{inp.label}: {len(rows)} rows")
        xs, rads, real = [], [], []
        for i, row in enumerate(rows):
            require(row["status"] == "", f"{inp.label} row {i}: status {row['status']!r}")
            m2 = float(row["m2"])
            require(abs(m2 - (lo + step * i)) <= 1e-12 * max(abs(lo), abs(hi)),
                    f"{inp.label} row {i}: m2 = {m2!r}")
            e_re, e_im = float(row["e_re"]), float(row["e_im"])
            is_real = row["is_real"] == "true"
            rad, tol, scale = inp.radicand(m2)
            require(math.isfinite(e_re) and math.isfinite(e_im) and min(e_re, e_im) >= 0.0
                    and (e_im == 0.0 if is_real else e_re == 0.0),
                    f"{inp.label} row {i}: energy ({e_re!r}, {e_im!r}) vs is_real {is_real}")
            require(abs((e_re * e_re - e_im * e_im) / (scale * scale) - rad) <= tol,
                    f"{inp.label} row {i}: E^2 vs radicand {rad!r}")
            require(is_real == (rad >= 0.0) or abs(rad) <= tol,
                    f"{inp.label} row {i}: is_real {is_real} vs radicand {rad!r}")
            require((row["admissible"] == "true") == inp.admissible(m2),
                    f"{inp.label} row {i}: admissible flag")
            xs.append(m2)
            rads.append((e_re * e_re - e_im * e_im) / (scale * scale))
            real.append(is_real)

        worst, edges = 0.0, []
        for i in range(1, len(rows)):
            if real[i] != real[i - 1]:
                root = ref.bisect_root(lambda m: inp.radicand(m)[0], xs[i - 1], xs[i])
                edge = 0.5 * (xs[i - 1] + xs[i])
                edges.append(edge)
                worst = max(worst, abs(edge - root) / step)
        require(edges, f"{inp.label}: no window edge in the sweep")
        if inp.label == "paper-ex2":
            require(len(edges) == 1 and abs(edges[0] - 1.404) <= 0.01,
                    f"level-3 sign change at m2 = {edges}, paper 1.404 +- 0.01")
        if inp.label == "paper-ex1":
            for m2, paper in ((4.2145, 0.0565786), (5.6142, 0.0310165)):
                i = int((m2 - lo) / step)
                t = (m2 - xs[i]) / (xs[i + 1] - xs[i])
                rad = (1.0 - t) * rads[i] + t * rads[i + 1]
                require(rad < 0.0 and abs(math.sqrt(-rad) - paper) <= 1e-3,
                        f"|E| at m2 = {m2}: {math.sqrt(max(-rad, 0.0))}, paper {paper}")
        return worst

    def corrupt(self, inp, out):
        _, path = out
        with open(path, newline="", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        cells = lines[1 + SWEEP_STEPS // 2].split(",")
        cells[3] = "false" if cells[3] == "true" else "true"
        lines[1 + SWEEP_STEPS // 2] = ",".join(cells)
        bad = path + ".corrupt"
        with open(bad, "w", newline="", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        return 0, bad


# ----------------------------------------------------------------------
# states: one parameter set through the paper's chain
# ----------------------------------------------------------------------

# centres of the seeded boxes: three admissible levels in each family on the
# acceptance grids with every acceptance tolerance met.  One set of model
# constants cannot serve both families (see README), so each has its own.
STATES_RM = {"omega": 3.0, "alpha": 0.5, "gamma": 0.5, "beta": -0.9, "m1": 0.35, "m2": 0.5}
STATES_PT = {"omega": 3.0, "alpha": 0.5, "gamma": 3.5, "beta": -0.5, "m1": 0.3,
             "m2": 2.0, "c": 1.0}
STATES_JITTER = 0.015


@dataclass(frozen=True)
class StatesInput:
    family: str          # "cosh" or "coth"
    params: object       # pdmdirac.ModelParams
    e_ref: float
    epsilon: float
    grid: object


class States:
    """Each operation runs both families of one seeded parameter set."""

    name = "states"
    round_size = 1
    rounds_per_second = 120

    def __init__(self, pd):
        self.pd = pd
        self.span = lambda layer: nullcontext()  # a traced run brackets each stage

    def build(self, rng, n_rounds):
        pd = self.pd
        line = pd.Grid(-15.0, 15.0, GRID_POINTS)
        rounds = []
        for _ in range(n_rounds):
            cosh = pd.ModelParams(**{k: v * rng.uniform(1 - STATES_JITTER, 1 + STATES_JITTER)
                                     for k, v in STATES_RM.items()})
            coth = pd.ModelParams(**{k: v * rng.uniform(1 - STATES_JITTER, 1 + STATES_JITTER)
                                     for k, v in STATES_PT.items()})
            half = pd.Grid(1e-3 / coth.c, 20.0 / coth.c, GRID_POINTS)
            rounds.append([(StatesInput("cosh", cosh, rng.uniform(1.0, 1.5),
                                        rng.uniform(0.2, 0.5), line),
                            StatesInput("coth", coth, rng.uniform(1.0, 1.5),
                                        rng.uniform(0.2, 0.5), half))])
        return rounds

    def stages(self, inp):
        """The chain for one family, one stage per layer."""
        pd, p, span = self.pd, inp.params, self.span
        prof = pd.profile_from_params(p, inp.family)
        x = inp.grid.points
        out = {}
        with span("hermitization"):
            big = pd.nonhermitian_coeffs(p, prof)
            small = pd.hermitian_coeffs(p, prof)
            out["big"] = (big.c2(x), big.c1(x), big.c0(x))
            out["small"] = (small.c2(x), small.c1(x), small.c0(x))
            out["rho"] = pd.rho_weight(p, prof, x)
            out["s_gen"] = pd.schrodinger_potential(p, prof, inp.epsilon, x, form="generic")
            out["s_ans"] = pd.schrodinger_potential(p, prof, inp.epsilon, x, form="ansatz")
        with span("dirac"):
            mass, v_r = pd.dirac_profiles(p, prof, inp.e_ref)
            pot = pd.complete_potential(mass, v_r.v, v_r.dv, inp.e_ref)
            out["v_i"] = pot.v_i(x)
            out["bracket"] = pd.cancellation_residual(mass, v_r, pot.v_i, inp.e_ref, x)
            out["v_gen"] = pd.effective_potential_general(mass, v_r, inp.e_ref, x)
            out["v_ans"] = pd.effective_potential_ansatz(p, prof, inp.e_ref, x)
        with span("susy"):
            if inp.family == "cosh":
                sol = pd.rm2_solve_from_params(p, n_max=LEVELS - 1)
                coeffs = (sol.coeffs.v1, sol.coeffs.v2)
            else:
                sol = pd.gpt_solve_from_params(p, n_max=LEVELS - 1)
                coeffs = (sol.w.a, sol.w.b, sol.w.c)
            out["ladder"] = [lv.e_bar for lv in sol.spectrum.levels]
        with span("wavefunctions"):
            make = pd.rm2_wavefunction if inp.family == "cosh" else pd.gpt_wavefunction
            states = [make(n, *coeffs, inp.grid) for n in range(LEVELS)]
            out["samples"] = [st.samples for st in states]
            out["e_bar"] = [st.e_bar for st in states]
            out["nodes"] = [st.nodes for st in states]
        with span("numerics"):
            potential = CountingPotential(pd, sol.w)
            skip = 0 if inp.family == "cosh" else HALF_LINE_SKIP
            out["residual"] = [pd.ode_residual(potential, st.e_bar, st.samples, inp.grid, skip=skip)
                               for st in states]
            out["counted"] = [pd.count_nodes(st.samples) for st in states]
        return out

    def run(self, inp):
        return [self.stages(one) for one in inp]

    def check(self, inp, out):
        return max(self._check_family(one, res) for one, res in zip(inp, out))

    def _check_family(self, inp, out):
        p, g, fam = inp.params, inp.grid, inp.family
        x, h = ref.grid_points(g.x_min, g.x_max, g.n_points)
        prof = ref.profile(fam, p.delta, p.c, p.gamma, p.beta, x)
        for key in ("big", "small"):
            require(all(np.all(np.isfinite(c)) for c in out[key]), f"{fam}: {key} coefficients")
        sim = ref.similarity_mismatch(out["big"], out["small"], p.omega, p.alpha, p.beta, prof)
        require(sim < 1e-8, f"{fam}: similarity identity {sim:.3e}")
        rho = ref.rho(p.omega, p.alpha, p.gamma, p.beta, prof[0], x)
        require(np.all(out["rho"] > 0.0)
                and np.max(np.abs(out["rho"] / rho - 1.0)) < 1e-8, f"{fam}: rho weight")
        for a, b, what in ((out["s_gen"], out["s_ans"], "second-order forms"),
                           (out["v_gen"], out["v_ans"], "effective-potential forms")):
            diff = np.max(np.abs(a - b) / (1.0 + np.abs(b)))
            require(diff < 1e-10, f"{fam}: {what} differ by {diff:.3e}")
        own = ref.cancellation_bracket(p.m1, p.m2, p.gamma, p.beta, inp.e_ref, prof, out["v_i"])
        for bracket, what in ((out["bracket"], "program"), (own, "reference")):
            require(np.max(np.abs(bracket)) < 1e-12, f"{fam}: {what} imaginary bracket")

        if fam == "cosh":
            _, v1, v2 = ref.rm_coefficients(p.omega, p.alpha, p.gamma, p.beta, p.m2)
            exact = [ref.rm_level(v1, v2, n) for n in range(LEVELS)]
            v = ref.rm_potential(v1, v2, x)
            skip = 0
        else:
            a, b = ref.pt_coefficients(p.omega, p.alpha, p.gamma, p.delta, p.c, p.m2)
            exact = [ref.pt_level(a, b, p.c, n) for n in range(LEVELS)]
            v = ref.pt_potential(a, b, p.c, x)
            skip = HALF_LINE_SKIP
        worst = 0.0
        for n in range(LEVELS):
            f = out["samples"][n]
            require(np.all(np.isfinite(f)), f"{fam} state {n}: non-finite samples")
            for e_bar in (out["ladder"][n], out["e_bar"][n]):
                require(abs(e_bar - exact[n]) <= 1e-12 * max(1.0, abs(exact[n])),
                        f"{fam} state {n}: level {e_bar!r} vs {exact[n]!r}")
            require(abs(ref.grid_norm2(f, h) - 1.0) < 1e-10, f"{fam} state {n}: norm")
            require(ref.sign_changes(f) == n and out["nodes"][n] == n
                    and out["counted"][n] == n, f"{fam} state {n}: node count")
            res = ref.ode_residual(v, exact[n], f, h, skip)
            require(res < 1e-6, f"{fam} state {n}: ode residual {res:.3e}")
            require(abs(out["residual"][n] - res) <= 1e-3 * res,
                    f"{fam} state {n}: program residual {out['residual'][n]!r} vs {res!r}")
            worst = max(worst, res)
        return worst

    def corrupt(self, inp, out):
        bad = [dict(one) for one in out]
        samples = list(bad[0]["samples"])
        samples[1] = np.full_like(samples[1], np.nan)
        bad[0]["samples"] = samples
        return bad

