"""Benchmark for pdmdirac.

    python3 perfbench/run.py --workload oracle|sweep|states --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout: pdmdirac is imported from ./src, nothing is
installed.  One process, one caller, a closed loop: each operation starts
when the previous one and its check have finished.  The loop runs whole
rounds of the workload until --seconds of wall time have passed; only the
operations themselves are timed.  Short calibrations run between the
operations, and every timing is reported at the reference speed of
calibration.py, since a shared host's own speed drifts.  Every output is
checked against the independent references in reference.py, and each run
ends by showing that its check rejects a deliberately corrupted output.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
(the first third of the run untraced, the rest traced, to give the tracing
overhead).  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback

# One core for the whole run (before numpy starts any threads): the sweep's
# thread pool otherwise hands the interpreter lock across cores, and on a
# 2-core host its time follows the other core's load, which the calibration
# on this core cannot see.
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
SETUP_REPEATS = 5  # before the loop, and again after it
TICK_S = 0.25      # operation time between two calibrations
CAL_SHARE = 0.05   # calibration time as a share of the operation time before it

import calibration  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("oracle", "sweep", "states"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program():
    """A fresh import of pdmdirac and its CLI from ./src."""
    for name in [m for m in sys.modules if m == "pdmdirac" or m.startswith("pdmdirac.")]:
        del sys.modules[name]
    pd = importlib.import_module("pdmdirac")
    importlib.import_module("pdmdirac.cli")
    return pd


def make_workload(name, pd):
    if name == "oracle":
        return workloads.Oracle(pd)
    if name == "sweep":
        return workloads.Sweep(pd, OUT_DIR)
    return workloads.States(pd)


def build_once(args):
    pd = import_program()
    workload = make_workload(args.workload, pd)
    n_rounds = math.ceil(args.seconds * workload.rounds_per_second) + 1
    return pd, workload, iter(workload.build(np.random.default_rng(args.seed), n_rounds))


def set_up(args, times):
    """Import the program and build the run's inputs SETUP_REPEATS times,
    appending each time to ``times``; the last build is returned."""
    built = None
    for _ in range(SETUP_REPEATS):
        built = None  # drop the previous build before timing the next
        t0 = time.perf_counter()
        built = build_once(args)
        times.append(time.perf_counter() - t0)
    return built


class Run:
    """Counts, timings and errors of one run."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = self.failed = 0
        self.correct = True
        self.times = []          # one per completed operation
        self.round_means = []    # mean operation time of each completed round
        self.cal = []            # calibration times, in order
        self.max_err = 0.0
        self.last = None

    def op(self, inp):
        """Time one operation, then check it.  Returns the output or None."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = self.workload.run(inp)
        except Exception:  # the program failed: count it and carry on
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None
        self.times.append(time.perf_counter() - t0)
        try:
            self.max_err = max(self.max_err, self.workload.check(inp, out))
            self.last = (inp, out)
        except reference.CheckFailed as exc:
            self.correct = False
            print(f"check failed: {exc}", file=sys.stderr)
        return out

    def inputs(self, rounds, until):
        """Yield the inputs of whole rounds from the iterator ``rounds``
        until the wall clock passes ``until``.  After every TICK_S of
        operation time the machine's speed is calibrated for CAL_SHARE of
        that time, between operations, so the calibrations sample the whole
        run."""
        self._calibrate(TICK_S)
        since = 0.0
        while time.perf_counter() < until:
            batch = next(rounds, None)
            if batch is None:
                break
            start = len(self.times)
            for inp in batch:
                before = len(self.times)
                yield inp
                since += sum(self.times[before:])
                if since >= TICK_S:
                    self._calibrate(since)
                    since = 0.0
            done = self.times[start:]
            if len(done) == len(batch):
                self.round_means.append(statistics.fmean(done))
        if since:
            self._calibrate(since)

    def _calibrate(self, elapsed):
        """Calibrate for CAL_SHARE of ``elapsed``, at least once."""
        spent = 0.0
        while True:
            self.cal.append(calibration.measure())
            spent += self.cal[-1]
            if spent >= CAL_SHARE * elapsed:
                return

    def scale(self, lo=0, hi=None):
        """Factor from wall seconds to seconds at the reference speed, from
        the calibrations ``self.cal[lo:hi]``."""
        return calibration.REFERENCE_S / interquartile_mean(self.cal[lo:hi])

    def self_test(self):
        if self.last is None:
            self.correct = False
            return
        inp, out = self.last
        try:
            self.workload.check(inp, self.workload.corrupt(inp, out))
        except reference.CheckFailed:
            return
        self.correct = False
        print("self-test failed: the check accepted a corrupted output", file=sys.stderr)


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def interquartile_mean(values):
    """Mean of the middle half.  An operation's time sums the machine's
    slowness over its whole length, stalls included, which a median of
    calibrations ignores; the extreme quarters are left out because a single
    calibration is short enough to be caught whole by one stall.  Over sets
    of 10 to 14 consecutive oracle solves this left a spread of 5 to 8 %
    where the median left 7 to 12 % and unscaled times 29 to 38 %."""
    v = sorted(values)
    k = len(v) // 4
    return statistics.fmean(v[k:len(v) - k])


def median_or_zero(values):
    return statistics.median(values) if values else 0.0


def end_to_end(args, workload, rounds, setup_times):
    run = Run(workload)
    deadline = time.perf_counter() + args.seconds
    for inp in run.inputs(rounds, deadline):
        run.op(inp)
    run.self_test()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # set-up again after the loop, so the median spans two moments of the run
    set_up(args, setup_times)
    timed = sum(run.times)
    scale = run.scale()
    means = run.round_means
    q = statistics.quantiles(means, n=4) if len(means) > 1 else means * 3
    q = [x * scale for x in q]
    print(f"{workload.name}: {len(run.times)} operations in {timed:.3f} s timed; op_p50_s is "
          f"the median of {len(means)} round samples (quartiles {q[0]:.4g} {q[1]:.4g} "
          f"{q[2]:.4g} s); {len(run.cal)} calibrations, interquartile mean "
          f"{interquartile_mean(run.cal) * 1e3:.3g} ms, scale {scale:.4g}", flush=True)
    metrics = {
        "setup_s": metric(statistics.median(setup_times) * scale, "s"),
        "ops_per_s": metric(len(run.times) / (timed * scale) if timed else 0.0, "1/s"),
        "op_p50_s": metric(median_or_zero(means) * scale, "s"),
        "max_err": metric(run.max_err, "1"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }
    return run, metrics


def traced(args, pd, workload, rounds):
    """Per-layer metrics: untraced rounds for a third of the run, then traced."""
    run = Run(workload)
    start = time.perf_counter()
    for inp in run.inputs(rounds, start + args.seconds / 3.0):
        run.op(inp)
    untraced, untraced_cal = len(run.round_means), len(run.cal)

    tracer = tracing.Tracer()
    tracer.install()
    workload.span = tracer.span
    bisect, inverse, numpy_calls, grid_points, out_bytes = [], [], 0, [], []
    try:
        for inp in run.inputs(rounds, start + args.seconds):
            tracer.begin_op()
            try:
                out = run.op(inp)
            finally:
                tracer.end_op()
            if out is None:
                continue
            if workload.name == "oracle":
                t_solve = tracer.solve_times[-1]
                t_bisect, calls = oracle_extras(pd, inp, count=not bisect)
                bisect.append(t_bisect)
                inverse.append(t_solve - t_bisect)
                numpy_calls = numpy_calls or calls
                grid_points.append(out["samples"])
            elif workload.name == "sweep":
                out_bytes.append(os.path.getsize(out[1]))
    finally:
        tracer.uninstall()
    run.self_test()
    before, after = run.round_means[:untraced], run.round_means[untraced:]
    overhead = (100.0 * (statistics.median(after) * run.scale(untraced_cal)
                         / (statistics.median(before) * run.scale(0, untraced_cal)) - 1.0)
                if before and after else 0.0)
    print(f"{workload.name}: {len(before)} untraced and {len(after)} traced rounds; "
          f"tracing overhead {overhead:.1f} % on the median round at the reference speed",
          flush=True)
    write_trace(args, tracer)

    layer = tracer.per_op
    residual = sum(tracer.name_self[n] for n in tracing.RESIDUAL)
    metrics = {
        "numerics.solve_s": metric(median_or_zero(tracer.solve_times), "s"),
        "numerics.bisect_s": metric(median_or_zero(bisect), "s"),
        "numerics.inverse_iter_s": metric(median_or_zero(inverse), "s"),
        "numerics.numpy_calls": metric(numpy_calls, "count"),
        "numerics.grid_points": metric(median_or_zero(grid_points), "count"),
        "numerics.residual_s": metric(layer(residual), "s"),
        "numerics.self_s": metric(layer(tracer.layer_self["numerics"]), "s"),
        "susy.spectrum_s": metric(tracer.per_call("spectrum"), "s"),
        "susy.spectrum_calls": metric(layer(tracer.group_calls["spectrum"]), "count"),
        "susy.partner_s": metric(tracer.per_call("partner"), "s"),
        "susy.self_s": metric(layer(tracer.layer_self["susy"]), "s"),
        "wavefunctions.state_s": metric(tracer.per_call("state"), "s"),
        "wavefunctions.jacobi_s": metric(tracer.per_call("jacobi"), "s"),
        "wavefunctions.self_s": metric(layer(tracer.layer_self["wavefunctions"]), "s"),
        "dirac.reduction_s": metric(layer(tracer.layer_self["dirac"]), "s"),
        "hermitization.mapping_s": metric(layer(tracer.layer_self["hermitization"]), "s"),
        "model.profile_evals": metric(
            layer(tracer.group_calls["profile"]), "count"),
        "model.self_s": metric(layer(tracer.layer_self["model"]), "s"),
        "cli.self_s": metric(layer(tracer.layer_self["cli"]), "s"),
        "cli.out_bytes": metric(median_or_zero(out_bytes), "B"),
        "trace.overhead_pct": metric(overhead, "%"),
    }
    return run, metrics


def oracle_extras(pd, inp, count):
    """An eigenvalues-only solve of the operation's problem, timed, and on
    request one full solve with numpy calls counted."""
    sol = (pd.rm2_solve(*inp.coeffs, n_max=workloads.LEVELS - 1) if inp.family == "rm"
           else pd.gpt_solve(*inp.coeffs, n_max=workloads.LEVELS - 1))
    potential = workloads.CountingPotential(pd, sol.w)
    t0 = time.perf_counter()
    pd.discretize_and_solve(potential, inp.grid, k=workloads.LEVELS, eigenvectors=False)
    t_bisect = time.perf_counter() - t0
    calls = 0
    if count:
        _, calls = tracing.count_numpy_calls(
            pd.numerics, lambda: pd.discretize_and_solve(
                potential, inp.grid, k=workloads.LEVELS, eigenvectors=True))
    return t_bisect, calls


def write_trace(args, tracer):
    path = os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "first_operation_spans": tracer.first_op_spans or []}, fh)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "pdmdirac", "__init__.py")):
        print(f"error: no pdmdirac sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT_DIR, exist_ok=True)
    setup_times = []
    pd, workload, rounds = set_up(args, setup_times)
    # the inputs live for the whole run: keep the collector from re-scanning them
    gc.collect()
    gc.freeze()
    try:
        if args.trace:
            run, metrics = traced(args, pd, workload, rounds)
        else:
            run, metrics = end_to_end(args, workload, rounds, setup_times)
    except tracing.TraceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": run.correct and run.attempted > 0,
                      "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
