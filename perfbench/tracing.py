"""Spans around the public functions of each pdmdirac layer, for --trace 1.

A traced function is replaced in every pdmdirac module namespace that holds
it, so a call is recorded wherever the name is looked up (``evaluate_profile``
is imported by name into ``dirac`` and ``hermitization``, for example).  A
name listed in TRACED that no longer exists stops the run instead of
reporting zero.  Spans are kept in memory per operation; after each operation
their self times (duration minus the union of their children's intervals)
are added to per-layer and per-name totals.  The sweep runs its points in a
thread pool, so a span opened on a worker thread takes the innermost open
span of the main thread as its parent.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy

# layer -> functions the package exports that the workloads reach
TRACED = {
    "model": ("evaluate_profile", "profile_from_params", "sigma_of"),
    "hermitization": ("nonhermitian_coeffs", "hermitian_coeffs", "rho_weight",
                      "schrodinger_potential"),
    "dirac": ("dirac_profiles", "complete_potential", "cancellation_residual",
              "effective_potential_general", "effective_potential_ansatz"),
    "susy": ("partner_potentials", "si_remainder_ladder", "rm2_admissible",
             "gpt_admissible", "rm2_coefficients_from_params", "rm2_level_radicand",
             "rm2_solve", "rm2_solve_from_params", "gpt_params_ab", "gpt_solve",
             "gpt_solve_from_params"),
    "wavefunctions": ("jacobi_eval", "jacobi_eval_sum", "jacobi_derivative",
                      "rm2_exponents", "rm2_state_evaluator", "gpt_state_evaluator",
                      "rm2_wavefunction", "gpt_wavefunction"),
    "numerics": ("discretize_and_solve", "quadrature_weights", "quadrature_norm",
                 "ode_residual", "second_derivative_interior", "count_nodes"),
    "cli": ("main",),
}

# groups whose members call each other: a call counts once, at its outermost span
GROUPS = {
    "spectrum": {"rm2_solve", "rm2_solve_from_params", "gpt_solve", "gpt_solve_from_params"},
    "jacobi": {"jacobi_eval", "jacobi_eval_sum", "jacobi_derivative"},
    "state": {"rm2_wavefunction", "gpt_wavefunction"},
    "partner": {"partner_potentials"},
    "profile": {"evaluate_profile"},
}
RESIDUAL = {"ode_residual", "second_derivative_interior", "count_nodes",
            "quadrature_weights", "quadrature_norm"}


class TraceError(RuntimeError):
    """A traced name is missing from the program."""


class Tracer:
    def __init__(self):
        self._patched = []          # (module, attribute, original)
        self._stacks = {}           # thread id -> open span records
        self._main = threading.get_ident()
        self.spans = []             # [name, layer, start, end, parent record]
        self.ops = 0
        self.layer_self = defaultdict(float)
        self.name_self = defaultdict(float)
        self.group_calls = defaultdict(int)
        self.group_time = defaultdict(float)
        self.solve_times = []
        self.first_op_spans = None

    # -- installing ----------------------------------------------------
    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "pdmdirac" or name.startswith("pdmdirac.")]
        for layer, names in TRACED.items():
            module = sys.modules.get(f"pdmdirac.{layer}")
            if module is None:
                raise TraceError(f"pdmdirac.{layer} is not imported")
            for name in names:
                original = getattr(module, name, None)
                if not callable(original):
                    raise TraceError(f"pdmdirac.{layer}.{name} no longer exists")
                wrapped = self._wrap(original, name, layer)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapped)
                            self._patched.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, fn, name, layer):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)
        return traced

    def _open(self, name, layer):
        tid = threading.get_ident()
        stack = self._stacks.setdefault(tid, [])
        parent = stack[-1] if stack else self._stacks[self._main][-1]
        rec = [name, layer, time.perf_counter(), None, parent]
        self.spans.append(rec)
        stack.append(rec)
        return rec

    def _close(self, rec):
        rec[3] = time.perf_counter()
        self._stacks[threading.get_ident()].pop()

    @contextmanager
    def span(self, layer):
        """A span that the benchmark opens around one stage of an operation."""
        rec = self._open(layer, layer)
        try:
            yield
        finally:
            self._close(rec)

    # -- one operation ---------------------------------------------------
    def begin_op(self):
        self.spans = []
        root = ["op", "bench", time.perf_counter(), None, None]
        self._stacks = {self._main: [root]}
        self._root = root

    def end_op(self):
        self._root[3] = time.perf_counter()
        spans = self.spans
        children = defaultdict(list)
        for rec in spans:
            children[id(rec[4])].append((rec[2], rec[3]))
        for rec in spans:
            name, layer, start, end, parent = rec
            self_time = (end - start) - _covered(children.get(id(rec), ()), start, end)
            self.layer_self[layer] += self_time
            self.name_self[name] += self_time
            for group, members in GROUPS.items():
                if name in members and (parent is self._root or parent[0] not in members):
                    self.group_calls[group] += 1
                    self.group_time[group] += end - start
            if name == "discretize_and_solve":
                self.solve_times.append(end - start)
        if self.first_op_spans is None:
            t0 = self._root[2]
            index = {id(rec): i for i, rec in enumerate(spans)}
            self.first_op_spans = [
                {"name": r[0], "layer": r[1], "start_s": r[2] - t0, "end_s": r[3] - t0,
                 "parent": index.get(id(r[4]))} for r in spans[:20000]]
        self.ops += 1
        self.spans = []

    # -- results ---------------------------------------------------------
    def per_op(self, total):
        return total / self.ops if self.ops else 0.0

    def per_call(self, group):
        calls = self.group_calls[group]
        return self.group_time[group] / calls if calls else 0.0


def _covered(intervals, start, end) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


class NumpyCounter:
    """Stands in for the ``np`` name of one module and counts calls through it.

    A sys.setprofile hook does not see numpy's ufuncs or its array-function
    dispatchers on CPython 3.11 (they are not builtin functions), so calls
    are counted at the name instead.  Array operators are not calls and are
    not counted.
    """

    def __init__(self):
        self.calls = 0

    def __getattr__(self, name):
        value = getattr(numpy, name)
        if not callable(value) or isinstance(value, type):
            return value
        counter = self

        def counted(*args, **kwargs):
            counter.calls += 1
            return value(*args, **kwargs)
        return counted


def count_numpy_calls(module, fn):
    """Run ``fn()`` with ``module.np`` counted; return (result, calls)."""
    counter = NumpyCounter()
    saved = module.np
    module.np = counter
    try:
        result = fn()
    finally:
        module.np = saved
    return result, counter.calls
