"""Spans and counters recorded around qslsim's public names, from outside the package.

``Tracer.install`` replaces each traced function (and the ``__post_init__`` of
``Hamiltonian`` and ``DensityMatrix``) by a wrapper in every qslsim module that
holds a reference to it, and ``uninstall`` puts the originals back, so no file
of the package changes.  Spans are kept in memory as
``[name, start, end, parent, case]`` (the case is filled in from the case
start times after the round) and written out when the run ends.

``scan_first_zero`` gets a wrapper of its own: it wraps the signal function the
scan receives, records the first (full-horizon) evaluation as the span
``dynamics.coarse_scan`` and counts every later call.
"""

from __future__ import annotations

import collections
import functools
import importlib
import statistics
import time
from typing import Callable

import numpy as np

MODULES = ("qslsim", "qslsim.qcore", "qslsim.constructions", "qslsim.dynamics",
           "qslsim.bounds", "qslsim.cli", "qslsim.svgplot")

#: span name -> (module, attribute) of each wrapped function
FUNCTIONS = {
    "qcore.energy_stats": ("qslsim.qcore", "energy_stats"),
    "qcore.load_system": ("qslsim.qcore", "load_system"),
    "constructions.make_collective": ("qslsim.constructions", "make_collective"),
    "constructions.make_grouped": ("qslsim.constructions", "make_grouped"),
    "constructions.make_psi_ent": ("qslsim.constructions", "make_psi_ent"),
    "constructions.collective_t_perp": ("qslsim.constructions", "collective_t_perp"),
    "constructions.grouped_t_perp": ("qslsim.constructions", "grouped_t_perp"),
    "dynamics.first_orthogonal_time": ("qslsim.dynamics", "first_orthogonal_time"),
    "dynamics.scan_first_zero": ("qslsim.dynamics", "scan_first_zero"),
    "bounds.mixed_state_bound": ("qslsim.bounds", "mixed_state_bound"),
    "svgplot.sweep_svg": ("qslsim.svgplot", "sweep_svg"),
}
#: span name -> class whose __post_init__ (validation, eigh) is wrapped
CONSTRUCTORS = {"qcore.Hamiltonian": "Hamiltonian", "qcore.DensityMatrix": "DensityMatrix"}

BUILDS = ("constructions.make_collective", "constructions.make_grouped",
          "constructions.make_psi_ent")
SCALAR_SOLVES = ("constructions.collective_t_perp", "constructions.grouped_t_perp")
CLI_COMMANDS = ("bound", "fig1", "ent-scan", "mixture-demo", "groups", "tperp")

#: Per-layer metrics in the order they are printed, with their units.
PER_LAYER = {
    "qcore.hamiltonian_ms": "ms",
    "qcore.hamiltonian_count": "count",
    "qcore.density_matrix_ms": "ms",
    "qcore.energy_stats_ms": "ms",
    "qcore.load_system_ms": "ms",
    "constructions.build_ms": "ms",
    "constructions.scalar_solve_ms": "ms",
    "dynamics.solve_ms": "ms",
    "dynamics.signal_ms": "ms",
    "dynamics.scan_ms": "ms",
    "dynamics.refine_ms": "ms",
    "dynamics.evaluate_calls": "count",
    "dynamics.scalar_evaluate_calls": "count",
    "dynamics.samples": "count",
    "dynamics.refined_brackets": "count",
    "dynamics.found_per_bracket": "ratio",
    "dynamics.term_samples_per_s": "1/s",
    "bounds.mixed_state_bound_ms": "ms",
    "cli.startup_ms": "ms",
    **{f"cli.command_ms.{c}": "ms" for c in CLI_COMMANDS},
    "svgplot.render_ms": "ms",
    "trace.overhead_pct": "%",
}


class Tracer:
    """In-memory spans and counters for one traced round."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: collections.Counter = collections.Counter()
        self._stack: list[int] = []
        self._terms = None  # nominal terms of the signal being solved (D or D^2)
        self._undo: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), 0.0, parent, None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def _close(self, record: list) -> None:
        record[2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(record)
        return traced

    def _wrap_solve(self, fn: Callable) -> Callable:
        traced = self.wrap("dynamics.first_orthogonal_time", fn)

        @functools.wraps(fn)
        def solve(state, hamiltonian, *args, **kwargs):
            dim = hamiltonian.layout.total_dim
            self._terms = dim if hasattr(state, "amplitudes") else dim * dim
            try:
                return traced(state, hamiltonian, *args, **kwargs)
            finally:
                self._terms = None
        return solve

    def _wrap_scan(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def scan(vec_fn, *args, **kwargs):
            record = self._open("dynamics.scan_first_zero")
            terms = self._terms
            first = True

            def counted(ts):
                nonlocal first
                size = int(np.size(ts))
                start = time.perf_counter()
                values = vec_fn(ts)
                end = time.perf_counter()
                c = self.counters
                c["evaluate_calls"] += 1
                c["samples"] += size
                c["scalar_evaluate_calls"] += size == 1
                if first:
                    self.spans.append(["dynamics.coarse_scan", start, end, self._stack[-1], None])
                    first = False
                elif size > 1:
                    c["refined_brackets"] += 1
                if terms is not None:
                    c["term_samples"] += size * terms
                    c["term_eval_s"] += end - start
                return values

            try:
                result = fn(counted, *args, **kwargs)
            finally:
                self._close(record)
            self.counters["found"] += bool(result.found)
            return result
        return scan

    # -- installing wrappers -------------------------------------------------

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in MODULES]
        for name, (module, attr) in FUNCTIONS.items():
            original = getattr(importlib.import_module(module), attr)
            if name == "dynamics.scan_first_zero":
                wrapper = self._wrap_scan(original)
            elif name == "dynamics.first_orthogonal_time":
                wrapper = self._wrap_solve(original)
            else:
                wrapper = self.wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, original))
        qcore = importlib.import_module("qslsim.qcore")
        for name, cls_name in CONSTRUCTORS.items():
            cls = getattr(qcore, cls_name)
            self._undo.append((cls, "__post_init__", cls.__post_init__))
            cls.__post_init__ = self.wrap(name, cls.__post_init__)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    # -- per-layer figures ---------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer figures of this round (times in ms, counts as counted)."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total: collections.Counter = collections.Counter()
        self_time: collections.Counter = collections.Counter()
        count: collections.Counter = collections.Counter()
        scalar_solve = 0.0
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            total[name] += end - start
            self_time[name] += end - start - child[i]
            count[name] += 1
            if name in SCALAR_SOLVES and (parent < 0 or self.spans[parent][0] not in SCALAR_SOLVES):
                scalar_solve += end - start
        c = self.counters
        ms = 1e3
        out = {
            "qcore.hamiltonian_ms": total["qcore.Hamiltonian"] * ms,
            "qcore.hamiltonian_count": count["qcore.Hamiltonian"],
            "qcore.density_matrix_ms": total["qcore.DensityMatrix"] * ms,
            "qcore.energy_stats_ms": total["qcore.energy_stats"] * ms,
            "qcore.load_system_ms": self_time["qcore.load_system"] * ms,
            "constructions.build_ms": sum(self_time[b] for b in BUILDS) * ms,
            "constructions.scalar_solve_ms": scalar_solve * ms,
            "dynamics.solve_ms": total["dynamics.first_orthogonal_time"] * ms,
            "dynamics.signal_ms": self_time["dynamics.first_orthogonal_time"] * ms,
            "dynamics.scan_ms": total["dynamics.coarse_scan"] * ms,
            "dynamics.refine_ms": self_time["dynamics.scan_first_zero"] * ms,
            "dynamics.evaluate_calls": c["evaluate_calls"],
            "dynamics.scalar_evaluate_calls": c["scalar_evaluate_calls"],
            "dynamics.samples": c["samples"],
            "dynamics.refined_brackets": c["refined_brackets"],
            "dynamics.found_per_bracket":
                c["found"] / c["refined_brackets"] if c["refined_brackets"] else 0.0,
            "dynamics.term_samples_per_s":
                c["term_samples"] / c["term_eval_s"] if c["term_eval_s"] else 0.0,
            "bounds.mixed_state_bound_ms": total["bounds.mixed_state_bound"] * ms,
            "svgplot.render_ms": total["svgplot.sweep_svg"] * ms,
        }
        for command in CLI_COMMANDS:
            out[f"cli.command_ms.{command}"] = total[f"cli.command.{command}"] * ms
        return out


def median_metrics(rounds: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(r[k] for r in rounds) for k in rounds[0]}
