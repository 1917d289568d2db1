"""Spans around the package's functions, and per-layer metrics from them.

`instrument` wraps every public function of every `qensemble` module, and
the CLI's private stages, at each name a module looks it up by, so calls
between modules and within one are both seen.  The program itself carries
no tracing code.  A span is `[name, start, end, parent, op, counts]`:
`parent` is the index of the enclosing span (-1 at the top), `op` the
operation it belongs to and `counts` the work counted from the call's
arguments (labelled computed in the README), or None.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
from collections import defaultdict
from time import perf_counter

# Span names of the CLI's stages.  cli.main's own time is argument parsing
# and dispatch; _run_scenario's and _run_selftest's own time builds and
# prints the report.  Every runner in cli.RUNNERS becomes "cli.scenario".
CLI_STAGES = {
    "main": "cli.parse",
    "_gather_params": "cli.parse",
    "_write_table": "cli.write_table",
    "_run_scenario": "cli.report",
    "_run_selftest": "cli.report",
}


def _odd(n: int) -> int:
    # every dense kernel rounds its spectral node count up to odd
    return n if n % 2 == 1 else n + 1


def _melem(name: str, grid_nodes: int, spectral_nodes: int) -> dict:
    """Dense-equivalent phase elements, grid x spectral nodes, in millions."""
    return {f"{name}.melem": grid_nodes * _odd(spectral_nodes) / 1e6}


def _line_counts(a: dict, result) -> dict:
    if not callable(a["amplitude"]):  # a symbolic single mode is exact, not dense
        return {}
    return _melem("numerics.line_superposition", len(result), a["n_k"])


def _radial_counts(a: dict, result) -> dict:
    if not callable(a["amplitude"]) or a["ball"].k_max == 0.0:
        return {}
    return _melem("numerics.radial_superposition", len(result), a["ball"].n_k)


def _well_counts(a: dict, result) -> dict:
    # the interior and exterior branches together cover every grid node once
    return _melem("squarewell.well_ensemble_density", a["grid"].n, a["n_k"])


def _table_counts(a: dict, result) -> dict:
    columns = a["result"].columns
    return {
        "cli.write_table.cells": len(columns) * len(columns[0][2]),
        "cli.write_table.bytes": os.path.getsize(a["path"]),
    }


def _trial_counts(a: dict, result) -> dict:
    return {"optics.efficiency_account.trials": a["n_trials"]}


def _check_seconds(a: dict, result) -> dict:
    return {f"acceptance.{check.name}.seconds": check.seconds for check in result}


COUNTERS = {
    "numerics.line_superposition": _line_counts,
    "numerics.radial_superposition": _radial_counts,
    "squarewell.well_ensemble_density": _well_counts,
    "cli.write_table": _table_counts,
    "optics.efficiency_account": _trial_counts,
    "acceptance.run_checks": _check_seconds,
}


class Tracer:
    """Records spans in memory; `op` tags the spans of the current operation."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = -1
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        spans, open_spans = self.spans, self._open
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, open_spans[-1] if open_spans else -1, self.op, None]
            open_spans.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                open_spans.pop()
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span[5] = counter(bound.arguments, result)
            return result

        return traced


def instrument(tracer: Tracer) -> None:
    """Replace the package's functions by traced ones wherever they are named."""
    import qensemble.cli as cli

    modules = [mod for key, mod in sorted(sys.modules.items()) if key.split(".")[0] == "qensemble"]
    wrapped = {}
    for mod in modules:
        short = mod.__name__.rpartition(".")[2]
        for attr, obj in vars(mod).items():
            if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            if mod is cli:
                name = CLI_STAGES.get(attr)
            else:
                name = None if attr.startswith("_") else f"{short}.{attr}"
            if name is not None:
                wrapped[id(obj)] = (obj, tracer.wrap(name, obj))
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            original, traced = wrapped.get(id(obj), (None, None))
            if original is obj:
                setattr(mod, attr, traced)
    for key, runner in list(cli.RUNNERS.items()):
        cli.RUNNERS[key] = tracer.wrap("cli.scenario", runner)


def per_operation(spans: list, n_ops: int) -> list[dict]:
    """Per operation: `<layer>.busy_s` (self time), `<layer>.calls` and counts.

    A module's `<module>.busy_s` adds up the self time of all its layers.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, op, counts in spans:
        if parent >= 0:
            child_time[parent] += end - start
    ops = [defaultdict(float) for _ in range(n_ops)]
    for i, (name, start, end, parent, op, counts) in enumerate(spans):
        metrics = ops[op]
        busy = end - start - child_time[i]
        metrics[f"{name}.busy_s"] += busy
        metrics[f"{name.split('.')[0]}.busy_s"] += busy
        metrics[f"{name}.calls"] += 1
        for key, value in (counts or {}).items():
            metrics[key] += value
    return ops


def module_busy(metrics: dict) -> float:
    """Self time of every module together: the traced part of an operation."""
    return sum(v for k, v in metrics.items() if k.endswith(".busy_s") and k.count(".") == 1)
