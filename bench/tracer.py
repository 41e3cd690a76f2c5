"""Spans around the calls into annealsim's modules, recorded from outside.

:meth:`Tracer.install` replaces each traced function in every module
namespace where a caller looks it up, and :meth:`Tracer.uninstall` puts the
originals back.  A span is ``[name, start_ns, end_ns, parent, job, count]``:
``parent`` is the index of the enclosing span (-1 for none), ``job`` the
label of the job or set-up round it belongs to, and ``count`` the work the
call did (steps, points or bytes; 0 where nothing is counted).  Spans stay in
memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import statistics
import time

import numpy as np

# span name -> namespaces where callers look the function up ("" is the package)
TRACED = {
    "cli.main": ("cli",),
    "magnus.run_config": ("cli", "magnus"),
    "magnus.simulate": ("magnus", ""),
    "magnus.simulate_fixed": ("magnus", ""),
    "magnus.error_max": ("magnus",),
    "magnus.error_mean": ("magnus",),
    "hamiltonian.ising_diagonal": ("magnus", "io"),
    "hamiltonian.eigenspectrum": ("hamiltonian", "cli", ""),
    "io.read_bqpjson": ("io", "cli", ""),
    "io.export_result": ("io", "cli", ""),
    "schedule.load_schedule_csv": ("schedule", "cli", ""),
}


def _steps(args, kwargs, result):
    return result.steps_used


def _grid_points(args, kwargs, result):
    return int(np.size(kwargs["s_grid"] if "s_grid" in kwargs else args[2]))


def _file_bytes(args, kwargs, result):
    return os.path.getsize(kwargs["path"] if "path" in kwargs else args[2])


def _points(args, kwargs, result):
    return int(np.size(args[0]))


COUNTERS = {
    "magnus.simulate_fixed": _steps,
    "hamiltonian.eigenspectrum": _grid_points,
    "io.export_result": _file_bytes,
}

# per-layer metric -> (unit, span names, quantity); quantities are summed
# over the spans of one job
JOB_METRICS = {
    "magnus.steps": ("count", ("magnus.simulate_fixed",), "count"),
    "magnus.fixed_calls": ("count", ("magnus.simulate_fixed",), "calls"),
    "magnus.fixed_s": ("s", ("magnus.simulate_fixed",), "time"),
    "magnus.fixed_self_s": ("s", ("magnus.simulate_fixed",), "self"),
    "magnus.simulate_calls": ("count", ("magnus.simulate",), "calls"),
    "magnus.adaptive_self_s": ("s", ("magnus.simulate",), "self"),
    "magnus.compare_s": ("s", ("magnus.error_max", "magnus.error_mean"), "time"),
    "hamiltonian.diag_calls": ("count", ("hamiltonian.ising_diagonal",), "calls"),
    "hamiltonian.diag_s": ("s", ("hamiltonian.ising_diagonal",), "time"),
    "hamiltonian.spectrum_points": ("count", ("hamiltonian.eigenspectrum",), "count"),
    "hamiltonian.spectrum_s": ("s", ("hamiltonian.eigenspectrum",), "time"),
    "schedule.envelope_points": ("count", ("schedule.A", "schedule.B"), "count"),
    "schedule.envelope_s": ("s", ("schedule.A", "schedule.B"), "time"),
    "cli.self_s": ("s", ("cli.main",), "self"),
    "io.export_s": ("s", ("io.export_result",), "time"),
    "io.export_bytes": ("bytes", ("io.export_result",), "count"),
}

# the same, summed over the spans of one set-up round
SETUP_METRICS = {
    "io.read_s": ("s", ("io.read_bqpjson",), "time"),
    "schedule.load_s": ("s", ("schedule.load_schedule_csv",), "time"),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.job = None
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def wrap(self, fn, name: str, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, 0, 0, self._stack[-1] if self._stack else -1, self.job, 0]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                self._stack.pop()
            if counter is not None:
                span[5] = counter(args, kwargs, result)
            return result

        return traced

    def envelopes(self, schedule):
        """The schedule with its A and B envelopes traced."""
        return dataclasses.replace(
            schedule,
            A=self.wrap(schedule.A, "schedule.A", _points),
            B=self.wrap(schedule.B, "schedule.B", _points),
        )

    def install(self, package) -> None:
        modules = {"": package, "cli": package.cli, "magnus": package.magnus,
                   "hamiltonian": package.hamiltonian, "io": package.io,
                   "schedule": package.schedule}
        for name, namespaces in TRACED.items():
            home, attr = name.split(".")
            traced = self.wrap(getattr(modules[home], attr), name, COUNTERS.get(name))
            for ns in namespaces:
                self._replace(modules[ns], attr, traced)
        # the CLI builds its schedule itself; trace the envelopes of what it gets
        build = package.cli.builtin_schedule
        self._replace(package.cli, "builtin_schedule",
                      functools.wraps(build)(lambda *a, **k: self.envelopes(build(*a, **k))))

    def _replace(self, module, attr, value) -> None:
        self._undo.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            module, attr, value = self._undo.pop()
            setattr(module, attr, value)

    # -- aggregation --------------------------------------------------------

    def _totals(self, job) -> dict:
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        totals: dict = {}
        for index, (name, start, end, _, span_job, count) in enumerate(self.spans):
            if span_job != job:
                continue
            entry = totals.setdefault(name, {"calls": 0, "count": 0, "time": 0.0, "self": 0.0})
            entry["calls"] += 1
            entry["count"] += count
            entry["time"] += (end - start) * 1e-9
            entry["self"] += (end - start - child_ns[index]) * 1e-9
        return totals

    def metrics(self, table: dict, jobs) -> dict:
        """Each metric in ``table``: times as the median over ``jobs``, counts
        from the first of them, so that they repeat exactly whatever the
        number of jobs (the exported bytes differ a little between the
        relabelled copies of a problem)."""
        per_job = [self._totals(job) for job in jobs]
        out = {}
        for metric, (unit, names, quantity) in table.items():
            values = [sum(t.get(n, {}).get(quantity, 0) for n in names) for t in per_job]
            value = values[0] if quantity in ("calls", "count") else statistics.median(values)
            out[metric] = {"value": value, "unit": unit}
        return out

    def write(self, path, **header) -> None:
        columns = ["name", "start_s", "end_s", "parent", "job", "count"]
        t0 = min((s[1] for s in self.spans), default=0)
        rows = [[n, (a - t0) * 1e-9, (b - t0) * 1e-9, p, j, c]
                for n, a, b, p, j, c in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**header, "columns": columns, "spans": rows}, fh)
