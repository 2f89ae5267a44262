"""Spans and counters around the program's public functions, from outside.

A :class:`Tracer` replaces each traced function by a wrapper under every
name its callers look it up by (``estimator`` imports
``theta_to_delay_doppler`` by name, so the wrapper also goes on
``estimator.theta_to_delay_doppler``).  Each call records a span (name,
start, end, parent span) and counts raised exceptions and zero returns.
Spans stay in memory in flat arrays and are written out once, at the end.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from array import array

import numpy as np

# (module, attribute, span name): every lookup site of a traced function
SITES = [
    ("config", "parse_config", "config.parse_config"),
    ("cli", "parse_config", "config.parse_config"),
    ("cli", "main", "cli.main"),
    ("scene", "scenario_waveform", "scene.scenario_waveform"),
    ("analysis", "scenario_waveform", "scene.scenario_waveform"),
    ("scene", "clean_node_signals", "scene.clean_node_signals"),
    ("analysis", "clean_node_signals", "scene.clean_node_signals"),
    ("scene", "synthesize_node", "scene.synthesize_node"),
    ("eca", "interpolate_reference", "eca.interpolate_reference"),
    ("eca", "rc_steering", "eca.rc_steering"),
    ("eca", "project_out", "eca.project_out"),
    ("eca", "spectrum_value", "eca.spectrum_value"),
    ("eca", "spectrum_grid", "eca.spectrum_grid"),
    ("eca", "frame_spectrum", "eca.frame_spectrum"),
    ("eca", "interference_basis", "eca.interference_basis"),
    ("eca", "batch_split", "eca.batch_split"),
    ("estimator", "localize", "estimator.localize"),
    ("estimator", "prepare_node_data", "estimator.prepare_node_data"),
    ("estimator", "refine", "estimator.refine"),
    ("estimator", "node_objective", "estimator.node_objective"),
    ("estimator", "global_objective", "estimator.global_objective"),
    ("estimator", "theta_to_delay_doppler", "geometry.theta_to_delay_doppler"),
    ("analysis", "asymptotic_covariance", "analysis.asymptotic_covariance"),
    ("analysis", "hessian_and_crb", "analysis.hessian_and_crb"),
    ("analysis", "excess_q", "analysis.excess_q"),
    ("waveform", "steering", "waveform.steering"),
    ("montecarlo", "run_trials", "montecarlo.run_trials"),
    ("montecarlo", "aggregate", "montecarlo.aggregate"),
    ("output", "emit_csv", "output.emit_csv"),
]

# spans whose descendants are counted per call: "per estimate", "per theory"
SCOPES = ("estimator.localize", "analysis.asymptotic_covariance")


def _refine_counts(tracer, idx, args, kwargs, out):
    tracer.extra["evaluations"] += out.n_evaluations
    tracer.extra["iterations"] += out.iterations


def _emit_rows(tracer, idx, args, kwargs, out):
    rows = args[1] if len(args) > 1 else kwargs["rows"]
    tracer.extra["csv_rows"] += len(rows)


def _grid_cells(tracer, idx, args, kwargs, out):
    migrating = args[4] if len(args) > 4 else kwargs.get("migrating", False)
    tracer.grid_calls.append((idx, out.values.size, bool(migrating)))


OBSERVERS = {
    "estimator.refine": _refine_counts,
    "output.emit_csv": _emit_rows,
    "eca.spectrum_grid": _grid_cells,
}


class Tracer:
    """Installs active wrappers on construction; :meth:`close` restores the
    originals."""

    def __init__(self):
        self.active = True
        self.names = array("i")
        self.parents = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.current = -1
        self.span_names = sorted({name for _, _, name in SITES})
        self.errors = np.zeros(len(self.span_names), dtype=np.int64)
        self.zeros = np.zeros(len(self.span_names), dtype=np.int64)
        self.extra = {"evaluations": 0, "iterations": 0, "csv_rows": 0}
        self.grid_calls = []
        self._restore = []
        ids = {name: i for i, name in enumerate(self.span_names)}
        for mod_name, attr, name in SITES:
            module = importlib.import_module(f"ecalab.{mod_name}")
            original = getattr(module, attr)
            self._restore.append((module, attr, original))
            setattr(module, attr, self._wrap(original, ids[name], OBSERVERS.get(name)))

    @contextlib.contextmanager
    def paused(self):
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def close(self):
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore = []

    def _wrap(self, fn, name_id, observer):
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.names)
            parent = self.current
            self.names.append(name_id)
            self.parents.append(parent)
            self.ends.append(0.0)
            self.current = idx
            self.starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.ends[idx] = clock()
                self.errors[name_id] += 1
                raise
            finally:
                self.current = parent
            self.ends[idx] = clock()
            if isinstance(out, float) and out == 0.0:
                self.zeros[name_id] += 1
            if observer is not None:
                observer(self, idx, args, kwargs, out)
            return out

        return traced

    def dump(self, path):
        np.savez(
            path,
            span_names=np.array(self.span_names),
            name=np.frombuffer(self.names, dtype=np.int32),
            parent=np.frombuffer(self.parents, dtype=np.int64),
            start=np.frombuffer(self.starts, dtype=np.float64),
            end=np.frombuffer(self.ends, dtype=np.float64),
        )


class SpanSummary:
    """Per-name call counts, inclusive and self times, and scope counts."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.ids = {name: i for i, name in enumerate(tracer.span_names)}
        names = np.frombuffer(tracer.names, dtype=np.int32)
        parents = np.frombuffer(tracer.parents, dtype=np.int64)
        duration = np.frombuffer(tracer.ends, dtype=np.float64) - np.frombuffer(
            tracer.starts, dtype=np.float64
        )
        child = np.zeros_like(duration)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], duration[has_parent])
        n = len(tracer.span_names)
        self.calls = np.bincount(names, minlength=n)
        self.inclusive = np.bincount(names, weights=duration, minlength=n)
        self.self_time = np.bincount(names, weights=duration - child, minlength=n)
        self.duration = duration
        # nearest enclosing scope span of each span (parents precede children)
        self.scope_calls = {}
        parent_list = parents.tolist()
        for scope in SCOPES:
            sid = self.ids[scope]
            is_scope = (names == sid).tolist()
            inside = [False] * names.size
            for i, p in enumerate(parent_list):
                inside[i] = p >= 0 and (inside[p] or is_scope[p])
            self.scope_calls[scope] = np.bincount(
                names[np.array(inside, dtype=bool)], minlength=n
            )

    def count(self, name):
        return int(self.calls[self.ids[name]])

    def per_call(self, name, total):
        calls = self.count(name)
        return float(total[self.ids[name]] / calls) if calls else 0.0

    def inclusive_per_call(self, name):
        return self.per_call(name, self.inclusive)

    def self_per_call(self, name):
        return self.per_call(name, self.self_time)

    def calls_per_scope(self, name, scope):
        scopes = self.count(scope)
        return float(self.scope_calls[scope][self.ids[name]] / scopes) if scopes else 0.0

    def useful_ratio(self, name):
        calls = self.count(name)
        i = self.ids[name]
        return float((calls - self.tracer.zeros[i] - self.tracer.errors[i]) / calls) if calls else 0.0

    def grid_cell_time(self, migrating: bool):
        cells = 0
        seconds = 0.0
        for idx, n_cells, mig in self.tracer.grid_calls:
            if mig == migrating:
                cells += n_cells
                seconds += self.duration[idx]
        return seconds / cells if cells else 0.0
