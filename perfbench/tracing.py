"""Spans around calls into leobeams' layers, recorded from outside the package.

Each wrap point replaces a name where its caller looks it up (for example
`leobeams.simulate.gain_matrix`, the name `_gains` resolves at call time, not
`leobeams.kernels.gain_matrix`). Spans are kept in memory and written when
the run ends; self times and per-layer totals are computed from them.
A wrap point that no longer exists is reported as missing.
"""

from __future__ import annotations

import importlib
import json
import os
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field

MIB = float(2**20)
ROOT = "cli.main"


@dataclass
class Span:
    name: str
    pass_index: int
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    counts: dict = field(default_factory=dict)


def _n_evals(args, kwargs, result):
    return {"evals": int(result.size)}


def _bytes_written(path_pos: int):
    """Hook reading the size of the file named by positional argument path_pos."""
    def hook(args, kwargs, result):
        return {"bytes": os.path.getsize(args[path_pos])}
    return hook


def _rows(args, kwargs, result):
    return {"rows": len(result)}


# (module, attribute, span name, count hook, track peak allocation)
WRAP_POINTS = (
    ("leobeams.cli", "build_scene", "config.build_scene", None, False),
    ("leobeams.config", "build_cycle", "codebook.build_cycle", None, False),
    ("leobeams.config", "dft_baseline", "codebook.dft_baseline", None, False),
    ("leobeams.cli", "phase_table", "codebook.phase_table", None, False),
    ("leobeams.cli", "rician_sample", "link.rician_sample", None, True),
    ("leobeams.simulate", "gain_matrix", "kernels.gain_matrix", _n_evals, False),
    ("leobeams.cli", "coverage_map", "simulate.coverage_map", None, True),
    ("leobeams.simulate", "coverage_map", "simulate.coverage_map", None, True),
    ("leobeams.simulate", "cdf_from_map", "simulate.cdf_from_map", None, False),
    ("leobeams.cli", "handover_map", "simulate.handover_map", None, False),
    ("leobeams.cli", "pass_timeseries", "simulate.pass_timeseries", None, False),
    ("leobeams.cli", "dominance_violations", "simulate.dominance_violations",
     _rows, False),
    ("leobeams.fields:FieldMap", "to_csv", "fields.to_csv", _bytes_written(1),
     False),
    ("leobeams.fields:TimeSeries", "to_csv", "fields.to_csv", _bytes_written(1),
     False),
    ("leobeams.cli", "write_cdf_set", "fields.to_csv", _bytes_written(0), False),
    ("leobeams.fields:FieldMap", "to_ppm", "fields.to_ppm", None, False),
)


def _owner(spec: str):
    module, _, attr = spec.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, attr) if attr else obj


class Tracer:
    """Span recorder; `installed()` patches the wrap points for one pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.pass_index = -1
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, alloc: bool = False):
        parent = self._stack[-1] if self._stack else None
        rec = Span(name, self.pass_index, parent)
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        own_tm = alloc and not tracemalloc.is_tracing()
        if own_tm:
            tracemalloc.start()
        elif alloc:
            tracemalloc.reset_peak()
        rec.start = time.perf_counter()
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            if alloc:
                rec.counts["peak_alloc_bytes"] = tracemalloc.get_traced_memory()[1]
                if own_tm:
                    tracemalloc.stop()
            self._stack.pop()

    def _wrapper(self, fn, name, hook, alloc):
        def traced(*args, **kwargs):
            with self.span(name, alloc) as rec:
                result = fn(*args, **kwargs)
                if hook is not None:
                    rec.counts.update(hook(args, kwargs, result))
            return result
        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self, pass_index: int):
        """Patch every wrap point for the duration of one traced pass."""
        self.pass_index = pass_index
        saved = []
        try:
            for spec, attr, name, hook, alloc in WRAP_POINTS:
                try:
                    owner = _owner(spec)
                    fn = getattr(owner, attr)
                except (ImportError, AttributeError):
                    where = f"{spec}.{attr}"
                    if where not in self.missing:
                        self.missing.append(where)
                    continue
                saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrapper(fn, name, hook, alloc))
            yield
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"pass": s.pass_index, "name": s.name,
                                     "parent": s.parent, "start": s.start,
                                     "end": s.end, **s.counts}) + "\n")

    def pass_layers(self, pass_index: int) -> tuple[dict, dict]:
        """Per-layer totals of one traced pass, keyed by metric name, and the
        time of each top-level span (a direct child of an invocation)."""
        spans = [(i, s) for i, s in enumerate(self.spans)
                 if s.pass_index == pass_index]
        child_time: dict[int, float] = {}
        for _, s in spans:
            if s.parent is not None:
                child_time[s.parent] = child_time.get(s.parent, 0.0) + s.end - s.start

        total, self_s, calls, counts = {}, {}, {}, {}
        top = {}
        for i, s in spans:
            dur = s.end - s.start
            total[s.name] = total.get(s.name, 0.0) + dur
            self_s[s.name] = self_s.get(s.name, 0.0) + dur - child_time.get(i, 0.0)
            calls[s.name] = calls.get(s.name, 0) + 1
            for key, v in s.counts.items():
                cur = counts.setdefault(s.name, {})
                cur[key] = max(cur.get(key, 0), v) if key == "peak_alloc_bytes" \
                    else cur.get(key, 0) + v
            if s.parent is not None and self.spans[s.parent].name == ROOT:
                top[s.name] = top.get(s.name, 0.0) + dur

        def t(name):
            return total.get(name, 0.0)

        def c(name, key):
            return counts.get(name, {}).get(key, 0)

        evals = c("kernels.gain_matrix", "evals")
        n_calls = calls.get("kernels.gain_matrix", 0)
        k_s = t("kernels.gain_matrix")
        layers = {
            "config.build_scene_s": t("config.build_scene"),
            "config.build_scene_calls": calls.get("config.build_scene", 0),
            "codebook.build_cycle_s": t("codebook.build_cycle"),
            "codebook.dft_baseline_s": t("codebook.dft_baseline"),
            "codebook.phase_table_s": t("codebook.phase_table"),
            "link.rician_sample_s": t("link.rician_sample"),
            "link.rician_sample_peak_alloc_mb":
                c("link.rician_sample", "peak_alloc_bytes") / MIB,
            "kernels.gain_matrix_s": k_s,
            "kernels.gain_matrix_calls": n_calls,
            "kernels.point_beam_evals": evals,
            "kernels.evals_per_call": evals / n_calls if n_calls else 0.0,
            "kernels.evals_per_s": evals / k_s if k_s > 0 else 0.0,
            "kernels.out_mb_computed": evals * 8 / MIB,
            "simulate.coverage_map_self_s": self_s.get("simulate.coverage_map", 0.0),
            "simulate.coverage_map_peak_alloc_mb":
                c("simulate.coverage_map", "peak_alloc_bytes") / MIB,
            "simulate.cdf_from_map_s": t("simulate.cdf_from_map"),
            "simulate.handover_map_self_s": self_s.get("simulate.handover_map", 0.0),
            "simulate.pass_timeseries_s": t("simulate.pass_timeseries"),
            "simulate.dominance_violation_rows":
                c("simulate.dominance_violations", "rows"),
            "fields.to_csv_s": t("fields.to_csv"),
            "fields.csv_mb": c("fields.to_csv", "bytes") / MIB,
            "fields.to_ppm_s": t("fields.to_ppm"),
            "cli.self_s": self_s.get(ROOT, 0.0),
        }
        return layers, top

