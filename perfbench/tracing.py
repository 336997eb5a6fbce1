"""Spans around the calls into each layer, recorded from outside the program.

The traced run replaces each public function below in the namespace of the
module that calls it (the "next layer up"), so `bridgeworks.bridge`'s own
lookup of `build_distance_table` goes through a span while `src/` stays
untouched. Calls inside one module (the per-source sweeps inside
`build_distance_table`, say) do not cross a boundary and count as that
span's self time. `numerics` has no entry point of its own: its cost shows
inside the spans that call it.

Each job is single-threaded with no queue or lock, so spans record busy
time and counts only; waiting is not measured.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import statistics
import time

# (module whose global is replaced, attribute, span name)
SITES = (
    ("bridgeworks.cli", "parse_tree", "io.parse_tree"),
    ("bridgeworks.cli", "solve_exact", "bridge.solve_exact"),
    ("bridgeworks.cli", "approx_greedy", "bridge.approx_greedy"),
    ("bridgeworks.cli", "connect_forest", "bridge.connect_forest"),
    ("bridgeworks.cli", "solve_twin", "twin.solve_twin"),
    ("bridgeworks.bridge", "build_distance_table", "geometry.build_distance_table"),
    ("bridgeworks.bridge", "single_source_tree_distances", "geometry.single_source_tree_distances"),
    ("bridgeworks.bridge", "bichromatic_closest_pair", "bridge.bichromatic_closest_pair"),
    ("bridgeworks.twin", "build_distance_table", "geometry.build_distance_table"),
    ("bridgeworks.twin", "solve_cases_12", "twin.solve_cases_12"),
    ("bridgeworks.twin", "solve_cases_34", "twin.solve_cases_34"),
    ("bridgeworks.twin", "evaluate_constrained_diameter", "twin.evaluate_constrained_diameter"),
)
ROOT = "cli.main"

# per-layer metric -> (span, statistic); every statistic is a per-job median
TIMED = {
    "geometry.build_distance_table.ms": ("geometry.build_distance_table", "self"),
    "geometry.single_source_tree_distances.ms": ("geometry.single_source_tree_distances", "self"),
    "bridge.solve_exact.self_ms": ("bridge.solve_exact", "self"),
    "bridge.approx_greedy.self_ms": ("bridge.approx_greedy", "self"),
    "bridge.bichromatic_closest_pair.ms": ("bridge.bichromatic_closest_pair", "self"),
    "bridge.connect_forest.self_ms": ("bridge.connect_forest", "self"),
    "twin.solve_twin.self_ms": ("twin.solve_twin", "self"),
    "twin.solve_cases_12.self_ms": ("twin.solve_cases_12", "self"),
    "twin.solve_cases_34.self_ms": ("twin.solve_cases_34", "self"),
    "twin.evaluate_constrained_diameter.ms": ("twin.evaluate_constrained_diameter", "self"),
    "io.parse_tree.ms": ("io.parse_tree", "self"),
    "cli.main.ms": (ROOT, "total"),
    "cli.self.ms": (ROOT, "self"),
}
COUNTED = {
    "geometry.build_distance_table.calls": "geometry.build_distance_table",
    "geometry.single_source_tree_distances.calls": "geometry.single_source_tree_distances",
    "twin.evaluate_constrained_diameter.calls": "twin.evaluate_constrained_diameter",
    "io.parse_tree.calls": "io.parse_tree",
}
# computed from instance sizes, not from the program
COMPUTED = ("bridge.solve_exact.pairs", "twin.solve_cases_12.edge_pairs")


class Tracer:
    """In-memory spans: (name, start_ns, end_ns, parent index, job id)."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self.job = -1

    def span(self, name: str, fn, *args, **kwargs):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter_ns(), None, parent, self.job])
        self._open.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self._open.pop()
            self.spans[idx][2] = time.perf_counter_ns()

    @contextlib.contextmanager
    def installed(self, job: int):
        """Route every site through a span for the duration of one job."""
        self.job = job
        saved = []
        for mod_name, attr, name in SITES:
            mod = importlib.import_module(mod_name)
            orig = getattr(mod, attr)
            saved.append((mod, attr, orig))
            setattr(mod, attr, functools.partial(self.span, name, orig))
        try:
            yield
        finally:
            for mod, attr, orig in reversed(saved):
                setattr(mod, attr, orig)

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "job": job}) + "\n")

    def per_job(self) -> dict[int, dict[str, dict[str, float]]]:
        """job -> span name -> {"total", "self" (ms), "calls"}."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        jobs: dict = {}
        for i, (name, start, end, _, job) in enumerate(self.spans):
            acc = jobs.setdefault(job, {}).setdefault(name, {"total": 0.0, "self": 0.0, "calls": 0})
            acc["total"] += (end - start) / 1e6
            acc["self"] += (end - start - child_ns[i]) / 1e6
            acc["calls"] += 1
        return jobs


def layer_metrics(tracer: Tracer, computed: dict[str, list[int]]) -> dict[str, dict]:
    """Median over traced jobs of each per-layer metric; a layer a job never
    calls contributes 0 for that job."""
    jobs = list(tracer.per_job().values())

    def med(name, stat):
        return statistics.median(j.get(name, {}).get(stat, 0) for j in jobs)

    out = {m: {"value": med(span, stat), "unit": "ms"} for m, (span, stat) in TIMED.items()}
    out.update({m: {"value": med(span, "calls"), "unit": "count"} for m, span in COUNTED.items()})
    out.update({m: {"value": statistics.median(computed[m]), "unit": "count"} for m in COMPUTED})
    return out
