"""Spans and counts around the public functions of every angletower module.

The program is not edited: `Tracer.install` wraps each public module-level
function from outside and rebinds every module's reference to it (module
attributes and module-level dicts such as `cli.COMMANDS`), so calls made
through `from .x import y` are caught too.  `LandingSolver.land_orbit` and
`LandingSolver.land` are wrapped on the class.

A span is (name, start, end, parent) and is kept in memory until `write`.
A span's self time is its duration minus that of its direct children,
which never overlap in this single-threaded program.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import time
from collections import Counter
from contextlib import contextmanager

MODULES = ("angles", "tower", "census", "geometry", "streams", "lifting",
           "inducing", "conformal", "cli")

# Per-element helpers called once per angle or per tower step, up to
# millions of times a stage; a span each would cost more than their work.
# tower.step is the body of build_tower's loop, which keeps it in
# build_tower's self time.
UNWRAPPED = frozenset({"angles.angle", "angles.parse_angle",
                       "angles.format_angle", "angles.times_d",
                       "angles.circular_dist", "streams.is_dyadic",
                       "tower.step"})

METHODS = (("geometry", "LandingSolver", "land_orbit"),
           ("geometry", "LandingSolver", "land"))

STAGES = ("tower-build", "tower-export", "census", "lift", "lyapunov",
          "induce", "conformal", "report")

# Per-layer metrics: (name, unit).  Names ending in _s are span self
# times, except cli.<stage>_s, which are whole-stage inclusive times.
PER_LAYER = (
    [(f"cli.{s}_s", "s") for s in STAGES]
    + [("cli.load_config_s", "s"), ("cli.parse_config_file_s", "s"),
       ("cli.write_run_s", "s"),
       ("tower.build_tower_s", "s"), ("tower.structural_checks_s", "s"),
       ("tower.tower_from_json_s", "s"), ("tower.tower_to_json_str_s", "s"),
       ("tower.domains", "count"),
       ("census.cutpoint_census_s", "s"),
       ("census.brute_force_census_s", "s"),
       ("census.verify_appendix_s", "s"),
       ("angles.enumerate_cylinders_s", "s"),
       ("streams.rational_symbol_stream_s", "s"),
       ("streams.rational_symbol_stream_calls", "count"),
       ("streams.dyadic_symbol_streams_s", "s"),
       ("streams.walk_table_s", "s"), ("streams.trace_ensemble_s", "s"),
       ("streams.sample_steps", "count"),
       ("lifting.retained_curves_s", "s"),
       ("lifting.invariance_defect_s", "s"),
       ("lifting.project_and_density_s", "s"),
       ("lifting.brolin_samples_s", "s"),
       ("lifting.brolin_period_samples_s", "s"),
       ("lifting.lyapunov_consistency_s", "s"),
       ("lifting.lift_cesaro_s", "s"), ("lifting.entropy_estimate_s", "s"),
       ("lifting.custom_measure_s", "s"),
       ("geometry.land_orbit_s", "s"), ("geometry.land_orbit_calls", "count"),
       ("geometry.sweep_rows", "count"),
       ("geometry.root_extractions", "count"),
       ("geometry.landing_reuse", "ratio"),
       ("geometry.landing_table_csv_s", "s"),
       ("inducing.first_return_s", "s"), ("inducing.kac_check_s", "s"),
       ("inducing.expansion_and_abramov_s", "s"),
       ("inducing.recurrent_witness_domain_s", "s"),
       ("inducing.returns", "count"),
       ("conformal.build_basis_s", "s"), ("conformal.cylinders", "count"),
       ("conformal.solve_delta_s", "s"), ("conformal.leading_eigen_s", "s"),
       ("conformal.leading_eigen_calls", "count"),
       ("conformal.power_iterations", "count"),
       ("conformal.lyapunov_liftability_experiment_s", "s"),
       ("trace.pipeline_s", "s"), ("trace.spans", "count"),
       ("trace.overhead_s", "s")])


def _observe_land_orbit(tracer, args, result):
    tracer.counts["geometry.sweep_rows"] += result.rows
    tracer.counts["geometry.root_extractions"] += (result.rows
                                                   * len(result.points))
    # distinct orbits are counted when the round ends, outside its spans
    stage = tracer.spans[tracer.stack[0]][0] if tracer.stack else ""
    tracer.landed.append((stage, result.angle, args[0].model.degree))


# Counts read off a wrapped call's arguments and result.
OBSERVERS = {
    "tower.build_tower": lambda t, args, r: t.counts.update(
        {"tower.domains": len(r.domains)}),
    "streams.trace_ensemble": lambda t, args, r: t.counts.update(
        {"streams.sample_steps": r.count * r.horizon}),
    "inducing.first_return": lambda t, args, r: t.counts.update(
        {"inducing.returns": r.return_count}),
    "conformal.build_basis": lambda t, args, r: t.counts.update(
        {"conformal.cylinders": r.size}),
    "conformal.leading_eigen": lambda t, args, r: t.counts.update(
        {"conformal.power_iterations": r.iterations}),
    "geometry.land_orbit": _observe_land_orbit,
}


class Tracer:
    """Records spans and counts while a round is open."""

    def __init__(self):
        self.active = False
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.landed: list[tuple] = []
        self.rounds: list[dict] = []

    # -- recording ---------------------------------------------------------

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self.stack.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._enter(name)
        try:
            yield
        finally:
            self._exit(idx)

    def wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(idx)
            if observe is not None:
                observe(self, args, result)
            return result
        return traced

    def install(self) -> None:
        """Wrap every public function and rebind all references to it."""
        mods = {m: importlib.import_module(f"angletower.{m}")
                for m in MODULES}
        wrapped = {}
        for short, mod in mods.items():
            for name, obj in vars(mod).items():
                qual = f"{short}.{name}"
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")
                        and qual not in UNWRAPPED):
                    wrapped[obj] = self.wrap(qual, obj)
        for mod in mods.values():
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, name, wrapped[obj])
                elif isinstance(obj, dict):
                    for key, val in obj.items():
                        if inspect.isfunction(val) and val in wrapped:
                            obj[key] = wrapped[val]
        for short, cls_name, meth in METHODS:
            cls = getattr(mods[short], cls_name)
            setattr(cls, meth, self.wrap(f"{short}.{meth}",
                                         getattr(cls, meth)))

    # -- rounds and metrics ------------------------------------------------

    def start_round(self) -> None:
        self.spans, self.stack = [], []
        self.counts, self.landed = Counter(), []
        self.active = True

    def end_round(self) -> None:
        from angletower.angles import angle_orbit
        self.active = False
        orbits = [(stage, frozenset(angle_orbit(a, d)[2]))
                  for stage, a, d in self.landed]
        landing = {}
        for stage in dict.fromkeys(stage for stage, _ in orbits):
            mine = [o for s, o in orbits if s == stage]
            landing[stage] = {"calls": len(mine), "distinct": len(set(mine))}
        self.rounds.append({"spans": self.spans, "counts": self.counts,
                            "orbits": len({o for _, o in orbits}),
                            "landing": landing})

    @staticmethod
    def _round_values(rnd: dict) -> dict:
        spans = rnd["spans"]
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        self_time, total, calls = Counter(), Counter(), Counter()
        for i, (name, start, end, _) in enumerate(spans):
            self_time[name] += end - start - child[i]
            total[name] += end - start
            calls[name] += 1
        values = {}
        for metric, _ in PER_LAYER:
            base = metric.rsplit("_", 1)[0]
            if metric.startswith("cli.") and base[4:] in STAGES:
                values[metric] = total[base]
            elif metric.endswith("_s"):
                values[metric] = self_time[base]
            elif metric.endswith("_calls"):
                values[metric] = calls[base]
            else:
                values[metric] = rnd["counts"][metric]
        land_calls = calls["geometry.land_orbit"]
        values["geometry.landing_reuse"] = (rnd["orbits"] / land_calls
                                            if land_calls else 0.0)
        values["trace.spans"] = len(spans)
        return values

    def span_cost(self, calls: int = 20000) -> float:
        """Seconds one recorded span adds to a call, measured on a no-op."""
        def noop():
            return None
        traced = self.wrap("trace.noop", noop)
        saved = self.spans, self.stack, self.active
        self.spans, self.stack, self.active = [], [], True
        try:
            t0 = time.perf_counter()
            for _ in range(calls):
                traced()
            t1 = time.perf_counter()
            for _ in range(calls):
                noop()
            t2 = time.perf_counter()
        finally:
            self.spans, self.stack, self.active = saved
        return max(0.0, ((t1 - t0) - (t2 - t1)) / calls)

    def metrics(self, traced_pipeline_s: float) -> dict:
        """Per-layer metrics, each the median over the traced rounds."""
        per_round = [self._round_values(r) for r in self.rounds]
        cost = self.span_cost()
        out = {}
        for metric, unit in PER_LAYER:
            if metric == "trace.pipeline_s":
                value = traced_pipeline_s
            elif metric == "trace.overhead_s":
                value = cost * statistics.median(v["trace.spans"]
                                                 for v in per_round)
            else:
                value = statistics.median(v[metric] for v in per_round)
            out[metric] = {"value": value, "unit": unit}
        return out

    def write(self, path) -> None:
        """Spans of every round as [name, start, end, parent] rows."""
        path.write_text(json.dumps(
            [{"counts": dict(r["counts"]), "distinct_orbits": r["orbits"],
              "landing": r["landing"], "spans": r["spans"]}
             for r in self.rounds]) + "\n")
