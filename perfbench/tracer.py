"""Per-layer tracing of a levyreg run from outside the package.

`Tracer.installed()` replaces the public functions that the scenario runners
and batch engines look up at call time (module attributes of
`levyreg.scenarios` and `levyreg.batch`) with wrappers that record a span per
call: name, layer, start, end, parent. Coefficient-field callables are called
millions of times, so they are not spans: their time, calls and elements are
summed, and their time is charged to the enclosing span so that self times
add up. Counts the engines do not expose (sweep iterations, flow substeps)
are derived from the public arguments and return values; that bookkeeping is
timed separately and kept out of every layer.

`summarize` turns the recorded spans and counters into the per-layer
metrics. A layer's time is the self time of its spans: span duration minus
the time covered by child spans and by field calls made directly inside it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import time
from pathlib import Path

import numpy as np

# span fields
NAME, LAYER, START, END, PARENT, FIELD_S, BOOK_S = range(7)

ROOT_SPAN = "scenarios.run_scenario"


def sweep_counts(edges: np.ndarray, flat_times: np.ndarray,
                 offsets: np.ndarray) -> int:
    """Event iterations of the batch engines' cell sweep over one packed batch.

    Inside cell k every path with a pending jump at or before the cell's right
    edge fires one jump per iteration, so the cell takes as many iterations as
    its busiest path has jumps there: the sum over cells of that maximum.
    """
    n_cells = len(edges) - 1
    counts = np.diff(offsets)
    if not counts.sum():
        return 0
    path = np.repeat(np.arange(len(counts)), counts)
    cell = np.maximum(np.searchsorted(edges, flat_times, side="left") - 1, 0)
    inside = cell < n_cells
    _, first, per_pair = np.unique(path[inside] * n_cells + cell[inside],
                                   return_index=True, return_counts=True)
    busiest = np.zeros(n_cells, dtype=np.int64)
    np.maximum.at(busiest, cell[inside][first], per_pair)
    return int(busiest.sum())


def flow_counts(u, substep_scale: float) -> tuple[int, int, int]:
    """(loop substeps, summed per-element substeps, elements) of one call to a
    batch flow kernel: element e needs max(8, ceil(|u_e| / scale)) substeps
    and the loop runs to the largest of them."""
    u = np.asarray(u, dtype=float)
    if not u.size:
        return 0, 0, 0
    n = np.maximum(8, np.ceil(np.abs(u) / substep_scale)).astype(np.int64)
    return int(n.max()), int(n.sum()), int(n.size)


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _packed_nbytes(packed) -> int:
    arrays = (packed.edges, packed.flat_times, packed.flat_sizes, packed.offsets,
              packed.z_terminal, packed.brown_edges)
    return sum(a.nbytes for a in arrays if a is not None)


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters = {"paths": 0, "jumps": 0, "packed_bytes_max": 0,
                         "swept_jumps": 0, "swept_paths": 0, "sweep_iterations": 0,
                         "sweep_slots": 0, "flow_substeps": 0,
                         "flow_element_substeps": 0, "flow_slots": 0,
                         "diagnostic_samples": 0, "write_bytes": 0,
                         "field_calls": 0, "field_elements": 0, "field_s": 0.0,
                         "bookkeeping_s": 0.0}

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, layer: str, fn, count=None):
        """`fn` recording one span per call, whose self time goes to `layer`;
        `count(args, kwargs, result)` updates counters after the span has
        closed."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, layer, clock(), 0.0, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if count is not None:
                t = clock()
                count(args, kwargs, out)
                self._charge(BOOK_S, "bookkeeping_s", clock() - t)
            return out

        return traced

    def _charge(self, slot: int, counter: str, seconds: float) -> None:
        self.counters[counter] += seconds
        if self.stack:
            self.spans[self.stack[-1]][slot] += seconds

    def field_fn(self, fn):
        """A field callable whose time, calls and elements are summed."""
        spans, stack, counters, clock = self.spans, self.stack, self.counters, \
            time.perf_counter

        def traced(x):
            t = clock()
            out = fn(x)
            dt = clock() - t
            counters["field_calls"] += 1
            counters["field_elements"] += getattr(x, "size", 1)
            counters["field_s"] += dt
            if stack:
                spans[stack[-1]][FIELD_S] += dt
            return out

        return traced

    def field_factory(self, factory):
        def make(*args, **kwargs):
            f = factory(*args, **kwargs)
            return dataclasses.replace(f, value=self.field_fn(f.value),
                                       derivative=self.field_fn(f.derivative))
        return make

    # -- counters ----------------------------------------------------------

    def _count_paths(self, args, kwargs, out):
        self.counters["paths"] += len(out)

    def _count_jumps(self, args, kwargs, out):
        self.counters["jumps"] += out.n_jumps

    def _count_pack(self, args, kwargs, out):
        c = self.counters
        c["packed_bytes_max"] = max(c["packed_bytes_max"], _packed_nbytes(out))

    def _sweep_counter(self, pos: int):
        def count(args, kwargs, out):
            packed = _arg(args, kwargs, pos, "packed")
            c = self.counters
            iters = sweep_counts(packed.edges, packed.flat_times, packed.offsets)
            c["swept_jumps"] += int(packed.offsets[-1])
            c["swept_paths"] += packed.n_paths
            c["sweep_iterations"] += iters
            c["sweep_slots"] += iters * packed.n_paths
        return count

    def _flow_counter(self, default_scale: float):
        def count(args, kwargs, out):
            u = _arg(args, kwargs, 2, "u")
            scale = args[3] if len(args) > 3 else kwargs.get("substep_scale",
                                                              default_scale)
            loop, total, elements = flow_counts(u, scale)
            c = self.counters
            c["flow_substeps"] += loop
            c["flow_element_substeps"] += total
            c["flow_slots"] += loop * elements
        return count

    def _count_samples(self, args, kwargs, out):
        self.counters["diagnostic_samples"] += sum(
            a.count for a in args if hasattr(a, "count") and hasattr(a, "values"))

    def _count_written(self, args, kwargs, out):
        out_dir = Path(_arg(args, kwargs, 2, "out_dir"))
        self.counters["write_bytes"] += sum(
            p.stat().st_size for p in out_dir.rglob("*") if p.is_file())

    # -- installation ------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Patch the traced functions into levyreg for the duration."""
        from levyreg import batch, scenarios
        from levyreg.marcus import FLOW_SUBSTEP_SCALE

        flow = self._flow_counter(FLOW_SUBSTEP_SCALE)
        # (module, attribute, span name, layer that gets its self time, counter)
        plan = [
            (scenarios, "run_scenario", ROOT_SPAN, "scenarios.unattributed", None),
            (scenarios, "sample_many", "scenarios.sample_many", "path_sampler",
             self._count_paths),
            (scenarios, "sample_path", "path_sampler.sample_path", "path_sampler",
             self._count_jumps),
            (scenarios, "pack_paths", "batch.pack_paths", "batch.pack",
             self._count_pack),
            (scenarios, "ode_terminals", "batch.ode_terminals", "batch.sweep",
             self._sweep_counter(1)),
            (scenarios, "doss_terminals", "batch.doss_terminals", "batch.sweep",
             self._sweep_counter(2)),
            (scenarios, "marcus_terminals", "batch.marcus_terminals", "batch.sweep",
             self._sweep_counter(2)),
            (scenarios, "flow_map_array", "batch.flow_map_array", "batch.flow", flow),
            (batch, "flow_map_array", "batch.flow_map_array", "batch.flow", flow),
            (batch, "flow_sensitivity_array", "batch.flow_sensitivity_array",
             "batch.flow", flow),
            (scenarios, "solve_random_ode", "flow_engine.solve_random_ode",
             "flow_engine.solve", None),
            (scenarios, "marcus_solve", "marcus.marcus_solve", "marcus.solve", None),
            (scenarios, "unit_diffusion_transform",
             "transforms.unit_diffusion_transform", "transforms", None),
            (scenarios, "reduced_drift", "transforms.reduced_drift", "transforms",
             None),
            (scenarios, "proportional_solution", "transforms.proportional_solution",
             "transforms", None),
            (scenarios, "detect_atoms", "diagnostics.detect_atoms", "diagnostics",
             self._count_samples),
            (scenarios, "lattice_concentration", "diagnostics.lattice_concentration",
             "diagnostics", self._count_samples),
            (scenarios, "two_sample_ks", "diagnostics.two_sample_ks", "diagnostics",
             self._count_samples),
            (scenarios, "deterministic_skeleton", "diagnostics.deterministic_skeleton",
             "diagnostics", None),
            (scenarios, "write_outputs", "scenarios.write_outputs", "scenarios.write",
             self._count_written),
        ]
        saved = [(module, attr, getattr(module, attr)) for module, attr, *_ in plan]
        try:
            for module, attr, name, layer, count in plan:
                setattr(module, attr,
                        self.wrap(name, layer, getattr(module, attr), count))
            for attr in ("make_scalar_field", "make_diffusion_field"):
                saved.append((scenarios, attr, getattr(scenarios, attr)))
                setattr(scenarios, attr, self.field_factory(getattr(scenarios, attr)))
            yield self
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)

    def dump(self) -> dict:
        return {"spans": self.spans, "counters": self.counters}


def _ratio(num: float, den: float) -> float:
    """num / den, or 0 when the layer did no work (den == 0)."""
    return num / den if den else 0.0


def summarize(dump: dict, parse_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced run (see perfbench/README.md)."""
    spans, c = dump["spans"], dump["counters"]
    covered = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            covered[s[PARENT]] += s[END] - s[START]
    busy: dict[str, float] = {}
    calls: dict[str, int] = {}
    layer_calls: dict[str, int] = {}
    wall = 0.0
    for s, cov in zip(spans, covered):
        name, layer = s[NAME], s[LAYER]
        busy[layer] = busy.get(layer, 0.0) + (s[END] - s[START]) - cov \
            - s[FIELD_S] - s[BOOK_S]
        calls[name] = calls.get(name, 0) + 1
        layer_calls[layer] = layer_calls.get(layer, 0) + 1
        if name == ROOT_SPAN:
            wall += s[END] - s[START]

    def b(layer):
        return busy.get(layer, 0.0)

    def n(*names):
        return sum(calls.get(x, 0) for x in names)

    draws = n("path_sampler.sample_path")
    return {
        "config.parse_s": parse_s,
        "path_sampler.busy_s": b("path_sampler"),
        "path_sampler.us_per_path": 1e6 * _ratio(b("path_sampler"), c["paths"]),
        "path_sampler.paths": c["paths"],
        "path_sampler.draws": draws,
        "path_sampler.jumps": c["jumps"],
        "path_sampler.accept_ratio": _ratio(c["paths"], draws),
        "batch.pack_s": b("batch.pack"),
        "batch.packed_mib": c["packed_bytes_max"] / 2.0 ** 20,
        "batch.chunks": n("batch.pack_paths"),
        "batch.sweep_s": b("batch.sweep"),
        "batch.sweep_iterations": c["sweep_iterations"],
        "batch.sweep_occupancy": _ratio(c["swept_jumps"], c["sweep_slots"]),
        "batch.jumps_per_s": _ratio(c["swept_jumps"], b("batch.sweep")),
        "batch.flow_s": b("batch.flow"),
        "batch.flow_calls": n("batch.flow_map_array", "batch.flow_sensitivity_array"),
        "batch.flow_substeps": c["flow_substeps"],
        "batch.flow_substep_efficiency": _ratio(c["flow_element_substeps"],
                                                c["flow_slots"]),
        "fields.busy_s": c["field_s"],
        "fields.calls": c["field_calls"],
        "fields.elements": c["field_elements"],
        "flow_engine.solve_s": b("flow_engine.solve"),
        "flow_engine.solve_calls": n("flow_engine.solve_random_ode"),
        "marcus.solve_s": b("marcus.solve"),
        "marcus.solve_calls": n("marcus.marcus_solve"),
        "transforms.busy_s": b("transforms"),
        "transforms.calls": layer_calls.get("transforms", 0),
        "diagnostics.busy_s": b("diagnostics"),
        "diagnostics.samples": c["diagnostic_samples"],
        "scenarios.write_s": b("scenarios.write"),
        "scenarios.write_bytes": c["write_bytes"],
        "scenarios.unattributed_s": b("scenarios.unattributed"),
        "trace.wall_s": wall,
        "trace.bookkeeping_s": c["bookkeeping_s"],
    }
