"""Tests of the benchmark's own tracer and workload definitions.

    PYTHONPATH=src python3 -m pytest -q perfbench

The derived counters (sweep iterations and occupancy, flow substeps and
substep efficiency) are checked on tiny hand-built batches against a
brute-force count and against the call counts of the real engines.
"""

import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import levyreg  # noqa: E402
from levyreg import batch, scenarios  # noqa: E402
from levyreg.batch import pack_paths  # noqa: E402
from levyreg.flow_engine import ScalarField  # noqa: E402
from levyreg.marcus import FLOW_SUBSTEP_SCALE, DiffusionField  # noqa: E402
from levyreg.path_sampler import LevyPath  # noqa: E402

from tracer import ROOT_SPAN, Tracer, summarize  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

CELLS = 4
# 4 cells of width 0.25; 0.25 sits on an edge, 1.0 on the horizon
JUMPS = [[0.1, 0.2, 0.25, 0.9], [], [0.3, 0.31, 0.32, 1.0]]


def _packed():
    paths = [LevyPath(1.0, 0.1, np.array(t), np.full(len(t), 0.3)) for t in JUMPS]
    return pack_paths(paths, CELLS)


def _brute_sweep_iterations(jumps, edges) -> int:
    """Per cell, the most jumps any one path has in (edge_k, edge_k+1]."""
    total = 0
    for k in range(len(edges) - 1):
        lo = -math.inf if k == 0 else edges[k]
        total += max(sum(1 for t in times if lo < t <= edges[k + 1])
                     for times in jumps)
    return total


def _brute_substeps(u: float) -> int:
    n = 8
    while n * FLOW_SUBSTEP_SCALE < abs(u):
        n += 1
    return n


class _Counting:
    """Callable that counts its calls."""

    def __init__(self, fn):
        self.fn, self.calls = fn, 0

    def __call__(self, x):
        self.calls += 1
        return self.fn(x)


def test_sweep_counters_match_brute_force_and_engine():
    packed = _packed()
    a_val = _Counting(lambda x: 0.5 * np.tanh(x))
    tracer = Tracer()
    with tracer.installed():
        scenarios.ode_terminals(ScalarField(a_val, lambda x: 0.0 * x), packed, 0.0)
    m = summarize(tracer.dump(), 0.0)
    brute = _brute_sweep_iterations(JUMPS, packed.edges)
    assert brute == 7
    # the RK4 advance evaluates the field 4 times; it runs once per event
    # iteration plus once per cell to reach the cell's right edge
    assert a_val.calls == 4 * (brute + CELLS)
    assert m["batch.sweep_iterations"] == brute
    assert m["batch.sweep_occupancy"] == 8 / (brute * len(JUMPS))
    assert m["batch.chunks"] == 0 and m["path_sampler.paths"] == 0


def test_flow_counters_match_brute_force_and_kernels():
    u = np.array([0.01, 0.4, -1.23, 0.0])
    per_element = [_brute_substeps(x) for x in u]
    assert per_element == [8, 8, 25, 8]
    value = _Counting(lambda x: 1.0 + 0.1 * np.sin(x))
    sigma = DiffusionField(value, lambda x: 0.1 * np.cos(x))
    tracer = Tracer()
    with tracer.installed():
        batch.flow_map_array(sigma, np.zeros(4), u)
        batch.flow_sensitivity_array(sigma, np.zeros(4), u)
    m = summarize(tracer.dump(), 0.0)
    loop = max(per_element)
    # each kernel evaluates sigma 4 times per loop substep
    assert value.calls == 2 * 4 * loop
    assert m["batch.flow_calls"] == 2
    assert m["batch.flow_substeps"] == 2 * loop
    assert m["batch.flow_substep_efficiency"] == sum(per_element) / (loop * len(u))


def test_self_time_subtracts_children_and_fields():
    spans = [[ROOT_SPAN, "scenarios.unattributed", 0.0, 10.0, -1, 0.25, 0.0],
             ["scenarios.sample_many", "path_sampler", 1.0, 4.0, 0, 0.5, 0.0],
             ["path_sampler.sample_path", "path_sampler", 2.0, 3.0, 1, 0.0, 0.125]]
    counters = Tracer().counters | {"paths": 4, "field_s": 0.75}
    m = summarize({"spans": spans, "counters": counters}, 0.001)
    assert m["path_sampler.busy_s"] == (3.0 - 1.0 - 0.5) + (1.0 - 0.125)
    assert m["path_sampler.draws"] == 1
    assert m["path_sampler.accept_ratio"] == 4.0
    assert m["scenarios.unattributed_s"] == 10.0 - 3.0 - 0.25
    assert m["trace.wall_s"] == 10.0
    assert m["config.parse_s"] == 0.001


def test_install_wraps_and_restores():
    original = scenarios.sample_many, batch.flow_map_array, scenarios.make_scalar_field
    tracer = Tracer()
    with tracer.installed():
        assert scenarios.sample_many is not original[0]
        field = scenarios.make_scalar_field("linear", {"slope": 2.0})
        assert field.value(np.ones(3)).tolist() == [2.0, 2.0, 2.0]
        assert field.derivative(1.5) == 2.0
    assert (scenarios.sample_many, batch.flow_map_array,
            scenarios.make_scalar_field) == original
    assert tracer.counters["field_calls"] == 2
    assert tracer.counters["field_elements"] == 4


def test_workload_configs_parse():
    for wl in WORKLOADS.values():
        for smoke in (False, True):
            config = levyreg.parse_config(wl.config_text(wl.seed, smoke))
            assert config.scenario == wl.scenario and config.threads == 1
            assert config.replicas == (wl.smoke if smoke else wl.size)["replicas"]
            if wl.scenario in ("S1", "S3", "S7"):
                # detect_atoms and two_sample_ks need 1000 samples
                assert config.replicas >= 1000
