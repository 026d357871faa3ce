"""The benchmark's tracer finds the functions it wraps by name.

`perfbench/run.py --trace 1` patches module attributes of `levyreg.scenarios`
and `levyreg.batch` (`Tracer.installed` in `perfbench/tracer.py`). Entering
the tracer fails when one of those names has been deleted or renamed, so this
test guards the names; it also checks that leaving the tracer puts every
original back. Every `from levyreg... import ...` in the benchmark's files,
module level or inside a function, must resolve too.
"""

import ast
import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

from levyreg import batch, scenarios  # noqa: E402
from tracer import Tracer  # noqa: E402


def test_tracer_patches_named_functions_and_restores_them():
    before = {module: dict(vars(module)) for module in (scenarios, batch)}
    with Tracer().installed():
        patched = {name for module, names in before.items()
                   for name, original in names.items()
                   if vars(module)[name] is not original}
    assert patched >= {
        "run_scenario", "sample_many", "sample_path", "pack_paths", "ode_terminals",
        "write_outputs", "make_scalar_field", "flow_map_array"}
    for module, names in before.items():
        assert dict(vars(module)) == names


def _levyreg_imports():
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.module and \
                    node.module.split(".")[0] == "levyreg":
                for alias in node.names:
                    yield f"{path.name}:{node.lineno}", node.module, alias.name


def test_benchmark_finds_some_levyreg_imports():
    assert {module for _, module, _ in _levyreg_imports()} >= {
        "levyreg", "levyreg.batch", "levyreg.marcus", "levyreg.path_sampler"}


@pytest.mark.parametrize("where,module,name", list(_levyreg_imports()))
def test_benchmark_imports_from_levyreg_resolve(where, module, name):
    assert hasattr(importlib.import_module(module), name), \
        f"{where}: from {module} import {name}"
