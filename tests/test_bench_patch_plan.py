"""The benchmark's tracer finds the functions it wraps by name.

`perfbench/run.py --trace 1` patches module attributes of `levyreg.scenarios`
and `levyreg.batch` (`Tracer.installed` in `perfbench/tracer.py`). Entering
the tracer fails when one of those names has been deleted or renamed, so this
test guards the names; it also checks that leaving the tracer puts every
original back.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

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
