"""The benchmark tracer finds every function it is told to wrap.

perfbench/tracing.py only warns when a traced name is missing and then
reports 0 for that layer, so a rename in gsos would silently blind it.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_every_traced_name_resolves_to_a_gsos_callable():
    traced = _traced()
    assert traced
    for mod, path in traced:
        obj = importlib.import_module(f"gsos.{mod}")
        for attr in path.split("."):
            obj = getattr(obj, attr)
        assert callable(obj), f"{mod}.{path}"
