"""The benchmark tracer's layer list names functions the library still has.

``perfbench/tracer.py`` wraps every function in its ``LAYERS`` table by
name; a function deleted or renamed in the library would break traced
benchmark runs (``--trace 1``) without failing any library test.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_traced_function_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{layer}.{name}" for layer, names in tracer.LAYERS.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"supertransport.{layer}"),
                                       name, None))]
    assert tracer.LAYERS and missing == []
