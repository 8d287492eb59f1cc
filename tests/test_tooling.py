"""Guards for the benchmark harness under perfbench/, which traces tsm
functions by module and name: a rename inside tsm would otherwise drop a
span from `perfbench/run.py --trace 1` without an error."""

import importlib
import importlib.util
import os

LAYERS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "layers.py")


def test_perfbench_spans_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    assert layers.SPANS
    for module, name in layers.SPANS:
        assert callable(getattr(importlib.import_module(module), name, None)), (module, name)
