"""Guards for the benchmark harness under perfbench/, which traces tsm
functions by module and name: a rename inside tsm would otherwise drop a
span from `perfbench/run.py --trace 1` without an error."""

import importlib
import importlib.util
import os
import subprocess
import sys

LAYERS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "layers.py")


def test_perfbench_spans_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    assert layers.SPANS
    for module, name in layers.SPANS:
        assert callable(getattr(importlib.import_module(module), name, None)), (module, name)


def test_cli_import_does_not_load_yaml(subprocess_env):
    # YAML is parsed only when a run names a config file
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, tsm.cli; print('yaml' in sys.modules)"],
        env=subprocess_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
