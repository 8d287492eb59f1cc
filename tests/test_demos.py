"""The narrative demos run to completion, each in a fresh interpreter."""

import pathlib
import subprocess
import sys

DEMOS = sorted((pathlib.Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_every_demo_exits_zero(tmp_path, subprocess_env):
    assert DEMOS
    for demo in DEMOS:
        proc = subprocess.run([sys.executable, str(demo)], env=subprocess_env(),
                              capture_output=True, text=True, cwd=str(tmp_path))
        assert proc.returncode == 0, f"{demo.name}:\n{proc.stderr}"
