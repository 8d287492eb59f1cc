"""The byte gate: every entry of tests/data/output_sha256.json (tsm equilibrium,
sweep, scenario and verify runs, and the demos) rerun in process gives the
recorded exit code and the sha256 of the recorded output file and stdout.
tools/output_sha256.py writes the file and prints the entries that moved."""

import importlib.util
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load_tool():
    spec = importlib.util.spec_from_file_location("output_sha256",
                                                  ROOT / "tools" / "output_sha256.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_every_output_keeps_its_recorded_sha256(tmp_path):
    tool = load_tool()
    recorded = json.loads(tool.DATA.read_text(encoding="utf-8"))
    # Recorded on another numpy or CPU, a hash may move with no change to tsm.
    difference = tool.host_difference(recorded["host"], tool.host())
    assert not difference, (f"{tool.DATA.name} was recorded on another host ({difference});"
                            " regenerate it with tools/output_sha256.py at a trusted commit")
    assert {name: e["argv"] for name, e in recorded["entries"].items()} == tool.entries()
    got = {name: tool.run(e["argv"], tmp_path / str(i))
           for i, (name, e) in enumerate(recorded["entries"].items())}
    lines = tool.moved(recorded["entries"], got)
    assert not lines, "outputs moved:\n" + "\n".join(lines)
