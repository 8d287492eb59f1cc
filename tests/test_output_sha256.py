"""The byte gate: every entry of tests/data/output_sha256.json (tsm equilibrium,
sweep, scenario and verify runs, and the demos) rerun in process gives the
recorded exit code and the sha256 of the recorded output file and stdout;
five of them do so at other oracle and CSV block sizes too.
tools/output_sha256.py writes the file and prints the entries that moved."""

import importlib.util
import json
import pathlib

import pytest

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


@pytest.mark.parametrize("csv_rows", [7, 2048])
def test_block_sizes_keep_the_recorded_sha256(tmp_path, monkeypatch, csv_rows):
    # The oracle's and the CSV writer's block sizes bound memory only: at
    # other sizes, the entries that run them give the recorded bytes.
    from tsm import cli, equilibrium

    tool = load_tool()
    recorded = json.loads(tool.DATA.read_text(encoding="utf-8"))
    assert not tool.host_difference(recorded["host"], tool.host()), "recorded on another host"
    monkeypatch.setattr(equilibrium, "ORACLE_BLOCK_ROWS", 4096)
    monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", csv_rows)
    names = ["scenario equilibrium seed 11", "scenario declared-price seed 11",
             "scenario equilibrium n 10000 seed 1729", "verify seed 1729", "verify seed 7"]
    entries = {name: recorded["entries"][name] for name in names}
    got = {name: tool.run(e["argv"], tmp_path / str(i))
           for i, (name, e) in enumerate(entries.items())}
    lines = tool.moved(entries, got)
    assert not lines, "outputs moved:\n" + "\n".join(lines)
