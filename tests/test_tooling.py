"""Guards for tooling that finds tsm code by name: the benchmark harness
under perfbench/, which traces tsm functions by module and name (a rename
inside tsm would otherwise drop a span from `perfbench/run.py --trace 1`
without an error), and the CLI, which merges flags over config keys by
name. The benchmark's three workloads also run here against their stored
references, so a change to their outputs fails tier-1 and not only the
benchmark. What `import tsm.cli`, which every command pays for, builds is
guarded here too: the result types are tuples, not dataclasses."""

import argparse
import importlib
import importlib.util
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

from tests.test_cli import FEASIBLE_FLAGS

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def load_perfbench(name):
    """A perfbench module, loaded by file path."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


workloads = load_perfbench("workloads")


def test_perfbench_spans_resolve():
    layers = load_perfbench("layers")
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


# The result types, tuples for a cheap import, with their fields in order.
RESULT_FIELDS = {
    ("core", "Coefficients"): ("a1", "a2", "a3", "a4"),
    ("core", "FeasibilityReport"): ("f1_price_positive", "f2_price_max", "f3_share_max",
                                    "all_ok"),
    ("equilibrium", "EquilibriumResult"): (
        "feasible", "feasibility", "share_roots_found", "price_star", "share_star", "demand",
        "supply", "provider_payoff", "cloud_payoff", "residual"),
    ("equilibrium", "OracleEquilibrium"): ("price", "share", "cloud_payoff", "n_candidates"),
    ("equilibrium", "SecondOrderReport"): (
        "provider_soc_negative", "cloud_soc_negative", "provider_soc_analytic",
        "cloud_soc_analytic", "provider_agreement", "cloud_agreement", "d2_provider",
        "d2_cloud"),
    ("scenarios", "Outcome"): ("params", "feasible", "price", "share", "demand", "supply",
                               "provider_payoff", "cloud_payoff"),
    ("scenarios", "Provider"): ("provider_id", "params", "declared_price"),
    ("scenarios", "ScenarioRecord"): (
        "provider_id", "scenario", "params", "price", "share", "demand", "supply",
        "provider_payoff", "cloud_payoff", "feasible"),
    ("cli", "PropertyResult"): ("name", "passed", "detail"),
}


def test_cli_import_builds_only_the_validated_dataclasses(subprocess_env):
    # Each dataclass costs about 1 ms of `import tsm.cli`. Four remain:
    # MarketParams, PopulationSpec and SweepSpec validate in __post_init__,
    # and ParamTable's columns are swapped by `dataclasses.replace`.
    probe = ("import dataclasses, sys, tsm.cli; print(sorted({"
             "f'{v.__module__}.{v.__qualname__}' for m, mod in list(sys.modules.items())"
             " if m == 'tsm' or m.startswith('tsm.') for v in vars(mod).values()"
             " if isinstance(v, type) and dataclasses.is_dataclass(v)}))")
    proc = subprocess.run([sys.executable, "-c", probe], env=subprocess_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == str(["tsm.core.MarketParams", "tsm.core.ParamTable",
                               "tsm.population.PopulationSpec",
                               "tsm.population.SweepSpec"]) + "\n"


@pytest.mark.parametrize("module, name", sorted(RESULT_FIELDS))
def test_result_type_is_an_immutable_record(module, name):
    cls = getattr(importlib.import_module(f"tsm.{module}"), name)
    fields = RESULT_FIELDS[module, name]
    assert issubclass(cls, tuple)
    assert cls._fields == fields
    record = cls(*range(len(fields)))
    with pytest.raises(AttributeError):
        setattr(record, fields[-1], None)
    assert record._replace(**{fields[0]: -1})[0] == -1


ROOT = pathlib.Path(PERFBENCH).parent


def load_bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    return bench_pairs


def test_bench_pairs_reads_tsm_import_times():
    # One fresh import of this checkout's tsm.cli, read off `-X importtime`.
    times = load_bench_pairs().import_times(ROOT)
    assert set(times) == {"tsm", "tsm.core", "tsm.equilibrium", "tsm.scenarios",
                          "tsm.population", "tsm.cli", "total"}
    assert times["total"] >= times["tsm.cli"] > 0


def test_bench_pairs_runs_verify_in_a_fresh_interpreter():
    # `--fault-runs` reads one verify run per child: its wall time, its minor
    # faults and the child's peak RSS, which includes numpy's import.
    run = load_bench_pairs().verify_run(ROOT)
    assert set(run) == {"ms", "minflt", "maxrss_kb"}
    assert run["ms"] > 0 and run["minflt"] > 0
    assert run["maxrss_kb"] > 20_000


def test_bench_pairs_runs_fig4_in_a_fresh_interpreter():
    # `--fault-runs` reads the first of a child's timed fig4 runs, after two
    # warm-ups, and the fastest of them.
    run = load_bench_pairs().fig4_run(ROOT, 300)
    assert set(run) == {"ms", "min_ms", "minflt"}
    assert run["ms"] >= run["min_ms"] > 0 and run["minflt"] >= 0


def test_bench_pairs_counts_children_in_each_mode():
    # The pooled values part at their widest ratio gap, 5.5 -> 7.9 ms.
    counted = load_bench_pairs().modes({"parent": [5.3, 8.0, 5.5], "change": [7.9, 5.4, 8.8]})
    assert counted == {"split_ms": 6.5917, "parent": {"below": 2, "above": 1},
                       "change": {"below": 1, "above": 2}}


def test_bench_pairs_refuses_a_side_outside_git(tmp_path, capsys):
    # A `git archive` copy has no commit to record: one error line, no run.
    out = tmp_path / "bench.json"
    code = load_bench_pairs().main([str(tmp_path), str(ROOT), "--workload", "verify",
                                    "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1 and not out.exists()
    assert err.startswith("error: parent checkout ") and err.count("\n") == 1


@pytest.mark.parametrize("flag, value, low", [
    ("--pairs", "0", 1), ("--pairs", "-3", 1), ("--fault-runs", "-1", 0),
    ("--trace-runs", "-1", 0), ("--import-runs", "-2", 0)])
def test_bench_pairs_refuses_a_count_it_cannot_run(tmp_path, capsys, monkeypatch, flag, value,
                                                   low):
    # No pair would leave nothing to summarise, and a negative count a report
    # that claims it: one error line before any run.
    bench_pairs = load_bench_pairs()

    def run(*args, **kwargs):
        raise AssertionError("ran")

    for name in ("bench_run", "fig4_run", "verify_run", "import_times", "is_work_tree"):
        monkeypatch.setattr(bench_pairs, name, run)
    out = tmp_path / "bench.json"
    code = bench_pairs.main([str(ROOT), str(ROOT), "--workload", "verify", flag, value,
                             "--out", str(out)])
    assert code == 1 and not out.exists()
    assert capsys.readouterr().err == f"error: {flag} must be >= {low}, got {value}\n"


def test_bench_pairs_prints_one_summary_line_per_metric():
    # Four pairs on a synthetic runs dict: the change wins every items/s pair
    # and two of the four setup_s pairs, where lower is better.
    bench_pairs = load_bench_pairs()
    values = {"parent": [(100.0, 0.010), (110.0, 0.012), (90.0, 0.011), (105.0, 0.013)],
              "change": [(105.0, 0.011), (120.0, 0.011), (100.0, 0.012), (115.0, 0.012)]}
    runs = {side: [{"metrics": {"items_per_s": {"value": items}, "setup_s": {"value": setup}}}
                   for items, setup in side_values] for side, side_values in values.items()}
    pairs = bench_pairs.summarise(runs, {"items_per_s": "higher", "setup_s": "lower"})
    assert bench_pairs.summary_lines("verify", pairs) == [
        "verify items_per_s: change_over_parent_median=1.0732 change_better_pairs=4/4"
        " parent_iqr=16.25",
        "verify setup_s: change_over_parent_median=1.0 change_better_pairs=2/4"
        " parent_iqr=0.0025"]


@pytest.mark.parametrize("moved", [None, "parent", "change"])
def test_bench_pairs_refuses_a_side_whose_commit_moved(tmp_path, capsys, monkeypatch, moved):
    # Each side's commit is read before the first run and after the last:
    # a side that moved during the runs voids them, with one error line that
    # names it and no report.
    bench_pairs = load_bench_pairs()
    reads = []

    def describe(checkout):
        side = "parent" if len(reads) % 2 == 0 else "change"
        reads.append(side)
        return "abc1234" + ("+dirty" if side == moved and len(reads) > 2 else "")

    def bench_run(checkout, workload, seed, seconds, trace=0):
        return {"correct": True, "metrics": {m: {"value": 1.0}
                                             for m in ("items_per_s", "setup_s", "peak_rss_mb")}}

    monkeypatch.setattr(bench_pairs, "describe", describe)
    monkeypatch.setattr(bench_pairs, "bench_run", bench_run)
    monkeypatch.setattr(bench_pairs, "host", dict)
    monkeypatch.setattr(bench_pairs, "is_work_tree", lambda checkout: True)
    out = tmp_path / "bench.json"
    code = bench_pairs.main([str(ROOT), str(ROOT), "--workload", "verify", "--pairs", "2",
                             "--out", str(out)])
    assert reads == ["parent", "change", "parent", "change"][:3 if moved == "parent" else 4]
    err = capsys.readouterr().err
    if moved is None:
        assert code == 0 and err == ""
        assert json.loads(out.read_text())["commits"] == {"parent": "abc1234",
                                                          "change": "abc1234"}
    else:
        assert code == 1 and not out.exists()
        assert err == (f"error: {moved} checkout {ROOT} moved from abc1234 to abc1234+dirty"
                       " during the runs; no report written\n")


def test_bench_pairs_alternates_which_side_runs_first():
    # Every round runs each side once, the parent first on even rounds, so a
    # load episode lands on both sides rather than on one side's block.
    assert list(load_bench_pairs().alternating(3)) == [
        (0, "parent"), (0, "change"), (1, "change"), (1, "parent"),
        (2, "parent"), (2, "change")]


def test_bench_pairs_reads_a_traced_run():
    # `--trace-runs` keeps one traced perfbench run's per-layer metrics, and
    # their spread over runs, per side.
    bench_pairs = load_bench_pairs()
    run = bench_pairs.bench_run(ROOT, "verify", 0, 0.5, trace=1)
    assert run["correct"]
    layers = bench_pairs.layer_spreads([run])
    oracle = layers["equilibrium.oracle_equilibrium.s"]
    assert oracle["n"] == 1 and oracle["median"] == oracle["values"][0] > 0.0
    assert layers["equilibrium.oracle_equilibrium.calls"]["median"] == 1.0


def test_every_flag_names_a_config_key():
    # The CLI merges flags over the config by name, so each flag's dest must
    # be a config key; `--scenario` fills `scenarios`. Each command takes
    # exactly the flags that the settings table gives it, plus --config.
    from tsm import cli

    [subparsers] = [a for a in cli.build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)]
    assert set(subparsers.choices) == set(cli.COMMANDS)
    for command, parser in subparsers.choices.items():
        flags = {"--config"}
        for action in parser._actions:
            if isinstance(action, argparse._HelpAction) or action.dest == "config":
                continue
            key = "scenarios" if action.dest == "scenario" else action.dest
            assert key in cli.ALLOWED_CONFIG_KEYS, (command, action.dest)
            flags.update(action.option_strings)
        assert flags == {"--config"} | {
            s.flag for s in cli.SETTINGS.values() if command in s.commands}, command


@pytest.mark.parametrize("argv", [
    ["verify", "--draws", "4", "--grid-n", "400", "--pairs", "40", "--seed", "3"],
    ["scenario", "--mode", "equilibrium", "--n-providers", "20"],
    ["sweep", "--axis", "k1", "--n-providers", "2"],
    ["equilibrium", *FEASIBLE_FLAGS],
])
def test_commands_run_under_perfbench_tracer(tmp_path, capsys, argv):
    # The harness wraps tsm functions and reads their results: the draw
    # count off draw_reported_equilibria, feasibility off stackelberg_solve,
    # and the CSV's size off write_csv's first argument. Cells are formatted
    # while write_csv runs, so its span times the formatting too. Every
    # command here but the declared-price sweep runs the share solver, and
    # a rename of `solve_share` would zero its span.
    import tsm.cli

    out = tmp_path / "out.csv"
    flags = [] if argv[0] == "verify" else ["--out", str(out)]   # verify writes no CSV
    with load_perfbench("layers").Tracer(time.perf_counter) as tracer:
        assert tsm.cli.main([*argv, *flags]) == 0
    metrics = tracer.metrics(1.0)
    if argv[0] != "sweep":
        assert metrics["equilibrium.solve_share.calls"] >= 1
    if argv[0] == "verify":
        assert metrics["cli.draw_reported_equilibria.drawn"] > 0
    else:
        assert metrics["cli.write_csv.bytes"] == os.path.getsize(out)
        assert metrics["cli.write_csv.s"] > 0


@pytest.mark.parametrize("workload, seed", [
    (workload, seed) for workload in ("fig4-sweep", "scenario-eq")
    for seed in workloads.INPUT_SEEDS
])
def test_benchmark_outputs_match_references(tmp_path, capsys, workload, seed):
    # The benchmark's output checks, run on its own argv at full size.
    import tsm.cli

    out = tmp_path / "out.csv"
    assert tsm.cli.main(workloads.WORKLOADS[workload].argv(seed, str(out))) == 0
    assert workloads.check_csv(out, workloads.load_reference(workload, seed)) == []


@pytest.mark.parametrize("seed", workloads.INPUT_SEEDS)
def test_verify_output_matches_references(capsys, seed):
    # The benchmark's `verify` check on its own argv: exit code, verdicts,
    # draw count and error figures. verify prints no draw count, so it is
    # read off draw_reported_equilibria's result, through the same tracer.
    import tsm.cli

    with load_perfbench("layers").Tracer(time.perf_counter) as tracer:
        code = tsm.cli.main(workloads.WORKLOADS["verify"].argv(seed, ""))
    assert tracer.calls["draw_reported_equilibria"] == 1
    drawn = tracer.metrics(1.0)["cli.draw_reported_equilibria.drawn"]
    assert workloads.check_verify(code, capsys.readouterr().out, drawn,
                                  workloads.load_reference("verify", seed)) == []
