"""Tests for the command-line interface: exit codes, CSV schemas, determinism."""

import builtins
import dataclasses
import hashlib
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from tsm import cli, core, population, scenarios
from tests.test_equilibrium import FEASIBLE_PARAMS
from tests.test_population import sweep_cells

FEASIBLE_FLAGS = [
    "--alpha", repr(FEASIBLE_PARAMS.alpha), "--beta", repr(FEASIBLE_PARAMS.beta),
    "--gamma", repr(FEASIBLE_PARAMS.gamma), "--psi", repr(FEASIBLE_PARAMS.psi),
    "--phi", repr(FEASIBLE_PARAMS.phi), "--k1", repr(FEASIBLE_PARAMS.k1),
    "--f_c", repr(FEASIBLE_PARAMS.f_c),
]

# --out in a directory that does not exist
UNWRITABLE = ("cannot write nodir/x.csv: [Errno 2] No such file or directory: "
              "'nodir/x.csv'")
# an integer that no float holds: converting it raises OverflowError
HUGE = "9" * 400


def read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    return header, [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestEquilibriumCommand:
    def test_feasible_fixture(self, tmp_path):
        out = tmp_path / "eq.csv"
        code = cli.main(["equilibrium", *FEASIBLE_FLAGS, "--out", str(out)])
        assert code == 0
        header, [row] = read_csv(out)
        assert header == list(cli.EQUILIBRIUM_COLUMNS)
        assert row["feasible"] == "true"
        assert float(row["residual"]) <= 1e-8
        assert float(row["share_star"]) == pytest.approx(0.30666015686409254,
                                                         abs=1e-9)

    def test_infeasible_exits_2(self, tmp_path):
        code = cli.main([
            "equilibrium", "--alpha", "0.5", "--beta", "1.0", "--gamma", "0.3",
            "--phi", "2.0", "--k1", "0.5", "--f_c", "1.0",
            "--out", str(tmp_path / "eq.csv"),
        ])
        assert code == 2

    def test_invalid_params_exit_1(self, tmp_path):
        code = cli.main([
            "equilibrium", "--alpha", "0.5", "--beta", "3.0", "--gamma", "0.3",
            "--phi", "2.0", "--k1", "0.5", "--f_c", "1.0",
            "--out", str(tmp_path / "eq.csv"),
        ])
        assert code == 1

    def test_missing_params_exit_1(self, tmp_path):
        assert cli.main(["equilibrium", "--alpha", "0.5"]) == 1

    def test_malformed_config_key_exit_1(self, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("alhpa: 0.5\n", encoding="utf-8")
        assert cli.main(["equilibrium", "--config", str(cfg)]) == 1

    def test_config_supplies_params(self, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(
            "\n".join(f"{k}: {getattr(FEASIBLE_PARAMS, k)!r}"
                      for k in cli.PARAM_KEYS) + "\n",
            encoding="utf-8")
        out = tmp_path / "eq.csv"
        assert cli.main(["equilibrium", "--config", str(cfg),
                         "--out", str(out)]) == 0


class TestScenarioCommand:
    def test_row_shape_and_schema(self, tmp_path):
        out = tmp_path / "sc.csv"
        code = cli.main(["scenario", "--seed", "11", "--n-providers", "3",
                         "--out", str(out)])
        assert code == 0
        header, rows = read_csv(out)
        assert header == list(cli.SCENARIO_COLUMNS)
        assert len(rows) == 9

    def test_payg_rows_have_empty_share(self, tmp_path):
        out = tmp_path / "sc.csv"
        cli.main(["scenario", "--seed", "11", "--n-providers", "4",
                  "--scenario", "pay_as_you_go", "--out", str(out)])
        _, rows = read_csv(out)
        assert rows and all(r["share"] == "" for r in rows)

    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        cli.main(["scenario", "--seed", "17", "--n-providers", "5",
                  "--mode", "declared-price", "--out", str(a)])
        cli.main(["scenario", "--seed", "17", "--n-providers", "5",
                  "--mode", "declared-price", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("mode", ["equilibrium", "declared-price"])
    def test_matches_record_runners(self, tmp_path, capsys, mode):
        # phi 0.1 and psi 0 give one two_sided equilibrium among these draws
        out = tmp_path / "sc.csv"
        assert cli.main(["scenario", "--seed", "11", "--n-providers", "200",
                         "--phi", "0.1", "--psi", "0.0", "--mode", mode,
                         "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        providers = population.sample_providers(
            population.PopulationSpec(n_providers=200, seed=11, phi=0.1, psi=0.0))
        runs = {"fifty_fifty": scenarios.run_fifty_fifty(providers),
                "pay_as_you_go": scenarios.run_pay_as_you_go(providers),
                "two_sided": scenarios.run_two_sided(providers, mode=mode)}
        lines, summary = [",".join(cli.SCENARIO_COLUMNS)], []
        for name, records in runs.items():
            for r in records:
                p = r.params
                lines.append(",".join(cli._format_value(v) for v in (
                    r.provider_id, r.scenario, p.alpha, p.beta, p.gamma, p.psi, p.phi,
                    p.k1, p.f_c, r.price, r.share, r.demand, r.supply,
                    r.provider_payoff, r.cloud_payoff, r.feasible)))
            feasible = [r for r in records if r.feasible]
            cloud = float(np.mean([r.cloud_payoff for r in feasible])) if feasible else None
            prov = float(np.mean([r.provider_payoff for r in feasible])) if feasible else None
            summary.append(f"{name}: feasible {len(feasible)}/{len(records)}"
                           f" mean_cloud_payoff={cli._format_value(cloud)}"
                           f" mean_provider_payoff={cli._format_value(prov)}")
        assert out.read_text(encoding="utf-8") == "\n".join(lines) + "\n"
        assert stdout.splitlines()[1:] == summary
        if mode == "equilibrium":   # both kinds of two_sided row were compared
            assert 0 < sum(r.feasible for r in runs["two_sided"]) < 200
        _, rows = read_csv(out)
        blocked = [r for r in rows if r["scenario"] == "fifty_fifty"
                   and r["feasible"] == "false"]
        assert blocked
        for r in blocked:
            assert (r["share"], r["phi"]) == ("0.5", "1.0")
            assert (r["provider_payoff"], r["cloud_payoff"]) == ("0.0", "0.0")
            assert r["price"] == r["demand"] == r["supply"] == ""

    def test_builds_no_parameter_records(self, tmp_path, market_params_count):
        assert cli.main(["scenario", "--seed", "3", "--n-providers", "20",
                         "--out", str(tmp_path / "sc.csv")]) == 0
        assert market_params_count == [0]
        population.sample_providers(population.PopulationSpec(n_providers=20))
        assert market_params_count == [20]

    def test_blank_cells_follow_feasible_mask(self, tmp_path, monkeypatch):
        # a feasible nan or inf is printed; an infeasible finite value is not
        original = scenarios.scenario_columns

        def patched(name, t, price, mode):
            out = original(name, t, price, mode)
            return out._replace(feasible=np.array([True, True, False]),
                                price=np.array([np.nan, np.inf, 1.0]))

        monkeypatch.setattr(scenarios, "scenario_columns", patched)
        out = tmp_path / "sc.csv"
        assert cli.main(["scenario", "--seed", "3", "--n-providers", "3",
                         "--scenario", "pay_as_you_go", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert [r["price"] for r in rows] == ["nan", "inf", ""]
        assert rows[2]["demand"] == "" and rows[2]["cloud_payoff"] == "0.0"
        assert rows[0]["demand"] != ""

    @pytest.mark.parametrize("mode", ["equilibrium", "declared-price"])
    def test_block_size_does_not_change_bytes(self, tmp_path, monkeypatch, mode):
        # Blocks of 3 rows split each scenario's 10 rows 3+3+3+1.
        argv = ["scenario", "--seed", "0", "--n-providers", "10", "--mode", mode]
        assert cli.main([*argv, "--out", str(tmp_path / "a.csv")]) == 0
        monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", 3)
        assert cli.main([*argv, "--out", str(tmp_path / "b.csv")]) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_infeasible_fill_lands_at_its_rows(self, tmp_path, monkeypatch):
        # At seed 0 fifty_fifty's feasible rows are 5, 7 and 8: blocks of 3
        # rows hold none, one and two of them.
        monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", 3)
        out = tmp_path / "sc.csv"
        assert cli.main(["scenario", "--seed", "0", "--n-providers", "10",
                         "--scenario", "fifty_fifty", "--out", str(out)]) == 0
        table, price = population.sample_table(
            population.PopulationSpec(n_providers=10, seed=0))
        outcome = scenarios.scenario_columns("fifty_fifty", table, price, "equilibrium")
        assert np.flatnonzero(outcome.feasible).tolist() == [5, 7, 8]
        columns = cli.SCENARIO_COLUMNS[9:]
        _, rows = read_csv(out)
        for row, cells in zip(rows, outcome.rows("fifty_fifty"), strict=True):
            assert [row[k] for k in columns] == list(map(cli._format_value, cells))
            if row["feasible"] == "false":
                assert [row[k] for k in columns] == ["", "0.5", "", "", "0.0", "0.0",
                                                     "false"]

    @pytest.mark.parametrize("mode", ["equilibrium", "declared-price"])
    def test_scenarios_share_parameter_cells(self, tmp_path, monkeypatch, mode):
        # The parameter cells of a block are formatted once for every scenario
        # whose table holds the same arrays; fifty_fifty's phi column is its own.
        monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", 3)
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("psi: null\n", encoding="utf-8")   # psi drawn per row
        argv = ["scenario", "--config", str(cfg), "--seed", "0", "--n-providers", "10",
                "--mode", mode]
        both = tmp_path / "all.csv"
        assert cli.main([*argv, "--out", str(both)]) == 0
        lines = both.read_text(encoding="utf-8").splitlines(keepends=True)[1:]
        _, rows = read_csv(both)
        table, _ = population.sample_table(
            population.PopulationSpec(n_providers=10, seed=0, psi=None))
        assert len(set(table.psi.tolist())) == 10
        for name in scenarios.SCENARIOS:
            single = tmp_path / f"{name}.csv"
            assert cli.main([*argv, "--scenario", name, "--out", str(single)]) == 0
            body = single.read_text(encoding="utf-8").splitlines(keepends=True)[1:]
            assert [line for line in lines if line.split(",")[1] == name] == body
            mine = [r for r in rows if r["scenario"] == name]
            phi = table.phi.tolist() if name != scenarios.FIFTY_FIFTY else [1.0] * 10
            assert [r["phi"] for r in mine] == list(map(repr, phi))
            assert [r["psi"] for r in mine] == list(map(repr, table.psi.tolist()))

    def test_each_parameter_cell_is_formatted_once(self, tmp_path, monkeypatch):
        # Seven sampled columns once for all three scenarios plus fifty_fifty's
        # phi, outcome cells only at feasible rows, and each float fill and
        # summary mean once.
        calls = []

        def counting_repr(value):
            calls.append(value)
            return builtins.repr(value)

        monkeypatch.setattr(cli, "repr", counting_repr, raising=False)
        n = 10
        assert cli.main(["scenario", "--seed", "0", "--n-providers", str(n),
                         "--out", str(tmp_path / "sc.csv")]) == 0
        table, price = population.sample_table(population.PopulationSpec(n_providers=n,
                                                                          seed=0))
        expected = 8 * n
        for name in scenarios.SCENARIOS:
            out = scenarios.scenario_columns(name, table, price, "equilibrium")
            values = (out.price, out.share, out.demand, out.supply,
                      out.provider_payoff, out.cloud_payoff)
            expected += int(out.feasible.sum()) * sum(v is not None for v in values)
            expected += sum(isinstance(v, float) for v in scenarios.INFEASIBLE_FILL[name])
            expected += sum(isinstance(out.feasible_mean(c), float)
                            for c in ("cloud_payoff", "provider_payoff"))
        assert len(calls) == expected

    def test_unknown_scenario_exit_1(self, tmp_path):
        assert cli.main(["scenario", "--scenario", "barter",
                         "--out", str(tmp_path / "x.csv")]) == 1

    @pytest.mark.parametrize("setting", [
        "k2: 1.0e300",        # YAML 1.1 reads this as a string
        "price_mean: .nan",
        "alpha_sd: .nan",
        "gamma_max: .inf",
        "price_sd: -1.0",     # numpy's normal() rejects a negative scale
        "alpha_sd: -0.1",
        "alpha_min: -0.5\nalpha_mean: 0.0",   # beta's draw needs 1/alpha
        "alpha_min: 0.0",
    ])
    def test_bad_population_value_exit_1(self, tmp_path, subprocess_env, setting):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(setting + "\n", encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "tsm.cli", "scenario", "--config", str(cfg),
             "--n-providers", "20", "--out", str(tmp_path / "sc.csv")],
            env=subprocess_env(), capture_output=True, text=True, cwd=str(tmp_path),
            timeout=120)
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ")


    @pytest.mark.parametrize("setting", [
        "gamma_min: -0.5",
        "k1_min: -0.5",
        "f_c_factor: -1.0",
    ])
    def test_out_of_domain_draws_exit_1(self, tmp_path, capsys, setting):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(setting + "\n", encoding="utf-8")
        assert cli.main(["scenario", "--config", str(cfg), "--n-providers", "20",
                         "--out", str(tmp_path / "sc.csv")]) == 1
        assert capsys.readouterr().err.startswith("error: invalid parameters: ")

    def test_unsatisfiable_band_exit_1(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("price_min: 5.0\nprice_max: 5.0\n", encoding="utf-8")
        assert cli.main(["scenario", "--config", str(cfg), "--n-providers", "2",
                         "--out", str(tmp_path / "sc.csv")]) == 1
        assert capsys.readouterr().err == (
            "error: could not draw price inside [5.0, 5.0] in 1000000 attempts\n")


class TestSweepCommand:
    def test_shape_and_schema(self, tmp_path):
        out = tmp_path / "sw.csv"
        code = cli.main(["sweep", "--axis", "alpha_beta_product", "--seed", "5",
                         "--n-providers", "4", "--out", str(out)])
        assert code == 0
        header, rows = read_csv(out)
        assert header == list(cli.SWEEP_COLUMNS)
        assert len(rows) == 13 * 5 * 3

    def test_fig8_preset_filters_to_two_sided_share_series(self, tmp_path):
        out = tmp_path / "fig8.csv"
        code = cli.main(["sweep", "--preset", "fig8", "--seed", "5",
                         "--n-providers", "4", "--out", str(out)])
        assert code == 0
        _, rows = read_csv(out)
        assert rows and all(r["scenario"] == "two_sided" for r in rows)
        assert all(r["mean_share"] != "" for r in rows if r["feasible_count"] != "0")

    def test_needs_axis_or_preset(self, tmp_path):
        assert cli.main(["sweep", "--out", str(tmp_path / "x.csv")]) == 1

    @pytest.mark.parametrize("setting, code", [
        ("phi_levels: [-1.0]", 1),
        ("phi_levels: [.nan]", 1),
        ("grid: [.nan]", 1),
        ("phi_levels: [6.0]", 0),
    ])
    def test_sweep_value_checks_exit_code(self, tmp_path, setting, code):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(setting + "\n", encoding="utf-8")
        out = tmp_path / "sw.csv"
        assert cli.main(["sweep", "--config", str(cfg), "--axis", "k1", "--seed", "5",
                         "--n-providers", "2", "--out", str(out)]) == code
        assert out.exists() == (code == 0)

    @pytest.mark.parametrize("axis, integers, floats", [
        ("phi", "grid: [1, 2]", "grid: [1.0, 2.0]"),
        ("k1", "phi_levels: [1, 2.0]", "phi_levels: [1.0, 2.0]"),
    ])
    def test_integer_config_numbers_write_float_cells(self, tmp_path, axis, integers, floats):
        # A config number is a float whether or not YAML saw a dot in it.
        written = []
        for i, setting in enumerate((integers, floats)):
            cfg, out = tmp_path / f"cfg{i}.yaml", tmp_path / f"sw{i}.csv"
            cfg.write_text(setting + "\n", encoding="utf-8")
            assert cli.main(["sweep", "--config", str(cfg), "--axis", axis, "--seed", "5",
                             "--n-providers", "2", "--out", str(out)]) == 0
            written.append(out.read_bytes())
        assert written[0] == written[1]
        assert b",1.0," in written[0]

    def test_repeated_scenario_runs_once(self, tmp_path, capsys):
        # A repeated name is kept at its first mention, as `scenario` does.
        printed = []
        for names, out in (("two_sided,two_sided", "a.csv"), ("two_sided", "b.csv")):
            assert cli.main(["sweep", "--axis", "k1", "--scenario", names, "--n-providers", "2",
                             "--out", str(tmp_path / out)]) == 0
            printed.append(capsys.readouterr().out.replace(str(tmp_path / out), "OUT"))
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert printed[0] == printed[1] and "scenarios=two_sided " in printed[0]

    def test_preset_takes_its_own_axis(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("axis: phi\n", encoding="utf-8")
        for command in (["--config", str(cfg)], ["--axis", "phi"]):
            assert cli.main(["sweep", "--preset", "fig9", *command, "--n-providers", "2",
                             "--out", str(tmp_path / "fig9.csv")]) == 0
            assert "axis=phi " in capsys.readouterr().out

    def test_subprocess_env_prepends_imported_source_root(self, subprocess_env,
                                                          monkeypatch):
        import tsm
        root = os.path.dirname(os.path.dirname(os.path.abspath(tsm.__file__)))
        monkeypatch.delenv("PYTHONPATH", raising=False)
        assert subprocess_env()["PYTHONPATH"] == root
        monkeypatch.setenv("PYTHONPATH", "")
        assert subprocess_env()["PYTHONPATH"] == root
        monkeypatch.setenv("PYTHONPATH", os.pathsep.join(["src", "other"]))
        env = subprocess_env(EXTRA_SETTING="2")
        assert env["PYTHONPATH"] == os.pathsep.join([root, "src", "other"])
        assert env["EXTRA_SETTING"] == "2"


def rescaled_reference(values):
    """math.fsum(v / scale) / k * scale with scale = max|v| where the plain sum
    of the values overflows, as in the means `padded_mean` rescales; else None."""
    with np.errstate(over="ignore", invalid="ignore"):
        if np.isfinite(np.sum(values)):
            return None
    scale = np.abs(values).max()
    return math.fsum((values / scale).tolist()) / values.size * scale


def test_overflowing_means_are_rescaled(tmp_path, subprocess_env):
    # Every feasible row is finite, but the sums of pay_as_you_go's provider
    # payoffs and demands overflow; and rows that overflow inside the kernels
    # (infeasible ones) used to make numpy warn on stderr.
    cfg = tmp_path / "big.yaml"
    cfg.write_text("k1_min: 1.0e+150\nk1_max: 2.0e+150\nn_providers: 2000\nseed: 1\n",
                   encoding="utf-8")
    printed = {}
    for command, extra in (("scenario", ["--mode", "declared-price"]),
                           ("sweep", ["--axis", "gamma"])):
        out = tmp_path / f"{command}.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "tsm.cli", command, "--config", str(cfg), *extra,
             "--out", str(out)],
            env=subprocess_env(), capture_output=True, text=True, cwd=str(tmp_path),
            timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "")
        text = proc.stdout + out.read_text(encoding="utf-8")
        assert not re.search(r"\b(inf|nan)\b", text, re.IGNORECASE)
        printed[command] = proc.stdout, out

    spec = population.PopulationSpec(k1_min=1.0e150, k1_max=2.0e150, n_providers=2000, seed=1)
    table, price = population.sample_table(spec)
    means = dict(re.findall(r"^(\w+): .* mean_provider_payoff=(\S+)$", printed["scenario"][0],
                            re.MULTILINE))
    checked = 0
    for name in scenarios.SCENARIOS:
        out = scenarios.scenario_columns(name, table, price, "declared-price")
        expected = rescaled_reference(out.provider_payoff[out.feasible])
        if expected is not None:
            assert float(means[name]) == pytest.approx(expected, rel=1e-15, abs=0.0)
            checked += 1
    assert checked == 1   # pay_as_you_go

    _, rows = read_csv(printed["sweep"][1])
    cells = {(float(r["axis_value"]), r["scenario"], float(r["phi_level"])): r for r in rows}
    checked = 0
    for key, out, rows in sweep_cells(population.SweepSpec(axis="gamma", population=spec)):
        for column in population.MEAN_COLUMNS:
            values = getattr(out, column)
            if values is None or not out.feasible[rows].any():
                continue
            expected = rescaled_reference(values[rows][out.feasible[rows]])
            if expected is not None:
                got = float(cells[key][f"mean_{column}"])
                assert got == pytest.approx(expected, rel=1e-15, abs=0.0), (key, column)
                checked += 1
    assert checked >= 40


class TestVerifyCommand:
    def test_small_run_passes(self, capsys):
        code = cli.main(["verify", "--draws", "4", "--grid-n", "400",
                         "--pairs", "40", "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("[PASS]") == 5
        assert "[FAIL]" not in out

    def test_fault_injection_fails_named_property(self, capsys, monkeypatch):
        # a wrong-sign a3 must break the reduced-form consistency property
        original = core.derive_coefficients

        def wrong_sign(params):
            c = original(params)
            return c._replace(a3=-c.a3)

        monkeypatch.setattr("tsm.core.derive_coefficients", wrong_sign)
        code = cli.main(["verify", "--draws", "2", "--grid-n", "400",
                         "--pairs", "30", "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 3
        assert "[FAIL] fixed_point_consistency" in out

    def test_empty_region_reported(self, capsys, monkeypatch):
        empty = scenarios.scenario_columns(
            scenarios.TWO_SIDED, core.ParamTable.from_params([]), None,
            scenarios.MODE_EQUILIBRIUM)
        monkeypatch.setattr("tsm.cli.draw_reported_equilibria",
                            lambda seed, count, max_draws=0: (empty, 100_000))
        code = cli.main(["verify", "--draws", "2", "--pairs", "20",
                         "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 3
        assert "region empty" in out

    @pytest.mark.parametrize("seed, code, line", [
        (1729, 3, "[FAIL] payg_rental_foc: no row checked: 0 of 1 drawn prices exceed f_c"),
        (7, 0, "[PASS] payg_rental_foc: max relative rental FOC 2.088e-10 (tol 1e-6)"),
    ])
    def test_payg_rental_foc_counts_its_rows(self, capsys, seed, code, line):
        # One pair draws one rental price: at seed 1729 it does not exceed
        # f_c, so the property has no row to check and must not pass.
        assert cli.main(["verify", "--draws", "1", "--pairs", "1", "--seed", str(seed)]) == code
        assert capsys.readouterr().out.splitlines()[-1] == line

    def test_bad_draws_exit_1(self):
        assert cli.main(["verify", "--draws", "0"]) == 1

    def test_bad_pairs_exit_1(self, capsys):
        # a non-positive pair count would pass fixed_point_consistency vacuously
        assert cli.main(["verify", "--pairs", "-5", "--draws", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "[PASS]" not in captured.out

    @pytest.mark.parametrize("grid_n", ["0", "50"])
    def test_bad_grid_n_exit_1(self, capsys, grid_n):
        # rejected before any draw: the oracle needs at least 100 grid points
        assert cli.main(["verify", "--grid-n", grid_n, "--draws", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.out == ""   # no header and no [PASS] line


def sampler_digests(out: scenarios.Outcome) -> tuple[str, str]:
    """sha256 of the kept games' ParamTable columns and of the other Outcome
    columns, each over the columns' bytes in field order."""
    params, outcome = hashlib.sha256(), hashlib.sha256()
    for f in dataclasses.fields(core.ParamTable):
        params.update(np.ascontiguousarray(getattr(out.params, f.name)).tobytes())
    for name in out._fields[1:]:
        outcome.update(np.ascontiguousarray(getattr(out, name)).tobytes())
    return params.hexdigest(), outcome.hexdigest()


class TestReportedEquilibriaSampler:
    # verify at seeds 1729, 7, 11 and 23 samples with seeds 1730, 8, 12 and
    # 24. Seeds 1730 and 8 were recorded from the sampler that solved every
    # in-band draw of a batch, the rest from the one that copied a batch's
    # f1-f3 rows and then drew all of its k1: testing f1-f3 and root
    # existence first, and drawing k1 block by block, must keep the stream,
    # the games and the count.
    STREAM = {
        1730: (2_400_000,
               "cd87092ea14f66eba61447c15d3fc06e9fb97ecec6382146f518472f407c0ea0",
               "a81d204025a09402858ad8822dffd38861b60a3c7a48770d3477f30b6852c466"),
        8: (2_600_000,
            "9e93e9fd870b65426b7ace6b4bc949b69861b1a3f3c0690233a1e155f1cafaf5",
            "d902af79a490dc9af2c6b65c02e321fc7b55227e6ba1536a233151a33827822f"),
        12: (2_600_000,
             "30050b699eb9b8127fb4625faf05a34ad564159ebffe415f45e1982213d55b82",
             "e78af944a793534a70ae716c5d74807b1279883293119dfac55dcfbed53c6b6e"),
        24: (2_400_000,
             "c389c7b0d689e1a33f00706a118bf78d1bf07a37067a75e8b04153ec2250ffeb",
             "1dbe76629e7735f0f0be23bfc79035e5394e722ec320ecd7f9b4160c6f0df9cd"),
    }
    # Seed 1730 with a count its first batch reaches mid-pass, and with one
    # that takes 31 batches.
    COUNTS = {
        17: (200_000,
             "2b633b571ed8e56a16465ea79ec82d3e0e87623bc3f02abfdfa85f639dede094",
             "cf2cfca21a56b3aac095d2414bb9e43db0a4583f78a4825805ccc405cb1a550c"),
        500: (6_200_000,
              "b1119130e156f805f94c8df3e79b72dc0e99ae99a2d72b101698e2353656f96b",
              "ca40f45c809c95fe453cdbc45116a794e8394926fb4a9dfd0083423157e1d1f4"),
    }

    @pytest.mark.parametrize("seed", sorted(STREAM))
    def test_stream_and_kept_games_are_pinned(self, seed):
        out, drawn = cli.draw_reported_equilibria(seed, 200)
        assert len(out.params) == 200
        assert (drawn, *sampler_digests(out)) == self.STREAM[seed]

    @pytest.mark.parametrize("count", sorted(COUNTS))
    def test_counts_within_and_across_batches_are_pinned(self, count):
        out, drawn = cli.draw_reported_equilibria(1730, count)
        assert len(out.params) == count
        assert (drawn, *sampler_digests(out)) == self.COUNTS[count]

    def test_draws_without_warnings(self):
        # Every raw draw of a block reaches has_share_root, out-of-band ones too.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cli.draw_reported_equilibria(1730, 200)

    def test_traced_memory_peak_is_bounded(self):
        # A batch is filtered in one pass over blocks, so the peak is the
        # two batches' normal columns plus one block's temporaries: about
        # 9.8 MB, where solving whole batches peaked at 28.8 MB.
        tracemalloc.start()
        try:
            cli.draw_reported_equilibria(1730, 200)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16e6

    @pytest.mark.parametrize("consumed", [0, 1, 2, 3, 4])
    def test_philox_ahead_yields_the_words_a_draw_would(self, consumed):
        # From the seed state and from every buffer position, a generator
        # placed 4k words ahead continues with the words after 4k drawn ones.
        drawn = np.random.Philox(np.random.SeedSequence(1730))
        drawn.random_raw(consumed)
        state = drawn.state
        for k in (1, 2, 50_000):
            ahead = cli._philox_ahead(state, 4 * k).bit_generator
            drawn.state = state
            drawn.random_raw(4 * k)
            assert np.array_equal(ahead.random_raw(9), drawn.random_raw(9)), k

    @pytest.mark.parametrize("count, max_draws, started", [
        (0, 20_000_000, 0), (200, 200_000, 0), (200, 400_000, 1), (200, 20_000_000, 12)])
    def test_a_helper_starts_only_for_a_batch_that_may_run(self, monkeypatch, count,
                                                          max_draws, started):
        # Seed 1730 keeps its 200th game in its 12th and last batch, whose
        # helper has by then drawn normals for a 13th.
        starts = []
        start = cli._Helper.start
        monkeypatch.setattr(cli._Helper, "start",
                            lambda helper: (starts.append(helper), start(helper)))
        cli.draw_reported_equilibria(1730, count, max_draws)
        assert len(starts) == started

    @pytest.mark.parametrize("count", [200, 17])   # 17 stops inside the first batch
    def test_no_helper_outlives_the_call(self, count):
        before = threading.active_count()
        cli.draw_reported_equilibria(1730, count)
        assert threading.active_count() == before

    def test_a_helper_failure_is_raised_by_the_caller(self, monkeypatch):
        draw = cli._draw_normals

        def failing(rng, out, bands):
            if threading.current_thread() is not threading.main_thread():
                raise RuntimeError("helper failed")
            draw(rng, out, bands)

        monkeypatch.setattr(cli, "_draw_normals", failing)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="helper failed"):
            cli.draw_reported_equilibria(1730, 200)
        assert threading.active_count() == before


class TestGoldenFiles:
    # frozen outputs pin the CSV schemas and the sampled numbers themselves
    GOLDEN = os.path.join(os.path.dirname(__file__), "data")

    def test_scenario_golden(self, tmp_path):
        out = tmp_path / "sc.csv"
        cli.main(["scenario", "--seed", "11", "--n-providers", "2",
                  "--out", str(out)])
        golden = os.path.join(self.GOLDEN, "golden_scenario_seed11_n2.csv")
        with open(golden, "rb") as fh:
            assert out.read_bytes() == fh.read()

    def test_sweep_golden(self, tmp_path):
        out = tmp_path / "sw.csv"
        cli.main(["sweep", "--axis", "k1", "--seed", "11", "--n-providers", "2",
                  "--scenario", "pay_as_you_go", "--out", str(out)])
        golden = os.path.join(self.GOLDEN, "golden_sweep_k1_seed11_n2.csv")
        with open(golden, "rb") as fh:
            assert out.read_bytes() == fh.read()


class TestConfigLoading:
    def test_rejects_non_mapping(self, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("- 1\n- 2\n", encoding="utf-8")
        with pytest.raises(cli.ConfigError):
            cli.load_config(str(cfg))

    def test_missing_file(self):
        with pytest.raises(cli.ConfigError):
            cli.load_config("/nonexistent/config.yaml")

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("seed: 1\nn_providers: 3\n", encoding="utf-8")
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        cli.main(["scenario", "--config", str(cfg), "--seed", "2",
                  "--scenario", "pay_as_you_go", "--out", str(out_a)])
        cli.main(["scenario", "--seed", "2", "--n-providers", "3",
                  "--scenario", "pay_as_you_go", "--out", str(out_b)])
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_full_precision_roundtrip(self, tmp_path):
        out = tmp_path / "eq.csv"
        cli.main(["equilibrium", *FEASIBLE_FLAGS, "--out", str(out)])
        _, [row] = read_csv(out)
        # values parse back to the exact doubles that were written
        assert float(row["alpha"]) == FEASIBLE_PARAMS.alpha
        assert float(row["f_c"]) == FEASIBLE_PARAMS.f_c

    @pytest.mark.parametrize("command, setting", [
        ("scenario --seed -1", ""),
        ("sweep --preset fig4 --seed -1", ""),
        ("verify --seed -1", ""),
        ("scenario", "seed: 1.5"),
        ("scenario", "n_providers: 2.5"),
        ("scenario", "n_providers: true"),   # YAML's true would run one provider
        ("verify", "draws: 2.5"),
        ("verify", "draws: true"),
    ])
    def test_bad_integer_setting_exit_1(self, tmp_path, subprocess_env, command, setting):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(setting + "\n", encoding="utf-8")
        out = [] if command.startswith("verify") else ["--out", str(tmp_path / "x.csv")]
        proc = subprocess.run(
            [sys.executable, "-m", "tsm.cli", *command.split(), "--config", str(cfg), *out],
            env=subprocess_env(), capture_output=True, text=True, cwd=str(tmp_path),
            timeout=120)
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ")
        assert "[PASS]" not in proc.stdout

    @pytest.mark.parametrize("command, setting, line", [
        ("sweep", "preset: fig99", "unknown preset 'fig99'"),
        ("scenario --n-providers 2", "mode: sideways", "unknown mode 'sideways'"),
        ("sweep", "", "sweep needs --axis or --preset "
                      "(axes: alpha_beta_product, phi, gamma, k1)"),
        ("equilibrium --alpha 0.5 --beta 1.0 --gamma 0.3 --k1 0.5 --f_c 1.0", "",
         "missing required parameter(s): phi"),
        ("sweep --axis k1 --n-providers 2", "grid: [0.5, 0.2]",
         "invalid sweep: axis grid must be strictly increasing"),
        # an empty list is not the default levels
        ("sweep --axis k1 --n-providers 2", "phi_levels: []",
         "invalid sweep: phi levels must be non-empty"),
        # YAML keys that are not text
        ("scenario --n-providers 2", "1: 2", "unknown config key(s): 1"),
        ("scenario --n-providers 2", "null: 4", "unknown config key(s): None"),
        ("equilibrium --alpha 0.5 --beta 1.0 --gamma 0.3 --phi 2.0 --k1 0.5 --f_c 1.0",
         "", UNWRITABLE),
        ("scenario --n-providers 2", "", UNWRITABLE),
        ("sweep --axis k1 --n-providers 2", "", UNWRITABLE),
        # config values of the wrong type
        ("sweep --axis k1 --n-providers 2", "scenarios: 5",
         "scenarios must be a list of names, got 5"),
        ("sweep --axis k1 --n-providers 2", "grid: 5",
         "invalid sweep: grid must be a list of finite numbers, got 5"),
        ("sweep --axis k1 --n-providers 2", "phi_levels: 5",
         "invalid sweep: phi_levels must be a list of finite numbers, got 5"),
        # YAML's true would run as a phi level of 1.0
        ("sweep --axis k1 --n-providers 2", "phi_levels: [true]",
         "invalid sweep: phi_levels must be a list of finite numbers, got [True]"),
        # integers past the largest float are not finite numbers
        pytest.param(
            "scenario --n-providers 2", f"price_mean: {HUGE}",
            f"invalid population settings: price_mean must be a finite number, got {HUGE}",
            id="huge-price_mean"),
        pytest.param(
            "sweep --axis k1 --n-providers 2", f"grid: [{HUGE}]",
            f"invalid sweep: grid must be a list of finite numbers, got [{HUGE}]",
            id="huge-grid"),
        # a preset fixes its axis
        ("sweep --preset fig8 --axis k1 --n-providers 2", "",
         "axis must be 'alpha_beta_product' for preset fig8, got 'k1'"),
        ("sweep --preset fig4 --n-providers 2", "axis: k1",
         "axis must be 'alpha_beta_product' for preset fig4, got 'k1'"),
        ("sweep --n-providers 2", "preset: [a]", "unknown preset ['a']"),
        ("scenario --n-providers 2", "scenarios: 5",
         "scenarios must be a list of names, got 5"),
        # open() would take 5 as a file descriptor
        ("scenario --n-providers 2", "out: 5", "out must be a file path, got 5"),
        # YAML 1.1 exponent floats without a dot or an exponent sign are text
        ("scenario --n-providers 2", "price_sd: 5e-1",
         "invalid population settings: price_sd must be a finite number, got '5e-1' "
         "(YAML 1.1 reads 5e-1 as text; write 5.0e-1)"),
        ("equilibrium --alpha 0.5 --beta 1.0 --gamma 0.3 --phi 2.0 --k1 0.5", "f_c: 1e-1",
         "invalid parameters: f_c must be a finite number, got '1e-1' "
         "(YAML 1.1 reads 1e-1 as text; write 1.0e-1)"),
        # one past each size cap, refused before anything is drawn or allocated
        ("verify --grid-n 32769", "", "grid_n must be an integer in [100, 32768], got 32769"),
        ("verify --pairs 18000001", "",
         "pairs must be an integer in [1, 18000000], got 18000001"),
        ("scenario --n-providers 370001", "",
         "invalid population settings: n_providers must be an integer in [1, 370000], "
         "got 370001"),
        ("sweep --axis k1", "n_providers: 370001",
         "invalid population settings: n_providers must be an integer in [1, 370000], "
         "got 370001"),
        # one provider past 65 x 370,000 provider-cells: 66 cells on the phi
        # axis, and 8 gamma values times 9 phi levels
        ("sweep --axis phi --n-providers 364394", f"grid: {[0.05 * i for i in range(66)]}",
         "invalid sweep: 66 cells x 364394 providers exceed 24050000 provider-cells "
         "(65 x 370000)"),
        ("sweep --axis gamma --n-providers 334028", f"phi_levels: {[0.5 * i for i in range(9)]}",
         "invalid sweep: 72 cells x 334028 providers exceed 24050000 provider-cells "
         "(65 x 370000)"),
    ])
    def test_input_error_line(self, tmp_path, subprocess_env, command, setting, line):
        # Each input error ends the run with one exact stderr line and exit 1.
        (tmp_path / "cfg.yaml").write_text(setting + "\n", encoding="utf-8")
        out = [] if setting.startswith("out:") or command.startswith("verify") else [
            "--out", "nodir/x.csv" if line == UNWRITABLE else "x.csv"]
        proc = subprocess.run(
            [sys.executable, "-m", "tsm.cli", *command.split(), "--config", "cfg.yaml",
             *out],
            env=subprocess_env(), capture_output=True, text=True, cwd=str(tmp_path),
            timeout=120)
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr == f"error: {line}\n"

    @pytest.mark.parametrize("argv", [
        ["--preset", "fig4", "--n-providers", "370000"],
        ["--axis", "phi", "--n-providers", "364393", "--config", "cfg.yaml"],
    ])
    def test_sweep_at_the_cell_cap_runs(self, tmp_path, monkeypatch, argv):
        # 65 cells x 370,000 providers, and 66 x 364,393 just under it, reach
        # run_sweep, stubbed here so that nothing is sampled.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.yaml").write_text(f"grid: {[0.05 * i for i in range(66)]}\n",
                                           encoding="utf-8")

        def sentinel(spec):
            raise LookupError(spec.population.n_providers)

        monkeypatch.setattr(population, "run_sweep", sentinel)
        with pytest.raises(LookupError):
            cli.main(["sweep", *argv])

    @pytest.mark.parametrize("key", sorted(cli.SETTINGS))
    def test_wrong_kind_error_line(self, tmp_path, capsys, monkeypatch, key):
        # A config value of the wrong kind, checked in process for every setting
        # on a command that reads it, stops the run with one `error:` line.
        monkeypatch.chdir(tmp_path)   # where a default output path would land
        setting = cli.SETTINGS[key]
        wrong = {"int": "2.5", "float": "abc", "path": "5", "choice": "[a]", "names": "5",
                 "numbers": "[true]"}[setting.kind]
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(f"{key}: {wrong}\n", encoding="utf-8")
        command = setting.commands[0] if setting.commands else "sweep"
        assert cli.main([command, "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        [line] = captured.err.splitlines()
        assert line.startswith("error: ") and key in line, line
        assert "Traceback" not in captured.err and captured.out == ""
        assert not list(tmp_path.glob("*.csv"))

    def test_flags_beat_every_config_key(self, tmp_path, capsys):
        # --scenario fills `scenarios`, so it beats the config's list as
        # --seed, --mode and --n-providers beat theirs.
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("scenarios: [two_sided]\nseed: 1\nmode: equilibrium\n"
                       "n_providers: 3\n", encoding="utf-8")
        flags = ["--scenario", "fifty_fifty", "--seed", "2", "--mode", "declared-price",
                 "--n-providers", "4"]
        for command in (["scenario"], ["sweep", "--preset", "fig8"]):
            a, b = tmp_path / "a.csv", tmp_path / "b.csv"
            assert cli.main([*command, "--config", str(cfg), *flags, "--out", str(a)]) == 0
            with_config = capsys.readouterr().out.replace(str(a), "OUT")
            assert cli.main([*command, *flags, "--out", str(b)]) == 0
            flags_only = capsys.readouterr().out.replace(str(b), "OUT")
            assert with_config == flags_only
            assert "seed=2" in flags_only and "mode=declared-price" in flags_only
            assert "scenarios=fifty_fifty " in flags_only
            assert a.read_bytes() == b.read_bytes()
        _, rows = read_csv(a)
        assert {r["scenario"] for r in rows} == {"fifty_fifty"}
        # There is no `format` key: every output is CSV.
        cfg.write_text("format: csv\n", encoding="utf-8")
        assert cli.main(["scenario", "--config", str(cfg), "--n-providers", "2",
                         "--out", str(tmp_path / "sc.csv")]) == 1
        assert capsys.readouterr().err == "error: unknown config key(s): format\n"

    @pytest.mark.parametrize("setting", [
        "alpha: abc",
        "beta: true",   # YAML's true would run as beta=1.0
        "phi: .inf",
    ])
    def test_bad_parameter_value_exit_1(self, tmp_path, subprocess_env, setting):
        key = setting.split(":")[0]
        lines = [f"{k}: {getattr(FEASIBLE_PARAMS, k)!r}"
                 for k in ("alpha", "beta", "gamma", "psi", "phi", "k1", "f_c") if k != key]
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("\n".join(lines + [setting]) + "\n", encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "tsm.cli", "equilibrium", "--config", str(cfg),
             "--out", str(tmp_path / "eq.csv")],
            env=subprocess_env(), capture_output=True, text=True, cwd=str(tmp_path),
            timeout=120)
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith(f"error: invalid parameters: {key} must be")
        assert not (tmp_path / "eq.csv").exists()


class TestParser:
    # `main` builds the flags of the command that argv names, and no others.
    @pytest.mark.parametrize("argv", [
        ["equilibrium", *FEASIBLE_FLAGS, "--out", "eq.csv", "--config", "c.yaml"],
        ["scenario", "--mode", "declared-price", "--scenario", "two_sided,pay_as_you_go",
         "--n-providers", "20", "--seed", "3", "--phi", "2.0", "--psi", "0.2"],
        ["sweep", "--preset", "fig4", "--n-providers", "300", "--seed", "7", "--out", "f.csv"],
        ["sweep", "--axis", "k1", "--mode", "equilibrium", "--config", "c.yaml"],
        ["verify", "--draws", "4", "--grid-n", "400", "--pairs", "40", "--seed", "3"],
    ], ids=lambda argv: " ".join(argv[:3]))
    def test_one_command_parses_as_the_full_parser(self, argv):
        assert cli.build_parser(argv[0]).parse_args(argv) == cli.build_parser().parse_args(argv)

    @pytest.mark.parametrize("command", sorted(cli.COMMANDS))
    def test_one_command_rejects_other_commands_flags(self, command, capsys):
        other = "--draws" if command != cli.VF else "--out"
        for parser in (cli.build_parser(command), cli.build_parser()):
            with pytest.raises(SystemExit) as exc:
                parser.parse_args([command, other, "4"])
            assert exc.value.code == 2
            assert f"unrecognized arguments: {other} 4" in capsys.readouterr().err

    def test_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out == cli.build_parser().format_help()
        assert "{equilibrium,scenario,sweep,verify}" in out
        for command, (_, help_text) in cli.COMMANDS.items():
            assert re.search(rf"^ +{command} +{help_text}$", out, re.M), command

    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["bogus", "--seed", "1"])
        assert exc.value.code == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err
