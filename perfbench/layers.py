"""Per-layer spans and counters, installed from outside the package.

Each public function of interest is wrapped, and the wrapper replaces the
original at every binding in every loaded `tsm` module (so both
`tsm.equilibrium.stackelberg_solve` and the copy `tsm.scenarios` imported by
name are traced). A span's self time is its duration minus the time of the
traced spans it encloses. `MarketParams.__post_init__` is counted but is not
a span: its time stays in its caller's self time, because construction is
part of the parameter override that ROADMAP item 3 targets.
"""

from __future__ import annotations

import os
import sys
from collections import defaultdict

SPANS = (
    ("tsm.population", "sample_providers"),
    ("tsm.population", "run_sweep"),
    ("tsm.scenarios", "run_two_sided"),
    ("tsm.scenarios", "run_fifty_fifty"),
    ("tsm.scenarios", "run_pay_as_you_go"),
    ("tsm.equilibrium", "stackelberg_solve"),
    ("tsm.equilibrium", "solve_share"),
    ("tsm.equilibrium", "oracle_equilibrium"),
    ("tsm.equilibrium", "first_order_residuals"),
    ("tsm.equilibrium", "second_order_check"),
    ("tsm.cli", "write_csv"),
    ("tsm.cli", "draw_reported_equilibria"),
    ("tsm.cli", "verify_properties"),
)
SCENARIO_RUNNERS = ("run_two_sided", "run_fifty_fifty", "run_pay_as_you_go")

# (name, unit) of every per-layer metric, in the order they are printed.
LAYER_METRICS = (
    ("population.sample_providers.s", "s"),
    ("population.run_sweep.self_s", "s"),
    ("population.run_sweep.cells", "count"),
    ("core.MarketParams.constructed", "count"),
    ("core.MarketParams.init_s", "s"),
    ("scenarios.run_two_sided.s", "s"),
    ("scenarios.run_two_sided.self_s", "s"),
    ("scenarios.run_fifty_fifty.s", "s"),
    ("scenarios.run_pay_as_you_go.s", "s"),
    ("scenarios.records", "count"),
    ("scenarios.feasible_frac", "ratio"),
    ("equilibrium.stackelberg_solve.calls", "count"),
    ("equilibrium.stackelberg_solve.s", "s"),
    ("equilibrium.solve_share.calls", "count"),
    ("equilibrium.solve_share.s", "s"),
    ("equilibrium.feasible_frac", "ratio"),
    ("equilibrium.oracle_equilibrium.calls", "count"),
    ("equilibrium.oracle_equilibrium.s", "s"),
    ("equilibrium.derivative_checks.s", "s"),
    ("cli.write_csv.s", "s"),
    ("cli.write_csv.bytes", "bytes"),
    ("cli.draw_reported_equilibria.s", "s"),
    ("cli.draw_reported_equilibria.drawn", "count"),
    ("cli.verify.properties_failed", "count"),
)
COUNT_METRICS = tuple(name for name, unit in LAYER_METRICS if unit != "s")


def rebind(original, replacement) -> list:
    """Point every tsm-module binding of `original` at `replacement`."""
    patched = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "tsm" or mod_name.startswith("tsm.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                patched.append((mod, attr, original))
    return patched


class Tracer:
    """Spans and counters for one traced repetition; use as a context manager."""

    def __init__(self, clock):
        self.clock = clock
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self._stack: list[float] = []
        self._patched: list = []

    def __enter__(self):
        for mod_name, name in SPANS:
            original = getattr(sys.modules[mod_name], name)
            self._patched += rebind(original, self._span(name, original))
        from tsm.core import MarketParams
        original_init = MarketParams.__post_init__
        clock, counts, total = self.clock, self.counts, self.total

        def post_init(params):
            start = clock()
            original_init(params)
            total["MarketParams.__post_init__"] += clock() - start
            counts["MarketParams.constructed"] += 1

        MarketParams.__post_init__ = post_init
        self._patched.append((MarketParams, "__post_init__", original_init))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []
        return False

    def _span(self, name, fn):
        clock, stack = self.clock, self._stack

        def wrapper(*args, **kwargs):
            start = clock()
            stack.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += duration
                self.total[name] += duration
                self.self_time[name] += duration - children
                self.calls[name] += 1
            self._observe(name, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _observe(self, name, args, result) -> None:
        counts = self.counts
        if name in SCENARIO_RUNNERS:
            counts["records"] += len(result)
            counts["records_feasible"] += sum(1 for r in result if r.feasible)
        elif name == "stackelberg_solve":
            counts["solve_feasible"] += bool(result.feasible)
        elif name == "run_sweep":
            counts["cells"] += len(result)
        elif name == "write_csv":
            counts["csv_bytes"] += os.path.getsize(args[0])
        elif name == "draw_reported_equilibria":
            counts["drawn"] += result[1]
        elif name == "verify_properties":
            counts["properties_failed"] += sum(1 for r in result if not r.passed)

    def metrics(self, scale: float) -> dict[str, float]:
        """Per-layer metrics; times are multiplied by the repetition's
        calibration scale (calibrated / raw time)."""
        t, own, n, c = self.total, self.self_time, self.calls, self.counts

        def frac(part, whole):
            return part / whole if whole else 0.0

        return {
            "population.sample_providers.s": scale * t["sample_providers"],
            "population.run_sweep.self_s": scale * own["run_sweep"],
            "population.run_sweep.cells": c["cells"],
            "core.MarketParams.constructed": c["MarketParams.constructed"],
            "core.MarketParams.init_s": scale * t["MarketParams.__post_init__"],
            "scenarios.run_two_sided.s": scale * t["run_two_sided"],
            "scenarios.run_two_sided.self_s": scale * own["run_two_sided"],
            "scenarios.run_fifty_fifty.s": scale * t["run_fifty_fifty"],
            "scenarios.run_pay_as_you_go.s": scale * t["run_pay_as_you_go"],
            "scenarios.records": c["records"],
            "scenarios.feasible_frac": frac(c["records_feasible"], c["records"]),
            "equilibrium.stackelberg_solve.calls": n["stackelberg_solve"],
            "equilibrium.stackelberg_solve.s": scale * t["stackelberg_solve"],
            "equilibrium.solve_share.calls": n["solve_share"],
            "equilibrium.solve_share.s": scale * t["solve_share"],
            "equilibrium.feasible_frac": frac(c["solve_feasible"], n["stackelberg_solve"]),
            "equilibrium.oracle_equilibrium.calls": n["oracle_equilibrium"],
            "equilibrium.oracle_equilibrium.s": scale * t["oracle_equilibrium"],
            "equilibrium.derivative_checks.s": scale * (
                t["first_order_residuals"] + t["second_order_check"]),
            "cli.write_csv.s": scale * t["write_csv"],
            "cli.write_csv.bytes": c["csv_bytes"],
            "cli.draw_reported_equilibria.s": scale * t["draw_reported_equilibria"],
            "cli.draw_reported_equilibria.drawn": c["drawn"],
            "cli.verify.properties_failed": c["properties_failed"],
        }
