"""Command-line entry point.

Four subcommands: `equilibrium` solves a single parameterized game,
`scenario` runs the business models over a sampled population, `sweep`
produces sensitivity series (with figure presets), and `verify` runs the
numerical verification suite (brute-force oracle agreement, derivative
checks, curve consistency) over random draws.

Configuration comes from an optional YAML file of flat keys plus flags;
flags win. Unknown config keys are a hard error. All outputs are UTF-8 CSV
with LF line endings and full-precision (round-trip) floats.

Exit codes: 0 success, 1 invalid input, 2 infeasible game, 3 verification
failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from dataclasses import dataclass

import numpy as np

from . import core, equilibrium, population, scenarios
from .core import DomainError, MarketParams, MarketState
from .population import (
    AXES,
    AXIS_ALPHA_BETA,
    AXIS_GAMMA,
    AXIS_K1,
    AXIS_PHI,
    PopulationSpec,
    SweepSpec,
)
from .scenarios import MODES, SCENARIOS, TWO_SIDED

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_INFEASIBLE = 2
EXIT_VERIFY_FAILED = 3


class ConfigError(ValueError):
    """Bad configuration file or flag combination."""


PARAM_KEYS = ("alpha", "beta", "gamma", "psi", "phi", "k1", "k2", "f_c", "f_s", "p_s")
POPULATION_KEYS = (
    "n_providers", "price_mean", "price_sd", "price_min", "price_max",
    "alpha_mean", "alpha_sd", "alpha_min", "alpha_max", "gamma_min", "gamma_max",
    "psi_min", "psi_max", "k1_min", "k1_max", "f_c_factor",
)
SWEEP_KEYS = ("axis", "grid", "phi_levels")
VERIFY_KEYS = ("draws", "grid_n", "pairs")
COMMON_KEYS = ("seed", "out", "format", "mode", "scenarios", "preset")
ALLOWED_CONFIG_KEYS = frozenset(
    PARAM_KEYS + POPULATION_KEYS + SWEEP_KEYS + VERIFY_KEYS + COMMON_KEYS
)

EQUILIBRIUM_COLUMNS = (
    "alpha", "beta", "gamma", "psi", "phi", "k1", "k2", "f_c", "f_s", "p_s",
    "feasible", "f1_price_positive", "f2_price_max", "f3_share_max",
    "share_roots_found", "price_star", "share_star", "demand", "supply",
    "provider_payoff", "cloud_payoff", "residual",
)
SCENARIO_COLUMNS = (
    "provider_id", "scenario", "alpha", "beta", "gamma", "psi", "phi", "k1",
    "f_c", "price", "share", "demand", "supply", "provider_payoff",
    "cloud_payoff", "feasible",
)
SWEEP_COLUMNS = (
    "axis", "axis_value", "scenario", "phi_level", "mean_cloud_payoff",
    "mean_provider_payoff", "mean_demand", "mean_supply", "mean_share",
    "feasible_count",
)

# preset -> (axis, scenario filter, the column the figure plots)
PRESETS = {
    "fig4": (AXIS_ALPHA_BETA, SCENARIOS, "mean_cloud_payoff"),
    "fig5": (AXIS_ALPHA_BETA, SCENARIOS, "mean_provider_payoff"),
    "fig6": (AXIS_ALPHA_BETA, SCENARIOS, "mean_demand"),
    "fig7": (AXIS_ALPHA_BETA, SCENARIOS, "mean_supply"),
    "fig8": (AXIS_ALPHA_BETA, (TWO_SIDED,), "mean_share"),
    "fig9": (AXIS_PHI, SCENARIOS, "mean_cloud_payoff"),
    "fig10": (AXIS_PHI, SCENARIOS, "mean_provider_payoff"),
    "fig11": (AXIS_PHI, SCENARIOS, "mean_demand"),
    "fig12": (AXIS_GAMMA, SCENARIOS, "mean_cloud_payoff"),
    "fig13": (AXIS_GAMMA, SCENARIOS, "mean_provider_payoff"),
    "fig14": (AXIS_GAMMA, SCENARIOS, "mean_demand"),
    "fig15": (AXIS_K1, SCENARIOS, "mean_cloud_payoff"),
}


def _format_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(path: str, header: tuple[str, ...], rows) -> None:
    """Write the header, then each row as it comes; `rows` may be a generator."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(map(_format_value, row)) + "\n" for row in rows)


def load_config(path: str | None) -> dict:
    if path is None:
        return {}
    import yaml   # only a run with a config file pays for the import

    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}")
    if data is None:
        return {}
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must be a mapping of keys to values")
    unknown = sorted(set(data) - ALLOWED_CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
    return data


def _setting(args, config: dict, key: str, default=None):
    value = getattr(args, key.replace("-", "_"), None)
    if value is not None:
        return value
    if key in config and config[key] is not None:
        return config[key]
    return default


def _population_spec(args, config: dict) -> PopulationSpec:
    fields = {}
    for key in POPULATION_KEYS + ("seed", "phi", "k2", "f_s", "p_s"):
        value = _setting(args, config, key)
        if value is not None:
            fields[key] = value
    # psi=None in the config selects uniform sampling; distinguish "absent".
    if getattr(args, "psi", None) is not None:
        fields["psi"] = args.psi
    elif "psi" in config:
        fields["psi"] = config["psi"]
    try:
        return PopulationSpec(**fields)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid population settings: {exc}")


def _scenario_list(args, config: dict) -> tuple[str, ...]:
    raw = _setting(args, config, "scenarios") or _setting(args, config, "scenario")
    if raw is None:
        return SCENARIOS
    if isinstance(raw, str):
        raw = [s.strip() for s in raw.split(",") if s.strip()]
    names = tuple(raw)
    for name in names:
        if name not in SCENARIOS:
            raise ConfigError(f"unknown scenario {name!r}; expected one of {SCENARIOS}")
    if not names:
        raise ConfigError("scenario list must be non-empty")
    return names


# ---------------------------------------------------------------------------
# equilibrium
# ---------------------------------------------------------------------------


def cmd_equilibrium(args, config: dict) -> int:
    values = {}
    for key in PARAM_KEYS:
        value = _setting(args, config, key)
        if value is not None:
            values[key] = float(value)
    values.setdefault("psi", 0.1)
    missing = [k for k in ("alpha", "beta", "gamma", "phi", "k1", "f_c")
               if k not in values]
    if missing:
        print(f"error: missing required parameter(s): {', '.join(missing)}",
              file=sys.stderr)
        return EXIT_INVALID
    try:
        params = MarketParams(**values)
    except DomainError as exc:
        print(f"error: invalid parameters: {exc}", file=sys.stderr)
        return EXIT_INVALID

    result = equilibrium.stackelberg_solve(params)
    row = [getattr(params, k) for k in PARAM_KEYS]
    row += [result.feasible, result.feasibility.f1_price_positive,
            result.feasibility.f2_price_max, result.feasibility.f3_share_max,
            result.share_roots_found, result.price_star, result.share_star,
            result.demand, result.supply, result.provider_payoff,
            result.cloud_payoff, result.residual]

    out = _setting(args, config, "out", "equilibrium.csv")
    try:
        write_csv(out, EQUILIBRIUM_COLUMNS, [row])
    except OSError as exc:
        print(f"error: cannot write {out}: {exc}", file=sys.stderr)
        return EXIT_INVALID

    print(f"# command=equilibrium out={out}")
    for name, value in zip(EQUILIBRIUM_COLUMNS, row):
        print(f"{name}={_format_value(value)}")
    return EXIT_OK if result.feasible else EXIT_INFEASIBLE


# ---------------------------------------------------------------------------
# scenario
# ---------------------------------------------------------------------------


def cmd_scenario(args, config: dict) -> int:
    spec = _population_spec(args, config)
    names = sorted(_scenario_list(args, config))
    mode = _setting(args, config, "mode", scenarios.MODE_EQUILIBRIUM)
    if mode not in MODES:
        print(f"error: unknown mode {mode!r}", file=sys.stderr)
        return EXIT_INVALID

    table, price = population.sample_table(spec)
    outcomes = {name: scenarios.scenario_columns(name, table, price, mode)
                for name in names}

    def rows():
        for name, out in outcomes.items():
            t = out.params
            params = zip(t.alpha.tolist(), t.beta.tolist(), t.gamma.tolist(),
                         t.psi.tolist(), t.phi.tolist(), t.k1.tolist(), t.f_c.tolist())
            for i, (p, cells) in enumerate(zip(params, out.rows(name))):
                yield (i, name, *p, *cells)

    out_path = _setting(args, config, "out", "scenario.csv")
    try:
        write_csv(out_path, SCENARIO_COLUMNS, rows())
    except OSError as exc:
        print(f"error: cannot write {out_path}: {exc}", file=sys.stderr)
        return EXIT_INVALID

    print(f"# command=scenario seed={spec.seed} n_providers={spec.n_providers} "
          f"mode={mode} scenarios={','.join(names)} out={out_path}")
    for name, out in outcomes.items():
        print(f"{name}: feasible {int(out.feasible.sum())}/{len(price)}"
              f" mean_cloud_payoff={_format_value(out.feasible_mean('cloud_payoff'))}"
              f" mean_provider_payoff="
              f"{_format_value(out.feasible_mean('provider_payoff'))}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def cmd_sweep(args, config: dict) -> int:
    preset_name = _setting(args, config, "preset")
    scenario_names = _scenario_list(args, config)
    axis = _setting(args, config, "axis")
    plot_column = None
    if preset_name is not None:
        if preset_name not in PRESETS:
            print(f"error: unknown preset {preset_name!r}", file=sys.stderr)
            return EXIT_INVALID
        axis, preset_scenarios, plot_column = PRESETS[preset_name]
        if _setting(args, config, "scenarios") is None and \
                getattr(args, "scenario", None) is None:
            scenario_names = preset_scenarios
    if axis is None:
        print(f"error: sweep needs --axis or --preset (axes: {', '.join(AXES)})",
              file=sys.stderr)
        return EXIT_INVALID

    pop_spec = _population_spec(args, config)
    grid = _setting(args, config, "grid")
    phi_levels = _setting(args, config, "phi_levels")
    mode = _setting(args, config, "mode", scenarios.MODE_DECLARED_PRICE)
    try:
        spec = SweepSpec(
            axis=axis,
            grid=tuple(grid) if grid else (),
            phi_levels=tuple(phi_levels) if phi_levels else population.DEFAULT_PHI_LEVELS,
            scenarios=tuple(scenario_names),
            population=pop_spec,
            mode=mode,
        )
    except ValueError as exc:
        print(f"error: invalid sweep: {exc}", file=sys.stderr)
        return EXIT_INVALID

    series = population.run_sweep(spec)
    rows = [
        (s.axis, s.axis_value, s.scenario, s.phi_level, s.mean_cloud_payoff,
         s.mean_provider_payoff, s.mean_demand, s.mean_supply, s.mean_share,
         s.feasible_count)
        for s in series
    ]
    default_out = f"{preset_name}.csv" if preset_name else "sweep.csv"
    out = _setting(args, config, "out", default_out)
    try:
        write_csv(out, SWEEP_COLUMNS, rows)
    except OSError as exc:
        print(f"error: cannot write {out}: {exc}", file=sys.stderr)
        return EXIT_INVALID

    meta = (f"# command=sweep axis={spec.axis} seed={pop_spec.seed} mode={spec.mode} "
            f"scenarios={','.join(spec.scenarios)} cells={len(rows)} "
            f"aggregate=mean-over-feasible out={out}")
    if preset_name:
        meta += f" preset={preset_name} plot_column={plot_column}"
    print(meta)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


@dataclass
class PropertyResult:
    name: str
    passed: bool
    detail: str


def sample_table_params(rng: np.random.Generator, n: int) -> list[MarketParams]:
    """Vectorized draw of n parameter sets from the simulation-setup ranges."""
    out = []
    while len(out) < n:
        m = max(256, 2 * (n - len(out)))
        price = rng.normal(1.7, 0.5, m)
        alpha = rng.normal(0.38, 0.1, m)
        ok = (price >= 0.2) & (price <= 3.2) & (alpha >= 0.1) & (alpha <= 0.7)
        price, alpha = price[ok], alpha[ok]
        beta = rng.uniform(0.0, 1.0, price.size) / alpha
        gamma = rng.uniform(0.1, 0.35, price.size)
        phi = rng.uniform(0.0, 5.0, price.size)
        k1 = rng.uniform(0.1, 0.9, price.size)
        keep = (alpha * beta > 0.0) & (alpha * beta <= 0.999) & (phi > 0.0)
        out += core.ParamTable.from_columns(
            alpha=alpha[keep], beta=beta[keep], gamma=gamma[keep], psi=0.1,
            phi=phi[keep], k1=k1[keep], f_c=0.66 * price[keep],
        ).take(slice(n - len(out))).rows()
    return out


def draw_reported_equilibria(seed: int, count: int, max_draws: int = 20_000_000):
    """Sample parameter draws until `count` of them yield a reported equilibrium.

    Each batch's draws inside the simulation-setup ranges are solved as one
    parameter table; its rows with a reported equilibrium are kept in draw
    order. Returns (cases, n_drawn) where cases is a list of
    (params, EquilibriumResult).
    """
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    cases = []
    drawn = 0
    while len(cases) < count and drawn < max_draws:
        m = 200_000
        drawn += m
        price = rng.normal(1.7, 0.5, m)
        alpha = rng.normal(0.38, 0.1, m)
        beta = rng.uniform(0.0, 1.0, m) / np.clip(alpha, 1e-9, None)
        gamma = rng.uniform(0.1, 0.35, m)
        phi = rng.uniform(0.0, 5.0, m)
        k1 = rng.uniform(0.1, 0.9, m)
        ok = ((price >= 0.2) & (price <= 3.2) & (alpha >= 0.1) & (alpha <= 0.7)
              & (alpha * beta > 0.0) & (alpha * beta <= 0.999) & (phi > 0.0))
        table = core.ParamTable.from_columns(
            alpha=alpha[ok], beta=beta[ok], gamma=gamma[ok], psi=0.1, phi=phi[ok],
            k1=k1[ok], f_c=0.66 * price[ok])
        del price, alpha, beta, gamma, phi, k1, ok   # bounds the solve's peak memory
        cases += equilibrium._reported_rows(table)[:count - len(cases)]
    return cases, drawn


def run_oracle_comparison(cases, grid_n: int):
    """(|chi* - chi_oracle|, |P* - P_oracle|/P*) for each reported equilibrium."""
    oracle = equilibrium.oracle_equilibrium(
        core.ParamTable.from_params([params for params, _ in cases]), grid_n=grid_n)
    share = np.array([res.share_star for _, res in cases])
    price = np.array([res.price_star for _, res in cases])
    return list(zip(np.abs(share - oracle.share).tolist(),
                    (np.abs(price - oracle.price) / price).tolist()))


def verify_properties(seed: int, draws: int, grid_n: int,
                      pairs: int = 2000) -> list[PropertyResult]:
    """The numerical verification suite behind `tsm verify`."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    results = []

    # Reduced forms solve the primitive curves.
    worst = 0.0
    for params in sample_table_params(rng, pairs):
        price = float(rng.uniform(0.2, 3.2))
        share = float(rng.uniform(0.001, 0.999))
        c = core.derive_coefficients(params)
        log_dc = core._log_demand_reduced(np.log(price), np.log(share), params, c)
        log_ds = core._log_supply_reduced(np.log(price), np.log(share), params, c)
        eq1 = core._log_demand_primitive(np.log(price), log_ds, params)
        eq2 = core._log_supply_primitive(np.log(share), np.log(price), log_dc, params)
        worst = max(worst, abs(float(eq1 - log_dc)), abs(float(eq2 - log_ds)))
    results.append(PropertyResult(
        "fixed_point_consistency", worst <= 1e-9,
        f"max log-relative defect {worst:.3e} over {pairs} pairs (tol 1e-9)"))

    # Reported equilibria: stationarity, curvature, oracle agreement.
    cases, drawn = draw_reported_equilibria(seed + 1, draws)
    if not cases:
        results.append(PropertyResult(
            "feasible_region", False,
            f"region empty: no reported equilibrium in {drawn} draws"))
        return results

    worst_foc = 0.0
    soc_fail = 0
    for params, res in cases:
        at = MarketState(price=res.price_star, share=res.share_star,
                         demand=res.demand, supply=res.supply)
        foc_p, foc_s = equilibrium.first_order_residuals(params, at)
        worst_foc = max(worst_foc, foc_p, foc_s)
        soc = equilibrium.second_order_check(params, at)
        if not (soc.provider_soc_negative and soc.cloud_soc_negative
                and soc.provider_agreement and soc.cloud_agreement):
            soc_fail += 1
    results.append(PropertyResult(
        "first_order_conditions", worst_foc <= 1e-6,
        f"max relative FOC {worst_foc:.3e} over {len(cases)} equilibria (tol 1e-6)"))
    results.append(PropertyResult(
        "second_order_conditions", soc_fail == 0,
        f"{len(cases) - soc_fail}/{len(cases)} equilibria pass curvature checks"))

    tol = 2.0 / grid_n
    diffs = run_oracle_comparison(cases, grid_n)
    bad = sum(1 for d_chi, d_price in diffs if d_chi > tol or d_price > tol)
    worst_chi = max(d for d, _ in diffs)
    worst_price = max(d for _, d in diffs)
    results.append(PropertyResult(
        "oracle_agreement", bad == 0,
        f"max |dchi| {worst_chi:.3e}, max |dP|/P {worst_price:.3e} over "
        f"{len(diffs)} equilibria (tol {tol:.1e})"))

    # Pay-as-you-go rental optimum satisfies its own first-order condition.
    worst_payg = 0.0
    for params in sample_table_params(rng, min(500, pairs)):
        price = float(rng.uniform(0.2, 3.2))
        if price <= params.f_c:
            continue
        supply = scenarios.payg_supply(price, params)
        h = 1e-6 * supply

        def payoff(ds):
            demand = core.consumer_demand_primitive(price, ds, params)
            return (price - params.f_c) * demand - params.p_s * ds

        slope = (payoff(supply + h) - payoff(supply - h)) / (2.0 * h)
        scale = max(params.p_s * supply,
                    (price - params.f_c) * core.consumer_demand_primitive(
                        price, supply, params))
        worst_payg = max(worst_payg, abs(slope) * supply / scale)
    results.append(PropertyResult(
        "payg_rental_foc", worst_payg <= 1e-6,
        f"max relative rental FOC {worst_payg:.3e} (tol 1e-6)"))
    return results


def cmd_verify(args, config: dict) -> int:
    draws = int(_setting(args, config, "draws", 200))
    grid_n = int(_setting(args, config, "grid_n", 2000))
    pairs = int(_setting(args, config, "pairs", 2000))
    seed = int(_setting(args, config, "seed", 1729))
    for name, value in (("draws", draws), ("pairs", pairs)):
        if value < 1:
            print(f"error: --{name} must be >= 1", file=sys.stderr)
            return EXIT_INVALID
    print(f"# command=verify seed={seed} draws={draws} grid_n={grid_n} pairs={pairs}")
    results = verify_properties(seed, draws, grid_n, pairs)
    all_ok = True
    for res in results:
        print(f"[{'PASS' if res.passed else 'FAIL'}] {res.name}: {res.detail}")
        all_ok &= res.passed
    return EXIT_OK if all_ok else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tsm",
        description="Two-sided cloud data-market simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="YAML config file (flags override it)")
        p.add_argument("--seed", type=int, help="population / draw seed")
        p.add_argument("--out", help="output CSV path")

    p_eq = sub.add_parser("equilibrium", help="solve one parameterized game")
    common(p_eq)
    for key in PARAM_KEYS:
        p_eq.add_argument(f"--{key}", type=float, dest=key)

    p_sc = sub.add_parser("scenario", help="run business models over a population")
    common(p_sc)
    p_sc.add_argument("--scenario", help="comma-separated scenario list")
    p_sc.add_argument("--mode", choices=MODES)
    p_sc.add_argument("--n-providers", type=int, dest="n_providers")
    p_sc.add_argument("--phi", type=float, dest="phi")
    p_sc.add_argument("--psi", type=float, dest="psi")

    p_sw = sub.add_parser("sweep", help="run a sensitivity sweep")
    common(p_sw)
    p_sw.add_argument("--axis", choices=AXES)
    p_sw.add_argument("--preset", choices=sorted(PRESETS))
    p_sw.add_argument("--scenario", help="comma-separated scenario list")
    p_sw.add_argument("--mode", choices=MODES)
    p_sw.add_argument("--n-providers", type=int, dest="n_providers")
    p_sw.add_argument("--psi", type=float, dest="psi")

    p_vf = sub.add_parser("verify", help="run the numerical verification suite")
    common(p_vf)
    p_vf.add_argument("--draws", type=int)
    p_vf.add_argument("--grid-n", type=int, dest="grid_n")
    p_vf.add_argument("--pairs", type=int)

    return parser


COMMANDS = {
    "equilibrium": cmd_equilibrium,
    "scenario": cmd_scenario,
    "sweep": cmd_sweep,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config)
        fmt = config.get("format", "csv")
        if fmt != "csv":
            raise ConfigError(f"unsupported output format {fmt!r}; only csv")
        return COMMANDS[args.command](args, config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except DomainError as exc:
        print(f"error: invalid parameters: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except population.SamplingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
