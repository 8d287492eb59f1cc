"""Command-line entry point.

Four subcommands: `equilibrium` solves a single parameterized game,
`scenario` runs the business models over a sampled population, `sweep`
produces sensitivity series (with figure presets), and `verify` runs the
numerical verification suite (brute-force oracle agreement, derivative
checks, curve consistency) over random draws.

Configuration comes from an optional YAML file of flat keys plus flags,
each stated once in `SETTINGS` (kind, flag, error prefix). `main` merges
them once into one settings dict (`_settings`), in which every flag given
wins over its config key (`--scenario` over `scenarios`), and each command
reads only that dict. A key of another command is checked for its kind and
otherwise ignored; unknown keys are a hard error. All outputs are UTF-8 CSV
with LF line endings and full-precision (round-trip) floats.

Exit codes: 0 success, 1 invalid input, 2 infeasible game, 3 verification
failure. Every input error is raised as `ConfigError` (or `DomainError`
for a parameter value) up to `main`, which prints its one `error:` line.
"""

from __future__ import annotations

import argparse
import sys
import threading
from dataclasses import MISSING, fields
from typing import NamedTuple

import numpy as np

from . import core, equilibrium, population, scenarios
from .core import DomainError, MarketParams
from .population import (
    AXES,
    AXIS_ALPHA_BETA,
    AXIS_GAMMA,
    AXIS_K1,
    AXIS_PHI,
    AXIS_RANGES,
    PopulationSpec,
    SweepSpec,
)
from .scenarios import MODE_EQUILIBRIUM, MODES, SCENARIOS, TWO_SIDED, Outcome

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_INFEASIBLE = 2
EXIT_VERIFY_FAILED = 3

# Rows per block of the scenario CSV: formatted cells never outgrow one block.
CSV_BLOCK_ROWS = 2048


class ConfigError(ValueError):
    """Bad configuration file or flag combination."""


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


class Setting(NamedTuple):
    """One config key: what its values must be, which commands take it as a
    flag and how that flag is spelled, and what its error line starts with."""

    kind: str       # int (from arg[0] to arg[1], None for no cap), float (finite), path,
                    # choice (of arg), names or numbers
    commands: tuple[str, ...] = ()
    flag: str | None = None
    prefix: str = ""
    arg: object = None


EQ, SC, SW, VF = "equilibrium", "scenario", "sweep", "verify"
PARAMS, POPULATION = "invalid parameters: ", "invalid population settings: "
SWEEP = "invalid sweep: "
PARAM_KEYS = tuple(f.name for f in fields(MarketParams))
_PARAM_FLAGS = {"phi": (EQ, SC), "psi": (EQ, SC, SW)}

MAX_PROVIDERS = 370_000
# A sweep's memory grows with its cells times its providers, so a custom grid
# is held to the 65 cells that the n_providers cap was measured on.
MAX_SWEEP_ROWS = 65 * MAX_PROVIDERS

# Every config key, in the order of the flags' help; --scenario fills `scenarios`.
SETTINGS = {
    "seed": Setting("int", (SC, SW, VF), "--seed", arg=(0, None)),
    "out": Setting("path", (EQ, SC, SW), "--out"),
    "scenarios": Setting("names", (SC, SW), "--scenario"),
    "mode": Setting("choice", (SC, SW), "--mode", arg=MODES),
    # Size caps hold a run's peak memory near 4 GiB, at the measured peak bytes per
    # row: 11.5 kB a provider (an equilibrium-mode sweep of the 65-cell
    # alpha_beta_product grid) and 232 B a verify pair; see README.
    "n_providers": Setting("int", (SC, SW), "--n-providers", POPULATION, (1, MAX_PROVIDERS)),
    "preset": Setting("choice", (SW,), "--preset", arg=sorted(PRESETS)),
    "axis": Setting("choice", (SW,), "--axis", SWEEP, AXES),
    "grid": Setting("numbers", prefix=SWEEP),
    "phi_levels": Setting("numbers", prefix=SWEEP),
    "draws": Setting("int", (VF,), "--draws", arg=(1, None)),
    # Past one oracle block, the fallback's block of one game grows with grid_n.
    "grid_n": Setting("int", (VF,), "--grid-n", arg=(equilibrium.ORACLE_MIN_GRID_N,
                                                     equilibrium.ORACLE_BLOCK_ROWS)),
    "pairs": Setting("int", (VF,), "--pairs", arg=(1, 18_000_000)),
    **{k: Setting("float", _PARAM_FLAGS.get(k, (EQ,)), f"--{k}", PARAMS) for k in PARAM_KEYS},
    # PopulationSpec's bands; alpha_beta_cap and max_attempts keep their defaults.
    **{f.name: Setting("float", prefix=POPULATION) for f in fields(PopulationSpec)
       if isinstance(f.default, float) and f.name not in (*PARAM_KEYS, "alpha_beta_cap")},
}
ALLOWED_CONFIG_KEYS = frozenset(SETTINGS)


def _format_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _floats(column) -> list[str]:
    """Round-trip float cells; a mean over no feasible record (None) is blank."""
    return ["" if v is None else repr(v) for v in column]


# Each sweep column holds one kind of value, so it is formatted as a whole: text
# as is, the count by str, and every other column by `_floats`.
SWEEP_CELLS = {"axis": list, "scenario": list, "feasible_count": lambda c: list(map(str, c))}


def write_csv(path: str, header: tuple[str, ...], blocks) -> None:
    """Write the header, then each block as it comes; `blocks` may be a generator.
    A block is a list of equal-length columns of cells, each one or more fields."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            for columns in blocks:
                fh.writelines(",".join(row) + "\n" for row in zip(*columns))
                del columns   # so that only one block is alive while the next is built
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}")


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
    # YAML keys may be numbers or null, which neither sort with text nor join.
    unknown = sorted(str(k) for k in data if k not in ALLOWED_CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
    return data


# kind -> (what a value must be, its test), for the kinds that population does not check
_KINDS = {
    "path": ("a file path", lambda v: isinstance(v, str)),
    "names": ("a list of names", lambda v: isinstance(v, (list, tuple))),
    "numbers": ("a list of finite numbers",
                lambda v: isinstance(v, (list, tuple)) and all(map(population.finite_number, v))),
}


def _checked(key: str, value):
    """`value` as setting `key` holds it, lists as tuples and scenario names kept at
    their first mention; ValueError `<key> must be <kind>, got <value>` if it is not."""
    kind, arg = SETTINGS[key].kind, SETTINGS[key].arg
    if kind == "names" and isinstance(value, str):   # --scenario a,b
        value = [n.strip() for n in value.split(",") if n.strip()]
    if kind == "int":
        population.check_integer(key, value, *arg)
    elif kind == "float":
        population.check_number(key, value)   # hints at YAML 1.1 exponent text
    elif kind == "choice" and value not in arg:
        raise ValueError(f"unknown {key} {value!r}")
    elif kind in _KINDS and not _KINDS[kind][1](value):
        raise ValueError(f"{key} must be {_KINDS[kind][0]}, got {value!r}")
    elif kind == "names":
        for name in value:
            if name not in SCENARIOS:
                raise ValueError(f"unknown scenario {name!r}; expected one of {SCENARIOS}")
        if not value:
            raise ValueError("scenario list must be non-empty")
        return tuple(dict.fromkeys(value))
    return tuple(map(float, value)) if kind == "numbers" else value


def _settings(args, config: dict) -> dict:
    """The run's settings: the config's keys, then every flag given over them, each
    checked against its kind. A null config value counts as absent, except
    `psi: null`, which selects uniform psi sampling."""
    s = {k: v for k, v in config.items() if v is not None or k == "psi"}
    for key, setting in SETTINGS.items():   # argparse's dest is the flag with _ for -
        value = getattr(args, setting.flag[2:].replace("-", "_"), None) if setting.flag else None
        if value is not None:
            s[key] = value
    for key, value in s.items():
        try:
            s[key] = value if value is None else _checked(key, value)
        except ValueError as exc:
            raise ConfigError(f"{SETTINGS[key].prefix}{exc}")
    return s


def _population_spec(s: dict) -> PopulationSpec:
    try:
        return PopulationSpec(**{f.name: s[f.name] for f in fields(PopulationSpec) if f.name in s})
    except ValueError as exc:
        raise ConfigError(f"{POPULATION}{exc}")


# ---------------------------------------------------------------------------
# equilibrium
# ---------------------------------------------------------------------------


def cmd_equilibrium(s: dict) -> int:
    values = {k: float(s[k]) for k in PARAM_KEYS if s.get(k) is not None}
    values.setdefault("psi", 0.1)
    missing = [f.name for f in fields(MarketParams)
               if f.default is MISSING and f.name not in values]
    if missing:
        raise ConfigError(f"missing required parameter(s): {', '.join(missing)}")
    params = MarketParams(**values)

    result = equilibrium.stackelberg_solve(params)
    cells = {**vars(params), **result.feasibility._asdict(), **result._asdict()}
    row = [cells[k] for k in EQUILIBRIUM_COLUMNS]

    out = s.get("out", "equilibrium.csv")
    write_csv(out, EQUILIBRIUM_COLUMNS, [[[_format_value(v)] for v in row]])

    print(f"# command=equilibrium out={out}")
    for name, value in zip(EQUILIBRIUM_COLUMNS, row):
        print(f"{name}={_format_value(value)}")
    return EXIT_OK if result.feasible else EXIT_INFEASIBLE


# ---------------------------------------------------------------------------
# scenario
# ---------------------------------------------------------------------------


def _cells(col, rows: slice, ok, fill: str) -> list[str]:
    """`repr` of `col[rows]` where `ok`, and `fill` elsewhere: only the rows
    at `ok` are formatted, and scattered over a column of `fill`."""
    cells = np.full(len(ok), fill, dtype=object)
    if col is not None:
        cells[ok] = list(map(repr, col[rows][ok].tolist()))
    return cells.tolist()


def cmd_scenario(s: dict) -> int:
    """Write each scenario's rows over one sampled table, block by block. Each run of
    parameter columns is formatted once per block and shared by every scenario whose
    table holds its arrays; outcome cells are formatted only at feasible rows."""
    spec = _population_spec(s)
    names = sorted(s.get("scenarios", SCENARIOS))
    mode = s.get("mode", scenarios.MODE_EQUILIBRIUM)

    table, price = population.sample_table(spec)
    outcomes = {name: scenarios.scenario_columns(name, table, price, mode)
                for name in names}
    memo = {}   # (block start, ids of arrays `outcomes` keeps alive) -> "\n"-joined rows

    def joined(lo, rows, run):
        key = (lo, *map(id, run))
        if key not in memo:
            cells = zip(*(map(repr, col[rows].tolist()) for col in run))
            memo[key] = "\n".join(map(",".join, cells))
        return memo[key].split("\n")

    def blocks():
        for name, out in outcomes.items():
            t = out.params
            runs = ((t.alpha, t.beta, t.gamma, t.psi), (t.phi,), (t.k1, t.f_c))
            values = (out.price, out.share, out.demand, out.supply,
                      out.provider_payoff, out.cloud_payoff)
            fills = tuple(map(_format_value, scenarios.INFEASIBLE_FILL[name]))
            for lo in range(0, len(price), CSV_BLOCK_ROWS):
                rows = slice(lo, lo + CSV_BLOCK_ROWS)
                ok = out.feasible[rows]
                yield ([list(map(str, range(lo, lo + len(ok)))), [name] * len(ok)]
                       + [joined(lo, rows, run) for run in runs]
                       + [_cells(col, rows, ok, fill) for col, fill in zip(values, fills)]
                       + [["true" if f else "false" for f in ok.tolist()]])

    out_path = s.get("out", "scenario.csv")
    write_csv(out_path, SCENARIO_COLUMNS, blocks())

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


def cmd_sweep(s: dict) -> int:
    preset_name = s.get("preset")
    scenario_names = s.get("scenarios", SCENARIOS)
    axis = s.get("axis")
    plot_column = None
    if preset_name is not None:
        preset_axis, preset_scenarios, plot_column = PRESETS[preset_name]
        if axis not in (None, preset_axis):
            raise ConfigError(f"axis must be {preset_axis!r} for preset {preset_name}, "
                              f"got {axis!r}")
        axis = preset_axis
        if "scenarios" not in s:
            scenario_names = preset_scenarios
    if axis is None:
        raise ConfigError(f"sweep needs --axis or --preset (axes: {', '.join(AXES)})")

    pop_spec = _population_spec(s)
    try:
        spec = SweepSpec(
            axis=axis,
            grid=s.get("grid", ()),
            phi_levels=s.get("phi_levels", population.DEFAULT_PHI_LEVELS),
            scenarios=scenario_names,
            population=pop_spec,
            mode=s.get("mode", scenarios.MODE_DECLARED_PRICE),
        )
    except ValueError as exc:
        raise ConfigError(f"{SWEEP}{exc}")
    cells = len(spec.grid) * (1 if axis == AXIS_PHI else len(spec.phi_levels))
    if cells * pop_spec.n_providers > MAX_SWEEP_ROWS:
        raise ConfigError(f"{SWEEP}{cells} cells x {pop_spec.n_providers} providers exceed "
                          f"{MAX_SWEEP_ROWS} provider-cells (65 x {MAX_PROVIDERS})")

    series = population.run_sweep(spec)
    columns = dict(zip(population.SweepSeries._fields, zip(*series)))
    out = s.get("out", f"{preset_name or 'sweep'}.csv")
    write_csv(out, SWEEP_COLUMNS, [[SWEEP_CELLS.get(name, _floats)(columns[name])
                                    for name in SWEEP_COLUMNS]])

    meta = (f"# command=sweep axis={spec.axis} seed={pop_spec.seed} mode={spec.mode} "
            f"scenarios={','.join(spec.scenarios)} cells={len(series)} "
            f"aggregate=mean-over-feasible out={out}")
    if preset_name:
        meta += f" preset={preset_name} plot_column={plot_column}"
    print(meta)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


class PropertyResult(NamedTuple):
    name: str
    passed: bool
    detail: str


def sample_table_params(rng: np.random.Generator, n: int) -> core.ParamTable:
    """Vectorized draw of n parameter sets from the simulation-setup ranges
    (PopulationSpec's default bands), as one validated table."""
    spec, (phi_lo, phi_hi) = PopulationSpec(), AXIS_RANGES[AXIS_PHI]
    parts = []
    while (got := sum(map(len, parts))) < n:
        m = max(256, 2 * (n - got))
        price = rng.normal(spec.price_mean, spec.price_sd, m)
        alpha = rng.normal(spec.alpha_mean, spec.alpha_sd, m)
        ok = ((price >= spec.price_min) & (price <= spec.price_max)
              & (alpha >= spec.alpha_min) & (alpha <= spec.alpha_max))
        price, alpha = price[ok], alpha[ok]
        beta = rng.uniform(0.0, 1.0, price.size) / alpha
        gamma = rng.uniform(spec.gamma_min, spec.gamma_max, price.size)
        phi = rng.uniform(phi_lo, phi_hi, price.size)
        k1 = rng.uniform(spec.k1_min, spec.k1_max, price.size)
        keep = (alpha * beta > 0.0) & (alpha * beta <= spec.alpha_beta_cap) & (phi > 0.0)
        parts.append(core.ParamTable.from_columns(
            alpha=alpha[keep], beta=beta[keep], gamma=gamma[keep], psi=spec.psi,
            phi=phi[keep], k1=k1[keep], f_c=spec.f_c_factor * price[keep],
        ).take(slice(n - got)))
    table = core.ParamTable.concat(parts)
    core.check_domain(table)
    return table


# Draws per sampler batch: a whole number of 4-word Philox blocks, so each of
# a batch's uniform columns spans whole counter steps (see _philox_ahead).
SAMPLER_BATCH = 200_000


def _philox_ahead(state: dict, words: int) -> np.random.Generator:
    """A generator on the Philox stream of bit-generator `state`, `words`
    64-bit words (a positive multiple of 4) ahead of it, without drawing them.
    Philox is counter-based (Salmon et al., SC'11): the words are whole
    counter steps, and the buffer refills at the same position."""
    bits = np.random.Philox()
    bits.state = state
    bits.advance(words // 4 - 1)   # empties the buffer
    bits.random_raw(state["buffer_pos"])
    return np.random.Generator(bits)


def _draw_normals(rng: np.random.Generator, out: np.ndarray, bands) -> None:
    """Fill out[i] with normal draws of bands[i] = (mean, sd), in turn: the
    words and values of `rng.normal(mean, sd, size)` (mean + sd * z), written
    in place, since an allocating draw per batch costs peak RSS."""
    for column, (mean, sd) in zip(out, bands):
        rng.standard_normal(out=column)
        column *= sd
        column += mean


class _Helper(threading.Thread):
    """A thread that keeps its target's exception in `error` for the caller
    (threading.Thread, not concurrent.futures: that import alone costs
    verify's setup time and RSS)."""
    error = None

    def run(self):
        try:
            super().run()
        except BaseException as exc:   # re-raised on the caller
            self.error = exc


def draw_reported_equilibria(seed: int, count: int, max_draws: int = 20_000_000):
    """Sample parameter draws until `count` of them yield a reported equilibrium.

    Each SAMPLER_BATCH-draw batch takes, in stream order, a price and an alpha
    column of normals, whose word count varies, then beta, gamma, phi and k1
    columns of one word per draw. So once a batch's normals end, each of its
    uniform columns, and the next batch, starts at a known word of the Philox
    stream. One helper thread draws the next batch's normals while this one
    draws the uniform columns block by block, and keeps in draw order, up to
    the count, the rows in PopulationSpec's default bands with a share root.
    Returns (the equilibrium-mode two_sided Outcome of the kept games,
    n_drawn)."""
    spec, (phi_lo, phi_hi) = PopulationSpec(), AXIS_RANGES[AXIS_PHI]
    m = SAMPLER_BATCH
    bands = ((spec.price_mean, spec.price_sd), (spec.alpha_mean, spec.alpha_sd))
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    normals = [np.empty((2, m)) for _ in range(2)]   # per parity; one 6.4 MB block: see README
    kept, got, drawn = [core.ParamTable.from_params([])], 0, 0   # concat needs one table
    while got < count and drawn < max_draws:
        if not drawn:   # later batches' normals come from the helper
            _draw_normals(rng, normals[0], bands)
        price, alpha = normals[drawn // m % 2]
        drawn += m
        at = rng.bit_generator.state
        g_beta, g_gamma, g_phi, g_k1 = rng, *(_philox_ahead(at, c * m) for c in (1, 2, 3))
        helper = None
        if drawn < max_draws:
            # Only numpy RNG code runs on the helper (perfbench's Tracer is not
            # thread-safe), and it is joined before the next one starts. This
            # thread seldom waits at the join, so it is the critical path;
            # moving more work over would also cost a buffer of RSS.
            rng = _philox_ahead(at, 4 * m)
            helper = _Helper(target=_draw_normals, args=(rng, normals[drawn // m % 2], bands))
            helper.start()
        try:
            for b in equilibrium._blocks(m, 1):   # bounds the block's temporaries
                n = min(b.stop, m) - b.start
                t = core.ParamTable.from_columns(
                    alpha=alpha[b], beta=g_beta.uniform(0.0, 1.0, n) / np.clip(alpha[b], 1e-9, None),
                    gamma=g_gamma.uniform(spec.gamma_min, spec.gamma_max, n), psi=spec.psi,
                    phi=g_phi.uniform(phi_lo, phi_hi, n), k1=g_k1.uniform(spec.k1_min, spec.k1_max, n),
                    f_c=spec.f_c_factor * price[b])
                ab = t.alpha * t.beta
                with np.errstate(divide="ignore", invalid="ignore"):   # out of band: f_c <= 0, a2 = 0
                    ok = ((price[b] >= spec.price_min) & (price[b] <= spec.price_max)
                          & (t.alpha >= spec.alpha_min) & (t.alpha <= spec.alpha_max) & (ab > 0.0)
                          & (ab <= spec.alpha_beta_cap) & (t.phi > 0.0)
                          & equilibrium.has_share_root(t))
                kept.append(t.take(np.nonzero(ok)[0][:count - got]))
                if (got := got + len(kept[-1])) == count:
                    break
        finally:
            if helper is not None:
                helper.join()
        if helper is not None and helper.error is not None:
            raise helper.error
    table = core.ParamTable.concat(kept)
    return scenarios.scenario_columns(TWO_SIDED, table, None, MODE_EQUILIBRIUM), drawn


def run_oracle_comparison(cases: Outcome, grid_n: int):
    """Columns (|chi* - chi_oracle|, |P* - P_oracle|/P*) over the reported
    equilibria of `cases`."""
    oracle = equilibrium.oracle_equilibrium(cases.params, grid_n=grid_n)
    return (np.abs(cases.share - oracle.share),
            np.abs(cases.price - oracle.price) / cases.price)


def verify_properties(seed: int, draws: int, grid_n: int,
                      pairs: int = 2000) -> list[PropertyResult]:
    """The numerical verification suite behind `tsm verify`."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    results = []

    # Reduced forms solve the primitive curves. Each row draws its price,
    # then its share.
    t = sample_table_params(rng, pairs)
    log_price, log_share = np.log(rng.uniform(np.tile([0.2, 0.001], pairs),
                                              np.tile([3.2, 0.999], pairs))).reshape(-1, 2).T
    c = core.derive_coefficients(t)
    log_dc = core._log_demand_reduced(log_price, log_share, t, c)
    log_ds = core._log_supply_reduced(log_price, log_share, t, c)
    worst = float(np.max(np.abs([
        core._log_demand_primitive(log_price, log_ds, t) - log_dc,
        core._log_supply_primitive(log_share, log_price, log_dc, t) - log_ds])))
    results.append(PropertyResult(
        "fixed_point_consistency", worst <= 1e-9,
        f"max log-relative defect {worst:.3e} over {pairs} pairs (tol 1e-9)"))

    # Reported equilibria: stationarity, curvature, oracle agreement.
    cases, drawn = draw_reported_equilibria(seed + 1, draws)
    n = len(cases.params)
    if not n:
        results.append(PropertyResult(
            "feasible_region", False,
            f"region empty: no reported equilibrium in {drawn} draws"))
        return results

    at = (cases.params, cases.price, cases.share)
    worst_foc = float(np.max(equilibrium.first_order_residuals(*at)))
    soc = equilibrium.second_order_check(*at)
    soc_pass = np.count_nonzero(soc.provider_soc_negative & soc.cloud_soc_negative
                                & soc.provider_agreement & soc.cloud_agreement)
    results.append(PropertyResult(
        "first_order_conditions", worst_foc <= 1e-6,
        f"max relative FOC {worst_foc:.3e} over {n} equilibria (tol 1e-6)"))
    results.append(PropertyResult(
        "second_order_conditions", soc_pass == n,
        f"{soc_pass}/{n} equilibria pass curvature checks"))

    tol = 2.0 / grid_n
    d_chi, d_price = run_oracle_comparison(cases, grid_n)
    results.append(PropertyResult(
        "oracle_agreement", not np.any((d_chi > tol) | (d_price > tol)),
        f"max |dchi| {d_chi.max():.3e}, max |dP|/P {d_price.max():.3e} over "
        f"{n} equilibria (tol {tol:.1e})"))

    # Pay-as-you-go rental optimum satisfies its own first-order condition.
    t = sample_table_params(rng, min(500, pairs))
    price = rng.uniform(0.2, 3.2, len(t))
    covered = price > t.f_c
    t, price = t.take(covered), price[covered]
    rental = scenarios.scenario_columns(scenarios.PAY_AS_YOU_GO, t, price,
                                        scenarios.MODE_DECLARED_PRICE)
    supply, h = rental.supply, 1e-6 * rental.supply
    slope = (scenarios._rental(price, supply + h, t)[1]
             - scenarios._rental(price, supply - h, t)[1]) / (2.0 * h)
    scale = np.maximum(t.p_s * supply, (price - t.f_c) * rental.demand)
    worst_payg = float(np.max(np.abs(slope) * supply / scale, initial=0.0))
    results.append(PropertyResult(
        "payg_rental_foc", len(t) > 0 and worst_payg <= 1e-6,
        f"max relative rental FOC {worst_payg:.3e} (tol 1e-6)" if len(t) else
        f"no row checked: 0 of {covered.size} drawn prices exceed f_c"))
    return results


def cmd_verify(s: dict) -> int:
    draws, grid_n, pairs, seed = (s.get("draws", 200), s.get("grid_n", 2000),
                                  s.get("pairs", 2000), s.get("seed", 1729))
    print(f"# command=verify seed={seed} draws={draws} grid_n={grid_n} pairs={pairs}")
    results = verify_properties(seed, draws, grid_n, pairs)
    for res in results:
        print(f"[{'PASS' if res.passed else 'FAIL'}] {res.name}: {res.detail}")
    return EXIT_OK if all(res.passed for res in results) else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


COMMANDS = {
    EQ: (cmd_equilibrium, "solve one parameterized game"),
    SC: (cmd_scenario, "run business models over a population"),
    SW: (cmd_sweep, "run a sensitivity sweep"),
    VF: (cmd_verify, "run the numerical verification suite"),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The `tsm` parser; given a command name, only that command's subparser gets flags."""
    parser = argparse.ArgumentParser(prog="tsm", description="Two-sided cloud data-market simulator.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if command not in (None, name):
            continue
        p.add_argument("--config", help="YAML config file (flags override it)")
        for setting in SETTINGS.values():
            if name in setting.commands:
                p.add_argument(setting.flag, type={"int": int, "float": float}.get(setting.kind),
                               choices=setting.arg if setting.kind == "choice" else None)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv and argv[0] in COMMANDS else None).parse_args(argv)
    try:
        return COMMANDS[args.command][0](_settings(args, load_config(args.config)))
    except (ConfigError, population.SamplingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except DomainError as exc:
        print(f"error: invalid parameters: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
