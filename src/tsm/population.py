"""Population sampling and sensitivity sweeps.

A population is a group of providers drawn from the simulation setup's
distributions: truncated-normal list prices and supply externalities,
uniform demand elasticities and multipliers, fixed platform-side cost
constants. Each provider draws from its own Philox substream of one seed
sequence, so a population is fully determined by (seed, spec); the keys of
all substreams are derived at once (`_child_keys`).

Sweeps step one parameter axis (the externality product, the subsidizing
factor, the demand elasticity or the demand multiplier) across the
population. The population is broadcast over every (axis value, phi level)
cell, so each scenario runs once per sweep over only what its inputs vary
in, and every cell's means come from one grouped reduction.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
import re
from dataclasses import dataclass, field, fields
from itertools import repeat
from typing import NamedTuple, Sequence

import numpy as np

from .core import ALPHA_BETA_CAP, MarketParams, ParamTable, check_domain
from .scenarios import (
    MODE_DECLARED_PRICE,
    MODES,
    SCENARIOS,
    Provider,
    scenario_columns,
)

AXIS_ALPHA_BETA = "alpha_beta_product"
AXIS_PHI = "phi"
AXIS_GAMMA = "gamma"
AXIS_K1 = "k1"
AXES = (AXIS_ALPHA_BETA, AXIS_PHI, AXIS_GAMMA, AXIS_K1)

# Sweepable ranges; grids must stay inside these.
AXIS_RANGES = {
    AXIS_ALPHA_BETA: (0.1, 0.7),
    AXIS_PHI: (0.0, 5.0),
    AXIS_GAMMA: (0.0, 0.35),
    AXIS_K1: (0.1, 0.9),
}

MAX_ATTEMPTS = 1_000_000   # draws of one truncated band for one provider


class SamplingError(RuntimeError):
    """A truncated draw could not be satisfied within MAX_ATTEMPTS."""


def check_integer(name: str, value, low: int, high: int | None = None) -> None:
    """Raise ValueError unless `value` is an integer (not a bool) >= low, and
    <= high if that is given."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low
            or (high is not None and value > high)):
        bound = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise ValueError(f"{name} must be an integer {bound}, got {value!r}")


def finite_number(value) -> bool:
    """Whether `value` is a finite real number (not a bool) that a float holds."""
    try:
        return (not isinstance(value, bool) and isinstance(value, numbers.Real)
                and math.isfinite(value))
    except OverflowError:   # an integer past the largest float
        return False


def check_number(name: str, value) -> None:
    """Raise ValueError unless `value` is a finite real number (not a bool)."""
    if not finite_number(value):
        # YAML 1.1 reads an exponent float as text unless it has a dot and a signed exponent.
        m = isinstance(value, str) and re.fullmatch(r"([-+]?\d+)(\.\d*)?[eE]([-+]?)(\d+)", value)
        hint = (f" (YAML 1.1 reads {value} as text; write "
                f"{m[1]}{m[2] or '.0'}e{m[3] or '+'}{m[4]})" if m else "")
        raise ValueError(f"{name} must be a finite number, got {value!r}{hint}")


@dataclass(frozen=True)
class PopulationSpec:
    """Distributional description of one provider population.

    psi is the supply price elasticity: a fixed value by default, or drawn
    uniformly from [psi_min, psi_max] when set to None.
    """

    n_providers: int = 300
    seed: int = 1729
    price_mean: float = 1.7
    price_sd: float = 0.5
    price_min: float = 0.2
    price_max: float = 3.2
    alpha_mean: float = 0.38
    alpha_sd: float = 0.1
    alpha_min: float = 0.1
    alpha_max: float = 0.7
    gamma_min: float = 0.1
    gamma_max: float = 0.35
    psi: float | None = 0.1
    psi_min: float = 0.0
    psi_max: float = 0.35
    phi: float = 1.5
    k1_min: float = 0.1
    k1_max: float = 0.9
    k2: float = MarketParams.k2
    f_s: float = MarketParams.f_s
    p_s: float = MarketParams.p_s
    f_c_factor: float = 0.66
    alpha_beta_cap: float = ALPHA_BETA_CAP

    def __post_init__(self):
        # From YAML, `1.0e300` is a string; `.nan` or `.inf` stall or overflow draws.
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(f.default, float) and not (f.name == "psi" and value is None):
                check_number(f.name, value)
        check_integer("n_providers", self.n_providers, 1)
        if self.n_providers > 2**32:   # a spawn key past 2**32 - 1 takes a second word
            raise ValueError(f"n_providers must be <= 2**32, got {self.n_providers}")
        check_integer("seed", self.seed, 0)
        # beta is drawn from [0, 1/alpha], so alpha must stay positive.
        if self.alpha_min <= 0.0:
            raise ValueError(f"alpha_min must be > 0, got {self.alpha_min}")
        for name in ("price_sd", "alpha_sd"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        for lo_name, hi_name in (("price_min", "price_max"), ("alpha_min", "alpha_max"),
                                 ("gamma_min", "gamma_max"), ("psi_min", "psi_max"),
                                 ("k1_min", "k1_max")):
            if getattr(self, lo_name) > getattr(self, hi_name):
                raise ValueError(f"{lo_name} exceeds {hi_name}")
        if self.psi is not None and not 0.0 <= self.psi <= 0.35:
            raise ValueError(f"psi must lie in [0, 0.35], got {self.psi}")
        if not 0.0 <= self.phi <= 5.0:
            raise ValueError(f"phi must lie in [0, 5], got {self.phi}")
        # Past the domain's cap a kept draw fails check_domain; at or below 0 none is kept.
        if not 0.0 < self.alpha_beta_cap <= ALPHA_BETA_CAP:
            raise ValueError(f"alpha_beta_cap must lie in (0, {ALPHA_BETA_CAP}], "
                             f"got {self.alpha_beta_cap}")

    def in_bands(self, price, alpha, beta=None):
        """Elementwise: price and alpha in band and, given beta, 0 < alpha*beta <= cap."""
        inside = ((self.price_min <= price) & (price <= self.price_max)
                  & (self.alpha_min <= alpha) & (alpha <= self.alpha_max))
        if beta is not None:
            inside &= (0.0 < (ab := alpha * beta)) & (ab <= self.alpha_beta_cap)
        return inside


# NumPy's SeedSequence hash constants (O'Neill's seed_seq design, NEP 19).
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _M32 = 0xCA01F9DD, 0x4973F715, 0xFFFFFFFF


def _child_keys(seed: int, n: int) -> np.ndarray:
    """`SeedSequence(seed).spawn(n)[i].generate_state(2, np.uint64)` for
    every i, as an (n, 2) array.

    Child i hashes the seed's 32-bit words, zero-padded to the pool size of
    4, and then i. Up to i this is the hash of `SeedSequence(seed).pool`,
    which runs short entropy out with zeros too; the steps from i on run
    once, over uint32 columns that wrap as SeedSequence's uint32_t does.
    """
    # The pool hash made 4 + 12 hashmix calls, and 4 more per word past the 4th.
    calls = 16 + 4 * max(0, (int(seed).bit_length() - 1) // 32 - 3)
    const = _INIT_A * pow(_MULT_A, calls, 1 << 32) & _M32

    def hashmix(value, mult=_MULT_A):
        nonlocal const
        value, const = value ^ const, const * mult & _M32
        value = value * const
        return value ^ value >> 16

    spawn_key, pool = np.arange(n, dtype=np.uint32), []
    for word in np.random.SeedSequence(seed).pool[:, None]:
        word = _MIX_L * word - _MIX_R * hashmix(spawn_key)
        pool.append(word ^ word >> 16)
    const = _INIT_B
    state = np.stack([hashmix(word, _MULT_B) for word in pool], axis=1)
    # NumPy reads the words as little-endian, whatever the host's byte order.
    return state.astype("<u4").view("<u8").astype(np.uint64)


def _redraw(draw, inside, what: str) -> float:
    for _ in range(MAX_ATTEMPTS):
        if inside(value := draw()):
            return value
    raise SamplingError(f"could not draw {what} in {MAX_ATTEMPTS} attempts")


def _draw(spec: PopulationSpec, rng: np.random.Generator) -> tuple[float, ...]:
    """One provider's (price, alpha, beta, gamma, psi, k1), drawn from `rng`
    in the order that `sample_table` describes."""
    price = _redraw(lambda: rng.normal(spec.price_mean, spec.price_sd),
                    lambda x: spec.price_min <= x <= spec.price_max,
                    f"price inside [{spec.price_min}, {spec.price_max}]")
    alpha = _redraw(lambda: rng.normal(spec.alpha_mean, spec.alpha_sd),
                    lambda x: spec.alpha_min <= x <= spec.alpha_max,
                    f"alpha inside [{spec.alpha_min}, {spec.alpha_max}]")
    beta = _redraw(lambda: rng.uniform(0.0, 1.0 / alpha),
                   lambda x: 0.0 < alpha * x <= spec.alpha_beta_cap,
                   f"beta with 0 < alpha*beta <= {spec.alpha_beta_cap}")
    gamma = rng.uniform(spec.gamma_min, spec.gamma_max)
    psi = spec.psi if spec.psi is not None else rng.uniform(spec.psi_min, spec.psi_max)
    return price, alpha, beta, gamma, psi, rng.uniform(spec.k1_min, spec.k1_max)


def sample_table(spec: PopulationSpec) -> tuple[ParamTable, np.ndarray]:
    """Draw the full provider group as a validated parameter table and the
    providers' declared prices, one row per provider.

    Provider i draws from its own Philox substream, in this order: price and
    alpha (each redrawn until inside its band), beta (redrawn until
    0 < alpha*beta <= alpha_beta_cap), gamma, psi (only when spec.psi is
    None) and k1. This stream is what makes a population reproducible.

    All n substream keys are derived at once, and one Philox generator is
    reset to each key for two calls: both normals, then all uniforms. Rows
    whose first draws miss a band (about 0.6% at the defaults) are redrawn
    from their keys by `_draw`. The numbers are those of one generator per
    provider, at about 6.5 us a provider instead of 52 us at n=10,000.
    """
    keys = _child_keys(spec.seed, spec.n_providers)
    bitgen = np.random.Philox(0)
    rng = np.random.Generator(bitgen)
    state = {"bit_generator": "Philox", "state": {"counter": [0] * 4, "key": None},
             "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    normals = np.empty((len(keys), 2))
    uniforms = np.empty((len(keys), 3 if spec.psi is not None else 4))
    for key, z, u in zip(keys.tolist(), normals, uniforms):
        state["state"]["key"] = key
        bitgen.state = state
        rng.standard_normal(out=z)
        rng.random(out=u)
    # As Generator.normal and .uniform compute them: loc + scale*z, lo + (hi-lo)*u.
    bands = [(spec.gamma_min, spec.gamma_max), (spec.psi_min, spec.psi_max),
             (spec.k1_min, spec.k1_max)]
    lo, hi = np.array(bands[::2] if spec.psi is not None else bands, float).T
    gamma, *psi, k1 = (lo + (hi - lo) * uniforms[:, 1:]).T
    with np.errstate(all="ignore"):   # rows with alpha <= 0 miss the bands below
        price, alpha = (np.array([spec.price_mean, spec.alpha_mean], float)
                        + np.array([spec.price_sd, spec.alpha_sd], float) * normals).T
        beta = 1.0 / alpha * uniforms[:, 0]
        inside = spec.in_bands(price, alpha, beta)
    draws = np.column_stack(np.broadcast_arrays(
        price, alpha, beta, gamma, psi[0] if psi else spec.psi, k1))
    for i in np.flatnonzero(~inside):
        draws[i] = _draw(spec, np.random.Generator(np.random.Philox(key=keys[i])))
    price, alpha, beta, gamma, psi, k1 = draws.T
    table = ParamTable.from_columns(
        alpha=alpha, beta=beta, gamma=gamma, psi=psi, phi=spec.phi, k1=k1,
        k2=spec.k2, f_c=spec.f_c_factor * price, f_s=spec.f_s, p_s=spec.p_s)
    check_domain(table)
    return table, price


def sample_providers(spec: PopulationSpec) -> list[Provider]:
    """The sampled population as records, with provider ids 0..n-1."""
    table, price = sample_table(spec)
    return [Provider(provider_id=i, params=params, declared_price=p)
            for i, (params, p) in enumerate(zip(table.rows(), price.tolist()))]


# ---------------------------------------------------------------------------
# Sweeps.
# ---------------------------------------------------------------------------


def default_grid(axis: str) -> tuple[float, ...]:
    if axis == AXIS_ALPHA_BETA:
        return tuple(round(0.1 + 0.05 * i, 4) for i in range(13))
    if axis == AXIS_PHI:
        return (0.1, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0)
    if axis == AXIS_GAMMA:
        return tuple(round(0.05 * i, 4) for i in range(8))
    if axis == AXIS_K1:
        return tuple(round(0.1 + 0.1 * i, 4) for i in range(9))
    raise ValueError(f"unknown axis {axis!r}")


DEFAULT_PHI_LEVELS = (0.5, 1.0, 1.5, 2.0, 5.0)


@dataclass(frozen=True)
class SweepSpec:
    """One sensitivity sweep: an axis, its grid, and what to run per cell."""

    axis: str
    grid: tuple[float, ...] | None = None   # None: the axis's default grid
    phi_levels: tuple[float, ...] = DEFAULT_PHI_LEVELS
    scenarios: tuple[str, ...] = SCENARIOS
    population: PopulationSpec = field(default_factory=PopulationSpec)
    mode: str = MODE_DECLARED_PRICE

    def __post_init__(self):
        if self.axis not in AXES:
            raise ValueError(f"unknown axis {self.axis!r}; expected one of {AXES}")
        grid = default_grid(self.axis) if self.grid is None else tuple(self.grid)
        object.__setattr__(self, "grid", grid)
        if not grid:
            raise ValueError("axis grid must be non-empty")
        # NaN passes the order and range checks below: its comparisons are false.
        if not all(math.isfinite(v) for v in grid):
            raise ValueError("axis grid values must be finite")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("axis grid must be strictly increasing")
        lo, hi = AXIS_RANGES[self.axis]
        if grid[0] < lo or grid[-1] > hi:
            raise ValueError(f"{self.axis} grid must lie within [{lo}, {hi}]")
        if not self.phi_levels:
            raise ValueError("phi levels must be non-empty")
        if not all(math.isfinite(v) and v >= 0.0 for v in self.phi_levels):
            raise ValueError("phi levels must be finite and >= 0")
        for s in self.scenarios:
            if s not in SCENARIOS:
                raise ValueError(f"unknown scenario {s!r}")
        if not self.scenarios:
            raise ValueError("scenario set must be non-empty")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")


class SweepSeries(NamedTuple):
    """Aggregates of one sweep cell (axis value x phi level x scenario).

    Means are over the cell's feasible records; a cell with no feasible
    record keeps them as None rather than aggregating over nothing.
    mean_share is None for pay_as_you_go, where no share exists.
    """

    axis: str
    axis_value: float
    scenario: str
    phi_level: float
    n_providers: int
    feasible_count: int
    mean_cloud_payoff: float | None
    mean_provider_payoff: float | None
    mean_demand: float | None
    mean_supply: float | None
    mean_share: float | None


# The outcome columns a sweep cell averages, in SweepSeries's field order.
MEAN_COLUMNS = ("cloud_payoff", "provider_payoff", "demand", "supply", "share")


def _sweep_table(base: ParamTable, axis: str, grid: Sequence[float],
                 levels: Sequence[float]) -> ParamTable:
    """`base` broadcast over every cell: its columns keep shape (n,), the axis
    values take (V, 1, 1) and phi levels (L, 1) (on the phi axis, the values).
    On the externality axis beta = g / alpha, (V, 1, n): alpha*beta is g."""
    values = np.array(grid, float)[:, None, None]
    changes = {"phi": values if axis == AXIS_PHI else np.array(levels, float)[:, None]}
    if axis == AXIS_ALPHA_BETA:
        changes["beta"] = values / base.alpha
    elif axis in (AXIS_GAMMA, AXIS_K1):
        changes[axis] = values
    return dataclasses.replace(base, **changes)


def run_sweep(spec: SweepSpec) -> list[SweepSeries]:
    """Execute a sweep and return its cells in deterministic order.

    The population is sampled once and broadcast over every (axis value, phi
    level) cell, so each kernel runs once, over the shape its inputs vary in.
    Outcome columns are reduced along their last axis by `Outcome.feasible_mean`
    and broadcast to the cells. Records are sorted by (axis_value, scenario,
    phi_level).
    """
    base, declared = sample_table(spec.population)
    # (axis value, phi level) per cell; the phi axis is its own level.
    cells = ([(value, value) for value in spec.grid] if spec.axis == AXIS_PHI
             else [(value, level) for value in spec.grid for level in spec.phi_levels])
    shape = (len(spec.grid), len(cells) // len(spec.grid))
    table = _sweep_table(base, spec.axis, spec.grid, spec.phi_levels)
    series = []
    for scenario in spec.scenarios:
        k, means = scenario_columns(scenario, table, declared,
                                    spec.mode).feasible_mean(*MEAN_COLUMNS)
        counts, *means = (repeat(None) if v is None else np.broadcast_to(v, shape).ravel().tolist()
                          for v in (k, *means))
        series += [SweepSeries(spec.axis, value, scenario, level, len(base), count,
                               *(m if count else None for m in row))
                   for (value, level), count, *row in zip(cells, counts, *means)]
    series.sort(key=lambda s: s[1:4])   # (axis_value, scenario, phi_level)
    return series
