"""Tests for population sampling and the sensitivity sweep engine."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsm.core import _cloud_share_slice, derive_coefficients
from tsm.equilibrium import stackelberg_solve
from tsm.population import (
    AXES,
    MEAN_COLUMNS,
    AXIS_ALPHA_BETA,
    AXIS_GAMMA,
    AXIS_K1,
    AXIS_PHI,
    AXIS_RANGES,
    DEFAULT_PHI_LEVELS,
    PopulationSpec,
    SamplingError,
    SweepSpec,
    _child_keys,
    _sweep_table,
    default_grid,
    run_sweep,
    sample_providers,
    sample_table,
)
from tsm.scenarios import (
    FIFTY_FIFTY,
    MODE_DECLARED_PRICE,
    MODE_EQUILIBRIUM,
    MODES,
    PAY_AS_YOU_GO,
    SCENARIOS,
    TWO_SIDED,
    Outcome,
    run_fifty_fifty,
    run_two_sided,
    scenario_columns,
)


def scalar_draws(spec, rng):
    """One provider's (price, alpha, beta, gamma, psi, k1) by rejection
    loops on its own generator: the sampler as it was before its keys were
    derived at once."""
    price = rng.normal(spec.price_mean, spec.price_sd)
    while not spec.price_min <= price <= spec.price_max:
        price = rng.normal(spec.price_mean, spec.price_sd)
    alpha = rng.normal(spec.alpha_mean, spec.alpha_sd)
    while not spec.alpha_min <= alpha <= spec.alpha_max:
        alpha = rng.normal(spec.alpha_mean, spec.alpha_sd)
    beta = rng.uniform(0.0, 1.0 / alpha)
    while not 0.0 < alpha * beta <= spec.alpha_beta_cap:
        beta = rng.uniform(0.0, 1.0 / alpha)
    gamma = rng.uniform(spec.gamma_min, spec.gamma_max)
    psi = spec.psi if spec.psi is not None else rng.uniform(spec.psi_min, spec.psi_max)
    return price, alpha, beta, gamma, psi, rng.uniform(spec.k1_min, spec.k1_max)


class TestSampling:
    def test_same_seed_identical_population(self):
        spec = PopulationSpec(n_providers=50, seed=7)
        assert sample_providers(spec) == sample_providers(spec)

    def test_different_seed_differs(self):
        a = sample_providers(PopulationSpec(n_providers=10, seed=1))
        b = sample_providers(PopulationSpec(n_providers=10, seed=2))
        assert a != b

    def test_prices_within_band(self):
        for prov in sample_providers(PopulationSpec(n_providers=500, seed=3)):
            assert 0.2 <= prov.declared_price <= 3.2

    def test_price_mean_matches_distribution(self):
        # law of large numbers: the truncation band is symmetric around 1.7
        _, price = sample_table(PopulationSpec(n_providers=100_000, seed=5))
        assert abs(price.mean() - 1.7) <= 0.05

    def test_every_draw_passes_validation(self):
        for params in sample_table(PopulationSpec(n_providers=300, seed=9))[0].rows():
            # reconstructing re-runs the full validation
            assert dataclasses.replace(params) == params
            assert 0.1 <= params.alpha <= 0.7
            assert 0.0 < params.alpha * params.beta <= 0.999
            assert 0.1 <= params.gamma <= 0.35
            assert params.f_s == 23.7 and params.p_s == 36.0

    def test_f_c_rule(self):
        for prov in sample_providers(PopulationSpec(n_providers=50, seed=11)):
            assert prov.params.f_c == pytest.approx(0.66 * prov.declared_price,
                                                    rel=1e-15)

    def test_psi_fixed_by_default_uniform_when_none(self):
        fixed, _ = sample_table(PopulationSpec(n_providers=20, seed=13))
        assert np.all(fixed.psi == 0.1)
        drawn, _ = sample_table(PopulationSpec(n_providers=20, seed=13, psi=None))
        assert len(set(drawn.psi.tolist())) > 1
        assert np.all((drawn.psi >= 0.0) & (drawn.psi <= 0.35))

    def test_stream_is_unchanged(self):
        # frozen draws; narrow bands make each rejection loop redraw
        spec = PopulationSpec(n_providers=3, seed=11, psi=None, price_min=1.7,
                              alpha_max=0.38, alpha_beta_cap=0.5)
        table, price = sample_table(spec)
        assert price.tolist() == [2.273922375320776, 1.7446255290879757,
                                  1.8164882920355454]
        assert table.alpha.tolist() == [0.22173221345353777, 0.35670807093529355,
                                        0.36270800440601825]
        assert table.beta.tolist() == [0.532555695287184, 0.0321307319038222,
                                       0.42874301990460284]
        assert table.gamma.tolist() == [0.1519003264715859, 0.3246229938021119,
                                        0.17889054114292946]
        assert table.psi.tolist() == [0.08375439390007333, 0.29839028630301156,
                                      0.31057310765752405]
        assert table.k1.tolist() == [0.7106126444222106, 0.7392239625851457,
                                     0.6259278262054211]

    def test_records_are_the_table_rows(self):
        spec = PopulationSpec(n_providers=30, seed=4, psi=None)
        table, price = sample_table(spec)
        providers = sample_providers(spec)
        assert [p.provider_id for p in providers] == list(range(30))
        assert [p.params for p in providers] == table.rows()
        assert [p.declared_price for p in providers] == price.tolist()

    def test_exhaustion_error(self):
        spec = PopulationSpec(n_providers=1, seed=1, price_min=3.0, price_max=3.0,
                              price_sd=1e-9, max_attempts=50)
        with pytest.raises(SamplingError):
            sample_providers(spec)

    @pytest.mark.parametrize("seed", [0, 1729, 2**32 - 1, 2**32, 10**60, np.uint64(2**63 + 5)])
    @pytest.mark.parametrize("n", [1, 300])
    def test_child_keys_match_spawn(self, seed, n):
        spawned = [child.generate_state(2, np.uint64)
                   for child in np.random.SeedSequence(seed).spawn(n)]
        keys = _child_keys(seed, n)
        assert keys.dtype == np.uint64 and keys.shape == (n, 2)
        assert np.array_equal(keys, spawned)

    @pytest.mark.parametrize("changes", [
        *({"seed": seed, "n_providers": 300} for seed in (1729, 7, 11, 23)),
        {"seed": 5, "n_providers": 300, "psi": None},
        {"seed": 7, "n_providers": 300, "price_sd": 0.0},
        # integer settings, as YAML gives them; 10**30 does not fit an int64
        {"seed": 1729, "n_providers": 50, "price_mean": 2, "gamma_min": 0, "gamma_max": 1,
         "k1_min": 0, "k1_max": 10**30},
        # narrow bands: most rows miss one on their first draws and are redrawn
        {"seed": 11, "n_providers": 500, "psi": None, "price_min": 1.7,
         "alpha_max": 0.38, "alpha_beta_cap": 0.5},
        {"seed": 23, "n_providers": 200, "price_min": 2.5, "price_max": 2.6,
         "alpha_min": 0.45, "alpha_beta_cap": 0.1},
    ])
    def test_table_matches_per_provider_generators(self, changes):
        spec = PopulationSpec(**changes)
        table, price = sample_table(spec)
        want = np.array([scalar_draws(spec, np.random.Generator(np.random.Philox(child)))
                         for child in np.random.SeedSequence(spec.seed).spawn(
                             spec.n_providers)])
        got = np.column_stack([price, table.alpha, table.beta, table.gamma, table.psi,
                               table.k1])
        assert got.dtype == want.dtype == float and got.tobytes() == want.tobytes()

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            PopulationSpec(n_providers=0)
        with pytest.raises(ValueError):
            PopulationSpec(k1_min=0.9, k1_max=0.1)
        with pytest.raises(ValueError):
            PopulationSpec(psi=0.5)
        with pytest.raises(ValueError):
            PopulationSpec(alpha_min=0.0)
        # alpha*beta is capped inside the domain's cap, and some draw must pass it
        for cap in (1.2, 1.0, 0.9991, 0.0, -0.5):
            with pytest.raises(ValueError, match=r"^alpha_beta_cap must lie in \(0, 0\.999\], "):
                PopulationSpec(alpha_beta_cap=cap)
        PopulationSpec(alpha_beta_cap=0.999)

    def test_more_providers_than_spawn_keys_rejected(self, monkeypatch):
        def fail(*args):
            raise AssertionError("sampled")

        monkeypatch.setattr(np.random, "SeedSequence", fail)
        with pytest.raises(ValueError, match=r"n_providers must be <= 2\*\*32"):
            PopulationSpec(n_providers=2**32 + 1)


SMALL_POP = PopulationSpec(n_providers=6, seed=21)


def overridden(providers, **changes):
    """The providers with parameter fields replaced, as a sweep cell sees them."""
    return [p._replace(params=dataclasses.replace(p.params, **changes))
            for p in providers]


class TestSweepSpec:
    def test_default_grids_in_range(self):
        for axis in (AXIS_ALPHA_BETA, AXIS_PHI, AXIS_GAMMA, AXIS_K1):
            SweepSpec(axis=axis, population=SMALL_POP)

    def test_grid_must_increase(self):
        with pytest.raises(ValueError):
            SweepSpec(axis=AXIS_K1, grid=(0.3, 0.2), population=SMALL_POP)

    def test_grid_range_enforced(self):
        with pytest.raises(ValueError):
            SweepSpec(axis=AXIS_ALPHA_BETA, grid=(0.1, 0.8), population=SMALL_POP)

    @pytest.mark.parametrize("changes", [
        {"grid": (float("nan"),)},
        {"grid": (0.2, float("nan"), 0.4)},
        {"phi_levels": (float("nan"),)},
        {"phi_levels": (1.0, float("inf"))},
        {"phi_levels": (-1.0,)},
    ])
    def test_non_finite_or_negative_values_rejected(self, changes):
        with pytest.raises(ValueError):
            SweepSpec(axis=AXIS_K1, population=SMALL_POP, **changes)

    def test_empty_phi_levels_rejected(self):
        # an empty set of levels would sweep no cells at all
        with pytest.raises(ValueError, match="phi levels must be non-empty"):
            SweepSpec(axis=AXIS_K1, phi_levels=(), population=SMALL_POP)

    def test_phi_level_above_axis_range_accepted(self):
        assert SweepSpec(axis=AXIS_K1, phi_levels=(6.0,),
                         population=SMALL_POP).phi_levels == (6.0,)

    def test_unknown_axis_and_scenario(self):
        with pytest.raises(ValueError):
            SweepSpec(axis="beta", population=SMALL_POP)
        with pytest.raises(ValueError):
            SweepSpec(axis=AXIS_K1, scenarios=("market",), population=SMALL_POP)


class TestSweepEngine:
    def test_cell_shape(self):
        spec = SweepSpec(axis=AXIS_ALPHA_BETA, grid=(0.2, 0.4, 0.6),
                         phi_levels=(1.0, 2.0), scenarios=(TWO_SIDED, FIFTY_FIFTY),
                         population=SMALL_POP)
        series = run_sweep(spec)
        assert len(series) == 3 * 2 * 2
        assert all(s.n_providers == 6 for s in series)

    def test_default_externality_shape(self):
        spec = SweepSpec(axis=AXIS_ALPHA_BETA, population=SMALL_POP)
        series = run_sweep(spec)
        assert len(series) == 13 * len(DEFAULT_PHI_LEVELS) * 3

    def test_phi_axis_has_no_level_overlay(self):
        spec = SweepSpec(axis=AXIS_PHI, grid=(0.5, 1.0), scenarios=(TWO_SIDED,),
                         population=SMALL_POP)
        series = run_sweep(spec)
        assert len(series) == 2
        assert all(s.phi_level == s.axis_value for s in series)

    def test_externality_override_sets_product_exactly(self):
        base, _ = sample_table(SMALL_POP)
        grid, levels = (0.2, 0.4), (1.5, 5.0)
        table = _sweep_table(base, AXIS_ALPHA_BETA, grid, levels)
        n = len(base)
        assert len(table) == n
        alpha, beta, phi = (np.broadcast_to(col, (len(grid), len(levels), n))
                            for col in (table.alpha, table.beta, table.phi))
        for i, g in enumerate(grid):
            for j, level in enumerate(levels):
                for a, b in zip(alpha[i, j], beta[i, j]):
                    assert a * b == pytest.approx(g, rel=1e-12)
                assert np.all(phi[i, j] == level)
                assert np.array_equal(alpha[i, j], base.alpha)

    def test_aggregates_match_recomputation(self):
        spec = SweepSpec(axis=AXIS_GAMMA, grid=(0.1, 0.3), phi_levels=(1.5,),
                         scenarios=(TWO_SIDED,), population=SMALL_POP,
                         mode=MODE_DECLARED_PRICE)
        series = run_sweep(spec)
        for cell in series:
            providers = overridden(sample_providers(SMALL_POP),
                                   gamma=cell.axis_value, phi=cell.phi_level)
            feasible = [r for r in run_two_sided(providers, mode=MODE_DECLARED_PRICE)
                        if r.feasible]
            assert cell.feasible_count == len(feasible)
            assert cell.mean_cloud_payoff == pytest.approx(
                math.fsum(r.cloud_payoff for r in feasible) / len(feasible), rel=1e-12)
            assert cell.mean_provider_payoff == pytest.approx(
                math.fsum(r.provider_payoff for r in feasible) / len(feasible), rel=1e-12)

    def test_builds_no_parameter_records(self, market_params_count):
        run_sweep(SweepSpec(axis=AXIS_ALPHA_BETA, population=SMALL_POP))
        assert market_params_count == [0]

    def test_empty_cells_have_no_aggregates(self):
        # weak externalities leave equilibrium mode with zero feasible draws
        spec = SweepSpec(axis=AXIS_ALPHA_BETA, grid=(0.1, 0.2),
                         phi_levels=(1.5,), scenarios=(TWO_SIDED,),
                         population=SMALL_POP, mode=MODE_EQUILIBRIUM)
        for cell in run_sweep(spec):
            assert cell.feasible_count == 0
            assert cell.mean_cloud_payoff is None
            assert cell.mean_share is None

    def test_single_provider_k1_sweep_delegates_to_solver(self):
        pop = PopulationSpec(n_providers=1, seed=33)
        spec = SweepSpec(axis=AXIS_K1, grid=(0.2, 0.6), phi_levels=(1.5,),
                         scenarios=(TWO_SIDED,), population=pop,
                         mode=MODE_EQUILIBRIUM)
        series = run_sweep(spec)
        base = sample_providers(pop)[0]
        for cell in series:
            params = dataclasses.replace(base.params, k1=cell.axis_value, phi=1.5)
            res = stackelberg_solve(params)
            assert cell.feasible_count == int(res.feasible)
            if res.feasible:
                assert cell.mean_cloud_payoff == res.cloud_payoff
                assert cell.mean_share == res.share_star

    def test_phi_one_cell_matches_fifty_fifty_run(self):
        spec = SweepSpec(axis=AXIS_PHI, grid=(1.0,), scenarios=(FIFTY_FIFTY,),
                         population=SMALL_POP)
        [cell] = run_sweep(spec)
        providers = overridden(sample_providers(SMALL_POP), phi=1.0)
        feasible = [r for r in run_fifty_fifty(providers) if r.feasible]
        assert cell.feasible_count == len(feasible)
        if feasible:
            assert cell.mean_share == 0.5
            assert cell.mean_cloud_payoff == pytest.approx(
                math.fsum(r.cloud_payoff for r in feasible) / len(feasible), rel=1e-12)


# Outcome's per-row columns, all but the table it ran on.
OUTCOME_COLUMNS = tuple(name for name in Outcome._fields if name != "params")


def sweep_shape(spec):
    """(axis values, phi levels, providers): the shape a sweep's table broadcasts to."""
    levels = 1 if spec.axis == AXIS_PHI else len(spec.phi_levels)
    return len(spec.grid), levels, spec.population.n_providers


def sweep_cells(spec):
    """Per cell of the sweep: its (axis value, scenario, phi level), the kernel's
    Outcome over the broadcast table with every column materialized as one row
    per cell, and the cell's row index into those columns."""
    base, declared = sample_table(spec.population)
    shape = sweep_shape(spec)
    table = _sweep_table(base, spec.axis, spec.grid, spec.phi_levels)
    cells = ([(value, value) for value in spec.grid] if spec.axis == AXIS_PHI
             else [(value, level) for value in spec.grid for level in spec.phi_levels])
    for scenario in spec.scenarios:
        out = scenario_columns(scenario, table, declared, spec.mode)
        out = out._replace(**{
            name: np.broadcast_to(v, shape).reshape(len(cells), -1)
            for name in OUTCOME_COLUMNS if (v := getattr(out, name)) is not None})
        for j, (value, level) in enumerate(cells):
            yield (value, scenario, level), out, j


def tiled_table(base, axis, grid, levels):
    """The sweep table materialized row by row, the reference for the broadcast
    one: `base` tiled once per (axis value, phi level) cell, with each cell's
    axis and phi columns."""
    cells = ([(value, value) for value in grid] if axis == AXIS_PHI
             else [(value, level) for value in grid for level in levels])
    n = len(base)
    tiled = base.take(np.tile(np.arange(n), len(cells)))
    values = np.repeat([value for value, _ in cells], n)
    changes = {"phi": np.repeat([level for _, level in cells], n)}
    if axis == AXIS_ALPHA_BETA:
        changes["beta"] = values / tiled.alpha
    elif axis != AXIS_PHI:
        changes[axis] = values
    return dataclasses.replace(tiled, **changes)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("axis, n, seed", [
    *((axis, 7, 11) for axis in AXES), (AXIS_ALPHA_BETA, 300, 1729)])   # the last is fig4
def test_broadcast_table_matches_tiled_table(axis, n, seed, mode):
    # Every kernel gives, cell for cell, the same bytes over the broadcast table
    # as over the table tiled out row by row.
    spec = SweepSpec(axis=axis, population=PopulationSpec(n_providers=n, seed=seed), mode=mode)
    base, declared = sample_table(spec.population)
    shape = sweep_shape(spec)
    table = _sweep_table(base, axis, spec.grid, spec.phi_levels)
    tiled = tiled_table(base, axis, spec.grid, spec.phi_levels)
    assert len(tiled) == math.prod(shape)
    for scenario in SCENARIOS:
        out = scenario_columns(scenario, table, declared, mode)
        ref = scenario_columns(scenario, tiled, np.tile(declared, len(tiled) // n), mode)
        for name in OUTCOME_COLUMNS:
            got, want = getattr(out, name), getattr(ref, name)
            if want is None:
                assert got is None
            else:
                assert np.array_equal(np.broadcast_to(got, shape), want.reshape(shape),
                                      equal_nan=True), (scenario, name)
                if name != "feasible":   # the mean over every cell, up to summation order
                    mean = ref.feasible_mean(name)
                    assert out.feasible_mean(name) == (
                        None if mean is None else pytest.approx(mean, rel=1e-13)), (scenario, name)


def test_kernels_compute_only_what_varies():
    # On the fig4 table pay_as_you_go reads neither beta nor phi, and fifty_fifty
    # sets phi itself, so they run over the population and the 13 axis values.
    spec = SweepSpec(axis=AXIS_ALPHA_BETA, population=PopulationSpec(n_providers=300, seed=1729))
    base, declared = sample_table(spec.population)
    table = _sweep_table(base, spec.axis, spec.grid, spec.phi_levels)
    for scenario, size in {PAY_AS_YOU_GO: 300, FIFTY_FIFTY: 13 * 300}.items():
        out = scenario_columns(scenario, table, declared, MODE_DECLARED_PRICE)
        for name in OUTCOME_COLUMNS:
            if name != "share":   # fifty_fifty's fixed share is one (n,) column
                assert getattr(out, name).size == size, (scenario, name)
    out = scenario_columns(TWO_SIDED, table, declared, MODE_DECLARED_PRICE)
    assert out.feasible.size == 13 * len(DEFAULT_PHI_LEVELS) * 300
    # two_sided's share slice: log R and log K vary with the axis value and the
    # provider, not with phi, so they are not widened to the phi levels.
    (log_r, _, log_k, _), _ = _cloud_share_slice(declared, table, derive_coefficients(table))
    assert log_r.size == log_k.size == 13 * 300


def test_sweep_series_is_an_immutable_record():
    [cell, *_] = run_sweep(SweepSpec(axis=AXIS_GAMMA, population=PopulationSpec(n_providers=2)))
    with pytest.raises(AttributeError):
        cell.mean_share = 0.0
    assert cell._fields == (
        "axis", "axis_value", "scenario", "phi_level", "n_providers", "feasible_count",
        "mean_cloud_payoff", "mean_provider_payoff", "mean_demand", "mean_supply", "mean_share")


def exact_cell_means(spec):
    """Per cell: its feasible count and each column's mean over its feasible rows
    as math.fsum of them over the count (None without such rows or column)."""
    exact = {}
    for key, out, rows in sweep_cells(spec):
        feasible = out.feasible[rows]
        k = int(feasible.sum())
        exact[key] = k, {column: (math.fsum(getattr(out, column)[rows][feasible].tolist()) / k
                                  if k and getattr(out, column) is not None else None)
                         for column in MEAN_COLUMNS}
    return exact


@pytest.mark.parametrize("spec", [
    # sweep --preset fig4 at seed 1729, n=300
    SweepSpec(axis=AXIS_ALPHA_BETA, population=PopulationSpec(n_providers=300, seed=1729)),
    # fifty_fifty has cells with 0, 1 and 2 feasible rows here
    SweepSpec(axis=AXIS_GAMMA, population=PopulationSpec(n_providers=2, seed=1729)),
], ids=["fig4-n300", "gamma-n2"])
def test_cell_means_match_exact_sums(spec):
    exact = exact_cell_means(spec)
    series = run_sweep(spec)
    assert len(series) == len(exact)
    counts = set()
    for cell in series:
        k, means = exact[cell.axis_value, cell.scenario, cell.phi_level]
        assert cell.n_providers == spec.population.n_providers
        assert cell.feasible_count == k
        counts.add(k)
        for column, mean in means.items():
            got = getattr(cell, "mean_" + column)
            if mean is None:   # no feasible row, or pay_as_you_go's share
                assert got is None, (cell, column)
            else:
                assert type(got) is float
                assert got == pytest.approx(mean, rel=1e-15, abs=0.0), (cell, column)
    assert 0 in counts or spec.population.n_providers > 2


@settings(max_examples=25, deadline=None, derandomize=True)
@given(axis=st.sampled_from(AXES), mode=st.sampled_from(MODES),
       n=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
       value=st.floats(0.0, 1.0), level=st.floats(0.0, 5.0))
def test_sweep_means_are_finite_or_none(axis, mode, n, seed, value, level):
    lo, hi = AXIS_RANGES[axis]
    spec = SweepSpec(axis=axis, grid=(min(hi, lo + value * (hi - lo)),), phi_levels=(level,),
                     population=PopulationSpec(n_providers=n, seed=seed), mode=mode)
    for cell in run_sweep(spec):
        for name in ("mean_cloud_payoff", "mean_provider_payoff", "mean_demand",
                     "mean_supply", "mean_share"):
            mean = getattr(cell, name)
            assert mean is None or (type(mean) is float and math.isfinite(mean)), (
                cell, name)


def test_default_grid_contents():
    assert default_grid(AXIS_ALPHA_BETA)[0] == 0.1
    assert default_grid(AXIS_ALPHA_BETA)[-1] == 0.7
    assert default_grid(AXIS_K1) == (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
    with pytest.raises(ValueError):
        default_grid("beta")
