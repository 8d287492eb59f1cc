"""Tests for the three business-model runners and their means over feasible rows."""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tsm.cli import draw_reported_equilibria
from tsm.core import (
    DomainError,
    MarketParams,
    ParamTable,
    _cloud_payoff_arr,
    _cloud_share_slice,
    check_feasibility,
    cloud_payoff,
    consumer_demand_primitive,
    demand_reduced,
    derive_coefficients,
    provider_payoff,
    supply_reduced,
)
from tsm.equilibrium import SHARE_EPS, stackelberg_solve
from tsm.population import (
    AXIS_ALPHA_BETA,
    DEFAULT_PHI_LEVELS,
    PopulationSpec,
    _sweep_table,
    default_grid,
    sample_providers,
    sample_table,
)
from tsm.scenarios import (
    MODE_DECLARED_PRICE,
    MODE_EQUILIBRIUM,
    PAY_AS_YOU_GO,
    SCENARIOS,
    TWO_SIDED,
    Provider,
    _declared_share,
    payg_supply,
    run_fifty_fifty,
    run_pay_as_you_go,
    run_two_sided,
    scenario_columns,
)
from tsm import scenarios
from tests.test_equilibrium import FEASIBLE_PARAMS
from tests.test_tooling import workloads

POP = sample_providers(PopulationSpec(n_providers=40, seed=1729))


class TestTwoSided:
    def test_equilibrium_mode_delegates_to_solver(self):
        # One batch gives every game exactly what a batch of one gives it:
        # 20 reported equilibria of the verify sampler, then 20 games that
        # pass f1-f3 but whose share equation has no root.
        reported = draw_reported_equilibria(1730, 20)[0].params.rows()
        rootless = [p.params for p in sample_providers(PopulationSpec(seed=1729))
                    if check_feasibility(p.params).all_ok][:20]
        games = [FEASIBLE_PARAMS] + reported + rootless
        providers = [Provider(provider_id=i, params=p, declared_price=1.7)
                     for i, p in enumerate(games)]
        records = run_two_sided(providers, mode=MODE_EQUILIBRIUM)
        assert len(rootless) == 20
        for i, (rec, params) in enumerate(zip(records, games)):
            res = stackelberg_solve(params)
            assert rec.feasible == res.feasible == (i <= len(reported))
            assert rec.price == res.price_star
            assert rec.share == res.share_star
            assert rec.demand == res.demand
            assert rec.supply == res.supply
            if res.feasible:
                assert rec.provider_payoff == res.provider_payoff
                assert rec.cloud_payoff == res.cloud_payoff

    def test_infeasible_records_zeroed_and_counted(self):
        records = run_two_sided(POP, mode=MODE_EQUILIBRIUM)
        assert len(records) == len(POP)
        infeasible = [r for r in records if not r.feasible]
        assert infeasible   # weak-externality draws dominate the population
        for r in infeasible:
            assert r.provider_payoff == 0.0 and r.cloud_payoff == 0.0
            assert r.price is None and r.share is None

    def test_declared_price_phi_zero_pushes_share_to_upper_boundary(self):
        # with phi = 0 the platform payoff is linear in the share
        params = dataclasses.replace(FEASIBLE_PARAMS, phi=0.0)
        prov = Provider(provider_id=0, params=params, declared_price=1.7)
        [rec] = run_two_sided([prov], mode=MODE_DECLARED_PRICE)
        assert rec.share >= 1.0 - 1e-6

    def test_declared_price_share_maximizes_platform_payoff(self):
        records = run_two_sided(POP[:12], mode=MODE_DECLARED_PRICE)
        for rec in records:
            best = rec.cloud_payoff
            for chi in np.linspace(1e-6, 1 - 1e-6, 500):
                assert cloud_payoff(rec.price, float(chi), rec.params) <= best + 1e-9

    def test_declared_price_edges_raise_no_warning(self):
        edges = [dataclasses.replace(FEASIBLE_PARAMS, f_s=0.0),
                 dataclasses.replace(FEASIBLE_PARAMS, phi=0.0),
                 dataclasses.replace(FEASIBLE_PARAMS, f_s=0.0, phi=0.0)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            records = run_two_sided([Provider(i, p, 1.7) for i, p in enumerate(edges)],
                                    mode=MODE_DECLARED_PRICE)
        # the payoff rises in the share without a cost term or a share effect
        assert all(r.share == 1.0 - 1e-9 for r in records)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        shuffled = list(POP)
        rng.shuffle(shuffled)
        for mode in (MODE_EQUILIBRIUM, MODE_DECLARED_PRICE):
            assert run_two_sided(POP, mode=mode) == run_two_sided(shuffled, mode=mode)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            run_two_sided(POP, mode="declared")

    def test_empty_population_rejected(self):
        with pytest.raises(ValueError):
            run_two_sided([])


def golden_max(f, lo, hi, iters):
    """Golden-section maximization of f over [lo, hi]."""
    a, b = lo, hi
    for _ in range(iters):
        h = b - a
        c, d = a + 0.3819660112501051 * h, a + 0.6180339887498949 * h
        if f(c) >= f(d):
            b = d
        else:
            a = c
    return 0.5 * (a + b)


# The numeric search the closed-form declared-price share replaced, kept as
# an independent oracle: a 768-point scan over (eps, 1-eps), then golden
# section inside the cells around the coarse argmax.
SHARE_SCAN = np.unique(np.concatenate([
    np.geomspace(1e-9, 0.5, 256),
    1.0 - np.geomspace(1e-9, 0.5, 256),
    np.linspace(1e-9, 1.0 - 1e-9, 256),
]))


def searched_share(price, params):
    c = derive_coefficients(params)

    def payoff(share):
        return _cloud_payoff_arr(price, share, params, c)

    j = int(np.argmax(payoff(SHARE_SCAN)))
    lo = SHARE_SCAN[max(j - 1, 0)]
    hi = SHARE_SCAN[min(j + 1, SHARE_SCAN.size - 1)]
    refined = float(golden_max(payoff, lo, hi, iters=48))
    coarse = float(SHARE_SCAN[j])
    return refined if payoff(refined) >= payoff(coarse) else coarse


@st.composite
def declared_games(draw):
    alpha = draw(st.floats(0.05, 0.95))
    product = draw(st.one_of(st.floats(0.001, 0.99), st.floats(0.99, 0.99899)))
    try:
        params = MarketParams(
            alpha=alpha, beta=product / alpha,
            gamma=draw(st.floats(0.0, 1.0)), psi=draw(st.floats(0.0, 0.35)),
            phi=draw(st.one_of(st.just(0.0), st.floats(0.0, 5.0))),
            k1=draw(st.floats(0.05, 1.0)), f_c=draw(st.floats(0.0, 2.0)),
            k2=draw(st.floats(0.5, 2.0)),
            f_s=draw(st.one_of(st.just(0.0), st.floats(0.0, 50.0))),
        )
    except DomainError:
        assume(False)
    return params, draw(st.floats(0.2, 3.2))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(declared_games())
def test_closed_form_share_matches_numeric_search(game):
    params, price = game
    with np.errstate(over="ignore", invalid="ignore"):
        pay = _cloud_payoff_arr(price, SHARE_SCAN, params, derive_coefficients(params))
    assume(np.all(np.isfinite(pay)))  # the model overflows double range
    # The kernel's columns, not a record: supply alone may overflow where
    # f_s = 0, which makes the row infeasible and its record's payoffs 0.0.
    with np.errstate(over="ignore"):
        out = scenario_columns(TWO_SIDED, ParamTable.from_params([params]),
                               np.array([price]), MODE_DECLARED_PRICE)
    share = searched_share(price, params)
    searched = cloud_payoff(price, share, params)
    assert out.cloud_payoff[0] >= searched - 1e-12 * abs(searched)
    # Shares can only be ranked where the payoff over the share domain is a
    # normal number and varies beyond rounding: a tiny R*s^e1 next to a
    # huge K*s^e2, or a payoff in the subnormals, is flat in floating point.
    scale = np.abs(pay).max()
    if scale >= np.finfo(float).tiny and np.ptp(pay) > 1e-6 * scale:
        assert out.share[0] == pytest.approx(share, abs=1e-6)


@pytest.mark.parametrize("seed", workloads.INPUT_SEEDS)
def test_declared_share_ranks_as_the_full_payoff(seed):
    # The fig4 sweep's broadcast table: _declared_share ranks s* and the upper
    # endpoint on the share slice; ranking s*, the lower and the upper endpoint
    # by the full platform payoff must pick the same share.
    base, price = sample_table(PopulationSpec(n_providers=300, seed=seed))
    t = _sweep_table(base, AXIS_ALPHA_BETA, default_grid(AXIS_ALPHA_BETA), DEFAULT_PHI_LEVELS)
    c = derive_coefficients(t)
    with np.errstate(all="ignore"):
        share = _declared_share(price, t, c)
        (log_r, e1, log_k, e2), _ = _cloud_share_slice(price, t, c)
        s_star = np.exp((np.log(e1) + log_r - np.log(e2) - log_k) / (e2 - e1))
        lo, hi = SHARE_EPS, 1.0 - SHARE_EPS
        candidates = np.stack(np.broadcast_arrays(
            np.where(e2 > e1, np.clip(s_star, lo, hi), lo), lo, hi))
        payoff = _cloud_payoff_arr(price, candidates, t, c)
    best = np.argmax(payoff, axis=0)
    assert candidates.shape == (3, 13, len(DEFAULT_PHI_LEVELS), 300)
    assert np.array_equal(share, np.take_along_axis(candidates, best[None], 0)[0])
    # The lower endpoint never beats the first candidate, so it need not be ranked.
    assert not np.any(payoff[1] > payoff[0])
    # Both an interior s* and the upper endpoint win in some rows.
    assert np.any((best == 0) & (lo < share) & (share < hi)) and np.any(best == 2)


def test_declared_share_picks_as_argmax_does(monkeypatch):
    # Crafted slices with s* = 0.5 in every row (R = K = 1, e1 = 1, e2 = 2) and
    # set payoffs at s* and at the upper end. As argmax over (s*, upper end),
    # s* wins a tie and wherever its payoff is NaN; the upper end wins where it
    # pays more, or where only its payoff is NaN.
    top = 1.0 - SHARE_EPS
    at_star = np.array([1.0, np.nan, 1.0, np.nan, 1.0, 2.0])
    at_top = np.array([1.0, 1.0, np.nan, np.nan, 2.0, 1.0])
    terms = (np.zeros(6), np.ones(6), np.zeros(6), np.full(6, 2.0))
    monkeypatch.setattr(scenarios, "_cloud_share_slice", lambda price, t, c: (
        terms, lambda s: np.where(np.asarray(s) == top, at_top, at_star)))
    share = _declared_share(None, None, None)
    assert np.array_equal(share, [0.5, 0.5, top, 0.5, top, 0.5])


def test_non_finite_rows_are_infeasible():
    # At declared price 0.25 this game's fifty_fifty demand overflows and its
    # payoffs are NaN, as are two_sided's declared-price payoffs.
    params = MarketParams(alpha=0.5, beta=1.99609375, gamma=1.0, psi=0.0, phi=0.0,
                          k1=1.0, k2=2.0, f_c=0.0, f_s=0.0)
    for mode in (MODE_EQUILIBRIUM, MODE_DECLARED_PRICE):
        for name in SCENARIOS:
            with np.errstate(all="ignore"):
                out = scenario_columns(name, ParamTable.from_params([params]),
                                       np.array([0.25]), mode)
            for column in ("price", "share", "demand", "supply", "provider_payoff",
                           "cloud_payoff"):
                values = getattr(out, column)
                if values is not None:
                    assert not out.feasible[0] or np.isfinite(values[0]), (mode, name)
                mean = out.feasible_mean(column)
                assert mean is None or np.isfinite(mean), (mode, name, column)


def test_unknown_mode_rejected_by_every_kernel():
    # A mode that is neither is refused, not run as declared-price.
    table, price = ParamTable.from_params([FEASIBLE_PARAMS]), np.array([1.7])
    for name in SCENARIOS:
        with pytest.raises(ValueError, match="unknown mode 'bogus'"):
            scenario_columns(name, table, price, "bogus")


class TestFiftyFifty:
    def test_price_formula_at_half_share(self):
        prov = Provider(provider_id=0, params=FEASIBLE_PARAMS, declared_price=1.7)
        [rec] = run_fifty_fifty([prov])
        params = dataclasses.replace(FEASIBLE_PARAMS, phi=1.0)
        c = derive_coefficients(params)
        assert rec.feasible
        assert rec.price == pytest.approx(2.0 * c.a1 * params.f_c / (c.a1 - c.a2),
                                          rel=1e-12)
        assert rec.share == 0.5
        assert rec.params.phi == 1.0

    def test_f2_violation_flags_record(self):
        weak = MarketParams(alpha=0.5, beta=1.0, gamma=0.3, psi=0.1, phi=2.0,
                            k1=0.5, f_c=1.0)
        [rec] = run_fifty_fifty([Provider(0, weak, 1.7)])
        assert not rec.feasible
        assert rec.provider_payoff == 0.0 and rec.cloud_payoff == 0.0
        assert rec.share == 0.5

    def test_grid_argmax_confirms_price(self):
        [rec] = run_fifty_fifty([Provider(0, FEASIBLE_PARAMS, 1.7)])
        params = rec.params
        # break-even price at share 0.5 is 2*f_c
        grid = np.geomspace(params.f_c * 2.0 * (1 + 1e-9), params.f_c * 2e3, 50_000)
        payoffs = [provider_payoff(float(x), 0.5, params) for x in grid]
        best = grid[int(np.argmax(payoffs))]
        step = grid[1] / grid[0]
        assert best / step <= rec.price <= best * step

    def test_consistent_with_reduced_forms(self):
        for rec in run_fifty_fifty(POP):
            if not rec.feasible:
                continue
            assert rec.demand == pytest.approx(
                demand_reduced(rec.price, 0.5, rec.params), rel=1e-12)
            assert rec.supply == pytest.approx(
                supply_reduced(rec.price, 0.5, rec.params), rel=1e-12)


class TestPayAsYouGo:
    def test_closed_case(self):
        params = MarketParams(alpha=0.5, beta=1.0, gamma=0.0, psi=0.1, phi=1.0,
                              k1=1.0, f_c=1.0, p_s=1.0)
        assert payg_supply(2.0, params) == pytest.approx(0.25, abs=1e-15)
        [rec] = run_pay_as_you_go([Provider(0, params, 2.0)])
        assert rec.supply == pytest.approx(0.25, abs=1e-15)
        assert rec.share is None

    def test_zero_margin_platform(self):
        params = dataclasses.replace(FEASIBLE_PARAMS, p_s=23.7, f_s=23.7)
        [rec] = run_pay_as_you_go([Provider(0, params, 1.7)])
        assert rec.cloud_payoff == 0.0

    def test_price_below_cost_flagged(self):
        params = dataclasses.replace(FEASIBLE_PARAMS, f_c=2.0)
        [rec] = run_pay_as_you_go([Provider(0, params, 1.5)])
        assert not rec.feasible

    def test_supply_satisfies_first_order_condition(self):
        rng = np.random.default_rng(37)
        for prov in POP:
            params, price = prov.params, prov.declared_price
            supply = payg_supply(price, params)
            h = 1e-6 * supply

            def payoff(ds):
                return ((price - params.f_c)
                        * consumer_demand_primitive(price, ds, params)
                        - params.p_s * ds)

            slope = (payoff(supply + h) - payoff(supply - h)) / (2 * h)
            scale = max(params.p_s * supply, (price - params.f_c)
                        * consumer_demand_primitive(price, supply, params))
            assert abs(slope) * supply / scale <= 1e-6

    def test_supply_column_matches_batches_of_one(self):
        covered = [prov for prov in POP if prov.declared_price > prov.params.f_c]
        column = payg_supply(np.array([prov.declared_price for prov in covered]),
                             ParamTable.from_params([prov.params for prov in covered]))
        assert len(covered) > 20
        for prov, got in zip(covered, column):
            one = payg_supply(prov.declared_price, prov.params)
            assert type(one) is np.float64 and one.tobytes() == got.tobytes()

    def test_uncovered_price_is_named(self):
        params = dataclasses.replace(FEASIBLE_PARAMS, f_c=2.0)
        message = r"^price 1\.5 does not cover f_c 2\.0$"
        with pytest.raises(ValueError, match=message):
            payg_supply(1.5, params)
        with pytest.raises(ValueError, match=message):   # the first uncovered row
            payg_supply(np.array([2.5, 1.5, 1.0]), ParamTable.from_params([params] * 3))

    def test_supply_decreasing_in_rental_rate(self):
        for prov in POP[:10]:
            lo = payg_supply(prov.declared_price,
                             dataclasses.replace(prov.params, p_s=20.0))
            hi = payg_supply(prov.declared_price,
                             dataclasses.replace(prov.params, p_s=40.0))
            assert hi < lo


class TestRecordConsistency:
    def test_all_scenarios_reproducible_from_snapshot(self):
        # every feasible record's outputs re-derive from (price, share, params)
        records = (run_two_sided(POP, mode=MODE_DECLARED_PRICE)
                   + run_fifty_fifty(POP) + run_pay_as_you_go(POP))
        for rec in records:
            if not rec.feasible:
                continue
            if rec.scenario == PAY_AS_YOU_GO:
                supply = payg_supply(rec.price, rec.params)
                demand = consumer_demand_primitive(rec.price, supply, rec.params)
                prov = (rec.price - rec.params.f_c) * demand - rec.params.p_s * supply
                cloud = (rec.params.p_s - rec.params.f_s) * supply
            else:
                demand = demand_reduced(rec.price, rec.share, rec.params)
                supply = supply_reduced(rec.price, rec.share, rec.params)
                prov = provider_payoff(rec.price, rec.share, rec.params)
                cloud = cloud_payoff(rec.price, rec.share, rec.params)
            # the kernels and the scalar calls share one implementation
            assert (rec.demand, rec.supply) == (demand, supply)
            assert (rec.provider_payoff, rec.cloud_payoff) == (prov, cloud)


class TestCompare:
    """The comparison's one statistic: `Outcome.feasible_mean`."""

    def test_empty_feasible_set(self):
        weak = MarketParams(alpha=0.5, beta=1.0, gamma=0.3, psi=0.1, phi=2.0,
                            k1=0.5, f_c=1.0)
        out = scenario_columns(TWO_SIDED, ParamTable.from_params([weak]), np.array([1.7]),
                               MODE_EQUILIBRIUM)
        assert not out.feasible.any()
        assert out.feasible_mean("cloud_payoff") is None
        assert out.feasible_mean("provider_payoff") is None

    def test_overflowing_sums_keep_a_finite_mean(self):
        # Every feasible row is finite, but the sums of pay_as_you_go's provider
        # payoffs and demands overflow; their means are rescaled.
        spec = PopulationSpec(k1_min=1.0e150, k1_max=2.0e150, n_providers=2000, seed=1)
        table, price = sample_table(spec)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = scenario_columns(PAY_AS_YOU_GO, table, price, MODE_DECLARED_PRICE)
            means = {column: out.feasible_mean(column)
                     for column in ("provider_payoff", "demand", "cloud_payoff", "supply")}
        assert all(np.isfinite(mean) for mean in means.values()), means
        assert means["provider_payoff"] == pytest.approx(1.1156e305, rel=1e-4)
        with np.errstate(over="ignore"):
            assert np.sum(out.provider_payoff[out.feasible]) == np.inf
