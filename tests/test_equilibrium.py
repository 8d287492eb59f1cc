"""Tests for best responses, the share-equation solver, and the oracle."""

import dataclasses
import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tsm import equilibrium
from tsm.core import (
    Coefficients,
    DomainError,
    MarketParams,
    ParamTable,
    _cloud_payoff_arr,
    _cloud_share_slice,
    _provider_payoff_arr,
    check_domain,
    check_feasibility,
    cloud_payoff,
    demand_reduced,
    derive_coefficients,
    provider_payoff,
    supply_reduced,
)
from tsm.cli import draw_reported_equilibria, sample_table_params
from tsm.population import AXIS_PHI, AXIS_RANGES, PopulationSpec
from tsm.equilibrium import (
    SHARE_EPS,
    OracleEquilibrium,
    _best_price_unchecked,
    _bisect_peak,
    _price_markup,
    _price_slice,
    _response_below,
    _share_brackets,
    _share_equation_columns,
    _share_gap,
    _share_roots,
    _Slope,
    first_order_residuals,
    has_share_root,
    oracle_equilibrium,
    second_order_check,
    solve_share,
    stackelberg_solve,
)
from tsm.scenarios import MODE_EQUILIBRIUM, TWO_SIDED, scenario_columns

# A parameter draw whose game has a reported equilibrium (frozen; found by
# scanning the simulation-setup ranges).
FEASIBLE_PARAMS = MarketParams(
    alpha=0.4157495017341835, beta=2.0116927898597186, gamma=0.2746010273260006,
    psi=0.1, phi=0.4281244537440676, k1=0.8706127934353941,
    f_c=0.4668312747528217,
)
# f2 fails here (weak externalities make a1/a2 < 1).
INFEASIBLE_PARAMS = MarketParams(
    alpha=0.5, beta=1.0, gamma=0.3, psi=0.1, phi=2.0, k1=0.5, f_c=1.0,
)
# Strong externalities, all flags pass, but the share equation has no root.
NO_ROOT_PARAMS = MarketParams(
    alpha=0.434, beta=1.916, gamma=0.301, psi=0.1, phi=1.442, k1=0.410,
    f_c=0.66 * 1.11,
)


def best_price(share, p: MarketParams):
    return _best_price_unchecked(share, derive_coefficients(p), p.f_c)


def share_equation(p: MarketParams):
    """(exp_a, exp_b, log_rhs_c) of one game's share equation."""
    return _share_equation_columns(p, derive_coefficients(p))


def solved(p: MarketParams):
    """(number of roots, share, residual) from the column solver, for one game."""
    return solve_share(ParamTable.from_params([p]))[:, 0]


def found_roots(exp_a, exp_b, log_c) -> list[float]:
    roots = _share_roots(exp_a, exp_b, log_c)[:, 0]
    return roots[~np.isnan(roots)].tolist()


class TestProviderBestPrice:
    def test_direct_substitution(self):
        # a1=2, a2=1, f_c=1, share=0.5 -> 4; exact on the raw formula
        c = Coefficients(a1=2.0, a2=1.0, a3=0.0, a4=0.0)
        assert _best_price_unchecked(0.5, c, 1.0) == 4.0
        # and through validated params approaching that coefficient corner
        p = MarketParams(alpha=1e-3, beta=1e-3, gamma=2.0, psi=0.0, phi=2.0,
                         k1=0.5, f_c=1.0)
        assert best_price(0.5, p) == pytest.approx(4.0, rel=1e-5)

    def test_share_zero_boundary_is_curve_minimum(self):
        p = FEASIBLE_PARAMS
        c = derive_coefficients(p)
        floor = c.a1 * p.f_c / (c.a1 - c.a2)
        assert best_price(1e-12, p) == pytest.approx(floor, rel=1e-9)
        for share in (0.1, 0.5, 0.9):
            assert best_price(share, p) > floor

    def test_strictly_increasing_in_share(self):
        p = FEASIBLE_PARAMS
        shares = np.linspace(0.01, 0.99, 60)
        prices = [best_price(s, p) for s in shares]
        assert all(b > a for a, b in zip(prices, prices[1:]))

    def test_grid_argmax_oracle(self):
        # brute-force argmax of the provider payoff brackets the formula
        p = FEASIBLE_PARAMS
        share = 0.31
        grid = np.geomspace(p.f_c / (1 - share) * (1 + 1e-9),
                            p.f_c / (1 - share) * 1e3, 100_000)
        payoffs = [provider_payoff(float(x), share, p) for x in grid]
        best = grid[int(np.argmax(payoffs))]
        formula = best_price(share, p)
        step = grid[1] / grid[0]
        assert best / step <= formula <= best * step


class TestShareEquation:
    def test_symmetric_multipliers_drop_out(self):
        # k1 = k2 = 1 and beta = alpha make the multiplier factor 1
        p = MarketParams(alpha=0.7, beta=0.7, gamma=0.8, psi=0.0, phi=3.0,
                         k1=1.0, k2=1.0, f_c=0.4, f_s=2.0)
        c = derive_coefficients(p)
        _, exp_b, log_c = share_equation(p)
        expected = (p.f_s * (p.phi / (c.a4 + c.a2))
                    * (c.a1 * p.f_c / (c.a1 - c.a2)) ** exp_b)
        assert math.exp(log_c) == pytest.approx(expected, rel=1e-12)

    def test_phi_zero_limit(self):
        _, _, log_c = share_equation(MarketParams(
            alpha=0.7, beta=0.7, gamma=0.8, psi=0.0, phi=0.0, k1=1.0,
            f_c=0.4))
        assert math.exp(log_c) == 0.0

    def test_log_space_oracle(self):
        # direct product arithmetic agrees with the log-space constant
        rng = np.random.default_rng(5)
        checked = 0
        while checked < 40:
            alpha = rng.uniform(0.1, 0.7)
            p = MarketParams(
                alpha=alpha, beta=rng.uniform(1e-3, 0.99) / alpha,
                gamma=rng.uniform(0.1, 0.35), psi=0.1,
                phi=rng.uniform(0.1, 5.0), k1=rng.uniform(0.1, 0.9),
                f_c=rng.uniform(0.2, 2.0),
            )
            if not check_feasibility(p).f1_price_positive:
                continue
            checked += 1
            c = derive_coefficients(p)
            _, exp_b, log_c = share_equation(p)
            direct = (p.f_s * (p.phi / (c.a4 + c.a2))
                      * ((p.k2 * p.k1 ** p.beta) / (p.k1 * p.k2 ** p.alpha))
                      ** (1.0 / c.a2)
                      * (c.a1 * p.f_c / (c.a1 - c.a2)) ** exp_b)
            if not (1e-250 < direct < 1e250):
                continue
            assert math.exp(log_c) == pytest.approx(direct, rel=1e-12)

    def test_rhs_positive_under_f1(self):
        _, _, log_c = share_equation(FEASIBLE_PARAMS)
        assert math.exp(log_c) > 0.0


class TestSolveShare:
    def test_closed_form_special_case(self):
        # chi^-1 = 2  =>  chi* = 0.5
        roots = found_roots(-1.0, 0.0, math.log(2.0))
        assert len(roots) == 1
        assert roots[0] == pytest.approx(0.5, abs=1e-10)

    def test_monotone_case_single_root(self):
        # B > 0 with A < 0 makes chi^A (1-chi)^B strictly decreasing
        p = MarketParams(alpha=0.5, beta=1.9, gamma=0.1, psi=0.35, phi=2.0,
                         k1=0.5, f_c=1.0)
        exp_a, exp_b, log_c = share_equation(p)
        assert exp_a < 0.0 and exp_b > 0.0
        assert len(found_roots(exp_a, exp_b, log_c)) == 1

    def test_nonnegative_exp_a_has_no_root(self):
        # A >= 0 fails f3; chi^0.5 (1-chi) stays below 1 on (0, 1)
        assert found_roots(0.5, 1.0, 0.0) == []

    def test_no_root_is_data(self):
        n_roots, share, residual = solved(NO_ROOT_PARAMS)
        assert n_roots == 0
        assert math.isnan(share) and math.isnan(residual)

    def test_residual_oracle(self):
        exp_a, exp_b, log_c = share_equation(FEASIBLE_PARAMS)
        n_roots, share, residual = solved(FEASIBLE_PARAMS)
        assert n_roots >= 1
        g = share ** exp_a * (1.0 - share) ** exp_b
        assert abs(g - math.exp(log_c)) <= 1e-8
        assert residual <= 1e-8

    def test_numeraire_rescaling_recomputed(self):
        # scaling f_s and f_c together moves the equation's constant and
        # hence the root (here the rescaled game has none); the solve
        # responds rather than caching
        scaled = dataclasses.replace(FEASIBLE_PARAMS,
                                     f_s=3.0 * FEASIBLE_PARAMS.f_s,
                                     f_c=3.0 * FEASIBLE_PARAMS.f_c)
        base, moved, again = solved(FEASIBLE_PARAMS), solved(scaled), solved(scaled)
        assert np.array_equal(moved, again, equal_nan=True)
        assert moved[1] != base[1]

    def test_payoff_maximizing_root_selected(self):
        n_roots, share, _ = solved(FEASIBLE_PARAMS)
        roots = found_roots(*share_equation(FEASIBLE_PARAMS))
        assert n_roots == len(roots) == 2
        payoffs = [cloud_payoff(best_price(r, FEASIBLE_PARAMS), r, FEASIBLE_PARAMS)
                   for r in roots]
        assert share == roots[int(np.argmax(payoffs))]


# The solver the analytic brackets replaced, kept as an independent oracle:
# sign changes of the log form on a 6,144-point scan of (eps, 1-eps), each
# bisected to a 1e-13 bracket and Newton-polished inside it.
SCAN_GRID = np.unique(np.concatenate([
    np.geomspace(SHARE_EPS, 0.5, 2048),
    1.0 - np.geomspace(SHARE_EPS, 0.5, 2048),
    np.linspace(SHARE_EPS, 1.0 - SHARE_EPS, 2048),
]))


def scanned_roots(exp_a, exp_b, log_c):
    if not math.isfinite(log_c):
        return []

    def f(chi):
        return exp_a * np.log(chi) + exp_b * np.log1p(-chi) - log_c

    vals = f(SCAN_GRID)
    sign = np.sign(vals)
    roots = [float(SCAN_GRID[i]) for i in np.nonzero(vals == 0.0)[0]]
    for i in np.nonzero(sign[:-1] * sign[1:] < 0)[0]:
        lo, hi = float(SCAN_GRID[i]), float(SCAN_GRID[i + 1])
        flo = float(vals[i])
        while hi - lo > 1e-13:
            mid = 0.5 * (lo + hi)
            fmid = float(f(mid))
            if (fmid < 0.0) == (flo < 0.0):
                lo, flo = mid, fmid
            else:
                hi = mid
        root = 0.5 * (lo + hi)
        for _ in range(3):
            deriv = exp_a / root - exp_b / (1.0 - root)
            if deriv == 0.0:
                break
            cand = root - float(f(root)) / deriv
            if lo < cand < hi:
                root = cand
        roots.append(root)
    return sorted(roots)


@st.composite
def share_games(draw):
    alpha = draw(st.floats(0.05, 0.95))
    product = draw(st.one_of(st.floats(0.001, 0.99), st.floats(0.99, 0.99899)))
    values = dict(
        alpha=alpha, beta=product / alpha,
        gamma=draw(st.floats(0.0, 1.0)), psi=draw(st.floats(0.0, 0.35)),
        phi=draw(st.floats(0.0, 5.0)), k1=draw(st.floats(0.05, 1.0)),
        k2=draw(st.floats(0.5, 2.0)), f_c=draw(st.floats(0.0, 2.0)),
        f_s=10.0 ** draw(st.floats(-6.0, 6.0)),
    )
    # Now and then one of the degenerate limits, where C collapses to zero.
    zero = draw(st.sampled_from((None,) * 5 + ("phi", "f_c", "f_s")))
    if zero:
        values[zero] = 0.0
    try:
        params = MarketParams(**values)
    except DomainError:
        assume(False)
    assume(check_feasibility(params).f1_price_positive)
    return params


@settings(max_examples=400, deadline=None, derandomize=True)
@given(share_games())
def test_bracketed_roots_match_scan(params):
    # The solver reports only games passing f1-f3; the brackets find the
    # roots wherever f3 holds.
    flags = check_feasibility(params)
    n_roots, share, _ = solved(params)
    if not flags.all_ok:
        assert n_roots == 0 and math.isnan(share)
    if not flags.f3_share_max:   # always so at phi = 0
        return
    equation = share_equation(params)
    roots, scanned = found_roots(*equation), scanned_roots(*equation)
    assert roots == pytest.approx(scanned, abs=1e-10)
    if flags.all_ok:
        assert n_roots == len(scanned)
    if scanned and flags.all_ok:
        payoffs = [cloud_payoff(best_price(r, params), r, params) for r in scanned]
        assert share == pytest.approx(scanned[int(np.argmax(payoffs))], abs=1e-10)


class TestStackelbergSolve:
    def test_flag_failure_propagates(self):
        res = stackelberg_solve(INFEASIBLE_PARAMS)
        assert not res.feasible
        assert res.price_star is None
        assert res.share_roots_found == 0

    def test_no_root_flagged_infeasible(self):
        res = stackelberg_solve(NO_ROOT_PARAMS)
        assert not res.feasible
        assert res.feasibility.all_ok       # flags pass; the equation is rootless
        assert res.share_roots_found == 0

    def test_reported_equilibrium_fields(self):
        res = stackelberg_solve(FEASIBLE_PARAMS)
        assert res.feasible
        assert res.share_star == pytest.approx(0.30666015686409254, abs=1e-9)
        assert res.price_star == pytest.approx(
            best_price(res.share_star, FEASIBLE_PARAMS), rel=1e-10)
        assert res.demand == demand_reduced(res.price_star, res.share_star,
                                            FEASIBLE_PARAMS)
        assert res.supply == supply_reduced(res.price_star, res.share_star,
                                            FEASIBLE_PARAMS)
        assert res.residual <= 1e-8

    def test_first_order_conditions(self):
        res = stackelberg_solve(FEASIBLE_PARAMS)
        foc_price, foc_share = first_order_residuals(FEASIBLE_PARAMS, res.price_star,
                                                     res.share_star)
        assert foc_price <= 1e-6
        assert foc_share <= 1e-6

    def test_determinism(self):
        assert stackelberg_solve(FEASIBLE_PARAMS) == stackelberg_solve(FEASIBLE_PARAMS)


def oracle_of_one(p: MarketParams, grid_n: int) -> OracleEquilibrium:
    """The oracle's row for one game, searched as a batch of one."""
    return OracleEquilibrium(*(v[0] for v in oracle_equilibrium(
        ParamTable.from_params([p]), grid_n=grid_n)))


class TestOracle:
    def test_agrees_with_closed_form(self):
        res = stackelberg_solve(FEASIBLE_PARAMS)
        oracle = oracle_of_one(FEASIBLE_PARAMS, grid_n=2000)
        assert abs(oracle.share - res.share_star) <= 2.0 / 2000
        assert abs(oracle.price - res.price_star) / res.price_star <= 2.0 / 2000
        assert oracle.n_candidates >= 1

    def test_degenerate_zero_cost_has_no_fixed_point(self):
        # f_s = 0 and phi > a4 + a2: payoff strictly increasing in share, so the
        # best share is the window's upper end and no interior share is a fixed point
        p = MarketParams(alpha=0.4, beta=1.2, gamma=0.3, psi=0.1, phi=3.0,
                         k1=0.5, f_c=1.0, f_s=0.0)
        oracle = oracle_of_one(p, grid_n=500)
        assert oracle.n_candidates == 0
        assert np.isnan(oracle.price) and np.isnan(oracle.share)

    def test_grid_n_validated(self):
        with pytest.raises(DomainError):
            oracle_equilibrium(ParamTable.from_params([FEASIBLE_PARAMS]), grid_n=50)

    def test_market_params_refused_up_front(self):
        # Before the grid_n check, and before the f_c check, which a MarketParams passes.
        for grid_n in (2000, 50):
            with pytest.raises(TypeError, match=r"ParamTable\.from_params\(\[p\]\)"):
                oracle_equilibrium(FEASIBLE_PARAMS, grid_n=grid_n)

    def test_table_rows_match_batches_of_one(self):
        games = [FEASIBLE_PARAMS, NO_ROOT_PARAMS, dataclasses.replace(FEASIBLE_PARAMS, f_s=0.0)]
        batch = oracle_equilibrium(ParamTable.from_params(games), grid_n=500)
        for i, p in enumerate(games):
            one = oracle_of_one(p, grid_n=500)
            assert batch.n_candidates[i] == one.n_candidates
            assert batch.share[i] == pytest.approx(one.share, rel=1e-12, nan_ok=True)
            assert batch.price[i] == pytest.approx(one.price, rel=1e-12, nan_ok=True)

    def test_candidates_are_the_closed_form_roots_in_window(self):
        # Each interior fixed point is found once: the oracle's count equals
        # the share equation's roots strictly inside its interior window. In
        # a few of the extreme games the platform payoff underflows over the
        # whole share scan, which must add no candidate.
        games = [*draw_reported_equilibria(1730, 50)[0].params.rows(),
                 *(p for p, _ in extreme_games(0, 60))]
        table = ParamTable.from_params(games)
        oracle = oracle_equilibrium(table)
        roots = _share_roots(*_share_equation_columns(table, derive_coefficients(table)))
        for p, found, pair in zip(games, oracle.n_candidates, roots.T):
            assert found == sum(in_oracle_window(r) for r in pair), p

    @pytest.mark.parametrize("block_rows", [2 * 401, 16, 2])
    def test_block_size_does_not_change_results(self, monkeypatch, block_rows):
        # 2 * 401 puts two games' 401 probes in each probe block; 16 puts one
        # game in each and splits the brackets over several bisection blocks;
        # 2 leaves one bracket in each block.
        params = draw_reported_equilibria(1730, 20)[0].params
        default = oracle_equilibrium(params)
        monkeypatch.setattr(equilibrium, "ORACLE_BLOCK_ROWS", block_rows)
        blocked = oracle_equilibrium(params)
        for field in ("price", "share", "n_candidates"):
            assert np.array_equal(getattr(blocked, field), getattr(default, field)), field


def oracle_digest(oracle) -> str:
    """sha256 over the bytes of the oracle's four columns, in field order."""
    digest = hashlib.sha256()
    for name in oracle._fields:
        digest.update(np.ascontiguousarray(getattr(oracle, name)).tobytes())
    return digest.hexdigest()


class TestOracleEquilibrium:
    # Recorded from the oracle that bisected the price slice at every share it
    # probed: searching the markup once per game must keep every bit. Seeds 12
    # and 24 (the sampler seeds of the benchmark's tsm seeds 11 and 23) were
    # recorded from the oracle that bisected each best share until its side of
    # chi was known. All four were recorded before the best share's side was
    # read from the share slope's signs, and hold with it.
    REPORTED = {
        1730: "13863424cef87d84d01479ec509b4daa36eb2e241bc9074b22005526da9881dd",
        8: "e69acfc440e992852985e134c463e71af99ab0ad2f8dd496f8d8f6adf7258158",
        12: "6c9620cbbbfea9a0001922ee601578f056a99beb2ded52aea1e707991280609e",
        24: "0bc83dbd19fd4d3fee29a2b72175c74807bbccffdbbbac8acdbf9f7e33228f82",
    }

    @pytest.mark.parametrize("seed", sorted(REPORTED))
    def test_outputs_are_pinned(self, seed):
        oracle = oracle_equilibrium(draw_reported_equilibria(seed, 200)[0].params, grid_n=2000)
        assert oracle_digest(oracle) == self.REPORTED[seed]

    def test_games_without_a_fixed_point_are_nan(self):
        # No game of this table has an interior fixed point, so the oracle
        # states no price, share or payoff for any of them.
        oracle = oracle_equilibrium(sample_table_params(np.random.default_rng(5), 300),
                                    grid_n=100)
        assert np.all(oracle.n_candidates == 0)
        assert np.isnan([oracle.price, oracle.share, oracle.cloud_payoff]).all()


def sampler_batch(seed: int) -> ParamTable:
    """The first 200,000 draws of `draw_reported_equilibria(seed, ...)` that
    lie in the simulation-setup bands, as one table, built the way the
    sampler built it before it tested f1-f3 on the raw draws."""
    spec, (phi_lo, phi_hi) = PopulationSpec(), AXIS_RANGES[AXIS_PHI]
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    m = 200_000
    price = rng.normal(spec.price_mean, spec.price_sd, m)
    alpha = rng.normal(spec.alpha_mean, spec.alpha_sd, m)
    beta = rng.uniform(0.0, 1.0, m) / np.clip(alpha, 1e-9, None)
    gamma = rng.uniform(spec.gamma_min, spec.gamma_max, m)
    phi = rng.uniform(phi_lo, phi_hi, m)
    k1 = rng.uniform(spec.k1_min, spec.k1_max, m)
    ok = ((price >= spec.price_min) & (price <= spec.price_max)
          & (alpha >= spec.alpha_min) & (alpha <= spec.alpha_max)
          & (alpha * beta > 0.0) & (alpha * beta <= spec.alpha_beta_cap) & (phi > 0.0))
    return ParamTable.from_columns(
        alpha=alpha[ok], beta=beta[ok], gamma=gamma[ok], psi=spec.psi, phi=phi[ok],
        k1=k1[ok], f_c=spec.f_c_factor * price[ok])


def edge_games() -> ParamTable:
    """slope_games' rows (phi = 0, f_s = 0 and alpha*beta up to 0.999 among
    them), the same rows with f_c = 0 and with alpha*beta a hair under the
    cap, and games that pass f1-f3 with exp_b = (a1 + a3)/a2 - 1 >= 0."""
    t = slope_games(7, 4000)
    rng = np.random.default_rng(7)
    monotone = ParamTable.from_columns(
        alpha=0.9, beta=0.5, gamma=rng.uniform(1.1, 1.3, 400), psi=0.1,
        phi=rng.uniform(5.6, 8.0, 400), k1=rng.uniform(0.05, 1.0, 400),
        f_c=rng.uniform(0.05, 2.0, 400), f_s=10.0 ** rng.uniform(-6.0, 6.0, 400))
    t = ParamTable.concat([t, dataclasses.replace(t, f_c=np.zeros(len(t))),
                           dataclasses.replace(t, beta=0.999 * (1.0 - 1e-12) / t.alpha),
                           monotone])
    check_domain(t)
    return t


class TestHasShareRoot:
    """`has_share_root` is exactly the rows where `solve_share` reports a share."""

    @pytest.mark.parametrize("seed", [1730, 8, 12, 24])   # verify's sampler seeds
    def test_matches_the_solver_on_a_sampler_batch(self, seed):
        t = sampler_batch(seed)
        found = has_share_root(t)
        assert np.array_equal(found, ~np.isnan(solve_share(t)[1]))
        # The sampler keeps exactly these rows of its first batch.
        kept, drawn = draw_reported_equilibria(seed, int(found.sum()))
        assert drawn == 200_000
        for f in dataclasses.fields(ParamTable):
            assert np.array_equal(getattr(kept.params, f.name),
                                  getattr(t, f.name)[found]), f.name

    def test_out_of_band_rows_have_no_root_and_warn_nothing(self):
        # The sampler tests every raw draw of a block. A price <= 0 makes
        # f_c <= 0, whose log the share constant takes under f1-f3; an
        # alpha <= 0 makes the sampler's beta u / 1e-9.
        t = sampler_batch(1730)
        assert check_feasibility(t).all_ok.any()   # so the log is reached
        u = t.alpha * t.beta
        bad = [dataclasses.replace(t, f_c=-t.f_c), dataclasses.replace(t, f_c=0.0 * t.f_c),
               *(dataclasses.replace(t, alpha=a, beta=u / 1e-9) for a in (0.0 * u, -t.alpha))]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for rows in bad:
                assert not has_share_root(rows).any()

    def test_huge_gamma_warns_nothing(self):
        # A sign-change test by product overflows on two huge gaps. Whether
        # such a game should be reported is ROADMAP item 13's; the three
        # entry points must agree on it.
        params = dataclasses.replace(FEASIBLE_PARAMS, alpha=0.42, beta=2.01, gamma=1e300,
                                     phi=0.43, k1=0.87, f_c=0.47)
        t = ParamTable.from_params([params])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            [found] = has_share_root(t)
            share = solve_share(t)[1, 0]
            result = stackelberg_solve(params)
        assert found == (not math.isnan(share)) == result.feasible

    @pytest.mark.parametrize("games", ["sampler batch", "edge games"])
    def test_end_gaps_are_the_elementwise_gaps(self, games):
        # _share_brackets takes the logs at SHARE_EPS and 1 - SHARE_EPS once,
        # as numpy scalars; the gaps there and at the minimum m it returns
        # must be _share_gap's, bit for bit.
        if games == "sampler batch":
            t = sampler_batch(1730)
            t = t.take(np.flatnonzero(check_feasibility(t).all_ok))
        else:
            t = edge_games()
        with np.errstate(all="ignore"):   # the edge games' equation is meaningless off f1
            equation = _share_equation_columns(t, derive_coefficients(t))
            m, gap, _ = _share_brackets(*equation)
            stacked = np.stack([np.full(len(t), SHARE_EPS), m, np.full(len(t), 1.0 - SHARE_EPS)])
            expected = _share_gap(stacked, *equation)
        assert ((SHARE_EPS <= m) & (m <= 1.0 - SHARE_EPS)).all()
        assert gap.tobytes() == expected.tobytes()

    def test_matches_the_solver_at_the_edges(self):
        t = edge_games()
        found = has_share_root(t)
        assert np.array_equal(found, ~np.isnan(solve_share(t)[1]))
        flags = check_feasibility(t)
        f1, f2, f3 = flags.f1_price_positive, flags.f2_price_max, flags.f3_share_max
        with np.errstate(all="ignore"):   # the equation is meaningless off f1
            exp_a, exp_b, log_c = _share_equation_columns(t, derive_coefficients(t))
            change = _share_brackets(exp_a, exp_b, log_c)[2].any(axis=0)
        near_cap = t.alpha * t.beta > 0.999 * (1.0 - 1e-9)
        # f2 implies f1 (a1 > a2 > 0), so f1 never fails alone; f3 fails
        # exactly where A >= 0, where no bracket can change sign.
        edges = {
            "phi = 0": t.phi == 0.0, "f_s = 0": t.f_s == 0.0, "f_c = 0": t.f_c == 0.0,
            "alpha*beta under the cap, rooted": near_cap & found,
            "alpha*beta under the cap, rootless": near_cap & flags.all_ok & ~found,
            "exp_b >= 0, rooted": (exp_b >= 0.0) & found,
            "exp_b >= 0, rootless": (exp_b >= 0.0) & flags.all_ok & ~found,
            "f1 and f2 fail, f3 holds": ~f1 & ~f2 & f3,
            "f2 alone fails, a bracket changes sign": f1 & ~f2 & f3 & change,
            "f3 alone fails": f1 & f2 & ~f3,
        }
        for name, rows in edges.items():
            assert rows.any(), name
        assert not (found & ~flags.all_ok).any()


def slope_games(seed: int, n: int) -> ParamTable:
    """n valid games with f_s = 0 and phi = 0 in about one row in eight each,
    and alpha*beta in [0.99, 0.999] in about one row in three."""
    rng = np.random.default_rng(seed)
    alpha = rng.uniform(0.05, 0.95, n)
    product = np.where(rng.random(n) < 0.35, rng.uniform(0.99, 0.999, n),
                       rng.uniform(0.001, 0.99, n))
    t = ParamTable.from_columns(
        alpha=alpha, beta=product / alpha, gamma=rng.uniform(0.0, 1.0, n),
        psi=rng.uniform(0.0, 0.35, n),
        phi=np.where(rng.random(n) < 0.125, 0.0, rng.uniform(0.0, 5.0, n)),
        k1=rng.uniform(0.05, 1.0, n), k2=rng.uniform(0.5, 2.0, n),
        f_c=rng.uniform(0.05, 2.0, n),
        f_s=np.where(rng.random(n) < 0.125, 0.0, 10.0 ** rng.uniform(-6.0, 6.0, n)))
    check_domain(t)
    return t


COMPLEX_STEP = 1e-30


def test_slope_arithmetic_matches_complex_step():
    # Every operation _Slope carries, with it on either side of an array.
    x = np.linspace(0.1, 3.0, 50)
    a = np.linspace(-2.0, 2.0, 50)

    def f(z):
        return (np.exp(-z) * (a + z) / (1.0 + z) - a / z + np.log(z) * np.log1p(z)
                - (z - a) * z / np.exp(z) + (a - z) / (2.0 * z) + (z + a) * a / (a + 3.0))

    slope = f(_Slope(x, 1.0))
    np.testing.assert_allclose(slope.v, f(x), rtol=1e-15)
    np.testing.assert_allclose(slope.d, np.imag(f(x + COMPLEX_STEP * 1j)) / COMPLEX_STEP,
                               rtol=1e-13)


def slice_inputs(seed: int):
    """slope_games with a share, a price above its break-even price, and a
    u for the price slice, per row."""
    t = slope_games(seed, 2000)
    rng = np.random.default_rng(seed)
    chi = rng.uniform(0.01, 0.99, len(t))
    price = t.f_c / (1.0 - chi) * (1.0 + 10.0 ** rng.uniform(-3.0, 2.0, len(t)))
    u = rng.uniform(math.log(1e-9), math.log(1e8), len(t))
    return t, derive_coefficients(t), chi, price, u


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_slope_matches_complex_step(seed):
    # The forward-mode slope that the oracle bisects equals the complex step
    # Im f(x + ih)/h on the payoffs it searches: the provider's log payoff in
    # u (the price slice), the platform payoff in share as the oracle
    # evaluates it (the share slice), and the full platform payoff. Where
    # h*f' falls below the normal floats the complex step underflows, and
    # there the slope must be tiny.
    t, c, chi, price, u = slice_inputs(seed)
    assert np.sum(t.f_s == 0.0) > 100 and np.sum(t.phi == 0.0) > 100
    assert np.sum(t.alpha * t.beta >= 0.99) > 500
    payoffs = ((_price_slice(chi, t, c)[1], u), (_cloud_share_slice(price, t, c)[1], chi),
               (lambda s: _cloud_payoff_arr(price, s, t, c), chi))
    tiny = np.finfo(float).tiny
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for f, x in payoffs:
            value = f(x)
            slope = f(_Slope(x, 1.0))
            step = np.imag(f(x + COMPLEX_STEP * 1j))
            finite = np.isfinite(value)
            normal = finite & (np.abs(step) >= tiny)
            assert normal.sum() > 1500
            assert np.array_equal(slope.v[finite], value[finite])
            np.testing.assert_allclose(slope.d[normal], step[normal] / COMPLEX_STEP,
                                       rtol=1e-12, atol=0.0)
            assert np.all(np.abs(slope.d[finite & ~normal]) < tiny / COMPLEX_STEP)


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_slices_match_full_payoffs(seed):
    # The oracle's slices are the full payoffs with their fixed terms taken
    # out: the share slice is R*s^e1 - K*s^e2 at a fixed price, and the price
    # slice is the provider payoff's log less log f_c at breakeven*(1 + e^u).
    t, c, chi, price, _ = slice_inputs(seed)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        full = _cloud_payoff_arr(price, chi, t, c)
        (_, _, log_k, e2), payoff = _cloud_share_slice(price, t, c)
        sliced = payoff(chi)
    checked = np.isfinite(full) & (full != 0.0)
    assert checked.sum() > 1500
    np.testing.assert_allclose(sliced[checked], full[checked], rtol=1e-12, atol=0.0)
    no_fs = t.f_s == 0.0
    assert np.all(np.exp(log_k[no_fs] + e2[no_fs] * np.log(chi[no_fs])) == 0.0)

    # The price slice runs at the prices' margins over break-even, 1e-3 and
    # up: nearer break-even, P*(1 - chi) - f_c in the full payoff cancels to
    # about 1e-7 relative. Only normal payoffs are compared, since a
    # subnormal one keeps fewer than 53 bits. 1e-12 absolute on the log is
    # 1e-12 relative on the payoff.
    breakeven, log_payoff = _price_slice(chi, t, c)
    u = np.log(price / breakeven - 1.0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        full = _provider_payoff_arr(breakeven * (1.0 + np.exp(u)), chi, t, c)
        sliced = log_payoff(u)
    checked = np.isfinite(full) & (np.abs(full) >= np.finfo(float).tiny)
    assert checked.sum() > 1500
    np.testing.assert_allclose(sliced[checked], np.log(full[checked] / t.f_c[checked]),
                               rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_price_markup_is_the_search_at_every_share(seed):
    # The share enters the price slice only through its constant D0, so the
    # slope that the price search bisects is the same at every share, and the
    # one markup per game gives, bit for bit, the price that a search at each
    # share gives.
    t, c, chi, _, u = slice_inputs(seed)
    other = np.random.default_rng(seed + 100).uniform(0.01, 0.99, len(t))
    assert np.all(other != chi)
    slopes = [_price_slice(s, t, c)[1](_Slope(u, 1.0)).d for s in (chi, other)]
    assert np.array_equal(slopes[0], slopes[1])
    markup = _price_markup(t, c)
    for s in (chi, other):
        breakeven, log_payoff = _price_slice(s, t, c)
        searched = breakeven * (1.0 + np.exp(_bisect_peak(log_payoff, math.log(1e-9),
                                                           math.log(1e8))))
        assert np.array_equal(breakeven * markup, searched)


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_response_below_is_the_full_search(seed):
    # The oracle reads only the sign of best share minus chi, from the share
    # slope's signs at chi and at the window's ends. That sign must be the
    # full search's: the 24-point scan, then all of _bisect_peak's halvings.
    # The chi tried are the probe grid strictly inside the window: where a
    # slice rises or falls across the window, the best share is an end, and
    # at chi equal to that end the two searches break the tie differently.
    # Rows are compared where the scan's best payoff is finite, a normal
    # float and above the scan's worst: where the payoff underflows or rounds
    # to one value, the scan does not find the best share (the oracle drops
    # such candidates by their payoff). The probes run as the oracle's probe
    # phase passes them, a row of shares against a column of games, and as
    # its root phase does, one share per game.
    t, c, _, price, _ = slice_inputs(seed)
    col = t.take(np.arange(len(t))[:, None])
    window = (0.01, 0.99)
    payoff, scan = _cloud_share_slice(price, t, c)[1], np.linspace(*window, 24)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        best, top, bottom = 0, payoff(scan[0]), payoff(scan[0])
        for j in range(1, 24):
            pay = payoff(scan[j])
            best, top = np.where(pay > top, j, best), np.maximum(pay, top)
            bottom = np.minimum(pay, bottom)
        lo, hi = scan[np.maximum(best - 1, 0)], scan[np.minimum(best + 1, 23)]
        searched = _bisect_peak(payoff, lo, hi)
        probes = np.linspace(0.01, 0.99, 2000)[np.r_[5:1995:5]]
        got = _response_below(probes, price[:, None], col, derive_coefficients(col), window)
        one = probes[np.arange(len(t)) % probes.size]
        got_one = _response_below(one, price, t, c, window)
        lower, upper = (payoff(_Slope(np.full(len(t), s), 1.0)) for s in window)
    rows = np.isfinite(top) & (np.abs(top) >= np.finfo(float).tiny) & (top > bottom)
    assert rows.sum() > 1900
    assert np.array_equal(got[rows], (searched[:, None] - probes < 0.0)[rows])
    assert np.array_equal(got_one[rows], (searched - one < 0.0)[rows])
    dip = (lower.d < 0.0) & (upper.d > 0.0)
    cases = [dip & (lower.v > upper.v), (lower.d > 0.0) & (upper.d < 0.0),
             (lower.d > 0.0) & (upper.d > 0.0), (lower.d < 0.0) & (upper.d < 0.0)]
    assert all(np.any(case[rows]) for case in cases)


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_response_below_in_a_dip_is_the_better_end(seed):
    # Where the share payoff falls at the window's lower end and rises at its
    # upper end, its slope's one sign change is a minimum, so a dense scan of
    # the window finds its best share at one of the ends, and the response
    # must follow that end at every interior chi. The slope's sign at chi
    # alone points away from the minimum, so it must disagree somewhere.
    t, c, _, price, _ = slice_inputs(seed)
    window = (0.01, 0.99)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        lower, upper = (_cloud_share_slice(price, t, c)[1](_Slope(np.full(len(t), s), 1.0))
                        for s in window)
        dip = np.flatnonzero((lower.d < 0.0) & (upper.d > 0.0))
        g = t.take(dip[:, None])
        cg, pg, scan = derive_coefficients(g), price[dip, None], np.linspace(*window, 2001)
        payoff = _cloud_share_slice(pg, g, cg)[1]
        pay = payoff(scan)
        best, probes = scan[np.argmax(pay, 1)], scan[1:-1]
        got = _response_below(probes, pg, g, cg, window)
        by_slope = payoff(_Slope(probes, 1.0)).d < 0.0
    assert dip.size > 10 and np.isfinite(pay).all()
    assert np.all((best == window[0]) | (best == window[1]))
    assert np.any(best == window[0]) and np.any(best == window[1])
    assert np.array_equal(got, best[:, None] < probes)
    assert np.any(by_slope != got)


# The oracle's probes are 2000 // 384 = 5 steps apart on its default
# 2000-point grid over [0.01, 0.99]; fixed points within one probe spacing
# of either end are not reported.
PROBE_SPACING = 5 * 0.98 / 1999


def in_oracle_window(share: float) -> bool:
    return 0.01 + PROBE_SPACING < share < 0.99 - PROBE_SPACING


def extreme_games(seed: int, n: int):
    """n valid games with a reported share inside the oracle's window, drawn
    towards the edges: alpha*beta up to the 0.999 cap, f_s over twelve
    decades and phi just above the f3 boundary phi (1 - alpha) = a2."""
    rng = np.random.default_rng(seed)
    cases = []
    while len(cases) < n:
        alpha = rng.uniform(0.05, 0.95)
        product = rng.uniform(0.99, 0.999) if rng.random() < 0.4 else rng.uniform(0.001, 0.99)
        phi = ((1.0 - product) / (1.0 - alpha) * (1.0 + 10.0 ** rng.uniform(-6.0, -1.0))
               if rng.random() < 0.4 else rng.uniform(0.0, 5.0))
        try:
            p = MarketParams(alpha=alpha, beta=product / alpha, gamma=rng.uniform(0.0, 1.0),
                             psi=rng.uniform(0.0, 0.35), phi=phi, k1=rng.uniform(0.05, 1.0),
                             k2=rng.uniform(0.5, 2.0), f_c=rng.uniform(0.05, 2.0),
                             f_s=10.0 ** rng.uniform(-6.0, 6.0))
        except DomainError:
            continue
        res = stackelberg_solve(p)
        if res.feasible and in_oracle_window(res.share_star):
            cases.append((p, res))
    return cases


def test_oracle_matches_closed_form_at_extremes():
    cases = extreme_games(2024, 120)
    assert sum(p.alpha * p.beta >= 0.99 for p, _ in cases) >= 30
    assert sum(p.phi * (1.0 - p.alpha) < 1.1 * (1.0 - p.alpha * p.beta)
               for p, _ in cases) >= 30
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        oracle = oracle_equilibrium(ParamTable.from_params([p for p, _ in cases]))
    for (p, res), share, price in zip(cases, oracle.share, oracle.price):
        assert abs(share - res.share_star) <= 1e-9, p
        assert abs(price - res.price_star) / res.price_star <= 1e-9, p


class TestSecondOrder:
    def test_analytic_provider_condition_tracks_f2(self):
        soc = second_order_check(FEASIBLE_PARAMS, 2.26, 0.31)
        assert check_feasibility(FEASIBLE_PARAMS).f2_price_max
        assert soc.provider_soc_analytic

    def test_numeric_agreement_at_equilibrium(self):
        res = stackelberg_solve(FEASIBLE_PARAMS)
        soc = second_order_check(FEASIBLE_PARAMS, res.price_star, res.share_star)
        assert soc.provider_soc_negative and soc.cloud_soc_negative
        assert soc.provider_agreement and soc.cloud_agreement
        assert soc.d2_provider < 0.0 and soc.d2_cloud < 0.0

    def test_exact_curvature_matches_central_differences(self):
        # At the equilibrium both first derivatives vanish, so only a second
        # derivative agrees with the second differences.
        res = stackelberg_solve(FEASIBLE_PARAMS)
        price, share = res.price_star, res.share_star
        soc = second_order_check(FEASIBLE_PARAMS, price, share)
        hp, hs = 1e-4 * price, 1e-4 * share
        d2p = (provider_payoff(price + hp, share, FEASIBLE_PARAMS)
               - 2.0 * provider_payoff(price, share, FEASIBLE_PARAMS)
               + provider_payoff(price - hp, share, FEASIBLE_PARAMS)) / hp**2
        d2c = (cloud_payoff(price, share + hs, FEASIBLE_PARAMS)
               - 2.0 * cloud_payoff(price, share, FEASIBLE_PARAMS)
               + cloud_payoff(price, share - hs, FEASIBLE_PARAMS)) / hs**2
        assert soc.d2_provider == pytest.approx(d2p, rel=1e-3)
        assert soc.d2_cloud == pytest.approx(d2c, rel=1e-3)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_exact_curvature_signs_near_the_cap(self, seed):
        # alpha*beta in [0.99, 0.9989], where 1/a2 reaches about 900: every
        # reported equilibrium has finite curvatures whose signs agree with
        # f2 and f3.
        rng = np.random.default_rng(seed)
        n = 10_000
        alpha = rng.uniform(0.05, 0.95, n)
        t = ParamTable.from_columns(
            alpha=alpha, beta=rng.uniform(0.99, 0.9989, n) / alpha,
            gamma=rng.uniform(0.0, 1.0, n), psi=rng.uniform(0.0, 0.35, n),
            phi=rng.uniform(0.0, 5.0, n), k1=rng.uniform(0.05, 1.0, n),
            k2=rng.uniform(0.5, 2.0, n), f_c=rng.uniform(0.05, 2.0, n),
            f_s=10.0 ** rng.uniform(-6.0, 6.0, n))
        check_domain(t)
        out = scenario_columns(TWO_SIDED, t, None, MODE_EQUILIBRIUM)
        assert out.feasible.sum() > 250
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            soc = second_order_check(t.take(out.feasible), out.price[out.feasible],
                                     out.share[out.feasible])
        assert np.all(np.isfinite(soc.d2_provider) & np.isfinite(soc.d2_cloud))
        assert np.all(soc.provider_agreement & soc.cloud_agreement)
        assert np.all(soc.provider_soc_analytic & soc.cloud_soc_analytic)

    def test_f3_violation_is_reported(self):
        # phi below a4 + a2: the share stationary point cannot be a maximum
        p = MarketParams(alpha=0.5, beta=1.0, gamma=0.3, psi=0.1, phi=0.2,
                         k1=0.5, f_c=1.0)
        soc = second_order_check(p, 1.7, 0.4)
        assert not soc.cloud_soc_analytic
        assert soc.cloud_agreement == (not soc.cloud_soc_negative)

    def test_table_matches_batches_of_one(self):
        # Both derivative checks over a table give each row exactly what a
        # MarketParams call gives it, and that call gives numpy scalars.
        cases, _ = draw_reported_equilibria(1730, 20)
        assert len(cases.params) == 20 and cases.feasible.all()
        foc = first_order_residuals(cases.params, cases.price, cases.share)
        soc = second_order_check(cases.params, cases.price, cases.share)
        for i, p in enumerate(cases.params.rows()):
            price, share = cases.price[i].item(), cases.share[i].item()
            one_foc = first_order_residuals(p, price, share)
            assert one_foc == (foc[0][i], foc[1][i])
            assert all(type(v) is np.float64 for v in one_foc)
            one_soc = second_order_check(p, price, share)
            for name, value in one_soc._asdict().items():
                assert type(value) in (np.bool_, np.float64)
                assert value == getattr(soc, name)[i]

    def test_point_outside_domain_rejected(self):
        for price, share in ((0.0, 0.3), (1.7, 0.0), (1.7, 1.0)):
            with pytest.raises(DomainError):
                first_order_residuals(FEASIBLE_PARAMS, price, share)
            with pytest.raises(DomainError):
                second_order_check(FEASIBLE_PARAMS, price, share)
