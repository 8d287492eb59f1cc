"""Acceptance suite: one test per release criterion, one printed line each.

Criteria 1-4 and 10 are oracle/property checks. Criteria 5-9 pin the
directional claims the sensitivity analyses are expected to show; they are
asserted exactly as stated. Where the model's own arithmetic contradicts a
claimed direction, the test is left to fail honestly rather than weakened
(see the failure messages for the measured values).

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.
"""

import subprocess
import sys
import time

import numpy as np
import pytest
from scipy.stats import spearmanr

from tsm import cli, core, equilibrium, scenarios
from tsm.core import MarketParams
from tsm.population import PopulationSpec, SweepSpec, run_sweep
from tsm.scenarios import MODE_DECLARED_PRICE, PAY_AS_YOU_GO, TWO_SIDED, payg_supply

ACCEPT_SEED = 20_240_001
N_ORACLE_DRAWS = 500
GRID_N = 2000

_CACHE = {}


def report(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    sys.stdout.flush()


def reported_equilibria():
    if "cases" not in _CACHE:
        t0 = time.perf_counter()
        cases, drawn = cli.draw_reported_equilibria(ACCEPT_SEED, N_ORACLE_DRAWS)
        _CACHE["cases"] = cases
        _CACHE["draw_seconds"] = time.perf_counter() - t0
        _CACHE["drawn"] = drawn
    return _CACHE["cases"]


def externality_sweep():
    if "ext" not in _CACHE:
        spec = SweepSpec(
            axis="alpha_beta_product",
            scenarios=(TWO_SIDED, PAY_AS_YOU_GO),
            population=PopulationSpec(seed=ACCEPT_SEED),
            mode=MODE_DECLARED_PRICE,
        )
        _CACHE["ext"] = run_sweep(spec)
    return _CACHE["ext"]


def series_of(cells, scenario, phi_level, column):
    rows = sorted(
        (c for c in cells if c.scenario == scenario and c.phi_level == phi_level),
        key=lambda c: c.axis_value)
    return (np.array([c.axis_value for c in rows]),
            np.array([getattr(c, column) for c in rows], dtype=float))


def test_criterion_1_oracle_equivalence():
    cases = reported_equilibria()
    t0 = time.perf_counter()
    oracle = equilibrium.oracle_equilibrium(cases.params, grid_n=GRID_N)
    d_chi = np.abs(cases.share - oracle.share)
    d_price = np.abs(cases.price - oracle.price) / cases.price
    elapsed = _CACHE["draw_seconds"] + (time.perf_counter() - t0)
    tol = 2.0 / GRID_N
    n = len(cases.params)
    worst_chi = d_chi.max()
    worst_price = d_price.max()
    ok = (n == N_ORACLE_DRAWS and worst_chi <= tol
          and worst_price <= tol and elapsed <= 60.0)
    report(1, ok,
           f"{n} reported equilibria (from {_CACHE['drawn']} draws), "
           f"max |dchi|={worst_chi:.2e}, max |dP|/P={worst_price:.2e} "
           f"(tol {tol:.1e}), runtime {elapsed:.1f}s")
    assert n == N_ORACLE_DRAWS
    assert worst_chi <= tol
    assert worst_price <= tol
    assert elapsed <= 60.0


def test_criterion_2_foc_soc_suite():
    cases = reported_equilibria()
    at = (cases.params, cases.price, cases.share)
    foc_p, foc_s = equilibrium.first_order_residuals(*at)
    worst_foc = np.max([foc_p, foc_s])
    soc = equilibrium.second_order_check(*at)
    passed = (soc.provider_soc_negative & soc.cloud_soc_negative
              & soc.provider_agreement & soc.cloud_agreement)
    n = len(cases.params)
    failures = n - int(np.count_nonzero(passed))
    ok = worst_foc <= 1e-6 and failures == 0
    report(2, ok, f"max relative FOC {worst_foc:.2e} (tol 1e-6), "
                  f"{n - failures}/{n} pass curvature checks")
    assert worst_foc <= 1e-6
    assert failures == 0


def test_criterion_3_fixed_point_suite():
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(ACCEPT_SEED)))
    n_pairs = 10_000
    worst = 0.0
    for params in cli.sample_table_params(rng, n_pairs).rows():
        price = float(rng.uniform(0.2, 3.2))
        share = float(rng.uniform(0.001, 0.999))
        c = core.derive_coefficients(params)
        log_dc = core._log_demand_reduced(np.log(price), np.log(share), params, c)
        log_ds = core._log_supply_reduced(np.log(price), np.log(share), params, c)
        defect = max(
            abs(float(core._log_demand_primitive(np.log(price), log_ds, params)
                      - log_dc)),
            abs(float(core._log_supply_primitive(np.log(share), np.log(price),
                                                 log_dc, params) - log_ds)),
        )
        worst = max(worst, defect)
    ok = worst <= 1e-9
    report(3, ok, f"max relative curve defect {worst:.2e} over {n_pairs} "
                  f"(price, share) pairs (tol 1e-9)")
    assert worst <= 1e-9


def test_criterion_4_rental_optimum():
    # exact closed case first
    closed = MarketParams(alpha=0.5, beta=1.0, gamma=0.0, psi=0.1, phi=1.0,
                          k1=1.0, f_c=1.0, p_s=1.0)
    exact = payg_supply(2.0, closed)
    rng = np.random.Generator(
        np.random.Philox(np.random.SeedSequence(ACCEPT_SEED + 4)))
    worst = 0.0
    checked = 0
    while checked < 1000:
        [params] = cli.sample_table_params(rng, 1).rows()
        price = float(rng.uniform(0.2, 3.2))
        if price <= params.f_c:
            continue
        checked += 1
        supply = payg_supply(price, params)
        h = 1e-6 * supply

        def payoff(ds):
            demand = core.consumer_demand_primitive(price, ds, params)
            return (price - params.f_c) * demand - params.p_s * ds

        slope = (payoff(supply + h) - payoff(supply - h)) / (2.0 * h)
        scale = max(params.p_s * supply,
                    (price - params.f_c)
                    * core.consumer_demand_primitive(price, supply, params))
        worst = max(worst, abs(slope) * supply / scale)
    ok = exact == pytest.approx(0.25, abs=1e-15) and worst <= 1e-6
    report(4, ok, f"closed case supply={exact!r} (expected 0.25), "
                  f"max relative rental FOC {worst:.2e} over {checked} draws "
                  f"(tol 1e-6)")
    assert exact == pytest.approx(0.25, abs=1e-15)
    assert worst <= 1e-6


def test_criterion_5_externality_trend():
    cells = externality_sweep()
    sub_from = 0.3
    worst = None  # (rho, level, column)
    for level in (0.5, 1.0, 1.5, 2.0, 5.0):
        for column in ("mean_cloud_payoff", "mean_provider_payoff", "mean_demand"):
            axis, values = series_of(cells, TWO_SIDED, level, column)
            mask = axis >= sub_from - 1e-12
            rho = float(spearmanr(axis[mask], values[mask]).statistic)
            if worst is None or rho > worst[0]:
                worst = (rho, level, column)
    ok = worst[0] <= -0.8
    report(5, ok, f"worst Spearman beyond alpha*beta=0.3 is {worst[0]:+.2f} "
                  f"({worst[2]} at phi={worst[1]}); required <= -0.8 for all "
                  f"quantities and phi levels")
    assert worst[0] <= -0.8, (
        "the declared-price model's mean cloud payoff and demand rise with the "
        "externality product instead of falling; see notes in the README")


def test_criterion_6_ordering_at_weak_externality():
    cells = externality_sweep()
    at = 0.2
    cloud = {}
    for level in (5.0, 2.0, 1.5):
        rows = [c for c in cells if c.scenario == TWO_SIDED
                and c.phi_level == level and abs(c.axis_value - at) < 1e-9]
        cloud[level] = rows[0].mean_cloud_payoff
    payg_rows = [c for c in cells if c.scenario == PAY_AS_YOU_GO
                 and abs(c.axis_value - at) < 1e-9]
    payg = payg_rows[0].mean_cloud_payoff
    chain = (cloud[5.0], cloud[2.0], cloud[1.5], payg)
    ok = cloud[5.0] > cloud[2.0] > cloud[1.5] > payg
    report(6, ok, f"mean cloud payoff at alpha*beta=0.2: phi=5.0 {chain[0]:.3e} "
                  f"> phi=2.0 {chain[1]:.3e} > phi=1.5 {chain[2]:.3e} "
                  f"> pay-as-you-go {chain[3]:.3e} required")
    assert cloud[5.0] > cloud[2.0] > cloud[1.5] > payg, (
        "pay-as-you-go sits above the low-phi two-sided payoffs at weak "
        "externalities in this model; see notes in the README")


def test_criterion_7_share_monotonicity():
    cells = externality_sweep()
    axis, share = series_of(cells, TWO_SIDED, 1.5, "mean_share")
    strictly_increasing = bool(np.all(np.diff(share) > 0.0))
    at03 = share[np.argmin(np.abs(axis - 0.3))]
    at06 = share[np.argmin(np.abs(axis - 0.6))]
    rise = float(at06 - at03)
    ok = strictly_increasing and rise >= 0.15
    report(7, ok, f"mean share at phi=1.5 rises {at03:.4f} -> {at06:.4f} "
                  f"(+{rise * 100:.1f}pp, floor 15pp), strictly increasing: "
                  f"{strictly_increasing}")
    assert strictly_increasing
    assert rise >= 0.15


def test_criterion_8_phi_shape():
    spec = SweepSpec(axis="phi", scenarios=(TWO_SIDED,),
                     population=PopulationSpec(seed=ACCEPT_SEED),
                     mode=MODE_DECLARED_PRICE)
    cells = run_sweep(spec)
    # phi sweep has no level overlay; phi_level equals the axis value
    rows = sorted((c for c in cells if c.scenario == TWO_SIDED),
                  key=lambda c: c.axis_value)
    axis = np.array([c.axis_value for c in rows])
    provider = np.array([c.mean_provider_payoff for c in rows])
    cloud = np.array([c.mean_cloud_payoff for c in rows])

    low = axis <= 1.0
    provider_rises_below_one = bool(np.all(np.diff(provider[low]) > 0.0))
    span = float(provider.max() - provider.min())
    high = axis > 1.0
    plateau_ok = bool(np.all(np.diff(provider[high]) <= 0.05 * span))
    cloud_rises_above_one = bool(np.all(np.diff(cloud[high]) > 0.0))
    ok = provider_rises_below_one and plateau_ok and cloud_rises_above_one
    report(8, ok, f"provider rises on (0,1): {provider_rises_below_one}, "
                  f"provider plateau on (1,5]: {plateau_ok}, "
                  f"cloud rises on (1,5]: {cloud_rises_above_one} "
                  f"(provider series {provider[0]:+.3e} .. {provider[-1]:+.3e})")
    assert plateau_ok
    assert cloud_rises_above_one
    assert provider_rises_below_one, (
        "mean provider payoff falls on phi in (0,1) in this model because the "
        "platform's optimal share collapses to the boundary at small phi; see "
        "notes in the README")


def test_criterion_9_k1_monotonicity():
    spec = SweepSpec(axis="k1", scenarios=(TWO_SIDED,),
                     population=PopulationSpec(seed=ACCEPT_SEED),
                     mode=MODE_DECLARED_PRICE)
    cells = run_sweep(spec)
    failures = []
    for level in (0.5, 1.0, 1.5, 2.0, 5.0):
        for column in ("mean_cloud_payoff", "mean_provider_payoff", "mean_demand"):
            axis, values = series_of(cells, TWO_SIDED, level, column)
            if not bool(np.all(np.diff(values) >= 0.0)):
                failures.append((level, column))
    ok = not failures
    report(9, ok, "all mean surpluses non-decreasing in k1" if ok else
           f"decreasing series: {failures}")
    assert not failures, (
        "mean provider payoff is negative and scales down with k1 at phi >= 1; "
        "see notes in the README")


def test_criterion_10_fresh_interpreter_determinism(tmp_path, subprocess_env):
    # Unless PYTHONHASHSEED is set, each child draws its own string hash seed,
    # so an output that hangs on hash order would differ.
    outputs = []
    for run in (1, 2):
        out = tmp_path / f"sweep_{run}.csv"
        env = subprocess_env()
        proc = subprocess.run(
            [sys.executable, "-m", "tsm.cli", "sweep",
             "--axis", "alpha_beta_product", "--seed", str(ACCEPT_SEED),
             "--out", str(out)],
            env=env, capture_output=True, text=True, cwd=str(tmp_path))
        assert proc.returncode == 0, (
            f"child {sys.executable} with PYTHONPATH={env['PYTHONPATH']!r}:\n"
            f"{proc.stderr}")
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1]
    report(10, ok, f"full sweep CSVs byte-identical across two fresh interpreters: {ok} "
                   f"({len(outputs[0])} bytes)")
    assert ok
