"""Acceptance suite: one test per release criterion, one printed line each.

Criteria 1-4 call `tsm verify`'s property functions at their own seeds and
sizes; 10 checks determinism. Criteria 5-9 pin the directional claims the
sensitivity analyses are expected to show; they are asserted exactly as
stated. Where the model's own arithmetic contradicts a claimed direction,
the test is left to fail honestly rather than weakened (see the failure
messages for the measured values).

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.
"""

import subprocess
import sys
import time

import numpy as np
import pytest
from scipy.stats import spearmanr

from tsm import cli
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
        _CACHE["cases"], _CACHE["drawn"] = cli.draw_reported_equilibria(ACCEPT_SEED, N_ORACLE_DRAWS)
        _CACHE["draw_seconds"] = time.perf_counter() - t0
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
    worst_chi, worst_price, missing = cli.oracle_gaps(cases, GRID_N)
    elapsed = _CACHE["draw_seconds"] + (time.perf_counter() - t0)
    tol = 2.0 / GRID_N
    n = len(cases.params)
    ok = (n == N_ORACLE_DRAWS and worst_chi <= tol and worst_price <= tol and missing == 0
          and elapsed <= 60.0)
    report(1, ok, f"{n} reported equilibria (from {_CACHE['drawn']} draws), "
                  f"max |dchi|={worst_chi:.2e}, max |dP|/P={worst_price:.2e} "
                  f"(tol {tol:.1e}), {missing} without an oracle fixed point, "
                  f"runtime {elapsed:.1f}s")
    assert ok


def test_criterion_2_foc_soc_suite():
    cases = reported_equilibria()
    worst_foc, soc_pass = cli.derivative_checks(cases)
    n = len(cases.params)
    ok = worst_foc <= 1e-6 and soc_pass == n
    report(2, ok, f"max relative FOC {worst_foc:.2e} (tol 1e-6), "
                  f"{soc_pass}/{n} pass curvature checks")
    assert ok


def test_criterion_3_fixed_point_suite():
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(ACCEPT_SEED)))
    n_pairs = 10_000
    worst = cli.fixed_point_defect(rng, n_pairs)
    ok = worst <= 1e-9
    report(3, ok, f"max relative curve defect {worst:.2e} over {n_pairs} "
                  f"(price, share) pairs (tol 1e-9)")
    assert ok


def test_criterion_4_rental_optimum():
    closed = MarketParams(alpha=0.5, beta=1.0, gamma=0.0, psi=0.1, phi=1.0,
                          k1=1.0, f_c=1.0, p_s=1.0)
    exact = float(payg_supply(2.0, closed))
    # 1,500 draws: about 70% of their prices exceed f_c
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(ACCEPT_SEED + 4)))
    worst, checked = cli.rental_foc(rng, 1500)
    ok = exact == pytest.approx(0.25, abs=1e-15) and checked >= 1000 and worst <= 1e-6
    report(4, ok, f"closed case supply={exact!r} (expected 0.25), max relative rental "
                  f"FOC {worst:.2e} (exact slope) over {checked} rows (tol 1e-6)")
    assert ok


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
