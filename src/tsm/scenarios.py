"""The three business-model runs over a population of providers.

* two_sided: the revenue-sharing game. In `equilibrium` mode each provider's
  game is solved by backward induction; in `declared-price` mode the
  provider's sampled list price is held fixed and the platform picks its
  share in closed form to maximize its payoff.
* fifty_fifty: the egalitarian split. The share is pinned at 0.5, the
  subsidizing factor at 1, and the provider prices against that split.
* pay_as_you_go: the incumbent rental model. The provider rents
  infrastructure at the flat rate p_s and keeps all service revenue; the
  rented amount is the provider's own optimum.

Every record keeps the exact parameter snapshot it was computed under, so
any downstream consumer can re-derive demand/supply/payoffs from the record
alone.
"""

from __future__ import annotations

import dataclasses
import functools
from itertools import repeat
from typing import NamedTuple, Sequence

import numpy as np

from .core import (
    Coefficients,
    MarketParams,
    ParamTable,
    _cloud_payoff,
    _cloud_share_slice,
    _log_demand_primitive,
    _log_demand_reduced,
    _log_supply_reduced,
    _provider_payoff,
    check_feasibility,
    derive_coefficients,
)
from .equilibrium import SHARE_EPS, _best_price_unchecked, solve_share

TWO_SIDED = "two_sided"
FIFTY_FIFTY = "fifty_fifty"
PAY_AS_YOU_GO = "pay_as_you_go"
SCENARIOS = (TWO_SIDED, FIFTY_FIFTY, PAY_AS_YOU_GO)
FIFTY_FIFTY_SHARE = 0.5
# Per scenario, an infeasible row's (price, share, demand, supply, provider_payoff,
# cloud_payoff): zero payoffs, so aggregates can count it; no price, demand or
# supply; and no share, unless the scenario fixes one (fifty_fifty's 0.5).
INFEASIBLE_FILL = {s: (None, FIFTY_FIFTY_SHARE if s == FIFTY_FIFTY else None,
                       None, None, 0.0, 0.0) for s in SCENARIOS}

MODE_EQUILIBRIUM = "equilibrium"
MODE_DECLARED_PRICE = "declared-price"
MODES = (MODE_EQUILIBRIUM, MODE_DECLARED_PRICE)


class Provider(NamedTuple):
    """One data-service provider: stable id, parameters, and list price.

    The declared price is the price the provider would announce on its own
    (pay-as-you-go, and the declared-price variant of the two-sided run);
    the equilibrium runs replace it with a best response.
    """

    provider_id: int
    params: MarketParams
    declared_price: float


class ScenarioRecord(NamedTuple):
    """Per-provider outcome under one business model."""

    provider_id: int
    scenario: str
    params: MarketParams
    price: float | None
    share: float | None
    demand: float | None
    supply: float | None
    provider_payoff: float
    cloud_payoff: float
    feasible: bool


class Outcome(NamedTuple):
    """One scenario's results over a ParamTable, one column entry per row.

    `params` is the table the scenario ran on (fifty_fifty's has phi = 1);
    columns have their inputs' broadcast shape. Infeasible rows may hold any
    value, feasible ones only finite values. `share` is None for pay_as_you_go.
    """

    params: ParamTable
    feasible: np.ndarray
    price: np.ndarray
    share: np.ndarray | None
    demand: np.ndarray
    supply: np.ndarray
    provider_payoff: np.ndarray
    cloud_payoff: np.ndarray

    def feasible_mean(self, *columns: str) -> tuple[np.ndarray, list[np.ndarray | None]]:
        """Along the last (provider) axis, the count of feasible rows and each
        named column's mean over them: its sum with infeasible rows set to 0,
        over the count. A mean is NaN where the count is 0, and None for a
        column this outcome lacks. Where a sum of finite values overflows, the
        mean is scale * mean(values / scale) with scale = max|values|, which is
        finite."""
        k, means = np.count_nonzero(self.feasible, axis=-1), []
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for column in columns:
                mean = values = getattr(self, column)
                if values is not None:
                    values = np.where(self.feasible, values, 0.0)
                    mean = np.sum(values, axis=-1) / k
                    if not np.all(np.isfinite(mean) | (k == 0)):
                        scale = np.max(np.abs(values), axis=-1, keepdims=True)
                        mean = np.where(np.isfinite(mean), mean,
                                        np.sum(values / scale, axis=-1) / k * scale[..., 0])
                means.append(mean)
        return k, means

    def rows(self, scenario: str):
        """Each row's (price, share, demand, supply, provider_payoff,
        cloud_payoff, feasible) as Python values, as records hold them; an
        infeasible row holds INFEASIBLE_FILL[scenario], as the CSV does."""
        infeasible = (*INFEASIBLE_FILL[scenario], False)
        share = self.share.tolist() if self.share is not None else repeat(None)
        for row in zip(self.price.tolist(), share, self.demand.tolist(),
                       self.supply.tolist(), self.provider_payoff.tolist(),
                       self.cloud_payoff.tolist(), self.feasible.tolist()):
            yield row if row[-1] else infeasible


# ---------------------------------------------------------------------------
# Scenario kernels over a ParamTable.
# ---------------------------------------------------------------------------

def _declared_share(price, t: ParamTable, c: Coefficients) -> np.ndarray:
    """Per row, the share maximizing the platform payoff R*s^e1 - K*s^e2 at a
    fixed price (`_cloud_share_slice`). Under f3 (e2 > e1) its only stationary
    point is the maximum s* = (e1*R / (e2*K))^(1/(e2-e1)); otherwise it is
    monotone or dips to an interior minimum. Of s* clipped to the share domain
    (the lower end without f3) and the upper end, the better is returned:
    s* on a tie or where its payoff is NaN."""
    (log_r, e1, log_k, e2), payoff = _cloud_share_slice(price, t, c)
    # s* in place, in an array of the rows' full shape (e1 may lack axes). Rows
    # without f3 (and f_s = 0, where K = 0) give inf or nan here; the former
    # are discarded below and the latter clip to the upper endpoint.
    s = np.log(e1, out=np.empty(np.broadcast(log_r, e1, log_k, e2).shape))
    s += log_r
    s -= np.log(e2)
    s -= log_k
    s /= e2 - e1
    np.clip(np.exp(s, out=s), SHARE_EPS, 1.0 - SHARE_EPS, out=s)
    np.copyto(s, SHARE_EPS, where=~(e2 > e1))
    at_s, at_top = payoff(s), payoff(np.float64(1.0 - SHARE_EPS))
    return np.where((at_s >= at_top) | np.isnan(at_s), s, 1.0 - SHARE_EPS)


def _finite(*columns) -> np.ndarray:
    """Per row, whether every column's value is finite."""
    return functools.reduce(np.logical_and, map(np.isfinite, columns))


def _outcome_at(feasible, price, share, t: ParamTable, c: Coefficients) -> Outcome:
    """Demand, supply and both payoffs at (price, share), all from one log demand
    and one log supply; a row with a non-finite value is infeasible."""
    log_price, log_share = np.log(price), np.log(share)
    log_demand = _log_demand_reduced(log_price, log_share, t, c)
    log_supply = _log_supply_reduced(log_price, log_share, t, c)
    cloud_payoff = _cloud_payoff(log_price, log_share, log_demand, log_supply, t.f_s)
    # The logs are spent: demand and supply take their arrays.
    demand, supply = np.exp(log_demand, out=log_demand), np.exp(log_supply, out=log_supply)
    del log_share
    values = (price, share, demand, supply, _provider_payoff(price, share, demand, t.f_c),
              cloud_payoff)
    return Outcome(t, feasible & _finite(*values), *values)


def _equilibrium_columns(t: ParamTable) -> Outcome:
    """Every game solved by backward induction, in one pass of the share solver."""
    c = derive_coefficients(t)
    shape = np.broadcast(*vars(t).values()).shape   # a broadcast table is solved flat
    flat = t if len(shape) == 1 else ParamTable(
        **{k: np.broadcast_to(v, shape).ravel() for k, v in vars(t).items()})
    share = solve_share(flat)[1].reshape(shape)
    price = _best_price_unchecked(share, c, t.f_c)
    return _outcome_at(~np.isnan(share), price, share, t, c)


def _declared_price_columns(t: ParamTable, price) -> Outcome:
    c = derive_coefficients(t)
    return _outcome_at(True, price, _declared_share(price, t, c), t, c)


def _fifty_fifty_columns(t: ParamTable) -> Outcome:
    t = dataclasses.replace(t, phi=np.ones(len(t)))
    c = derive_coefficients(t)
    # f1 and f2, the existence conditions of the provider's price response;
    # rows failing them get no price (a1 == a2 fails f1 and divides by zero).
    report = check_feasibility(t)
    feasible = report.f1_price_positive & report.f2_price_max
    price = np.where(feasible, _best_price_unchecked(FIFTY_FIFTY_SHARE, c, t.f_c), np.nan)
    return _outcome_at(feasible, price, np.full(len(t), FIFTY_FIFTY_SHARE), t, c)


def _payg_supply(price, params):
    """(p_s / (alpha*k1*(price - f_c)*price^(-gamma)))^(1/(alpha-1)) in log
    space, for scalars or columns; NaN where the price does not cover f_c."""
    margin = np.where(price > params.f_c, price - params.f_c, np.nan)
    log_base = (
        np.log(params.p_s) - np.log(params.alpha) - np.log(params.k1)
        - np.log(margin) + params.gamma * np.log(price)
    )
    return np.exp(log_base / (params.alpha - 1.0))


def _rental(price, supply, t: ParamTable):
    """Demand and the renting provider's payoff (price - f_c)*demand - p_s*supply
    at a rented supply, elementwise."""
    demand = np.exp(_log_demand_primitive(np.log(price), np.log(supply), t))
    return demand, (price - t.f_c) * demand - t.p_s * supply


def _pay_as_you_go_columns(t: ParamTable, price) -> Outcome:
    supply = _payg_supply(price, t)
    demand, provider_payoff = _rental(price, supply, t)
    cloud_payoff = (t.p_s - t.f_s) * supply
    feasible = (price > t.f_c) & _finite(price, demand, supply, provider_payoff, cloud_payoff)
    return Outcome(t, feasible, price, None, demand, supply, provider_payoff, cloud_payoff)


def scenario_columns(scenario: str, t: ParamTable, price, mode: str) -> Outcome:
    """Run one scenario's kernel over every row of `t` at the given prices. Rows
    that overflow or are undefined come out infeasible, so numpy does not warn."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if scenario == TWO_SIDED:
            if mode == MODE_EQUILIBRIUM:
                return _equilibrium_columns(t)
            return _declared_price_columns(t, price)
        if scenario == FIFTY_FIFTY:
            return _fifty_fifty_columns(t)
        if scenario == PAY_AS_YOU_GO:
            return _pay_as_you_go_columns(t, price)
    raise ValueError(f"unknown scenario {scenario!r}")


# ---------------------------------------------------------------------------
# Scenario runners: records are built only here, at the API boundary.
# ---------------------------------------------------------------------------


def _run(providers: Sequence[Provider], scenario: str,
         mode: str = MODE_EQUILIBRIUM) -> list[ScenarioRecord]:
    """One scenario's kernel over the providers, as records sorted by
    provider_id; each record keeps its row of the table the kernel ran on."""
    if not providers:
        raise ValueError("population must be non-empty")
    ordered = sorted(providers, key=lambda p: p.provider_id)
    out = scenario_columns(scenario, ParamTable.from_params([p.params for p in ordered]),
                           np.array([p.declared_price for p in ordered]), mode)
    return [ScenarioRecord(prov.provider_id, scenario, params, *row)
            for prov, params, row in zip(ordered, out.params.rows(), out.rows(scenario))]


def run_two_sided(providers: Sequence[Provider],
                  mode: str = MODE_EQUILIBRIUM) -> list[ScenarioRecord]:
    """Run the revenue-sharing model for every provider.

    equilibrium mode solves each provider's game in full; declared-price
    mode keeps the sampled price and lets the platform optimize its share
    against it. Records come back sorted by provider_id.
    """
    return _run(providers, TWO_SIDED, mode)


def run_fifty_fifty(providers: Sequence[Provider]) -> list[ScenarioRecord]:
    """Run the egalitarian split: share 0.5, subsidizing factor 1.

    The provider prices optimally against the fixed split; supply and demand
    follow from the reduced forms at (price, 0.5). Draws where the price
    response does not exist are flagged infeasible.
    """
    return _run(providers, FIFTY_FIFTY)


def payg_supply(price, params: MarketParams | ParamTable):
    """The provider's optimal rented infrastructure under flat-rate pricing.

    (p_s / (alpha * k1 * (price - f_c) * price^(-gamma))) ** (1/(alpha-1)),
    evaluated in log space, elementwise. Requires price > f_c and alpha != 1;
    the error names the first price that does not cover its f_c.
    """
    if np.any(short := price <= params.f_c):
        price_at, f_c_at = (np.broadcast_to(v, np.shape(short))[short][0]
                            for v in (price, params.f_c))
        raise ValueError(f"price {price_at} does not cover f_c {f_c_at}")
    return _payg_supply(price, params)


def run_pay_as_you_go(providers: Sequence[Provider]) -> list[ScenarioRecord]:
    """Run the flat-rate rental model at each provider's declared price.

    Draws whose price does not cover the per-access cost have no valid
    rental optimum and are flagged infeasible. Share is not applicable.
    """
    return _run(providers, PAY_AS_YOU_GO)
