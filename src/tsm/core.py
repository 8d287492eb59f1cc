"""Core market model: parameters, derived coefficients, demand/supply curves, payoffs.

The market couples two Cobb-Douglas curves. Consumer demand reacts to the
service price and to the amount of infrastructure backing the service;
infrastructure supply reacts to the revenue share the platform collects, to
the service price, and back to consumer demand. Substituting one curve into
the other gives reduced forms in (price, share) alone, which every other
module builds on.

All power laws are evaluated in log space (exp of a sum of exponent*log
terms). The reduced-form exponents carry a 1/a2 factor that grows without
bound as the externality product approaches 1, so direct `x**y` chains would
overflow long before the model itself becomes degenerate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple, Sequence

import numpy as np

# Validation cap on alpha*beta. The model needs alpha*beta < 1; we stop
# slightly short of it so the reduced-form exponent 1/a2 stays <= 1000.
ALPHA_BETA_CAP = 0.999


class DomainError(ValueError):
    """An input lies outside an operation's mathematical domain."""


@dataclass(frozen=True)
class MarketParams:
    """Full parameterization of one provider/platform pair.

    Attributes
    ----------
    alpha : externality of infrastructure supply on consumer demand, in (0, 1).
    beta : externality of consumer demand on supply, in (0, 1/alpha).
    gamma : price elasticity of consumer demand, >= 0.
    psi : price elasticity of infrastructure supply, >= 0.
    phi : elasticity of supply w.r.t. the revenue share (subsidizing factor), >= 0.
    k1 : demand multiplier, > 0.
    k2 : supply multiplier, > 0.
    f_c : provider's cost per consumer access, USD/hour, >= 0.
    f_s : platform's cost per infrastructure unit, USD/hour, >= 0.
    p_s : pay-as-you-go rental rate, USD/hour, > 0.
    """

    alpha: float
    beta: float
    gamma: float
    psi: float
    phi: float
    k1: float
    f_c: float
    k2: float = 1.0
    f_s: float = 23.7
    p_s: float = 36.0

    def __post_init__(self):
        check_domain(self)


# MarketParams's domain, the one statement of it: (quantity, test, requirement)
# in checking order. Each test takes a parameter set's value or a column.
_DOMAIN_RULES = (
    *((f.name, lambda v: abs(v) < math.inf, "be finite") for f in fields(MarketParams)),
    ("alpha", lambda v: (0.0 < v) & (v < 1.0), "lie in (0, 1)"),
    ("beta", lambda v: v > 0.0, "be > 0"),
    ("alpha*beta", lambda v: v < ALPHA_BETA_CAP, f"be < {ALPHA_BETA_CAP}"),
    ("gamma", lambda v: v >= 0.0, "be >= 0"),
    ("psi", lambda v: v >= 0.0, "be >= 0"),
    ("phi", lambda v: v >= 0.0, "be >= 0"),
    ("k1", lambda v: v > 0.0, "be > 0"),
    ("k2", lambda v: v > 0.0, "be > 0"),
    ("f_c", lambda v: v >= 0.0, "be >= 0"),
    ("f_s", lambda v: v >= 0.0, "be >= 0"),
    ("p_s", lambda v: v > 0.0, "be > 0"),
)


def _refuse(quantity: str, value, test, requirement: str) -> None:
    """Raise DomainError naming the first element of `value` that fails `test`."""
    # np.all without its Python-level dispatch, which a parameter set pays once a rule
    if not np.logical_and.reduce(ok := test(value), axis=None):
        got = np.extract(~np.asarray(ok), value)[0].item()
        raise DomainError(f"{quantity} must {requirement}, got {got!r}")


def check_domain(params: MarketParams | ParamTable) -> None:
    """Raise DomainError for the first domain rule that the parameter set, or
    any row of the table, breaks; the message gives the first offending value."""
    for quantity, test, requirement in _DOMAIN_RULES:
        value = (params.alpha * params.beta if quantity == "alpha*beta"
                 else getattr(params, quantity))
        _refuse(quantity, value, test, requirement)


# A point of the curves and payoffs: quantity -> (test, requirement).
_POSITIVE = (lambda v: v > 0.0, "be > 0")
_POINT_RULES = {"price": _POSITIVE, "supply": _POSITIVE, "demand": _POSITIVE,
                "share": (lambda v: (0.0 < v) & (v < 1.0), "lie in (0, 1)")}


def check_point(**values) -> None:
    """Raise DomainError for the first keyword value (price, share, supply or
    demand, elementwise) that breaks its rule, naming its first offending element."""
    for quantity, value in values.items():
        _refuse(quantity, value, *_POINT_RULES[quantity])


@dataclass(frozen=True)
class ParamTable:
    """Struct-of-arrays form of MarketParams: one float column per field, one
    row per game.

    `derive_coefficients`, `check_feasibility` and the kernels broadcast over
    it, and so may its columns (on a sweep table `len(t)` is n, not cells x n).
    Constructors do not validate; `check_domain` checks a table against
    MarketParams's rules. `dataclasses.replace` swaps in a column.
    """

    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    psi: np.ndarray
    phi: np.ndarray
    k1: np.ndarray
    f_c: np.ndarray
    k2: np.ndarray
    f_s: np.ndarray
    p_s: np.ndarray

    @classmethod
    def from_params(cls, params: Sequence[MarketParams]) -> "ParamTable":
        """One row per parameter set; `from_params([p])` is one game as a batch of one."""
        return cls(*(np.array([getattr(p, f.name) for p in params], dtype=float)
                     for f in fields(MarketParams)))

    @classmethod
    def from_columns(cls, **columns) -> "ParamTable":
        """Columns by field name, broadcast together; omitted ones take their
        MarketParams default."""
        return cls(*np.broadcast_arrays(*(np.asarray(columns.get(f.name, f.default), float)
                                          for f in fields(MarketParams))))

    @classmethod
    def concat(cls, tables: Sequence["ParamTable"]) -> "ParamTable":
        """The tables' rows, one after another."""
        return cls(*(np.concatenate([getattr(t, f.name) for t in tables])
                     for f in fields(cls)))

    def __len__(self) -> int:
        return self.alpha.size

    def take(self, rows) -> "ParamTable":
        """The table's rows at the given indices, in that order."""
        return ParamTable(*(getattr(self, f.name)[rows] for f in fields(self)))

    def rows(self) -> list[MarketParams]:
        """Each row as a validated MarketParams."""
        return [MarketParams(*row)
                for row in zip(*(getattr(self, f.name).tolist() for f in fields(self)))]


class Coefficients(NamedTuple):
    """Composite exponents derived from one MarketParams.

    a1 = gamma - alpha*psi
    a2 = 1 - alpha*beta          (in (0, 1) for any valid MarketParams)
    a3 = psi - gamma*beta
    a4 = alpha*phi
    """

    a1: float
    a2: float
    a3: float
    a4: float


def derive_coefficients(params: MarketParams | ParamTable) -> Coefficients:
    """Compute the composite exponents, elementwise over a ParamTable.

    Pure; same params give identical values.
    """
    return Coefficients(a1=params.gamma - params.alpha * params.psi,
                        a2=1.0 - params.alpha * params.beta,
                        a3=params.psi - params.gamma * params.beta, a4=params.alpha * params.phi)


class FeasibilityReport(NamedTuple):
    """Existence conditions for the closed-form best responses (per row of a ParamTable).

    f1_price_positive : a1/(a1 - a2) > 0, the optimal price is positive.
    f2_price_max      : a1/a2 > 1, the provider's stationary price is a maximum.
    f3_share_max      : a4 + a2 - phi < 0, the platform's stationary share is a maximum.
    """

    f1_price_positive: bool
    f2_price_max: bool
    f3_share_max: bool
    all_ok: bool


def check_feasibility(params: MarketParams | ParamTable, c=None) -> FeasibilityReport:
    """The three existence conditions f1-f3, elementwise (numpy bools), at coefficients `c`."""
    c = derive_coefficients(params) if c is None else c
    a1, a2 = np.asarray(c.a1), np.asarray(c.a2)
    # a1 == a2 would make the price formula divide by zero; treat as failed.
    with np.errstate(divide="ignore", invalid="ignore"):
        f1 = (a1 != a2) & (a1 / (a1 - a2) > 0.0)
    f2 = a1 / a2 > 1.0
    f3 = c.a4 + a2 - params.phi < 0.0
    return FeasibilityReport(f1, f2, f3, f1 & f2 & f3)


# ---------------------------------------------------------------------------
# Log-space curve evaluations. The private helpers accept numpy arrays and do
# no validation. The public operations check their point (`check_point`) and
# delegate, elementwise over a MarketParams or a ParamTable, with numpy values
# back: a scalar call is a batch of one. Everything downstream (scenario
# engines, sweeps) reuses the same helpers: one implementation of each formula.
# ---------------------------------------------------------------------------


def _log_demand_primitive(log_price, log_supply, params: MarketParams):
    return np.log(params.k1) - params.gamma * log_price + params.alpha * log_supply


def _log_supply_primitive(log_share, log_price, log_demand, params: MarketParams):
    return (
        np.log(params.k2)
        + params.phi * log_share
        + params.psi * log_price
        + params.beta * log_demand
    )


# log_share None drops the share term (share 1), so its exponent cannot widen the result.
def _log_demand_reduced(log_price, log_share, params: MarketParams, c: Coefficients):
    log_d = np.log(params.k1) + params.alpha * np.log(params.k2) - c.a1 * log_price
    return (log_d if log_share is None else log_d + c.a4 * log_share) / c.a2


def _log_supply_reduced(log_price, log_share, params: MarketParams, c: Coefficients):
    log_s = np.log(params.k2) + params.beta * np.log(params.k1) + c.a3 * log_price
    return (log_s if log_share is None else log_s + params.phi * log_share) / c.a2


def consumer_demand_primitive(price, supply, params: MarketParams | ParamTable):
    """Consumer demand k1 * price^(-gamma) * supply^alpha."""
    check_point(price=price, supply=supply)
    return np.exp(_log_demand_primitive(np.log(price), np.log(supply), params))


def supply_primitive(share, price, demand, params: MarketParams | ParamTable):
    """Infrastructure supply k2 * share^phi * price^psi * demand^beta."""
    check_point(share=share, price=price, demand=demand)
    return np.exp(_log_supply_primitive(np.log(share), np.log(price), np.log(demand), params))


def demand_reduced(price, share, params: MarketParams | ParamTable):
    """Consumer demand as a function of (price, share) only.

    (k1 * k2^alpha * price^(-a1) * share^a4) ** (1/a2)
    """
    check_point(price=price, share=share)
    return np.exp(_log_demand_reduced(np.log(price), np.log(share), params,
                                      derive_coefficients(params)))


def supply_reduced(price, share, params: MarketParams | ParamTable):
    """Infrastructure supply as a function of (price, share) only.

    (k2 * k1^beta * price^a3 * share^phi) ** (1/a2)
    """
    check_point(price=price, share=share)
    return np.exp(_log_supply_reduced(np.log(price), np.log(share), params,
                                      derive_coefficients(params)))


def _provider_payoff(price, share, demand, f_c):
    return (price * (1.0 - share) - f_c) * demand


def _provider_payoff_arr(price, share, params, c: Coefficients):
    demand = np.exp(_log_demand_reduced(np.log(price), np.log(share), params, c))
    return _provider_payoff(price, share, demand, params.f_c)


def provider_payoff(price, share, params: MarketParams | ParamTable):
    """Provider surplus (price*(1-share) - f_c) * demand. May be negative."""
    check_point(price=price, share=share)
    return _provider_payoff_arr(price, share, params, derive_coefficients(params))


def _cloud_payoff(log_price, log_share, log_demand, log_supply, f_s):
    # exp(log(0) + x) = 0, so f_s = 0 falls out of the same expression.
    with np.errstate(divide="ignore"):
        return np.exp(log_price + log_share + log_demand) - np.exp(np.log(f_s) + log_supply)


def _cloud_payoff_arr(price, share, params, c: Coefficients):
    log_price, log_share = np.log(price), np.log(share)
    return _cloud_payoff(log_price, log_share, _log_demand_reduced(log_price, log_share, params, c),
                         _log_supply_reduced(log_price, log_share, params, c), params.f_s)


def _share_payoff(log_r, e1, log_k, e2):
    """R*s^e1 - K*s^e2 as a function of the share s, from its terms."""
    return lambda s: np.exp(log_r + e1 * (log_s := np.log(s))) - np.exp(log_k + e2 * log_s)


def _cloud_share_slice(price, params, c: Coefficients):
    """The platform payoff at a fixed price as R*s^e1 - K*s^e2 in share s: its terms
    (log R, e1, log K, e2), log K = -inf where f_s = 0, and the payoff as a function of s."""
    log_price = np.log(price)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_k = np.log(params.f_s) + _log_supply_reduced(log_price, None, params, c)
    log_r = log_price + _log_demand_reduced(log_price, None, params, c)
    terms = (log_r, c.a4 / c.a2 + 1.0, log_k, params.phi / c.a2)
    return terms, _share_payoff(*terms)


def cloud_payoff(price, share, params: MarketParams | ParamTable):
    """Platform surplus price*share*demand - f_s*supply. May be negative."""
    check_point(price=price, share=share)
    return _cloud_payoff_arr(price, share, params, derive_coefficients(params))
