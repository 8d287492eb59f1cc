"""Two-sided cloud data-market simulator.

A numerical game-theory library for a market where a cloud platform
(leader) hosts data-service providers (followers), shares their revenue,
and supplies the infrastructure their consumers' demand rides on. Includes
closed-form Stackelberg equilibria with brute-force verification oracles,
three business-model scenarios, population sampling, and sensitivity
sweeps.
"""

from .core import (
    Coefficients,
    DomainError,
    FeasibilityReport,
    MarketParams,
    ParamTable,
    check_feasibility,
    cloud_payoff,
    consumer_demand_primitive,
    demand_reduced,
    derive_coefficients,
    provider_payoff,
    supply_primitive,
    supply_reduced,
)
from .equilibrium import (
    EquilibriumResult,
    OracleEquilibrium,
    SecondOrderReport,
    first_order_residuals,
    oracle_equilibrium,
    second_order_check,
    solve_share,
    stackelberg_solve,
)
from .population import (
    PopulationSpec,
    SweepSeries,
    SweepSpec,
    run_sweep,
    sample_providers,
    sample_table,
)
from .scenarios import (
    Provider,
    ScenarioRecord,
    payg_supply,
    run_fifty_fifty,
    run_pay_as_you_go,
    run_two_sided,
    scenario_columns,
)

__version__ = "0.1.0"
