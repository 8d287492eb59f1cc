"""The three business models over one sampled provider population.

A population of data-service providers is drawn from the simulation-setup
distributions (list prices, externalities, elasticities, multipliers), then
pushed through:

* two_sided (declared-price): providers keep their list prices, the
  platform picks its revenue share per provider;
* fifty_fifty: an even split, providers re-price against it;
* pay_as_you_go: flat-rate infrastructure rental, no revenue sharing.

Each run is one column per quantity over the whole population, and means
are taken over the feasible providers only.
"""

import numpy as np

from tsm import PopulationSpec, sample_table, scenario_columns


spec = PopulationSpec(n_providers=300, seed=1729)
table, prices = sample_table(spec)
print(f"sampled {len(table)} providers (seed {spec.seed})")
print(f"  first provider: price={prices[0]:.3f}, {table.rows()[0]}")

print(f"\n{'scenario':>14} {'feasible':>9} {'mean provider':>14} "
      f"{'mean platform':>14} {'mean demand':>12} {'mean share':>11}")
for tag in ("fifty_fifty", "pay_as_you_go", "two_sided"):
    out = scenario_columns(tag, table, prices, "declared-price")
    # Means over the feasible providers: NaN without any, None without a share.
    count, means = out.feasible_mean("provider_payoff", "cloud_payoff", "demand", "share")
    prov, cloud, demand, share = (np.nan if m is None else float(m) for m in means)
    print(f"{tag:>14} {int(count):>6}/{len(table):<3}"
          f" {prov:>+14.6f} {cloud:>+14.6f} {demand:>12.6f} {share:>11.4f}")

# The full equilibrium variant of the two-sided run solves every provider's
# game from scratch. Existence is rare under these parameter ranges, so
# most providers come back flagged infeasible and are excluded from means.
equilibrium = scenario_columns("two_sided", table, prices, "equilibrium")
print(f"\ntwo_sided equilibrium mode: {int(equilibrium.feasible.sum())}/{len(table)} "
      f"providers have a reported equilibrium")
for i in np.flatnonzero(equilibrium.feasible):
    print(f"  provider {i}: share*={equilibrium.share[i]:.4f} "
          f"price*={equilibrium.price[i]:.3f} platform={equilibrium.cloud_payoff[i]:+.5f} "
          f"provider={equilibrium.provider_payoff[i]:+.5f}")
