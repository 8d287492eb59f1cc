"""Solving one leader-follower game and cross-checking it by brute force.

The platform announces its revenue share first; the provider answers with a
price. Backward induction turns this into a scalar root-finding problem in
the share. The closed-form solution is then verified three independent
ways: finite-difference stationarity, curvature signs, and a brute-force
oracle that knows nothing about the closed forms.
"""

import math

from tsm import (
    FeasibilityReport,
    MarketParams,
    ParamTable,
    check_feasibility,
    derive_coefficients,
    first_order_residuals,
    oracle_equilibrium,
    second_order_check,
    stackelberg_solve,
)
from tsm.equilibrium import _share_equation_columns

# A draw from the simulation-setup ranges whose game has an equilibrium.
# (Existence is demanding: it needs a strong externality loop plus a
# moderate subsidizing factor; most draws fail one of the conditions.)
params = MarketParams(
    alpha=0.4157495017341835, beta=2.0116927898597186,
    gamma=0.2746010273260006, psi=0.1, phi=0.4281244537440676,
    k1=0.8706127934353941, f_c=0.4668312747528217,
)

# Elementwise functions return numpy values; a scalar game is a batch of one.
print("flags:", FeasibilityReport(*map(bool, check_feasibility(params))))

exp_a, exp_b, log_c = _share_equation_columns(params, derive_coefficients(params))
print(f"\nshare equation chi^A (1-chi)^B = C with A={exp_a:.4f} "
      f"B={exp_b:.4f} C={math.exp(log_c):.6g}")

result = stackelberg_solve(params)
print(f"\nequilibrium (roots found: {result.share_roots_found}):")
print(f"  share* = {result.share_star:.8f}")
print(f"  price* = {result.price_star:.8f} USD/hour")
print(f"  demand = {result.demand:.6f}, supply = {result.supply:.6g}")
print(f"  provider payoff = {result.provider_payoff:+.6f} USD/hour")
print(f"  platform payoff = {result.cloud_payoff:+.6f} USD/hour")
print(f"  share-equation residual = {result.residual:.2e}")

# Check 1: both players are stationary at the reported point.
foc_price, foc_share = first_order_residuals(params, result.price_star,
                                             result.share_star)
print(f"\nfinite-difference stationarity: provider {foc_price:.2e}, "
      f"platform {foc_share:.2e} (both should be ~0)")

# Check 2: both stationary points are maxima, numerically and analytically.
soc = second_order_check(params, result.price_star, result.share_star)
print(f"curvature: provider {soc.d2_provider:+.3e} (negative: "
      f"{soc.provider_soc_negative}), platform {soc.d2_cloud:+.3e} "
      f"(negative: {soc.cloud_soc_negative})")

# Check 3: a brute-force search for fixed points of the two best-response
# maps, built only from payoff evaluations, lands on the same point.
# The oracle searches a table of games; this one is its only row.
[price], [share], _, [found] = oracle_equilibrium(ParamTable.from_params([params]),
                                                  grid_n=2000)
print(f"\nbrute-force oracle: share={share:.8f} price={price:.8f} "
      f"({found} interior fixed point(s) found)")
print(f"  |share difference| = {abs(share - result.share_star):.2e}")
print(f"  |price difference|/price = "
      f"{abs(price - result.price_star) / result.price_star:.2e}")

# Infeasibility is data, not an exception: weak externalities leave the
# provider's price problem without an interior maximum.
weak = MarketParams(alpha=0.5, beta=1.0, gamma=0.3, psi=0.1, phi=2.0,
                    k1=0.5, f_c=1.0)
print("\nweak-externality draw:", stackelberg_solve(weak).feasible,
      stackelberg_solve(weak).feasibility)
