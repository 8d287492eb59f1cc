"""Sensitivity sweeps: how the aggregates move along one parameter axis.

Each sweep resamples nothing: the same seeded population is pushed through
the scenarios while one axis (here the externality product, then the
subsidizing factor) steps across its grid. Cells aggregate means over the
feasible records. The same series are what `tsm sweep` writes as CSV.
"""

from tsm import PopulationSpec, SweepSpec, run_sweep

population = PopulationSpec(n_providers=300, seed=1729)

# Externality sweep: per grid value g, each provider's beta is re-derived
# as g / alpha so the product is exactly g across the population.
spec = SweepSpec(axis="alpha_beta_product", scenarios=("two_sided",),
                 phi_levels=(0.5, 1.5, 5.0), population=population)
cells = run_sweep(spec)

print("mean platform payoff and mean share over the externality product")
print(f"{'a*b':>5} | " + " | ".join(f"phi={lvl:<3} payoff    share" for lvl in (0.5, 1.5, 5.0)))
grid = sorted({c.axis_value for c in cells})
for value in grid:
    row = [f"{value:>5.2f}"]
    for lvl in (0.5, 1.5, 5.0):
        [cell] = [c for c in cells
                  if c.axis_value == value and c.phi_level == lvl]
        row.append(f"{cell.mean_cloud_payoff:+.2e} {cell.mean_share:.4f}")
    print(" | ".join(row))
print("(the platform asks for a growing share as the externality loop "
      "strengthens, and its payoff rides the amplified demand)")

# Subsidizing-factor sweep: phi itself is the axis, fixed population-wide.
spec_phi = SweepSpec(axis="phi", scenarios=("two_sided",), population=population)
cells_phi = run_sweep(spec_phi)
print("\nmean payoffs over the subsidizing factor")
print(f"{'phi':>5} {'platform':>12} {'provider':>12} {'demand':>10}")
for cell in cells_phi:
    print(f"{cell.axis_value:>5.2f} {cell.mean_cloud_payoff:>+12.5f} "
          f"{cell.mean_provider_payoff:>+12.5f} {cell.mean_demand:>10.6f}")

print("\nThe CLI writes any of these as plot-ready CSV, e.g.:")
print("  tsm sweep --preset fig8 --seed 1729 --out fig8.csv")
print("  tsm sweep --axis phi --scenario two_sided --out phi_sweep.csv")
