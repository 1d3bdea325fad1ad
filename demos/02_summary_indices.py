"""
Summary indices of a predictiveness curve
==========================================

One curve, several one-number summaries.  U averages the pairwise
risk differences weighted by genotype masses; dividing by its
maximum 2 rho (1 - rho) gives the standardized U_std in [0, 1].
R is the variance of risks, TG the mean absolute deviation, AE the
entropy explained.  Partial U restricts the average to a band of the
mass axis, which is where rare but strong genotypes live.
"""

from predictu import build_risk_table
from predictu.summary_indices import (
    average_entropy,
    partial_u,
    predictiveness_u,
    predictiveness_u_std,
    r_square,
    total_gain,
)

table = build_risk_table([5 / 21, 6 / 21, 10 / 21], [45 / 79, 24 / 79, 10 / 79], rho=0.21)

for result in (
    predictiveness_u(table),
    predictiveness_u_std(table),
    r_square(table),
    r_square(table, standardized=True),
    total_gain(table),
    average_entropy(table),
):
    print(f"{result.name:>7s} = {result.value:.6f}")

# Restricting to the top half of the mass axis keeps only the risk
# spread among the highest-risk genotypes.
upper = partial_u(table, 0.5, 1.0)
print(f"\n{upper.name}({upper.band[0]:.1f}, {upper.band[1]:.1f}) = {upper.value:.6f}")
print(f"notes: {upper.notes}")

# Standardizing divides by 2 rho_pt (1 - rho_pt), with rho_pt the band
# mass integral of risk.  The mean risk within the band is reported in
# the notes.
std = partial_u(table, 0.5, 1.0, standardized=True)
print(f"standardized: {std.value:.6f} (rho_pt={std.rho_pt:.4f}, {std.notes[0]})")

# A full-axis band is the global index again (up to the last bit of
# float accumulation order).
gap = abs(partial_u(table, 0.0, 1.0).value - predictiveness_u(table).value)
assert gap < 1e-15
print(f"\npartial U over (0, 1) equals the global U (gap {gap:.1e})")
