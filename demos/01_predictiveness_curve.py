"""
From case-control counts to a predictiveness curve
===================================================

A risk model over a handful of genotypes is just a lookup table:
each genotype carries a population mass p_g and a disease risk
r_g = P(D | g).  Sorting by risk and plotting r against the
cumulative mass q gives the predictiveness curve R(q), a step
function whose flat spans are genotype classes.

Case-control data cannot reveal the prevalence rho, so rho is always
passed in from outside.  Risks then follow from Bayes' rule applied
to the two within-arm genotype distributions.
"""

import numpy as np

from predictu import build_risk_table, estimate_risk_table
from predictu.risk_model import CaseControlCounts

# A three-genotype study: 21 cases and 79 controls, prevalence 21%.
counts = CaseControlCounts(
    genotypes=("aa", "aA", "AA"),
    n_case=np.array([5, 6, 10]),
    n_control=np.array([45, 24, 10]),
    rho=0.21,
)

table = estimate_risk_table(counts)
print("genotype  mass p_g  risk r_g")
for g, p, r in zip(table.genotypes, table.p, table.r):
    print(f"{g:>8s}  {p:8.3f}  {r:8.3f}")
print(f"prevalence check: sum p_g r_g = {float(table.p @ table.r):.3f} (rho = {table.rho})")

# The curve pairs each genotype with the right endpoint of its mass
# span, the cumulative mass q.
print("\nstep curve (right endpoints):")
for q, r in zip(table.q, table.r):
    print(f"  R({q:.2f}) = {r:.3f}")

# The same table can be built directly from the two conditional
# distributions P(g | D) and P(g | not D); the counts above are just
# one realisation of them.
direct = build_risk_table([5 / 21, 6 / 21, 10 / 21], [45 / 79, 24 / 79, 10 / 79], rho=0.21)
assert np.allclose(direct.r, table.r)
print("\ndirect conditional-distribution construction agrees with the estimate")

# Zero counts in one arm put a risk exactly at 0 or 1.  A small
# additive smoothing constant pulls such estimates off the boundary.
sparse = CaseControlCounts(
    genotypes=counts.genotypes,
    n_case=np.array([0, 6, 15]),
    n_control=np.array([45, 24, 10]),
    rho=0.21,
)
raw = estimate_risk_table(sparse)
smoothed = estimate_risk_table(sparse, laplace=0.5)
print(f"\nboundary risks without smoothing: {raw.boundary_risks.any()}")
print(f"with laplace=0.5 the lowest risk moves to {smoothed.r[0]:.4f}")
