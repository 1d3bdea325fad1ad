"""
Uncertainty for the U statistic
================================

U is a two-sample U-statistic in disguise: contracting the sign
kernel over case-control pairs gives the same number as the plug-in
pairwise formula, plus a closed-form asymptotic variance.  This demo
builds a confidence interval three ways and then shows why the
genotype order handed to the permutation test must not be derived
from the data being tested.
"""

import numpy as np

from predictu.inference import (
    ResamplePlan,
    asymptotic_ci,
    bootstrap_ci,
    permutation_test,
    two_sample_u,
)
from predictu.risk_model import CaseControlCounts, GenotypeId, estimate_risk_table

genotypes = tuple(GenotypeId(i, label) for i, label in enumerate(["aa", "aA", "AA"]))
counts = CaseControlCounts(
    genotypes=genotypes,
    n_case=np.array([50, 60, 100]),
    n_control=np.array([450, 240, 100]),
    rho=0.21,
)

estimate = two_sample_u(counts, genotypes)
print(f"U_hat = {estimate.u_hat:.4f}  variance = {estimate.variance:.3e}")

asym = asymptotic_ci(estimate)
print(f"asymptotic 95% CI  [{asym.ci.lower:.4f}, {asym.ci.upper:.4f}]")

plan = ResamplePlan(n_replicates=2000, seed=1)
boot = bootstrap_ci(counts, genotypes, plan)
print(f"bootstrap  95% CI  [{boot.ci.lower:.4f}, {boot.ci.upper:.4f}] ({plan.n_replicates} resamples)")

perm_plan = ResamplePlan(n_replicates=999, seed=2)
p = permutation_test(counts, genotypes, perm_plan)
print(f"permutation p-value under H0 U=0: {p:.4f}")

# The order must come from outside the tested data.  Sorting the same
# counts by their estimated risks makes |U| large by construction, so
# the null test rejects far too often.  200 null datasets, both arms
# drawn from one genotype law:
q = np.array([0.4, 0.3, 0.2, 0.1])
null_genotypes = tuple(GenotypeId(i, f"g{i}") for i in range(4))
rng = np.random.default_rng(14)
reject_fixed = reject_sorted = 0
for k in range(200):
    null = CaseControlCounts(
        genotypes=null_genotypes,
        n_case=rng.multinomial(150, q),
        n_control=rng.multinomial(150, q),
        rho=0.1,
    )
    plan_k = ResamplePlan(n_replicates=199, seed=3000 + k)
    reject_fixed += permutation_test(null, null_genotypes, plan_k) <= 0.05
    self_sorted = estimate_risk_table(null).genotypes
    reject_sorted += permutation_test(null, self_sorted, plan_k) <= 0.05
print(f"\nnull rejection at alpha 0.05, fixed external order: {reject_fixed / 2:.1f}%")
print(f"null rejection with self-sorted order:             {reject_sorted / 2:.1f}%")
print("the self-sorted variant is anti-conservative; never test an order")
print("chosen by the same data")
