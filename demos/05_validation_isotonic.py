"""
Honest evaluation on held-out data
===================================

Evaluating a risk model on its own training data overstates its
spread: the trained genotype ordering is tuned to the noise of that
sample.  The honest protocol fixes the ordering on training data,
then recomputes masses and risks on an independent test sample in
that fixed order.  The resulting test curve need not be monotone;
its dips are exactly the overfit part of the ordering.  An isotonic
refit (least-squares monotone regression) merges the offending
genotypes back together.
"""

import warnings
from dataclasses import replace

import numpy as np

from predictu import simulate as sim
from predictu.isotonic import pava
from predictu.risk_model import apply_model_to_test, estimate_risk_table
from predictu.summary_indices import u_statistic

pop = sim.build_population(sim.preset("smoke"))
true_u = float(u_statistic(pop.table.p, pop.table.r))
rng = np.random.default_rng(0)

with warnings.catch_warnings():
    warnings.simplefilter("ignore")  # small samples may miss rare genotypes
    train = sim.sample_case_control(pop, 300, 300, rng)
    test = sim.sample_case_control(pop, 300, 300, rng)
    table = estimate_risk_table(train)
    curve = apply_model_to_test(table.genotypes, test)

train_u = float(u_statistic(table.p, table.r))
test_u = float(u_statistic(curve.p, curve.r))
print(f"true U      = {true_u:.4f}")
print(f"train U     = {train_u:.4f}   (optimistic)")
print(f"test U      = {test_u:.4f}   (honest, trained order)")
print(f"test curve monotone: {curve.monotone}")

print("\ntest risks in the trained order:")
for g, r in zip(curve.genotypes, curve.r):
    print(f"  {g:>6s}  {r:.4f}")

# the refit projects the test risks onto the nearest nondecreasing
# sequence, weighting by genotype mass
refit = replace(curve, r=pava(curve.r, curve.p))
refit_u = float(u_statistic(refit.p, refit.r))
print(f"\nisotonic refit U = {refit_u:.4f}")
print("refitted risks (ties are merged blocks):")
for g, r in zip(refit.genotypes, refit.r):
    print(f"  {g:>6s}  {r:.4f}")

# mass-weighted mean risk is preserved by the projection
assert abs(float(curve.p @ curve.r) - float(refit.p @ refit.r)) < 1e-12
print("\nthe refit preserves the mass-weighted mean risk exactly")
