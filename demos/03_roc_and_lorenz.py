"""
ROC and Lorenz views of the same risk table
============================================

The predictiveness curve, the ROC curve, and the Lorenz curve are
three pictures of one object.  On a discrete risk table their areas
are tied by exact identities:

    U = 2 rho (1 - rho) (2 AUC_R - 1)      (ROC)
    U = 4 rho (0.5 - AUC_L)                (Lorenz)
    AUC_L = (1 - rho)(1 - AUC_R) + rho / 2 (chain between the two)

so any one area determines the others once rho is known.  The checks
below run to floating-point precision, not statistical tolerance.
"""

import numpy as np

from predictu import build_risk_table
from predictu.curve_links import (
    check_lorenz_identity,
    check_roc_identity,
    lorenz_from_table,
    roc_from_table,
)
from predictu.summary_indices import u_statistic

table = build_risk_table([5 / 21, 6 / 21, 10 / 21], [45 / 79, 24 / 79, 10 / 79], rho=0.21)
u = float(u_statistic(table.p, table.r))
rho = table.rho

roc = roc_from_table(table)
print("ROC vertices (fpr, tpr):")
for t, f in zip(roc.t, roc.f):
    print(f"  ({t:.4f}, {f:.4f})")
print(f"AUC_R = {roc.auc:.6f}")
print(f"identity: 2 rho (1-rho) (2 AUC_R - 1) = {2 * rho * (1 - rho) * (2 * roc.auc - 1):.6f}")
print(f"U                                     = {u:.6f}")

lorenz = lorenz_from_table(table)
print("\nLorenz vertices (q, h):")
for q, h in zip(lorenz.q, lorenz.h):
    print(f"  ({q:.4f}, {h:.4f})")
print(f"AUC_L = {lorenz.auc:.6f}")
print(f"identity: 4 rho (0.5 - AUC_L) = {4 * rho * (0.5 - lorenz.auc):.6f}")

chained = (1 - rho) * (1 - roc.auc) + rho / 2
print(f"\nchain: (1-rho)(1-AUC_R) + rho/2 = {chained:.6f} vs AUC_L = {lorenz.auc:.6f}")

for check in (check_roc_identity(table), check_lorenz_identity(table)):
    print(f"residual {check.residual:.2e}")

# The identities hold on any risk-sorted table, not just this one.
rng = np.random.default_rng(12)
worst = 0.0
for _ in range(200):
    g = int(rng.integers(2, 10))
    t = build_risk_table(rng.dirichlet(np.ones(g)), rng.dirichlet(np.ones(g)),
                         float(rng.uniform(0.05, 0.45)))
    worst = max(worst, check_roc_identity(t).residual, check_lorenz_identity(t).residual)
print(f"\nworst residual over 200 random tables: {worst:.2e}")
