import numpy as np
import pytest

from predictu.isotonic import pava
from predictu.risk_model import CaseControlCounts, GenotypeId, build_risk_table


@pytest.fixture
def three_genotype_table():
    # p = (0.5, 0.3, 0.2), r = (0.1, 0.2, 0.5), rho = 0.21
    return build_risk_table(
        conditional_case=np.array([5, 6, 10]) / 21,
        conditional_control=np.array([45, 24, 10]) / 79,
        rho=0.21,
    )


@pytest.fixture
def three_genotype_counts():
    return CaseControlCounts(
        genotypes=tuple(GenotypeId(i, f"g{i}") for i in range(3)),
        n_case=np.array([5, 6, 10]),
        n_control=np.array([45, 24, 10]),
        rho=0.21,
    )


@pytest.fixture
def two_genotype_counts():
    # cases (8, 2), controls (2, 8): plug-in risks 0.08/0.26 and 0.02/0.74
    return CaseControlCounts(
        genotypes=(GenotypeId(0, "g1"), GenotypeId(1, "g2")),
        n_case=np.array([8, 2]),
        n_control=np.array([2, 8]),
        rho=0.1,
    )


def random_sorted_table(rng, max_genotypes=12):
    """Random risk-sorted table with random prevalence in (0.01, 0.5)."""
    g = int(rng.integers(2, max_genotypes + 1))
    rho = float(rng.uniform(0.01, 0.5))
    case = rng.dirichlet(np.ones(g))
    control = rng.dirichlet(np.ones(g))
    return build_risk_table(case, control, rho)


def brute_force_u(p, r):
    """U by the O(G^2) pairwise definition, independent of the library path."""
    p = np.asarray(p, dtype=float)
    r = np.asarray(r, dtype=float)
    total = 0.0
    for i in range(len(p)):
        for j in range(i):
            total += p[i] * p[j] * (r[i] - r[j])
    return 2.0 * total


def refit_rows_one_by_one(p, r):
    """Isotonic refit of each row's positive-mass risks, masses as weights.

    The simulation harness's former per-row loop over ``pava``: the
    reference the batched ``pava_rows`` must equal bit for bit.
    """
    out = np.array(r, dtype=float, copy=True)
    for i in range(p.shape[0]):
        mask = p[i] > 0
        if mask.sum() > 1:
            out[i, mask] = pava(r[i, mask], p[i, mask]).fitted
    return out
