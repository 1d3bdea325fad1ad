"""The package's export list and the value equality of its result types."""

from dataclasses import replace

import numpy as np
import pytest

import predictu
from predictu import simulate as sim
from predictu.curve_links import lorenz_from_table, roc_from_table
from predictu.isotonic import pava
from predictu.risk_model import (
    CaseControlCounts, GenotypeId, apply_model_to_test, build_risk_table,
)

EXPORTS = {
    "__version__",
    # errors
    "ValidationError", "NumericError",
    # risk_model
    "GenotypeId", "RiskTable", "CaseControlCounts", "build_risk_table",
    "estimate_risk_table", "apply_model_to_test",
    # summary_indices
    "IndexResult", "IndexSpec", "INDICES", "INDEX_TOKENS", "u_statistic",
    "clipped_band_masses", "r_square_statistic",
    "total_gain_statistic", "average_entropy_statistic", "binary_entropy",
    "predictiveness_u", "predictiveness_u_std", "partial_u", "r_square", "total_gain",
    "average_entropy",
    # curve_links
    "RocCurve", "LorenzCurve", "IdentityCheck", "implied_conditionals", "roc_from_table",
    "lorenz_from_table", "check_roc_identity", "check_lorenz_identity",
    # inference
    "Method", "ResamplePlan", "ConfidenceInterval", "UEstimate", "two_sample_u",
    "asymptotic_variance_u", "asymptotic_ci", "bootstrap_estimates", "bootstrap_ci",
    "permutation_test",
    # isotonic
    "IsotonicFit", "pava", "pava_rows",
    # simulate
    "Mode", "SnpSpec", "Interaction", "DiseaseModel", "Population", "EvalReport",
    "genotype_matrix", "genotype_probabilities", "penetrance_model", "heritability",
    "calibrate_heritability", "build_population", "sample_case_control",
    "run_bias_coverage", "load_model_spec", "preset",
    # fileio
    "ParseReport", "parse_subject_file", "parse_counts_file", "run_provenance",
}


def test_package_exports_the_module_lists():
    assert len(EXPORTS) == 66
    assert len(predictu.__all__) == len(set(predictu.__all__))
    assert set(predictu.__all__) == EXPORTS
    for name in predictu.__all__:
        assert getattr(predictu, name) is not None, name


def three_genotype_table():
    return build_risk_table(np.array([5, 6, 10]) / 21, np.array([45, 24, 10]) / 79, rho=0.21)


def trained_order_table():
    # the trained order puts g1 (test risk 0.3) before g2 (0.1); g3 is unseen
    order = (GenotypeId(0, "g1"), GenotypeId(1, "g2"))
    counts = CaseControlCounts(
        genotypes=order + (GenotypeId(2, "g3"),),
        n_case=np.array([6, 2, 4]), n_control=np.array([14, 18, 16]), rho=0.2,
    )
    return apply_model_to_test(order, counts)


def smoke_population():
    return sim.build_population(sim.preset("smoke"))


# one instance of each frozen result type with an array field, and the
# field whose last cell the unequal copy changes
INSTANCES = {
    "DiseaseModel": (lambda: sim.preset("smoke"), "penetrance"),
    "Population": (smoke_population, "cond_case"),
    "RiskTable": (three_genotype_table, "r"),
    "RiskTable-trained-order": (trained_order_table, "r"),
    "CaseControlCounts": (
        lambda: CaseControlCounts(
            genotypes=tuple(GenotypeId(i, f"g{i}") for i in range(3)),
            n_case=np.array([5, 6, 10]), n_control=np.array([45, 24, 10]), rho=0.21,
        ),
        "n_case",
    ),
    "IsotonicFit": (lambda: pava([0.3, 0.1, 0.5], [1.0, 1.0, 2.0]), "fitted"),
    "RocCurve": (lambda: roc_from_table(three_genotype_table()), "t"),
    "LorenzCurve": (lambda: lorenz_from_table(three_genotype_table()), "h"),
}


def with_last_cell_changed(values: np.ndarray) -> np.ndarray:
    changed = np.array(values)
    if changed.dtype.kind == "f":
        # one ulp down keeps risks and masses within tolerance
        changed[-1] = np.nextafter(changed[-1], -np.inf)
    else:
        changed[-1] += 1
    return changed


@pytest.mark.parametrize("kind", list(INSTANCES))
def test_array_results_compare_by_value(kind):
    make, field = INSTANCES[kind]
    obj = make()
    assert type(obj).__name__ == kind.partition("-")[0]
    copy = make()
    assert copy is not obj and copy == obj and not copy != obj
    changed = replace(obj, **{field: with_last_cell_changed(getattr(obj, field))})
    assert changed != obj and not changed == obj
    assert obj != 3 and obj.__eq__(3) is NotImplemented
    with pytest.raises(TypeError, match="unhashable"):
        hash(obj)


def test_non_array_fields_compare_with_eq():
    model = sim.preset("smoke")
    assert replace(model, name="other") != model
    assert replace(model, name=model.name) == model
    population = smoke_population()
    assert replace(population, model=replace(model, name="other")) != population
