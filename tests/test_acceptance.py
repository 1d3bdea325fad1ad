"""Acceptance gate: ten end-to-end checks with one printed verdict line each.

Each check covers one contract: the ROC and Lorenz area identities, the
pair-kernel contraction and its variance, calibration and coverage of
the interval machinery, ordinal bias/coverage patterns on the bundled
simulation presets, isotonic-regression correctness, null calibration
of the permutation test, and byte determinism of the CLI pipeline.
"""

import itertools
import time

import numpy as np
import pytest

from predictu.cli import main
from predictu.curve_links import lorenz_from_table, roc_from_table
from predictu.fileio import read_json
from predictu.inference import (
    ResamplePlan,
    asymptotic_ci,
    bootstrap_ci,
    permutation_test,
    two_sample_u,
)
from predictu.isotonic import pava
from predictu.risk_model import CaseControlCounts, GenotypeId, build_risk_table
from predictu.summary_indices import u_statistic
from predictu import simulate as sim


def verdict(capsys, num, name, ok, detail):
    with capsys.disabled():
        print(f"acceptance {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def random_table(rng):
    g = int(rng.integers(2, 13))
    rho = float(rng.uniform(0.01, 0.5))
    return build_risk_table(rng.dirichlet(np.ones(g)), rng.dirichlet(np.ones(g)), rho)


def test_criterion_01_roc_area_identity(capsys):
    t0 = time.monotonic()
    rng = np.random.default_rng([2026, 21])
    worst = 0.0
    for _ in range(500):
        t = random_table(rng)
        u = float(u_statistic(t.p, t.r))
        auc = roc_from_table(t).auc
        worst = max(worst, abs(u - 2 * t.rho * (1 - t.rho) * (2 * auc - 1)))
    elapsed = time.monotonic() - t0
    verdict(
        capsys, 1, "roc area identity",
        worst <= 1e-10 and elapsed < 5.0,
        f"max residual {worst:.2e} over 500 tables, {elapsed:.1f}s",
    )


def test_criterion_02_lorenz_area_identity(capsys):
    t0 = time.monotonic()
    rng = np.random.default_rng([2026, 21])
    worst_dual = worst_chain = 0.0
    for _ in range(500):
        t = random_table(rng)
        u = float(u_statistic(t.p, t.r))
        auc_r = roc_from_table(t).auc
        auc_l = lorenz_from_table(t).auc
        # the Lorenz ordinate integrates case mass, so twice the prevalence
        # scale of the raw area gap: U = 4 rho (0.5 - AUC_L)
        worst_dual = max(worst_dual, abs(u - 4 * t.rho * (0.5 - auc_l)))
        worst_chain = max(
            worst_chain, abs(auc_l - ((1 - t.rho) * (1 - auc_r) + t.rho / 2))
        )
    elapsed = time.monotonic() - t0
    verdict(
        capsys, 2, "lorenz area identity",
        worst_dual <= 1e-10 and worst_chain <= 1e-10 and elapsed < 5.0,
        f"max residuals {worst_dual:.2e} / {worst_chain:.2e}, {elapsed:.1f}s",
    )


def test_criterion_03_pair_kernel_contraction(capsys):
    rng = np.random.default_rng([2026, 31])
    worst_u = 0.0
    for _ in range(500):
        g = int(rng.integers(2, 11))
        rho = float(rng.uniform(0.05, 0.4))
        counts = CaseControlCounts(
            genotypes=tuple(GenotypeId(i, f"g{i}") for i in range(g)),
            n_case=rng.integers(1, 40, g),
            n_control=rng.integers(1, 40, g),
            rho=rho,
        )
        est = two_sample_u(counts, counts.genotypes)
        a = counts.n_case / counts.n_case.sum()
        b = counts.n_control / counts.n_control.sum()
        p = a * rho + b * (1 - rho)
        r = np.where(p > 0, a * rho / np.where(p > 0, p, 1.0), 0.0)
        plug = sum(
            2 * p[i] * p[j] * (r[i] - r[j]) for i in range(g) for j in range(i)
        )
        worst_u = max(worst_u, abs(est.u_hat - plug))

    # genotype-class variance against the subject-level projection sum
    worst_v = 0.0
    for _ in range(60):
        g = int(rng.integers(2, 6))
        rho = float(rng.uniform(0.05, 0.4))
        while True:
            ca = rng.integers(0, 9, g)
            co = rng.integers(0, 9, g)
            if ca.sum() >= 2 and co.sum() >= 2 and ca.sum() + co.sum() <= 60:
                break
        counts = CaseControlCounts(
            genotypes=tuple(GenotypeId(i, f"g{i}") for i in range(g)),
            n_case=ca, n_control=co, rho=rho,
        )
        est = two_sample_u(counts, counts.genotypes)
        case_pos = np.repeat(np.arange(g), ca)
        ctrl_pos = np.repeat(np.arange(g), co)
        phi = np.sign(case_pos[:, None] - ctrl_pos[None, :]).astype(float)
        theta = phi.mean()
        n_d, n_c = len(case_pos), len(ctrl_pos)
        brute = (4 * rho**2 * (1 - rho)**2) * (
            ((phi.mean(axis=1) - theta) ** 2).sum() / (n_d * (n_d - 1))
            + ((phi.mean(axis=0) - theta) ** 2).sum() / (n_c * (n_c - 1))
        )
        worst_v = max(worst_v, abs(est.variance - brute))
    verdict(
        capsys, 3, "pair-kernel contraction",
        worst_u <= 1e-12 and worst_v <= 1e-12,
        f"estimator gap {worst_u:.2e}, variance gap {worst_v:.2e}",
    )


def test_criterion_04_variance_calibration(capsys):
    t0 = time.monotonic()
    pop = sim.build_population(sim.preset("sim1_h005"))
    order = pop.table.genotypes
    rng = np.random.default_rng([2026, 41])
    u_hats = np.empty(2000)
    var_hats = np.empty(2000)
    for k in range(2000):
        counts = sim.sample_case_control(pop, 1000, 1000, rng)
        est = two_sample_u(counts, order)
        u_hats[k] = est.u_hat
        var_hats[k] = est.variance
    emp = u_hats.var(ddof=1)
    rel = abs(var_hats.mean() - emp) / emp
    elapsed = time.monotonic() - t0
    verdict(
        capsys, 4, "variance calibration",
        rel <= 0.15 and elapsed < 120.0,
        f"relative error {100 * rel:.1f}% over 2000 replicates, {elapsed:.1f}s",
    )


def test_criterion_05_interval_coverage(capsys):
    t0 = time.monotonic()
    pop = sim.build_population(sim.preset("sim1_h005"))
    true_u = float(u_statistic(pop.table.p, pop.table.r))
    order = pop.table.genotypes
    rng = np.random.default_rng([2026, 51])
    hit_boot = hit_asym = 0
    for _ in range(1000):
        counts = sim.sample_case_control(pop, 1000, 1000, rng)
        plan = ResamplePlan(n_replicates=300, seed=int(rng.integers(2**31)))
        ci = bootstrap_ci(counts, order, plan).ci
        hit_boot += ci.lower <= true_u <= ci.upper
        ci = asymptotic_ci(two_sample_u(counts, order)).ci
        hit_asym += ci.lower <= true_u <= ci.upper
    boot, asym = hit_boot / 10.0, hit_asym / 10.0
    elapsed = time.monotonic() - t0
    verdict(
        capsys, 5, "interval coverage",
        92.0 <= boot <= 97.0 and 92.0 <= asym <= 97.0 and elapsed < 600.0,
        f"bootstrap {boot:.1f}%, asymptotic {asym:.1f}%, {elapsed:.1f}s",
    )


def test_criterion_06_bias_ladder_common_variants(capsys):
    t0 = time.monotonic()
    ladder = [sim.preset(n) for n in ("sim1_h002", "sim1_h005", "sim1_h010", "sim1_h020")]
    kwargs = dict(n_replicates=300, n_cases=600, n_controls=300, seed=11, n_bootstrap=200)
    reports = sim.run_bias_coverage(ladder, indices=("ustd", "r", "ae"), **kwargs)
    by_model = {}
    for r in reports:
        by_model.setdefault(r.model, {})[r.index_name] = r
    ok = True
    for rung in by_model.values():
        ok &= rung["U_std"].pct_bias < 5.0
        ok &= rung["R"].pct_bias > 20.0
        ok &= rung["AE"].pct_bias > 20.0
        ok &= rung["U_std"].pct_coverage > rung["R"].pct_coverage
        ok &= rung["U_std"].pct_coverage > rung["AE"].pct_coverage
    refit = sim.run_bias_coverage(ladder, indices=("tg",), isotonic=True, **kwargs)
    tg_worst = max(r.pct_bias for r in refit)
    ok &= tg_worst < 5.0
    elapsed = time.monotonic() - t0
    ustd_worst = max(r["U_std"].pct_bias for r in by_model.values())
    verdict(
        capsys, 6, "bias ladder, common variants",
        ok and elapsed < 1800.0,
        f"worst U_std bias {ustd_worst:.2f}%, isotonic TG {tg_worst:.2f}%, {elapsed:.1f}s",
    )


def test_criterion_07_partial_u_rare_variants(capsys):
    t0 = time.monotonic()
    ok = True
    details = []
    for name in ("sim2_rr6", "sim2_rr10"):
        reports = sim.run_bias_coverage(
            [sim.preset(name)],
            indices=("ustd", "upartialstd"),
            n_replicates=300,
            n_cases=600,
            n_controls=300,
            seed=11,
            band=(0.9, 1.0),
            n_bootstrap=200,
        )
        by_name = {r.index_name: r for r in reports}
        whole, top = by_name["U_std"], by_name["U_partial_std"]
        ok &= top.pct_bias < whole.pct_bias
        ok &= top.pct_coverage > whole.pct_coverage
        details.append(f"{name} bias {whole.pct_bias:.1f}->{top.pct_bias:.1f}%")
    elapsed = time.monotonic() - t0
    verdict(
        capsys, 7, "partial U, rare variants",
        ok and elapsed < 1200.0,
        ", ".join(details) + f", {elapsed:.1f}s",
    )


def brute_isotonic(y, w):
    """Least-squares monotone fit by exhaustive block partitions."""
    n = len(y)
    best, best_sse = None, np.inf
    for cuts in itertools.product([0, 1], repeat=n - 1):
        bounds = [0] + [i + 1 for i, c in enumerate(cuts) if c] + [n]
        spans = list(zip(bounds[:-1], bounds[1:]))
        means = [np.average(y[lo:hi], weights=w[lo:hi]) for lo, hi in spans]
        if any(m2 < m1 - 1e-12 for m1, m2 in zip(means, means[1:])):
            continue
        fit = np.concatenate([np.full(hi - lo, m) for (lo, hi), m in zip(spans, means)])
        sse = float(w @ (y - fit) ** 2)
        if sse < best_sse - 1e-15:
            best_sse, best = sse, fit
    return best


def test_criterion_08_isotonic_regression(capsys):
    rng = np.random.default_rng([2026, 81])
    worst = worst_mean = worst_idem = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        y = rng.uniform(0, 1, n)
        w = rng.uniform(0.1, 2.0, n)
        fit = pava(y, w).fitted
        worst = max(worst, float(np.max(np.abs(fit - brute_isotonic(y, w)))))
        worst_mean = max(worst_mean, abs(float(w @ fit - w @ y)))
        worst_idem = max(worst_idem, float(np.max(np.abs(pava(fit, w).fitted - fit))))
    verdict(
        capsys, 8, "isotonic regression",
        worst <= 1e-12 and worst_mean <= 1e-12 and worst_idem <= 1e-12,
        f"vs brute {worst:.2e}, mean drift {worst_mean:.2e}, idempotence {worst_idem:.2e}",
    )


def test_criterion_09_permutation_null_calibration(capsys):
    q = np.array([0.4, 0.3, 0.2, 0.1])
    genotypes = tuple(GenotypeId(i, f"g{i}") for i in range(4))
    rng = np.random.default_rng([2026, 91])
    rejections = 0
    for k in range(1000):
        counts = CaseControlCounts(
            genotypes=genotypes,
            n_case=rng.multinomial(150, q),
            n_control=rng.multinomial(150, q),
            rho=0.1,
        )
        plan = ResamplePlan(n_replicates=199, seed=1000 + k)
        rejections += permutation_test(counts, genotypes, plan) <= 0.05
    rate = rejections / 1000.0
    verdict(
        capsys, 9, "permutation null calibration",
        0.03 <= rate <= 0.07,
        f"rejection rate {rate:.3f} at alpha 0.05",
    )


def test_criterion_10_golden_pipeline(capsys, tmp_path):
    from importlib import resources

    fixture = resources.files("predictu").joinpath("data/three_genotype_counts.csv")
    args = [
        "summarize", str(fixture), "--rho", "0.21",
        "--indices", "u,ustd,r,tg,ae", "--bootstrap", "200", "--seed", "7",
    ]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    identical = all(
        (out1 / name).read_bytes() == (out2 / name).read_bytes()
        for name in ("indices.json", "inference.json", "curve.csv")
    )
    got = {b["name"]: b["value"] for b in read_json(out1 / "indices.json")["indices"]}
    values_ok = (
        got["U"] == pytest.approx(0.146, abs=1e-12)
        and got["U_std"] == pytest.approx(0.4400, abs=5e-5)
        and got["TG"] == pytest.approx(0.116, abs=1e-12)
        and got["R"] == pytest.approx(0.022900, abs=1e-6)
    )
    verdict(
        capsys, 10, "golden pipeline",
        identical and values_ok,
        f"U={got['U']:.3f} U_std={got['U_std']:.4f} TG={got['TG']:.3f} "
        f"R={got['R']:.6f}, reruns byte-identical={identical}",
    )
