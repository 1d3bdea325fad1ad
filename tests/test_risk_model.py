import warnings

import numpy as np
import pytest

from predictu.errors import ValidationError
from predictu.fileio import curve_metadata, parse_counts_file
from predictu.isotonic import pava
from predictu.risk_model import (
    CaseControlCounts,
    GenotypeId,
    _plugin_rows,
    apply_model_to_test,
    build_risk_table,
    estimate_risk_table,
)
from predictu.summary_indices import u_statistic

from conftest import (
    apply_plugin_reference,
    brute_force_u,
    build_risk_table_reference,
    plugin_conditionals_reference,
    plugin_rows_reference,
    random_sorted_table,
)


def test_build_single_genotype_degenerate():
    table = build_risk_table([1.0], [1.0], rho=0.1)
    assert table.n_genotypes == 1
    assert table.p[0] == 1.0
    assert table.r[0] == pytest.approx(0.1, abs=1e-15)


def test_build_bayes_hand_example():
    # p1 = 0.8*0.1 + 0.2*0.9 = 0.26, r1 = 0.08/0.26; p2 = 0.74, r2 = 0.02/0.74
    table = build_risk_table([0.8, 0.2], [0.2, 0.8], rho=0.1)
    assert [str(g) for g in table.genotypes] == ["g1", "g0"]
    np.testing.assert_allclose(table.p, [0.74, 0.26], atol=1e-12)
    np.testing.assert_allclose(table.r, [0.02 / 0.74, 0.08 / 0.26], atol=1e-12)
    assert table.r[1] == pytest.approx(0.307692, abs=1e-6)
    assert table.r[0] == pytest.approx(0.027027, abs=1e-6)


def test_build_uninformative_conditionals_collapse_to_rho():
    cond = np.array([0.5, 0.3, 0.2])
    table = build_risk_table(cond, cond, rho=0.07)
    np.testing.assert_allclose(table.r, 0.07, atol=1e-12)


def test_build_mass_and_mean_identities():
    rng = np.random.default_rng(101)
    for _ in range(300):
        table = random_sorted_table(rng)
        assert abs(table.p.sum() - 1.0) <= 1e-12
        assert abs(float(table.p @ table.r) - table.rho) <= 1e-12
        assert np.all(np.diff(table.r) >= 0)


def test_build_invariant_to_input_permutation():
    rng = np.random.default_rng(102)
    case = rng.dirichlet(np.ones(6))
    control = rng.dirichlet(np.ones(6))
    table = build_risk_table(case, control, rho=0.2)
    perm = rng.permutation(6)
    ids = tuple(GenotypeId(int(i)) for i in perm)
    permuted = build_risk_table(case[perm], control[perm], rho=0.2, genotypes=ids)
    np.testing.assert_allclose(permuted.p, table.p, atol=1e-15)
    np.testing.assert_allclose(permuted.r, table.r, atol=1e-15)
    assert [g.key for g in permuted.genotypes] == [g.key for g in table.genotypes]


def test_build_rejects_bad_conditionals():
    with pytest.raises(ValidationError):
        build_risk_table([0.5, 0.4], [0.5, 0.5], rho=0.1)  # case mass != 1
    with pytest.raises(ValidationError):
        build_risk_table([0.5, 0.5], [0.5, 0.5], rho=0.0)  # rho on boundary


def test_estimate_uniform_counts_collapse_to_rho():
    counts = CaseControlCounts(
        genotypes=tuple(GenotypeId(i) for i in range(3)),
        n_case=np.array([10, 10, 10]),
        n_control=np.array([40, 40, 40]),
        rho=0.3,
    )
    table = estimate_risk_table(counts)
    np.testing.assert_allclose(table.r, 0.3, atol=1e-12)


def test_estimate_matches_hand_conditionals(two_genotype_counts):
    table = estimate_risk_table(two_genotype_counts)
    reference = build_risk_table([0.8, 0.2], [0.2, 0.8], rho=0.1)
    np.testing.assert_allclose(table.p, reference.p, atol=1e-12)
    np.testing.assert_allclose(table.r, reference.r, atol=1e-12)


def test_estimate_equals_build_on_exact_population_counts():
    # counts proportional to the conditionals reproduce the Bayes table
    counts = CaseControlCounts(
        genotypes=tuple(GenotypeId(i) for i in range(3)),
        n_case=np.array([5000, 3000, 2000]),
        n_control=np.array([1000, 4000, 5000]),
        rho=0.25,
    )
    table = estimate_risk_table(counts)
    reference = build_risk_table([0.5, 0.3, 0.2], [0.1, 0.4, 0.5], rho=0.25)
    np.testing.assert_allclose(table.p, reference.p, atol=1e-12)
    np.testing.assert_allclose(table.r, reference.r, atol=1e-12)


def test_estimate_case_only_genotype_is_boundary_risk():
    counts = CaseControlCounts(
        genotypes=tuple(GenotypeId(i) for i in range(2)),
        n_case=np.array([5, 5]),
        n_control=np.array([10, 0]),
        rho=0.1,
    )
    table = estimate_risk_table(counts)
    assert table.r[-1] == 1.0
    assert table.boundary_risks[-1]


def test_estimate_drops_genotypes_absent_from_both_arms():
    counts = CaseControlCounts(
        genotypes=tuple(GenotypeId(i) for i in range(3)),
        n_case=np.array([5, 0, 5]),
        n_control=np.array([10, 0, 10]),
        rho=0.1,
    )
    with pytest.warns(UserWarning):
        table = estimate_risk_table(counts)
    assert table.n_genotypes == 2
    assert [g.index for g in table.dropped] == [1]


def test_estimate_laplace_pulls_risks_off_boundary():
    counts = CaseControlCounts(
        genotypes=tuple(GenotypeId(i) for i in range(2)),
        n_case=np.array([5, 5]),
        n_control=np.array([10, 0]),
        rho=0.1,
    )
    table = estimate_risk_table(counts, laplace=0.5)
    assert 0.0 < table.r[0] and table.r[-1] < 1.0


@pytest.mark.parametrize("laplace", [float("nan"), float("inf"), -1.0])
def test_laplace_must_be_finite_and_nonnegative(laplace):
    counts = CaseControlCounts(
        genotypes=tuple(GenotypeId(i) for i in range(2)),
        n_case=np.array([5, 5]),
        n_control=np.array([10, 0]),
        rho=0.1,
    )
    with pytest.raises(ValidationError, match="finite and nonnegative"):
        estimate_risk_table(counts, laplace=laplace)
    with pytest.raises(ValidationError, match="finite and nonnegative"):
        apply_model_to_test(counts.genotypes, counts, laplace=laplace)


def test_curve_points_single_entry():
    curve = build_risk_table([1.0], [1.0], rho=0.3)
    np.testing.assert_allclose(curve.q, [1.0])
    np.testing.assert_allclose(curve.r, [0.3], atol=1e-15)


def test_curve_points_hand_example(three_genotype_table):
    curve = three_genotype_table
    np.testing.assert_allclose(curve.q, [0.5, 0.8, 1.0], atol=1e-12)
    np.testing.assert_allclose(curve.r, [0.1, 0.2, 0.5], atol=1e-12)
    assert curve.monotone


def test_curve_points_strictly_increasing_quantiles():
    rng = np.random.default_rng(103)
    for _ in range(100):
        curve = random_sorted_table(rng)
        assert np.all(np.diff(np.concatenate([[0.0], curve.q])) > 0)


def test_apply_model_identity_reproduces_training_curve(two_genotype_counts):
    table = estimate_risk_table(two_genotype_counts)
    curve = apply_model_to_test(table.genotypes, two_genotype_counts)
    np.testing.assert_allclose(curve.q, table.q, atol=1e-12)
    np.testing.assert_allclose(curve.r, table.r, atol=1e-12)
    assert curve.monotone
    assert curve.unseen == ()


def test_apply_model_keeps_nonmonotone_test_order():
    # train order puts g1 first, test risks reverse it: 0.3 then 0.1
    order = (GenotypeId(0, "g1"), GenotypeId(1, "g2"))
    counts = CaseControlCounts(
        genotypes=order,
        n_case=np.array([6, 2]),
        n_control=np.array([14, 18]),
        rho=0.2,
    )
    curve = apply_model_to_test(order, counts)
    assert curve.r[0] > curve.r[1]
    assert not curve.monotone


def test_apply_model_inversion_u_below_isotonic_refit():
    order = tuple(GenotypeId(i, f"g{i}") for i in range(3))
    counts = CaseControlCounts(
        genotypes=order,
        n_case=np.array([2, 12, 6]),
        n_control=np.array([38, 20, 22]),
        rho=0.25,
    )
    curve = apply_model_to_test(order, counts)
    assert not curve.monotone
    u_raw = float(u_statistic(curve.p, curve.r))
    assert u_raw == pytest.approx(brute_force_u(curve.p, curve.r), abs=1e-15)
    refit = pava(curve.r, curve.p).fitted
    u_refit = float(u_statistic(curve.p, refit))
    assert u_raw < u_refit


def test_apply_model_appends_unseen_genotypes():
    train = (GenotypeId(0, "g1"), GenotypeId(1, "g2"))
    counts = CaseControlCounts(
        genotypes=(GenotypeId(0, "g1"), GenotypeId(1, "g2"), GenotypeId(2, "g3")),
        n_case=np.array([2, 5, 3]),
        n_control=np.array([18, 15, 7]),
        rho=0.2,
    )
    curve = apply_model_to_test(train, counts)
    assert [str(g) for g in curve.unseen] == ["g3"]
    assert str(curve.genotypes[-1]) == "g3"


def test_apply_model_disjoint_genotypes_rejected():
    train = (GenotypeId(0, "a1"), GenotypeId(1, "a2"))
    counts = CaseControlCounts(
        genotypes=(GenotypeId(0, "b1"), GenotypeId(1, "b2")),
        n_case=np.array([5, 5]),
        n_control=np.array([5, 5]),
        rho=0.2,
    )
    with pytest.raises(ValidationError):
        apply_model_to_test(train, counts)


def test_apply_model_rejects_a_repeated_order():
    counts = CaseControlCounts(
        genotypes=(GenotypeId(0, "a"), GenotypeId(1, "b")),
        n_case=np.array([2, 5]),
        n_control=np.array([8, 5]),
        rho=0.2,
    )
    # equal keys repeat a genotype whatever their indices
    with pytest.raises(ValidationError, match="order must not repeat genotypes"):
        apply_model_to_test((GenotypeId(0, "a"), GenotypeId(7, "a")), counts)


def test_counts_validation():
    ids = tuple(GenotypeId(i) for i in range(2))
    with pytest.raises(ValidationError):
        CaseControlCounts(ids, np.array([1, -1]), np.array([1, 1]), rho=0.1)
    with pytest.raises(ValidationError):
        CaseControlCounts(ids, np.array([0, 0]), np.array([1, 1]), rho=0.1)
    with pytest.raises(ValidationError):
        CaseControlCounts(
            (GenotypeId(0, "x"), GenotypeId(1, "x")),
            np.array([1, 1]),
            np.array([1, 1]),
            rho=0.1,
        )


def test_estimate_drops_by_position_not_by_index():
    # two genotypes share index 0 but differ in label (the matching key);
    # only the one with zero total count may be dropped and named
    counts = CaseControlCounts(
        genotypes=(GenotypeId(0, "a"), GenotypeId(0, "b")),
        n_case=np.array([5, 0]),
        n_control=np.array([10, 0]),
        rho=0.1,
    )
    with pytest.warns(UserWarning, match=r"dropping 1 genotype\(s\) unseen in both arms: b$"):
        table = estimate_risk_table(counts)
    assert [(g.index, g.label) for g in table.dropped] == [(0, "b")]
    assert [(g.index, g.label) for g in table.genotypes] == [(0, "a")]


def test_drop_warnings_name_at_most_five_genotypes(tmp_path):
    # hundreds of unseen genotypes: the warning stays one short line, and
    # the table (so curve.json) keeps every dropped name
    rows = ["g0,5,10", "g1,3,2"] + [f"u{i},0,0" for i in range(300)]
    path = tmp_path / "counts.csv"
    path.write_text("genotype_id,n_case,n_control\n" + "\n".join(rows) + "\n")
    counts, _ = parse_counts_file(path, rho=0.1)
    want = r"dropping 300 genotype\(s\) unseen in both arms: u0, u1, u2, u3, u4, \.\.\.$"
    with pytest.warns(UserWarning, match=want):
        table = estimate_risk_table(counts)
    assert curve_metadata(table)["dropped"] == [f"u{i}" for i in range(300)]
    a = np.r_[0.5, 0.5, np.zeros(6)]
    with pytest.warns(UserWarning, match=r"dropping 6 zero-mass genotype\(s\): g2, g3, g4, g5, g6, \.\.\.$"):
        table = build_risk_table(a, a, rho=0.1)
    assert [str(g) for g in table.dropped] == [f"g{i}" for i in range(2, 8)]


# ---------------------------------------------------------------------------
# the list/tuple-membership bookkeeping that estimate_risk_table and
# apply_model_to_test used before they worked from masks and key sets,
# kept as the reference the rewritten paths must reproduce exactly


def _reference_plugin(counts, laplace):
    seen = (counts.n_case + counts.n_control) > 0
    kept = tuple(g for g, k in zip(counts.genotypes, seen) if k)
    n_case = counts.n_case[seen].astype(float)
    n_control = counts.n_control[seen].astype(float)
    g = n_case.size
    a = (n_case + laplace) / (counts.n_cases + laplace * g)
    b = (n_control + laplace) / (counts.n_controls + laplace * g)
    return kept, a, b


def _reference_dropped(counts):
    kept, _, _ = _reference_plugin(counts, 0.0)
    return tuple(g for g in counts.genotypes if g not in kept)


def _reference_apply(train_order, test_counts, laplace):
    train_keys = [g.key for g in train_order]
    kept, a, b = _reference_plugin(test_counts, laplace)
    rho = test_counts.rho
    p = a * rho + b * (1.0 - rho)
    r = (a * rho) / p
    by_key = {g.key: i for i, g in enumerate(kept)}
    matched = [by_key[k] for k in train_keys if k in by_key]
    if not matched:
        raise ValidationError("training order shares no genotype with the test data")
    extra = [i for i, g in enumerate(kept) if g.key not in set(train_keys)]
    extra.sort(key=lambda i: (r[i], i))
    idx = np.array(matched + extra, dtype=int)
    return (
        np.cumsum(p[idx]),
        r[idx],
        tuple(kept[i] for i in idx),
        tuple(kept[i] for i in extra),
    )


def _ids(genotypes):
    # GenotypeId equality looks at the key only; compare both fields
    return [(g.index, g.label) for g in genotypes]


def _random_labelled_counts(rng, n_genotypes, rho):
    labels = [f"L{j}" for j in rng.permutation(3 * n_genotypes)[:n_genotypes]]
    # small counts: many genotypes unseen in both arms, many tied risks
    n_case = rng.integers(0, 3, n_genotypes)
    n_control = rng.integers(0, 3, n_genotypes)
    n_case[rng.integers(n_genotypes)] += 1
    n_control[rng.integers(n_genotypes)] += 1
    return CaseControlCounts(
        genotypes=tuple(GenotypeId(i, lab) for i, lab in enumerate(labels)),
        n_case=n_case,
        n_control=n_control,
        rho=rho,
    )


def test_rewritten_bookkeeping_matches_reference():
    rng = np.random.default_rng(104)
    n_extra_total = 0
    for trial in range(200):
        g = int(rng.integers(2, 40))
        rho = float(rng.uniform(0.02, 0.5))
        laplace = 0.5 if trial % 4 == 0 else 0.0
        train = _random_labelled_counts(rng, g, rho)
        test = _random_labelled_counts(rng, g, rho)

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            table = estimate_risk_table(train)
        assert _ids(table.dropped) == _ids(_reference_dropped(train))

        # shuffled train order over the train labels, re-indexed, plus a
        # few labels the test data never carries
        order = [GenotypeId(int(j), train.genotypes[i].label)
                 for j, i in enumerate(rng.permutation(g))]
        order += [GenotypeId(g + j, f"T{j}") for j in range(int(rng.integers(0, 3)))]
        order = tuple(order[i] for i in rng.permutation(len(order)))
        try:
            expected = _reference_apply(order, test, laplace)
        except ValidationError:
            with pytest.raises(ValidationError):
                apply_model_to_test(order, test, laplace)
            continue
        curve = apply_model_to_test(order, test, laplace)
        q, r, genotypes, unseen = expected
        np.testing.assert_array_equal(curve.q, q)
        np.testing.assert_array_equal(curve.r, r)
        assert _ids(curve.genotypes) == _ids(genotypes)
        assert _ids(curve.unseen) == _ids(unseen)
        n_extra_total += len(unseen)
    assert n_extra_total > 100  # the unseen-genotype ordering was exercised


class _CountingLabel(str):
    """Genotype label that counts how often sets and dicts hash it."""

    hashes = 0

    def __hash__(self):
        _CountingLabel.hashes += 1
        return str.__hash__(self)


def test_bookkeeping_calls_stay_linear_in_genotypes(monkeypatch):
    n_genotypes = 5000
    rng = np.random.default_rng(105)
    genotypes = tuple(GenotypeId(i, _CountingLabel(f"G{i}")) for i in range(n_genotypes))
    n_case = rng.integers(0, 4, n_genotypes)
    n_control = rng.integers(0, 4, n_genotypes)
    n_case[0] = n_control[0] = 1
    train = CaseControlCounts(genotypes, n_case, n_control, rho=0.1)
    test = CaseControlCounts(genotypes, n_control, n_case, rho=0.1)

    eq_calls = 0
    dataclass_eq = GenotypeId.__eq__

    def counting_eq(self, other):
        nonlocal eq_calls
        eq_calls += 1
        return dataclass_eq(self, other)

    monkeypatch.setattr(GenotypeId, "__eq__", counting_eq)
    _CountingLabel.hashes = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        table = estimate_risk_table(train)
    apply_model_to_test(table.genotypes, test)
    assert table.dropped  # the dropped-genotype path ran
    assert eq_calls <= 4 * n_genotypes
    assert _CountingLabel.hashes <= 8 * n_genotypes


def test_genotype_id_equality_follows_key():
    assert GenotypeId(3, "a") == GenotypeId(7, "a")
    assert hash(GenotypeId(3, "a")) == hash(GenotypeId(7, "a"))
    assert GenotypeId(0, "a") != GenotypeId(0, "b")
    assert GenotypeId(4) == GenotypeId(4) and GenotypeId(4) != GenotypeId(5)
    assert GenotypeId(4) != GenotypeId(4, "4")  # key 4 against key "4"
    assert GenotypeId(4, "a") in {GenotypeId(9, "a")}
    with pytest.raises(TypeError):
        GenotypeId(0, "a") < GenotypeId(1, "b")


def test_one_bayes_core_matches_the_parent_plugins():
    rng = np.random.default_rng(106)
    n_unseen = n_one_arm = 0
    for trial in range(300):
        g = int(rng.integers(1, 30))
        rho = float(rng.uniform(0.01, 0.6))
        # 0.3 is inexact in binary, so the sum of n + 0.3 can differ from N + 0.3 G
        laplace = (0.0, 0.5, 0.3)[trial % 3]
        # zero-count cells, and cells seen in one arm only
        while True:
            n_case = rng.integers(0, 6, g) * (rng.random(g) < 0.7)
            n_control = rng.integers(0, 6, g) * (rng.random(g) < 0.7)
            if n_case.sum() and n_control.sum():
                break
        n_unseen += int(((n_case + n_control) == 0).sum())
        n_one_arm += int(((n_case == 0) != (n_control == 0)).sum())
        labels = [f"L{j}" for j in rng.permutation(g)]
        counts = CaseControlCounts(
            tuple(GenotypeId(i, lab) for i, lab in enumerate(labels)), n_case, n_control, rho
        )
        a, b = plugin_conditionals_reference(counts, laplace)

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            table = estimate_risk_table(counts, laplace)
            # zero-mass rows reach build_risk_table itself when nothing filters them
            full = build_risk_table(n_case / n_case.sum(), n_control / n_control.sum(), rho)
        p, r = build_risk_table_reference(a, b, rho)
        assert np.array_equal(table.p, p) and np.array_equal(table.r, r)
        p, r = build_risk_table_reference(n_case / n_case.sum(), n_control / n_control.sum(), rho)
        assert np.array_equal(full.p, p) and np.array_equal(full.r, r)

        # a shuffled train order over some of the genotypes, so some are unseen
        order = [counts.genotypes[i] for i in rng.permutation(g)[: int(rng.integers(1, g + 1))]]
        try:
            curve = apply_model_to_test(order, counts, laplace)
        except ValidationError:
            continue  # the order holds only genotypes unseen in the data
        p, r = apply_plugin_reference(a, b, rho)
        kept = [x for x, k in zip(counts.genotypes, (n_case + n_control) > 0) if k]
        idx = [kept.index(x) for x in curve.genotypes]
        assert np.array_equal(curve.p, p[idx]) and np.array_equal(curve.r, r[idx])
        assert np.array_equal(curve.q, np.cumsum(p[idx]))

        # the row path, 1-d and (B, G), on int and on float counts
        rows = int(rng.integers(1, 6))
        case = rng.integers(0, 6, (rows, g)) * (rng.random((rows, g)) < 0.7)
        control = rng.integers(0, 6, (rows, g)) * (rng.random((rows, g)) < 0.7)
        case[:, rng.integers(g)] += 1
        control[:, rng.integers(g)] += 1
        for c, d in ((case, control), (case[0], control[0]), (case * 1.0, control * 1.0)):
            got, want = _plugin_rows(c, d, rho), plugin_rows_reference(c, d, rho)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    assert n_unseen > 100 and n_one_arm > 100
