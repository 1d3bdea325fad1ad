import csv
import itertools

import numpy as np
import pytest

from predictu import isotonic
from predictu.errors import NumericError, ValidationError
from predictu.fileio import ParseReport, _sniff_delimiter, write_csv
from predictu.inference import (
    _TAG_BOOTSTRAP,
    _TAG_PERMUTATION,
    ConfidenceInterval,
    ResamplePlan,
    _align_counts,
    _contract,
    _replicate_estimate,
)
from predictu.isotonic import pava, pava_rows
from predictu.simulate import (
    DiseaseModel,
    _coverage_bounds,
    _draw_arms,
    _exposures,
    genotype_matrix,
    genotype_probabilities,
)
from predictu.risk_model import (
    CaseControlCounts,
    _plugin_rows,
    _trained_order,
    build_risk_table,
)
from predictu.summary_indices import (
    _EDGE,
    INDICES,
    IndexResult,
    _check_band,
    _check_request,
    _index_rows,
    _masses_risks,
    clipped_band_masses,
)


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
        genotypes=tuple(f"g{i}" for i in range(3)),
        n_case=np.array([5, 6, 10]),
        n_control=np.array([45, 24, 10]),
        rho=0.21,
    )


@pytest.fixture
def two_genotype_counts():
    # cases (8, 2), controls (2, 8): plug-in risks 0.08/0.26 and 0.02/0.74
    return CaseControlCounts(
        genotypes=("g1", "g2"),
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


def random_case(rng):
    """Counts with zero-count genotypes, and a shuffled order that may drop
    unobserved genotypes and add genotypes the counts do not list."""
    g = int(rng.integers(1, 12))
    while True:
        n_case = rng.integers(0, 30, g) * (rng.random(g) < 0.8)
        n_control = rng.integers(0, 30, g) * (rng.random(g) < 0.8)
        if n_case.sum() >= 2 and n_control.sum() >= 2:
            break
    genotypes = tuple(f"g{i}" for i in range(g))
    counts = CaseControlCounts(genotypes, n_case, n_control, float(rng.uniform(0.05, 0.5)))
    empty = (n_case + n_control) == 0
    order = [x for x, e in zip(genotypes, empty) if not e or rng.random() < 0.5]
    order += [f"extra{k}" for k in range(int(rng.integers(0, 3)))]
    rng.shuffle(order)
    return counts, tuple(order)


def brute_force_u(p, r):
    """U by the O(G^2) pairwise definition, independent of the library path."""
    p = np.asarray(p, dtype=float)
    r = np.asarray(r, dtype=float)
    total = 0.0
    for i in range(len(p)):
        for j in range(i):
            total += p[i] * p[j] * (r[i] - r[j])
    return 2.0 * total


def u_statistic_two_cumsum(p, r):
    """U by two float cumulative sums (the former ``u_statistic``): the
    oracle the one ``_contract`` kernel must match to rounding.

    U = 2 [sum_i p_i r_i P_{i-1} - sum_i p_i S_{i-1}] with P and S the
    cumulative mass and cumulative mass-risk below i.
    """
    p, r = np.broadcast_arrays(np.asarray(p, float), np.asarray(r, float))
    pr = p * r
    below_mass = np.cumsum(p, axis=-1) - p
    below_pr = np.cumsum(pr, axis=-1) - pr
    out = 2.0 * ((pr * below_mass).sum(axis=-1) - (p * below_pr).sum(axis=-1))
    return float(out) if out.ndim == 0 else out


def pava_stack(risks, weights) -> np.ndarray:
    """Weighted isotonic fit by the sequential block stack (the former
    ``pava``): the oracle the merge rounds of ``pava_rows`` must match.

    Scans left to right keeping a stack of blocks; whenever the newest
    block fails to exceed its predecessor the two merge into their
    weighted mean, cascading back as far as needed.
    """
    r = np.asarray(risks, dtype=float)
    w = np.asarray(weights, dtype=float)
    # stack rows: [start index, weighted sum, weight]
    stack: list[list[float]] = []
    for i in range(r.size):
        stack.append([i, r[i] * w[i], w[i]])
        while len(stack) > 1 and (
            stack[-2][1] * stack[-1][2] >= stack[-1][1] * stack[-2][2]
        ):
            # previous mean >= current mean, compared cross-multiplied
            top = stack.pop()
            stack[-1][1] += top[1]
            stack[-1][2] += top[2]

    fitted = np.empty_like(r)
    ends = [row[0] for row in stack[1:]] + [r.size]
    for (start, wsum, wtot), end in zip(stack, ends):
        fitted[start:end] = wsum / wtot
    return fitted


def pava_rows_2d_reference(risks: np.ndarray, weights) -> np.ndarray:
    """Former ``pava_rows`` body: the same merge rounds on (row, column)
    index pairs, with every cell's block remapped each round.  The flat
    rounds must equal it bit for bit."""
    r, w = risks, np.asarray(weights, dtype=float)
    rows, cols = np.nonzero(w > 0)
    row, wtot = rows, w[rows, cols]
    wsum = r[rows, cols] * wtot
    block = np.arange(rows.size)
    for k in itertools.count():
        merge = row[1:] == row[:-1]
        merge &= wsum[:-1] * wtot[1:] >= wsum[1:] * wtot[:-1]
        if not merge.any():
            break
        first = np.concatenate(([True], ~merge))
        if k >= isotonic._ROUNDS:
            isotonic._stack(first, row, wsum, wtot, np.unique(row[1:][merge]))
        ids = np.cumsum(first) - 1
        block, row = ids[block], row[first]
        wsum, wtot = np.bincount(ids, wsum), np.bincount(ids, wtot)

    refit = np.bincount(rows, minlength=r.shape[0])[rows] > 1
    r[rows[refit], cols[refit]] = (wsum / wtot)[block[refit]]
    return r


def refit_rows_one_by_one(p, r, fit=pava):
    """Isotonic refit of each row's positive-mass risks, masses as weights.

    The simulation harness's former per-row loop over ``pava``.  Since
    ``pava`` is the one-row view of ``pava_rows``, the batched fit equals
    it bit for bit exactly when a row's fit depends only on that row's
    own positive-weight cells.  ``fit`` swaps in another one-curve fit,
    such as the ``pava_stack`` oracle.
    """
    out = np.array(r, dtype=float, copy=True)
    for i in range(p.shape[0]):
        mask = p[i] > 0
        if mask.sum() > 1:
            out[i, mask] = fit(r[i, mask], p[i, mask])
    return out


# The Bayes plug-in p = a rho + b (1 - rho), r = a rho / p as its three call
# sites wrote it before they shared one core: the references the shared
# core must equal bit for bit.


def plugin_conditionals_reference(counts, laplace=0.0):
    """Former ``_plugin_conditionals`` arithmetic: P(g|D), P(g|not D) of the
    genotypes seen in either arm, after adding ``laplace`` to each cell."""
    seen = (counts.n_case + counts.n_control) > 0
    n_case = counts.n_case[seen].astype(float)
    n_control = counts.n_control[seen].astype(float)
    g = n_case.size
    a = (n_case + laplace) / (counts.n_cases + laplace * g)
    b = (n_control + laplace) / (counts.n_controls + laplace * g)
    return a, b


def build_risk_table_reference(a, b, rho):
    """Former ``build_risk_table`` arithmetic: kept p and r, sorted by risk."""
    p = a * rho + b * (1.0 - rho)
    keep = p > 0
    p = p[keep]
    r = (a[keep] * rho) / p
    order = np.argsort(r, kind="stable")
    return p[order], r[order]


def plugin_rows_reference(case, control, rho):
    """Former ``_plugin_rows``: row-wise masses and risks from count arrays."""
    case = np.asarray(case, dtype=float)
    control = np.asarray(control, dtype=float)
    a = case / case.sum(axis=-1, keepdims=True)
    b = control / control.sum(axis=-1, keepdims=True)
    p = a * rho + b * (1.0 - rho)
    r = np.divide(a * rho, p, out=np.zeros_like(p), where=p > 0)
    return p, r


def apply_plugin_reference(a, b, rho):
    """Former ``apply_model_to_test`` arithmetic on the seen genotypes."""
    p = a * rho + b * (1.0 - rho)
    r = (a * rho) / p
    return p, r


# The scalar index evaluator as it stood beside the row path, before every
# IndexResult became a one-row call into it: the reference the one evaluator
# must equal (a standardised R was then named "R").


def index_result_reference(table_or_curve, token, band=None):
    """Former ``_index_result``: rho = p @ r, and rho_pt = m @ r for a band."""
    spec = INDICES[token]
    if spec.needs_band:
        _check_band(*band)
    p, r = _masses_risks(table_or_curve)
    rho = float(p @ r)
    extra = {}
    w, rho_std, rho_label = p, rho, "rho"
    if spec.needs_band:
        w = clipped_band_masses(p, *band)
        width = float(w.sum())
        if width <= _EDGE:
            raise ValidationError("band contains no curve mass")
        rho_std, rho_label = float(w @ r), "rho_pt"
        extra = dict(
            band=(float(band[0]), float(band[1])),
            rho_pt=rho_std,
            notes=(f"rho_pt[mean]={rho_std / width:.12g}",),
        )
    value = spec.statistic(w, r)
    if spec.scale is not None:
        if rho_std < _EDGE or rho_std > 1.0 - _EDGE:
            raise NumericError(f"{spec.name} undefined at {rho_label}={rho_std}")
        value = value / spec.scale(rho_std)
    name = "R" if token == "rstd" else spec.name
    return IndexResult(name, value, spec.scale is not None, rho, **extra)


def index_results_reference(table_or_curve, tokens, band=None):
    """Former ``_index_results``: the request check, then one index at a time."""
    _check_request(tokens, band)
    return [index_result_reference(table_or_curve, token, band) for token in tokens]


def same(a, b):
    """Equal estimates, counting NaN fields in the same places as equal."""
    # a standardized point is NaN when its band holds no case mass, and
    # NaN fields make == false; repr is exact for every float
    return a == b or repr(a) == repr(b)


def pair_kernel(n: int) -> np.ndarray:
    """phi[i, j] = sign(i - j) for order positions 0..n-1 (dense reference)."""
    pos = np.arange(n)
    return np.sign(pos[:, None] - pos[None, :]).astype(float)


# The resampling streams written out one group at a time: at G genotypes a
# group holds R(G) = max(GROUP_ROWS, GROUP_CELLS // G) replicates, and group
# g of the stream key draws from [*key, g], all its rows of an arm in one
# call.  The references the group routines (on any number of worker
# threads) must equal exactly; a test that patches the group size of
# ``inference`` patches these two as well.
GROUP_ROWS = 8
GROUP_CELLS = 1 << 14


def group_sizes(n: int, width: int):
    """(index, rows) of each group of ``n`` replicates of ``width`` genotypes."""
    size = max(GROUP_ROWS, GROUP_CELLS // width)
    for g, start in enumerate(range(0, n, size)):
        yield g, min(size, n - start)


def bootstrap_rows_reference(case, control, key, n: int, width=None):
    """``n`` stratified bootstrap count rows of the stream ``key``, in
    groups of R(``width``), by default R(G) of the G columns: each group
    draws its case rows, then its control rows, in one call each.

    Resampling subjects with replacement within an arm is equivalent to
    a multinomial draw over that arm's genotype frequencies.
    """
    boot_case, boot_control = [], []
    for g, rows in group_sizes(n, width or case.size):
        rng = np.random.default_rng([*key, g])
        boot_case.append(rng.multinomial(case.sum(), case / case.sum(), size=rows))
        boot_control.append(rng.multinomial(control.sum(), control / control.sum(), size=rows))
    return np.concatenate(boot_case), np.concatenate(boot_control)


def bootstrap_counts_reference(
    counts: CaseControlCounts, order, plan: ResamplePlan
) -> tuple[np.ndarray, np.ndarray]:
    """Stratified bootstrap count matrices along the order, one replicate
    per row."""
    case, control = _align_counts(counts, order)
    return bootstrap_rows_reference(case, control, (plan.seed, _TAG_BOOTSTRAP), plan.n_replicates)


def bootstrap_estimates_reference(
    counts, order, plan, level=0.95, band=None, standardized=False
):
    """The whole draw, then each statistic on the whole stack."""
    if band is not None:
        _check_band(*band)
    if not 0.0 <= level < 1.0:
        raise ValidationError(f"confidence level must lie in [0, 1), got {level}")
    case, control = _align_counts(counts, order)
    rho = counts.rho
    scale = 2.0 * rho * (1.0 - rho) / (counts.n_cases * counts.n_controls)

    boot_case, boot_control = bootstrap_counts_reference(counts, order, plan)
    values = scale * _contract(boot_case, boot_control)
    total = _replicate_estimate(scale * int(_contract(case, control)), values, plan, level)
    if band is None:
        return total, None

    token = "upartialstd" if standardized else "upartial"
    p, r = _plugin_rows(case[None, :].astype(float), control[None, :].astype(float), rho)
    point = float(_index_rows(p, r, rho, (token,), band)[token][0])
    p, r = _plugin_rows(boot_case.astype(float), boot_control.astype(float), rho)
    values = _index_rows(p, r, rho, (token,), band)[token]
    values = values[np.isfinite(values)]
    if values.size == 0:
        raise NumericError("no finite bootstrap replicate for the partial U")
    return total, _replicate_estimate(point, values, plan, level)


def permutation_draws_reference(counts, order, plan):
    """Permuted case count matrix along the order, one replicate per row:
    each group's hypergeometric rows in one call."""
    case, control = _align_counts(counts, order)
    rows = [
        np.random.default_rng([plan.seed, _TAG_PERMUTATION, k]).multivariate_hypergeometric(
            case + control, counts.n_cases, size=n
        )
        for k, n in group_sizes(plan.n_replicates, case.size)
    ]
    return np.concatenate(rows)


def permutation_test_reference(counts, order, plan):
    """p-value from the whole permuted stack at once."""
    case, control = _align_counts(counts, order)
    observed = abs(int(_contract(case, control)))
    perm_case = permutation_draws_reference(counts, order, plan)
    perm_control = (case + control)[None, :] - perm_case
    stats = np.abs(_contract(perm_case, perm_control))
    hits = int(np.count_nonzero(stats >= observed))
    return (1 + hits) / (1 + plan.n_replicates)


def first_chunk_rows(lines, chunk_bytes) -> int:
    """Rows in the first block of a subject file whose lines, header first
    and none blank or a comment, are ``lines``, each with its line end,
    the rows repeated as often as needed: the rows below the header up to
    the one that takes their text past the byte budget."""
    size = 0
    for k, line in enumerate(itertools.cycle(lines[1:]), start=1):
        size += len(line)
        if size > chunk_bytes:
            return k


def write_counts_csv(path, counts: CaseControlCounts, provenance: dict | None = None) -> None:
    """Write counts in the pre-aggregated layout that ``parse_counts_file``
    reads (no subcommand writes a counts file)."""
    columns = zip(counts.genotypes, counts.n_case, counts.n_control)
    rows = ((str(g), int(a), int(b)) for g, a, b in columns)
    write_csv(path, ("genotype_id", "n_case", "n_control"), rows, provenance)


def parse_subjects_row_by_row(path, rho, max_bad_rows=0.01):
    """Subject-file aggregation by a per-row dict loop.

    The former ``parse_subject_file`` with its row reader: the reference
    the Counter tally must reproduce exactly, warnings included.  Warnings
    name the file line a row starts on, counting blank and comment lines.
    Lines keep their ends, so a quoted cell that spans lines keeps its
    break.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        numbered = [
            (lineno, line)
            for lineno, line in enumerate(fh, start=1)
            if line.strip() and not line.lstrip().startswith("#")
        ]
    lines = [line for _, line in numbered]
    if not lines:
        raise ValidationError(f"{path}: file is empty")
    sample = "\n".join(line.rstrip("\r\n") for line in lines[:50])[:8192]
    reader = csv.reader(lines, delimiter=_sniff_delimiter(sample))
    rows = []  # (file line the row starts on, cells)
    taken = 0
    for row in reader:
        if row and any(cell.strip() for cell in row):
            rows.append((numbered[taken][0], row))
        taken = reader.line_num
    header = [cell.strip() for cell in rows[0][1]]
    rows = rows[1:]

    lowered = [h.lower() for h in header]
    if "status" not in lowered:
        raise ValidationError(f"{path}: missing required column 'status'")
    status_col = lowered.index("status")
    id_col = lowered.index("sample_id") if "sample_id" in lowered else None
    marker_cols = [i for i in range(len(header)) if i not in (status_col, id_col)]
    if not marker_cols:
        raise ValidationError(f"{path}: no marker columns after sample_id/status")

    cases: dict[str, int] = {}
    controls: dict[str, int] = {}
    warnings: list[str] = []
    n_dropped = 0
    for lineno, row in rows:
        if len(row) != len(header):
            n_dropped += 1
            warnings.append(f"line {lineno}: expected {len(header)} columns, got {len(row)}")
            continue
        status = row[status_col].strip()
        if status not in ("0", "1"):
            n_dropped += 1
            warnings.append(f"line {lineno}: status {status!r} is not 0 or 1")
            continue
        label = "/".join(row[i].strip() for i in marker_cols)
        bucket = cases if status == "1" else controls
        bucket[label] = bucket.get(label, 0) + 1

    report = ParseReport(
        path=str(path),
        n_rows=len(rows),
        n_used=len(rows) - n_dropped,
        n_dropped=n_dropped,
        n_markers=len(marker_cols),
        warnings=tuple(warnings),
    )
    if report.n_rows and n_dropped / report.n_rows > max_bad_rows:
        raise ValidationError(
            f"{path}: {n_dropped}/{report.n_rows} malformed rows exceeds "
            f"--max-bad-rows {max_bad_rows:g}"
        )
    labels = sorted(set(cases) | set(controls))
    if not labels:
        raise ValidationError(f"{path}: no usable subject rows")
    for arm, bucket in (("case", cases), ("control", controls)):
        if not bucket:
            raise ValidationError(f"{path}: no {arm} rows: need at least one case and one control")
    genotypes = tuple(labels)
    counts = CaseControlCounts(
        genotypes=genotypes,
        n_case=np.array([cases.get(l, 0) for l in labels], dtype=np.int64),
        n_control=np.array([controls.get(l, 0) for l in labels], dtype=np.int64),
        rho=rho,
    )
    return counts, report


# The three simulation bisections as they stood before they stopped once the
# bracket could not shrink: 200 steps each, every one taken.  The references
# the early-stopping versions must equal bit for bit.


def penetrance_model_reference(snps, target_rho, interactions=()):
    """Former ``penetrance_model``: the baseline bisected for 200 steps."""
    snps = tuple(snps)
    interactions = tuple(interactions)
    x = _exposures(snps, genotype_matrix(len(snps)))
    log_score = x @ np.log([snp.rr for snp in snps])
    for inter in interactions:
        log_score = log_score + np.log(inter.rr) * x[:, inter.a] * x[:, inter.b]
    score = np.exp(log_score)
    probs = genotype_probabilities(snps)
    baseline = target_rho / float(probs @ score)
    if np.max(baseline * score) > 1.0:
        lo, hi = 0.0, baseline
        while float(probs @ np.clip(hi * score, 0.0, 1.0)) < target_rho:
            hi *= 2.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if float(probs @ np.clip(mid * score, 0.0, 1.0)) < target_rho:
                lo = mid
            else:
                hi = mid
        baseline = hi
    pen = np.clip(baseline * score, 0.0, 1.0)
    return DiseaseModel(snps, interactions, pen, float(target_rho))


def recentred_reference(pen0, probs, rho, s):
    """Former ``_recentred``: the recentring shift bisected for 200 steps."""
    base = rho + s * (pen0 - rho)
    lo, hi = -1.0 - abs(s), 1.0 + abs(s)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if float(probs @ np.clip(base + mid, 0.0, 1.0)) < rho:
            lo = mid
        else:
            hi = mid
    return np.clip(base + 0.5 * (lo + hi), 0.0, 1.0)


def calibrated_penetrance_reference(model, target_h2):
    """Former ``calibrate_heritability`` penetrance: the spread scale s
    bisected for 200 steps, each step recentred by ``recentred_reference``."""
    probs = genotype_probabilities(model.snps)
    rho = model.target_rho
    pen0 = model.penetrance

    def h2_at(s):
        pen = recentred_reference(pen0, probs, rho, s)
        mean = float(probs @ pen)
        return float(probs @ (pen - mean) ** 2) / (mean * (1.0 - mean))

    lo, hi = 0.0, 1.0
    while h2_at(hi) < target_h2:
        if h2_at(2.0 * hi) - h2_at(hi) < 1e-12:
            raise NumericError(f"heritability target {target_h2} unreachable")
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if h2_at(mid) < target_h2:
            lo = mid
        else:
            hi = mid
    return recentred_reference(pen0, probs, rho, 0.5 * (lo + hi))


def replicate_rows_reference(
    population, n_cases, n_controls, isotonic, n_bootstrap, seed, model_idx, k
):
    """One replicate of the former ``simulate._replicate_chunk`` over the
    whole genotype grid: the count stacks (row 0 the test sample in the
    trained order, rows 1.. its stratified bootstrap from the stream key
    ``(seed, model_idx, k, 2)`` in groups of R(G_e), G_e the order
    positions the test sample observed and the last one), the plug-in
    masses and risks, and the isotonic fit (None without ``isotonic``)."""
    rho = population.rho
    rng_train = np.random.default_rng([seed, model_idx, k, 0])
    rng_test = np.random.default_rng([seed, model_idx, k, 1])

    case_t = rng_train.multinomial(n_cases, population.cond_case)
    ctrl_t = rng_train.multinomial(n_controls, population.cond_control)
    case_s = rng_test.multinomial(n_cases, population.cond_case)
    ctrl_s = rng_test.multinomial(n_controls, population.cond_control)

    # trained order: train-observed genotypes by estimated train risk,
    # then the rest by estimated test risk (ties keep table position)
    _, r_train = _plugin_rows(case_t, ctrl_t, rho)
    _, r_test_all = _plugin_rows(case_s, ctrl_s, rho)
    seen = (case_t + ctrl_t) > 0
    seen_idx = np.flatnonzero(seen)
    unseen_idx = np.flatnonzero(~seen)
    order = np.concatenate(
        [
            seen_idx[np.argsort(r_train[seen_idx], kind="stable")],
            unseen_idx[np.argsort(r_test_all[unseen_idx], kind="stable")],
        ]
    ).astype(np.int64)

    case_e = case_s[order]
    ctrl_e = ctrl_s[order]
    observed = np.count_nonzero(case_e + ctrl_e) + int(case_e[-1] + ctrl_e[-1] == 0)
    boot_case, boot_ctrl = bootstrap_rows_reference(
        case_e, ctrl_e, (seed, model_idx, k, 2), n_bootstrap, width=observed
    )
    case_b, ctrl_b = np.vstack([case_e, boot_case]), np.vstack([ctrl_e, boot_ctrl])
    p, r = _plugin_rows(case_b, ctrl_b, rho)
    fit = pava_rows(r.copy(), p) if isotonic else None
    return case_b, ctrl_b, p, r, fit


def percentile_ci(values, level: float) -> ConfidenceInterval:
    """Former ``inference._percentile_ci``: one token's percentile
    interval from one call, the oracle of the row-wise
    ``inference._percentiles``."""
    tail = 100.0 * (1.0 - level) / 2.0
    lower, upper = np.percentile(values, [tail, 100.0 - tail])
    return ConfidenceInterval(float(lower), float(upper), level)


def replicate_chunk_reference(
    population,
    tokens,
    band,
    n_cases,
    n_controls,
    isotonic,
    n_bootstrap,
    level,
    truth,
    seed,
    model_idx,
    rep_lo,
    rep_hi,
    observed=False,
) -> tuple[np.ndarray, np.ndarray]:
    """A whole-stack ``simulate._replicate_chunk`` on the rows of
    ``replicate_rows_reference``, each index evaluated in float on every
    column of the grid: the reference whose coverage the harness must
    equal and whose means it must match to rounding.  With ``observed``,
    it evaluates its whole stack at once over the order positions the
    test sample observed and the last one, as the harness does group by
    group: then the harness must equal it bit for bit, bar U and U_std
    without a refit, which the harness takes from the integer kernel."""
    rho = population.rho
    n_tokens = len(tokens)
    values = np.empty((rep_hi - rep_lo, n_tokens))
    covered = np.zeros((rep_hi - rep_lo, n_tokens), dtype=bool)

    for row, k in enumerate(range(rep_lo, rep_hi)):
        case_b, ctrl_b, p, r, fit = replicate_rows_reference(
            population, n_cases, n_controls, isotonic, n_bootstrap, seed, model_idx, k
        )
        r = r if fit is None else fit
        if observed:
            keep = case_b[0] + ctrl_b[0] > 0
            keep[-1] = True
            # in C order, as the harness's rows are: a row sum's rounding
            # follows the memory layout
            p, r = np.ascontiguousarray(p[:, keep]), np.ascontiguousarray(r[:, keep])
        stack = _index_rows(p, r, rho, tokens, band)
        for t, token in enumerate(tokens):
            values[row, t] = stack[token][0]
            reps = stack[token][1:]
            reps = reps[np.isfinite(reps)]
            if reps.size:
                ci = percentile_ci(reps, level)
                covered[row, t] = ci.lower <= truth[token] <= ci.upper
    return values, covered


def replicate_chunk_blocks_reference(
    population,
    tokens,
    band,
    n_cases,
    n_controls,
    isotonic,
    n_bootstrap,
    level,
    truth,
    seed,
    model_idx,
    rep_lo,
    rep_hi,
    stream=lambda seed, model_idx, k: [seed, model_idx, k, 2],
    block_cells=1 << 16,
) -> tuple[np.ndarray, np.ndarray]:
    """Former ``simulate._replicate_chunk``, which drew its own bootstrap
    rows: all B case rows of a replicate in one call from ``stream``, then
    its control rows from the same stream a block of at most
    ``block_cells`` cells at a time, each block (row 0 the test curve)
    evaluated by the float index rows before the next was drawn.

    At one block its rows are those of one replicate group, so handed a
    group's stream it is the oracle of the harness: every index but U and
    U_std equal bit for bit, and U and U_std (which the harness now takes
    from the integer kernel unless it refits) equal to rounding.
    """
    rho = population.rho
    n_tokens = len(tokens)
    values = np.empty((rep_hi - rep_lo, n_tokens))
    covered = np.empty((rep_hi - rep_lo, n_tokens), dtype=bool)
    target = np.array([truth[token] for token in tokens])
    stack = np.empty((n_tokens, n_bootstrap + 1))
    for row, k in enumerate(range(rep_lo, rep_hi)):
        case_t, ctrl_t = _draw_arms(population, n_cases, n_controls, [seed, model_idx, k, 0])
        case_s, ctrl_s = _draw_arms(population, n_cases, n_controls, [seed, model_idx, k, 1])
        _, r_train = _plugin_rows(case_t, ctrl_t, rho)
        _, r_test = _plugin_rows(case_s, ctrl_s, rho)
        seen = np.flatnonzero(case_t + ctrl_t)
        order = _trained_order(seen[np.argsort(r_train[seen], kind="stable")], r_test)
        keep = (case_s + ctrl_s)[order] > 0
        keep[-1] = True
        cols = order[keep]
        case_e, ctrl_e = case_s[cols], ctrl_s[cols]
        rng = np.random.default_rng(stream(seed, model_idx, k))
        boot_case = rng.multinomial(n_cases, case_e / n_cases, size=n_bootstrap)
        step = max(1, block_cells // cols.size)
        for lo in range(0, n_bootstrap + 1, step):
            hi = min(lo + step, n_bootstrap + 1)
            case_b = boot_case[max(lo - 1, 0):hi - 1]
            ctrl_b = rng.multinomial(n_controls, ctrl_e / n_controls, size=hi - max(lo, 1))
            if lo == 0:
                case_b, ctrl_b = np.vstack([case_e, case_b]), np.vstack([ctrl_e, ctrl_b])
            p, r = _plugin_rows(case_b, ctrl_b, rho)
            if isotonic:
                pava_rows(r, p)
            block = _index_rows(p, r, rho, tokens, band)
            for t, token in enumerate(tokens):
                stack[t, lo:hi] = block[token]
        lower, upper = _coverage_bounds(stack[:, 1:], level)
        values[row] = stack[:, 0]
        covered[row] = (lower <= target) & (target <= upper)
    return values, covered
