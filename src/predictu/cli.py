"""Command-line interface.

Subcommands cover the full pipeline: ``curve`` (estimate and emit a
predictiveness curve), ``summarize`` (summary indices plus inference),
``links`` (ROC and Lorenz views with identity checks), ``validate``
(train/test evaluation with optional isotonic refit), ``simulate``
(bias and coverage harness) and ``report`` (merge prior results).

Exit codes: 0 success, 2 invalid input or configuration, 3 numeric
failure.  All outputs are deterministic given inputs, flags and seed.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace

from . import __version__
from .curve_links import check_lorenz_identity, check_roc_identity, lorenz_from_table, roc_from_table
from .errors import NumericError, ValidationError
from .fileio import (
    _open_rows,
    curve_metadata,
    parse_counts_file,
    parse_subject_file,
    read_json,
    run_provenance,
    write_csv,
    write_eval_csv,
    write_json,
    write_xy_csv,
)
from .inference import (
    ResamplePlan,
    asymptotic_ci,
    bootstrap_estimates,
    permutation_test,
    two_sample_u,
)
from .isotonic import pava
from .parallel import available_cpus
from .risk_model import apply_model_to_test, estimate_risk_table
from .simulate import build_population, load_model_spec, preset, run_bias_coverage
from .summary_indices import _DEFAULT_TOKENS, INDEX_TOKENS, INDICES, _check_band, _index_results


def _band(text: str) -> tuple[float, float]:
    try:
        q0, q1 = (float(part) for part in text.split(":"))
        _check_band(q0, q1)
    except ValueError as exc:  # a ValidationError is a ValueError
        raise argparse.ArgumentTypeError(
            f"band must be q0:q1 with 0 <= q0 < q1 <= 1, got {text!r}"
        ) from exc
    return q0, q1


def _in_range(kind, lo, hi=math.inf):
    """An argparse type: a ``kind`` number in [lo, hi]."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = math.nan
        if not lo <= value <= hi:
            raise argparse.ArgumentTypeError(f"expected {kind.__name__} in [{lo}, {hi}], got {text!r}")
        return value

    return parse


def _tokens(text: str) -> tuple[str, ...]:
    """Lowercased index tokens, each once, in order of first mention."""
    tokens = tuple(dict.fromkeys(t.strip().lower() for t in text.split(",") if t.strip()))
    unknown = [t for t in tokens if t not in INDEX_TOKENS]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown indices {unknown}; choose from {', '.join(INDEX_TOKENS)}"
        )
    if not tokens:
        raise argparse.ArgumentTypeError("at least one index required")
    return tokens


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="predictu",
        description="Predictiveness-curve summary indices for genetic risk models.",
    )
    parser.add_argument("--version", action="version", version=f"predictu {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p, rho_required=True):
        p.add_argument("--rho", type=float, required=rho_required,
                       help="population prevalence (required; not identifiable from case-control data)")
        p.add_argument("--laplace", type=float, default=0.0,
                       help="additive smoothing for plug-in risks (default 0)")
        p.add_argument("--max-bad-rows", type=_in_range(float, 0, 1), default=0.01,
                       help="tolerated fraction of malformed subject rows (default 0.01)")
        p.add_argument("--out", default=".", help="output directory (default current)")

    p = sub.add_parser("curve", help="estimate a predictiveness curve from one dataset")
    p.add_argument("input", help="subject file (sample_id,status,markers) or counts file (genotype_id,n_case,n_control)")
    add_io(p)

    p = sub.add_parser("summarize", help="summary indices with variance and intervals")
    p.add_argument("input")
    add_io(p)
    p.add_argument("--indices", type=_tokens, default=_DEFAULT_TOKENS)
    p.add_argument("--band", type=_band, default=None,
                   help="partial-U band as q0:q1; with --bootstrap, inference.json also gets a "
                        "'partial' interval for U_partial")
    p.add_argument("--bootstrap", type=_in_range(int, 0), default=0, metavar="N",
                   help="bootstrap replicates for percentile intervals (default: asymptotic only)")
    p.add_argument("--permutation", type=_in_range(int, 0), default=0, metavar="N",
                   help="permutation replicates for a null test of U (default: off); the "
                        "order is fitted on the same data, so the p-value is anti-conservative "
                        "(see README)")
    p.add_argument("--seed", type=_in_range(int, 0), default=0)
    p.add_argument("--workers", type=_in_range(int, 1), default=None,
                   help="resampling thread count, at most the available CPUs (default: all of them)")

    p = sub.add_parser("links", help="ROC and Lorenz views of the same risk table")
    p.add_argument("input")
    add_io(p)

    p = sub.add_parser("validate", help="evaluate a trained ordering on independent test data")
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True)
    add_io(p)
    p.add_argument("--indices", type=_tokens, default=_DEFAULT_TOKENS)
    p.add_argument("--band", type=_band, default=None)
    p.add_argument("--isotonic", action="store_true",
                   help="also report indices after a monotone refit of the test curve")

    p = sub.add_parser("simulate", help="bias and coverage of indices on a simulated population")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--preset", help="bundled population name")
    src.add_argument("--model", help="model specification YAML")
    p.add_argument("--replicates", type=int, default=300)
    p.add_argument("--n-cases", type=int, default=1000)
    p.add_argument("--n-controls", type=int, default=1000)
    p.add_argument("--indices", type=_tokens, default=_DEFAULT_TOKENS)
    p.add_argument("--band", type=_band, default=None)
    p.add_argument("--isotonic", action="store_true")
    p.add_argument("--bootstrap", type=int, default=400, metavar="N",
                   help="bootstrap replicates per dataset for coverage intervals")
    p.add_argument("--seed", type=_in_range(int, 0), default=0)
    p.add_argument("--workers", type=_in_range(int, 1), default=None,
                   help="harness thread count, at most the available CPUs (default: 1)")
    p.add_argument("--out", default=".")
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("report", help="merge prior JSON results into one comparison table")
    p.add_argument("inputs", nargs="*", help="indices.json / eval.json files from earlier runs")
    p.add_argument("--out", default=".")
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    return parser


# ---------------------------------------------------------------------------
# shared helpers


def _load_counts(path, rho, max_bad_rows):
    """Auto-detect subject versus pre-aggregated layout by header (the
    first row with a non-blank cell), opening the file once: the parser
    of that layout reads on below the header.

    Parse warnings go to stderr, prefixed with the file they came from.
    """
    with _open_rows(path) as opened:
        if "genotype_id" in (cell.lower() for cell in opened[0]):
            counts, report = parse_counts_file(path, rho=rho, opened=opened)
        else:
            counts, report = parse_subject_file(path, rho, max_bad_rows, opened=opened)
    for warning in report.warnings:
        print(f"warning: {path}: {warning}", file=sys.stderr)
    return counts, report


def _warn_unused_band(args, bootstrap: int | None = None) -> None:
    """One stderr line when ``--band`` moves no output: ``--indices`` names
    no partial token and ``bootstrap``, ``summarize``'s replicate count
    (None where the band feeds no interval), is 0."""
    partial = [t for t in INDEX_TOKENS if INDICES[t].needs_band]
    if args.band is None or bootstrap or any(t in partial for t in args.indices):
        return
    need = " or ".join(partial) + " in --indices" + ("" if bootstrap is None else " or --bootstrap")
    print(f"warning: --band changes no index without {need}", file=sys.stderr)


def _outdir(args) -> str:
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _provenance(args, seed=None) -> dict:
    return run_provenance(vars(args), seed)


def _report_line(report) -> str:
    return (
        f"{report.model:>12s} {report.index_name:>13s}  true={report.true_value:.6g}"
        f"  mean={report.mean:.6g}  %bias={report.pct_bias:.2f}  %cov={report.pct_coverage:.1f}"
    )


# ---------------------------------------------------------------------------
# subcommands


def cmd_curve(args) -> int:
    counts, report = _load_counts(args.input, args.rho, args.max_bad_rows)
    table = estimate_risk_table(counts, laplace=args.laplace)
    out = _outdir(args)
    prov = _provenance(args)
    write_xy_csv(os.path.join(out, "curve.csv"), "q", table.q, "r", table.r, prov)
    meta = curve_metadata(table)
    meta["parse"] = {"rows": report.n_rows, "dropped": report.n_dropped,
                     "warnings": list(report.warnings)}
    write_json(os.path.join(out, "curve.json"), meta, prov)
    print(f"curve: {table.n_genotypes} genotypes, rho={table.rho:g} -> {out}/curve.csv")
    return 0


def cmd_summarize(args) -> int:
    _warn_unused_band(args, args.bootstrap)
    workers = args.workers or available_cpus()
    counts, report = _load_counts(args.input, args.rho, args.max_bad_rows)
    table = estimate_risk_table(counts, laplace=args.laplace)
    blocks = [res.to_dict() for res in _index_results(table, args.indices, args.band)]

    order = table.genotypes
    found = {}
    if args.bootstrap > 0:
        # one draw serves every interval: U, U_partial given a band, and each --indices token
        plan = ResamplePlan(n_replicates=args.bootstrap, seed=args.seed)
        tokens = ("u", "upartial") if args.band else ("u",)
        found = bootstrap_estimates(counts, order, plan, tokens + args.indices, args.band,
                                    laplace=args.laplace, workers=workers)
        estimate = found["u"]
    else:
        estimate = asymptotic_ci(two_sample_u(counts, order, args.laplace))
    inference = {"global": estimate.to_dict()}
    if args.band and found:
        inference["partial"] = found["upartial"].to_dict()
    if args.permutation > 0:
        plan = ResamplePlan(n_replicates=args.permutation, seed=args.seed)
        inference["permutation_p"] = permutation_test(counts, order, plan, workers)
    if found:
        inference["indices"] = [{"name": INDICES[t].name, **found[t].to_dict()} for t in args.indices]
    inference["laplace"] = args.laplace

    # every result is computed before the first write, so a failed run writes nothing
    out = _outdir(args)
    prov = _provenance(args, seed=args.seed)
    write_xy_csv(os.path.join(out, "curve.csv"), "q", table.q, "r", table.r, prov)
    write_json(os.path.join(out, "indices.json"), {"indices": blocks}, prov)
    write_json(os.path.join(out, "inference.json"), inference, prov)

    for block in blocks:
        print(f"{block['name']:>13s} = {block['value']:.6g}")
    ci = estimate.ci
    print(f"U = {estimate.u_hat:.6g}  ci=[{ci.lower:.6g}, {ci.upper:.6g}]  ({estimate.method.value})")
    return 0


def cmd_links(args) -> int:
    counts, _ = _load_counts(args.input, args.rho, args.max_bad_rows)
    table = estimate_risk_table(counts, laplace=args.laplace)
    roc = roc_from_table(table)
    lorenz = lorenz_from_table(table)
    roc_check = check_roc_identity(table)
    lorenz_check = check_lorenz_identity(table)
    out = _outdir(args)
    prov = _provenance(args)
    write_xy_csv(os.path.join(out, "roc.csv"), "fpr", roc.t, "tpr", roc.f, prov)
    write_xy_csv(os.path.join(out, "lorenz.csv"), "q", lorenz.q, "h", lorenz.h, prov)
    write_json(
        os.path.join(out, "links.json"),
        {
            "u": roc_check.u,
            "auc_roc": roc.auc,
            "auc_lorenz": lorenz.auc,
            "roc_identity_residual": roc_check.residual,
            "lorenz_identity_residual": lorenz_check.residual,
        },
        prov,
    )
    print(f"AUC(ROC)={roc.auc:.6g}  AUC(Lorenz)={lorenz.auc:.6g}  "
          f"residuals {roc_check.residual:.2e} / {lorenz_check.residual:.2e}")
    return 0


def cmd_validate(args) -> int:
    _warn_unused_band(args)
    train_counts, _ = _load_counts(args.train, args.rho, args.max_bad_rows)
    test_counts, _ = _load_counts(args.test, args.rho, args.max_bad_rows)
    train_table = estimate_risk_table(train_counts, laplace=args.laplace)
    test_curve = apply_model_to_test(train_table.genotypes, test_counts, laplace=args.laplace)

    doc = {
        "train": {"indices": [r.to_dict() for r in _index_results(train_table, args.indices, args.band)]},
        "test": {
            "indices": [r.to_dict() for r in _index_results(test_curve, args.indices, args.band)],
            "monotone": test_curve.monotone,
            "unseen": [str(g) for g in test_curve.unseen],
        },
    }
    if args.isotonic:
        refit = replace(test_curve, r=pava(test_curve.r, test_curve.p).fitted)
        doc["refit"] = {"indices": [r.to_dict() for r in _index_results(refit, args.indices, args.band)]}
    out = _outdir(args)
    prov = _provenance(args)
    write_xy_csv(os.path.join(out, "test_curve.csv"), "q", test_curve.q, "r", test_curve.r, prov)
    write_json(os.path.join(out, "validate.json"), doc, prov)

    def _value(section, name):
        for block in doc[section]["indices"]:
            if block["name"] == name:
                return block["value"]
        return float("nan")

    name = doc["train"]["indices"][0]["name"]
    print(f"{name}: train={_value('train', name):.6g}  test={_value('test', name):.6g}"
          + ("" if test_curve.monotone else "  (test curve non-monotone)"))
    return 0


def cmd_simulate(args) -> int:
    _warn_unused_band(args)
    model = preset(args.preset) if args.preset else load_model_spec(args.model)
    population = build_population(model)
    reports = run_bias_coverage(
        [population],
        indices=args.indices,
        n_replicates=args.replicates,
        n_cases=args.n_cases,
        n_controls=args.n_controls,
        isotonic=args.isotonic,
        seed=args.seed,
        band=args.band,
        n_bootstrap=args.bootstrap,
        workers=args.workers,
    )
    out = _outdir(args)
    prov = _provenance(args, seed=args.seed)
    if args.format == "json":
        write_json(os.path.join(out, "eval.json"), {"reports": [r.to_dict() for r in reports]}, prov)
    else:
        write_eval_csv(os.path.join(out, "eval.csv"), reports, prov)
    for report in reports:
        print(_report_line(report))
    return 0


def cmd_report(args) -> int:
    if not args.inputs:
        raise ValidationError("report needs at least one prior result file")
    rows = []
    for path in args.inputs:
        try:
            doc = read_json(path)
        except (OSError, ValueError) as exc:
            raise ValidationError(f"{path}: not a readable JSON result file ({exc})") from exc
        if not isinstance(doc, dict):
            raise ValidationError(f"{path}: not a result document (not a JSON object)")
        source = os.path.basename(path)
        try:
            for block in doc.get("indices", []):
                rows.append({
                    "source": source, "model": "", "index": block["name"],
                    "value": block["value"], "true_value": "", "pct_bias": "", "pct_coverage": "",
                })
            for block in doc.get("reports", []):
                rows.append({
                    "source": source, "model": block["model"], "index": block["index"],
                    "value": block["mean"], "true_value": block["true_value"],
                    "pct_bias": block["pct_bias"], "pct_coverage": block["pct_coverage"],
                })
        except KeyError as exc:
            raise ValidationError(f"{path}: a result block lacks the key {exc}") from exc
        except TypeError as exc:
            raise ValidationError(f"{path}: not a result document ({exc})") from exc
    if not rows:
        raise ValidationError("no index or evaluation blocks found in the inputs")
    out = _outdir(args)
    prov = _provenance(args)
    if args.format == "json":
        write_json(os.path.join(out, "report.json"), {"rows": rows}, prov)
        print(f"report: {len(rows)} rows -> {out}/report.json")
    else:
        values = (row.values() for row in rows)
        write_csv(os.path.join(out, "report.csv"), rows[0].keys(), values, prov)
        print(f"report: {len(rows)} rows -> {out}/report.csv")
    return 0


_COMMANDS = {
    "curve": cmd_curve,
    "summarize": cmd_summarize,
    "links": cmd_links,
    "validate": cmd_validate,
    "simulate": cmd_simulate,
    "report": cmd_report,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return _COMMANDS[args.command](args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, MemoryError) as exc:
        print(f"numeric error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
