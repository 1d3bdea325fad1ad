"""Seeded input generator for the benchmark.

Uses numpy only and never imports ``predictu``, so a change to the
package (its simulator in particular) cannot change the benchmark's
inputs.  Each locus is biallelic in Hardy-Weinberg equilibrium; disease
penetrance is multiplicative over loci, base * prod(rr_k ** g_k), with
g_k the risk-allele count.  Case and control genotype counts are
multinomial draws from P(g | D) and P(g | not D).

The locus parameters are fixed design constants; the seed drives only
the sampling, so every seed gives inputs of the same shape and the
run-to-run spread of the benchmark reflects the program, not the
input size.  The same seed gives the same bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Marker cells as written in the files: risk-allele counts 0, 1, 2.
_CELLS = np.array(["0", "1", "2"])


@dataclass(frozen=True)
class LocusModel:
    """Allele frequencies and per-allele relative risks of independent loci."""

    mafs: tuple[float, ...]
    rrs: tuple[float, ...]
    base: float

    def genotypes(self) -> np.ndarray:
        """All 3**L genotypes as rows of allele counts, lexicographic order."""
        n = len(self.mafs)
        grid = np.indices((3,) * n).reshape(n, -1).T
        return grid.astype(np.int8)

    def conditionals(self) -> tuple[np.ndarray, np.ndarray]:
        """P(g | D) and P(g | not D) over ``genotypes()``."""
        codes = self.genotypes().astype(float)
        maf = np.asarray(self.mafs)
        hwe = np.stack([(1 - maf) ** 2, 2 * maf * (1 - maf), maf**2], axis=1)
        prob = np.prod(hwe[np.arange(len(maf)), self.genotypes()], axis=1)
        pen = self.base * np.prod(np.asarray(self.rrs) ** codes, axis=1)
        if pen.max() >= 1.0:
            raise ValueError("penetrance must stay below 1")
        case = prob * pen
        control = prob * (1.0 - pen)
        return case / case.sum(), control / control.sum()


@dataclass(frozen=True)
class FileStats:
    """What a generated file holds: observed genotypes and subjects per arm."""

    genotypes: int
    n_case: int
    n_control: int

    def to_dict(self) -> dict:
        return {"genotypes": self.genotypes, "n_case": self.n_case, "n_control": self.n_control}


def labels(codes: np.ndarray) -> np.ndarray:
    """``/``-joined marker labels, as the package spells genotypes."""
    cells = _CELLS[codes]
    out = cells[:, 0]
    for k in range(1, cells.shape[1]):
        out = np.char.add(np.char.add(out, "/"), cells[:, k])
    return out


def draw_counts(rng, model: LocusModel, n_case: int, n_control: int):
    """Multinomial case and control counts over all genotypes of ``model``."""
    case_law, control_law = model.conditionals()
    return rng.multinomial(n_case, case_law), rng.multinomial(n_control, control_law)


def write_subject_file(path, rng, model: LocusModel, n_case: int, n_control: int) -> FileStats:
    """Per-subject file: ``sample_id,status,m1..mL``, subjects in shuffled order."""
    case, control = draw_counts(rng, model, n_case, n_control)
    codes = model.genotypes()
    geno = np.concatenate([np.repeat(np.arange(codes.shape[0]), case),
                           np.repeat(np.arange(codes.shape[0]), control)])
    status = np.concatenate([np.ones(n_case, np.int8), np.zeros(n_control, np.int8)])
    perm = rng.permutation(geno.size)
    geno, status = geno[perm], status[perm]
    cells = _CELLS[codes[geno]]
    n_markers = codes.shape[1]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(["sample_id", "status"] + [f"m{k + 1}" for k in range(n_markers)]) + "\n")
        fh.writelines(
            f"s{i:07d},{s},{','.join(row)}\n"
            for i, (s, row) in enumerate(zip(status.tolist(), cells.tolist()))
        )
    return FileStats(int(np.count_nonzero(case + control)), n_case, n_control)


def write_counts_file(path, rng, model: LocusModel, n_case: int, n_control: int) -> FileStats:
    """Pre-aggregated file: ``genotype_id,n_case,n_control``, observed rows only,
    in lexicographic genotype order."""
    case, control = draw_counts(rng, model, n_case, n_control)
    seen = (case + control) > 0
    names = labels(model.genotypes()[seen])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("genotype_id,n_case,n_control\n")
        fh.writelines(
            f"{g},{a},{b}\n" for g, a, b in zip(names.tolist(), case[seen].tolist(), control[seen].tolist())
        )
    return FileStats(int(seen.sum()), n_case, n_control)
