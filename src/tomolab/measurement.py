"""Quantum state tomography simulation.

Measuring observable B_j (spectral decomposition sum_a lambda_ja Q_ja) on a
system in state rho yields eigenvalue lambda_ja with probability
tr(Q_ja rho).  Repeating m times, the per-eigenvalue counts are multinomial
and sufficient; individual outcome sequences are reconstructed from counts by
a seeded shuffle, which preserves the joint law of the exchangeable outcomes.

Randomness contract: one root seed; record k draws from the substream
(seed, family, k + 1) and the design draws use (seed, family, 0), where
``family`` tags the simulator so counted and Gaussian runs with the same
seed stay independent.  Results are therefore independent of execution
order and worker count.  Per-member values are computed once per distinct
drawn member; per record only the substream and the draw remain.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .bases import ObservableBasis, SamplingDesign
from .errors import DesignMismatch, NonMeasurableObservable
from .rng import substream
from .states import DensityMatrix

__all__ = [
    "CountRecord",
    "TomographyDataset",
    "cell_probabilities",
    "measure_counts",
    "summarize",
    "run_tomography",
    "write_dataset_csv",
    "read_dataset_csv",
    "write_individuals_csv",
]

PROB_CLAMP = 1e-12
ACTIVE_TOL = 1e-9  # cell a is active iff ACTIVE_TOL < theta_a < 1 - ACTIVE_TOL
_STREAM_FAMILY = 0


@dataclass(frozen=True)
class CountRecord:
    """Eigenvalue counts of m measurements on one observable."""

    observable_index: int
    counts: np.ndarray       # integers, sum exactly m
    eigenvalues: np.ndarray  # matching distinct eigenvalues, descending
    m: int

    def __post_init__(self):
        object.__setattr__(self, "counts", np.asarray(self.counts, dtype=np.int64))
        object.__setattr__(self, "eigenvalues", np.asarray(self.eigenvalues, dtype=float))
        if int(self.counts.sum()) != self.m:
            raise ValueError("counts must sum to m")


@dataclass
class TomographyDataset:
    """Records of one tomography run, plus optional summaries and outcome lists."""

    design: SamplingDesign
    n: int
    m: int
    records: list
    summaries: list = None    # N_k per record
    individuals: list = None  # outcome arrays of length m per record
    detail: str = "counts"


def cell_probabilities(rho: DensityMatrix, basis: ObservableBasis, j: int) -> np.ndarray:
    """Measurement distribution tr(Q_ja rho) over the distinct eigenvalues of B_j."""
    dec = basis.decompositions[j]
    if dec is None:
        raise NonMeasurableObservable(f"basis member {j} is masking-only (not Hermitian)")
    mat = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho)
    theta = dec.cell_traces(mat)
    if np.any(theta < -PROB_CLAMP) or np.any(theta > 1 + PROB_CLAMP):
        raise ValueError(f"cell probabilities escape [0,1]: {theta}")
    theta = np.clip(theta, 0.0, 1.0)
    total = theta.sum()
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"cell probabilities sum to {total}, not 1")
    return theta / total


def _active_cells(theta, tol: float = ACTIVE_TOL) -> np.ndarray:
    """Indices a with tol < theta_a < 1 - tol; fewer than two means a deterministic law."""
    return np.where((theta > tol) & (theta < 1 - tol))[0]


def measure_counts(rho, basis: ObservableBasis, j: int, m: int, seed) -> CountRecord:
    """One multinomial draw of m measurements on basis member j."""
    if m < 1:
        raise ValueError("m must be at least 1")
    rng = seed if isinstance(seed, np.random.Generator) else substream(seed)
    theta = cell_probabilities(rho, basis, j)
    counts = rng.multinomial(m, theta)
    return CountRecord(
        observable_index=j,
        counts=counts,
        eigenvalues=basis.decompositions[j].eigenvalues,
        m=m,
    )


def summarize(record: CountRecord) -> float:
    """Average outcome N = sum_a lambda_a U_a / m."""
    return float(np.dot(record.eigenvalues, record.counts) / record.m)


def draw_design_indices(design: SamplingDesign, basis: ObservableBasis, n: int, seed,
                        family: int = _STREAM_FAMILY) -> np.ndarray:
    """Observable index per record: 0..p-1 in order (fixed), or i.i.d. from substream
    (seed, family, 0) with Xi for the tomography family and Pi otherwise (random)."""
    p = basis.size
    if design.mode == "fixed":
        if n != p:
            raise DesignMismatch(f"fixed design requires n = p = {p}, got n = {n}")
        return np.arange(p)
    name, weights = (("Xi", design.weights_tomography) if family == _STREAM_FAMILY
                     else ("Pi", design.weights_regression))
    if len(weights) != p:
        raise DesignMismatch(f"{name} has length {len(weights)}, family has {p} members")
    rng = substream(seed, family, 0)
    return rng.choice(p, size=n, p=weights)


def run_tomography(rho, basis: ObservableBasis, design: SamplingDesign,
                   n: int, m: int, seed: int, detail: str = "counts") -> TomographyDataset:
    """Simulate n records of m measurements each under the given design."""
    if detail not in ("counts", "summary", "individual"):
        raise ValueError(f"unknown detail level {detail!r}")
    if m < 1:
        raise ValueError("m must be at least 1")
    indices = draw_design_indices(design, basis, n, seed).tolist()
    thetas = {j: cell_probabilities(rho, basis, j) for j in dict.fromkeys(indices)}
    records, summaries, individuals = [], [], []
    for k, j in enumerate(indices):
        rng = substream(seed, _STREAM_FAMILY, k + 1)
        rec = CountRecord(observable_index=j, counts=rng.multinomial(m, thetas[j]),
                          eigenvalues=basis.decompositions[j].eigenvalues, m=m)
        records.append(rec)
        if detail in ("summary", "individual"):
            summaries.append(summarize(rec))
        if detail == "individual":
            individuals.append(rng.permutation(np.repeat(rec.eigenvalues, rec.counts)))
    return TomographyDataset(
        design=design, n=n, m=m, records=records,
        summaries=summaries if detail in ("summary", "individual") else None,
        individuals=individuals if detail == "individual" else None,
        detail=detail,
    )


# --- CSV ----------------------------------------------------------------------


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_dataset_csv(dataset: TomographyDataset, path) -> None:
    """One row per record: k, j, m, "U_1|U_2|...", N (empty when absent)."""
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "j", "m", "counts", "N"])
        for k, rec in enumerate(dataset.records):
            n_val = _fmt(dataset.summaries[k]) if dataset.summaries is not None else ""
            writer.writerow([
                k, rec.observable_index, rec.m,
                "|".join(str(int(u)) for u in rec.counts),
                n_val,
            ])


def write_individuals_csv(dataset: TomographyDataset, path) -> None:
    """Sibling outcome file: row per record, one outcome per column."""
    if dataset.individuals is None:
        raise ValueError("dataset carries no individual outcomes")
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        for row in dataset.individuals:
            writer.writerow([_fmt(x) for x in row])


def read_dataset_csv(path, basis: ObservableBasis, design: SamplingDesign = None) -> TomographyDataset:
    """Rebuild a dataset from its CSV (eigenvalues come from the basis)."""
    records, summaries = [], []
    with open(path, "r", newline="", encoding="ascii") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header[:4] != ["k", "j", "m", "counts"]:
            raise ValueError(f"unexpected dataset header {header}")
        for row in reader:
            j, m = int(row[1]), int(row[2])
            counts = np.array([int(t) for t in row[3].split("|")])
            records.append(CountRecord(
                observable_index=j, counts=counts,
                eigenvalues=basis.decompositions[j].eigenvalues, m=m,
            ))
            summaries.append(float(row[4]) if row[4] else None)
    have_n = all(s is not None for s in summaries) and summaries
    return TomographyDataset(
        design=design if design is not None else SamplingDesign.fixed(),
        n=len(records), m=records[0].m if records else 0,
        records=records,
        summaries=summaries if have_n else None,
        detail="summary" if have_n else "counts",
    )
