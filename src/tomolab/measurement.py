"""Quantum state tomography simulation.

Measuring observable B_j (spectral decomposition sum_a lambda_ja Q_ja) on a
system in state rho yields eigenvalue lambda_ja with probability
tr(Q_ja rho).  Repeating m times, the per-eigenvalue counts are multinomial
and sufficient; individual outcome sequences are reconstructed from counts by
a seeded shuffle, which preserves the joint law of the exchangeable outcomes.

Randomness follows RNG contract v2 (:mod:`tomolab.rng`), family
``TOMOGRAPHY``: the design indices come from (seed, family, 0), and each
block of ``BLOCK`` records makes one ``multinomial`` call on its substream,
with one row of cell probabilities per record.  Rows are the basis's
front-padded (p, kappa) table (:class:`ObservableBasis`), padded in front to
the largest cell count over its members; a zero cell takes no draw, so each
row consumes the stream exactly as a one-record call would.  Individual
outcomes are one ``permuted`` call per block on a copy of the block
substream advanced from its start by ``bit_generator.jumped()`` (PCG64's
fixed jump of about 0.618 * 2**128 steps), so the counts do not depend on
``detail`` and the first n records do not depend on n.  The cell
probabilities of every member are computed once per run.

A run's records are held once, as arrays (:class:`TomographyDataset`): the
member index per record, the (n, kappa) count table the multinomial fills
(record k's counts in the last ``sizes[indices[k]]`` slots of row k, zeros in
front), and optionally the average outcomes and the (n, m) outcome array.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .bases import ObservableBasis, SamplingDesign
from .errors import TomolabError
from .rng import BLOCK, TOMOGRAPHY, record_blocks, substream

__all__ = [
    "TomographyDataset",
    "cell_probabilities",
    "run_tomography",
    "write_dataset_csv",
    "read_dataset_csv",
    "write_individuals_csv",
]

PROB_CLAMP = 1e-12
ACTIVE_TOL = 1e-9  # cell a is active iff ACTIVE_TOL < theta_a < 1 - ACTIVE_TOL


@dataclass
class TomographyDataset:
    """Records of one tomography run: record k measured member ``indices[k]``
    m times and saw the last ``sizes[indices[k]]`` entries of ``counts[k]``,
    its counts over the member's eigenvalues in descending order (summing to m)."""

    m: int
    indices: np.ndarray             # int64, one member per record
    counts: np.ndarray              # (n, kappa) int64, front-padded as the basis's tables
    summaries: np.ndarray = None    # N_k per record
    individuals: np.ndarray = None  # (n, m) outcomes, one row per record


def cell_probabilities(rho, basis: ObservableBasis) -> np.ndarray:
    """Measurement distributions tr(Q_ja rho) of every member, the basis's
    (p, kappa) table (member j's law is ``theta[j, basis.cells(j)]``, zeros in
    front), each law clipped to [0, 1] and divided by its sum.  ValueError if
    a trace escapes [0, 1] by more than PROB_CLAMP or a clipped law does not
    sum to 1 within 1e-9."""
    theta = basis.cell_traces(rho)
    escaped = theta[(theta < -PROB_CLAMP) | (theta > 1 + PROB_CLAMP)]
    if escaped.size:
        raise ValueError(f"cell probabilities escape [0,1]: {escaped}")
    theta = np.clip(theta, 0.0, 1.0)
    for r in np.flatnonzero(np.bincount(basis.sizes[basis.sizes > 0])).tolist():
        rows = np.flatnonzero(basis.sizes == r)
        # a (members, r) block summed along its rows adds each row as that member's
        # 1-D sum would; a zero-padded row sum does not, from r = 3
        total = theta[rows, -r:].sum(axis=1)
        worst = total[np.argmax(np.abs(total - 1.0))]
        if abs(worst - 1.0) > 1e-9:
            raise ValueError(f"cell probabilities sum to {worst}, not 1")
        theta[rows, -r:] /= total[:, None]
    return theta


def _active_mask(theta) -> np.ndarray:
    """Flags ACTIVE_TOL < theta_a < 1 - ACTIVE_TOL, the one rule for which cells are active."""
    return (theta > ACTIVE_TOL) & (theta < 1 - ACTIVE_TOL)


def _mean_outcomes(eigenvalues, counts, m: int) -> np.ndarray:
    """Average outcome N = sum_a lambda_a U_a / m over the last axis."""
    return np.einsum("...a,...a->...", eigenvalues, counts) / m


def draw_design_indices(design: SamplingDesign, basis: ObservableBasis, n: int, seed,
                        family: int = TOMOGRAPHY) -> np.ndarray:
    """Observable index per record: 0..p-1 in order (fixed), or i.i.d. from substream
    (seed, family, 0) with Xi for the tomography family and Pi otherwise (random).
    The one place that rejects a design drawing a masking-only member."""
    p = basis.size
    if design.mode == "fixed":
        if n != p:
            raise TomolabError(f"fixed design requires n = p = {p}, got n = {n}")
        indices = np.arange(p)
    else:
        name, weights = (("Xi", design.weights_tomography) if family == TOMOGRAPHY
                         else ("Pi", design.weights_regression))
        if len(weights) != p:
            raise TomolabError(f"{name} has length {len(weights)}, family has {p} members")
        indices = substream(seed, family, 0).choice(p, size=n, p=weights)
    masked = indices[basis.sizes[indices] == 0]
    if len(masked):
        raise TomolabError(f"the design draws member {masked[0]}, which is masking-only")
    return indices


def run_tomography(rho, basis: ObservableBasis, design: SamplingDesign,
                   n: int, m: int, seed: int, detail: str = "counts") -> TomographyDataset:
    """Simulate n records of m measurements each under the given design."""
    if detail not in ("counts", "summary", "individual"):
        raise ValueError(f"unknown detail level {detail!r}")
    if m < 1:
        raise ValueError("m must be at least 1")
    indices = draw_design_indices(design, basis, n, seed)
    pvals, lams = cell_probabilities(rho, basis), basis.eigenvalues
    counts = np.empty((n, basis.kappa), dtype=np.int64)
    outcomes = np.empty((n, m)) if detail == "individual" else None
    for lo, hi, rng in record_blocks(seed, TOMOGRAPHY, n):
        idx = indices[lo:hi]
        # jumped from the block's start (jumped() leaves rng where it is), so
        # the shuffle does not depend on how many draws the counts took
        shuffler = None if outcomes is None else np.random.Generator(rng.bit_generator.jumped())
        counts[lo:hi] = rng.multinomial(m, pvals[idx])
        if outcomes is not None:
            # every row holds m outcomes in eigenvalue order, then is shuffled
            in_order = np.repeat(lams[idx].ravel(), counts[lo:hi].ravel()).reshape(hi - lo, m)
            outcomes[lo:hi] = shuffler.permuted(in_order, axis=1)
    summaries = None
    if detail in ("summary", "individual"):
        summaries = _mean_outcomes(lams[indices], counts, m)
    return TomographyDataset(m=m, indices=indices, counts=counts,
                             summaries=summaries, individuals=outcomes)


# --- CSV ----------------------------------------------------------------------


def _write_table(path, header, blocks) -> None:
    """The one table writer: ``header`` (None for none), then each block of
    ``blocks``, a (row templates, flat values) pair, with one ``%`` over its
    templates, each line ended by CR LF as csv.writer ends it.  ``blocks``
    may be a generator, so a large table streams a block at a time.  Every
    field is a number, which csv quoting would leave as it is."""
    with open(path, "w", newline="", encoding="ascii") as fh:
        if header is not None:
            fh.write(",".join(header) + "\r\n")
        for templates, values in blocks:
            fh.write("\r\n".join(templates) % values)
            fh.write("\r\n")
            del templates, values  # so one block at a time is alive


def _objects(columns) -> np.ndarray:
    """The columns (one entry, or one row of entries, per table row) side by
    side as Python objects: int64 entries as ints, float64 entries as floats,
    which ``%d`` and ``%.17g`` print as ``str`` and ``format(x, ".17g")`` do."""
    return np.column_stack([np.asarray(c).astype(object) for c in columns])


def _blocks(template, *columns):
    """(templates, values) per block of BLOCK rows, for _write_table: every
    row is ``template``, filled from row k of each of ``columns`` in turn."""
    n = len(columns[0])
    for lo in range(0, n, BLOCK):
        yield ([template] * min(BLOCK, n - lo),
               tuple(_objects(c[lo:lo + BLOCK] for c in columns).ravel()))


def _record_blocks(basis: ObservableBasis, indices, table, row, *tail):
    """(templates, values) per block of BLOCK records, for _write_table:
    record k's row is ``row(r)``, r the cell count of its member j, filled
    from k, j, the last r entries of row k of the front-padded ``table`` and
    the k-th entry of each of ``tail``."""
    kappa = basis.kappa
    sizes = basis.sizes[indices]
    templates = {r: row(r) for r in np.flatnonzero(np.bincount(sizes)).tolist()}
    for lo in range(0, len(indices), BLOCK):
        hi = min(lo + BLOCK, len(indices))
        block = _objects([np.arange(lo, hi), indices[lo:hi], table[lo:hi],
                          *(t[lo:hi] for t in tail)])
        keep = np.ones(block.shape, dtype=bool)
        keep[:, 2:2 + kappa] = np.arange(kappa) >= kappa - sizes[lo:hi, None]
        yield [templates[r] for r in sizes[lo:hi].tolist()], tuple(block[keep])


def write_dataset_csv(dataset: TomographyDataset, basis: ObservableBasis, path) -> None:
    """One row per record: k, j, m, "U_1|U_2|...", N (empty when absent)."""
    tail = () if dataset.summaries is None else (dataset.summaries,)
    last = ",%.17g" if tail else ","
    _write_table(path, ["k", "j", "m", "counts", "N"], _record_blocks(
        basis, dataset.indices, dataset.counts,
        lambda r: f"%d,%d,{dataset.m}," + "|".join(["%d"] * r) + last, *tail))


def write_individuals_csv(dataset: TomographyDataset, path) -> None:
    """Sibling outcome file: row per record, one outcome per column."""
    if dataset.individuals is None:
        raise ValueError("dataset carries no individual outcomes")
    outcomes = dataset.individuals
    _write_table(path, None, _blocks(",".join(["%.17g"] * outcomes.shape[1]), outcomes))


def _field(k: int, column: str, text: str, cast):
    """``cast(text)``; a ValueError names record k and ``column`` if it fails."""
    try:
        return cast(text)
    except (ValueError, OverflowError):
        raise ValueError(f"record {k}: cannot read column {column} from {text!r}") from None


def _read_records(path, basis: ObservableBasis, header: list) -> tuple:
    """(rows, member indices) of a record CSV; ValueError unless its header
    starts with ``header``, every row has as many fields as the header, row k's
    column k reads as the integer k and every row names a measurable member of
    ``basis``."""
    with open(path, "r", newline="", encoding="ascii") as fh:
        head, *rows = list(csv.reader(fh)) or [[]]
    if head[:len(header)] != header:
        raise ValueError(f"unexpected header {head}, expected {header}")
    for k, row in enumerate(rows):
        if len(row) != len(head):
            raise ValueError(f"record {k}: {len(row)} fields, the header has {len(head)}")
        if _field(k, "k", row[0], int) != k:
            raise ValueError(f"record {k}: column k holds {row[0]!r}, not {k}")
    indices = np.array([_field(k, "j", r[1], np.int64) for k, r in enumerate(rows)], dtype=np.int64)
    for k, j in enumerate(indices.tolist()):
        if not (0 <= j < basis.size and basis.sizes[j]):
            raise ValueError(f"record {k}: member {j} is not a measurable member of the basis")
    return rows, indices


def _cell_table(texts, indices, basis: ObservableBasis, column: str, noun: str,
                cast, check) -> np.ndarray:
    """The front-padded (n, kappa) table (dtype ``cast``) of the records' "|"-joined ``column``
    fields ``texts``; ValueError unless record k holds one ``cast`` value per cell of member
    ``indices[k]``.  ``check(k, values)`` may raise too, before row k is stored."""
    table = np.zeros((len(texts), basis.kappa), dtype=cast)
    for k, (j, text) in enumerate(zip(indices.tolist(), texts)):
        u = _field(k, column, text, lambda t: [cast(v) for v in t.split("|")])
        if len(u) != basis.sizes[j]:
            raise ValueError(f"record {k}: {len(u)} {noun} do not fit member {j}")
        check(k, u)
        table[k, basis.kappa - len(u):] = u
    return table


def read_dataset_csv(path, basis: ObservableBasis) -> TomographyDataset:
    """Rebuild a dataset from its CSV; ValueError unless every row holds one count per cell
    of a measurable member, summing to the file's one m, and N is set on every row, as
    their mean outcome, or on none."""
    rows, indices = _read_records(path, basis, ["k", "j", "m", "counts", "N"])
    ms = sorted({_field(k, "m", row[2], int) for k, row in enumerate(rows)}) or [0]
    if len(ms) > 1:
        raise ValueError(f"records mix m values {ms}")
    if rows and ms[0] < 1:
        raise ValueError(f"m must be at least 1, got {ms[0]}")

    def check(k, u):
        if min(u) < 0 or sum(u) != ms[0]:
            raise ValueError(f"record {k}: counts {u} do not sum to m = {ms[0]}")

    counts = _cell_table([row[3] for row in rows], indices, basis, "counts", "counts", int, check)
    with_n = [bool(row[4]) for row in rows]
    if len(set(with_n)) > 1:
        k = with_n.index(not with_n[0])
        raise ValueError(f"record {k}: N must be set on every row or on none")
    if not any(with_n):
        return TomographyDataset(m=ms[0], indices=indices, counts=counts)
    summaries = np.array([_field(k, "N", row[4], float) for k, row in enumerate(rows)])
    # the writer's formula, so the library's own files read back bit for bit
    err = np.abs(summaries - _mean_outcomes(basis.eigenvalues[indices], counts, ms[0]))
    bad = np.flatnonzero(~(err <= 1e-12 * max(1.0, np.abs(basis.eigenvalues).max()))).tolist()
    if bad:
        raise ValueError(f"record {bad[0]}: N = {summaries[bad[0]]} is not its counts' mean outcome")
    return TomographyDataset(m=ms[0], indices=indices, counts=counts, summaries=summaries)
