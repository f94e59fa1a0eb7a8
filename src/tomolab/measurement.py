"""Quantum state tomography simulation.

Measuring observable B_j (spectral decomposition sum_a lambda_ja Q_ja) on a
system in state rho yields eigenvalue lambda_ja with probability
tr(Q_ja rho).  Repeating m times, the per-eigenvalue counts are multinomial
and sufficient; individual outcome sequences are reconstructed from counts by
a seeded shuffle, which preserves the joint law of the exchangeable outcomes.

Randomness follows RNG contract v3 (:mod:`tomolab.rng`), family
``TOMOGRAPHY``, which draws as under v2: the design indices come from (seed,
family, 0), and each block of ``BLOCK`` records makes one ``multinomial`` call
on its substream, with one row of cell probabilities per record.  Rows are the
basis's front-padded (p, kappa) table (:class:`ObservableBasis`), padded in
front to the largest cell count over its members; a zero cell takes no draw,
so each row consumes the stream exactly as a one-record call would.  The cell
probabilities of every member are computed once per run.

A run's records are held once, as arrays (:class:`TomographyDataset`): the
member index per record and the (n, kappa) count table the multinomial fills
(record k's counts in the last ``sizes[indices[k]]`` slots of row k, zeros in
front).  The rest is derived where it is written: N by
:func:`write_dataset_csv`, and the outcomes by :func:`outcome_sequences`, one
``permuted`` call per block on a copy of the block substream advanced from its
start by ``bit_generator.jumped()`` (PCG64's fixed jump of about 0.618 * 2**128
steps), so the first n records do not depend on n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bases import ObservableBasis, SamplingDesign
from .errors import TomolabError, _checked_integer
from .rng import BLOCK, TOMOGRAPHY, record_blocks, substream

__all__ = [
    "TomographyDataset",
    "cell_probabilities",
    "run_tomography",
    "outcome_sequences",
    "write_dataset_csv",
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
    for r in np.flatnonzero(np.bincount(basis.sizes)).tolist():
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
    (seed, family, 0) with Xi for the tomography family and Pi otherwise (random)."""
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
    return indices


def run_tomography(rho, basis: ObservableBasis, design: SamplingDesign,
                   n: int, m: int, seed: int) -> TomographyDataset:
    """Simulate n records of m measurements each under the given design."""
    n, m = _checked_integer("n", n, 0), _checked_integer("m", m, 1)
    indices = draw_design_indices(design, basis, n, seed)
    pvals = cell_probabilities(rho, basis)
    counts = np.empty((n, basis.kappa), dtype=np.int64)
    for lo, hi, rng in record_blocks(seed, TOMOGRAPHY, n):
        counts[lo:hi] = rng.multinomial(m, pvals[indices[lo:hi]])
    return TomographyDataset(m=m, indices=indices, counts=counts)


def outcome_sequences(dataset: TomographyDataset, basis: ObservableBasis, seed: int) -> np.ndarray:
    """The (n, m) outcomes of ``dataset``'s records, run at ``seed``: row k holds record
    k's eigenvalues, each as often as its count, in a seeded shuffled order."""
    outcomes = np.empty((len(dataset.indices), dataset.m))
    for lo, hi, rng in record_blocks(seed, TOMOGRAPHY, len(outcomes)):
        # jumped from the block's start, where the counts' multinomial began
        shuffler = np.random.Generator(rng.bit_generator.jumped())
        lams, counts = basis.eigenvalues[dataset.indices[lo:hi]], dataset.counts[lo:hi]
        in_order = np.repeat(lams.ravel(), counts.ravel()).reshape(hi - lo, dataset.m)
        outcomes[lo:hi] = shuffler.permuted(in_order, axis=1)
    return outcomes


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
    """One row per record: k, j, m, "U_1|U_2|...", N, its mean outcome."""
    means = _mean_outcomes(basis.eigenvalues[dataset.indices], dataset.counts, dataset.m)
    _write_table(path, ["k", "j", "m", "counts", "N"], _record_blocks(
        basis, dataset.indices, dataset.counts,
        lambda r: f"%d,%d,{dataset.m}," + "|".join(["%d"] * r) + ",%.17g", means))


def write_individuals_csv(outcomes, path) -> None:
    """Sibling outcome file of :func:`outcome_sequences`: one row per record."""
    _write_table(path, None, _blocks(",".join(["%.17g"] * outcomes.shape[1]), outcomes))

