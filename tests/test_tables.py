"""The block table writers write the bytes of one csv.writer row per record.

The golden pins of test_cli cover Pauli d = 4 at n = 500: two blocks, and
members of at most 2 cells.  Here every table writer meets its csv.writer
reference in ``oracles`` on 3-cell members too (hermitian d = 4 has 2- and
3-cell members) and on several blocks (n = 3 BLOCK + 5).  No task reads a
table back: the run's config and seed rebuild it.
"""

import tracemalloc

import numpy as np
import pytest

import oracles
from tomolab import bases, equivalence, measurement, regression, states
from tomolab.rng import BLOCK

N = 3 * BLOCK + 5
M = 64
SEED = 11
FAMILIES = {kind: bases.build_basis(kind, 4) for kind in ("hermitian", "pauli")}


def _state():
    return states.sample_class(states.StateClassSpec("low_rank", r=2), 4, seed=3)


def _design(basis):
    return bases.SamplingDesign.random(np.full(basis.size, 1.0 / basis.size))


def _same_bytes(tmp_path, write, reference, *args):
    """Check that the package's writer and its reference write ``args`` to the same bytes."""
    ours, theirs = tmp_path / "ours.csv", tmp_path / "reference.csv"
    write(*args, ours)
    reference(*args, theirs)
    assert ours.read_bytes() == theirs.read_bytes()


def test_families_mix_cell_counts():
    assert set(FAMILIES["hermitian"].sizes.tolist()) == {2, 3}
    assert set(FAMILIES["pauli"].sizes.tolist()) == {1, 2}  # the identity has one cell


@pytest.mark.parametrize("kind", FAMILIES)
@pytest.mark.parametrize("detail", ["summary", "individual"])
def test_tomography_tables(tmp_path, kind, detail):
    # the tables a simulate run writes at each [run] detail
    basis = FAMILIES[kind]
    ds = measurement.run_tomography(_state(), basis, _design(basis), N, M, SEED)
    _same_bytes(tmp_path, lambda d, p: measurement.write_dataset_csv(d, basis, p),
                lambda d, p: oracles.write_dataset_rows(d, basis, p), ds)
    if detail == "individual":
        _same_bytes(tmp_path, measurement.write_individuals_csv, oracles.write_individuals_rows,
                    measurement.outcome_sequences(ds, basis, SEED))


@pytest.mark.parametrize("kind", FAMILIES)
def test_regression_tables(tmp_path, kind):
    basis = FAMILIES[kind]
    coarse = regression.simulate_coarse(_state(), basis, _design(basis), N, M, SEED)
    _same_bytes(tmp_path, regression.write_coarse_csv, oracles.write_coarse_rows, coarse)

    ds = measurement.run_tomography(_state(), basis, _design(basis), N, M, SEED)
    for samples in (regression.simulate_fine(_state(), basis, _design(basis), N, M, SEED),
                    equivalence.translate_qst_to_regression(ds, basis, SEED)):
        _same_bytes(tmp_path, lambda s, p: regression.write_fine_csv(s, basis, p),
                    lambda s, p: oracles.write_fine_rows(s, basis, p), samples)


def test_outcomes_stream_a_block_at_a_time(tmp_path):
    """The outcome file is formatted one block of rows at a time: the write's
    peak allocation stays below the outcome array's own size, and a table
    twice as long does not raise it."""
    basis = FAMILIES["pauli"]
    peaks = []
    for blocks in (8, 16):
        ds = measurement.run_tomography(_state(), basis, _design(basis), blocks * BLOCK, M, SEED)
        outcomes = measurement.outcome_sequences(ds, basis, SEED)
        tracemalloc.start()
        try:
            measurement.write_individuals_csv(outcomes, tmp_path / "outcomes.csv")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert peaks[-1] < outcomes.nbytes
    assert peaks[1] < 1.1 * peaks[0]
