"""One layout from basis to record: the front-padded table of width kappa.

A basis stores its spectra as a (p, kappa) table with exact zeros in front of
each member's cells, and its cell traces carry exact zeros there too, which no
rule reads as active; so do the eigensolver reference's (p, kappa, d, d)
projections.  A custom basis with members
of 1, 2 and 3 cells puts every padding width in one run: each producer
returns tables of width kappa, K0 leaves the padding slots at exactly 0, K1
on whole rows agrees with the per-record oracle fed each row's tail, and
the tomography and fine CSV writers cut each row to its member's cells as
their row-by-row references do.  The whole-table
constructions (every family's members, the reference's one batched eigensolve
per family cut into runs by one walk over its eigenvalue columns, the fine
factors) give the bytes of their member-by-member references.
"""

import numpy as np
import pytest

from oracles import (CLUSTER_TOL, custom_basis, dataset_row_mismatches,
                     family_members_per_member, fine_factor, pauli_member_kron, record_tails,
                     reference_basis, round_off_per_record, spectral_tables_per_member,
                     stack_traces, trace_product, write_dataset_rows, write_fine_rows)
from tomolab import bases, equivalence as eq, measurement, regression, states

# the identity (1 cell), a rank-2 projection (2 cells) and a random Hermitian member (3 cells)
_rng = np.random.default_rng(8)
_z = _rng.normal(size=(3, 3)) + 1j * _rng.normal(size=(3, 3))
MIXED = custom_basis([np.eye(3), np.diag([1.0, 1.0, 0.0]), (_z + _z.conj().T) / 2])
STATE = states.sample_class(states.StateClassSpec("low_rank", r=3), 3, seed=1)
DESIGN = bases.SamplingDesign.random(np.full(3, 1 / 3))
N = 600


def padding(indices) -> np.ndarray:
    """Mask of the padding slots of each record's row."""
    return np.arange(MIXED.kappa) < (MIXED.kappa - MIXED.sizes[indices])[:, None]


def test_basis_mixes_one_two_and_three_cells():
    assert MIXED.sizes.tolist() == [1, 2, 3] and MIXED.kappa == 3


# hermitian d = 3: each diagonal member's row has one padding slot in front of its two cells
HERMITIAN3 = bases.build_basis("hermitian", 3)
HERMITIAN3_STATE = states.sample_class(states.StateClassSpec("low_rank", r=2), 3, seed=2)


@pytest.mark.parametrize("basis, state", [(MIXED, STATE), (HERMITIAN3, HERMITIAN3_STATE)],
                         ids=["mixed", "hermitian3"])
def test_basis_tables_are_front_padded_with_exact_zeros(basis, state):
    slots = np.arange(basis.kappa) < (basis.kappa - basis.sizes)[:, None]
    assert basis.eigenvalues.shape == (basis.size, basis.kappa)
    assert np.all(basis.eigenvalues[slots] == 0)
    for j in range(basis.size):
        cells = basis.cells(j)
        assert cells.stop == basis.kappa and cells.stop - cells.start == basis.sizes[j]
    traces = basis.cell_traces(state)
    assert traces.shape == (basis.size, basis.kappa)
    assert np.all(traces[slots] == 0.0) and not measurement._active_mask(traces)[slots].any()
    # the reference's projections are padded alike, and its traces are bit for bit
    # one trace_product per slot, padding slots included
    projections = reference_basis(basis).projections
    assert projections.shape == (basis.size, basis.kappa, basis.dim, basis.dim)
    assert np.all(projections[slots] == 0)
    want = np.array([[trace_product(q, state.matrix).real for q in row] for row in projections])
    assert stack_traces(projections, state).tobytes() == want.tobytes()


@pytest.mark.parametrize("m", [1, 2, 64])
def test_producers_fill_the_padded_table(m):
    ds = measurement.run_tomography(STATE, MIXED, DESIGN, N, m, seed=m)
    assert set(ds.indices.tolist()) == {0, 1, 2}
    fine = regression.simulate_fine(STATE, MIXED, DESIGN, N, m, seed=m)
    translated = eq.translate_qst_to_regression(ds, MIXED, seed=m)
    back, dropped = eq.translate_regression_to_qst(translated, m)
    gaussian, _ = eq.translate_regression_to_qst(fine, m)
    tables = [(ds.indices, ds.counts, np.int64), (fine[0], fine[1], np.float64),
              (translated[0], translated[1], np.float64), (back.indices, back.counts, np.int64),
              (gaussian.indices, gaussian.counts, np.int64)]
    for indices, table, dtype in tables:
        assert table.shape == (len(indices), MIXED.kappa) and table.dtype == dtype
        # K0, like every other producer, leaves each padding slot exactly 0
        assert np.all(table[padding(indices)] == 0)
    assert dropped == 0
    np.testing.assert_array_equal(back.counts, ds.counts)


@pytest.mark.parametrize("m", [1, 2, 7])
def test_round_off_matches_per_record_oracle(m):
    # Gaussian fine samples at small m imply negative counts, so some records drop
    samples = regression.simulate_fine(STATE, MIXED, DESIGN, N, m, seed=m)
    back, dropped = eq.translate_regression_to_qst(samples, m)
    indices, counts, want_dropped = round_off_per_record(
        (samples[0], record_tails(MIXED, *samples)), m)
    assert dropped == want_dropped > 0
    np.testing.assert_array_equal(back.indices, indices)
    assert ([u.tobytes() for u in record_tails(MIXED, back.indices, back.counts)]
            == [u.tobytes() for u in counts])


def test_writers_cut_each_row_to_its_member(tmp_path):
    # 1-, 2- and 3-cell members in one table: each row is cut to its member's cells
    ds = measurement.run_tomography(STATE, MIXED, DESIGN, N, 9, seed=3)
    measurement.write_dataset_csv(ds, MIXED, tmp_path / "tomography.csv")
    write_dataset_rows(ds, MIXED, tmp_path / "reference.csv")
    # the reference sums N cell by cell, so N may differ in its last digits
    assert dataset_row_mismatches(tmp_path / "tomography.csv", tmp_path / "reference.csv",
                                  MIXED) == []
    fine = regression.simulate_fine(STATE, MIXED, DESIGN, N, 9, seed=3)
    regression.write_fine_csv(fine, MIXED, tmp_path / "fine.csv")
    write_fine_rows(fine, MIXED, tmp_path / "reference.csv")
    assert (tmp_path / "fine.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


def _built(kind, d):
    return lambda: bases.build_basis(kind, d, g_vectors=bases.default_g_vectors(d))


def _custom(*mats):
    return lambda: custom_basis(list(mats))


_tol = CLUSTER_TOL
_v = _rng.normal(size=(6, 6)) + 1j * _rng.normal(size=(6, 6))
_u = np.linalg.qr(_v)[0]
# every built-in family at d = 2..32, under the ids "kind-d", then custom families
# that mix run shapes, chain the tolerance or hold 1 x 1 members
FAMILIES = {f"{kind}-{d}": _built(kind, d) for kind in bases._KINDS for d in (2, 4, 8, 16, 32)}
FAMILIES.update({
    "hermitian-5": _built("hermitian", 5),
    "mixed": lambda: MIXED,
    "mixed4": lambda: MIXED4,
    # 0.6 tol joins the run of 0, 1.2 tol is more than tol above that run's first eigenvalue
    "chained-tolerance": _custom(np.diag([0.0, 0.6 * _tol, 1.2 * _tol, 1.0])),
    "degenerate-6": _custom(*(_u @ np.diag(lam) @ _u.conj().T for lam in
                              ([0, 0, 1, 1, 1, 2], [-2, -2, -2, -2, 0, 5], [1] * 6, [0, 1, 2, 3, 4, 5]))),
    "d1": _custom([[2.0]], [[-0.5]]),
})


# cells per member where the rule's edge cases decide them
CELLS = {"chained-tolerance": [3], "d1": [1, 1]}


@pytest.mark.parametrize("family", list(FAMILIES))
def test_basis_tables_match_member_by_member_build(family):
    # the built-in families' closed forms meet this reference in test_bases.TestClosedForm
    basis = reference_basis(FAMILIES[family]())
    d = basis.dim
    if basis.kind == "pauli":
        b = d.bit_length() - 1
        want = np.stack([pauli_member_kron(j, b) for j in range(d * d)])
        assert basis.matrices.tobytes() == want.tobytes()
        assert basis.labels == tuple(tuple(j // 4 ** t % 4 for t in range(b - 1, -1, -1))
                                     for j in range(d * d))
    elif basis.kind != "custom":
        want = family_members_per_member(d, basis.g_vectors)
        assert basis.matrices.tobytes() == want.tobytes()
    eigenvalues, projections, sizes = spectral_tables_per_member(basis.matrices)
    assert basis.eigenvalues.tobytes() == eigenvalues.tobytes()
    assert basis.projections.tobytes() == projections.tobytes()
    assert basis.sizes.tobytes() == sizes.tobytes()
    if family in CELLS:
        assert basis.sizes.tolist() == CELLS[family]


# 4 cells each; on diag(1/2, 0, 1/2, 0) the second and third members have
# inactive cells between and after their active ones
_w = _rng.normal(size=(4, 4)) + 1j * _rng.normal(size=(4, 4))
MIXED4 = custom_basis([(_w + _w.conj().T) / 2, np.diag([3.0, 2.0, 1.0, 0.0]),
                       np.diag([0.0, 1.0, 3.0, 2.0]), np.eye(4)])
FINE_LAWS = [(MIXED, STATE), (MIXED4, states.sample_class(states.StateClassSpec("low_rank", r=4),
                                                          4, seed=3)),
             (MIXED4, states.validate_density(np.diag([0.5, 0.0, 0.5, 0.0]))),
             (bases.build_basis("hermitian", 4), states.witness_state("remark8_haar_rank1", 4)),
             (bases.build_basis("pauli", 16), states.pauli_line_state(16, 3, 0.4))]


@pytest.mark.parametrize("m", [1, 64, 4096])
@pytest.mark.parametrize("law", range(len(FINE_LAWS)))
def test_fine_factors_match_member_by_member(law, m):
    basis, state = FINE_LAWS[law]
    theta = measurement.cell_probabilities(state, basis)
    want = np.stack([fine_factor(row, m, basis.kappa - 1) for row in theta])
    assert regression._fine_factors(theta, m).tobytes() == want.tobytes()

