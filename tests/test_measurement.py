"""Tomography simulator: cell probabilities, counts, summaries, outcomes, datasets."""

from dataclasses import fields

import numpy as np
import pytest
from scipy import stats as sps

from oracles import (cell_probabilities_per_member, custom_basis, dataset_row_mismatches,
                     write_dataset_rows)
from tomolab import bases, measurement, regression, states
from tomolab.errors import TomolabError

PAULI2 = bases.build_basis("pauli", 2)
PAULI4 = bases.build_basis("pauli", 4)


def _custom_family(d: int, seed: int):
    """A random Hermitian member (d distinct eigenvalues), its square, a
    diagonal one and the identity."""
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = (z + z.conj().T) / 2
    return custom_basis([h, h @ h, np.diag(np.arange(d, dtype=float)), np.eye(d)])


LAW_FAMILIES = {
    "pauli16": bases.build_basis("pauli", 16),
    "hermitian16": bases.build_basis("hermitian", 16),
    "gvector16": bases.build_basis("gvector", 16, g_vectors=bases.haar_wavelet_vectors(16)),
    "canonical4": bases.build_basis("canonical", 4),
    "custom12": _custom_family(12, seed=3),
}


def pure_z() -> states.DensityMatrix:
    return states.validate_density(np.diag([1.0, 0.0]).astype(complex))


def counts_on(st, j, n, m, seed) -> np.ndarray:
    """Counts of n records of m measurements, all on member j of PAULI2."""
    design = bases.SamplingDesign.random(np.eye(PAULI2.size)[j])
    ds = measurement.run_tomography(st, PAULI2, design, n, m, seed)
    return np.array(ds.counts)


class TestCellProbabilities:
    def test_eigenstate(self):
        theta = measurement.cell_probabilities(pure_z(), PAULI2)[3, PAULI2.cells(3)]
        np.testing.assert_allclose(theta, [1.0, 0.0], atol=1e-12)

    def test_mixed_on_sigma1(self):
        st = states.validate_density(np.eye(2) / 2)
        theta = measurement.cell_probabilities(st, PAULI2)[1, PAULI2.cells(1)]
        np.testing.assert_allclose(theta, [0.5, 0.5], atol=1e-12)

    def test_line_state(self):
        beta, j_star = 0.7, 5
        st = states.pauli_line_state(4, j_star, beta)
        theta = measurement.cell_probabilities(st, PAULI4)[j_star, PAULI4.cells(j_star)]
        np.testing.assert_allclose(theta, [(1 + beta) / 2, (1 - beta) / 2], atol=1e-9)

    @pytest.mark.parametrize("d", [2, 4, 8, 16])
    def test_maximally_mixed_half_half(self, d):
        basis = bases.build_basis("pauli", d)
        st = states.validate_density(np.eye(d) / d)
        for j in range(1, basis.size, max(1, basis.size // 7)):
            theta = measurement.cell_probabilities(st, basis)[j, basis.cells(j)]
            np.testing.assert_allclose(theta, [0.5, 0.5], atol=1e-9)

    def test_expected_outcome_matches_trace(self):
        rng = np.random.default_rng(0)
        st = states.sample_class(states.StateClassSpec("low_rank", r=3), 4, seed=9)
        for j in range(PAULI4.size):
            theta = measurement.cell_probabilities(st, PAULI4)[j, PAULI4.cells(j)]
            lam = PAULI4.eigenvalues[j, PAULI4.cells(j)]
            want = np.trace(st.matrix @ PAULI4.matrices[j]).real
            assert np.dot(lam, theta) == pytest.approx(want, abs=1e-9)

    def test_masking_member_rejected(self):
        # a masking-only member has an all-zero row in the table, and no simulator draws it
        canonical = bases.build_basis("canonical", 2)
        theta = measurement.cell_probabilities(pure_z(), canonical)
        np.testing.assert_array_equal(theta, [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0],
                                              [0.0, 1.0]])  # e_1 e_1', e_2 e_2'
        with pytest.raises(TomolabError, match="masking-only"):
            measurement.run_tomography(pure_z(), canonical, bases.SamplingDesign.fixed(),
                                       4, 5, seed=1)

    def test_probabilities_beyond_clamp_rejected(self):
        # traces below -1e-12 signal a genuinely indefinite input
        bad = states.DensityMatrix(matrix=np.diag([1.0 + 1e-9, -1e-9]).astype(complex))
        with pytest.raises(ValueError, match="escape"):
            measurement.cell_probabilities(bad, PAULI2)

    def test_law_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 0.5"):
            measurement.cell_probabilities(np.eye(2) / 4, PAULI2)

    def test_tiny_negative_trace_clamped(self):
        eps = 5e-13  # inside the clamp window
        st = states.DensityMatrix(matrix=np.diag([1.0 + eps, -eps]).astype(complex))
        theta = measurement.cell_probabilities(st, PAULI2)[3, PAULI2.cells(3)]
        assert theta[1] == 0.0
        assert theta.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("name", ["pauli16", "hermitian16", "gvector16", "canonical4",
                                      "custom12"])
    def test_table_matches_per_member(self, name):
        # bit for bit each member's law computed on its own, for cell counts 1
        # to 3 and, in the custom family, 12 distinct eigenvalues
        basis = LAW_FAMILIES[name]
        d = basis.dim
        for seed, r in ((1, 1), (2, 2), (3, d)):
            st = states.sample_class(states.StateClassSpec("low_rank", r=r), d, seed=seed)
            theta = measurement.cell_probabilities(st, basis)
            assert theta.shape == (basis.size, basis.kappa)
            for j in np.flatnonzero(basis.sizes):
                np.testing.assert_array_equal(theta[j, basis.cells(j)],
                                              cell_probabilities_per_member(st, basis, j))

    def test_padded_table(self):
        herm = LAW_FAMILIES["hermitian16"]
        st = states.sample_class(states.StateClassSpec("low_rank", r=3), 16, seed=4)
        table = measurement.cell_probabilities(st, herm)
        assert table.shape == (herm.size, herm.kappa) == (256, 3)
        for j in range(herm.size):
            r = herm.sizes[j]
            np.testing.assert_array_equal(table[j, 3 - r:], cell_probabilities_per_member(st, herm, j))
            assert np.all(table[j, :3 - r] == 0.0)


class TestMeasureCounts:
    def test_degenerate_always_full_count(self):
        for seed in range(20):
            np.testing.assert_array_equal(counts_on(pure_z(), 3, 20, 17, seed), [[17, 0]] * 20)

    def test_counts_sum_to_m(self):
        st = states.validate_density(np.eye(2) / 2)
        for seed in range(10):
            assert np.all(counts_on(st, 1, 300, 33, seed).sum(axis=1) == 33)

    def test_single_shot_frequencies_chi2(self):
        # m = 1: the hit cell is distributed like the cell probabilities
        st = states.pauli_line_state(2, 1, 0.4)
        theta = measurement.cell_probabilities(st, PAULI2)[1, PAULI2.cells(1)]
        counts = counts_on(st, 1, 2000, 1, seed=0)
        assert np.all(counts.sum(axis=1) == 1)
        hits = counts.sum(axis=0)
        chi2 = np.sum((hits - 2000 * theta) ** 2 / (2000 * theta))
        assert chi2 < sps.chi2.ppf(0.99, df=1)
        # independent oracle draws agree with theta at the same significance
        rng = np.random.default_rng(123)
        ohits = rng.multinomial(1, theta, size=100_000).sum(axis=0)
        ochi2 = np.sum((ohits - 100_000 * theta) ** 2 / (100_000 * theta))
        assert ochi2 < sps.chi2.ppf(0.99, df=1)

    def test_empirical_mean_clt(self):
        st = states.pauli_line_state(2, 1, 0.2)
        theta = measurement.cell_probabilities(st, PAULI2)[1, PAULI2.cells(1)]
        m, reps = 8, 10_000
        rng = np.random.default_rng(7)
        freq = rng.multinomial(m, theta, size=reps) / m
        for a in range(2):
            tol = 3 * np.sqrt(theta[a] * (1 - theta[a]) / (m * reps))
            assert abs(freq[:, a].mean() - theta[a]) <= tol


class TestSummarize:
    def test_degenerate(self):
        assert measurement._mean_outcomes(np.array([1.0, -1.0]), np.array([5, 0]), 5) == 1.0

    def test_arithmetic(self):
        n = measurement._mean_outcomes(np.array([1.0, -1.0]), np.array([3, 1]), 4)
        assert n == pytest.approx(0.5)

    def test_monte_carlo_mean_matches_trace(self):
        st = states.pauli_line_state(4, 3, 0.6)
        j, m, reps = 3, 16, 10_000
        rng = np.random.default_rng(11)
        theta = measurement.cell_probabilities(st, PAULI4)[j, PAULI4.cells(j)]
        lam = PAULI4.eigenvalues[j, PAULI4.cells(j)]
        ns = rng.multinomial(m, theta, size=reps) @ lam / m
        want = np.trace(st.matrix @ PAULI4.matrices[j]).real
        var = (np.trace(st.matrix @ PAULI4.matrices[j] @ PAULI4.matrices[j]).real
               - want ** 2) / m
        assert abs(ns.mean() - want) <= 4 * np.sqrt(var / reps)


class TestRunTomography:
    def test_fixed_covers_all_members_in_order(self):
        st = states.validate_density(np.eye(2) / 2)
        ds = measurement.run_tomography(st, PAULI2, bases.SamplingDesign.fixed(),
                                        4, 5, seed=1)
        assert ds.indices.tolist() == [0, 1, 2, 3]

    def test_fixed_design_size_mismatch(self):
        st = states.validate_density(np.eye(2) / 2)
        with pytest.raises(TomolabError, match="fixed design requires n = p"):
            measurement.run_tomography(st, PAULI2, bases.SamplingDesign.fixed(), 3, 5, 1)

    @pytest.mark.parametrize("simulate", [measurement.run_tomography,
                                          regression.simulate_coarse, regression.simulate_fine])
    def test_masking_only_draw_rejected_by_design_draw(self, simulate):
        canonical = bases.build_basis("canonical", 2)
        with pytest.raises(TomolabError, match="draws member 1, which is masking-only") as exc:
            simulate(pure_z(), canonical, bases.SamplingDesign.fixed(), 4, 5, 1)
        assert exc.traceback[-1].name == "draw_design_indices"
        # a random design that never draws a masking-only member runs
        diagonal = bases.SamplingDesign.random([0.5, 0.0, 0.0, 0.5])
        out = simulate(pure_z(), canonical, diagonal, 50, 5, 1)
        indices = out[0] if isinstance(out, tuple) else out.indices
        assert set(indices.tolist()) == {0, 3}

    @pytest.mark.parametrize("design, n", [(bases.SamplingDesign.fixed(), 4),
                                           (bases.SamplingDesign.random(np.full(4, 0.25)), 0)])
    def test_zero_m_rejected(self, design, n):
        st = states.validate_density(np.eye(2) / 2)
        with pytest.raises(ValueError):
            measurement.run_tomography(st, PAULI2, design, n, 0, seed=1)

    @pytest.mark.parametrize("n, m, message", [(4, 8.0, "m must be an integer, got 8.0"),
                                               (2.5, 2, "n must be an integer, got 2.5")])
    def test_count_not_an_integer_rejected(self, n, m, message):
        # an m of 8.0 would reach tomography.csv as "8.0", not as an integer count
        st = states.validate_density(np.eye(2) / 2)
        with pytest.raises(ValueError, match=message):
            measurement.run_tomography(st, PAULI2, bases.SamplingDesign.fixed(), n, m, seed=1)

    def test_point_mass_design(self):
        st = states.validate_density(np.eye(2) / 2)
        xi = np.array([0.0, 0.0, 1.0, 0.0])
        design = bases.SamplingDesign.random(xi, xi)
        ds = measurement.run_tomography(st, PAULI2, design, 9, 3, seed=2)
        assert ds.indices.tolist() == [2] * 9

    def test_random_frequencies_chi2(self):
        st = states.validate_density(np.eye(2) / 2)
        xi = np.array([0.1, 0.2, 0.3, 0.4])
        design = bases.SamplingDesign.random(xi, xi)
        n = 100_000
        idx = measurement.draw_design_indices(design, PAULI2, n, seed=5)
        hits = np.bincount(idx, minlength=4)
        chi2 = np.sum((hits - n * xi) ** 2 / (n * xi))
        assert chi2 < sps.chi2.ppf(0.99, df=3)

    def test_individual_outcomes_tally_to_counts(self):
        st = states.pauli_line_state(2, 1, 0.3)
        ds = measurement.run_tomography(st, PAULI2, bases.SamplingDesign.fixed(), 4, 12, seed=3)
        individuals = measurement.outcome_sequences(ds, PAULI2, seed=3)
        assert individuals.shape == (4, 12)
        for j, counts, outcomes in zip(ds.indices, ds.counts, individuals):
            lams = PAULI2.eigenvalues[j, PAULI2.cells(j)]
            for lam, count in zip(lams, counts[2 - len(lams):]):
                assert np.sum(np.isclose(outcomes, lam)) == count
            assert outcomes.mean() == pytest.approx(np.dot(lams, counts[2 - len(lams):]) / 12)

    def test_summary_matches_counts(self, tmp_path):
        # N is written for every record, as its mean outcome
        st = states.pauli_line_state(2, 1, 0.3)
        ds = measurement.run_tomography(st, PAULI2, bases.SamplingDesign.fixed(), 4, 50, seed=4)
        measurement.write_dataset_csv(ds, PAULI2, tmp_path / "ds.csv")
        rows = [row.split(",") for row in (tmp_path / "ds.csv").read_text().splitlines()[1:]]
        for j, counts, row in zip(ds.indices, ds.counts, rows):
            lam = PAULI2.eigenvalues[j, PAULI2.cells(j)]
            assert float(row[4]) == pytest.approx(np.dot(lam, counts[2 - len(lam):]) / ds.m)

    def test_variance_of_summary_monte_carlo(self):
        st = states.pauli_line_state(2, 1, 0.5)
        j, m, reps = 1, 4, 20_000
        rng = np.random.default_rng(21)
        theta = measurement.cell_probabilities(st, PAULI2)[j, PAULI2.cells(j)]
        lam = PAULI2.eigenvalues[j, PAULI2.cells(j)]
        ns = rng.multinomial(m, theta, size=reps) @ lam / m
        b = PAULI2.matrices[j]
        want = (np.trace(st.matrix @ b @ b).real
                - np.trace(st.matrix @ b).real ** 2) / m
        assert ns.var() == pytest.approx(want, rel=0.1)

    def test_records_are_arrays(self):
        # a Hermitian d = 4 family mixes 2-cell and 3-cell members; each
        # record's counts fill exactly its member's cells, at the end of its row
        herm = bases.build_basis("hermitian", 4)
        st = states.sample_class(states.StateClassSpec("low_rank", r=4), 4, seed=2)
        ds = measurement.run_tomography(st, herm, bases.SamplingDesign.fixed(), herm.size, 9,
                                        seed=6)
        assert [f.name for f in fields(ds)] == ["m", "indices", "counts"]
        assert ds.indices.dtype == np.int64
        assert ds.counts.dtype == np.int64 and ds.counts.shape == (herm.size, 3)
        assert set(herm.sizes[ds.indices].tolist()) == {2, 3}
        for j, u in zip(ds.indices, ds.counts):
            assert np.all(u[:3 - herm.sizes[j]] == 0) and u.sum() == 9

    def test_deterministic_per_seed(self):
        st = states.pauli_line_state(2, 1, 0.3)
        a = measurement.run_tomography(st, PAULI2, bases.SamplingDesign.fixed(), 4, 9, seed=8)
        b = measurement.run_tomography(st, PAULI2, bases.SamplingDesign.fixed(), 4, 9, seed=8)
        np.testing.assert_array_equal(a.indices, b.indices)
        np.testing.assert_array_equal(a.counts, b.counts)
        np.testing.assert_array_equal(measurement.outcome_sequences(a, PAULI2, 8),
                                      measurement.outcome_sequences(b, PAULI2, 8))


class TestDatasetCSV:
    @pytest.mark.parametrize("kind, d", [("pauli", 4), ("hermitian", 3), ("canonical", 3)])
    def test_outcomes_survive_the_round_trip(self, tmp_path, kind, d):
        # the written counts and the run's seed are all outcome_sequences needs; n spans
        # two blocks
        basis = bases.build_basis(kind, d)
        st = states.sample_class(states.StateClassSpec("low_rank", r=2), d, seed=1)
        measurable = basis.sizes > 0  # canonical's off-diagonal members are masking-only
        design = bases.SamplingDesign.random(measurable / measurable.sum())
        ds = measurement.run_tomography(st, basis, design, 300, 10, seed=5)
        measurement.write_dataset_csv(ds, basis, tmp_path / "ds.csv")
        rows = [row.split(",") for row in (tmp_path / "ds.csv").read_text().splitlines()[1:]]
        outcomes = measurement.outcome_sequences(ds, basis, seed=5)
        for row, outcome, j in zip(rows, outcomes, ds.indices):
            lams = basis.eigenvalues[j, basis.cells(j)]
            tally = [np.count_nonzero(outcome == lam) for lam in lams]
            assert row[1] == str(j) and tally == [int(u) for u in row[3].split("|")]
        assert len(rows) == len(outcomes)

    def test_n_meets_the_reference_for_large_eigenvalues(self, tmp_path):
        # one rounding step of an N near 1e5 exceeds 1e-12, so the writer's N meets the
        # reference's cell-by-cell sum only within a bound scaled by the eigenvalues
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        big = custom_basis([q @ np.diag(lams) @ q.conj().T
                            for lams in ([123456.78, -98765.4321, 31415.926],
                                         [1e5 / 3, 2e5 / 7, -5e5 / 9])])
        st = states.validate_density(np.diag([0.5, 0.3, 0.2]).astype(complex))
        ds = measurement.run_tomography(st, big, bases.SamplingDesign.random([0.5, 0.5]),
                                        200, 7, seed=5)
        measurement.write_dataset_csv(ds, big, tmp_path / "ds.csv")
        write_dataset_rows(ds, big, tmp_path / "reference.csv")
        assert dataset_row_mismatches(tmp_path / "ds.csv", tmp_path / "reference.csv", big) == []

    def test_individuals_file(self, tmp_path):
        st = states.pauli_line_state(2, 1, 0.3)
        ds = measurement.run_tomography(st, PAULI2, bases.SamplingDesign.fixed(), 4, 6, seed=5)
        path = tmp_path / "outcomes.csv"
        measurement.write_individuals_csv(measurement.outcome_sequences(ds, PAULI2, 5), path)
        rows = path.read_text().strip().splitlines()
        assert len(rows) == 4
        assert all(len(row.split(",")) == 6 for row in rows)
