"""Kernels, perturbed densities, Hellinger/TV machinery, scaling."""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps
from scipy.special import gammaincc, gammaln

from oracles import (cell_min_mahalanobis_sq, ellipsoid_window, hellinger_ndtr,
                     lattice_box, log_factorials_30_digits, matched_normal_density,
                     multinomial_pmf_chain, multinomial_pmf_gammaln, record_tails,
                     round_off_per_record, translate_per_record, tv_two_cell, tv_window_draws)
from tomolab import bases, diagnostics, equivalence as eq, measurement, regression, states
from tomolab.errors import TomolabError
from tomolab.rng import BLOCK, TRANSLATE, TV, record_blocks, substream

PAULI2 = bases.build_basis("pauli", 2)

# frozen from a high-order quadrature oracle (order 12 vs 10 agree to 8e-17)
FIXTURE_R3_M64 = 0.072824483246
# order-5 values of the 4-cell quadrature of the affinity over the ellipsoidal window
FIXTURE_R4 = {16: 0.3131424035207856, 64: 0.13144393229622026}
# the same values over the whole 8-sd box, frozen from the per-node form
FIXTURE_R4_BOX = {16: 0.3131424035207849, 64: 0.1314439322960302}
# the window values of the integrand (sqrt f - sqrt g)^2 that the affinity replaced
FIXTURE_R4_SQ_DIFF = {16: 0.3131424015473856, 64: 0.1314439321963495}
# _affinity_window(m, theta, (5, 3), 8.0, 4096) as float.hex: both affinities, sum_W f, rel
WINDOW_HEX = {
    (16, (0.1, 0.2, 0.3, 0.4)): ("0x1.e6e5a8fcb9027p-1", "0x1.e6e5ab9c376bcp-1",
                                 "0x1.fffffff56232ep-1", "0x1.e2668972c8f60p-41"),
    (64, (0.1, 0.2, 0.3, 0.4)): ("0x1.fb93b38707709p-1", "0x1.fb93b390a3fccp-1",
                                 "0x1.ffffffffc6463p-1", "0x1.00873b9f80396p-40"),
    (16, (0.3, 0.3, 0.3999, 1e-4)): ("0x1.fd9ef1e03a7d2p-2", "0x1.d593eae638abdp-1",
                                     "0x1.ffffd7c5b1cb1p-1", "0x1.0cc24e7da648fp-38"),
    # many runs of many rows each, on 1-, 2- and 3-D lattices
    (4096, (0.2, 0.3, 0.5)): ("0x1.fff9a9daed07bp-1", "0x1.fff9a9daed086p-1",
                              "0x1.fffffffffd3e0p-1", "0x1.2194f3db2ee35p-40"),
    (4096, (0.3, 0.7)): ("0x1.fffde76f1df10p-1", "0x1.fffde76f1df12p-1",
                         "0x1.fffffffffc950p-1", "0x1.0a242089d9326p-42"),
    (256, (0.1, 0.2, 0.3, 0.4)): ("0x1.fefdef313e763p-1", "0x1.fefdef31657b5p-1",
                                  "0x1.fffffffffab24p-1", "0x1.29b6e7ca0a0d0p-40"),
}
# 2- and 3-cell points of the distances-4cell and scaling-lowdim benchmark grids
BENCH_POINTS = [(theta, m) for theta in ([0.5, 0.5], [0.3, 0.7], [0.2, 0.3, 0.5])
                for m in (16, 64, 256, 1024, 4096)]


class TestKernels:
    def test_single_cell_unchanged(self):
        pert = eq.kernel_K0([6], 6, seed=1)
        np.testing.assert_array_equal(pert, [6.0])

    def test_unperturbed_row_passthrough(self):
        # a row of one cell draws no uniform; the next row takes the first one,
        # and the padding slot in front of the one cell stays 0
        table = np.array([[0.0, 4.0], [4.0, 0.0]])
        eq._perturb(table, np.array([1, 2]), 4, np.random.default_rng(1))
        psi = np.random.default_rng(1).uniform(-0.5, 0.5)
        np.testing.assert_array_equal(table, [[0.0, 4.0], [4.0 + psi, 4 - (4.0 + psi)]])

    def test_sum_preserved(self):
        for seed in range(50):
            counts = np.array([3, 1, 2])
            pert = eq.kernel_K0(counts, 6, seed=seed)
            assert abs(pert.sum() - 6) <= 1e-12
            assert np.all(np.abs(pert[:2] - counts[:2]) < 0.5 + 1e-12)

    def test_fractional_parts_uniform_ks(self):
        rng = np.random.default_rng(99)
        counts = np.array([5, 3, 2])
        total = 100_000
        table = np.tile(counts, (total, 1)).astype(float)
        eq._perturb(table, np.full(total, 3), 10, rng)
        fracs = (table - counts)[:, :2].ravel()
        stat = sps.kstest(fracs, sps.uniform(loc=-0.5, scale=1.0).cdf)
        assert stat.pvalue > 0.01

    def test_round_trip_example(self):
        pert = eq.kernel_K0([3, 1, 0], 4, seed=7)
        np.testing.assert_array_equal(eq.kernel_K1(pert, 4), [3, 1, 0])

    def test_counts_must_sum_to_m(self):
        with pytest.raises(ValueError):
            eq.kernel_K0([3, 1, 0], 5, seed=7)

    @pytest.mark.parametrize("counts", [[5, -1], [2.5, 1.5], [np.nan, 4]])
    def test_counts_must_be_nonnegative_integers(self, counts):
        with pytest.raises(ValueError, match="nonnegative integers"):
            eq.kernel_K0(counts, 4, seed=1)

    def test_round_off_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            eq.kernel_K1([np.nan, 1.0], 3)

    def test_rounding(self):
        np.testing.assert_array_equal(eq.kernel_K1([2.4, 1.6], 4), [2, 2])

    def test_negative_result(self):
        with pytest.raises(TomolabError):
            eq.kernel_K1([4.9, 0.0], 4)

    @pytest.mark.parametrize("m", [2.5, 0, -1, np.float64(2.0)])
    def test_round_off_rejects_m_not_a_positive_integer(self, m):
        # K1 would round [1.2, 0.8] to [1, 1], which sums to 2, not 2.5
        with pytest.raises(ValueError, match="^m must be"):
            eq.kernel_K1([1.2, 0.8], m)
        with pytest.raises(ValueError, match="^m must be"):
            eq.translate_regression_to_qst((np.array([1]), np.array([[0.6, 0.4]])), m)

    @given(st.integers(0, 2 ** 31), st.integers(2, 5), st.integers(1, 64))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_property(self, seed, r, m):
        rng = np.random.default_rng(seed)
        theta = rng.dirichlet(np.ones(r))
        counts = rng.multinomial(m, theta)
        pert = eq.kernel_K0(counts, m, rng)
        np.testing.assert_array_equal(eq.kernel_K1(pert, m), counts)

    def test_half_away_rounding(self):
        np.testing.assert_array_equal(eq.round_half_away([0.5, -0.5, 1.5, -1.5, 0.4]),
                                      [1, -1, 2, -2, 0])


class TestTranslation:
    def _dataset(self, st_, m, seed, n=4):
        return measurement.run_tomography(st_, PAULI2, bases.SamplingDesign.fixed(),
                                          n, m, seed)

    def test_single_nonzero_record_matches_K0(self):
        # sigma3 on the z-eigenstate counts (m, 0); like any record of two
        # cells it takes the next uniform of its block's flat draw
        st_ = states.validate_density(np.diag([1.0, 0.0]))
        ds = self._dataset(st_, 8, seed=3)
        np.testing.assert_array_equal(ds.counts[3], [8, 0])
        indices, ys = eq.translate_qst_to_regression(ds, PAULI2, seed=3)
        np.testing.assert_array_equal(indices, ds.indices)
        (_, _, rng), = record_blocks(3, TRANSLATE, len(ds.counts))
        rng.uniform(-0.5, 0.5, size=2)  # records 1 and 2; record 0, the identity, has one cell
        np.testing.assert_array_equal(ys[3], eq.kernel_K0(ds.counts[3], 8, rng) / 8)

    def test_sum_one(self):
        st_ = states.pauli_line_state(2, 1, 0.4)
        ds = self._dataset(st_, 16, seed=5)
        for y in eq.translate_qst_to_regression(ds, PAULI2, seed=5)[1]:
            assert abs(y.sum() - 1.0) <= 1e-12

    def test_translated_mean_matches_theta(self):
        st_ = states.pauli_line_state(2, 1, 0.4)
        theta = measurement.cell_probabilities(st_, PAULI2)[1, PAULI2.cells(1)]
        design = bases.SamplingDesign.random(np.array([0, 1.0, 0, 0]))
        vals = []
        for rep in range(60):
            ds = measurement.run_tomography(st_, PAULI2, design, 300, 8, seed=rep)
            _, fine = eq.translate_qst_to_regression(ds, PAULI2, seed=rep)
            vals.extend(y[0] for y in fine)
        vals = np.array(vals)
        se = vals.std() / math.sqrt(len(vals))
        assert abs(vals.mean() - theta[0]) <= 4 * se

    def test_round_trip_recovers_counts(self):
        st_ = states.pauli_line_state(2, 1, 0.4)
        ds = self._dataset(st_, 32, seed=11)
        fine = eq.translate_qst_to_regression(ds, PAULI2, seed=11)
        back, dropped = eq.translate_regression_to_qst(fine, 32)
        assert dropped == 0
        np.testing.assert_array_equal(back.indices, ds.indices)
        np.testing.assert_array_equal(back.counts, ds.counts)

    def test_fine_sample_rounding(self):
        back, _ = eq.translate_regression_to_qst((np.array([1]), np.array([[0.74, 0.26]])), 4)
        np.testing.assert_array_equal(back.counts[0], [3, 1])

    def test_out_of_model_sample_dropped(self):
        samples = (np.array([1, 2]), np.array([[1.2, -0.2], [0.5, 0.5]]))
        back, dropped = eq.translate_regression_to_qst(samples, 4)
        assert dropped == 1
        assert back.indices.tolist() == [2] and len(back.counts) == 1

    def test_gaussian_drop_rate_small(self):
        # m = 64, theta = (1/2, 1/2): negative implied counts are ~8 sd events,
        # so translating real Gaussian fine samples should essentially never drop
        st_ = states.validate_density(np.eye(2) / 2)
        design = bases.SamplingDesign.random(np.array([0, 1.0, 0, 0]))
        fines = [regression.simulate_fine(st_, PAULI2, design, 1000, 64, seed=rep)
                 for rep in range(100)]
        indices = np.concatenate([fine[0] for fine in fines])
        ys = np.concatenate([fine[1] for fine in fines])
        _, dropped = eq.translate_regression_to_qst((indices, ys), 64)
        total = len(ys)
        assert total == 100_000
        assert dropped / total < 0.01

    @pytest.mark.parametrize("m", [1, 2, 7])
    def test_block_translation_matches_per_record(self, m):
        # Hermitian d = 4 mixes 2- and 3-cell members, and at these small m
        # some records have a single nonzero cell (at m = 1 every record)
        herm4 = bases.build_basis("hermitian", 4)
        st_ = states.sample_class(states.StateClassSpec("low_rank", r=2), 4, seed=5)
        design = bases.SamplingDesign.random(np.full(16, 1 / 16))
        n = 3 * BLOCK + 17
        ds = measurement.run_tomography(st_, herm4, design, n, m, seed=m)
        rows = record_tails(herm4, ds.indices, ds.counts)
        assert {len(u) for u in rows} == {2, 3}
        assert any(np.count_nonzero(u) == 1 for u in rows)
        fine = eq.translate_qst_to_regression(ds, herm4, seed=m)
        want = translate_per_record(dataclasses.replace(ds, counts=rows), seed=m)
        np.testing.assert_array_equal(fine[0], want[0])
        assert ([y.tobytes() for y in record_tails(herm4, *fine)]
                == [y.tobytes() for y in want[1]])
        gaussian = regression.simulate_fine(st_, herm4, design, n, m, seed=m)
        for samples, drops in ((fine, False), (gaussian, True)):
            back, dropped = eq.translate_regression_to_qst(samples, m)
            indices, counts, want_dropped = round_off_per_record(
                (samples[0], record_tails(herm4, *samples)), m)
            assert dropped == want_dropped and (dropped > 0) == drops
            np.testing.assert_array_equal(back.indices, indices)
            assert ([u.tobytes() for u in record_tails(herm4, back.indices, back.counts)]
                    == [u.tobytes() for u in counts])

    def test_translated_law_is_tv_draw(self):
        # K0's law: at m = 64 the translated vectors of a 3-cell member, times m,
        # follow the law of U + psi that the TV Monte Carlo samples from
        herm3 = bases.build_basis("hermitian", 3)
        j, m, n = herm3.labels.index((1, 2)), 64, 4000
        theta = np.array([0.00069, 0.982, 0.01731])
        # rho = sum_a theta_a Q_ja, the member's rank-one projections
        rho = np.einsum("a,aij->ij", theta, herm3.projections[j, herm3.cells(j)])
        st_ = states.validate_density(rho)
        law = measurement.cell_probabilities(st_, herm3)[j, herm3.cells(j)]
        np.testing.assert_allclose(law, theta, atol=1e-15)
        design = bases.SamplingDesign.random(np.eye(herm3.size)[j])
        ds = measurement.run_tomography(st_, herm3, design, n, m, seed=21)
        translated = m * eq.translate_qst_to_regression(ds, herm3, seed=21)[1]
        # the draws of substream (seed, TV, point): per run of the window walk the
        # draws landing there, their cells U, then the uniforms psi
        law = law / law.sum()
        cells, psi, f = tv_window_draws(m, law, n, seed=8, point=3)
        x = cells + psi
        ratio = matched_normal_density(m, law, x) / f
        # they are the draws the estimate averages over; the window holds all but
        # about 1e-5 of P, so at most a few fall outside it, each scored 0
        assert len(x) >= n - 3
        assert np.maximum(0.0, 1.0 - ratio).sum() / n == pytest.approx(
            eq.hellinger_perturbed_vs_gaussian(m, law, n, seed=8, point=3)["tv"], rel=1e-12)
        drawn = np.column_stack([x, m - x.sum(axis=1)])
        for a in range(3):
            assert sps.ks_2samp(translated[:, a], drawn[:, a]).pvalue > 0.01
        # and the test tells U + psi from the matched normal
        mu, cov = m * law[0], m * law[0] * (1 - law[0])
        normal = np.random.default_rng(5).normal(mu, math.sqrt(cov), size=n)
        assert sps.ks_2samp(translated[:, 0], normal).pvalue < 1e-6

    def test_inactive_cell_is_singular(self):
        # on |1><1| member (1, 2) of the hermitian family has theta = (0.5, 0, 0.5):
        # the fine simulator puts an exact 0 on the inactive middle cell, K0
        # perturbs it, so the two laws are mutually singular on that coordinate,
        # and the distances integrate the active cells only
        herm3 = bases.build_basis("hermitian", 3)
        j, m, n = herm3.labels.index((1, 2)), 16, 8
        st_ = states.validate_density(np.diag([1.0, 0, 0]).astype(complex))
        theta = measurement.cell_probabilities(st_, herm3)[j, herm3.cells(j)]
        np.testing.assert_array_equal(theta, [0.5, 0.0, 0.5])
        design = bases.SamplingDesign.random(np.eye(herm3.size)[j])
        _, fine = regression.simulate_fine(st_, herm3, design, n, m, seed=4)
        ds = measurement.run_tomography(st_, herm3, design, n, m, seed=4)
        np.testing.assert_array_equal(ds.counts[:, 1], 0)
        _, translated = eq.translate_qst_to_regression(ds, herm3, seed=4)
        assert np.all(fine[:, 1] == 0.0)
        assert np.all(translated[:, 1] != 0.0)
        hel = eq.hellinger_perturbed_vs_gaussian(m, theta)
        sub = eq.hellinger_perturbed_vs_gaussian(m, [0.5, 0.5])
        assert hel["hellinger"] == sub["hellinger"] > 0
        tv = eq.hellinger_perturbed_vs_gaussian(m, theta, 100, seed=4)
        assert tv["tv"] == eq.hellinger_perturbed_vs_gaussian(m, [0.5, 0.5], 100, seed=4)["tv"]

    def test_translation_result_records(self):
        back, dropped = eq.translate_regression_to_qst((np.array([1]), np.array([[0.5, 0.5]])), 4)
        assert len(back.counts) == 1 and back.m == 4 and dropped == 0
        assert back.indices.dtype == np.int64 and back.indices.tolist() == [1]
        np.testing.assert_array_equal(back.counts[0], [2, 2])


def whole_cells(m: int, heads) -> np.ndarray:
    """Count vectors of the unit cells centred at the first r - 1 counts ``heads``."""
    heads = np.asarray(heads, dtype=float)
    return np.concatenate([heads, m - heads.sum(axis=-1, keepdims=True)], axis=-1)


def hellinger_order_12(m: int, theta) -> float:
    """H from the affinity over the same window at order 12, for cells all active."""
    (bc, _), _, _ = eq._affinity_window(m, np.array(theta), (12, 10), eq.WINDOW, eq.CHUNK_CELLS)
    return math.sqrt(max(2.0 - 2.0 * bc, 0.0))


class TestPerturbedDensity:
    # the perturbed density is constant on each unit cell: the pmf at its centre

    def test_binomial_point(self):
        assert eq.multinomial_pmf(whole_cells(1, [0.0]), 1, [0.5, 0.5]) == 0.5

    def test_integrates_to_one(self):
        m, theta = 12, np.array([0.3, 0.7])
        cells = np.arange(-2, m + 3)[:, None]
        total = eq.multinomial_pmf(whole_cells(m, cells), m, theta).sum()
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_integrates_to_one_trinomial(self):
        m, theta = 9, np.array([0.2, 0.3, 0.5])
        grid = [[a, b] for a in range(-1, m + 2) for b in range(-1, m + 2)]
        assert eq.multinomial_pmf(whole_cells(m, grid), m, theta).sum() == pytest.approx(
            1.0, abs=1e-9)

    def test_outside_support(self):
        assert eq.multinomial_pmf(whole_cells(1, [10.0]), 1, [0.5, 0.5]) == 0.0

    @pytest.mark.parametrize("theta", [[0.5, 0.6], [0.5, math.nan], [1.5, -0.5]])
    @pytest.mark.parametrize("density", [
        lambda theta: eq._gaussian_marginal_params(4, theta),
        lambda theta: eq.multinomial_pmf([2, 2], 4, theta),
        lambda theta: eq.hellinger_perturbed_vs_gaussian(4, theta, 100, seed=1),
    ], ids=["gaussian", "pmf", "sampler"])
    def test_invalid_theta_rejected(self, density, theta):
        with pytest.raises(ValueError):
            density(theta)

    @pytest.mark.parametrize("theta", [[0.5, 0.5], [1.0, 0.0]])
    @pytest.mark.parametrize("call, message", [
        (lambda theta: eq.multinomial_pmf([8, 8], 16.5, theta), "m must be an integer, got 16.5"),
        (lambda theta: eq.multinomial_pmf([8, 8], -2, theta), "m must be at least 0, got -2"),
        (lambda theta: eq.hellinger_perturbed_vs_gaussian(16.5, theta),
         "m must be an integer, got 16.5"),
        (lambda theta: eq.hellinger_perturbed_vs_gaussian(16.5, theta, 100, seed=1),
         "m must be an integer, got 16.5"),
        (lambda theta: eq.hellinger_perturbed_vs_gaussian(16, theta, 100.5, seed=1),
         "n_samples must be an integer, got 100.5"),
    ], ids=["pmf", "pmf-negative", "hellinger", "sampler", "sampler-n_samples"])
    def test_bad_integer_argument_named(self, call, message, theta):
        # checked where it enters, before a degenerate theta returns early
        with pytest.raises(ValueError, match=message):
            call(theta)

    def test_numpy_integer_m_accepted(self):
        row = eq.hellinger_perturbed_vs_gaussian(np.int64(16), [0.3, 0.7])
        assert type(row["m"]) is int and row == eq.hellinger_perturbed_vs_gaussian(16, [0.3, 0.7])
        assert eq.multinomial_pmf([1, 1], np.int64(2), [0.5, 0.5]) == 0.5

    @pytest.mark.parametrize("m", [0, -1])
    def test_sampler_rejects_m_below_one(self, m):
        # checked before the sample count, so the first error names m
        with pytest.raises(ValueError, match="m must be at least 1"):
            eq.hellinger_perturbed_vs_gaussian(m, [0.5, 0.5], 1, seed=1)

    @pytest.mark.parametrize("seed", range(5))
    def test_chain_decomposition_matches_direct(self, seed):
        rng = np.random.default_rng(seed)
        r = int(rng.integers(2, 5))
        m = int(rng.integers(1, 12))
        theta = rng.dirichlet(np.ones(r))
        from itertools import product
        for combo in product(range(m + 1), repeat=r - 1):
            if sum(combo) > m:
                continue
            u = np.array(combo + (m - sum(combo),))
            direct = eq.multinomial_pmf(u, m, theta)
            chain = multinomial_pmf_chain(u, m, theta)
            assert chain == pytest.approx(direct, abs=1e-12)

    def test_chain_handles_zero_cells(self):
        theta = np.array([0.5, 0.0, 0.5])
        assert multinomial_pmf_chain(np.array([1, 0, 1]), 2, theta) == pytest.approx(0.5)
        assert multinomial_pmf_chain(np.array([0, 1, 1]), 2, theta) == 0.0


class TestMultinomialPmf:
    @staticmethod
    def _batch(rng, r, m, theta, n=3000):
        """Multinomial draws, and among them rows with a negative count, a wrong
        sum, non-integer counts and counts anywhere in [-2, m + 2]."""
        counts = rng.multinomial(m, theta, size=n).astype(float)
        counts[1::5, 0] -= 1
        counts[1::5, -1] += 1
        counts[2::5, -1] += 1
        counts[3::5, 0] += 0.5
        counts[3::5, 1] -= 0.5
        counts[4::5] = rng.integers(-2, m + 3, size=counts[4::5].shape)
        return counts

    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    @pytest.mark.parametrize("m", [0, 1, 7, 64, 256])
    @pytest.mark.parametrize("zero", [None, 0, -1], ids=["positive", "zero-first", "zero-last"])
    def test_matches_gammaln_oracle(self, r, m, zero):
        rng = np.random.default_rng(100 * r + m)
        theta = rng.dirichlet(np.ones(r))
        if zero is not None:
            theta[zero] = 0.0
            theta /= theta.sum()
        counts = self._batch(rng, r, m, theta)
        got = eq.multinomial_pmf(counts, m, theta)
        # a non-integer row has pmf 0; on integer rows both log pmfs are within a
        # few ulp of log m! (gammaln 2, the table 1, then the sums), and exp adds one
        whole = np.all(counts == np.floor(counts), axis=-1)
        want = np.where(whole, multinomial_pmf_gammaln(counts, m, theta), 0.0)
        np.testing.assert_allclose(got, want, rtol=4 * eq.EPS * (1 + math.lgamma(m + 1)), atol=0)
        assert np.any(got > 0) and not np.any(got[~whole])
        # integer counts give the same bits
        np.testing.assert_array_equal(
            eq.multinomial_pmf(counts[whole].astype(np.int64), m, theta), got[whole])
        shaped = counts.reshape(30, 100, r)
        np.testing.assert_array_equal(eq.multinomial_pmf(shaped, m, theta),
                                      got.reshape(30, 100))
        for row, row_pmf in zip(counts[:7], got):
            one = eq.multinomial_pmf(row, m, theta)
            assert type(one) is float and one == row_pmf

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_zero_cell_emits_no_warning(self):
        theta = [0.5, 0.0, 0.5]
        assert eq.multinomial_pmf([1, 0, 1], 2, theta) == 0.5
        assert eq.multinomial_pmf([1, 1, 0], 2, theta) == 0.0
        np.testing.assert_array_equal(
            eq.multinomial_pmf(whole_cells(2, [[1, 0], [0, 0], [1, 1]]), 2, theta),
            [0.5, 0.25, 0.0])

    def test_cell_count_must_match_theta(self):
        with pytest.raises(ValueError, match="cells"):
            eq.multinomial_pmf([[1.0, 1.0, 0.0]], 2, [0.5, 0.5])


class TestSpecialFunctions:
    """The log-factorial table and the chi-square tails, against scipy.special."""

    def test_log_factorials_within_an_ulp_of_exact(self):
        table = eq._log_factorials(4096)
        want = log_factorials_30_digits(4096).astype(float)  # log k! rounded to float64
        ulps = np.abs(table[2:] - want[2:]) / np.spacing(want[2:])
        assert ulps.max() <= 1 and np.mean(table == want) > 0.99

    def test_log_factorials_match_gammaln(self):
        table = eq._log_factorials(2 ** 16)
        # exact where the pmf's exact values (0.5 at m = 2) depend on it;
        # math.lgamma(3.0) is an ulp off log 2
        assert table[:3].tolist() == [0.0, 0.0, math.log(2)]
        want = gammaln(np.arange(3, 2 ** 16 + 2, dtype=float))
        ulps = np.abs(table[2:] - want) / np.spacing(want)
        assert ulps.max() <= 3 and ulps[:4095].max() <= 2

    def test_log_factorials_cached_and_read_only(self):
        table = eq._log_factorials(64)
        assert eq._log_factorials(64) is table and len(table) == 65
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 1.0

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_chi2_tail_matches_gammaincc(self, dim):
        x = np.concatenate([[eq.WINDOW ** 2 / 2], np.linspace(0.5, 200.0, 400)])
        got = [eq._chi2_tail(dim, v) for v in x.tolist()]
        np.testing.assert_allclose(got, gammaincc(dim / 2, x), rtol=1e-13, atol=0)

    def test_chi2_tail_beyond_the_closed_forms(self):
        with pytest.raises(ValueError, match="4 degrees of freedom"):
            eq._chi2_tail(4, 32.0)


class TestHellinger:
    def test_range(self):
        est = eq.hellinger_perturbed_vs_gaussian(16, [0.5, 0.5])
        assert 0 <= est["hellinger"] <= math.sqrt(2) + 1e-9

    def test_monotone_in_m(self):
        h16 = eq.hellinger_perturbed_vs_gaussian(16, [0.5, 0.5])["hellinger"]
        h256 = eq.hellinger_perturbed_vs_gaussian(256, [0.5, 0.5])["hellinger"]
        assert h256 < h16

    def test_frozen_fixture_r3(self):
        est = eq.hellinger_perturbed_vs_gaussian(64, [1 / 3, 1 / 3, 1 / 3])
        assert est["hellinger"] == pytest.approx(FIXTURE_R3_M64, abs=1e-6)

    def test_cell_permutation_symmetry(self):
        # the perturbation treats the last cell specially (it absorbs the
        # negative sum of the uniforms), so only permutations fixing the last
        # cell leave the perturbed law unchanged; r = 2 swaps reflect exactly
        a = eq.hellinger_perturbed_vs_gaussian(32, [0.2, 0.3, 0.5])["hellinger"]
        b = eq.hellinger_perturbed_vs_gaussian(32, [0.3, 0.2, 0.5])["hellinger"]
        assert a == pytest.approx(b, abs=1e-6)
        c = eq.hellinger_perturbed_vs_gaussian(32, [0.3, 0.7])["hellinger"]
        d = eq.hellinger_perturbed_vs_gaussian(32, [0.7, 0.3])["hellinger"]
        assert c == pytest.approx(d, abs=1e-6)

    def test_degenerate_is_zero(self):
        est = eq.hellinger_perturbed_vs_gaussian(16, [1.0, 0.0])
        assert est["hellinger"] == 0.0 and est["hellinger_err"] == 0.0

    def test_degenerate_cell_reduction(self):
        full = eq.hellinger_perturbed_vs_gaussian(32, [0.5, 0.5, 0.0])["hellinger"]
        sub = eq.hellinger_perturbed_vs_gaussian(32, [0.5, 0.5])["hellinger"]
        assert full == pytest.approx(sub, abs=1e-12)

    @pytest.mark.parametrize("m", sorted(FIXTURE_R4))
    def test_frozen_fixture_r4(self, m):
        est = eq.hellinger_perturbed_vs_gaussian(m, [0.1, 0.2, 0.3, 0.4])
        assert est["hellinger"] == pytest.approx(FIXTURE_R4[m], abs=1e-12)
        # the cells the box adds or drops lie outside the ellipsoid, so the
        # change is inside the error bar
        assert abs(est["hellinger"] - FIXTURE_R4_BOX[m]) <= est["hellinger_err"]
        assert abs(est["hellinger"] - FIXTURE_R4_SQ_DIFF[m]) <= est["hellinger_err"]

    @pytest.mark.parametrize("m, theta", sorted(WINDOW_HEX))
    def test_window_outputs_are_pinned(self, m, theta):
        (bc, bc_cmp), mass, rel = eq._affinity_window(m, np.array(theta), (5, 3), 8.0, 4096)
        assert tuple(float(x).hex() for x in (bc, bc_cmp, mass, rel)) == WINDOW_HEX[m, theta]

    @pytest.mark.parametrize("order", [1, 3, 5, 12])
    def test_gauss_legendre_is_leggauss_read_only(self, order):
        got, want = eq._gauss_legendre(order), np.polynomial.legendre.leggauss(order)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
        assert not any(a.flags.writeable for a in got)
        assert eq._gauss_legendre(order) is got

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("chunk_cells", [1, 7])
    @pytest.mark.parametrize("m, theta, order, rel", [
        (12, [0.2, 0.3, 0.5], 4, 1e-12),
        # a small last cell makes P large along the all-ones direction
        (16, [0.5, 0.499, 0.001], 5, 1e-12),
        (16, [0.5, 0.3, 0.199, 0.001], 5, 1e-12),
        (16, [0.5, 0.5 - 2**-17, 2**-17], 5, 1e-12),
        # P about 1e9: exponent parts of about 1e9 cancel in both sums, hence rel 1e-7
        (4, [0.4, 0.6 - 1e-10, 1e-10], 5, 1e-7),
    ])
    def test_node_sum_matches_per_node_oracle(self, monkeypatch, m, theta, order, rel,
                                              chunk_cells):
        # the affinity: sum over cells and tensor nodes of w sqrt(f) sqrt(g), with
        # one density evaluation per node
        theta, window = np.array(theta), 8.0
        dim = len(theta) - 1
        cells = ellipsoid_window(m, theta, window)
        x, w = np.polynomial.legendre.leggauss(order)
        f = eq.multinomial_pmf(whole_cells(m, cells), m, theta)
        sqrt_f = np.sqrt(f)
        want = 0.0
        for idx in itertools.product(range(order), repeat=dim):
            sqrt_g = np.sqrt(matched_normal_density(m, theta, cells + x[list(idx)] / 2))
            want += np.prod(w[list(idx)] / 2) * np.sum(sqrt_f * sqrt_g)
        # with chunk_cells = 1 most chunks hold no cell of W
        evaluated = self._pmf_cells(monkeypatch)
        (got, got_cmp), mass, _ = eq._affinity_window(m, theta, (order, 3), window, chunk_cells)
        monkeypatch.undo()
        assert sum(map(len, evaluated)) == len(cells)
        assert got == pytest.approx(want, rel=rel)
        assert mass == pytest.approx(f.sum(), rel=1e-12)
        if theta.min() <= measurement.ACTIVE_TOL or order != eq.ORDER:
            return  # the distance itself drops the inactive cell, and runs at ORDER only
        est = eq.hellinger_perturbed_vs_gaussian(m, theta)
        assert math.isfinite(est["hellinger_err"])
        if max(got, got_cmp) > 1:  # an impossible affinity gives the vacuous bar
            assert est["hellinger"] == est["hellinger_err"] == eq.H_MAX
        else:
            assert est["hellinger"] == pytest.approx(math.sqrt(2 - 2 * want), rel=1e-12)

    @pytest.mark.parametrize("m, theta", [(16, [0.5, 0.5 - 1e-6, 1e-6]),
                                          (64, [1 - 1e-6, 1e-6])])
    def test_affinity_above_one_gives_vacuous_bar(self, m, theta):
        # fixed-order nodes cannot resolve a normal far narrower than a cell;
        # the raw affinities are about 2.2 and 2.0, above the largest possible 1
        (bc, _), _, _ = eq._affinity_window(m, np.array(theta), (5, 3), 8.0, 25_000)
        assert bc > 1
        est = eq.hellinger_perturbed_vs_gaussian(m, theta)
        assert est["hellinger"] == est["hellinger_err"] == eq.H_MAX == math.sqrt(2.0)

    @staticmethod
    def _pmf_cells(monkeypatch, values=None) -> list:
        """The first r - 1 counts of every cell the quadrature evaluates the pmf at,
        each run's last two columns walked on from its rows' sums over the leading
        counts; the pmf values too, into ``values`` when given."""
        cells, lead = [], []
        walk = eq._pmf_walk

        def recording(columns, m, theta, log_theta, sums=None, at=slice(None), partial=False):
            out = walk(columns, m, theta, log_theta, sums, at, partial)
            if partial:  # the sums over each box row's leading counts
                lead.append(np.asarray(columns).T)
            elif sums is not None:
                cells.append(np.column_stack([lead[-1][at], columns[0]]))
                if values is not None:
                    values.append(out)
            return out

        monkeypatch.setattr(eq, "_pmf_walk", recording)
        return cells

    def test_one_pmf_pass_for_both_orders(self, monkeypatch):
        cells = self._pmf_cells(monkeypatch)
        m, theta = 16, np.array([0.2, 0.3, 0.5])
        eq.hellinger_perturbed_vs_gaussian(m, theta)
        assert sum(map(len, cells)) == len(ellipsoid_window(m, theta, 8.0))

    def test_window_skips_the_box_corners(self, monkeypatch):
        # the whole 8-sd box at this point has 927,927 cells
        m, theta = 256, np.array([0.1, 0.2, 0.3, 0.4])
        mu, sds = m * theta, np.sqrt(m * theta * (1 - theta))
        box = np.prod([math.floor(mu[a] + 8 * sds[a]) - math.ceil(mu[a] - 8 * sds[a]) + 1
                       for a in range(3)])
        assert box == 927_927
        cells = self._pmf_cells(monkeypatch)
        eq.hellinger_perturbed_vs_gaussian(m, theta)
        assert sum(map(len, cells)) < 0.55 * box
        assert sum(map(len, cells)) == len(ellipsoid_window(m, theta, 8.0))

    @pytest.mark.parametrize("m, theta", [
        (16, (0.1, 0.2, 0.3, 0.4)),  # the box reaches negative implied counts
        (4096, (0.3, 0.7)),  # rows with no leading count
        (16, (0.3, 0.3, 0.3999, 1e-4)),  # a tiny cell
    ])
    def test_window_pmf_is_multinomial_pmf(self, monkeypatch, m, theta):
        values = []
        cells = self._pmf_cells(monkeypatch, values)
        eq._affinity_window(m, np.array(theta), (5, 3), 8.0, 4096)
        monkeypatch.undo()
        cells, f = np.concatenate(cells), np.concatenate(values)
        np.testing.assert_array_equal(cells, ellipsoid_window(m, theta, 8.0))
        counts = whole_cells(m, cells)
        np.testing.assert_array_equal(f, eq.multinomial_pmf(counts, m, theta))
        np.testing.assert_array_equal(f == 0, counts.min(axis=1) < 0)  # only outside the simplex

    def test_theta_checked_once_per_distance_not_per_run(self, monkeypatch):
        from test_regression import _count_calls
        calls = _count_calls(monkeypatch, eq._checked_theta)
        eq.hellinger_perturbed_vs_gaussian(16, (0.1, 0.2, 0.3, 0.4))
        few = len(calls)
        # 232 runs of CHUNK_CELLS box cells here, against 4 at m = 16
        eq.hellinger_perturbed_vs_gaussian(256, (0.1, 0.2, 0.3, 0.4))
        assert len(calls) - few == few <= 2

    @pytest.mark.parametrize("m, theta", [
        (16, [0.1, 0.3, 0.6]), (16, [0.01, 0.9, 0.09]),
        (16, [0.1, 0.2, 0.3, 0.4]), (16, [0.05, 0.8, 0.1, 0.05]),
        # sum_W f rounds above 1 here, so only the rounding allowance covers the tail
        (4096, [0.3, 0.7]), (4096, [0.01, 0.99]),
    ])
    def test_tail_term_bounds_the_mass_outside_the_window(self, monkeypatch, m, theta):
        window = 8.0
        evaluated = self._pmf_cells(monkeypatch)
        tail = eq.hellinger_perturbed_vs_gaussian(m, theta)["tail_p"]
        monkeypatch.undo()
        cells = np.concatenate(evaluated)
        np.testing.assert_array_equal(cells, ellipsoid_window(m, theta, window))
        inside = {tuple(c) for c in cells.astype(int).tolist()}
        # every cell of a box two cells wider that meets E(R) is in the window
        wide = lattice_box(m, theta, window, pad=2)
        meets = wide[cell_min_mahalanobis_sq(m, theta, wide) <= window ** 2]
        assert len(meets) and {tuple(c) for c in meets.astype(int).tolist()} <= inside
        simplex = np.array([c for c in itertools.product(range(m + 1), repeat=len(theta) - 1)
                            if sum(c) <= m], dtype=float)
        outside = np.array([tuple(c) not in inside for c in simplex.astype(int).tolist()])
        full = np.concatenate([simplex, m - simplex.sum(axis=1, keepdims=True)], axis=1)
        p_out = eq.multinomial_pmf(full[outside], m, theta).sum()
        assert 0 < p_out <= tail <= p_out + 1e-10

    def test_tiny_cell_tail_is_small(self):
        # the per-axis Bernstein tail of the whole box gave 0.406 +- 0.329 here
        m, theta = 256, [0.00069, 0.98201, 0.0173]
        est = eq.hellinger_perturbed_vs_gaussian(m, theta)
        assert est["hellinger_err"] < 0.01 * est["hellinger"]
        assert abs(est["hellinger"] - hellinger_order_12(m, theta)) <= est["hellinger_err"]

    @pytest.mark.parametrize("theta, m", BENCH_POINTS)
    def test_matches_ndtr_oracle(self, theta, m):
        # the oracle's log pmf is exact to far below a float64 ulp of log m!, and one
        # such ulp moves H^2 by up to eps log m! (4e-10 in H at m = 4096), so no
        # float64 log pmf can do better than a small multiple of it
        est = eq.hellinger_perturbed_vs_gaussian(m, theta)
        want = hellinger_ndtr(m, theta)
        assert abs(est["hellinger"] ** 2 - want ** 2) <= 2 * eq.EPS * math.lgamma(m + 1)
        assert abs(est["hellinger"] - want) <= est["hellinger_err"] < 1e-6

    @pytest.mark.parametrize("theta, m", [(theta, m) for theta in ([0.5, 0.5], [0.3, 0.7],
                                                                   [0.2, 0.3, 0.5])
                                          for m in (1, 2)])
    def test_smallest_m_matches_ndtr_oracle(self, theta, m):
        # a cell spans about two sd here, so order 5 is off by up to 3e-8,
        # inside its bar, and order 12 resolves it
        want = hellinger_ndtr(m, theta)
        est = eq.hellinger_perturbed_vs_gaussian(m, theta)
        assert abs(est["hellinger"] - want) <= est["hellinger_err"]
        assert hellinger_order_12(m, theta) == pytest.approx(want, abs=1e-10)

    @pytest.mark.parametrize("theta, m, exact", [
        ([0.5, 0.4999, 1e-4], 16, 1.070896),
        ([0.5, 0.5 - 1e-6, 1e-6], 16, 1.311037),
        ([0.00069, 0.98201, 0.0173], 256, 0.40636933),
        ([0.01, 0.9, 0.09], 16, 0.46412961),
    ])
    def test_bar_covers_tiny_cell_values(self, theta, m, exact):
        # cells tiny against 1/m, with their exact values from the closed form
        want = hellinger_ndtr(m, theta)
        assert want == pytest.approx(exact, abs=1e-6)
        est = eq.hellinger_perturbed_vs_gaussian(m, theta)
        assert abs(est["hellinger"] - want) <= est["hellinger_err"]

    def test_bar_covers_tiny_cell_value_r4(self):
        # the exact value lies in this 95% Hoeffding interval of 200,000 mixture samples
        est = eq.hellinger_perturbed_vs_gaussian(16, [0.3, 0.3, 0.3999, 1e-4])
        h, err = est["hellinger"], est["hellinger_err"]
        assert h - err <= 1.1508 and 1.1589 <= h + err

    @pytest.mark.parametrize("theta", [[1.5, -0.5], [math.nan, 0.5], [0.5, 0.6]])
    def test_invalid_theta_rejected(self, theta):
        with pytest.raises(ValueError):
            eq.hellinger_perturbed_vs_gaussian(16, theta)
        with pytest.raises(ValueError):
            eq.hellinger_perturbed_vs_gaussian(16, theta, 100, seed=1)

    def test_arity_cap(self):
        with pytest.raises(TomolabError, match="quadrature supports up to 4 cells, got 5"):
            eq.hellinger_perturbed_vs_gaussian(16, [0.2] * 5)

    def test_m_cap(self):
        with pytest.raises(ValueError):
            eq.hellinger_perturbed_vs_gaussian(8192, [0.5, 0.5])


class TestProductBound:
    def test_all_zero(self):
        assert eq.product_hellinger_bound([0.0, 0.0]) == 0.0

    def test_single_entry(self):
        assert eq.product_hellinger_bound([0.04]) == pytest.approx(0.2)

    def test_n_identical(self):
        n, c, m = 25, 0.8, 64
        got = eq.product_hellinger_bound([c / m] * n)
        assert got == pytest.approx(math.sqrt(n * c / m))

    def test_degenerate_record_is_zero(self):
        # a record with fewer than two active cells contributes its H^2 = 0.0
        zero = eq.hellinger_perturbed_vs_gaussian(16, [1.0, 0.0])["hellinger"]
        assert zero == 0.0
        assert eq.product_hellinger_bound([zero, 0.04, zero]) == pytest.approx(0.2)
        with pytest.raises(ValueError, match="at most 2: None"):
            eq.product_hellinger_bound([None])
        with pytest.raises(ValueError, match="at most 2: None"):
            eq.product_hellinger_bound([0.04, None])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            eq.product_hellinger_bound([-0.1])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite, nonnegative"):
            eq.product_hellinger_bound([0.04, bad])

    def test_above_two_rejected(self):
        # a squared Hellinger distance never exceeds 2
        assert eq.product_hellinger_bound([2.0]) == pytest.approx(math.sqrt(2.0))
        with pytest.raises(ValueError, match="at most 2: 9.0"):
            eq.product_hellinger_bound([9.0])


class RecordingStream:
    """A generator that records the name and output shape of each draw it makes."""

    def __init__(self, rng):
        self.rng, self.calls = rng, []

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def draw(*args, **kwargs):
            out = method(*args, **kwargs)
            self.calls.append((name, np.shape(out)))
            return out

        return draw


class TestTVMonteCarlo:
    def test_identical_laws(self):
        # one active cell: both laws are the same point mass
        est = eq.hellinger_perturbed_vs_gaussian(16, [1.0, 0.0], 2, seed=1)
        assert est["tv"] == est["tv_err"] == est["tv_half_width"] == 0.0

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("m, exact", [(16, 0.059959), (256, 0.014815)])
    def test_matches_exact_two_cell_oracle(self, m, exact, seed):
        theta = [0.3, 0.7]
        want = tv_two_cell(m, theta)
        assert want == pytest.approx(exact, abs=1e-6)
        est = eq.hellinger_perturbed_vs_gaussian(m, theta, 50_000, seed=seed)
        assert abs(est["tv"] - want) <= 3 * est["tv_err"]

    def test_two_cell_half_width_covers_the_exact_value(self):
        # a 95% interval: 1.96 half-widths cover the exact value at 90% of seeds or more
        m, theta = 16, [0.3, 0.7]
        want = tv_two_cell(m, theta)
        covered = 0
        for seed in range(200):
            est = eq.hellinger_perturbed_vs_gaussian(m, theta, 5_000, seed=seed)
            covered += abs(est["tv"] - want) <= est["tv_half_width"]
        assert covered >= 180

    @pytest.mark.parametrize("m", [16, 64])
    def test_draws_outside_the_window_are_charged_to_the_bar(self, m):
        # the window holds count 0 alone and misses P's mass m 1e-6 at count 1, where
        # g is 0 and a draw would score 1; the bar takes that mass as tail_p
        theta = [1e-6, 1 - 1e-6]
        est = eq.hellinger_perturbed_vs_gaussian(m, theta, 50_000, seed=2)
        assert est["tail_p"] >= m * 1e-6 * (1 - 1e-6) ** (m - 1)
        assert est["tv_err"] == est["tv_half_width"] + est["tail_p"] >= est["tail_p"]
        assert abs(est["tv"] - tv_two_cell(m, theta)) <= est["tv_err"]

    def test_zero_density_raises(self, monkeypatch):
        # a picker that ignores f puts every draw of a run on its cell of least f; at
        # this point the window reaches negative implied counts, where f = 0
        monkeypatch.setattr(eq, "_inverse_cdf", lambda f, u: np.full(len(u), np.argmin(f)))
        with pytest.raises(TomolabError, match="sampling density vanished"):
            eq.hellinger_perturbed_vs_gaussian(16, [0.1, 0.2, 0.3, 0.4], 100, seed=3)

    @pytest.mark.parametrize("n_samples", [1])
    def test_too_few_samples_rejected(self, n_samples):
        # one sample has no standard deviation, so no error bar
        with pytest.raises(ValueError, match="n_samples must be 0 or at least 2, got 1"):
            eq.hellinger_perturbed_vs_gaussian(16, [0.5, 0.5], n_samples, seed=3)

    def test_zero_samples_draw_nothing(self, monkeypatch):
        # n_samples = 0 is the Hellinger row alone, with no stream opened
        from test_regression import _count_calls
        calls = _count_calls(monkeypatch, eq.substream)
        for theta in ([0.5, 0.5], [1.0, 0.0]):
            row = eq.hellinger_perturbed_vs_gaussian(16, theta, 0, seed=3)
            assert "tv" not in row and row == eq.hellinger_perturbed_vs_gaussian(16, theta)
        assert calls == []

    def test_chunk_cell_frequencies_follow_f(self, monkeypatch):
        # runs of 16 box cells split this window 48 ways, 25 of them with mass, so
        # the draws cross runs; each cell's share of the draws follows f
        m, theta, n = 16, np.array([0.2, 0.3, 0.5]), 20_000
        values, picks = [], []
        runs = TestHellinger._pmf_cells(monkeypatch, values)
        inverse = eq._inverse_cdf
        monkeypatch.setattr(eq, "_inverse_cdf",
                            lambda f, u: picks.append((f, inverse(f, u))) or picks[-1][1])
        draws = eq._TVDraws(n, substream(11, TV, 0), m, theta)
        eq._affinity_window(m, theta, (5, 3), 8.0, 16, draws)
        monkeypatch.undo()
        assert len(picks) >= 10
        window, f = np.concatenate(runs), np.concatenate(values)
        np.testing.assert_array_equal(window, ellipsoid_window(m, theta, 8.0))
        place = {tuple(c): i for i, c in enumerate(window.tolist())}
        observed = np.zeros(len(window))
        for run_f, cells in picks:
            run = next(i for i, v in enumerate(values) if v is run_f)
            np.add.at(observed, [place[tuple(c)] for c in runs[run][cells].tolist()], 1)
        assert observed.sum() == draws.drawn == n and not np.any(observed[f == 0])
        expected = n * f / f.sum()
        # pool the cells expected fewer than 5 draws into one bin
        small = expected < 5
        obs = np.append(observed[~small], observed[small].sum())
        exp = np.append(expected[~small], expected[small].sum())
        assert sps.chisquare(obs, exp).pvalue > 1e-3

    def test_one_pmf_call_at_the_drawn_counts(self, monkeypatch):
        # the draws take f from the walk, which evaluates the pmf once per cell of W
        # with or without them; U_head + psi rounds back to the drawn cell U, f there
        # is the pmf at U, and psi is drawn and scored a block of CHUNK_CELLS at a time
        m, theta, b = 16, [0.2, 0.3, 0.5], eq.CHUNK_CELLS
        lengths = []
        walk = eq._pmf_walk

        def recording(*args, **kwargs):
            out = walk(*args, **kwargs)
            if not kwargs.get("partial"):
                lengths.append(len(out))
            return out

        monkeypatch.setattr(eq, "_pmf_walk", recording)
        eq.hellinger_perturbed_vs_gaussian(m, theta)
        alone, lengths[:] = list(lengths), []
        streams = []
        stream = eq.substream
        monkeypatch.setattr(eq, "substream",
                            lambda *keys: streams.append(RecordingStream(stream(*keys)))
                            or streams[-1])
        for n, sizes in ((1000, [1000]), (2 * b + 1, [b, b, 1])):
            lengths.clear()
            est = eq.hellinger_perturbed_vs_gaussian(m, theta, n, seed=7, point=2)
            assert lengths == alone
            # the window is one run here: a binomial, the cell uniforms, then psi
            assert streams[-1].calls == [("binomial", ()), ("random", (n,)),
                                         *(("uniform", (size, 2)) for size in sizes)]
            cells, psi, f = tv_window_draws(m, theta, n, seed=7, point=2)
            np.testing.assert_array_equal(eq.round_half_away(cells + psi), cells)
            np.testing.assert_array_equal(f, eq.multinomial_pmf(whole_cells(m, cells), m, theta))
            ratio = matched_normal_density(m, theta, cells + psi) / f
            assert est["tv"] == pytest.approx(np.maximum(0.0, 1.0 - ratio).mean(), rel=1e-12)

    @pytest.mark.parametrize("theta", [[0.3, 0.7], [0.2, 0.3, 0.5], [0.1, 0.2, 0.3, 0.4]])
    @pytest.mark.parametrize("n", [eq.CHUNK_CELLS - 1, eq.CHUNK_CELLS, eq.CHUNK_CELLS + 1,
                                   2 * eq.CHUNK_CELLS + 1])
    def test_blocks_match_one_pass(self, n, theta):
        # scoring a block of draws at a time gives the bits of one pass over all of
        # them, and the draws are those of substream (seed, TV, point) with each run's
        # psi in one call
        m, seed, point = 64, 5, 1
        law = np.array(theta) / np.sum(theta)
        passes = [eq._TVDraws(n, substream(seed, TV, point), m, law, block)
                  for block in (eq.CHUNK_CELLS, n)]
        for draws in passes:
            eq._affinity_window(m, law, (5, 3), 8.0, eq.CHUNK_CELLS, draws)
        assert passes[0].scores.tobytes() == passes[1].scores.tobytes()
        est = eq.hellinger_perturbed_vs_gaussian(m, theta, n, seed, point)
        assert {key: est[key] for key in ("tv", "tv_err", "tv_half_width")} == passes[0].row(
            est["tail_p"])
        cells, psi, f = tv_window_draws(m, law, n, seed, point)
        ratio = matched_normal_density(m, law, cells + psi) / f
        assert est["tv"] == pytest.approx(np.maximum(0.0, 1.0 - ratio).sum() / n, rel=1e-12)

    @pytest.mark.parametrize("theta", [[0.5, 0.5], [1.0, 0.0]])
    @pytest.mark.parametrize("m", [0, -2])
    def test_m_below_one_rejected(self, theta, m):
        with pytest.raises(ValueError, match="m must be at least 1"):
            eq.hellinger_perturbed_vs_gaussian(m, theta, 100, seed=1)

    def test_stream_keyed_by_point(self, monkeypatch):
        from test_regression import _count_calls
        from tomolab import rng
        calls = _count_calls(monkeypatch, rng.substream)
        a = eq.hellinger_perturbed_vs_gaussian(16, [0.5, 0.5], 2000, seed=9, point=3)
        b = eq.hellinger_perturbed_vs_gaussian(16, [0.5, 0.5], 2000, seed=9, point=4)
        again = eq.hellinger_perturbed_vs_gaussian(16, [0.5, 0.5], 2000, seed=9, point=3)
        assert calls == [(9, rng.TV, 3), (9, rng.TV, 4), (9, rng.TV, 3)]
        assert a["tv"] == again["tv"] != b["tv"]
        assert a["hellinger"] == b["hellinger"] == eq.hellinger_perturbed_vs_gaussian(
            16, [0.5, 0.5])["hellinger"]

    @pytest.mark.parametrize("theta", [[0.5, 0.5], [0.2, 0.3, 0.5]])
    @pytest.mark.parametrize("m", [16, 256])
    def test_tv_below_hellinger(self, theta, m):
        est = eq.hellinger_perturbed_vs_gaussian(m, theta, 50_000, seed=4)
        assert est["tv"] <= est["hellinger"] + est["hellinger_err"] + est["tv_err"]


def enumerate_two_stage_tv(f1, f21, g1, g21):
    """Exact TV between two-stage laws by full enumeration (oracle)."""
    joint_f = f1[:, None] * f21
    joint_g = g1[:, None] * g21
    return 0.5 * np.abs(joint_f - joint_g).sum()


class TestConditionalTVBound:
    def test_identical(self):
        assert eq.conditional_tv_bound(0.0, [(0.5, 0.0), (0.5, 0.0)]) == 0.0

    def test_marginal_only(self):
        assert eq.conditional_tv_bound(0.1, [(1.0, 0.0)]) == pytest.approx(0.1)

    def test_bad_weights(self):
        with pytest.raises(ValueError):
            eq.conditional_tv_bound(0.0, [(0.5, 0.1), (0.6, 0.1)])

    @pytest.mark.parametrize("gap,weighted", [
        (0.0, [(math.nan, 0.1)]),
        (0.0, [(1.0, math.nan)]),
        (0.0, [(0.5, 0.1), (0.5, math.inf)]),
        (math.nan, [(1.0, 0.1)]),
        (math.inf, [(1.0, 0.1)]),
    ])
    def test_non_finite_rejected(self, gap, weighted):
        with pytest.raises(ValueError, match="finite|probability vector"):
            eq.conditional_tv_bound(gap, weighted)

    def test_negative_marginal_gap_rejected(self):
        with pytest.raises(ValueError, match="gap must be finite and nonnegative"):
            eq.conditional_tv_bound(-1.0, [(1.0, 0.1)])

    @pytest.mark.parametrize("tv", [5.0, -0.1])
    def test_tv_outside_unit_interval_rejected(self, tv):
        assert eq.conditional_tv_bound(0.0, [(0.5, 1.0), (0.5, 0.0)]) == 0.5
        with pytest.raises(ValueError, match="the TVs in \\[0, 1\\]"):
            eq.conditional_tv_bound(0.0, [(1.0, tv)])

    @pytest.mark.parametrize("seed", range(100))
    def test_dominates_exact_tv(self, seed):
        rng = np.random.default_rng(seed)
        n1, n2 = int(rng.integers(2, 5)), int(rng.integers(2, 6))
        f1 = rng.dirichlet(np.ones(n1))
        g1 = rng.dirichlet(np.ones(n1))
        f21 = rng.dirichlet(np.ones(n2), size=n1)
        g21 = rng.dirichlet(np.ones(n2), size=n1)
        exact = enumerate_two_stage_tv(f1, f21, g1, g21)
        marginal_gap = np.max(np.abs(1 - f1 / g1))
        weighted = [(f1[x], 0.5 * np.abs(f21[x] - g21[x]).sum()) for x in range(n1)]
        rhs = eq.conditional_tv_bound(marginal_gap, weighted)
        assert rhs >= exact - 1e-12


def _hellinger_grid(theta, m_grid):
    return [eq.hellinger_perturbed_vs_gaussian(m, theta) for m in m_grid]


class TestScaling:
    def test_synthetic_powerlaw(self):
        ms = [16, 64, 256, 1024]
        estimates = [{"m": m, "hellinger": 0.7 / math.sqrt(m), "hellinger_err": 0.0} for m in ms]
        rep = eq.scaling_report([0.5, 0.5], ms, estimates)
        assert rep["slope"] == pytest.approx(-0.5, abs=1e-12)
        assert rep["passed"] is True

    def test_band_check(self):
        ms = [16, 64, 256, 1024]
        rep = eq.scaling_report([0.5, 0.5], ms, _hellinger_grid([0.5, 0.5], ms))
        assert rep["passed"] is True
        assert eq.SLOPE_BAND[0] <= rep["slope"] <= eq.SLOPE_BAND[1]

    def test_needs_four_points(self):
        ms = [16, 64, 256]
        with pytest.raises(ValueError, match="distinct m"):
            eq.scaling_report([0.5, 0.5], ms, _hellinger_grid([0.5, 0.5], ms))

    def test_needs_four_distinct_points(self):
        ms = [16, 16, 16, 16]
        with pytest.raises(ValueError, match="distinct m"):
            eq.scaling_report([0.5, 0.5], ms, _hellinger_grid([0.5, 0.5], ms))

    @pytest.mark.parametrize("got", [[16, 64, 256], [16, 64, 256, 1024, 1024],
                                     [64, 16, 256, 1024]])
    def test_needs_one_estimate_per_m(self, got):
        # a missing, extra or misplaced estimate is not fitted against the wrong m
        with pytest.raises(ValueError, match="one estimate per m"):
            eq.scaling_report([0.5, 0.5], [16, 64, 256, 1024], _hellinger_grid([0.5, 0.5], got))

    @pytest.mark.parametrize("theta", [[1.0, 0.0], [0.0, 1.0, 0.0]])
    def test_needs_two_active_cells(self, theta):
        # H = 0 at every m, so the values are not positive and log 0 has no slope
        ms = [16, 64, 256, 1024]
        with pytest.raises(ValueError, match="positive"):
            eq.scaling_report(theta, ms, _hellinger_grid(theta, ms))

    def test_vacuous_bar_fails_the_band(self):
        # at m = 64 and 256 the normal is far narrower than a cell, and H = sqrt(2)
        # carries the vacuous bar; the slope (-0.367) is in the band but means nothing
        theta, ms = [2e-5, 0.99998], [64, 256, 1024, 4096]
        estimates = _hellinger_grid(theta, ms)
        assert [e["hellinger_err"] == eq.H_MAX for e in estimates] == [True, True, False, False]
        rep = eq.scaling_report(theta, ms, estimates)
        assert eq.SLOPE_BAND[0] <= rep["slope"] <= eq.SLOPE_BAND[1]
        assert rep["passed"] is False

    def test_json_payload(self, tmp_path):
        ms = [16, 64, 256, 1024]
        rep = eq.scaling_report([0.5, 0.5], ms, _hellinger_grid([0.5, 0.5], ms))
        jpath = tmp_path / "scale.json"
        diagnostics.write_report_json(rep, jpath)
        import json
        payload = json.loads(jpath.read_text())
        assert payload["passed"] is True
        assert sorted(payload) == ["band", "error_bars", "m_grid", "passed", "slope", "theta",
                                   "values"]
