"""Density matrices, witnesses and state-class samplers."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from oracles import class_membership, pauli_coefficients
from tomolab import bases, states
from tomolab.bases import SIGMA
from tomolab.errors import TomolabError

OMEGA = (1.0, 2 * np.sqrt(3) / 7, 2 * np.sqrt(3) / 7, 5.0 / 7.0)


def rank(st) -> int:
    return int(np.sum(np.linalg.eigvalsh(st.matrix) > 1e-9))


class TestValidateDensity:
    @pytest.mark.parametrize("d", [2, 4])
    def test_maximally_mixed(self, d):
        st = states.validate_density(np.eye(d) / d)
        assert st.matrix.shape == (d, d)

    def test_pure_basis_state(self):
        mat = np.zeros((4, 4), dtype=complex)
        mat[0, 0] = 1
        st = states.validate_density(mat)
        assert rank(st) == 1

    def test_sigma3_rejected_trace(self):
        with pytest.raises(TomolabError, match=r"trace is 0\+0j, not 1"):
            states.validate_density(SIGMA[3])

    def test_indefinite_trace_one_rejected_psd(self):
        with pytest.raises(TomolabError, match="most negative eigenvalue"):
            states.validate_density(np.diag([2.0, -1.0]))

    def test_nan_matrix_rejected(self):
        with pytest.raises(TomolabError, match="non-finite entry"):
            states.validate_density(np.full((2, 2), np.nan))


class TestPauliLineState:
    def test_beta_zero_is_maximally_mixed(self):
        st = states.pauli_line_state(4, 1, 0.0)
        np.testing.assert_allclose(st.matrix, np.eye(4) / 4, atol=1e-15)

    def test_eigenvalues_d4(self):
        # spectral oracle: tr(Q_{j+-}) = d/2 forces eigenvalues (1 +- beta)/d
        st = states.pauli_line_state(4, 2, 0.5)
        evals = np.sort(np.linalg.eigvalsh(st.matrix))
        np.testing.assert_allclose(evals, [0.125, 0.125, 0.375, 0.375], atol=1e-12)

    @pytest.mark.parametrize("d,j_star,beta", [(2, 3, 0.3), (4, 5, 0.9), (8, 1, 0.1)])
    def test_projection_traces(self, d, j_star, beta):
        st = states.pauli_line_state(d, j_star, beta)
        basis = bases.build_basis("pauli", d)
        traces = basis.cell_traces(st.matrix)[j_star, basis.cells(j_star)]
        np.testing.assert_allclose(traces, [(1 + beta) / 2, (1 - beta) / 2], atol=1e-9)

    def test_coefficients(self):
        d, j_star, beta = 8, 3, 0.4
        st = states.pauli_line_state(d, j_star, beta)
        alpha = pauli_coefficients(st)
        assert alpha[0] == pytest.approx(1 / d, abs=1e-12)
        assert alpha[j_star] == pytest.approx(beta / d, abs=1e-12)
        others = np.delete(alpha, [0, j_star])
        np.testing.assert_allclose(others, 0.0, atol=1e-9)

    def test_identity_rejected(self):
        with pytest.raises(TomolabError, match="non-identity member"):
            states.pauli_line_state(4, 0, 0.5)

    @pytest.mark.parametrize("beta", [np.nan, np.inf])
    def test_beta_not_finite(self, beta):
        # rejected by the beta check, before any eigensolver sees a NaN
        with pytest.raises(TomolabError, match=r"\|beta\| must be < 1"):
            states.pauli_line_state(4, 1, beta)

    def test_beta_out_of_range(self):
        with pytest.raises(TomolabError, match=r"\|beta\| must be < 1"):
            states.pauli_line_state(4, 1, 1.0)

    @pytest.mark.parametrize("d, j_star, problem", [
        (4, 16, "non-identity member"),
        (4, -1, "non-identity member"),
        (6, 1, r"pauli family needs d = 2\^b"),
    ])
    def test_out_of_range_rejected(self, d, j_star, problem):
        with pytest.raises(TomolabError, match=problem):
            states.pauli_line_state(d, j_star, 0.5)

    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_direction_is_the_basis_member_bit_for_bit(self, d):
        members = bases.build_basis("pauli", d).matrices
        for j in range(1, d * d):
            want = np.eye(d, dtype=complex) / d + (0.5 / d) * members[j]
            np.testing.assert_array_equal(states.pauli_line_state(d, j, 0.5).matrix, want)

    def test_builds_no_basis(self, monkeypatch):
        def no_build(*args, **kwargs):
            raise AssertionError("a basis was built")

        monkeypatch.setattr(bases, "build_basis", no_build)
        states.pauli_line_state(16, 1, 0.5)
        states.sample_class(states.StateClassSpec("pauli_sparse", s=5), 16, seed=3)


class TestTiltedProductState:
    def test_single_qubit_averages(self):
        st = states.tilted_product_state(1)
        for ell in range(4):
            got = np.trace(st.matrix @ SIGMA[ell]).real
            assert got == pytest.approx(OMEGA[ell], abs=1e-12)

    def test_product_formula_b2(self):
        st = states.tilted_product_state(2)
        b = bases.build_basis("pauli", 4)
        j = b.labels.index((1, 3))
        got = np.trace(st.matrix @ b.matrices[j]).real
        assert got == pytest.approx(OMEGA[1] * OMEGA[3], abs=1e-9)

    @pytest.mark.parametrize("b", [1, 2, 3])
    def test_rank_one_unit_trace(self, b):
        st = states.tilted_product_state(b)
        assert rank(st) == 1
        assert np.trace(st.matrix).real == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("b", [1, 2, 3, 4])
    def test_projection_trace_bounds(self, b):
        d = 2 ** b
        st = states.tilted_product_state(b)
        basis = bases.build_basis("pauli", d)
        traces = basis.cell_traces(st.matrix)
        for j in range(1, basis.size):
            tr = traces[j, basis.cells(j)]
            assert tr[0] >= 0.5 - 1e-9
            assert tr[1] >= 1.0 / 7.0 - 1e-9

    @pytest.mark.parametrize("b", [1, 2, 3])
    def test_all_pauli_averages_factor(self, b):
        d = 2 ** b
        st = states.tilted_product_state(b)
        basis = bases.build_basis("pauli", d)
        for j, label in enumerate(basis.labels):
            want = np.prod([OMEGA[l] for l in label])
            got = np.trace(st.matrix @ basis.matrices[j]).real
            assert got == pytest.approx(want, abs=1e-9)


class TestWitnesses:
    def test_remark8_rank1_is_all_ones(self):
        st = states.witness_state("remark8_haar_rank1", 8)
        np.testing.assert_allclose(st.matrix, np.ones((8, 8)) / 8, atol=1e-15)

    def test_remark8_rank2(self):
        d = 8
        st = states.witness_state("remark8_haar_rank2", d)
        ones = np.ones(d)
        steps = np.concatenate([np.ones(d // 2), -np.ones(d // 2)])
        want = 3 * np.outer(ones, ones) / (4 * d) + np.outer(steps, steps) / (4 * d)
        np.testing.assert_allclose(st.matrix, want, atol=1e-12)
        assert rank(st) == 2


class TestSamplers:
    def test_entry_sparse_s1_is_pure_diagonal(self):
        st = states.sample_class(states.StateClassSpec("entry_sparse", s=1), 4, seed=7)
        diag = np.diag(st.matrix).real
        assert np.sum(np.abs(st.matrix) > 1e-9) == 1
        assert np.max(diag) == pytest.approx(1.0)

    @pytest.mark.parametrize("s", [1, 2, 4])
    @pytest.mark.parametrize("seed", range(6))
    def test_entry_sparse_membership(self, s, seed):
        spec = states.StateClassSpec("entry_sparse", s=s)
        st = states.sample_class(spec, 6, seed=seed)
        assert class_membership(st, spec)["member"]

    @pytest.mark.parametrize("s", [1, 2, 5])
    @pytest.mark.parametrize("seed", range(4))
    def test_pauli_sparse_membership(self, s, seed):
        spec = states.StateClassSpec("pauli_sparse", s=s)
        st = states.sample_class(spec, 4, seed=seed)
        report = class_membership(st, spec)
        assert report["member"], report

    def test_pauli_sparse_cap_checked_before_any_draw(self):
        # the d^2 - 1 member permutation alone would take 32 MB at d = 2048
        tracemalloc.start()
        try:
            with pytest.raises(TomolabError, match="tensor product dimension 2048 exceeds 1024"):
                states.sample_class(states.StateClassSpec("pauli_sparse", s=2), 2048, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_pauli_sparse_bytes_pinned(self):
        st = states.sample_class(states.StateClassSpec("pauli_sparse", s=5), 16, seed=3)
        assert hashlib.sha256(st.matrix.tobytes()).hexdigest() == (
            "31f35e2de3a6cee4fecd7ced4ce5d6ef8df7ce33c5a6334fe39409bfef45d6b2")

    def test_low_rank_d8_r2(self):
        spec = states.StateClassSpec("low_rank", r=2)
        st = states.sample_class(spec, 8, seed=5)
        evals = np.sort(np.linalg.eigvalsh(st.matrix))[::-1]
        assert evals[2] < 1e-9
        assert class_membership(st, spec)["member"]

    @pytest.mark.parametrize("r,gamma", [(1, 1), (2, 2)])
    @pytest.mark.parametrize("seed", range(4))
    def test_sparse_vec_membership(self, r, gamma, seed):
        g = bases.haar_wavelet_vectors(8)
        spec = states.StateClassSpec("low_rank_sparse_vec", r=r, gamma=gamma, g_vectors=g)
        st = states.sample_class(spec, 8, seed=seed)
        report = class_membership(st, spec)
        assert report["member"], report

    def test_sampler_deterministic(self):
        spec = states.StateClassSpec("low_rank", r=3)
        a = states.sample_class(spec, 8, seed=42)
        b = states.sample_class(spec, 8, seed=42)
        np.testing.assert_array_equal(a.matrix, b.matrix)

    def test_infeasible(self):
        with pytest.raises(TomolabError, match="entry_sparse needs s >= 1"):
            states.sample_class(states.StateClassSpec("entry_sparse", s=0), 4, seed=0)
        with pytest.raises(TomolabError, match="cannot place 9 orthogonal vectors"):
            states.sample_class(
                states.StateClassSpec("low_rank_sparse_vec", r=9, gamma=2), 8, seed=0)

    @pytest.mark.parametrize("r,gamma,d", [(2, 2, 4), (4, 2, 8), (3, 1, 4)])
    @pytest.mark.parametrize("seed", range(3))
    def test_sparse_vec_small_dimensions(self, r, gamma, d, seed):
        g = bases.haar_wavelet_vectors(d)
        spec = states.StateClassSpec("low_rank_sparse_vec", r=r, gamma=gamma, g_vectors=g)
        st = states.sample_class(spec, d, seed=seed)
        report = class_membership(st, spec)
        assert report["member"], report


class TestMembershipExamples:
    def test_full_rank_allowed(self):
        st = states.validate_density(np.eye(4) / 4)
        assert class_membership(st, states.StateClassSpec("low_rank", r=4))["member"]

    def test_line_state_is_two_pauli_sparse(self):
        st = states.pauli_line_state(4, 2, 0.5)
        assert class_membership(st, states.StateClassSpec("pauli_sparse", s=2))["member"]

    def test_tilted_not_entry_sparse(self):
        st = states.tilted_product_state(2)
        assert not class_membership(st, states.StateClassSpec("entry_sparse", s=1))["member"]

    def test_pauli_expansion_reconstructs(self):
        st = states.sample_class(states.StateClassSpec("low_rank", r=2), 4, seed=1)
        basis = bases.build_basis("pauli", 4)
        alpha = pauli_coefficients(st, basis)
        recon = sum(a * m for a, m in zip(alpha, basis.matrices))
        np.testing.assert_allclose(recon, st.matrix, atol=1e-9)
