"""Matrix layer: the Hermitian check, Pauli tensor products, inner product, the
matrix text format, and the eigenspace clustering rule of the tests' eigensolver reference."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (CLUSTER_TOL, custom_basis, hs_inner, member_eigenspaces, reconstruct,
                     trace_product)
from tomolab import bases, cli, hermitian, states
from tomolab.bases import SIGMA
from tomolab.errors import TomolabError


def random_hermitian(rng, d, scale=1.0):
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return scale * (z + z.conj().T) / 2


def eig2x2(mat):
    """Closed-form eigenvalues of a 2x2 Hermitian matrix, descending."""
    a, c = mat[0, 0].real, mat[1, 1].real
    b = mat[0, 1]
    mid = (a + c) / 2
    off = np.sqrt(((a - c) / 2) ** 2 + abs(b) ** 2)
    return np.array([mid + off, mid - off])


def spectrum(mat):
    """(distinct eigenvalues, projections) of ``mat`` as a one-member basis holds them."""
    basis = custom_basis([mat])  # one member, so its row has no padding
    return basis.eigenvalues[0], basis.projections[0]


def block_widths(mat):
    """Multiplicity of each distinct eigenvalue: the width of its eigenvector block."""
    return [block.shape[1] for block in member_eigenspaces(*np.linalg.eigh(mat))[1]]


class TestSpectralDecompose:
    def test_sigma3(self):
        lam, q = spectrum(SIGMA[3])
        np.testing.assert_allclose(lam, [1, -1])
        np.testing.assert_allclose(q[0], np.diag([1, 0]), atol=1e-12)
        np.testing.assert_allclose(q[1], np.diag([0, 1]), atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 8])
    def test_identity(self, d):
        lam, q = spectrum(np.eye(d))
        assert len(lam) == 1
        np.testing.assert_allclose(lam, [1.0])
        np.testing.assert_allclose(q[0], np.eye(d), atol=1e-12)
        assert block_widths(np.eye(d)) == [d]
        assert np.trace(q[0]).real == pytest.approx(d)

    def test_sigma1_against_closed_form(self):
        lam, q = spectrum(SIGMA[1])
        np.testing.assert_allclose(lam, eig2x2(SIGMA[1]), atol=1e-12)
        np.testing.assert_allclose(q[0], (np.eye(2) + SIGMA[1]) / 2, atol=1e-12)
        np.testing.assert_allclose(q[1], (np.eye(2) - SIGMA[1]) / 2, atol=1e-12)

    def test_non_hermitian_rejected(self):
        mat = np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(TomolabError, match="deviates from Hermitian symmetry"):
            hermitian.require_hermitian(mat)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan)])
    def test_non_finite_rejected(self, bad):
        # every comparison with NaN is false, so the symmetry check alone passes it
        mat = np.eye(2, dtype=complex)
        mat[0, 0] = bad
        with pytest.raises(TomolabError, match="non-finite entry"):
            hermitian.require_hermitian(mat)

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("d", [2, 5, 16])
    def test_projection_algebra_random(self, d, seed):
        rng = np.random.default_rng(seed)
        mat = random_hermitian(rng, d, scale=10.0 / d)
        lam, projections = spectrum(mat)
        total = np.zeros((d, d), dtype=complex)
        for i, q in enumerate(projections):
            total += q
            np.testing.assert_allclose(q @ q, q, atol=1e-9)
            np.testing.assert_allclose(q, q.conj().T, atol=1e-9)
            for q2 in projections[i + 1:]:
                np.testing.assert_allclose(q @ q2, np.zeros((d, d)), atol=1e-9)
        np.testing.assert_allclose(total, np.eye(d), atol=1e-9)
        err = np.linalg.norm(reconstruct(lam, projections) - mat)
        assert err <= 1e-9 * max(np.linalg.norm(mat), 1e-30)

    def test_degenerate_eigenvalues_merge(self):
        # sigma3 x sigma3 has eigenvalues +-1 with multiplicity 2 each
        mat = np.kron(SIGMA[3], SIGMA[3])
        lam, q = spectrum(mat)
        assert len(lam) == 2
        assert block_widths(mat) == [2, 2]
        np.testing.assert_allclose([np.trace(x).real for x in q], [2, 2])

    def test_cluster_tol_merges_close_pairs(self):
        # a pair closer than CLUSTER_TOL times max(spectral norm, 1) merges, a pair
        # twice as far apart splits
        for scale in (1.0, 100.0):
            tol = CLUSTER_TOL * scale
            assert len(spectrum(np.diag([scale, scale + tol / 2, 0.0]))[0]) == 2
            assert len(spectrum(np.diag([scale, scale + 2 * tol, 0.0]))[0]) == 3


class TestTensorProduct:
    """The Pauli members of a base-4 label table, all built at once."""

    def test_identity_pair(self):
        np.testing.assert_array_equal(bases._pauli_members([[0, 0]])[0], np.eye(4))

    def test_sigma3_pair(self):
        # members 0 and 15 at d = 4 are np.kron of their factors, bit for bit
        got = bases._pauli_members([[0, 0], [3, 3]])
        assert got[0].tobytes() == np.kron(SIGMA[0], SIGMA[0]).tobytes()
        assert got[1].tobytes() == np.kron(SIGMA[3], SIGMA[3]).tobytes()
        np.testing.assert_array_equal(got[1], np.diag([1, -1, -1, 1]).astype(complex))

    def test_dimension_arithmetic(self):
        assert bases._pauli_members(np.zeros((5, 3), dtype=int)).shape == (5, 8, 8)

    def test_overflow(self, monkeypatch):
        # the cap is checked before any label table or member is made
        def no_members(labels):
            raise AssertionError("members were built")

        monkeypatch.setattr(bases, "_pauli_members", no_members)
        with pytest.raises(TomolabError, match="tensor product dimension 2048 exceeds 1024"):
            bases.build_basis("pauli", 2048)
        with pytest.raises(TomolabError, match="tensor product dimension 2048 exceeds 1024"):
            states.pauli_line_state(2048, 1, 0.5)

    def test_hermitian_preserved(self):
        labels = np.random.default_rng(3).integers(0, 4, size=(20, 3))
        out = bases._pauli_members(labels)
        np.testing.assert_array_equal(out, out.conj().swapaxes(1, 2))
        np.testing.assert_array_equal(out @ out, np.broadcast_to(np.eye(8), out.shape))


class TestHSInner:
    """The tests' Hilbert-Schmidt inner product, the reference for the transfer norms."""

    def test_identity(self):
        assert hs_inner(np.eye(5), np.eye(5)) == pytest.approx(5)

    def test_sigma1_sigma2_orthogonal(self):
        assert hs_inner(SIGMA[1], SIGMA[2]) == pytest.approx(0)

    def test_sigma1_norm(self):
        assert hs_inner(SIGMA[1], SIGMA[1]) == pytest.approx(2)

    def test_dimension_mismatch(self):
        with pytest.raises(TomolabError, match="shapes .* differ"):
            hs_inner(np.eye(2), np.eye(3))

    @given(st.integers(0, 2 ** 31), st.integers(2, 6))
    @settings(max_examples=25, deadline=None)
    def test_conjugate_symmetry_and_positivity(self, seed, d):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        b = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        lhs = hs_inner(a, b)
        rhs = hs_inner(b, a)
        assert lhs == pytest.approx(np.conj(rhs))
        assert hs_inner(a, a).real > 0
        assert abs(hs_inner(a, a).imag) < 1e-9

    def test_trace_product_matches_full_product(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        assert trace_product(a, b) == pytest.approx(np.trace(a @ b))


class TestTextFormat:
    """A matrix file is numpy text, one row a line, as np.savetxt writes it; cli reads it."""

    @staticmethod
    def rejected(tmp_path, text):
        path = tmp_path / "mat.txt"
        path.write_text(text)
        with pytest.raises(cli.ConfigParseError, match=f"^matrix file {re.escape(str(path))}: ") \
                as err:
            cli._read_matrix(path, complex, 2, states.validate_density)
        return str(err.value)

    @pytest.mark.parametrize("seed", range(4))
    def test_round_trip_exact(self, seed, tmp_path):
        rng = np.random.default_rng(seed)
        mat = rng.normal(size=(3, 3)) * 10.0 ** int(rng.integers(-8, 8)) \
            + 1j * rng.normal(size=(3, 3))
        path = tmp_path / "mat.txt"
        np.savetxt(path, mat)
        back = cli._read_matrix(path, complex, 3)
        np.testing.assert_array_equal(back, mat)

    def test_format_shape(self, tmp_path):
        path = tmp_path / "mat.txt"
        np.savetxt(path, np.eye(2, dtype=complex))
        lines = path.read_text().strip().splitlines()
        assert [len(line.split()) for line in lines] == [2, 2]  # no header line
        np.testing.assert_array_equal(cli._read_matrix(path, complex, 2), np.eye(2))

    def test_parse_negative_imag(self, tmp_path):
        path = tmp_path / "mat.txt"
        path.write_text("2.5-0.5j\n")
        mat = cli._read_matrix(path, complex, 1)
        assert mat.shape == (1, 1) and mat[0, 0] == 2.5 - 0.5j

    def test_bad_entry(self, tmp_path):
        self.rejected(tmp_path, "not-a-number\n")

    # files in the retired header-plus-a+bi format: the header is now a row of its own
    @pytest.mark.parametrize("text", [
        "2\n1 0\n0 1\n5 5\n",   # one row more than the header declared (ragged)
        "2\n1 0\n",             # one row fewer (ragged)
        "0\n",                   # no rows at all (a 1 x 1 zero, trace 0)
    ])
    def test_rows_must_match_header(self, text, tmp_path):
        self.rejected(tmp_path, text)

    def test_over_long_matrix_file_rejected(self, tmp_path):
        message = self.rejected(tmp_path, "1 0\n0 1\n5 5\n")
        assert message.endswith("expected a (2, 2) matrix for [basis] d = 2, got shape (3, 2)")
