"""Observable families: constructions, orthogonality, Pauli projection traces,
the closed-form spectra and laws against the eigensolver reference."""

import itertools

import numpy as np
import pytest

from oracles import (LAW_TOL, custom_basis, haar_vectors_per_column, member_spectrum,
                     pauli_projection_traces, reference_basis, trace_product, verify_orthogonal)
from tomolab import bases, states
from tomolab.bases import SIGMA
from tomolab.errors import TomolabError
from tomolab.hermitian import TOL_HERM


class TestBuildBasis:
    def test_pauli_d2_members(self):
        b = bases.build_basis("pauli", 2)
        assert b.size == 4
        for mat, sigma in zip(b.matrices, SIGMA):
            np.testing.assert_array_equal(mat, sigma)

    def test_pauli_d4_size(self):
        b = bases.build_basis("pauli", 4)
        assert b.size == 16 == b.dim ** 2
        assert b.labels[0] == (0, 0)

    def test_pauli_bad_dimension(self):
        with pytest.raises(TomolabError, match=r"pauli family needs d = 2\^b \(b >= 1\), as do "
                                               r"Haar vectors; got d = 6"):
            bases.build_basis("pauli", 6)

    @pytest.mark.parametrize("d, message", [(2.5, "d must be an integer, got 2.5"),
                                            (1, "d must be at least 2, got 1")])
    def test_dimension_not_an_integer_of_at_least_two_rejected(self, d, message):
        with pytest.raises(TomolabError, match=message):
            bases.build_basis("hermitian", d)

    def test_gvector_with_canonical_axes_matches_hermitian(self):
        bh = bases.build_basis("hermitian", 3)
        bg = bases.build_basis("gvector", 3, g_vectors=np.eye(3))
        for a, b in zip(bh.matrices, bg.matrices):
            np.testing.assert_allclose(a, b, atol=1e-15)

    def test_gvector_rejects_non_orthonormal(self):
        g = np.eye(3)
        g[0, 1] = 0.5
        with pytest.raises(TomolabError, match="Gram matrix deviates from identity"):
            bases.build_basis("gvector", 3, g_vectors=g)

    def test_sizes_are_d_squared(self):
        # every member of every built-in family is Hermitian, so each has a cell to measure
        for kind in bases._KINDS:
            for d in (2, 4, 8):
                b = bases.build_basis(kind, d, g_vectors=bases.default_g_vectors(d))
                assert b.size == d * d and np.all(b.sizes >= 1)
                assert np.abs(b.matrices - b.matrices.conj().swapaxes(1, 2)).max() <= TOL_HERM

    @pytest.mark.parametrize("kind", bases._KINDS)
    def test_members_are_built_on_first_read(self, kind):
        # the build forms no (p, d, d) stack; the first read builds it once and keeps it
        b = bases.build_basis(kind, 4, g_vectors=bases.default_g_vectors(4))
        assert "matrices" not in vars(b)
        members = b.matrices
        assert members.shape == (16, 4, 4) and b.matrices is members

    def test_kappa_recorded(self):
        assert bases.build_basis("pauli", 4).kappa == 2
        assert bases.build_basis("hermitian", 3).kappa == 3
        assert bases.build_basis("hermitian", 2).kappa == 2

    @pytest.mark.parametrize("kind", ["hermitian", "gvector"])
    def test_eigenvalue_sets(self, kind):
        # diagonal members: {1, 0}; off-diagonal members: {+-1/sqrt(2), 0}
        d = 4
        g = np.eye(d) if kind == "gvector" else None
        b = bases.build_basis(kind, d, g_vectors=g)
        inv_sqrt2 = 1 / np.sqrt(2)
        for j, (l1, l2) in enumerate(b.labels):
            expected = {0.0, 1.0} if l1 == l2 else {inv_sqrt2, -inv_sqrt2, 0.0}
            assert set(np.round(b.eigenvalues[j, b.cells(j)], 9)) <= {round(e, 9) for e in expected}

    def test_pauli_squares_to_identity(self):
        b = bases.build_basis("pauli", 8)
        for j in range(1, b.size):
            assert b.sizes[j] == 2
            np.testing.assert_allclose(b.eigenvalues[j, b.cells(j)], [1, -1], atol=1e-9)
            np.testing.assert_allclose(
                b.matrices[j] @ b.matrices[j], np.eye(8), atol=1e-9)


class TestVerifyOrthogonal:
    def test_hermitian_d3_passes(self):
        report = verify_orthogonal(bases.build_basis("hermitian", 3))
        assert report["passed"]

    def test_pauli_d4_passes_with_norm_d(self):
        b = bases.build_basis("pauli", 4)
        report = verify_orthogonal(b)
        assert report["passed"]
        np.testing.assert_allclose(report["diagonal_norms"], 4.0)

    def test_duplicated_member_fails(self):
        b = custom_basis([SIGMA[1], SIGMA[1]])
        report = verify_orthogonal(b)
        assert not report["passed"]
        assert report["max_off_diagonal"] == pytest.approx(2.0)


class TestPauliProjectionTraces:
    def test_d2_sigma3(self):
        rep = pauli_projection_traces(bases.build_basis("pauli", 2))
        row = next(r for r in rep["rows"] if r["j"] == 3)
        assert row["tr_Q_plus"] == pytest.approx(1.0)
        assert row["tr_Q_minus"] == pytest.approx(1.0)

    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_projection_traces_half_d(self, d):
        rep = pauli_projection_traces(bases.build_basis("pauli", d))
        assert rep["passed"]
        for row in rep["rows"]:
            assert row["tr_Q_plus"] == pytest.approx(d / 2, abs=1e-9)
            assert row["tr_BQ_plus"] == pytest.approx(d / 2, abs=1e-9)
            assert row["tr_BQ_minus"] == pytest.approx(-d / 2, abs=1e-9)
            assert row["max_cross_trace"] <= 1e-9

    def test_wrong_kind(self):
        with pytest.raises(TomolabError, match="defined for the pauli family"):
            pauli_projection_traces(bases.build_basis("hermitian", 2))


class TestHaarWavelets:
    @pytest.mark.parametrize("d", [2, 4, 8, 16])
    def test_orthonormal(self, d):
        g = bases.haar_wavelet_vectors(d)
        np.testing.assert_allclose(g.T @ g, np.eye(d), atol=1e-12)

    def test_first_vector_constant(self):
        g = bases.haar_wavelet_vectors(8)
        np.testing.assert_allclose(g[:, 0], np.full(8, 1 / np.sqrt(8)))

    def test_second_vector_step(self):
        g = bases.haar_wavelet_vectors(4)
        np.testing.assert_allclose(g[:, 1], [0.5, 0.5, -0.5, -0.5])

    @pytest.mark.parametrize("d", [2 ** b for b in range(1, 11)])
    def test_matches_column_by_column_build(self, d):
        assert bases.haar_wavelet_vectors(d).tobytes() == haar_vectors_per_column(d).tobytes()

    @pytest.mark.parametrize("d", [0, -4, 1, 3])
    def test_one_power_of_two_rule(self, d):
        # every construction on d = 2^b, b >= 1, rejects any other d the same way,
        # with no overflow and no divide-by-zero warning on its way
        for build in (bases.haar_wavelet_vectors,
                      lambda d: states.witness_state("cor3_tilted", d),
                      lambda d: states.witness_state("remark8_haar_rank2", d)):
            with pytest.raises(TomolabError, match=rf"needs d = 2\^b \(b >= 1\).*got d = {d}$"):
                build(d)
        if d < 2:
            with pytest.raises(TomolabError, match=rf"got d = {d}$"):
                bases.default_g_vectors(d)
        else:  # no Haar basis at d = 3, so the identity
            np.testing.assert_array_equal(bases.default_g_vectors(d), np.eye(d))


class TestDesign:
    def test_uniform(self):
        d = bases.SamplingDesign.random(np.full(4, 0.25))
        np.testing.assert_allclose(d.weights_regression, 0.25)
        np.testing.assert_allclose(d.weights_tomography, 0.25)

    def test_bad_weights(self):
        with pytest.raises(ValueError):
            bases.SamplingDesign.random([0.5, 0.4])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weights(self, bad):
        with pytest.raises(ValueError, match="nonnegative and sum to 1"):
            bases.SamplingDesign.random([bad, 0.5, 0.25, 0.25])


class TestProjectionArray:
    """The last slots of each member's row of a family's eigenvalue table hold
    that member's own spectrum, and those of its law table the traces of that
    member's own eigenspace projections; the slots in front of them are zeros."""

    @staticmethod
    def assert_member_spectra(basis, rho):
        spectra = [member_spectrum(mat) for mat in basis.matrices]
        sizes = [len(sp[0]) for sp in spectra]
        kappa = max(sizes)
        np.testing.assert_array_equal(basis.sizes, sizes)
        assert basis.eigenvalues.shape == (basis.size, kappa)
        law = basis.cell_traces(rho)
        assert law.shape == (basis.size, kappa)
        for j, sp in enumerate(spectra):
            pad = slice(0, kappa - sizes[j])
            assert not basis.eigenvalues[j, pad].any() and not law[j, pad].any()
            np.testing.assert_allclose(basis.eigenvalues[j, basis.cells(j)], sp[0], atol=1e-12)
            np.testing.assert_allclose(law[j, basis.cells(j)],
                                       [trace_product(q, rho).real for q in sp[1]], atol=1e-12)

    @pytest.mark.parametrize("kind,d", [("pauli", 4), ("hermitian", 3), ("gvector", 4),
                                        ("hermitian", 16)])
    def test_built_family(self, kind, d):
        g = bases.haar_wavelet_vectors(d) if kind == "gvector" else None
        rho = states.sample_class(states.StateClassSpec("low_rank", r=2), d, seed=d).matrix
        self.assert_member_spectra(bases.build_basis(kind, d, g_vectors=g), rho)

    @pytest.mark.parametrize("kind", bases._KINDS)
    @pytest.mark.parametrize("d", [2, 8])
    def test_no_eigensolver(self, kind, d, monkeypatch):
        # spectra and laws in closed form: no member is ever diagonalised
        def refuse(*args, **kwargs):
            raise AssertionError("an eigensolver was called")

        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, refuse)
        b = bases.build_basis(kind, d, g_vectors=bases.default_g_vectors(d))
        law = b.cell_traces(np.eye(d) / d)
        assert law.shape == (d * d, b.kappa) and np.all(b.sizes >= 1)

    def test_custom_family(self):
        b = custom_basis([SIGMA[1], np.diag([2.0, 0.0]), np.eye(2)])
        self.assert_member_spectra(b, np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]]))
        np.testing.assert_array_equal(b.sizes, [2, 2, 1])

    def test_front_padded_table(self):
        b = bases.build_basis("hermitian", 3)  # 3 diagonal members with 2 cells, 6 pairs with 3
        sizes = [2 if l1 == l2 else 3 for l1, l2 in b.labels]
        np.testing.assert_array_equal(b.sizes, sizes)
        assert b.kappa == 3
        assert b.eigenvalues.shape == (9, 3) and b.cell_traces(np.eye(3) / 3).shape == (9, 3)
        # member 4 is e_2 e_2', the second diagonal member, with one padding slot; member 1 a pair
        assert b.cells(4) == slice(1, 3) and b.cells(1) == slice(0, 3)
        assert b.eigenvalues[4, b.cells(4)].tolist() == [1.0, 0.0]
        assert b.eigenvalues[4, 0] == 0 and b.cell_traces(np.eye(3) / 3)[4, 0] == 0
        np.testing.assert_allclose(b.eigenvalues[1], [1 / np.sqrt(2), 0, -1 / np.sqrt(2)],
                                   atol=1e-15)


def _random_state(d, seed):
    """A full-rank complex state, so every entry of its law is generic, made
    Hermitian bit for bit, rho[b, a] the exact conjugate of rho[a, b]."""
    rho = states.sample_class(states.StateClassSpec("low_rank", r=d), d, seed=seed).matrix
    return (rho + rho.conj().T) / 2


class TestClosedForm:
    """Every family's eigenvalues and cell law against the eigensolver reference:
    one batched eigh of the members, their projections and one trace per cell."""

    @pytest.mark.parametrize("kind, d", [(k, d) for k in bases._KINDS for d in (2, 4, 8, 16, 32)]
                             + [("hermitian", 5), ("gvector", 5)])
    def test_matches_eigh_reference(self, kind, d):
        basis = bases.build_basis(kind, d, g_vectors=bases.default_g_vectors(d))
        ref = reference_basis(basis)
        np.testing.assert_array_equal(basis.sizes, ref.sizes)
        assert basis.kappa == ref.kappa == (2 if kind == "pauli" or d == 2 else 3)
        np.testing.assert_allclose(basis.eigenvalues, ref.eigenvalues, rtol=0, atol=LAW_TOL)
        for r, seed in ((1, 1), (2, 2), (d, 3)):
            st = states.sample_class(states.StateClassSpec("low_rank", r=r), d, seed=seed)
            np.testing.assert_allclose(basis.cell_traces(st), ref.cell_traces(st),
                                       rtol=0, atol=LAW_TOL)

    @pytest.mark.parametrize("d", [2, 3, 6])
    def test_axis_permutation_permutes_members(self, d):
        # permuting rho's axes maps each hermitian member to the member of the
        # permuted axes, or to its negative when an antisymmetric member's axes
        # swap order, whose law is the same law reversed; exactly, entry by entry
        basis = bases.build_basis("hermitian", d)
        rho = _random_state(d, seed=d)
        perm = np.random.default_rng(d).permutation(d)
        law, law_moved = basis.cell_traces(rho), basis.cell_traces(rho[np.ix_(perm, perm)])
        for l1, l2 in itertools.product(range(d), repeat=2):
            u, v = perm[l1], perm[l2]
            if (l1 < l2) != (u < v):
                u, v = v, u
            row = law[u * d + v]
            flip = l1 > l2 and perm[l1] < perm[l2]
            assert law_moved[l1 * d + l2].tobytes() == (row[::-1] if flip else row).tobytes()

    @pytest.mark.parametrize("vector", [
        [1, 0, 0, 0, 0, 0, 0, 0],          # |000>
        [1, 1, 1, 1, 1, 1, 1, 1],          # |+++>
        [1, 0, 0, 0, 0, 0, 0, 1],          # GHZ
        [1, 0, 0, 1j, 0, 1, -1j, 0],       # a graph-like stabiliser state with phases
    ])
    def test_stabiliser_state_has_a_pauli_law_in_halves(self, vector):
        psi = np.asarray(vector, dtype=complex)
        # entries in {0, +-1, +-i} over a power of two: the state is exact
        rho = np.outer(psi, psi.conj()) / np.vdot(psi, psi).real
        law = bases.build_basis("pauli", 8).cell_traces(rho)
        assert set(law.ravel().tolist()) <= {0.0, 0.5, 1.0}

    @pytest.mark.parametrize("d", [2, 4, 8, 16, 32])
    def test_maximally_mixed_pauli_law_is_exact(self, d):
        law = bases.build_basis("pauli", d).cell_traces(np.eye(d) / d)
        assert law[0].tolist() == [0.0, 1.0]
        assert np.all(law[1:] == 0.5)


class TestBasisFiles:
    """A family is rebuilt from its kind, d and g-vectors, so the g-vectors are
    its one outside input and are checked where they enter."""

    def test_nan_g_vector_rejected(self):
        # a non-finite or oversized entry is rejected before the Gram product,
        # which would warn on inf and overflow on 1e200
        for entry in (np.nan, np.inf, 1e200):
            g = bases.haar_wavelet_vectors(4)
            g[0, 0] = entry
            with pytest.raises(TomolabError, match="^g-vectors .*Gram matrix is not the identity"):
                bases.build_basis("gvector", 4, g_vectors=g)
