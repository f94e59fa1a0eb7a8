"""Gaussian experiments: noise moments, fine/coarse simulation, aggregation."""

import sys

import numpy as np
import pytest

from oracles import coarse_moments_per_member, custom_basis, hs_inner
from test_measurement import LAW_FAMILIES
from tomolab import bases, diagnostics, equivalence, hermitian, measurement, regression, states

PAULI2 = bases.build_basis("pauli", 2)
PAULI4 = bases.build_basis("pauli", 4)
HERM4 = bases.build_basis("hermitian", 4)
CANON2 = bases.build_basis("canonical", 2)


def interior_state(d=4, seed=2):
    return states.sample_class(states.StateClassSpec("low_rank", r=d), d, seed=seed)


def fine_covariance(st, basis, j):
    """Covariance F F' of the fine sampler's noise F z for member j at m = 1."""
    theta = measurement.cell_probabilities(st, basis)[j, basis.cells(j)]
    factor = regression._fine_factors(theta[None], 1)[0]
    return factor @ factor.T


class TestNoiseVarianceCoarse:
    def test_identity_observable(self):
        st = interior_state()
        assert regression.noise_variance_coarse(st, PAULI4)[0] == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed_pauli(self):
        st = states.validate_density(np.eye(4) / 4)
        assert regression.noise_variance_coarse(st, PAULI4)[7] == pytest.approx(1.0)

    def test_eigenstate_is_deterministic(self):
        st = states.validate_density(np.diag([1.0, 0.0]))
        assert regression.noise_variance_coarse(st, PAULI2)[3] == pytest.approx(0.0)

    def test_masking_only_member_has_no_variance(self):
        var = regression.noise_variance_coarse(np.eye(2) / 2, CANON2)
        np.testing.assert_array_equal(np.isnan(var), [False, True, True, False])

    @pytest.mark.parametrize("simulate", [regression.simulate_coarse, regression.simulate_fine])
    def test_state_outside_the_cell_law_is_rejected(self, simulate):
        # a valid density to within DENSITY_TOL, but a cell trace of -5e-10
        st = states.validate_density(np.diag([1 + 5e-10, -5e-10]))
        with pytest.raises(ValueError, match="escape"):
            regression.noise_variance_coarse(st, PAULI2)
        with pytest.raises(ValueError, match="escape"):
            simulate(st, PAULI2, bases.SamplingDesign.fixed(), 4, 8, 1)

    @pytest.mark.parametrize("name", sorted(LAW_FAMILIES))
    def test_moments_match_per_member(self, name):
        # bit for bit one trace_product per member, the variance zero on a member
        # without two active cells
        basis = LAW_FAMILIES[name]
        d = basis.dim
        for seed, r in ((1, 1), (2, d)):
            st = states.sample_class(states.StateClassSpec("low_rank", r=r), d, seed=seed)
            mean = hermitian.stack_traces(basis.matrices, st.matrix)
            var = regression.noise_variance_coarse(st, basis)
            for j in np.flatnonzero(basis.sizes):
                assert (mean[j], var[j]) == coarse_moments_per_member(st, basis, j)


class TestNoiseCovarianceFine:
    def test_degenerate_cells(self):
        st = states.validate_density(np.diag([1.0, 0.0]))
        cov = fine_covariance(st, PAULI2, 3)
        np.testing.assert_allclose(cov, np.zeros((2, 2)), atol=1e-12)

    def test_half_half(self):
        st = states.validate_density(np.eye(2) / 2)
        cov = fine_covariance(st, PAULI2, 1)
        np.testing.assert_allclose(cov, [[0.25, -0.25], [-0.25, 0.25]], atol=1e-12)

    def test_row_sums_vanish(self):
        st = interior_state(seed=5)
        for j in range(HERM4.size):
            cov = fine_covariance(st, HERM4, j)
            np.testing.assert_allclose(cov.sum(axis=1), 0.0, atol=1e-12)

    def test_matches_multinomial_covariance_formula(self):
        st = interior_state(seed=6)
        theta = measurement.cell_probabilities(st, HERM4)[1, HERM4.cells(1)]
        cov = fine_covariance(st, HERM4, 1)
        np.testing.assert_allclose(cov, np.diag(theta) - np.outer(theta, theta), atol=1e-12)


class TestSimulateFine:
    def test_degenerate_is_exact(self):
        st = states.validate_density(np.diag([1.0, 0.0]))
        _, ys = regression.simulate_fine(st, PAULI2, bases.SamplingDesign.fixed(), 4, 9, seed=1)
        np.testing.assert_array_equal(ys[3], [1.0, 0.0])  # sigma3 cell probabilities are (1, 0)

    def test_rows_sum_to_one(self):
        st = interior_state()
        indices, ys = regression.simulate_fine(st, HERM4, bases.SamplingDesign.fixed(),
                                               16, 25, seed=3)
        assert indices.tolist() == list(range(16)) and ys.shape == (16, 3)
        for j, y in zip(indices, ys):
            assert np.all(y[:3 - HERM4.sizes[j]] == 0.0)
            assert abs(y.sum() - 1.0) <= 1e-12

    def test_sample_variance_matches(self):
        st = states.pauli_line_state(2, 1, 0.4)
        theta = measurement.cell_probabilities(st, PAULI2)[1, PAULI2.cells(1)]
        m, reps = 16, 10_000
        design = bases.SamplingDesign.random(np.array([0, 1.0, 0, 0]))
        ys = []
        for rep in range(50):
            _, fine = regression.simulate_fine(st, PAULI2, design, 200, m, seed=rep)
            ys.extend(y[0] for y in fine)
        ys = np.array(ys)
        want = theta[0] * (1 - theta[0]) / m
        assert ys.var() == pytest.approx(want, rel=0.1)
        assert ys.mean() == pytest.approx(theta[0], abs=4 * np.sqrt(want / len(ys)))

    def test_trinomial_correlation(self):
        theta = np.array([1 / 3, 1 / 3, 1 / 3])
        # correlation of two cells of the constrained Gaussian is -theta1*theta2/...
        rng = np.random.default_rng(0)
        m = 9
        factor = regression._fine_factors(theta[None], m)[0]
        draws = theta + rng.standard_normal((40_000, 2)) @ factor.T
        corr = np.corrcoef(draws[:, 0], draws[:, 1])[0, 1]
        want = -theta[0] * theta[1] / np.sqrt(
            theta[0] * (1 - theta[0]) * theta[1] * (1 - theta[1]))
        assert corr == pytest.approx(want, abs=0.02)


    def test_zero_m_rejected(self):
        st = states.validate_density(np.eye(2) / 2)
        with pytest.raises(ValueError):
            regression.simulate_fine(st, PAULI2, bases.SamplingDesign.fixed(), 4, 0, seed=1)

    def test_fractional_m_rejected(self):
        st = states.validate_density(np.eye(2) / 2)
        with pytest.raises(ValueError, match="m must be an integer, got 2.5"):
            regression.simulate_fine(st, PAULI2, bases.SamplingDesign.fixed(), 4, 2.5, seed=1)


class TestSimulateCoarse:
    def test_zero_m_rejected(self):
        st = states.validate_density(np.eye(2) / 2)
        with pytest.raises(ValueError):
            regression.simulate_coarse(st, PAULI2, bases.SamplingDesign.fixed(), 4, 0, seed=1)

    def test_fractional_m_rejected(self):
        st = states.validate_density(np.eye(2) / 2)
        with pytest.raises(ValueError, match="m must be an integer, got 2.5"):
            regression.simulate_coarse(st, PAULI2, bases.SamplingDesign.fixed(), 4, 2.5, seed=1)

    def test_identity_member_exact(self):
        st = states.validate_density(np.diag([0.5, 0.25, 0.125, 0.125]))
        design = bases.SamplingDesign.random(np.array([1.0] + [0.0] * 15))
        indices, values = regression.simulate_coarse(st, PAULI4, design, 20, 4, seed=2)
        assert indices.tolist() == [0] * 20
        assert values.shape == (20,) and np.all(values == 1.0)

    def test_mean_matches_trace(self):
        st = interior_state(seed=9)
        j, m = 5, 16
        design = bases.SamplingDesign.random(np.eye(16)[j])
        ys = []
        for rep in range(40):
            ys.extend(regression.simulate_coarse(st, PAULI4, design, 250, m, seed=100 + rep)[1])
        ys = np.array(ys)
        want = np.trace(st.matrix @ PAULI4.matrices[j]).real
        var = regression.noise_variance_coarse(st, PAULI4)[j] / m
        assert ys.mean() == pytest.approx(want, abs=4 * np.sqrt(var / len(ys)))

    def test_line_state_moments(self):
        beta, j_star, m = 0.6, 3, 8
        st = states.pauli_line_state(4, j_star, beta)
        b = PAULI4.matrices[j_star]
        assert np.trace(st.matrix @ b).real == pytest.approx(beta, abs=1e-12)
        var = regression.noise_variance_coarse(st, PAULI4)[j_star]
        assert var == pytest.approx(1 - beta ** 2, abs=1e-12)
        design = bases.SamplingDesign.random(np.eye(16)[j_star])
        ys = []
        for rep in range(40):
            ys.extend(regression.simulate_coarse(st, PAULI4, design, 250, m, seed=rep)[1])
        ys = np.array(ys)
        assert ys.var() == pytest.approx((1 - beta ** 2) / m, rel=0.1)


class TestAggregateFine:
    def test_aggregated_variance_matches_coarse_formula(self):
        # Var(sum lambda_a z_a) should equal tr(B^2 rho) - tr(B rho)^2, scaled by 1/m
        st = interior_state(seed=12)
        j, m = 1, 4
        lam = HERM4.eigenvalues[j, HERM4.cells(j)]
        design = bases.SamplingDesign.random(np.eye(16)[j])
        ys = []
        for rep in range(100):
            _, fine = regression.simulate_fine(st, HERM4, design, 1000, m, seed=rep)
            ys.extend(np.dot(lam, y) for y in fine)
        ys = np.array(ys)
        want = regression.noise_variance_coarse(st, HERM4)[j] / m
        assert ys.var() == pytest.approx(want, rel=0.05)
        want_mean = np.trace(st.matrix @ HERM4.matrices[j]).real
        assert ys.mean() == pytest.approx(want_mean, abs=4 * np.sqrt(want / len(ys)))

    def test_fine_moments_match_scaled_multinomial(self):
        # first two moments of the fine Gaussian equal those of counts/m
        st = interior_state(seed=13)
        for j in (0, 1, 5):
            theta = measurement.cell_probabilities(st, HERM4)[j, HERM4.cells(j)]
            cov = fine_covariance(st, HERM4, j)
            m = 7
            rng = np.random.default_rng(j)
            counts = rng.multinomial(m, theta, size=50_000) / m
            np.testing.assert_allclose(counts.mean(axis=0), theta, atol=0.01)
            np.testing.assert_allclose(np.cov(counts.T), cov / m, atol=0.01)


class TestActiveRule:
    """On diag(1 - eps, eps) the second cell of sigma3 is eps: inside the shared
    ACTIVE_TOL of 1e-9 every layer treats the member as deterministic, above it
    every layer treats it as random."""

    @staticmethod
    def layers(st, basis, j):
        """Per layer, whether it drew or counted member j as random on state st."""
        design, p = bases.SamplingDesign.fixed(), basis.size
        theta = measurement.cell_probabilities(st, basis)[j, basis.cells(j)]
        mean = hermitian.stack_traces(basis.matrices, st.matrix)[j]
        _, big_y = regression.simulate_coarse(st, basis, design, p, 64, seed=1)
        _, ys = regression.simulate_fine(st, basis, design, p, 64, seed=1)
        zeta = diagnostics.zeta_fraction([st], basis, weights=np.eye(p)[j])["zeta"]
        est = equivalence.hellinger_perturbed_vs_gaussian(64, theta)
        return {
            "coarse": (big_y[j] != mean, regression.noise_variance_coarse(st, basis)[j] > 0),
            "fine": (not np.array_equal(ys[j][-len(theta):], theta),
                     np.any(regression._fine_factors(theta[None], 64))),
            "zeta": (zeta > 0, np.count_nonzero(diagnostics.active_index_set(st, basis)[j]) >= 2),
            "hellinger": (est["hellinger"] > 0, est["hellinger_err"] > 0),
        }

    def test_nearly_degenerate_member_is_degenerate_everywhere(self):
        st = states.validate_density(np.diag([1 - 5e-10, 5e-10]))
        theta = measurement.cell_probabilities(st, PAULI2)[3, PAULI2.cells(3)]
        assert theta[1] == pytest.approx(5e-10, rel=1e-6)
        # exactly: the coarse Y is the mean, the fine y the law, zeta and H 0
        random = self.layers(st, PAULI2, 3)
        assert random == {layer: (False, False) for layer in random}

    def test_member_above_the_tolerance_is_random_everywhere(self):
        st = states.validate_density(np.diag([1 - 1e-4, 1e-4]))
        random = self.layers(st, PAULI2, 3)
        assert random == {layer: (True, True) for layer in random}

    def test_one_active_cell_is_deterministic_everywhere(self):
        # law (1 - 1.5e-9, 7.5e-10, 7.5e-10): only the first cell is active
        st = states.validate_density(np.diag([1 - 1.5e-9, 7.5e-10, 7.5e-10]))
        basis = custom_basis([np.diag([1.0, 0.0, -1.0])])
        random = self.layers(st, basis, 0)
        assert random == {layer: (False, False) for layer in random}


def _count_calls(monkeypatch, fn):
    """Replace ``fn`` at every tomolab module attribute bound to it; return the call log."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name == "tomolab" or name.startswith("tomolab."):
            for attr, obj in list(vars(mod).items()):
                if obj is fn:
                    monkeypatch.setattr(mod, attr, counting)
    return calls


class TestPerMemberValues:
    """Each simulator takes every member's law from one whole-basis table per run."""

    N = 300

    def run(self, monkeypatch, simulate):
        probs = _count_calls(monkeypatch, measurement.cell_probabilities)
        out = simulate(interior_state(seed=4), PAULI4, bases.SamplingDesign.random(np.full(16, 1 / 16)),
                       self.N, 8, 6)
        return out, len(probs)

    def test_tomography(self, monkeypatch):
        out, probs = self.run(monkeypatch, measurement.run_tomography)
        assert 1 < len(set(out.indices.tolist())) < self.N == len(out.counts)
        assert probs == 1

    def test_coarse(self, monkeypatch):
        out, probs = self.run(monkeypatch, regression.simulate_coarse)
        assert 1 < len(set(out[0].tolist())) < self.N == len(out[1])
        assert probs == 1  # the active rule's law

    def test_fine(self, monkeypatch):
        out, probs = self.run(monkeypatch, regression.simulate_fine)
        assert 1 < len(set(out[0].tolist())) < self.N == len(out[1])
        assert probs == 1

    def test_one_cholesky_per_active_cell_count(self, monkeypatch):
        # the fine factors are one table per run, never one factor per drawn member
        cholesky, calls = np.linalg.cholesky, []
        monkeypatch.setattr(np.linalg, "cholesky", lambda a: calls.append(a.shape) or cholesky(a))
        st = interior_state(seed=4)
        for basis in (PAULI4, HERM4):
            calls.clear()
            design = bases.SamplingDesign.random(np.full(16, 1 / 16))
            indices, _ = regression.simulate_fine(st, basis, design, self.N, 8, 6)
            active = measurement._active_mask(measurement.cell_probabilities(st, basis)).sum(axis=1)
            counts = set(active[active >= 2].tolist())
            assert len(set(indices.tolist())) > len(counts) and 0 < len(calls) <= len(counts)


def test_fine_factors_at_twice_the_active_tolerance():
    # active cells just above ACTIVE_TOL, at the largest m: every block still
    # factors, and F F' on all but the last active cell is the law's covariance
    tol, m = 2 * measurement.ACTIVE_TOL, 4096
    theta = np.array([[tol, tol, 1 - 2 * tol], [1 - 2 * tol, tol, tol], [0.0, 1 - tol, tol]])
    factors = regression._fine_factors(theta, m)
    assert np.all(np.isfinite(factors))
    for row, factor in zip(theta, factors):
        cells = np.flatnonzero(row)[:-1]
        cov = (np.diag(row[cells]) - np.outer(row[cells], row[cells])) / m
        np.testing.assert_allclose((factor @ factor.T)[np.ix_(cells, cells)], cov, rtol=1e-6)


class _Stop(Exception):
    pass


@pytest.mark.parametrize("kind, d", [(kind, d) for kind in ("hermitian", "pauli", "gvector")
                                     for d in (2, 3, 4, 8, 16) if kind != "pauli" or d != 3])
def test_transfer_norms_match_per_member_hs_inner(kind, d, monkeypatch):
    basis = bases.build_basis(kind, d, g_vectors=bases.default_g_vectors(d))
    seen = []

    class Mean:  # the coefficient means; estimator_transfer divides them by the norms
        def __truediv__(self, norms):
            seen.append(norms)
            raise _Stop

    monkeypatch.setattr(regression, "_coarse_moments",
                        lambda rho, basis, theta: (Mean(), np.zeros(basis.size)))
    with pytest.raises(_Stop):
        regression.estimator_transfer(interior_state(d), basis, 16, seed=1, replications=2)
    want = np.array([hs_inner(b, b).real for b in basis.matrices])
    assert seen[0].tobytes() == want.tobytes()


def test_transfer_needs_two_replications():
    # one replication has no standard error: gap_se would be NaN
    with pytest.raises(ValueError, match="replications must be at least 2, got 1"):
        regression.estimator_transfer(interior_state(2), PAULI2, 16, seed=1, replications=1)
