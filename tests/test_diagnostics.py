"""Active index sets, nondegeneracy fractions, design discrepancy, bounds."""

import dataclasses
import json
import math
import weakref

import numpy as np
import pytest

from oracles import (LAW_TOL, active_index_set_per_member, custom_basis, member_projections,
                     trace_product)
from test_regression import _count_calls
from tomolab import bases, diagnostics, states
from tomolab.errors import TomolabError

PAULI4 = bases.build_basis("pauli", 4)
HERM4 = bases.build_basis("hermitian", 4)


def permuted(basis, perm):
    """A custom family of ``basis``'s members, reordered."""
    return custom_basis([basis.matrices[i] for i in perm])


def repeated_eigenvalue_family():
    """d = 4 custom family: members with one, two and three distinct eigenvalues
    (two of them repeated) and two Pauli members."""
    rng = np.random.default_rng(3)
    u, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    return custom_basis([np.eye(4), np.diag([1.0, 1.0, 0.0, 0.0]),
                         u @ np.diag([2.0, 2.0, -1.0, 0.0]) @ u.conj().T,
                         PAULI4.matrices[5], PAULI4.matrices[11]])


HERM16 = bases.build_basis("hermitian", 16)
FAMILIES = {
    "hermitian16": HERM16,
    "pauli16": bases.build_basis("pauli", 16),
    "gvector16": bases.build_basis("gvector", 16, g_vectors=bases.haar_wavelet_vectors(16)),
    "custom4": repeated_eigenvalue_family(),
    "permuted-hermitian16": permuted(HERM16, np.random.default_rng(5).permutation(256)),
}


def active_cells(table, basis, j):
    """Member j's I_j: the nonzero slots of ``cells(j)`` in an active-trace table."""
    return tuple(np.flatnonzero(table[j, basis.cells(j)]).tolist())


def nondegenerate_count(table):
    return int(np.sum(np.count_nonzero(table, axis=1) >= 2))


class TestActiveIndexSet:
    def test_line_state(self):
        st = states.pauli_line_state(4, 2, 0.5)
        table = diagnostics.active_index_set(st, PAULI4)
        assert table.shape == (PAULI4.size, PAULI4.kappa)
        assert active_cells(table, PAULI4, 0) == ()          # identity: trace is 1
        assert all(active_cells(table, PAULI4, j) == (0, 1) for j in range(1, 16))
        assert nondegenerate_count(table) == 15

    def test_pure_state_on_own_diagonal_member(self):
        st = states.validate_density(np.diag([1.0, 0, 0, 0]))
        table = diagnostics.active_index_set(st, HERM4)
        j11 = HERM4.labels.index((1, 1))
        assert active_cells(table, HERM4, j11) == ()
        assert np.all(table[j11] == 0.0)

    @pytest.mark.parametrize("b", [1, 2, 3])
    def test_tilted_state(self, b):
        d = 2 ** b
        st = states.tilted_product_state(b)
        basis = bases.build_basis("pauli", d)
        assert nondegenerate_count(diagnostics.active_index_set(st, basis)) == d * d - 1

    def test_excluded_indices_are_near_deterministic(self):
        st = states.pauli_line_state(4, 2, 0.5)
        table = diagnostics.active_index_set(st, PAULI4)
        traces = PAULI4.cell_traces(st.matrix)
        active = table != 0
        np.testing.assert_array_equal(table[active], traces[active])
        # every excluded slot, padding included, is near deterministic
        assert np.all(np.minimum(traces[~active], 1 - traces[~active]) <= diagnostics.ACTIVE_TOL)


class TestOnePass:
    """The one-pass active-trace table equals the per-member reference: the same
    active cells, and traces within ``LAW_TOL`` (bit for bit on a custom family,
    whose traces are the reference's own)."""

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    @pytest.mark.parametrize("state", ["entry_sparse", "low_rank", "line"])
    def test_matches_per_member_oracle(self, name, state):
        basis = FAMILIES[name]
        d = basis.dim
        if state == "line":
            st = states.pauli_line_state(d, 3, 0.4)
        else:
            spec = states.StateClassSpec(state, s=2) if state == "entry_sparse" \
                else states.StateClassSpec(state, r=2)
            st = states.sample_class(spec, d, seed=11)
        got = diagnostics.active_index_set(st, basis)
        want = active_index_set_per_member(st, basis)
        np.testing.assert_array_equal(got != 0, want != 0)
        np.testing.assert_allclose(got, want, rtol=0, atol=LAW_TOL)
        if basis.kind == "custom":
            assert got.tobytes() == want.tobytes()
        if state == "line":  # the comparison covers active cells
            assert nondegenerate_count(got) > 0

        # one trace_product per eigenspace projection, the value cell_probabilities starts from
        traces = basis.cell_traces(st.matrix)
        for j in range(basis.size):
            want = [trace_product(q, st.matrix).real for q in member_projections(basis, j)]
            np.testing.assert_allclose(traces[j, basis.cells(j)], want, rtol=0, atol=LAW_TOL)

    @pytest.mark.parametrize("shape", [(1, 1), (16, 16), (4,)])
    def test_rejects_wrong_shape(self, shape):
        with pytest.raises(TomolabError, match="finite \\(4, 4\\) matrix"):
            diagnostics.active_index_set(np.ones(shape), HERM4)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_state(self, bad):
        with pytest.raises(TomolabError, match="finite"):
            diagnostics.active_index_set(np.full((4, 4), bad), HERM4)
        mixed = np.eye(4) / 4
        mixed[2, 1] = bad
        with pytest.raises(TomolabError, match="finite"):
            diagnostics.active_index_set(mixed, HERM4)

    def test_one_law_table_per_state(self, monkeypatch):
        # one closed-form law table per state, whoever asks for it
        traces = _count_calls(monkeypatch, bases._pauli_law)
        line = states.pauli_line_state(16, 3, 0.4)
        diagnostics.active_index_set(line, FAMILIES["pauli16"])
        diagnostics.zeta_fraction([line, states.tilted_product_state(4)], FAMILIES["pauli16"])
        assert len(traces) == 3


class TestZetaFraction:
    def test_line_state_fraction(self):
        st = states.pauli_line_state(4, 2, 0.5)
        rep = diagnostics.zeta_fraction([st], PAULI4)
        assert rep["zeta"] == pytest.approx(15 / 16, abs=1e-12)

    def test_payload_keys(self):
        # the zeta.json payload, less the names the task adds
        rep = diagnostics.zeta_fraction([states.pauli_line_state(4, 2, 0.5)], PAULI4)
        assert sorted(rep) == ["active_trace_max", "active_trace_min", "counts", "fractions", "zeta"]
        assert rep["counts"] == [15] and rep["fractions"] == [rep["zeta"]]

    @pytest.mark.parametrize("beta", [0.1, 0.5, 0.9])
    def test_line_state_all_betas(self, beta):
        st = states.pauli_line_state(8, 5, beta)
        basis = bases.build_basis("pauli", 8)
        rep = diagnostics.zeta_fraction([st], basis)
        p = 64
        assert rep["zeta"] >= 1 - 1 / p - 1e-12

    @pytest.mark.parametrize("d", [2, 4, 8, 16])
    def test_tilted_witness(self, d):
        st = states.witness_state("cor3_tilted", d)
        basis = bases.build_basis("pauli", d)
        rep = diagnostics.zeta_fraction([st], basis)
        p = d * d
        assert rep["zeta"] >= 1 - 1 / p - 1e-12

    def test_identity_member_never_counts(self):
        for seed in range(5):
            st = states.sample_class(states.StateClassSpec("low_rank", r=3), 4, seed=seed)
            table = diagnostics.active_index_set(st, PAULI4)
            assert len(active_cells(table, PAULI4, 0)) < 2

    def test_entry_sparse_fraction_corrected_bound(self):
        # per-family counting: at most 2*d*s_d - s_d^2 members can be active
        for seed in range(10):
            st = states.sample_class(states.StateClassSpec("entry_sparse", s=2), 4, seed=seed)
            s_d = int(np.sum(np.abs(np.diag(st.matrix)) > 1e-9))
            rep = diagnostics.zeta_fraction([st], HERM4)
            assert rep["counts"][0] <= 2 * 4 * s_d - s_d ** 2

    def test_basis_order_invariance(self):
        st = states.pauli_line_state(4, 3, 0.4)
        rep1 = diagnostics.zeta_fraction([st], PAULI4)
        shuffled = permuted(PAULI4, np.arange(16)[::-1])
        rep2 = diagnostics.zeta_fraction([st], shuffled)
        assert rep1["zeta"] == pytest.approx(rep2["zeta"], abs=1e-12)

    def test_max_over_states_and_weights(self):
        mixed = states.validate_density(np.eye(4) / 4)
        line = states.pauli_line_state(4, 1, 0.5)
        rep = diagnostics.zeta_fraction([mixed, line], PAULI4)
        assert rep["zeta"] == max(rep["fractions"])
        w = np.zeros(16)
        w[0] = 1.0  # all weight on the identity member: fraction 0
        rep0 = diagnostics.zeta_fraction([line], PAULI4, weights=w)
        assert rep0["zeta"] == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weights(self, bad):
        line = states.pauli_line_state(4, 1, 0.5)
        w = np.full(16, 1 / 16)
        w[1] = bad
        with pytest.raises(ValueError, match="probability vector"):
            diagnostics.zeta_fraction([line], PAULI4, weights=w)

    def test_c3_window(self):
        # the observed range of the active traces; the zeta task checks it against [c0, c1]
        st = states.pauli_line_state(4, 2, 0.5)
        rep = diagnostics.zeta_fraction([st], PAULI4)
        assert rep["active_trace_min"] == pytest.approx(0.25)
        assert rep["active_trace_max"] == pytest.approx(0.75)
        # on |0><0| every cell trace of the diagonal units is 0 or 1
        units = custom_basis([np.diag(e) for e in np.eye(4)])
        none = diagnostics.zeta_fraction([np.diag([1.0, 0, 0, 0])], units)
        assert none["active_trace_min"] is None and none["active_trace_max"] is None
        assert none["zeta"] == 0.0


def counted(basis, axes, st):
    """(u, count) that the corollary suite's count helper sees for one state."""
    seen = []
    block = diagnostics._count_block(basis, axes, [st], lambda u: seen.append(u) or 0)
    assert block["corrected_rule_ok"] is True
    return seen[0], block["max_count"]


def two_axis_state(axes, weights):
    """sum_i weights[i] a_i a_i' over the first columns a_i of ``axes``."""
    diag = np.zeros(len(axes))
    diag[:len(weights)] = weights
    return states.validate_density(axes @ np.diag(diag) @ axes.T)


class TestCountRule:
    # the rule 2*d*u - u^2 and its closed-form witnesses (README, "Nominal count constants")
    @pytest.mark.parametrize("d", [4, 8, 16])
    def test_closed_forms_on_hermitian_axes(self, d):
        herm = bases.build_basis("hermitian", d)
        eye = np.eye(d)
        assert counted(herm, eye, two_axis_state(eye, (1.0,))) == (1, 2 * (d - 1))
        assert counted(herm, eye, two_axis_state(eye, (0.3, 0.7))) == (2, 4 * d - 4)

    @pytest.mark.parametrize("d", [4, 8, 16])
    def test_haar_rank_two_witness_in_g_axes(self, d):
        g = bases.haar_wavelet_vectors(d)
        gbasis = bases.build_basis("gvector", d, g_vectors=g)
        assert counted(gbasis, g, two_axis_state(g, (0.3, 0.7))) == (2, 4 * d - 4)

    @pytest.mark.parametrize("d", [4, 8, 16])
    def test_u_is_the_eigenvector_support(self, d):
        # reference: the union g-support of the eigenvectors spanning the range
        g = bases.default_g_vectors(d)
        gbasis = bases.build_basis("gvector", d, g_vectors=g)
        tol = diagnostics.ACTIVE_TOL
        for r, gam in ((1, 1), (2, 2)):
            spec = states.StateClassSpec("low_rank_sparse_vec", r=r, gamma=gam, g_vectors=g)
            for seed in range(10):
                st = states.sample_class(spec, d, seed)
                evals, evecs = np.linalg.eigh(st.matrix)
                coeffs = g.T @ evecs[:, evals > tol]
                want = int(np.sum(np.any(np.abs(coeffs) > tol, axis=1)))
                assert counted(gbasis, g, st)[0] == want

    def test_block_counts_nominal_violations(self):
        sampled = [two_axis_state(np.eye(4), w) for w in ((1.0,), (0.3, 0.7), (0.5, 0.5))]
        block = diagnostics._count_block(HERM4, np.eye(4), sampled, lambda u: 4 * u)
        # counts 6 > 4 * 1, then 12 > 4 * 2 twice
        assert block == {"max_count": 12, "violations": 3, "samples": 3,
                         "corrected_rule_ok": True, "ok": False}


class TestGammaP:
    def test_equal_designs(self):
        assert diagnostics.gamma_p([0.25] * 4, [0.25] * 4) == 0.0

    def test_hand_example(self):
        assert diagnostics.gamma_p([0.5, 0.5], [0.25, 0.75]) == pytest.approx(1.5)

    def test_single_element(self):
        assert diagnostics.gamma_p([1.0], [1.0]) == 0.0

    def test_symmetric(self):
        rng = np.random.default_rng(4)
        pi = rng.dirichlet(np.ones(6))
        xi = rng.dirichlet(np.ones(6))
        assert diagnostics.gamma_p(pi, xi) == pytest.approx(diagnostics.gamma_p(xi, pi))

    def test_zero_iff_equal(self):
        rng = np.random.default_rng(5)
        pi = rng.dirichlet(np.ones(5))
        assert diagnostics.gamma_p(pi, pi) == 0.0
        xi = pi.copy()
        xi[0] += 0.01
        xi[1] -= 0.01
        assert diagnostics.gamma_p(pi, xi) > 0.0

    def test_zero_weight(self):
        # a member that only one design draws
        with pytest.raises(TomolabError, match="zero weight in the other"):
            diagnostics.gamma_p([1.0, 0.0], [0.5, 0.5])
        with pytest.raises(TomolabError, match="zero weight in the other"):
            diagnostics.gamma_p([0.5, 0.5, 0.0], [0.5, 0.25, 0.25])

    def test_members_neither_design_draws_are_skipped(self):
        assert diagnostics.gamma_p([0.5, 0.5, 0.0], [0.5, 0.5, 0.0]) == 0.0


class TestDeficiencyBound:
    def test_degenerate_design(self):
        assert diagnostics.deficiency_bound(10, 4, 0.0, 0.0, 1.0) == 0.0

    def test_unit_case(self):
        assert diagnostics.deficiency_bound(64, 64, 0.0, 1.0, 1.0) == pytest.approx(1.0)

    def test_sparse_instantiation(self):
        # zeta = s_d / d plugged into the bound of a uniform design, gamma_p(pi, pi) = 0
        n, m, d, s_d, c = 256, 64, 8, 2, 1.7
        pi = np.full(d * d, 1 / (d * d))
        gamma = diagnostics.gamma_p(pi, pi)
        assert gamma == 0.0
        got = diagnostics.deficiency_bound(n, m, gamma, s_d / d, c)
        assert isinstance(got, float)
        # bit for bit the root alone, the value the uniform specialisation returned
        assert got == c * math.sqrt(n * (s_d / d) / m)

    def test_random_adds_design_term(self):
        uniform = diagnostics.deficiency_bound(10, 16, 0.0, 0.5, 2.0)
        got = diagnostics.deficiency_bound(10, 16, 0.05, 0.5, 2.0)
        assert got == pytest.approx(10 * 0.05 + uniform)
        assert uniform <= got

    @pytest.mark.parametrize("gamma,zeta,constant", [
        (np.nan, 0.5, 1.0), (np.inf, 0.5, 1.0),
        (0.1, np.nan, 1.0), (0.1, np.inf, 1.0),
        (0.1, 0.5, np.nan), (0.1, 0.5, np.inf),
        (-0.1, 0.5, 1.0), (0.1, -0.5, 1.0), (0.1, 0.5, 0.0), (0.1, 0.5, -1.0),
    ])
    def test_non_finite_rejected(self, gamma, zeta, constant):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            diagnostics.deficiency_bound(10, 16, gamma, zeta, constant)

    @pytest.mark.parametrize("n,m", [(-1, 16), (10, 0), (10, -4)])
    def test_bad_sizes_rejected(self, n, m):
        message = f"n must be at least 0, got {n}" if n < 0 else f"m must be at least 1, got {m}"
        with pytest.raises(ValueError, match=f"^{message}$"):
            diagnostics.deficiency_bound(n, m, 0.1, 0.5, 1.0)


class TestCorollarySuite:
    @pytest.mark.parametrize("samples", [0, -3, 2.5])
    def test_samples_not_a_positive_integer_rejected(self, samples):
        # with no sampled state the two counting checks would pass vacuously
        with pytest.raises(ValueError, match="samples must be"):
            diagnostics.corollary_suite(4, 1, samples)

    @pytest.mark.parametrize("seed, message", [(-5000, "seed must be at least 0, got -5000"),
                                               (1.9, "seed must be an integer, got 1.9")])
    def test_seed_not_a_nonnegative_integer_rejected(self, seed, message):
        # named as given, not as the per-state seed derived from it
        with pytest.raises(ValueError, match=message):
            diagnostics.corollary_suite(4, seed, 1)

    def test_one_basis_alive_at_a_time(self, monkeypatch):
        # each family is built, checked and dropped before the next is built
        built = []
        build = diagnostics.build_basis

        def tracked(*args, **kwargs):
            alive = [ref().kind for ref in built if ref() is not None]
            assert not alive, f"{alive} still alive when building {args[0]!r}"
            basis = build(*args, **kwargs)
            built.append(weakref.ref(basis))
            return basis

        monkeypatch.setattr(diagnostics, "build_basis", tracked)
        results = diagnostics.corollary_suite(16, 3, 2)
        assert [r["anchor"] for r in results] == [
            "corollary1", "corollary2", "corollary3", "corollary4"]
        assert len(built) == 3


class TestReportJson:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_value_rejected(self, bad, tmp_path):
        # NaN and Infinity are not JSON, so the writer refuses them, and
        # leaves no truncated file behind
        path = tmp_path / "r.json"
        with pytest.raises(ValueError):
            diagnostics.write_report_json({"a": [1, 2], "zeta": bad}, path)
        assert not path.exists()

    def test_object_rejected(self, tmp_path):
        # a dataclass reaches a file only as a dict, through dataclasses.asdict, and
        # a numpy integer or array only as an int or a list
        @dataclasses.dataclass(frozen=True)
        class Estimate:
            value: float
            error_bar: float

        est = Estimate(value=0.25, error_bar=0.01)
        path = tmp_path / "r.json"
        for payload in (est, {"estimate": est}, [est], {"n": np.int64(1)}, [np.zeros(2)]):
            with pytest.raises(TypeError, match="cannot serialize"):
                diagnostics.write_report_json(payload, path)
            assert not path.exists()
        diagnostics.write_report_json({"estimate": dataclasses.asdict(est)}, path)
        assert json.loads(path.read_text())["estimate"]["value"] == 0.25
