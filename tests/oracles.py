"""Reference computations the tests check the package against.

Each one recomputes a property the package's constructions must have, by a
route of its own: the multinomial pmf through conditional binomials, the two
dataset translations one record at a time, class membership of a sampled
state, orthogonality and Pauli projection traces of a family, and a matrix
rebuilt from its spectral decomposition.
"""

import math

import numpy as np
from scipy.special import gammaln

from tomolab.bases import build_basis
from tomolab.errors import TomolabError
from tomolab.hermitian import hs_inner, trace_product
from tomolab.rng import TRANSLATE, record_blocks
from tomolab.states import DENSITY_TOL, DensityMatrix


def multinomial_pmf_chain(counts, m: int, theta) -> float:
    """The multinomial pmf through the conditional-binomial factorization.

    Cell j, given the earlier cells, is binomial with the remaining trials
    and success probability theta_j renormalized by the remaining mass; the
    last cell is deterministic.
    """
    counts = np.asarray(counts, dtype=np.int64)
    theta = np.asarray(theta, dtype=float)
    r = len(theta)
    if counts.sum() != m or np.any(counts < 0):
        return 0.0
    log_p = 0.0
    remaining_trials = m
    remaining_mass = 1.0
    for j in range(r - 1):
        beta = theta[j] / remaining_mass if remaining_mass > 0 else 0.0
        u = int(counts[j])
        if beta <= 0.0:
            if u:
                return 0.0
        elif beta >= 1.0:
            if u != remaining_trials:
                return 0.0
        else:
            log_p += (gammaln(remaining_trials + 1) - gammaln(u + 1)
                      - gammaln(remaining_trials - u + 1)
                      + u * math.log(beta) + (remaining_trials - u) * math.log1p(-beta))
        remaining_trials -= u
        remaining_mass -= theta[j]
    return math.exp(log_p)


def reconstruct(dec) -> np.ndarray:
    """Sum of the eigenvalue-weighted projections of a spectral decomposition."""
    d = dec.projections[0].shape[0]
    out = np.zeros((d, d), dtype=complex)
    for lam, proj in zip(dec.eigenvalues, dec.projections):
        out += lam * proj
    return out


# --- translations, one record at a time -----------------------------------------


def translate_per_record(dataset, seed: int) -> tuple:
    """K0 translation (indices, ys) record by record: a record with more than
    one nonzero cell gets the next r - 1 uniforms of its block's flat draw on
    its first r - 1 cells, and its last cell restores the sum m."""
    m, ys = dataset.m, []
    for lo, hi, rng in record_blocks(seed, TRANSLATE, len(dataset.counts)):
        block = dataset.counts[lo:hi]
        sizes = [len(u) - 1 if np.count_nonzero(u) > 1 else 0 for u in block]
        psi = rng.uniform(-0.5, 0.5, size=sum(sizes))
        end = 0
        for u, size in zip(block, sizes):
            end += size
            vals = u.astype(float)
            if size:
                vals[:size] += psi[end - size:end]
                vals[size] = m - vals[:size].sum()
            ys.append(vals / m)
    return dataset.indices, ys


def _round_off_one(values, m: int) -> np.ndarray:
    """K1 on one vector; ArithmeticError when an implied count is negative."""
    head = (np.sign(values[:-1]) * np.floor(np.abs(values[:-1]) + 0.5)).astype(np.int64)
    last = m - int(head.sum())
    if np.any(head < 0) or last < 0:
        raise ArithmeticError(f"implied counts {list(head) + [last]} contain a negative entry")
    return np.append(head, last)


def round_off_per_record(samples, m: int) -> tuple:
    """K1 translation record by record, as (kept indices, kept counts, dropped)."""
    indices, ys = samples
    kept, counts = [], []
    for k, y in enumerate(ys):
        try:
            counts.append(_round_off_one(m * y, m))
        except ArithmeticError:
            continue
        kept.append(k)
    return np.asarray(indices)[kept], counts, len(ys) - len(kept)


# --- families ------------------------------------------------------------------


def verify_orthogonal(basis) -> dict:
    """Largest |<B_j, B_j'>| over pairs j != j' and the norms <B_j, B_j>; passes iff <= 1e-9."""
    gram = np.abs([[hs_inner(a, b) for b in basis.matrices] for a in basis.matrices])
    worst = float(np.max(gram - np.diag(np.diag(gram))))
    return {"max_off_diagonal": worst, "diagonal_norms": np.diag(gram), "passed": worst <= 1e-9}


def pauli_projection_traces(basis) -> dict:
    """Projection traces and cross-traces of the Pauli family.

    For every non-identity member j the two projections satisfy
    tr(Q_j+-) = d/2 and tr(B_j Q_j+-) = +-d/2, and tr(B_j' Q_j+-) = 0 for any
    other non-identity j'.  Returns the full table plus worst-case deviations.
    """
    if basis.kind != "pauli":
        raise TomolabError("projection-trace table is defined for the pauli family")
    half = basis.dim / 2
    others = range(1, basis.size)
    stack = np.stack([basis.matrices[j] for j in others])
    rows = []
    for pos, j in enumerate(others):
        q_plus, q_minus = basis.decompositions[j].projections
        cross = np.abs(np.einsum("kab,qba->qk", stack, np.stack([q_plus, q_minus])))
        rows.append({
            "j": j,
            "tr_Q_plus": np.trace(q_plus).real,
            "tr_Q_minus": np.trace(q_minus).real,
            "tr_BQ_plus": trace_product(basis.matrices[j], q_plus).real,
            "tr_BQ_minus": trace_product(basis.matrices[j], q_minus).real,
            "max_cross_trace": float(np.delete(cross, pos, axis=1).max(initial=0.0)),
        })
    dev_proj = max(max(abs(r["tr_Q_plus"] - half), abs(r["tr_Q_minus"] - half)) for r in rows)
    dev_self = max(max(abs(r["tr_BQ_plus"] - half), abs(r["tr_BQ_minus"] + half)) for r in rows)
    dev_cross = max(r["max_cross_trace"] for r in rows)
    return {
        "rows": rows,
        "max_projection_trace_dev": dev_proj,
        "max_self_trace_dev": dev_self,
        "max_cross_trace": dev_cross,
        "passed": max(dev_proj, dev_self, dev_cross) <= 1e-9,
    }


# --- state classes ---------------------------------------------------------------


def pauli_coefficients(rho, basis=None) -> np.ndarray:
    """Expansion coefficients alpha_j = tr(rho B_j)/d under the Pauli family."""
    mat = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho)
    d = mat.shape[0]
    basis = basis if basis is not None else build_basis("pauli", d)
    return np.array([trace_product(b, mat).real / d for b in basis.matrices])


def class_membership(rho, spec, d: int = None, tol: float = DENSITY_TOL) -> dict:
    """Check the defining property of ``spec`` against ``rho``.

    Returns a report dict with a boolean ``member`` plus the measured
    quantity (entry count, coefficient count, rank, or per-vector supports).
    """
    mat = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho)
    d = mat.shape[0] if d is None else d
    if spec.class_name == "entry_sparse":
        count = int(np.sum(np.abs(mat) > tol))
        return {"member": count <= spec.s, "nonzero_entries": count, "s": spec.s}
    if spec.class_name == "pauli_sparse":
        alpha = pauli_coefficients(mat)
        count = int(np.sum(np.abs(alpha) > tol))
        return {"member": count <= spec.s, "nonzero_coefficients": count, "s": spec.s}
    if spec.class_name == "low_rank":
        rank = int(np.sum(np.linalg.eigvalsh(mat) > tol))
        return {"member": rank <= spec.r, "rank": rank, "r": spec.r}
    if spec.class_name == "low_rank_sparse_vec":
        return _sparse_vec_membership(mat, spec, d, tol)
    raise ValueError(f"unknown state class {spec.class_name!r}")


def _sparse_vec_membership(mat, spec, d, tol) -> dict:
    g = np.asarray(spec.g_vectors, dtype=float) if spec.g_vectors is not None else np.eye(d)
    evals, evecs = np.linalg.eigh(mat)
    active = [i for i in range(d) if evals[i] > tol]
    if len(active) > spec.r:
        return {"member": False, "rank": len(active), "r": spec.r}
    supports = []
    ok = True
    for i in active:
        coeff = g.T @ evecs[:, i]
        best = _sparsest_phase_supports(coeff, tol)
        supports.append(best)
        if max(best) > spec.gamma:
            ok = False
    return {"member": ok, "rank": len(active), "r": spec.r,
            "gamma": spec.gamma, "part_supports": supports}


def _sparsest_phase_supports(coeff: np.ndarray, tol: float):
    """Smallest (re, im) support sizes of exp(i phi) * coeff over candidate phases.

    Eigenvectors are recovered only up to a global phase; candidate phases
    align each nonzero coordinate with the real or imaginary axis.
    """
    nz = np.abs(coeff) > tol
    candidates = [0.0]
    for c in coeff[nz]:
        candidates.append(-np.angle(c))
        candidates.append(-np.angle(c) + np.pi / 2)
    best = (np.inf, np.inf)
    for phi in candidates:
        rotated = np.exp(1j * phi) * coeff
        n_re = int(np.sum(np.abs(rotated.real) > tol))
        n_im = int(np.sum(np.abs(rotated.imag) > tol))
        if max(n_re, n_im) < max(best) or (max(n_re, n_im) == max(best) and n_re + n_im < sum(best)):
            best = (n_re, n_im)
    return best
