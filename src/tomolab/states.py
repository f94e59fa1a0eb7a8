"""Density matrices, state classes and their witness constructions.

A density matrix is Hermitian, positive semidefinite and has unit trace.
Four state classes are supported, each with a seeded sampler:

* ``entry_sparse``        - at most s nonzero entries;
* ``pauli_sparse``        - at most s nonzero coefficients in the Pauli
                            expansion rho = sum_j alpha_j B_j, alpha_j = tr(rho B_j)/d;
* ``low_rank``            - rank at most r;
* ``low_rank_sparse_vec`` - rank-r mixtures of unit vectors whose real and
                            imaginary parts are each supported on at most
                            gamma vectors of a supplied orthonormal basis.

Named witnesses reproduce the closed-form extremal states used by the
diagnostics suite ("cor2_line", "cor3_tilted", "remark8_haar_rank1",
"remark8_haar_rank2").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bases
from .errors import TomolabError, _checked_integer
from .hermitian import require_hermitian
from .rng import substream

__all__ = [
    "DensityMatrix",
    "StateClassSpec",
    "validate_density",
    "pauli_line_state",
    "tilted_product_state",
    "sample_class",
    "witness_state",
]

DENSITY_TOL = 1e-9


@dataclass(frozen=True)
class DensityMatrix:
    """A validated quantum state."""

    matrix: np.ndarray


@dataclass(frozen=True)
class StateClassSpec:
    """Parameters of one state class."""

    class_name: str                  # entry_sparse | pauli_sparse | low_rank | low_rank_sparse_vec
    s: int = None
    r: int = None
    gamma: int = None
    g_vectors: np.ndarray = None     # columns g_1..g_d, low_rank_sparse_vec only;
                                     # None means bases.default_g_vectors(d)


def validate_density(mat: np.ndarray) -> DensityMatrix:
    """Wrap ``mat`` as a density matrix or raise the first failed property."""
    mat = require_hermitian(mat)
    tr = complex(np.trace(mat))
    if abs(tr - 1.0) > DENSITY_TOL:
        raise TomolabError(f"trace is {tr:.12g}, not 1")
    lam_min = float(np.linalg.eigvalsh(mat)[0])
    if lam_min < -DENSITY_TOL:
        raise TomolabError(f"most negative eigenvalue is {lam_min:.3e}")
    return DensityMatrix(matrix=mat)


def pauli_line_state(d: int, j_star: int, beta: float) -> DensityMatrix:
    """State I/d + (beta/d) B_j* along one non-identity Pauli direction.

    Its eigenvalues are (1 +- beta)/d, each with multiplicity d/2, so it is a
    valid state exactly when |beta| < 1.  ``d`` must be a power of 2 and
    0 < ``j_star`` < d^2.
    """
    if not abs(beta) < 1:
        raise TomolabError(f"|beta| must be < 1, got {beta}")
    b = bases._pauli_tensor_slots(d)
    if not 0 < j_star < d * d:
        raise TomolabError(f"j_star must name a non-identity member, 0 < j_star < {d * d}, "
                           f"got {j_star}")
    member = bases._pauli_members(bases._pauli_label([_checked_integer("j_star", j_star, 1)], b))[0]
    return validate_density(np.eye(d, dtype=complex) / d + (beta / d) * member)


def tilted_product_state(b: int) -> DensityMatrix:
    """Rank-one product state whose Pauli averages factor over tensor slots.

    Built from the single-qubit unit vector (sqrt(6/7), sqrt(1/14)(1+i));
    its four single-qubit averages are (1, 2 sqrt(3)/7, 2 sqrt(3)/7, 5/7).
    """
    bases._pauli_tensor_slots(2 ** _checked_integer("b", b, 1))  # the tensor-product size cap
    e = np.array([np.sqrt(6.0 / 7.0), np.sqrt(1.0 / 14.0) * (1 + 1j)])
    u = e
    for _ in range(b - 1):
        u = np.kron(u, e)
    return validate_density(np.outer(u, u.conj()))


def witness_state(name: str, d: int, j_star=None, beta: float = 0.5) -> DensityMatrix:
    """Construct one of the named extremal states at dimension ``d``."""
    if name == "cor2_line":
        if j_star is None:
            j_star = 1  # first non-identity member
        return pauli_line_state(d, j_star, beta)
    if name == "cor3_tilted":
        return tilted_product_state(bases._pauli_slots(d))
    if name == "remark8_haar_rank1":
        d = _checked_integer("d", d, 1)
        return validate_density(np.ones((d, d), dtype=complex) / d)
    if name == "remark8_haar_rank2":
        g = bases.haar_wavelet_vectors(d)
        mat = 0.75 * np.outer(g[:, 0], g[:, 0]) + 0.25 * np.outer(g[:, 1], g[:, 1])
        return validate_density(mat.astype(complex))
    raise ValueError(f"unknown witness {name!r}")


# --- samplers ----------------------------------------------------------------


def sample_class(spec: StateClassSpec, d: int, seed: int) -> DensityMatrix:
    """Draw one state from the class; deterministic for a fixed seed."""
    d, rng = _checked_integer("d", d, 1), substream(seed)
    if spec.class_name == "entry_sparse":
        return _sample_entry_sparse(d, spec.s, rng)
    if spec.class_name == "pauli_sparse":
        return _sample_pauli_sparse(d, spec.s, rng)
    if spec.class_name == "low_rank":
        return _sample_low_rank(d, spec.r, rng)
    if spec.class_name == "low_rank_sparse_vec":
        return _sample_sparse_vec(d, spec.r, spec.gamma, spec.g_vectors, rng)
    raise ValueError(f"unknown state class {spec.class_name!r}")


def _sample_entry_sparse(d: int, s: int, rng) -> DensityMatrix:
    if s is None or s < 1:
        raise TomolabError("entry_sparse needs s >= 1")
    s = _checked_integer("s", s, 1)
    # Support patterns that survive PSD repair: a few full 2x2 blocks
    # (4 entries each) plus isolated diagonal entries.
    for _ in range(200):
        n_blocks = int(rng.integers(0, s // 4 + 1))
        n_diag = int(rng.integers(0 if n_blocks else 1, s - 4 * n_blocks + 1))
        if n_blocks == 0 and n_diag == 0:
            continue
        need = 2 * n_blocks + n_diag
        if need > d:
            continue
        idx = rng.permutation(d)[:need]
        blocks = [tuple(sorted(idx[2 * i:2 * i + 2])) for i in range(n_blocks)]
        diag = idx[2 * n_blocks:]
        mat = np.zeros((d, d), dtype=complex)
        for a in diag:
            mat[a, a] = rng.uniform(0.2, 1.0)
        for a, b in blocks:
            z = rng.normal() + 1j * rng.normal()
            x, y = rng.uniform(0.2, 1.0, size=2)
            mat[a, a], mat[b, b] = x, y
            off = z * np.sqrt(x * y) * rng.uniform(0.2, 0.9) / abs(z)
            mat[a, b], mat[b, a] = off, np.conj(off)
        mat = _psd_repair(mat)
        support = np.abs(mat) > DENSITY_TOL
        wanted = n_diag + 4 * n_blocks
        if support.sum() <= s and support.sum() == wanted:
            return validate_density(mat)
    raise TomolabError(f"could not realize an entry-sparse state with s={s}, d={d}")


def _psd_repair(mat: np.ndarray) -> np.ndarray:
    """Project onto the PSD cone, then renormalize the trace to 1."""
    evals, evecs = np.linalg.eigh(mat)
    evals = np.clip(evals, 0.0, None)
    mat = (evecs * evals) @ evecs.conj().T
    return mat / np.trace(mat).real


def _sample_pauli_sparse(d: int, s: int, rng) -> DensityMatrix:
    if s is None or s < 1:
        raise TomolabError("pauli_sparse needs s >= 1 (unit trace forces the identity term)")
    s = _checked_integer("s", s, 1)
    b, p = bases._pauli_tensor_slots(d), d * d
    if s > p:
        raise TomolabError(f"s={s} exceeds the family size {p}")
    mat = np.eye(d, dtype=complex) / d
    extra = int(min(s - 1, p - 1))
    if extra:
        others = 1 + rng.permutation(p - 1)[:extra]
        delta = np.zeros((d, d), dtype=complex)
        for member in bases._pauli_members(bases._pauli_label(others, b)):
            delta += rng.normal() * member
        lam_min = float(np.linalg.eigvalsh(delta)[0])
        if lam_min < -0.9:
            # eigenvalues of I/d + delta/d are (1 + eig(delta))/d; keep a margin
            delta = delta * (0.9 / abs(lam_min))
        mat = mat + delta / d
    return validate_density(mat)


def _sample_low_rank(d: int, r: int, rng) -> DensityMatrix:
    if r is None or not (1 <= r <= d):
        raise TomolabError(f"low_rank needs 1 <= r <= {d}")
    r = _checked_integer("r", r, 1)
    z = rng.normal(size=(d, r)) + 1j * rng.normal(size=(d, r))
    q, _ = np.linalg.qr(z)
    xi = rng.dirichlet(np.ones(r))
    return validate_density((q * xi) @ q.conj().T)


def _sample_sparse_vec(d: int, r: int, gamma: int, g_vectors, rng) -> DensityMatrix:
    if r is None or gamma is None or r < 1 or gamma < 1:
        raise TomolabError("low_rank_sparse_vec needs r >= 1 and gamma >= 1")
    r, gamma = _checked_integer("r", r, 1), _checked_integer("gamma", gamma, 1)
    if r > d:
        raise TomolabError(f"cannot place {r} orthogonal vectors in dimension {d}")
    g = np.asarray(g_vectors if g_vectors is not None else bases.default_g_vectors(d), dtype=float)
    # group the r vectors into blocks of at most gamma; each block draws an
    # orthonormal complex frame inside the span of its own (disjoint) support
    # of at most gamma basis vectors, so mixture components stay orthonormal
    # and membership is certifiable from the eigendecomposition
    sizes = []
    rem = r
    while rem:
        k = min(gamma, rem)
        sizes.append(k)
        rem -= k
    pool = list(rng.permutation(d))
    spare = d - sum(sizes)
    vectors = []
    for k in sizes:
        width = k
        if gamma > k and spare > 0:
            extra = int(rng.integers(0, min(gamma - k, spare) + 1))
            width += extra
            spare -= extra
        support = [pool.pop() for _ in range(width)]
        z = rng.normal(size=(width, k)) + 1j * rng.normal(size=(width, k))
        frame, _ = np.linalg.qr(z)
        for col in range(k):
            coeff = np.zeros(d, dtype=complex)
            coeff[support] = frame[:, col]
            vectors.append(g @ coeff.real + 1j * (g @ coeff.imag))
    xi = rng.dirichlet(np.ones(r))
    mat = np.zeros((d, d), dtype=complex)
    for w, u in zip(xi, vectors):
        mat += w * np.outer(u, u.conj())
    return validate_density(mat)
