"""Observable families and sampling designs.

Four constructions, all of size p = d^2:

* ``canonical`` - unit matrices e_l1 e_l2'; the off-diagonal members are not
  Hermitian and are admitted for masking only (no spectral decomposition, the
  measurement simulator rejects them).
* ``hermitian`` - the orthonormal Hermitian family: diagonal units, and
  symmetric / antisymmetric off-diagonal pairs scaled by 1/sqrt(2).
* ``pauli`` - b-fold tensor products of the 2x2 Pauli matrices, d = 2^b.
* ``gvector`` - the hermitian construction with the canonical axes replaced
  by a supplied orthonormal real basis g_1..g_d.

A basis holds its members as one (p, d, d) array and its spectra once, in
the front-padded table every per-cell value of the package uses: row j of
the (p, kappa) ``eigenvalues`` and the (p, kappa, d, d) ``projections`` holds
member j's distinct eigenvalues lambda_ja and eigenspace projections Q_ja in
its last ``sizes[j]`` slots and exact zeros in front, kappa the largest cell
count.  :meth:`ObservableBasis.cell_traces` gives every tr(Q_ja rho) in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import TomolabError
from .hermitian import (MAX_TENSOR_DIM, TOL_HERM, _eigenspaces, format_matrix, parse_matrix,
                        stack_traces)

__all__ = [
    "SIGMA",
    "ObservableBasis",
    "SamplingDesign",
    "build_basis",
    "haar_wavelet_vectors",
    "default_g_vectors",
    "write_basis",
    "read_basis",
]

SIGMA = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

_KINDS = ("canonical", "hermitian", "pauli", "gvector")


@dataclass(frozen=True)
class ObservableBasis:
    """A finite observable family with its spectra, built by :func:`_make_basis`.

    ``matrices`` (shape (p, d, d)) holds the members.  Member j's ``sizes[j]``
    cells, its distinct eigenvalues in descending order and the projections
    onto their eigenspaces, are the slots ``cells(j)`` of row j of ``eigenvalues``
    (p, kappa) and ``projections`` (p, kappa, d, d); every other slot is zero.
    """

    kind: str
    dim: int
    matrices: np.ndarray = field(repr=False)
    eigenvalues: np.ndarray = field(repr=False)
    projections: np.ndarray = field(repr=False)
    sizes: np.ndarray = field(repr=False)        # (p,) cells per member
    labels: tuple = ()
    g_vectors: np.ndarray = field(default=None, repr=False)

    @property
    def size(self) -> int:
        return len(self.matrices)

    @property
    def kappa(self) -> int:  # the largest cell count, the tables' width
        return self.eigenvalues.shape[1]

    def cells(self, j: int) -> slice:
        """Member j's slots of row j of ``eigenvalues`` and ``projections``."""
        return slice(self.kappa - int(self.sizes[j]), self.kappa)

    def cell_traces(self, rho) -> np.ndarray:
        """tr(Q_ja rho) of every slot of ``projections``, the (p, kappa) table, in one pass."""
        return stack_traces(self.projections, rho)


@dataclass(frozen=True)
class SamplingDesign:
    """Fixed design, or per-experiment sampling distributions over the family."""

    mode: str                                   # "fixed" | "random"
    weights_regression: np.ndarray = None       # Pi(j)
    weights_tomography: np.ndarray = None       # Xi(j)

    def __post_init__(self):
        if self.mode not in ("fixed", "random"):
            raise ValueError(f"unknown design mode {self.mode!r}")
        if self.mode == "random":
            for name in ("weights_regression", "weights_tomography"):
                w = getattr(self, name)
                if w is None:
                    raise ValueError(f"random design requires {name}")
                w = np.asarray(w, dtype=float)
                if not np.all(w >= 0) or not abs(w.sum() - 1.0) <= 1e-12:
                    raise ValueError(f"{name} must be nonnegative and sum to 1")
                object.__setattr__(self, name, w)

    @classmethod
    def fixed(cls) -> "SamplingDesign":
        return cls(mode="fixed")

    @classmethod
    def random(cls, pi, xi=None) -> "SamplingDesign":
        pi = np.asarray(pi, dtype=float)
        xi = pi if xi is None else np.asarray(xi, dtype=float)
        return cls(mode="random", weights_regression=pi, weights_tomography=xi)


def _hermitian_family(axes: np.ndarray, labels):
    """Members of the hermitian construction over ``axes`` columns, one per (l1, l2) label."""
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    for l1, l2 in labels:
        u = axes[:, l1 - 1][:, None]
        v = axes[:, l2 - 1][:, None]
        if l1 == l2:
            mat = u @ u.conj().T
        elif l1 < l2:
            mat = inv_sqrt2 * (u @ v.conj().T + v @ u.conj().T)
        else:
            mat = 1j * inv_sqrt2 * (u @ v.conj().T - v @ u.conj().T)
        yield mat.astype(complex)


def _labels(kind: str, d: int) -> list:
    """Member labels of a built-in family: base-4 digit tuples for pauli,
    (l1, l2) axis pairs otherwise.  They depend only on kind and d."""
    if kind == "pauli":
        labels = _pauli_label(np.arange(d * d), _pauli_tensor_slots(d))
        return [tuple(row) for row in labels.tolist()]
    return [(l1, l2) for l1 in range(1, d + 1) for l2 in range(1, d + 1)]


def build_basis(kind: str, d: int, g_vectors=None) -> ObservableBasis:
    """Construct one of the built-in observable families (p = d^2 members)."""
    if kind not in _KINDS:
        raise TomolabError(f"unknown basis kind {kind!r}")
    if d < 2:
        raise TomolabError("dimension must be at least 2")

    g_store = None
    if kind == "canonical":
        eye = np.eye(d, dtype=complex)
        mats = (np.outer(eye[:, l1 - 1], eye[:, l2 - 1]) for l1, l2 in _labels(kind, d))
    elif kind in ("hermitian", "gvector"):
        if kind == "gvector":
            if g_vectors is None:
                raise ValueError("gvector basis requires g_vectors")
            axes = np.asarray(g_vectors, dtype=float)
            if axes.shape != (d, d):
                raise TomolabError(f"expected {d} vectors of length {d}")
            gram_dev = float(np.max(np.abs(axes.T @ axes - np.eye(d))))
            if not gram_dev <= 1e-9:
                raise TomolabError(f"Gram matrix deviates from identity by {gram_dev:.3e}")
            g_store = axes.copy()
        else:
            axes = np.eye(d)
        mats = _hermitian_family(axes.astype(complex), _labels(kind, d))
    else:  # pauli
        mats = _pauli_members(np.array(_labels(kind, d)))
    # generated but for pauli, so the member list _make_basis stacks is freed once stacked
    return _make_basis(mats, kind, g_vectors=g_store)


def _pauli_label(j, b: int) -> np.ndarray:
    """Base-4 digits of each index in ``j`` in a new last axis, most significant first
    (0 is the identity)."""
    return np.asarray(j)[..., None] // 4 ** np.arange(b - 1, -1, -1) % 4


def _pauli_slots(d: int) -> int:
    """b with d = 2^b, b >= 1 (Pauli tensor slots, Haar levels); TomolabError otherwise."""
    if d < 2 or d & (d - 1):
        raise TomolabError(f"pauli family needs d = 2^b (b >= 1), as do Haar vectors; got d = {d}")
    return int(d).bit_length() - 1


def _pauli_tensor_slots(d: int) -> int:
    """``_pauli_slots(d)`` for Pauli tensor products of dimension d; TomolabError if d
    exceeds ``MAX_TENSOR_DIM``.  Every Pauli construction calls it before it allocates."""
    b = _pauli_slots(d)
    if d > MAX_TENSOR_DIM:
        raise TomolabError(f"tensor product dimension {d} exceeds {MAX_TENSOR_DIM}")
    return b


def _pauli_members(labels) -> np.ndarray:
    """The (n, 2^b, 2^b) Pauli members of an (n, b) table of base-4 digits, member i
    the left-to-right Kronecker product of SIGMA[labels[i, t]] over the slots t: one
    broadcast outer product per slot for all n, each entry the product np.kron forms."""
    labels = np.asarray(labels)
    sigma = np.stack(SIGMA)
    out = sigma[labels[:, 0]]
    for digits in labels[:, 1:].T:
        n, k = out.shape[:2]
        outer = out[:, :, None, :, None] * sigma[digits][:, None, :, None, :]
        out = outer.reshape(n, 2 * k, 2 * k)
    return out


def _make_basis(matrices, kind: str, g_vectors=None) -> ObservableBasis:
    """The one constructor of every family: each Hermitian member is measurable,
    its eigenvalues and eigenspace projections V V^dagger written into the
    last slots of its row, the others get no cells (masking only); one
    ``eigh`` call solves every Hermitian member.  A built-in kind takes its
    labels from :func:`_labels`, any other kind 1..p.  TomolabError unless
    ``matrices`` holds one or more finite (d, d) matrices, d the size of the first."""
    mats = [np.asarray(m, dtype=complex) for m in matrices]
    if not mats:
        raise TomolabError("a basis needs at least one member")
    d = mats[0].shape[0] if mats[0].ndim == 2 else 0
    for j, m in enumerate(mats):
        if d < 1 or m.shape != (d, d):
            raise TomolabError(f"member {j} has shape {m.shape}; every member "
                               f"must be square, of member 0's size")
    mats = np.stack(mats)
    labels = tuple(_labels(kind, d) if kind in _KINDS else range(1, len(mats) + 1))
    if len(labels) != len(mats):
        raise ValueError(f"{len(labels)} labels for {len(mats)} members")
    finite = np.isfinite(mats).all(axis=(1, 2))
    if not finite.all():
        raise TomolabError(f"member {np.argmin(finite)} has a non-finite entry")
    herm = np.abs(mats - mats.conj().swapaxes(1, 2)).max(axis=(1, 2)) <= TOL_HERM
    spaces = [((), ())] * len(mats)
    hermitian = mats if herm.all() else mats[herm]  # no copy when all members are
    for j, evals, evecs in zip(np.flatnonzero(herm), *np.linalg.eigh(hermitian)):
        spaces[j] = _eigenspaces(evals, evecs)
    sizes = np.array([len(lams) for lams, _ in spaces], dtype=np.int64)
    kappa = int(sizes.max())
    eigenvalues = np.zeros((len(mats), kappa))
    projections = np.zeros((len(mats), kappa, d, d), dtype=complex)
    for j, (lams, blocks) in enumerate(spaces):
        eigenvalues[j, kappa - len(lams):] = lams
        for block, slot in zip(blocks, projections[j, kappa - len(lams):]):
            np.matmul(block, block.conj().T, out=slot)
    return ObservableBasis(kind=kind, dim=d, matrices=mats, eigenvalues=eigenvalues,
                           projections=projections, sizes=sizes, labels=labels, g_vectors=g_vectors)


def haar_wavelet_vectors(d: int) -> np.ndarray:
    """Orthonormal Haar wavelet basis of R^d (d = 2^b, b >= 1), columns are vectors.

    The first column is the constant vector; subsequent columns are the
    rescaled step wavelets.
    """
    b = _pauli_slots(d)
    cols = [np.full(d, 1.0 / np.sqrt(d))]
    for level in range(b):
        n_wav = 2 ** level
        width = d // (2 * n_wav)
        for k in range(n_wav):
            v = np.zeros(d)
            start = k * 2 * width
            v[start:start + width] = 1.0
            v[start + width:start + 2 * width] = -1.0
            cols.append(v / np.linalg.norm(v))
    return np.stack(cols, axis=1)


def default_g_vectors(d: int) -> np.ndarray:
    """The g-vectors used when none are given: Haar if d = 2^b, else the
    identity; TomolabError if d < 2."""
    try:
        return haar_wavelet_vectors(d)
    except TomolabError:
        if d < 2:
            raise
        return np.eye(d)


# --- basis text files --------------------------------------------------------


def write_basis(basis: ObservableBasis, path) -> None:
    """Header line "kind d p" followed by the p matrices in text format."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{basis.kind} {basis.dim} {basis.size}\n")
        for mat in basis.matrices:
            fh.write(format_matrix(mat))


def read_basis(path) -> ObservableBasis:
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    head = lines[0].split() if lines else []
    if len(head) != 3 or not all(t.isascii() and t.isdigit() and int(t) > 0 for t in head[1:]):
        raise ValueError(f"line 1: expected the header 'kind d p', d and p positive "
                         f"integers, got {' '.join(head)!r}")
    kind, d, p = head[0], int(head[1]), int(head[2])
    mats = []
    pos = 1
    for j in range(p):
        mat = parse_matrix(lines[pos:pos + d + 1])
        if mat.shape != (d, d):
            raise ValueError(f"matrix {j} is {len(mat)} x {len(mat)}, the header declares d = {d}")
        mats.append(mat)
        pos += d + 1
    if any(ln.strip() for ln in lines[pos:]):
        raise ValueError(f"text after the {p} matrices the header declares")
    return _make_basis(mats, kind if kind in _KINDS else "custom")
