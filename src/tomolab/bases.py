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

A basis holds its members as one (p, d, d) array and its spectra once: the
distinct eigenvalues lambda_ja and eigenspace projections Q_ja of all
measurable members, in member order, as the rows of a (C,) and a (C, d, d)
array, member j's cells at rows ``cell_start[j]:cell_start[j + 1]``.
:meth:`ObservableBasis.cell_traces` gives every tr(Q_ja rho) in one pass,
and :meth:`ObservableBasis.padded` lays per-cell values out in the
front-padded (p, kappa) table the simulators index by member.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import TomolabError
from .hermitian import (TOL_HERM, _eigenspaces, format_matrix, parse_matrix, stack_traces,
                        tensor_chain)

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

    ``matrices`` (shape (p, d, d)) holds the members.  Row i of ``eigenvalues``
    (shape (C,)) and ``projections`` (shape (C, d, d)) is one distinct
    eigenvalue of a measurable member and the projection onto its eigenspace;
    member j's cells are the rows ``cell_start[j]:cell_start[j + 1]``, in
    descending eigenvalue order, and a masking-only member has none.
    """

    kind: str
    dim: int
    matrices: np.ndarray = field(repr=False)
    eigenvalues: np.ndarray = field(repr=False)
    projections: np.ndarray = field(repr=False)
    cell_start: np.ndarray = field(repr=False)               # (p + 1,) row offsets
    labels: tuple = ()
    g_vectors: np.ndarray = field(default=None, repr=False)
    sizes: np.ndarray = field(init=False, repr=False)        # (p,) cells per member
    kappa: int = field(init=False)                           # largest cell count
    cell_member: np.ndarray = field(init=False, repr=False)  # (C,) member of each row

    def __post_init__(self):
        sizes = np.diff(self.cell_start)
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "kappa", int(sizes.max(initial=0)))
        object.__setattr__(self, "cell_member", np.repeat(np.arange(len(sizes)), sizes))

    @property
    def size(self) -> int:
        return len(self.matrices)

    def cells(self, j: int) -> slice:
        """Member j's rows of ``eigenvalues`` and ``projections``."""
        return slice(self.cell_start[j], self.cell_start[j + 1])

    def cell_traces(self, rho) -> np.ndarray:
        """tr(Q_ja rho) over every row of ``projections``, in one pass."""
        return stack_traces(self.projections, rho)

    def padded(self, rows) -> np.ndarray:
        """The (p, kappa, ...) table of per-cell ``rows`` (one per row of
        ``projections``): member j's cells fill the last ``sizes[j]`` slots of
        row j, and the slots in front of them are zero."""
        rows = np.asarray(rows)
        table = np.zeros((self.size, self.kappa) + rows.shape[1:], dtype=rows.dtype)
        slot = np.arange(len(rows)) + (self.kappa - self.cell_start[1:])[self.cell_member]
        table[self.cell_member, slot] = rows
        return table


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
        b = _pauli_slots(d)
        return [tuple(_pauli_label(j, b)) for j in range(d * d)]
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
        b = _pauli_slots(d)
        mats = (_pauli_member(j, b) for j in range(d * d))
    # generated, so the member list _make_basis stacks is freed once stacked
    return _make_basis(mats, kind, g_vectors=g_store)


def _pauli_label(j: int, b: int):
    """Base-4 digits of j, most significant first; j = 0 is the identity."""
    digits = []
    for _ in range(b):
        digits.append(j % 4)
        j //= 4
    return digits[::-1]


def _pauli_slots(d: int) -> int:
    """b with d = 2^b, the tensor slots of the Pauli family at dimension d."""
    if d < 2 or d & (d - 1):
        raise TomolabError(f"pauli family needs d = 2^b, got d = {d}")
    return int(d).bit_length() - 1


def _pauli_member(j: int, b: int) -> np.ndarray:
    """Member j of the Pauli family on b tensor slots."""
    return tensor_chain(SIGMA[l] for l in _pauli_label(j, b))


def _make_basis(matrices, kind: str, g_vectors=None) -> ObservableBasis:
    """The one constructor of every family: each Hermitian member is measurable,
    its eigenspace projections V V^dagger written into its rows, the others
    get no rows (masking only).  A built-in kind takes its labels from
    :func:`_labels`, any other kind 1..p.  TomolabError unless ``matrices``
    holds one or more (d, d) matrices, d the size of the first."""
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
    spaces = []
    for m in mats:
        # a member with a NaN or inf entry goes to _eigenspaces, which rejects it
        herm = not np.all(np.isfinite(m)) or np.max(np.abs(m - m.conj().T)) <= TOL_HERM
        spaces.append(_eigenspaces(m) if herm else None)
    measured = [sp for sp in spaces if sp is not None]
    eigenvalues = np.array([lam for lams, _ in measured for lam in lams])
    projections = np.empty((len(eigenvalues), d, d), dtype=complex)
    blocks = (block for _, bl in measured for block in bl)
    for block, slot in zip(blocks, projections):
        np.matmul(block, block.conj().T, out=slot)
    sizes = [0 if sp is None else len(sp[0]) for sp in spaces]
    return ObservableBasis(
        kind=kind, dim=d, matrices=mats, eigenvalues=eigenvalues, projections=projections,
        cell_start=np.concatenate(([0], np.cumsum(sizes, dtype=np.int64))),
        labels=labels, g_vectors=g_vectors,
    )


def haar_wavelet_vectors(d: int) -> np.ndarray:
    """Orthonormal Haar wavelet basis of R^d (d a power of 2), columns are vectors.

    The first column is the constant vector; subsequent columns are the
    rescaled step wavelets.
    """
    b = int(round(np.log2(d)))
    if 2 ** b != d:
        raise TomolabError(f"Haar basis needs d = 2^b, got d = {d}")
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
    """The g-vectors used when none are given: Haar if d is a power of 2, else the identity."""
    return haar_wavelet_vectors(d) if d & (d - 1) == 0 else np.eye(d)


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
