"""Observable families and sampling designs.

Three constructions, all of size p = d^2 and all of Hermitian members:

* ``hermitian`` - the orthonormal Hermitian family: diagonal units, and
  symmetric / antisymmetric off-diagonal pairs scaled by 1/sqrt(2).
* ``pauli`` - b-fold tensor products of the 2x2 Pauli matrices, d = 2^b.
* ``gvector`` - the hermitian construction with the unit axes e_1..e_d replaced
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

from .errors import TomolabError, _checked_integer
from .hermitian import _CHUNK, MAX_TENSOR_DIM, _run_starts, stack_traces

__all__ = [
    "SIGMA",
    "ObservableBasis",
    "SamplingDesign",
    "build_basis",
    "haar_wavelet_vectors",
    "default_g_vectors",
]

SIGMA = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

_KINDS = ("hermitian", "pauli", "gvector")


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


def _hermitian_family(axes: np.ndarray) -> np.ndarray:
    """The (d*d, d, d) members of the hermitian construction over the d ``axes``
    columns, member (l1, l2) at row (l1 - 1) d + l2 - 1, all from one stack of
    the outer products u v^dagger of every pair of columns."""
    d = len(axes)
    cols = axes.T[:, :, None]
    outer = cols[:, None] @ cols.conj().swapaxes(1, 2)[None]  # outer[l1, l2] = u v^dagger
    swapped = outer.swapaxes(0, 1)                             # swapped[l1, l2] = v u^dagger
    l1, l2 = np.indices((d, d))
    upper, lower = l1 < l2, l1 > l2
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    anti = 1j * inv_sqrt2 * (outer[lower] - swapped[lower])  # before the upper half changes
    outer[upper] = inv_sqrt2 * (outer[upper] + swapped[upper])
    outer[lower] = anti
    return outer.reshape(d * d, d, d)


def _labels(kind: str, d: int) -> list:
    """Member labels of a built-in family: base-4 digit tuples for pauli,
    (l1, l2) axis pairs otherwise.  They depend only on kind and d."""
    if kind == "pauli":
        return list(map(tuple, _pauli_label(np.arange(d * d), _pauli_tensor_slots(d)).tolist()))
    return [(l1, l2) for l1 in range(1, d + 1) for l2 in range(1, d + 1)]


def build_basis(kind: str, d: int, g_vectors=None) -> ObservableBasis:
    """Construct one of the built-in observable families (p = d^2 members)."""
    if kind not in _KINDS:
        raise TomolabError(f"unknown basis kind {kind!r}")
    d = _checked_integer("d", d, 2)

    g_store = None
    if kind in ("hermitian", "gvector"):
        if kind == "gvector":
            if g_vectors is None:
                raise ValueError("gvector basis requires g_vectors")
            axes = np.asarray(g_vectors, dtype=float)
            if axes.shape != (d, d):
                raise TomolabError(f"expected {d} vectors of length {d}")
            if not np.all(np.abs(axes) <= 1 + 1e-9):  # NaN and inf fail too
                raise TomolabError("g-vectors have an entry that is not finite or exceeds 1 "
                                   "in magnitude, so their Gram matrix is not the identity")
            gram_dev = float(np.max(np.abs(axes.T @ axes - np.eye(d))))
            if not gram_dev <= 1e-9:
                raise TomolabError(f"Gram matrix deviates from identity by {gram_dev:.3e}")
            g_store = axes.copy()
        else:
            axes = np.eye(d)
        mats = _hermitian_family(axes.astype(complex))
    else:  # pauli
        mats = _pauli_members(_pauli_label(np.arange(d * d), _pauli_tensor_slots(d)))
    return _make_basis(mats, kind, g_vectors=g_store)


def _pauli_label(j, b: int) -> np.ndarray:
    """Base-4 digits of each index in ``j`` in a new last axis, most significant first
    (0 is the identity)."""
    return np.asarray(j)[..., None] // 4 ** np.arange(b - 1, -1, -1) % 4


def _pauli_slots(d: int) -> int:
    """b with d = 2^b, b >= 1 (Pauli tensor slots, Haar levels); TomolabError otherwise."""
    # a d of at least 2 is checked to be an integer before its bits are read
    if d < 2 or _checked_integer("d", d, 2) & (d - 1):
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
    """The one constructor of every family: each member's eigenvalues and
    eigenspace projections V V^dagger are written into the last slots of its
    row.  One ``eigh`` solves every member, :func:`_run_starts` cuts each
    spectrum into runs, run k (ascending) goes to slot kappa - 1 - k, and one
    mean and one batched V V^dagger serve all runs of one (first column, width)
    shape.  A built-in kind takes its labels from :func:`_labels`, any other kind
    1..p.  ``matrices`` is a (p, d, d) stack of finite Hermitian members, p >= 1,
    built by the caller."""
    mats = np.asarray(matrices, dtype=complex)
    p, d = mats.shape[:2]
    labels = tuple(_labels(kind, d) if kind in _KINDS else range(1, p + 1))
    evals, evecs = np.linalg.eigh(mats)
    starts = _run_starts(evals)
    # runs in table order; column 0 opens every row's first run, so a run ends where the next starts
    flat = np.flatnonzero(starts)
    member, first = np.divmod(flat, d)
    sizes = np.bincount(member, minlength=p)
    kappa = int(sizes.max())
    eigenvalues = np.zeros((p, kappa))
    projections = np.zeros((p, kappa, d, d), dtype=complex)
    slot = kappa - np.cumsum(starts, axis=1)[starts]
    shape = first * (d + 1) + np.diff(flat, append=starts.size)  # (first, width) as one key
    step = max(1, _CHUNK // (d * d))  # products per chunk, so the temporaries stay small
    for key in np.flatnonzero(np.bincount(shape)):  # the distinct keys, ascending
        pick = np.flatnonzero(shape == key)
        h, (lo, width) = member[pick], divmod(int(key), d + 1)
        eigenvalues[h, slot[pick]] = evals[h, lo:lo + width].mean(axis=1)
        for part in np.split(pick, range(step, len(pick), step)):
            block = evecs[member[part], :, lo:lo + width]
            projections[member[part], slot[part]] = block @ block.conj().swapaxes(1, 2)
    return ObservableBasis(kind=kind, dim=d, matrices=mats, eigenvalues=eigenvalues,
                           projections=projections, sizes=sizes, labels=labels, g_vectors=g_vectors)


def haar_wavelet_vectors(d: int) -> np.ndarray:
    """Orthonormal Haar wavelet basis of R^d (d = 2^b, b >= 1), columns are vectors.

    The first column is the constant vector; column 2^l + k (level l, 0 <= k < 2^l)
    is the rescaled step wavelet, +1 then -1 on the halves of the k-th of 2^l blocks.
    """
    _pauli_slots(d)  # d = 2^b, b >= 1, or TomolabError
    n = np.arange(1, d)
    level = np.frexp(n)[1] - 1
    width = d >> (level + 1)                        # half a block
    half = np.arange(d)[:, None] // width           # (d, d - 1): which half-block holds row i
    steps = np.where(half // 2 == n - 2 ** level, 1 - 2 * (half % 2), 0) / np.sqrt(2 * width)
    return np.column_stack([np.full(d, 1.0 / np.sqrt(d)), steps])


def default_g_vectors(d: int) -> np.ndarray:
    """The g-vectors used when none are given: Haar if d = 2^b, else the
    identity; TomolabError if d < 2."""
    try:
        return haar_wavelet_vectors(d)
    except TomolabError:
        if d < 2:
            raise
        return np.eye(d)

