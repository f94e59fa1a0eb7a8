"""Observable families and sampling designs.

Three constructions, all of size p = d^2 and all of Hermitian members:

* ``hermitian`` - the orthonormal Hermitian family: diagonal units, and
  symmetric / antisymmetric off-diagonal pairs scaled by 1/sqrt(2).
* ``pauli`` - b-fold tensor products of the 2x2 Pauli matrices, d = 2^b.
* ``gvector`` - the hermitian construction with the unit axes e_1..e_d replaced
  by a supplied orthonormal real basis g_1..g_d.

A basis holds its spectra in the front-padded table every per-cell value of
the package uses: row j of the (p, kappa) ``eigenvalues`` holds member j's
distinct eigenvalues lambda_ja, descending, in its last ``sizes[j]`` slots and
exact zeros in front, kappa the largest cell count.  Its members are built only
when read.  Every kind's spectra and cell law tr(Q_ja rho) have closed
forms, so no eigensolve and no eigenspace projection is formed:

* pauli: the identity has the one eigenvalue 1 and law tr(rho); every other
  string P has eigenvalues (1, -1) and law ((1 + tr(P rho))/2, (1 - tr(P rho))/2),
  tr(P rho) of all 4^b strings from one contraction of rho with the four
  Paulis per qubit.
* hermitian: the diagonal member of axis l has eigenvalues (1, 0) and law
  (rho_ll, 1 - rho_ll); the pair member (l1, l2) of axes u and v has
  (1/sqrt(2), 0, -1/sqrt(2)) and law (h + o, 1 - rho_uu - rho_vv, h - o),
  h = (rho_uu + rho_vv)/2 and o = Re rho_uv if l1 < l2, Im rho_uv if l1 > l2.
  At d = 2 a pair member has no zero eigenspace, so kappa = 2.
* gvector: the hermitian law of G' rho G, G the g-vectors as columns.

:meth:`ObservableBasis.cell_traces` gives the whole (p, kappa) law table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import TomolabError, _checked_integer
from .hermitian import MAX_TENSOR_DIM

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
    """A finite observable family with its spectra, built by :func:`build_basis`.

    Member j's ``sizes[j]`` cells, its distinct eigenvalues in descending order,
    are the slots ``cells(j)`` of row j of ``eigenvalues`` (p, kappa); every other
    slot is zero.  No law, draw or check reads the members themselves, so
    ``matrices`` builds them on first read.
    """

    kind: str
    dim: int
    eigenvalues: np.ndarray = field(repr=False)
    sizes: np.ndarray = field(repr=False)        # (p,) cells per member
    labels: tuple = ()
    g_vectors: np.ndarray = field(default=None, repr=False)

    @property
    def size(self) -> int:
        return len(self.sizes)

    @cached_property
    def matrices(self) -> np.ndarray:
        """The (p, d, d) members, built from ``kind``, ``dim`` and ``g_vectors`` on first read."""
        if self.kind == "pauli":
            return _pauli_members(_pauli_label(np.arange(self.size), _pauli_tensor_slots(self.dim)))
        axes = np.eye(self.dim) if self.g_vectors is None else self.g_vectors
        return _hermitian_family(axes.astype(complex))

    @property
    def kappa(self) -> int:  # the largest cell count, the tables' width
        return self.eigenvalues.shape[1]

    def cells(self, j: int) -> slice:
        """Member j's slots of row j of ``eigenvalues`` and of every per-cell table."""
        return slice(self.kappa - int(self.sizes[j]), self.kappa)

    def cell_traces(self, rho) -> np.ndarray:
        """tr(Q_ja rho) of every cell, the (p, kappa) table with zeros in the padding
        slots, in closed form from rho's entries.  ``rho`` is a matrix or a state
        holding one as ``matrix``; TomolabError unless that matrix is finite and (d, d)."""
        mat = np.asarray(getattr(rho, "matrix", rho))
        d = self.dim
        if mat.shape != (d, d) or not np.all(np.isfinite(mat)):
            raise TomolabError(f"state must be a finite ({d}, {d}) matrix, got shape {mat.shape}")
        if self.kind == "pauli":
            return _pauli_law(mat)
        if self.kind == "gvector":
            mat = self.g_vectors.T @ mat @ self.g_vectors
        return _hermitian_law(mat, self.kappa)


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


def build_basis(kind: str, d: int, g_vectors=None) -> ObservableBasis:
    """Construct one of the built-in observable families (p = d^2 members)."""
    if kind not in _KINDS:
        raise TomolabError(f"unknown basis kind {kind!r}")
    d = _checked_integer("d", d, 2)

    p = d * d
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
        labels = [(l1, l2) for l1 in range(1, d + 1) for l2 in range(1, d + 1)]
        # a pair member has a zero eigenspace unless d = 2
        kappa = 3 if d > 2 else 2
        diagonal = np.eye(d, dtype=bool).ravel()[:, None]
        inv_sqrt2 = 1.0 / np.sqrt(2.0)
        pair = [inv_sqrt2, 0.0, -inv_sqrt2] if kappa == 3 else [inv_sqrt2, -inv_sqrt2]
        eigenvalues = np.where(diagonal, [0.0, 1.0, 0.0][-kappa:], pair)
        sizes = np.where(diagonal[:, 0], 2, kappa)
    else:  # pauli
        digits = _pauli_label(np.arange(p), _pauli_tensor_slots(d))
        labels = list(map(tuple, digits.tolist()))  # base-4 digits, most significant first
        eigenvalues = np.tile([1.0, -1.0], (p, 1))
        eigenvalues[0] = 0.0, 1.0  # the identity
        sizes = np.full(p, 2)
        sizes[0] = 1
    return ObservableBasis(kind=kind, dim=d, eigenvalues=eigenvalues, sizes=sizes,
                           labels=tuple(labels), g_vectors=g_store)


def _pauli_law(rho: np.ndarray) -> np.ndarray:
    """The (4^b, 2) law table of the Pauli family on the (2^b, 2^b) matrix rho.
    tr(P rho) of every string comes from one contraction per qubit: the leading
    qubit's row and column indices of each remaining block are traced against
    the four Paulis, which makes each string's first factor its most significant
    base-4 digit, the order of :func:`_pauli_label`."""
    d = len(rho)
    sigma = np.stack(SIGMA)
    x = rho.reshape(1, d, d)  # (strings so far, remaining rows, remaining columns)
    while x.shape[1] > 1:
        n, k = x.shape[0], x.shape[1] // 2
        x = np.einsum("aij,njrio->naro", sigma, x.reshape(n, 2, k, 2, k)).reshape(4 * n, k, k)
    t = x.reshape(-1).real
    law = np.column_stack([(1 + t) / 2, (1 - t) / 2])
    law[0] = 0.0, t[0]  # the identity's one cell
    return law


def _hermitian_law(rho: np.ndarray, kappa: int) -> np.ndarray:
    """The (d*d, kappa) law table of the hermitian family on the (d, d) matrix
    rho, member (l1, l2) at row (l1 - 1) d + l2 - 1, from rho's diagonal and
    the real (l1 < l2) or imaginary (l1 > l2) part of rho[l1, l2]."""
    d = len(rho)
    diag = rho.diagonal().real
    pair = diag[:, None] + diag
    off = np.where(np.triu(np.ones((d, d), dtype=bool), 1), rho.real, rho.imag)
    law = np.empty((d, d, kappa))
    law[..., 0] = pair / 2 + off
    law[..., -1] = pair / 2 - off
    if kappa == 3:
        law[..., 1] = 1 - pair
    at = np.arange(d)  # the diagonal members
    law[at, at] = 0.0
    law[at, at, -2:] = np.column_stack([diag, 1 - diag])
    return law.reshape(d * d, kappa)


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

