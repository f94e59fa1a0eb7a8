"""Complex Hermitian matrix arithmetic and the eigenspace clustering rule.

Matrices are plain complex ``numpy`` arrays.  :func:`_run_starts` applies the
clustering rule to a whole family's ascending ``eigh`` eigenvalues at once, one
walk over the d eigenvalue columns: floating-point eigensolvers split degenerate
eigenvalues, so an eigenvalue within the relative tolerance ``CLUSTER_TOL`` of
the first eigenvalue of its run joins that run, and :mod:`tomolab.bases` turns
each run into a distinct eigenvalue (the run's mean) and an eigenspace
projection V V^dagger.  :func:`stack_traces` is the one kernel for tr(a rho)
over a stack of matrices.

Design envelope: dense double precision, dimensions up to ~1024 (tensor
products are capped there at ``MAX_TENSOR_DIM``); each eigensolve is O(d^3).
"""

from __future__ import annotations

import numpy as np

from .errors import TomolabError

__all__ = [
    "TOL_HERM",
    "MAX_TENSOR_DIM",
    "require_hermitian",
    "stack_traces",
    "format_matrix",
    "parse_matrix",
    "write_matrix",
    "read_matrix",
]

TOL_HERM = 1e-9          # Hermitian symmetry check
CLUSTER_TOL = 1e-9       # eigenvalues within this times max(spectral norm, 1) share a cell
MAX_TENSOR_DIM = 2 ** 10  # tensor-product size cap
_CHUNK = 8192             # entries of a temporary product in one chunk (traces, projections)


def require_hermitian(mat: np.ndarray) -> np.ndarray:
    """Return ``mat`` as a complex array, raising :class:`TomolabError` if it is
    not square, has a non-finite entry or is unsymmetric (``TOL_HERM``)."""
    mat = np.asarray(mat, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise TomolabError(f"expected a square matrix, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise TomolabError("matrix has a non-finite entry")
    dev = float(np.max(np.abs(mat - mat.conj().T))) if mat.size else 0.0
    if dev > TOL_HERM:
        raise TomolabError(f"matrix deviates from Hermitian symmetry by {dev:.3e}")
    return mat


def _run_starts(evals: np.ndarray) -> np.ndarray:
    """The clustering rule on an (h, d) table of ascending ``eigh`` eigenvalues,
    one row per member: the (h, d) mask of the eigenvalues that open a run, those
    more than ``CLUSTER_TOL`` times max(spectral norm, 1) above the first
    eigenvalue of the current run.  Each run is one distinct eigenvalue."""
    gap = CLUSTER_TOL * np.max(np.abs(evals), axis=1, initial=1.0)
    starts = np.ones(evals.shape, dtype=bool)
    first = evals[:, 0]
    for i in range(1, evals.shape[1]):
        starts[:, i] = evals[:, i] - first > gap
        first = np.where(starts[:, i], evals[:, i], first)
    return starts


def stack_traces(stack: np.ndarray, rho) -> np.ndarray:
    """tr(a rho).real of every matrix a of a (..., d, d) stack, shaped as its
    leading axes, each the sum of the d*d products a_ik rho_ki in row-major
    order, in chunks of whole matrices that keep the temporary product small.
    ``rho`` is a matrix or a state holding one as ``matrix``; TomolabError
    unless that matrix is finite and (d, d)."""
    mat = np.asarray(getattr(rho, "matrix", rho))
    d = stack.shape[-1]
    if mat.shape != (d, d) or not np.all(np.isfinite(mat)):
        raise TomolabError(f"state must be a finite ({d}, {d}) matrix, got shape {mat.shape}")
    rows = stack.reshape(-1, d * d)
    rho_t = mat.T.ravel()
    out = np.empty(len(rows))
    step = max(1, _CHUNK // (d * d))
    for lo in range(0, len(rows), step):
        out[lo:lo + step] = (rows[lo:lo + step] * rho_t).sum(axis=1).real
    return out.reshape(stack.shape[:-2])


# --- text serialization ------------------------------------------------------
#
# Format: first line is the dimension d, then d lines of d whitespace-separated
# entries written as "a+bi" / "a-bi" with 17 significant digits, so values
# round-trip exactly in double precision.


def _format_entry(z: complex) -> str:
    re, im = float(z.real), float(z.imag)
    sign = "-" if im < 0 or (im == 0 and np.signbit(im)) else "+"
    return f"{re:.17g}{sign}{abs(im):.17g}i"


def _parse_entry(tok: str) -> complex:
    tok = tok.strip()
    try:
        return complex(tok[:-1] + "j") if tok.endswith("i") else complex(tok)
    except ValueError as exc:
        raise ValueError(f"bad matrix entry {tok!r}") from exc


def format_matrix(mat: np.ndarray) -> str:
    mat = np.asarray(mat, dtype=complex)
    d = mat.shape[0]
    lines = [str(d)]
    for row in mat:
        lines.append(" ".join(_format_entry(z) for z in row))
    return "\n".join(lines) + "\n"


def parse_matrix(text: str) -> np.ndarray:
    """Inverse of :func:`format_matrix`.  ValueError unless the text holds
    exactly the d rows its header declares."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty matrix text")
    d = int(lines[0])
    if d < 1 or len(lines) != d + 1:
        raise ValueError(f"header declares d = {d}, got {len(lines) - 1} rows")
    rows = []
    for ln in lines[1:]:
        toks = ln.split()
        if len(toks) != d:
            raise ValueError(f"expected {d} entries per row, got {len(toks)}")
        rows.append([_parse_entry(t) for t in toks])
    return np.array(rows, dtype=complex)


def write_matrix(mat: np.ndarray, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_matrix(mat))


def read_matrix(path) -> np.ndarray:
    with open(path, "r", encoding="ascii") as fh:
        return parse_matrix(fh.read())
