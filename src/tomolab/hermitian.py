"""Complex Hermitian matrix checks and matrix text I/O.

Matrices are plain complex ``numpy`` arrays.  :func:`require_hermitian` is the
Hermitian check of an outside matrix, and ``MAX_TENSOR_DIM`` caps the tensor
products the Pauli constructions build.

Design envelope: dense double precision, dimensions up to ~1024 (tensor
products are capped there at ``MAX_TENSOR_DIM``).
"""

from __future__ import annotations

import numpy as np

from .errors import TomolabError

__all__ = [
    "TOL_HERM",
    "MAX_TENSOR_DIM",
    "require_hermitian",
    "format_matrix",
    "parse_matrix",
    "write_matrix",
    "read_matrix",
]

TOL_HERM = 1e-9          # Hermitian symmetry check
MAX_TENSOR_DIM = 2 ** 10  # tensor-product size cap


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
