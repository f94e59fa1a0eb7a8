"""The Hermitian check of an outside matrix, and the tensor-product cap.

Matrices are plain complex ``numpy`` arrays.  Design envelope: dense double
precision, dimensions up to ~1024, where ``MAX_TENSOR_DIM`` caps the tensor
products the Pauli constructions build.
"""

from __future__ import annotations

import numpy as np

from .errors import TomolabError

__all__ = ["TOL_HERM", "MAX_TENSOR_DIM", "require_hermitian"]

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

