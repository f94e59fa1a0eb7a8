"""Gaussian trace-regression simulation, coarse and fine scale.

Coarse: Y_k = tr(X_k rho) + eps_k with eps_k normal, variance
(tr(X_k^2 rho) - tr(X_k rho)^2)/m, matching the variance of the averaged
measurement outcome on the same observable.

Fine: per eigenprojection, y_ka = tr(Q_ka rho) + z_ka with (z_ka) jointly
normal, covariance (diag(theta) - theta theta')/m where theta_a =
tr(Q_ka rho).  That covariance annihilates the all-ones direction, so each
fine sample sums to one; the sampler draws the nondegenerate block minus one
coordinate by Cholesky and sets the last coordinate from the sum constraint.
Cells that are not active (theta_a within ``ACTIVE_TOL`` of 0 or 1) are
deterministic and excluded from the Gaussian block.

Randomness follows RNG contract v2 (:mod:`tomolab.rng`), with the families
``COARSE`` and ``FINE``: design indices from (seed, family, 0), then one
``standard_normal`` call per block of ``BLOCK`` records.  Coarse draws one
normal per record.  Fine draws a row of w normals per record, w being one
less than the largest cell count over the basis's measurable members, and
maps it through the member's factor F (rows: the Cholesky factor on all but
the last active cell, minus its column sums on the last, zero on inactive
cells), so y = theta + F z meets the sum constraint.  Per-member values
(mean, noise scale, factor) are computed once per distinct drawn member.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .bases import ObservableBasis, SamplingDesign
from .hermitian import require_hermitian, trace_product
from .measurement import _active_cells, _fmt, cell_probabilities, draw_design_indices
from .rng import COARSE, FINE, record_blocks
from .states import DensityMatrix

__all__ = [
    "RegressionSample",
    "FineRegressionSample",
    "noise_variance_coarse",
    "simulate_coarse",
    "simulate_fine",
    "write_coarse_csv",
    "write_fine_csv",
    "read_coarse_csv",
    "read_fine_csv",
]

# rounding floor on the coarse noise variance, not the active-cell rule (ACTIVE_TOL)
VARIANCE_FLOOR = 1e-12


@dataclass(frozen=True)
class RegressionSample:
    design_index: int
    Y: float


@dataclass(frozen=True)
class FineRegressionSample:
    design_index: int
    y: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float))


def noise_variance_coarse(rho, b_mat: np.ndarray) -> float:
    """tr(B^2 rho) - tr(B rho)^2, clamped at zero (division by m is the caller's).

    Values below 1e-12 collapse to exactly zero so deterministic observables
    stay deterministic under floating-point rounding.
    """
    mat = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho)
    b_mat = require_hermitian(b_mat)
    second = trace_product(b_mat @ b_mat, mat).real
    first = trace_product(b_mat, mat).real
    var = second - first * first
    return var if var >= VARIANCE_FLOOR else 0.0


def simulate_coarse(rho, basis: ObservableBasis, design: SamplingDesign,
                    n: int, m: int, seed: int) -> list:
    """n coarse samples Y_k = tr(X_k rho) + eps_k."""
    if m < 1:
        raise ValueError("m must be at least 1")
    indices = draw_design_indices(design, basis, n, seed, COARSE)
    mat = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho)
    mean, sd = np.zeros(basis.size), np.zeros(basis.size)
    for j in dict.fromkeys(indices.tolist()):
        mean[j] = trace_product(basis.matrices[j], mat).real
        sd[j] = np.sqrt(noise_variance_coarse(mat, basis.matrices[j]) / m)
    z = np.empty(n)
    for lo, hi, rng in record_blocks(seed, COARSE, n):
        z[lo:hi] = rng.standard_normal(hi - lo)
    y = mean[indices] + sd[indices] * z
    return [RegressionSample(design_index=j, Y=v) for j, v in zip(indices.tolist(), y.tolist())]


def _fine_factor(theta: np.ndarray, m: int, width: int) -> np.ndarray:
    """F (cells x width) with theta + F z ~ N(theta, (diag(theta) - theta theta')/m)
    for z standard normal: the Cholesky factor of the covariance of all but the
    last active cell, minus its column sums on the last active cell, zero elsewhere."""
    factor = np.zeros((len(theta), width))
    active = _active_cells(theta)
    q = len(active)
    if q < 2:
        return factor
    th = theta[active]
    cov = (np.diag(th) - np.outer(th, th))[:q - 1, :q - 1] / m
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        chol = np.linalg.cholesky(cov + 1e-12 * np.eye(q - 1))
    factor[active[:-1], :q - 1] = chol
    factor[active[-1], :q - 1] = -chol.sum(axis=0)
    return factor


def simulate_fine(rho, basis: ObservableBasis, design: SamplingDesign,
                  n: int, m: int, seed: int) -> list:
    """n fine samples y_k = theta(X_k) + z_k, z_k singular multivariate normal."""
    if m < 1:
        raise ValueError("m must be at least 1")
    indices = draw_design_indices(design, basis, n, seed, FINE)
    cells = basis.kappa
    width = cells - 1
    thetas = np.zeros((basis.size, cells))
    factors = np.zeros((basis.size, cells, width))
    for j in dict.fromkeys(indices.tolist()):
        theta = cell_probabilities(rho, basis, j)
        thetas[j, :len(theta)] = theta
        factors[j, :len(theta)] = _fine_factor(theta, m, width)
    z = np.empty((n, width))
    for lo, hi, rng in record_blocks(seed, FINE, n):
        z[lo:hi] = rng.standard_normal((hi - lo, width))
    y = thetas[indices] + np.einsum("kab,kb->ka", factors[indices], z)
    return [FineRegressionSample(design_index=j, y=row[:basis.decompositions[j].r])
            for j, row in zip(indices.tolist(), y)]


# --- CSV ----------------------------------------------------------------------


def write_coarse_csv(samples, path) -> None:
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "j", "Y"])
        for k, s in enumerate(samples):
            writer.writerow([k, s.design_index, _fmt(s.Y)])


def write_fine_csv(samples, path) -> None:
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "j", "y"])
        for k, s in enumerate(samples):
            writer.writerow([k, s.design_index, "|".join(_fmt(v) for v in s.y)])


def read_coarse_csv(path) -> list:
    out = []
    with open(path, "r", newline="", encoding="ascii") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            out.append(RegressionSample(design_index=int(row[1]), Y=float(row[2])))
    return out


def read_fine_csv(path) -> list:
    out = []
    with open(path, "r", newline="", encoding="ascii") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            y = np.array([float(t) for t in row[2].split("|")])
            out.append(FineRegressionSample(design_index=int(row[1]), y=y))
    return out
