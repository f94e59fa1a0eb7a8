"""Gaussian trace-regression simulation, coarse and fine scale.

Coarse: Y_k = tr(X_k rho) + eps_k with eps_k normal, variance
(tr(X_k^2 rho) - tr(X_k rho)^2)/m, the variance of the averaged outcome on the
same observable, and exactly 0 on a member with fewer than two active cells.

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
cells), so y = theta + F z meets the sum constraint.  Every member's law
(cell probabilities, coarse mean and variance) and fine factor is computed
once per run, in the basis's front-padded (p, kappa) table
(:class:`ObservableBasis`), the factors with one batched Cholesky per
active-cell count.

Both simulators, and the CSV writers, hold a run's records once, as the
pair (indices, values): the member index per record (int64) with the
coarse Y array, or with the fine (n, kappa) table, record k's values in the
last ``sizes[indices[k]]`` slots of row k and zeros in front of them.

``estimator_transfer`` compares coefficient estimates fed by counts and by coarse
Gaussian samples over an orthogonal family, from the one stream (seed, ``TRANSFER``).
"""

from __future__ import annotations

import numpy as np

from .bases import ObservableBasis, SamplingDesign
from .errors import TomolabError, _checked_integer
from .hermitian import stack_traces
from .measurement import (_active_mask, _blocks, _record_blocks, _write_table, cell_probabilities,
                          draw_design_indices)
from .rng import COARSE, FINE, TRANSFER, record_blocks, substream

__all__ = [
    "noise_variance_coarse",
    "simulate_coarse",
    "simulate_fine",
    "write_coarse_csv",
    "write_fine_csv",
    "estimator_transfer",
    "estimator_transfer_sweep",
]


def noise_variance_coarse(rho, basis: ObservableBasis) -> np.ndarray:
    """tr(B_j^2 rho) - tr(B_j rho)^2 of every member, (p,), not divided by m: NaN if masking-only,
    0 with fewer than two active cells, else clamped at 0; raises where cell_probabilities does."""
    return _coarse_moments(rho, basis, cell_probabilities(rho, basis))[1]


def _coarse_moments(rho, basis: ObservableBasis, theta: np.ndarray) -> tuple:
    """(mean, variance) (p,) vectors of the coarse model, given the run's cell law theta."""
    mean = stack_traces(basis.matrices, rho)
    var = np.maximum(stack_traces(basis.matrices @ basis.matrices, rho) - mean * mean, 0.0)
    active = _active_mask(theta).sum(axis=1)
    return mean, np.where(basis.sizes == 0, np.nan, np.where(active >= 2, var, 0.0))


def simulate_coarse(rho, basis: ObservableBasis, design: SamplingDesign,
                    n: int, m: int, seed: int) -> tuple:
    """n coarse samples Y_k = tr(X_k rho) + eps_k, as (indices, Y)."""
    n, m = _checked_integer("n", n, 0), _checked_integer("m", m, 1)
    indices = draw_design_indices(design, basis, n, seed, COARSE)
    mean, var = _coarse_moments(rho, basis, cell_probabilities(rho, basis))
    sd = np.sqrt(var / m)
    z = np.empty(n)
    for lo, hi, rng in record_blocks(seed, COARSE, n):
        z[lo:hi] = rng.standard_normal(hi - lo)
    return indices, mean[indices] + sd[indices] * z


def _fine_factors(theta: np.ndarray, m: int) -> np.ndarray:
    """The (p, kappa, kappa - 1) factors F_j with theta_j + F_j z ~ N(theta_j, (diag(theta_j)
    - theta_j theta_j')/m) for z standard normal, theta the (p, kappa) law table: the Cholesky
    factor of the covariance of all but the last active cell, minus its column sums on the
    last, zero elsewhere and with fewer than two active cells.  One batched Cholesky per
    active-cell count; every block is positive definite (active cells exceed ``ACTIVE_TOL``)."""
    p, kappa = theta.shape
    factors = np.zeros((p, kappa, kappa - 1))
    active = _active_mask(theta)
    counts = active.sum(axis=1)
    for q in np.flatnonzero(np.bincount(counts[counts >= 2])).tolist():
        rows = np.flatnonzero(counts == q)
        cols = np.nonzero(active[rows])[1].reshape(-1, q)
        th = theta[rows[:, None], cols[:, :-1], None]  # all but the last active cell
        chol = np.linalg.cholesky((th * np.eye(q - 1) - th * th.swapaxes(1, 2)) / m)
        factors[rows[:, None], cols[:, :-1], :q - 1] = chol
        factors[rows, cols[:, -1], :q - 1] = -chol.sum(axis=1)
    return factors


def simulate_fine(rho, basis: ObservableBasis, design: SamplingDesign,
                  n: int, m: int, seed: int) -> tuple:
    """n fine samples y_k = theta(X_k) + z_k, z_k singular multivariate normal,
    as (indices, y) with y the front-padded (n, kappa) table of the records."""
    n, m = _checked_integer("n", n, 0), _checked_integer("m", m, 1)
    indices = draw_design_indices(design, basis, n, seed, FINE)
    width = basis.kappa - 1
    theta = cell_probabilities(rho, basis)
    z = np.empty((n, width))
    for lo, hi, rng in record_blocks(seed, FINE, n):
        z[lo:hi] = rng.standard_normal((hi - lo, width))
    # padding slots are never active, so their rows of F are 0 and y stays 0 there
    return indices, theta[indices] + np.einsum("kab,kb->ka", _fine_factors(theta, m)[indices], z)


# --- CSV ----------------------------------------------------------------------


def write_coarse_csv(samples, path) -> None:
    """One row per record of ``samples`` = (indices, Y): k, j, Y."""
    indices, values = samples
    _write_table(path, ["k", "j", "Y"],
                 _blocks("%d,%d,%.17g", np.arange(len(indices)), indices, values))


def write_fine_csv(samples, basis: ObservableBasis, path) -> None:
    """One row per record of ``samples`` = (indices, y): k, j, "y_1|y_2|..."."""
    _write_table(path, ["k", "j", "y"], _record_blocks(
        basis, *samples, lambda r: "%d,%d," + "|".join(["%.17g"] * r)))


def estimator_transfer(rho, basis, m: int, seed: int, replications: int) -> dict:
    """Compare coefficient estimators fed by counts vs by Gaussian samples.

    Fixed design over an orthogonal family (n = p): each replication
    estimates every expansion coefficient by the per-observable average
    outcome, once from the counted experiment and once from the Gaussian one,
    normalizing by the member's squared norm.  Reports per-coefficient
    squared errors and the paired gap in total squared risk.
    """
    if basis.kind not in ("hermitian", "pauli", "gvector"):
        raise TomolabError("estimator transfer requires an orthogonal family")
    p = basis.size
    m, replications = _checked_integer("m", m, 1), _checked_integer("replications", replications, 2)
    rng = substream(seed, TRANSFER)
    norms = (basis.matrices.conj() * basis.matrices).reshape(p, -1).sum(axis=1).real
    theta = cell_probabilities(rho, basis)
    mean, var = _coarse_moments(rho, basis, theta)
    sd = np.sqrt(var / m)
    alpha = mean / norms
    err_counts = np.empty((replications, p))
    err_gauss = np.empty((replications, p))
    for j in range(p):
        counts = rng.multinomial(m, theta[j, basis.cells(j)], size=replications)
        est_c = counts @ basis.eigenvalues[j, basis.cells(j)] / m / norms[j]
        est_g = (mean[j] + sd[j] * rng.standard_normal(replications)) / norms[j]
        err_counts[:, j] = (est_c - alpha[j]) ** 2
        err_gauss[:, j] = (est_g - alpha[j]) ** 2
    risk_c = err_counts.sum(axis=1)
    risk_g = err_gauss.sum(axis=1)
    diff = risk_c - risk_g
    gap_se = float(diff.std(ddof=1) / np.sqrt(replications))
    return {
        "m": m,
        "replications": replications,
        "per_j_sq_error_counts": err_counts.mean(axis=0).tolist(),
        "per_j_sq_error_gaussian": err_gauss.mean(axis=0).tolist(),
        "risk_counts": float(risk_c.mean()),
        "risk_gaussian": float(risk_g.mean()),
        "gap": float(abs(diff.mean())),
        "gap_se": gap_se,
    }


def estimator_transfer_sweep(rho, basis, m_grid, seed: int, replications: int) -> dict:
    """Run the transfer comparison across a grid of m, each an integer >= 1; check the
    gap shrinks."""
    m_grid = [_checked_integer("m_grid", m, 1) for m in m_grid]
    sweep = [estimator_transfer(rho, basis, m, seed, replications) for m in m_grid]
    monotone = all(
        sweep[i + 1]["gap"] <= sweep[i]["gap"] + sweep[i]["gap_se"] + sweep[i + 1]["gap_se"]
        for i in range(len(sweep) - 1))
    return {"sweep": sweep, "monotone": bool(monotone)}
