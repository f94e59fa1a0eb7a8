"""Reference computations the tests check the package against.

Each one recomputes a property the package's constructions must have, by a
route of its own: the multinomial pmf through conditional binomials and as
``gammaln`` reductions over whole rows, the Hellinger quadrature's lattice
window cell by cell and the exact Mahalanobis distance of a cell, the
Hellinger distance for 2 and 3 cells with the last axis integrated exactly,
the total variation distance for 2 cells exactly, the two dataset translations one record at a time, class membership of a
sampled state, orthogonality and Pauli projection traces of a family, a
matrix rebuilt from its spectral decomposition, each member's spectrum on its
own, the active index sets, cell probabilities and coarse moments one member
at a time.  ``custom_basis`` wraps an explicit matrix list as a family.
"""

import itertools
import math

import numpy as np
from scipy import stats as sps
from scipy.special import gammaln, ndtr

from tomolab.bases import _make_basis, build_basis
from tomolab.diagnostics import ActiveIndexReport
from tomolab.errors import TomolabError
from tomolab.hermitian import hs_inner, require_hermitian, trace_product
from tomolab.measurement import ACTIVE_TOL, PROB_CLAMP, _active_cells
from tomolab.regression import VARIANCE_FLOOR
from tomolab.rng import TRANSLATE, record_blocks
from tomolab.states import DENSITY_TOL, DensityMatrix


def multinomial_pmf_chain(counts, m: int, theta) -> float:
    """The multinomial pmf through the conditional-binomial factorization.

    Cell j, given the earlier cells, is binomial with the remaining trials
    and success probability theta_j renormalized by the remaining mass; the
    last cell is deterministic.
    """
    counts = np.asarray(counts, dtype=np.int64)
    theta = np.asarray(theta, dtype=float)
    r = len(theta)
    if counts.sum() != m or np.any(counts < 0):
        return 0.0
    log_p = 0.0
    remaining_trials = m
    remaining_mass = 1.0
    for j in range(r - 1):
        beta = theta[j] / remaining_mass if remaining_mass > 0 else 0.0
        u = int(counts[j])
        if beta <= 0.0:
            if u:
                return 0.0
        elif beta >= 1.0:
            if u != remaining_trials:
                return 0.0
        else:
            log_p += (gammaln(remaining_trials + 1) - gammaln(u + 1)
                      - gammaln(remaining_trials - u + 1)
                      + u * math.log(beta) + (remaining_trials - u) * math.log1p(-beta))
        remaining_trials -= u
        remaining_mass -= theta[j]
    return math.exp(log_p)


def multinomial_pmf_gammaln(counts, m: int, theta) -> np.ndarray:
    """The multinomial pmf as ``gammaln`` sums over the last axis, with
    ``np.where`` masks for negative counts, wrong sums and cells of theta = 0;
    the bit-exact reference for ``equivalence.multinomial_pmf``."""
    counts = np.asarray(counts, dtype=float)
    theta = np.asarray(theta, dtype=float)
    scalar = counts.ndim == 1
    if scalar:
        counts = counts[None, :]
    valid = np.all(counts >= 0, axis=-1) & (np.abs(counts.sum(axis=-1) - m) < 0.5)
    safe = np.where(counts < 0, 0.0, counts)
    # a cell with theta = 0 forms 0 * -inf, and a wrong sum may overflow exp; both are masked
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        log_theta = np.log(theta)
        terms = np.where((safe == 0) & (theta == 0.0)[None, :], 0.0, safe * log_theta[None, :])
        log_pmf = gammaln(m + 1) - gammaln(safe + 1).sum(axis=-1) + terms.sum(axis=-1)
        valid &= ~np.any((safe > 0) & (theta == 0.0)[None, :], axis=-1)
        out = np.where(valid, np.exp(log_pmf), 0.0)
    return float(out[0]) if scalar else out


def _matched_normal(m: int, theta) -> tuple:
    theta = np.asarray(theta, dtype=float)
    dim = len(theta) - 1
    return m * theta[:dim], m * (np.diag(theta[:dim]) - np.outer(theta[:dim], theta[:dim]))


def lattice_box(m: int, theta, radius: float, pad: int = 0) -> np.ndarray:
    """Integer centres (first r - 1 counts) of the box |c_a - mu_a| <= radius
    sd_a + 1/2 + pad around the matched normal's mean, one cell at a time."""
    mu, cov = _matched_normal(m, theta)
    reach = radius * np.sqrt(np.diag(cov)) + 0.5 + pad
    axes = (range(math.ceil(lo), math.floor(hi) + 1) for lo, hi in zip(mu - reach, mu + reach))
    return np.array(list(itertools.product(*axes)), dtype=float).reshape(-1, len(mu))


def ellipsoid_window(m: int, theta, radius: float) -> np.ndarray:
    """The Hellinger quadrature's window, cell by cell: the centres of
    ``lattice_box`` whose Mahalanobis length under the matched normal is at
    most radius + delta, delta = sqrt(r - 1) / 2 over the square root of the
    covariance's smallest eigenvalue (the longest half cell diagonal)."""
    mu, cov = _matched_normal(m, theta)
    limit = (radius + 0.5 * math.sqrt(len(mu) / np.linalg.eigvalsh(cov)[0])) ** 2
    cells = [c for c in lattice_box(m, theta, radius)
             if (c - mu) @ np.linalg.solve(cov, c - mu) <= limit]
    return np.array(cells, dtype=float).reshape(-1, len(mu))


def hellinger_ndtr(m: int, theta, radius: float = 12.0, order: int = 10) -> float:
    """H between the perturbed counts and the matched normal for 2 or 3 cells,
    from the affinity BC = sum_c sqrt(f_c) (integral of sqrt g over cell c)
    with f from ``scipy.stats.multinomial``.  sqrt g is (8 pi)^(dim/4)
    det(cov)^(1/4) times the N(mu, 2 cov) density, so each cell integral is a
    normal probability: exact by ``ndtr`` on the last axis, given the first;
    on the first axis of 3 cells, ``order``-point Gauss-Legendre on pieces of
    each cell no wider than an eighth of the smallest scale the integrand
    varies on (the marginal sd, or the conditional sd over the slope of the
    conditional mean).  The cells are those of the simplex within Mahalanobis
    distance ``radius`` + delta of the mean, which leave out less than
    sqrt(Q mass outside E(radius)) of BC."""
    theta = np.asarray(theta, dtype=float)
    mu, cov = _matched_normal(m, theta)
    dim = len(mu)
    if dim not in (1, 2):
        raise ValueError("the ndtr oracle covers 2 and 3 cells")
    cov2 = 2.0 * cov
    cells = lattice_box(m, theta, radius)
    limit = (radius + 0.5 * math.sqrt(dim / np.linalg.eigvalsh(cov)[0])) ** 2
    z = cells - mu
    keep = (np.einsum("nd,de,ne->n", z, np.linalg.inv(cov), z) <= limit)
    keep &= np.all(cells >= 0, axis=1) & (cells.sum(axis=1) <= m)
    cells = cells[keep]
    full = np.concatenate([cells, m - cells.sum(axis=1, keepdims=True)], axis=1)
    sqrt_f = np.sqrt(sps.multinomial.pmf(full.astype(np.int64), m, theta))

    def interval(lo, hi, mean, sd):
        """P(lo <= X <= hi) for X ~ N(mean, sd^2), subtracting upper or lower tails."""
        a, b = (lo - mean) / sd, (hi - mean) / sd
        return np.where(a > 0, ndtr(-a) - ndtr(-b), ndtr(b) - ndtr(a))

    if dim == 1:
        probs = interval(cells[:, 0] - 0.5, cells[:, 0] + 0.5, mu[0], math.sqrt(cov2[0, 0]))
    else:
        s1 = math.sqrt(cov2[0, 0])
        slope = cov2[0, 1] / cov2[0, 0]
        s_cond = math.sqrt(cov2[1, 1] - cov2[0, 1] * slope)
        scale = min(s1, s_cond / abs(slope)) if slope else s1
        pieces = max(1, math.ceil(8.0 / scale))
        x, w = np.polynomial.legendre.leggauss(order)
        offsets = ((np.arange(pieces)[:, None] + (x + 1) / 2) / pieces - 0.5).ravel()
        weights = np.tile(w / (2 * pieces), pieces)
        probs = np.empty(len(cells))
        step = 4096  # cells per block, to keep the (cells, nodes) arrays small
        for lo in range(0, len(cells), step):
            c = cells[lo:lo + step]
            t = c[:, :1] + offsets
            density = np.exp(-0.5 * ((t - mu[0]) / s1) ** 2) / (s1 * math.sqrt(2 * math.pi))
            mean = mu[1] + slope * (t - mu[0])
            inner = interval(c[:, 1:] - 0.5, c[:, 1:] + 0.5, mean, s_cond)
            probs[lo:lo + step] = (density * inner) @ weights
    const = (8 * math.pi) ** (dim / 4) * np.linalg.det(cov) ** 0.25
    bc = const * math.fsum(sqrt_f * probs)
    return math.sqrt(max(2.0 - 2.0 * bc, 0.0))


def tv_two_cell(m: int, theta) -> float:
    """TV between the perturbed counts and the matched normal for 2 cells,
    exactly.  On the unit cell of count c, f_c - g >= 0 exactly where
    |x - mu| >= t_c, with g(mu + t_c) = f_c (t_c = 0 when f_c is at least the
    normal's peak), so the cell adds f_c times the length of that part of the
    cell minus its normal probability, each an ``ndtr`` difference."""
    mu, cov = _matched_normal(m, theta)
    mu, sd = mu[0], math.sqrt(cov[0, 0])
    counts = np.arange(m + 1)
    f = sps.binom.pmf(counts, m, theta[0])
    log_ratio = np.log(f * sd * math.sqrt(2 * math.pi), where=f > 0, out=np.zeros(m + 1))
    t = np.sqrt(np.maximum(-2.0 * log_ratio, 0.0)) * sd
    terms = []
    for lo, hi, f_c, t_c in zip(counts - 0.5, counts + 0.5, f, t):
        for a, b in ((lo, min(hi, mu - t_c)), (max(lo, mu + t_c), hi)):
            if a < b:
                # upper-tail differences right of the mean keep their digits
                mass = (ndtr((mu - a) / sd) - ndtr((mu - b) / sd) if a > mu
                        else ndtr((b - mu) / sd) - ndtr((a - mu) / sd))
                terms.append(f_c * (b - a) - mass)
    return math.fsum(terms)


def cell_min_mahalanobis_sq(m: int, theta, centres) -> np.ndarray:
    """min over each unit cell c + [-1/2, 1/2]^(r-1) of (x - mu)' cov^-1 (x - mu),
    exactly: the minimiser of a convex quadratic over a box is the free
    minimiser on one of its faces, so every face (each coordinate at -1/2,
    at +1/2 or free) is solved and the feasible values compared."""
    mu, cov = _matched_normal(m, theta)
    prec = np.linalg.inv(cov)
    centres = np.asarray(centres, dtype=float)
    best = np.full(len(centres), np.inf)
    for face in itertools.product((-0.5, None, 0.5), repeat=len(mu)):
        fixed = [a for a, o in enumerate(face) if o is not None]
        free = [a for a, o in enumerate(face) if o is None]
        z = centres - mu
        z[:, fixed] += [face[a] for a in fixed]
        if free:
            # stationary in the free coordinates: P_ff z_f = -P_fx z_x
            rhs = -z[:, fixed] @ prec[np.ix_(fixed, free)]
            z[:, free] = np.linalg.solve(prec[np.ix_(free, free)], rhs.T).T
        offset = z + mu - centres
        ok = np.all(np.abs(offset) <= 0.5 + 1e-12, axis=1)
        q = np.einsum("nd,de,ne->n", z, prec, z)
        best = np.where(ok & (q < best), q, best)
    return best


def reconstruct(eigenvalues, projections) -> np.ndarray:
    """Sum of the eigenvalue-weighted projections of a spectral decomposition."""
    d = projections[0].shape[0]
    out = np.zeros((d, d), dtype=complex)
    for lam, proj in zip(eigenvalues, projections):
        out += lam * proj
    return out


def member_spectrum(mat, cluster_tol: float = 1e-9) -> tuple:
    """(distinct eigenvalues, eigenspace projections) of one Hermitian matrix,
    descending, by a route of its own: eigenvalues within ``cluster_tol``
    times the spectral norm (at least 1) of the previous one are merged, and
    each projection is the sum of the rank-one projectors of its merged
    eigenvectors.  None for a matrix that is not Hermitian."""
    mat = np.asarray(mat, dtype=complex)
    if np.max(np.abs(mat - mat.conj().T)) > 1e-9:
        return None
    evals, evecs = np.linalg.eigh(mat)
    gap = cluster_tol * max(float(np.max(np.abs(evals))), 1.0)
    groups = [[0]]
    for i in range(1, len(evals)):
        if evals[i] - evals[groups[-1][0]] > gap:
            groups.append([])
        groups[-1].append(i)
    groups.reverse()
    eigenvalues = np.array([evals[g].mean() for g in groups])
    projections = [sum(np.outer(evecs[:, i], evecs[:, i].conj()) for i in g) for g in groups]
    return eigenvalues, projections


# --- translations, one record at a time -----------------------------------------


def translate_per_record(dataset, seed: int) -> tuple:
    """K0 translation (indices, ys) record by record: a record of r >= 2 cells
    gets the next r - 1 uniforms of its block's flat draw on its first r - 1
    cells, and its last cell restores the sum m."""
    m, ys = dataset.m, []
    for lo, hi, rng in record_blocks(seed, TRANSLATE, len(dataset.counts)):
        block = dataset.counts[lo:hi]
        sizes = [len(u) - 1 for u in block]
        psi = rng.uniform(-0.5, 0.5, size=sum(sizes))
        end = 0
        for u, size in zip(block, sizes):
            end += size
            vals = u.astype(float)
            if size:
                vals[:size] += psi[end - size:end]
                vals[size] = m - vals[:size].sum()
            ys.append(vals / m)
    return dataset.indices, ys


def _round_off_one(values, m: int) -> np.ndarray:
    """K1 on one vector; ArithmeticError when an implied count is negative."""
    head = (np.sign(values[:-1]) * np.floor(np.abs(values[:-1]) + 0.5)).astype(np.int64)
    last = m - int(head.sum())
    if np.any(head < 0) or last < 0:
        raise ArithmeticError(f"implied counts {list(head) + [last]} contain a negative entry")
    return np.append(head, last)


def round_off_per_record(samples, m: int) -> tuple:
    """K1 translation record by record, as (kept indices, kept counts, dropped)."""
    indices, ys = samples
    kept, counts = [], []
    for k, y in enumerate(ys):
        try:
            counts.append(_round_off_one(m * y, m))
        except ArithmeticError:
            continue
        kept.append(k)
    return np.asarray(indices)[kept], counts, len(ys) - len(kept)


# --- families ------------------------------------------------------------------


def custom_basis(matrices, cluster_tol: float = 1e-9):
    """Wrap an explicit matrix list; non-Hermitian members get no cells (masking only)."""
    return _make_basis(matrices, cluster_tol, "custom")


def verify_orthogonal(basis) -> dict:
    """Largest |<B_j, B_j'>| over pairs j != j' and the norms <B_j, B_j>; passes iff <= 1e-9."""
    gram = np.abs([[hs_inner(a, b) for b in basis.matrices] for a in basis.matrices])
    worst = float(np.max(gram - np.diag(np.diag(gram))))
    return {"max_off_diagonal": worst, "diagonal_norms": np.diag(gram), "passed": worst <= 1e-9}


def pauli_projection_traces(basis) -> dict:
    """Projection traces and cross-traces of the Pauli family.

    For every non-identity member j the two projections satisfy
    tr(Q_j+-) = d/2 and tr(B_j Q_j+-) = +-d/2, and tr(B_j' Q_j+-) = 0 for any
    other non-identity j'.  Returns the full table plus worst-case deviations.
    """
    if basis.kind != "pauli":
        raise TomolabError("projection-trace table is defined for the pauli family")
    half = basis.dim / 2
    others = range(1, basis.size)
    stack = np.stack([basis.matrices[j] for j in others])
    rows = []
    for pos, j in enumerate(others):
        q_plus, q_minus = basis.projections[basis.cells(j)]
        cross = np.abs(np.einsum("kab,qba->qk", stack, np.stack([q_plus, q_minus])))
        rows.append({
            "j": j,
            "tr_Q_plus": np.trace(q_plus).real,
            "tr_Q_minus": np.trace(q_minus).real,
            "tr_BQ_plus": trace_product(basis.matrices[j], q_plus).real,
            "tr_BQ_minus": trace_product(basis.matrices[j], q_minus).real,
            "max_cross_trace": float(np.delete(cross, pos, axis=1).max(initial=0.0)),
        })
    dev_proj = max(max(abs(r["tr_Q_plus"] - half), abs(r["tr_Q_minus"] - half)) for r in rows)
    dev_self = max(max(abs(r["tr_BQ_plus"] - half), abs(r["tr_BQ_minus"] + half)) for r in rows)
    dev_cross = max(r["max_cross_trace"] for r in rows)
    return {
        "rows": rows,
        "max_projection_trace_dev": dev_proj,
        "max_self_trace_dev": dev_self,
        "max_cross_trace": dev_cross,
        "passed": max(dev_proj, dev_self, dev_cross) <= 1e-9,
    }


def active_index_set_per_member(rho, basis, tol: float = ACTIVE_TOL) -> ActiveIndexReport:
    """The active index sets member by member, each cell trace through one
    ``trace_product`` per row of the member's slice of the projection array."""
    mat = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho)
    per_j, cards, meas = [], [], []
    t_min, t_max = np.inf, -np.inf
    for j in range(basis.size):
        if not basis.sizes[j]:
            per_j.append(())
            cards.append(0)
            meas.append(False)
            continue
        traces = np.array([trace_product(q, mat).real for q in basis.projections[basis.cells(j)]])
        idx = tuple(int(a) for a in _active_cells(traces, tol))
        if idx:
            t_min = min(t_min, float(traces[list(idx)].min()))
            t_max = max(t_max, float(traces[list(idx)].max()))
        per_j.append(idx)
        cards.append(len(idx))
        meas.append(True)
    return ActiveIndexReport(
        per_j=tuple(per_j),
        cardinalities=np.array(cards),
        measurable=np.array(meas, dtype=bool),
        tol=tol,
        active_traces_min=None if np.isinf(t_min) else t_min,
        active_traces_max=None if t_max < 0 else t_max,
    )


def cell_probabilities_per_member(rho, basis, j: int) -> np.ndarray:
    """Member j's cell probabilities on their own: one ``trace_product`` per
    row of its slice of the projection array, the escape check, the clip, and
    division by the 1-D sum of its own law."""
    mat = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho)
    theta = np.array([trace_product(q, mat).real for q in basis.projections[basis.cells(j)]])
    if np.any(theta < -PROB_CLAMP) or np.any(theta > 1 + PROB_CLAMP):
        raise ValueError(f"cell probabilities escape [0,1]: {theta}")
    theta = np.clip(theta, 0.0, 1.0)
    total = theta.sum()
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"cell probabilities sum to {total}, not 1")
    return theta / total


def coarse_moments_per_member(rho, b_mat) -> tuple:
    """(tr(B rho), floored tr(B^2 rho) - tr(B rho)^2) of one Hermitian matrix B."""
    mat = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho)
    b_mat = require_hermitian(b_mat)
    first = trace_product(b_mat, mat).real
    var = trace_product(b_mat @ b_mat, mat).real - first * first
    return first, (var if var >= VARIANCE_FLOOR else 0.0)


# --- state classes ---------------------------------------------------------------


def pauli_coefficients(rho, basis=None) -> np.ndarray:
    """Expansion coefficients alpha_j = tr(rho B_j)/d under the Pauli family."""
    mat = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho)
    d = mat.shape[0]
    basis = basis if basis is not None else build_basis("pauli", d)
    return np.array([trace_product(b, mat).real / d for b in basis.matrices])


def class_membership(rho, spec, d: int = None, tol: float = DENSITY_TOL) -> dict:
    """Check the defining property of ``spec`` against ``rho``.

    Returns a report dict with a boolean ``member`` plus the measured
    quantity (entry count, coefficient count, rank, or per-vector supports).
    """
    mat = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho)
    d = mat.shape[0] if d is None else d
    if spec.class_name == "entry_sparse":
        count = int(np.sum(np.abs(mat) > tol))
        return {"member": count <= spec.s, "nonzero_entries": count, "s": spec.s}
    if spec.class_name == "pauli_sparse":
        alpha = pauli_coefficients(mat)
        count = int(np.sum(np.abs(alpha) > tol))
        return {"member": count <= spec.s, "nonzero_coefficients": count, "s": spec.s}
    if spec.class_name == "low_rank":
        rank = int(np.sum(np.linalg.eigvalsh(mat) > tol))
        return {"member": rank <= spec.r, "rank": rank, "r": spec.r}
    if spec.class_name == "low_rank_sparse_vec":
        return _sparse_vec_membership(mat, spec, d, tol)
    raise ValueError(f"unknown state class {spec.class_name!r}")


def _sparse_vec_membership(mat, spec, d, tol) -> dict:
    g = np.asarray(spec.g_vectors, dtype=float) if spec.g_vectors is not None else np.eye(d)
    evals, evecs = np.linalg.eigh(mat)
    active = [i for i in range(d) if evals[i] > tol]
    if len(active) > spec.r:
        return {"member": False, "rank": len(active), "r": spec.r}
    supports = []
    ok = True
    for i in active:
        coeff = g.T @ evecs[:, i]
        best = _sparsest_phase_supports(coeff, tol)
        supports.append(best)
        if max(best) > spec.gamma:
            ok = False
    return {"member": ok, "rank": len(active), "r": spec.r,
            "gamma": spec.gamma, "part_supports": supports}


def _sparsest_phase_supports(coeff: np.ndarray, tol: float):
    """Smallest (re, im) support sizes of exp(i phi) * coeff over candidate phases.

    Eigenvectors are recovered only up to a global phase; candidate phases
    align each nonzero coordinate with the real or imaginary axis.
    """
    nz = np.abs(coeff) > tol
    candidates = [0.0]
    for c in coeff[nz]:
        candidates.append(-np.angle(c))
        candidates.append(-np.angle(c) + np.pi / 2)
    best = (np.inf, np.inf)
    for phi in candidates:
        rotated = np.exp(1j * phi) * coeff
        n_re = int(np.sum(np.abs(rotated.real) > tol))
        n_im = int(np.sum(np.abs(rotated.imag) > tol))
        if max(n_re, n_im) < max(best) or (max(n_re, n_im) == max(best) and n_re + n_im < sum(best)):
            best = (n_re, n_im)
    return best
