"""Reference computations the tests check the package against.

Each one recomputes a property the package's constructions must have, by a
route of its own: one trace tr(a b) at a time, the multinomial pmf through conditional binomials and as
``gammaln`` reductions over whole rows, its log in long double from 30-digit
mpmath log-factorials, the Hellinger quadrature's lattice
window cell by cell and the exact Mahalanobis distance of a cell, the
Hellinger distance for 2 and 3 cells with the last axis integrated exactly,
the total variation distance for 2 cells exactly, the two dataset translations one record at a time, class membership of a
sampled state, orthogonality and Pauli projection traces of a family, a
matrix rebuilt from its spectral decomposition, each member's spectrum on its
own, the Pauli members as ``np.kron`` chains, the other families' members, the
Haar vectors, a family's spectral tables (the clustering rule walked one
eigenvalue at a time) and the fine noise factors one member at a time, the
Hilbert-Schmidt inner product of one pair, the active index sets, cell
probabilities and coarse moments one member at a time, and every table
written one ``csv.writer`` row at a time (with two tomography tables compared
field by field, N to a tolerance).
``custom_basis`` wraps an explicit matrix list as a family.
"""

import csv
import functools
import itertools
import math

import mpmath
import numpy as np
from scipy import stats as sps
from scipy.special import gammaln, ndtr

from tomolab.bases import SIGMA, _make_basis, build_basis, default_g_vectors
from tomolab.errors import TomolabError
from tomolab.hermitian import CLUSTER_TOL, TOL_HERM
from tomolab.measurement import PROB_CLAMP, _active_mask
from tomolab.rng import TRANSLATE, record_blocks
from tomolab.states import DENSITY_TOL, DensityMatrix


def trace_product(a: np.ndarray, b: np.ndarray) -> complex:
    """tr(a @ b) without forming the product matrix; ``hermitian.stack_traces``
    reproduces its real part bit for bit (the same d*d products summed in the
    same order) for every matrix of a stack."""
    if a.shape[1] != b.shape[0]:
        raise TomolabError(f"shapes {a.shape} and {b.shape} cannot be multiplied")
    return complex(np.sum(a * b.T))


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
    """The Hellinger quadrature's window, by one linear solve over the whole box:
    the centres of ``lattice_box`` whose Mahalanobis length under the matched
    normal is at most radius + delta, delta = sqrt(r - 1) / 2 over the square
    root of the covariance's smallest eigenvalue (the longest half cell diagonal)."""
    mu, cov = _matched_normal(m, theta)
    limit = (radius + 0.5 * math.sqrt(len(mu) / np.linalg.eigvalsh(cov)[0])) ** 2
    box = lattice_box(m, theta, radius)
    diff = box - mu
    return box[np.einsum("ij,ji->i", diff, np.linalg.solve(cov, diff.T)) <= limit]


def _long_double(x) -> np.longdouble:
    """An mpmath number as a long double, from its leading two float64 parts."""
    hi = float(x)
    return np.longdouble(hi) + np.longdouble(float(x - hi))


@functools.cache
def log_factorials_30_digits(m: int) -> np.ndarray:
    """log k! for k = 0..m from ``mpmath.loggamma`` at 30 digits, as long doubles."""
    with mpmath.workdps(30):
        return np.array([_long_double(mpmath.loggamma(k + 1)) for k in range(m + 1)],
                        dtype=np.longdouble)


def multinomial_log_pmf_long(counts, m: int, theta) -> np.ndarray:
    """The multinomial log pmf at nonnegative integer rows ``counts`` summing to m,
    theta positive, in long double: log k! and log theta_a from mpmath at 30 digits,
    summed in long double, so each row is off by far less than one float64 ulp of
    log m!, which is what any float64 log pmf may be off by."""
    counts = np.asarray(counts, dtype=np.int64)
    log_fact = log_factorials_30_digits(m)
    with mpmath.workdps(30):
        log_theta = np.array([_long_double(mpmath.log(t)) for t in np.asarray(theta, float)],
                             dtype=np.longdouble)
    return log_fact[m] - log_fact[counts].sum(axis=-1) + (counts * log_theta).sum(axis=-1)


def hellinger_ndtr(m: int, theta, radius: float = 12.0, order: int = 10) -> float:
    """H between the perturbed counts and the matched normal for 2 or 3 cells,
    from the affinity BC = sum_c sqrt(f_c) (integral of sqrt g over cell c)
    with f from :func:`multinomial_log_pmf_long`.  sqrt g is (8 pi)^(dim/4)
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
    sqrt_f = np.exp(0.5 * multinomial_log_pmf_long(full, m, theta))

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


def member_eigenspaces(evals: np.ndarray, evecs: np.ndarray) -> tuple:
    """The clustering rule on one member's ascending ``eigh`` output, walked one
    eigenvalue at a time: (distinct eigenvalues, eigenvector blocks), descending.

    Eigenvalues within ``CLUSTER_TOL`` times max(spectral norm, 1) of the
    first of their run are merged into one distinct eigenvalue, the mean of
    the merged ones, whose block holds their orthonormal eigenvectors as columns.
    """
    gap = CLUSTER_TOL * float(np.max(np.abs(evals), initial=1.0))
    distinct, blocks = [], []
    start = 0
    d = len(evals)
    for i in range(1, d + 1):
        if i == d or evals[i] - evals[start] > gap:
            blocks.append(evecs[:, start:i])
            distinct.append(float(np.mean(evals[start:i])))
            start = i
    order = np.argsort(distinct)[::-1]
    return np.array([distinct[i] for i in order]), [blocks[i] for i in order]


def spectral_tables_per_member(matrices) -> tuple:
    """(eigenvalues, projections, sizes) of a family built member by member:
    ``eigh`` of one Hermitian member at a time, :func:`member_eigenspaces` on
    its output, each block's V V^dagger by its own matmul into the front-padded
    tables; ``bases`` reproduces them bit for bit with one batched ``eigh``, one
    walk over the eigenvalue columns and one product per run shape."""
    spaces = [member_eigenspaces(*np.linalg.eigh(m))
              if np.max(np.abs(m - m.conj().T)) <= TOL_HERM else ((), ()) for m in matrices]
    sizes = np.array([len(lams) for lams, _ in spaces], dtype=np.int64)
    kappa = int(sizes.max())
    d = len(matrices[0])
    eigenvalues = np.zeros((len(spaces), kappa))
    projections = np.zeros((len(spaces), kappa, d, d), dtype=complex)
    for j, (lams, blocks) in enumerate(spaces):
        eigenvalues[j, kappa - len(lams):] = lams
        for block, slot in zip(blocks, projections[j, kappa - len(lams):]):
            np.matmul(block, block.conj().T, out=slot)
    return eigenvalues, projections, sizes


def family_members_per_member(kind: str, d: int, g_vectors=None) -> np.ndarray:
    """The (d*d, d, d) members of a canonical, hermitian or gvector family built
    one at a time, member (l1, l2) at row (l1 - 1) d + l2 - 1: canonical the
    outer product of two unit vectors, the others from the matmul outer
    products of the two axis columns; ``bases`` builds them all at once."""
    eye = np.eye(d, dtype=complex)
    axes = eye if g_vectors is None else np.asarray(g_vectors, dtype=float).astype(complex)
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    mats = []
    for l1, l2 in itertools.product(range(d), repeat=2):
        u, v = axes[:, l1][:, None], axes[:, l2][:, None]
        if kind == "canonical":
            mats.append(np.outer(eye[:, l1], eye[:, l2]))
        elif l1 == l2:
            mats.append(u @ u.conj().T)
        elif l1 < l2:
            mats.append(inv_sqrt2 * (u @ v.conj().T + v @ u.conj().T))
        else:
            mats.append(1j * inv_sqrt2 * (u @ v.conj().T - v @ u.conj().T))
    return np.stack(mats)


def haar_vectors_per_column(d: int) -> np.ndarray:
    """The Haar wavelet basis of R^d (d = 2^b) one column at a time: the constant
    vector, then at each level each step wavelet divided by its own norm."""
    cols = [np.full(d, 1.0 / np.sqrt(d))]
    width = d // 2
    while width:
        for start in range(0, d, 2 * width):
            v = np.zeros(d)
            v[start:start + width] = 1.0
            v[start + width:start + 2 * width] = -1.0
            cols.append(v / np.linalg.norm(v))
        width //= 2
    return np.stack(cols, axis=1)


def pauli_member_kron(j: int, b: int) -> np.ndarray:
    """Member j of the Pauli family on b tensor slots as a left-to-right chain
    of ``np.kron`` calls over the base-4 digits of j, most significant first."""
    digits = [j // 4 ** t % 4 for t in range(b - 1, -1, -1)]
    out = SIGMA[digits[0]]
    for digit in digits[1:]:
        out = np.kron(out, SIGMA[digit])
    return out


def fine_factor(theta, m: int, width: int) -> np.ndarray:
    """One member's fine factor F (cells x width), theta its cell law: the
    Cholesky factor of the covariance (diag(theta) - theta theta')/m of all
    but the last active cell, minus its column sums on the last active cell,
    zero elsewhere and with fewer than two active cells."""
    theta = np.asarray(theta, dtype=float)
    factor = np.zeros((len(theta), width))
    active = np.flatnonzero(_active_mask(theta))
    q = len(active)
    if q < 2:
        return factor
    th = theta[active]
    chol = np.linalg.cholesky((np.diag(th) - np.outer(th, th))[:q - 1, :q - 1] / m)
    factor[active[:-1], :q - 1] = chol
    factor[active[-1], :q - 1] = -chol.sum(axis=0)
    return factor


# --- translations, one record at a time -----------------------------------------


def record_tails(basis, indices, table) -> list:
    """Row k of a front-padded per-record ``table`` cut to the cells of its
    member ``indices[k]``: the per-record vectors the oracles below take."""
    return [row[basis.kappa - basis.sizes[j]:] for j, row in zip(indices, table)]


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


# --- tables, one csv.writer row per record -------------------------------------


def _fmt(x) -> str:
    return format(float(x), ".17g")


def write_table_rows(path, header, rows) -> None:
    """``header`` (None for none), then ``rows``, through ``csv.writer``."""
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        if header is not None:
            writer.writerow(header)
        writer.writerows(rows)


def write_dataset_rows(dataset, basis, path) -> None:
    """tomography.csv: k, j, m, "U_1|U_2|...", N, the mean outcome summed cell by cell."""
    write_table_rows(path, ["k", "j", "m", "counts", "N"], (
        [k, j, dataset.m, "|".join(map(str, counts.tolist())),
         _fmt(sum(lam * u for lam, u in zip(basis.eigenvalues[j, basis.cells(j)].tolist(),
                                            counts.tolist())) / dataset.m)]
        for k, (j, counts) in enumerate(zip(dataset.indices.tolist(),
                                            record_tails(basis, dataset.indices, dataset.counts)))))


def dataset_row_mismatches(ours, reference, basis) -> list:
    """Line numbers where two tomography.csv files differ, in any field but N
    byte for byte, and in N by more than 1e-12 * max(1, max |lambda|): the
    reference sums N cell by cell and the package's writer does not, so on
    some bases the two N differ in their last digits."""
    tol = 1e-12 * max(1.0, np.abs(basis.eigenvalues).max())

    def same(a, b):
        a, b = a.split(b","), b.split(b",")
        return a == b or (len(a) == len(b) == 5 and a[:4] == b[:4]
                          and abs(float(a[4]) - float(b[4])) <= tol)

    lines = [path.read_bytes().split(b"\r\n") for path in (ours, reference)]
    return [k for k, (a, b) in enumerate(itertools.zip_longest(*lines, fillvalue=b""))
            if not same(a, b)]


def write_individuals_rows(outcomes, path) -> None:
    """individuals.csv: one outcome per column, no header."""
    write_table_rows(path, None, ([_fmt(x) for x in row] for row in outcomes))


def write_coarse_rows(samples, path) -> None:
    """coarse.csv: k, j, Y."""
    indices, values = samples
    write_table_rows(path, ["k", "j", "Y"], (
        [k, j, _fmt(v)] for k, (j, v) in enumerate(zip(indices.tolist(), values))))


def write_fine_rows(samples, basis, path) -> None:
    """fine.csv and translated_fine.csv: k, j, "y_1|y_2|..."."""
    indices, table = samples
    write_table_rows(path, ["k", "j", "y"], (
        [k, j, "|".join(map(_fmt, y))]
        for k, (j, y) in enumerate(zip(indices.tolist(), record_tails(basis, indices, table)))))


# --- families ------------------------------------------------------------------


def custom_basis(matrices):
    """Wrap an explicit matrix list; non-Hermitian members get no cells (masking only)."""
    return _make_basis(matrices, "custom")


def hs_inner(a1: np.ndarray, a2: np.ndarray) -> complex:
    """Hilbert-Schmidt inner product tr(a2^dagger a1) of one pair; the norms of
    ``regression.estimator_transfer`` are hs_inner(b, b).real bit for bit."""
    a1 = np.asarray(a1)
    a2 = np.asarray(a2)
    if a1.shape != a2.shape:
        raise TomolabError(f"shapes {a1.shape} and {a2.shape} differ")
    return complex(np.sum(a2.conj() * a1))


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
        q_plus, q_minus = basis.projections[j, basis.cells(j)]
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


def active_index_set_per_member(rho, basis) -> np.ndarray:
    """The active-trace table member by member: in row j, one ``trace_product``
    per slot of ``cells(j)`` where the active rule holds, exact 0 elsewhere."""
    mat = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho)
    table = np.zeros((basis.size, basis.kappa))
    for j in range(basis.size):
        slots = basis.cells(j)
        traces = np.array([trace_product(q, mat).real for q in basis.projections[j, slots]])
        table[j, slots] = np.where(_active_mask(traces), traces, 0.0)
    return table


def cell_probabilities_per_member(rho, basis, j: int) -> np.ndarray:
    """Member j's cell probabilities on their own: one ``trace_product`` per
    slot of ``cells(j)`` in row j of the projection table, the escape check,
    the clip, and division by the 1-D sum of its own law."""
    mat = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho)
    theta = np.array([trace_product(q, mat).real for q in basis.projections[j, basis.cells(j)]])
    if np.any(theta < -PROB_CLAMP) or np.any(theta > 1 + PROB_CLAMP):
        raise ValueError(f"cell probabilities escape [0,1]: {theta}")
    theta = np.clip(theta, 0.0, 1.0)
    total = theta.sum()
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"cell probabilities sum to {total}, not 1")
    return theta / total


def coarse_moments_per_member(rho, basis, j: int) -> tuple:
    """(tr(B rho), tr(B^2 rho) - tr(B rho)^2) of member j, B = B_j: the variance
    clamped at zero, and exactly zero unless member j's own law
    (:func:`cell_probabilities_per_member`) has two active cells."""
    mat = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho)
    b_mat = basis.matrices[j]
    first = trace_product(b_mat, mat).real
    var = trace_product(b_mat @ b_mat, mat).real - first * first
    random = _active_mask(cell_probabilities_per_member(rho, basis, j)).sum() >= 2
    return first, (max(var, 0.0) if random else 0.0)


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
    g = np.asarray(spec.g_vectors if spec.g_vectors is not None else default_g_vectors(d),
                   dtype=float)
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
