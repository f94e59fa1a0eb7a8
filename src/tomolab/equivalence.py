"""Couplings between counted measurements and their Gaussian surrogates.

Two data translations drive everything here:

* ``kernel_K0`` adds independent Uniform(-1/2, 1/2) noise to the first r-1
  coordinates of a count vector and fixes the last by the sum constraint, so
  the discrete law acquires a density;
* ``kernel_K1`` rounds the first r-1 coordinates half-away-from-zero and
  inverts K0 exactly on every count vector.

The perturbed counts have a piecewise-constant joint density on unit cells:
the multinomial pmf of the cell.  Each distance to the moment-matched
multivariate normal on the first r-1 coordinates (the last is the same
deterministic function of the rest under both laws, so the marginal distance
equals the joint one) has one function: ``hellinger_perturbed_vs_gaussian``,
from the Bhattacharyya affinity by per-cell Gauss-Legendre quadrature over the
cells that meet the normal's Mahalanobis ellipsoid, with an error budget and a
vacuous bar for an impossible affinity above 1; and ``tv_perturbed_vs_gaussian``,
total variation by Monte Carlo with a CLT error bar.  A scaling study fits the
log-log slope of the Hellinger distance against the number of repetitions;
with the product rule for squared Hellinger distances over independent records
and the two-stage total variation bound, these are the quantitative
ingredients of the deficiency bounds evaluated in :mod:`tomolab.diagnostics`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaincc, gammaln

from .errors import TomolabError
from .measurement import TomographyDataset, _active_cells, _fmt, _write_table
from .rng import TRANSLATE, TV, record_blocks, substream

__all__ = [
    "DistanceEstimate",
    "ScalingReport",
    "round_half_away",
    "multinomial_pmf",
    "kernel_K0",
    "kernel_K1",
    "translate_qst_to_regression",
    "translate_regression_to_qst",
    "hellinger_perturbed_vs_gaussian",
    "product_hellinger_bound",
    "tv_perturbed_vs_gaussian",
    "conditional_tv_bound",
    "fit_loglog_slope",
    "scaling_study",
    "write_scaling_csv",
    "SLOPE_BAND",
]

SLOPE_BAND = (-0.70, -0.35)
MIN_SCALING_POINTS = 4  # distinct m values a slope fit needs
MAX_QUAD_M = 4096
MAX_QUAD_CELLS = 4
H_MAX = math.sqrt(2.0)  # the Hellinger distance never exceeds sqrt(2)
EPS = np.finfo(float).eps


@dataclass(frozen=True)
class DistanceEstimate:
    value: float
    kind: str                 # "hellinger" | "tv"
    method: str               # "quadrature" | "monte_carlo"
    error_bar: float
    params: dict = field(default_factory=dict)


# Cellwise Gauss-Legendre for the Hellinger integral.  One pass over the
# window W, the cells meeting the Mahalanobis ellipsoid of radius R = WINDOW,
# gives the affinity at ORDER and at COMPARE_ORDER (the order term of the error
# bar, an estimate).  Each flat run of CHUNK_CELLS box cells holds a (kept
# cells x nodes) exponent matrix; 2048 and 4096 gave the least peak memory at
# the 4-cell benchmark.
ORDER, COMPARE_ORDER, WINDOW, CHUNK_CELLS = 5, 3, 8.0, 4096


def round_half_away(x):
    """Round to nearest integer, ties away from zero."""
    x = np.asarray(x, dtype=float)
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


# --- multinomial densities -----------------------------------------------------


def _checked_theta(theta) -> np.ndarray:
    """``theta`` as a float vector; ValueError unless it is a probability vector."""
    theta = np.asarray(theta, dtype=float)
    if theta.ndim != 1 or not np.all(np.isfinite(theta)) or np.any(theta < 0):
        raise ValueError(f"theta must be a finite nonnegative vector, got {theta.tolist()}")
    if abs(theta.sum() - 1.0) > 1e-9:
        raise ValueError(f"theta sums to {theta.sum()!r}, not 1")
    return theta


def multinomial_pmf(counts, m: int, theta) -> np.ndarray:
    """Multinomial pmf at integer vectors ``counts`` (last axis over cells); checks theta.

    The cells are walked one column at a time, left to right, which adds in
    the order a reduction over a row this short does."""
    counts = np.asarray(counts, dtype=float)
    theta = _checked_theta(theta)
    if counts.shape[-1:] != theta.shape:
        raise ValueError(f"counts have {counts.shape[-1:]} cells, theta has {len(theta)}")
    scalar = counts.ndim == 1
    if scalar:
        counts = counts[None, :]
    total, log_fact, terms = (np.zeros(counts.shape[:-1]) for _ in range(3))
    valid = np.ones(counts.shape[:-1], dtype=bool)
    log_theta = np.log(theta, where=theta > 0, out=np.zeros_like(theta))
    for c, t, log_t in zip(np.moveaxis(counts, -1, 0), theta, log_theta):
        total += c
        if t == 0.0:
            valid &= c == 0  # a cell with theta = 0 must carry zero count
            continue
        valid &= c >= 0
        safe = np.maximum(c, 0.0)
        log_fact += gammaln(safe + 1)
        terms += safe * log_t
    valid &= np.abs(total - m) < 0.5
    out = np.exp(gammaln(m + 1) - log_fact + terms, where=valid, out=np.zeros(valid.shape))
    return float(out[0]) if scalar else out


# --- kernels -------------------------------------------------------------------


def _ragged(rows) -> tuple:
    """``rows`` laid end to end, the kernels' layout: (float cells, starts, lengths)."""
    lengths = np.fromiter(map(len, rows), np.int64, len(rows))
    return np.concatenate([np.zeros(0), *rows]), np.cumsum(lengths) - lengths, lengths


def _rows(cells, starts, lengths) -> list:
    return [cells[a:a + k] for a, k in zip(starts.tolist(), lengths.tolist())]


def _perturb(cells, starts, lengths, m: int, rng) -> None:
    """K0 in place on every row of two or more cells: one flat Uniform(-1/2, 1/2)
    draw from ``rng`` on the first r - 1 cells of each, in row order, and the
    last cell restores the sum m."""
    rows = np.flatnonzero(lengths >= 2)
    heads = lengths[rows] - 1
    psi = rng.uniform(-0.5, 0.5, size=heads.sum())
    for k in np.unique(heads):
        sel = heads == k
        head = starts[rows[sel], None] + np.arange(k)
        cells[head] += psi[(np.cumsum(heads) - heads)[sel, None] + np.arange(k)]
        # a (rows, k) block summed along its rows adds each row as a 1-D sum would
        cells[head[:, -1] + 1] = m - cells[head].sum(axis=1)


def _round_off(cells, lengths, m: int) -> tuple:
    """K1 on rows laid end to end from 0: (int64 counts, zero in the rows with a
    negative count, and the mask of the other rows); ValueError unless finite."""
    if not np.all(np.isfinite(cells)):
        raise ValueError("round-off needs finite values")
    row, last = np.repeat(np.arange(len(lengths)), lengths), np.cumsum(lengths) - 1
    counts = round_half_away(cells)
    counts[last] = 0
    # integer-valued, so the sums of the kept rows (at most m) are exact
    counts[last] = m - np.bincount(row, weights=counts, minlength=len(lengths))
    keep = np.bincount(row, weights=counts < 0, minlength=len(lengths)) == 0
    return np.where(keep[row], counts, 0).astype(np.int64), keep


def kernel_K0(counts, m: int, seed) -> np.ndarray:
    """Uniformly perturb a count vector summing to m; the sum stays m exactly.
    A single-cell vector passes through unchanged (as floats).  ValueError
    unless the counts are nonnegative integers summing to m."""
    vals = np.array(counts, dtype=float)
    if not (np.all((vals >= 0) & (vals == np.floor(vals))) and vals.sum() == m):  # NaN, inf fail too
        raise ValueError(f"counts {vals.tolist()} are not nonnegative integers summing to m = {m}")
    rng = seed if isinstance(seed, np.random.Generator) else substream(seed)
    _perturb(vals, np.zeros(1, np.int64), np.array([len(vals)]), m, rng)
    return vals


def kernel_K1(values, m: int) -> np.ndarray:
    """Round off a perturbed vector back to counts; inverts :func:`kernel_K0`.  Raises
    TomolabError on a negative implied count (out-of-model), ValueError unless finite."""
    values = np.asarray(values, dtype=float)
    counts, keep = _round_off(values, np.array([len(values)]), m)
    if not keep[0]:
        raise TomolabError(f"values {values.tolist()} imply a negative count")
    return counts


def translate_qst_to_regression(dataset: TomographyDataset, seed: int) -> tuple:
    """Map counted measurements to fine-regression shape via y* = K0(U)/m, as
    (indices, ys).  As in :func:`kernel_K0`, every record of two or more cells
    is perturbed.  Each block of records draws its uniforms in one call
    (family ``TRANSLATE``), flat: the first r - 1 cells of each such record."""
    cells, starts, lengths = _ragged(dataset.counts)
    for lo, hi, rng in record_blocks(seed, TRANSLATE, len(starts)):
        _perturb(cells, starts[lo:hi], lengths[lo:hi], dataset.m, rng)
    return dataset.indices, _rows(cells / dataset.m, starts, lengths)


def translate_regression_to_qst(samples, m: int) -> tuple:
    """Map fine samples (indices, ys) to counts via K1(m y), as (dataset of the
    records K1 maps to counts, number of out-of-model records dropped)."""
    indices, ys = samples
    cells, starts, lengths = _ragged(ys)
    counts, keep = _round_off(m * cells, lengths, m)
    return TomographyDataset(m=m, indices=np.asarray(indices, dtype=np.int64)[keep],
                             counts=_rows(counts, starts[keep], lengths[keep])), int((~keep).sum())


# --- the matched normal on the first r-1 coordinates ------------------------------


def _gaussian_marginal_params(m: int, theta):
    """(mean, covariance, precision, log normaliser) of the matched normal."""
    theta = _checked_theta(theta)
    dim = len(theta) - 1
    mu = m * theta[:dim]
    cov = m * (np.diag(theta) - np.outer(theta, theta))[:dim, :dim]
    _, logdet = np.linalg.slogdet(cov)
    return mu, cov, np.linalg.inv(cov), -0.5 * (dim * np.log(2 * np.pi) + logdet)


def _gaussian_density(m: int, theta, x) -> np.ndarray:
    """Matched normal density of the first r-1 counts at the (n, r - 1) points ``x``."""
    mu, _, prec, log_norm = _gaussian_marginal_params(m, theta)
    diff = x - mu
    return np.exp(log_norm - 0.5 * np.einsum("nd,de,ne->n", diff, prec, diff))


# --- Hellinger quadrature --------------------------------------------------------


def _cell_node_tensors(order: int, prec: np.ndarray) -> np.ndarray:
    """The (dim + 2) x nodes table of the tensor Gauss-Legendre nodes o on the
    unit cell: rows -o/2, then 1, then log w_o - o'Po/4."""
    x, w = np.polynomial.legendre.leggauss(order)
    idx = np.indices((order,) * len(prec)).reshape(len(prec), -1)
    offsets = x[idx] / 2.0
    log_w = np.log(w / 2.0)[idx].sum(axis=0)
    log_w -= 0.25 * np.einsum("an,ab,bn->n", offsets, prec, offsets)
    return np.vstack([-0.5 * offsets, np.ones_like(log_w), log_w])


def _affinity_window(m: int, theta: np.ndarray, orders, window: float,
                     chunk_cells: int) -> tuple:
    """(Bhattacharyya affinity BC_W over the window W, one per order; sum_W f; rel).

    W is every unit cell that meets E(R) = {x : (x - mu)'P(x - mu) <= R^2},
    R = ``window``: the centres in the box |c_a - mu_a| <= R sd_a + 1/2 with
    q(c) = (c - mu)'P(c - mu) <= q_max = (R + delta)^2, delta = sqrt((r - 1)
    lambda_max(P)) / 2 the longest P-length of a half cell diagonal.  Each row
    of the box (axes 0..r-3 fixed) is walked only over the interval of the last
    axis where q <= q_max, one cell to spare on each side, and the exact test
    q(c) <= q_max decides.  The runs are flat and still counted in box cells,
    ``chunk_cells`` each; a run's centres are its rows' intervals clipped to it
    (a run may hold no cell of W).
    BC_W = sum_W sqrt(f_c) S1(c), S1 = sum_o w_o sqrt g(c + o), and each node
    term is the exp of its exact log, the rows (v, log_norm / 2 - q(c) / 4, 1),
    v = P(c - mu), times the node table: log_norm / 2 + log w_o - (c + o -
    mu)'P(c + o - mu) / 4 <= log_norm / 2 + log w_o, so it cannot overflow.
    ``rel`` allows for the relative rounding of BC_W apart from sqrt f.  An
    exponent's parts total at most |log_norm| / 2 + q_max + dim order in size
    (|o'v| <= delta sqrt(q(c)) <= q_max, o'Po <= delta^2, |log w_o| <= dim
    order), and 8 eps times that covers the dot product of length dim + 2 <= 5
    and its inputs.  A sum of k nonnegative terms is off by at most (k - 1)
    eps / 2, and the sums run over the kept cells of a chunk (at most n_max),
    the nodes of an order and the chunks.  So rel = 8 eps (|log_norm| + q_max
    + dim order) + eps (n_max + nodes + chunks), the factors to spare.
    """
    dim = len(theta) - 1
    mu, cov, prec, log_norm = _gaussian_marginal_params(m, theta)
    reach = window * np.sqrt(np.diag(cov)) + 0.5
    low = np.ceil(mu - reach)
    shape = tuple((np.floor(mu + reach) - low + 1).astype(np.int64).tolist())
    q_max = (window + 0.5 * math.sqrt(dim * np.linalg.eigvalsh(prec)[-1])) ** 2
    tables = [_cell_node_tensors(order, prec) for order in orders]
    size, length = math.prod(shape), shape[-1]
    # on a row (axes 0..r-3 fixed at mu + y) q is p (x - mid)^2 + const in the
    # last axis' index x, so its centres with q <= q_max lie within `half` of mid;
    # the discriminant is clamped at 0, so a row E misses keeps a few cells
    y = low[:-1] + np.indices(shape[:-1]).reshape(dim - 1, size // length).T - mu[:-1]
    p, b = prec[-1, -1], y @ prec[:-1, -1]
    gap = np.einsum("nd,de,ne->n", y, prec[:-1, :-1], y) - q_max
    half = np.sqrt(np.maximum(b * b - p * gap, 0.0)) / p
    mid = mu[-1] - low[-1] - b / p
    x = np.clip([np.ceil(mid - half) - 1, np.floor(mid + half) + 2], 0, length)
    first, stop = np.arange(len(mid)) * length + x.astype(np.int64)  # flat, per row
    starts = range(0, size, chunk_cells)
    totals, mass, n_max = [0.0] * len(orders), 0.0, 0
    for start in starts:
        end = min(start + chunk_cells, size)
        span = slice(start // length, (end - 1) // length + 1)  # the rows the run meets
        lo = np.clip(first[span], start, end)
        n = np.clip(stop[span], start, end) - lo
        if not n.any():
            continue
        flat = np.arange(n.sum()) + np.repeat(lo - (np.cumsum(n) - n), n)
        centers = low + np.stack(np.unravel_index(flat, shape), axis=-1)
        diff = centers - mu
        v = diff @ prec
        q = np.einsum("nd,nd->n", diff, v)
        keep = q <= q_max
        centers, v, q = centers[keep], v[keep], q[keep]
        full = np.concatenate([centers, m - centers.sum(axis=-1, keepdims=True)], axis=-1)
        f = multinomial_pmf(full, m, theta)
        sqrt_f = np.sqrt(f)
        rows = np.column_stack([v, 0.5 * log_norm - 0.25 * q, np.ones_like(q)])
        for i, table in enumerate(tables):
            e = rows @ table
            np.exp(e, out=e)
            totals[i] += float(np.sum(sqrt_f @ e))
        mass, n_max = mass + np.sum(f), max(n_max, len(f))
    rel = EPS * (8.0 * (abs(log_norm) + q_max + dim * max(orders))
                 + n_max + max(orders) ** dim + len(starts))
    return totals, mass, rel


def hellinger_perturbed_vs_gaussian(m: int, theta) -> DistanceEstimate:
    """Hellinger distance between perturbed counts and the matched normal law.

    f is constant on unit cells and both laws have mass 1, so H^2 = 2 - 2 BC,
    BC = sum_c sqrt(f_c) (integral of sqrt g over cell c); one pass over the
    window W gives BC_W at both orders (``_affinity_window``).  ``params`` hold
    the error budget: ``order_term`` |H(order) - H(compare_order)|, an
    estimate; bounds ``tail_p`` (1 - sum_W f)_+ + a on the P mass outside W,
    a = 8 eps (gammaln(m + 1) + m max_a(-log theta_a)) bounding the terms each
    log f sums, and ``tail_q`` gammaincc((r - 1) / 2, R^2 / 2) on the Q mass
    outside W, which covers E(R); ``truncation`` 2 sqrt(tail_p tail_q), a bound
    on H_W^2 - H^2 >= 0 by Cauchy-Schwarz; and ``rounding`` 2 (a / 2 + rel) BC_W
    + 2 eps, an allowance for the cancellation in H_W^2 = 2 - 2 BC_W.  The
    error bar is ``order_term`` plus H_W - sqrt(H_W^2 - truncation - rounding),
    which by concavity also covers H_W^2 + rounding.  Fixed-order nodes give an
    impossible affinity above 1 when the normal is far narrower than a cell;
    then H is sqrt(2) with the vacuous bar sqrt(2).  ValueError unless
    ``theta`` is a probability vector.
    """
    theta = _checked_theta(theta)
    if m < 1 or m > MAX_QUAD_M:
        raise ValueError(f"m must be in [1, {MAX_QUAD_M}]")
    active = _active_cells(theta)
    if len(active) <= 1:
        return DistanceEstimate(value=0.0, kind="hellinger", method="quadrature",
                                error_bar=0.0, params={"m": m, "theta": theta.tolist()})
    sub = theta[active]
    sub = sub / sub.sum()
    r = len(sub)
    if r > MAX_QUAD_CELLS:
        raise TomolabError(f"quadrature supports up to {MAX_QUAD_CELLS} cells, got {r}")
    (bc, bc_cmp), mass, rel = _affinity_window(m, sub, (ORDER, COMPARE_ORDER), WINDOW, CHUNK_CELLS)
    a = 8.0 * EPS * (gammaln(m + 1) - m * np.log(sub.min()))
    h2 = 2.0 - 2.0 * bc
    value = math.sqrt(max(h2, 0.0))
    tail_p, tail_q = max(1.0 - mass, 0.0) + a, gammaincc((r - 1) / 2, WINDOW ** 2 / 2)
    budget = {"order_term": abs(value - math.sqrt(max(2.0 - 2.0 * bc_cmp, 0.0))),
              "tail_p": float(tail_p), "tail_q": float(tail_q),
              "truncation": 2.0 * math.sqrt(tail_p * tail_q),
              "rounding": float(2.0 * (a / 2 + rel) * bc + 2.0 * EPS)}
    low = math.sqrt(max(h2 - budget["truncation"] - budget["rounding"], 0.0))
    err = budget["order_term"] + value - low
    if max(bc, bc_cmp) > 1.0:
        value = err = H_MAX
    return DistanceEstimate(value=value, kind="hellinger", method="quadrature", error_bar=err,
                            params={"m": m, "theta": theta.tolist(), "order": ORDER, **budget})


def product_hellinger_bound(h_squares) -> float:
    """Combine per-record squared distances: sqrt of the sum.

    ``None`` entries mark degenerate records (single-cell laws), which
    contribute zero; any other entry must lie in [0, 2], the range of a
    squared Hellinger distance.
    """
    total = 0.0
    for h2 in h_squares:
        if h2 is None:
            continue
        if not 0 <= h2 <= 2.0:
            raise ValueError(f"squared distances must be finite, nonnegative, at most 2: {h2}")
        total += h2
    return math.sqrt(total)


# --- total variation --------------------------------------------------------------


def tv_perturbed_vs_gaussian(m: int, theta, n_samples: int, seed: int,
                             point: int = 0) -> DistanceEstimate:
    """TV(P, Q) = E_P[max(0, 1 - g/f)] between the perturbed count law P and
    the matched normal Q on the first r-1 coordinates, by Monte Carlo with a
    95% CLT half-width.

    Draws from substream (seed, ``TV``, point), one stream per grid point: the
    counts U, then the K0 uniforms psi.  The point x = U_head + psi rounds back
    to U, so f(x) is the pmf at U.  ValueError unless m >= 1, ``n_samples`` >= 2
    (the fewest the half-width needs) and ``theta`` is a probability vector."""
    theta = _checked_theta(theta)
    if m < 1:
        raise ValueError(f"m must be at least 1, got {m}")
    if n_samples < 2:
        raise ValueError(f"n_samples must be at least 2, got {n_samples}")
    active = _active_cells(theta)
    if len(active) <= 1:
        return DistanceEstimate(value=0.0, kind="tv", method="monte_carlo",
                                error_bar=0.0, params={"m": m, "theta": theta.tolist()})
    sub = theta[active]
    sub = sub / sub.sum()
    rng = substream(seed, TV, point)
    counts = rng.multinomial(m, sub, size=n_samples)
    x = counts[:, :-1] + rng.uniform(-0.5, 0.5, size=(n_samples, len(sub) - 1))
    f = multinomial_pmf(counts, m, sub)
    if np.any(f <= 0):
        raise TomolabError("sampling density vanished at a drawn point")
    vals = np.maximum(0.0, 1.0 - _gaussian_density(m, sub, x) / f)
    half = 1.96 * float(vals.std(ddof=1)) / math.sqrt(n_samples)
    return DistanceEstimate(value=float(vals.mean()), kind="tv", method="monte_carlo",
                            error_bar=half,
                            params={"m": m, "theta": theta.tolist(), "n_samples": n_samples})


def conditional_tv_bound(marginal_gap: float, weighted_tvs) -> float:
    """Two-stage bound: marginal ratio gap plus weight-averaged conditional TVs.
    ValueError unless the gap is finite and nonnegative, every TV lies in
    [0, 1] and the weights sum to 1."""
    weights, tvs = np.array(weighted_tvs, dtype=float).reshape(-1, 2).T
    if not (0 <= marginal_gap < math.inf and np.all((tvs >= 0) & (tvs <= 1))):
        raise ValueError("the marginal gap must be finite and nonnegative, the TVs in [0, 1]")
    if len(weights) and (np.any(weights < 0) or not abs(weights.sum() - 1.0) <= 1e-9):
        raise ValueError("weights must form a probability vector")
    return float(marginal_gap + sum(w * tv for w, tv in weighted_tvs))


# --- scaling study ------------------------------------------------------------------


@dataclass
class ScalingReport:
    theta: list
    m_grid: list
    values: list
    error_bars: list
    slope: float
    band: tuple = SLOPE_BAND
    passed: bool = False


def fit_loglog_slope(m_grid, values) -> float:
    """Least-squares slope of log(value) against log(m)."""
    return float(np.polyfit(np.log(np.asarray(m_grid, dtype=float)),
                            np.log(np.asarray(values, dtype=float)), 1)[0])


def scaling_study(theta, m_grid) -> ScalingReport:
    """Hellinger distance across a repetition grid, with its log-log slope."""
    m_grid = [int(m) for m in m_grid]
    if len(set(m_grid)) < MIN_SCALING_POINTS:
        raise ValueError(f"scaling study needs at least {MIN_SCALING_POINTS} distinct m values")
    if len(_active_cells(_checked_theta(theta))) < 2:
        # H = 0 at every m, so there is no slope to fit
        raise ValueError(f"scaling study needs at least two active cells, got theta = {theta}")
    estimates = [hellinger_perturbed_vs_gaussian(m, theta) for m in m_grid]
    values = [e.value for e in estimates]
    slope = fit_loglog_slope(m_grid, values)
    return ScalingReport(
        theta=list(np.asarray(theta, dtype=float)),
        m_grid=m_grid,
        values=values,
        error_bars=[e.error_bar for e in estimates],
        slope=slope,
        band=SLOPE_BAND,
        passed=SLOPE_BAND[0] <= slope <= SLOPE_BAND[1],
    )


def write_scaling_csv(report: ScalingReport, path) -> None:
    """One row per grid point: m, H, error_bar."""
    _write_table(path, ["m", "H", "error_bar"], (
        [m, _fmt(h), _fmt(e)] for m, h, e in zip(report.m_grid, report.values, report.error_bars)))
