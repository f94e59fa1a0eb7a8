"""Couplings between counted measurements and their Gaussian surrogates.

Two data translations drive everything here:

* ``kernel_K0`` adds independent Uniform(-1/2, 1/2) noise to the first r-1
  coordinates of a count vector and fixes the last by the sum constraint, so
  the discrete law acquires a density;
* ``kernel_K1`` rounds the first r-1 coordinates half-away-from-zero and
  inverts K0 exactly on every count vector.

The perturbed counts have a piecewise-constant joint density on unit cells.
Distances to the moment-matched multivariate normal are computed two ways:
squared Hellinger by per-cell Gauss-Legendre quadrature on the first r-1
coordinates (the last coordinate is the same deterministic function of the
rest under both laws, so the marginal distance equals the joint one), and
total variation by Monte Carlo with CLT error bars.  A scaling study fits
the log-log slope of the Hellinger distance against the number of
measurement repetitions; combined with the product rule for squared
Hellinger distances over independent records and the two-stage total
variation bound, these are the quantitative ingredients of the deficiency
bounds evaluated in :mod:`tomolab.diagnostics`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln

from .errors import TomolabError
from .measurement import TomographyDataset, _active_cells, _fmt, _write_table
from .rng import TRANSLATE, TV, record_blocks, substream

__all__ = [
    "DistanceEstimate",
    "QuadSpec",
    "ScalingReport",
    "round_half_away",
    "multinomial_pmf",
    "kernel_K0",
    "kernel_K1",
    "translate_qst_to_regression",
    "translate_regression_to_qst",
    "perturbed_density",
    "gaussian_marginal_density",
    "perturbed_sampler",
    "hellinger_perturbed_vs_gaussian",
    "product_hellinger_bound",
    "tv_monte_carlo",
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
H_MAX = math.sqrt(2.0)  # the Hellinger distance never exceeds sqrt(2)


@dataclass(frozen=True)
class DistanceEstimate:
    value: float
    kind: str                 # "hellinger" | "tv"
    method: str               # "quadrature" | "monte_carlo"
    error_bar: float
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class QuadSpec:
    """Cellwise Gauss-Legendre settings for the Hellinger integral.

    One pass over the window gives H at ``order`` and at ``compare_order``
    (the order term of the error bar).  Each cell costs one quadratic form
    and per-axis node factors of size dim x order, so memory grows with
    ``chunk_cells`` (see ``_hellinger_sq_window``).
    """

    order: int = 5
    compare_order: int = 3
    window: float = 8.0       # half-width of the lattice window, in per-axis sd units
    chunk_cells: int = 25_000


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
    """Multinomial pmf at integer vectors ``counts`` (last axis over cells); checks theta."""
    counts = np.asarray(counts, dtype=float)
    theta = _checked_theta(theta)
    scalar = counts.ndim == 1
    if scalar:
        counts = counts[None, :]
    valid = np.all(counts >= 0, axis=-1) & (np.abs(counts.sum(axis=-1) - m) < 0.5)
    safe = np.where(counts < 0, 0.0, counts)
    with np.errstate(divide="ignore"):
        log_theta = np.log(theta)
    terms = np.where((safe == 0) & (theta == 0.0)[None, :], 0.0, safe * log_theta[None, :])
    log_pmf = gammaln(m + 1) - gammaln(safe + 1).sum(axis=-1) + terms.sum(axis=-1)
    # a cell with theta = 0 must carry zero count
    valid &= ~np.any((safe > 0) & (theta == 0.0)[None, :], axis=-1)
    out = np.where(valid, np.exp(log_pmf), 0.0)
    return float(out[0]) if scalar else out


# --- kernels -------------------------------------------------------------------


def _ragged(rows) -> tuple:
    """``rows`` laid end to end, the kernels' layout: (float cells, starts, lengths)."""
    lengths = np.fromiter(map(len, rows), np.int64, len(rows))
    return np.concatenate([np.zeros(0), *rows]), np.cumsum(lengths) - lengths, lengths


def _rows(cells, starts, lengths) -> list:
    return [cells[a:a + k] for a, k in zip(starts.tolist(), lengths.tolist())]


def _perturb(cells, starts, lengths, m: int, perturb, rng) -> None:
    """K0 in place on the rows where ``perturb`` holds, each of two or more cells:
    one flat Uniform(-1/2, 1/2) draw from ``rng`` on the first r - 1 cells of
    each, in row order, and the last cell restores the sum m."""
    rows = np.flatnonzero(perturb)
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
    _perturb(vals, np.zeros(1, np.int64), np.array([len(vals)]), m, [len(vals) >= 2], rng)
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
    (indices, ys).  A record whose counts sit on one cell passes through
    unperturbed.  Under a nondegenerate law that happens with probability
    sum_a theta_a^m, which is large when m * theta_min is small: for every
    record at m = 1, and for about 31% at theta = (0.00069, 0.982, 0.0173),
    m = 64.  Each block of records draws its uniforms in one call (family
    ``TRANSLATE``), flat: the first r - 1 cells of each perturbed record."""
    cells, starts, lengths = _ragged(dataset.counts)
    perturb = np.add.reduceat(cells != 0, starts, dtype=np.int64) > 1
    for lo, hi, rng in record_blocks(seed, TRANSLATE, len(starts)):
        _perturb(cells, starts[lo:hi], lengths[lo:hi], dataset.m, perturb[lo:hi], rng)
    return dataset.indices, _rows(cells / dataset.m, starts, lengths)


def translate_regression_to_qst(samples, m: int) -> tuple:
    """Map fine samples (indices, ys) to counts via K1(m y), as (dataset of the
    records K1 maps to counts, number of out-of-model records dropped)."""
    indices, ys = samples
    cells, starts, lengths = _ragged(ys)
    counts, keep = _round_off(m * cells, lengths, m)
    return TomographyDataset(m=m, indices=np.asarray(indices, dtype=np.int64)[keep],
                             counts=_rows(counts, starts[keep], lengths[keep])), int((~keep).sum())


# --- densities on the first r-1 coordinates -------------------------------------


def perturbed_density(m: int, theta, x) -> np.ndarray:
    """Joint density of the first r-1 perturbed counts at points ``x``.

    The perturbed vector determines its source counts by rounding, so the
    density is the multinomial pmf at the rounded lattice point, constant on
    unit cells and zero outside the support.
    """
    theta = _checked_theta(theta)
    dim = len(theta) - 1
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        pts, scalar = x.reshape(1, 1), True
    elif x.ndim == 1 and dim == 1:
        pts, scalar = x[:, None], False
    elif x.ndim == 1:
        pts, scalar = x[None, :], True
    else:
        pts, scalar = x, False
    if pts.shape[-1] != dim:
        raise ValueError(f"expected points of dimension {dim}")
    head = round_half_away(pts)
    full = np.concatenate([head, m - head.sum(axis=-1, keepdims=True)], axis=-1)
    vals = multinomial_pmf(full, m, theta)
    return float(vals[0]) if scalar else vals


def _gaussian_marginal_params(m: int, theta):
    theta = _checked_theta(theta)
    dim = len(theta) - 1
    mu = m * theta[:dim]
    cov = m * (np.diag(theta) - np.outer(theta, theta))[:dim, :dim]
    return mu, cov


def gaussian_marginal_density(m: int, theta, x) -> np.ndarray:
    """Moment-matched normal density of the first r-1 count coordinates."""
    mu, cov = _gaussian_marginal_params(m, theta)
    dim = len(mu)
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        x = x.reshape(1, 1)
    elif x.ndim == 1:
        x = x[:, None] if dim == 1 else x[None, :]
    prec = np.linalg.inv(cov)
    _, logdet = np.linalg.slogdet(cov)
    diff = x - mu
    quad = np.einsum("nd,de,ne->n", diff, prec, diff)
    log_norm = -0.5 * (len(mu) * np.log(2 * np.pi) + logdet)
    return np.exp(log_norm - 0.5 * quad)


def perturbed_sampler(m: int, theta):
    """Sampler of the first r-1 perturbed coordinates, for Monte Carlo use."""
    theta = np.asarray(theta, dtype=float)
    dim = len(theta) - 1

    def draw(rng: np.random.Generator, n: int) -> np.ndarray:
        counts = rng.multinomial(m, theta, size=n)
        psi = rng.uniform(-0.5, 0.5, size=(n, dim))
        return counts[:, :dim] + psi

    return draw


# --- Hellinger quadrature --------------------------------------------------------


def _cell_node_tensors(order: int, prec: np.ndarray):
    """1-D nodes on [-1/2, 1/2], tensor node offsets and weights w, and w K, w K^2.

    K(o) = exp(-o'Po/4) is the part of sqrt g(c + o) / A(c) that does not factor per axis.
    """
    x, w = np.polynomial.legendre.leggauss(order)
    x, w = x / 2.0, w / 2.0
    dim = len(prec)
    offsets = np.stack(np.meshgrid(*([x] * dim), indexing="ij"), axis=-1)
    weights = np.prod(np.stack(np.meshgrid(*([w] * dim), indexing="ij")), axis=0)
    k = np.exp(-0.25 * np.einsum("...a,ab,...b->...", offsets, prec, offsets))
    return x, offsets.reshape(-1, dim), weights, weights * k, weights * k * k


def _contract(tensor: np.ndarray, factors: np.ndarray) -> np.ndarray:
    """Per row n: sum over nodes o of tensor[o] * prod_a factors[n, a, o_a]."""
    n, dim, order = factors.shape
    out = factors[:, -1] @ tensor.reshape(-1, order).T
    for a in range(dim - 2, -1, -1):
        out = np.einsum("nrk,nk->nr", out.reshape(n, -1, order), factors[:, a])
    return out[:, 0]


def _node_sums(diff, offsets, weights, prec, log_norm):
    """sum_o w sqrt g(c + o) and sum_o w g(c + o), node by node, for rows diff = c - mu."""
    s1 = s2 = 0.0
    for off, w in zip(offsets, weights.ravel()):
        d = diff + off
        sqrt_g = np.exp(0.5 * log_norm - 0.25 * np.einsum("nd,de,ne->n", d, prec, d))
        s1 = s1 + w * sqrt_g
        s2 = s2 + w * sqrt_g * sqrt_g
    return s1, s2


# Rows whose separable scale exceeds exp(_LOG_SCALE_CAP) are summed node by node:
# below the cap exp(2 * cap) is finite and node terms lost to underflow are negligible.
_LOG_SCALE_CAP = 300.0


def _hellinger_sq_window(m: int, theta: np.ndarray, orders, window: float,
                         chunk_cells: int) -> list:
    """Squared Hellinger distance over the lattice window, one value per order.

    The pmf f(c) is evaluated once per cell c for all orders.  With
    q(c) = (c - mu)'P(c - mu) and v = P(c - mu), q(c + o) = q(c) + 2 o'v + o'Po,
    so sqrt g(c + o) = A(c) K(o) prod_a exp(-o_a v_a / 2) with
    A(c) = exp(log_norm / 2 - q(c) / 4) and K(o) = exp(-o'Po / 4).  The node
    sums S1 = sum_o w sqrt(g) and S2 = sum_o w g contract per-axis
    N x order factors, and sum_o w (sqrt f - sqrt g)^2 = f sum w - 2 sqrt(f) S1 + S2.
    Each factor is divided by its largest node value exp(max_k |v_a| x_k / 2),
    and that shift is added to log A(c), so no intermediate leaves floating-point
    range; the few rows whose combined scale is still too large (a nearly
    degenerate cell makes P large) are summed node by node instead.
    """
    dim = len(theta) - 1
    mu, cov = _gaussian_marginal_params(m, theta)
    prec = np.linalg.inv(cov)
    _, logdet = np.linalg.slogdet(cov)
    log_norm = -0.5 * (dim * np.log(2 * np.pi) + logdet)
    sds = np.sqrt(np.diag(cov))
    axes = [np.arange(math.ceil(mu[a] - window * sds[a]),
                      math.floor(mu[a] + window * sds[a]) + 1)
            for a in range(dim)]
    nodes = [_cell_node_tensors(order, prec) for order in orders]

    def accumulate(centers: np.ndarray) -> list:
        full = np.concatenate(
            [centers, m - centers.sum(axis=-1, keepdims=True)], axis=-1)
        f = multinomial_pmf(full, m, theta)
        sqrt_f = np.sqrt(f)
        diff = centers - mu
        v = np.einsum("nd,de->ne", diff, prec)
        log_amp = 0.5 * log_norm - 0.25 * np.einsum("nd,nd->n", diff, v)
        sums = []
        for x, offsets, weights, wk, wk2 in nodes:
            shift = 0.5 * x.max() * np.abs(v)
            e = np.multiply.outer(v, -0.5 * x)
            e -= shift[:, :, None]
            np.exp(e, out=e)
            log_scale = log_amp + shift.sum(axis=1)
            direct = log_scale > _LOG_SCALE_CAP
            scale = np.exp(np.where(direct, 0.0, log_scale))
            s1 = scale * _contract(wk, e)
            s2 = scale * scale * _contract(wk2, e * e)
            if direct.any():
                s1[direct], s2[direct] = _node_sums(diff[direct], offsets, weights,
                                                    prec, log_norm)
            sums.append(np.sum(f * weights.sum() - 2.0 * sqrt_f * s1 + s2))
        return sums

    n_rest = int(np.prod([len(a) for a in axes[1:]]))
    chunk = max(1, chunk_cells // max(n_rest, 1))
    totals = [0.0] * len(orders)
    for start in range(0, len(axes[0]), chunk):
        grids = np.meshgrid(axes[0][start:start + chunk], *axes[1:], indexing="ij")
        centers = np.stack([g.ravel() for g in grids], axis=-1).astype(float)
        totals = [t + s for t, s in zip(totals, accumulate(centers))]
    return totals


def _tail_mass_bound(m: int, theta: np.ndarray, window: float) -> float:
    """Bound on the P* and Q mass outside the lattice window (Bernstein + normal tail)."""
    dim = len(theta) - 1
    sds = np.sqrt(m * theta[:dim] * (1 - theta[:dim]))
    q_tail = dim * math.erfc(window / math.sqrt(2.0))
    p_tail = 0.0
    for sd in sds:
        t = max(window * sd - 0.5, 0.0)
        p_tail += 2.0 * math.exp(-t * t / (2.0 * sd * sd + 2.0 * t / 3.0))
    return p_tail + q_tail


def hellinger_perturbed_vs_gaussian(m: int, theta, quad_spec: QuadSpec = None) -> DistanceEstimate:
    """Hellinger distance between perturbed counts and the matched normal law.

    Integrates |sqrt f - sqrt g|^2 cell by cell over an integer lattice
    window of ``window`` per-axis standard deviations, with fixed-order
    Gauss-Legendre nodes inside each unit cell; one pass gives both the
    order and the comparison order.  The error bar combines their difference
    with an analytic bound on the mass outside the window.  A raw value
    above sqrt(2), which fixed-order nodes give when the matched normal is
    much narrower than a unit cell, is returned as sqrt(2) with an error bar
    of at least sqrt(2), which spans every admissible value.  Raises
    ValueError unless ``theta`` is a probability vector.
    """
    spec = quad_spec or QuadSpec()
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
    if r > 4:
        raise TomolabError(f"quadrature supports up to 4 cells, got {r}; use tv_monte_carlo")
    h2, h2_cmp = _hellinger_sq_window(m, sub, (spec.order, spec.compare_order),
                                      spec.window, spec.chunk_cells)
    value = math.sqrt(max(h2, 0.0))
    err = abs(value - math.sqrt(max(h2_cmp, 0.0)))
    err += math.sqrt(2.0 * _tail_mass_bound(m, sub, spec.window))
    if value > H_MAX:
        value, err = H_MAX, max(err, H_MAX)
    return DistanceEstimate(value=value, kind="hellinger", method="quadrature",
                            error_bar=err, params={"m": m, "theta": theta.tolist(),
                                                   "order": spec.order})


def product_hellinger_bound(h_squares) -> float:
    """Combine per-record squared distances: sqrt of the sum.

    ``None`` entries mark degenerate records (single-cell laws), which
    contribute zero.
    """
    total = 0.0
    for h2 in h_squares:
        if h2 is None:
            continue
        if h2 < 0:
            raise ValueError("squared distances must be nonnegative")
        total += h2
    return math.sqrt(total)


# --- total variation --------------------------------------------------------------


def tv_monte_carlo(sampler_p, density_p, density_q, n_samples: int, seed: int,
                   point: int = 0) -> DistanceEstimate:
    """Estimate TV(P, Q) = E_P[max(0, 1 - q/p)] with a 95% CLT half-width.

    Draws from substream (seed, ``TV``, point): one stream per grid point.
    """
    rng = substream(seed, TV, point)
    x = sampler_p(rng, n_samples)
    p = np.asarray(density_p(x), dtype=float)
    if np.any(p <= 0):
        raise TomolabError("sampling density vanished at a drawn point")
    q = np.asarray(density_q(x), dtype=float)
    vals = np.maximum(0.0, 1.0 - q / p)
    value = float(vals.mean())
    half = 1.96 * float(vals.std(ddof=1)) / math.sqrt(n_samples)
    return DistanceEstimate(value=value, kind="tv", method="monte_carlo",
                            error_bar=half, params={"n_samples": n_samples})


def tv_perturbed_vs_gaussian(m: int, theta, n_samples: int, seed: int,
                             point: int = 0) -> DistanceEstimate:
    """TV between the perturbed count law and the matched normal, by Monte Carlo."""
    theta = _checked_theta(theta)
    active = _active_cells(theta)
    if len(active) <= 1:
        return DistanceEstimate(value=0.0, kind="tv", method="monte_carlo",
                                error_bar=0.0, params={"m": m, "theta": theta.tolist()})
    sub = theta[active]
    sub = sub / sub.sum()
    est = tv_monte_carlo(
        perturbed_sampler(m, sub),
        lambda x: perturbed_density(m, sub, x),
        lambda x: gaussian_marginal_density(m, sub, x),
        n_samples, seed, point,
    )
    return DistanceEstimate(value=est.value, kind="tv", method="monte_carlo",
                            error_bar=est.error_bar,
                            params={"m": m, "theta": theta.tolist(), "n_samples": n_samples})


def conditional_tv_bound(marginal_gap: float, weighted_tvs) -> float:
    """Two-stage bound: marginal ratio gap plus weight-averaged conditional TVs."""
    weights = np.array([w for w, _ in weighted_tvs], dtype=float)
    if len(weights) and (np.any(weights < 0) or abs(weights.sum() - 1.0) > 1e-9):
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


def scaling_study(theta, m_grid, quad_spec: QuadSpec = None) -> ScalingReport:
    """Hellinger distance across a repetition grid, with its log-log slope."""
    m_grid = [int(m) for m in m_grid]
    if len(set(m_grid)) < MIN_SCALING_POINTS:
        raise ValueError(f"scaling study needs at least {MIN_SCALING_POINTS} distinct m values")
    if len(_active_cells(_checked_theta(theta))) < 2:
        # H = 0 at every m, so there is no slope to fit
        raise ValueError(f"scaling study needs at least two active cells, got theta = {theta}")
    estimates = [hellinger_perturbed_vs_gaussian(m, theta, quad_spec) for m in m_grid]
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
