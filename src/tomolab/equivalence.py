"""Couplings between counted measurements and their Gaussian surrogates.

Two data translations drive everything here:

* ``kernel_K0`` adds independent Uniform(-1/2, 1/2) noise to the first r-1
  coordinates of a count vector and fixes the last by the sum constraint, so
  the discrete law acquires a density;
* ``kernel_K1`` rounds the first r-1 coordinates half-away-from-zero and
  inverts K0 exactly on every count vector.

The perturbed counts have a piecewise-constant joint density on unit cells.
Distances to the moment-matched multivariate normal are computed two ways:
Hellinger from the Bhattacharyya affinity, by per-cell Gauss-Legendre
quadrature over the cells that meet the normal's Mahalanobis ellipsoid on the
first r-1 coordinates (the last is the same deterministic function of the rest
under both laws, so the marginal distance equals the joint one), with an error
budget and a vacuous bar for an impossible affinity above 1; and total
variation by Monte Carlo with CLT error bars.  A scaling study fits the log-log
slope of the Hellinger distance against the number of repetitions; with the
product rule for squared Hellinger distances over independent records and the
two-stage total variation bound, these are the quantitative ingredients of the
deficiency bounds evaluated in :mod:`tomolab.diagnostics`.
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
EPS = np.finfo(float).eps


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

    One pass over the window W, the cells meeting the Mahalanobis ellipsoid of
    radius R = ``window``, gives the affinity at ``order`` and at
    ``compare_order`` (the order term of the error bar, an estimate).  Memory
    grows with ``chunk_cells``, the cells of W's bounding box per chunk.
    """

    order: int = 5
    compare_order: int = 3
    window: float = 8.0
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
    """(mean, covariance, precision, log normaliser) of the matched normal."""
    theta = _checked_theta(theta)
    dim = len(theta) - 1
    mu = m * theta[:dim]
    cov = m * (np.diag(theta) - np.outer(theta, theta))[:dim, :dim]
    _, logdet = np.linalg.slogdet(cov)
    return mu, cov, np.linalg.inv(cov), -0.5 * (dim * np.log(2 * np.pi) + logdet)


def gaussian_marginal_density(m: int, theta, x) -> np.ndarray:
    """Moment-matched normal density of the first r-1 count coordinates."""
    mu, _, prec, log_norm = _gaussian_marginal_params(m, theta)
    dim = len(mu)
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        x = x.reshape(1, 1)
    elif x.ndim == 1:
        x = x[:, None] if dim == 1 else x[None, :]
    diff = x - mu
    quad = np.einsum("nd,de,ne->n", diff, prec, diff)
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
    """1-D nodes on [-1/2, 1/2], tensor node offsets and weights w, and w K.

    K(o) = exp(-o'Po/4) is the part of sqrt g(c + o) / A(c) that does not factor per axis.
    """
    x, w = np.polynomial.legendre.leggauss(order)
    x, w = x / 2.0, w / 2.0
    dim = len(prec)
    offsets = np.stack(np.meshgrid(*([x] * dim), indexing="ij"), axis=-1).reshape(-1, dim)
    weights = np.prod(np.stack(np.meshgrid(*([w] * dim), indexing="ij")), axis=0).ravel()
    k = np.exp(-0.25 * np.einsum("na,ab,nb->n", offsets, prec, offsets))
    return x, offsets, weights, weights * k


def _contract(tensor: np.ndarray, factors: np.ndarray) -> np.ndarray:
    """Per row n: sum over nodes o of tensor[o] * prod_a factors[n, a, o_a]."""
    n, dim, order = factors.shape
    out = factors[:, -1] @ tensor.reshape(-1, order).T
    for a in range(dim - 2, -1, -1):
        out = np.einsum("nrk,nk->nr", out.reshape(n, -1, order), factors[:, a])
    return out[:, 0]


def _node_sums(diff, offsets, weights, prec, log_norm):
    """sum_o w sqrt g(c + o), node by node, for rows diff = c - mu."""
    return sum(w * np.exp(0.5 * log_norm - 0.25 * np.einsum("nd,de,ne->n", c, prec, c))
               for c, w in zip((diff + o for o in offsets), weights))


# Rows whose separable scale exceeds exp(_LOG_SCALE_CAP) are summed node by node.
# Below the cap the scale is finite, and a node term lost to underflow is below
# exp(_LOG_SCALE_CAP) times the smallest normal double, about 4e-178.
_LOG_SCALE_CAP = 300.0


def _affinity_window(m: int, theta: np.ndarray, orders, window: float,
                     chunk_cells: int) -> tuple:
    """(Bhattacharyya affinity BC_W over the window W, one per order; sum_W f; rel).

    W is every unit cell that meets E(R) = {x : (x - mu)'P(x - mu) <= R^2},
    R = ``window``: the centres in the box |c_a - mu_a| <= R sd_a + 1/2 with
    q(c) = (c - mu)'P(c - mu) <= q_max = (R + delta)^2, delta = sqrt((r - 1)
    lambda_max(P)) / 2 the longest P-length of a half cell diagonal, walked in
    chunks of about ``chunk_cells`` box centres (whole rows of the first axis).
    BC_W = sum_W sqrt(f_c) S1(c), S1 = sum_o w sqrt g(c + o), and sqrt g(c + o)
    = A(c) K(o) prod_a exp(-o_a v_a / 2) with v = P(c - mu), A(c) =
    exp(log_norm / 2 - q(c) / 4) and K(o) = exp(-o'Po / 4), so S1 is one
    contraction of per-axis N x order factors; each factor is divided by its
    largest node value, the shift added to log A(c).  ``rel`` is an allowance
    for the relative rounding of BC_W apart from sqrt f: a node term is exp of
    log_norm / 2 - q(c) / 4 plus shifts of at most sqrt(lambda_max q_max) / 2
    <= q_max, formed by dim x order multiply-adds, and a sum of n nonnegative
    terms adds n eps, so rel = 8 eps (|log_norm| + q_max + dim order + n), n
    the cells of W, the 8 to spare.
    """
    dim = len(theta) - 1
    mu, cov, prec, log_norm = _gaussian_marginal_params(m, theta)
    reach = window * np.sqrt(np.diag(cov)) + 0.5
    axes = [np.arange(math.ceil(mu[a] - reach[a]), math.floor(mu[a] + reach[a]) + 1)
            for a in range(dim)]
    q_max = (window + 0.5 * math.sqrt(dim * np.linalg.eigvalsh(prec)[-1])) ** 2
    nodes = [_cell_node_tensors(order, prec) for order in orders]

    def accumulate(centers: np.ndarray) -> tuple:
        diff = centers - mu
        v = np.einsum("nd,de->ne", diff, prec)
        q = np.einsum("nd,nd->n", diff, v)
        keep = q <= q_max
        centers, diff, v, q = centers[keep], diff[keep], v[keep], q[keep]
        full = np.concatenate([centers, m - centers.sum(axis=-1, keepdims=True)], axis=-1)
        f = multinomial_pmf(full, m, theta)
        sqrt_f = np.sqrt(f)
        log_amp = 0.5 * log_norm - 0.25 * q
        sums = []
        for x, offsets, weights, wk in nodes:
            shift = 0.5 * x.max() * np.abs(v)
            e = np.multiply.outer(v, -0.5 * x)
            e -= shift[:, :, None]
            np.exp(e, out=e)
            log_scale = log_amp + shift.sum(axis=1)
            direct = log_scale > _LOG_SCALE_CAP
            s1 = np.exp(np.where(direct, 0.0, log_scale)) * _contract(wk, e)
            if direct.any():
                s1[direct] = _node_sums(diff[direct], offsets, weights, prec, log_norm)
            sums.append(np.sum(sqrt_f * s1))
        return sums, np.sum(f), len(f)

    n_rest = int(np.prod([len(a) for a in axes[1:]]))
    chunk = max(1, chunk_cells // max(n_rest, 1))
    totals, mass, n = [0.0] * len(orders), 0.0, 0
    for start in range(0, len(axes[0]), chunk):
        grids = np.meshgrid(axes[0][start:start + chunk], *axes[1:], indexing="ij")
        centers = np.stack([g.ravel() for g in grids], axis=-1).astype(float)
        sums, f_mass, cells = accumulate(centers)
        totals, mass, n = [t + s for t, s in zip(totals, sums)], mass + f_mass, n + cells
    rel = 8.0 * EPS * (abs(log_norm) + q_max + dim * max(orders) + n)
    return totals, mass, rel


def hellinger_perturbed_vs_gaussian(m: int, theta, quad_spec: QuadSpec = None) -> DistanceEstimate:
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
    (bc, bc_cmp), mass, rel = _affinity_window(m, sub, (spec.order, spec.compare_order),
                                               spec.window, spec.chunk_cells)
    a = 8.0 * EPS * (gammaln(m + 1) - m * np.log(sub.min()))
    h2 = 2.0 - 2.0 * bc
    value = math.sqrt(max(h2, 0.0))
    tail_p, tail_q = max(1.0 - mass, 0.0) + a, gammaincc((r - 1) / 2, spec.window ** 2 / 2)
    budget = {"order_term": abs(value - math.sqrt(max(2.0 - 2.0 * bc_cmp, 0.0))),
              "tail_p": float(tail_p), "tail_q": float(tail_q),
              "truncation": 2.0 * math.sqrt(tail_p * tail_q),
              "rounding": float(2.0 * (a / 2 + rel) * bc + 2.0 * EPS)}
    low = math.sqrt(max(h2 - budget["truncation"] - budget["rounding"], 0.0))
    err = budget["order_term"] + value - low
    if max(bc, bc_cmp) > 1.0:
        value = err = H_MAX
    return DistanceEstimate(value=value, kind="hellinger", method="quadrature", error_bar=err,
                            params={"m": m, "theta": theta.tolist(), "order": spec.order, **budget})


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
