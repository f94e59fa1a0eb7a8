"""Couplings between counted measurements and their Gaussian surrogates.

Two data translations drive everything here:

* ``kernel_K0`` adds independent Uniform(-1/2, 1/2) noise to the first r-1
  coordinates of a count vector and fixes the last by the sum constraint, so
  the discrete law acquires a density;
* ``kernel_K1`` rounds the first r-1 coordinates half-away-from-zero and
  inverts K0 exactly on every count vector.

The perturbed counts have a piecewise-constant joint density on unit cells:
the multinomial pmf of the cell.  Both distances to the moment-matched
multivariate normal on the first r-1 coordinates (the last is the same
deterministic function of the rest under both laws, so the marginal distance
equals the joint one) come from one walk over the cells that meet the
normal's Mahalanobis ellipsoid, and one function returns them as its
``distances.json`` row, a plain dict:
``hellinger_perturbed_vs_gaussian`` gives the Hellinger distance from the
Bhattacharyya affinity by per-cell Gauss-Legendre quadrature, as the keys
theta, m, hellinger, hellinger_err and the error budget, with a vacuous bar
for an impossible affinity above 1; given ``n_samples`` it also gives total
variation by Monte Carlo, the keys tv, tv_err and tv_half_width, from draws
that land on the walk's cells by the pmf the quadrature computes there
(``_TVDraws``).  ``scaling_report`` fits the log-log slope of the Hellinger
rows' distances against the number of repetitions m.
The product rule for squared Hellinger distances over independent records and
the paper's two-stage total variation bound are here too; no task calls them,
and ``diagnostics.deficiency_bound`` takes n, m, gamma, zeta and C, not them.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from numpy.polynomial import legendre

from .errors import TomolabError, _checked_integer
from .measurement import TomographyDataset, _active_mask
from .rng import TRANSLATE, TV, record_blocks, substream

__all__ = [
    "round_half_away",
    "multinomial_pmf",
    "kernel_K0",
    "kernel_K1",
    "translate_qst_to_regression",
    "translate_regression_to_qst",
    "hellinger_perturbed_vs_gaussian",
    "product_hellinger_bound",
    "conditional_tv_bound",
    "scaling_report",
    "SLOPE_BAND",
]

SLOPE_BAND = (-0.70, -0.35)
MIN_SCALING_POINTS = 4  # distinct m values a slope fit needs
MAX_QUAD_M = 4096
MAX_QUAD_CELLS = 4
H_MAX = math.sqrt(2.0)  # the Hellinger distance never exceeds sqrt(2)
EPS = np.finfo(float).eps


# Cellwise Gauss-Legendre for the Hellinger integral.  One pass over the
# window W, the cells meeting the Mahalanobis ellipsoid of radius R = WINDOW,
# gives the affinity at ORDER and at COMPARE_ORDER (the order term of the error
# bar, an estimate).  Each flat run of CHUNK_CELLS box cells writes its (kept
# cells x nodes) exponents into one buffer that both orders and every run reuse;
# the TV Monte Carlo scores its draws in blocks of as many rows.  The 4-cell benchmark
# reads the least peak memory at 2048, but any size other than 4096 moves the
# affinity's last digits.
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


@functools.lru_cache(maxsize=32)
def _log_factorials(m: int) -> np.ndarray:
    """log k! for k = 0..m, read-only: a long-double running sum of log k, rounded
    to float64 once; within an ulp of log k! for k <= MAX_QUAD_M, exact at k <= 2."""
    logs = np.log(np.arange(1, m + 1, dtype=np.longdouble))
    table = np.concatenate([[0.0], np.cumsum(logs).astype(float)])
    table.flags.writeable = False
    return table


def _pmf_walk(columns, m: int, theta, log_theta, sums=None, at=slice(None), partial=False):
    """The multinomial pmf at count vectors given by their cell ``columns``, walked
    left to right onto the running sums (count total, sum log c!, sum c log theta,
    valid): ``sums`` taken ``at``, or 0; those sums themselves when ``partial``.  A
    count that is not an integer in [0, m], or not 0 where theta is 0, clears valid,
    and the pmf is 0 unless valid with total m."""
    if sums is None:
        shape = np.shape(columns)[1:]
        sums = (*(np.zeros(shape) for _ in range(3)), np.ones(shape, dtype=bool))
    total, log_fact, terms, valid = (s[at] for s in sums)
    log_k = _log_factorials(m)
    for c, t, log_t in zip(columns, theta, log_theta):
        total += c
        if t == 0.0:
            valid &= c == 0  # a cell with theta = 0 must carry zero count
            continue
        ok = (c >= 0) & (c <= m) & (c == np.floor(c))  # NaN fails every comparison
        valid &= ok
        safe = np.where(ok, c, 0.0)
        log_fact += log_k[safe.astype(np.intp)]
        terms += safe * log_t
    if partial:
        return total, log_fact, terms, valid
    return np.exp(log_k[m] - log_fact + terms, where=valid & (total == m), out=np.zeros(valid.shape))


def multinomial_pmf(counts, m: int, theta) -> np.ndarray:
    """Multinomial pmf at vectors ``counts`` (last axis over cells); checks theta
    and that m is an integer >= 0.  A row that is not a nonnegative integer vector
    summing to m has pmf 0.

    The cells are walked one column at a time, left to right, from sums of 0
    (``_pmf_walk``), which adds in the order a reduction over a row this short does."""
    counts = np.asarray(counts, dtype=float)
    theta, m = _checked_theta(theta), _checked_integer("m", m, 0)
    if counts.shape[-1:] != theta.shape:
        raise ValueError(f"counts have {counts.shape[-1:]} cells, theta has {len(theta)}")
    scalar = counts.ndim == 1
    if scalar:
        counts = counts[None, :]
    log_theta = np.log(theta, where=theta > 0, out=np.zeros_like(theta))
    out = _pmf_walk(np.moveaxis(counts, -1, 0), m, theta, log_theta)
    return float(out[0]) if scalar else out


# --- kernels -------------------------------------------------------------------


def _perturb(table, sizes, m: int, rng) -> None:
    """K0 in place on each front-padded row of ``table`` with two or more cells
    (``sizes``): one flat Uniform(-1/2, 1/2) draw from ``rng`` on the first r - 1
    cells of each, slots -r:-1, in row order; the last slot restores the sum m."""
    heads = sizes - 1
    psi = rng.uniform(-0.5, 0.5, size=heads.sum())
    first = np.cumsum(heads) - heads  # each row's first uniform
    for k in np.flatnonzero(np.bincount(heads[heads > 0])).tolist():
        rows, head = np.flatnonzero(heads == k)[:, None], np.arange(-1 - k, -1)
        table[rows, head] += psi[first[rows] + np.arange(k)]
        # a (rows, k) block summed along its rows adds each row as a 1-D sum would
        table[rows[:, 0], -1] = m - table[rows, head].sum(axis=1)


def _round_off(table, m: int) -> tuple:
    """K1 on whole front-padded rows, whose padding 0 rounds to 0: (int64 counts,
    mask of the rows without a negative count); ValueError unless finite."""
    if not np.all(np.isfinite(table)):
        raise ValueError("round-off needs finite values")
    counts = round_half_away(table)
    # integer-valued, so the sums of the kept rows (at most m) are exact
    counts[:, -1] = m - counts[:, :-1].sum(axis=1)
    return counts.astype(np.int64), np.all(counts >= 0, axis=1)


def kernel_K0(counts, m: int, seed) -> np.ndarray:
    """Uniformly perturb a count vector summing to m; the sum stays m exactly.
    A single-cell vector passes through unchanged (as floats).  ValueError
    unless m is an integer >= 1 and the counts are nonnegative integers summing to m."""
    m, vals = _checked_integer("m", m, 1), np.array(counts, dtype=float)
    if not (np.all((vals >= 0) & (vals == np.floor(vals))) and vals.sum() == m):  # NaN, inf fail too
        raise ValueError(f"counts {vals.tolist()} are not nonnegative integers summing to m = {m}")
    rng = seed if isinstance(seed, np.random.Generator) else substream(seed)
    _perturb(vals[None], np.array([len(vals)]), m, rng)
    return vals


def kernel_K1(values, m: int) -> np.ndarray:
    """Round off a perturbed vector back to counts; inverts :func:`kernel_K0`.  Raises
    TomolabError on a negative implied count, ValueError unless finite and m an integer >= 1."""
    values = np.asarray(values, dtype=float)
    counts, keep = _round_off(values[None], _checked_integer("m", m, 1))
    if not keep[0]:
        raise TomolabError(f"values {values.tolist()} imply a negative count")
    return counts[0]


def translate_qst_to_regression(dataset: TomographyDataset, basis, seed: int) -> tuple:
    """Map counted measurements to fine-regression shape via y* = K0(U)/m, as
    (indices, y), y the front-padded (n, kappa) table of ``basis``.  As in
    :func:`kernel_K0`, every record of two or more cells is perturbed.  Each
    block of records draws its uniforms in one call (family ``TRANSLATE``),
    flat: the first r - 1 cells of each such record."""
    table = dataset.counts.astype(float)
    sizes = basis.sizes[dataset.indices]
    for lo, hi, rng in record_blocks(seed, TRANSLATE, len(table)):
        _perturb(table[lo:hi], sizes[lo:hi], dataset.m, rng)
    return dataset.indices, table / dataset.m


def translate_regression_to_qst(samples, m: int) -> tuple:
    """Map fine samples (indices, y), y a front-padded table, to counts via K1(m y), m an
    integer >= 1, as (dataset of the records K1 maps to counts, out-of-model records dropped)."""
    indices, table = samples
    m = _checked_integer("m", m, 1)
    counts, keep = _round_off(m * np.asarray(table, dtype=float), m)
    return TomographyDataset(m=m, indices=np.asarray(indices, dtype=np.int64)[keep],
                             counts=counts[keep]), int((~keep).sum())


# --- the matched normal on the first r-1 coordinates ------------------------------


def _gaussian_marginal_params(m: int, theta):
    """(mean, covariance, precision, log normaliser) of the matched normal."""
    theta = _checked_theta(theta)
    dim = len(theta) - 1
    mu = m * theta[:dim]
    cov = m * (np.diag(theta) - np.outer(theta, theta))[:dim, :dim]
    _, logdet = np.linalg.slogdet(cov)
    return mu, cov, np.linalg.inv(cov), -0.5 * (dim * np.log(2 * np.pi) + logdet)


def _active_law(theta: np.ndarray) -> np.ndarray | None:
    """The law of theta's active cells, renormalised, or None when fewer than two
    cells are active and the record is deterministic."""
    sub = theta[_active_mask(theta)]
    return sub / sub.sum() if len(sub) > 1 else None


# --- Hellinger quadrature --------------------------------------------------------


@functools.lru_cache(maxsize=32)
def _gauss_legendre(order: int) -> tuple:
    """(nodes, weights) of the ``order``-point Gauss-Legendre rule on [-1, 1],
    read-only: ``legendre.leggauss`` once per order."""
    x, w = legendre.leggauss(order)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _cell_node_tensors(order: int, prec: np.ndarray) -> np.ndarray:
    """The (dim + 2) x nodes table of the tensor Gauss-Legendre nodes o on the
    unit cell: rows -o/2, then 1, then log w_o - o'Po/4."""
    x, w = _gauss_legendre(order)
    idx = np.indices((order,) * len(prec)).reshape(len(prec), -1)
    offsets = x[idx] / 2.0
    log_w = np.log(w / 2.0)[idx].sum(axis=0)
    log_w -= 0.25 * np.einsum("an,ab,bn->n", offsets, prec, offsets)
    return np.vstack([-0.5 * offsets, np.ones_like(log_w), log_w])


def _affinity_window(m: int, theta: np.ndarray, orders, window: float,
                     chunk_cells: int, visit=None) -> tuple:
    """(Bhattacharyya affinity BC_W over the window W, one per order; sum_W f; rel).

    W is every unit cell that meets E(R) = {x : (x - mu)'P(x - mu) <= R^2},
    R = ``window``: the centres in the box |c_a - mu_a| <= R sd_a + 1/2 with
    q(c) = (c - mu)'P(c - mu) <= q_max = (R + delta)^2, delta = sqrt((r - 1)
    lambda_max(P)) / 2 the longest P-length of a half cell diagonal.  Each row
    of the box (axes 0..r-3 fixed) is walked only over the interval of the last
    axis where q <= q_max, one cell to spare on each side, and the exact test
    q(c) <= q_max decides.  The runs are flat and still counted in box cells,
    ``chunk_cells`` each; a run's centres are its rows' intervals clipped to it
    (a run may hold no cell of W), each the row's leading coordinates, computed
    once per call, and a last-axis offset.  A run's kept cells are written once,
    into a rows buffer and one exponent buffer, sized for the order with the
    most nodes, that every order and every run of the call reuses.  The pmf's
    sums over each row's leading r - 2 counts are formed once per call too, and
    a run walks on from them over its cells' last two counts, so f is
    ``multinomial_pmf`` bit for bit.  ``visit(f, v, q, keep)``,
    when given, sees each run with a kept cell: f at the kept cells, v = P(c - mu)
    and q(c) at the run's walked centres, and the indices ``keep`` of the kept ones.
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
    # on a row (axes 0..r-3 fixed at lead = mu + y) q is p (x - mid)^2 + const in
    # the last axis' index x, so its centres with q <= q_max lie within `half` of
    # mid; the discriminant is clamped at 0, so a row E misses keeps a few cells
    lead = low[:-1] + np.indices(shape[:-1]).reshape(dim - 1, size // length).T
    y, rest = lead - mu[:-1], m - lead.sum(axis=1)  # rest: m less the row's leading counts
    # the pmf's sums over each row's leading counts; a run walks on over the last two
    log_theta = np.log(theta, where=theta > 0, out=np.zeros_like(theta))
    row_sums = _pmf_walk(lead.T, m, theta[:-2], log_theta[:-2], partial=True)
    p, b = prec[-1, -1], y @ prec[:-1, -1]
    gap = np.einsum("nd,de,ne->n", y, prec[:-1, :-1], y) - q_max
    half = np.sqrt(np.maximum(b * b - p * gap, 0.0)) / p
    mid = mu[-1] - low[-1] - b / p
    x = np.clip([np.ceil(mid - half) - 1, np.floor(mid + half) + 2], 0, length)
    bounds = np.arange(len(mid)) * length + x.astype(np.int64)  # flat first and stop, per row
    starts = range(0, size, chunk_cells)
    totals, mass, n_max = [0.0] * len(orders), 0.0, 0
    # the kept cells' rows (v, log_norm / 2 - q / 4, 1) and the exponents of one order
    # at a time, written in place chunk after chunk; the column of ones is written once
    cell_rows = np.empty((chunk_cells, dim + 2))
    cell_rows[:, -1] = 1.0
    exps = np.empty(chunk_cells * max(table.shape[1] for table in tables))
    for start in starts:
        end = min(start + chunk_cells, size)
        rows = np.arange(start // length, (end - 1) // length + 1)  # the rows the run meets
        lo, n = np.minimum(np.maximum(bounds[:, rows], start), end)
        n -= lo
        if not n.any():
            continue
        last = low[-1] + np.arange(n.sum()) + np.repeat(lo - rows * length - np.cumsum(n) + n, n)
        diff = np.empty((len(last), dim))
        diff[:, :-1] = np.repeat(y[rows], n, axis=0)
        diff[:, -1] = last - mu[-1]
        v = diff @ prec
        q = np.einsum("nd,nd->n", diff, v)
        keep = np.flatnonzero(q <= q_max)
        k, row, last = len(keep), np.repeat(rows, n)[keep], last[keep]
        f = _pmf_walk((last, rest[row] - last), m, theta[-2:], log_theta[-2:], row_sums, row)
        sqrt_f = np.sqrt(f)
        np.take(v, keep, axis=0, out=cell_rows[:k, :-2], mode="clip")  # "raise" would buffer
        cell_rows[:k, -2] = 0.5 * log_norm - 0.25 * q[keep]
        for i, table in enumerate(tables):
            nodes = table.shape[1]
            e = np.matmul(cell_rows[:k], table, out=exps[:k * nodes].reshape(k, nodes))
            np.exp(e, out=e)
            totals[i] += float((sqrt_f @ e).sum())
        mass, n_max = mass + f.sum(), max(n_max, k)
        if visit is not None and k:
            visit(f, v, q, keep)
    rel = EPS * (8.0 * (abs(log_norm) + q_max + dim * max(orders))
                 + n_max + max(orders) ** dim + len(starts))
    return totals, mass, rel


def _chi2_tail(dim: int, x: float) -> float:
    """The regularised upper incomplete gamma Q(dim / 2, x) = P(chi^2_dim > 2 x), in
    closed form for the dim = 1, 2, 3 (2 to ``MAX_QUAD_CELLS`` cells) the quadrature has."""
    if dim == 1:
        return math.erfc(math.sqrt(x))
    if dim == 2:
        return math.exp(-x)
    if dim == 3:
        return math.erfc(math.sqrt(x)) + 2.0 * math.sqrt(x / math.pi) * math.exp(-x)
    raise ValueError(f"no closed-form chi-square tail for {dim} degrees of freedom")


def _inverse_cdf(f: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The cells at which the uniforms ``u`` in [0, 1) fall, by inverse CDF of the
    nonnegative masses ``f`` (positive in total): cell i takes the u with f_<i <= u
    sum f < f_<=i, so a cell with f = 0 is never drawn, and a u whose product with
    sum f rounds up to it takes the last cell with f > 0."""
    cum = np.cumsum(f)
    cells = np.searchsorted(cum, u * cum[-1], side="right")
    return np.minimum(cells, np.searchsorted(cum, cum[-1]), out=cells)


class _TVDraws:
    """The TV Monte Carlo's n draws from the perturbed count law P, taken and scored
    inside the Hellinger window walk, which calls the instance once per run with a
    kept cell (``visit`` of ``_affinity_window``).  A run gets one binomial draw from
    ``rng``: of the draws left, with success probability (the run's sum f) / (the P
    mass not yet walked), 1 where rounding leaves less; a run with no mass or no
    draws left draws nothing.  Its draws land on its cells by inverse CDF of f
    (``_inverse_cdf``), one uniform each, all drawn at once and sorted, so the
    cells come in walk order; then they take their K0 uniforms psi and are scored
    a ``block`` of draws at a time, max(0, 1 - g/f) at x = c + psi, log g =
    log_norm - q(c) / 2 - psi'(v + P psi / 2) from the walk's v and q.  So the
    stream is, per run, the binomial, the cell uniforms, then psi, whatever
    ``block`` is.  The draws left after the last run fall outside W, with
    probability 1 - sum_W f, and are scored 0."""

    def __init__(self, n: int, rng, m: int, theta, block: int = CHUNK_CELLS):
        _, _, self.prec, self.log_norm = _gaussian_marginal_params(m, theta)
        self.scores, self.rng, self.block = np.zeros(n), rng, block
        self.drawn, self.walked = 0, 0.0

    def __call__(self, f, v, q, keep) -> None:
        mass, unwalked = f.sum(), 1.0 - self.walked
        self.walked += mass
        left = len(self.scores) - self.drawn
        if left == 0 or mass == 0.0:
            return
        count = int(self.rng.binomial(left, mass / unwalked if mass < unwalked else 1.0))
        u = self.rng.random(count)
        u.sort()  # sorted keys search several times faster, and gather in order
        cells = _inverse_cdf(f, u)
        for lo in range(0, count, self.block):
            at = cells[lo:lo + self.block]
            psi = self.rng.uniform(-0.5, 0.5, size=(len(at), v.shape[1]))
            rows, f_at = keep[at], f[at]
            if np.any(f_at <= 0):
                raise TomolabError("sampling density vanished at a drawn point")
            shift = np.take(v, rows, axis=0)  # v + P psi / 2 at each draw
            shift += 0.5 * np.einsum("nd,de->ne", psi, self.prec)
            log_g = self.log_norm - 0.5 * q[rows] - np.einsum("nd,nd->n", psi, shift)
            end = self.drawn + len(at)
            self.scores[self.drawn:end] = np.maximum(0.0, 1.0 - np.exp(log_g) / f_at)
            self.drawn = end

    def row(self, tail_p: float) -> dict:
        """{tv, tv_err, tv_half_width}: the mean score; its 95% CLT half-width plus
        ``tail_p``, which bounds what the draws outside W would add; the half-width."""
        half = 1.96 * float(self.scores.std(ddof=1)) / math.sqrt(len(self.scores))
        return {"tv": float(self.scores.mean()), "tv_err": half + tail_p, "tv_half_width": half}


def hellinger_perturbed_vs_gaussian(m: int, theta, n_samples: int = 0, seed: int = 0,
                                    point: int = 0) -> dict:
    """Hellinger distance between perturbed counts and the matched normal law,
    as the row {theta, m, hellinger, hellinger_err, order_term, tail_p, tail_q,
    truncation, rounding}, and with ``n_samples`` >= 2 also total variation by
    Monte Carlo, {tv, tv_err, tv_half_width}; every field after m is exactly 0.0
    when fewer than two cells are active and the record is deterministic.

    f is constant on unit cells and both laws have mass 1, so H^2 = 2 - 2 BC,
    BC = sum_c sqrt(f_c) (integral of sqrt g over cell c); one pass over the
    window W gives BC_W at both orders (``_affinity_window``).  The next five
    fields are the error budget: ``order_term`` |H(order) - H(compare_order)|,
    an estimate; bounds ``tail_p`` (1 - sum_W f)_+ + a on the P mass outside W,
    a = 8 eps (log m! + m max_a(-log theta_a)) bounding the terms each log f
    sums, log m! from the log-factorial table, and ``tail_q`` the chi-square
    tail P(chi^2_{r-1} > R^2) (``_chi2_tail``) on the Q mass outside W, which
    covers E(R); ``truncation`` 2 sqrt(tail_p tail_q), a bound
    on H_W^2 - H^2 >= 0 by Cauchy-Schwarz; and ``rounding`` 2 (a / 2 + rel) BC_W
    + 2 eps, an allowance for the cancellation in H_W^2 = 2 - 2 BC_W.  The
    error bar ``hellinger_err`` is ``order_term`` plus H_W - sqrt(H_W^2 -
    truncation - rounding), which by concavity also covers H_W^2 + rounding.
    Fixed-order nodes give an impossible affinity above 1 when the normal is far
    narrower than a cell; then H is sqrt(2) with the vacuous bar sqrt(2).

    TV(P, Q) = E_P[max(0, 1 - g/f)] is the mean score of ``n_samples`` draws from
    P, taken in the same walk from substream (seed, ``TV``, point), one stream per
    grid point (``_TVDraws``); a draw outside W is scored 0, so ``tv_err`` is the
    95% CLT half-width ``tv_half_width`` plus ``tail_p``.  The walk sets the TV's
    domain too: m <= ``MAX_QUAD_M`` and at most ``MAX_QUAD_CELLS`` active cells.
    ValueError unless ``theta`` is a probability vector, m an integer in [1,
    ``MAX_QUAD_M``], ``n_samples`` 0 or an integer >= 2 (the fewest the half-width
    needs), and ``seed`` and ``point`` nonnegative integers.
    """
    theta, m = _checked_theta(theta), _checked_integer("m", m, 1)
    n_samples = _checked_integer("n_samples", n_samples, 0)
    if n_samples == 1:
        raise TomolabError("n_samples must be 0 or at least 2, got 1")
    seed, point = _checked_integer("seed", seed, 0), _checked_integer("point", point, 0)
    if m > MAX_QUAD_M:
        raise ValueError(f"m must be at most {MAX_QUAD_M}, got {m}")
    sub, row = _active_law(theta), {"theta": theta.tolist(), "m": m}
    if sub is None:
        tv = ("tv", "tv_err", "tv_half_width") if n_samples else ()
        return {**row, **dict.fromkeys(("hellinger", "hellinger_err", "order_term", "tail_p",
                                        "tail_q", "truncation", "rounding", *tv), 0.0)}
    r = len(sub)
    if r > MAX_QUAD_CELLS:
        raise TomolabError(f"quadrature supports up to {MAX_QUAD_CELLS} cells, got {r}")
    draws = _TVDraws(n_samples, substream(seed, TV, point), m, sub) if n_samples else None
    (bc, bc_cmp), mass, rel = _affinity_window(m, sub, (ORDER, COMPARE_ORDER), WINDOW,
                                               CHUNK_CELLS, draws)
    a = 8.0 * EPS * (_log_factorials(m)[m] - m * np.log(sub.min()))
    h2 = 2.0 - 2.0 * bc
    value = math.sqrt(max(h2, 0.0))
    tail_p, tail_q = max(1.0 - mass, 0.0) + a, _chi2_tail(r - 1, WINDOW ** 2 / 2)
    budget = {"order_term": abs(value - math.sqrt(max(2.0 - 2.0 * bc_cmp, 0.0))),
              "tail_p": float(tail_p), "tail_q": tail_q,
              "truncation": 2.0 * math.sqrt(tail_p * tail_q),
              "rounding": float(2.0 * (a / 2 + rel) * bc + 2.0 * EPS)}
    low = math.sqrt(max(h2 - budget["truncation"] - budget["rounding"], 0.0))
    err = budget["order_term"] + value - low
    if max(bc, bc_cmp) > 1.0:
        value = err = H_MAX
    row.update(hellinger=value, hellinger_err=err, **budget)
    return row if draws is None else {**row, **draws.row(budget["tail_p"])}


def product_hellinger_bound(h_squares) -> float:
    """Combine per-record squared distances: sqrt of the sum.

    Every entry must lie in [0, 2], the range of a squared Hellinger
    distance; a degenerate record (fewer than two active cells) has H = 0.
    """
    total = 0.0
    for h2 in h_squares:
        if h2 is None or not 0 <= h2 <= 2.0:
            raise ValueError(f"squared distances must be finite, nonnegative, at most 2: {h2}")
        total += h2
    return math.sqrt(total)


# --- total variation --------------------------------------------------------------


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


def scaling_report(theta, m_grid, rows) -> dict:
    """The ``scaling_i.json`` payload of one theta's Hellinger ``rows`` on ``m_grid``:
    the log-log slope against m, and whether it lies in ``SLOPE_BAND`` with no vacuous
    bar (one of sqrt(2) spans every admissible H).  ValueError unless the grid has
    ``MIN_SCALING_POINTS`` distinct m, each an integer >= 1, one estimate per m in grid
    order, all positive (H = 0 exactly when fewer than two cells are active, and log 0
    has no slope)."""
    m_grid = [_checked_integer("m_grid", m, 1) for m in m_grid]
    if len(set(m_grid)) < MIN_SCALING_POINTS:
        raise ValueError(f"scaling study needs at least {MIN_SCALING_POINTS} distinct m values")
    if [row["m"] for row in rows] != m_grid:
        raise ValueError(f"scaling study needs one estimate per m of {m_grid}, in grid order")
    values, bars = [row["hellinger"] for row in rows], [row["hellinger_err"] for row in rows]
    if not all(v > 0 for v in values):
        raise ValueError(f"scaling study needs positive distances, got {values} at theta = {theta}")
    slope = float(np.polyfit(np.log(m_grid), np.log(values), 1)[0])
    return {"theta": list(np.asarray(theta, dtype=float)), "m_grid": m_grid, "values": values,
            "error_bars": bars, "slope": slope, "band": SLOPE_BAND,
            "passed": max(bars) < H_MAX and SLOPE_BAND[0] <= slope <= SLOPE_BAND[1]}
