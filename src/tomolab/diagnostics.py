"""Design diagnostics: active index sets, nondegeneracy fractions, bounds.

For a state rho and observable B_j with eigenprojections Q_ja, the active
index set collects the eigenvalue indices whose cell probability
tr(Q_ja rho) is strictly between 0 and 1.  Observables with fewer than two
active indices have deterministic measurement outcomes and drop out of every
comparison between the counted and Gaussian experiments; the weighted
fraction of nondegenerate observables (maximized over a witness list of
states) is the quantity the deficiency-style bounds consume, together with
the design discrepancy between the two sampling distributions.

The supremum over a state class is replaced by a maximum over supplied
witness states, so reported fractions are lower bounds for the class value.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .bases import ObservableBasis
from .errors import TomolabError
from .measurement import ACTIVE_TOL, _active_mask

__all__ = [
    "ActiveIndexReport",
    "ZetaReport",
    "DeficiencyBoundReport",
    "active_index_set",
    "zeta_fraction",
    "gamma_p",
    "deficiency_bound",
    "write_report_json",
]


@dataclass(frozen=True)
class ActiveIndexReport:
    """Per-observable active eigenvalue indices for one state."""

    per_j: tuple                    # tuple of index tuples
    cardinalities: np.ndarray
    measurable: np.ndarray
    tol: float
    active_traces_min: float = None
    active_traces_max: float = None

    @property
    def nondegenerate(self) -> np.ndarray:  # flags |I_j| >= 2
        return self.cardinalities >= 2

    @property
    def nondegenerate_count(self) -> int:
        return int(self.nondegenerate.sum())


def active_index_set(rho, basis: ObservableBasis, tol: float = ACTIVE_TOL) -> ActiveIndexReport:
    """Indices a with tol < tr(Q_ja rho) < 1 - tol, for every measurable member.

    Every tr(Q_ja rho) of the family comes from one pass over the basis's
    projection array (:meth:`ObservableBasis.cell_traces`), which rejects a
    state that is not a finite (d, d) matrix before computing any of them.
    """
    if not (0 < tol < 0.1):
        raise ValueError("tol must lie in (0, 0.1)")
    traces = basis.cell_traces(rho)
    active = _active_mask(traces, tol)
    member = basis.cell_member[active]
    cards = np.bincount(member, minlength=basis.size)
    cells = (np.flatnonzero(active) - basis.cell_start[member]).tolist()
    ends = np.cumsum(cards).tolist()
    hit = traces[active]
    return ActiveIndexReport(
        per_j=tuple(tuple(cells[lo:hi]) for lo, hi in zip([0] + ends, ends)),
        cardinalities=cards,
        measurable=basis.sizes > 0,
        tol=tol,
        active_traces_min=float(hit.min()) if hit.size else None,
        active_traces_max=float(hit.max()) if hit.size else None,
    )


@dataclass(frozen=True)
class ZetaReport:
    """Max weighted nondegenerate fraction over the supplied witness states."""

    zeta: float
    fractions: tuple                 # per state, max over weight vectors
    counts: tuple                    # per state, unweighted nondegenerate counts
    state_labels: tuple
    c3_min: float = None             # observed min/max active traces over all states
    c3_max: float = None
    c3_ok: bool = None               # both inside the user (c0, c1), when supplied


def zeta_fraction(states, basis: ObservableBasis, weights=None, tol: float = ACTIVE_TOL,
                  c_bounds=None, state_labels=None) -> ZetaReport:
    """Weighted fraction of nondegenerate observables, maximized over states.

    ``weights`` is None (uniform 1/p), one probability vector, or a sequence
    of them; with several vectors the per-state fraction is the max across
    vectors, mirroring the two-design definition.
    """
    p = basis.size
    if weights is None:
        weight_vectors = [np.full(p, 1.0 / p)]
    else:
        arr = np.asarray(weights, dtype=float)
        weight_vectors = [arr] if arr.ndim == 1 else [np.asarray(w, dtype=float) for w in arr]
    for w in weight_vectors:
        if len(w) != p or not np.all(w >= 0) or not abs(w.sum() - 1.0) <= 1e-9:
            raise ValueError("each weight vector must be a probability vector of length p")

    states = list(states)
    if state_labels is not None and len(state_labels) != len(states):
        raise ValueError(f"{len(state_labels)} state labels for {len(states)} states")

    fractions, counts = [], []
    t_min, t_max = np.inf, -np.inf
    for state in states:
        report = active_index_set(state, basis, tol)
        flags = report.nondegenerate.astype(float)
        fractions.append(max(float(np.dot(w, flags)) for w in weight_vectors))
        counts.append(report.nondegenerate_count)
        if report.active_traces_min is not None:
            t_min = min(t_min, report.active_traces_min)
            t_max = max(t_max, report.active_traces_max)
    zeta = max(fractions) if fractions else 0.0
    c3_min = None if np.isinf(t_min) else t_min
    c3_max = None if t_max < 0 else t_max
    c3_ok = None
    if c_bounds is not None and c3_min is not None:
        c0, c1 = c_bounds
        c3_ok = bool(c0 <= c3_min and c3_max <= c1)
    return ZetaReport(
        zeta=zeta,
        fractions=tuple(fractions),
        counts=tuple(counts),
        state_labels=tuple(state_labels) if state_labels else tuple(range(len(fractions))),
        c3_min=c3_min,
        c3_max=c3_max,
        c3_ok=c3_ok,
    )


def gamma_p(pi, xi) -> float:
    """max_j |1 - Pi(j)/Xi(j)| + |1 - Xi(j)/Pi(j)|, the design discrepancy.

    Members that neither design draws (both weights 0, such as the
    masking-only canonical members) carry no discrepancy and are skipped.
    """
    pi = np.asarray(pi, dtype=float)
    xi = np.asarray(xi, dtype=float)
    if pi.shape != xi.shape:
        raise ValueError("weight vectors must have equal length")
    drawn = (pi != 0) | (xi != 0)
    pi, xi = pi[drawn], xi[drawn]
    if np.any(pi <= 0) or np.any(xi <= 0):
        raise TomolabError("a member drawn by one design has zero weight in the other")
    return float(np.max(np.abs(1 - pi / xi) + np.abs(1 - xi / pi), initial=0.0))


@dataclass(frozen=True)
class DeficiencyBoundReport:
    """Evaluated right-hand sides of the deficiency bounds."""

    n: int
    m: int
    p: int
    kappa: int
    gamma: float
    zeta: float
    constant: float
    variant: str
    bound_random: float
    bound_uniform: float

    @property
    def value(self) -> float:
        return self.bound_random if self.variant == "random" else self.bound_uniform


def deficiency_bound(n: int, m: int, p: int, kappa: int, gamma: float, zeta: float,
                     constant: float, variant: str = "random") -> DeficiencyBoundReport:
    """Evaluate n*gamma + C*sqrt(n*zeta/m) and its uniform/fixed specialization."""
    if variant not in ("random", "uniform", "fixed"):
        raise ValueError(f"unknown variant {variant!r}")
    if (min(n, m, p) < 0 or m < 1 or not 0 < constant < math.inf
            or not (0 <= gamma < math.inf and 0 <= zeta < math.inf)):
        raise ValueError("sizes must be nonnegative, m >= 1, C > 0, and C, gamma and zeta finite")
    root = constant * math.sqrt(n * zeta / m)
    return DeficiencyBoundReport(
        n=n, m=m, p=p, kappa=kappa, gamma=gamma, zeta=zeta, constant=constant,
        variant=variant, bound_random=n * gamma + root, bound_uniform=root,
    )


def write_report_json(payload: dict, path) -> None:
    """The one JSON writer; a NaN or infinite value raises ValueError before
    the file is opened, so every file it writes is valid JSON."""
    def default(obj):
        if isinstance(obj, (np.integer,)):
            return int(obj)
        if isinstance(obj, (np.floating,)):
            return float(obj)
        if isinstance(obj, np.ndarray):
            return obj.tolist()
        if hasattr(obj, "__dict__"):
            return obj.__dict__
        raise TypeError(f"cannot serialize {type(obj)}")

    text = json.dumps(payload, indent=2, sort_keys=True, default=default, allow_nan=False)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text + "\n")
