"""Design diagnostics: active index sets, nondegeneracy fractions, bounds.

For a state rho and observable B_j with eigenprojections Q_ja, the active
index set collects the eigenvalue indices whose cell probability
tr(Q_ja rho) is strictly between 0 and 1.  Observables with fewer than two
active indices have deterministic measurement outcomes and drop out of every
comparison between the counted and Gaussian experiments; the weighted
fraction of nondegenerate observables (maximized over a witness list of
states) is the quantity the deficiency-style bounds consume, together with
the design discrepancy between the two sampling distributions.
``corollary_suite`` runs the witness and class-count checks on the built-in families.

The supremum over a state class is replaced by a maximum over supplied
witness states, so reported fractions are lower bounds for the class value.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .bases import ObservableBasis, _pauli_slots, build_basis, default_g_vectors
from .equivalence import _checked_integer
from .errors import TomolabError
from .measurement import ACTIVE_TOL, _active_mask
from .states import StateClassSpec, pauli_line_state, sample_class, tilted_product_state

__all__ = [
    "active_index_set",
    "zeta_fraction",
    "gamma_p",
    "deficiency_bound",
    "corollary_suite",
    "write_report_json",
]


def active_index_set(rho, basis: ObservableBasis) -> np.ndarray:
    """The active traces of every member: the basis's front-padded (p, kappa)
    table, tr(Q_ja rho) where ACTIVE_TOL < tr(Q_ja rho) < 1 - ACTIVE_TOL and
    exact 0 elsewhere, so member j's I_j is the nonzero slots of ``cells(j)``.

    Every tr(Q_ja rho) of the family comes from one pass over the basis's
    projection table (:meth:`ObservableBasis.cell_traces`), which rejects a
    state that is not a finite (d, d) matrix before computing any of them.
    """
    traces = basis.cell_traces(rho)
    return np.where(_active_mask(traces), traces, 0.0)


def _nondegenerate(table: np.ndarray) -> np.ndarray:
    """Per member of an active-trace table, whether |I_j| >= 2."""
    return np.count_nonzero(table, axis=1) >= 2


def zeta_fraction(states, basis: ObservableBasis, weights=None) -> dict:
    """The ``zeta.json`` payload: the weighted fraction of nondegenerate
    observables, maximized over states, with each state's fraction and count
    and the range of the active traces over all states (None if none is active).

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

    fractions, counts, hits = [], [], [np.empty(0)]
    for state in states:
        table = active_index_set(state, basis)
        flags = _nondegenerate(table).astype(float)
        fractions.append(max(float(np.dot(w, flags)) for w in weight_vectors))
        counts.append(int(flags.sum()))
        hits.append(table[table != 0])
    hits = np.concatenate(hits)
    return {"zeta": max(fractions, default=0.0), "fractions": fractions, "counts": counts,
            "active_trace_min": float(hits.min()) if hits.size else None,
            "active_trace_max": float(hits.max()) if hits.size else None}


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


def deficiency_bound(n: int, m: int, gamma: float, zeta: float, constant: float) -> float:
    """n*gamma + C*sqrt(n*zeta/m); a uniform or fixed design has gamma = 0."""
    if (n < 0 or m < 1 or not 0 < constant < math.inf
            or not (0 <= gamma < math.inf and 0 <= zeta < math.inf)):
        raise ValueError("n must be nonnegative, m >= 1, C > 0, and C, gamma and zeta "
                         "finite and nonnegative")
    return n * gamma + constant * math.sqrt(n * zeta / m)


def _count_block(basis: ObservableBasis, axes, sampled, bound) -> dict:
    """Nondegenerate counts of the ``sampled`` states on ``basis`` against the
    nominal ``bound(u)`` and the rule 2*d*u - u^2.

    u = #{i : (A' rho A)_ii > ACTIVE_TOL} over the columns of ``axes`` A, the axes the
    family is built on.  For a PSD rho these are the axes its range touches, so
    only the u diagonal members on them and both members of each pair with an
    endpoint among them can be active.
    """
    d = len(axes)
    max_count, violations, rule_ok = 0, 0, True
    for st in sampled:
        u = int(np.sum(np.diag(axes.T @ st.matrix @ axes).real > ACTIVE_TOL))
        count = int(_nondegenerate(active_index_set(st, basis)).sum())
        max_count = max(max_count, count)
        violations += count > bound(u)
        rule_ok &= count <= 2 * d * u - u * u
    return {"max_count": max_count, "violations": int(violations), "samples": len(sampled),
            "corrected_rule_ok": bool(rule_ok), "ok": violations == 0}


def corollary_suite(d: int, seed: int, samples: int) -> list:
    """The four witness-and-count checks over the built-in families at dimension d.

    The two counting checks (entry-sparse states on the hermitian family,
    sparse-vector mixtures on a g-vector family) pass or fail on the nominal
    bounds d*s_d and 8*r*gamma^2 + 2*r*gamma; each block also reports the
    observed maximum count and whether every count meets the rule
    2*d*u - u^2, so discrepancies stay visible.  Each family is built, checked
    and dropped in turn, so one basis is alive at a time.  ValueError unless
    ``samples``, the states sampled per class, is an integer >= 1.
    """
    samples = _checked_integer("samples", samples, 1)
    results = [_sparse_entry_check(d, seed, samples)]
    try:
        b = _pauli_slots(d)
    except TomolabError:
        b = 0  # no Pauli family at this d
    if b:
        results += _pauli_witness_checks(d, b)
    results.append(_sparse_vector_check(d, seed, samples))
    return results


def _sparse_entry_check(d: int, seed: int, samples: int) -> dict:
    """Corollary 1: entry-sparse states on the hermitian family."""
    herm = build_basis("hermitian", d)
    worst = {}
    for s in (1, 2, 4):
        spec = StateClassSpec("entry_sparse", s=s)
        sampled = [sample_class(spec, d, seed + 1000 * s + i) for i in range(samples)]
        worst[f"s{s}"] = {**_count_block(herm, np.eye(d), sampled, lambda u: d * u),
                          "bound_rule": f"{d}*s_d per state"}
    return {"name": "sparse-entry-count", "anchor": "corollary1",
            "passed": all(v["ok"] for v in worst.values()), "details": worst}


def _pauli_witness_checks(d: int, b: int) -> list:
    """Corollaries 2 and 3: the Pauli line and tilted product witnesses on the
    Pauli family of b qubits."""
    # zeta = count / p is exact, p being a power of 4; it is (p - 1) / p
    # exactly when count = p - 1
    p = d * d
    pauli = build_basis("pauli", d)
    ok, detail = True, {}
    for beta in (0.1, 0.5, 0.9):
        st = pauli_line_state(d, 1, beta)
        count = int(_nondegenerate(active_index_set(st, pauli)).sum())
        ok &= abs(pauli.cell_traces(st.matrix)[0, -1] - 1.0) <= ACTIVE_TOL and count == p - 1
        detail[str(beta)] = {"nondegenerate": count, "zeta": count / p}
    results = [{"name": "pauli-line-witness", "anchor": "corollary2",
                "passed": bool(ok), "details": detail}]

    # the tilted product state; every non-identity member has two cells, +1 then -1
    st = tilted_product_state(b)
    rest = pauli.cell_traces(st.matrix)[1:]
    count = int(_nondegenerate(active_index_set(st, pauli)).sum())
    ok = (count == p - 1 and np.all(rest[:, 0] >= 0.5 - ACTIVE_TOL)
          and np.all(rest[:, 1] >= 1 / 7 - ACTIVE_TOL))
    results.append({"name": "tilted-product-witness", "anchor": "corollary3",
                    "passed": bool(ok), "details": {
                        "zeta": count / p, "min_trace": rest.min(), "max_trace": rest.max()}})
    return results


def _sparse_vector_check(d: int, seed: int, samples: int) -> dict:
    """Corollary 4: sparse-vector mixtures on the default g-vector family."""
    g = default_g_vectors(d)
    gbasis = build_basis("gvector", d, g_vectors=g)
    worst = {}
    for r, gam in ((1, 1), (2, 2)):
        bound = 8 * r * gam * gam + 2 * r * gam
        spec = StateClassSpec("low_rank_sparse_vec", r=r, gamma=gam, g_vectors=g)
        sampled = [sample_class(spec, d, seed + 7000 * r + 100 * gam + i)
                   for i in range(samples)]
        worst[f"r{r}g{gam}"] = {**_count_block(gbasis, g, sampled, lambda u: bound),
                                "bound": bound}
    return {"name": "sparse-vector-count", "anchor": "corollary4",
            "passed": all(v["ok"] for v in worst.values()), "details": worst}


def write_report_json(payload: dict, path) -> None:
    """The one JSON writer, of dicts, lists, strings, numbers, booleans and None;
    anything else raises TypeError, and a NaN or infinite value ValueError, before
    the file is opened, so every file it writes is valid JSON."""
    def default(obj):
        raise TypeError(f"cannot serialize {type(obj)}")

    text = json.dumps(payload, indent=2, sort_keys=True, default=default, allow_nan=False)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text + "\n")
