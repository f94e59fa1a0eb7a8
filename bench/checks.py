"""Output checks for the benchmark workloads, and the facts recorded about a run.

The checks use properties that hold under any RNG contract: row counts,
count and probability sums, a CLT bound on the pooled residual of the coarse
regression, Hellinger values within the error bars of the reference record,
and the documented corollary outcomes.  Artifact hashes are compared with
the reference only as a diagnostic (``artifacts_identical``), never as a
check, so a deliberate change of the RNG contract stays visible without
counting as a failure.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

import numpy as np

from tomolab import bases, states

# |pooled standardized residual| and the spread of z^2 must stay inside
# Z_LIMIT standard errors; a correct simulator fails this about once in 10^6
Z_LIMIT = 5.0
SUM_TOL = 1e-9

# the documented outcome of the corollaries task: criteria 1 and 4 refute the
# nominal count bounds, the corrected rule holds (see the README)
COROLLARY_OUTCOMES = {"corollary1": False, "corollary2": True,
                      "corollary3": True, "corollary4": False}
EXPECTED_RC = {"simulate-pauli16": 0, "distances-4cell": 0,
               "scaling-lowdim": 0, "corollaries-d16": 1}


def build_state(cfg, basis):
    """The configured state, from the public builders (class sample or maximally mixed)."""
    if cfg.state_class:
        spec = states.StateClassSpec(class_name=cfg.state_class, s=cfg.s, r=cfg.r,
                                     gamma=cfg.gamma, g_vectors=basis.g_vectors)
        return states.sample_class(spec, cfg.d, cfg.seed)
    return states.validate_density(np.eye(cfg.d, dtype=complex) / cfg.d)


def sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _rows(path):
    with open(path, newline="", encoding="ascii") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, list(reader)


def _check_simulate(cfg, out, facts):
    basis = bases.build_basis(cfg.basis_kind, cfg.d)
    rho = build_state(cfg, basis).matrix
    n, m, p = cfg.n, cfg.m, basis.size
    facts["records"] = 3 * n

    header, rows = _rows(os.path.join(out, "tomography.csv"))
    if header != ["k", "j", "m", "counts", "N"] or len(rows) != n:
        return f"tomography.csv: header {header}, {len(rows)} rows, expected {n}"
    for row in rows:
        if not 0 <= int(row[1]) < p or int(row[2]) != m:
            return f"tomography.csv: bad row {row[:3]}"
        if sum(int(u) for u in row[3].split("|")) != m:
            return f"tomography.csv: counts of record {row[0]} do not sum to m"

    header, rows = _rows(os.path.join(out, "fine.csv"))
    if header != ["k", "j", "y"] or len(rows) != n:
        return f"fine.csv: header {header}, {len(rows)} rows, expected {n}"
    for row in rows:
        if abs(sum(float(v) for v in row[2].split("|")) - 1.0) > SUM_TOL:
            return f"fine.csv: record {row[0]} does not sum to 1"

    header, rows = _rows(os.path.join(out, "coarse.csv"))
    if header != ["k", "j", "Y"] or len(rows) != n:
        return f"coarse.csv: header {header}, {len(rows)} rows, expected {n}"
    moments = {}
    z = []
    for row in rows:
        j, y = int(row[1]), float(row[2])
        if j not in moments:
            b = basis.matrices[j]
            mean = float(np.trace(b @ rho).real)
            var = float(np.trace(b @ b @ rho).real) - mean * mean
            moments[j] = (mean, var)
        mean, var = moments[j]
        if var <= 1e-12:
            if abs(y - mean) > SUM_TOL:
                return f"coarse.csv: deterministic member {j} has noise"
            continue
        z.append((y - mean) / math.sqrt(var / m))
    z = np.array(z)
    pooled = float(z.sum() / math.sqrt(len(z)))
    spread = float((np.mean(z * z) - 1.0) / math.sqrt(2.0 / len(z)))
    facts["coarse_pooled_z"] = pooled
    facts["coarse_z2_dev"] = spread
    if abs(pooled) > Z_LIMIT or abs(spread) > Z_LIMIT:
        return f"coarse.csv: residuals off the CLT band (pooled {pooled:.2f}, z^2 {spread:.2f})"
    return None


def _distance_points(cfg, out):
    """{theta, m, H, err} of every grid point in the task's artifacts."""
    if cfg.task == "distances":
        with open(os.path.join(out, "distances.json"), encoding="ascii") as fh:
            return [{"theta": row["theta"], "m": row["m"], "H": row["hellinger"],
                     "err": row["hellinger_err"]} for row in json.load(fh)["grid"]]
    points = []
    for i in range(len(cfg.thetas)):
        with open(os.path.join(out, f"scaling_{i}.json"), encoding="ascii") as fh:
            rep = json.load(fh)
        points.extend({"theta": rep["theta"], "m": m, "H": h, "err": e} for m, h, e in
                      zip(rep["m_grid"], rep["values"], rep["error_bars"]))
    return points


def _point_key(theta, m):
    return json.dumps([[round(float(t), 12) for t in theta], int(m)])


def _check_distances(cfg, facts, reference):
    points = facts["points"]
    expected = len(cfg.thetas) * len(cfg.m_grid)
    if len(points) != expected:
        return f"{len(points)} grid points, expected {expected}"
    ref = {_point_key(p["theta"], p["m"]): p for p in reference.get("points", [])}
    for p in points:
        rp = ref.get(_point_key(p["theta"], p["m"]))
        if rp is None:
            return f"no reference value for theta={p['theta']}, m={p['m']}"
        if not abs(p["H"] - rp["H"]) <= rp["err"] + p["err"]:
            return (f"H={p['H']!r} at theta={p['theta']}, m={p['m']} is outside the "
                    f"reference {rp['H']!r} +- ({rp['err']!r} + {p['err']!r})")
    return None


def _check_corollaries(out, facts, manifest):
    outcomes = {c["anchor"]: c["passed"] for c in manifest["checks"]}
    facts["corollary_outcomes"] = outcomes
    if outcomes != COROLLARY_OUTCOMES:
        return f"corollary outcomes {outcomes}, documented {COROLLARY_OUTCOMES}"
    with open(os.path.join(out, "corollaries.json"), encoding="ascii") as fh:
        results = json.load(fh)["checks"]
    for res in results:
        if res["anchor"] in ("corollary1", "corollary4"):
            if not all(v["corrected_rule_ok"] for v in res["details"].values()):
                return f"{res['anchor']}: the corrected counting rule failed"
    return None


def collect(cfg, out):
    """The run's manifest, and its facts: artifact hashes and distance points."""
    with open(os.path.join(out, "manifest.json"), encoding="ascii") as fh:
        manifest = json.load(fh)
    facts = {"artifacts": {name: sha256(os.path.join(out, name))
                           for name in manifest["artifacts"]}}
    if cfg.task in ("distances", "scaling"):
        facts["points"] = _distance_points(cfg, out)
        facts["hellinger_err_max"] = max(p["err"] for p in facts["points"])
    return manifest, facts


def check_run(workload, cfg, out, rc, reference):
    """Check one run's outputs against ``reference``.  Returns (problem or None, facts)."""
    manifest, facts = collect(cfg, out)
    if reference.get("config") == cfg.raw_text:
        facts["artifacts_identical"] = facts["artifacts"] == reference["artifacts"]
    else:
        facts["artifacts_identical"] = None   # no record for this config and seed
    if rc != EXPECTED_RC[workload]:
        return f"exit code {rc}, expected {EXPECTED_RC[workload]}", facts
    if cfg.task == "corollaries":
        return _check_corollaries(out, facts, manifest), facts
    if not all(c["passed"] for c in manifest["checks"]):
        return f"task checks failed: {manifest['checks']}", facts
    if cfg.task == "simulate":
        return _check_simulate(cfg, out, facts), facts
    return _check_distances(cfg, facts, reference), facts
