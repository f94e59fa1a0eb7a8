"""Config-driven experiment runner.

Usage::

    tomolab run --config experiment.cfg [--threads N] [--out DIR]

The config is INI-style (flat key = value lines inside [section] blocks);
see the README for the full schema.  Every run writes a ``manifest.json``
(config echo, versions, effective seed) next to the task artifacts, enough
to reproduce each artifact bit-exactly.  The environment variable
``TOMOLAB_SEED`` overrides the configured seed.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 config or
I/O error.
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields

import numpy as np
import scipy

from . import __version__, bases, diagnostics, equivalence, measurement, regression, states
from .errors import ConfigParseError, TomolabError
from .hermitian import hs_inner, read_matrix, stack_traces
from .rng import RNG_CONTRACT, TRANSFER, substream

__all__ = ["ExperimentConfig", "ReportBundle", "load_config", "run", "estimator_transfer", "main"]

TASKS = ("simulate", "translate", "distances", "zeta", "corollaries",
         "estimator_transfer", "scaling")

ENVELOPE = {"d": 16, "m": 4096, "n": 100_000, "tv_samples": 1_000_000, "replications": 10_000}


def _parse_vector(text: str):
    return np.array([float(t) for t in text.replace(";", ",").split(",") if t.strip()])


def _parse_theta_list(text: str):
    return [[float(v) for v in part.split(",") if v.strip()]
            for part in text.split(";") if part.strip()]


def _parse_names(text: str):
    return [w.strip() for w in text.split(",") if w.strip()]


def _parse_m_grid(text: str):
    return [int(v) for v in _parse_vector(text)]


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{value} is not finite")
    return value


def _key(section, key: str, cast=str, **default):
    """A config field read from ``[section] key`` through ``cast``; ``section``
    may map each task to the one section it reads the key from."""
    return field(metadata={"key": (section, key, cast)}, **default)


# the section each grid task reads its grid keys from; estimator_transfer has no theta
_THETA_SECTION = {"distances": "distances", "scaling": "scaling"}
_GRID_SECTION = {**_THETA_SECTION, "estimator_transfer": "transfer"}


@dataclass
class ExperimentConfig:
    """A run's settings.  Every field but ``task`` and ``raw_text`` is read from
    the config key its ``_key`` names, and keeps its default when the file does
    not set that key; these defaults are the only ones."""

    task: str
    basis_kind: str = _key("basis", "kind", default="pauli")
    d: int = _key("basis", "d", int, default=4)
    g_file: str = _key("basis", "g_file", default=None)
    witness: str = _key("state", "witness", default=None)
    beta: float = _key("state", "beta", _finite, default=0.5)
    j_star: int = _key("state", "j_star", int, default=1)
    state_class: str = _key("state", "class", default=None)
    s: int = _key("state", "s", int, default=None)
    r: int = _key("state", "r", int, default=None)
    gamma: int = _key("state", "gamma", int, default=None)
    matrix_file: str = _key("state", "matrix_file", default=None)
    design_mode: str = _key("design", "mode", default="fixed")
    pi: np.ndarray = _key("design", "pi", _parse_vector, default=None)
    xi: np.ndarray = _key("design", "xi", _parse_vector, default=None)
    n: int = _key("run", "n", int, default=None)
    m: int = _key("run", "m", int, default=64)
    seed: int = _key("run", "seed", int, default=20130204)
    detail: str = _key("run", "detail", default="summary")
    out_dir: str = _key("run", "out", default="tomolab_out")
    threads: int = _key("run", "threads", int, default=1)
    active_tol: float = _key("tolerances", "active_tol", _finite, default=diagnostics.ACTIVE_TOL)
    c0: float = _key("tolerances", "c0", _finite, default=None)
    c1: float = _key("tolerances", "c1", _finite, default=None)
    thetas: list = _key(_THETA_SECTION, "theta", _parse_theta_list,
                        default_factory=lambda: [[0.5, 0.5]])
    m_grid: list = _key(_GRID_SECTION, "m_grid", _parse_m_grid,
                        default_factory=lambda: [16, 64, 256, 1024, 4096])
    tv_samples: int = _key("distances", "tv_samples", int, default=50_000)
    replications: int = _key("transfer", "replications", int, default=600)
    witnesses: list = _key("zeta", "witnesses", _parse_names, default_factory=list)
    witness_files: list = _key("zeta", "witness_files", _parse_names, default_factory=list)
    class_samples: int = _key("corollaries", "samples", int, default=20)
    raw_text: str = ""


@dataclass
class ReportBundle:
    manifest: dict
    artifacts: list
    checks: list

    @property
    def passed(self) -> bool:
        return all(c["passed"] for c in self.checks)


def load_config(path) -> ExperimentConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
        parser.read_string(raw)
    except (OSError, configparser.Error) as exc:
        raise ConfigParseError(f"cannot read config {path}: {exc}") from exc

    def get(section, key, cast=str):
        if section is not None and parser.has_option(section, key):
            try:
                return cast(parser.get(section, key))
            except (ValueError, OverflowError) as exc:
                raise ConfigParseError(f"bad value for [{section}] {key}: {exc}") from exc
        return None

    task = get("run", "task")
    if task not in TASKS:
        raise ConfigParseError(f"task must be one of {TASKS}, got {task!r}")
    values = {}
    for f in fields(ExperimentConfig):
        if "key" in f.metadata:
            section, key, cast = f.metadata["key"]
            if isinstance(section, dict):
                section = section.get(task)
            values[f.name] = get(section, key, cast)
    cfg = ExperimentConfig(task=task, raw_text=raw,
                           **{name: v for name, v in values.items() if v is not None})

    if "TOMOLAB_SEED" in os.environ:
        cfg.seed = int(os.environ["TOMOLAB_SEED"])
    _check_envelope(cfg)
    _check_sizes(cfg)
    _check_grids(cfg)
    return cfg


def _check_sizes(cfg: ExperimentConfig) -> None:
    # a Monte-Carlo half-width or a standard error needs two draws, translate's round
    # trip a record; an unset n is p >= 1 under a fixed design and 0 under a random one
    n = cfg.n if cfg.n is not None else int(cfg.design_mode == "fixed")
    for key, value, least in (("[corollaries] samples", cfg.class_samples, 1),
                              ("[distances] tv_samples", cfg.tv_samples, 2),
                              ("[transfer] replications", cfg.replications, 2),
                              ("[run] threads or --threads", cfg.threads, 1),
                              ("[run] n", n, int(cfg.task == "translate"))):
        if value < least:
            raise ConfigParseError(f"{key} must be at least {least}, got {value}")


def _check_grids(cfg: ExperimentConfig) -> None:
    # an empty grid would run no point and pass a check it never made
    if not cfg.thetas:
        raise ConfigParseError("theta lists no probability vector")
    for theta in cfg.thetas:
        try:
            theta = equivalence._checked_theta(theta)
        except ValueError as exc:
            raise ConfigParseError(f"bad theta: {exc}") from exc
        active = len(measurement._active_cells(theta))
        # H = 0 at every m without two active cells, so there is no slope
        if cfg.task == "scaling" and active < 2:
            raise ConfigParseError(f"scaling theta {theta.tolist()} has fewer than two active cells")
        if active > equivalence.MAX_QUAD_CELLS:
            raise ConfigParseError(f"theta {theta.tolist()} has {active} active cells, more than "
                                   f"the {equivalence.MAX_QUAD_CELLS} the quadrature supports")
    if any(m < 1 for m in cfg.m_grid):
        raise ConfigParseError(f"m_grid values must be at least 1, got {cfg.m_grid}")
    distinct = len(set(cfg.m_grid))
    least = equivalence.MIN_SCALING_POINTS if cfg.task == "scaling" else 1
    if distinct < least:
        raise ConfigParseError(f"{cfg.task} needs at least {least} distinct m values, got {distinct}")


def _check_envelope(cfg: ExperimentConfig) -> None:
    if cfg.d > ENVELOPE["d"]:
        raise ConfigParseError(f"d = {cfg.d} exceeds envelope {ENVELOPE['d']}")
    if cfg.m > ENVELOPE["m"]:
        raise ConfigParseError(f"m = {cfg.m} exceeds envelope {ENVELOPE['m']}")
    if cfg.n is not None and cfg.n > ENVELOPE["n"]:
        raise ConfigParseError(f"n = {cfg.n} exceeds envelope {ENVELOPE['n']}")
    if any(m > ENVELOPE["m"] for m in cfg.m_grid):
        raise ConfigParseError(f"m_grid exceeds envelope {ENVELOPE['m']}")
    for key, value in (("tv_samples", cfg.tv_samples), ("replications", cfg.replications)):
        if value > ENVELOPE[key]:
            raise ConfigParseError(f"{key} = {value} exceeds envelope {ENVELOPE[key]}")
    for fname in [cfg.g_file, cfg.matrix_file] + list(cfg.witness_files):
        if fname and not os.path.exists(fname):
            raise ConfigParseError(f"referenced file does not exist: {fname}")


def _build_basis(cfg: ExperimentConfig) -> bases.ObservableBasis:
    g = None
    if cfg.basis_kind == "gvector":
        if cfg.g_file is None:
            raise ConfigParseError("gvector basis requires g_file")
        g = np.loadtxt(cfg.g_file)
    return bases.build_basis(cfg.basis_kind, cfg.d, g_vectors=g)


def _build_state(cfg: ExperimentConfig, basis) -> states.DensityMatrix:
    if cfg.matrix_file:
        return states.validate_density(read_matrix(cfg.matrix_file))
    if cfg.witness:
        return states.witness_state(cfg.witness, cfg.d, j_star=cfg.j_star, beta=cfg.beta)
    if cfg.state_class:
        g = basis.g_vectors
        if g is None and cfg.state_class == "low_rank_sparse_vec":
            g = bases.default_g_vectors(cfg.d)
        spec = states.StateClassSpec(class_name=cfg.state_class, s=cfg.s, r=cfg.r,
                                     gamma=cfg.gamma, g_vectors=g)
        return states.sample_class(spec, cfg.d, cfg.seed)
    return states.validate_density(np.eye(cfg.d, dtype=complex) / cfg.d)


def _build_design(cfg: ExperimentConfig, basis) -> bases.SamplingDesign:
    if cfg.design_mode == "fixed":
        return bases.SamplingDesign.fixed()
    measurable = basis.sizes > 0
    # masking-only members cannot be measured, so they get no weight; with
    # every member measurable this is exactly np.full(p, 1 / p)
    default = measurable / measurable.sum()
    pi = cfg.pi if cfg.pi is not None else default
    xi = cfg.xi if cfg.xi is not None else pi
    return bases.SamplingDesign.random(pi, xi)


# --- tasks -------------------------------------------------------------------
#
# A task takes the config and ``path``, which turns an artifact name into its
# path in the output directory and lists it in the manifest; it returns its
# checks.  Only the tasks that simulate or measure a state build a basis, a
# state and a design.


def _inputs(cfg: ExperimentConfig):
    basis = _build_basis(cfg)
    return basis, _build_state(cfg, basis), _build_design(cfg, basis)


def _task_simulate(cfg, path):
    basis, state, design = _inputs(cfg)
    n = cfg.n if cfg.n is not None else (basis.size if design.mode == "fixed" else 0)
    dataset = measurement.run_tomography(state, basis, design, n, cfg.m, cfg.seed,
                                         detail=cfg.detail)
    measurement.write_dataset_csv(dataset, path("tomography.csv"))
    if dataset.individuals is not None:
        measurement.write_individuals_csv(dataset, path("individuals.csv"))
    coarse = regression.simulate_coarse(state, basis, design, n, cfg.m, cfg.seed)
    regression.write_coarse_csv(coarse, path("coarse.csv"))
    fine = regression.simulate_fine(state, basis, design, n, cfg.m, cfg.seed)
    regression.write_fine_csv(fine, path("fine.csv"))
    return []


def _task_translate(cfg, path):
    basis, state, design = _inputs(cfg)
    n = cfg.n if cfg.n is not None else (basis.size if design.mode == "fixed" else 0)
    dataset = measurement.run_tomography(state, basis, design, n, cfg.m, cfg.seed)
    translated = equivalence.translate_qst_to_regression(dataset, cfg.seed)
    regression.write_fine_csv(translated, path("translated_fine.csv"))
    back, dropped = equivalence.translate_regression_to_qst(translated, cfg.m)
    # K1 keeps each row's length, so with nothing dropped the flat counts line up
    exact = dropped == 0 and np.array_equal(np.concatenate(back.counts), np.concatenate(dataset.counts))
    payload = {"roundtrip_exact": bool(exact), "dropped": dropped,
               "records": len(dataset.indices)}
    diagnostics.write_report_json(payload, path("translate.json"))
    return [{"name": "kernel-roundtrip", "anchor": "kernel-pair",
             "passed": bool(exact)}]


def _task_distances(cfg, path):
    points = [(theta, int(m)) for theta in cfg.thetas for m in cfg.m_grid]

    def one(i):
        theta, m = points[i]
        hel = equivalence.hellinger_perturbed_vs_gaussian(m, theta)
        tv = equivalence.tv_perturbed_vs_gaussian(m, theta, cfg.tv_samples, cfg.seed, i)
        return hel, tv

    # one thread maps in the calling thread: a pool worker allocates from its own malloc arena
    with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
        results = list((pool.map if cfg.threads > 1 else map)(one, range(len(points))))

    rows, estimates = [], []
    ok_all = True
    for (theta, m), (hel, tv) in zip(points, results):
        ok = tv.value <= hel.value + hel.error_bar + tv.error_bar
        ok_all &= ok
        rows.append({"theta": theta, "m": m, "hellinger": hel.value,
                     "hellinger_err": hel.error_bar, "tv": tv.value,
                     "tv_err": tv.error_bar, "tv_le_hellinger": bool(ok)})
        estimates.extend([asdict(hel), asdict(tv)])
    diagnostics.write_report_json({"grid": rows}, path("distances.json"))
    diagnostics.write_report_json(estimates, path("distance_fixtures.json"))
    return [{"name": "tv-below-hellinger", "anchor": "tv-hellinger-inequality",
             "passed": bool(ok_all)}]


def _task_zeta(cfg, path):
    basis, state, design = _inputs(cfg)
    names = list(cfg.witnesses or ([cfg.witness] if cfg.witness else []))
    wit = [states.witness_state(nm, cfg.d, j_star=cfg.j_star, beta=cfg.beta)
           for nm in names]
    for fname in cfg.witness_files:
        wit.append(states.validate_density(read_matrix(fname)))
        names.append(os.path.basename(fname))
    if not wit:
        wit, names = [state], ["configured-state"]
    weights = None
    if design.mode == "random":
        weights = [design.weights_regression, design.weights_tomography]
    c_bounds = (cfg.c0, cfg.c1) if cfg.c0 is not None and cfg.c1 is not None else None
    report = diagnostics.zeta_fraction(wit, basis, weights=weights,
                                       tol=cfg.active_tol, state_labels=names,
                                       c_bounds=c_bounds)
    payload = {
        "zeta": report.zeta,
        "fractions": list(report.fractions),
        "counts": list(report.counts),
        "states": list(report.state_labels),
        "active_trace_min": report.c3_min,
        "active_trace_max": report.c3_max,
    }
    checks = []
    if c_bounds is not None:
        payload["c3_bounds"] = list(c_bounds)
        payload["c3_ok"] = report.c3_ok
        checks.append({"name": "c3-trace-window", "anchor": "active-trace-window",
                       "passed": bool(report.c3_ok)})
    if design.mode == "random":
        payload["gamma_p"] = diagnostics.gamma_p(design.weights_regression,
                                                 design.weights_tomography)
    diagnostics.write_report_json(payload, path("zeta.json"))
    return checks


def _task_corollaries(cfg, path):
    results = corollary_suite(cfg.d, cfg.seed, cfg.class_samples)
    diagnostics.write_report_json({"checks": results}, path("corollaries.json"))
    return [{"name": res["name"], "anchor": res["anchor"], "passed": res["passed"]}
            for res in results]


def _task_transfer(cfg, path):
    basis, state, _ = _inputs(cfg)
    report = estimator_transfer_sweep(state, basis, cfg.m_grid, cfg.seed, cfg.replications)
    diagnostics.write_report_json(report, path("transfer.json"))
    columns = ("risk_counts", "risk_gaussian", "gap", "gap_se")
    measurement._write_table(path("transfer.csv"), ("m",) + columns, (
        [row["m"], *(measurement._fmt(row[c]) for c in columns)] for row in report["sweep"]),
        lineterminator="\n")
    return [{"name": "risk-gap-monotone", "anchor": "estimator-transfer",
             "passed": report["monotone"]}]


def _task_scaling(cfg, path):
    ok_all = True
    for i, theta in enumerate(cfg.thetas):
        report = equivalence.scaling_study(theta, cfg.m_grid)
        equivalence.write_scaling_csv(report, path(f"scaling_{i}.csv"))
        diagnostics.write_report_json(asdict(report), path(f"scaling_{i}.json"))
        ok_all &= report.passed
    return [{"name": "hellinger-slope-band", "anchor": "perturbed-count-scaling",
             "passed": bool(ok_all)}]


_TASK_FNS = {
    "simulate": _task_simulate,
    "translate": _task_translate,
    "distances": _task_distances,
    "zeta": _task_zeta,
    "corollaries": _task_corollaries,
    "estimator_transfer": _task_transfer,
    "scaling": _task_scaling,
}


def run(cfg: ExperimentConfig) -> ReportBundle:
    out = cfg.out_dir
    os.makedirs(out, exist_ok=True)
    artifacts = []

    def path(name):
        artifacts.append(os.path.join(out, name))
        return artifacts[-1]

    checks = _TASK_FNS[cfg.task](cfg, path)
    manifest = {
        "task": cfg.task,
        "seed": cfg.seed,
        "threads": cfg.threads,
        "rng_contract": RNG_CONTRACT,
        "versions": {"tomolab": __version__, "numpy": np.__version__,
                     "scipy": scipy.__version__},
        "config": cfg.raw_text,
        "artifacts": [os.path.basename(a) for a in artifacts],
        "checks": checks,
    }
    mpath = os.path.join(out, "manifest.json")
    diagnostics.write_report_json(manifest, mpath)
    return ReportBundle(manifest=manifest, artifacts=artifacts + [mpath], checks=checks)


# --- estimator transfer --------------------------------------------------------


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
    if m < 1:
        raise TomolabError("m must be at least 1")
    rng = substream(seed, TRANSFER)
    norms = np.array([hs_inner(b, b).real for b in basis.matrices])
    theta = measurement.cell_probabilities(rho, basis)
    mean = stack_traces(basis.matrices, rho)
    sd = np.sqrt(regression.noise_variance_coarse(rho, basis) / m)
    alpha = mean / norms
    err_counts = np.empty((replications, p))
    err_gauss = np.empty((replications, p))
    for j in range(p):
        counts = rng.multinomial(m, theta[basis.cells(j)], size=replications)
        est_c = counts @ basis.eigenvalues[basis.cells(j)] / m / norms[j]
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
    """Run the transfer comparison across a repetition grid; check the gap shrinks."""
    sweep = [estimator_transfer(rho, basis, int(m), seed, replications) for m in m_grid]
    monotone = all(
        sweep[i + 1]["gap"] <= sweep[i]["gap"] + sweep[i]["gap_se"] + sweep[i + 1]["gap_se"]
        for i in range(len(sweep) - 1))
    return {"sweep": sweep, "monotone": bool(monotone)}


# --- corollary verification suite ------------------------------------------------


def corollary_suite(d: int, seed: int, samples: int, tol: float = 1e-9) -> list:
    """The four witness-and-count checks over the built-in families at dimension d.

    The two counting checks (sparse entries, sparse-vector mixtures) evaluate
    the nominal bounds d*s_d and 8*r*gamma^2 + 2*r*gamma; each result also
    reports the observed maximum count so discrepancies stay visible.
    """
    results = []
    p = d * d

    # sparse-entry states against the hermitian family
    herm = bases.build_basis("hermitian", d)
    worst = {}
    for s in (1, 2, 4):
        max_count, violations, corrected_ok = 0, 0, True
        for i in range(samples):
            st = states.sample_class(states.StateClassSpec("entry_sparse", s=s), d,
                                     seed + 1000 * s + i)
            s_d = int(np.sum(np.abs(np.diag(st.matrix)) > tol))
            count = diagnostics.active_index_set(st, herm, tol).nondegenerate_count
            max_count = max(max_count, count)
            violations += count > d * s_d
            corrected_ok &= count <= 2 * d * s_d - s_d * s_d
        worst[f"s{s}"] = {"max_count": max_count, "bound_rule": f"{d}*s_d per state",
                          "violations": int(violations), "samples": samples,
                          "corrected_rule_ok": bool(corrected_ok),
                          "ok": violations == 0}
    results.append({
        "name": "sparse-entry-count", "anchor": "corollary1",
        "passed": all(v["ok"] for v in worst.values()),
        "details": worst,
    })

    # the one-direction line state against the Pauli family
    pauli = bases.build_basis("pauli", d) if (d & (d - 1)) == 0 else None
    if pauli is not None:
        ok = True
        detail = {}
        for beta in (0.1, 0.5, 0.9):
            st = states.pauli_line_state(d, 1, beta)
            report = diagnostics.active_index_set(st, pauli, tol)
            zeta = diagnostics.zeta_fraction([st], pauli, tol=tol).zeta
            trace_id = pauli.cell_traces(st.matrix)[0]
            ok &= abs(trace_id - 1.0) <= tol
            ok &= report.nondegenerate_count == p - 1
            ok &= abs(zeta - (p - 1) / p) <= tol
            detail[str(beta)] = {"nondegenerate": report.nondegenerate_count,
                                 "zeta": zeta}
        results.append({"name": "pauli-line-witness", "anchor": "corollary2",
                        "passed": bool(ok), "details": detail})

        # the tilted product state
        st = states.tilted_product_state(int(round(np.log2(d))))
        # every non-identity member has two cells, +1 then -1
        traces = pauli.cell_traces(st.matrix)
        first = pauli.cell_start[1:-1]
        rest = traces[first[0]:]
        lo, hi = rest.min(), rest.max()
        ok = np.all(traces[first] >= 0.5 - tol) and np.all(traces[first + 1] >= 1.0 / 7.0 - tol)
        zeta = diagnostics.zeta_fraction([st], pauli, tol=tol).zeta
        ok &= abs(zeta - (p - 1) / p) <= tol
        results.append({"name": "tilted-product-witness", "anchor": "corollary3",
                        "passed": bool(ok),
                        "details": {"zeta": zeta, "min_trace": lo, "max_trace": hi}})

    # sparse-vector mixtures against a g-vector family
    g = bases.default_g_vectors(d)
    gbasis = bases.build_basis("gvector", d, g_vectors=g)
    worst = {}
    for (r, gam) in ((1, 1), (2, 2)):
        max_count, violations, corrected_ok = 0, 0, True
        bound = 8 * r * gam * gam + 2 * r * gam
        for i in range(samples):
            spec = states.StateClassSpec("low_rank_sparse_vec", r=r, gamma=gam, g_vectors=g)
            st = states.sample_class(spec, d, seed + 7000 * r + 100 * gam + i)
            count = diagnostics.active_index_set(st, gbasis, tol).nondegenerate_count
            max_count = max(max_count, count)
            violations += count > bound
            # union g-support of the eigenvectors gives the per-family
            # at-least-one-endpoint pair count, plus the diagonal members
            evals, evecs = np.linalg.eigh(st.matrix)
            coeffs = g.T @ evecs[:, evals > tol]
            u = int(np.sum(np.any(np.abs(coeffs) > tol, axis=1)))
            corrected = 2 * (u * d - u * (u + 1) // 2) + u
            corrected_ok &= count <= corrected
        worst[f"r{r}g{gam}"] = {"max_count": max_count, "bound": bound,
                                "violations": int(violations), "samples": samples,
                                "corrected_rule_ok": bool(corrected_ok),
                                "ok": violations == 0}
    results.append({
        "name": "sparse-vector-count", "anchor": "corollary4",
        "passed": all(v["ok"] for v in worst.values()),
        "details": worst,
    })
    return results


# --- entry point -----------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="tomolab",
                                     description="config-driven tomography/regression lab")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="execute the task in a config file")
    runp.add_argument("--config", required=True)
    runp.add_argument("--threads", type=int, default=None)
    runp.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        if args.threads is not None:
            cfg.threads = args.threads
            _check_sizes(cfg)
        if args.out is not None:
            cfg.out_dir = args.out
        bundle = run(cfg)
    except ConfigParseError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for check in bundle.checks:
        status = "PASS" if check["passed"] else "FAIL"
        print(f"[{status}] {check['name']} ({check['anchor']})")
    print(f"artifacts in {cfg.out_dir}")
    return 0 if bundle.passed else 1


if __name__ == "__main__":
    sys.exit(main())
