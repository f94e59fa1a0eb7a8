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
from dataclasses import dataclass, field, fields
from itertools import product

import numpy as np
import scipy  # only for the manifest's version string

from . import __version__, bases, diagnostics, equivalence, measurement, regression, states
from .errors import ConfigParseError
from .rng import RNG_CONTRACT

__all__ = ["ExperimentConfig", "load_config", "run", "main"]

TASKS = ("simulate", "translate", "distances", "zeta", "corollaries",
         "estimator_transfer", "scaling")

# [corollaries] samples <= 1000 also keeps the sample seeds seed + 1000 * s + i apart
ENVELOPE = {"d": 16, "m": 4096, "n": 100_000, "tv_samples": 1_000_000, "replications": 10_000,
            "samples": 1_000}


def _parse_vector(text: str):
    return np.array([float(t) for t in text.replace(";", ",").split(",") if t.strip()])


def _parse_theta_list(text: str):
    return [[float(v) for v in part.split(",") if v.strip()]
            for part in text.split(";") if part.strip()]


def _parse_names(text: str):
    return [w.strip() for w in text.split(",") if w.strip()]


def _parse_m_grid(text: str):
    return [int(t) for t in text.replace(";", ",").split(",") if t.strip()]


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{value} is not finite")
    return value


def _key(section, key: str, cast=str, tasks=TASKS, **default):
    """A config field that ``tasks`` read from ``[section] key`` through ``cast``;
    ``section`` may instead map each task that reads the key to its section."""
    sections = section if isinstance(section, dict) else dict.fromkeys(tasks, section)
    return field(metadata={"key": (sections, key, cast)}, **default)


# the tasks that build a basis and a state; all but estimator_transfer build a design too
_INPUTS = ("simulate", "translate", "zeta", "estimator_transfer")
_DESIGN = _INPUTS[:3]
# the section each grid task reads its grid keys from; estimator_transfer has no theta
_THETA_SECTION = {"distances": "distances", "scaling": "scaling"}
_GRID_SECTION = {**_THETA_SECTION, "estimator_transfer": "transfer"}
_RECORDS = {"simulate": "run", "translate": "run"}  # the tasks that read [run] n and m


@dataclass
class ExperimentConfig:
    """A run's settings.  Every field but ``task`` and ``raw_text`` is read from
    the config key its ``_key`` names, and keeps its default when the file does
    not set that key; these defaults are the only ones."""

    task: str
    basis_kind: str = _key("basis", "kind", default="pauli")
    d: int = _key("basis", "d", int, tasks=_INPUTS + ("corollaries",), default=4)
    g_file: str = _key("basis", "g_file", tasks=_INPUTS, default=None)
    witness: str = _key("state", "witness", tasks=_INPUTS, default=None)
    beta: float = _key("state", "beta", _finite, tasks=_INPUTS, default=0.5)
    j_star: int = _key("state", "j_star", int, tasks=_INPUTS, default=1)
    state_class: str = _key("state", "class", tasks=_INPUTS, default=None)
    s: int = _key("state", "s", int, tasks=_INPUTS, default=None)
    r: int = _key("state", "r", int, tasks=_INPUTS, default=None)
    gamma: int = _key("state", "gamma", int, tasks=_INPUTS, default=None)
    matrix_file: str = _key("state", "matrix_file", tasks=_INPUTS, default=None)
    design_mode: str = _key("design", "mode", tasks=_DESIGN, default="fixed")
    pi: np.ndarray = _key("design", "pi", _parse_vector, tasks=_DESIGN, default=None)
    xi: np.ndarray = _key("design", "xi", _parse_vector, tasks=_DESIGN, default=None)
    n: int = _key(_RECORDS, "n", int, default=None)
    m: int = _key(_RECORDS, "m", int, default=64)
    seed: int = _key("run", "seed", int, default=20130204)
    detail: str = _key({"simulate": "run"}, "detail", default="summary")  # summary only
    out_dir: str = _key("run", "out", default="tomolab_out")
    threads: int = _key("run", "threads", int, default=1)
    c0: float = _key({"zeta": "tolerances"}, "c0", _finite, default=None)
    c1: float = _key({"zeta": "tolerances"}, "c1", _finite, default=None)
    thetas: list = _key(_THETA_SECTION, "theta", _parse_theta_list,
                        default_factory=lambda: [[0.5, 0.5]])
    m_grid: list = _key(_GRID_SECTION, "m_grid", _parse_m_grid,
                        default_factory=lambda: [16, 64, 256, 1024, 4096])
    tv_samples: int = _key({"distances": "distances"}, "tv_samples", int, default=50_000)
    replications: int = _key({"estimator_transfer": "transfer"}, "replications", int,
                             default=600)
    witnesses: list = _key({"zeta": "zeta"}, "witnesses", _parse_names, default_factory=list)
    witness_files: list = _key({"zeta": "zeta"}, "witness_files", _parse_names,
                               default_factory=list)
    class_samples: int = _key({"corollaries": "corollaries"}, "samples", int, default=20)
    raw_text: str = ""


# every (section, key) a config of each task may set: those its fields read, and [run] task
_READS = [f.metadata["key"][:2] for f in fields(ExperimentConfig) if "key" in f.metadata]
_KEYS = {task: {("run", "task")} | {(sections[task], key) for sections, key in _READS
                                    if task in sections} for task in TASKS}


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
    unknown = sorted({(sec, key) for sec in parser for key in parser[sec]} - _KEYS[task])
    if unknown:
        raise ConfigParseError(f"read by no setting of task {task}: "
                               + ", ".join(f"[{s}] {k}" for s, k in unknown))
    values = {}
    for f in fields(ExperimentConfig):
        if "key" in f.metadata:
            sections, key, cast = f.metadata["key"]
            values[f.name] = get(sections.get(task), key, cast)
    cfg = ExperimentConfig(task=task, raw_text=raw,
                           **{name: v for name, v in values.items() if v is not None})
    if cfg.design_mode not in ("fixed", "random"):
        raise ConfigParseError(f"[design] mode must be fixed or random, got {cfg.design_mode!r}")
    if cfg.detail != "summary":
        raise ConfigParseError(f"[run] detail must be summary, got {cfg.detail!r}: the outcome "
                               f"file was removed, since the counts are sufficient")
    sources = [key for key in ("witness", "class", "matrix_file") if parser.has_option("state", key)]
    if len(sources) > 1:
        raise ConfigParseError(f"[state] sets {' and '.join(sources)}; pick one source")
    # keys that only a state class, a random design or a g-vector family reads would go unused
    for section, keys, read, needed in (
            ("state", ("s", "r", "gamma"), cfg.state_class is not None, "[state] class"),
            ("design", ("pi", "xi"), cfg.design_mode == "random", "[design] mode = random"),
            ("basis", ("g_file",), cfg.basis_kind == "gvector", "[basis] kind = gvector")):
        unused = [key for key in keys if getattr(cfg, key) is not None]
        if unused and not read:
            raise ConfigParseError(f"[{section}] {', '.join(unused)}: read only with {needed}")
    # checked here, not by the tasks that build a family, so a task that builds none rejects it too
    if cfg.basis_kind not in bases._KINDS:
        raise ConfigParseError(f"unknown basis kind {cfg.basis_kind!r}: [basis] kind must be one "
                               f"of {bases._KINDS}")

    if "TOMOLAB_SEED" in os.environ:
        try:
            cfg.seed = int(os.environ["TOMOLAB_SEED"])
        except ValueError as exc:
            raise ConfigParseError(f"bad value for TOMOLAB_SEED: {exc}") from exc
    if cfg.n is None:  # every family the runner builds has p = d^2 members
        cfg.n = cfg.d * cfg.d if cfg.design_mode == "fixed" else 0
    _check_bounds(cfg)
    _check_grids(cfg)
    if (cfg.c0 is None) != (cfg.c1 is None) or cfg.c0 is not None and cfg.c0 > cfg.c1:
        raise ConfigParseError(f"[tolerances] c0 and c1 must be set together with c0 <= c1, "
                               f"got c0 = {cfg.c0}, c1 = {cfg.c1}")
    for fname in [cfg.g_file, cfg.matrix_file] + list(cfg.witness_files):
        if fname and not os.path.exists(fname):
            raise ConfigParseError(f"referenced file does not exist: {fname}")
    return cfg


def _check_bounds(cfg: ExperimentConfig) -> None:
    # a Monte-Carlo half-width or a standard error needs two draws, a translate run a record
    for key, value, least, most in (
            ("[basis] d", cfg.d, 2, ENVELOPE["d"]),
            ("[run] m", cfg.m, 1, ENVELOPE["m"]),
            ("[run] n", cfg.n, int(cfg.task == "translate"), ENVELOPE["n"]),
            ("[run] seed or TOMOLAB_SEED", cfg.seed, 0, math.inf),
            ("[corollaries] samples", cfg.class_samples, 1, ENVELOPE["samples"]),
            ("[distances] tv_samples", cfg.tv_samples, 2, ENVELOPE["tv_samples"]),
            ("[transfer] replications", cfg.replications, 2, ENVELOPE["replications"]),
            ("[run] threads or --threads", cfg.threads, 1, math.inf)):
        if value < least:
            raise ConfigParseError(f"{key} must be at least {least}, got {value}")
        if value > most:
            raise ConfigParseError(f"{key.split()[1]} = {value} exceeds envelope {most}")


def _check_grids(cfg: ExperimentConfig) -> None:
    # an empty grid would run no point and pass a check it never made
    if not cfg.thetas:
        raise ConfigParseError("theta lists no probability vector")
    for theta in cfg.thetas:
        try:
            theta = equivalence._checked_theta(theta)
        except ValueError as exc:
            raise ConfigParseError(f"bad theta: {exc}") from exc
        active = int(measurement._active_mask(theta).sum())
        # H = 0 at every m without two active cells, so there is no slope
        if cfg.task == "scaling" and active < 2:
            raise ConfigParseError(f"scaling theta {theta.tolist()} has fewer than two active cells")
        if active > equivalence.MAX_QUAD_CELLS:
            raise ConfigParseError(f"theta {theta.tolist()} has {active} active cells, more than "
                                   f"the {equivalence.MAX_QUAD_CELLS} the quadrature supports")
    if any(m < 1 for m in cfg.m_grid):
        raise ConfigParseError(f"m_grid values must be at least 1, got {cfg.m_grid}")
    if any(m > ENVELOPE["m"] for m in cfg.m_grid):
        raise ConfigParseError(f"m_grid exceeds envelope {ENVELOPE['m']}")
    distinct = len(set(cfg.m_grid))
    least = {"scaling": equivalence.MIN_SCALING_POINTS, "estimator_transfer": 2}.get(cfg.task, 1)
    if distinct < least:
        raise ConfigParseError(f"{cfg.task} needs at least {least} distinct m values, got {distinct}")
    # "the gap shrinks with m" compares consecutive grid points, so m must increase
    if cfg.task == "estimator_transfer" and sorted(set(cfg.m_grid)) != cfg.m_grid:
        raise ConfigParseError(f"estimator_transfer m_grid must strictly increase, got {cfg.m_grid}")


def _read_matrix(fname, dtype, d, check=lambda mat: mat):
    """``check`` of the (d, d) matrix in numpy text file ``fname``, one row a line as
    ``np.savetxt`` writes it; a ValueError in either becomes a ConfigParseError naming
    the file."""
    try:
        with open(fname, encoding="ascii") as fh:
            rows = [line for line in fh if line.split("#")[0].strip()]
        # np.loadtxt would only warn on a file without a row
        mat = np.loadtxt(rows, dtype=dtype, ndmin=2) if rows else np.empty((0, 0))
        if mat.shape != (d, d):
            raise ValueError(f"expected a ({d}, {d}) matrix for [basis] d = {d}, "
                             f"got shape {mat.shape}")
        return check(mat)
    except ValueError as exc:
        raise ConfigParseError(f"matrix file {fname}: {exc}") from exc


def _build_basis(cfg: ExperimentConfig) -> bases.ObservableBasis:
    g = None
    if cfg.basis_kind == "gvector":
        if cfg.g_file is None:
            raise ConfigParseError("gvector basis requires g_file")
        g = _read_matrix(cfg.g_file, float, cfg.d)
    return bases.build_basis(cfg.basis_kind, cfg.d, g_vectors=g)


def _build_state(cfg: ExperimentConfig, basis) -> states.DensityMatrix:
    if cfg.matrix_file:
        return _read_matrix(cfg.matrix_file, complex, cfg.d, states.validate_density)
    if cfg.witness:
        return states.witness_state(cfg.witness, cfg.d, j_star=cfg.j_star, beta=cfg.beta)
    if cfg.state_class:
        spec = states.StateClassSpec(class_name=cfg.state_class, s=cfg.s, r=cfg.r,
                                     gamma=cfg.gamma, g_vectors=basis.g_vectors)
        return states.sample_class(spec, cfg.d, cfg.seed)
    return states.validate_density(np.eye(cfg.d, dtype=complex) / cfg.d)


def _build_design(cfg: ExperimentConfig, basis) -> bases.SamplingDesign:
    if cfg.design_mode == "fixed":
        return bases.SamplingDesign.fixed()
    pi = cfg.pi if cfg.pi is not None else np.full(basis.size, 1.0 / basis.size)
    xi = cfg.xi if cfg.xi is not None else pi
    return bases.SamplingDesign.random(pi, xi)


# --- tasks -------------------------------------------------------------------
#
# A task takes the config and ``path``, which turns an artifact name into its
# path in the output directory and lists it in the manifest; it returns its
# checks.  Only the tasks of ``_INPUTS`` build a basis and a state, and only
# those of ``_DESIGN`` a design.


def _inputs(cfg: ExperimentConfig):
    basis = _build_basis(cfg)
    return basis, _build_state(cfg, basis), _build_design(cfg, basis)


def _task_simulate(cfg, path):
    basis, state, design = _inputs(cfg)
    dataset = measurement.run_tomography(state, basis, design, cfg.n, cfg.m, cfg.seed)
    measurement.write_dataset_csv(dataset, basis, path("tomography.csv"))
    coarse = regression.simulate_coarse(state, basis, design, cfg.n, cfg.m, cfg.seed)
    regression.write_coarse_csv(coarse, path("coarse.csv"))
    fine = regression.simulate_fine(state, basis, design, cfg.n, cfg.m, cfg.seed)
    regression.write_fine_csv(fine, basis, path("fine.csv"))
    return []


def _task_translate(cfg, path):
    basis, state, design = _inputs(cfg)
    dataset = measurement.run_tomography(state, basis, design, cfg.n, cfg.m, cfg.seed)
    translated = equivalence.translate_qst_to_regression(dataset, basis, cfg.seed)
    regression.write_fine_csv(translated, basis, path("translated_fine.csv"))
    back, dropped = equivalence.translate_regression_to_qst(translated, cfg.m)
    exact = np.array_equal(back.counts, dataset.counts)
    payload = {"roundtrip_exact": bool(exact), "dropped": dropped,
               "records": len(dataset.indices)}
    diagnostics.write_report_json(payload, path("translate.json"))
    return [{"name": "kernel-roundtrip", "anchor": "kernel-pair",
             "passed": bool(exact)}]


def _grid(cfg, point):
    """``point(i, theta, m)`` at each grid point i, theta first and then m; the results in order."""
    thetas, ms = zip(*product(cfg.thetas, cfg.m_grid))
    # one thread maps in the calling thread: a pool worker allocates from its own malloc
    # arena, and a run without a pool need not import one
    if cfg.threads == 1:
        return list(map(point, range(len(ms)), thetas, ms))
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
        return list(pool.map(point, range(len(ms)), thetas, ms))


def _task_distances(cfg, path):
    def one(i, theta, m):
        row = equivalence.hellinger_perturbed_vs_gaussian(m, theta, cfg.tv_samples, cfg.seed, i)
        # a bar of sqrt(2) spans every admissible H, so no TV can fail against it
        bar = row["hellinger_err"]
        row["tv_le_hellinger"] = bool(bar < equivalence.H_MAX
                                      and row["tv"] <= row["hellinger"] + bar + row["tv_err"])
        return row

    rows = _grid(cfg, one)
    diagnostics.write_report_json({"grid": rows}, path("distances.json"))
    return [{"name": "tv-below-hellinger", "anchor": "tv-hellinger-inequality",
             "passed": all(row["tv_le_hellinger"] for row in rows)}]


def _task_zeta(cfg, path):
    basis, state, design = _inputs(cfg)
    names = list(cfg.witnesses or ([cfg.witness] if cfg.witness else []))
    wit = [states.witness_state(nm, cfg.d, j_star=cfg.j_star, beta=cfg.beta)
           for nm in names]
    for fname in cfg.witness_files:
        wit.append(_read_matrix(fname, complex, cfg.d, states.validate_density))
        names.append(os.path.basename(fname))
    if not wit:
        wit, names = [state], ["configured-state"]
    weights = None
    if design.mode == "random":
        weights = [design.weights_regression, design.weights_tomography]
    payload = {**diagnostics.zeta_fraction(wit, basis, weights=weights), "states": names}
    checks = []
    if cfg.c0 is not None:
        # every active trace inside [c0, c1]; None when no trace is active
        lo, hi = payload["active_trace_min"], payload["active_trace_max"]
        ok = None if lo is None else cfg.c0 <= lo and hi <= cfg.c1
        payload["c3_bounds"] = [cfg.c0, cfg.c1]
        payload["c3_ok"] = ok
        checks.append({"name": "c3-trace-window", "anchor": "active-trace-window",
                       "passed": bool(ok)})
    if design.mode == "random":
        payload["gamma_p"] = diagnostics.gamma_p(design.weights_regression,
                                                 design.weights_tomography)
    diagnostics.write_report_json(payload, path("zeta.json"))
    return checks


def _task_corollaries(cfg, path):
    results = diagnostics.corollary_suite(cfg.d, cfg.seed, cfg.class_samples)
    diagnostics.write_report_json({"checks": results}, path("corollaries.json"))
    return [{"name": res["name"], "anchor": res["anchor"], "passed": res["passed"]}
            for res in results]


def _task_transfer(cfg, path):
    basis = _build_basis(cfg)
    report = regression.estimator_transfer_sweep(_build_state(cfg, basis), basis, cfg.m_grid,
                                                 cfg.seed, cfg.replications)
    diagnostics.write_report_json(report, path("transfer.json"))
    return [{"name": "risk-gap-monotone", "anchor": "estimator-transfer",
             "passed": report["monotone"]}]


def _task_scaling(cfg, path):
    rows = _grid(cfg, lambda i, theta, m: equivalence.hellinger_perturbed_vs_gaussian(m, theta))
    k = len(cfg.m_grid)
    ok_all = True
    for i, theta in enumerate(cfg.thetas):
        report = equivalence.scaling_report(theta, cfg.m_grid, rows[i * k:(i + 1) * k])
        diagnostics.write_report_json(report, path(f"scaling_{i}.json"))
        ok_all &= report["passed"]
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


def run(cfg: ExperimentConfig) -> dict:
    """Run the config's task; return the manifest it writes to ``manifest.json``."""
    out = cfg.out_dir
    artifacts = []

    def path(name):
        # made when the first artifact is named, so a task that rejects its input leaves none
        os.makedirs(out, exist_ok=True)
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
    diagnostics.write_report_json(manifest, path("manifest.json"))
    return manifest


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
            _check_bounds(cfg)
        if args.out is not None:
            cfg.out_dir = args.out
        manifest = run(cfg)
    except ConfigParseError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for check in manifest["checks"]:
        status = "PASS" if check["passed"] else "FAIL"
        print(f"[{status}] {check['name']} ({check['anchor']})")
    print(f"artifacts in {cfg.out_dir}")
    return 0 if all(c["passed"] for c in manifest["checks"]) else 1


if __name__ == "__main__":
    sys.exit(main())
