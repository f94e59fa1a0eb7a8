"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criterion 4 checks the per-family count rule: when a state's range
lies in the span of u axes, only the u diagonal members on those axes and
both members of every pair touching one of them can have a nondegenerate
measurement law, so the count is at most 2*d*u - u^2.  Closed-form witnesses
pin the exact counts: e1 e1' gives 2(d-1) and a two-entry diagonal state
gives 4d - 4, the rule at u = 2.  The nominal constants d*s_d and
8*r*gamma^2 + 2*r*gamma are printed but not asserted: e1 e1' alone already
exceeds d*1, because a pair member needs only one axis of the support to
reach cell probabilities (1/2, 1/2).  The README carries the full analysis.
"""

import json
import math
import time

import numpy as np

from oracles import pauli_projection_traces
from tomolab import bases, cli, diagnostics, equivalence as eq, measurement, regression, states

SEED = 20130204


def _report(num: int, desc: str, ok: bool, extra: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}"
    if extra:
        line += f" ({extra})"
    print(line)
    assert ok, line


def test_criterion_01_pauli_eigenstructure():
    t0 = time.monotonic()
    worst = 0.0
    pair_counts_ok = True
    for d in (2, 4, 8, 16):
        basis = bases.build_basis("pauli", d)
        for j in range(1, basis.size):
            lam = basis.eigenvalues[j, basis.cells(j)]
            pair_counts_ok &= len(lam) == 2
            worst = max(worst, abs(lam[0] - 1), abs(lam[-1] + 1))
        rep = pauli_projection_traces(basis)
        worst = max(worst, rep["max_projection_trace_dev"], rep["max_self_trace_dev"],
                    rep["max_cross_trace"])
    elapsed = time.monotonic() - t0
    ok = pair_counts_ok and worst <= 1e-9 and elapsed < 10.0
    _report(1, "Pauli eigen-structure exact for d in {2,4,8,16}", ok,
            f"max dev {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_line_witness_exact():
    worst = 0.0
    zeta_ok = True
    for d in (2, 4, 8):
        basis = bases.build_basis("pauli", d)
        p = basis.size
        for beta in (0.1, 0.5, 0.9):
            j_star = 1 + (d % 3)
            rho = states.pauli_line_state(d, j_star, beta)
            traces = basis.cell_traces(rho.matrix)
            worst = max(worst, abs(traces[0, basis.cells(0)][0] - 1.0))
            tr_star = traces[j_star, basis.cells(j_star)]
            worst = max(worst, abs(tr_star[0] - (1 + beta) / 2),
                        abs(tr_star[1] - (1 - beta) / 2))
            for j in range(1, p):
                if j == j_star:
                    continue
                tr = traces[j, basis.cells(j)]
                worst = max(worst, abs(tr[0] - 0.5), abs(tr[1] - 0.5))
            zeta = diagnostics.zeta_fraction([rho], basis)["zeta"]
            zeta_ok &= abs(zeta - (p - 1) / p) <= 1e-9
    ok = worst <= 1e-9 and zeta_ok
    _report(2, "one-direction line witness traces and zeta = (p-1)/p", ok,
            f"max trace dev {worst:.2e}")


def test_criterion_03_tilted_witness():
    e = np.array([np.sqrt(6 / 7), np.sqrt(1 / 14) * (1 + 1j)])
    omega = [np.vdot(e, s @ e).real for s in bases.SIGMA]
    want = (1.0, 2 * np.sqrt(3) / 7, 2 * np.sqrt(3) / 7, 5 / 7)
    omega_dev = max(abs(a - b) for a, b in zip(omega, want))
    bounds_ok, zeta_ok = True, True
    for d in (2, 4, 8, 16):
        b = int(round(math.log2(d)))
        rho = states.tilted_product_state(b)
        basis = bases.build_basis("pauli", d)
        p = basis.size
        traces = basis.cell_traces(rho.matrix)
        for j in range(1, p):
            tr = traces[j, basis.cells(j)]
            bounds_ok &= tr[0] >= 0.5 - 1e-9
            bounds_ok &= tr[1] >= 1 / 7 - 1e-9
        zeta = diagnostics.zeta_fraction([rho], basis)["zeta"]
        zeta_ok &= abs(zeta - (p - 1) / p) <= 1e-9
    ok = omega_dev <= 1e-12 and bounds_ok and zeta_ok
    _report(3, "tilted product witness: slot averages, trace floors, zeta", ok,
            f"omega dev {omega_dev:.2e}")


def _nondegenerate_count(rho, basis) -> int:
    """Members with at least two active cells: two nonzero slots in their row
    of the active-trace table."""
    return int(np.sum(np.count_nonzero(diagnostics.active_index_set(rho, basis), axis=1) >= 2))


def _count_rule(d: int, u: int) -> int:
    """Largest nondegenerate count when the state's range lies in the span of u axes.

    Only the u diagonal members on those axes and both members of every pair
    with at least one endpoint among them can be active:
    u + 2 * (u * (d - u) + u * (u - 1) / 2) = 2 * d * u - u^2.
    """
    return 2 * d * u - u * u


def test_criterion_04_class_count_bounds():
    t0 = time.monotonic()
    tol = 1e-9
    failures = []
    nominal_broken, samples = 0, 0
    per_class = 50
    for d in (4, 8):
        herm = bases.build_basis("hermitian", d)
        # closed-form witnesses: e1 e1' leaves its own diagonal member at cells
        # (1, 0) but puts every pair member touching axis 1 at (1/2, 1/2, 0); a
        # two-entry diagonal state attains the rule at u = 2
        for weights, want in (((1.0,), 2 * (d - 1)), ((0.3, 0.7), 4 * d - 4)):
            diag = np.zeros(d)
            diag[:len(weights)] = weights
            st = states.validate_density(np.diag(diag))
            count = _nondegenerate_count(st, herm)
            if count != want:
                failures.append(f"closed form d={d} diag{weights}: {count} != {want}")
        for s in (1, 2, 4):
            for i in range(per_class):
                st = states.sample_class(
                    states.StateClassSpec("entry_sparse", s=s), d,
                    seed=SEED + 1000 * s + i)
                # for a PSD matrix the nonzero diagonal entries are its row support
                s_d = int(np.sum(np.abs(np.diag(st.matrix)) > tol))
                count = _nondegenerate_count(st, herm)
                samples += 1
                nominal_broken += count > d * s_d
                if count > _count_rule(d, s_d):
                    failures.append(f"entry_sparse d={d} s={s}: {count} > "
                                    f"{_count_rule(d, s_d)} (s_d={s_d})")
    for d in (4, 8):
        g = bases.haar_wavelet_vectors(d)
        gbasis = bases.build_basis("gvector", d, g_vectors=g)
        for (r, gam) in ((1, 1), (2, 2)):
            for i in range(per_class):
                spec = states.StateClassSpec("low_rank_sparse_vec", r=r, gamma=gam,
                                             g_vectors=g)
                st = states.sample_class(spec, d, seed=SEED + 700 * r + 80 * gam + i)
                # u: union g-support of the eigenvectors spanning the range
                evals, evecs = np.linalg.eigh(st.matrix)
                coeffs = g.T @ evecs[:, evals > tol]
                u = int(np.sum(np.any(np.abs(coeffs) > tol, axis=1)))
                count = _nondegenerate_count(st, gbasis)
                samples += 1
                nominal_broken += count > 8 * r * gam * gam + 2 * r * gam
                if u > 2 * r * gam:
                    failures.append(f"sparse_vec d={d} r={r} gamma={gam}: u={u} > {2 * r * gam}")
                if count > _count_rule(d, u):
                    failures.append(f"sparse_vec d={d} r={r} gamma={gam}: {count} > "
                                    f"{_count_rule(d, u)} (u={u})")
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 60.0
    _report(4, "count rule 2du-u^2 and exact witness counts 2(d-1), 4d-4", ok,
            f"{len(failures)} violations, first: {failures[0] if failures else '-'}; "
            f"nominal d*s_d / 8rg^2+2rg exceeded on {nominal_broken}/{samples} "
            f"samples, not asserted; {elapsed:.1f}s")


def test_criterion_05_kernel_round_trip():
    rng = np.random.default_rng(SEED)
    total = 100_000
    widths = rng.integers(2, 5, size=total)
    ms = rng.integers(1, 65, size=total)
    failures = 0
    # one K0 and one K1 block call per (r, m) group of records
    for r in (2, 3, 4):
        rows = np.flatnonzero(widths == r)
        drawn = rng.multinomial(ms[rows], rng.dirichlet(np.ones(r), size=len(rows)))
        for m in np.unique(ms[rows]).tolist():
            counts = drawn[ms[rows] == m]
            table = counts.astype(float)
            eq._perturb(table, np.full(len(counts), r), m, rng)
            back, _ = eq._round_off(table, m)
            failures += int(np.any(back != counts, axis=1).sum())
    _report(5, "round-off inverts the uniform perturbation on 1e5 records",
            failures == 0, f"{failures} failures")


def test_criterion_06_moment_matching():
    reps, batches = 100_000, 100
    grid = []
    basis2 = bases.build_basis("pauli", 2)
    grid.append((states.validate_density(np.eye(2) / 2), basis2, 1, 8))
    basis4 = bases.build_basis("pauli", 4)
    grid.append((states.pauli_line_state(4, 2, 0.5), basis4, 2, 16))
    herm4 = bases.build_basis("hermitian", 4)
    full = states.sample_class(states.StateClassSpec("low_rank", r=4), 4, seed=SEED)
    off_diag = herm4.labels.index((1, 2))
    grid.append((full, herm4, off_diag, 8))
    grid.append((states.tilted_product_state(2), basis4, 5, 32))

    rng = np.random.default_rng(SEED + 1)
    worst_pull = 0.0
    for rho, basis, j, m in grid:
        theta = measurement.cell_probabilities(rho, basis)[j, basis.cells(j)]
        # grid sanity: strictly interior laws only
        assert np.all(theta > 1e-6) and np.all(theta < 1 - 1e-6)
        r = len(theta)
        cov_target = (np.diag(theta) - np.outer(theta, theta)) / m
        draws = rng.multinomial(m, theta, size=reps) / m
        split = draws.reshape(batches, reps // batches, r)
        batch_means = split.mean(axis=1)
        se_mean = batch_means.std(axis=0, ddof=1) / math.sqrt(batches)
        pulls = np.abs(batch_means.mean(axis=0) - theta) / se_mean
        worst_pull = max(worst_pull, pulls.max())
        batch_covs = np.array([np.cov(chunk.T, ddof=1) for chunk in split])
        se_cov = batch_covs.std(axis=0, ddof=1) / math.sqrt(batches)
        cov_pulls = np.abs(batch_covs.mean(axis=0) - cov_target) / np.maximum(se_cov, 1e-30)
        worst_pull = max(worst_pull, cov_pulls.max())
    _report(6, "count moments match the Gaussian mean/covariance within 5 SE",
            worst_pull <= 5.0, f"worst pull {worst_pull:.2f} SE")


THETA_GRID = ([0.5, 0.5], [0.2, 0.8], [1 / 3, 1 / 3, 1 / 3], [0.2, 0.3, 0.5])
M_GRID = (16, 64, 256, 1024, 4096)


def test_criterion_07_hellinger_scaling():
    t0 = time.monotonic()
    slopes = {}
    ok = True
    for theta in THETA_GRID:
        estimates = [eq.hellinger_perturbed_vs_gaussian(m, theta) for m in M_GRID]
        rep = eq.scaling_report(theta, M_GRID, estimates)
        slopes[tuple(round(t, 3) for t in theta)] = round(rep["slope"], 4)
        ok &= -0.70 <= rep["slope"] <= -0.35 and rep["passed"]
    elapsed = time.monotonic() - t0
    ok &= elapsed < 300.0
    _report(7, "log-log Hellinger slope within [-0.70, -0.35]", ok,
            f"slopes {slopes}, {elapsed:.1f}s")


def test_criterion_08_tv_below_hellinger():
    ok = True
    worst_margin = -np.inf
    for theta in THETA_GRID:
        for m in M_GRID:
            hel = eq.hellinger_perturbed_vs_gaussian(m, theta)
            tv = eq.tv_perturbed_vs_gaussian(m, theta, 100_000, seed=SEED)
            margin = tv["tv"] - hel["hellinger"] - hel["hellinger_err"] - tv["tv_err"]
            worst_margin = max(worst_margin, margin)
            ok &= margin <= 0
    _report(8, "Monte-Carlo TV below quadrature Hellinger plus error bars", ok,
            f"worst margin {worst_margin:.2e}")


def test_criterion_09_two_stage_tv_bound():
    rng = np.random.default_rng(SEED + 2)
    ok = True
    for _ in range(100):
        n1 = int(rng.integers(2, 5))
        n2 = int(rng.integers(2, 6))
        assert n1 * n2 <= 20
        f1, g1 = rng.dirichlet(np.ones(n1)), rng.dirichlet(np.ones(n1))
        f21 = rng.dirichlet(np.ones(n2), size=n1)
        g21 = rng.dirichlet(np.ones(n2), size=n1)
        exact = 0.5 * np.abs(f1[:, None] * f21 - g1[:, None] * g21).sum()
        rhs = eq.conditional_tv_bound(
            np.max(np.abs(1 - f1 / g1)),
            [(f1[x], 0.5 * np.abs(f21[x] - g21[x]).sum()) for x in range(n1)])
        ok &= rhs >= exact - 1e-12
    _report(9, "two-stage TV bound dominates enumerated exact TV", ok)


def test_criterion_10_estimator_transfer():
    t0 = time.monotonic()
    basis = bases.build_basis("pauli", 4)
    rho = states.pauli_line_state(4, 1, 0.5)
    report = regression.estimator_transfer_sweep(rho, basis, [16, 256, 4096],
                                                 seed=SEED, replications=4000)
    elapsed = time.monotonic() - t0
    gaps = [(row["m"], round(row["gap"], 7), round(row["gap_se"], 7))
            for row in report["sweep"]]
    ok = report["monotone"] and elapsed < 120.0
    _report(10, "paired risk gap shrinks over m in {16, 256, 4096}", ok,
            f"gaps {gaps}, {elapsed:.1f}s")


def test_criterion_11_determinism(tmp_path):
    cfg_text = """
[basis]
kind = pauli
d = 2

[state]
witness = cor2_line
beta = 0.5
j_star = 1

[design]
mode = fixed

[run]
task = {task}
n = 4
m = 64
seed = 99
detail = individual
out = {out}

[distances]
theta = 0.5,0.5; 0.2,0.3,0.5
m_grid = 16,64
tv_samples = 20000
"""
    ok = True
    for task in ("simulate", "distances"):
        outs = []
        for run_idx, threads in ((0, 1), (1, 4)):
            out = tmp_path / f"{task}{run_idx}"
            cfg = tmp_path / f"{task}{run_idx}.cfg"
            cfg.write_text(cfg_text.format(task=task, out=out))
            rc = cli.main(["run", "--config", str(cfg), "--threads", str(threads)])
            ok &= rc == 0
            outs.append(out)
        first, second = outs
        names = sorted(p.name for p in first.iterdir() if p.name != "manifest.json")
        for name in names:
            ok &= (first / name).read_bytes() == (second / name).read_bytes()
        m1 = json.loads((first / "manifest.json").read_text())
        m2 = json.loads((second / "manifest.json").read_text())
        m1.pop("threads"), m2.pop("threads")
        m1.pop("config"), m2.pop("config")
        ok &= m1 == m2
    _report(11, "repeated runs are byte-identical at any thread count", ok)
