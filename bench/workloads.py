"""The four benchmark workloads, each one config file for ``tomolab run``.

Every workload is closed-loop: one ``tomolab run`` at a time, in one process,
with ``--threads 1``.  The seed is the only input that varies between runs
of the benchmark; it goes into ``[run] seed``.

Why these four:

* ``simulate-pauli16`` drives the three per-record simulators (3 n records)
  and their CSV writers.  With p = 256 members and n = 20000 records each
  member repeats about 78 times, so per-member caching shows here.  The
  Hellinger quadrature never runs.
* ``distances-4cell`` is dominated by the Hellinger quadrature, mostly the
  4-cell point at m = 256; the Monte-Carlo TV estimate also runs.  Peak
  memory comes from the quadrature chunks.  The simulators never run.
* ``scaling-lowdim`` runs the same quadrature on 1-D and 2-D lattices at
  large m, the opposite shape to ``distances-4cell``.
* ``corollaries-d16`` is the only workload that drives ``diagnostics`` and
  the ``states`` samplers; it builds three d = 16 families.  At this commit
  it exits 1 with the documented corollary1 and corollary4 FAILs.
"""

from __future__ import annotations

DEFAULT_SEED = 20130204

# thread pools pinned to one thread in every process that runs tomolab
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# section -> key -> value; "seed" is filled in per run
WORKLOADS = {
    "simulate-pauli16": {
        "basis": {"kind": "pauli", "d": "16"},
        "state": {"class": "low_rank", "r": "2"},
        "design": {"mode": "random"},
        "run": {"task": "simulate", "n": "20000", "m": "4096", "detail": "summary"},
    },
    "distances-4cell": {
        "run": {"task": "distances"},
        "distances": {"theta": "0.5,0.5;0.2,0.3,0.5;0.1,0.2,0.3,0.4",
                      "m_grid": "16,64,256", "tv_samples": "50000"},
    },
    "scaling-lowdim": {
        "run": {"task": "scaling"},
        "scaling": {"theta": "0.5,0.5;0.3,0.7;0.2,0.3,0.5",
                    "m_grid": "16,64,256,1024,4096"},
    },
    "corollaries-d16": {
        "basis": {"kind": "hermitian", "d": "16"},
        "run": {"task": "corollaries"},
        "corollaries": {"samples": "20"},
    },
}


def config_text(name: str, seed: int, overrides=None) -> str:
    """INI text for workload ``name`` at ``seed``.

    ``overrides`` maps section -> key -> value and replaces entries of the
    workload's table (the smoke test uses it to shrink the sizes).
    """
    sections = {sec: dict(keys) for sec, keys in WORKLOADS[name].items()}
    for sec, keys in (overrides or {}).items():
        sections.setdefault(sec, {}).update(keys)
    sections["run"]["seed"] = str(int(seed))
    lines = []
    for sec, keys in sections.items():
        lines.append(f"[{sec}]")
        lines.extend(f"{key} = {value}" for key, value in keys.items())
        lines.append("")
    return "\n".join(lines)
