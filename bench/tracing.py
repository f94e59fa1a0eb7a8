"""Spans around the public functions of tomolab's modules, installed from outside.

Every public module-level function of a layer module is wrapped, and the
wrapper is bound at every module attribute that held the original: a module
that imported a function by name (``regression`` imports
``cell_probabilities`` from ``measurement``) is patched too, so its calls are
seen.  A span records name, start, end, parent span and run id; spans stay
in memory until the run ends.  Single-threaded runs only: the parent of a
span is the innermost open span.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("cli", "bases", "hermitian", "states", "rng", "measurement",
          "regression", "equivalence", "diagnostics")


def _hellinger_name(args, kwargs):
    theta = kwargs["theta"] if "theta" in kwargs else args[1]
    return f"equivalence.hellinger.cells{len(theta)}"


def _pmf_rows(args, kwargs):
    counts = kwargs["counts"] if "counts" in kwargs else args[0]
    shape = getattr(counts, "shape", None)
    return shape[0] if shape is not None and len(shape) == 2 else 1


# functions whose span name depends on the call, and those that count rows
NAMERS = {"equivalence.hellinger_perturbed_vs_gaussian": _hellinger_name}
ROWS = {"equivalence.multinomial_pmf": _pmf_rows}


class Tracer:
    """Collects spans of one run; ``install`` patches, ``uninstall`` restores."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.spans = []       # (name, start, end, parent, rows); index = span id
        self._stack = []
        self._patched = []    # (module, attribute, original)

    def _wrap(self, name, fn):
        namer, rows_of = NAMERS.get(name), ROWS.get(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = namer(args, kwargs) if namer else name
            rows = rows_of(args, kwargs) if rows_of else 0
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (label, start, end, parent, rows)

        return traced

    def install(self) -> None:
        modules = {name: sys.modules[f"tomolab.{name}"] for name in LAYERS}
        wrappers = {}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
        targets = [m for n, m in sys.modules.items() if n == "tomolab" or n.startswith("tomolab.")]
        for mod in targets:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, obj))

    def uninstall(self) -> None:
        for mod, attr, obj in self._patched:
            setattr(mod, attr, obj)
        self._patched.clear()

    def write(self, path) -> None:
        """Write the spans as CSV: id, parent, run, name, start, end, rows."""
        with open(path, "w", encoding="ascii") as fh:
            fh.write("id,parent,run,name,start,end,rows\n")
            for sid, (name, start, end, parent, rows) in enumerate(self.spans):
                fh.write(f"{sid},{parent},{self.run_id},{name},{start!r},{end!r},{rows}\n")

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds, rows; per layer: self seconds.

        A span's self time is its duration minus the durations of its direct
        children; a layer's self time sums that over the layer's spans.
        """
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent, rows in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        per_name = {}
        self_s = {layer: 0.0 for layer in LAYERS}
        for sid, (name, start, end, parent, rows) in enumerate(self.spans):
            entry = per_name.setdefault(name, {"calls": 0, "s": 0.0, "rows": 0})
            entry["calls"] += 1
            entry["s"] += end - start
            entry["rows"] += rows
            self_s[name.split(".", 1)[0]] += end - start - child_s[sid]
        return {"functions": per_name, "self_s": self_s}
