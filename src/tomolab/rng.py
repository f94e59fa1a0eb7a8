"""Seeded random-number substreams.

All simulators take one root seed and derive an independent substream per
record index, so results do not depend on execution order or worker count.
Substreams are derived by hashing ``(root, *keys)`` through numpy's
``SeedSequence``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["substream"]


def substream(root: int, *keys: int) -> np.random.Generator:
    """Return the generator for substream ``keys`` of root seed ``root``."""
    return np.random.default_rng(np.random.SeedSequence((int(root),) + tuple(int(k) for k in keys)))

