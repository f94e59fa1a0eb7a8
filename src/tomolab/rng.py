"""Seeded random-number substreams (RNG contract v2).

Everything random takes one root seed.  A substream is the generator seeded
by numpy's ``SeedSequence`` hash of ``(seed, *keys)``; distinct keys give
statistically independent streams, so results do not depend on execution
order or worker count.

The record simulators key their streams by a family and a block.  Record k
belongs to block b = k // BLOCK, and block b of a family draws from
substream ``(seed, family, b + 1)``; the family's design draws use
``(seed, family, 0)``.  Each block makes one vectorised call per draw kind
and consumes it in record order, with row layouts fixed by the basis or flat,
so the first n records never depend on n.  ``BLOCK`` is part of the
contract: changing it changes every simulated artifact.

Families:

======  ===============  ==================================================
key     name             draws
======  ===============  ==================================================
0       ``TOMOGRAPHY``   design, counts (and outcome order) per block
1       ``COARSE``       design, one standard normal per record
2       ``FINE``         design, standard normals of a basis-fixed width
3       ``TRANSLATE``    K0 uniforms, flat per block (no design draw)
4       ``TRANSFER``     estimator transfer: the one stream ``(seed, 4)``
5       ``TV``           ``tv_perturbed_vs_gaussian``: ``(seed, 5, point)`` per grid point
======  ===============  ==================================================
"""

from __future__ import annotations

import numpy as np
import numpy.random  # numpy 2.x loads it on first use otherwise

from .errors import _checked_integer

__all__ = ["RNG_CONTRACT", "BLOCK", "TOMOGRAPHY", "COARSE", "FINE", "TRANSLATE", "TRANSFER", "TV",
           "substream", "record_blocks"]

RNG_CONTRACT = 2
BLOCK = 256  # records per block

TOMOGRAPHY, COARSE, FINE, TRANSLATE, TRANSFER, TV = range(6)


def substream(seed: int, *keys: int) -> np.random.Generator:
    """Return the generator for substream ``keys`` of root seed ``seed``; TomolabError
    unless the seed and every key are nonnegative integers (a float is not truncated)."""
    keys = tuple(_checked_integer("key", k, 0) for k in keys)
    return np.random.default_rng(np.random.SeedSequence((_checked_integer("seed", seed, 0),) + keys))


def record_blocks(seed: int, family: int, n: int) -> list:
    """``(lo, hi, rng)`` per block: records lo..hi-1 of ``family`` draw from ``rng``,
    the substream ``(seed, family, b + 1)`` of block b = lo // BLOCK."""
    return [(lo, min(lo + BLOCK, n), substream(seed, family, lo // BLOCK + 1))
            for lo in range(0, n, BLOCK)]
