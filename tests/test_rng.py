"""RNG contract v2: blocked substreams, prefix stability, one stream per block."""

import functools
import math

import numpy as np
import pytest
from test_regression import _count_calls

from tomolab import bases, equivalence, measurement, regression, rng, states
from tomolab.measurement import TomographyDataset

B = rng.BLOCK
HERM4 = bases.build_basis("hermitian", 4)
# diagonal members have 2 cells, off-diagonal ones 3; a full-rank state makes
# every cell active, so a 3-cell member also widens the fine draw
STATE = states.sample_class(states.StateClassSpec("low_rank", r=4), 4, seed=2)
THREE_CELL = int(np.flatnonzero(HERM4.sizes == 3)[0])
SEED = 31


def rare_wide_design():
    """Mostly 2-cell members, with a 3-cell member at weight 1/200."""
    w = (HERM4.sizes == 2).astype(float)
    w *= (1 - 0.005) / w.sum()
    w[THREE_CELL] = 0.005
    return bases.SamplingDesign.random(w)


def tomography(n):
    ds = measurement.run_tomography(STATE, HERM4, rare_wide_design(), n, 32, SEED)
    return ds.indices, ds.counts


def coarse(n):
    return regression.simulate_coarse(STATE, HERM4, rare_wide_design(), n, 32, SEED)


def fine(n):
    return regression.simulate_fine(STATE, HERM4, rare_wide_design(), n, 32, SEED)


@functools.lru_cache(maxsize=1)
def counted():
    return measurement.run_tomography(STATE, HERM4, rare_wide_design(), 3 * B, 32, SEED)


def counted_prefix(n):
    ds = counted()
    return TomographyDataset(m=ds.m, indices=ds.indices[:n], counts=ds.counts[:n])


def translate(n):
    return equivalence.translate_qst_to_regression(counted_prefix(n), HERM4, SEED)


SIMULATORS = {"tomography": tomography, "coarse": coarse, "fine": fine, "translate": translate}


def assert_prefix(short, long, n):
    for part_short, part_long in zip(short, long):
        assert len(part_short) == n
        for a, b in zip(part_short, part_long[:n]):
            np.testing.assert_array_equal(a, b)


# the family whose design draw picks the members (translation reads counted records)
DESIGN_FAMILY = {"tomography": rng.TOMOGRAPHY, "coarse": rng.COARSE, "fine": rng.FINE,
                 "translate": rng.TOMOGRAPHY}


@pytest.mark.parametrize("name", sorted(SIMULATORS))
def test_prefix_stable_when_a_wider_member_appears(name):
    # the first n records hold only 2-cell members; the longer run adds a
    # 3-cell member after them, which must not change the first n records
    idx = measurement.draw_design_indices(rare_wide_design(), HERM4, 3 * B, SEED,
                                          DESIGN_FAMILY[name])
    n = int(np.argmax(idx == THREE_CELL))
    assert 0 < n and idx[n] == THREE_CELL
    simulate = SIMULATORS[name]
    short, long = simulate(n), simulate(3 * B)
    assert all(HERM4.sizes[j] == 2 for j in short[0])
    assert any(HERM4.sizes[j] == 3 for j in long[0][n:])
    assert_prefix(short, long, n)


@pytest.mark.parametrize("n", [B - 1, B, B + 1, 2 * B + 1])
@pytest.mark.parametrize("name", sorted(SIMULATORS))
def test_block_edges(name, n):
    simulate = SIMULATORS[name]
    assert_prefix(simulate(n), simulate(3 * B), n)


@pytest.mark.parametrize("n", [0, 1, B, 2 * B + 1])
@pytest.mark.parametrize("name, family, design_draws", [
    ("tomography", rng.TOMOGRAPHY, 1), ("coarse", rng.COARSE, 1),
    ("fine", rng.FINE, 1), ("translate", rng.TRANSLATE, 0)])
def test_one_substream_per_block(monkeypatch, name, family, design_draws, n):
    counted()  # build the counted records that translate reads before counting
    calls = _count_calls(monkeypatch, rng.substream)
    SIMULATORS[name](n)
    assert len(calls) == design_draws + math.ceil(n / B)
    assert all(args[:2] == (SEED, family) for args in calls)
    blocks = sorted(args[2] for args in calls if args[2] > 0)
    assert blocks == list(range(1, math.ceil(n / B) + 1))


@pytest.mark.parametrize("draw, message", [
    (lambda: rng.substream(1.9), "seed must be an integer, got 1.9"),
    (lambda: rng.substream(1, rng.TV, 0.5), "key must be an integer, got 0.5"),
    (lambda: measurement.run_tomography(STATE, HERM4, rare_wide_design(), 4, 32, 1.9),
     "seed must be an integer, got 1.9"),
], ids=["seed", "key", "run_tomography"])
def test_seed_is_not_truncated(draw, message):
    # a float seed used to draw exactly the stream of its integer part
    with pytest.raises(ValueError, match=message):
        draw()

