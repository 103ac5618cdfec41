"""Seed derivation: stability, type separation, stream independence."""

from __future__ import annotations

import numpy as np
import pytest

from lookahead.seeding import derive_seed, rng_from

# seeds of the incremental-hash encoding, pinned: a change here moves every
# episode, demo, search and model-error stream
PINNED_SEEDS = [
    ((), 16476032584258269876),
    ((0,), 16794944715384743433),
    ((True,), 9898386872252025749),
    ((False,), 8389754594351748521),
    ((-1,), 10651875131864487390),
    ((-9223372036854775808,), 17299546670858075235),
    ((18446744073709551615,), 2005033540938722660),
    ((1.0,), 5972084130841734551),
    ((-0.0,), 6686472133953098526),
    ((float("inf"),), 11279816239407636760),
    (('',), 18139576794850678356),
    (('épisode',), 15600289601478078367),
    ((b'',), 14313062756635933167),
    ((b'\x00\xff',), 102386964448485959),
    ((0, 'episode', 3), 8739439845086037958),
    ((7, 'demo', 49), 12657783097592669558),
    ((123456789, 'expand', 2, 0, 7), 11319638774301885346),
    (('model', b'\x01\x02\x03', 9223372036854775807), 12603077999889237312),
    ((True, 1, 1.0, '1', b'1'), 6039608771643194484),
]


def test_derive_seed_is_stable():
    assert derive_seed(0, "episode", 3) == derive_seed(0, "episode", 3)


@pytest.mark.parametrize("parts, seed", PINNED_SEEDS)
def test_derive_seed_matches_the_pinned_seeds(parts, seed):
    assert derive_seed(*parts) == seed


def test_derive_seed_separates_types():
    # 1, "1", and 1.0 must hash differently or streams would collide
    seen = {derive_seed(1), derive_seed("1"), derive_seed(1.0), derive_seed(True)}
    assert len(seen) == 4


def test_derive_seed_order_matters():
    assert derive_seed("a", "b") != derive_seed("b", "a")


def test_rng_from_reproduces_stream():
    a = rng_from("x", 7).normal(size=16)
    b = rng_from("x", 7).normal(size=16)
    assert np.array_equal(a, b)
    c = rng_from("x", 8).normal(size=16)
    assert not np.array_equal(a, c)
