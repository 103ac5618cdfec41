"""Seed derivation: stability, type separation, stream independence."""

from __future__ import annotations

import math
import sys

import numpy as np
import pytest

import expansion_oracles as oracle
from lookahead.seeding import derive_seed, encode_part, rng_from, seeded_rng

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


def _same_generator(seed):
    """seeded_rng(seed) and np.random.default_rng(seed) hold the same state and give
    the same bytes from each draw kind a program stream takes, in turn."""
    got, want = seeded_rng(seed), np.random.default_rng(seed)
    assert got.bit_generator.state == want.bit_generator.state, seed
    for draw in (lambda g: g.uniform(-0.02, 0.02, size=9),
                 lambda g: g.normal(0.0, 0.01, size=(3, 4)),
                 lambda g: g.standard_normal(6),
                 lambda g: g.random(5),
                 lambda g: g.integers(0, 1069, size=7),  # below 2**32: the buffered 32-bit path
                 lambda g: g.integers(0, 2**40, size=3),
                 lambda g: g.uniform(-0.02, 0.02, size=1)):
        assert draw(got).tobytes() == draw(want).tobytes(), seed
    assert got.bit_generator.state == want.bit_generator.state, seed


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, 2**64, 2**200 + 3])
def test_seeded_rng_equals_default_rng_at_the_word_edges(seed):
    _same_generator(seed)
    # its SeedSequence answers every state request as numpy's does, and spawns alike
    got, want = seeded_rng(seed).bit_generator.seed_seq, np.random.SeedSequence(seed)
    for n_words, dtype in ((4, np.uint64), (6, np.uint32), (4, np.uint32), (8, np.uint64)):
        assert got.generate_state(n_words, dtype).tobytes() == \
            want.generate_state(n_words, dtype).tobytes()
    for child, oracle in zip(seeded_rng(seed).spawn(2), np.random.default_rng(seed).spawn(2)):
        assert child.bit_generator.state == oracle.bit_generator.state


def test_seeded_rng_equals_default_rng_on_derived_and_random_seeds():
    for parts, seed in PINNED_SEEDS:
        _same_generator(seed)
    for i in range(50):
        _same_generator(derive_seed("model", b"\x00" * i, i))
    rng = np.random.default_rng(5)
    for seed in rng.integers(0, 2**64, size=10_000, dtype=np.uint64).tolist():
        _same_generator(seed)


@pytest.mark.parametrize("seed", [-1, -2**63, -2**64, 1.5, 0.0, float("nan"), "7", b"7", [-1], object()])
def test_seeded_rng_fails_as_default_rng(seed):
    with pytest.raises(Exception) as want:
        np.random.default_rng(seed)
    with pytest.raises(want.type) as got:
        seeded_rng(seed)
    assert type(got.value) is want.type and str(got.value) == str(want.value)


_PARTS = [0, 1, -1, 7, 2**63, -2**63, 2**127 - 1, -2**127, True, False, 0.0, -0.0, 1.5, math.inf,
          -math.inf, math.nan, 5e-324, sys.float_info.max, "", "expand", "épisode", "\x00",
          b"", b"\x00\xff", bytes(range(256)), b"r" * 70_000]


@pytest.mark.parametrize("part", _PARTS, ids=repr)
def test_encode_part_equals_the_packed_header_form(part):
    assert encode_part(part) == oracle.encode_part(part)


def test_encode_part_of_random_ints_and_floats_equals_the_packed_header_form():
    rng = np.random.default_rng(4)
    for x in rng.integers(-2**63, 2**63, size=2000, dtype=np.int64).tolist():
        assert encode_part(x) == oracle.encode_part(x)
        big = x * 2**63 + x
        assert encode_part(big) == oracle.encode_part(big)
    for x in (rng.normal(size=2000) * 10.0 ** rng.integers(-300, 300, size=2000)).tolist():
        assert encode_part(x) == oracle.encode_part(x)


@pytest.mark.parametrize("part, error", [(2**127, OverflowError), (-2**127 - 1, OverflowError),
                                         (None, TypeError), (np.int64(3), TypeError),
                                         (bytearray(b"x"), TypeError), ((1,), TypeError)])
def test_encode_part_fails_as_the_packed_header_form(part, error):
    with pytest.raises(error) as got:
        encode_part(part)
    with pytest.raises(error) as want:
        oracle.encode_part(part)
    assert str(got.value) == str(want.value)
