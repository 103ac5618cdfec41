"""Stable seed derivation so every random stream reproduces across processes.

Built-in ``hash`` is salted per interpreter, so seeds are derived from a keyed
byte encoding instead. The same parts always map to the same 64-bit seed, on
any platform and in any worker process.

``seeded_rng(seed)`` is ``np.random.default_rng(seed)`` for an int seed, bit for
bit. numpy seeds its ``PCG64`` with ``SeedSequence(seed).generate_state(4,
np.uint64)``: 8 words, each a pool word (the pool cycled twice) xor-ed with a
running hash constant, multiplied by the next one, and xor-shifted right by 16,
paired little-endian into 4 uint64s. The constants do not depend on the seed,
so they are built here once, and the words are computed from the pool in
Python ints instead of numpy's errstate-wrapped loop over numpy scalars.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np


# the fixed headers of the fixed-length payloads: type tag plus payload length
_BOOL_HEADER = b"b" + struct.pack(">I", 1)
_INT_HEADER = b"i" + struct.pack(">I", 16)
_FLOAT_HEADER = b"f" + struct.pack(">I", 8)


def encode_part(part: int | float | str | bytes | bool) -> bytes:
    """The byte encoding of one seed part: a type tag, the payload's length as
    4 big-endian bytes, and the payload.

    A bool's payload is 1 byte, an int's 16 (two's complement, big-endian) and
    a float's 8 (IEEE 754, big-endian), so their 5-byte headers are built once;
    bytes and str parts carry their own length.
    """
    # bool before int: bool is a subclass of int
    if isinstance(part, bytes):
        return bytes_part_header(len(part)) + part
    if isinstance(part, bool):
        return _BOOL_HEADER + struct.pack(">?", part)
    if isinstance(part, int):
        return _INT_HEADER + part.to_bytes(16, "big", signed=True)
    if isinstance(part, float):
        return _FLOAT_HEADER + struct.pack(">d", part)
    if isinstance(part, str):
        payload = part.encode("utf-8")
        return b"s" + struct.pack(">I", len(payload)) + payload
    raise TypeError(f"cannot derive a seed from {type(part).__name__}")


def bytes_part_header(length: int) -> bytes:
    """The header ``encode_part`` puts before a bytes part of ``length`` bytes."""
    return b"r" + struct.pack(">I", length)


def seed_from_encoded(encoded: bytes) -> int:
    """The 64-bit seed of joined ``encode_part`` encodings: their BLAKE2b digest."""
    return int.from_bytes(hashlib.blake2b(encoded, digest_size=8).digest(), "big")


def derive_seed(*parts: int | float | str | bytes | bool) -> int:
    """Map a tuple of primitive parts to a deterministic 64-bit seed."""
    return seed_from_encoded(b"".join(map(encode_part, parts)))


_MASK32 = 0xFFFFFFFF


def _state_constants() -> tuple[int, ...]:
    """SeedSequence.generate_state's (xor, multiplier) pairs for its first 8 words,
    flattened: the hash constant before and after each word's step."""
    init_b, mult_b = 0x8B51F9DD, 0x58F38DED  # numpy's INIT_B and MULT_B
    out, h = [], init_b
    for _ in range(8):
        out.append(h)
        h = h * mult_b & _MASK32
        out.append(h)
    return tuple(out)


_X0, _M0, _X1, _M1, _X2, _M2, _X3, _M3, _X4, _M4, _X5, _M5, _X6, _M6, _X7, _M7 = _state_constants()
_LOW16 = 0x0000FFFF0000FFFF  # the low 16 bits of both 32-bit halves of a uint64


class _SeedSequence(np.random.SeedSequence):
    """A ``SeedSequence`` that computes the state ``PCG64`` asks for, 4 uint64 words,
    from its pool in Python ints; any other request goes to numpy's loop."""

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != 4 or dtype is not np.uint64:
            return super().generate_state(n_words, dtype)
        p0, p1, p2, p3 = self.pool.tolist()
        # word 2j in the low half of uint64 j, word 2j + 1 in the high half
        w0 = (p0 ^ _X0) * _M0 & _MASK32 | ((p1 ^ _X1) * _M1 & _MASK32) << 32
        w1 = (p2 ^ _X2) * _M2 & _MASK32 | ((p3 ^ _X3) * _M3 & _MASK32) << 32
        w2 = (p0 ^ _X4) * _M4 & _MASK32 | ((p1 ^ _X5) * _M5 & _MASK32) << 32
        w3 = (p2 ^ _X6) * _M6 & _MASK32 | ((p3 ^ _X7) * _M7 & _MASK32) << 32
        return np.array([w0 ^ (w0 >> 16 & _LOW16), w1 ^ (w1 >> 16 & _LOW16),
                         w2 ^ (w2 >> 16 & _LOW16), w3 ^ (w3 >> 16 & _LOW16)], dtype=np.uint64)


def seeded_rng(seed: int) -> np.random.Generator:
    """``np.random.default_rng(seed)`` for a non-negative int seed, bit for bit; any
    other seed fails as there, in ``SeedSequence(seed)``."""
    return np.random.Generator(np.random.PCG64(_SeedSequence(seed)))


def rng_from(*parts: int | float | str | bytes | bool) -> np.random.Generator:
    """A fresh generator seeded from ``derive_seed(*parts)``."""
    return seeded_rng(derive_seed(*parts))
