"""Stable seed derivation so every random stream reproduces across processes.

Built-in ``hash`` is salted per interpreter, so seeds are derived from a keyed
byte encoding instead. The same parts always map to the same 64-bit seed, on
any platform and in any worker process.
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
    # bytes first, as each world-model key holds two byte parts;
    # bool before int: bool is a subclass of int
    if isinstance(part, bytes):
        return b"r" + struct.pack(">I", len(part)) + part
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


def seed_from_encoded(encoded: bytes) -> int:
    """The 64-bit seed of joined ``encode_part`` encodings: their BLAKE2b digest."""
    return int.from_bytes(hashlib.blake2b(encoded, digest_size=8).digest(), "big")


def derive_seed(*parts: int | float | str | bytes | bool) -> int:
    """Map a tuple of primitive parts to a deterministic 64-bit seed."""
    return seed_from_encoded(b"".join(map(encode_part, parts)))


def rng_from(*parts: int | float | str | bytes | bool) -> np.random.Generator:
    """A fresh generator seeded from ``derive_seed(*parts)``."""
    return np.random.default_rng(derive_seed(*parts))
