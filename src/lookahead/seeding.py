"""Stable seed derivation so every random stream reproduces across processes.

Built-in ``hash`` is salted per interpreter, so seeds are derived from a keyed
byte encoding instead. The same parts always map to the same 64-bit seed, on
any platform and in any worker process.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np


def encode_part(part: int | float | str | bytes | bool) -> bytes:
    """The byte encoding of one seed part: a type tag, the payload's length as
    4 big-endian bytes, and the payload."""
    # bytes first, as each world-model key holds two byte parts;
    # bool before int: bool is a subclass of int
    if isinstance(part, bytes):
        tag, payload = b"r", part
    elif isinstance(part, bool):
        tag, payload = b"b", struct.pack(">?", part)
    elif isinstance(part, int):
        tag, payload = b"i", part.to_bytes(16, "big", signed=True)
    elif isinstance(part, float):
        tag, payload = b"f", struct.pack(">d", part)
    elif isinstance(part, str):
        tag, payload = b"s", part.encode("utf-8")
    else:
        raise TypeError(f"cannot derive a seed from {type(part).__name__}")
    return tag + struct.pack(">I", len(payload)) + payload


def seed_from_encoded(encoded: bytes) -> int:
    """The 64-bit seed of joined ``encode_part`` encodings: their BLAKE2b digest."""
    return int.from_bytes(hashlib.blake2b(encoded, digest_size=8).digest(), "big")


def derive_seed(*parts: int | float | str | bytes | bool) -> int:
    """Map a tuple of primitive parts to a deterministic 64-bit seed."""
    return seed_from_encoded(b"".join(map(encode_part, parts)))


def rng_from(*parts: int | float | str | bytes | bool) -> np.random.Generator:
    """A fresh generator seeded from ``derive_seed(*parts)``."""
    return np.random.default_rng(derive_seed(*parts))
