"""The KDE expansion's former numpy expressions: bit-for-bit oracles.

Each function is the form its namesake in ``lookahead`` took before that
function dropped a wrapper or a broadcast: ``ndarray.clip`` against (d,)
bounds, the row reduce of the squared differences, ``ndarray.sum``, a header
packed per call, and a validated one-point ``KdePrior`` per noise expansion.
The program must return the same bits.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from lookahead.actions import ACTION_DIM, action_bounds
from lookahead.kde import KdePrior, density
from lookahead.seeding import derive_seed


def sample(prior: KdePrior, n: int, seed, bounds=None) -> np.ndarray:
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, prior.n_points, size=n)
    draws = prior.points.take(idx, axis=0)
    draws += rng.normal(0.0, prior.bandwidth, size=(n, prior.dim))
    if bounds is not None:
        draws.clip(bounds[0], bounds[1], out=draws)
    return draws


def distances(cands: np.ndarray, anchor: np.ndarray) -> np.ndarray:
    diff = cands - anchor[None, :]
    return np.sqrt(np.add.reduce(diff * diff, axis=1))  # np.linalg.norm(diff, axis=1)


def top_k_near(cands: np.ndarray, k: int, anchor: np.ndarray) -> np.ndarray:
    order = np.argsort(distances(cands, anchor), kind="stable")[:k]
    return cands.take(order, axis=0)


def weights_from_densities(densities: np.ndarray, total_budget: int) -> list[int]:
    p = np.asarray(densities, dtype=float).ravel()
    m = p.size
    vals = p.tolist()
    total = float(p.sum())
    spare = total_budget - m
    if total <= 0.0:
        return [1 + math.ceil(spare * (1.0 / m) - 1e-9)] * m
    return [1 + math.ceil(spare * (x / total) - 1e-9) for x in vals]


def encode_part(part) -> bytes:
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


def expand(anchor: np.ndarray, path: list[int], prior: KdePrior, config,
           seed: int) -> tuple[np.ndarray, list[int]]:
    """``search.expand`` with the expressions above and (d,) bounds."""
    rng_seed = derive_seed(seed, "expand", len(path), *path)
    bounds = action_bounds(anchor.size // ACTION_DIM)
    if config.sampler == "noise":
        prior = KdePrior(points=anchor[None, :], bandwidth=prior.bandwidth)
    cands = sample(prior, config.pool_size, rng_seed, bounds)
    chosen = top_k_near(cands, config.k, anchor)
    chosen[-1] = anchor
    return chosen, weights_from_densities(density(prior, chosen), config.visit_budget)
