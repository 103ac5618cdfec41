"""A fixed piece of work that measures how fast the host runs at the moment.

The host's speed drifts by tens of percent, in phases of tens of seconds to
minutes. A neighbour on the same cores slows every instruction of this
process, not just its waits, so keeping the fastest of many runs cannot remove
a slow phase that lasts a whole benchmark run. The benchmark therefore times
this piece, which does not touch the program, interleaved with the pieces it
measures, and divides every time it reports by the host factor: the piece's
time over REFERENCE_S. Reported times are those of a host on which the piece
takes exactly REFERENCE_S; the raw times are printed beside them.

The piece mixes the kinds of work the search does: interpreter work on small
objects (growing a 120-node tree, backing values up to the root and scoring
every child with a UCB formula), small-array numpy work (a Gaussian kernel
between 20 queries and a 250-point, 16-dimensional support, and a top-5 per
query), and the seeding work of a noisy world model (canonical JSON of a
small state, a blake2b digest, a fresh numpy Generator). Of the candidates
tried, this mix followed the searches' own slowdowns most closely on both
the exact and the noisy world model.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
import time

import numpy as np

REFERENCE_S = 2e-3
SLOTS = 40

_SUPPORT = np.random.default_rng(0).random((250, 16))
_QUERIES = np.random.default_rng(1).random((20, 16))
_VALUES = np.random.default_rng(2).random(120).tolist()
_STATE = {"blocks": [[0.1 * i, 0.2, 0.3] for i in range(4)], "gripper": [0.0, 0.1, 0.2], "t": 3}


class _Node:
    __slots__ = ("parent", "children", "visits", "value")

    def __init__(self, parent: "_Node | None") -> None:
        self.parent = parent
        self.children: list[_Node] = []
        self.visits = 0
        self.value = 0.0


def piece() -> float:
    """About two milliseconds of fixed work; returns a checksum so nothing is skipped."""
    nodes = [_Node(None)]
    for i, value in enumerate(_VALUES):
        parent = nodes[(i * 7) % len(nodes)]
        node = _Node(parent)
        parent.children.append(node)
        nodes.append(node)
        while node is not None:
            node.visits += 1
            node.value += value
            node = node.parent
    acc = max(c.value / c.visits + math.sqrt(math.log(n.visits + 1) / c.visits)
              for n in nodes for c in n.children)
    for _ in range(2):
        diff = _QUERIES[:, None, :] - _SUPPORT[None, :, :]
        kernel = np.exp(-(diff * diff).sum(-1) / 0.02)
        acc += float(kernel.sum()) + float(np.argsort(kernel, axis=1)[:, -5:].sum())
    for i in range(12):
        payload = json.dumps({"state": _STATE, "i": i}, sort_keys=True).encode()
        seed = int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "little")
        acc += float(np.random.default_rng(seed).normal(size=16).sum())
    return acc


class HostSpeed:
    """Times ``piece`` in SLOTS rotating slots, keeping each slot's fastest time.

    Sampled at even intervals inside the measured rounds, a slot is to the
    piece what one replayed search is to the search timings: its fastest time
    over the run, taken at the same moments.
    """

    def __init__(self) -> None:
        self.fastest = [math.inf] * SLOTS
        self._next = 0

    def sample(self) -> None:
        slot = self._next
        self._next = (slot + 1) % SLOTS
        t0 = time.perf_counter()
        piece()
        self.fastest[slot] = min(self.fastest[slot], time.perf_counter() - t0)

    def run(self, n: int) -> list[float]:
        """Times of ``n`` back-to-back runs of ``piece``, in seconds."""
        times = []
        for _ in range(n):
            t0 = time.perf_counter()
            piece()
            times.append(time.perf_counter() - t0)
        return times

    def factor(self) -> float:
        """Median over the sampled slots of their fastest time, over REFERENCE_S."""
        return statistics.median(t for t in self.fastest if t < math.inf) / REFERENCE_S
