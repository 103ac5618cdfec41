"""Action types and the vector arithmetic shared by the search engine.

An action is three bounded position deltas plus a gripper command in [0, 1].
The search engine itself only sees flattened vectors, so chunks of several
actions flatten to one long vector and back without loss.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Iterator, NoReturn, Sequence

import numpy as np

DELTA_BOUND = 0.05  # per-axis position delta limit, workspace units per step
DELTA_LIMIT = DELTA_BOUND + 1e-12  # the bound as checked, with slack for float noise
GRIP_THRESHOLD = 0.5  # grip values at or above this count as closed
ACTION_DIM = 4  # three deltas plus one grip channel
MAX_CHUNK_LEN = 8  # longest chunk treated as a single search entity


@dataclasses.dataclass(frozen=True, init=False)
class Action:
    """One control step: a position delta plus a gripper command.

    The constructor converts every component to a Python float and checks it:
    three deltas, each within ``DELTA_LIMIT`` of zero, and a grip in [0, 1].
    A valid action passes one chained comparison per component, which NaN and
    the infinities fail too. Only an action that fails one goes through the
    named checks, in order, whose error says which rule it breaks.
    """

    delta: tuple[float, float, float]
    grip: float

    def __init__(self, delta: tuple[float, float, float], grip: float) -> None:
        delta = tuple(map(float, delta))
        grip = float(grip)
        if len(delta) == 3:
            dx, dy, dz = delta
            if (-DELTA_LIMIT <= dx <= DELTA_LIMIT and -DELTA_LIMIT <= dy <= DELTA_LIMIT
                    and -DELTA_LIMIT <= dz <= DELTA_LIMIT and 0.0 <= grip <= 1.0):
                object.__setattr__(self, "delta", delta)
                object.__setattr__(self, "grip", grip)
                return
        _reject(delta, grip)

    @property
    def grip_closed(self) -> bool:
        return self.grip >= GRIP_THRESHOLD

    @staticmethod
    def zero(grip: float = 0.0) -> "Action":
        return Action((0.0, 0.0, 0.0), grip)


def _reject(delta: tuple[float, ...], grip: float) -> NoReturn:
    """Raise the error of the first rule that an invalid action breaks."""
    if len(delta) != 3:
        raise ValueError(f"delta needs 3 components, got {len(delta)}")
    dx, dy, dz = delta
    isfinite = math.isfinite
    if not (isfinite(dx) and isfinite(dy) and isfinite(dz) and isfinite(grip)):
        raise ValueError("action components must be finite")
    if abs(dx) > DELTA_LIMIT or abs(dy) > DELTA_LIMIT or abs(dz) > DELTA_LIMIT:
        raise ValueError(f"delta component outside the per-step bound {DELTA_BOUND}")
    raise ValueError("grip must lie in [0, 1]")


@dataclasses.dataclass(frozen=True)
class ActionChunk:
    """A short committed sequence of actions, searched as one entity."""

    actions: tuple[Action, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "actions", tuple(self.actions))
        if not 1 <= len(self.actions) <= MAX_CHUNK_LEN:
            raise ValueError(f"chunk length must be in [1, {MAX_CHUNK_LEN}], got {len(self.actions)}")
        for a in self.actions:
            if not isinstance(a, Action):
                raise TypeError("chunk entries must be Action instances")

    def __len__(self) -> int:
        return len(self.actions)

    def __iter__(self) -> Iterator[Action]:
        return iter(self.actions)

    def __getitem__(self, i: int) -> Action:
        return self.actions[i]


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


# (lo, hi) per chunk length, built once; read-only so callers cannot alter them
_BOUNDS = {
    n: (_read_only(np.tile([-DELTA_BOUND, -DELTA_BOUND, -DELTA_BOUND, 0.0], n)),
        _read_only(np.tile([DELTA_BOUND, DELTA_BOUND, DELTA_BOUND, 1.0], n)))
    for n in range(1, MAX_CHUNK_LEN + 1)
}


def action_bounds(chunk_len: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Componentwise (lo, hi) bounds for a flattened chunk of ``chunk_len`` actions.

    The arrays are shared and read-only.
    """
    if not 1 <= chunk_len <= MAX_CHUNK_LEN:
        raise ValueError(f"chunk_len must be in [1, {MAX_CHUNK_LEN}]")
    return _BOUNDS[chunk_len]


@functools.lru_cache(maxsize=16)
def pool_bounds(chunk_len: int, pool_size: int) -> tuple[np.ndarray, np.ndarray]:
    """``action_bounds(chunk_len)`` repeated on each of ``pool_size`` rows: (lo, hi)
    of a (pool_size, 4 * chunk_len) pool of draws, which clips against bounds of
    its own shape in one contiguous pass.

    Built once per (chunk_len, pool_size); the arrays are shared and read-only.
    """
    lo, hi = action_bounds(chunk_len)
    return _read_only(np.tile(lo, (pool_size, 1))), _read_only(np.tile(hi, (pool_size, 1)))


def blend_actions(proposal: Action, searched: Action, alpha: float) -> Action:
    """alpha * proposal + (1 - alpha) * searched, clamped to the action bounds;
    alpha=1 keeps the policy."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    beta = 1.0 - alpha
    (p0, p1, p2), pg = proposal.delta, proposal.grip
    (s0, s1, s2), sg = searched.delta, searched.grip
    # np.clip against the bound arrays, in Python floats: it keeps v if v > lo,
    # then if v < hi. Against an array bound a -0.0 at the bound 0.0 becomes
    # +0.0 (a scalar bound and max(v, lo) would keep -0.0), so the comparisons
    # keep that form.
    lo, hi = -DELTA_BOUND, DELTA_BOUND
    v0, v1, v2, vg = (alpha * p0 + beta * s0, alpha * p1 + beta * s1,
                      alpha * p2 + beta * s2, alpha * pg + beta * sg)
    v0 = v0 if v0 > lo else lo
    v1 = v1 if v1 > lo else lo
    v2 = v2 if v2 > lo else lo
    vg = vg if vg > 0.0 else 0.0
    return Action((v0 if v0 < hi else hi, v1 if v1 < hi else hi, v2 if v2 < hi else hi),
                  vg if vg < 1.0 else 1.0)


def flatten_chunk(chunk: ActionChunk) -> np.ndarray:
    """Concatenate a chunk's actions into one vector of length 4 * len(chunk)."""
    return np.array([v for a in chunk.actions for v in (*a.delta, a.grip)])


def split_actions(vals: list[float]) -> list[Action]:
    """One validated ``Action`` per ``ACTION_DIM`` floats of a flattened chunk.

    The split that :func:`unflatten_chunk` wraps into an ``ActionChunk`` and
    that the search's rollout steps through directly.
    """
    size = len(vals)
    if size < 1 or size % ACTION_DIM:
        raise ValueError(f"cannot split a {size}-vector into whole actions")
    if size > MAX_CHUNK_LEN * ACTION_DIM:
        raise ValueError(f"chunk length must be in [1, {MAX_CHUNK_LEN}], got {size // ACTION_DIM}")
    return [Action((vals[i], vals[i + 1], vals[i + 2]), vals[i + 3])
            for i in range(0, size, ACTION_DIM)]


def unflatten_chunk(vec: Sequence[float] | np.ndarray, n_actions: int) -> ActionChunk:
    """Inverse of :func:`flatten_chunk` for a known chunk length."""
    arr = np.asarray(vec, dtype=float).ravel()
    if n_actions < 1 or arr.size != n_actions * ACTION_DIM:
        raise ValueError(f"cannot split a {arr.size}-vector into {n_actions} actions")
    return ActionChunk(split_actions(arr.tolist()))
