"""Scripted expert waypoint controller and a drift-corrupted wrapper.

The expert is stateless: every action is recomputed from the observation, so
a missed grasp simply triggers another attempt. The drift policy adds an
accumulating random-walk bias plus white noise to the expert's deltas, which
models a miscalibrated imitation policy whose error compounds over a rollout.
"""

from __future__ import annotations

import dataclasses
import math

from .actions import Action, ActionChunk, DELTA_BOUND, MAX_CHUNK_LEN
from .errors import require_types
from .seeding import rng_from
from .world import FollowCircle, Observation, PickPlace, Stack, step, waypoint_positions

HOVER_HEIGHT = 0.08  # approach height above a grasp target
SAFE_HEIGHT = 0.18  # transport height while carrying
ALIGN_TOL = 0.018  # horizontal alignment threshold between phases
DESCEND_TOL = 0.022  # within this 3-D distance of the target, close the grip
PLACE_SLACK = 0.006  # vertical slack before releasing over the placement point


_Move = tuple[tuple[float, float, float], float]  # (dx, dy, dz), grip: an action's fields

_STILL = (0.0, 0.0, 0.0)


def _move_toward(pos: tuple[float, float, float], target: tuple[float, float, float],
                 grip: float) -> _Move:
    # componentwise clamp of the offset to one step
    b = DELTA_BOUND
    return (max(-b, min(b, target[0] - pos[0])),
            max(-b, min(b, target[1] - pos[1])),
            max(-b, min(b, target[2] - pos[2]))), grip


def _expert_move(obs: Observation) -> _Move:
    """The scripted controller's choice as plain floats, for ``expert_action``
    and the drift policy to build their one ``Action`` from."""
    task = obs.task
    kind = task.kind
    gp = obs.gripper_pos

    if isinstance(kind, FollowCircle):
        if obs.waypoints_hit >= kind.n_waypoints:
            return _STILL, 0.0
        wp = waypoint_positions(task)[obs.waypoints_hit]
        return _move_toward(gp, wp, 0.0)

    src_idx = kind.src
    src = obs.objects[src_idx]

    if obs.held_object != src_idx:
        if obs.grip_closed:
            return _STILL, 0.0  # missed grasp: reopen, then retry
        horiz = math.hypot(gp[0] - src.pos[0], gp[1] - src.pos[1])
        if horiz > ALIGN_TOL:
            return _move_toward(gp, (src.pos[0], src.pos[1], src.pos[2] + HOVER_HEIGHT), 0.0)
        if math.dist(gp, src.pos) > DESCEND_TOL:
            return _move_toward(gp, src.pos, 0.0)
        return _STILL, 1.0

    if isinstance(kind, Stack):
        dst = obs.objects[kind.dst]
        place = (dst.pos[0], dst.pos[1], dst.pos[2] + dst.half_size + src.half_size)
    else:
        zc = kind.zone_center
        place = (zc[0], zc[1], src.half_size + 0.03)  # release just above the table

    horiz = math.hypot(gp[0] - place[0], gp[1] - place[1])
    if horiz > ALIGN_TOL:
        if gp[2] < SAFE_HEIGHT - 1e-9:
            return _move_toward(gp, (gp[0], gp[1], SAFE_HEIGHT), 1.0)
        return _move_toward(gp, (place[0], place[1], SAFE_HEIGHT), 1.0)
    if abs(gp[2] - place[2]) > PLACE_SLACK:
        return _move_toward(gp, place, 1.0)
    return _STILL, 0.0  # release; the block settles onto its support


def expert_action(obs: Observation) -> Action:
    """The scripted controller's action for the current state."""
    delta, grip = _expert_move(obs)
    return Action(delta, grip)


@dataclasses.dataclass(frozen=True)
class PolicyParams:
    """The drift policy's knobs: bias step eta, noise scale sigma and chunk length."""

    eta: float = 0.004
    sigma: float = 0.005
    chunk_len: int = 1

    def __post_init__(self) -> None:
        require_types(self)
        if self.eta < 0 or self.sigma < 0:
            raise ValueError("eta and sigma must be non-negative")
        if not 1 <= self.chunk_len <= MAX_CHUNK_LEN:
            raise ValueError(f"chunk_len must be in [1, {MAX_CHUNK_LEN}]")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


class DriftPolicy:
    """Expert actions corrupted by accumulated bias plus Gaussian noise.

    Per emitted action the bias takes one random-walk step of size eta, so its
    norm grows like eta * sqrt(t). Only the position deltas are corrupted; the
    grip channel passes through untouched. A fresh policy starts at
    ``seed``, 0 unless given: ``DriftPolicy(params, s)`` is
    ``DriftPolicy(params)`` after ``reset(s)``, without the generator of seed 0.

    Each query draws its chunk's randomness at once: six standard normals per
    action, in one ``standard_normal(6 * chunk_len)`` call. Of each action's
    six, the first three, scaled by sigma, are its noise and the last three
    are its bias step's direction: the draws, in their order, that
    ``normal(0, sigma, 3)`` then ``normal(size=3)`` per action would take.
    """

    def __init__(self, params: PolicyParams = PolicyParams(), seed: int = 0):
        self.params = params
        self.reset(seed)

    def reset(self, episode_seed: int) -> None:
        self._bias = (0.0, 0.0, 0.0)
        self._rng = rng_from("drift", 0, episode_seed)

    def propose(self, obs: Observation) -> ActionChunk:
        """``chunk_len`` drift actions rolled out open loop: the exact world steps between them."""
        n = self.params.chunk_len
        sigma, eta = self.params.sigma, self.params.eta
        z = self._rng.standard_normal(6 * n)
        zs = z.tolist()
        b0, b1, b2 = self._bias
        lo, hi = -DELTA_BOUND, DELTA_BOUND
        actions = []
        for i in range(n):
            j = 6 * i
            z0, z1, z2, u0, u1, u2 = zs[j:j + 6]
            (d0, d1, d2), grip = _expert_move(obs)
            # Generator.normal(loc, scale) computes loc + scale * z; at loc 0.0
            # that rounds once however the product and the sum are fused
            n0, n1, n2 = 0.0 + sigma * z0, 0.0 + sigma * z1, 0.0 + sigma * z2
            # in Python floats, the array form's IEEE operations in its order:
            # (delta + bias) + noise, then np.clip against scalar bounds, which keeps
            # x unless x < lo and then unless x > hi, as max(x, lo) and min(x, hi) do
            a = Action((min(max((d0 + b0) + n0, lo), hi),
                        min(max((d1 + b1) + n1, lo), hi),
                        min(max((d2 + b2) + n2, lo), hi)), grip)
            actions.append(a)
            # bias update happens after the action, so a fresh reset emits
            # the expert action plus noise alone; the direction is normal(size=3),
            # 0.0 + z, whose norm the raw draws give: squaring drops a zero's sign
            u = z[j + 3:j + 6]
            norm = math.sqrt(u.dot(u))  # np.linalg.norm's formula for a real vector
            if norm > 0.0:
                b0 += eta * ((0.0 + u0) / norm)
                b1 += eta * ((0.0 + u1) / norm)
                b2 += eta * ((0.0 + u2) / norm)
            if i + 1 < n:
                obs = step(obs, a)
        self._bias = (b0, b1, b2)
        return ActionChunk(tuple(actions))
