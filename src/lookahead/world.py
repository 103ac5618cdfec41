"""Deterministic tabletop world: analytic transitions plus an error-injected twin.

The workspace is the unit cube. Objects are axis-aligned blocks that either
rest on a support (table or another block) or ride along with the gripper
once grasped. ``step`` is a pure function of (observation, action);
``imperfect_step`` adds a bounded, hash-keyed perturbation so search can run
against a world model that disagrees with the real transition by at most
epsilon per coordinate.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import math
import operator
import struct
from typing import Iterable, Union

import numpy as np

from .actions import Action
from .errors import require_types
# world.derive_seed stays importable: perfbench's tracer patches it
from .seeding import derive_seed, encode_part, rng_from, seed_from_encoded  # noqa: F401

GRASP_RADIUS = 0.03  # closing within this distance of a center attaches the object
OBJECT_HALF_SIZE = 0.02
HOME_POSE = (0.5, 0.5, 0.25)
RESET_JITTER = 0.03  # +/- uniform horizontal jitter applied to nominal layouts
_Z_ATOL = 1e-9  # resting heights are computed analytically, so exact up to float noise
_MODEL_PART = encode_part("model")  # the first part of every world-model key
# an episode keys all its transitions with one model seed. Only int seeds are
# cached: a cache keyed by value would give 0.0 and -0.0, or 1 and True, one entry
_seed_part = functools.lru_cache(maxsize=64)(encode_part)


@dataclasses.dataclass(frozen=True)
class Stack:
    """Place object ``src`` on top of object ``dst``."""

    src: int = 0
    dst: int = 1


@dataclasses.dataclass(frozen=True)
class PickPlace:
    """Carry object ``src`` into a circular zone on the table."""

    src: int = 0
    zone_center: tuple[float, float, float] = (0.65, 0.5, 0.0)
    zone_radius: float = 0.05


@dataclasses.dataclass(frozen=True)
class FollowCircle:
    """Visit waypoints on a horizontal circle, in order."""

    center: tuple[float, float, float] = (0.5, 0.5, 0.12)
    radius: float = 0.12
    n_waypoints: int = 8


TaskKind = Union[Stack, PickPlace, FollowCircle]

# nominal (x, y) table positions per task kind, jittered at reset
_NOMINAL_XY = {
    Stack: ((0.35, 0.5), (0.65, 0.5)),
    PickPlace: ((0.35, 0.5),),
    FollowCircle: (),
}

_KIND_IDS = {Stack: "stack", PickPlace: "pick-place", FollowCircle: "follow-circle"}
_ID_KINDS = {v: k for k, v in _KIND_IDS.items()}
# field name -> whether it holds a tuple (a JSON list), per task kind
_KIND_FIELDS = {kind: {f.name: isinstance(f.default, tuple) for f in dataclasses.fields(kind)}
                for kind in _KIND_IDS}


@dataclasses.dataclass(frozen=True)
class TaskSpec:
    """A task kind plus the episode horizon and success tolerance."""

    kind: TaskKind
    horizon: int = 80
    tolerance: float = 0.04

    def __post_init__(self) -> None:
        require_types(self)
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if not (math.isfinite(self.tolerance) and self.tolerance > 0):
            raise ValueError("tolerance must be a positive real")
        kind = self.kind
        n_obj = self.n_objects
        require_types(kind)
        if isinstance(kind, Stack):
            if not (0 <= kind.src < n_obj and 0 <= kind.dst < n_obj) or kind.src == kind.dst:
                raise ValueError("stack needs two distinct valid object indices")
        elif isinstance(kind, PickPlace):
            if not 0 <= kind.src < n_obj:
                raise ValueError("pick-place src index out of range")
            if kind.zone_radius <= 0:
                raise ValueError("zone_radius must be positive")
        elif isinstance(kind, FollowCircle):
            if kind.radius <= 0 or kind.n_waypoints < 1:
                raise ValueError("circle needs a positive radius and at least one waypoint")

    @property
    def task_id(self) -> str:
        return _KIND_IDS[type(self.kind)]

    @property
    def n_objects(self) -> int:
        return len(_NOMINAL_XY[type(self.kind)])

    def to_dict(self) -> dict:
        doc: dict = {"kind": self.task_id}
        for name, is_tuple in _KIND_FIELDS[type(self.kind)].items():
            value = getattr(self.kind, name)
            doc[name] = list(value) if is_tuple else value
        doc.update(horizon=self.horizon, tolerance=self.tolerance)
        return doc

    @functools.cached_property
    def canonical_json(self) -> bytes:
        """``to_dict`` as sorted-key UTF-8 JSON, built once per (frozen) spec."""
        return json.dumps(self.to_dict(), sort_keys=True).encode("utf-8")

    @classmethod
    def from_dict(cls, doc: dict) -> "TaskSpec":
        """Parse ``to_dict``'s form. A missing or unknown kind, or a key the task
        kind does not have, is a ValueError naming it; only a list becomes a
        tuple, so any other value reaches ``require_types`` as read."""
        if "kind" not in doc:
            raise ValueError("missing key 'kind' in the task")
        kind_id = doc["kind"]
        kind_cls = _ID_KINDS.get(kind_id) if type(kind_id) is str else None
        if kind_cls is None:
            raise ValueError(f"unknown task kind {kind_id!r}")
        fields = _KIND_FIELDS[kind_cls]
        kind_args, spec_args = {}, {}
        for key, value in doc.items():
            if key in fields:
                kind_args[key] = tuple(value) if fields[key] and type(value) is list else value
            elif key in ("horizon", "tolerance"):
                spec_args[key] = value
            elif key != "kind":
                raise ValueError(f"unknown key {key!r} for task kind {kind_id!r}")
        return cls(kind=kind_cls(**kind_args), **spec_args)


@dataclasses.dataclass(frozen=True)
class ObjectState:
    pos: tuple[float, float, float]
    half_size: float


@dataclasses.dataclass(frozen=True)
class Observation:
    """Full world state. ``waypoints_hit`` keeps circle progress Markov."""

    gripper_pos: tuple[float, float, float]
    grip_closed: bool
    held_object: int | None
    objects: tuple[ObjectState, ...]
    task: TaskSpec
    step_index: int
    waypoints_hit: int = 0

    def to_dict(self) -> dict:
        return {
            "gripper_pos": list(self.gripper_pos),
            "grip_closed": self.grip_closed,
            "held_object": self.held_object,
            "objects": [{"pos": list(o.pos), "half_size": o.half_size} for o in self.objects],
            "task": self.task.to_dict(),
            "step_index": self.step_index,
            "waypoints_hit": self.waypoints_hit,
        }

    @classmethod
    def from_dict(cls, doc: dict, tasks: dict[str, TaskSpec]) -> "Observation":
        """Parse ``to_dict``'s form. ``tasks`` memoizes parsed task specs across
        calls, keyed by the task dict's ``repr``, so a spec is reused only for a
        task dict with the same keys, values and value types (``1``, ``1.0`` and
        ``True`` each parse and validate on their own).

        Each object and then the observation go through ``require_types`` (an
        object's error starts with ``object i: ``); of the values, only
        ``waypoints_hit`` must be non-negative and ``held_object`` null or the
        index of an object. Only a list position becomes a tuple, so any other
        value reaches the check as read. A failed check is a ValueError naming
        the field."""
        task_doc = doc["task"]
        key = repr(task_doc)
        task = tasks.get(key)
        if task is None:
            task = tasks[key] = TaskSpec.from_dict(task_doc)
        objects = []
        for i, o in enumerate(doc["objects"]):
            pos = o["pos"]
            state = ObjectState(tuple(pos) if type(pos) is list else pos, o["half_size"])
            try:
                require_types(state)
            except ValueError as exc:
                raise ValueError(f"object {i}: {exc}") from None
            objects.append(state)
        gripper_pos = doc["gripper_pos"]
        obs = cls(
            gripper_pos=tuple(gripper_pos) if type(gripper_pos) is list else gripper_pos,
            grip_closed=doc["grip_closed"],
            held_object=doc["held_object"],
            objects=tuple(objects),
            task=task,
            step_index=doc["step_index"],
            waypoints_hit=doc.get("waypoints_hit", 0),
        )
        require_types(obs)
        if obs.waypoints_hit < 0:
            raise ValueError(f"waypoints_hit must be a non-negative integer, got {obs.waypoints_hit!r}")
        held = obs.held_object
        if held is not None and not 0 <= held < len(objects):
            raise ValueError(f"held_object must be null or an object index below {len(objects)}, "
                             f"got {held!r}")
        return obs

    def canonical_bytes(self) -> bytes:
        parts = [
            struct.pack(">3d?i", *self.gripper_pos, self.grip_closed,
                        -1 if self.held_object is None else self.held_object),
        ]
        for o in self.objects:
            parts.append(struct.pack(">4d", *o.pos, o.half_size))
        parts.append(struct.pack(">2i", self.step_index, self.waypoints_hit))
        parts.append(self.task.canonical_json)
        return b"".join(parts)


def waypoint_positions(task: TaskSpec) -> list[tuple[float, float, float]]:
    """Waypoints of a FollowCircle task, counterclockwise from angle zero."""
    kind = task.kind
    if not isinstance(kind, FollowCircle):
        raise ValueError("waypoints are only defined for follow-circle tasks")
    cx, cy, cz = kind.center
    out = []
    for i in range(kind.n_waypoints):
        theta = 2.0 * math.pi * i / kind.n_waypoints
        out.append((cx + kind.radius * math.cos(theta), cy + kind.radius * math.sin(theta), cz))
    return out


def reset(task: TaskSpec, seed: int) -> Observation:
    """Initial state for an episode: home gripper, jittered object layout."""
    rng = rng_from("reset", task.task_id, seed)
    objects = []
    for x, y in _NOMINAL_XY[type(task.kind)]:
        # as Python floats, so no state carries numpy scalars
        jx, jy = rng.uniform(-RESET_JITTER, RESET_JITTER, size=2).tolist()
        objects.append(ObjectState((x + jx, y + jy, OBJECT_HALF_SIZE), OBJECT_HALF_SIZE))
    return Observation(
        gripper_pos=HOME_POSE,
        grip_closed=False,
        held_object=None,
        objects=tuple(objects),
        task=task,
        step_index=0,
        waypoints_hit=0,
    )


def _clip01(v: float) -> float:
    return 0.0 if v < 0.0 else (1.0 if v > 1.0 else v)


def _settle(x: float, y: float, half_size: float, supports: Iterable[ObjectState],
            tolerance: float) -> ObjectState:
    """Resting state of a block of ``half_size`` released at (x, y).

    Within horizontal tolerance of a support block it rests on the highest
    such top, otherwise it drops to the table. z = support top + half_size.
    """
    support_top = 0.0
    for other in supports:
        if math.hypot(other.pos[0] - x, other.pos[1] - y) <= tolerance:
            top = other.pos[2] + other.half_size
            if top > support_top:
                support_top = top
    return ObjectState((x, y, support_top + half_size), half_size)


def _transition(obs: Observation, action: Action
                ) -> tuple[tuple[float, float, float], bool, int | None, list[ObjectState], int]:
    """The parts of ``step``'s next state that change: gripper position, grip,
    held object, objects and waypoints hit. The held object's entry is left as
    it was: the caller attaches it to the gripper's final position."""
    dx, dy, dz = action.delta
    px, py, pz = obs.gripper_pos
    gp = (_clip01(px + dx), _clip01(py + dy), _clip01(pz + dz))

    objects = list(obs.objects)
    held = obs.held_object
    closed_now = action.grip_closed
    if closed_now and not obs.grip_closed and held is None:
        # grasp: nearest object center within reach attaches; ties go to the
        # lowest index via the strict comparison
        best, best_d = None, math.inf
        for i, o in enumerate(objects):
            d = math.dist(o.pos, gp)
            if d <= GRASP_RADIUS and d < best_d:
                best, best_d = i, d
        if best is not None:
            held = best
    elif not closed_now and obs.grip_closed and held is not None:
        others = [o for i, o in enumerate(objects) if i != held]
        objects[held] = _settle(gp[0], gp[1], objects[held].half_size, others, obs.task.tolerance)
        held = None

    hit = obs.waypoints_hit
    if isinstance(obs.task.kind, FollowCircle):
        wps = waypoint_positions(obs.task)
        while hit < len(wps) and math.dist(gp, wps[hit]) <= obs.task.tolerance:
            hit += 1
    return gp, closed_now, held, objects, hit


def step(obs: Observation, action: Action) -> Observation:
    """One transition. Pure: same (obs, action) always yields the same state."""
    gp, closed, held, objects, hit = _transition(obs, action)
    if held is not None:
        objects[held] = ObjectState(gp, objects[held].half_size)  # held rides the gripper
    # positional, in field order: cheaper than keywords on the hot path
    return Observation(gp, closed, held, tuple(objects), obs.task, obs.step_index + 1, hit)


def is_success(obs: Observation) -> bool:
    kind = obs.task.kind
    tol = obs.task.tolerance
    if isinstance(kind, Stack):
        if obs.grip_closed or obs.held_object == kind.src:
            return False
        src, dst = obs.objects[kind.src], obs.objects[kind.dst]
        horiz = math.hypot(src.pos[0] - dst.pos[0], src.pos[1] - dst.pos[1])
        resting_z = dst.pos[2] + dst.half_size + src.half_size
        return horiz <= tol and abs(src.pos[2] - resting_z) <= _Z_ATOL
    if isinstance(kind, PickPlace):
        if obs.grip_closed or obs.held_object == kind.src:
            return False
        src = obs.objects[kind.src]
        horiz = math.hypot(src.pos[0] - kind.zone_center[0], src.pos[1] - kind.zone_center[1])
        return horiz <= kind.zone_radius and abs(src.pos[2] - src.half_size) <= _Z_ATOL
    return obs.waypoints_hit >= kind.n_waypoints


def imperfect_step(obs: Observation, action: Action, epsilon: float, model_seed: int) -> Observation:
    """``step`` plus a deterministic perturbation of up to epsilon per coordinate.

    The perturbation is keyed by ``derive_seed("model", obs.canonical_bytes(),
    <action bytes>, model_seed)``, so re-simulating the same transition always
    lands on the same state, in any process. The held block rides the perturbed
    gripper; the free blocks settle bottom-up at their perturbed (x, y), each
    onto those already settled. epsilon = 0 short-circuits to the exact ``step``.
    """
    if epsilon < 0:
        raise ValueError("epsilon must be non-negative")
    if epsilon == 0.0:
        return step(obs, action)
    gp, closed, held, objects, hit = _transition(obs, action)
    # derive_seed's key, hashed once, with "model" encoded ahead and the seed cached
    key = seed_from_encoded(b"".join((
        _MODEL_PART,
        encode_part(obs.canonical_bytes()),
        encode_part(struct.pack(">4d", *action.delta, action.grip)),
        _seed_part(model_seed) if type(model_seed) is int else encode_part(model_seed),
    )))
    rng = np.random.default_rng(key)
    # as Python floats: the same IEEE sums, and the state keeps plain floats
    off = rng.uniform(-epsilon, epsilon, size=3 + 3 * len(objects)).tolist()
    # _clip01 of every perturbed coordinate, gripper first, written out inline
    pos = [0.0 if v < 0.0 else (1.0 if v > 1.0 else v)
           for v in map(operator.add, itertools.chain(gp, *(o.pos for o in objects)), off)]
    gp = (pos[0], pos[1], pos[2])
    tolerance = obs.task.tolerance
    settled: list[ObjectState] = []
    # bottom-up by perturbed height, ties in index order
    for _, i in sorted((pos[5 + 3 * i], i) for i in range(len(objects)) if i != held):
        objects[i] = _settle(pos[3 + 3 * i], pos[4 + 3 * i], objects[i].half_size, settled, tolerance)
        settled.append(objects[i])
    if held is not None:
        objects[held] = ObjectState(gp, objects[held].half_size)  # held rides the gripper
    return Observation(gp, closed, held, tuple(objects), obs.task, obs.step_index + 1, hit)


def feature_length(task: TaskSpec) -> int:
    return 9 + 6 * task.n_objects


def render_features(obs: Observation) -> np.ndarray:
    """Fixed-layout feature vector for reward learning.

    Layout: gripper position (3), grip flag (1), held flag (1), each object
    position (3n), gripper-to-object offsets (3n), goal offset (3), progress
    height (1). Offsets are differences of positions, so translating the whole
    scene leaves them unchanged.
    """
    kind = obs.task.kind
    gp = obs.gripper_pos
    feats: list[float] = [gp[0], gp[1], gp[2],
                          1.0 if obs.grip_closed else 0.0,
                          1.0 if obs.held_object is not None else 0.0]
    for o in obs.objects:
        feats.extend(o.pos)
    for o in obs.objects:
        feats.extend((gp[0] - o.pos[0], gp[1] - o.pos[1], gp[2] - o.pos[2]))
    if isinstance(kind, Stack):
        src, dst = obs.objects[kind.src], obs.objects[kind.dst]
        feats.extend((dst.pos[0] - src.pos[0], dst.pos[1] - src.pos[1], dst.pos[2] - src.pos[2]))
        feats.append(src.pos[2] - src.half_size)  # src bottom height above the table
    elif isinstance(kind, PickPlace):
        src = obs.objects[kind.src]
        zc = kind.zone_center
        feats.extend((zc[0] - src.pos[0], zc[1] - src.pos[1], zc[2] - src.pos[2]))
        feats.append(src.pos[2] - src.half_size)
    else:
        if obs.waypoints_hit < kind.n_waypoints:
            wp = waypoint_positions(obs.task)[obs.waypoints_hit]
            feats.extend((wp[0] - gp[0], wp[1] - gp[1], wp[2] - gp[2]))
        else:
            feats.extend((0.0, 0.0, 0.0))
        feats.append(obs.waypoints_hit / kind.n_waypoints)
    return np.array(feats, dtype=float)
