"""Synthetic tabletop environment: reset, step, grasp/release, features."""

from __future__ import annotations

import dataclasses
import json
import math
import struct

import numpy as np
import pytest

import lookahead as la
from lookahead.world import (
    GRASP_RADIUS,
    HOME_POSE,
    OBJECT_HALF_SIZE,
    Observation,
    ObjectState,
    _Z_ATOL,
    feature_length,
    render_features,
    waypoint_positions,
)


def validate_observation(obs: Observation) -> None:
    """Raise if a state violates the world's structural invariants.

    The interpenetration check covers free objects only: a held object is
    attached to the gripper, not resting, and the world has no collision
    dynamics for it.
    """
    for v in obs.gripper_pos:
        if not 0.0 <= v <= 1.0:
            raise ValueError("gripper outside the workspace")
    for o in obs.objects:
        for v in o.pos:
            if not 0.0 <= v <= 1.0:
                raise ValueError("object outside the workspace")
    if obs.held_object is not None:
        if not obs.grip_closed:
            raise ValueError("held object requires a closed grip")
        if obs.objects[obs.held_object].pos != obs.gripper_pos:
            raise ValueError("held object must ride the gripper")
    tol = obs.task.tolerance
    for i, o in enumerate(obs.objects):
        if i == obs.held_object:
            continue
        # resting height: table, or the top of some block within tolerance
        ok = abs(o.pos[2] - o.half_size) <= _Z_ATOL
        for j, other in enumerate(obs.objects):
            if ok or j == i:
                continue
            horiz = math.hypot(other.pos[0] - o.pos[0], other.pos[1] - o.pos[1])
            if horiz <= tol and abs(o.pos[2] - (other.pos[2] + other.half_size + o.half_size)) <= _Z_ATOL:
                ok = True
        if not ok:
            raise ValueError(f"object {i} is not resting on a support")
    free = [i for i in range(len(obs.objects)) if i != obs.held_object]
    for a_i in range(len(free)):
        for b_i in range(a_i + 1, len(free)):
            a, b = obs.objects[free[a_i]], obs.objects[free[b_i]]
            lim = a.half_size + b.half_size - 1e-6
            horiz = math.hypot(a.pos[0] - b.pos[0], a.pos[1] - b.pos[1])
            if horiz < lim and abs(a.pos[2] - b.pos[2]) < lim:
                raise ValueError(f"objects {free[a_i]} and {free[b_i]} interpenetrate")


def _settle_reference(me, supports, tolerance):
    """``me`` at its (x, y), resting on the highest support top within tolerance, or the table."""
    x, y = me.pos[0], me.pos[1]
    support_top = 0.0
    for other in supports:
        if math.hypot(other.pos[0] - x, other.pos[1] - y) <= tolerance:
            top = other.pos[2] + other.half_size
            if top > support_top:
                support_top = top
    return ObjectState((x, y, support_top + me.half_size), me.half_size)


def _resettle_free_reference(objects, held, tolerance):
    """The free objects re-settled bottom-up, each onto those already settled,
    in two passes: a stable sort by height, then one settle per object."""
    order = sorted((i for i in range(len(objects)) if i != held),
                   key=lambda i: objects[i].pos[2])
    settled = {}
    for idx in order:
        settled[idx] = _settle_reference(objects[idx], settled.values(), tolerance)
    out = list(objects)
    for idx, st in settled.items():
        out[idx] = st
    return out


def _imperfect_step_reference(obs, action, epsilon, model_seed):
    """``imperfect_step`` as first written: a full ``step``, then its perturbed copy."""
    base = la.step(obs, action)
    if epsilon == 0.0:
        return base
    key = la.derive_seed("model", obs.canonical_bytes(),
                         struct.pack(">4d", *action.delta, action.grip), model_seed)
    off = np.random.default_rng(key).uniform(-epsilon, epsilon,
                                             size=3 + 3 * len(base.objects)).tolist()
    clip = lambda v: min(1.0, max(0.0, v))  # noqa: E731
    gp = tuple(clip(base.gripper_pos[i] + off[i]) for i in range(3))
    objects = []
    for i, o in enumerate(base.objects):
        if i == base.held_object:
            objects.append(ObjectState(gp, o.half_size))
            continue
        objects.append(ObjectState(tuple(clip(o.pos[d] + off[3 + 3 * i + d]) for d in range(3)),
                                   o.half_size))
    objects = _resettle_free_reference(objects, base.held_object, obs.task.tolerance)
    return dataclasses.replace(base, gripper_pos=gp, objects=tuple(objects))


def _grasp_src(obs):
    """Drive the gripper onto the source block and close; returns the new obs."""
    src = obs.objects[obs.task.kind.src]
    while math.dist(obs.gripper_pos, src.pos) > 1e-9:
        d = tuple(max(-0.05, min(0.05, t - p))
                  for p, t in zip(obs.gripper_pos, src.pos))
        obs = la.step(obs, la.Action(d, 0.0))
    return la.step(obs, la.Action((0, 0, 0), 1.0))


def test_reset_is_deterministic(stack_task):
    a = la.reset(stack_task, 42)
    b = la.reset(stack_task, 42)
    assert a == b
    c = la.reset(stack_task, 43)
    assert a != c


def test_reset_jitter_bounds(stack_task):
    from lookahead.world import _NOMINAL_XY

    nominal = _NOMINAL_XY[type(stack_task.kind)]
    for seed in range(100):
        obs = la.reset(stack_task, seed)
        assert obs.gripper_pos == HOME_POSE
        assert obs.step_index == 0
        for obj, (nx, ny) in zip(obs.objects, nominal):
            assert abs(obj.pos[0] - nx) <= 0.03 + 1e-12
            assert abs(obj.pos[1] - ny) <= 0.03 + 1e-12
            assert obj.pos[2] == OBJECT_HALF_SIZE  # settled on the table


def test_reset_invariants_hold_broadly():
    for kind in (la.Stack(), la.PickPlace(), la.FollowCircle()):
        task = la.TaskSpec(kind=kind)
        for seed in range(350):
            validate_observation(la.reset(task, seed))


def test_step_identity_action(stack_task):
    obs = la.reset(stack_task, 0)
    nxt = la.step(obs, la.Action((0, 0, 0), 0.0))
    assert nxt.step_index == obs.step_index + 1
    assert nxt.gripper_pos == obs.gripper_pos
    assert nxt.objects == obs.objects
    assert nxt.held_object == obs.held_object


def test_step_is_pure(stack_task):
    obs = la.reset(stack_task, 5)
    a = la.Action((0.02, -0.01, 0.03), 0.7)
    first = la.step(obs, a)
    second = la.step(obs, a)
    assert first == second


def test_grasp_attach_and_track(stack_task):
    obs = la.reset(stack_task, 1)
    obs = _grasp_src(obs)
    src_idx = stack_task.kind.src
    assert obs.held_object == src_idx
    moved = la.step(obs, la.Action((0.02, 0, 0), 1.0))
    assert moved.objects[src_idx].pos == moved.gripper_pos


def test_grasp_requires_proximity(stack_task):
    obs = la.reset(stack_task, 2)  # gripper starts far above both blocks
    closed = la.step(obs, la.Action((0, 0, 0), 1.0))
    assert closed.held_object is None
    assert closed.grip_closed


def test_grasp_only_on_crossing(stack_task):
    obs = la.reset(stack_task, 3)
    obs = la.step(obs, la.Action((0, 0, 0), 1.0))  # close far away: no grasp
    src = obs.objects[stack_task.kind.src]
    while math.dist(obs.gripper_pos, src.pos) > 1e-9:
        d = tuple(max(-0.05, min(0.05, t - p))
                  for p, t in zip(obs.gripper_pos, src.pos))
        obs = la.step(obs, la.Action(d, 1.0))  # grip stays closed while moving
    assert obs.held_object is None  # no crossing happened at the block


def test_release_settles_onto_support(stack_task):
    # hand-trace: held block released 0.01 away horizontally from the base
    obs = la.reset(stack_task, 4)
    obs = _grasp_src(obs)
    src_idx, dst_idx = stack_task.kind.src, stack_task.kind.dst
    dst = obs.objects[dst_idx]
    target = (dst.pos[0] + 0.01, dst.pos[1], 0.3)
    while math.dist(obs.gripper_pos, target) > 1e-9:
        d = tuple(max(-0.05, min(0.05, t - p))
                  for p, t in zip(obs.gripper_pos, target))
        obs = la.step(obs, la.Action(d, 1.0))
    dropped = la.step(obs, la.Action((0, 0, 0), 0.0))
    src = dropped.objects[src_idx]
    dst = dropped.objects[dst_idx]
    assert dropped.held_object is None
    assert abs(src.pos[2] - (dst.pos[2] + dst.half_size + src.half_size)) < 1e-12


def test_release_far_drops_to_table(stack_task):
    obs = la.reset(stack_task, 6)
    obs = _grasp_src(obs)
    obs = la.step(obs, la.Action((0, 0, 0.05), 1.0))
    dropped = la.step(obs, la.Action((0, 0, 0), 0.0))
    src = dropped.objects[stack_task.kind.src]
    assert src.pos[2] == OBJECT_HALF_SIZE


def test_free_objects_never_move(stack_task):
    rng = np.random.default_rng(13)
    obs = la.reset(stack_task, 7)
    for _ in range(60):
        before = obs.objects
        held = obs.held_object
        a = la.Action(tuple(rng.uniform(-0.05, 0.05, 3)), float(rng.uniform(0, 1)))
        obs = la.step(obs, a)
        for i, (o0, o1) in enumerate(zip(before, obs.objects)):
            if i != held and i != obs.held_object:
                assert o0.pos == o1.pos


def test_workspace_containment(stack_task):
    obs = la.reset(stack_task, 8)
    for _ in range(40):
        obs = la.step(obs, la.Action((-0.05, -0.05, -0.05), 0.0))
    assert all(0.0 <= c <= 1.0 for c in obs.gripper_pos)
    for _ in range(40):
        obs = la.step(obs, la.Action((0.05, 0.05, 0.05), 0.0))
    assert all(0.0 <= c <= 1.0 for c in obs.gripper_pos)


def test_success_definitions(stack_task):
    assert not la.is_success(la.reset(stack_task, 9))
    # construct the solved state directly
    obs = la.reset(stack_task, 9)
    src_idx, dst_idx = stack_task.kind.src, stack_task.kind.dst
    dst = obs.objects[dst_idx]
    top = (dst.pos[0], dst.pos[1], dst.pos[2] + dst.half_size + OBJECT_HALF_SIZE)
    objects = list(obs.objects)
    objects[src_idx] = ObjectState(pos=top, half_size=OBJECT_HALF_SIZE)
    import dataclasses

    solved = dataclasses.replace(obs, objects=tuple(objects))
    assert la.is_success(solved)


def test_follow_circle_success():
    task = la.TaskSpec(kind=la.FollowCircle())
    obs = la.reset(task, 10)
    wps = waypoint_positions(task)
    assert len(wps) == task.kind.n_waypoints
    for wp in wps:
        while math.dist(obs.gripper_pos, wp) > 1e-9:
            d = tuple(max(-0.05, min(0.05, t - p))
                      for p, t in zip(obs.gripper_pos, wp))
            obs = la.step(obs, la.Action(d, 0.0))
    assert obs.waypoints_hit == task.kind.n_waypoints
    assert la.is_success(obs)


def test_pick_place_success():
    task = la.TaskSpec(kind=la.PickPlace())
    obs = la.reset(task, 11)
    obs = _grasp_src(obs)
    zc = task.kind.zone_center
    target = (zc[0], zc[1], 0.1)
    while math.dist(obs.gripper_pos, target) > 1e-9:
        d = tuple(max(-0.05, min(0.05, t - p))
                  for p, t in zip(obs.gripper_pos, target))
        obs = la.step(obs, la.Action(d, 1.0))
    done = la.step(obs, la.Action((0, 0, 0), 0.0))
    assert la.is_success(done)


def test_observation_dict_round_trip(stack_task):
    obs = la.reset(stack_task, 12)
    obs = la.step(obs, la.Action((0.01, 0.02, -0.03), 0.8))
    again = la.Observation.from_dict(obs.to_dict(), {})
    assert again == obs


@pytest.mark.parametrize("kind", [la.Stack(), la.PickPlace(), la.FollowCircle()])
def test_canonical_bytes_equal_the_plain_task_json_form(kind):
    task = la.TaskSpec(kind=kind, horizon=37, tolerance=0.03)
    obs = la.step(la.reset(task, 3), la.Action((0.01, -0.02, 0.03), 0.9))
    plain = json.dumps(task.to_dict(), sort_keys=True).encode("utf-8")
    held = -1 if obs.held_object is None else obs.held_object
    expected = b"".join([struct.pack(">3d?i", *obs.gripper_pos, obs.grip_closed, held),
                         *(struct.pack(">4d", *o.pos, o.half_size) for o in obs.objects),
                         struct.pack(">2i", obs.step_index, obs.waypoints_hit), plain])
    state = obs.canonical_bytes()
    assert state == expected
    again = dataclasses.replace(obs, task=la.TaskSpec.from_dict(task.to_dict()))
    assert again.canonical_bytes() == state  # a fresh spec with the same content
    assert obs.canonical_bytes() == state  # and the cached spec, read again


def test_imperfect_step_zero_epsilon_is_exact(stack_task):
    rng = np.random.default_rng(14)
    for trial in range(10_000):
        obs = la.reset(stack_task, int(rng.integers(0, 500)))
        a = la.Action(tuple(rng.uniform(-0.05, 0.05, 3)), float(rng.uniform(0, 1)))
        assert la.imperfect_step(obs, a, 0.0, 123) == la.step(obs, a)


@pytest.mark.parametrize("kind", [la.Stack(), la.PickPlace(), la.FollowCircle()])
def test_imperfect_step_matches_the_full_step_reference(kind):
    # random walks that grasp, carry and release: every transition equal in bits
    task = la.TaskSpec(kind=kind)
    rng = np.random.default_rng(19)
    for trial in range(40):
        obs = la.reset(task, trial)
        if trial % 2 and obs.objects:  # start on the first block, so a close picks it up
            obs = dataclasses.replace(obs, gripper_pos=obs.objects[0].pos)
        for t in range(12):
            a = la.Action(tuple(rng.uniform(-0.05, 0.05, 3)), float(t % 4 < 2))
            eps = (0.0, 0.005, 0.02, 0.05)[(trial + t) % 4]
            got = la.imperfect_step(obs, a, eps, trial)
            want = _imperfect_step_reference(obs, a, eps, trial)
            assert got == want and got.canonical_bytes() == want.canonical_bytes()
            obs = got
    if not isinstance(kind, la.Stack):
        return
    # the settle order: a height tie, a block resting on another, a release onto a stack
    for obs, a in _settle_order_cases(task):
        for eps in (0.02, 0.05, 0.3):
            for seed in range(60):
                got = la.imperfect_step(obs, a, eps, seed)
                want = _imperfect_step_reference(obs, a, eps, seed)
                assert got == want and got.canonical_bytes() == want.canonical_bytes()


def _model_key(obs, action, model_seed):
    return la.derive_seed("model", obs.canonical_bytes(),
                          struct.pack(">4d", *action.delta, action.grip), model_seed)


def _stack_state(task, gripper_pos, held, positions):
    """A stack state at step 5 whose grip is closed exactly when a block is held."""
    return Observation(gripper_pos, held is not None, held,
                       tuple(ObjectState(p, OBJECT_HALF_SIZE) for p in positions), task, 5)


def _settle_order_cases(task):
    """(state, action) pairs whose perturbed free blocks settle onto one another."""
    away = la.Action((0.01, 0.0, 0.0), 0.0)
    return [
        # two table blocks within tolerance: at eps 0.05 each height clips to 0.0 w.p. 0.3
        (_stack_state(task, (0.7, 0.7, 0.2), None, [(0.40, 0.5, 0.02), (0.43, 0.5, 0.02)]), away),
        # block 1 resting on block 0
        (_stack_state(task, (0.7, 0.7, 0.2), None, [(0.40, 0.5, 0.02), (0.40, 0.5, 0.06)]), away),
        # block 1 held above block 0 and released onto it
        (_stack_state(task, (0.41, 0.5, 0.07), 1, [(0.40, 0.5, 0.02), (0.41, 0.5, 0.07)]),
         la.Action((0.0, 0.0, 0.0), 0.0)),
    ]


def test_imperfect_step_settles_a_height_tie_in_index_order(stack_task):
    obs, a = _settle_order_cases(stack_task)[0]
    tol, h = stack_task.tolerance, OBJECT_HALF_SIZE
    ties = 0
    for seed in range(200):
        off = np.random.default_rng(_model_key(obs, a, seed)).uniform(-0.05, 0.05, size=9).tolist()
        nxt = la.imperfect_step(obs, a, 0.05, seed)
        (x0, y0, _), (x1, y1, _) = nxt.objects[0].pos, nxt.objects[1].pos
        if obs.objects[0].pos[2] + off[5] < 0.0 and obs.objects[1].pos[2] + off[8] < 0.0 \
                and math.hypot(x1 - x0, y1 - y0) <= tol:
            # both perturbed heights clip to 0.0: block 0 settles first, block 1 onto it
            ties += 1
            assert nxt.objects[0].pos[2] == h and nxt.objects[1].pos[2] == h + h + h
    assert ties > 0


def test_imperfect_step_keys_its_draw_by_the_state_action_and_model_seed(monkeypatch):
    keys = []
    real = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda key: keys.append(key) or real(key))

    def key_of(obs, a, seed):
        keys.clear()
        la.imperfect_step(obs, a, 0.02, seed)
        assert keys == [_model_key(obs, a, seed)]
        return keys[0]

    rng = np.random.default_rng(23)
    for trial in range(300):
        kind = (la.Stack(), la.PickPlace(), la.FollowCircle())[trial % 3]
        obs = la.reset(la.TaskSpec(kind=kind), trial)
        if trial % 2 and obs.objects:  # a held block
            obs = la.step(dataclasses.replace(obs, gripper_pos=obs.objects[0].pos),
                          la.Action((0, 0, 0), 1.0))
        a = la.Action(tuple(rng.uniform(-0.05, 0.05, 3)), float(rng.uniform(0, 1)))
        key_of(obs, a, int(rng.integers(-2**63, 2**63)) * (trial % 5 - 2))
    # the edges of an int part's 16 signed bytes, and seeds that compare equal
    # across types: each keys the draw as derive_seed does, so all apart
    edges = [0, -1, 2**127 - 1, -2**127, 0.0, -0.0, True, 1, 1.0]
    assert len({key_of(obs, a, seed) for seed in edges}) == len(edges)
    assert la.derive_seed(0.0) != la.derive_seed(-0.0)
    for seed in (2**127, -2**127 - 1):
        with pytest.raises(OverflowError):
            la.imperfect_step(obs, a, 0.02, seed)


def test_imperfect_step_determinism(stack_task):
    obs = la.reset(stack_task, 15)
    a = la.Action((0.02, 0.01, -0.01), 0.3)
    x = la.imperfect_step(obs, a, 0.02, 7)
    y = la.imperfect_step(obs, a, 0.02, 7)
    assert x == y
    z = la.imperfect_step(obs, a, 0.02, 8)
    assert x != z


def test_imperfect_step_deviation_bounded(stack_task):
    # table-settled states: re-settling snaps z back, so the lateral
    # perturbation is the whole deviation and it must stay within epsilon
    rng = np.random.default_rng(16)
    eps = 0.01
    for trial in range(1000):
        obs = la.reset(stack_task, trial)
        a = la.Action(tuple(rng.uniform(-0.05, 0.05, 3)), float(rng.uniform(0, 1)))
        exact = la.step(obs, a)
        noisy = la.imperfect_step(obs, a, eps, trial)
        dev = np.abs(np.array(exact.gripper_pos) - np.array(noisy.gripper_pos)).max()
        for o1, o2 in zip(exact.objects, noisy.objects):
            dev = max(dev, np.abs(np.array(o1.pos) - np.array(o2.pos)).max())
        assert dev <= eps + 1e-12


def test_imperfect_step_states_hold_python_floats(stack_task):
    # numpy scalars would ride along into later steps, feature renders and hashes
    rng = np.random.default_rng(18)
    for trial in range(20):
        obs = la.reset(stack_task, trial)
        src = obs.objects[stack_task.kind.src]
        if trial % 2:  # start on the source block, so a close can pick it up
            obs = dataclasses.replace(obs, gripper_pos=src.pos)
        for t in range(6):
            a = la.Action(tuple(rng.uniform(-0.05, 0.05, 3)), float(t % 3 == 0))
            obs = la.imperfect_step(obs, a, 0.02, trial)
            coords = [*obs.gripper_pos] + [v for o in obs.objects for v in (*o.pos, o.half_size)]
            assert [type(v) for v in coords] == [float] * len(coords)


def test_render_features_length_and_determinism(stack_task):
    obs = la.reset(stack_task, 17)
    f = render_features(obs)
    assert f.shape == (21,)
    assert feature_length(stack_task) == 21
    assert np.array_equal(f, render_features(la.reset(stack_task, 17)))


def test_render_features_translation_invariance(stack_task):
    import dataclasses

    obs = la.reset(stack_task, 18)
    shift = np.array([0.01, 0.0, 0.0])
    objects = tuple(
        ObjectState(pos=tuple(np.array(o.pos) + shift), half_size=o.half_size)
        for o in obs.objects
    )
    moved = dataclasses.replace(
        obs,
        gripper_pos=tuple(np.array(obs.gripper_pos) + shift),
        objects=objects,
    )
    f0 = render_features(obs)
    f1 = render_features(moved)
    # offsets (indices 11..19) and height (20) cancel a rigid translation
    assert np.allclose(f0[11:21], f1[11:21], atol=1e-12)
    # absolute blocks shift by exactly the translation
    assert np.allclose(f1[0:3] - f0[0:3], shift, atol=1e-12)


def test_task_spec_validation():
    with pytest.raises(ValueError):
        la.TaskSpec(kind=la.Stack(), horizon=0)
    with pytest.raises(ValueError):
        la.TaskSpec(kind=la.Stack(), tolerance=-0.1)
    spec = la.TaskSpec(kind=la.PickPlace())
    assert la.TaskSpec.from_dict(spec.to_dict()) == spec


@pytest.mark.parametrize("spec", [
    la.TaskSpec(kind=la.Stack(src=1, dst=0), horizon=60),
    la.TaskSpec(kind=la.PickPlace(zone_center=(0.6, 0.4, 0.0), zone_radius=0.08)),
    la.TaskSpec(kind=la.FollowCircle(center=(0.4, 0.5, 0.1), n_waypoints=5), tolerance=0.03),
])
def test_task_spec_dict_keys_are_the_kind_fields(spec):
    doc = spec.to_dict()
    kind_keys = [f.name for f in dataclasses.fields(spec.kind)]
    assert list(doc) == ["kind", *kind_keys, "horizon", "tolerance"]
    assert doc == json.loads(json.dumps(doc))  # plain JSON values: lists, not tuples
    assert la.TaskSpec.from_dict(doc) == spec
    assert la.TaskSpec.from_dict({"kind": doc["kind"]}) == la.TaskSpec(kind=type(spec.kind)())


@pytest.mark.parametrize("doc, key", [
    ({"kind": "stack", "horizn": 5}, "horizn"),
    ({"kind": "stack", "zone_radius": 0.1}, "zone_radius"),
    ({"kind": "follow-circle", "src": 0}, "src"),
])
def test_task_spec_rejects_keys_of_other_kinds(doc, key):
    with pytest.raises(ValueError, match=f"unknown key '{key}' for task kind '{doc['kind']}'"):
        la.TaskSpec.from_dict(doc)


def test_grasp_radius_is_strict_boundary(stack_task):
    import dataclasses

    obs = la.reset(stack_task, 19)
    src_idx = stack_task.kind.src
    src = obs.objects[src_idx]
    # park the gripper exactly at the grasp radius, then just inside it
    at = dataclasses.replace(
        obs, gripper_pos=(src.pos[0] + GRASP_RADIUS, src.pos[1], src.pos[2]))
    took = la.step(at, la.Action((0, 0, 0), 1.0))
    assert took.held_object == src_idx  # radius is inclusive
    far = dataclasses.replace(
        obs, gripper_pos=(src.pos[0] + GRASP_RADIUS + 1e-6, src.pos[1], src.pos[2]))
    missed = la.step(far, la.Action((0, 0, 0), 1.0))
    assert missed.held_object is None


@pytest.mark.parametrize("axis", [0, 1, 2])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_step_delta_bound_at_its_last_float(stack_task, axis, sign):
    limit = la.DELTA_BOUND + 1e-12
    obs = la.reset(stack_task, 0)
    delta = [0.0, 0.0, 0.0]
    delta[axis] = sign * limit
    moved = la.step(obs, la.Action(tuple(delta), 0.0))
    assert moved.gripper_pos[axis] == obs.gripper_pos[axis] + sign * limit
