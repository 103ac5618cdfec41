"""Scripted expert controller and its drift-corrupted variant."""

from __future__ import annotations

import math

import numpy as np
import pytest

import lookahead as la
from expert import ExpertPolicy
from lookahead.actions import DELTA_BOUND, flatten_chunk
from lookahead.policies import DriftPolicy, PolicyParams, _move_toward, expert_action
from lookahead.seeding import rng_from
from lookahead.world import waypoint_positions


def _rollout(policy, task, seed, horizon=None):
    obs = la.reset(task, seed)
    policy.reset(seed)
    h = horizon if horizon is not None else task.horizon
    while obs.step_index < h and not la.is_success(obs):
        for a in policy.propose(obs).actions:
            obs = la.step(obs, a)
            if obs.step_index >= h or la.is_success(obs):
                break
    return obs


def test_expert_solves_stack(stack_task):
    wins = sum(la.is_success(_rollout(ExpertPolicy(), stack_task, s))
               for s in range(200))
    assert wins >= 190


def test_expert_solves_other_tasks():
    for kind in (la.PickPlace(), la.FollowCircle()):
        task = la.TaskSpec(kind=kind)
        wins = sum(la.is_success(_rollout(ExpertPolicy(), task, s))
                   for s in range(50))
        assert wins >= 48


def test_expert_first_action_points_at_hover(stack_task):
    obs = la.reset(stack_task, 0)
    src = obs.objects[stack_task.kind.src]
    a = expert_action(obs)
    hover = (src.pos[0], src.pos[1], src.pos[2] + 0.08)
    before = math.dist(obs.gripper_pos, hover)
    after = math.dist(la.step(obs, a).gripper_pos, hover)
    assert after < before
    assert a.grip == 0.0


def test_expert_follow_circle_tracks_waypoints():
    task = la.TaskSpec(kind=la.FollowCircle())
    obs = la.reset(task, 1)
    wp = waypoint_positions(task)[0]
    a = expert_action(obs)
    after = la.step(obs, a)
    assert math.dist(after.gripper_pos, wp) < math.dist(obs.gripper_pos, wp)


def test_expert_done_emits_zero_action():
    task = la.TaskSpec(kind=la.FollowCircle())
    obs = _rollout(ExpertPolicy(), task, 2)
    assert la.is_success(obs)
    assert expert_action(obs) == la.Action.zero()


def test_expert_reopens_after_missed_grasp(stack_task):
    import dataclasses

    obs = la.reset(stack_task, 3)
    closed = dataclasses.replace(obs, grip_closed=True)  # closed but empty
    a = expert_action(closed)
    assert a.grip == 0.0
    assert a.delta == (0.0, 0.0, 0.0)


def test_chunk_rolls_out_open_loop(stack_task):
    obs = la.reset(stack_task, 5)
    drift = DriftPolicy(PolicyParams(eta=0.0, sigma=0.0, chunk_len=4))  # no noise: the expert's actions
    drift.reset(5)
    chunk = drift.propose(obs)
    assert len(chunk.actions) == 4
    cur = obs
    for a in chunk.actions:
        assert a == expert_action(cur)
        cur = la.step(cur, a)


def test_drift_zero_noise_matches_expert(stack_task):
    drift = DriftPolicy(PolicyParams(eta=0.0, sigma=0.0))
    drift.reset(6)
    obs = la.reset(stack_task, 6)
    for _ in range(30):
        a = drift.propose(obs).actions[0]
        assert a == expert_action(obs)
        obs = la.step(obs, a)


def test_drift_first_action_is_expert_plus_noise_only(stack_task):
    # bias updates after emission, so the first post-reset action carries
    # white noise but no accumulated bias
    drift = DriftPolicy(PolicyParams(eta=0.05, sigma=0.0))
    drift.reset(7)
    obs = la.reset(stack_task, 7)
    a = drift.propose(obs).actions[0]
    assert a == expert_action(obs)
    b = drift.propose(obs).actions[0]
    assert a != b  # second call carries one bias step


def test_drift_same_seed_same_stream(stack_task):
    obs = la.reset(stack_task, 8)
    seqs = []
    for _ in range(2):
        d = DriftPolicy()
        d.reset(8)
        seqs.append([d.propose(obs).actions[0] for _ in range(20)])
    assert seqs[0] == seqs[1]
    d = DriftPolicy()
    d.reset(9)
    other = [d.propose(obs).actions[0] for _ in range(20)]
    assert other != seqs[0]


@pytest.mark.parametrize("params", [PolicyParams(),
                                    PolicyParams(eta=0.03, sigma=0.04, chunk_len=3)],
                         ids=["shipped", "chunk-3"])
def test_fresh_drift_policy_proposes_what_a_reset_to_0_does(stack_task, params):
    fresh, reset = DriftPolicy(params), DriftPolicy(params)
    reset.reset(5)
    reset.propose(la.reset(stack_task, 5))  # moves the bias and the stream away from seed 0
    reset.reset(0)
    obs = la.reset(stack_task, 0)
    for _ in range(20):
        a, b = fresh.propose(obs), reset.propose(obs)
        assert flatten_chunk(a).tobytes() == flatten_chunk(b).tobytes()
        obs = la.step(obs, a.actions[0])


@pytest.mark.parametrize("params", [PolicyParams(), PolicyParams(chunk_len=4)], ids=["chunk-1", "chunk-4"])
@pytest.mark.parametrize("seed", [0, 1, 13, 2**64 - 1])
def test_seeded_drift_policy_proposes_what_construct_then_reset_does(stack_task, params, seed):
    seeded, reset = DriftPolicy(params, seed), DriftPolicy(params)
    reset.reset(seed)
    assert seeded._rng.bit_generator.state == reset._rng.bit_generator.state
    obs = la.reset(stack_task, seed % 1000)
    for _ in range(20):
        a, b = seeded.propose(obs), reset.propose(obs)
        assert flatten_chunk(a).tobytes() == flatten_chunk(b).tobytes()
        assert seeded._rng.bit_generator.state == reset._rng.bit_generator.state
        obs = la.step(obs, a.actions[0])
    assert DriftPolicy(params, 0)._rng.bit_generator.state == DriftPolicy(params)._rng.bit_generator.state


@pytest.mark.parametrize("name", ["eta", "sigma"])
@pytest.mark.parametrize("value", ["x", True, None])
def test_drift_policy_names_a_non_number_knob(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be a number, got {value!r}$"):
        DriftPolicy(PolicyParams(**{name: value}))


def test_drift_grip_channel_untouched(stack_task):
    drift = DriftPolicy(PolicyParams(eta=0.01, sigma=0.01))
    drift.reset(10)
    obs = la.reset(stack_task, 10)
    for _ in range(40):
        a = drift.propose(obs).actions[0]
        assert a.grip == expert_action(obs).grip
        obs = la.step(obs, a)


def test_drift_hurts_success_rate(stack_task):
    expert_wins = sum(la.is_success(_rollout(ExpertPolicy(), stack_task, s))
                      for s in range(100))
    drift_wins = sum(la.is_success(_rollout(DriftPolicy(), stack_task, s))
                     for s in range(100))
    assert drift_wins < expert_wins
    assert 0 < drift_wins  # corrupted, not incapacitated


def test_drift_deltas_respect_bounds(stack_task):
    drift = DriftPolicy(PolicyParams(eta=0.05, sigma=0.05))  # exaggerated corruption
    drift.reset(11)
    obs = la.reset(stack_task, 11)
    for _ in range(50):
        a = drift.propose(obs).actions[0]
        assert all(abs(d) <= 0.05 for d in a.delta)
        obs = la.step(obs, a)


# --- exactness oracles: the array forms the plain-float path replaced -------


def _vec(action):
    return np.array([*action.delta, action.grip]).tobytes()


class _ArrayDrift:
    """The drift policy in its numpy array form, on its own copy of the stream:
    two ``normal`` calls per action, the exact world stepped between a chunk's actions."""

    def __init__(self, eta, sigma, chunk_len, seed):
        self.eta, self.sigma, self.chunk_len = eta, sigma, chunk_len
        self.bias = np.zeros(3)
        self.rng = rng_from("drift", 0, seed)

    def _action(self, obs):
        base = expert_action(obs)
        noise = self.rng.normal(0.0, self.sigma, size=3)
        delta = np.clip(np.asarray(base.delta) + self.bias + noise, -DELTA_BOUND, DELTA_BOUND)
        u = self.rng.normal(size=3)
        norm = float(np.linalg.norm(u))
        if norm > 0.0:
            self.bias = self.bias + self.eta * (u / norm)
        return la.Action(tuple(delta), base.grip)

    def propose(self, obs):
        actions = []
        for i in range(self.chunk_len):
            actions.append(self._action(obs))
            if i + 1 < self.chunk_len:
                obs = la.step(obs, actions[-1])
        return actions


_KINDS = {"stack": la.Stack(), "pick-place": la.PickPlace(), "follow-circle": la.FollowCircle()}


@pytest.mark.parametrize("kind", list(_KINDS), ids=list(_KINDS))
@pytest.mark.parametrize("chunk_len", [1, 2, 4, 8])
@pytest.mark.parametrize("eta, sigma", [(0.004, 0.005), (0.0, 0.005), (0.0, 0.0), (0.03, 0.04)],
                         ids=["shipped", "eta-0", "no-noise", "clamp-binds"])
def test_propose_equals_the_array_form_bit_for_bit(kind, chunk_len, eta, sigma):
    task = la.TaskSpec(kind=_KINDS[kind])
    clamped = [0, 0]  # deltas the array form clamped to -DELTA_BOUND, to +DELTA_BOUND
    for seed in range(12):
        drift = DriftPolicy(PolicyParams(eta=eta, sigma=sigma, chunk_len=chunk_len))
        ref = _ArrayDrift(eta, sigma, chunk_len, seed)
        drift.reset(seed)
        obs = la.reset(task, seed)
        while obs.step_index < 60 and not la.is_success(obs):
            chunk, want = drift.propose(obs), ref.propose(obs)
            assert [_vec(a) for a in chunk.actions] == [_vec(w) for w in want]
            assert np.array(drift._bias).tobytes() == ref.bias.tobytes()
            for w in want:
                clamped[0] += w.delta.count(-DELTA_BOUND)
                clamped[1] += w.delta.count(DELTA_BOUND)
            for a in chunk.actions:
                obs = la.step(obs, a)
                if la.is_success(obs):
                    break
    if sigma > 0.02:
        assert min(clamped) > 20  # the clamp bound on both sides


@pytest.mark.parametrize("chunk_len", [1, 4])
def test_each_query_draws_six_normals_per_action(stack_task, chunk_len):
    # the stream after each query is where one standard_normal(6 * chunk_len) per
    # query leaves it: nothing drawn ahead, nothing drawn between queries
    drift = DriftPolicy(PolicyParams(chunk_len=chunk_len))
    drift.reset(13)
    fresh = rng_from("drift", 0, 13)
    obs = la.reset(stack_task, 13)
    for _ in range(6):
        chunk = drift.propose(obs)
        fresh.standard_normal(6 * chunk_len)
        assert drift._rng.bit_generator.state == fresh.bit_generator.state
        obs = la.step(obs, chunk.actions[0])


def test_plain_norm_equals_numpy_norm_bit_for_bit():
    rng = np.random.default_rng(3)
    vecs = rng.normal(size=(100_000, 3))
    plain = np.array([math.sqrt(u.dot(u)) for u in vecs])
    assert plain.tobytes() == np.array([np.linalg.norm(u) for u in vecs]).tobytes()


def test_move_toward_equals_the_generator_form_bit_for_bit():
    rng = np.random.default_rng(4)
    edges = [0.0, -0.0, DELTA_BOUND, -DELTA_BOUND, 0.5]
    for _ in range(3000):
        pos = tuple(rng.uniform(0.0, 1.0, 3).tolist())
        # targets within a step, beyond it on either side, and on the bound exactly
        target = tuple((p + float(rng.choice([rng.uniform(-0.04, 0.04), rng.uniform(-0.3, 0.3)])))
                       for p in pos)
        cases = [(pos, target), ((0.0, 0.0, 0.5), tuple(rng.choice(edges, 3).tolist()))]
        for p, t in cases:
            want = tuple(max(-DELTA_BOUND, min(DELTA_BOUND, b - a)) for a, b in zip(p, t))
            got = _move_toward(p, t, 1.0)
            assert np.array(got[0]).tobytes() == np.array(want).tobytes()
