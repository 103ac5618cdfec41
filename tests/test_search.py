"""Tree search engine: expansion, simulation, backprop, UCB, full runs."""

from __future__ import annotations

import dataclasses
import math
from collections import defaultdict

import numpy as np
import pytest

import expansion_oracles as oracle
import lookahead as la
import reference_search as ref
from expert import ExpertPolicy
from lookahead.actions import flatten_chunk, unflatten_chunk
from lookahead.kde import KdePrior, sample, top_k_near
from lookahead.search import (
    SearchConfig,
    SearchTrace,
    SearchTree,
    act,
    backpropagate,
    expand,
    run_search,
    select_ucb,
    simulate,
)
from lookahead.seeding import derive_seed
from lookahead.world import GRASP_RADIUS

NO_ACTION = [0.0, 0.0, 0.0, 0.0]


def _goal_reward(obs0, action):
    """Reward peaked at the state the given action reaches from obs0."""
    target = la.step(obs0, action).gripper_pos

    def fn(obs):
        return math.exp(-math.dist(obs.gripper_pos, target))

    return fn


def _tree(path, rewards, visits):
    """A search tree with the given path and per-level rewards and counts, not yet backed up."""
    return SearchTree(NO_ACTION, list(path), [[NO_ACTION] * len(r) for r in rewards],
                      [list(r) for r in rewards], [list(n) for n in visits],
                      [list(r) for r in rewards])


def _random_tree(rng, max_depth=4):
    """A random search-shaped tree: 1 to ``max_depth`` levels of 1 to 4 children,
    a random path, counts 1 to 5 and rewards drawn from U[0, 1]."""
    ks = [int(k) for k in rng.integers(1, 5, size=int(rng.integers(1, max_depth + 1)))]
    rewards = [[float(r) for r in rng.uniform(size=k)] for k in ks]
    visits = [[int(n) for n in rng.integers(1, 6, size=k)] for k in ks]
    return _tree([int(rng.integers(0, k)) for k in ks[:-1]], rewards, visits)


def _is_picked(tree, d, j):
    return d < len(tree.path) and j == tree.path[d]


def _recompute(tree, d, j):
    """Independent bottom-up evaluation of the backup equation at child j of level d."""
    if not _is_picked(tree, d, j):
        return tree.rewards[d][j], tree.visits[d][j]
    total, weighted = 0, 0.0
    for ch in range(len(tree.rewards[d + 1])):
        q, n = _recompute(tree, d + 1, ch)
        total += n
        weighted += n * q
    return (total * tree.rewards[d][j] + weighted) / (total + total), total


def _subtree_rewards(tree, d, j):
    out = [tree.rewards[d][j]]
    if _is_picked(tree, d, j):
        for ch in range(len(tree.rewards[d + 1])):
            out.extend(_subtree_rewards(tree, d + 1, ch))
    return out


# --- config ---------------------------------------------------------------


def test_config_defaults_are_valid():
    cfg = SearchConfig()
    assert cfg.k == 8 and cfg.pool_size == 256 and cfg.max_depth == 3
    assert cfg.c == pytest.approx(1 / math.sqrt(2))
    assert cfg.alpha == 0.6 and cfg.visit_budget == 64


@pytest.mark.parametrize("kwargs", [
    dict(k=0),
    dict(k=9, pool_size=8),
    dict(max_depth=0),
    dict(c=-0.1),
    dict(alpha=1.5),
    dict(alpha=-0.1),
    dict(visit_budget=4, k=8),
    dict(epsilon_model=-0.01),
    dict(sampler="magic"),
])
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        SearchConfig(**kwargs)


def test_config_dict_round_trip():
    cfg = SearchConfig(k=4, pool_size=32, alpha=0.3, sampler="noise")
    assert la.RunConfig.from_dict({"search": cfg.to_dict()}).search == cfg


# --- expand ---------------------------------------------------------------


def test_expand_injects_anchor_and_sets_weights(stack_task, prior):
    obs = la.reset(stack_task, 0)
    anchor = flatten_chunk(ExpertPolicy().propose(obs))
    cfg = SearchConfig()
    chosen, visits = expand(anchor, [], prior, cfg, seed=11)
    assert chosen.shape == (cfg.k, anchor.size) and len(visits) == cfg.k
    assert np.array_equal(chosen[-1], anchor)
    assert all(v >= 1 for v in visits)
    assert sum(visits) >= cfg.visit_budget


def test_expand_matches_replayed_top_k(stack_task, prior):
    # the candidates must equal an independently replayed draw-and-select
    obs = la.reset(stack_task, 1)
    anchor = flatten_chunk(ExpertPolicy().propose(obs))
    cfg = SearchConfig()
    chosen, _ = expand(anchor, [], prior, cfg, seed=12)
    rng_seed = derive_seed(12, "expand", 0)
    cands = sample(prior, cfg.pool_size, rng_seed, la.action_bounds(1))
    expected = top_k_near(cands, cfg.k, anchor)
    expected[-1] = anchor
    assert chosen.tobytes() == expected.tobytes()


def _noise_expand_reference(anchor, path, sigma, config, seed):
    """The noise expansion as its own sampler wrote it: Gaussian draws around the
    anchor, the nearest k with the anchor injected, weights from a one-point KDE."""
    lo, hi = la.action_bounds(anchor.size // 4)
    rng = np.random.default_rng(derive_seed(seed, "expand", len(path), *path))
    cands = np.clip(anchor + rng.normal(0.0, sigma, size=(config.pool_size, anchor.size)), lo, hi)
    chosen = top_k_near(cands, config.k, anchor)
    chosen[-1] = anchor
    weight_prior = KdePrior(points=anchor[None, :], bandwidth=sigma)
    dens = np.atleast_1d(la.density(weight_prior, chosen))
    return chosen, la.weights_from_densities(dens, config.visit_budget)


@pytest.mark.parametrize("chunk_len", [1, 4])
@pytest.mark.parametrize("bandwidth", [0.003, 0.01, 0.03])
def test_noise_expand_matches_the_reference_path(stack_task, demos, chunk_len, bandwidth):
    prior = la.demo_prior(demos, chunk_len=chunk_len, bandwidth=bandwidth)
    cfg = SearchConfig(sampler="noise")
    for seed in range(6):
        obs = la.reset(stack_task, seed)
        anchor = flatten_chunk(ExpertPolicy(chunk_len=chunk_len).propose(obs))
        kids, _ = expand(anchor, [], prior, cfg, seed)
        i = seed % cfg.k  # a node below the root: its seed depends on its path
        for node_anchor, path in ((anchor, []), (kids[i], [i])):
            chosen, visits = _noise_expand_reference(node_anchor, path, prior.bandwidth, cfg, seed)
            got, got_visits = expand(node_anchor, path, prior, cfg, seed)
            assert got.tobytes() == chosen.tobytes()
            assert got_visits == visits


def test_expand_whole_pool_when_k_equals_pool(stack_task, prior):
    obs = la.reset(stack_task, 2)
    anchor = flatten_chunk(ExpertPolicy().propose(obs))
    cfg = SearchConfig(k=16, pool_size=16, visit_budget=64)
    chosen, _ = expand(anchor, [], prior, cfg, seed=13)
    assert len(chosen) == 16
    dists = [float(np.linalg.norm(row - anchor)) for row in chosen[:-1]]
    assert dists == sorted(dists)  # distance-sorted pool
    assert np.array_equal(chosen[-1], anchor)


def test_expand_degenerate_prior_concentrates_on_anchor(stack_task):
    obs = la.reset(stack_task, 3)
    anchor = flatten_chunk(ExpertPolicy().propose(obs))
    tight = KdePrior(points=anchor[None, :], bandwidth=1e-12)
    chosen, _ = expand(anchor, [], tight, SearchConfig(), seed=14)
    for row in chosen:
        assert np.allclose(row, anchor, atol=1e-9)


def _random_anchor(rng, d):
    """A flattened chunk inside the action box, some entries on its faces, grips
    among +0.0, -0.0, 1.0 and the interior."""
    lo, hi = la.action_bounds(d // 4)
    anchor = rng.uniform(lo, hi)
    face = rng.random(d) < 0.2
    anchor[face] = np.where(rng.random(d) < 0.5, lo, hi)[face]
    anchor[3::4] = rng.choice([0.0, -0.0, 1.0, float(rng.uniform())], size=d // 4)
    return anchor


_EXPAND_SHAPES = [SearchConfig(), SearchConfig(k=1, pool_size=1, visit_budget=1),
                  SearchConfig(k=7, pool_size=7, visit_budget=30)]


@pytest.mark.parametrize("chunk_len", [1, 4, 8])
@pytest.mark.parametrize("sampler", ["noise", "kde"])
def test_expand_equals_the_former_expressions_bit_for_bit(chunk_len, sampler):
    # the one-point prior built without its checks, the pool-shaped clip, the
    # transposed distances and the plain reduce against their former forms
    d = 4 * chunk_len
    rng = np.random.default_rng(chunk_len)
    cases = 0
    for trial in range(210):
        if trial % 30 == 0:
            h = float(10.0 ** rng.uniform(-3, -1))
            support = np.array([_random_anchor(rng, d) for _ in range(60)])
            prior = KdePrior(points=support[rng.integers(0, 60, size=150)], bandwidth=h)
        config = dataclasses.replace(_EXPAND_SHAPES[trial % 3], sampler=sampler)
        anchor = _random_anchor(rng, d)
        path = rng.integers(0, config.k, size=int(rng.integers(0, 3))).tolist()
        seed = int(rng.integers(0, 2**63))
        got, visits = expand(anchor, path, prior, config, seed)
        want, want_visits = oracle.expand(anchor, path, prior, config, seed)
        assert got.tobytes() == want.tobytes() and visits == want_visits, (trial, seed)
        cases += 1
    assert cases >= 200


def test_expand_rejects_ragged_anchor(prior):
    with pytest.raises(ValueError):
        expand(np.zeros(6), [], prior, SearchConfig(), seed=16)


# --- simulate -------------------------------------------------------------


def test_simulate_zero_action_identity(stack_task):
    obs = la.reset(stack_task, 6)
    reward_fn = lambda o: float(o.gripper_pos[0])
    (state,), (r,) = simulate(obs, [NO_ACTION], la.step, reward_fn)
    assert state.gripper_pos == obs.gripper_pos
    assert state.objects == obs.objects
    assert state.step_index == obs.step_index + 1
    assert r == reward_fn(obs)


def test_simulate_rolls_chunks_sequentially(stack_task):
    obs = la.reset(stack_task, 7)
    a1 = la.Action((0.02, 0.0, -0.01), 0.0)
    a2 = la.Action((0.0, 0.03, 0.0), 1.0)
    vec = flatten_chunk(la.ActionChunk((a1, a2)))
    (state,), _ = simulate(obs, [vec.tolist()], la.step, lambda o: 0.5)
    assert state == la.step(la.step(obs, a1), a2)


def test_simulate_is_deterministic(stack_task):
    obs = la.reset(stack_task, 8)
    reward_fn = _goal_reward(obs, la.Action((0.01, 0.01, 0.0), 0.0))
    vec = [0.01, -0.02, 0.03, 0.7]
    assert simulate(obs, [vec], la.step, reward_fn) == simulate(obs, [vec], la.step, reward_fn)


def test_simulate_rolls_each_action_from_the_same_state(stack_task):
    # one call over a level's actions gives what one call per action gives, in order
    obs = la.reset(stack_task, 9)
    reward_fn = _goal_reward(obs, la.Action((0.01, 0.02, 0.0), 0.0))
    actions = _edge_vectors(np.random.default_rng(9), 2, 8).tolist()
    states, rewards = simulate(obs, actions, la.step, reward_fn)
    singles = [simulate(obs, [vals], la.step, reward_fn) for vals in actions]
    assert states == [s[0][0] for s in singles]
    assert rewards == [s[1][0] for s in singles]
    assert simulate(obs, [], la.step, reward_fn) == ([], [])


def _edge_vectors(rng, n_actions, count):
    """Random flattened chunks in bounds; about a quarter of the components sit
    on their lower bound and a quarter on their upper one (deltas at
    -/+DELTA_BOUND, grips of exactly 0 and 1)."""
    lo, hi = la.action_bounds(n_actions)
    vecs = rng.uniform(lo, hi, size=(count, lo.size))
    edge = rng.integers(0, 4, size=vecs.shape)
    return np.where(edge == 0, lo, np.where(edge == 1, hi, vecs))


def _start_states(task):
    """Reset states, states holding the source block, and last an open gripper
    exactly GRASP_RADIUS from the source block."""
    states = [la.reset(task, s) for s in range(4)]
    for s in range(2):
        obs = la.reset(task, 10 + s)
        src = obs.objects[task.kind.src]
        states.append(la.step(dataclasses.replace(obs, gripper_pos=src.pos), la.Action.zero(1.0)))
    obs = la.reset(task, 19)
    src = obs.objects[task.kind.src]
    states.append(dataclasses.replace(
        obs, gripper_pos=(src.pos[0] + GRASP_RADIUS, src.pos[1], src.pos[2])))
    return states


@pytest.mark.parametrize("n_actions", [1, 4, 8])
@pytest.mark.parametrize("world", ["exact", "model"])
def test_simulate_matches_stepping_the_unflattened_chunk(stack_task, n_actions, world):
    step = la.step if world == "exact" else (lambda o, a: la.imperfect_step(o, a, 0.02, 5))
    reward_fn = lambda o: float(o.gripper_pos[0] + 0.5 * o.gripper_pos[2])
    states = _start_states(stack_task)
    vecs = _edge_vectors(np.random.default_rng(100 + n_actions), n_actions, 300)
    cases = [(states[i % len(states)], vec) for i, vec in enumerate(vecs)]
    # a close with no motion from every state, the one at the grasp radius last
    close = np.tile([0.0, 0.0, 0.0, 1.0], n_actions)
    cases += [(parent, close) for parent in states]
    for parent, vec in cases:
        expected = parent
        for a in unflatten_chunk(vec, n_actions):
            expected = step(expected, a)
        (state,), (r,) = simulate(parent, [vec.tolist()], step, reward_fn)
        assert state == expected
        assert state.canonical_bytes() == expected.canonical_bytes()
        assert r == reward_fn(expected)
    if world == "exact":
        assert state.held_object == stack_task.kind.src  # the radius is inclusive


@pytest.mark.parametrize("vec", [
    np.zeros(6),                                # not a whole number of actions
    np.zeros(36),                               # nine actions, above MAX_CHUNK_LEN
    np.array([0.0, np.nan, 0.0, 0.5]),          # a non-finite component
    np.array([0.06, 0.0, 0.0, 0.5]),            # a delta beyond DELTA_BOUND
], ids=["6-vector", "36-vector", "nan", "delta-0.06"])
def test_simulate_rejects_what_unflatten_chunk_rejects(stack_task, vec):
    with pytest.raises(ValueError):
        unflatten_chunk(vec, vec.size // 4)
    with pytest.raises(ValueError):
        simulate(la.reset(stack_task, 0), [vec.tolist()], la.step, lambda o: 0.0)


# --- backpropagate --------------------------------------------------------


def test_backprop_hand_example():
    # r=0.5 node whose single child holds Q=1.0 with count 2:
    # Q = (2*0.5 + 2*1.0) / 4 = 0.75
    tree = _tree([0], [[0.5], [1.0]], [[1], [2]])
    backpropagate(tree)
    assert tree.values[0][0] == 0.75
    assert tree.visits[0][0] == 2
    root = SearchTrace.from_tree(tree).nodes[0]
    assert root.visits == 2 and root.value is None  # the root is not scored


def test_backprop_leaf_value_is_reward():
    tree = _tree([], [[0.42]], [[3]])
    backpropagate(tree)
    assert tree.values == tree.rewards == [[0.42]]  # no children: empty sum
    assert tree.visits == [[3]]


def test_backprop_random_trees_match_recomputation():
    rng = np.random.default_rng(17)
    for _ in range(100):
        tree = _random_tree(rng)
        backpropagate(tree)
        root = SearchTrace.from_tree(tree).nodes[0]
        assert root.visits == sum(tree.visits[0]) and root.value is None
        for d, level in enumerate(tree.values):
            for j, value in enumerate(level):
                q, n = _recompute(tree, d, j)
                assert abs(value - q) <= 1e-12
                assert tree.visits[d][j] == n
                rs = _subtree_rewards(tree, d, j)
                assert min(rs) - 1e-12 <= value <= max(rs) + 1e-12


def test_backprop_runs_to_root():
    tree = _tree([0, 0], [[0.1], [0.2], [0.9]], [[1], [3], [5]])  # a, b, c
    backpropagate(tree)
    # bottom-up: b first, then a, both from the backup equation
    qb = (5 * 0.2 + 5 * 0.9) / 10
    qa = (5 * 0.1 + 5 * qb) / 10
    assert abs(tree.values[1][0] - qb) <= 1e-15
    assert abs(tree.values[0][0] - qa) <= 1e-15
    assert tree.visits == [[5], [5], [5]]


def _grow_levels(seed, depth):
    """A search-shaped tree of random rewards and counts, one expanded node per
    level, deepened by UCB: as a reference node tree backed up once per child,
    and as a search tree backed up once, after its last level."""
    rng = np.random.default_rng(seed)
    c = 1.0 / math.sqrt(2.0)
    root = ref.TreeNode(incoming_action=np.zeros(4), reward=float(rng.uniform()))
    tree = SearchTree(NO_ACTION)
    node = root
    for level in range(depth):
        k = int(rng.integers(1, 9))
        rewards = [float(r) for r in rng.uniform(-1.0, 1.0, size=k)]
        visits = [int(v) for v in rng.integers(1, 20, size=k)]
        node.children = [ref.TreeNode(incoming_action=np.zeros(4), reward=r, visits=n,
                                      parent=node, depth=level + 1, index=i)
                         for i, (r, n) in enumerate(zip(rewards, visits))]
        for ch in node.children:
            ref.backpropagate(ch)
        node = ref.select_ucb(node, c)
        tree.actions.append([NO_ACTION] * k)
        tree.rewards.append(rewards)
        tree.visits.append(visits)
        tree.values.append(rewards[:])
        assert select_ucb(tree.values[-1], tree.visits[-1], c) == node.index
        if level + 1 < depth:
            tree.path.append(node.index)
    backpropagate(tree)
    return ref.trace(root), SearchTrace.from_tree(tree)


def test_one_backup_per_search_equals_the_per_child_loop():
    for trial in range(200):
        loop, once = _grow_levels(trial, 1 + trial % 4)
        assert once.nodes[0].visits == loop.nodes[0].visits
        assert [(n.value, n.visits) for n in once.nodes[1:]] == \
            [(n.value, n.visits) for n in loop.nodes[1:]]  # exact floats, exact counts


# --- select_ucb -----------------------------------------------------------


def test_ucb_hand_example():
    # (Q=0.6, N=8) vs (Q=0.5, N=1) under parent N=8+1=9 at c=1/sqrt(2):
    # scores ~0.9494 and ~1.2412, so the lightly visited child wins
    c = 1 / math.sqrt(2)
    s_heavy = 0.6 + c * math.sqrt(math.log(9) / 9)
    s_light = 0.5 + c * math.sqrt(math.log(9) / 2)
    assert s_heavy == pytest.approx(0.9494, abs=1e-4)
    assert s_light == pytest.approx(1.2412, abs=1e-4)
    assert select_ucb([0.6, 0.5], [8, 1], c) == 1
    # the engine's scores sit within 1e-9 of the hand formula at the decision boundary
    flip = s_light - c * math.sqrt(math.log(9) / 9)
    for nudge, heavy in ((1e-9, 0), (-1e-9, 1)):
        assert select_ucb([flip + nudge, 0.5], [8, 1], c) == heavy


def test_ucb_zero_c_is_greedy():
    assert select_ucb([0.3, 0.8, 0.5], [1, 50, 2], 0.0) == 1


def test_ucb_equal_q_prefers_fewest_visits():
    assert select_ucb([0.5, 0.5, 0.5], [6, 2, 4], 1.0) == 1


def test_ucb_exact_tie_keeps_lowest_index():
    assert select_ucb([0.5, 0.5, 0.5], [4, 4, 4], 0.7) == 0


@pytest.mark.parametrize("values, best", [
    ([0.2, 0.7, 0.1, 0.7], 1),  # root children 1 and 3 tie at the greatest value
    ([0.5, 0.5, 0.5, 0.5], 0),
    ([-0.3, -0.2, -0.4, -0.1], 3),
    ([0.9, 0.1, 0.9, 0.2], 0),
])
def test_tree_action_is_the_lowest_index_best_root_child(values, best):
    tree = SearchTree(NO_ACTION, [], [[[float(j), 0.0, 0.0, 0.0] for j in range(4)]],
                      [list(values)], [[1, 1, 1, 1]], [list(values)])
    assert tree.action.tolist() == [float(best), 0.0, 0.0, 0.0]


# --- run_search -----------------------------------------------------------


def test_search_single_candidate_dominance(stack_task):
    obs = la.reset(stack_task, 20)
    a_star = np.array([0.03, 0.0, -0.02, 0.0])
    tight = KdePrior(points=a_star[None, :], bandwidth=1e-10)
    reward_fn = _goal_reward(obs, la.Action((0.03, 0.0, -0.02), 0.0))
    chunk = la.ActionChunk((la.Action.zero(),))
    res = run_search(obs, chunk, tight, la.step, reward_fn, SearchConfig(), seed=21)
    assert np.allclose(res.action, a_star, atol=1e-8)


def test_search_determinism_including_trace(stack_task, prior, reward_model):
    obs = la.reset(stack_task, 22)
    chunk = ExpertPolicy().propose(obs)
    reward_fn = lambda o: la.predict_reward(reward_model, o)
    a = run_search(obs, chunk, prior, la.step, reward_fn, SearchConfig(), seed=23)
    b = run_search(obs, chunk, prior, la.step, reward_fn, SearchConfig(), seed=23)
    assert np.array_equal(a.action, b.action)
    assert SearchTrace.from_tree(a).to_json() == SearchTrace.from_tree(b).to_json()
    c = run_search(obs, chunk, prior, la.step, reward_fn, SearchConfig(), seed=24)
    assert SearchTrace.from_tree(a).to_json() != SearchTrace.from_tree(c).to_json()


def test_search_two_leaf_exhaustive_oracle(stack_task, prior):
    # at k=2, depth=1 the engine must agree with brute-force enumeration
    cfg = SearchConfig(k=2, max_depth=1, pool_size=16, visit_budget=8)
    for seed in range(30):
        obs = la.reset(stack_task, seed)
        reward_fn = _goal_reward(obs, la.Action((0.02, -0.01, 0.01), 0.0))
        chunk = ExpertPolicy().propose(obs)
        res = run_search(obs, chunk, prior, la.step, reward_fn, cfg, seed=seed)
        kids = [n for n in SearchTrace.from_tree(res).nodes if n.depth == 1]
        assert len(kids) == 2
        scores = []
        for n in kids:
            o = obs
            for a in unflatten_chunk(np.asarray(n.action), 1):
                o = la.step(o, a)
            scores.append(reward_fn(o))
        best = kids[int(np.argmax(scores))]
        assert np.array_equal(res.action, np.asarray(best.action))


def test_search_trace_satisfies_backup_equation(stack_task, prior, reward_model):
    obs = la.reset(stack_task, 25)
    chunk = ExpertPolicy().propose(obs)
    reward_fn = lambda o: la.predict_reward(reward_model, o)
    res = run_search(obs, chunk, prior, la.step, reward_fn, SearchConfig(), seed=26)
    nodes = SearchTrace.from_tree(res).nodes
    kids = defaultdict(list)
    for n in nodes:
        if n.parent is not None:
            kids[n.parent].append(n)
    for n in nodes:
        ch = kids[n.id]
        if not ch:
            continue
        total = sum(c.visits for c in ch)
        weighted = sum(c.visits * c.value for c in ch)
        assert n.visits == total
        if n.parent is None:  # the root is not scored
            assert n.reward is None and n.value is None
            continue
        assert abs(n.value - (total * n.reward + weighted) / (2 * total)) <= 1e-12


def test_search_tree_size_and_root_candidates(stack_task, prior, reward_model):
    obs = la.reset(stack_task, 27)
    chunk = ExpertPolicy().propose(obs)
    anchor = flatten_chunk(chunk)
    reward_fn = lambda o: la.predict_reward(reward_model, o)
    cfg = SearchConfig()
    res = run_search(obs, chunk, prior, la.step, reward_fn, cfg, seed=28)
    nodes = SearchTrace.from_tree(res).nodes
    assert len(nodes) == cfg.k * cfg.max_depth + 1
    assert len(res.actions) == cfg.max_depth and len(res.path) == cfg.max_depth - 1
    roots = [n for n in nodes if n.depth == 1]
    assert any(np.array_equal(np.asarray(n.action), anchor) for n in roots)


def test_search_reward_shift_invariance(stack_task, prior):
    # adding a constant to every reward shifts Q and preserves the greedy pick
    obs = la.reset(stack_task, 29)
    chunk = ExpertPolicy().propose(obs)
    base = _goal_reward(obs, la.Action((0.01, 0.02, 0.0), 0.0))
    shifted = lambda o: base(o) + 0.3
    cfg = SearchConfig(c=0.0)
    r0 = run_search(obs, chunk, prior, la.step, base, cfg, seed=30)
    r1 = run_search(obs, chunk, prior, la.step, shifted, cfg, seed=30)
    assert np.array_equal(r0.action, r1.action)
    for n0, n1 in zip(SearchTrace.from_tree(r0).nodes, SearchTrace.from_tree(r1).nodes):
        assert n0.action == n1.action
        if n0.parent is not None:  # the root is not scored
            assert abs(n1.value - n0.value - 0.3) <= 1e-9


def test_search_dim_mismatch_rejected(stack_task, prior):
    obs = la.reset(stack_task, 31)
    chunk = la.ActionChunk((la.Action.zero(), la.Action.zero()))  # dim 8 vs 4
    with pytest.raises(ValueError):
        run_search(obs, chunk, prior, la.step, lambda o: 0.0, SearchConfig(), seed=32)


def test_search_value_bounded_by_subtree_rewards(stack_task, prior, reward_model):
    obs = la.reset(stack_task, 33)
    chunk = ExpertPolicy().propose(obs)
    reward_fn = lambda o: la.predict_reward(reward_model, o)
    res = run_search(obs, chunk, prior, la.step, reward_fn, SearchConfig(), seed=34)
    nodes = SearchTrace.from_tree(res).nodes
    kids = defaultdict(list)
    for n in nodes:
        if n.parent is not None:
            kids[n.parent].append(n)

    def subtree(nid):
        out = [next(n for n in nodes if n.id == nid).reward]
        for c in kids[nid]:
            out.extend(subtree(c.id))
        return out

    for n in nodes[1:]:  # the root is not scored
        rs = subtree(n.id)
        assert min(rs) - 1e-12 <= n.value <= max(rs) + 1e-12


def _recorded_searches(demos, reward_model, monkeypatch, sampler, chunk_len, epsilon, scorer):
    """The arguments of every search one short reasoner episode makes."""
    cfg = la.RunConfig(task=la.TaskSpec(kind=la.Stack(), horizon=12),
                       policy=la.PolicyParams(chunk_len=chunk_len),
                       search=SearchConfig(sampler=sampler, epsilon_model=epsilon))
    chunk_prior = la.demo_prior(demos, chunk_len=chunk_len, bandwidth=cfg.prior_bandwidth)
    if scorer == "learned":
        reward_fn = lambda o: la.predict_reward(reward_model, o)  # noqa: E731
    else:
        reward_fn = la.FrameBankScorer(la.demo_reward_data(demos, cfg.reward_stride))
    searches = []
    search_fn = la.search.run_search
    with monkeypatch.context() as m:
        m.setattr(la.search, "run_search", lambda *args: searches.append(args) or search_fn(*args))
        la.run_episode(cfg, 5, use_reasoner=True, prior=chunk_prior, reward_fn=reward_fn)
    assert searches
    return searches


@pytest.mark.parametrize("scorer", ["learned", "frame-bank"])
@pytest.mark.parametrize("epsilon", [0.0, 0.02])
@pytest.mark.parametrize("chunk_len", [1, 4])
@pytest.mark.parametrize("sampler", ["kde", "noise"])
def test_search_matches_the_scalar_reference(demos, reward_model, monkeypatch, sampler,
                                             chunk_len, epsilon, scorer):
    # the node-object search, one backup per child, on recorded searches at depths 1 to 4:
    # the same action bits and the same trace, but for the unscored root
    searches = _recorded_searches(demos, reward_model, monkeypatch, sampler, chunk_len,
                                  epsilon, scorer)
    for i, (obs, chunk, prior, world, reward_fn, config, seed) in enumerate(searches):
        config = dataclasses.replace(config, max_depth=1 + i % 4)
        action, trace = ref.run_search(obs, chunk, prior, world, reward_fn, config, seed)
        res = run_search(obs, chunk, prior, world, reward_fn, config, seed)
        assert res.action.tobytes() == action.tobytes()
        root = dataclasses.replace(trace.nodes[0], reward=None, value=None)
        got = SearchTrace.from_tree(res)
        assert got == SearchTrace(nodes=(root, *trace.nodes[1:]))
        assert got.to_json() == SearchTrace(nodes=(root, *trace.nodes[1:])).to_json()


@pytest.mark.parametrize("max_depth", [1, 3])
def test_search_selects_only_the_nodes_it_deepens(stack_task, prior, reward_model, monkeypatch,
                                                   max_depth):
    picks, backups = [], []
    select_fn, backup_fn = la.search.select_ucb, la.search.backpropagate
    monkeypatch.setattr(la.search, "select_ucb",
                        lambda values, visits, c: picks.append(values) or select_fn(values, visits, c))
    monkeypatch.setattr(la.search, "backpropagate",
                        lambda tree: backups.append(tree) or backup_fn(tree))
    obs = la.reset(stack_task, 54)
    reward_fn = lambda o: la.predict_reward(reward_model, o)
    res = run_search(obs, ExpertPolicy().propose(obs), prior, la.step, reward_fn,
                     SearchConfig(max_depth=max_depth), seed=55)
    assert len(picks) == max_depth - 1  # no pick after the last level
    assert backups == [res]  # one backup per search, after the last level


def test_trace_is_built_only_when_read(stack_task, prior, reward_model, monkeypatch):
    built = []
    eager = SearchTrace.from_tree.__func__

    def spy(cls, tree):
        built.append(tree)
        return eager(cls, tree)

    monkeypatch.setattr(SearchTrace, "from_tree", classmethod(spy))
    obs = la.reset(stack_task, 52)
    pol = ExpertPolicy()
    reward_fn = lambda o: la.predict_reward(reward_model, o)
    for _ in range(3):
        act(obs, pol, prior, la.step, reward_fn, SearchConfig(), seed=53)
    res = run_search(obs, pol.propose(obs), prior, la.step, reward_fn, SearchConfig(), seed=53)
    assert built == []  # acting and searching never flatten the tree
    SearchTrace.from_tree(res)
    assert built == [res]


# --- act ------------------------------------------------------------------


def test_act_alpha_one_returns_policy_action(stack_task, prior, reward_model):
    obs = la.reset(stack_task, 40)
    pol = ExpertPolicy()
    reward_fn = lambda o: la.predict_reward(reward_model, o)
    cfg = SearchConfig(alpha=1.0)
    out = act(obs, pol, prior, la.step, reward_fn, cfg, seed=41)
    assert out == pol.propose(obs)


def test_act_without_a_prior_is_a_named_error(stack_task, reward_model):
    obs = la.reset(stack_task, 42)
    reward_fn = lambda o: la.predict_reward(reward_model, o)
    pol, twin = la.DriftPolicy(), la.DriftPolicy()
    pol.reset(7)
    twin.reset(7)
    with pytest.raises(ValueError, match="^a fitted prior is required to search$"):
        act(obs, pol, None, la.step, reward_fn, SearchConfig(), seed=43)
    # the failed call drew nothing from the policy's generator
    assert flatten_chunk(pol.propose(obs)).tobytes() == flatten_chunk(twin.propose(obs)).tobytes()


@pytest.mark.parametrize("chunk_len", [1, 4])
def test_every_policy_query_runs_one_search(demos, reward_model, monkeypatch, chunk_len):
    searches, proposals = [], []
    search_fn, propose_fn = la.search.run_search, la.DriftPolicy.propose
    monkeypatch.setattr(la.search, "run_search",
                        lambda *args: searches.append(args) or search_fn(*args))
    monkeypatch.setattr(la.DriftPolicy, "propose",
                        lambda self, obs: proposals.append(obs) or propose_fn(self, obs))
    cfg = la.RunConfig(task=la.TaskSpec(kind=la.Stack(), horizon=12),
                       policy=la.PolicyParams(chunk_len=chunk_len))
    chunk_prior = la.demo_prior(demos, chunk_len=chunk_len, bandwidth=cfg.prior_bandwidth)
    reward_fn = lambda o: la.predict_reward(reward_model, o)
    episode = la.run_episode(cfg, 3, use_reasoner=True, prior=chunk_prior, reward_fn=reward_fn)
    assert len(searches) == len(proposals) == math.ceil(episode.steps_taken / chunk_len) > 0
    assert [args[0] for args in searches] == proposals  # each search starts at the queried state


def test_act_alpha_zero_executes_searched_action(stack_task, prior, reward_model):
    obs = la.reset(stack_task, 44)
    pol = ExpertPolicy()
    reward_fn = lambda o: la.predict_reward(reward_model, o)
    cfg = SearchConfig(alpha=0.0)
    res = run_search(obs, pol.propose(obs), prior, la.step, reward_fn, cfg, seed=45)
    out = act(obs, pol, prior, la.step, reward_fn, cfg, seed=45)
    assert np.array_equal(flatten_chunk(out), res.action)


def test_act_blends_first_action_of_chunks(stack_task, demos, reward_model):
    chunk_prior = la.demo_prior(demos, chunk_len=4, bandwidth=0.01)
    obs = la.reset(stack_task, 46)
    pol = ExpertPolicy(chunk_len=4)
    proposal = pol.propose(obs)
    reward_fn = lambda o: la.predict_reward(reward_model, o)
    cfg = SearchConfig(alpha=0.6)
    res = run_search(obs, proposal, chunk_prior, la.step, reward_fn, cfg, seed=47)
    searched = unflatten_chunk(res.action, 4)
    out = act(obs, pol, chunk_prior, la.step, reward_fn, cfg, seed=47)
    assert out.actions[0] == la.blend_actions(proposal[0], searched[0], 0.6)
    assert out.actions[1:] == proposal.actions[1:]  # tail passes through


def test_act_noise_sampler_runs(stack_task, prior, reward_model):
    obs = la.reset(stack_task, 50)
    pol = ExpertPolicy()
    reward_fn = lambda o: la.predict_reward(reward_model, o)
    cfg = SearchConfig(sampler="noise")
    out = act(obs, pol, prior, la.step, reward_fn, cfg, seed=51)
    assert len(out.actions) == 1  # sanity: produces a well-formed chunk
