"""Tree search engine: expansion, simulation, backprop, UCB, full runs."""

from __future__ import annotations

import dataclasses
import math
from collections import defaultdict

import numpy as np
import pytest

import lookahead as la
from lookahead.actions import flatten_chunk, unflatten_chunk
from lookahead.errors import StateError
from lookahead.kde import KdePrior, sample, top_k_near
from lookahead.policies import ExpertPolicy
from lookahead.search import (
    SearchConfig,
    SearchTrace,
    TreeNode,
    act,
    backpropagate,
    expand,
    run_search,
    select_ucb,
    simulate,
)
from lookahead.seeding import derive_seed
from lookahead.world import GRASP_RADIUS


def _goal_reward(obs0, action):
    """Reward peaked at the state the given action reaches from obs0."""
    target = la.step(obs0, action).gripper_pos

    def fn(obs):
        return math.exp(-math.dist(obs.gripper_pos, target))

    return fn


def _recompute(node):
    """Independent bottom-up evaluation of the backup equation."""
    if not node.children:
        return node.value, node.visits
    total, weighted = 0, 0.0
    for ch in node.children:
        q, n = _recompute(ch)
        total += n
        weighted += n * q
    return (total * node.reward + weighted) / (total + total), total


def _subtree_rewards(node):
    out = [node.reward]
    for ch in node.children:
        out.extend(_subtree_rewards(ch))
    return out


def _random_tree(rng, max_depth=4):
    root = TreeNode(reward=float(rng.uniform()))
    leaves = []

    def grow(node, depth):
        if depth == max_depth or (depth > 0 and rng.uniform() < 0.3):
            leaves.append(node)
            return
        for i in range(int(rng.integers(1, 5))):
            ch = TreeNode(reward=float(rng.uniform()),
                          visits=int(rng.integers(1, 6)),
                          parent=node, depth=depth + 1, index=i)
            node.children.append(ch)
            grow(ch, depth + 1)

    grow(root, 0)
    return root, leaves


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
    dict(noise_sigma=0.0),
])
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        SearchConfig(**kwargs)


def test_config_dict_round_trip():
    cfg = SearchConfig(k=4, pool_size=32, alpha=0.3, sampler="noise",
                       noise_sigma=0.02)
    assert la.RunConfig.from_dict({"search": cfg.to_dict()}).search == cfg


# --- expand ---------------------------------------------------------------


def test_expand_injects_anchor_and_sets_weights(stack_task, prior):
    obs = la.reset(stack_task, 0)
    anchor = flatten_chunk(ExpertPolicy().propose(obs))
    root = TreeNode(obs=obs, incoming_action=anchor)
    cfg = SearchConfig()
    kids = expand(root, prior, cfg, seed=11)
    assert len(kids) == cfg.k
    assert np.array_equal(kids[-1].incoming_action, anchor)
    assert all(k.visits >= 1 for k in kids)
    assert sum(k.visits for k in kids) >= cfg.visit_budget
    assert [k.index for k in kids] == list(range(cfg.k))


def test_expand_matches_replayed_top_k(stack_task, prior):
    # the children must equal an independently replayed draw-and-select
    obs = la.reset(stack_task, 1)
    anchor = flatten_chunk(ExpertPolicy().propose(obs))
    root = TreeNode(obs=obs, incoming_action=anchor)
    cfg = SearchConfig()
    kids = expand(root, prior, cfg, seed=12)
    rng_seed = derive_seed(12, "expand", 0)
    cands = sample(prior, cfg.pool_size, rng_seed, la.action_bounds(1))
    chosen = top_k_near(cands, cfg.k, anchor)
    chosen[-1] = anchor
    for kid, expected in zip(kids, chosen):
        assert np.array_equal(kid.incoming_action, expected)


def _noise_expand_reference(node, sigma, config, seed):
    """The noise expansion as its own sampler wrote it: Gaussian draws around the
    anchor, the nearest k with the anchor injected, weights from a one-point KDE."""
    anchor = np.asarray(node.incoming_action, dtype=float)
    lo, hi = la.action_bounds(anchor.size // 4)
    rng = np.random.default_rng(derive_seed(seed, "expand", node.depth, *node.path()))
    cands = np.clip(anchor + rng.normal(0.0, sigma, size=(config.pool_size, anchor.size)), lo, hi)
    chosen = top_k_near(cands, config.k, anchor)
    chosen[-1] = anchor
    weight_prior = KdePrior(points=anchor[None, :], bandwidth=sigma)
    dens = np.atleast_1d(la.density(weight_prior, chosen))
    return chosen, la.weights_from_densities(dens, config.visit_budget)


@pytest.mark.parametrize("chunk_len", [1, 4])
@pytest.mark.parametrize("noise_sigma", [None, 0.003, 0.03])
def test_noise_expand_matches_the_reference_path(stack_task, demos, chunk_len, noise_sigma):
    prior = la.demo_prior(demos, chunk_len=chunk_len, bandwidth=0.01)
    sigma = prior.bandwidth if noise_sigma is None else noise_sigma
    cfg = SearchConfig(sampler="noise", noise_sigma=noise_sigma)
    for seed in range(6):
        obs = la.reset(stack_task, seed)
        anchor = flatten_chunk(ExpertPolicy(chunk_len=chunk_len).propose(obs))
        root = TreeNode(obs=obs, incoming_action=anchor)
        kids = expand(root, prior, cfg, seed)
        child = kids[seed % cfg.k]  # a node below the root: its seed depends on its path
        for node, got in ((root, kids), (child, expand(child, prior, cfg, seed))):
            chosen, visits = _noise_expand_reference(node, sigma, cfg, seed)
            assert np.array([k.incoming_action for k in got]).tobytes() == chosen.tobytes()
            assert [k.visits for k in got] == visits


def test_expand_whole_pool_when_k_equals_pool(stack_task, prior):
    obs = la.reset(stack_task, 2)
    anchor = flatten_chunk(ExpertPolicy().propose(obs))
    root = TreeNode(obs=obs, incoming_action=anchor)
    cfg = SearchConfig(k=16, pool_size=16, visit_budget=64)
    kids = expand(root, prior, cfg, seed=13)
    assert len(kids) == 16
    dists = [float(np.linalg.norm(k.incoming_action - anchor)) for k in kids[:-1]]
    assert dists == sorted(dists)  # distance-sorted pool
    assert np.array_equal(kids[-1].incoming_action, anchor)


def test_expand_degenerate_prior_concentrates_on_anchor(stack_task):
    obs = la.reset(stack_task, 3)
    anchor = flatten_chunk(ExpertPolicy().propose(obs))
    tight = KdePrior(points=anchor[None, :], bandwidth=1e-12)
    root = TreeNode(obs=obs, incoming_action=anchor)
    kids = expand(root, tight, SearchConfig(), seed=14)
    for k in kids:
        assert np.allclose(k.incoming_action, anchor, atol=1e-9)


def test_expand_state_errors(stack_task, prior):
    obs = la.reset(stack_task, 4)
    anchor = flatten_chunk(ExpertPolicy().propose(obs))
    root = TreeNode(obs=obs, incoming_action=anchor)
    expand(root, prior, SearchConfig(), seed=15)
    with pytest.raises(StateError):
        expand(root, prior, SearchConfig(), seed=15)
    bare = TreeNode(obs=obs)  # no incoming action to anchor on
    with pytest.raises(StateError):
        expand(bare, prior, SearchConfig(), seed=15)


def test_expand_rejects_ragged_anchor(stack_task, prior):
    obs = la.reset(stack_task, 5)
    root = TreeNode(obs=obs, incoming_action=np.zeros(6))
    with pytest.raises(ValueError):
        expand(root, prior, SearchConfig(), seed=16)


# --- simulate -------------------------------------------------------------


def test_simulate_zero_action_identity(stack_task):
    obs = la.reset(stack_task, 6)
    reward_fn = lambda o: float(o.gripper_pos[0])
    root = TreeNode(obs=obs)
    child = TreeNode(incoming_action=np.zeros(4), parent=root, depth=1)
    r = simulate(child, la.step, reward_fn)
    assert child.obs.gripper_pos == obs.gripper_pos
    assert child.obs.objects == obs.objects
    assert child.obs.step_index == obs.step_index + 1
    assert r == reward_fn(obs)
    assert child.value == child.reward == r


def test_simulate_rolls_chunks_sequentially(stack_task):
    obs = la.reset(stack_task, 7)
    a1 = la.Action((0.02, 0.0, -0.01), 0.0)
    a2 = la.Action((0.0, 0.03, 0.0), 1.0)
    vec = flatten_chunk(la.ActionChunk((a1, a2)))
    root = TreeNode(obs=obs)
    child = TreeNode(incoming_action=vec, parent=root, depth=1)
    simulate(child, la.step, lambda o: 0.5)
    assert child.obs == la.step(la.step(obs, a1), a2)


def test_simulate_is_deterministic(stack_task):
    obs = la.reset(stack_task, 8)
    reward_fn = _goal_reward(obs, la.Action((0.01, 0.01, 0.0), 0.0))
    vec = np.array([0.01, -0.02, 0.03, 0.7])
    results = []
    for _ in range(2):
        child = TreeNode(incoming_action=vec, parent=TreeNode(obs=obs), depth=1)
        simulate(child, la.step, reward_fn)
        results.append((child.obs, child.reward))
    assert results[0] == results[1]


def test_simulate_requires_realized_parent():
    child = TreeNode(incoming_action=np.zeros(4), parent=TreeNode(), depth=1)
    with pytest.raises(StateError):
        simulate(child, la.step, lambda o: 0.0)
    orphan = TreeNode(incoming_action=np.zeros(4))
    with pytest.raises(StateError):
        simulate(orphan, la.step, lambda o: 0.0)


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
        child = TreeNode(incoming_action=vec, parent=TreeNode(obs=parent), depth=1)
        r = simulate(child, step, reward_fn)
        assert child.obs == expected
        assert child.obs.canonical_bytes() == expected.canonical_bytes()
        assert r == child.reward == child.value == reward_fn(expected)
    if world == "exact":
        assert child.obs.held_object == stack_task.kind.src  # the radius is inclusive


@pytest.mark.parametrize("vec", [
    np.zeros(6),                                # not a whole number of actions
    np.zeros(36),                               # nine actions, above MAX_CHUNK_LEN
    np.array([0.0, np.nan, 0.0, 0.5]),          # a non-finite component
    np.array([0.06, 0.0, 0.0, 0.5]),            # a delta beyond DELTA_BOUND
], ids=["6-vector", "36-vector", "nan", "delta-0.06"])
def test_simulate_rejects_what_unflatten_chunk_rejects(stack_task, vec):
    with pytest.raises(ValueError):
        unflatten_chunk(vec, vec.size // 4)
    child = TreeNode(incoming_action=vec, parent=TreeNode(obs=la.reset(stack_task, 0)), depth=1)
    with pytest.raises(ValueError):
        simulate(child, la.step, lambda o: 0.0)


# --- backpropagate --------------------------------------------------------


def test_backprop_hand_example():
    # r=0.5 node whose single child holds Q=1.0 with count 2:
    # Q = (2*0.5 + 2*1.0) / 4 = 0.75
    node = TreeNode(reward=0.5, visits=2)
    leaf = TreeNode(reward=1.0, visits=2, parent=node, depth=1)
    node.children = [leaf]
    backpropagate(leaf)
    assert node.value == 0.75
    assert node.visits == 2


def test_backprop_leaf_value_is_reward():
    leaf = TreeNode(reward=0.42)
    assert leaf.value == 0.42  # no children: empty sum


def test_backprop_random_trees_match_recomputation():
    rng = np.random.default_rng(17)
    for _ in range(40):
        root, leaves = _random_tree(rng)
        for leaf in leaves:  # depth-first order reaches the fixed point
            backpropagate(leaf)

        def check(node):
            q, n = _recompute(node)
            assert abs(node.value - q) <= 1e-12
            assert node.visits == n
            rs = _subtree_rewards(node)
            assert min(rs) - 1e-12 <= node.value <= max(rs) + 1e-12
            for ch in node.children:
                check(ch)

        check(root)


def test_backprop_runs_to_root():
    a = TreeNode(reward=0.1, visits=1)
    b = TreeNode(reward=0.2, visits=3, parent=a, depth=1)
    c = TreeNode(reward=0.9, visits=5, parent=b, depth=2)
    a.children, b.children = [b], [c]
    backpropagate(c)
    # bottom-up: b first, then a, both from the backup equation
    qb = (5 * 0.2 + 5 * 0.9) / 10
    qa = (5 * 0.1 + 5 * qb) / 10
    assert abs(b.value - qb) <= 1e-15
    assert abs(a.value - qa) <= 1e-15
    assert a.visits == b.visits == 5


def _grow_levels(rng, depth, per_child_backup):
    """A search-shaped tree: one expanded node per level, deepened by UCB.

    Backs each level up either once per child (the reference loop) or once
    after the level's last child.
    """
    root = TreeNode(reward=float(rng.uniform()))
    node = root
    for level in range(depth):
        k = int(rng.integers(1, 9))
        node.children = [TreeNode(reward=float(rng.uniform(-1.0, 1.0)),
                                  visits=int(rng.integers(1, 20)),
                                  parent=node, depth=level + 1, index=i)
                         for i in range(k)]
        if per_child_backup:
            for ch in node.children:
                backpropagate(ch)
        else:
            backpropagate(node.children[-1])
        node = select_ucb(node, 1.0 / math.sqrt(2.0))
    return root


def _flat(node):
    out = [(node.value, node.visits)]
    for ch in node.children:
        out.extend(_flat(ch))
    return out


def test_one_backup_per_level_equals_the_per_child_loop():
    for trial in range(200):
        depth = 1 + trial % 4
        loop = _grow_levels(np.random.default_rng(trial), depth, per_child_backup=True)
        once = _grow_levels(np.random.default_rng(trial), depth, per_child_backup=False)
        assert _flat(once) == _flat(loop)  # exact floats, exact counts


# --- select_ucb -----------------------------------------------------------


def test_ucb_hand_example():
    # (Q=0.6, N=8) vs (Q=0.5, N=1) under parent N=9 at c=1/sqrt(2):
    # scores ~0.9494 and ~1.2412, so the lightly visited child wins
    parent = TreeNode(reward=0.0, visits=9)
    heavy = TreeNode(reward=0.6, visits=8, parent=parent, index=0)
    light = TreeNode(reward=0.5, visits=1, parent=parent, index=1)
    parent.children = [heavy, light]
    c = 1 / math.sqrt(2)
    s_heavy = 0.6 + c * math.sqrt(math.log(9) / 9)
    s_light = 0.5 + c * math.sqrt(math.log(9) / 2)
    assert s_heavy == pytest.approx(0.9494, abs=1e-4)
    assert s_light == pytest.approx(1.2412, abs=1e-4)
    assert select_ucb(parent, c) is light


def test_ucb_zero_c_is_greedy():
    parent = TreeNode(reward=0.0, visits=10)
    kids = [TreeNode(reward=q, visits=n, parent=parent, index=i)
            for i, (q, n) in enumerate([(0.3, 1), (0.8, 50), (0.5, 2)])]
    parent.children = kids
    assert select_ucb(parent, 0.0) is kids[1]


def test_ucb_equal_q_prefers_fewest_visits():
    parent = TreeNode(reward=0.0, visits=12)
    kids = [TreeNode(reward=0.5, visits=n, parent=parent, index=i)
            for i, n in enumerate([6, 2, 4])]
    parent.children = kids
    assert select_ucb(parent, 1.0) is kids[1]


def test_ucb_exact_tie_keeps_lowest_index():
    parent = TreeNode(reward=0.0, visits=8)
    kids = [TreeNode(reward=0.5, visits=4, parent=parent, index=i)
            for i in range(3)]
    parent.children = kids
    assert select_ucb(parent, 0.7) is kids[0]


def test_ucb_unexpanded_node_errors():
    with pytest.raises(StateError):
        select_ucb(TreeNode(visits=3), 1.0)


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
    assert a.trace.to_json() == b.trace.to_json()
    c = run_search(obs, chunk, prior, la.step, reward_fn, SearchConfig(), seed=24)
    assert a.trace.to_json() != c.trace.to_json()


def test_search_two_leaf_exhaustive_oracle(stack_task, prior):
    # at k=2, depth=1 the engine must agree with brute-force enumeration
    cfg = SearchConfig(k=2, max_depth=1, pool_size=16, visit_budget=8)
    for seed in range(30):
        obs = la.reset(stack_task, seed)
        reward_fn = _goal_reward(obs, la.Action((0.02, -0.01, 0.01), 0.0))
        chunk = ExpertPolicy().propose(obs)
        res = run_search(obs, chunk, prior, la.step, reward_fn, cfg, seed=seed)
        kids = [n for n in res.trace.nodes if n.depth == 1]
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
    kids = defaultdict(list)
    for n in res.trace.nodes:
        if n.parent is not None:
            kids[n.parent].append(n)
    for n in res.trace.nodes:
        ch = kids[n.id]
        if not ch:
            continue
        total = sum(c.visits for c in ch)
        weighted = sum(c.visits * c.value for c in ch)
        assert n.visits == total
        assert abs(n.value - (total * n.reward + weighted) / (2 * total)) <= 1e-12


def test_search_tree_size_and_root_candidates(stack_task, prior, reward_model):
    obs = la.reset(stack_task, 27)
    chunk = ExpertPolicy().propose(obs)
    anchor = flatten_chunk(chunk)
    reward_fn = lambda o: la.predict_reward(reward_model, o)
    cfg = SearchConfig()
    res = run_search(obs, chunk, prior, la.step, reward_fn, cfg, seed=28)
    assert len(res.trace.nodes) == cfg.k * cfg.max_depth + 1
    roots = [n for n in res.trace.nodes if n.depth == 1]
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
    for n0, n1 in zip(r0.trace.nodes, r1.trace.nodes):
        assert n0.action == n1.action
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
    kids = defaultdict(list)
    for n in res.trace.nodes:
        if n.parent is not None:
            kids[n.parent].append(n)

    def subtree(nid):
        out = [next(n for n in res.trace.nodes if n.id == nid).reward]
        for c in kids[nid]:
            out.extend(subtree(c.id))
        return out

    for n in res.trace.nodes:
        rs = subtree(n.id)
        assert min(rs) - 1e-12 <= n.value <= max(rs) + 1e-12


def _eager_search(obs, chunk, prior, world, reward, config, seed):
    """The search loop with one backup per child and an eagerly built trace."""
    root = TreeNode(obs=obs, incoming_action=flatten_chunk(chunk), reward=float(reward(obs)))
    node = root
    for _ in range(config.max_depth):
        for child in expand(node, prior, config, seed):
            simulate(child, world, reward)
            backpropagate(child)
        node = select_ucb(node, config.c)
    best = max(root.children, key=lambda ch: ch.value)
    return best.incoming_action, SearchTrace.from_tree(root)


@pytest.mark.parametrize("chunk_len", [1, 4])
def test_search_matches_the_eager_per_child_loop(stack_task, demos, reward_model, chunk_len):
    chunk_prior = la.demo_prior(demos, chunk_len=chunk_len, bandwidth=0.01)
    pol = ExpertPolicy(chunk_len=chunk_len)
    reward_fn = lambda o: la.predict_reward(reward_model, o)
    for seed in range(6):
        obs = la.reset(stack_task, seed)
        chunk = pol.propose(obs)
        cfg = SearchConfig(max_depth=1 + seed % 4)
        action, trace = _eager_search(obs, chunk, chunk_prior, la.step, reward_fn, cfg, seed)
        res = run_search(obs, chunk, chunk_prior, la.step, reward_fn, cfg, seed)
        assert res.action.tobytes() == action.tobytes()
        assert res.trace.to_json() == trace.to_json()


@pytest.mark.parametrize("max_depth", [1, 3])
def test_search_selects_only_the_nodes_it_deepens(stack_task, prior, reward_model, monkeypatch,
                                                   max_depth):
    picks = []
    select_fn = la.search.select_ucb
    monkeypatch.setattr(la.search, "select_ucb",
                        lambda node, c: picks.append(node) or select_fn(node, c))
    obs = la.reset(stack_task, 54)
    reward_fn = lambda o: la.predict_reward(reward_model, o)
    run_search(obs, ExpertPolicy().propose(obs), prior, la.step, reward_fn,
               SearchConfig(max_depth=max_depth), seed=55)
    assert len(picks) == max_depth - 1  # no pick after the last level


def test_trace_is_built_once_and_only_when_read(stack_task, prior, reward_model, monkeypatch):
    built = []
    eager = SearchTrace.from_tree.__func__

    def spy(cls, root):
        built.append(root)
        return eager(cls, root)

    monkeypatch.setattr(SearchTrace, "from_tree", classmethod(spy))
    obs = la.reset(stack_task, 52)
    pol = ExpertPolicy()
    reward_fn = lambda o: la.predict_reward(reward_model, o)
    for _ in range(3):
        act(obs, pol, prior, la.step, reward_fn, SearchConfig(), seed=53)
    res = run_search(obs, pol.propose(obs), prior, la.step, reward_fn, SearchConfig(), seed=53)
    assert built == []  # acting and searching never flatten the tree
    first = res.trace
    assert built == [res.root]
    assert res.trace is first  # cached after the first read
    assert len(built) == 1


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
