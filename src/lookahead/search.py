"""Tree search over a world-model interface, guided by a density prior.

One search descends from the current state one level at a time: it expands
the picked node with the k prior samples nearest its incoming action (the
policy proposal always stays a candidate), rolls each child through the world
model and scores it with the reward head; UCB then picks the child to deepen.
After the last level one backup folds the values up the path. The search
returns its ``SearchTree``: the chosen path and, per level, the children as
flat lists; its root is never scored. The tree's ``action`` is the root child
with the best backed-up value, which the caller blends into the policy's
proposal with weight 1 - alpha. ``SearchTrace.from_tree`` flattens a tree for
diagnostics; acting never builds it.
"""

from __future__ import annotations

import dataclasses
import json
import math
from typing import Callable

import numpy as np

from .actions import (
    ACTION_DIM,
    Action,
    ActionChunk,
    blend_actions,
    flatten_chunk,
    pool_bounds,
    split_actions,
    unflatten_chunk,
)
from .errors import require_types
from .kde import KdePrior, one_point_prior, sample, top_k_near, weights_from_densities, density
from .seeding import derive_seed
from .world import MAX_EPSILON, Observation

WorldModel = Callable[[Observation, Action], Observation]
RewardFn = Callable[[Observation], float]


@dataclasses.dataclass
class SearchConfig:
    """Knobs for one search invocation.

    alpha is the injection weight: the executed action is
    alpha * policy + (1 - alpha) * searched, so alpha = 0 executes the searched
    action alone and alpha = 1 executes the policy's: the search still runs,
    and the blend discards its result. The "noise"
    sampler is the "kde" one over a one-point prior: the node's incoming action
    with the fitted prior's bandwidth.
    """

    k: int = 8
    pool_size: int = 256
    max_depth: int = 3
    c: float = 1.0 / math.sqrt(2.0)
    alpha: float = 0.6
    visit_budget: int = 64
    epsilon_model: float = 0.0
    sampler: str = "kde"  # "kde" | "noise" (ablation arm)

    def __post_init__(self) -> None:
        require_types(self)
        if not 1 <= self.k <= self.pool_size:
            raise ValueError(f"k must be in [1, pool_size={self.pool_size}]")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if self.c < 0:
            raise ValueError("c must be non-negative")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        if self.visit_budget < self.k:
            raise ValueError("visit_budget must be >= k")
        if self.epsilon_model < 0:
            raise ValueError("epsilon_model must be non-negative")
        if self.epsilon_model > MAX_EPSILON:
            raise ValueError(f"epsilon_model must be at most {MAX_EPSILON!r}, so that the "
                             f"world model's draw range 2 * epsilon_model is finite, "
                             f"got {self.epsilon_model!r}")
        if self.sampler not in ("kde", "noise"):
            raise ValueError(f"unknown sampler {self.sampler!r}")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclasses.dataclass
class SearchTree:
    """One search's tree, which is a path: below the root's ``anchor`` (the
    flattened policy proposal), one level of k children per depth, each level
    expanded from the child that ``path`` picked in the level above.

    ``actions[d]``, ``rewards[d]``, ``visits[d]`` and ``values[d]`` are level d's
    flat lists in expansion order, the actions as lists of Python floats;
    ``path[d]`` indexes level d, and the last level has no pick. The root is not
    scored, and its count is the sum of the first level's.
    """

    anchor: list[float]
    path: list[int] = dataclasses.field(default_factory=list)
    actions: list[list[list[float]]] = dataclasses.field(default_factory=list)
    rewards: list[list[float]] = dataclasses.field(default_factory=list)
    visits: list[list[int]] = dataclasses.field(default_factory=list)
    values: list[list[float]] = dataclasses.field(default_factory=list)

    @property
    def action(self) -> np.ndarray:
        """The rollout rule: the flattened root child with the greatest backed-up
        value, the lowest index on a tie."""
        roots = self.values[0]
        return np.array(self.actions[0][max(range(len(roots)), key=roots.__getitem__)])


def expand(anchor: np.ndarray, path: list[int], prior: KdePrior, config: SearchConfig,
           seed: int) -> tuple[np.ndarray, list[int]]:
    """The k candidate actions around ``anchor``, the incoming action of the node
    reached from the root by the child indices ``path``, and their initial visit counts.

    Candidates are the k pool samples nearest the anchor; the anchor itself
    replaces the farthest of them so the policy proposal always stays in the
    running. Initial visit counts come from the sampling density. The noise
    ablation samples and weighs with the KDE over the anchor alone, a
    one-point prior of the prior's bandwidth, so it differs from the method in
    the support it draws around and nothing else.
    """
    if anchor.size % ACTION_DIM != 0:
        raise ValueError("anchor length is not a whole number of actions")
    rng_seed = derive_seed(seed, "expand", len(path), *path)
    bounds = pool_bounds(anchor.size // ACTION_DIM, config.pool_size)

    if config.sampler == "noise":
        prior = one_point_prior(prior, anchor)

    cands = sample(prior, config.pool_size, rng_seed, bounds)
    chosen = top_k_near(cands, config.k, anchor)
    chosen[-1] = anchor  # anchor injection
    return chosen, weights_from_densities(density(prior, chosen), config.visit_budget)


def simulate(obs: Observation, actions: list[list[float]], world: WorldModel,
             reward: RewardFn) -> tuple[list[Observation], list[float]]:
    """Roll each flattened action (a chunk of one or more actions) through the
    world model from ``obs``; the states reached and their rewards."""
    states, rewards = [], []
    for vals in actions:
        state = obs
        for a in split_actions(vals):
            state = world(state, a)
        states.append(state)
        rewards.append(float(reward(state)))
    return states, rewards


def backpropagate(tree: SearchTree) -> None:
    """Fold the backup up the path, from the deepest level to the root's children.

    Each picked node's count becomes the sum of its children's counts, and its
    value the count-weighted mix of its own reward with the children's values:

        N(o) = sum_j N(o_j)
        Q(o) = (N(o) * r + sum_j N(o_j) * Q(o_j)) / (N(o) + sum_j N(o_j))

    Every other node is a leaf, whose count is its own and whose value is its reward.
    """
    for d in range(len(tree.path) - 1, -1, -1):
        i = tree.path[d]
        total = 0
        weighted = 0.0
        for n, q in zip(tree.visits[d + 1], tree.values[d + 1]):
            total += n
            weighted += n * q
        tree.visits[d][i] = total
        tree.values[d][i] = (total * tree.rewards[d][i] + weighted) / (total + total)


def select_ucb(values: list[float], visits: list[int], c: float) -> int:
    """The index of the child maximizing Q + c * sqrt(ln N(parent) / (1 + N(child))),
    over one level's values and counts; N(parent) is the sum of the counts."""
    log_n = math.log(sum(visits))
    best = 0
    best_score = -math.inf
    for j, (q, n) in enumerate(zip(values, visits)):
        score = q + c * math.sqrt(log_n / (1 + n))
        if score > best_score:  # strict: ties keep the lowest index
            best, best_score = j, score
    return best


@dataclasses.dataclass(frozen=True)
class TraceNode:
    id: int
    parent: int | None
    action: tuple[float, ...]
    reward: float | None
    value: float | None
    visits: int
    depth: int


@dataclasses.dataclass(frozen=True)
class SearchTrace:
    """Flattened snapshot of a finished search tree in depth-first order, for diagnostics."""

    nodes: tuple[TraceNode, ...]

    @classmethod
    def from_tree(cls, tree: SearchTree) -> "SearchTrace":
        nodes = [TraceNode(id=0, parent=None, action=tuple(tree.anchor), reward=None,
                           value=None, visits=sum(tree.visits[0]), depth=0)]

        def visit(d: int, parent_id: int) -> None:
            for j, action in enumerate(tree.actions[d]):
                nid = len(nodes)
                nodes.append(TraceNode(id=nid, parent=parent_id, action=tuple(action),
                                       reward=tree.rewards[d][j], value=tree.values[d][j],
                                       visits=tree.visits[d][j], depth=d + 1))
                if d < len(tree.path) and j == tree.path[d]:
                    visit(d + 1, nid)

        visit(0, 0)
        return cls(nodes=tuple(nodes))

    def to_json(self) -> str:
        return json.dumps({"nodes": [dataclasses.asdict(n) for n in self.nodes]})


def run_search(
    obs: Observation,
    proposal_chunk: ActionChunk,
    prior: KdePrior,
    world: WorldModel,
    reward: RewardFn,
    config: SearchConfig,
    seed: int,
) -> SearchTree:
    """One search pass: expand and simulate one level per depth, then back up once.

    UCB picks the child to deepen from the level's fresh leaves, whose values
    are their rewards, so one backup after the last level gives exactly what a
    backup after every child did. The tree's ``action``, its root child with
    maximal value, either confirms the policy proposal (the anchor is always a
    root candidate) or overrides it with a nearby action whose lookahead
    scored better.
    """
    anchor = flatten_chunk(proposal_chunk)
    if prior.dim != anchor.size:
        raise ValueError(f"prior dimension {prior.dim} does not match the proposal length {anchor.size}")
    tree = SearchTree(anchor.tolist())
    for level in range(1, config.max_depth + 1):
        chosen, visits = expand(anchor, tree.path, prior, config, seed)
        actions = chosen.tolist()
        states, rewards = simulate(obs, actions, world, reward)
        tree.actions.append(actions)
        tree.rewards.append(rewards)
        tree.visits.append(visits)
        tree.values.append(rewards[:])  # a leaf's value is its own reward
        if level < config.max_depth:  # the last level's pick would go unread
            i = select_ucb(tree.values[-1], visits, config.c)
            tree.path.append(i)
            obs, anchor = states[i], chosen[i]
    backpropagate(tree)
    return tree


def act(
    obs: Observation,
    policy,
    prior: KdePrior | None,
    world: WorldModel,
    reward: RewardFn,
    config: SearchConfig,
    seed: int,
) -> ActionChunk:
    """Query the policy once, search from its proposal, and blend the searched
    chunk's first action into the proposal's; the rest of the chunk passes through.
    A missing prior fails before the query, so the policy's state does not move."""
    if prior is None:
        raise ValueError("a fitted prior is required to search")
    chunk = policy.propose(obs)
    tree = run_search(obs, chunk, prior, world, reward, config, seed)
    searched = unflatten_chunk(tree.action[:ACTION_DIM], 1)
    return ActionChunk((blend_actions(chunk[0], searched[0], config.alpha), *chunk.actions[1:]))
