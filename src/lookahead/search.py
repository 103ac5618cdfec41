"""Tree search over a world-model interface, guided by a density prior.

One search builds a shallow tree below the current state. Each level expands
the selected node with the k prior samples nearest its incoming action (the
policy proposal itself is always kept as a candidate), simulates every child
through the world model, scores it with the reward head, and backs the values
up; UCB then picks the node to deepen. The returned action is the root child
with the best backed-up value, and the caller blends it into the policy's
proposal with weight 1 - alpha. The flat ``SearchTrace`` of a finished tree is
built on demand, when a caller reads ``SearchResult.trace``; acting on the
result alone never builds it.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
from typing import Callable

import numpy as np

from .actions import (
    ACTION_DIM,
    Action,
    ActionChunk,
    action_bounds,
    blend_actions,
    flatten_chunk,
    split_actions,
    unflatten_chunk,
)
from .errors import StateError, require_types
from .kde import KdePrior, sample, top_k_near, weights_from_densities, density
from .seeding import derive_seed
from .world import Observation

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
    with bandwidth noise_sigma, or the fitted prior's bandwidth when that is None.
    """

    k: int = 8
    pool_size: int = 256
    max_depth: int = 3
    c: float = 1.0 / math.sqrt(2.0)
    alpha: float = 0.6
    visit_budget: int = 64
    epsilon_model: float = 0.0
    sampler: str = "kde"  # "kde" | "noise" (ablation arm)
    noise_sigma: float | None = None  # None: match the prior bandwidth

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
        if self.sampler not in ("kde", "noise"):
            raise ValueError(f"unknown sampler {self.sampler!r}")
        if self.noise_sigma is not None and self.noise_sigma <= 0:
            raise ValueError("noise_sigma must be positive when set")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


class TreeNode:
    """One node of the search tree: a state reached by an incoming action."""

    __slots__ = ("obs", "incoming_action", "reward", "value", "visits",
                 "children", "parent", "depth", "index")

    def __init__(self, obs: Observation | None = None,
                 incoming_action: np.ndarray | None = None,
                 reward: float = 0.0, visits: int = 1,
                 parent: "TreeNode | None" = None, depth: int = 0, index: int = 0):
        self.obs = obs
        self.incoming_action = incoming_action
        self.reward = reward
        self.value = reward
        self.visits = visits
        self.children: list[TreeNode] = []
        self.parent = parent
        self.depth = depth
        self.index = index  # position among siblings; ties in selection break low

    def path(self) -> tuple[int, ...]:
        out: list[int] = []
        node = self
        while node.parent is not None:
            out.append(node.index)
            node = node.parent
        return tuple(reversed(out))


def expand(node: TreeNode, prior: KdePrior, config: SearchConfig, seed: int) -> list[TreeNode]:
    """Attach k candidate children drawn around the node's incoming action.

    Candidates are the k pool samples nearest the anchor; the anchor itself
    replaces the farthest of them so the policy proposal always stays in the
    running. Initial visit counts come from the sampling density. The noise
    ablation samples and weighs with the KDE over the anchor alone, a
    one-point prior of bandwidth ``noise_sigma`` (the prior's by default), so
    it differs from the method in the support it draws around and nothing else.
    """
    if node.children:
        raise StateError("node is already expanded")
    if node.incoming_action is None:
        raise StateError("node has no anchor action to expand around")
    anchor = np.asarray(node.incoming_action, dtype=float)
    if anchor.size % ACTION_DIM != 0:
        raise ValueError("anchor length is not a whole number of actions")
    rng_seed = derive_seed(seed, "expand", node.depth, *node.path())
    bounds = action_bounds(anchor.size // ACTION_DIM)

    if config.sampler == "noise":
        sigma = config.noise_sigma if config.noise_sigma is not None else prior.bandwidth
        prior = KdePrior(points=anchor[None, :], bandwidth=sigma)

    cands = sample(prior, config.pool_size, rng_seed, bounds)
    chosen = top_k_near(cands, config.k, anchor)
    chosen[-1] = anchor  # anchor injection
    visits = weights_from_densities(density(prior, chosen), config.visit_budget)

    # each child holds a row of ``chosen``, which this expansion owns
    depth = node.depth + 1
    node.children = [
        TreeNode(incoming_action=chosen[i], visits=visits[i], parent=node, depth=depth, index=i)
        for i in range(config.k)
    ]
    return node.children


def simulate(node: TreeNode, world: WorldModel, reward: RewardFn) -> float:
    """Roll the node's incoming action(s) through the world model and score it."""
    if node.parent is None or node.parent.obs is None:
        raise StateError("simulate needs a parent with a realized observation")
    obs = node.parent.obs
    for a in split_actions(node.incoming_action.tolist()):
        obs = world(obs, a)
    node.obs = obs
    node.reward = float(reward(obs))
    node.value = node.reward  # leaf value starts at its own reward
    return node.reward


def backpropagate(leaf: TreeNode) -> None:
    """Recompute counts and values on the path from the leaf's parent to the root.

    Each ancestor's count becomes the sum of its children's counts, and its
    value the count-weighted mix of its own reward with the children's values:

        N(o) = sum_j N(o_j)
        Q(o) = (N(o) * r + sum_j N(o_j) * Q(o_j)) / (N(o) + sum_j N(o_j))
    """
    node = leaf.parent
    while node is not None:
        child_visits = 0
        weighted = 0.0
        for ch in node.children:
            child_visits += ch.visits
            weighted += ch.visits * ch.value
        node.visits = child_visits
        node.value = (node.visits * node.reward + weighted) / (node.visits + child_visits)
        node = node.parent


def select_ucb(node: TreeNode, c: float) -> TreeNode:
    """The child maximizing Q + c * sqrt(ln N(parent) / (1 + N(child)))."""
    if not node.children:
        raise StateError("cannot select from an unexpanded node")
    log_n = math.log(node.visits)
    best = node.children[0]
    best_score = -math.inf
    for ch in node.children:
        score = ch.value + c * math.sqrt(log_n / (1 + ch.visits))
        if score > best_score:  # strict: ties keep the lowest index
            best, best_score = ch, score
    return best


@dataclasses.dataclass(frozen=True)
class TraceNode:
    id: int
    parent: int | None
    action: tuple[float, ...] | None
    reward: float
    value: float
    visits: int
    depth: int


@dataclasses.dataclass(frozen=True)
class SearchTrace:
    """Flattened snapshot of a finished search tree, for diagnostics."""

    nodes: tuple[TraceNode, ...]

    @classmethod
    def from_tree(cls, root: TreeNode) -> "SearchTrace":
        nodes: list[TraceNode] = []

        def visit(node: TreeNode, parent_id: int | None) -> None:
            nid = len(nodes)
            act = None if node.incoming_action is None else tuple(float(v) for v in node.incoming_action)
            nodes.append(TraceNode(id=nid, parent=parent_id, action=act,
                                   reward=node.reward, value=node.value,
                                   visits=node.visits, depth=node.depth))
            for ch in node.children:
                visit(ch, nid)

        visit(root, None)
        return cls(nodes=tuple(nodes))

    def to_json(self) -> str:
        return json.dumps({"nodes": [dataclasses.asdict(n) for n in self.nodes]})


@dataclasses.dataclass(frozen=True)
class SearchResult:
    """The searched action plus the finished tree it was chosen from.

    ``trace`` flattens the tree through ``SearchTrace.from_tree`` the first
    time it is read and caches the snapshot; a caller that only needs
    ``action`` pays nothing for it.
    """

    action: np.ndarray  # flattened action of the best root child
    root: TreeNode

    @functools.cached_property
    def trace(self) -> SearchTrace:
        return SearchTrace.from_tree(self.root)


def run_search(
    obs: Observation,
    proposal_chunk: ActionChunk,
    prior: KdePrior,
    world: WorldModel,
    reward: RewardFn,
    config: SearchConfig,
    seed: int,
) -> SearchResult:
    """One search pass: expand/simulate/backpropagate once per depth level.

    The level's single backup runs after its last simulation: backpropagate
    recomputes every ancestor from its children's current values, so one call
    over the fully simulated level gives exactly what one call per child did.
    The rollout rule returns the root child with maximal value, which either
    confirms the policy proposal (the anchor is always a root candidate) or
    overrides it with a nearby action whose lookahead scored better.
    """
    anchor = flatten_chunk(proposal_chunk)
    if prior.dim != anchor.size:
        raise ValueError(f"prior dimension {prior.dim} does not match the proposal length {anchor.size}")
    root = TreeNode(obs=obs, incoming_action=anchor, reward=float(reward(obs)))
    node = root
    for level in range(1, config.max_depth + 1):
        children = expand(node, prior, config, seed)
        for child in children:
            simulate(child, world, reward)
        backpropagate(children[-1])
        if level < config.max_depth:  # the last level's pick would go unread
            node = select_ucb(node, config.c)
    best = max(root.children, key=lambda ch: ch.value)  # ties keep the lowest index
    return SearchResult(action=np.asarray(best.incoming_action, dtype=float).copy(), root=root)


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
    result = run_search(obs, chunk, prior, world, reward, config, seed)
    searched = unflatten_chunk(result.action[:ACTION_DIM], 1)
    return ActionChunk((blend_actions(chunk[0], searched[0], config.alpha), *chunk.actions[1:]))
