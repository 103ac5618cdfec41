"""The search engine as an explicit tree of node objects: the scalar test oracle.

This is the object-per-node form of ``lookahead.search``: each node holds its
observation, incoming action, reward, value, visit count, parent and children,
and the root is scored like every other node. ``run_search`` here returns the
action and the trace that the flat engine must reproduce bit for bit; only the
root's reward and value differ, because the engine does not score the root.
"""

from __future__ import annotations

import math

import numpy as np

from lookahead.actions import ACTION_DIM, action_bounds, flatten_chunk, split_actions
from lookahead.kde import KdePrior, density, sample, top_k_near, weights_from_densities
from lookahead.search import SearchTrace, TraceNode
from lookahead.seeding import derive_seed


class StateError(RuntimeError):
    """An operation was applied to a node in the wrong state."""


class TreeNode:
    """One node of the search tree: a state reached by an incoming action."""

    __slots__ = ("obs", "incoming_action", "reward", "value", "visits",
                 "children", "parent", "depth", "index")

    def __init__(self, obs=None, incoming_action=None, reward=0.0, visits=1,
                 parent=None, depth=0, index=0):
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


def expand(node, prior, config, seed):
    """Attach k candidate children drawn around the node's incoming action."""
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
        prior = KdePrior(points=anchor[None, :], bandwidth=prior.bandwidth)
    cands = sample(prior, config.pool_size, rng_seed, bounds)
    chosen = top_k_near(cands, config.k, anchor)
    chosen[-1] = anchor  # anchor injection
    visits = weights_from_densities(density(prior, chosen), config.visit_budget)
    depth = node.depth + 1
    node.children = [
        TreeNode(incoming_action=chosen[i], visits=visits[i], parent=node, depth=depth, index=i)
        for i in range(config.k)
    ]
    return node.children


def simulate(node, world, reward):
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


def backpropagate(leaf):
    """Recompute counts and values on the path from the leaf's parent to the root."""
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


def select_ucb(node, c):
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


def trace(root) -> SearchTrace:
    """The depth-first ``SearchTrace`` of a node tree."""
    nodes: list[TraceNode] = []

    def visit(node, parent_id):
        nid = len(nodes)
        act = tuple(float(v) for v in node.incoming_action)
        nodes.append(TraceNode(id=nid, parent=parent_id, action=act, reward=node.reward,
                               value=node.value, visits=node.visits, depth=node.depth))
        for ch in node.children:
            visit(ch, nid)

    visit(root, None)
    return SearchTrace(nodes=tuple(nodes))


def run_search(obs, proposal_chunk, prior, world, reward, config, seed):
    """One search over a node tree, with one backup per child; the searched action and the trace."""
    anchor = flatten_chunk(proposal_chunk)
    if prior.dim != anchor.size:
        raise ValueError(f"prior dimension {prior.dim} does not match the proposal length {anchor.size}")
    root = TreeNode(obs=obs, incoming_action=anchor, reward=float(reward(obs)))
    node = root
    for _ in range(config.max_depth):
        for child in expand(node, prior, config, seed):
            simulate(child, world, reward)
            backpropagate(child)
        node = select_ucb(node, config.c)
    best = max(root.children, key=lambda ch: ch.value)  # ties keep the lowest index
    return np.asarray(best.incoming_action, dtype=float).copy(), trace(root)
