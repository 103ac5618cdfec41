"""The scripted expert as a policy, for tests: ``expert_action`` rolled out open loop."""

from __future__ import annotations

from lookahead.actions import ActionChunk
from lookahead.policies import expert_action
from lookahead.world import Observation, step


class ExpertPolicy:
    """Stateless scripted controller: ``chunk_len`` expert actions per query,
    stepping the exact world between them."""

    def __init__(self, chunk_len: int = 1):
        self.chunk_len = chunk_len

    def reset(self, episode_seed: int) -> None:
        pass  # nothing to reset

    def propose(self, obs: Observation) -> ActionChunk:
        actions = [expert_action(obs)]
        for _ in range(self.chunk_len - 1):
            obs = step(obs, actions[-1])
            actions.append(expert_action(obs))
        return ActionChunk(tuple(actions))
