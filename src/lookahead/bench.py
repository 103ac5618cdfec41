"""Demo generation, seeded episodes, paired benchmarks, sweeps, and ablations.

Every comparison is paired: each arm replays the same derived episode seeds,
so arm differences are differences in behavior, not in luck. Each protocol
builds its reward scorer once, as a plain picklable callable: the learned
head bound to ``predict_reward``, or a ``FrameBankScorer`` for the reward
ablation. An arm maps its seeds through one ``run_episode`` partial, in this
process or through one process pool per arm. Reports carry no wall-clock
times, which keeps re-runs byte-identical regardless of how many worker
processes executed the episodes. REASONER_THREADS caps workers.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import logging
import os
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Callable, Sequence

from .actions import ACTION_DIM, Action
from .errors import DataError, require_types
from .kde import KdePrior, fit_kde
from .policies import DriftPolicy, PolicyParams, expert_action
from .records import EpisodeResult, Trajectory, action_matrix, read_trajectories, write_trajectories
from .reward import (
    FrameBankScorer,
    LabeledFrame,
    RewardModel,
    downsample,
    fit_reward,
    label_progress,
    predict_reward,
)
from .search import SearchConfig, act
from .seeding import derive_seed
from .world import Observation, Stack, TaskSpec, feature_length, imperfect_step, is_success, reset, step

log = logging.getLogger(__name__)


# config section -> key -> RunConfig field, in report order; to_dict and from_dict both read it.
# A section mapped to a class holds one config of that class, whose keys are its fields;
# task keys depend on the task kind, so TaskSpec.from_dict checks those.
_SECTIONS: dict[str, type | dict[str, str]] = {
    "task": TaskSpec,
    "policy": PolicyParams,
    "search": SearchConfig,
    "bench": {"n_episodes": "n_episodes", "base_seed": "base_seed"},
    "demos": {"n": "demo_count", "seed": "demo_seed"},
    "prior": {"bandwidth": "prior_bandwidth"},
    "reward": {"stride": "reward_stride", "ridge_lambda": "ridge_lambda"},
    "sweeps": {"alphas": "alphas", "epsilons": "epsilons"},
}


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """One experiment, and the only source of each arm's inputs: a sweep arm runs on a copy."""

    task: TaskSpec = dataclasses.field(default_factory=lambda: TaskSpec(kind=Stack()))
    policy: PolicyParams = dataclasses.field(default_factory=PolicyParams)
    search: SearchConfig = dataclasses.field(default_factory=SearchConfig)
    n_episodes: int = 200
    base_seed: int = 0
    demo_count: int = 50
    demo_seed: int = 7
    # calibrated pipeline defaults: a prior bandwidth matched to the scale of
    # the position deltas (a width fitted to the spread of all channels would
    # follow the binary grip channel instead), and a strong ridge so the reward
    # field stays smooth off the demo manifold
    prior_bandwidth: float = 0.01
    reward_stride: int = 4
    ridge_lambda: float = 1.0
    alphas: tuple[float, ...] = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
    epsilons: tuple[float, ...] = (0.0, 0.005, 0.01, 0.02, 0.05)

    def __post_init__(self) -> None:
        require_types(self)
        if self.n_episodes < 1:
            raise ValueError("n_episodes must be >= 1")
        if self.demo_count < 1:
            raise ValueError("demo_count must be >= 1")
        for name in ("base_seed", "demo_seed"):  # derive_seed encodes an int in 16 signed bytes
            seed = getattr(self, name)
            if not -2 ** 127 <= seed < 2 ** 127:
                raise ValueError(f"{name} must lie in [-2**127, 2**127), got {seed}")
        if not self.prior_bandwidth > 0:
            raise ValueError("prior_bandwidth must be positive")
        if self.reward_stride < 1:
            raise ValueError("reward_stride must be >= 1")
        if self.ridge_lambda < 0:
            raise ValueError("ridge_lambda must be non-negative")
        if not self.alphas or not self.epsilons:
            raise ValueError("the alpha and epsilon sweep grids must be non-empty")
        object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))
        object.__setattr__(self, "epsilons", tuple(float(e) for e in self.epsilons))
        # each grid point is checked as the search config its arm will run
        for grid, field in (("alphas", "alpha"), ("epsilons", "epsilon_model")):
            for v in getattr(self, grid):
                try:
                    dataclasses.replace(self.search, **{field: v})
                except ValueError as exc:
                    raise ValueError(f"sweeps.{grid} entry {v!r}: {exc}") from None

    def to_dict(self) -> dict:
        doc = {}
        for section, keys in _SECTIONS.items():
            if isinstance(keys, type):
                doc[section] = getattr(self, section).to_dict()
            else:
                values = [getattr(self, field) for field in keys.values()]
                doc[section] = {k: list(v) if isinstance(v, tuple) else v
                                for k, v in zip(keys, values)}
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        """Parse ``to_dict``'s form, with defaults for what it omits; a non-object,
        an unknown section or an unknown key is a ValueError naming it."""
        if not isinstance(doc, dict):
            raise ValueError(f"a config must be a JSON object, got {type(doc).__name__}")
        fields: dict = {}
        for section, body in doc.items():
            keys = _SECTIONS.get(section)
            if keys is None:
                raise ValueError(f"unknown config section {section!r}")
            if not isinstance(body, dict):
                raise ValueError(f"config section {section!r} must be a JSON object, "
                                 f"got {type(body).__name__}")
            if keys is TaskSpec:
                fields["task"] = TaskSpec.from_dict(body)
                continue
            known = keys.__dataclass_fields__ if isinstance(keys, type) else keys
            for key in body:
                if key not in known:
                    raise ValueError(f"unknown key {key!r} in config section {section!r}")
            if isinstance(keys, type):
                fields[section] = keys(**body)
            else:
                fields.update((keys[key], value) for key, value in body.items())
        return cls(**fields)


def episode_seeds(config: RunConfig) -> list[int]:
    """The shared per-episode seeds every arm replays."""
    return [derive_seed(config.base_seed, "episode", i) for i in range(config.n_episodes)]


def generate_demos(task: TaskSpec, n: int, seed: int,
                   demos_path: str | Path, failures_path: str | Path) -> dict:
    """Run the scripted expert n times; split episodes by outcome.

    Successes go to ``demos_path`` and drive prior/reward fitting; failures
    are recorded to ``failures_path`` for inspection but are never labeled.
    """
    kept: list[Trajectory] = []
    failed: list[Trajectory] = []
    for i in range(n):
        ep_seed = derive_seed(seed, "demo", i)
        obs = reset(task, ep_seed)
        frames = []
        steps = 0
        success = is_success(obs)
        while not success and steps < task.horizon:
            a = expert_action(obs)
            frames.append((obs, a))
            obs = step(obs, a)
            steps += 1
            success = is_success(obs)
        # keep the terminal state as a zero-action frame so progress 1.0
        # is anchored at the state that actually completed the task
        frames.append((obs, Action.zero()))
        traj = Trajectory(task.task_id, tuple(frames), success, ep_seed)
        (kept if success else failed).append(traj)
    write_trajectories(demos_path, kept)
    write_trajectories(failures_path, failed)
    if not kept:
        raise DataError("the expert produced no successful demonstrations")
    return {"attempted": n, "kept": len(kept), "failed": len(failed)}


def load_demos(path: str | Path) -> list[Trajectory]:
    """The file's trajectories; a file with none is a DataError."""
    trajs = read_trajectories(path)
    if not trajs:
        raise DataError(f"no trajectories in {path}")
    return trajs


def demo_prior(trajs: Sequence[Trajectory], chunk_len: int, bandwidth: float) -> KdePrior:
    return fit_kde(action_matrix(trajs, chunk_len), bandwidth)


def demo_reward_data(trajs: Sequence[Trajectory], stride: int) -> list[LabeledFrame]:
    data: list[LabeledFrame] = []
    for traj in trajs:
        if not traj.success:
            continue  # failed rollouts carry no usable progress signal
        data.extend(label_progress(downsample(traj, stride)))
    if not data:
        raise DataError("no successful demonstrations to label")
    return data


def demo_reward_model(trajs: Sequence[Trajectory], stride: int,
                      ridge_lambda: float, task_kind: str) -> RewardModel:
    return fit_reward(demo_reward_data(trajs, stride), ridge_lambda, task_kind=task_kind)


def run_episode(
    config: RunConfig,
    episode_seed: int,
    use_reasoner: bool,
    prior: KdePrior | None = None,
    reward_fn: Callable[[Observation], float] | None = None,
) -> EpisodeResult:
    """One seeded episode; the reasoner arm needs a prior and a reward scorer."""
    if use_reasoner and (prior is None or reward_fn is None):
        raise ValueError("the reasoner arm needs a fitted prior and reward scorer")
    t0 = time.perf_counter()
    policy = DriftPolicy(config.policy, episode_seed)
    obs = reset(config.task, episode_seed)
    if use_reasoner:
        eps = config.search.epsilon_model
        if eps == 0.0:
            world_fn = step
        else:
            model_seed = derive_seed(episode_seed, "model")
            world_fn = lambda o, a: imperfect_step(o, a, eps, model_seed)  # noqa: E731

    steps = 0
    invocations = 0
    success = is_success(obs)
    while not success and steps < config.task.horizon:
        if use_reasoner:
            chunk = act(obs, policy, prior, world_fn, reward_fn, config.search,
                        derive_seed(episode_seed, "search", invocations))
        else:
            chunk = policy.propose(obs)
        invocations += 1
        for a in chunk:
            obs = step(obs, a)
            steps += 1
            success = is_success(obs)
            if success or steps >= config.task.horizon:
                break
    if reward_fn is not None:
        final_reward = min(1.0, max(0.0, float(reward_fn(obs))))
    else:
        final_reward = 1.0 if success else 0.0
    return EpisodeResult(
        task_id=config.task.task_id,
        success=success,
        steps_taken=steps,
        final_reward=final_reward,
        wall_time=time.perf_counter() - t0,
    )


def resolve_workers(requested: int | None = None) -> int:
    """Worker process count; the REASONER_THREADS env var is a hard cap."""
    workers = requested if requested is not None else (os.cpu_count() or 1)
    cap = os.environ.get("REASONER_THREADS")
    if cap:
        try:
            limit = int(cap)
        except ValueError:
            raise ValueError(f"REASONER_THREADS must be an integer, got {cap!r}") from None
        workers = min(workers, max(1, limit))
    return max(1, workers)


@dataclasses.dataclass(frozen=True)
class ArmResult:
    """All paired episodes of one arm, in seed order."""

    arm: str
    alpha: float
    epsilon: float
    seeds: tuple[int, ...]
    episodes: tuple[EpisodeResult, ...]

    def __post_init__(self) -> None:
        if len(self.seeds) != len(self.episodes):
            raise ValueError("seeds and episodes must align")

    @property
    def n(self) -> int:
        return len(self.episodes)

    @property
    def success_rate(self) -> float:
        return sum(1 for e in self.episodes if e.success) / self.n

    @property
    def mean_steps(self) -> float:
        return sum(e.steps_taken for e in self.episodes) / self.n

    def to_dict(self) -> dict:
        return {
            "arm": self.arm,
            "alpha": self.alpha,
            "epsilon": self.epsilon,
            "success_rate": self.success_rate,
            "n": self.n,
            "mean_steps": self.mean_steps,
            "episodes": [{"seed": s, **e.to_record()} for s, e in zip(self.seeds, self.episodes)],
        }

    def csv_row(self) -> str:
        return ",".join([self.arm, repr(self.alpha), repr(self.epsilon),
                         repr(self.success_rate), str(self.n), repr(self.mean_steps)])


CSV_HEADER = "arm,alpha,epsilon,success_rate,n,mean_steps"


@dataclasses.dataclass(frozen=True)
class BenchReport:
    """A set of paired arms plus the config that produced them."""

    kind: str
    config: RunConfig
    arms: tuple[ArmResult, ...]

    def arm(self, name: str, **match: float) -> ArmResult:
        for a in self.arms:
            if a.arm == name and all(getattr(a, k) == v for k, v in match.items()):
                return a
        raise KeyError(f"no arm {name!r} matching {match}")

    @property
    def paired_diff(self) -> float | None:
        names = [a.arm for a in self.arms]
        if "baseline" in names and "reasoner" in names and names.count("reasoner") == 1:
            return self.arm("reasoner").success_rate - self.arm("baseline").success_rate
        return None

    def to_json_dict(self) -> dict:
        doc: dict = {
            "kind": self.kind,
            "config": self.config.to_dict(),
            "arms": [a.to_dict() for a in self.arms],
        }
        diff = self.paired_diff
        if diff is not None:
            doc["paired_diff"] = diff
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    def to_csv(self) -> str:
        return "\n".join([CSV_HEADER, *[a.csv_row() for a in self.arms]]) + "\n"


def write_report(report: BenchReport, json_path: str | Path, csv_path: str | Path) -> None:
    Path(json_path).write_text(report.to_json() + "\n", encoding="utf-8")
    Path(csv_path).write_text(report.to_csv(), encoding="utf-8")


def _arm(config: RunConfig, name: str, workers: int | None,
         reward_fn: Callable[[Observation], float], prior: KdePrior | None = None) -> ArmResult:
    """Every episode seed of one arm; an arm given a prior is a reasoner arm."""
    seeds = episode_seeds(config)
    use_reasoner = prior is not None
    episode = functools.partial(run_episode, config, use_reasoner=use_reasoner, prior=prior,
                                reward_fn=reward_fn)
    n_workers = resolve_workers(workers)
    if n_workers == 1 or len(seeds) <= 1:
        episodes = [episode(s) for s in seeds]
    else:
        chunk = max(1, len(seeds) // (n_workers * 4))
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            episodes = list(pool.map(episode, seeds, chunksize=chunk))
    alpha = config.search.alpha if use_reasoner else 1.0
    epsilon = config.search.epsilon_model if use_reasoner else 0.0
    arm = ArmResult(arm=name, alpha=alpha, epsilon=epsilon,
                    seeds=tuple(seeds), episodes=tuple(episodes))
    log.info("arm %-14s alpha=%.2f epsilon=%.3f success=%.3f n=%d",
             name, alpha, epsilon, arm.success_rate, arm.n)
    return arm


def _with_search(config: RunConfig, **changes) -> RunConfig:
    return dataclasses.replace(config, search=dataclasses.replace(config.search, **changes))


def _learned_scorer(config: RunConfig, prior: KdePrior, reward_model: RewardModel):
    """The learned reward scorer, once both artifacts are checked against ``config``; runs before any episode."""
    if prior.dim != ACTION_DIM * config.policy.chunk_len:
        raise ValueError(f"prior dimension {prior.dim} does not match chunk_len {config.policy.chunk_len}")
    if reward_model.weights.size != feature_length(config.task) + 1:
        raise ValueError(f"reward model with {reward_model.weights.size - 1} feature weights does not "
                         f"match task {config.task.task_id!r} ({feature_length(config.task)} features)")
    if reward_model.task_kind != config.task.task_id:
        raise ValueError(f"reward model fitted for task {reward_model.task_kind!r} does not match "
                         f"task {config.task.task_id!r}")
    return functools.partial(predict_reward, reward_model)


def _sweep(kind: str, config: RunConfig, prior: KdePrior, reward_model: RewardModel,
           workers: int | None, reasoners: Sequence[RunConfig]) -> BenchReport:
    """A baseline arm plus one reasoner arm per config of ``reasoners``, all over the same seeds."""
    scorer = _learned_scorer(config, prior, reward_model)
    arms = [_arm(config, "baseline", workers, scorer)]
    arms.extend(_arm(arm, "reasoner", workers, scorer, prior) for arm in reasoners)
    return BenchReport(kind=kind, config=config, arms=tuple(arms))


def run_benchmark(config: RunConfig, prior: KdePrior, reward_model: RewardModel,
                  workers: int | None = None) -> BenchReport:
    """Paired baseline-vs-reasoner evaluation over the same episode seeds."""
    return _sweep("benchmark", config, prior, reward_model, workers, [config])


def sweep_alpha(config: RunConfig, prior: KdePrior, reward_model: RewardModel,
                workers: int | None = None) -> BenchReport:
    """Baseline plus one reasoner arm per alpha of ``config.alphas``, all over the same seeds."""
    return _sweep("alpha-sweep", config, prior, reward_model, workers,
                  [_with_search(config, alpha=a) for a in config.alphas])


def ablate_sampling(config: RunConfig, prior: KdePrior, reward_model: RewardModel,
                    workers: int | None = None) -> BenchReport:
    """KDE expansion vs Gaussian-noise expansion at the same pool size.

    The noise arm is the same search over the KDE of the anchor alone: a
    one-point prior of the fitted prior's bandwidth.
    """
    scorer = _learned_scorer(config, prior, reward_model)
    kde = _with_search(config, sampler="kde")
    noise = _with_search(config, sampler="noise")
    arms = (
        _arm(kde, "kde", workers, scorer, prior),
        _arm(noise, "noise", workers, scorer, prior),
    )
    return BenchReport(kind="sampling-ablation", config=config, arms=arms)


def ablate_reward(config: RunConfig, prior: KdePrior, reward_model: RewardModel,
                  demo_bank: Sequence[LabeledFrame],
                  workers: int | None = None) -> BenchReport:
    """Learned linear reward vs nearest-demo-frame lookup, same seeds."""
    learned = _learned_scorer(config, prior, reward_model)
    nearest = FrameBankScorer(demo_bank)  # an empty bank fails before any episode
    bank_length = nearest.features.shape[1]
    if bank_length != feature_length(config.task):
        raise ValueError(f"demo bank with {bank_length} features does not match task "
                         f"{config.task.task_id!r} ({feature_length(config.task)} features)")
    arms = (
        _arm(config, "regressor", workers, learned, prior),
        _arm(config, "nearest-frame", workers, nearest, prior),
    )
    return BenchReport(kind="reward-ablation", config=config, arms=arms)


def sweep_model_error(config: RunConfig, prior: KdePrior, reward_model: RewardModel,
                      workers: int | None = None) -> BenchReport:
    """Baseline plus one reasoner arm per world-model error level of ``config.epsilons``."""
    return _sweep("model-error-sweep", config, prior, reward_model, workers,
                  [_with_search(config, epsilon_model=e) for e in config.epsilons])
