"""The benchmark's workloads, their set-up, and their golden episode records.

Every workload runs the stack task through one public protocol of
``lookahead.bench``. Set-up fits the KDE prior and the progress reward from
``generate_demos`` at the shipped demo config; the workload seed only sets the
protocol's ``base_seed``, so the same seed always gives the same episodes.
"""

from __future__ import annotations

import dataclasses
import json
import time
from pathlib import Path
from typing import Callable

import lookahead as la
from lookahead.bench import BenchReport, PolicyParams, RunConfig

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
REFERENCE_SEED = 0

ARM_KEY = ("arm", "alpha", "epsilon")


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    protocol: Callable[..., BenchReport]
    workers: int
    n_episodes: int
    record_episodes: int  # episodes per arm of the call whose searches are recorded
    golden_episodes: int  # episodes per arm in the golden records, a superset of every run's
    chunk_len: int = 1
    epsilons: tuple[float, ...] | None = None

    def config(self, seed: int, n_episodes: int | None = None) -> RunConfig:
        extra = {} if self.epsilons is None else {"epsilons": self.epsilons}
        return RunConfig(policy=PolicyParams(chunk_len=self.chunk_len),
                         n_episodes=n_episodes or self.n_episodes, base_seed=seed, **extra)

    def call(self, config: RunConfig, setup: "Setup", workers: int) -> BenchReport:
        return self.protocol(config, setup.prior, setup.model, workers=workers)


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="stack-run",
        why="the search core at its shipped point: KDE density and sampling, Action churn "
            "and tree bookkeeping dominate; the baseline arm bypasses search",
        protocol=la.run_benchmark, workers=1, n_episodes=10, record_episodes=10,
        golden_episodes=100,
    ),
    Workload(
        name="chunk4-model-error",
        why="the same search with chunk_len 4 and epsilon 0.02, where imperfect_step "
            "(hashing and a fresh Generator per call) dominates instead of density",
        protocol=la.sweep_model_error, workers=1, n_episodes=10, record_episodes=10,
        golden_episodes=100,
        chunk_len=4, epsilons=(0.02,),
    ),
    Workload(
        name="alpha-sweep-2w",
        why="the only use of the process pool: one pool per arm, the prior pickled per "
            "job, and an alpha = 1 arm whose searches the blend discards",
        protocol=la.sweep_alpha, workers=2, n_episodes=12, record_episodes=2,
        golden_episodes=25,
    ),
)}


@dataclasses.dataclass(frozen=True)
class Setup:
    prior: la.KdePrior
    model: la.RewardModel
    seconds: dict[str, float]  # generate_demos, load_demos, demo_prior, demo_reward_model


def set_up(workload: Workload, workdir: Path) -> Setup:
    """Generate the shipped demo corpus and fit the prior and reward on it."""
    cfg = RunConfig()
    clock = time.perf_counter
    t0 = clock()
    la.generate_demos(cfg.task, cfg.demo_count, cfg.demo_seed,
                      workdir / "demos.jsonl", workdir / "failures.jsonl")
    t1 = clock()
    demos = la.load_demos(workdir / "demos.jsonl")
    t2 = clock()
    prior = la.demo_prior(demos, chunk_len=workload.chunk_len, bandwidth=cfg.prior_bandwidth)
    t3 = clock()
    model = la.demo_reward_model(demos, cfg.reward_stride, cfg.ridge_lambda, cfg.task.task_id)
    t4 = clock()
    return Setup(prior, model, {"generate_demos": t1 - t0, "load_demos": t2 - t1,
                                "demo_prior": t3 - t2, "demo_reward_model": t4 - t3})


def report_bytes(report: BenchReport) -> bytes:
    """The bytes ``write_report`` puts on disk: the JSON report and its CSV."""
    return (report.to_json() + "\n" + report.to_csv()).encode("utf-8")


def records(report: BenchReport) -> list[dict]:
    """Per arm, ``[episode seed, success, steps_taken, final_reward]`` of every episode in seed order."""
    return [{"arm": a.arm, "alpha": a.alpha, "epsilon": a.epsilon,
             "episodes": [[s, e.success, e.steps_taken, e.final_reward]
                          for s, e in zip(a.seeds, a.episodes)]}
            for a in report.arms]


def mismatches(got: list[dict], want: list[dict]) -> int:
    """Episodes of ``got`` whose record differs from ``want``, arm by arm."""
    bad = 0
    for i, arm in enumerate(got):
        other = want[i] if i < len(want) else {}
        theirs = other["episodes"] if all(arm[k] == other.get(k) for k in ARM_KEY) else []
        bad += sum(1 for j, ep in enumerate(arm["episodes"])
                   if j >= len(theirs) or ep != theirs[j])
    return bad


def golden_path(workload: Workload) -> Path:
    return GOLDEN_DIR / f"{workload.name}.json"


def load_golden(workload: Workload) -> list[dict]:
    return json.loads(golden_path(workload).read_text(encoding="utf-8"))["arms"]
