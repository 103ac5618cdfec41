"""One benchmark run: set-up, timed protocol calls, correctness checks, metrics.

An untraced run first makes one untimed protocol call at one worker that
records every search (``run_search``) the episodes make. It then repeats the
workload's protocol call with identical inputs at the workload's worker count,
at least MIN_CALLS times and until ``seconds`` have passed, and after each call
replays a sample of the recorded searches, replays the baseline arm and sets
up again. It reports the end-to-end metrics. A traced run makes one untraced
reference call at the workload's worker count, then traced calls at one worker
until ``seconds`` have passed, and reports the per-layer metrics. End-to-end
numbers never come from a traced call.

Baseline per-step times come from ``EpisodeResult.wall_time``, which the
program measures per episode and keeps out of every report.
"""

from __future__ import annotations

import dataclasses
import math
import resource
import statistics
import time
from pathlib import Path

import numpy as np

import lookahead as la
from lookahead.bench import BenchReport, resolve_workers
from lookahead.records import EpisodeResult

from .hostspeed import REFERENCE_S, HostSpeed
from .tracer import (
    STEP_ENV,
    STEP_MODEL,
    SPAN_NAMES,
    PoolCounter,
    SearchRecorder,
    Tracer,
    episode_boundaries,
    pool_boundaries,
)
from .workloads import (
    REFERENCE_SEED,
    Setup,
    Workload,
    load_golden,
    mismatches,
    records,
    report_bytes,
    set_up,
)

# The host's speed drifts by tens of percent, in phases that can outlast a
# protocol call, yet even a slow phase has short fast moments. Latencies are
# therefore timed on short pieces, each run many times across the run and kept
# at its fastest: up to SEARCH_SAMPLES recorded searches (a few ms each) in
# rounds of at least REPLAY_S seconds, and BASELINE_EPISODES baseline episodes
# (at least the call's) in replays for BURST_S seconds; set-ups, SETUPS_PER_ROUND
# at a time, report their median. The rounds follow every protocol call. A
# slow phase can still outlast a run, so these times are also divided by the
# host factor that ``hostspeed`` measures between them, once every
# CALIBRATE_EVERY replayed searches or baseline episodes. A protocol call lasts
# seconds and is timed once, so its throughput is scaled by a host factor taken
# at its boundaries instead (see ``_timed``), and the median call is reported.
MIN_CALLS = 2
SEARCH_SAMPLES = 100
BASELINE_EPISODES = 25
CALIBRATE_EVERY = 4
BOUNDARY_PIECES = 5
BOUNDARY_GAP_S = 0.1
REPLAY_S = 1.5
BURST_S = 0.5
SETUPS_PER_ROUND = 3
SETUP_REPEATS = 5  # traced runs: set-ups before the calls

# (name, unit, better, bound): what a user of the protocols sees
END_TO_END: tuple[tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("reasoner_steps_per_s", "1/s", "higher", 0.25),
    ("search_ms_p50", "ms", "lower", 0.25),
    ("search_ms_p90", "ms", "lower", 0.25),
    ("baseline_ms_per_step", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)


def _span_metric(span: str, stat: str) -> str:
    if span in (STEP_ENV, STEP_MODEL):  # world.step.env_calls, world.step.model_self_s
        return f"{span}_{stat}"
    return f"{span}.{stat}"


# (name, unit, better): single layers, from the traced run
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    *[(_span_metric(span, stat), unit, "lower")
      for span in SPAN_NAMES for stat, unit in (("calls", "count"), ("self_s", "s"))],
    ("search.trace.nodes", "count", "lower"),
    ("search.override_frac", "ratio", "higher"),
    ("search.discarded_frac", "ratio", "lower"),
    ("kde.sample.kept_frac", "ratio", "higher"),
    ("kde.density.pairs", "count", "lower"),
    ("bench.dispatch_s", "s", "lower"),
    ("bench.pool_starts", "count", "lower"),
    ("bench.job_bytes_per_episode", "bytes", "lower"),
    ("setup.generate_demos_s", "s", "lower"),
    ("setup.load_demos_s", "s", "lower"),
    ("setup.demo_prior_s", "s", "lower"),
    ("setup.demo_reward_model_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)


class WorkerCountError(RuntimeError):
    """The environment caps the worker pool below the workload's worker count."""


@dataclasses.dataclass
class Call:
    report: BenchReport
    wall: float  # seconds spent inside the protocol call
    factor: float = math.nan  # host factor from the pieces run just before and after the call


@dataclasses.dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, float]
    notes: dict[str, str]  # metric name -> sample count or other context for the printout

    def to_json_dict(self, units: dict[str, str]) -> dict:
        return {"correct": self.correct, "attempted": self.attempted, "failed": self.failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in self.metrics.items()}}


def effective_workers(workload: Workload) -> int:
    """The worker count the program will use; fails if the environment lowers it."""
    workers = resolve_workers(workload.workers)
    if workers != workload.workers:
        raise WorkerCountError(
            f"{workload.name} needs {workload.workers} workers but the program resolves "
            f"{workers} (is REASONER_THREADS set?)")
    return workers


def _timed(workload: Workload, config, setup, workers: int,
           host: HostSpeed | None = None) -> Call:
    """One protocol call and its wall time.

    With ``host``, BOUNDARY_PIECES pieces also run just before and just after
    the call, and inside it at every process pool start and shutdown (where no
    worker runs) or, at one worker, after every episode, but at most once per
    BOUNDARY_GAP_S. The call's host factor is the median over these boundaries
    of each one's fastest piece; the pieces inside are not counted in the wall
    time.
    """
    clock = time.perf_counter
    if host is None:
        t0 = clock()
        report = workload.call(config, setup, workers)
        return Call(report, clock() - t0)
    fastest: list[float] = []
    inside = 0.0
    last = -math.inf

    def boundary(force: bool = False) -> None:
        nonlocal inside, last
        t = clock()
        if force or t - last >= BOUNDARY_GAP_S:
            fastest.append(min(host.run(BOUNDARY_PIECES)))
            last = clock()
            inside += last - t

    boundary(force=True)
    t0, before = clock(), inside
    with pool_boundaries(boundary), episode_boundaries(boundary if workers == 1 else None):
        report = workload.call(config, setup, workers)
    wall = clock() - t0 - (inside - before)
    boundary(force=True)
    return Call(report, wall, statistics.median(fastest) / REFERENCE_S)


def _episodes(report: BenchReport) -> int:
    return sum(a.n for a in report.arms)


def _setups(workload: Workload, workdir: Path):
    setups = [set_up(workload, workdir) for _ in range(SETUP_REPEATS)]
    parts = {k: statistics.median(s.seconds[k] for s in setups) for k in setups[0].seconds}
    return setups[-1], parts


def _replay_searches(searches: list, fastest: list[float], host: HostSpeed) -> tuple[int, int]:
    """Run the recorded searches in rounds for at least REPLAY_S seconds.

    Each search keeps its fastest time in ``fastest``; ``host`` is sampled
    between searches. Returns the number of searches run and the number whose
    action differs from the recorded one.
    """
    run, clock = la.search.run_search, time.perf_counter
    ran = wrong = 0
    start = clock()
    while True:
        for i, (args, kwargs, action) in enumerate(searches):
            t0 = clock()
            result = run(*args, **kwargs)
            fastest[i] = min(fastest[i], clock() - t0)
            wrong += not np.array_equal(result.action, action)
            if i % CALIBRATE_EVERY == 0:
                host.sample()
        ran += len(searches)
        if clock() - start >= REPLAY_S:
            return ran, wrong


def _replay_baseline(config, setup: Setup, replays: list[list[EpisodeResult]],
                     host: HostSpeed) -> None:
    """Replay the baseline arm of ``config`` through ``lookahead.run_episode`` until BURST_S has passed.

    A replay runs in this process with the arm's reward scorer, so its records
    equal the arm's. ``host`` is sampled between episodes.
    """
    score = lambda obs: la.predict_reward(setup.model, obs)  # noqa: E731
    seeds = la.episode_seeds(config)
    start = time.perf_counter()
    while True:
        replay = []
        for i, seed in enumerate(seeds):
            replay.append(la.run_episode(config, seed, False, reward_fn=score))
            if i % CALIBRATE_EVERY == 0:
                host.sample()
        replays.append(replay)
        if time.perf_counter() - start >= BURST_S:
            return


def _check(calls: list[Call], reference: Call, seed: int, workload: Workload) -> tuple[int, bool]:
    """Failed episodes over ``calls``, and whether every call's report bytes match the reference's.

    At the reference seed every call is also held to the golden records.
    """
    want = records(reference.report)
    golden = load_golden(workload) if seed == REFERENCE_SEED else None
    failed, same = 0, True
    for call in calls:
        got = records(call.report)
        bad = mismatches(got, want)
        if golden is not None:
            bad = max(bad, mismatches(got, golden))
        failed += bad
        same = same and report_bytes(call.report) == report_bytes(reference.report)
    return failed, same


def _fastest_baseline(replays: list[list[EpisodeResult]]) -> list[tuple[float, int]]:
    """Per replayed baseline episode: its fastest wall time over the replays, and its steps."""
    return [(min(e.wall_time for e in runs), runs[0].steps_taken)
            for runs in zip(*replays) if runs[0].steps_taken > 0]


def _outcomes(episodes: list[EpisodeResult]) -> list[list]:
    return [[e.success, e.steps_taken, e.final_reward] for e in episodes]


def _baseline_mismatches(replays: list[list[EpisodeResult]], arm: list, seed: int,
                         workload: Workload) -> int:
    """Replayed episodes whose record differs from the first replay's, from the call's
    baseline arm (which holds the first episodes), or at the reference seed from the
    golden baseline arm."""
    wants = [_outcomes(replays[0]), [ep[1:] for ep in arm]]
    if seed == REFERENCE_SEED:
        wants.append([ep[1:] for ep in load_golden(workload)[0]["episodes"]])
    return sum(1 for replay in replays for i, rec in enumerate(_outcomes(replay))
               if any(i < len(want) and rec != want[i] for want in wants))


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0  # ru_maxrss is in KiB on Linux


def run_untraced(workload: Workload, seed: int, seconds: float, workdir: Path,
                 n_episodes: int | None = None) -> Result:
    workers = effective_workers(workload)
    config = workload.config(seed, n_episodes)
    baseline_config = workload.config(seed, max(config.n_episodes, BASELINE_EPISODES))
    setups = [set_up(workload, workdir) for _ in range(SETUPS_PER_ROUND)]
    recorder = SearchRecorder()
    with recorder.installed():  # untimed: at one worker, so every search runs in this process
        recorded = workload.call(workload.config(seed, min(config.n_episodes, workload.record_episodes)),
                                 setups[-1], 1)
    if not recorder.calls:
        raise RuntimeError(f"{workload.name} made no search at seed {seed}")
    count = min(SEARCH_SAMPLES, len(recorder.calls))
    searches = [recorder.calls[i * len(recorder.calls) // count] for i in range(count)]
    fastest = [math.inf] * len(searches)
    host = HostSpeed()
    replays: list[list[EpisodeResult]] = []
    calls: list[Call] = []
    replayed = wrong = 0
    start = time.perf_counter()
    while len(calls) < MIN_CALLS or time.perf_counter() - start < seconds:
        calls.append(_timed(workload, config, setups[-1], workers, host))
        ran, bad = _replay_searches(searches, fastest, host)
        replayed, wrong = replayed + ran, wrong + bad
        _replay_baseline(baseline_config, setups[-1], replays, host)
        setups.extend(set_up(workload, workdir) for _ in range(SETUPS_PER_ROUND))
    reference = calls[0]
    failed, same = _check(calls, reference, seed, workload)
    arm = records(reference.report)[0]["episodes"]
    failed += wrong + mismatches(records(recorded), records(reference.report))
    failed += _baseline_mismatches(replays, arm, seed, workload)
    distinct = _episodes(reference.report)
    attempted = (distinct * len(calls) + _episodes(recorded) + sum(len(r) for r in replays)
                 + replayed)

    steps = sum(e.steps_taken for a in reference.report.arms if a.arm != "baseline"
                for e in a.episodes)
    search_ms = [t * 1e3 for t in fastest]
    baseline = _fastest_baseline(replays)
    raw = {
        "setup_s": statistics.median(sum(s.seconds.values()) for s in setups),
        "search_ms_p50": statistics.median(search_ms),
        "search_ms_p90": statistics.quantiles(search_ms, n=10)[-1],
        "baseline_ms_per_step": sum(w for w, _ in baseline) / sum(n for _, n in baseline) * 1e3,
    }
    factor = host.factor()
    metrics = {k: v / factor for k, v in raw.items()}
    metrics["reasoner_steps_per_s"] = statistics.median(steps / c.wall * c.factor for c in calls)
    metrics["peak_rss_mb"] = _peak_rss_mb()
    rounds = replayed // len(searches)
    sampled = f"{len(searches)} of {len(recorder.calls)} searches in {_episodes(recorded)} episodes"
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "reasoner_steps_per_s": f"{steps} reasoner-arm steps in {distinct} episodes per call, "
                                f"median of {len(calls)} calls at {workers} worker(s); raw "
                                f"{[round(steps / c.wall, 1) for c in calls]} at host factors "
                                f"{[round(c.factor, 3) for c in calls]}",
        "search_ms_p50": f"n={sampled}, each the fastest of {rounds} replays",
        "search_ms_p90": f"n={sampled}, {len(searches) // 10} beyond",
        "baseline_ms_per_step": f"all steps of {len(baseline)} episodes, each the fastest of "
                                f"{len(replays)} replays",
        "peak_rss_mb": f"max of benchmark and {workers} worker(s)",
    }
    for k, v in raw.items():
        notes[k] = f"raw {v!r} at host factor {factor!r}; {notes[k]}"
    return _result(failed, attempted, same, metrics, notes)


def run_traced(workload: Workload, seed: int, seconds: float, workdir: Path, sidecar: Path,
               n_episodes: int | None = None) -> Result:
    setup, setup_parts = _setups(workload, workdir)
    workers = effective_workers(workload)
    config = workload.config(seed, n_episodes)
    start = time.perf_counter()
    with PoolCounter().installed() as pools:
        reference = _timed(workload, config, setup, workers)
    tracer = Tracer()
    calls: list[Call] = []
    while not calls or time.perf_counter() - start < seconds:
        with tracer.installed():
            calls.append(_timed(workload, config, setup, 1))
    tracer.write(sidecar)

    failed, same = _check([reference, *calls], reference, seed, workload)
    attempted = _episodes(reference.report) * (1 + len(calls))
    n = len(calls)
    metrics: dict[str, float] = {}
    for i, span in enumerate(tracer.names):
        metrics[_span_metric(span, "calls")] = tracer.calls[i] // n
        metrics[_span_metric(span, "self_s")] = tracer.self_s[i] / n
    counts = tracer.counts
    searches = counts["search.searches"]
    episode_s = sum(e.wall_time for a in reference.report.arms for e in a.episodes)
    traced_episode_s = sum(e.wall_time for c in calls for a in c.report.arms for e in a.episodes) / n
    metrics.update({
        "search.trace.nodes": counts["search.trace.nodes"] // n,
        "search.override_frac": counts["search.overrides"] / searches if searches else 0.0,
        "search.discarded_frac": counts["search.discarded"] / searches if searches else 0.0,
        "kde.sample.kept_frac": (counts["kde.sample.kept"] / counts["kde.sample.drawn"]
                                 if counts["kde.sample.drawn"] else 0.0),
        "kde.density.pairs": counts["kde.density.pairs"] // n,
        "bench.dispatch_s": reference.wall - episode_s / workers,
        "bench.pool_starts": pools.starts,
        "bench.job_bytes_per_episode": pools.sent_bytes / _episodes(reference.report),
        **{f"setup.{k}_s": v for k, v in setup_parts.items()},
        "trace.overhead_frac": traced_episode_s / episode_s - 1.0,
    })
    notes = {"trace.overhead_frac": f"episode time over {n} traced call(s) at 1 worker "
                                    f"against the untraced call at {workers}",
             "bench.dispatch_s": f"untraced call at {workers} worker(s)"}
    return _result(failed, attempted, same, metrics, notes)


def _result(failed: int, attempted: int, same_bytes: bool, metrics: dict[str, float],
            notes: dict[str, str]) -> Result:
    notes = {"failed_frac": f"{failed} of {attempted} attempted; report bytes "
                            f"{'match' if same_bytes else 'DIFFER'}", **notes}
    return Result(correct=failed == 0 and same_bytes, attempted=attempted, failed=failed,
                  metrics=metrics, notes=notes)
