"""Outside-in span tracer for the lookahead search loop.

The program resolves every layer call through a module global or a class
attribute at call time (``lookahead.search.density``, ``lookahead.bench.step``,
``SearchTrace.from_tree`` ...). The tracer replaces those attributes with
wrappers for the length of a traced call and puts the originals back
afterwards, so nothing under ``src/`` changes. A wrapper records one span
(name, start, end, parent) and hands its arguments and result through
untouched, so a traced call produces the same report bytes as an untraced one.

Spans are kept in flat arrays in memory and written to a sidecar file when
the run ends; they never reach a report.
"""

from __future__ import annotations

import contextlib
import pickle
import time
from array import array
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

from lookahead import bench, reward, search, seeding, world
from lookahead.actions import flatten_chunk
from lookahead.policies import DriftPolicy
from lookahead.search import SearchTrace

Hook = Callable[[dict, tuple, dict, Any], None]

# ``lookahead.bench.step`` serves both the real environment and the exact world
# model; a call made under ``search.simulate`` is the model.
STEP_ENV = "world.step.env"
STEP_MODEL = "world.step.model"
_MODEL_PARENT = "search.simulate"


def _arg(args: tuple, kwargs: dict, pos: int, name: str) -> Any:
    return args[pos] if len(args) > pos else kwargs[name]


def _count_search(counts: dict, args: tuple, kwargs: dict, result: Any) -> None:
    anchor = flatten_chunk(_arg(args, kwargs, 1, "proposal_chunk"))
    counts["search.searches"] += 1
    counts["search.overrides"] += int(not np.array_equal(result.action, anchor))
    counts["search.discarded"] += int(_arg(args, kwargs, 5, "config").alpha == 1.0)


def _count_sample(counts: dict, args: tuple, kwargs: dict, result: Any) -> None:
    counts["kde.sample.drawn"] += int(_arg(args, kwargs, 1, "n"))


def _count_kept(counts: dict, args: tuple, kwargs: dict, result: Any) -> None:
    counts["kde.sample.kept"] += int(_arg(args, kwargs, 1, "k"))


def _count_pairs(counts: dict, args: tuple, kwargs: dict, result: Any) -> None:
    prior = _arg(args, kwargs, 0, "prior")
    queries = np.shape(_arg(args, kwargs, 1, "a"))
    counts["kde.density.pairs"] += (queries[0] if len(queries) == 2 else 1) * prior.n_points


def _count_nodes(counts: dict, args: tuple, kwargs: dict, result: Any) -> None:
    counts["search.trace.nodes"] += len(result.nodes)


# (owner, attribute, span name, counting hook): every attribute the program
# looks up at call time on the path of one episode
PATCH_POINTS: tuple[tuple[Any, str, str, Hook | None], ...] = (
    (bench, "run_episode", "bench.run_episode", None),
    (bench, "act", "search.act", None),
    (search, "run_search", "search.run_search", _count_search),
    (search, "expand", "search.expand", None),
    (search, "simulate", "search.simulate", None),
    (search, "backpropagate", "search.backpropagate", None),
    (search, "select_ucb", "search.select_ucb", None),
    (SearchTrace, "from_tree", "search.trace", _count_nodes),
    (search, "sample", "kde.sample", _count_sample),
    (search, "top_k_near", "kde.top_k_near", _count_kept),
    (search, "density", "kde.density", _count_pairs),
    (search, "weights_from_densities", "kde.weights_from_densities", None),
    (bench, "step", STEP_ENV, None),
    (bench, "imperfect_step", "world.imperfect_step", None),
    (reward, "render_features", "world.render_features", None),
    (bench, "predict_reward", "reward.predict_reward", None),
    (DriftPolicy, "propose", "policies.propose", None),
    (search, "unflatten_chunk", "actions.unflatten_chunk", None),
    (search, "blend_actions", "actions.blend_actions", None),
    (search, "flatten_chunk", "actions.flatten_chunk", None),
    (bench, "derive_seed", "seeding.derive_seed", None),
    (search, "derive_seed", "seeding.derive_seed", None),
    (world, "derive_seed", "seeding.derive_seed", None),
    (seeding, "derive_seed", "seeding.derive_seed", None),
)

SPAN_NAMES: tuple[str, ...] = tuple(dict.fromkeys(
    name for _, _, span, _ in PATCH_POINTS
    for name in ((STEP_ENV, STEP_MODEL) if span == STEP_ENV else (span,))))


class Tracer:
    """Span recorder with per-name call counts and self time.

    A span's self time is its duration minus the time its child spans cover.
    """

    def __init__(self) -> None:
        self.names: list[str] = list(SPAN_NAMES)
        self._ids = {n: i for i, n in enumerate(self.names)}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # open spans: [span index, name id, child seconds]

    def wrap(self, fn: Callable, span: str, hook: Hook | None = None) -> Callable:
        """A pass-through wrapper around ``fn`` that records one span per call."""
        base = self._ids[span]
        model = self._ids[STEP_MODEL] if span == STEP_ENV else base
        model_parent = self._ids[_MODEL_PARENT]
        stack, calls, self_s, counts = self._stack, self.calls, self.self_s, self.counts
        names, starts, ends, parents = self.span_name, self.span_start, self.span_end, self.span_parent
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            nid = model if parent is not None and parent[1] == model_parent else base
            idx = len(names)
            frame = [idx, nid, 0.0]
            stack.append(frame)
            names.append(nid)
            parents.append(parent[0] if parent is not None else -1)
            ends.append(0.0)
            t0 = clock()
            starts.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                ends[idx] = t1
                dur = t1 - t0
                calls[nid] += 1
                self_s[nid] += dur - frame[2]
                if parent is not None:
                    parent[2] += dur
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Install every wrapper for the body of the block, then restore the originals."""
        saved: list[tuple[Any, str, Any]] = []
        try:
            for owner, attr, span, hook in PATCH_POINTS:
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                if isinstance(original, classmethod):
                    wrapper: Any = classmethod(self.wrap(original.__func__, span, hook))
                else:
                    wrapper = self.wrap(original, span, hook)
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        """Write every recorded span to an ``.npz`` sidecar."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.span_name, dtype=np.int32),
                 start=np.frombuffer(self.span_start, dtype=np.float64),
                 end=np.frombuffer(self.span_end, dtype=np.float64),
                 parent=np.frombuffer(self.span_parent, dtype=np.int64))


class SearchRecorder:
    """Records the arguments and returned action of every ``run_search`` call.

    A search is a function of its arguments alone (its randomness comes from
    the ``seed`` argument), so a recorded call can be run again later and must
    return the same action. The wrapper hands arguments and result through
    untouched and is removed when the block ends.
    """

    def __init__(self) -> None:
        self.calls: list[tuple[tuple, dict, np.ndarray]] = []

    @contextlib.contextmanager
    def installed(self) -> Iterator["SearchRecorder"]:
        original = vars(search)["run_search"]
        calls = self.calls

        def recorded(*args, **kwargs):
            result = original(*args, **kwargs)
            calls.append((args, kwargs, np.array(result.action, copy=True)))
            return result

        search.run_search = recorded
        try:
            yield self
        finally:
            search.run_search = original


@contextlib.contextmanager
def pool_boundaries(callback: Callable[[], None]) -> Iterator[None]:
    """Call ``callback`` after every process pool ``lookahead.bench`` starts, and after it shuts down.

    A pool starts its workers on the first submit and has joined them when
    shutdown returns, so ``callback`` runs while no worker of that pool does.
    """

    class BoundaryPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            callback()

        def shutdown(self, *args, **kwargs):
            super().shutdown(*args, **kwargs)
            callback()

    original = vars(bench)["ProcessPoolExecutor"]
    bench.ProcessPoolExecutor = BoundaryPool
    try:
        yield
    finally:
        bench.ProcessPoolExecutor = original


@contextlib.contextmanager
def episode_boundaries(callback: Callable[[], None] | None) -> Iterator[None]:
    """Call ``callback`` after every episode ``lookahead.bench`` runs in this process.

    Does nothing when ``callback`` is None. Worker processes forked while the
    wrapper is in place inherit it, so it is meant for calls at one worker.
    """
    if callback is None:
        yield
        return
    original = vars(bench)["run_episode"]

    def run_episode(*args, **kwargs):
        result = original(*args, **kwargs)
        callback()
        return result

    bench.run_episode = run_episode
    try:
        yield
    finally:
        bench.run_episode = original


class PoolCounter:
    """Counts the process pools ``lookahead.bench`` starts and the bytes it sends them.

    Bytes are the pickled size of every work item submitted (``map`` submits
    one item per chunk) plus the initializer arguments once per worker.
    """

    def __init__(self) -> None:
        self.starts = 0
        self.sent_bytes = 0

    @contextlib.contextmanager
    def installed(self) -> Iterator["PoolCounter"]:
        counter = self

        class CountingPool(ProcessPoolExecutor):
            def __init__(self, max_workers=None, *args, **kwargs):
                super().__init__(max_workers, *args, **kwargs)
                counter.starts += 1
                initargs = kwargs.get("initargs", args[2] if len(args) > 2 else ())
                counter.sent_bytes += len(pickle.dumps(initargs)) * self._max_workers

            def submit(self, fn, /, *args, **kwargs):
                counter.sent_bytes += len(pickle.dumps((fn, args, kwargs)))
                return super().submit(fn, *args, **kwargs)

        original = vars(bench)["ProcessPoolExecutor"]
        bench.ProcessPoolExecutor = CountingPool
        try:
            yield self
        finally:
            bench.ProcessPoolExecutor = original
