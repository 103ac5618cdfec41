"""Fast checks of the benchmark itself, at a few episodes per arm.

Run with ``PYTHONPATH=src python -m pytest -q perfbench``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lookahead as la
from lookahead import bench
from perfbench import measure, run
from perfbench.hostspeed import HostSpeed
from perfbench.tracer import PATCH_POINTS, SearchRecorder, Tracer
from perfbench.workloads import WORKLOADS, report_bytes, set_up

ROOT = Path(__file__).resolve().parent.parent
TINY = 2  # episodes per arm

# counts the traced run computes rather than times
COUNTS = ("search.trace.nodes", "search.override_frac", "search.discarded_frac",
          "kde.sample.kept_frac", "kde.density.pairs", "bench.pool_starts",
          "bench.job_bytes_per_episode")


@pytest.fixture(autouse=True)
def _short_rounds(monkeypatch):
    monkeypatch.setattr(measure, "REPLAY_S", 0.0)
    monkeypatch.setattr(measure, "BURST_S", 0.0)
    monkeypatch.setattr(measure, "SETUPS_PER_ROUND", 1)
    monkeypatch.setattr(measure, "SETUP_REPEATS", 1)


def _originals() -> list:
    return [vars(owner)[attr] for owner, attr, _, _ in PATCH_POINTS] + [bench.ProcessPoolExecutor]


def _traced(name: str, tmp_path: Path) -> measure.Result:
    return measure.run_traced(WORKLOADS[name], 0, 0, tmp_path, tmp_path / "trace.npz",
                              n_episodes=TINY)


def test_benchmark_json_matches_the_metrics_the_code_prints():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]] == \
        list(measure.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == list(measure.PER_LAYER)
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_prints_with_its_unit(tmp_path, trace):
    workload = WORKLOADS["stack-run"]
    if trace:
        result = _traced(workload.name, tmp_path)
        units = {name: unit for name, unit, _ in measure.PER_LAYER}
    else:
        result = measure.run_untraced(workload, 0, 0, tmp_path, n_episodes=TINY)
        units = {name: unit for name, unit, _, _ in measure.END_TO_END}
    assert result.correct and result.failed == 0
    printed = {line.split()[0]: line.split()[2] for line in run.format_lines(result, units)}
    assert printed == {**units, "failed_frac": "ratio"}
    doc = json.loads(json.dumps(result.to_json_dict(units)))
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == units


def test_wrapper_passes_arguments_and_results_through_untouched():
    def probe(*args, **kwargs):
        return args, kwargs

    payload = (np.arange(3.0), object())
    args, kwargs = Tracer().wrap(probe, "kde.density")(*payload, key=payload[1])
    assert args[0] is payload[0] and args[1] is payload[1] and kwargs["key"] is payload[1]


def test_traced_episode_equals_untraced_bit_for_bit(tmp_path):
    config = WORKLOADS["stack-run"].config(0, TINY)
    setup = set_up(WORKLOADS["stack-run"], tmp_path)
    score = lambda obs: la.predict_reward(setup.model, obs)  # noqa: E731
    seed = la.episode_seeds(config)[0]
    plain = la.run_episode(config, seed, True, setup.prior, score)
    queries = setup.prior.points[:5] + 1e-3
    want = la.search.density(setup.prior, queries)
    with Tracer().installed() as tracer:
        traced = la.run_episode(config, seed, True, setup.prior, score)
        got = la.search.density(setup.prior, queries)
    assert traced.to_record() == plain.to_record()
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert tracer.calls[tracer.names.index("search.run_search")] > 0


def test_recorded_searches_replay_to_the_recorded_action(tmp_path):
    workload = WORKLOADS["chunk4-model-error"]
    config = workload.config(0, TINY)
    setup = set_up(workload, tmp_path)
    plain = workload.call(config, setup, 1)
    original = la.search.run_search
    with SearchRecorder().installed() as recorder:
        recorded = workload.call(config, setup, 1)
    assert la.search.run_search is original
    assert report_bytes(recorded) == report_bytes(plain)
    searches = recorder.calls[:5]
    fastest = [math.inf] * len(searches)
    assert measure._replay_searches(searches, fastest, HostSpeed()) == (len(searches), 0)
    assert all(0 < t < math.inf for t in fastest)


def test_wrappers_are_removed_after_a_run(tmp_path):
    before = _originals()
    _traced("alpha-sweep-2w", tmp_path)
    assert all(a is b for a, b in zip(_originals(), before))
    for name in ("alpha-sweep-2w", "stack-run"):  # boundaries at pool starts, after episodes
        measure.run_untraced(WORKLOADS[name], 0, 0, tmp_path, n_episodes=TINY)
        assert all(a is b for a, b in zip(_originals(), before))
    with pytest.raises(RuntimeError):
        with Tracer().installed():
            raise RuntimeError("inside the traced block")
    assert all(a is b for a, b in zip(_originals(), before))


@pytest.mark.parametrize("name", ["stack-run", "chunk4-model-error", "alpha-sweep-2w"])
def test_counts_repeat_exactly_between_traced_runs(tmp_path, name):
    first, second = _traced(name, tmp_path), _traced(name, tmp_path)
    assert first.correct and second.correct
    counted = [k for k in first.metrics if k.endswith("calls") or k in COUNTS]
    assert {k: first.metrics[k] for k in counted} == {k: second.metrics[k] for k in counted}
    if name == "alpha-sweep-2w":
        assert first.metrics["bench.pool_starts"] == 7
        assert first.metrics["search.discarded_frac"] > 0
    if name == "chunk4-model-error":
        assert first.metrics["world.imperfect_step.calls"] > 0
        assert first.metrics["world.step.model_calls"] == 0


def test_worker_cap_from_the_environment_fails_the_run(monkeypatch):
    monkeypatch.setenv("REASONER_THREADS", "1")
    assert measure.effective_workers(WORKLOADS["stack-run"]) == 1
    with pytest.raises(measure.WorkerCountError):
        measure.effective_workers(WORKLOADS["alpha-sweep-2w"])


def test_run_without_the_program_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "stack-run",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
