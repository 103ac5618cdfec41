"""Demo pipeline, paired episodes, reports, and the sweep protocols."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import re

import pytest

import lookahead as la
from lookahead.bench import (
    CSV_HEADER,
    ArmResult,
    BenchReport,
    PolicyParams,
    episode_seeds,
    resolve_workers,
    write_report,
)
from lookahead.errors import _FIELD_TYPES, DataError
from lookahead.records import EpisodeResult


def _tiny_config(run_config, n=6, **search_kw):
    search = dataclasses.replace(run_config.search, pool_size=32,
                                 visit_budget=16, max_depth=2, **search_kw)
    return dataclasses.replace(run_config, n_episodes=n, search=search)


def _reward_fn(reward_model):
    return lambda obs: la.predict_reward(reward_model, obs)


# --- config and seeds -------------------------------------------------------


def test_run_config_validation():
    with pytest.raises(ValueError):
        la.RunConfig(n_episodes=0)
    with pytest.raises(ValueError):
        la.RunConfig(demo_count=0)
    with pytest.raises(ValueError):
        la.RunConfig(prior_bandwidth="gauss")
    with pytest.raises(ValueError):
        la.RunConfig(prior_bandwidth=-0.1)
    with pytest.raises(ValueError):
        la.RunConfig(reward_stride=0)
    with pytest.raises(ValueError):
        la.RunConfig(ridge_lambda=-1.0)
    with pytest.raises(ValueError):
        PolicyParams(eta=-0.1)
    with pytest.raises(ValueError):
        PolicyParams(sigma=-0.01)
    with pytest.raises(ValueError):
        PolicyParams(chunk_len=0)
    with pytest.raises(ValueError):
        PolicyParams(chunk_len=9)


@pytest.mark.parametrize("name", ["base_seed", "demo_seed"])
def test_seeds_lie_in_derive_seeds_int_range(name):
    for seed in (-2 ** 127, 2 ** 127 - 1):
        la.derive_seed(getattr(la.RunConfig(**{name: seed}), name), "episode", 0)
    for seed in (-2 ** 127 - 1, 2 ** 127):
        with pytest.raises(ValueError, match=re.escape(f"{name} must lie in [-2**127, 2**127)")):
            la.RunConfig(**{name: seed})
        with pytest.raises(OverflowError):
            la.derive_seed(seed)


def test_run_config_dict_round_trip(run_config):
    assert la.RunConfig.from_dict(run_config.to_dict()) == run_config
    assert run_config.to_dict() == json.loads(json.dumps(run_config.to_dict()))
    # partial documents fall back to defaults field by field
    partial = la.RunConfig.from_dict({"bench": {"n_episodes": 9}})
    assert partial.n_episodes == 9
    assert partial.task == run_config.task
    assert partial.prior_bandwidth == run_config.prior_bandwidth


@pytest.mark.parametrize("make, name", [
    *((la.RunConfig, name) for name in
      ("n_episodes", "base_seed", "demo_count", "demo_seed", "reward_stride")),
    (PolicyParams, "chunk_len"),
    *((la.SearchConfig, name) for name in
      ("k", "pool_size", "max_depth", "visit_budget")),
    (lambda **kw: la.TaskSpec(kind=la.Stack(), **kw), "horizon"),
    (lambda **kw: la.TaskSpec(kind=la.Stack(**kw)), "src"),
    (lambda **kw: la.TaskSpec(kind=la.Stack(**kw)), "dst"),
    (lambda **kw: la.TaskSpec(kind=la.PickPlace(**kw)), "src"),
    (lambda **kw: la.TaskSpec(kind=la.FollowCircle(**kw)), "n_waypoints"),
])
@pytest.mark.parametrize("value", [True, 2.5, "3"])
def test_integer_fields_reject_bools_and_non_integers(make, name, value):
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value!r}$"):
        make(**{name: value})


def _task_of(kind):
    """A TaskSpec factory that passes its keywords to the task kind."""
    return lambda **kw: la.TaskSpec(kind=kind(**kw))


@pytest.mark.parametrize("make, name, what", [
    (la.RunConfig, "ridge_lambda", "a number"),
    (la.RunConfig, "prior_bandwidth", "a number"),
    (lambda **kw: la.KdePrior(points=[[0.0], [1.0]], **kw), "bandwidth", "a number"),
    (lambda **kw: la.RewardModel(task_kind="stack", weights=[0.5, 0.5], **kw), "ridge_lambda",
     "a number"),
    (PolicyParams, "eta", "a number"),
    (PolicyParams, "sigma", "a number"),
    *((la.SearchConfig, name, "a number") for name in ("c", "alpha", "epsilon_model")),
    (lambda **kw: la.TaskSpec(kind=la.Stack(), **kw), "tolerance", "a number"),
    (_task_of(la.PickPlace), "zone_radius", "a number"),
    (_task_of(la.FollowCircle), "radius", "a number"),
])
@pytest.mark.parametrize("value", [True, [0.5], {}, math.nan, math.inf, -math.inf,
                                   pytest.param(10 ** 400, id="int-beyond-float"),
                                   pytest.param(-10 ** 400, id="negative-int-beyond-float")])
def test_float_fields_reject_bools_and_non_numbers(make, name, what, value):
    with pytest.raises(ValueError, match=f"^{name} must be {what}, got {re.escape(repr(value))}$"):
        make(**{name: value})


@pytest.mark.parametrize("name", ["c", "alpha", "epsilon_model"])
def test_float_fields_name_a_string(name):
    with pytest.raises(ValueError, match=f"^{name} must be a number, got '0.5'$"):
        la.SearchConfig(**{name: "0.5"})


@pytest.mark.parametrize("make, name, what", [
    (la.RunConfig, "alphas", "a list of numbers"),
    (la.RunConfig, "epsilons", "a list of numbers"),
    (_task_of(la.PickPlace), "zone_center", "a list of 3 numbers"),
    (_task_of(la.FollowCircle), "center", "a list of 3 numbers"),
])
@pytest.mark.parametrize("value", [(0.5, True, 0.5), (0.5, "0.1", 0.0), "0.5", 0.5, None,
                                   (0.0, math.inf, 0.0), (math.nan, 0.5, 0.5)])
def test_float_tuple_fields_reject_non_numbers(make, name, what, value):
    with pytest.raises(ValueError, match=f"^{name} must be {what}, got {re.escape(repr(value))}$"):
        make(**{name: value})


@pytest.mark.parametrize("make, name", [
    (la.SearchConfig, "sampler"),
    (lambda **kw: la.RewardModel(weights=[0.5, 0.5], ridge_lambda=1.0, **kw), "task_kind"),
])
@pytest.mark.parametrize("value", [5, None, True, ["kde"]])
def test_string_fields_reject_non_strings(make, name, value):
    with pytest.raises(ValueError, match=f"^{name} must be a string, got {re.escape(repr(value))}$"):
        make(**{name: value})


# annotations that name a nested dataclass, a union of them or an array: each is
# checked by its own class or by its decoder, not by one entry of _FIELD_TYPES
_COMPOSITE_FIELDS = {
    "TaskSpec", "TaskKind", "PolicyParams", "SearchConfig", "np.ndarray",
    "tuple[ObjectState, ...]", "tuple[tuple[Observation, Action], ...]",
}


@pytest.mark.parametrize("cls", [
    la.RunConfig, PolicyParams, la.SearchConfig,
    la.TaskSpec, la.Stack, la.PickPlace, la.FollowCircle,
    la.KdePrior, la.RewardModel, la.Trajectory,
    la.Observation, la.ObjectState,
], ids=lambda cls: cls.__name__)
def test_every_checked_field_has_a_type_check(cls):
    # require_types skips an annotation _FIELD_TYPES lacks, so a new one would go unchecked
    unchecked = [(f.name, f.type) for f in dataclasses.fields(cls)
                 if f.type not in _FIELD_TYPES and f.type not in _COMPOSITE_FIELDS]
    assert unchecked == []


def test_float_fields_accept_ints_and_keep_them():
    doc = {
        "task": {"kind": "pick-place", "zone_center": [1, 0, 0], "zone_radius": 1, "tolerance": 1},
        "policy": {"eta": 0, "sigma": 1},
        "search": {"c": 1, "alpha": 1, "epsilon_model": 0},
        "prior": {"bandwidth": 1},
        "reward": {"ridge_lambda": 2},
        "sweeps": {"alphas": [0, 1], "epsilons": [0]},
    }
    config = la.RunConfig.from_dict(doc)
    again = config.to_dict()
    for section, body in doc.items():
        for key, value in body.items():
            if section != "sweeps":
                assert again[section][key] == value and type(again[section][key]) is type(value)
    assert config.alphas == (0.0, 1.0) and config.epsilons == (0.0,)


def test_episode_seeds_are_stable_and_distinct(run_config):
    seeds = episode_seeds(run_config)
    assert seeds == episode_seeds(run_config)
    assert len(set(seeds)) == run_config.n_episodes
    other = dataclasses.replace(run_config, base_seed=1)
    assert episode_seeds(other) != seeds


# --- demo generation --------------------------------------------------------


def test_generate_demos_expert_competence(demo_files, run_config):
    _, _, summary = demo_files
    assert summary["attempted"] == run_config.demo_count
    assert summary["kept"] >= 45  # the scripted expert rarely misses
    assert len(la.load_demos(demo_files[0])) == summary["kept"]


def _first_demo_record(demo_files):
    return json.loads(demo_files[0].read_text(encoding="utf-8").splitlines()[0])


def test_load_demos_parses_each_distinct_task_dict_once(tmp_path, demo_files, stack_task):
    first, second = _first_demo_record(demo_files), _first_demo_record(demo_files)
    for frame in second["frames"]:
        frame["obs"]["task"]["horizon"] = 120
    path = tmp_path / "two_tasks.jsonl"
    path.write_text(json.dumps(first) + "\n" + json.dumps(second) + "\n", encoding="utf-8")
    a, b = la.load_demos(path)
    assert len({id(obs.task) for obs, _ in a.frames}) == 1
    assert {obs.task for obs, _ in a.frames} == {stack_task}
    assert {obs.task for obs, _ in b.frames} == {dataclasses.replace(stack_task, horizon=120)}


@pytest.mark.parametrize("value", [True, 1.0])
def test_load_demos_checks_each_distinct_task_dict(tmp_path, demo_files, value):
    # 1, 1.0 and True are equal and hash alike; each still parses on its own
    record = _first_demo_record(demo_files)
    for frame in record["frames"]:
        frame["obs"]["task"]["horizon"] = 1
    record["frames"][-1]["obs"]["task"]["horizon"] = value
    path = tmp_path / "later_frame.jsonl"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    last = len(record["frames"]) - 1
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))} line 1 frame {last}: "
                                         f"horizon must be an integer, got {value!r}$"):
        la.load_demos(path)


def test_generate_demos_kept_end_in_success(demos, stack_task):
    for traj in demos:
        assert traj.success
        last_obs = traj.frames[-1][0]
        assert la.is_success(last_obs)
        assert traj.frames[-1][1] == la.Action.zero()  # terminal anchor frame


def test_generate_demos_byte_identical(tmp_path, stack_task):
    paths = []
    for tag in ("a", "b"):
        d, f = tmp_path / f"{tag}.jsonl", tmp_path / f"{tag}_fail.jsonl"
        stats = la.generate_demos(stack_task, 10, 3, d, f)
        assert stats["attempted"] == 10
        assert stats["kept"] + stats["failed"] == 10
        paths.append((d, f))
    assert paths[0][0].read_bytes() == paths[1][0].read_bytes()
    assert paths[0][1].read_bytes() == paths[1][1].read_bytes()


# sha256 of demos.jsonl + b"\0" + failures.jsonl for 12 demos at seed 7; the
# bytes embed every frame's task dict, so they pin TaskSpec.to_dict too
DEMO_DIGESTS = {
    "stack": "94472fa7f6fe4d2ddaa30aa9e41bd41ceaedfcbed2b6fed69aeb1ecaf2cc912f",
    "pick-place": "9d7c2539a58387c4ac07dcbb3f430e55013d9b2cba9069f605654f498e587d67",
    "follow-circle": "d28fdb155dfa81e1d2c39f0bcf686bacc386af8a2f22f1054ca225c869a67207",
}


@pytest.mark.parametrize("kind", [la.Stack(), la.PickPlace(), la.FollowCircle()],
                         ids=list(DEMO_DIGESTS))
def test_demo_bytes_are_pinned(tmp_path, kind):
    task = la.TaskSpec(kind=kind)
    d, f = tmp_path / "demos.jsonl", tmp_path / "failures.jsonl"
    la.generate_demos(task, 12, 7, d, f)
    digest = hashlib.sha256(d.read_bytes() + b"\0" + f.read_bytes()).hexdigest()
    assert digest == DEMO_DIGESTS[task.task_id]
    # every frame parses back to the task it was written from
    assert {frame[0].task for traj in la.load_demos(d) for frame in traj.frames} == {task}


# sha256 of prior.json at chunk_len 1 and 4 and of reward.json, each fitted on
# the shipped demo config (50 demos at seed 7); pins the artifact file formats
ARTIFACT_DIGESTS = {
    "stack": {
        "prior-1": "e8a104468b4f6f6e37888224f56ef8c8cd116c4400221352756fd8cdb2f006d9",
        "prior-4": "5e60bf41b13a81aced00ccd67773bd3987185feab3f4627fa2466f76455f5f03",
        "reward": "966ff60ac003ff9264fb6f72038d4a16005aec458fc57049230c90cb5469796a",
    },
    "pick-place": {
        "prior-1": "e0d7c00f2212aa4dfa9db584fceb512632213c00e6f700667eaf913ab73294db",
        "prior-4": "a80fd6119a88a1df1bdd1cd3c91692e0f7b58b58903886849c5f4a9cc238add5",
        "reward": "7685adb650c996da11c4efa7698ce63e0f38aefa8885a0b9604a777c1aa06776",
    },
    "follow-circle": {
        "prior-1": "3deaf5233d55ec41ccf7b5847b63672c22ef1e8e7209e930b2aaf8b187ed268a",
        "prior-4": "d80cea29e3f07b0c6fd3bec8339fdd6d8d8203fca0f122c5b79d2a44b21bbdb3",
        "reward": "1d45c4f61bdee19739c53af42153ccd35eec28b0bfa3b808d28414284fa5a373",
    },
}


@pytest.mark.parametrize("kind", [la.Stack(), la.PickPlace(), la.FollowCircle()],
                         ids=list(ARTIFACT_DIGESTS))
def test_artifact_bytes_are_pinned(tmp_path, kind):
    config = la.RunConfig(task=la.TaskSpec(kind=kind))
    la.generate_demos(config.task, config.demo_count, config.demo_seed,
                      tmp_path / "demos.jsonl", tmp_path / "failures.jsonl")
    demos = la.load_demos(tmp_path / "demos.jsonl")
    for chunk_len in (1, 4):
        la.save_prior(la.demo_prior(demos, chunk_len, config.prior_bandwidth),
                      tmp_path / f"prior-{chunk_len}.json")
    la.save_model(la.demo_reward_model(demos, config.reward_stride, config.ridge_lambda,
                                       config.task.task_id), tmp_path / "reward.json")
    digests = {name: hashlib.sha256((tmp_path / f"{name}.json").read_bytes()).hexdigest()
               for name in ("prior-1", "prior-4", "reward")}
    assert digests == ARTIFACT_DIGESTS[config.task.task_id]


def test_generate_demos_failure_split(tmp_path):
    # an impossible horizon forces failures into the failure file
    task = la.TaskSpec(kind=la.Stack(), horizon=3)
    d, f = tmp_path / "demos.jsonl", tmp_path / "failures.jsonl"
    with pytest.raises(DataError):
        la.generate_demos(task, 5, 0, d, f)
    failures = la.read_trajectories(f)
    assert len(failures) == 5
    assert not any(t.success for t in failures)


def test_demo_reward_data_skips_failures(demos, run_config):
    data = la.demo_reward_data(demos, run_config.reward_stride)
    assert all(0.0 <= f.label <= 1.0 for f in data)
    n_success = sum(1 for t in demos if t.success)
    assert len(data) >= n_success * 2  # at least first+last frame per demo


# --- run_episode ------------------------------------------------------------


def test_run_episode_clean_policy_succeeds(run_config):
    clean = dataclasses.replace(run_config, policy=PolicyParams(eta=0.0, sigma=0.0))
    result = la.run_episode(clean, episode_seeds(clean)[0], use_reasoner=False)
    assert result.success
    assert result.final_reward == 1.0


def test_run_episode_builds_one_policy_generator_at_the_episode_seed(run_config, monkeypatch):
    import lookahead.policies as policies
    seen = []
    monkeypatch.setattr(policies, "rng_from", lambda *parts: seen.append(parts) or la.rng_from(*parts))
    seed = episode_seeds(run_config)[0]
    la.run_episode(run_config, seed, use_reasoner=False)
    assert seen == [("drift", 0, seed)]


def test_run_episode_deterministic(run_config):
    seed = episode_seeds(run_config)[1]
    a = la.run_episode(run_config, seed, use_reasoner=False)
    b = la.run_episode(run_config, seed, use_reasoner=False)
    assert a.to_record() == b.to_record()  # wall_time is informational only


def test_run_episode_alpha_one_matches_baseline(run_config, prior, reward_model):
    cfg = _tiny_config(run_config, alpha=1.0)
    fn = _reward_fn(reward_model)
    for seed in episode_seeds(cfg)[:4]:
        base = la.run_episode(cfg, seed, use_reasoner=False)
        mixed = la.run_episode(cfg, seed, use_reasoner=True, prior=prior,
                               reward_fn=fn)
        assert mixed.success == base.success
        assert mixed.steps_taken == base.steps_taken


def test_run_episode_reasoner_needs_prior(run_config):
    with pytest.raises(ValueError):
        la.run_episode(run_config, 1, use_reasoner=True)


def test_run_episode_reasoner_deterministic(run_config, prior, reward_model):
    cfg = _tiny_config(run_config)
    fn = _reward_fn(reward_model)
    seed = episode_seeds(cfg)[2]
    a = la.run_episode(cfg, seed, use_reasoner=True, prior=prior, reward_fn=fn)
    b = la.run_episode(cfg, seed, use_reasoner=True, prior=prior, reward_fn=fn)
    assert a.success == b.success and a.steps_taken == b.steps_taken
    assert a.final_reward == b.final_reward


# --- results and reports ----------------------------------------------------


def _fake_arm(name, flags, alpha=1.0):
    eps = tuple(EpisodeResult(task_id="stack", success=s, steps_taken=10 + i,
                              final_reward=1.0 if s else 0.3, wall_time=0.5)
                for i, s in enumerate(flags))
    return ArmResult(arm=name, alpha=alpha, epsilon=0.0,
                     seeds=tuple(range(len(flags))), episodes=eps)


def test_arm_result_exact_fraction():
    arm = _fake_arm("baseline", [True, False, True, False, False, True, True, True])
    assert arm.success_rate == 5 / 8
    assert arm.n == 8
    assert arm.mean_steps == sum(10 + i for i in range(8)) / 8


def test_arm_result_alignment_enforced():
    with pytest.raises(ValueError):
        ArmResult(arm="x", alpha=1.0, epsilon=0.0, seeds=(1, 2),
                  episodes=(EpisodeResult("stack", True, 5, 1.0, 0.1),))


def test_report_json_has_no_wall_time(run_config):
    arms = (_fake_arm("baseline", [True, False]),
            _fake_arm("reasoner", [True, True], alpha=0.6))
    report = BenchReport(kind="benchmark", config=run_config, arms=arms)
    doc = json.loads(report.to_json())
    assert "wall_time" not in json.dumps(doc)
    assert doc["paired_diff"] == pytest.approx(0.5)
    assert doc["arms"][0]["episodes"][0].keys() >= {"seed", "success", "steps_taken"}


def test_report_csv_shape(run_config):
    arms = (_fake_arm("baseline", [True, False, True]),
            _fake_arm("reasoner", [True, True, True], alpha=0.6))
    report = BenchReport(kind="benchmark", config=run_config, arms=arms)
    lines = report.to_csv().splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1].startswith("baseline,1.0,0.0,")
    assert lines[2].startswith("reasoner,0.6,0.0,")
    # repr floats round-trip exactly
    assert float(lines[1].split(",")[3]) == 2 / 3


def test_report_arm_lookup(run_config):
    arms = (_fake_arm("baseline", [True]),
            _fake_arm("reasoner", [True], alpha=0.2),
            _fake_arm("reasoner", [False], alpha=0.8))
    report = BenchReport(kind="alpha-sweep", config=run_config, arms=arms)
    assert report.arm("reasoner", alpha=0.8).success_rate == 0.0
    with pytest.raises(KeyError):
        report.arm("reasoner", alpha=0.5)
    assert report.paired_diff is None  # ambiguous: two reasoner arms


def test_write_report_round_trip(tmp_path, run_config):
    arms = (_fake_arm("baseline", [True, False]),)
    report = BenchReport(kind="benchmark", config=run_config, arms=arms)
    jp, cp = tmp_path / "report.json", tmp_path / "report.csv"
    write_report(report, jp, cp)
    assert json.loads(jp.read_text())["kind"] == "benchmark"
    assert cp.read_text() == report.to_csv()


# --- workers and reproducibility ---------------------------------------------


def test_resolve_workers_env_cap(monkeypatch):
    monkeypatch.delenv("REASONER_THREADS", raising=False)
    assert resolve_workers(3) == 3
    monkeypatch.setenv("REASONER_THREADS", "2")
    assert resolve_workers(8) == 2
    assert resolve_workers(1) == 1
    monkeypatch.setenv("REASONER_THREADS", "0")
    assert resolve_workers(8) == 1  # floor at one worker
    monkeypatch.delenv("REASONER_THREADS")
    assert resolve_workers() >= 1


@pytest.mark.parametrize("value", ["two", "2.0", "1e3"])
def test_resolve_workers_rejects_a_non_integer_cap(monkeypatch, value):
    monkeypatch.setenv("REASONER_THREADS", value)
    with pytest.raises(ValueError, match=f"REASONER_THREADS.*{value!r}"):
        resolve_workers(2)


def test_benchmark_byte_identical_across_workers(run_config, prior, reward_model):
    cfg = _tiny_config(run_config, n=4)
    serial = la.run_benchmark(cfg, prior, reward_model, workers=1)
    parallel = la.run_benchmark(cfg, prior, reward_model, workers=2)
    assert serial.to_json() == parallel.to_json()
    assert serial.to_csv() == parallel.to_csv()


def test_benchmark_rerun_byte_identical(run_config, prior, reward_model):
    cfg = _tiny_config(run_config, n=4)
    a = la.run_benchmark(cfg, prior, reward_model, workers=1)
    b = la.run_benchmark(cfg, prior, reward_model, workers=1)
    assert a.to_json() == b.to_json()


# --- sweeps and ablations (structure at tiny n) -------------------------------


def test_benchmark_report_structure(run_config, prior, reward_model):
    cfg = _tiny_config(run_config, n=4)
    report = la.run_benchmark(cfg, prior, reward_model, workers=1)
    assert [a.arm for a in report.arms] == ["baseline", "reasoner"]
    assert report.kind == "benchmark"
    assert all(a.n == 4 for a in report.arms)
    assert report.paired_diff == (report.arm("reasoner").success_rate
                                  - report.arm("baseline").success_rate)
    base = report.arm("baseline")
    assert base.success_rate == sum(e.success for e in base.episodes) / base.n


def test_sweep_alpha_structure(run_config, prior, reward_model):
    cfg = _tiny_config(run_config, n=3)
    cfg = dataclasses.replace(cfg, alphas=(0.0, 1.0))
    report = la.sweep_alpha(cfg, prior, reward_model, workers=1)
    assert report.kind == "alpha-sweep"
    assert report.to_json_dict()["config"]["sweeps"]["alphas"] == [0.0, 1.0]
    assert [a.arm for a in report.arms] == ["baseline", "reasoner", "reasoner"]
    assert [a.alpha for a in report.arms] == [1.0, 0.0, 1.0]
    # the alpha=1.0 reasoner arm must replicate the baseline seed by seed
    base = report.arm("baseline")
    degenerate = report.arm("reasoner", alpha=1.0)
    for e0, e1 in zip(base.episodes, degenerate.episodes):
        assert e0.success == e1.success
        assert e0.steps_taken == e1.steps_taken


def test_ablate_sampling_structure(run_config, prior, reward_model):
    cfg = _tiny_config(run_config, n=3)
    report = la.ablate_sampling(cfg, prior, reward_model, workers=1)
    assert report.kind == "sampling-ablation"
    assert [a.arm for a in report.arms] == ["kde", "noise"]
    assert all(a.n == 3 for a in report.arms)


def test_ablate_reward_structure(run_config, prior, reward_model, demos):
    cfg = _tiny_config(run_config, n=3)
    bank = la.demo_reward_data(demos, cfg.reward_stride)
    report = la.ablate_reward(cfg, prior, reward_model, bank, workers=1)
    assert report.kind == "reward-ablation"
    assert [a.arm for a in report.arms] == ["regressor", "nearest-frame"]
    with pytest.raises(DataError):
        la.ablate_reward(cfg, prior, reward_model, [], workers=1)


def test_ablate_reward_rejects_a_bank_of_another_task_before_any_episode(
        run_config, prior, reward_model, monkeypatch):
    cfg = _tiny_config(run_config, n=2)
    pick_place = la.TaskSpec(kind=la.PickPlace())
    bank = [la.LabeledFrame(la.render_features(la.reset(pick_place, 0)), 0.0)]
    episodes = []
    monkeypatch.setattr(la.bench, "run_episode", lambda *a, **kw: episodes.append(a))
    with pytest.raises(ValueError, match=r"^demo bank with 15 features does not match task 'stack' "
                                         r"\(21 features\)$"):
        la.ablate_reward(cfg, prior, reward_model, bank, workers=1)
    assert episodes == []


def test_run_benchmark_rejects_a_reward_model_of_another_task_before_any_episode(
        run_config, prior, reward_model, monkeypatch):
    # the same feature length as the config's task, but fitted under another task's name
    cfg = _tiny_config(run_config, n=2)
    relabelled = dataclasses.replace(reward_model, task_kind="pick-place")
    episodes = []
    monkeypatch.setattr(la.bench, "run_episode", lambda *a, **kw: episodes.append(a))
    with pytest.raises(ValueError, match=r"^reward model fitted for task 'pick-place' does not match "
                                         r"task 'stack'$"):
        la.run_benchmark(cfg, prior, relabelled, workers=1)
    assert episodes == []


def test_sweep_model_error_structure(run_config, prior, reward_model):
    cfg = _tiny_config(run_config, n=3)
    cfg = dataclasses.replace(cfg, epsilons=(0.0, 0.02))
    report = la.sweep_model_error(cfg, prior, reward_model, workers=1)
    assert report.kind == "model-error-sweep"
    assert [a.arm for a in report.arms] == ["baseline", "reasoner", "reasoner"]
    assert [a.epsilon for a in report.arms] == [0.0, 0.0, 0.02]


def test_sweep_rejects_empty_grids(run_config, prior, reward_model):
    with pytest.raises(ValueError):
        la.sweep_alpha(dataclasses.replace(run_config, alphas=()), prior, reward_model)
    with pytest.raises(ValueError):
        la.sweep_model_error(dataclasses.replace(run_config, epsilons=()), prior, reward_model)


# --- arms are functions of their config ---------------------------------------


def _episodes(arm):
    return arm.to_dict()["episodes"]


@pytest.fixture(scope="module")
def benchmark_4(run_config, prior, reward_model):
    """``run_benchmark`` at the shipped config, 4 episodes per arm."""
    return la.run_benchmark(dataclasses.replace(run_config, n_episodes=4), prior, reward_model,
                            workers=1)


def test_arms_are_functions_of_their_config(benchmark_4, run_config, prior, reward_model, demos):
    # an arm run at the shipped search config gives the benchmark's reasoner
    # episodes whichever protocol runs it, and every baseline its baseline
    cfg = dataclasses.replace(run_config, n_episodes=4, alphas=(0.0, 0.6), epsilons=(0.0, 0.02))
    bank = la.demo_reward_data(demos, cfg.reward_stride)
    alpha = la.sweep_alpha(cfg, prior, reward_model, workers=1)
    error = la.sweep_model_error(cfg, prior, reward_model, workers=1)
    sampling = la.ablate_sampling(cfg, prior, reward_model, workers=1)
    rewards = la.ablate_reward(cfg, prior, reward_model, bank, workers=1)
    reasoner = _episodes(benchmark_4.arm("reasoner"))
    assert _episodes(alpha.arm("reasoner", alpha=0.6)) == reasoner
    assert _episodes(error.arm("reasoner", epsilon=0.0)) == reasoner
    assert _episodes(sampling.arm("kde")) == reasoner
    assert _episodes(rewards.arm("regressor")) == reasoner
    for report in (alpha, error):
        assert _episodes(report.arm("baseline")) == _episodes(benchmark_4.arm("baseline"))


def test_noise_arm_runs_the_noise_sampler(run_config, prior, reward_model):
    cfg = dataclasses.replace(run_config, n_episodes=4)
    ablation = la.ablate_sampling(cfg, prior, reward_model, workers=1)
    noise = dataclasses.replace(cfg, search=dataclasses.replace(cfg.search, sampler="noise"))
    benchmark = la.run_benchmark(noise, prior, reward_model, workers=1)
    assert _episodes(ablation.arm("noise")) == _episodes(benchmark.arm("reasoner"))


# --- pinned report bytes ------------------------------------------------------

# sha256 of ``to_json() + "\n" + to_csv()`` (the bytes ``write_report`` writes)
# for each protocol at the shipped config with 4 episodes per arm. A change
# that moves one of these changes what some report says; it must say why.
REPORT_DIGESTS = {
    "run_benchmark": "b90ad4786d58fcc0a9c23df6d6d0ea9d56f8d4d37f0462bd9617d7954484ac37",
    "sweep_alpha": "b8bd480ef12604d9574771a7d932830f5ca45d50352885646c057dae246095f0",
    "ablate_sampling": "499b0ec582a4b1f5375c317259c736e26c0cb79817792db3bd1fe3ae98d0dfaa",
    "ablate_reward": "4bd812732cb650c9ea84f517efd433bfecc45eea27da01d522403802d4afc647",
    "sweep_model_error": "cfff7bad917b68eaccf3b5f0be093f0992750c0f8b27e3a6341cab21be4f9cf7",
}


@pytest.mark.parametrize("protocol, workers", [*((name, 1) for name in REPORT_DIGESTS),
                                               ("sweep_alpha", 2)])
def test_report_bytes_are_pinned(protocol, workers, run_config, prior, reward_model, demos):
    cfg = dataclasses.replace(run_config, n_episodes=4)
    extra = (la.demo_reward_data(demos, cfg.reward_stride),) if protocol == "ablate_reward" else ()
    report = getattr(la, protocol)(cfg, prior, reward_model, *extra, workers=workers)
    report_bytes = (report.to_json() + "\n" + report.to_csv()).encode("utf-8")
    assert hashlib.sha256(report_bytes).hexdigest() == REPORT_DIGESTS[protocol]
