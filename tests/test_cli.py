"""End-to-end command-line pipeline in a temp directory."""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import pytest

import lookahead
from lookahead import bench
from lookahead.bench import RunConfig
from lookahead.cli import EVALUATIONS, main

TINY = {
    "task": {"kind": "stack"},
    "policy": {"eta": 0.004, "sigma": 0.005, "chunk_len": 1},
    "search": {"pool_size": 32, "visit_budget": 16, "max_depth": 2},
    "bench": {"n_episodes": 4, "base_seed": 0},
    "demos": {"n": 12, "seed": 7},
    "sweeps": {"alphas": [0.0, 1.0], "epsilons": [0.0, 0.02]},
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A config plus a fully prepared artifact directory."""
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "config.json"
    cfg.write_text(json.dumps(TINY), encoding="utf-8")
    out = root / "out"
    for cmd in ("gen-data", "fit-prior", "fit-reward"):
        assert main([cmd, "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    return root, cfg, out


def test_gen_data_writes_demo_files(workdir, capsys):
    _, cfg, out = workdir
    assert (out / "demos.jsonl").is_file()
    assert (out / "failures.jsonl").is_file()
    assert (out / "prior.json").is_file()
    assert (out / "reward.json").is_file()


def test_run_produces_report(workdir, capsys):
    _, cfg, out = workdir
    assert main(["run", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    captured = capsys.readouterr()
    assert "paired_diff=" in captured.out
    doc = json.loads((out / "report.json").read_text())
    assert doc["kind"] == "benchmark"
    assert len(doc["arms"]) == 2
    csv = (out / "report.csv").read_text().splitlines()
    assert csv[0].startswith("arm,alpha,")
    assert len(csv) == 3


def test_rerun_is_byte_identical(workdir):
    _, cfg, out = workdir
    assert main(["run", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    first = (out / "report.json").read_bytes()
    assert main(["run", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    assert (out / "report.json").read_bytes() == first


def test_seed_override_changes_report(workdir):
    _, cfg, out = workdir
    assert main(["run", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    base = json.loads((out / "report.json").read_text())
    assert main(["run", "--config", str(cfg), "--out", str(out),
                 "--seed", "99", "--quiet"]) == 0
    other = json.loads((out / "report.json").read_text())
    base_seeds = [e["seed"] for e in base["arms"][0]["episodes"]]
    other_seeds = [e["seed"] for e in other["arms"][0]["episodes"]]
    assert base_seeds != other_seeds


def test_sweep_alpha_artifacts(workdir):
    _, cfg, out = workdir
    assert main(["sweep-alpha", "--config", str(cfg), "--out", str(out),
                 "--quiet"]) == 0
    doc = json.loads((out / "alpha_sweep.json").read_text())
    assert doc["kind"] == "alpha-sweep"
    assert [a["arm"] for a in doc["arms"]] == ["baseline", "reasoner", "reasoner"]


def test_ablation_and_error_sweep_artifacts(workdir):
    _, cfg, out = workdir
    assert main(["ablate-sampling", "--config", str(cfg), "--out", str(out),
                 "--quiet"]) == 0
    assert json.loads((out / "sampling_ablation.json").read_text())["kind"] == "sampling-ablation"
    assert main(["ablate-reward", "--config", str(cfg), "--out", str(out),
                 "--quiet"]) == 0
    assert json.loads((out / "reward_ablation.json").read_text())["kind"] == "reward-ablation"
    assert main(["sweep-model-error", "--config", str(cfg), "--out", str(out),
                 "--quiet"]) == 0
    assert json.loads((out / "model_error_sweep.json").read_text())["kind"] == "model-error-sweep"


def test_missing_artifacts_exit_one(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(TINY), encoding="utf-8")
    out = tmp_path / "empty"
    assert main(["fit-prior", "--config", str(cfg), "--out", str(out), "--quiet"]) == 1
    assert "DataError" in capsys.readouterr().err
    assert main(["run", "--config", str(cfg), "--out", str(out), "--quiet"]) == 1
    assert "fit-prior" in capsys.readouterr().err


def test_non_integer_worker_cap_exits_one(workdir, monkeypatch, capsys):
    _, cfg, out = workdir
    monkeypatch.setenv("REASONER_THREADS", "two")
    assert main(["run", "--config", str(cfg), "--out", str(out), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert "REASONER_THREADS" in err and "'two'" in err


def test_usage_errors_exit_two(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(TINY), encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "--config", str(cfg)])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["run"])  # --config is required
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", str(tmp_path / "nope.json")])
    assert exc.value.code == 2


@pytest.mark.parametrize("out", ["afile", "afile/sub"])
def test_out_that_cannot_be_a_directory_exits_two(tmp_path, capsys, out):
    # --out names an existing file, or a path below one: nothing is written
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(TINY), encoding="utf-8")
    (tmp_path / "afile").write_bytes(b"kept")
    before = sorted(tmp_path.rglob("*"))
    with pytest.raises(SystemExit) as exc:
        main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / out), "--quiet"])
    assert exc.value.code == 2
    assert f"--out {tmp_path / out} cannot be a directory" in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == before
    assert (tmp_path / "afile").read_bytes() == b"kept"


def test_invalid_config_exits_two(tmp_path):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json", encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", str(bad_json)])
    assert exc.value.code == 2

    latin_1 = tmp_path / "latin_1.json"
    doc = dict(TINY, task={"kind": "stäck"})
    latin_1.write_bytes(json.dumps(doc, ensure_ascii=False).encode("latin-1"))
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", str(latin_1)])
    assert exc.value.code == 2

    bad_value = tmp_path / "bad_value.json"
    doc = dict(TINY, bench={"n_episodes": 0})
    bad_value.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", str(bad_value), "--out", str(tmp_path / "o")])
    assert exc.value.code == 2


@pytest.mark.parametrize("doc, named", [
    (dict(TINY, serch={"k": 4}), "unknown config section 'serch'"),
    (dict(TINY, bench={"n_epsiodes": 4}), "unknown key 'n_epsiodes' in config section 'bench'"),
    (dict(TINY, sweeps={"alpha": [0.5]}), "unknown key 'alpha' in config section 'sweeps'"),
    (dict(TINY, task={"kind": "stack", "horizn": 5}), "unknown key 'horizn' for task kind 'stack'"),
    (dict(TINY, task={"kind": "stack", "zone_radius": 0.1}),
     "unknown key 'zone_radius' for task kind 'stack'"),
    (dict(TINY, bench=[]), "config section 'bench' must be a JSON object, got list"),
    ([], "a config must be a JSON object, got list"),
    (dict(TINY, bench={"n_episodes": 2.5}), "n_episodes must be an integer, got 2.5"),
    (dict(TINY, bench={"n_episodes": True}), "n_episodes must be an integer, got True"),
    (dict(TINY, search={"k": True}), "k must be an integer, got True"),
    (dict(TINY, sweeps={"alphas": []}), "the alpha and epsilon sweep grids must be non-empty"),
    (dict(TINY, policy={"eta": True}), "eta must be a number, got True"),
    (dict(TINY, search={"c": True}), "c must be a number, got True"),
    (dict(TINY, sweeps={"alphas": [True, 0.5]}), "alphas must be a list of numbers, got [True, 0.5]"),
    (dict(TINY, search={"alpha": "0.5"}), "alpha must be a number, got '0.5'"),
    (dict(TINY, sweeps={"alphas": [0.5, 1.5]}), "sweeps.alphas entry 1.5: alpha must lie in [0, 1]"),
    (dict(TINY, sweeps={"epsilons": [-0.1]}),
     "sweeps.epsilons entry -0.1: epsilon_model must be non-negative"),
    (dict(TINY, search={"c": math.nan}), "c must be a number, got nan"),
    (dict(TINY, prior={"bandwidth": "scott"}), "prior_bandwidth must be a number, got 'scott'"),
    (dict(TINY, search={"invoke_period": 1}), "unknown key 'invoke_period' in config section 'search'"),
    (dict(TINY, search={"blend_chunk": "first"}), "unknown key 'blend_chunk' in config section 'search'"),
    (dict(TINY, search={"noise_sigma": 0.01}), "unknown key 'noise_sigma' in config section 'search'"),
])
def test_unknown_config_keys_exit_two(tmp_path, monkeypatch, capsys, doc, named):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    episodes = []
    monkeypatch.setattr(bench, "run_episode", lambda *a, **kw: episodes.append(a))
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert f"invalid config: {named}" in capsys.readouterr().err
    assert episodes == []


@pytest.mark.parametrize("task, named", [
    ({"horizon": 50}, "missing key 'kind' in the task"),
    ({"kind": ["stack"]}, "unknown task kind ['stack']"),
    ({"kind": "pick-place", "zone_center": 5}, "zone_center must be a list of 3 numbers, got 5"),
    ({"kind": "pick-place", "zone_center": "abc"},
     "zone_center must be a list of 3 numbers, got 'abc'"),
])
def test_bad_task_section_exits_two_naming_it(tmp_path, capsys, task, named):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(dict(TINY, task=task)), encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert f"invalid config: {named}\n" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, sweeps", [
    ("sweep-alpha", {"alphas": [0.0, 1.5]}),
    ("sweep-model-error", {"epsilons": [0.0, -0.1]}),
])
def test_bad_sweep_point_exits_two_before_any_episode(workdir, monkeypatch, capsys, command, sweeps):
    root, _, out = workdir
    cfg = root / f"bad-grid-{command}.json"
    cfg.write_text(json.dumps(dict(TINY, sweeps=sweeps)), encoding="utf-8")
    episodes = []
    monkeypatch.setattr(bench, "run_episode", lambda *a, **kw: episodes.append(a))
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(cfg), "--out", str(out), "--quiet"])
    assert exc.value.code == 2
    assert "invalid config: sweeps." in capsys.readouterr().err
    assert episodes == []


@pytest.mark.parametrize("command", list(EVALUATIONS))
@pytest.mark.parametrize("change, named", [
    ({"policy": {"chunk_len": 2}}, "prior dimension 4 does not match chunk_len 2"),
    ({"task": {"kind": "pick-place"}},
     "reward model with 21 feature weights does not match task 'pick-place' (15 features)"),
])
def test_mismatched_artifacts_exit_one_before_any_episode(workdir, monkeypatch, capsys,
                                                          command, change, named):
    root, _, out = workdir
    cfg = root / f"mismatch-{command}.json"
    cfg.write_text(json.dumps(dict(TINY, **change)), encoding="utf-8")
    if command == "ablate-reward" and "task" in change:
        # the reward ablation reads the demos before its protocol checks the reward model
        named = f"{out / 'demos.jsonl'} holds demos of task 'stack', but the config's task is 'pick-place'"
    episodes = []
    monkeypatch.setattr(bench, "run_episode", lambda *a, **kw: episodes.append(a))
    assert main([command, "--config", str(cfg), "--out", str(out), "--quiet"]) == 1
    assert f"ValueError: {named}" in capsys.readouterr().err
    assert episodes == []


def test_reward_model_of_another_task_fails_run(workdir, tmp_path, monkeypatch, capsys):
    _, cfg, out = workdir
    bad = tmp_path / "out"
    bad.mkdir()
    for name in ("demos.jsonl", "prior.json"):
        (bad / name).write_bytes((out / name).read_bytes())
    model = json.loads((out / "reward.json").read_text(encoding="utf-8"))
    assert model["task_kind"] == "stack"
    (bad / "reward.json").write_text(json.dumps(dict(model, task_kind="pick-place")), encoding="utf-8")
    episodes = []
    monkeypatch.setattr(bench, "run_episode", lambda *a, **kw: episodes.append(a))
    assert main(["run", "--config", str(cfg), "--out", str(bad), "--quiet"]) == 1
    assert ("ValueError: reward model fitted for task 'pick-place' does not match task 'stack'"
            in capsys.readouterr().err)
    assert episodes == []


@pytest.mark.parametrize("value, token", [(math.nan, "NaN"), (math.inf, "Infinity")])
def test_non_finite_prior_exits_one_before_any_episode(workdir, tmp_path, monkeypatch, capsys,
                                                       value, token):
    _, cfg, out = workdir
    bad = tmp_path / "out"
    bad.mkdir()
    for name in ("demos.jsonl", "reward.json"):
        (bad / name).write_bytes((out / name).read_bytes())
    prior = json.loads((out / "prior.json").read_text(encoding="utf-8"))
    prior["points"][1][0] = value
    text = json.dumps(prior)
    assert token in text
    (bad / "prior.json").write_text(text, encoding="utf-8")
    episodes = []
    monkeypatch.setattr(bench, "run_episode", lambda *a, **kw: episodes.append(a))
    assert main(["run", "--config", str(cfg), "--out", str(bad), "--quiet"]) == 1
    assert "ValueError: support points must be finite" in capsys.readouterr().err
    assert episodes == []


def _without(key):
    """An edit of a one-object JSON file that drops ``key``."""
    return lambda text: json.dumps({k: v for k, v in json.loads(text).items() if k != key})


def _with_entry(key, index, value):
    """An edit of a one-object JSON file that sets ``doc[key][i][j]...`` to ``value``,
    for ``index == (i, j, ...)``."""
    def apply(text):
        doc = json.loads(text)
        *outer, last = index
        target = doc[key]
        for i in outer:
            target = target[i]
        target[last] = value
        return json.dumps(doc)
    return apply


def _edit_demo_line(number, edit):
    """An edit of a demo file's text that applies ``edit`` to the bytes of its line ``number``."""
    def apply(text):
        lines = text.encode("utf-8").split(b"\n")
        lines[number - 1] = edit(lines[number - 1])
        return b"\n".join(lines)
    return apply


@pytest.mark.parametrize("name, edit, named", [
    ("prior.json", _without("bandwidth"), "DataError: {path}: missing key 'bandwidth'"),
    ("prior.json", lambda text: "[1, 2]", "DataError: {path} must be a JSON object, got list"),
    ("prior.json", lambda text: text.replace('"bandwidth": 0.01', '"bandwidth": "0.01"'),
     "ValueError: bandwidth must be a number, got '0.01'"),
    ("reward.json", _without("ridge_lambda"), "DataError: {path}: missing key 'ridge_lambda'"),
    ("reward.json", lambda text: "null", "DataError: {path} must be a JSON object, got NoneType"),
    ("reward.json", lambda text: text.replace('"ridge_lambda": 1.0', '"ridge_lambda": NaN'),
     "ValueError: ridge_lambda must be a number, got nan"),
    ("reward.json", lambda text: text.replace('"weights": [', '"weights": [Infinity, ', 1),
     "ValueError: weights must be finite"),
    ("demos.jsonl",
     lambda text: text.split("\n", 1)[0] + '\n{"task_id": "stack", "seed": 0, "success": true}\n',
     "DataError: {path} line 2: missing key 'frames'"),
    ("demos.jsonl", lambda text: "[]\n", "DataError: {path} line 1 must be a JSON object, got list"),
    ("reward.json", lambda text: text.replace('"task_kind": "stack"', '"task_kind": 5'),
     "ValueError: task_kind must be a string, got 5"),
    ("prior.json", _with_entry("points", (1, 0), True),
     "DataError: {path}: 'points' row 1 entry 0 must be a number, got True"),
    ("prior.json", _with_entry("points", (2, 3), "x"),
     "DataError: {path}: 'points' row 2 entry 3 must be a number, got 'x'"),
    ("prior.json", _with_entry("points", (1,), [0.0, 0.0]),
     "DataError: {path}: stored points do not match the stored dimension: "
     "'points' row 1 holds 2 numbers, 'dim' is 4"),
    ("prior.json", _with_entry("points", (1,), 0.5),
     "DataError: {path}: 'points' row 1 must be a list of numbers, got 0.5"),
    ("prior.json", lambda text: text.replace('"dim": 4', '"dim": 4.0'),
     "DataError: {path}: 'dim' must be an integer, got 4.0"),
    ("reward.json", _with_entry("weights", (2,), "0.5"),
     "DataError: {path}: 'weights' entry 2 must be a number, got '0.5'"),
    ("reward.json", _with_entry("weights", (0,), True),
     "DataError: {path}: 'weights' entry 0 must be a number, got True"),
    ("reward.json", _with_entry("weights", (1,), "x"),
     "DataError: {path}: 'weights' entry 1 must be a number, got 'x'"),
    ("prior.json", lambda text: text[:100], "DataError: {path}: not valid JSON: "),
    ("reward.json", lambda text: text.replace(",", "", 1), "DataError: {path}: not valid JSON: "),
    ("demos.jsonl", _edit_demo_line(3, lambda line: b"{not json"),
     "DataError: {path} line 3: not valid JSON: "
     "Expecting property name enclosed in double quotes at char 1"),
    ("prior.json", lambda text: b"\xff" + text.encode("utf-8"),
     "DataError: {path}: not UTF-8 text: invalid start byte at byte 0"),
    ("reward.json", lambda text: text.encode("utf-16"),
     "DataError: {path}: not UTF-8 text: invalid start byte at byte 0"),
    ("demos.jsonl", _edit_demo_line(3, lambda line: line.replace(b"stack", b"st\xe4ck", 1)),
     "DataError: {path} line 3: not UTF-8 text: invalid continuation byte at byte"),
    ("prior.json", lambda text: '{"dim": 0, "bandwidth": 0.01, "points": [[], []]}',
     "ValueError: support points must form a non-empty (n, d) matrix"),
])
def test_malformed_artifact_exits_one_before_any_episode(workdir, tmp_path, monkeypatch, capsys,
                                                         name, edit, named):
    # the reward ablation reads all three artifacts
    _, cfg, out = workdir
    bad = tmp_path / "out"
    bad.mkdir()
    for artifact in ("demos.jsonl", "prior.json", "reward.json"):
        text = (out / artifact).read_text(encoding="utf-8")
        if artifact == name:
            edited = edit(text)
            assert edited != text
            text = edited
        (bad / artifact).write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    episodes = []
    monkeypatch.setattr(bench, "run_episode", lambda *a, **kw: episodes.append(a))
    assert main(["ablate-reward", "--config", str(cfg), "--out", str(bad), "--quiet"]) == 1
    assert named.format(path=bad / name) in capsys.readouterr().err
    assert episodes == []


def _edit_first_frame(edit):
    """An edit of a demo file's text that applies ``edit`` to the first frame of its line 1."""
    def apply(text):
        first, rest = text.split("\n", 1)
        record = json.loads(first)
        record["frames"][0] = edit(record["frames"][0])
        return json.dumps(record) + "\n" + rest
    return apply


@pytest.mark.parametrize("edit, named", [
    (lambda f: dict(f, obs={k: v for k, v in f["obs"].items() if k != "step_index"}),
     "line 1 frame 0: missing key 'step_index'"),
    (lambda f: [f["obs"], f["action"]], "line 1 frame 0 must be a JSON object, got list"),
    (lambda f: {"obs": f["obs"]}, "line 1 frame 0: missing key 'action'"),
    (lambda f: dict(f, action=f["action"][:2]), "line 1 frame 0: action must be a list of 4 numbers"),
    (lambda f: dict(f, action=[0.01, 0.0, 0.0, 0.0, 0.5]),
     "line 1 frame 0: action must be a list of 4 numbers, got [0.01, 0.0, 0.0, 0.0, 0.5]"),
    (lambda f: dict(f, obs=dict(f["obs"], gripper_pos=[0.5, 0.5])),
     "line 1 frame 0: gripper_pos must be a list of 3 numbers, got (0.5, 0.5)"),
    (lambda f: dict(f, obs=dict(f["obs"], objects=[f["obs"]["objects"][0],
                                                   dict(f["obs"]["objects"][1], pos=[0.6, 0.5, 0.02, 0.0])])),
     "line 1 frame 0: object 1: pos must be a list of 3 numbers, got (0.6, 0.5, 0.02, 0.0)"),
    (lambda f: dict(f, obs=dict(f["obs"], step_index="0")),
     "line 1 frame 0: step_index must be an integer, got '0'"),
    (lambda f: dict(f, obs=dict(f["obs"], held_object=7)),
     "line 1 frame 0: held_object must be null or an object index below 2, got 7"),
    (lambda f: dict(f, action=["a", 0, 0, 0]),
     "line 1 frame 0: action must be a list of 4 numbers, got ['a', 0, 0, 0]"),
    (lambda f: dict(f, action=[math.nan, 0, 0, 0]),
     "line 1 frame 0: action must be a list of 4 numbers, got [nan, 0, 0, 0]"),
    (lambda f: dict(f, action=[0.06, 0, 0, 0]),
     "line 1 frame 0: action must be a valid action (delta component outside the per-step bound 0.05), "
     "got [0.06, 0, 0, 0]"),
    (lambda f: dict(f, action=[0, 0, 0, 2]),
     "line 1 frame 0: action must be a valid action (grip must lie in [0, 1]), got [0, 0, 0, 2]"),
    (lambda f: dict(f, obs=dict(f["obs"], grip_closed="yes")),
     "line 1 frame 0: grip_closed must be true or false, got 'yes'"),
    (lambda f: dict(f, obs=dict(f["obs"], waypoints_hit="3")),
     "line 1 frame 0: waypoints_hit must be an integer, got '3'"),
    (lambda f: dict(f, obs=dict(f["obs"], gripper_pos=[0.5, "a", 0.2])),
     "line 1 frame 0: gripper_pos must be a list of 3 numbers, got (0.5, 'a', 0.2)"),
    (lambda f: dict(f, obs=dict(f["obs"], objects=[dict(f["obs"]["objects"][0], half_size="x"),
                                                   f["obs"]["objects"][1]])),
     "line 1 frame 0: object 0: half_size must be a number, got 'x'"),
], ids=["obs-without-step-index", "frame-is-a-list", "frame-without-action", "two-element-action",
        "five-element-action", "two-coordinate-gripper-pos", "four-coordinate-object-pos",
        "string-step-index", "held-object-out-of-range", "string-in-action", "nan-in-action",
        "delta-beyond-bound", "grip-beyond-one", "string-grip-closed", "string-waypoints-hit",
        "string-coordinate", "string-half-size"])
def test_malformed_demo_frame_fails_fit_prior(workdir, tmp_path, capsys, edit, named):
    _, cfg, out = workdir
    bad = tmp_path / "out"
    bad.mkdir()
    demos = bad / "demos.jsonl"
    demos.write_text(_edit_first_frame(edit)((out / "demos.jsonl").read_text(encoding="utf-8")),
                     encoding="utf-8")
    assert main(["fit-prior", "--config", str(cfg), "--out", str(bad), "--quiet"]) == 1
    assert f"DataError: {demos} {named}" in capsys.readouterr().err
    assert not (bad / "prior.json").exists()


@pytest.mark.parametrize("command", ["fit-prior", "fit-reward", "ablate-reward"])
def test_demos_of_another_task_fail_before_any_file_is_written(workdir, tmp_path, monkeypatch, capsys,
                                                               command):
    # stack artifacts beside pick-place demos, read with the stack config: no file is
    # written or overwritten
    _, cfg, out = workdir
    other = tmp_path / "other.json"
    other.write_text(json.dumps(dict(TINY, task={"kind": "pick-place"})), encoding="utf-8")
    bad = tmp_path / "out"
    assert main(["gen-data", "--config", str(other), "--out", str(bad), "--quiet"]) == 0
    for artifact in ("prior.json", "reward.json"):
        (bad / artifact).write_bytes((out / artifact).read_bytes())
    before = {p.name: p.read_bytes() for p in bad.iterdir()}
    episodes = []
    monkeypatch.setattr(bench, "run_episode", lambda *a, **kw: episodes.append(a))
    assert main([command, "--config", str(cfg), "--out", str(bad), "--quiet"]) == 1
    assert (f"ValueError: {bad / 'demos.jsonl'} holds demos of task 'pick-place', "
            f"but the config's task is 'stack'") in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in bad.iterdir()} == before
    assert episodes == []


def test_tiny_prior_bandwidth_fails_fit_prior(workdir, tmp_path, capsys):
    _, _, out = workdir
    bad = tmp_path / "out"
    bad.mkdir()
    (bad / "demos.jsonl").write_bytes((out / "demos.jsonl").read_bytes())
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(dict(TINY, prior={"bandwidth": 1e-90})), encoding="utf-8")
    assert main(["fit-prior", "--config", str(cfg), "--out", str(bad), "--quiet"]) == 1
    assert "ValueError: bandwidth 1e-90 is too small for dimension 4" in capsys.readouterr().err
    assert not (bad / "prior.json").exists()


@pytest.mark.parametrize("command", list(EVALUATIONS))
def test_tiny_stored_bandwidth_exits_one_before_any_episode(workdir, tmp_path, monkeypatch,
                                                            capsys, command):
    # the stored bandwidth is also the noise arm's width, so no protocol starts on one
    # that overflows
    _, cfg, out = workdir
    bad = tmp_path / "out"
    bad.mkdir()
    for name in ("demos.jsonl", "reward.json"):
        (bad / name).write_bytes((out / name).read_bytes())
    prior = json.loads((out / "prior.json").read_text(encoding="utf-8"))
    (bad / "prior.json").write_text(json.dumps(dict(prior, bandwidth=1e-90)), encoding="utf-8")
    episodes = []
    monkeypatch.setattr(bench, "run_episode", lambda *a, **kw: episodes.append(a))
    assert main([command, "--config", str(cfg), "--out", str(bad), "--quiet"]) == 1
    assert ("ValueError: bandwidth 1e-90 is too small for dimension 4: h ** -4 overflows"
            in capsys.readouterr().err)
    assert episodes == []


def test_readme_names_resolve_on_the_package():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    names = set(re.findall(r"\bla\.(\w+)", readme))
    assert names, "the README names no la.<name>"
    assert sorted(n for n in names if not hasattr(lookahead, n)) == []


def test_readme_example_config_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    example = readme.split("A minimal config:", 1)[1].split("```json", 1)[1].split("```", 1)[0]
    config = RunConfig.from_dict(json.loads(example))
    assert config.n_episodes == 200 and config.search.alpha == 0.6


@pytest.mark.parametrize("command, section, key, field", [
    ("run", "bench", "base_seed", "base_seed"),
    ("gen-data", "demos", "seed", "demo_seed"),
])
@pytest.mark.parametrize("seed", [10 ** 42, 2 ** 127, -2 ** 127 - 1],
                         ids=["10**42", "2**127", "-2**127-1"])
def test_oversized_seed_exits_two_naming_it(tmp_path, monkeypatch, capsys,
                                            command, section, key, field, seed):
    episodes = []
    monkeypatch.setattr(bench, "run_episode", lambda *a, **kw: episodes.append(a))
    named = f"invalid config: {field} must lie in [-2**127, 2**127), got {seed}"
    in_config, on_command_line = tmp_path / "in_config.json", tmp_path / "config.json"
    in_config.write_text(json.dumps(dict(TINY, **{section: {key: seed}})), encoding="utf-8")
    on_command_line.write_text(json.dumps(TINY), encoding="utf-8")
    for argv in (["--config", str(in_config)],
                 ["--config", str(on_command_line), "--seed", str(seed)]):
        with pytest.raises(SystemExit) as exc:
            main([command, *argv, "--out", str(tmp_path / "o"), "--quiet"])
        assert exc.value.code == 2
        assert named in capsys.readouterr().err
    assert episodes == []
    assert not (tmp_path / "o").exists()


def test_gen_data_seed_override(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(TINY), encoding="utf-8")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["gen-data", "--config", str(cfg), "--out", str(out_a), "--quiet"]) == 0
    assert main(["gen-data", "--config", str(cfg), "--out", str(out_b),
                 "--seed", "8", "--quiet"]) == 0
    assert (out_a / "demos.jsonl").read_bytes() != (out_b / "demos.jsonl").read_bytes()
