"""Trajectory records: JSONL format, round-trips, action matrices."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

import lookahead as la
from lookahead.errors import DataError, parse_object
from lookahead.records import (
    EpisodeResult,
    Trajectory,
    action_matrix,
    read_trajectories,
    trajectory_record,
    write_trajectories,
)


def _tiny_traj(stack_task, n_frames=3, seed=11):
    obs = la.reset(stack_task, seed)
    frames = []
    for i in range(n_frames):
        a = la.Action((0.01, 0.0, 0.0), 0.0)
        frames.append((obs, a))
        obs = la.step(obs, a)
    return Trajectory(stack_task.task_id, tuple(frames), False, seed)


def test_trajectory_rejects_empty_frames(stack_task):
    with pytest.raises(ValueError):
        Trajectory(stack_task.task_id, (), True, 0)


def test_record_field_order(stack_task):
    rec = trajectory_record(_tiny_traj(stack_task))
    assert list(rec.keys()) == ["task_id", "seed", "success", "frames"]
    frame = rec["frames"][0]
    assert list(frame.keys()) == ["obs", "action"]
    assert len(frame["action"]) == 4


def test_jsonl_round_trip_is_bit_exact(tmp_path, stack_task):
    trajs = [_tiny_traj(stack_task, seed=s) for s in (1, 2, 3)]
    path = tmp_path / "t.jsonl"
    write_trajectories(path, trajs)
    again = read_trajectories(path)
    assert again == trajs

    # writing the decoded trajectories reproduces the file byte for byte
    path2 = tmp_path / "t2.jsonl"
    write_trajectories(path2, again)
    assert path.read_bytes() == path2.read_bytes()


def test_jsonl_one_record_per_line(tmp_path, stack_task):
    path = tmp_path / "t.jsonl"
    write_trajectories(path, [_tiny_traj(stack_task)])
    lines = path.read_text().splitlines()
    assert len(lines) == 1
    json.loads(lines[0])


def test_action_matrix_single_step(stack_task):
    traj = _tiny_traj(stack_task, n_frames=5)
    m = action_matrix([traj], chunk_len=1)
    assert m.shape == (5, 4)
    assert np.allclose(m[0], [0.01, 0, 0, 0])


def test_action_matrix_drops_partial_tail(stack_task):
    traj = _tiny_traj(stack_task, n_frames=5)
    m = action_matrix([traj], chunk_len=2)
    assert m.shape == (2, 8)  # 5 frames -> 2 whole chunks, tail dropped


def test_action_matrix_empty_is_error(stack_task):
    traj = _tiny_traj(stack_task, n_frames=1)
    with pytest.raises(DataError):
        action_matrix([traj], chunk_len=2)


def test_episode_record_excludes_wall_time():
    res = EpisodeResult(task_id="stack", success=True, steps_taken=12,
                        final_reward=1.0, wall_time=3.5)
    rec = res.to_record()
    assert "wall_time" not in rec
    assert rec["steps_taken"] == 12


def test_episode_result_bounds():
    with pytest.raises(ValueError):
        EpisodeResult(task_id="stack", success=True, steps_taken=1, final_reward=1.5)


def _record_edit(edit):
    """An edit of a demo file's text that applies ``edit`` to the record on its line 2."""
    def apply(text):
        lines = text.splitlines()
        lines[1] = json.dumps(edit(json.loads(lines[1])))
        return "\n".join(lines) + "\n"
    return apply


def _frame_edit(edit):
    """An edit of a demo file's text that applies ``edit`` to frame 1 of its line 2."""
    def on_record(record):
        record["frames"][1] = edit(record["frames"][1])
        return record
    return _record_edit(on_record)


def _drop(frame, *keys):
    frame = json.loads(json.dumps(frame))
    inner = frame
    for key in keys[:-1]:
        inner = inner[key]
    del inner[keys[-1]]
    return frame


def _set(frame, value, *keys):
    frame = json.loads(json.dumps(frame))
    inner = frame
    for key in keys[:-1]:
        inner = inner[key]
    inner[keys[-1]] = value
    return frame


# (edit of the demo file, the error's text after "<path> line 2 frame 1")
MALFORMED_FRAMES = {
    "obs-without-step-index": (_frame_edit(lambda f: _drop(f, "obs", "step_index")),
                               ": missing key 'step_index'"),
    "frame-is-a-list": (_frame_edit(lambda f: [f["obs"], f["action"]]),
                        " must be a JSON object, got list"),
    "frame-without-action": (_frame_edit(lambda f: _drop(f, "action")), ": missing key 'action'"),
    "two-element-action": (_frame_edit(lambda f: dict(f, action=f["action"][:2])),
                           ": action must be a list of 4 numbers, got [0.01, 0.0]"),
    "five-element-action": (_frame_edit(lambda f: dict(f, action=[0.01, 0.0, 0.0, 0.0, 0.5])),
                            ": action must be a list of 4 numbers, got [0.01, 0.0, 0.0, 0.0, 0.5]"),
    "two-coordinate-gripper-pos": (_frame_edit(lambda f: _set(f, [0.5, 0.5], "obs", "gripper_pos")),
                                   ": gripper_pos must be a list of 3 numbers, got (0.5, 0.5)"),
    "four-coordinate-object-pos": (
        _frame_edit(lambda f: _set(f, [0.6, 0.5, 0.02, 0.0], "obs", "objects", 1, "pos")),
        ": object 1: pos must be a list of 3 numbers, got (0.6, 0.5, 0.02, 0.0)"),
    "string-step-index": (_frame_edit(lambda f: _set(f, "1", "obs", "step_index")),
                          ": step_index must be an integer, got '1'"),
    "held-object-out-of-range": (_frame_edit(lambda f: _set(f, 7, "obs", "held_object")),
                                 ": held_object must be null or an object index below 2, got 7"),
    "string-in-action": (_frame_edit(lambda f: dict(f, action=["a", 0, 0, 0])),
                         ": action must be a list of 4 numbers, got ['a', 0, 0, 0]"),
    "nan-in-action": (_frame_edit(lambda f: dict(f, action=[math.nan, 0, 0, 0])),
                      ": action must be a list of 4 numbers, got [nan, 0, 0, 0]"),
    "delta-beyond-bound": (_frame_edit(lambda f: dict(f, action=[0.06, 0, 0, 0])),
                           ": action must be a valid action "
                           "(delta component outside the per-step bound 0.05), got [0.06, 0, 0, 0]"),
    "grip-beyond-one": (_frame_edit(lambda f: dict(f, action=[0, 0, 0, 2])),
                        ": action must be a valid action (grip must lie in [0, 1]), got [0, 0, 0, 2]"),
    "string-grip-closed": (_frame_edit(lambda f: _set(f, "yes", "obs", "grip_closed")),
                           ": grip_closed must be true or false, got 'yes'"),
    "string-waypoints-hit": (_frame_edit(lambda f: _set(f, "3", "obs", "waypoints_hit")),
                             ": waypoints_hit must be an integer, got '3'"),
    "bool-waypoints-hit": (_frame_edit(lambda f: _set(f, True, "obs", "waypoints_hit")),
                           ": waypoints_hit must be an integer, got True"),
    "negative-waypoints-hit": (_frame_edit(lambda f: _set(f, -1, "obs", "waypoints_hit")),
                               ": waypoints_hit must be a non-negative integer, got -1"),
    "string-coordinate": (_frame_edit(lambda f: _set(f, [0.5, "a", 0.2], "obs", "gripper_pos")),
                          ": gripper_pos must be a list of 3 numbers, got (0.5, 'a', 0.2)"),
    "bool-object-coordinate": (_frame_edit(lambda f: _set(f, [True, 0.5, 0.02], "obs", "objects", 1, "pos")),
                               ": object 1: pos must be a list of 3 numbers, got (True, 0.5, 0.02)"),
    "number-gripper-pos": (_frame_edit(lambda f: _set(f, 5, "obs", "gripper_pos")),
                           ": gripper_pos must be a list of 3 numbers, got 5"),
    "null-gripper-pos": (_frame_edit(lambda f: _set(f, None, "obs", "gripper_pos")),
                         ": gripper_pos must be a list of 3 numbers, got None"),
    "string-gripper-pos": (_frame_edit(lambda f: _set(f, "abc", "obs", "gripper_pos")),
                           ": gripper_pos must be a list of 3 numbers, got 'abc'"),
    "number-object-pos": (_frame_edit(lambda f: _set(f, 5, "obs", "objects", 1, "pos")),
                          ": object 1: pos must be a list of 3 numbers, got 5"),
    "null-object-pos": (_frame_edit(lambda f: _set(f, None, "obs", "objects", 1, "pos")),
                        ": object 1: pos must be a list of 3 numbers, got None"),
    "string-object-pos": (_frame_edit(lambda f: _set(f, "abc", "obs", "objects", 1, "pos")),
                          ": object 1: pos must be a list of 3 numbers, got 'abc'"),
    "string-half-size": (_frame_edit(lambda f: _set(f, "x", "obs", "objects", 0, "half_size")),
                         ": object 0: half_size must be a number, got 'x'"),
    "infinite-half-size": (_frame_edit(lambda f: _set(f, math.inf, "obs", "objects", 0, "half_size")),
                           ": object 0: half_size must be a number, got inf"),
    "string-in-delta": (_frame_edit(lambda f: dict(f, action=["0.01", 0, 0, 0])),
                        ": action must be a list of 4 numbers, got ['0.01', 0, 0, 0]"),
    "bool-grip": (_frame_edit(lambda f: dict(f, action=[0, 0, 0, True])),
                  ": action must be a list of 4 numbers, got [0, 0, 0, True]"),
    "misspelt-task-kind": (_frame_edit(lambda f: _set(f, "stak", "obs", "task", "kind")),
                           ": unknown task kind 'stak'"),
    "integer-beyond-the-float-range": (_frame_edit(lambda f: dict(f, action=[10 ** 400, 0, 0, 0])),
                                       f": action must be a list of 4 numbers, got [{10 ** 400}, 0, 0, 0]"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_FRAMES))
def test_malformed_frame_is_a_named_data_error(tmp_path, stack_task, case):
    edit, named = MALFORMED_FRAMES[case]
    path = tmp_path / "demos.jsonl"
    write_trajectories(path, [_tiny_traj(stack_task, seed=s) for s in (1, 2)])
    path.write_text(edit(path.read_text(encoding="utf-8")), encoding="utf-8")
    with pytest.raises(DataError) as err:
        la.load_demos(path)
    assert str(err.value) == f"{path} line 2 frame 1{named}"


# (edit of the record on line 2 of the demo file, the error's text after "<path> line 2")
MALFORMED_RECORDS = {
    "string-success": (lambda r: dict(r, success="no"), ": success must be true or false, got 'no'"),
    "string-seed": (lambda r: dict(r, seed="x"), ": seed must be an integer, got 'x'"),
    "integer-task-id": (lambda r: dict(r, task_id=5), ": task_id must be a string, got 5"),
    "task-id-of-another-task": (lambda r: dict(r, task_id="pick-place"),
                                ": task_id must be 'stack', the task of frame 0, got 'pick-place'"),
    "empty-frames": (lambda r: dict(r, frames=[]), ": a trajectory needs at least one frame"),
    "frames-not-a-list": (lambda r: dict(r, frames=5), ": frames must be a list, got 5"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_RECORDS))
def test_malformed_record_is_a_named_data_error(tmp_path, stack_task, case):
    edit, named = MALFORMED_RECORDS[case]
    path = tmp_path / "demos.jsonl"
    write_trajectories(path, [_tiny_traj(stack_task, seed=s) for s in (1, 2)])
    path.write_text(_record_edit(edit)(path.read_text(encoding="utf-8")), encoding="utf-8")
    with pytest.raises(DataError) as err:
        la.load_demos(path)
    assert str(err.value) == f"{path} line 2{named}"



def test_parse_object_returns_the_object():
    assert parse_object(b'{"a": 1, "b": [2]}', ("a", "b"), "f.json") == {"a": 1, "b": [2]}


@pytest.mark.parametrize("data, named", [
    (b'{"a": 1', "f.json: not valid JSON: Expecting ',' delimiter at char 7"),
    (b"", "f.json: not valid JSON: Expecting value at char 0"),
    (b'{"a": "\xe4"}', "f.json: not UTF-8 text: invalid continuation byte at byte 7"),
    (b"[1]", "f.json must be a JSON object, got list"),
    (b'{"a": 1}', "f.json: missing key 'b'"),
])
def test_parse_object_names_its_source_and_the_fault(data, named):
    with pytest.raises(DataError) as err:
        parse_object(data, ("a", "b"), "f.json")
    assert str(err.value) == named
