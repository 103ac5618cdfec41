"""Trajectory and episode records with their line-delimited JSON encoding.

One trajectory per line: {"task_id", "seed", "success", "frames": [...]} where
each frame is {"obs": {...}, "action": [d0, d1, d2, g]}. Floats are written at
full precision so a round-trip reproduces every value bit for bit.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Iterable

import numpy as np

from .actions import ACTION_DIM, Action
from .errors import DataError, require_keys
from .world import Observation


@dataclasses.dataclass(frozen=True)
class Trajectory:
    """A recorded episode: (observation, action) frames plus its outcome."""

    task_id: str
    frames: tuple[tuple[Observation, Action], ...]
    success: bool
    seed: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "frames", tuple((o, a) for o, a in self.frames))
        if not self.frames:
            raise ValueError("a trajectory needs at least one frame")

    def __len__(self) -> int:
        return len(self.frames)

    @property
    def actions(self) -> list[Action]:
        return [a for _, a in self.frames]


@dataclasses.dataclass(frozen=True)
class EpisodeResult:
    """Outcome of one seeded episode.

    ``wall_time`` is measured, not derived from the seed, so it is kept out of
    every serialized report (reports must be byte-identical across re-runs).
    """

    task_id: str
    success: bool
    steps_taken: int
    final_reward: float
    wall_time: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.final_reward <= 1.0:
            raise ValueError("final_reward must lie in [0, 1]")
        if self.steps_taken < 0:
            raise ValueError("steps_taken must be non-negative")

    def to_record(self) -> dict:
        return {
            "task_id": self.task_id,
            "success": self.success,
            "steps_taken": self.steps_taken,
            "final_reward": self.final_reward,
        }


def trajectory_record(traj: Trajectory) -> dict:
    """The JSON document for one trajectory; field order is part of the format."""
    return {
        "task_id": traj.task_id,
        "seed": traj.seed,
        "success": traj.success,
        "frames": [
            {"obs": obs.to_dict(), "action": [*act.delta, act.grip]}
            for obs, act in traj.frames
        ],
    }


def write_trajectories(path: str | Path, trajectories: Iterable[Trajectory]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for traj in trajectories:
            fh.write(json.dumps(trajectory_record(traj)) + "\n")


def _not_an_action(action: object) -> str:
    return f"'action' must be a list of {ACTION_DIM} numbers, got {action!r}"


def _frame_error(where: str, frames: object, index: int, exc: Exception) -> DataError:
    """The DataError for a record whose frame ``index`` failed to parse with ``exc``."""
    if not isinstance(frames, list):
        return DataError(f"{where}: 'frames' must be a list, got {type(frames).__name__}")
    frame = frames[index]
    where = f"{where} frame {index}"
    if not isinstance(frame, dict):
        return DataError(f"{where} must be a JSON object, got {type(frame).__name__}")
    if isinstance(exc, KeyError):
        return DataError(f"{where}: missing key {exc.args[0]!r}")
    if isinstance(exc, DataError):  # a check of the decoder, whose message names the key
        return DataError(f"{where}: {exc}")
    action = frame.get("action")
    if not (isinstance(action, list) and len(action) == ACTION_DIM
            and all(isinstance(v, (int, float)) for v in action)):
        return DataError(f"{where}: {_not_an_action(action)}")
    return DataError(f"{where}: malformed 'obs' ({exc})")


def read_trajectories(path: str | Path) -> list[Trajectory]:
    """The file's trajectories; each distinct task dict in it is parsed once.

    A record or frame that cannot be parsed, or whose action does not hold
    exactly 4 numbers that form a valid ``Action``, is a DataError naming the
    file, the line and the key; the frames are only examined once a parse failed.
    """
    tasks: dict = {}
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            if line.strip():
                where = f"{path} line {number}"
                record = require_keys(json.loads(line), ("task_id", "seed", "success", "frames"), where)
                frames = []
                try:
                    for f in record["frames"]:
                        action = f["action"]
                        if len(action) != ACTION_DIM:
                            raise DataError(_not_an_action(action))
                        obs = Observation.from_dict(f["obs"], tasks)
                        try:
                            act = Action(delta=tuple(action[:3]), grip=action[3])
                        except ValueError as exc:  # four values, but no valid action
                            raise DataError(f"'action' {action!r} is invalid: {exc}") from None
                        frames.append((obs, act))
                except (KeyError, TypeError, IndexError, DataError) as exc:
                    raise _frame_error(where, record["frames"], len(frames), exc) from None
                out.append(Trajectory(record["task_id"], frames, record["success"], record["seed"]))
    return out


def action_matrix(trajectories: Iterable[Trajectory], chunk_len: int = 1) -> np.ndarray:
    """Stack demo actions as rows of flattened chunks.

    With ``chunk_len`` > 1 consecutive actions are grouped into chunks and any
    partial tail chunk is dropped, so every row has the same dimension.
    """
    if chunk_len < 1:
        raise ValueError("chunk_len must be >= 1")
    rows = []
    for traj in trajectories:
        acts = traj.actions
        for i in range(0, len(acts) - chunk_len + 1, chunk_len):
            rows.append(np.concatenate([a.to_vector() for a in acts[i:i + chunk_len]]))
    if not rows:
        raise DataError("no complete chunks in the demo set")
    return np.stack(rows)
