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
from .errors import DataError, are_numbers, parse_object, require_types
from .world import Observation


@dataclasses.dataclass(frozen=True)
class Trajectory:
    """A recorded episode: (observation, action) frames plus its outcome."""

    task_id: str
    frames: tuple[tuple[Observation, Action], ...]
    success: bool
    seed: int

    def __post_init__(self) -> None:
        require_types(self)
        object.__setattr__(self, "frames", tuple((o, a) for o, a in self.frames))
        if not self.frames:
            raise ValueError("a trajectory needs at least one frame")
        for i, (obs, _) in enumerate(self.frames):
            if obs.task.task_id != self.task_id:
                raise ValueError(f"task_id must be {obs.task.task_id!r}, the task of frame {i}, "
                                 f"got {self.task_id!r}")

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


def _frame(f: dict, tasks: dict) -> tuple[Observation, Action]:
    """A frame's observation and action; ``tasks`` is ``Observation.from_dict``'s memo."""
    action = f["action"]
    if not (are_numbers(action) and len(action) == ACTION_DIM):
        raise ValueError(f"action must be a list of {ACTION_DIM} numbers, got {action!r}")
    obs = Observation.from_dict(f["obs"], tasks)
    try:
        return obs, Action(delta=action[:3], grip=action[3])
    except ValueError as exc:  # four numbers, but no valid action
        raise ValueError(f"action must be a valid action ({exc}), got {action!r}") from None


def read_trajectories(path: str | Path) -> list[Trajectory]:
    """The file's trajectories; each distinct task dict in it is parsed once.

    Every field of a record and of its frames is checked as it is read, and a
    record or frame that does not parse is a DataError naming the file, the
    line, the frame and the key.
    """
    tasks: dict = {}
    out = []
    with open(path, "rb") as fh:
        for number, line in enumerate(fh, 1):
            if line.strip():
                where = f"{path} line {number}"
                record = parse_object(line, ("task_id", "seed", "success", "frames"), where)
                if not isinstance(record["frames"], list):
                    raise DataError(f"{where}: frames must be a list, got {record['frames']!r}")
                frames = []
                for i, f in enumerate(record["frames"]):
                    if not isinstance(f, dict):
                        raise DataError(f"{where} frame {i} must be a JSON object, got {type(f).__name__}")
                    try:
                        frames.append(_frame(f, tasks))
                    except KeyError as exc:
                        raise DataError(f"{where} frame {i}: missing key {exc.args[0]!r}") from None
                    except (TypeError, IndexError) as exc:
                        raise DataError(f"{where} frame {i}: malformed 'obs' ({exc})") from None
                    except ValueError as exc:
                        raise DataError(f"{where} frame {i}: {exc}") from None
                try:
                    out.append(Trajectory(record["task_id"], frames, record["success"], record["seed"]))
                except ValueError as exc:
                    raise DataError(f"{where}: {exc}") from None
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
            rows.append([v for a in acts[i:i + chunk_len] for v in (*a.delta, a.grip)])
    if not rows:
        raise DataError("no complete chunks in the demo set")
    return np.array(rows)
