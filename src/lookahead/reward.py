"""Progress labels from demonstrations and a linear reward head over features.

Frames of a successful demo are labeled with linear progress i/(M-1), so the
first frame scores 0 and the last scores 1 (a 10-frame demo gives its index-5
frame 5/9). A ridge regression from rendered state features to those labels
then scores arbitrary states during search. ``FrameBankScorer``, a
nearest-demo-frame lookup, is the ablation baseline. Both scorers are plain
picklable callables of one observation: ``functools.partial(predict_reward,
model)`` and ``FrameBankScorer(bank)``.
"""

from __future__ import annotations

import dataclasses
import json
import warnings
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DataError, parse_object, require_numbers, require_types
from .records import Trajectory
from .world import Observation, render_features

# lambda used when a rank-deficient design is fit with ridge_lambda = 0
DEGENERATE_FALLBACK_LAMBDA = 1e-6


@dataclasses.dataclass(frozen=True)
class LabeledFrame:
    """One training pair: rendered features and a progress label in [0, 1]."""

    features: np.ndarray
    label: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "features", np.asarray(self.features, dtype=float).ravel())
        if not 0.0 <= self.label <= 1.0:
            raise ValueError("label must lie in [0, 1]")


@dataclasses.dataclass(frozen=True)
class RewardModel:
    """Linear reward head: weights over features plus a trailing bias.

    ``head``, the (feature weights, bias) split of ``weights``, is a plain
    attribute built with the model and pickled with it. Its array and
    ``weights`` are read-only, in an unpickled model too.
    """

    task_kind: str
    weights: np.ndarray
    ridge_lambda: float
    train_mse: float | None = None

    def __post_init__(self) -> None:
        require_types(self)
        weights = np.array(self.weights, dtype=float).ravel()
        weights.flags.writeable = False  # an own, fixed copy: head is derived from it
        object.__setattr__(self, "weights", weights)
        if self.weights.size < 2:
            raise ValueError("weights must cover at least one feature plus the bias")
        if not np.isfinite(weights).all():
            raise ValueError("weights must be finite")
        if self.ridge_lambda < 0:
            raise ValueError("ridge_lambda must be non-negative")
        object.__setattr__(self, "head", (weights[:-1], float(weights[-1])))

    def __setstate__(self, state: dict) -> None:
        # unpickled arrays come back writeable: fix them again
        self.__dict__.update(state)
        for arr in (self.weights, self.head[0]):
            arr.flags.writeable = False


def downsample(traj: Trajectory, stride: int) -> list[Observation]:
    """Every stride-th observation, always keeping the final frame.

    A 10-frame trajectory at stride 4 keeps indices {0, 4, 8, 9}.
    """
    if stride < 1:
        raise ValueError("stride must be >= 1")
    if len(traj) == 0:
        raise DataError("cannot downsample an empty trajectory")
    idx = list(range(0, len(traj), stride))
    if idx[-1] != len(traj) - 1:
        idx.append(len(traj) - 1)
    return [traj.frames[i][0] for i in idx]


def label_progress(frames: Sequence[Observation]) -> list[LabeledFrame]:
    """Linear progress labels i/(M-1) over an ordered frame sequence."""
    m = len(frames)
    if m < 2:
        raise DataError("need at least 2 frames to label progress")
    return [LabeledFrame(render_features(obs), i / (m - 1)) for i, obs in enumerate(frames)]


def fit_reward(
    data: Sequence[LabeledFrame],
    ridge_lambda: float = DEGENERATE_FALLBACK_LAMBDA,
    task_kind: str = "generic",
) -> RewardModel:
    """Ridge regression of labels on [features, 1] via the normal equations.

    Solves (X^T X + lambda I) w = X^T y with one refinement pass, so the
    stationarity residual ||X^T (X w - y) + lambda w||_inf stays near machine
    precision. A rank-deficient design at lambda = 0 falls back to a small
    positive lambda with a warning instead of failing.
    """
    if ridge_lambda < 0:
        raise ValueError("ridge_lambda must be non-negative")
    if not data:
        raise DataError("cannot fit a reward model on an empty dataset")
    feat_dim = data[0].features.size
    if any(f.features.size != feat_dim for f in data):
        raise ValueError("inconsistent feature lengths in the training data")
    if len(data) < feat_dim + 1:
        raise DataError(f"need at least {feat_dim + 1} frames to fit {feat_dim + 1} weights")

    x = np.column_stack([np.stack([f.features for f in data]), np.ones(len(data))])
    y = np.array([f.label for f in data])
    lam = float(ridge_lambda)
    if lam == 0.0 and np.linalg.matrix_rank(x) < x.shape[1]:
        warnings.warn(
            f"design matrix is rank deficient; refitting with lambda={DEGENERATE_FALLBACK_LAMBDA}",
            RuntimeWarning,
            stacklevel=2,
        )
        lam = DEGENERATE_FALLBACK_LAMBDA

    a = x.T @ x + lam * np.eye(x.shape[1])
    b = x.T @ y
    w = np.linalg.solve(a, b)
    for _ in range(2):  # iterative refinement keeps the gradient residual tiny
        w = w + np.linalg.solve(a, b - a @ w)
    mse = float(np.mean((x @ w - y) ** 2))
    return RewardModel(task_kind=task_kind, weights=w, ridge_lambda=lam, train_mse=mse)


def predict_reward(model: RewardModel, obs: Observation) -> float:
    """Predicted progress for a state, clamped to [0, 1]."""
    feats = render_features(obs)
    head, bias = model.head
    if feats.size != head.size:
        raise ValueError(
            f"feature length {feats.size} does not match model with {head.size} feature weights"
        )
    raw = float(feats.dot(head)) + bias  # feats @ head, bit for bit, without the ufunc dispatch
    return min(1.0, max(0.0, raw))


class FrameBankScorer:
    """Nearest-demo-frame lookup over a prestacked bank, the reward ablation's scorer.

    Scores a state with the label of the bank frame nearest in feature space;
    ties take the lowest index.
    """

    def __init__(self, demo_bank: Sequence[LabeledFrame]):
        if not demo_bank:
            raise DataError("the demo bank is empty")
        self.features = np.stack([f.features for f in demo_bank])
        self.labels = np.array([f.label for f in demo_bank])

    def __call__(self, obs: Observation) -> float:
        feats = render_features(obs)
        if feats.size != self.features.shape[1]:
            raise ValueError("bank feature length does not match the observation")
        diff = self.features - feats
        d2 = np.einsum("nd,nd->n", diff, diff)
        return float(self.labels[int(np.argmin(d2))])


def save_model(model: RewardModel, path: str | Path) -> None:
    """Write the model's fields; ``train_mse`` is a training diagnostic and stays out."""
    text = json.dumps({
        "task_kind": model.task_kind,
        "ridge_lambda": model.ridge_lambda,
        "weights": model.weights.tolist(),
    })
    Path(path).write_text(text + "\n", encoding="utf-8")


def load_model(path: str | Path) -> RewardModel:
    doc = parse_object(Path(path).read_bytes(), ("task_kind", "weights", "ridge_lambda"), path)
    return RewardModel(
        task_kind=doc["task_kind"],
        weights=np.asarray(require_numbers(doc["weights"], path, "'weights'"), dtype=float),
        ridge_lambda=doc["ridge_lambda"],
    )
