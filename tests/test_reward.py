"""Progress labeling and the linear reward head."""

from __future__ import annotations

import json
import math
import pickle

import numpy as np
import pytest

import lookahead as la
from lookahead.errors import DataError
from lookahead.records import Trajectory
from lookahead.reward import (
    DEGENERATE_FALLBACK_LAMBDA,
    FrameBankScorer,
    LabeledFrame,
    RewardModel,
    downsample,
    fit_reward,
    label_progress,
    load_model,
    predict_reward,
    save_model,
)
from lookahead.world import render_features


def _traj(n_frames, task, seed=0):
    obs = la.reset(task, seed)
    frames = []
    for _ in range(n_frames):
        a = la.Action((0.001, 0.0, 0.0), 0.0)
        frames.append((obs, a))
        obs = la.step(obs, a)
    return Trajectory(task_id="stack", seed=seed, frames=tuple(frames), success=True)


def _planted_data(rng, n=60, dim=6):
    """Synthetic full-rank features with labels from a known linear rule."""
    w_true = rng.uniform(-0.4, 0.4, dim)
    bias = 0.5
    feats = rng.uniform(-0.5, 0.5, (n, dim))
    labels = np.clip(feats @ w_true + bias, 0.0, 1.0)
    keep = (feats @ w_true + bias > 0.02) & (feats @ w_true + bias < 0.98)
    data = [LabeledFrame(f, float(l)) for f, l in zip(feats[keep], labels[keep])]
    return data, np.append(w_true, bias)


def test_downsample_keeps_last_frame(stack_task):
    traj = _traj(10, stack_task)
    frames = downsample(traj, 4)
    assert [f.step_index for f in frames] == [0, 4, 8, 9]


def test_downsample_stride_one_keeps_all(stack_task):
    traj = _traj(7, stack_task)
    assert len(downsample(traj, 1)) == 7


def test_downsample_large_stride(stack_task):
    traj = _traj(10, stack_task)
    frames = downsample(traj, 100)
    assert [f.step_index for f in frames] == [0, 9]


def test_downsample_rejects_bad_stride(stack_task):
    with pytest.raises(ValueError):
        downsample(_traj(5, stack_task), 0)


def test_label_progress_values(stack_task):
    frames = [la.reset(stack_task, i) for i in range(10)]
    data = label_progress(frames)
    assert data[0].label == 0.0
    assert data[5].label == 5 / 9
    assert data[9].label == 1.0


def test_label_progress_quarters(stack_task):
    frames = [la.reset(stack_task, i) for i in range(5)]
    labels = [f.label for f in label_progress(frames)]
    assert labels == [0.0, 0.25, 0.5, 0.75, 1.0]


def test_label_progress_needs_two_frames(stack_task):
    with pytest.raises(DataError):
        label_progress([la.reset(stack_task, 0)])


def test_fit_recovers_planted_weights():
    rng = np.random.default_rng(21)
    data, w_true = _planted_data(rng)
    model = fit_reward(data, ridge_lambda=0.0)
    assert np.allclose(model.weights, w_true, atol=1e-8)


def test_fit_stationarity_residual():
    rng = np.random.default_rng(22)
    for lam in (0.0, 1e-3, 1.0):
        data, _ = _planted_data(rng)
        model = fit_reward(data, ridge_lambda=lam)
        x = np.column_stack([np.stack([f.features for f in data]),
                             np.ones(len(data))])
        y = np.array([f.label for f in data])
        grad = x.T @ (x @ model.weights - y) + model.ridge_lambda * model.weights
        assert np.abs(grad).max() <= 1e-8


def test_fit_constant_labels_yield_bias_only():
    rng = np.random.default_rng(23)
    feats = rng.uniform(-0.5, 0.5, (40, 4))
    data = [LabeledFrame(f, 0.7) for f in feats]
    model = fit_reward(data, ridge_lambda=1e-6)
    assert np.abs(model.weights[:-1]).max() < 1e-3
    assert abs(model.weights[-1] - 0.7) < 1e-3


def test_fit_train_mse_monotone_in_lambda():
    rng = np.random.default_rng(24)
    data, _ = _planted_data(rng)
    noisy = [LabeledFrame(f.features,
                          float(np.clip(f.label + rng.normal(0, 0.05), 0, 1)))
             for f in data]
    mses = [fit_reward(noisy, ridge_lambda=lam).train_mse
            for lam in (0.0, 0.01, 0.1, 1.0, 10.0)]
    assert all(a <= b + 1e-15 for a, b in zip(mses, mses[1:]))


def test_fit_degenerate_design_falls_back():
    rng = np.random.default_rng(25)
    base = rng.uniform(-0.5, 0.5, (30, 3))
    feats = np.column_stack([base, base[:, 0] + base[:, 1]])  # exact collinearity
    data = [LabeledFrame(f, float(np.clip(f[0] + 0.5, 0, 1))) for f in feats]
    with pytest.warns(RuntimeWarning):
        model = fit_reward(data, ridge_lambda=0.0)
    assert model.ridge_lambda == DEGENERATE_FALLBACK_LAMBDA


def test_fit_preconditions():
    rng = np.random.default_rng(26)
    data, _ = _planted_data(rng)
    with pytest.raises(ValueError):
        fit_reward(data, ridge_lambda=-1.0)
    with pytest.raises(DataError):
        fit_reward([])
    with pytest.raises(DataError):
        fit_reward(data[:4])  # fewer rows than weights
    mixed = data[:10] + [LabeledFrame(np.zeros(3), 0.5)]
    with pytest.raises(ValueError):
        fit_reward(mixed)


def test_predict_clamps_to_unit_interval(stack_task):
    obs = la.reset(stack_task, 30)
    dim = render_features(obs).size
    high = RewardModel(task_kind="stack", weights=np.zeros(dim + 1) + 0.0,
                       ridge_lambda=0.0)
    w = np.zeros(dim + 1)
    w[-1] = 5.0
    assert predict_reward(RewardModel("stack", w, 0.0), obs) == 1.0
    w[-1] = -5.0
    assert predict_reward(RewardModel("stack", w, 0.0), obs) == 0.0
    assert predict_reward(high, obs) == 0.0


def test_predict_layout_mismatch(stack_task):
    obs = la.reset(stack_task, 31)
    with pytest.raises(ValueError):
        predict_reward(RewardModel("stack", np.zeros(5), 0.0), obs)


def test_predict_equals_the_unsplit_formula_bit_for_bit(reward_model, demos):
    w = reward_model.weights
    for traj in demos[:5]:
        for obs, _ in traj.frames:
            want = min(1.0, max(0.0, float(render_features(obs) @ w[:-1] + w[-1])))
            assert predict_reward(reward_model, obs) == want


@pytest.mark.parametrize("kind", [la.Stack(), la.PickPlace(), la.FollowCircle()])
def test_dot_head_equals_matmul_bit_for_bit(kind):
    # predict_reward takes feats.dot(head); feats @ head is the formula
    n = render_features(la.reset(la.TaskSpec(kind=kind), 0)).size
    rng = np.random.default_rng(n)
    for _ in range(2000):
        scale = 10.0 ** rng.integers(-3, 4, size=2)
        feats = rng.normal(0.0, scale[0], size=n)
        head = RewardModel("stack", rng.normal(0.0, scale[1], size=n + 1), 0.0).head[0]
        assert feats.dot(head).tobytes() == (feats @ head).tobytes()


def test_model_weights_are_a_read_only_copy():
    w = np.array([0.1, 0.2, 0.3])
    model = RewardModel("stack", w, 0.0)
    w[-1] = 5.0
    assert model.weights[-1] == 0.3
    with pytest.raises(ValueError):
        model.weights[-1] = 1.0


def test_split_weights_are_pickled_with_the_model(reward_model, demos):
    again = pickle.loads(pickle.dumps(reward_model))
    assert again.head[0].tobytes() == reward_model.head[0].tobytes()
    assert again.head[1] == reward_model.head[1]
    frames = downsample(next(t for t in demos if t.success), 4)
    scores = [predict_reward(reward_model, f) for f in frames]
    assert [predict_reward(again, f) for f in frames] == scores
    assert any(0.0 < s < 1.0 for s in scores)  # not all clamped alike


@pytest.mark.parametrize("array", ["weights", "head"])
def test_model_arrays_stay_read_only_through_a_pickle(reward_model, array):
    again = pickle.loads(pickle.dumps(reward_model))
    for model in (reward_model, again):
        arr = model.weights if array == "weights" else model.head[0]
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = arr[0]


def test_predict_matches_trained_labels(reward_model, demos):
    # in-sample: the fitted head should track progress along a training demo
    traj = next(t for t in demos if t.success)
    frames = downsample(traj, 4)
    preds = [predict_reward(reward_model, f) for f in frames]
    assert preds[-1] > preds[0]


def test_nearest_frame_exact_hit(stack_task):
    frames = [la.reset(stack_task, s) for s in range(8)]
    bank = label_progress(frames)
    for i, obs in enumerate(frames):
        assert FrameBankScorer(bank)(obs) == bank[i].label


def test_nearest_frame_single_entry(stack_task):
    obs = la.reset(stack_task, 33)
    bank = [LabeledFrame(render_features(obs), 0.4)]
    other = la.reset(stack_task, 34)
    assert FrameBankScorer(bank)(other) == 0.4


def test_nearest_frame_matches_brute_force(stack_task):
    rng = np.random.default_rng(35)
    frames = [la.reset(stack_task, s) for s in range(40)]
    bank = label_progress(frames)
    feats = np.stack([f.features for f in bank])
    scorer = FrameBankScorer(bank)
    for trial in range(100):
        obs = la.reset(stack_task, 1000 + trial)
        q = render_features(obs)
        best = int(np.argmin(np.linalg.norm(feats - q, axis=1)))
        assert scorer(obs) == bank[best].label


def test_frame_bank_scorer_agrees_with_lookup(stack_task):
    frames = [la.reset(stack_task, s) for s in range(20)]
    bank = label_progress(frames)
    scorer = FrameBankScorer(bank)
    for trial in range(50):
        obs = la.reset(stack_task, 2000 + trial)
        # a linear scan in bank order: the first frame at the smallest distance
        q = render_features(obs)
        dists = [float(np.linalg.norm(f.features - q)) for f in bank]
        assert scorer(obs) == bank[dists.index(min(dists))].label


def test_nearest_frame_preconditions(stack_task):
    obs = la.reset(stack_task, 36)
    with pytest.raises(DataError):
        FrameBankScorer([])
    bank = [LabeledFrame(np.zeros(3), 0.5)]
    with pytest.raises(ValueError, match="feature length"):
        FrameBankScorer(bank)(obs)
    # a one-feature bank would broadcast against any observation without the check
    with pytest.raises(ValueError, match="feature length"):
        FrameBankScorer([LabeledFrame(np.zeros(1), 0.5)])(obs)


def test_model_json_round_trip(tmp_path):
    model = RewardModel(task_kind="stack",
                        weights=np.array([0.1, -0.2, 0.3]),
                        ridge_lambda=0.5, train_mse=0.01)
    path = tmp_path / "reward.json"
    save_model(model, path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert set(doc) == {"task_kind", "ridge_lambda", "weights"}
    again = load_model(path)
    assert again.task_kind == model.task_kind
    assert again.ridge_lambda == model.ridge_lambda
    assert np.array_equal(again.weights, model.weights)
    assert again.train_mse is None  # training diagnostics stay out of the file


def test_model_save_load_round_trip(tmp_path):
    model = RewardModel("stack", np.linspace(-1, 1, 22), 1.0)
    p = tmp_path / "reward.json"
    la.save_model(model, p)
    again = la.load_model(p)
    assert np.array_equal(again.weights, model.weights)


def test_reward_model_validation():
    with pytest.raises(ValueError):
        RewardModel("stack", np.array([1.0]), 0.0)
    with pytest.raises(ValueError):
        RewardModel("stack", np.array([1.0, 2.0]), -0.5)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_reward_model_rejects_non_finite_weights(tmp_path, bad):
    with pytest.raises(ValueError, match="^weights must be finite$"):
        RewardModel("stack", np.array([0.5, bad, 0.5]), 1.0)
    path = tmp_path / "reward.json"
    path.write_text(json.dumps({"task_kind": "stack", "ridge_lambda": 1.0, "weights": [0.5, bad]}),
                    encoding="utf-8")
    with pytest.raises(ValueError, match="^weights must be finite$"):
        load_model(path)


def test_labeled_frame_validation():
    with pytest.raises(ValueError):
        LabeledFrame(np.zeros(3), 1.5)
    f = LabeledFrame([[1.0, 2.0]], 0.5)
    assert f.features.shape == (2,)  # raveled to a flat vector
