"""Acceptance suite: one test per shipped claim, at the stated tolerance.

Each criterion prints its measured values so a verbose run doubles as a
results table. The expensive paired benchmarks run once at the shipped
defaults (Stack task, drift policy, 200 paired seeds) and are shared
between the criteria that consume them.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict

import numpy as np
import pytest
import scipy.optimize
import scipy.stats

import lookahead as la
from expert import ExpertPolicy
from lookahead.actions import flatten_chunk, unflatten_chunk
from lookahead.kde import density, fit_kde, sample, top_k_near
from lookahead.policies import DriftPolicy, PolicyParams, expert_action
from lookahead.reward import FrameBankScorer, LabeledFrame, fit_reward, label_progress
from lookahead.search import SearchConfig, SearchTrace, SearchTree, backpropagate, run_search, select_ucb
from lookahead.seeding import derive_seed
from lookahead.world import render_features


# --- shared expensive runs --------------------------------------------------


@pytest.fixture(scope="module")
def benchmark_report(run_config, prior, reward_model):
    t0 = time.perf_counter()
    report = la.run_benchmark(run_config, prior, reward_model, workers=1)
    return report, time.perf_counter() - t0


NO_ACTION = [0.0, 0.0, 0.0, 0.0]


def _tree(path, rewards, visits):
    """A search tree with the given path and per-level rewards and counts, not yet backed up."""
    return SearchTree(NO_ACTION, list(path), [[NO_ACTION] * len(r) for r in rewards],
                      [list(r) for r in rewards], [list(n) for n in visits],
                      [list(r) for r in rewards])


def _random_tree(rng, max_depth=4):
    """A random search-shaped tree: 1 to ``max_depth`` levels of 1 to 4 children,
    a random path, counts 1 to 5 and rewards drawn from U[0, 1]."""
    ks = [int(k) for k in rng.integers(1, 5, size=int(rng.integers(1, max_depth + 1)))]
    rewards = [[float(r) for r in rng.uniform(size=k)] for k in ks]
    visits = [[int(n) for n in rng.integers(1, 6, size=k)] for k in ks]
    return _tree([int(rng.integers(0, k)) for k in ks[:-1]], rewards, visits)


def _recompute(tree, d, j):
    """The backup equation at child j of level d, evaluated bottom-up from the leaves."""
    if d == len(tree.path) or j != tree.path[d]:
        return tree.rewards[d][j], tree.visits[d][j]
    total, weighted = 0, 0.0
    for ch in range(len(tree.rewards[d + 1])):
        q, n = _recompute(tree, d + 1, ch)
        total += n
        weighted += n * q
    return (total * tree.rewards[d][j] + weighted) / (total + total), total


# --- criterion 1 ------------------------------------------------------------


def test_criterion_1_equation_exactness():
    t0 = time.perf_counter()

    # action blending: 0.6 * (0.04, 0, 0) + 0.4 * (0, 0.02, 0)
    out = la.blend_actions(la.Action((0.04, 0.0, 0.0), 0.0),
                           la.Action((0.0, 0.02, 0.0), 0.0), 0.6)
    assert abs(out.delta[0] - 0.024) < 1e-9
    assert abs(out.delta[1] - 0.008) < 1e-9
    assert abs(out.delta[2]) < 1e-9

    # kernel density: closed-form peak and a two-point midpoint value
    for d, h in [(1, 0.5), (3, 0.2), (4, 1.0)]:
        prior = fit_kde(np.zeros((2, d)), h)
        peak = (2 * math.pi) ** (-d / 2) * h ** (-d)
        assert abs(density(prior, np.zeros(d)) - peak) < 1e-9 * peak
    two = fit_kde(np.array([[-1.0], [1.0]]), 1.0)
    assert abs(density(two, np.array([0.0])) - 0.24197072451914337) < 1e-9

    # backup equation: r=0.5 with one child (Q=1.0, N=2) -> 0.75
    tree = _tree([0], [[0.5], [1.0]], [[2], [2]])
    backpropagate(tree)
    assert abs(tree.values[0][0] - 0.75) < 1e-9

    # selection rule: the engine's scores must sit within 1e-9 of the hand
    # formula, probed at the decision boundary between two children
    c = 1.0 / math.sqrt(2.0)
    s_light = 0.5 + c * math.sqrt(math.log(9) / 2)
    flip = s_light - c * math.sqrt(math.log(9) / 9)
    for nudge, expect_heavy in ((1e-9, True), (-1e-9, False)):
        assert (select_ucb([flip + nudge, 0.5], [8, 1], c) == 0) == expect_heavy

    # whole-tree recomputation over 100 random trees at 1e-12
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(100):
        tree = _random_tree(rng)
        backpropagate(tree)
        for d, i in enumerate(tree.path):
            q, cnt = _recompute(tree, d, i)
            worst = max(worst, abs(tree.values[d][i] - q))
            assert abs(tree.values[d][i] - q) <= 1e-12
            assert tree.visits[d][i] == cnt

    dt = time.perf_counter() - t0
    print(f"\ncriterion 1: worst tree residual {worst:.2e}, {dt:.2f}s")
    assert dt < 10.0


# --- criterion 2 ------------------------------------------------------------


def test_criterion_2_oracle_equivalence(stack_task, prior, demos, run_config):
    t0 = time.perf_counter()

    # nearest-k selection vs brute force on 1000 random pools
    rng = np.random.default_rng(100)
    for _ in range(1000):
        d = int(rng.integers(1, 9))
        n = int(rng.integers(2, 40))
        anchor = rng.normal(size=d)
        cands = rng.normal(size=(n, d))
        k = int(rng.integers(1, n + 1))
        got = top_k_near(cands, k, anchor)
        order = np.argsort(np.linalg.norm(cands - anchor, axis=1), kind="stable")
        assert np.array_equal(got, cands[order[:k]])

    # two-candidate searches vs exhaustive enumeration
    cfg = SearchConfig(k=2, max_depth=1, pool_size=16, visit_budget=8)
    for seed in range(60):
        obs = la.reset(stack_task, seed)
        target = la.step(obs, la.Action((0.02, -0.01, 0.01), 0.0)).gripper_pos
        reward_fn = lambda o: math.exp(-math.dist(o.gripper_pos, target))  # noqa: B023
        chunk = ExpertPolicy().propose(obs)
        res = run_search(obs, chunk, prior, la.step, reward_fn, cfg, seed=seed)
        kids = [nd for nd in SearchTrace.from_tree(res).nodes if nd.depth == 1]
        scores = [reward_fn(la.step(obs, unflatten_chunk(np.asarray(nd.action), 1)[0]))
                  for nd in kids]
        best = kids[int(np.argmax(scores))]
        assert np.array_equal(res.action, np.asarray(best.action))

    # nearest-demo-frame lookup vs a linear scan
    bank = la.demo_reward_data(demos[:10], run_config.reward_stride)
    feats = np.stack([f.features for f in bank])
    scorer = FrameBankScorer(bank)
    for trial in range(300):
        obs = la.reset(stack_task, 3000 + trial)
        q = render_features(obs)
        idx = int(np.argmin(np.linalg.norm(feats - q, axis=1)))
        assert scorer(obs) == bank[idx].label

    dt = time.perf_counter() - t0
    print(f"\ncriterion 2: 1000 pools + 60 searches + 300 lookups exact, {dt:.2f}s")
    assert dt < 30.0


# --- criterion 3 ------------------------------------------------------------


def test_criterion_3_statistical_suite():
    t0 = time.perf_counter()

    # density normalization by trapezoidal quadrature
    pts = np.array([[-0.1], [0.0], [0.15], [0.3]])
    h = 0.08
    prior = fit_kde(pts, h)
    grid = np.linspace(pts.min() - 8 * h, pts.max() + 8 * h, 20001)
    mass_1d = float(np.trapezoid(density(prior, grid[:, None]), grid))
    assert abs(mass_1d - 1.0) < 0.02

    pts2 = np.array([[0.0, 0.0], [0.2, -0.1], [-0.15, 0.1]])
    prior2 = fit_kde(pts2, 0.1)
    axis = np.linspace(-0.8, 0.9, 401)
    xx, yy = np.meshgrid(axis, axis)
    dens = density(prior2, np.column_stack([xx.ravel(), yy.ravel()]))
    step2 = axis[1] - axis[0]
    mass_2d = float(dens.sum() * step2 * step2)
    assert abs(mass_2d - 1.0) < 0.02

    # sampling distribution: equiprobable-bin chi-square on a 1-D prior
    n_samples, n_bins = 20000, 20
    draws = sample(prior, n_samples, seed=5).ravel()

    def cdf(x):
        return float(np.mean(scipy.stats.norm.cdf((x - pts.ravel()) / h)))

    edges = [-np.inf]
    for i in range(1, n_bins):
        edges.append(scipy.optimize.brentq(
            lambda x, q=i / n_bins: cdf(x) - q,
            pts.min() - 10 * h, pts.max() + 10 * h))
    edges.append(np.inf)
    observed = np.histogram(draws, bins=edges)[0]
    chi2 = scipy.stats.chisquare(observed)
    assert chi2.pvalue > 0.01

    # drift bias growth: RMS norm after t steps within 30% of eta*sqrt(t)
    eta, t_steps, runs = 0.004, 64, 1000
    task = la.TaskSpec(kind=la.FollowCircle())
    obs = la.reset(task, 0)
    sq = 0.0
    for r in range(runs):
        d = DriftPolicy(PolicyParams(eta=eta, sigma=0.0))
        d.reset(r)
        for _ in range(t_steps):
            d.propose(obs)
        sq += sum(b * b for b in d._bias)
    ratio = math.sqrt(sq / runs) / (eta * math.sqrt(t_steps))
    assert abs(ratio - 1.0) < 0.30

    dt = time.perf_counter() - t0
    print(f"\ncriterion 3: mass {mass_1d:.6f}/{mass_2d:.6f}, "
          f"chi2 p={chi2.pvalue:.3f}, drift ratio {ratio:.3f}, {dt:.2f}s")
    assert dt < 60.0


# --- criterion 4 ------------------------------------------------------------


def test_criterion_4_reward_shaping(stack_task, reward_model):
    t0 = time.perf_counter()

    # a 10-frame demo labels its index-5 frame 5/9
    frames = [la.reset(stack_task, s) for s in range(10)]
    labels = label_progress(frames)
    assert labels[5].label == 5 / 9

    # planted linear rule recovered through the fitting path
    rng = np.random.default_rng(101)
    w_true = rng.uniform(-0.4, 0.4, 6)
    feats = rng.uniform(-0.5, 0.5, (80, 6))
    raw = feats @ w_true + 0.5
    keep = (raw > 0.02) & (raw < 0.98)
    data = [LabeledFrame(f, float(v)) for f, v in zip(feats[keep], raw[keep])]
    model = fit_reward(data, ridge_lambda=0.0)
    err = float(np.abs(model.weights - np.append(w_true, 0.5)).max())
    assert err < 1e-8

    # ranking quality on held-out expert rollouts never seen in training
    rhos = []
    for i in range(50):
        seed = derive_seed(1234, "heldout", i)
        policy = ExpertPolicy()
        policy.reset(seed)
        obs = la.reset(stack_task, seed)
        preds = [la.predict_reward(reward_model, obs)]
        while not la.is_success(obs) and obs.step_index < stack_task.horizon:
            obs = la.step(obs, expert_action(obs))
            preds.append(la.predict_reward(reward_model, obs))
        assert la.is_success(obs)
        rhos.append(scipy.stats.spearmanr(preds, range(len(preds))).statistic)
    mean_rho = float(np.mean(rhos))
    assert mean_rho >= 0.9

    dt = time.perf_counter() - t0
    print(f"\ncriterion 4: planted err {err:.2e}, "
          f"held-out Spearman {mean_rho:.3f}, {dt:.2f}s")
    assert dt < 30.0


# --- criterion 5 ------------------------------------------------------------


def test_criterion_5_directional_benchmark(benchmark_report, run_config):
    report, dt = benchmark_report
    assert run_config.n_episodes == 200
    assert run_config.search.alpha == 0.6
    base = report.arm("baseline").success_rate
    reas = report.arm("reasoner").success_rate
    diff = report.paired_diff
    print(f"\ncriterion 5: baseline {base:.3f}, reasoner {reas:.3f}, "
          f"diff {diff:+.3f}, {dt:.1f}s")
    assert diff >= 0.05
    assert dt < 600.0


# --- criterion 6 ------------------------------------------------------------


def test_criterion_6_alpha_sweep(run_config, prior, reward_model):
    t0 = time.perf_counter()
    report = la.sweep_alpha(run_config, prior, reward_model, workers=1)
    rates = {a: report.arm("reasoner", alpha=a).success_rate
             for a in run_config.alphas}
    interior = [a for a in run_config.alphas if 0.0 < a < 1.0]
    endpoints = max(rates[0.0], rates[1.0])
    best_interior = max(rates[a] for a in interior)
    assert best_interior >= endpoints  # weak dominance over both endpoints

    base = report.arm("baseline")
    degenerate = report.arm("reasoner", alpha=1.0)
    for e0, e1 in zip(base.episodes, degenerate.episodes):
        assert e0.success == e1.success and e0.steps_taken == e1.steps_taken

    dt = time.perf_counter() - t0
    grid = " ".join(f"{a:g}:{rates[a]:.3f}" for a in run_config.alphas)
    print(f"\ncriterion 6: {grid}, alpha=1 seed-identical, {dt:.1f}s")
    assert dt < 1800.0


# --- criterion 7 ------------------------------------------------------------


def test_criterion_7_sampling_ablation(run_config, prior, reward_model):
    t0 = time.perf_counter()
    report = la.ablate_sampling(run_config, prior, reward_model, workers=1)
    kde_rate = report.arm("kde").success_rate
    noise_rate = report.arm("noise").success_rate
    dt = time.perf_counter() - t0
    print(f"\ncriterion 7: kde {kde_rate:.3f} vs noise {noise_rate:.3f}, {dt:.1f}s")
    assert kde_rate >= noise_rate - 0.02
    assert dt < 600.0


# --- criterion 8 ------------------------------------------------------------


def test_criterion_8_determinism(benchmark_report, run_config, prior,
                                 reward_model, stack_task, monkeypatch):
    first, _ = benchmark_report
    monkeypatch.delenv("REASONER_THREADS", raising=False)

    # full re-run on two worker processes must be byte-identical
    again = la.run_benchmark(run_config, prior, reward_model, workers=2)
    assert again.to_json() == first.to_json()
    assert again.to_csv() == first.to_csv()

    # sweeps re-run byte-identical at reduced scale
    import dataclasses
    small = dataclasses.replace(run_config, n_episodes=6, alphas=(0.0, 0.6))
    a = la.sweep_alpha(small, prior, reward_model, workers=1)
    b = la.sweep_alpha(small, prior, reward_model, workers=2)
    assert a.to_json() == b.to_json()

    # a single search replays to an identical trace
    obs = la.reset(stack_task, 77)
    chunk = ExpertPolicy().propose(obs)
    fn = lambda o: la.predict_reward(reward_model, o)
    r0 = run_search(obs, chunk, prior, la.step, fn, run_config.search, seed=78)
    r1 = run_search(obs, chunk, prior, la.step, fn, run_config.search, seed=78)
    assert np.array_equal(r0.action, r1.action)
    assert SearchTrace.from_tree(r0).to_json() == SearchTrace.from_tree(r1).to_json()

    print("\ncriterion 8: reports byte-identical across re-runs and worker counts")
