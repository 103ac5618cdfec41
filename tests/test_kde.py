"""KDE prior: bandwidth rules, density closed forms, sampling, visit weights."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from lookahead.errors import DataError
from lookahead.kde import (
    ZERO_SPREAD_BANDWIDTH,
    KdePrior,
    SamplePool,
    density,
    fit_kde,
    load_prior,
    noise_sample,
    prior_from_json,
    prior_to_json,
    sample,
    save_prior,
    top_k_near,
    weights_from_densities,
)


def test_fit_requires_two_points():
    with pytest.raises(DataError):
        fit_kde(np.zeros((1, 4)), "scott")


def test_scott_bandwidth_formula():
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(40, 3))
    prior = fit_kde(pts, "scott")
    sigma = float(np.mean(pts.std(axis=0, ddof=1)))
    expect = 40 ** (-1.0 / (3 + 4)) * sigma
    assert abs(prior.bandwidth - expect) < 1e-12
    assert prior.bandwidth_rule == "scott"


def test_silverman_factor():
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(40, 3))
    scott = fit_kde(pts, "scott").bandwidth
    silverman = fit_kde(pts, "silverman").bandwidth
    assert abs(silverman / scott - (4.0 / (3 + 2)) ** (1.0 / (3 + 4))) < 1e-12


def test_fixed_bandwidth():
    pts = np.array([[0.0], [1.0]])
    prior = fit_kde(pts, 0.25)
    assert prior.bandwidth == 0.25
    assert prior.bandwidth_rule == "fixed"
    with pytest.raises(ValueError):
        fit_kde(pts, -0.1)


def test_zero_variance_falls_back_with_warning():
    pts = np.zeros((5, 2))
    with pytest.warns(RuntimeWarning):
        prior = fit_kde(pts, "scott")
    assert prior.bandwidth == ZERO_SPREAD_BANDWIDTH


def test_density_single_point_peak():
    # closed form: (2*pi)^(-d/2) * h^(-d) at the support point
    for d, h in [(1, 0.5), (3, 0.2), (4, 1.0)]:
        pts = np.zeros((2, d))  # duplicated point keeps the n >= 2 contract
        with pytest.warns(RuntimeWarning):
            prior = fit_kde(pts, "scott")  # zero spread falls back
        prior = fit_kde(pts, h)
        peak = (2 * math.pi) ** (-d / 2) * h ** (-d)
        assert abs(density(prior, np.zeros(d)) - peak) < 1e-9 * peak


def test_density_two_point_hand_value():
    prior = fit_kde(np.array([[-1.0], [1.0]]), 1.0)
    phi_1 = math.exp(-0.5) / math.sqrt(2 * math.pi)  # standard normal pdf at 1
    assert abs(density(prior, np.array([0.0])) - phi_1) < 1e-9
    assert abs(density(prior, np.array([0.0])) - 0.24197072451914337) < 1e-9


def test_density_far_tail_vanishes():
    prior = fit_kde(np.array([[0.0], [0.1]]), 0.01)
    peak = density(prior, np.array([0.0]))
    far = density(prior, np.array([0.1 + 13 * 0.01]))
    assert far < 1e-12 * peak


def test_density_permutation_invariant():
    rng = np.random.default_rng(2)
    pts = rng.normal(size=(20, 3))
    a = fit_kde(pts, 0.3)
    b = fit_kde(pts[::-1].copy(), 0.3)
    q = rng.normal(size=3)
    assert abs(density(a, q) - density(b, q)) < 1e-12


def test_density_batch_matches_single():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(15, 4))
    prior = fit_kde(pts, 0.4)
    queries = rng.normal(size=(10, 4))
    batch = density(prior, queries)
    for i, q in enumerate(queries):
        assert abs(batch[i] - density(prior, q)) < 1e-12


def _broadcast_density(prior, a):
    """The density formula as one broadcast expression: the reference."""
    q2 = np.atleast_2d(np.asarray(a, dtype=float))
    h, d = prior.bandwidth, prior.dim
    diffs = q2[:, None, :] - prior.points[None, :, :]
    sq = np.einsum("qnd,qnd->qn", diffs, diffs)
    norm = (2.0 * math.pi) ** (-d / 2.0) * h ** (-d)
    return norm * np.exp(-sq / (2.0 * h * h)).mean(axis=1)


@pytest.mark.parametrize("d", [4, 16])
def test_density_equals_the_broadcast_formula_bit_for_bit(d):
    rng = np.random.default_rng(d)
    for trial in range(40):
        pts = rng.uniform(-0.05, 0.05, size=(int(rng.integers(2, 300)), d))
        prior = fit_kde(pts, float(rng.uniform(0.005, 0.05)))
        queries = pts[rng.integers(0, len(pts), size=int(rng.integers(1, 12)))]
        queries = queries + rng.normal(0.0, 0.01, size=queries.shape)
        got = density(prior, queries)
        want = _broadcast_density(prior, queries)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        single = density(prior, queries[0])
        assert isinstance(single, float) and single == want[0]


def test_bounded_sample_equals_clipped_draws_bit_for_bit():
    rng = np.random.default_rng(8)
    for chunk_len in (1, 4):
        pts = rng.uniform(-0.06, 0.06, size=(50, 4 * chunk_len))
        prior = fit_kde(pts, 0.03)
        lo = np.tile([-0.05, -0.05, -0.05, 0.0], chunk_len)
        hi = np.tile([0.05, 0.05, 0.05, 1.0], chunk_len)
        for seed in range(10):
            raw = sample(prior, 256, seed)
            got = sample(prior, 256, seed, bounds=(lo, hi))
            assert got.tobytes() == np.clip(raw, lo, hi).tobytes()


def test_sample_is_support_plus_gaussian():
    # 1-D prior on {0} with h=1: mean ~ 0, std ~ 1 over 1e5 draws
    pts = np.zeros((2, 1))
    prior = fit_kde(pts, 1.0)
    draws = np.asarray(sample(prior, 100_000, seed=5))
    assert -0.02 < draws.mean() < 0.02
    assert 0.98 < draws.std() < 1.02


def test_sample_determinism_and_count():
    prior = fit_kde(np.array([[0.0, 0.0], [1.0, 1.0]]), 0.5)
    a = np.asarray(sample(prior, 64, seed=9))
    b = np.asarray(sample(prior, 64, seed=9))
    assert np.array_equal(a, b)
    assert a.shape == (64, 2)
    with pytest.raises(ValueError):
        sample(prior, 0, seed=9)


def test_sample_tiny_bandwidth_sticks_to_support():
    pts = np.array([[0.0, 0.0], [1.0, 1.0]])
    prior = fit_kde(pts, 1e-12)
    draws = np.asarray(sample(prior, 200, seed=4))
    d0 = np.linalg.norm(draws - pts[0], axis=1)
    d1 = np.linalg.norm(draws - pts[1], axis=1)
    assert np.all(np.minimum(d0, d1) < 1e-9)


def test_sample_respects_bounds():
    prior = fit_kde(np.array([[0.0], [0.05]]), 0.5)
    lo, hi = np.array([-0.05]), np.array([0.05])
    draws = np.asarray(sample(prior, 1000, seed=6, bounds=(lo, hi)))
    assert draws.min() >= -0.05 and draws.max() <= 0.05


def test_top_k_hand_example():
    pool = SamplePool(anchor=np.array([1.4]),
                      candidates=np.array([[1.0], [2.0], [5.0]]))
    picked = np.asarray(top_k_near(pool, 2))
    assert np.array_equal(picked.ravel(), [1.0, 2.0])


def test_top_k_whole_pool_sorted():
    rng = np.random.default_rng(7)
    cands = rng.normal(size=(12, 3))
    anchor = rng.normal(size=3)
    out = np.asarray(top_k_near(SamplePool(anchor=anchor, candidates=cands), 12))
    d = np.linalg.norm(out - anchor, axis=1)
    assert np.all(np.diff(d) >= -1e-15)
    with pytest.raises(ValueError):
        top_k_near(SamplePool(anchor=anchor, candidates=cands), 13)


def test_top_k_matches_brute_force():
    rng = np.random.default_rng(8)
    for _ in range(200):
        n = int(rng.integers(2, 30))
        d = int(rng.integers(1, 5))
        k = int(rng.integers(1, n + 1))
        cands = rng.normal(size=(n, d))
        anchor = rng.normal(size=d)
        got = np.asarray(top_k_near(SamplePool(anchor=anchor, candidates=cands), k))
        dist = np.linalg.norm(cands - anchor, axis=1)
        order = np.argsort(dist, kind="stable")[:k]
        assert np.array_equal(got, cands[order])


def test_visit_weights_equal_densities():
    assert np.array_equal(weights_from_densities(np.ones(4), 12), [3, 3, 3, 3])


def test_visit_weights_hand_example():
    assert np.array_equal(weights_from_densities(np.array([0.9, 0.1]), 12), [10, 2])


def test_visit_weights_floor_and_budget_window():
    rng = np.random.default_rng(9)
    for _ in range(1000):
        m = int(rng.integers(1, 12))
        budget = m + int(rng.integers(0, 50))
        p = rng.uniform(0, 1, m)
        w = weights_from_densities(p, budget)
        assert all(x >= 1 for x in w)
        assert budget <= sum(w) <= budget + m


def test_visit_weights_monotone_in_density():
    rng = np.random.default_rng(10)
    for _ in range(200):
        p = rng.uniform(0, 1, 6)
        w = weights_from_densities(p, 40)
        for i in range(6):
            for j in range(6):
                if p[i] >= p[j]:
                    assert w[i] >= w[j]


def test_visit_weights_budget_precondition():
    with pytest.raises(ValueError):
        weights_from_densities(np.ones(4), 3)
    with pytest.raises(ValueError):
        weights_from_densities(np.ones(0), 3)


def test_visit_weights_from_prior():
    prior = fit_kde(np.array([[0.0], [0.0], [5.0]]), 0.5)
    actions = np.array([[0.0], [5.0], [20.0]])
    w = weights_from_densities(np.atleast_1d(density(prior, actions)), 30)
    assert w[0] > w[1] > 0
    assert w[2] == 1  # far from all mass: floor weight


def test_noise_sample_contract():
    anchor = np.array([0.01, 0.0, 0.0, 0.5])
    a = np.asarray(noise_sample(anchor, 32, 0.02, seed=3))
    b = np.asarray(noise_sample(anchor, 32, 0.02, seed=3))
    assert np.array_equal(a, b)
    tiny = np.asarray(noise_sample(anchor, 8, 1e-300, seed=3))
    assert np.allclose(tiny, anchor, atol=1e-9)
    with pytest.raises(ValueError):
        noise_sample(anchor, 8, 0.0, seed=3)


def test_noise_sample_mean_bound():
    anchor = np.array([0.2, -0.3])
    draws = np.asarray(noise_sample(anchor, 100_000, 0.1, seed=12))
    bound = 3 * 0.1 / math.sqrt(100_000)
    assert np.all(np.abs(draws.mean(axis=0) - anchor) < bound * 1.5)


def test_prior_json_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    prior = fit_kde(rng.normal(size=(9, 4)), "scott")
    doc = json.loads(prior_to_json(prior))
    assert set(doc) == {"dim", "bandwidth", "bandwidth_rule", "points"}
    again = prior_from_json(prior_to_json(prior))
    assert again.bandwidth == prior.bandwidth
    assert np.array_equal(np.asarray(again.points), np.asarray(prior.points))

    path = tmp_path / "prior.json"
    save_prior(prior, path)
    loaded = load_prior(path)
    assert prior_to_json(loaded) == prior_to_json(prior)
