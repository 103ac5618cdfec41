"""KDE prior: density closed forms, sampling, visit weights, the prior.json file."""

from __future__ import annotations

import itertools
import json
import math
import pickle
import re
import warnings

import numpy as np
import pytest

import expansion_oracles as oracle
from lookahead import kde
from lookahead.actions import MAX_CHUNK_LEN, action_bounds, pool_bounds
from lookahead.errors import DataError
from lookahead.kde import (
    KdePrior,
    density,
    fit_kde,
    load_prior,
    sample,
    save_prior,
    one_point_prior,
    top_k_near,
    weights_from_densities,
)


def test_fit_requires_two_points():
    with pytest.raises(DataError):
        fit_kde(np.zeros((1, 4)), 0.1)


def test_fixed_bandwidth():
    pts = np.array([[0.0], [1.0]])
    prior = fit_kde(pts, 0.25)
    assert prior.bandwidth == 0.25
    with pytest.raises(ValueError):
        fit_kde(pts, -0.1)
    # an int width is kept as a float, so prior.json writes 1.0
    assert type(fit_kde(pts, 1).bandwidth) is float


def test_density_single_point_peak():
    # closed form: (2*pi)^(-d/2) * h^(-d) at the support point
    for d, h in [(1, 0.5), (3, 0.2), (4, 1.0)]:
        pts = np.zeros((2, d))  # duplicated point keeps the n >= 2 contract
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


def _window_edge_cases(rng, d):
    """(prior, queries) pairs whose cutoff window ends exactly on support keys.

    The key coordinate is column 2, widened by two far points. Support keys sit
    at min(qk) - r and max(qk) + r, as density computes them, and one ulp either
    side, each in several distinct rows and in duplicated ones; queries at key
    r or -r put an edge at 0.0, where +0.0 and -0.0 keys sit. Keys 30 bandwidths
    from a query keep some terms above zero.
    """
    h = 0.01
    r = _window_r(h)
    for qs in ([0.0], [0.013, -0.02], [r], [-r], [r, -r]):
        keys = [-3.0, 3.0, 0.0, -0.0]
        for edge in (min(qs) - r, max(qs) + r):
            keys += [math.nextafter(edge, -math.inf), edge, math.nextafter(edge, math.inf)]
        keys += [q + t * h for q in qs for t in (-30.0, 30.0)]
        keys = np.repeat(keys, 3)  # three rows per key ...
        pts = rng.uniform(-0.05, 0.05, size=(len(keys), d))
        pts[:, 2] = keys
        pts = np.concatenate([pts, pts[::2]])  # ... and duplicated rows
        prior = KdePrior(points=pts, bandwidth=h)
        assert prior.sorted_support[0] == 2
        queries = pts[rng.integers(0, len(pts), size=len(qs))]
        queries[:, 2] = qs
        yield prior, queries


@pytest.mark.parametrize("d", [4, 8, 16, 32])
def test_density_equals_the_broadcast_formula_bit_for_bit(d):
    rng = np.random.default_rng(d)
    cases = []
    for trial in range(40):
        pts = rng.uniform(-0.05, 0.05, size=(int(rng.integers(2, 300)), d))
        prior = fit_kde(pts, float(rng.uniform(0.005, 0.05)))
        queries = pts[rng.integers(0, len(pts), size=int(rng.integers(1, 12)))]
        cases.append((prior, queries + rng.normal(0.0, 0.01, size=queries.shape)))
    for prior, queries in _window_edge_cases(rng, d):
        cases += [(prior, queries), (pickle.loads(pickle.dumps(prior)), queries)]
    for prior, queries in cases:
        got = density(prior, queries)
        want = _broadcast_density(prior, queries)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        single = density(prior, queries[0])
        assert isinstance(single, float) and single == want[0]


def _window_r(h):
    """The cutoff radius along the key coordinate: exp(-750) and beyond round to +0.0."""
    return math.sqrt(750.0 * (2.0 * h * h))


def _pruned_share(prior, queries):
    """Share of the support farther than r from every query along the widest coordinate."""
    key = int(np.argmax(np.ptp(prior.points, axis=0)))
    qk = np.atleast_2d(queries)[:, key]
    r = _window_r(prior.bandwidth)
    col = prior.points[:, key]
    return float(np.mean((col < qk.min() - r) | (col > qk.max() + r)))


def _grip_support(rng, n, d):
    """Uniform +-0.05 deltas with a binary grip channel per action, like a chunked demo prior."""
    pts = rng.uniform(-0.05, 0.05, size=(n, d))
    pts[:, 3::4] = rng.integers(0, 2, size=(n, d // 4))
    return pts


@pytest.mark.parametrize("d", [4, 16])
def test_density_skips_provably_zero_terms_bit_for_bit(d):
    rng = np.random.default_rng(100 + d)
    for trial in range(30):
        pts = _grip_support(rng, int(rng.integers(60, 400)), d)
        prior = fit_kde(pts, float(rng.uniform(0.004, 0.02)))
        # queries near support points of one grip value: the other cluster is outside the window
        grip = float(trial % 2)
        same = pts[pts[:, 3] == grip]
        queries = same[rng.integers(0, len(same), size=int(rng.integers(1, 12)))]
        queries = queries + rng.normal(0.0, prior.bandwidth, size=queries.shape)
        assert _pruned_share(prior, queries) >= 0.3
        # queries straddling both clusters keep the whole support
        both = np.concatenate([queries, pts[pts[:, 3] != grip][:2]])
        for q in (queries, both, queries[0]):
            got = np.atleast_1d(density(prior, q))
            want = _broadcast_density(prior, q)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("t", [30.0, 34.0, 36.0, 37.5, 38.2, 38.4])
def test_density_window_edge_is_exact(t):
    # support points along the key coordinate at r and one ulp either side of it,
    # and the nearest ones t bandwidths away, whose terms are tiny but not zero
    h = 0.01
    r = _window_r(h)
    for q in (0.0, 0.3, -0.7, 1.0):
        key_vals = [q + 3.0, q - 3.0]  # far outside
        for side in (-1.0, 1.0):
            edge = q + side * r
            key_vals += [math.nextafter(edge, -math.inf), edge, math.nextafter(edge, math.inf)]
            key_vals.append(q + side * t * h)
        pts = np.zeros((len(key_vals), 4))
        pts[:, 2] = key_vals
        prior = KdePrior(points=pts, bandwidth=h)
        query = np.array([0.0, 0.0, q, 0.0])
        want = _broadcast_density(prior, query)
        assert want[0] > 0.0  # the terms inside r count
        assert density(prior, query) == want[0]
        assert np.atleast_1d(density(prior, query[None, :])).tobytes() == want.tobytes()


def test_einsum_sums_the_shipped_priors_squares_in_its_pinned_order(prior):
    # density's squared distances come from np.einsum("nd,nd->n"), whose summation
    # order is the vector width of the installed numpy build's einsum kernel. At
    # d = 4 it pairs the lanes: (s0 + s2) + (s1 + s3), which differs from the left-to-
    # right sum on about a quarter of rows. Density bits, and the visit counts and
    # reports built on them, rest on this order.
    assert prior.dim == 4
    queries = sample(prior, 64, 2024, action_bounds(1))
    diffs = (queries[:, None, :] - prior.sorted_support[2][None, :, :]).reshape(-1, 4)
    sq = (diffs * diffs).T.tolist()
    pinned = [(s0 + s2) + (s1 + s3) for s0, s1, s2, s3 in zip(*sq)]
    in_order = [((s0 + s1) + s2) + s3 for s0, s1, s2, s3 in zip(*sq)]
    got = np.einsum("nd,nd->n", diffs, diffs).tolist()
    assert got == pinned, ("np.einsum no longer sums 4 squares as (s0 + s2) + (s1 + s3) in "
                           "this numpy build: density bits, and the reports pinned on them, "
                           "may move")
    assert got != in_order  # the pin tells the two orders apart on this data


def test_density_of_an_empty_batch_is_an_empty_array():
    prior = fit_kde(np.random.default_rng(25).uniform(-0.05, 0.05, size=(20, 4)), 0.01)
    got = density(prior, np.zeros((0, 4)))
    want = _broadcast_density(prior, np.zeros((0, 4)))
    assert (got.dtype, got.shape) == (want.dtype, want.shape) == (np.float64, (0,))
    with pytest.raises(ValueError, match="^query dimension 3 does not match prior dimension 4$"):
        density(prior, np.zeros((0, 3)))


@pytest.mark.parametrize("shape", [(), (1, 1, 1), (2, 3, 1), (0, 2, 1)])
def test_density_rejects_a_query_that_is_neither_a_vector_nor_a_batch(shape):
    prior = fit_kde(np.array([[0.0], [0.5]]), 0.1)  # d = 1: a scalar or (..., 1) query fits it
    with pytest.raises(ValueError, match=rf"^query must be one vector \(d,\) or a batch \(m, d\), "
                                         rf"got shape {re.escape(str(shape))}$"):
        density(prior, np.zeros(shape))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_density_of_non_finite_queries_matches_the_formula(bad):
    rng = np.random.default_rng(21)
    for d in (4, 16):
        pts = _grip_support(rng, 80, d)
        prior = fit_kde(pts, 0.01)
        far = pts[:3] + 0.001
        far[:, 3] = 5.0  # no support point within r along the widest coordinate
        for col, row, base in itertools.product(range(d), range(3), (pts[:3] + 0.001, far)):
            queries = base.copy()
            queries[row, col] = bad
            for q in (queries, queries[row]):
                got = np.atleast_1d(density(prior, q))
                want = _broadcast_density(prior, q)
                # a NaN term's sign bit follows the division by -2h^2, the reference negates
                assert np.array_equal(np.isnan(got), np.isnan(want))
                assert got[~np.isnan(got)].tobytes() == want[~np.isnan(want)].tobytes()
            assert math.isnan(got[0]) == math.isnan(bad)


def test_density_on_duplicate_and_two_point_supports():
    h = 0.01
    supports = [
        np.array([[0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]]),
        np.array([[0.01, 0.0, -0.02, 1.0]] * 5),
        np.array([[0.01, 0.0, 0.0, 1.0]] * 3 + [[0.0, 0.0, 0.0, 0.0]] * 4 + [[0.01, 0.0, 0.0, 1.0]]),
    ]
    for pts in supports:
        prior = KdePrior(points=pts, bandwidth=h)
        queries = np.concatenate([
            pts + 0.003,
            [[0.0, 0.0, 0.0, 0.5], [0.0, 0.0, 0.0, 2.0], [0.0, 0.0, 0.0, -1.0]],
        ])
        got = density(prior, queries)
        assert got.tobytes() == _broadcast_density(prior, queries).tobytes()
        for q in queries:
            assert density(prior, q) == _broadcast_density(prior, q)[0]
    assert density(prior, np.array([0.0, 0.0, 0.0, 3.0])) == 0.0  # empty window


def _duplicated_support(rng, n_distinct, n, d):
    """n support rows drawn from n_distinct grip-channel rows, in random order, with
    +0.0 and -0.0 entries among them."""
    base = _grip_support(rng, n_distinct, d)
    base[rng.random(base.shape) < 0.2] = 0.0
    base[rng.random(base.shape) < 0.2] = -0.0
    pts = base[rng.integers(0, n_distinct, size=n)]
    return pts[rng.permutation(n)]


@pytest.mark.parametrize("d", [4, 16])
def test_density_over_duplicated_supports_equals_the_broadcast_formula_bit_for_bit(d):
    rng = np.random.default_rng(200 + d)
    supports = [_duplicated_support(rng, int(rng.integers(1, 40)), int(rng.integers(2, 400)), d)
                for _ in range(25)]
    signed_zeros = np.zeros((6, d))
    signed_zeros[::2] = -0.0
    supports += [
        signed_zeros,  # +0.0 and -0.0 rows: kept apart, each squared to the same terms
        np.tile(_grip_support(rng, 1, d), (50, 1)),  # all identical
        _grip_support(rng, 1, d),  # one point
    ]
    for pts in supports:
        prior = KdePrior(points=pts, bandwidth=float(rng.uniform(0.004, 0.03)))
        near = pts[rng.integers(0, len(pts), size=int(rng.integers(1, 12)))]
        near = near + rng.normal(0.0, prior.bandwidth, size=near.shape)
        bad = near.copy()
        bad[0, int(rng.integers(0, d))] = [math.nan, math.inf, -math.inf][int(rng.integers(0, 3))]
        for q in (near, near[0], pts[:3], -pts[:3], bad):
            got = np.atleast_1d(density(prior, q))
            want = _broadcast_density(prior, q)
            assert got.shape == want.shape
            # a NaN term's sign bit follows the division by -2h^2, the reference negates
            assert np.array_equal(np.isnan(got), np.isnan(want))
            assert got[~np.isnan(got)].tobytes() == want[~np.isnan(want)].tobytes()


def test_sorted_support_holds_the_distinct_rows_in_key_order():
    rng = np.random.default_rng(24)
    for pts in (_duplicated_support(rng, 30, 300, 4), _duplicated_support(rng, 5, 40, 16),
                np.zeros((3, 4)), np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0]])):
        prior = KdePrior(points=pts, bandwidth=0.01)
        key, inverse, rows, keys = prior.sorted_support
        assert key == int(np.argmax(np.ptp(pts, axis=0)))
        assert rows[inverse].tobytes() == prior.points.tobytes()
        assert len({row.tobytes() for row in rows}) == len(rows)  # distinct by bytes
        assert keys.tobytes() == rows[:, key].tobytes()
        assert np.all(keys[:-1] <= keys[1:])
    assert len(prior.sorted_support[2]) == 2  # +0.0 and -0.0 stay apart


def test_density_at_the_smallest_bandwidth_does_not_warn():
    # 2 * h * h is just normal, so 9 / (2 h^2) exceeds the largest float
    prior = KdePrior(points=[[0.0], [3.0]], bandwidth=1.0548e-154)
    queries = np.array([[0.0], [3.0]])
    with np.errstate(over="ignore"):
        want = _broadcast_density(prior, queries)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = density(prior, queries)
    assert got.tobytes() == want.tobytes()
    assert 0.0 < got[0] == got[1] < math.inf


def test_prior_points_are_a_read_only_copy():
    pts = np.array([[0.0, 1.0], [2.0, 3.0]])
    prior = KdePrior(points=pts, bandwidth=0.1)
    pts[0, 0] = 9.0
    assert prior.points[0, 0] == 0.0
    with pytest.raises(ValueError):
        prior.points[0, 0] = 1.0


def test_sorted_support_is_pickled_with_the_prior(monkeypatch):
    rng = np.random.default_rng(22)
    prior = fit_kde(_grip_support(rng, 200, 4), 0.01)
    pickled = pickle.dumps(prior)
    builds = []
    build = kde._sorted_support
    monkeypatch.setattr(kde, "_sorted_support", lambda pts: builds.append(pts) or build(pts))
    again = pickle.loads(pickled)
    assert builds == []  # the support arrives with the prior, not rebuilt
    key, *arrays = prior.sorted_support
    key_again, *arrays_again = again.sorted_support
    assert key_again == key
    for want, got in zip(arrays, arrays_again, strict=True):
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()
    assert density(again, prior.points[:8]).tobytes() == density(prior, prior.points[:8]).tobytes()
    assert builds == []
    KdePrior(points=again.points, bandwidth=again.bandwidth)  # a new prior builds its own
    assert len(builds) == 1


@pytest.mark.parametrize("array", ["points", "inverse", "rows", "keys"])
def test_prior_arrays_stay_read_only_through_a_pickle(array):
    rng = np.random.default_rng(23)
    prior = fit_kde(_grip_support(rng, 50, 4), 0.01)
    again = pickle.loads(pickle.dumps(prior))
    for p in (prior, again):
        _, inverse, rows, keys = p.sorted_support
        arr = {"points": p.points, "inverse": inverse, "rows": rows, "keys": keys}[array]
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = arr[0]


def test_prior_rejects_a_bandwidth_whose_normalizer_overflows():
    # (1e-90) ** -4 overflows a float; at d = 1 the same width is usable
    with pytest.raises(ValueError, match=r"^bandwidth 1e-90 is too small for dimension 4: h \*\* -4 overflows$"):
        KdePrior(points=np.zeros((2, 4)), bandwidth=1e-90)
    with pytest.raises(ValueError, match="too small for dimension 4"):
        fit_kde(np.eye(4), 1e-90)
    with pytest.raises(ValueError, match="too small for dimension 4"):  # numpy powers return inf
        KdePrior(points=np.zeros((2, 4)), bandwidth=np.float64(1e-90))
    assert KdePrior(points=np.zeros((2, 1)), bandwidth=1e-90).bandwidth == 1e-90
    # at d = 1, h ** -1 stays finite but the exponent's 2 * h * h underflows: to 0 at
    # 1e-170, and to a subnormal at 1e-160, by which a distance of 0.5 overflows to inf
    for h in (1e-170, 1e-160):
        with pytest.raises(ValueError, match=rf"^bandwidth {h!r} is too small: 2 \* h \* h underflows$"):
            KdePrior(points=[[0.0], [1.0]], bandwidth=h)
    tiny = KdePrior(points=[[0.0], [1.0]], bandwidth=1.0548e-154)  # 2 * h * h is just normal
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = density(tiny, np.array([[0.0], [0.5], [1.0]]))  # one window over both points
    assert 0.0 < values[0] == values[2] < math.inf
    assert values[1] == 0.0


@pytest.mark.parametrize("points", [np.zeros((2, 0)), [[], []], np.zeros((0, 4)), [], [0.5, 1.0]])
def test_prior_rejects_a_support_that_is_not_a_non_empty_matrix(points):
    # no points, or points of no coordinates, or not a matrix
    with pytest.raises(ValueError, match=r"^support points must form a non-empty \(n, d\) matrix$"):
        KdePrior(points=points, bandwidth=0.1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_prior_rejects_non_finite_support(bad):
    with pytest.raises(ValueError, match="support points must be finite"):
        KdePrior(points=[[0.0, bad], [1.0, 2.0]], bandwidth=0.1)


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_prior_json_with_non_finite_points_fails(tmp_path, token):
    path = tmp_path / "prior.json"
    path.write_text(f'{{"dim": 2, "bandwidth": 0.1, '
                    f'"points": [[0.0, {token}], [1.0, 2.0]]}}', encoding="utf-8")
    with pytest.raises(ValueError, match="support points must be finite"):
        load_prior(path)


def test_bounded_sample_equals_clipped_draws_bit_for_bit():
    rng = np.random.default_rng(8)
    for chunk_len in (1, 4):
        pts = rng.uniform(-0.06, 0.06, size=(50, 4 * chunk_len))
        prior = fit_kde(pts, 0.03)
        lo = np.tile([-0.05, -0.05, -0.05, 0.0], chunk_len)
        hi = np.tile([0.05, 0.05, 0.05, 1.0], chunk_len)
        for seed in range(10):
            raw = sample(prior, 256, seed)
            replay = np.random.default_rng(seed)  # a support point plus noise, as the formula reads
            drawn = pts[replay.integers(0, 50, size=256)] + replay.normal(0.0, 0.03, size=(256, pts.shape[1]))
            assert raw.tobytes() == drawn.tobytes()
            got = sample(prior, 256, seed, bounds=(lo, hi))
            assert got.tobytes() == np.clip(raw, lo, hi).tobytes()


def _box_support(rng, n, d):
    """Support rows of d / 4 actions: inside the action box, exactly on its faces,
    just outside it, and grips of +0.0, -0.0 and 1.0."""
    lo, hi = action_bounds(d // 4)
    pts = rng.uniform(lo - 0.01, hi + 0.01, size=(n, d))
    face = rng.random((n, d)) < 0.3
    pts[face] = np.where(rng.random((n, d)) < 0.5, lo, hi)[face]
    grips = pts[:, 3::4]
    grips[...] = rng.choice([0.0, -0.0, 1.0, 0.5], size=grips.shape)
    return pts


@pytest.mark.parametrize("d", [4, 16, 32])
@pytest.mark.parametrize("n", [1, 7, 256])
def test_sample_equals_the_wrapped_clip_form_bit_for_bit(d, n):
    rng = np.random.default_rng(100 * d + n)
    lo, hi = action_bounds(d // 4)
    cases = on_face = 0
    # the smallest bandwidth whose h ** -d does not overflow: below 1e-18 a draw
    # from a point on a face stays exactly on its bound before the clip
    tiny = {4: 1e-20, 16: 1e-19, 32: 1e-9}[d]
    for h in (tiny, 1e-3, 0.02, 0.5):
        prior = fit_kde(_box_support(rng, 40, d), h)
        for p in (prior, pickle.loads(pickle.dumps(prior))):
            for seed in rng.integers(0, 2**63, size=4).tolist():
                raw = oracle.sample(p, n, seed)
                assert sample(p, n, seed).tobytes() == raw.tobytes()
                on_face += int(((raw == lo) | (raw == hi)).sum())
                want = oracle.sample(p, n, seed, (lo, hi))
                for bounds in (pool_bounds(d // 4, n), (lo, hi)):
                    assert sample(p, n, seed, bounds).tobytes() == want.tobytes(), (h, seed)
                cases += 1
    assert cases == 32
    assert on_face > 0 or d == 32


def test_sample_clips_signed_zeros_and_nan_as_the_wrapped_clip():
    # the clip itself, on the values no draw reaches by chance: a -0.0 on the grip's
    # +0.0 bound becomes +0.0, a NaN stays NaN
    lo, hi = pool_bounds(1, 6)
    vals = np.array([[-0.0, 0.0, 0.05, -0.0], [0.0, -0.05, -0.0, 0.0], [np.nan, 1.0, -1.0, np.nan],
                     [0.05, 0.05000000000000001, -0.05000000000000001, 1.0], [-0.0, -0.0, -0.0, -0.0],
                     [np.inf, -np.inf, np.inf, -np.inf]])
    got = vals.copy()
    kde._clip(got, lo, hi, out=got)
    want = vals.copy()
    want.clip(lo[0], hi[0], out=want)
    assert got.tobytes() == want.tobytes()
    assert math.copysign(1.0, got[0, 3]) == 1.0 and math.copysign(1.0, got[0, 0]) == -1.0


def test_pool_bounds_are_shared_read_only_rows_of_the_action_bounds():
    for chunk_len in range(1, MAX_CHUNK_LEN + 1):
        lo, hi = action_bounds(chunk_len)
        for n in (1, 7, 256):
            plo, phi = pool_bounds(chunk_len, n)
            assert plo.shape == phi.shape == (n, lo.size)
            assert plo.flags.c_contiguous and phi.flags.c_contiguous
            for row in range(n):
                assert plo[row].tobytes() == lo.tobytes() and phi[row].tobytes() == hi.tobytes()
            assert pool_bounds(chunk_len, n)[0] is plo and pool_bounds(chunk_len, n)[1] is phi
            with pytest.raises(ValueError):
                plo[0, 0] = 0.0
            with pytest.raises(ValueError):
                phi += 1.0
    for bad in (0, MAX_CHUNK_LEN + 1):
        with pytest.raises(ValueError):
            pool_bounds(bad, 8)


def _tied_candidates(rng, n, d):
    """Candidates around an anchor with duplicated rows and mirror images, whose
    distances tie exactly, plus rows at the anchor itself."""
    anchor = rng.normal(0.0, 0.02, size=d)
    cands = anchor + rng.normal(0.0, 0.02, size=(n, d)) * 10.0 ** rng.integers(-6, 1, size=(n, 1))
    if n > 1:
        half = n // 2
        cands[half:2 * half] = (2 * anchor - cands[:half]) if rng.random() < 0.5 else cands[:half]
        cands[rng.integers(0, n)] = anchor
    return cands, anchor


@pytest.mark.parametrize("d", [1, 3, 4, 7, 8, 16, 32])
@pytest.mark.parametrize("n", [1, 7, 256])
def test_top_k_distances_equal_the_row_reduce_bit_for_bit(d, n):
    rng = np.random.default_rng(10 * d + n)
    for trial in range(30):
        if trial % 3 == 0:
            cands = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-150, 150, size=(n, d))
            anchor = rng.normal(size=d)
        else:
            cands, anchor = _tied_candidates(rng, n, d)
        assert kde._distances(cands, anchor).tobytes() == oracle.distances(cands, anchor).tobytes()
        for k in sorted({1, (n + 1) // 2, n}):
            assert top_k_near(cands, k, anchor).tobytes() == oracle.top_k_near(cands, k, anchor).tobytes()


def test_top_k_ties_keep_the_lower_index():
    anchor = np.zeros(4)
    cands = np.array([[0.0, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, 0.0], [0.0, 0.0, -1.0, 0.0],
                      [0.0, 0.5, 0.0, 0.0], [0.0, -1.0, 0.0, 0.0]])
    assert top_k_near(cands, 4, anchor).tobytes() == cands[[3, 0, 1, 2]].tobytes()


def test_visit_weights_equal_the_summed_form():
    rng = np.random.default_rng(31)
    for trial in range(4000):
        m = int(rng.integers(1, 40))
        # a budget up to 1e12 carries a one-ulp change of the sum into the counts
        budget = m + int(10.0 ** rng.uniform(0, 12))
        kind = trial % 4
        if kind == 0:
            p = np.zeros(m) if trial % 8 else np.full(m, -0.0)
        elif kind == 1:
            p = rng.exponential(size=m) * 10.0 ** rng.integers(-300, 300, size=m)
        elif kind == 2:
            p = rng.integers(0, 5, size=m).astype(float)
        else:
            p = rng.uniform(size=m) * (rng.random(m) < 0.7)
        assert weights_from_densities(p, budget) == oracle.weights_from_densities(p, budget), (p, budget)


def test_visit_weights_carry_the_last_bit_of_the_pairwise_sum():
    # 1 plus fifteen 2**-53 sums to 1 + 7 * 2**-52 pairwise, 1 + 8 * 2**-52 exactly
    # rounded and 1 left to right; near a budget of 2**52 / 7.5 (or / 5) that last
    # bit moves the first count by one
    p = np.array([1.0] + [2.0 ** -53] * 15)
    firsts = {}
    for budget in (16 + int(2 ** 52 / 7.5), 16 + int(2 ** 52 / 5)):
        got = weights_from_densities(p, budget)
        assert got == oracle.weights_from_densities(p, budget)
        for name, total in (("pairwise", float(np.add.reduce(p))), ("exact", math.fsum(p.tolist())),
                            ("left to right", sum(p.tolist()))):
            firsts.setdefault(name, []).append(1 + math.ceil((budget - 16) * (1.0 / total) - 1e-9))
        assert got[0] == firsts["pairwise"][-1]
    assert len({tuple(v) for v in firsts.values()}) == 3


@pytest.mark.parametrize("d", [4, 16, 32])
def test_one_point_prior_is_the_checked_prior(d):
    rng = np.random.default_rng(d)
    prior = fit_kde(rng.normal(size=(5, d)), 0.02)
    for point in (rng.normal(size=d), np.zeros(d), np.full(d, -0.0), _box_support(rng, 1, d)[0]):
        got, want = one_point_prior(prior, point), KdePrior(points=point[None, :], bandwidth=0.02)
        assert got.points.tobytes() == want.points.tobytes() and got.bandwidth == want.bandwidth
        assert got.sorted_support[0] == want.sorted_support[0]
        for a, b in zip(got.sorted_support[1:], want.sorted_support[1:]):
            assert a.tobytes() == b.tobytes() and a.dtype == b.dtype and not a.flags.writeable
        assert not got.points.flags.writeable
        point += 1.0  # the prior holds its own copy
        assert got.points.tobytes() == want.points.tobytes()
        queries = rng.normal(0.0, 0.03, size=(9, d))
        assert density(got, queries).tobytes() == density(want, queries).tobytes()
        assert sample(got, 50, 3).tobytes() == sample(want, 50, 3).tobytes()


def test_one_point_prior_of_another_point_goes_through_the_checks():
    prior = fit_kde(np.zeros((2, 4)), 0.02)
    with pytest.raises(ValueError, match="support points must be finite"):
        one_point_prior(prior, np.array([0.0, np.nan, 0.0, 0.0]))
    with pytest.raises(ValueError, match="support points must be finite"):
        one_point_prior(prior, np.array([0.0, np.inf, 0.0, 0.0]))
    other = one_point_prior(prior, np.ones(3))  # another dimension: a checked prior of it
    assert other.dim == 3 and other.points.tobytes() == np.ones((1, 3)).tobytes()


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
    picked = np.asarray(top_k_near(np.array([[1.0], [2.0], [5.0]]), 2, np.array([1.4])))
    assert np.array_equal(picked.ravel(), [1.0, 2.0])


def test_top_k_whole_pool_sorted():
    rng = np.random.default_rng(7)
    cands = rng.normal(size=(12, 3))
    anchor = rng.normal(size=3)
    out = np.asarray(top_k_near(cands, 12, anchor))
    d = np.linalg.norm(out - anchor, axis=1)
    assert np.all(np.diff(d) >= -1e-15)
    with pytest.raises(ValueError):
        top_k_near(cands, 13, anchor)


@pytest.mark.parametrize("cands_shape, anchor_size", [((6, 3), 1), ((6, 1), 3), ((6, 3), 4),
                                                      ((6,), 1), ((2, 6, 3), 3)])
def test_top_k_rejects_candidates_whose_width_is_not_the_anchor_size(cands_shape, anchor_size):
    # a 1-element anchor would otherwise broadcast against (n, 3) candidates
    with pytest.raises(ValueError, match="matching the anchor"):
        top_k_near(np.zeros(cands_shape), 2, np.zeros(anchor_size))


def test_top_k_matches_brute_force():
    rng = np.random.default_rng(8)
    for _ in range(200):
        n = int(rng.integers(2, 30))
        d = int(rng.integers(1, 5))
        k = int(rng.integers(1, n + 1))
        cands = rng.normal(size=(n, d))
        anchor = rng.normal(size=d)
        got = np.asarray(top_k_near(cands, k, anchor))
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


def _numpy_weights(densities, total_budget):
    """The visit-weight formula in numpy array arithmetic: the reference."""
    p = np.asarray(densities, dtype=float).ravel()
    m = p.size
    total = float(p.sum())
    shares = np.full(m, 1.0 / m) if total <= 0.0 else p / total
    return (1 + np.ceil((total_budget - m) * shares - 1e-9).astype(int)).astype(int)


def test_visit_weights_equal_the_numpy_formula():
    rng = np.random.default_rng(23)
    for trial in range(4000):
        m = int(rng.integers(1, 13))
        budget = m + int(rng.integers(0, 120))
        kind = trial % 4
        if kind == 0:
            p = np.zeros(m)  # all densities underflowed
        elif kind == 1:
            p = rng.exponential(size=m) * 10.0 ** float(rng.integers(-300, 300))
        elif kind == 2:
            p = rng.integers(0, 5, size=m).astype(float)  # exact shares and ties
        else:
            p = rng.uniform(size=m) * (rng.random(m) < 0.7)
        got = weights_from_densities(p, budget)
        want = _numpy_weights(p, budget)
        assert type(got) is list and got == want.tolist(), (p, budget)


@pytest.mark.parametrize("bad", [-1e-300, math.nan, math.inf, -math.inf])
def test_visit_weights_reject_bad_densities(bad):
    with pytest.raises(ValueError, match="densities must be finite and non-negative"):
        weights_from_densities(np.array([0.5, bad, 0.1]), 10)
    assert np.array_equal(weights_from_densities(np.array([0.5, -0.0]), 10), [9, 1])


def test_visit_weights_from_prior():
    prior = fit_kde(np.array([[0.0], [0.0], [5.0]]), 0.5)
    actions = np.array([[0.0], [5.0], [20.0]])
    w = weights_from_densities(np.atleast_1d(density(prior, actions)), 30)
    assert w[0] > w[1] > 0
    assert w[2] == 1  # far from all mass: floor weight


def _noise_sample(anchor, n, sigma, seed, bounds=None):
    """The noise ablation's former sampler: isotropic Gaussian perturbations of the anchor."""
    rng = np.random.default_rng(seed)
    base = np.asarray(anchor, dtype=float).ravel()
    draws = base + rng.normal(0.0, sigma, size=(n, base.size))
    if bounds is not None:
        draws = np.clip(draws, bounds[0], bounds[1])
    return draws


def _one_point(anchor, sigma):
    return KdePrior(points=np.asarray(anchor, dtype=float)[None, :], bandwidth=sigma)


def test_one_point_prior_sample_is_the_noise_sampler_bit_for_bit():
    # a one-point prior's index draw, integers(0, 1), consumes no bits, so its
    # normals are the noise sampler's
    rng = np.random.default_rng(2024)
    cases = 0
    for d in (4, 8, 16):
        bounds = action_bounds(d // 4)
        for _ in range(700):
            sigma = float(10.0 ** rng.uniform(-12, 1))
            # anchors inside the action box and, for the unbounded draws, anywhere
            anchor = (rng.uniform(bounds[0], bounds[1]) if rng.uniform() < 0.5
                      else rng.normal(0.0, 2.0, size=d))
            n = int(rng.integers(1, 300))
            seed = int(rng.integers(0, 2**63))
            box = bounds if rng.uniform() < 0.5 else None
            got = sample(_one_point(anchor, sigma), n, seed, box)
            want = _noise_sample(anchor, n, sigma, seed, box)
            assert got.tobytes() == want.tobytes(), (d, sigma, n, seed, box is None)
            cases += 1
    assert cases >= 2000


def test_noise_sample_contract():
    anchor = np.array([0.01, 0.0, 0.0, 0.5])
    a = sample(_one_point(anchor, 0.02), 32, seed=3)
    b = sample(_one_point(anchor, 0.02), 32, seed=3)
    assert np.array_equal(a, b)
    # 1e-60 rather than 1e-300: a 4-d prior whose h ** -4 overflows is rejected
    tiny = sample(_one_point(anchor, 1e-60), 8, seed=3)
    assert np.allclose(tiny, anchor, atol=1e-9)
    with pytest.raises(ValueError):
        sample(_one_point(anchor, 0.0), 8, seed=3)


def test_noise_sample_mean_bound():
    anchor = np.array([0.2, -0.3])
    draws = sample(_one_point(anchor, 0.1), 100_000, seed=12)
    bound = 3 * 0.1 / math.sqrt(100_000)
    assert np.all(np.abs(draws.mean(axis=0) - anchor) < bound * 1.5)


def test_prior_json_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    prior = fit_kde(rng.normal(size=(9, 4)), 0.37)
    path = tmp_path / "prior.json"
    save_prior(prior, path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert set(doc) == {"dim", "bandwidth", "points"}
    again = load_prior(path)
    assert again.bandwidth == prior.bandwidth
    assert np.array_equal(np.asarray(again.points), np.asarray(prior.points))

    # writing the loaded prior reproduces the file byte for byte
    path2 = tmp_path / "prior2.json"
    save_prior(again, path2)
    assert path2.read_bytes() == path.read_bytes()


def test_prior_file_with_a_bandwidth_rule_key_still_loads(tmp_path):
    # files written before the prior lost its rule label carry a bandwidth_rule key
    old = tmp_path / "old.json"
    old.write_text('{"dim": 2, "bandwidth": 0.123, "bandwidth_rule": "scott", '
                   '"points": [[0.0, 1.0], [0.5, -2.0]]}\n', encoding="utf-8")
    prior = load_prior(old)
    assert prior.bandwidth == 0.123
    assert prior.points.tolist() == [[0.0, 1.0], [0.5, -2.0]]
    new = tmp_path / "new.json"
    save_prior(prior, new)
    assert new.read_text(encoding="utf-8") == old.read_text(encoding="utf-8").replace(
        '"bandwidth_rule": "scott", ', "")


def test_prior_file_with_mismatched_dimension_fails(tmp_path):
    path = tmp_path / "prior.json"
    path.write_text('{"dim": 3, "bandwidth": 0.1, '
                    '"points": [[0.0, 1.0], [1.0, 2.0]]}', encoding="utf-8")
    with pytest.raises(ValueError, match="stored points do not match the stored dimension"):
        load_prior(path)
