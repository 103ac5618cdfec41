"""Action arithmetic: bounds, blending, distances, chunk flattening."""

from __future__ import annotations

import math

import numpy as np
import pytest

from lookahead.actions import (
    ACTION_DIM,
    DELTA_BOUND,
    Action,
    ActionChunk,
    action_bounds,
    blend_actions,
    flatten_chunk,
    unflatten_chunk,
)


def test_action_validates_bounds():
    Action((0.05, -0.05, 0.0), 1.0)  # boundary values are legal
    with pytest.raises(ValueError):
        Action((0.051, 0.0, 0.0), 0.0)
    with pytest.raises(ValueError):
        Action((0.0, 0.0, 0.0), 1.5)
    with pytest.raises(ValueError):
        Action((float("nan"), 0.0, 0.0), 0.0)


_LIMIT = DELTA_BOUND + 1e-12  # the bound as checked, with slack for float noise
_ABOVE = math.nextafter(_LIMIT, math.inf)


@pytest.mark.parametrize("axis", [0, 1, 2])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_action_delta_bound_at_its_last_float(axis, sign):
    delta = [0.0, 0.0, 0.0]
    delta[axis] = sign * _LIMIT
    assert Action(tuple(delta), 0.5).delta[axis] == sign * _LIMIT
    delta[axis] = sign * _ABOVE
    with pytest.raises(ValueError, match=r"^delta component outside the per-step bound 0.05$"):
        Action(tuple(delta), 0.5)


@pytest.mark.parametrize("component", [0, 1, 2, 3])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_action_rejects_non_finite_components(component, bad):
    values = [0.0, 0.0, 0.0, 0.5]
    values[component] = bad
    with pytest.raises(ValueError, match="^action components must be finite$"):
        Action(tuple(values[:3]), values[3])


@pytest.mark.parametrize("delta", [(0.0, 0.0), (0.0, 0.0, 0.0, 0.0), ()])
def test_action_needs_three_delta_components(delta):
    with pytest.raises(ValueError, match=f"^delta needs 3 components, got {len(delta)}$"):
        Action(delta, 0.5)


def test_action_grip_range():
    for grip in (0.0, -0.0, 1.0, 0.5, True):
        assert Action((0.0, 0.0, 0.0), grip).grip == float(grip)
    for grip in (math.nextafter(0.0, -math.inf), math.nextafter(1.0, math.inf), -1.0, 2.0):
        with pytest.raises(ValueError, match=r"^grip must lie in \[0, 1\]$"):
            Action((0.0, 0.0, 0.0), grip)


def test_action_converts_components_to_floats():
    a = Action([np.float64(0.01), 0, np.int64(0)], np.float64(1.0))
    assert a.delta == (0.01, 0.0, 0.0) and all(type(v) is float for v in a.delta)
    assert type(a.grip) is float


def test_chunk_rejects_non_action_entries():
    with pytest.raises(TypeError, match="^chunk entries must be Action instances$"):
        ActionChunk((Action.zero(), (0.0, 0.0, 0.0, 0.0)))


def test_grip_threshold():
    assert Action((0, 0, 0), 0.5).grip_closed
    assert not Action((0, 0, 0), 0.49).grip_closed


def test_vector_round_trip():
    a = Action((0.01, -0.02, 0.03), 0.7)
    assert unflatten_chunk(flatten_chunk(ActionChunk((a,))), 1) == ActionChunk((a,))


def test_blend_alpha_one_returns_proposal_exactly():
    rng = np.random.default_rng(0)
    for _ in range(50):
        v = Action(tuple(rng.uniform(-0.05, 0.05, 3)), float(rng.uniform(0, 1)))
        r = Action(tuple(rng.uniform(-0.05, 0.05, 3)), float(rng.uniform(0, 1)))
        assert blend_actions(v, r, 1.0) == v
        assert blend_actions(v, r, 0.0) == r


def test_blend_hand_value():
    v = Action((0.04, 0.0, 0.0), 0.0)
    r = Action((0.00, 0.02, 0.0), 0.0)
    out = blend_actions(v, r, 0.6)
    assert abs(out.delta[0] - 0.024) < 1e-9
    assert abs(out.delta[1] - 0.008) < 1e-9
    assert abs(out.delta[2]) < 1e-9


def test_blend_stays_on_segment_without_clamping():
    rng = np.random.default_rng(1)
    for _ in range(100):
        v = rng.uniform(-0.05, 0.05, 3)
        r = rng.uniform(-0.05, 0.05, 3)
        alpha = float(rng.uniform(0, 1))
        out = blend_actions(Action(tuple(v), 0.2), Action(tuple(r), 0.8), alpha)
        expect = alpha * v + (1 - alpha) * r
        assert np.allclose(out.delta, expect, atol=1e-12)
        assert abs(out.grip - (alpha * 0.2 + (1 - alpha) * 0.8)) < 1e-12


@pytest.mark.parametrize("alpha", [0.0, 0.6, 1.0])
def test_blend_equals_the_clipped_array_form_bit_for_bit(alpha):
    # components at +-0.0, on each bound and (within the validation slack) beyond it
    over = DELTA_BOUND + 5e-13
    deltas = [0.0, -0.0, DELTA_BOUND, -DELTA_BOUND, over, -over, 0.013]
    grips = [0.0, -0.0, 1.0, 0.5]
    lo, hi = action_bounds(1)
    rng = np.random.default_rng(5)
    for _ in range(4000):
        p = Action(tuple(rng.choice(deltas, 3).tolist()), float(rng.choice(grips)))
        s = Action(tuple(rng.choice(deltas, 3).tolist()), float(rng.choice(grips)))
        want = np.clip(alpha * flatten_chunk(ActionChunk((p,)))
                       + (1 - alpha) * flatten_chunk(ActionChunk((s,))), lo, hi)
        got = blend_actions(p, s, alpha)
        assert np.array([*got.delta, got.grip]).tobytes() == want.tobytes()


def test_blend_clamps_a_negative_zero_grip_as_the_array_bound_does():
    # np.clip against the bound array maps -0.0 at the bound 0.0 to +0.0
    out = blend_actions(Action.zero(grip=-0.0), Action.zero(grip=-0.0), 0.6)
    assert math.copysign(1.0, out.grip) == 1.0


def test_blend_rejects_bad_alpha():
    a = Action.zero()
    with pytest.raises(ValueError):
        blend_actions(a, a, -0.1)
    with pytest.raises(ValueError):
        blend_actions(a, a, 1.1)


def test_chunk_length_limits():
    one = Action.zero()
    ActionChunk((one,) * 8)
    with pytest.raises(ValueError):
        ActionChunk(())
    with pytest.raises(ValueError):
        ActionChunk((one,) * 9)


def test_flatten_ordering_and_round_trip():
    a = Action((0.01, 0.02, 0.03), 0.4)
    b = Action((-0.01, -0.02, -0.03), 0.9)
    chunk = ActionChunk((a, b))
    flat = flatten_chunk(chunk)
    assert flat.shape == (8,)
    assert flat.tolist() == [*a.delta, a.grip, *b.delta, b.grip]
    assert unflatten_chunk(flat, 2) == chunk

    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        actions = tuple(
            Action(tuple(rng.uniform(-0.05, 0.05, 3)), float(rng.uniform(0, 1)))
            for _ in range(n)
        )
        c = ActionChunk(actions)
        assert unflatten_chunk(flatten_chunk(c), n) == c


def test_action_bounds_layout():
    lo, hi = action_bounds(2)
    assert lo.shape == hi.shape == (2 * ACTION_DIM,)
    assert lo[0] == -DELTA_BOUND and hi[0] == DELTA_BOUND
    assert lo[3] == 0.0 and hi[3] == 1.0  # grip channel
    assert math.isclose(hi[4], DELTA_BOUND)


def test_action_bounds_are_shared_read_only_tiles():
    for n in range(1, 9):
        lo, hi = action_bounds(n)
        assert lo.tobytes() == np.tile([-DELTA_BOUND, -DELTA_BOUND, -DELTA_BOUND, 0.0], n).tobytes()
        assert hi.tobytes() == np.tile([DELTA_BOUND, DELTA_BOUND, DELTA_BOUND, 1.0], n).tobytes()
        assert action_bounds(n)[0] is lo
        with pytest.raises(ValueError):
            lo[0] = 0.0
        with pytest.raises(ValueError):
            hi += 1.0
    for bad in (0, 9):
        with pytest.raises(ValueError):
            action_bounds(bad)


def test_unflatten_keeps_exact_values_and_validation():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        vec = np.concatenate([np.append(rng.uniform(-0.05, 0.05, 3), rng.uniform(0, 1))
                              for _ in range(n)])
        chunk = unflatten_chunk(vec, n)
        for i, a in enumerate(chunk):
            ref = vec[i * ACTION_DIM:(i + 1) * ACTION_DIM]
            assert a.delta == (float(ref[0]), float(ref[1]), float(ref[2]))
            assert a.grip == float(ref[3])
            assert all(type(v) is float for v in (*a.delta, a.grip))
    good = np.array([0.01, 0.0, 0.0, 0.5, 0.0, 0.0, 0.0, 0.0])
    for i, bad in [(4, 0.06), (1, -0.051), (7, 1.5), (3, -0.1),
                   (0, float("nan")), (6, float("inf")), (3, float("nan"))]:
        vec = good.copy()
        vec[i] = bad
        with pytest.raises(ValueError):
            unflatten_chunk(vec, 2)
        with pytest.raises(ValueError):
            unflatten_chunk(vec[4 * (i // 4):4 * (i // 4) + 4], 1)
    with pytest.raises(ValueError):
        unflatten_chunk(good, 3)
