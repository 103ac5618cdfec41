"""Action arithmetic: bounds, blending, distances, chunk flattening."""

from __future__ import annotations

import dataclasses
import inspect
import itertools
import math
import pickle

import numpy as np
import pytest

from lookahead.actions import (
    ACTION_DIM,
    DELTA_BOUND,
    DELTA_LIMIT,
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


def _old_action_check(delta, grip):
    """Action's former ``__post_init__``, its four named checks in their order:
    the oracle for the one-comparison check. The stored (delta, grip)."""
    delta = tuple(map(float, delta))
    grip = float(grip)
    if len(delta) != 3:
        raise ValueError(f"delta needs 3 components, got {len(delta)}")
    dx, dy, dz = delta
    isfinite = math.isfinite
    if not (isfinite(dx) and isfinite(dy) and isfinite(dz) and isfinite(grip)):
        raise ValueError("action components must be finite")
    if abs(dx) > DELTA_LIMIT or abs(dy) > DELTA_LIMIT or abs(dz) > DELTA_LIMIT:
        raise ValueError(f"delta component outside the per-step bound {DELTA_BOUND}")
    if not 0.0 <= grip <= 1.0:
        raise ValueError("grip must lie in [0, 1]")
    return delta, grip


def _outcome(check, make_delta, grip):
    """What a check does with an action: its stored components, exactly, or its error."""
    try:
        delta, grip = check(make_delta(), grip)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)
    return repr((delta, grip)), [type(v) for v in (*delta, grip)]


def _new_action_check(delta, grip):
    a = Action(delta, grip)
    return a.delta, a.grip


# every slot takes each of these: the non-finite values, the delta limits and
# their neighbours, +-0.0, the grip's ends and their neighbours, and inner values
_EDGES = [math.nan, math.inf, -math.inf, 0.0, -0.0, 0.013, 0.5, 1.0, -1.0,
          math.nextafter(0.0, -math.inf), math.nextafter(0.0, math.inf),
          math.nextafter(1.0, -math.inf), math.nextafter(1.0, math.inf),
          DELTA_LIMIT, math.nextafter(DELTA_LIMIT, 0.0), math.nextafter(DELTA_LIMIT, math.inf),
          -DELTA_LIMIT, math.nextafter(-DELTA_LIMIT, 0.0), math.nextafter(-DELTA_LIMIT, -math.inf)]


def _action_inputs():
    """(delta factory, grip) pairs: a factory, so a generator delta is fresh for each check."""
    for *delta, grip in itertools.product(_EDGES, repeat=4):
        yield (lambda d=tuple(delta): d), grip
    few = [math.nan, 0.0, -0.0, DELTA_LIMIT, math.nextafter(DELTA_LIMIT, math.inf), 1.0]
    for n in (2, 4):
        for *delta, grip in itertools.product(few, repeat=n + 1):
            yield (lambda d=list(delta): d), grip
    for vals in ([0.01, 0.02, 0.03, 0.5], [0.01, math.inf, 0.03, 0.5], [0.01, 0.02, 0.06, 0.5],
                 [0.01, 0.02, 0.03, 1.5], [0.01, 0.02]):
        yield (lambda v=vals[:3]: (x for x in v)), vals[-1]  # a generator delta
    scalars = [np.float64(DELTA_LIMIT), np.float64(-0.0), np.float64(math.nan), np.int64(0),
               np.float32(0.05), np.float32(0.013), np.bool_(True), np.float64(1.0)]
    for *delta, grip in itertools.product(scalars, repeat=4):
        yield (lambda d=tuple(delta): d), grip


def test_action_check_agrees_with_the_four_named_checks():
    seen = set()
    for make_delta, grip in _action_inputs():
        want = _outcome(_old_action_check, make_delta, grip)
        assert _outcome(_new_action_check, make_delta, grip) == want, (make_delta(), grip)
        seen.add(want[1] if want[0] is ValueError else "valid")
    assert seen == {"valid", "delta needs 3 components, got 2", "delta needs 3 components, got 4",
                    "action components must be finite", "grip must lie in [0, 1]",
                    f"delta component outside the per-step bound {DELTA_BOUND}"}


def test_action_signature_is_its_fields():
    params = inspect.signature(Action).parameters
    assert list(params) == [f.name for f in dataclasses.fields(Action)]
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD and p.default is p.empty
               for p in params.values())


def test_action_stays_a_frozen_dataclass():
    a = Action(delta=[0.01, -0.02, np.float64(0.0)], grip=1)  # by keyword, as records read it
    assert repr(a) == "Action(delta=(0.01, -0.02, 0.0), grip=1.0)"
    same = Action((0.01, -0.02, 0.0), 1.0)
    other = dataclasses.replace(a, grip=0.25)
    assert a == same and hash(a) == hash(same)
    assert other == Action(a.delta, 0.25) and other != a
    assert len({a, same, other}) == 2
    with pytest.raises(ValueError, match=r"^grip must lie in \[0, 1\]$"):
        dataclasses.replace(a, grip=2.0)
    again = pickle.loads(pickle.dumps(a))
    assert again == a and hash(again) == hash(a) and repr(again) == repr(a)
    for field, value in (("delta", (0.0, 0.0, 0.0)), ("grip", 0.5)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(a, field, value)
    assert a == same


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
