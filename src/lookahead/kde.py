"""Gaussian kernel density prior over flattened actions.

The prior is fit on demonstration actions and drives candidate expansion:
sampling proposes new actions near the demonstrated ones, ``density`` scores
how typical an action is, and ``weights_from_densities`` converts those
scores into integer pseudo visit counts so denser candidates start with more
weight (the search composes the two for the candidates it keeps).

Density of a query ``a`` over support points ``a_1..a_N`` with bandwidth h:

    p(a) = (1/N) * sum_i (2*pi)^(-d/2) * h^(-d) * exp(-||a - a_i||^2 / (2 h^2))

The kernel has compact support in floating point: exp(x) rounds to +0.0 for
every x below about -745.13. ``density`` therefore evaluates only the support
points whose coordinate along the support's widest axis lies in
[min_j q_j - r, max_j q_j + r] over the queries q_j, with r = sqrt(750 * 2h^2),
and leaves every other term at +0.0. That is exact, not an approximation. A
point outside the window lies at least r from every query in that one
coordinate (up to rounding far inside the margin between 750 and 745.13), and
its squared distance, a float sum of non-negative squares, is at least that
coordinate's rounded square. Its exponent is therefore below -745.13, and its
term is +0.0 in the full formula too. Squared distances are capped at
750 * 2h^2 before the division for the same reason: every capped term is +0.0
either way, and the quotient cannot overflow when 2h^2 is tiny. A NaN makes
every term NaN, so a query holding a NaN or an infinity takes the whole
support; the rounding bound needs a finite support, which ``KdePrior`` enforces.

Demonstrated actions repeat (clamped deltas, a binary grip), so the window is
taken over the support's distinct rows, and each kernel term is evaluated once
per distinct row. The prior builds those rows, sorted along the widest axis, as
``KdePrior.sorted_support`` when it is made, and pickles them with itself. A
term depends only on the bits of its query and its row, so every support point
takes its distinct row's term, at its own position, with the same bits as the
full formula gives it. The terms are gathered back with
``take(..., axis=1)``, which returns a C-ordered array (fancy indexing along
axis 1 returns an F-ordered one, whose row sums numpy takes in another order),
so the mean sums the same values in the same order as over the whole support.

``sample`` draws each action as a uniform support point plus
``Generator.normal(0.0, h)`` noise, which numpy computes as 0.0 + h * z per
standard normal z (the sum fixes a zero's sign, so h * z alone is not the same
bits). Bounds clamp the draws with numpy's clip ufunc, reached directly rather
than through ``np.clip``'s Python wrappers; bounds of the draws' own (n, d)
shape, which ``actions.pool_bounds`` builds once per chunk length and pool
size, let it clip in one contiguous pass instead of broadcasting a (d,) row.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from bisect import bisect_left, bisect_right
from pathlib import Path

import numpy as np

from .errors import DataError, parse_object, require_numbers, require_types

try:  # the clip ufunc itself, which np.clip and ndarray.clip reach through Python wrappers
    from numpy._core.umath import clip as _clip
except ImportError:  # numpy < 2
    from numpy.core.umath import clip as _clip

# a kernel term is exactly +0.0 once ||a - a_i||^2 / (2 h^2) exceeds about
# 745.13; density's window keeps the points below this exponent
_CUTOFF_EXPONENT = 750.0


@dataclasses.dataclass(frozen=True)
class KdePrior:
    """A kernel density estimate with an isotropic Gaussian kernel of fixed width.

    ``sorted_support``, the ``_sorted_support`` of ``points``, is a plain attribute
    built with the prior and pickled with it. Its arrays and ``points`` are
    read-only, in an unpickled prior too.
    """

    points: np.ndarray  # (n, d) support actions
    bandwidth: float

    def __post_init__(self) -> None:
        require_types(self)
        pts = np.array(self.points, dtype=float)
        if pts.ndim != 2 or 0 in pts.shape:  # at least one point of at least one coordinate
            raise ValueError("support points must form a non-empty (n, d) matrix")
        if not np.isfinite(pts).all():
            raise ValueError("support points must be finite")
        pts.flags.writeable = False  # an own, fixed copy: sorted_support is derived from it
        object.__setattr__(self, "points", pts)
        h = float(self.bandwidth)
        if not h > 0:
            raise ValueError("bandwidth must be positive")
        try:
            h ** -self.dim  # the density's normalizer
        except OverflowError:
            raise ValueError(f"bandwidth {h!r} is too small for dimension {self.dim}: "
                             f"h ** -{self.dim} overflows") from None
        if 2.0 * h * h < sys.float_info.min:  # the density's exponent divides by it
            raise ValueError(f"bandwidth {h!r} is too small: 2 * h * h underflows")
        object.__setattr__(self, "bandwidth", h)
        object.__setattr__(self, "sorted_support", _sorted_support(pts))

    def __setstate__(self, state: dict) -> None:
        # unpickled arrays come back writeable: fix them again, support as pickled
        self.__dict__.update(state)
        for arr in (self.points, *self.sorted_support[1:]):
            arr.flags.writeable = False

    @property
    def dim(self) -> int:
        return int(self.points.shape[1])

    @property
    def n_points(self) -> int:
        return int(self.points.shape[0])


def _sorted_support(pts: np.ndarray) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """(key, inverse, rows, rows[:, key]): the distinct rows ``rows`` of the support
    ``pts``, stably sorted along its widest coordinate ``key``, and ``inverse``, the
    row of each support point, so ``rows[inverse]`` is ``pts``. Rows are told apart
    by their bytes, so +0.0 and -0.0 stay apart."""
    n, d = pts.shape
    # np.ptp's values, without its wrapper's cost on the one-point priors of the noise arm
    key = int((pts.max(axis=0) - pts.min(axis=0)).argmax())
    order = np.argsort(pts[:, key], kind="stable")
    by_key = pts[order]
    raw = by_key.tobytes()
    step = d * by_key.itemsize
    # one pass over the key-sorted rows: a row's bytes seen first get the next
    # distinct index, and its position heads that distinct row, so the distinct
    # rows keep the key order
    first: dict[bytes, int] = {}
    rank, heads = [], []
    for i, at in enumerate(range(0, n * step, step)):
        r = first.setdefault(raw[at:at + step], len(heads))
        if r == len(heads):
            heads.append(i)
        rank.append(r)
    inverse = np.empty(n, dtype=np.intp)
    inverse[order] = rank
    rows = by_key[heads] if len(heads) < n else by_key
    keys = rows[:, key].copy()
    for arr in (inverse, rows, keys):
        arr.flags.writeable = False
    return key, inverse, rows, keys


def fit_kde(actions: np.ndarray, bandwidth: float) -> KdePrior:
    """Fit the prior of fixed width ``bandwidth`` on a stack of flattened actions."""
    pts = np.asarray(actions, dtype=float)
    if pts.ndim != 2:
        raise ValueError("actions must be an (n, d) matrix")
    if pts.shape[0] < 2:
        raise DataError("need at least 2 actions to fit a density")
    return KdePrior(points=pts, bandwidth=bandwidth)


# the sorted support of every one-point prior: its one row is its own distinct row
_ONE_ROW = np.zeros(1, dtype=np.intp)
_ONE_ROW.flags.writeable = False


def one_point_prior(prior: KdePrior, point: np.ndarray) -> KdePrior:
    """``KdePrior(points=point[None, :], bandwidth=prior.bandwidth)``: the kernel of
    ``prior`` around ``point`` alone.

    A finite point of the prior's dimension passes every check ``prior`` has
    passed, so its prior is built without them and its one row needs no sort;
    any other point goes through the checks and their errors.
    """
    pts = np.array(point, dtype=float).reshape(1, -1)
    if pts.shape[1] != prior.dim or not np.isfinite(pts).all():
        return KdePrior(points=pts, bandwidth=prior.bandwidth)
    pts.flags.writeable = False
    one = object.__new__(KdePrior)
    object.__setattr__(one, "points", pts)
    object.__setattr__(one, "bandwidth", prior.bandwidth)
    # what _sorted_support(pts) gives: key 0, the one row, and its key coordinate
    object.__setattr__(one, "sorted_support", (0, _ONE_ROW, pts, pts[:, 0]))
    return one


def sample(
    prior: KdePrior,
    n: int,
    seed: int | np.random.Generator,
    bounds: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Draw n actions: a uniform support point plus N(0, h^2 I) noise each.

    The noise is ``Generator.normal(0.0, h)``: 0.0 + h * z per standard normal z.
    When the caller supplies action-space ``bounds`` (lo, hi) the draws are
    clamped componentwise by the clip ufunc; bounds of the draws' (n, d) shape,
    from ``actions.pool_bounds``, clip fastest, and (d,) bounds give the same
    bits. A bare prior has no intrinsic bounds. Over a one-point prior this is
    plain Gaussian noise around that point: the search's noise ablation.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, prior.n_points, size=n)
    draws = prior.points.take(idx, axis=0)  # points[idx] + noise, bit for bit
    draws += rng.normal(0.0, prior.bandwidth, size=(n, prior.dim))
    if bounds is not None:
        _clip(draws, bounds[0], bounds[1], out=draws)
    return draws


def density(prior: KdePrior, a: np.ndarray) -> float | np.ndarray:
    """Evaluate the KDE at one query vector (d,) or a batch (m, d).

    Only the distinct support rows inside the cutoff window are evaluated, once
    each; every other term keeps its exact +0.0 (see the module docstring).
    """
    q2 = np.asarray(a, dtype=float)
    single = q2.ndim == 1
    if single:
        q2 = q2[None, :]
    elif q2.ndim != 2:
        raise ValueError(f"query must be one vector (d,) or a batch (m, d), got shape {q2.shape}")
    if q2.shape[1] != prior.dim:
        raise ValueError(f"query dimension {q2.shape[1]} does not match prior dimension {prior.dim}")
    m = q2.shape[0]
    if m == 0:  # no queries, no densities: what the full formula gives
        return np.zeros(0)
    h = prior.bandwidth
    d = prior.dim
    two_h2 = 2.0 * h * h
    # exp(-cap / (2 h^2)) is +0.0, so a squared distance capped there keeps its
    # term's bits, and the division cannot overflow when 2 h^2 is small
    cap = _CUTOFF_EXPONENT * two_h2
    key, inverse, rows, keys = prior.sorted_support
    lo, hi = 0, len(keys)
    if np.isfinite(q2).all():
        r = math.sqrt(cap)
        qk = q2[:, key].tolist()
        # np.searchsorted's "left" and "right" bounds, without its per-call dispatch
        lo = bisect_left(keys, min(qk) - r)
        hi = bisect_right(keys, max(qk) + r)
    # The (q * w, d) differences a - a_i as one subtraction over whole rows: each
    # query repeated once per distinct window row, minus the flattened window. The
    # same values and layout as the broadcast q2[:, None] - window[None], whose inner
    # loops would run over d alone.
    w = hi - lo
    diffs = np.repeat(q2, w, axis=0).reshape(m, w * d)
    diffs -= rows[lo:hi].reshape(1, -1)
    diffs = diffs.reshape(m * w, d)
    # one squared norm per (query, row) pair, each a sum over its d entries
    near = np.einsum("nd,nd->n", diffs, diffs)
    np.minimum(near, cap, out=near)
    # exp(-||a - a_i||^2 / (2 h^2)) in place; (-x) / y == x / (-y) exactly
    near /= -two_h2
    np.exp(near, out=near)
    # a term depends only on its query and row, so every support point takes its
    # distinct row's term; take returns a C-ordered array, and the mean sums the
    # same values in the same order as over the whole support
    distinct = near.reshape(m, w)
    if w < len(keys):
        distinct = np.zeros((m, len(keys)))
        distinct[:, lo:hi] = near.reshape(m, w)
    terms = distinct.take(inverse, axis=1)
    norm = (2.0 * math.pi) ** (-d / 2.0) * h ** (-d)
    # the row means as numpy's terms.mean(axis=1) takes them: one pairwise sum, one divide
    vals = norm * (np.add.reduce(terms, axis=1) / prior.n_points)
    return float(vals[0]) if single else vals


def top_k_near(candidates: np.ndarray, k: int, anchor: np.ndarray) -> np.ndarray:
    """The k rows of ``candidates`` (n, d) nearest ``anchor`` (d,), ascending by distance.

    Ties break toward the lower candidate index so the selection is a pure
    function of its inputs.
    """
    cands = np.asarray(candidates, dtype=float)
    anchor = np.asarray(anchor, dtype=float).ravel()
    # a 1-wide anchor would broadcast against any width without this check
    if cands.ndim != 2 or cands.shape[1] != anchor.size:
        raise ValueError("candidates must be (n, d) with d matching the anchor")
    n = cands.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    order = _distances(cands, anchor).argsort(kind="stable")[:k]
    return cands.take(order, axis=0)  # a fresh array


def _distances(cands: np.ndarray, anchor: np.ndarray) -> np.ndarray:
    """Each row's distance to ``anchor``: np.linalg.norm(cands - anchor, axis=1),
    bit for bit."""
    if anchor.size < 8:
        # np.add.reduce(diff * diff, axis=1) sums a row of fewer than 8 squares left
        # to right; adding the rows of the transposed (d, n) squares one after another
        # takes the same sums in d contiguous passes instead of n short ones
        sq = cands.T.copy()
        sq -= anchor[:, None]
        sq *= sq
        return np.sqrt(np.add.reduce(sq, axis=0))
    # longer rows: numpy's pairwise order over each row, as the norm takes it
    diff = cands - anchor[None, :]
    return np.sqrt(np.add.reduce(diff * diff, axis=1))


def weights_from_densities(densities: np.ndarray, total_budget: int) -> list[int]:
    """Integer pseudo visit counts proportional to density, each at least 1.

    weight_i = 1 + ceil((budget - m) * p_i / sum_j p_j). The ceiling keeps the
    total in [budget, budget + m]; a tiny slack absorbs float noise so exact
    integers do not round up.
    """
    p = np.asarray(densities, dtype=float).ravel()
    m = p.size
    if m < 1:
        raise ValueError("need at least one density")
    if total_budget < m:
        raise ValueError(f"total_budget must be >= {m}, got {total_budget}")
    vals = p.tolist()
    for x in vals:
        if not 0.0 <= x < math.inf:
            raise ValueError("densities must be finite and non-negative")
    total = float(np.add.reduce(p))  # p.sum() without its wrapper
    spare = total_budget - m
    if total <= 0.0:
        # all densities underflowed to zero: split the budget evenly
        return [1 + math.ceil(spare * (1.0 / m) - 1e-9)] * m
    # per candidate in Python floats: the same two roundings as numpy's
    # p / total then spare * share, without the small-array overhead
    return [1 + math.ceil(spare * (x / total) - 1e-9) for x in vals]


def save_prior(prior: KdePrior, path: str | Path) -> None:
    doc = {
        "dim": prior.dim,
        "bandwidth": prior.bandwidth,
        "points": prior.points.tolist(),
    }
    Path(path).write_text(json.dumps(doc) + "\n", encoding="utf-8")


def load_prior(path: str | Path) -> KdePrior:
    """The stored prior; a ``bandwidth_rule`` key from older files is ignored."""
    doc = parse_object(Path(path).read_bytes(), ("dim", "bandwidth", "points"), path)
    dim, points = doc["dim"], doc["points"]
    if type(dim) is not int:
        raise DataError(f"{path}: 'dim' must be an integer, got {dim!r}")
    if type(points) is not list:
        raise DataError(f"{path}: 'points' must be a list of rows, got {points!r}")
    for i, row in enumerate(points):
        require_numbers(row, path, f"'points' row {i}")
        if len(row) != dim:
            raise DataError(f"{path}: stored points do not match the stored dimension: "
                            f"'points' row {i} holds {len(row)} numbers, 'dim' is {dim}")
    return KdePrior(points=np.asarray(points, dtype=float), bandwidth=doc["bandwidth"])
