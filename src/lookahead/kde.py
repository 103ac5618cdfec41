"""Gaussian kernel density prior over flattened actions.

The prior is fit on demonstration actions and drives candidate expansion:
sampling proposes new actions near the demonstrated ones, ``density`` scores
how typical an action is, and ``weights_from_densities`` converts those
scores into integer pseudo visit counts so denser candidates start with more
weight (the search composes the two for the candidates it keeps).

Density of a query ``a`` over support points ``a_1..a_N`` with bandwidth h:

    p(a) = (1/N) * sum_i (2*pi)^(-d/2) * h^(-d) * exp(-||a - a_i||^2 / (2 h^2))
"""

from __future__ import annotations

import dataclasses
import json
import math
import warnings
from pathlib import Path

import numpy as np

from .errors import DataError

# Rule-based bandwidths collapse when the support has no spread; fall back to
# a tiny positive width instead of a degenerate zero.
ZERO_SPREAD_BANDWIDTH = 1e-3


@dataclasses.dataclass(frozen=True)
class KdePrior:
    """A fitted kernel density estimate with an isotropic Gaussian kernel."""

    points: np.ndarray  # (n, d) support actions
    bandwidth: float
    bandwidth_rule: str  # "scott", "silverman", or "fixed"

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise ValueError("support points must form a non-empty (n, d) matrix")
        object.__setattr__(self, "points", pts)
        if not (math.isfinite(self.bandwidth) and self.bandwidth > 0):
            raise ValueError("bandwidth must be a positive finite real")

    @property
    def dim(self) -> int:
        return int(self.points.shape[1])

    @property
    def n_points(self) -> int:
        return int(self.points.shape[0])


@dataclasses.dataclass
class SamplePool:
    """Candidate actions drawn around one anchor."""

    anchor: np.ndarray
    candidates: np.ndarray  # (n, d)

    def __post_init__(self) -> None:
        self.anchor = np.asarray(self.anchor, dtype=float).ravel()
        self.candidates = np.asarray(self.candidates, dtype=float)
        if self.candidates.ndim != 2 or self.candidates.shape[1] != self.anchor.size:
            raise ValueError("candidates must be (n, d) with d matching the anchor")


def _rule_bandwidth(points: np.ndarray, rule: str) -> float:
    n, d = points.shape
    # sigma_hat: mean per-dimension sample standard deviation
    sigma_hat = float(np.mean(np.std(points, axis=0, ddof=1)))
    if sigma_hat <= 0.0:
        warnings.warn(
            f"support has zero spread; using fallback bandwidth {ZERO_SPREAD_BANDWIDTH}",
            RuntimeWarning,
            stacklevel=3,
        )
        return ZERO_SPREAD_BANDWIDTH
    h = n ** (-1.0 / (d + 4)) * sigma_hat
    if rule == "silverman":
        h *= (4.0 / (d + 2)) ** (1.0 / (d + 4))
    return h


def fit_kde(actions: np.ndarray, bandwidth: str | float = "scott") -> KdePrior:
    """Fit the prior on a stack of flattened actions.

    ``bandwidth`` is either a rule name ("scott" or "silverman") or a fixed
    positive width. Scott's rule is h = n^(-1/(d+4)) * sigma_hat; Silverman
    multiplies it by (4/(d+2))^(1/(d+4)).
    """
    pts = np.asarray(actions, dtype=float)
    if pts.ndim != 2:
        raise ValueError("actions must be an (n, d) matrix")
    if pts.shape[0] < 2:
        raise DataError("need at least 2 actions to fit a density")
    if not np.all(np.isfinite(pts)):
        raise ValueError("actions must be finite")
    if isinstance(bandwidth, str):
        if bandwidth not in ("scott", "silverman"):
            raise ValueError(f"unknown bandwidth rule {bandwidth!r}")
        h = _rule_bandwidth(pts, bandwidth)
        rule = bandwidth
    else:
        h = float(bandwidth)
        if not (math.isfinite(h) and h > 0):
            raise ValueError("fixed bandwidth must be a positive finite real")
        rule = "fixed"
    return KdePrior(points=pts.copy(), bandwidth=h, bandwidth_rule=rule)


def sample(
    prior: KdePrior,
    n: int,
    seed: int | np.random.Generator,
    bounds: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Draw n actions: a uniform support point plus N(0, h^2 I) noise each.

    When the caller supplies action-space ``bounds`` the draws are clamped
    componentwise; a bare prior has no intrinsic bounds.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, prior.n_points, size=n)
    draws = prior.points[idx] + rng.normal(0.0, prior.bandwidth, size=(n, prior.dim))
    if bounds is not None:
        np.clip(draws, bounds[0], bounds[1], out=draws)
    return draws


def noise_sample(
    anchor: np.ndarray,
    n: int,
    sigma: float,
    seed: int | np.random.Generator,
    bounds: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Ablation sampler: isotropic Gaussian perturbations of the anchor."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not (math.isfinite(sigma) and sigma > 0):
        raise ValueError("sigma must be a positive finite real")
    rng = np.random.default_rng(seed)
    base = np.asarray(anchor, dtype=float).ravel()
    draws = base + rng.normal(0.0, sigma, size=(n, base.size))
    if bounds is not None:
        draws = np.clip(draws, bounds[0], bounds[1])
    return draws


def density(prior: KdePrior, a: np.ndarray) -> float | np.ndarray:
    """Evaluate the KDE at one query vector (d,) or a batch (m, d)."""
    q = np.asarray(a, dtype=float)
    single = q.ndim == 1
    q2 = np.atleast_2d(q)
    if q2.shape[1] != prior.dim:
        raise ValueError(f"query dimension {q2.shape[1]} does not match prior dimension {prior.dim}")
    h = prior.bandwidth
    d = prior.dim
    # The (q, n, d) differences a - a_i, one contiguous subtraction per query:
    # the same values and layout as the broadcast q2[:, None] - points[None],
    # without the cost of a three-axis broadcast.
    diffs = np.empty((q2.shape[0], prior.n_points, d))
    for i, query in enumerate(q2):
        np.subtract(query, prior.points, out=diffs[i])
    sq = np.einsum("qnd,qnd->qn", diffs, diffs)
    # exp(-||a - a_i||^2 / (2 h^2)) in place; (-x) / y == x / (-y) exactly
    sq /= -(2.0 * h * h)
    np.exp(sq, out=sq)
    norm = (2.0 * math.pi) ** (-d / 2.0) * h ** (-d)
    vals = norm * sq.mean(axis=1)
    return float(vals[0]) if single else vals


def top_k_near(pool: SamplePool, k: int) -> np.ndarray:
    """The k candidates nearest the anchor, ascending by distance.

    Ties break toward the lower candidate index so the selection is a pure
    function of the pool.
    """
    n = pool.candidates.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    dists = np.linalg.norm(pool.candidates - pool.anchor[None, :], axis=1)
    order = np.argsort(dists, kind="stable")[:k]
    return pool.candidates[order].copy()


def weights_from_densities(densities: np.ndarray, total_budget: int) -> np.ndarray:
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
    if np.any(p < 0) or not np.all(np.isfinite(p)):
        raise ValueError("densities must be finite and non-negative")
    total = float(p.sum())
    if total <= 0.0:
        # all densities underflowed to zero: split the budget evenly
        shares = np.full(m, 1.0 / m)
    else:
        shares = p / total
    raw = (total_budget - m) * shares
    return (1 + np.ceil(raw - 1e-9).astype(int)).astype(int)


def prior_to_json(prior: KdePrior) -> str:
    doc = {
        "dim": prior.dim,
        "bandwidth": prior.bandwidth,
        "bandwidth_rule": prior.bandwidth_rule,
        "points": prior.points.tolist(),
    }
    return json.dumps(doc)


def prior_from_json(text: str) -> KdePrior:
    doc = json.loads(text)
    pts = np.asarray(doc["points"], dtype=float)
    if pts.ndim != 2 or pts.shape[1] != doc["dim"]:
        raise ValueError("stored points do not match the stored dimension")
    return KdePrior(points=pts, bandwidth=doc["bandwidth"], bandwidth_rule=doc["bandwidth_rule"])


def save_prior(prior: KdePrior, path: str | Path) -> None:
    Path(path).write_text(prior_to_json(prior) + "\n", encoding="utf-8")


def load_prior(path: str | Path) -> KdePrior:
    return prior_from_json(Path(path).read_text(encoding="utf-8"))
