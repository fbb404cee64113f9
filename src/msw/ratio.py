"""Uniform ratio statistics over halfspaces, exact shatter counts, VC bounds.

ratio_sup maximizes over directions with the max-sliced search, _run_search.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, NumericError, ScaleError, SpecError
from .maxsliced import OptimizerOpts, _normalize_rows, _run_search, _value_on_grid
from .measures import Gaussian, RngStream, as_samples
from .ot1d import AnalyticCdf1d, _ndtr, gaussian_law, project

_BRANCH_TRUTH = "truth_minus_empirical"      # (F - F_n) / sqrt(F)
_BRANCH_EMPIRICAL = "empirical_minus_truth"  # (F_n - F) / sqrt(F_n)

# perturbation for central-difference direction derivatives in ratio_sup
_FD_STEP = 1e-4


@dataclass(frozen=True)
class RatioStatResult:
    """Value and argmax of the self-normalized cdf deviation statistic.

    side records whether the sup is attained at the jump point itself ("at",
    empirical cdf value i/n) or in the left limit ("left", value (i-1)/n).
    """

    value: float
    arg_theta: np.ndarray
    arg_t: float
    branch: str
    side: str = "at"


def _candidate_ratios(f: np.ndarray, fn: np.ndarray) -> np.ndarray:
    denom = np.sqrt(np.maximum(f, fn))
    return np.divide(np.abs(f - fn), denom, out=np.zeros(denom.shape), where=denom > 0.0)


def ratio_fixed_direction(xs, theta, law: AnalyticCdf1d) -> RatioStatResult:
    """sup_t |F(t) - F_n(t)| / sqrt(F(t) v F_n(t)) along one direction.

    The sup over t is attained on the closure of the jump set of the
    empirical cdf, so it is computed exactly by checking both one-sided
    limits at every sorted projection value: the monotone pieces between
    jumps take their extremes at those endpoints. Left limits pair the law's
    left-limit cdf with F_n(t_i-) = (i-1)/n, which matters for laws with
    atoms at the sample points.
    """
    t = project(xs, theta)
    n = t.size
    f_at = np.asarray(law.cdf(t), dtype=np.float64)
    f_left = f_at if law.cdf_left is None else np.asarray(law.cdf_left(t), dtype=np.float64)
    if not (np.all(np.isfinite(f_at)) and np.all(np.isfinite(f_left))):
        bad = t[int(np.argmin(np.isfinite(f_at) & np.isfinite(f_left)))]
        raise NumericError(f"cdf evaluation failed at t={bad!r}")
    fn_at = np.arange(1, n + 1) / n
    fn_left = np.arange(0, n) / n
    cand = np.stack([_candidate_ratios(f_at, fn_at), _candidate_ratios(f_left, fn_left)])
    flat = int(np.argmax(cand))
    side_idx, i = divmod(flat, n)
    f_star = (f_at, f_left)[side_idx][i]
    fn_star = (fn_at, fn_left)[side_idx][i]
    return RatioStatResult(
        value=float(cand[side_idx, i]),
        arg_theta=np.asarray(theta, dtype=np.float64),
        arg_t=float(t[i]),
        branch=_BRANCH_TRUTH if f_star >= fn_star else _BRANCH_EMPIRICAL,
        side="at" if side_idx == 0 else "left",
    )


def _projected_law(spec: Gaussian, theta: np.ndarray) -> AnalyticCdf1d:
    var = float(theta @ spec.cov @ theta)
    return gaussian_law(float(theta @ spec.mean), max(var, 1e-300))


class _RatioObjective:
    """theta -> the ratio statistic along each row, batched.

    value(rows) is ratio_fixed_direction's value for every row at once. The
    statistic has no closed-form derivative, so value_and_grad returns
    central differences, evaluated as 2d extra rows per direction through
    _value_on_grid's fixed blocks. certify is value at one direction;
    ratio_sup recomputes the full result with ratio_fixed_direction at the
    winning direction only.
    """

    def __init__(self, x: np.ndarray, spec: Gaussian):
        self.x, self.spec = x, spec
        self.fn = (np.arange(x.shape[0] + 1) / x.shape[0])[:, None]  # F_n(t_i-), F_n(t_i)

    def value(self, th: np.ndarray) -> np.ndarray:
        var = np.einsum("rd,rd->r", th @ self.spec.cov, th)
        sd = np.sqrt(np.maximum(var, 1e-300))
        f = _ndtr((np.sort(self.x @ th.T, axis=0) - th @ self.spec.mean) / sd)
        cand = np.maximum(_candidate_ratios(f, self.fn[1:]), _candidate_ratios(f, self.fn[:-1]))
        return cand.max(axis=0)

    def value_and_grad(self, th: np.ndarray):
        r, d = th.shape
        step = _FD_STEP * np.eye(d)
        shifted = np.stack([th[:, None, :] + step, th[:, None, :] - step], axis=1)
        vals = _value_on_grid(self, np.vstack([th, _normalize_rows(shifted.reshape(-1, d))]))
        pairs = vals[r:].reshape(r, 2, d)
        return vals[:r], (pairs[:, 0] - pairs[:, 1]) / (2.0 * _FD_STEP)

    def certify(self, theta: np.ndarray) -> float:
        return float(self.value(theta[None])[0])


def ratio_sup(xs, spec: Gaussian, opts: OptimizerOpts | None = None,
              rng: RngStream | None = None) -> RatioStatResult:
    """Heuristic maximization of the ratio statistic over directions.

    Runs the max-sliced search (restarts, seed directions, the Riemannian
    ascent's adaptive step and relative stall rule) on the batched ratio
    objective. The result is recomputed at the returned direction, so it is a
    certified lower bound on the sup over (theta, t).
    """
    if not isinstance(spec, Gaussian):
        raise SpecError("ratio_sup requires a Gaussian spec (closed-form projections)")
    x = as_samples(xs)
    if x.shape[1] != spec.dim:
        raise DomainError(f"dimension mismatch: samples {x.shape[1]}, spec {spec.dim}")
    objective = _RatioObjective(x, spec)
    if x.shape[1] == 1:
        signs = np.array([[1.0], [-1.0]])
        theta = signs[int(np.argmax(objective.value(signs)))]
    else:
        theta = _run_search(objective, x, x.mean(0) - spec.mean, None, opts, rng).argmax
    return ratio_fixed_direction(x, theta, _projected_law(spec, theta))


def shatter_count(points) -> int:
    """Exact number of halfspace labelings {<x, theta> <= t} of a point set.

    Toy scale only (d <= 2, n <= 10): enumerates every direction at which the
    projection order can change (normals of pairwise difference vectors) plus
    a midpoint inside each arc between them, then collects all threshold
    labelings along each direction. Tie groups at critical directions enter
    together through the non-strict thresholds, so collinear configurations
    are handled exactly.
    """
    x = as_samples(points)
    n, d = x.shape
    if d > 2:
        raise ScaleError(f"shatter_count supports d <= 2, got d={d}")
    if n > 10:
        raise ScaleError(f"shatter_count supports n <= 10, got n={n}")

    if d == 1:
        dirs = [np.array([1.0]), np.array([-1.0])]
    else:
        angles = set()
        for i in range(n):
            for j in range(i + 1, n):
                diff = x[i] - x[j]
                if np.linalg.norm(diff) == 0.0:
                    continue
                base = math.atan2(diff[1], diff[0])
                for off in (0.5 * math.pi, -0.5 * math.pi):
                    angles.add((base + off) % (2.0 * math.pi))
        if not angles:
            angles = {0.0, 0.5 * math.pi}
        ordered = sorted(angles)
        mids = []
        for k, angle in enumerate(ordered):
            nxt = ordered[(k + 1) % len(ordered)]
            if k + 1 == len(ordered):
                nxt += 2.0 * math.pi  # wraparound arc
            mids.append(0.5 * (angle + nxt) % (2.0 * math.pi))
        dirs = [np.array([math.cos(a), math.sin(a)]) for a in ordered + mids]

    labelings = {(False,) * n}
    for u in dirs:
        v = x @ u
        for val in np.unique(v):
            labelings.add(tuple(v <= val))
    return len(labelings)


def vc_bound(n: int, d: int, two_sided: bool = False) -> int:
    """Polynomial shatter bound (n+1)^(d+1) for halfspaces in dimension d.

    two_sided doubles the exponent, covering halfspaces together with their
    complements. Exact integer arithmetic, so no overflow at any scale.
    """
    if n < 1 or d < 1:
        raise DomainError(f"need n >= 1 and d >= 1, got n={n}, d={d}")
    exponent = (2 if two_sided else 1) * (d + 1)
    return (n + 1) ** exponent


class BoundValue(NamedTuple):
    """A theoretical bound before and after clipping to the probability range."""

    raw: float
    clipped: float


def ratio_tail_bound(n: int, d: int, eps: float) -> BoundValue:
    """Tail bound 8 exp((d+1) log(2n+1) - n eps^2 / 4) on the ratio statistic."""
    if n < 1 or d < 1:
        raise DomainError(f"need n >= 1 and d >= 1, got n={n}, d={d}")
    if eps < 0.0:
        raise DomainError(f"threshold must be nonnegative, got {eps}")
    exponent = (d + 1) * math.log(2.0 * n + 1.0) - n * eps * eps / 4.0
    try:
        raw = 8.0 * math.exp(exponent)
    except OverflowError:
        raw = math.inf
    return BoundValue(raw=raw, clipped=min(1.0, raw))
