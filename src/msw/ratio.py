"""Uniform ratio statistics over halfspaces and exact shatter counts.

ratio_sup maximizes over directions with the max-sliced search, _run_search.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ScaleError, SpecError
from .maxsliced import OptimizerOpts, _argsort_columns, _run_search
from .measures import Gaussian, RngStream, as_samples
from .ot1d import AnalyticCdf1d, _ndtr, _projected_law, project

_BRANCH_TRUTH = "truth_minus_empirical"      # (F - F_n) / sqrt(F)
_BRANCH_EMPIRICAL = "empirical_minus_truth"  # (F_n - F) / sqrt(F_n)


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


def _best_piece(f: np.ndarray, fn: np.ndarray):
    """Per column of cdf values at the sorted projections, with fn = 0, 1/n, ..., 1:
    the statistic, the active piece's row and whether it is a left limit.
    Ties go to the first "at" piece, then to the first left limit."""
    n = f.shape[0]
    f, g = np.concatenate([f, f]), np.concatenate([fn[1:], fn[:-1]])
    denom = np.sqrt(np.maximum(f, g))
    cand = np.divide(np.abs(f - g), denom, out=np.zeros(denom.shape), where=denom > 0.0)
    best = np.argmax(cand, axis=0)
    return cand[best, np.arange(cand.shape[1])], best % n, best >= n


def ratio_fixed_direction(xs, theta, law: AnalyticCdf1d) -> RatioStatResult:
    """sup_t |F(t) - F_n(t)| / sqrt(F(t) v F_n(t)) along one direction.

    The sup over t is attained on the closure of the jump set of the
    empirical cdf, so it is computed exactly by checking both one-sided
    limits at every sorted projection value: the monotone pieces between
    jumps take their extremes at those endpoints. The Gaussian law has no
    atoms, so both limits share its cdf value F(t_i); the left limit pairs it
    with F_n(t_i-) = (i-1)/n.
    """
    t = project(xs, theta)
    f = law.cdf(t)
    fn = (np.arange(t.size + 1) / t.size)[:, None]
    value, row, left = _best_piece(f[:, None], fn)
    i, left = int(row[0]), bool(left[0])
    f_star = f[i]
    return RatioStatResult(
        value=float(value[0]),
        arg_theta=np.asarray(theta, dtype=np.float64),
        arg_t=float(t[i]),
        branch=_BRANCH_TRUTH if f_star >= fn[i + 1 - left, 0] else _BRANCH_EMPIRICAL,
        side="left" if left else "at",
    )


class _RatioObjective:
    """theta -> the ratio statistic along each row, batched.

    Along theta it is the max of 2n pieces |Phi(z) - a| / sqrt(Phi(z) v a),
    one per sorted point x_(i) and side: z = <theta, x_(i) - mu> / s with
    s^2 = theta^T Sigma theta, and a = i/n ("at") or (i-1)/n ("left"). value
    takes the max with ratio_fixed_direction's _best_piece. Each piece is
    smooth while the sort order holds, so value_and_grad returns the active
    piece's gradient, a subgradient, from one sort per direction: phi(z)
    dz/dtheta dr/dPhi, with dz/dtheta = (x_(i) - mu)/s - z Sigma theta/s^2
    orthogonal to theta and dr/dPhi = (Phi + a)/(2 Phi^(3/2)) if Phi >= a,
    else -1/sqrt(a). certify is value at one direction.
    """

    def __init__(self, x: np.ndarray, spec: Gaussian):
        self.x, self.spec = x, spec
        self.fn = (np.arange(x.shape[0] + 1) / x.shape[0])[:, None]  # F_n(t_i-), F_n(t_i)

    def _pieces(self, sx: np.ndarray, th: np.ndarray):
        """Sigma theta, s, z, Phi(z) and _best_piece per column of the sorted sx."""
        sig_th = th @ self.spec.cov
        sd = np.sqrt(np.maximum(np.einsum("rd,rd->r", sig_th, th), 1e-300))
        z = (sx - th @ self.spec.mean) / sd
        f = _ndtr(z)
        return sig_th, sd, z, f, _best_piece(f, self.fn)

    def value(self, th: np.ndarray) -> np.ndarray:
        return self._pieces(np.sort(self.x @ th.T, axis=0), th)[-1][0]

    def value_and_grad(self, th: np.ndarray):
        order, sx, _ = _argsort_columns(self.x @ th.T)
        sig_th, sd, z, f, (vals, row, left) = self._pieces(sx, th)
        cols = np.arange(th.shape[0])
        zi, fi, a = z[row, cols], f[row, cols], self.fn[row + 1 - left, 0]
        top = np.maximum(fi, a)  # > 0, as the active piece is: the law has no atoms
        dr = np.where(fi >= a, (fi + a) / (2.0 * top), -1.0) / np.sqrt(top)
        coef = dr * np.exp(-0.5 * zi * zi) / (math.sqrt(2.0 * math.pi) * sd)
        dz = self.x[order[row, cols]] - self.spec.mean - (zi / sd)[:, None] * sig_th
        return vals, coef[:, None] * dz

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
