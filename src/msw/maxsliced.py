"""Maximization of the projected Wasserstein distance over the unit sphere.

The sup over directions is approached by Riemannian gradient ascent (Lin,
Fan, Ho, Cuturi and Jordan, NeurIPS 2020) from random restarts plus
data-driven seed directions, which stops on its own once every start stalls;
all live starts are iterated in lockstep as one batched array pass, which is
what makes the Monte Carlo experiments affordable. Reported values are
certified lower bounds: the distance is recomputed at the returned direction.

_run_search takes any objective with this three-member protocol: value and
value_and_grad, batched over the rows of a direction matrix, and certify, the
value recomputed from scratch at one direction. msw.ratio runs the ratio
statistic through the same search.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# the 1-D distances are read from ot1d at each call, so a function rebound
# there (a test's monkeypatch, perfbench's tracer) is seen here even when this
# module is first imported after the rebinding
from . import ot1d
from .errors import DomainError, ScaleError, SpecError, UnsupportedDimensionError
from .measures import Gaussian, RngStream, as_samples
from .ot1d import _normal_quantile_blocks, gaussian_law, project, quantile_blocks

# direction grids used only to seed the local search in low dimension
_SEED_GRID = {2: 256, 3: 1024}
# directions per value call in _value_on_grid
_GRID_BLOCK = 64
# quadrature order for the analytic objective during iteration, used only at
# p != 2 (p = 2 has a closed form); the final certificate is recomputed at the
# full default order of w1d_vs_cdf
_OPT_NODES = 8
# each start's first step and its growth after a rise (it halves after a
# fall); a start stops after _PATIENCE tries without a relative gain of _TOL
_STEP0, _GROW, _PATIENCE, _TOL = 0.1, 1.5, 10, 1e-7


@dataclass(frozen=True)
class OptimizerOpts:
    """Knobs of the Riemannian ascent, one preset for every caller.

    restarts is the number of random starts, which the seed directions join;
    max_iters caps the ascent's iterations. The step rule and the relative
    stall threshold _TOL are fixed (see _ascend).
    """

    restarts: int = 6
    max_iters: int = 200

    def __post_init__(self):
        if self.restarts < 1:
            raise DomainError(f"restarts must be >= 1, got {self.restarts}")
        if self.max_iters < 1:
            raise DomainError(f"max_iters must be >= 1, got {self.max_iters}")


@dataclass(frozen=True)
class MswResult:
    """Outcome of a max-sliced distance computation.

    value is recomputed at argmax after the search, so it is a certified lower
    bound on the true supremum. converged is whether the winning start stopped
    on the stall rule before max_iters; results without a search count as
    converged. oracle_gap is set only by msw_grid_oracle: the sup-error bound
    of its direction grid.
    """

    value: float
    argmax: np.ndarray
    restarts_used: int
    iterations: int
    converged: bool = True
    oracle_gap: float | None = None


def _normalize_rows(th: np.ndarray) -> np.ndarray:
    """The rows of th scaled to unit norm; a zero row stays zero."""
    return th / np.maximum(np.linalg.norm(th, axis=1, keepdims=True), 1e-300)


def grid_directions(d: int, resolution: int) -> np.ndarray:
    """Uniform angles on the circle (d=2) or a Fibonacci sphere grid (d=3)."""
    if resolution < 1:
        raise DomainError(f"resolution must be >= 1, got {resolution}")
    if d == 2:
        ang = 2.0 * math.pi * np.arange(resolution) / resolution
        return np.column_stack([np.cos(ang), np.sin(ang)])
    if d == 3:
        i = np.arange(resolution)
        z = 1.0 - (2.0 * i + 1.0) / resolution
        r = np.sqrt(np.maximum(1.0 - z * z, 0.0))
        phi = i * math.pi * (3.0 - math.sqrt(5.0))
        return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])
    raise UnsupportedDimensionError(f"direction grids exist for d in {{2, 3}}, got d={d}")


def _argsort_columns(proj: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-column ascending order of proj and the sorted values.

    Tied values take numpy's default sort order. Any order of tied points is
    an optimal coupling, so it leaves the sorted values, and every value
    computed from them, unchanged; each order's gradient is a subgradient.
    Each column is sorted on its own, so its order depends on that column's
    values only, not on the other directions in the batch.
    """
    order = np.argsort(proj, axis=0)
    return order, proj[order, np.arange(proj.shape[1])]


class _TwoSampleObjective:
    """theta -> W_p^p(mu_theta, nu_theta) for two empirical measures, batched.

    Directions are passed as the rows of a matrix; values and fixed-matching
    subgradients come back one per row. Tied projections couple in numpy's
    sort order (_argsort_columns); any such order is an optimal coupling, so
    value, which needs only the sorted values, never depends on it.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray, p: float):
        self.x, self.y, self.p = x, y, p
        self.equal = x.shape[0] == y.shape[0]
        if not self.equal:
            w, xi, yj = quantile_blocks(x.shape[0], y.shape[0])
            self.w, self.xi, self.yj = w[:, None], xi, yj

    def value(self, th: np.ndarray) -> np.ndarray:
        sx = np.sort(self.x @ th.T, axis=0)
        sy = np.sort(self.y @ th.T, axis=0)
        if self.equal:
            return np.mean(np.abs(sx - sy) ** self.p, axis=0)
        return np.sum(self.w * np.abs(sx[self.xi] - sy[self.yj]) ** self.p, axis=0)

    def value_and_grad(self, th: np.ndarray):
        ox, sx = _argsort_columns(self.x @ th.T)
        oy, sy = _argsort_columns(self.y @ th.T)
        p = self.p
        if self.equal:
            n = self.x.shape[0]
            delta = sx - sy
            absd = np.abs(delta)
            vals = np.mean(absd**p, axis=0)
            coef = (p / n) * np.sign(delta) * absd ** (p - 1.0)
            ax = np.empty_like(coef)
            ay = np.empty_like(coef)
            np.put_along_axis(ax, ox, coef, axis=0)
            np.put_along_axis(ay, oy, coef, axis=0)
        else:
            delta = sx[self.xi] - sy[self.yj]
            absd = np.abs(delta)
            vals = np.sum(self.w * absd**p, axis=0)
            coef = (p * self.w * np.sign(delta) * absd ** (p - 1.0)).ravel()
            # bincount adds in input order from zero, so each point's sum of
            # block coefficients has the same bits as a sequential scatter
            r = th.shape[0]
            cols = np.arange(r)
            ax = np.bincount((ox[self.xi] * r + cols).ravel(), coef, self.x.shape[0] * r)
            ay = np.bincount((oy[self.yj] * r + cols).ravel(), coef, self.y.shape[0] * r)
            ax, ay = ax.reshape(-1, r), ay.reshape(-1, r)
        grads = ax.T @ self.x - ay.T @ self.y
        return vals, grads

    def certify(self, theta: np.ndarray) -> float:
        return ot1d.w1d_empirical(project(self.x, theta), project(self.y, theta), self.p)


class _AnalyticObjective:
    """theta -> W_p^p between projected samples and the projected Gaussian law.

    At p = 2 the value is exact in closed form. With x~ the sample sorted
    along theta, m = <theta, mean>, s^2 = theta^T Sigma theta, c_i = x~_i - m,
    z_i = Phi^-1(i/n) and g_i = phi(z_{i-1}) - phi(z_i) = int Phi^-1 over block
    i (phi(z_0) = phi(z_n) = 0),

        W_2^2 = mean(c^2) - 2 s sum_i g_i c_i + s^2,

    so each direction costs one projection, one sort and one dot product with
    g. Quadrature serves p != 2 only: each direction costs a weighted power
    sum over the standard normal quantiles at _OPT_NODES Gauss-Legendre nodes
    per block. g and the nodes' quantiles depend on n only;
    ot1d._normal_quantile_blocks builds them once per n with ot1d._ndtri,
    which matches scipy's ndtri bit for bit and loads no scipy.

    value sorts the values only; value_and_grad sorts with _argsort_columns,
    where tied projections take numpy's sort order. Any such order is an
    optimal coupling, so value never depends on it.
    """

    def __init__(self, x: np.ndarray, spec: Gaussian, p: float):
        self.x, self.p = x, p
        self.mean, self.cov = spec.mean, spec.cov
        if p == 2.0:
            (self.g,) = _normal_quantile_blocks(x.shape[0], None)
        else:
            self.wq, self.z = _normal_quantile_blocks(x.shape[0], _OPT_NODES)

    def _scale(self, th: np.ndarray):
        """<theta, mean>, Sigma theta and the projected sd s, per row of th."""
        sig_th = th @ self.cov
        s = np.sqrt(np.maximum(np.einsum("rd,rd->r", sig_th, th), 0.0))
        return th @ self.mean, sig_th, s

    def _closed_form(self, sx: np.ndarray, th: np.ndarray):
        """p = 2: the exact W_2^2 per column of the sorted projections sx."""
        mth, sig_th, s = self._scale(th)
        c = sx - mth
        b = self.g @ c
        vals = np.maximum(np.mean(c * c, axis=0) - 2.0 * s * b + s * s, 0.0)
        return vals, c, b, sig_th, s

    def _delta(self, sx: np.ndarray, th: np.ndarray):
        """Sigma theta, the projected sd s, and sx minus the quantiles at the nodes."""
        mth, sig_th, s = self._scale(th)
        delta = sx[:, None, :] - mth[None, None, :] - s[None, None, :] * self.z[:, :, None]
        return sig_th, s, delta

    def value(self, th: np.ndarray) -> np.ndarray:
        sx = np.sort(self.x @ th.T, axis=0)
        if self.p == 2.0:
            return self._closed_form(sx, th)[0]
        *_, delta = self._delta(sx, th)
        return np.einsum("nk,nkr->r", self.wq, np.abs(delta) ** self.p)

    def value_and_grad(self, th: np.ndarray):
        ox, sx = _argsort_columns(self.x @ th.T)
        if self.p == 2.0:
            vals, c, b, sig_th, s = self._closed_form(sx, th)
            per_point = (2.0 / sx.shape[0]) * c - 2.0 * s * self.g[:, None]
            total = per_point.sum(axis=0)
            s_coef = 2.0 * (s - b)
        else:
            sig_th, s, delta = self._delta(sx, th)
            absd = np.abs(delta)
            vals = np.einsum("nk,nkr->r", self.wq, absd**self.p)
            coef = self.p * self.wq[:, :, None] * np.sign(delta) * absd ** (self.p - 1.0)
            per_point = coef.sum(axis=1)       # (n, R)
            total = per_point.sum(axis=0)      # (R,)
            s_coef = -np.einsum("nkr,nk->r", coef, self.z)
        ax = np.empty_like(per_point)
        np.put_along_axis(ax, ox, per_point, axis=0)
        grads = (
            ax.T @ self.x
            - total[:, None] * self.mean[None, :]
            + (s_coef / np.maximum(s, 1e-150))[:, None] * sig_th
        )
        return vals, grads

    def certify(self, theta: np.ndarray) -> float:
        if self.p == 2.0:
            vals = self._closed_form(project(self.x, theta)[:, None], theta[None, :])[0]
            return math.sqrt(vals[0])
        law = gaussian_law(float(theta @ self.mean), float(theta @ self.cov @ theta))
        return ot1d.w1d_vs_cdf(project(self.x, theta), law, self.p)


def _value_on_grid(objective, dirs: np.ndarray) -> np.ndarray:
    """Objective values over many directions, _GRID_BLOCK directions per call.

    The fixed width bounds memory by one block of the objective's work arrays,
    and it makes each value's bits depend on its block only, not on n or on
    the grid's length.
    """
    return np.concatenate([
        objective.value(dirs[k : k + _GRID_BLOCK]) for k in range(0, dirs.shape[0], _GRID_BLOCK)
    ])


def _collect_starts(objective, pooled: np.ndarray, mean_diff: np.ndarray,
                    extra_axes: np.ndarray | None, opts: OptimizerOpts, rng: RngStream):
    """Random restarts plus seed directions, as unit rows."""
    d = pooled.shape[1]
    rows = [
        rng.child(r).generator().standard_normal(d) for r in range(opts.restarts)
    ]
    centered = pooled - pooled.mean(axis=0)
    if pooled.shape[0] > 1:
        _, vecs = np.linalg.eigh(centered.T @ centered)
        rows.extend(vecs[:, -1 - k] for k in range(min(3, d)))
    if extra_axes is not None:
        rows.extend(extra_axes)
    if np.linalg.norm(mean_diff) > 1e-12:
        rows.append(mean_diff)
    if d in _SEED_GRID:
        dirs = grid_directions(d, _SEED_GRID[d])
        rows.append(dirs[int(np.argmax(_value_on_grid(objective, dirs)))])
    return _normalize_rows(np.asarray(rows))


def _tangent(v: np.ndarray, th: np.ndarray) -> np.ndarray:
    """The rows of v projected onto the tangent spaces at the unit rows of th, normalised."""
    return _normalize_rows(v - np.einsum("rd,rd->r", v, th)[:, None] * th)


def _ascend(objective, starts: np.ndarray, opts: OptimizerOpts):
    """Lockstep Riemannian gradient ascent over all starts at once.

    Each start tries th + step * u, renormalised, and keeps it only when the
    value rises. u is a unit tangent direction: at first the normalised
    tangent gradient g - <g, th> th, and after each try the normalised sum of
    u and the try's normalised tangent gradient, both taken at the kept
    point. Across a ridge, where the gradient flips between tries, the flips
    cancel and u turns along the ridge. The step starts at _STEP0, grows by
    _GROW after a rise and halves after a fall. Only unit directions and
    value comparisons enter, so the rule is free of the data's units. A
    start stops after _PATIENCE tries in a row without a relative gain of
    _TOL; only live starts are evaluated. Returns the values, the
    directions, the iteration count and which starts stopped on a stall.
    """
    th = starts.copy()
    vals, grads = objective.value_and_grad(th)
    u = _tangent(grads, th)
    step = np.full(th.shape[0], _STEP0)
    stalled = np.zeros(th.shape[0], dtype=int)
    iters = 0
    while iters < opts.max_iters and np.any(stalled < _PATIENCE):
        iters += 1
        live = np.flatnonzero(stalled < _PATIENCE)
        trial = _normalize_rows(th[live] + step[live, None] * u[live])
        new_vals, new_grads = objective.value_and_grad(trial)
        rise = new_vals > vals[live]
        gain = new_vals - vals[live] > _TOL * vals[live]
        th[live[rise]], vals[live[rise]] = trial[rise], new_vals[rise]
        u[live] = _tangent(u[live] + _tangent(new_grads, th[live]), th[live])
        step[live] *= np.where(rise, _GROW, 0.5)
        stalled[live] = np.where(gain, 0, stalled[live] + 1)
    return vals, th, iters, stalled >= _PATIENCE


def _run_search(objective, pooled, mean_diff, extra_axes, opts, rng) -> MswResult:
    """The search from the default OptimizerOpts and RngStream(0) where opts or rng is None."""
    opts, rng = opts or OptimizerOpts(), rng or RngStream(0)
    starts = _collect_starts(objective, pooled, mean_diff, extra_axes, opts, rng)
    vals, th, iters, converged = _ascend(objective, starts, opts)
    idx = int(np.argmax(vals))  # ties resolve to the lowest start index
    return MswResult(objective.certify(th[idx]), th[idx], restarts_used=starts.shape[0],
                     iterations=iters, converged=bool(converged[idx]))


def _sample_pair(xs, ys, p: float):
    """Both samples as (n, d) arrays, once the order and the dimensions check out."""
    if not p >= 1.0:
        raise DomainError(f"order p must be >= 1, got {p}")
    x, y = as_samples(xs), as_samples(ys)
    if x.shape[1] != y.shape[1]:
        raise DomainError(f"dimension mismatch: {x.shape[1]} vs {y.shape[1]}")
    return x, y


def msw_empirical(xs, ys, p: float, opts: OptimizerOpts | None = None,
                  rng: RngStream | None = None) -> MswResult:
    """Max-sliced W_p between two empirical measures (certified lower bound).

    Sample sizes may differ; dimensions must agree. For d = 1 the sphere is
    {-1, +1} and the result is exact.
    """
    x, y = _sample_pair(xs, ys, p)
    d = x.shape[1]
    if d == 1:
        value = ot1d.w1d_empirical(np.sort(x[:, 0]), np.sort(y[:, 0]), p)
        return MswResult(value, np.array([1.0]), restarts_used=0, iterations=0)
    objective = _TwoSampleObjective(x, y, p)
    return _run_search(objective, np.vstack([x, y]), x.mean(0) - y.mean(0), None, opts, rng)


def msw_vs_analytic(xs, spec: Gaussian, p: float, opts: OptimizerOpts | None = None,
                    rng: RngStream | None = None) -> MswResult:
    """Max-sliced W_p between an empirical measure and a Gaussian law.

    Only Gaussian specs are supported: the projected law along theta is then
    N(<mean, theta>, theta^T Sigma theta) in closed form. At p = 2 the
    distance along a direction is exact in closed form, in the search and in
    the certificate; quadrature serves p != 2 only, and there the value at the
    returned direction is recomputed with full quadrature order.
    """
    if not isinstance(spec, Gaussian):
        raise SpecError("analytic max-sliced distance requires a Gaussian spec")
    if not p >= 1.0:
        raise DomainError(f"order p must be >= 1, got {p}")
    x = as_samples(xs)
    if x.shape[1] != spec.dim:
        raise DomainError(f"dimension mismatch: samples {x.shape[1]}, spec {spec.dim}")
    d = x.shape[1]
    objective = _AnalyticObjective(x, spec, p)
    if d == 1:
        theta = np.array([1.0])
        return MswResult(objective.certify(theta), theta, restarts_used=0, iterations=0)
    _, cov_axes = np.linalg.eigh(spec.cov)
    extra = cov_axes[:, : -min(3, d) - 1 : -1].T
    return _run_search(objective, x, x.mean(0) - spec.mean, extra, opts, rng)


def msw_grid_oracle(xs, ys, p: float, resolution: int) -> MswResult:
    """Exhaustive direction-grid evaluation of the max-sliced W_p (d = 2 or 3).

    oracle_gap carries the sup-error bound: the projection map is Lipschitz in
    the direction with constant max_i ||x_i|| + max_j ||y_j||, so the true
    supremum exceeds the grid maximum by at most that constant times the grid
    spacing.
    """
    x, y = _sample_pair(xs, ys, p)
    d = x.shape[1]
    if d not in (2, 3):
        raise UnsupportedDimensionError(f"grid oracle supports d in {{2, 3}}, got d={d}")
    objective = _TwoSampleObjective(x, y, p)
    dirs = grid_directions(d, resolution)
    theta = dirs[int(np.argmax(_value_on_grid(objective, dirs)))]
    value = objective.certify(theta)
    lipschitz = float(np.max(np.linalg.norm(x, axis=1)) + np.max(np.linalg.norm(y, axis=1)))
    spacing = 2.0 * math.pi / resolution if d == 2 else math.pi / math.sqrt(resolution)
    return MswResult(value, theta, restarts_used=resolution, iterations=0,
                     oracle_gap=lipschitz * spacing)


def wasserstein_full(xs, ys, p: float) -> float:
    """Exact W_p between equal-size empirical measures via optimal assignment.

    Limited to n <= 64 points, the scale where the exact n x n assignment
    solve stays trivially fast.
    """
    x, y = _sample_pair(xs, ys, p)
    if x.shape[0] != y.shape[0]:
        raise DomainError(f"equal sample sizes required, got {x.shape[0]} and {y.shape[0]}")
    if x.shape[0] > 64:
        raise ScaleError(f"exact assignment is limited to n <= 64, got n={x.shape[0]}")
    from scipy.optimize import linear_sum_assignment
    from scipy.spatial.distance import cdist

    cost = cdist(x, y) ** p
    rows, cols = linear_sum_assignment(cost)
    return float(np.mean(cost[rows, cols]) ** (1.0 / p))
