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
statistic through the same search at d >= 3, and at d = 2 above
ratio.SWEEP_MAX_N points or for a singular covariance; otherwise an exact
angular sweep (d = 2) or a check of both signs (d = 1) replaces it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# the 1-D distances are read from ot1d at each call, so a function rebound
# there (a test's monkeypatch, perfbench's tracer) is seen here even when this
# module is first imported after the rebinding
from . import ot1d
from .errors import (DomainError, ScaleError, SpecError, UnsupportedDimensionError, check_order,
                     check_vs_truth_order)
from .measures import Gaussian, RngStream, as_samples
from .ot1d import AnalyticCdf1d, _normal_quantile_blocks, project, quantile_blocks

# direction grids used only to seed the local search in low dimension
_SEED_GRID = {2: 256, 3: 1024}
# directions per value call in _value_on_grid
_GRID_BLOCK = 64
# each start's first step and its growth after a rise (it halves after a
# fall); a start stops after _PATIENCE tries without a relative gain of _TOL.
# 1e-6 is far below what the experiments resolve: a rate mean's standard
# error is 1.3-14% of the mean, and the search lands within about 1e-3 of the
# sup. 1e-7 costs about 20% more objective rows and moves no mean past that.
_STEP0, _GROW, _PATIENCE, _TOL = 0.1, 1.5, 10, 1e-6
_TINY = np.finfo(np.float64).tiny


@dataclass(frozen=True)
class OptimizerOpts:
    """Knobs of the Riemannian ascent, one preset for every caller.

    restarts is the number of random starts, which the seed directions join;
    max_iters caps the ascent's iterations. The step rule and the relative
    stall threshold _TOL = 1e-6 are fixed (see _ascend), not options: no
    caller needs another precision.
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
    # np.linalg.norm's own arithmetic for the 2-norm along an axis, so the
    # bits are the same, without its per-call checks
    return th / np.maximum(np.sqrt(np.add.reduce(th * th, axis=1, keepdims=True)), 1e-300)


def _unit_rows(th: np.ndarray) -> np.ndarray:
    """_normalize_rows at any scale. A finite nonzero row whose squared norm is not a
    finite normal double is first divided by its largest entry; other rows keep their bits."""
    with np.errstate(over="ignore"):
        sq = np.add.reduce(th * th, axis=1, keepdims=True)
    norms = sq.ravel().tolist()  # Python's min and max are cheaper on a few values
    if _TINY <= min(norms) and max(norms) < math.inf:
        return th / np.sqrt(sq)  # the 1e-300 floor of _normalize_rows is inactive here
    top = np.abs(th).max(axis=1, keepdims=True)
    odd = ~((_TINY <= sq) & (sq < np.inf)) & (0.0 < top) & (top < np.inf)
    return _normalize_rows(th / np.where(odd, top, 1.0))


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


def _argsort_columns(proj: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-column ascending order of proj, the sorted values and the flat index.

    flat = order * R + arange(R) indexes proj's (n, R) entries in C order, so
    proj.ravel()[flat] gathers the sorted values and a.ravel()[flat] = b, for a
    C-ordered a, scatters sorted rows back to their points: the two-sample and
    analytic objectives' take_along_axis and put_along_axis in fewer calls.

    Tied values take numpy's default sort order. Any order of tied points is
    an optimal coupling, so it leaves the sorted values, and every value
    computed from them, unchanged; each order's gradient is a subgradient.
    Each column is sorted on its own, so its order depends on that column's
    values only, not on the other directions in the batch.
    """
    order = np.argsort(proj, axis=0)
    flat = order * proj.shape[1] + np.arange(proj.shape[1])
    return order, proj.ravel()[flat], flat


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
            return np.add.reduce(np.abs(sx - sy) ** self.p, axis=0) / sx.shape[0]
        return np.sum(self.w * np.abs(sx[self.xi] - sy[self.yj]) ** self.p, axis=0)

    def value_and_grad(self, th: np.ndarray):
        _, sx, fx = _argsort_columns(self.x @ th.T)
        _, sy, fy = _argsort_columns(self.y @ th.T)
        p = self.p
        if self.equal:
            n = self.x.shape[0]
            delta = sx - sy
            absd = np.abs(delta)
            # np.mean's own sum-then-divide
            vals = np.add.reduce(absd**p, axis=0) / n
            coef = (p / n) * np.sign(delta) * absd ** (p - 1.0)
            ax = np.empty(coef.shape)
            ay = np.empty(coef.shape)
            ax.ravel()[fx] = coef
            ay.ravel()[fy] = coef
        else:
            delta = sx[self.xi] - sy[self.yj]
            absd = np.abs(delta)
            vals = np.sum(self.w * absd**p, axis=0)
            coef = (p * self.w * np.sign(delta) * absd ** (p - 1.0)).ravel()
            # bincount adds in input order from zero, so each point's sum of
            # block coefficients has the same bits as a sequential scatter
            r = th.shape[0]
            ax = np.bincount(fx[self.xi].ravel(), coef, self.x.shape[0] * r)
            ay = np.bincount(fy[self.yj].ravel(), coef, self.y.shape[0] * r)
            ax, ay = ax.reshape(-1, r), ay.reshape(-1, r)
        grads = ax.T @ self.x - ay.T @ self.y
        return vals, grads

    def certify(self, theta: np.ndarray) -> float:
        return ot1d.w1d_empirical(project(self.x, theta), project(self.y, theta), self.p)


class _AnalyticObjective:
    """theta -> W_2^2 between projected samples and the projected Gaussian law.

    The value is exact in closed form. With x~ the sample sorted along theta,
    m = <theta, mean>, s^2 = theta^T Sigma theta, c_i = x~_i - m and g the
    block integrals of Phi^-1 (ot1d._normal_quantile_blocks, built once per n
    from the standard library's normal quantile),

        W_2^2 = mean(c^2) - 2 s sum_i g_i c_i + s^2,

    so each direction costs one projection, one sort and one dot product with
    g. certify is ot1d.w1d_vs_cdf, the same form at one direction.

    value sorts the values only; value_and_grad sorts with _argsort_columns,
    where tied projections take numpy's sort order. Any such order is an
    optimal coupling, so value never depends on it.
    """

    def __init__(self, x: np.ndarray, spec: Gaussian):
        self.x, self.mean, self.cov = x, spec.mean, spec.cov
        self.g = _normal_quantile_blocks(x.shape[0])

    def _scale(self, th: np.ndarray):
        """<theta, mean>, Sigma theta and the projected sd s, per row of th."""
        sig_th = th @ self.cov
        s = np.sqrt(np.maximum(np.einsum("rd,rd->r", sig_th, th), 0.0))
        return th @ self.mean, sig_th, s

    def _closed_form(self, sx: np.ndarray, th: np.ndarray):
        """The exact W_2^2 per column of the sorted projections sx."""
        mth, sig_th, s = self._scale(th)
        c = sx - mth
        b = self.g @ c
        vals = np.maximum(np.mean(c * c, axis=0) - 2.0 * s * b + s * s, 0.0)
        return vals, c, b, sig_th, s

    def value(self, th: np.ndarray) -> np.ndarray:
        return self._closed_form(np.sort(self.x @ th.T, axis=0), th)[0]

    def value_and_grad(self, th: np.ndarray):
        _, sx, fx = _argsort_columns(self.x @ th.T)
        vals, c, b, sig_th, s = self._closed_form(sx, th)
        per_point = (2.0 / sx.shape[0]) * c - 2.0 * s * self.g[:, None]
        ax = np.empty(per_point.shape)
        ax.ravel()[fx] = per_point
        grads = (
            ax.T @ self.x
            - per_point.sum(axis=0)[:, None] * self.mean[None, :]
            + (2.0 * (s - b) / np.maximum(s, 1e-150))[:, None] * sig_th
        )
        return vals, grads

    def certify(self, theta: np.ndarray) -> float:
        # m and s from _scale, not _projected_law, so the certificate reads the search's bits
        mth, _, s = self._scale(theta[None, :])
        return ot1d.w1d_vs_cdf(project(self.x, theta), AnalyticCdf1d(float(mth[0]), float(s[0])), 2.0)


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
    """Random restarts plus seed directions, as unit rows; non-finite and zero seeds are dropped."""
    d = pooled.shape[1]
    rows = [rng.child(r).generator().standard_normal(d) for r in range(opts.restarts)]
    # data near the top of the double range overflow the scatter matrix, where
    # eigh fails; those searches go without the principal axes
    with np.errstate(over="ignore", invalid="ignore"):
        centered = pooled - pooled.mean(axis=0)
        scatter = centered.T @ centered
    if pooled.shape[0] > 1 and np.isfinite(scatter).all():
        _, vecs = np.linalg.eigh(scatter)
        rows.extend(vecs[:, -1 - k] for k in range(min(3, d)))
    if extra_axes is not None:
        rows.extend(extra_axes)
    rows.append(mean_diff)
    if d in _SEED_GRID:
        dirs = grid_directions(d, _SEED_GRID[d])
        rows.append(dirs[int(np.argmax(_value_on_grid(objective, dirs)))])
    # an overflowed mean difference or extra axis is a non-finite row, and
    # argmax would prefer a NaN value
    rows = np.asarray(rows)
    return _unit_rows(rows[np.isfinite(rows).all(axis=1) & rows.any(axis=1)])


def _tangent(v: np.ndarray, th: np.ndarray) -> np.ndarray:
    """The rows of v projected onto the tangent spaces at the unit rows of th, normalised."""
    return _unit_rows(v - np.einsum("rd,rd->r", v, th)[:, None] * th)


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
    start stops after _PATIENCE (10) tries in a row without a relative gain
    of _TOL (1e-6), the one stop rule besides max_iters; only live starts
    are evaluated. Returns the values, the directions, the iteration count
    and which starts stopped on a stall.
    """
    th = starts.copy()
    vals, grads = objective.value_and_grad(th)
    u = _tangent(grads, th)
    step = np.full(th.shape[0], _STEP0)
    stalled = np.zeros(th.shape[0], dtype=int)
    iters = 0
    live = np.arange(th.shape[0])
    while iters < opts.max_iters and live.size:
        iters += 1
        old, here = vals[live], th[live]
        trial = _normalize_rows(here + step[live, None] * u[live])
        new_vals, new_grads = objective.value_and_grad(trial)
        rise = new_vals > old
        gain = new_vals - old > _TOL * old
        kept = np.where(rise[:, None], trial, here)
        th[live], vals[live] = kept, np.where(rise, new_vals, old)
        u[live] = _tangent(u[live] + _tangent(new_grads, kept), kept)
        step[live] *= np.where(rise, _GROW, 0.5)
        stalled[live] = np.where(gain, 0, stalled[live] + 1)
        live = np.flatnonzero(stalled < _PATIENCE)
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
    check_order(p)
    x, y = as_samples(xs), as_samples(ys)
    if x.shape[1] != y.shape[1]:
        raise DomainError(f"dimension mismatch: {x.shape[1]} vs {y.shape[1]}")
    return x, y


def msw_empirical(xs, ys, p: float, opts: OptimizerOpts | None = None,
                  rng: RngStream | None = None, *, extra_axes=None) -> MswResult:
    """Max-sliced W_p between two empirical measures (certified lower bound).

    Sample sizes may differ; dimensions must agree. For d = 1 the sphere is
    {-1, +1} and the result is exact. extra_axes, if given, holds further
    start directions as the rows of a (k, d) array; they join the random
    restarts and the seed directions (the harness passes the winner of the
    truncation level below, padded with zeros).
    """
    x, y = _sample_pair(xs, ys, p)
    d = x.shape[1]
    if d == 1:
        value = ot1d.w1d_empirical(np.sort(x[:, 0]), np.sort(y[:, 0]), p)
        return MswResult(value, np.array([1.0]), restarts_used=0, iterations=0)
    if extra_axes is not None:
        extra_axes = np.asarray(extra_axes, dtype=np.float64)
        if extra_axes.ndim != 2 or extra_axes.shape[1] != d:
            raise DomainError(f"extra_axes must have shape (k, {d}), got {extra_axes.shape}")
    objective = _TwoSampleObjective(x, y, p)
    return _run_search(objective, np.vstack([x, y]), x.mean(0) - y.mean(0), extra_axes, opts, rng)


def msw_vs_analytic(xs, spec: Gaussian, p: float, opts: OptimizerOpts | None = None,
                    rng: RngStream | None = None) -> MswResult:
    """Max-sliced W_2 between an empirical measure and a Gaussian law.

    Only Gaussian specs are supported: the projected law along theta is then
    N(<mean, theta>, theta^T Sigma theta), and W_2 along a direction is exact
    in closed form, in the search and in the certificate. p must be 2; any
    other order is a DomainError.
    """
    if not isinstance(spec, Gaussian):
        raise SpecError("analytic max-sliced distance requires a Gaussian spec")
    check_vs_truth_order(p)
    x = as_samples(xs)
    if x.shape[1] != spec.dim:
        raise DomainError(f"dimension mismatch: samples {x.shape[1]}, spec {spec.dim}")
    d = x.shape[1]
    objective = _AnalyticObjective(x, spec)
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
