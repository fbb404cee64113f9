"""Uniform ratio statistics over halfspaces and exact shatter counts.

At d = 2, with at most SWEEP_MAX_N points and a positive definite covariance,
ratio_sup computes the exact sup over directions by an angular sweep; the
optimizer options and stream are not read there. Otherwise it maximizes with
the max-sliced search, _run_search (needs_search says which). The sweep, the
d = 1 case and every certificate evaluate the normal cdf with ot1d._phi; only
the search's batched objective takes scipy.special's ndtr, which is faster per
element, so a run that never searches loads no scipy submodule.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ScaleError
from .maxsliced import OptimizerOpts, _argsort_columns, _prescaled, _run_search
from .measures import Gaussian, RngStream, as_samples
from .ot1d import AnalyticCdf1d, _phi, _projected_law, _projected_moments, _scale_exponent, project

# ratio_sup's sweep runs up to this many points at d = 2; above it the search
# is faster (the sweep costs O(n^2 log n), timings in BENCH_21.json)
SWEEP_MAX_N = 300


def needs_search(spec: Gaussian, n: int) -> bool:
    """Whether ratio_sup searches on n points of spec: at d >= 3, and at d = 2
    above SWEEP_MAX_N points or for a covariance without a Cholesky factor.
    It also searches where the whitened sample overflows, which only the data
    show."""
    if spec.dim != 2 or n > SWEEP_MAX_N:
        return spec.dim > 1
    return _cholesky(spec) is None


@dataclass(frozen=True)
class RatioStatResult:
    """Value and argmax direction of the self-normalized cdf deviation statistic."""

    value: float
    arg_theta: np.ndarray


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
    with F_n(t_i-) = (i-1)/n. A law without a finite mean and a positive,
    finite sd is a DomainError.
    """
    if not (0.0 < law.sd < math.inf and math.isfinite(law.mean)):
        raise DomainError(f"the law needs a finite mean and a positive, finite sd, "
                          f"got mean {law.mean!r}, sd {law.sd!r}")
    t = project(xs, theta)
    fn = (np.arange(t.size + 1) / t.size)[:, None]
    value = _best_piece(law.cdf(t)[:, None], fn)[0]
    return RatioStatResult(float(value[0]), np.asarray(theta, dtype=np.float64))


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
        from scipy.special import ndtr  # faster per element than ot1d._phi

        mth, sig_th, sd = _projected_moments(th, self.spec.mean, self.spec.cov)
        z = (sx - mth) / sd
        f = ndtr(z)
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


def _cholesky(spec: Gaussian):
    """L with L L^T the symmetrized covariance, None when it has none."""
    try:
        return np.linalg.cholesky(0.5 * (spec.cov + spec.cov.T))
    except np.linalg.LinAlgError:
        return None


def _whiten(x: np.ndarray, spec: Gaussian):
    """(w, chol) with w = L^-1 (x - mean) for the symmetrized covariance L L^T,
    so that <theta, x - mean> / |L^T theta| = <u, w> for u = L^T theta / |L^T theta|;
    None when the covariance is singular or a whitened coordinate overflows."""
    chol = _cholesky(spec)
    if chol is None:
        return None
    w = np.linalg.solve(chol, (x - spec.mean).T).T
    return (w, chol) if np.all(np.isfinite(w)) else None


def _piece_max(f: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """max over c in {lo, hi} of |f - c| / sqrt(f v c), for lo <= hi and hi > 0.

    Each piece is quasi-convex in c, so this is (f - lo) / sqrt(f) where f lies
    above lo and (hi - f) / sqrt(hi) where it lies below hi; fmax drops the
    0 / 0 of f = lo = 0.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.fmax((f - lo) / np.sqrt(f), (hi - f) / np.sqrt(hi))


def _sweep_direction(w: np.ndarray) -> np.ndarray:
    """The unit u at which the statistic of the whitened sample w (n, 2) against
    N(0, I_2) attains its sup over directions u = (cos a, sin a).

    Along u, point i's pieces |Phi(z_i) - c| / sqrt(Phi(z_i) v c), z_i = <u, w_i>,
    are quasi-convex in z_i and in c. So over an arc of u on which no two
    points tie, the sup lies at an arc end, where two points tie, or where z_i
    is stationary, at u = +-w_i / |w_i|. With k points strictly below a tie
    group there, c = k / n and c = (k + group size) / n bound every other c.

    Duplicate points are merged, with multiplicities m. For each point i, one
    event of each pair of antipodes lies in [0, pi): a tie with each other
    point j, where j enters below i (+m_j) or leaves (-m_j), and one
    stationary direction. Sorted by angle, a cumulative sum from the points
    below i just before a = 0 gives k at each event; the antipode a + pi
    reverses the order, so there k' = n - k - group size and z' = -z. With
    d = w_j - w_i, j enters below i at u = (-d_y, d_x) / |d|, where
    z_i = w_j x w_i / |d|, and leaves at -u, where z_i = w_i x w_j / |d|.
    """
    pts, mult = np.unique(w[:, 0] + 1j * w[:, 1], return_counts=True)
    n, q, cols = w.shape[0], pts.size, np.arange(pts.size)
    # a power of two, so exact: the largest |coordinate| goes to [1/4, 1/2), and
    # no cross product or squared distance overflows
    e = _scale_exponent(pts.real, pts.imag)
    px, py = np.ldexp(pts.real, -e), np.ldexp(pts.imag, -e)
    dx, dy = px[None, :] - px[:, None], py[None, :] - py[:, None]  # d at [i, j]
    # floored, so the diagonal's z is 0, not 0 / 0; a pair below the floor lies,
    # with its z, within 1e-138 times the largest |coordinate| of the origin
    dist = np.sqrt(np.maximum(dx * dx + dy * dy, np.finfo(np.float64).tiny))
    # Phi(z_i) where j leaves below i; f.T holds Phi(-z_i), where j enters
    f = _phi(np.ldexp((px[:, None] * py[None, :] - py[:, None] * px[None, :]) / dist, e))
    # j below i just before a = 0, a tie at a = 0 (dx = +-0, dy > 0) included,
    # leaves in [0, pi), where i enters below j; any other j enters there
    below = (dx < 0.0) | ((dx == 0.0) & (dy > 0.0))
    enter = np.arctan2(dx, -dy)
    ang = np.where(below, enter.T, enter)
    steps = np.where(below, -mult, mult).astype(np.float64)
    fe, fa = np.where(below, f, f.T), np.where(below, f.T, f)  # Phi(z), Phi(-z)
    stat = np.arctan2(py, px)
    up = stat >= 0.0  # +w_i / |w_i| lies in [0, pi]
    norm = np.ldexp(np.sqrt(px * px + py * py), e)
    ang[cols, cols] = np.where(up, stat, stat + math.pi)
    fe[cols, cols] = _phi(np.where(up, norm, -norm))
    fa[cols, cols] = _phi(np.where(up, -norm, norm))
    steps[cols, cols] = 0.0
    order = np.argsort(ang, axis=1)
    order += q * cols[:, None]  # flat indices, each row in angle order
    steps, fe, fa = np.take(steps, order), np.take(fe, order), np.take(fa, order)
    k_lo = (below @ mult)[:, None] + np.cumsum(steps, axis=1) - np.maximum(steps, 0.0)
    k_hi = k_lo + mult[:, None] + np.abs(steps)
    vals = (_piece_max(fe, k_lo / n, k_hi / n), _piece_max(fa, (n - k_hi) / n, (n - k_lo) / n))
    best = [int(np.argmax(v)) for v in vals]
    side = int(vals[1].flat[best[1]] > vals[0].flat[best[0]])  # 1: the antipode
    a = float(np.take(ang, order.flat[best[side]]))
    return (1.0 - 2.0 * side) * np.array([math.cos(a), math.sin(a)])


def ratio_sup(xs, spec: Gaussian, opts: OptimizerOpts | None = None,
              rng: RngStream | None = None) -> RatioStatResult:
    """The ratio statistic's sup over directions, or a certified lower bound on it.

    At d = 1 both signs are checked, +1 winning a tie. At d = 2, with at most
    SWEEP_MAX_N points and a positive definite covariance, the angular sweep
    of _sweep_direction finds the maximizing direction, so the value is the
    sup itself (a tie direction is as precise as the whitened difference that
    defines it), and opts and rng are not read. Otherwise the max-sliced
    search (restarts, seed directions, the Riemannian ascent's adaptive step
    and relative stall rule) runs on the batched ratio objective. Either way
    the result is recomputed at the returned direction by
    ratio_fixed_direction, so it is a certified lower bound on the sup over
    (theta, t). All of it runs on the sample and the law divided by one power
    of two (msw.maxsliced._prescaled), which leaves the statistic as it is.
    """
    _, spec, x = _prescaled(xs, spec)
    if x.shape[1] == 1:
        fits = (ratio_fixed_direction(x, th, _projected_law(spec, th))
                for th in np.array([[1.0], [-1.0]]))
        return max(fits, key=lambda fit: fit.value)  # the first on a tie
    whitened = None if needs_search(spec, x.shape[0]) else _whiten(x, spec)
    if whitened is not None:
        w, chol = whitened
        theta = np.linalg.solve(chol.T, _sweep_direction(w))  # L^-T u
        theta /= math.sqrt(theta @ theta)
    else:
        objective = _RatioObjective(x, spec)
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
