import math

import numpy as np
import pytest
from scipy.special import ndtri

from msw import (
    DomainError,
    Gaussian,
    OptimizerOpts,
    RngStream,
    ScaleError,
    SpecError,
    gaussian_law,
    ratio_fixed_direction,
    ratio_sup,
    ratio_tail_bound,
    sample,
    shatter_count,
    vc_bound,
)
from msw.maxsliced import _normalize_rows, grid_directions
from msw.ratio import _projected_law, _RatioObjective

FAST = OptimizerOpts(restarts=6, max_iters=50)


def test_single_point_analytic_value():
    # one sample at 0 against N(0,1): sup is sqrt(1/2), in the left limit
    res = ratio_fixed_direction([[0.0]], [1.0], gaussian_law(0.0, 1.0))
    assert res.value == pytest.approx(math.sqrt(0.5), rel=1e-12)
    assert res.side == "left"
    assert res.branch == "truth_minus_empirical"
    assert res.arg_t == 0.0


def _stacked_argmax_reference(xs, theta, law):
    """The statistic's tie rule before the shared kernel: the argmax over the
    stacked "at" and left-limit rows, so the first "at" piece wins, then the
    first left limit."""
    t = np.sort(np.asarray(xs, dtype=np.float64) @ np.asarray(theta, dtype=np.float64))
    n = t.size
    f = np.asarray(law.cdf(t), dtype=np.float64)
    fn_at, fn_left = np.arange(1, n + 1) / n, np.arange(0, n) / n

    def ratios(f, fn):
        denom = np.sqrt(np.maximum(f, fn))
        return np.divide(np.abs(f - fn), denom, out=np.zeros(n), where=denom > 0.0)

    cand = np.stack([ratios(f, fn_at), ratios(f, fn_left)])
    side, i = divmod(int(np.argmax(cand)), n)
    fn_star = (fn_at, fn_left)[side][i]
    branch = "truth_minus_empirical" if f[i] >= fn_star else "empirical_minus_truth"
    return float(cand[side, i]), float(t[i]), ("at", "left")[side], branch


def _tie_cases():
    """Samples rounded to 0.1, so that projections tie, against Gaussian laws."""
    g = np.random.default_rng(97)
    for _ in range(60):
        d, n = int(g.integers(1, 4)), int(g.integers(1, 120))
        theta = g.normal(size=d)
        theta /= np.linalg.norm(theta)
        xs = np.round(g.normal(size=(n, d)), 1)
        yield xs, theta, gaussian_law(float(np.round(g.normal(), 1)), 1.0)


def test_fixed_direction_keeps_the_stacked_argmax_tie_rule():
    sides = set()
    for xs, theta, law in _tie_cases():
        res = ratio_fixed_direction(xs, theta, law)
        assert (res.value, res.arg_t, res.side, res.branch) == _stacked_argmax_reference(xs, theta, law)
        sides.add(res.side)
    assert sides == {"at", "left"}


def test_quantile_grid_regression():
    # samples at exact standard normal quantiles: the statistic is O(1/sqrt(n))
    n = 1000
    xs = ndtri((np.arange(n) + 0.5) / n)[:, None]
    res = ratio_fixed_direction(xs, [1.0], gaussian_law(0.0, 1.0))
    assert res.value <= 0.08


def test_recompute_at_argmax_matches():
    rng = np.random.default_rng(7)
    xs = rng.normal(size=(40, 2))
    theta = np.array([0.6, 0.8])
    law = gaussian_law(0.0, 1.0)
    res = ratio_fixed_direction(xs, theta, law)
    # both one-sided limits at the reported threshold; the law has no atoms
    proj = np.sort(xs @ theta)
    f = float(law.cdf(np.array([res.arg_t]))[0])
    fn = [np.searchsorted(proj, res.arg_t, side=side) / proj.size for side in ("right", "left")]
    candidates = [abs(f - g) / math.sqrt(max(f, g)) for g in fn]
    assert max(candidates) == pytest.approx(res.value, abs=1e-10)


def test_statistic_is_nonnegative_and_zero_iff_matching():
    rng = np.random.default_rng(17)
    xs = rng.normal(size=(25, 1))
    law = gaussian_law(0.0, 1.0)
    assert ratio_fixed_direction(xs, [1.0], law).value > 0.0


def test_ratio_sup_d1_picks_better_sign():
    spec = Gaussian(np.zeros(1), np.eye(1))
    xs = np.array([[0.3], [1.2], [-0.4]])
    res = ratio_sup(xs, spec, FAST, RngStream(0))
    both = [
        ratio_fixed_direction(xs, [s], gaussian_law(0.0, 1.0)).value for s in (1.0, -1.0)
    ]
    assert res.value == pytest.approx(max(both), rel=1e-12)


def test_ratio_sup_dominates_fixed_directions():
    spec = Gaussian(np.zeros(2), np.eye(2))
    xs = sample(spec, 120, RngStream(3, 0))
    res = ratio_sup(xs, spec, FAST, RngStream(3, 2))
    for theta in ([1.0, 0.0], [0.0, 1.0], [2.0**-0.5, 2.0**-0.5]):
        fixed = ratio_fixed_direction(xs, theta, gaussian_law(0.0, 1.0))
        assert res.value >= fixed.value - 1e-12


def _scalar_value(xs, spec, theta):
    return ratio_fixed_direction(xs, theta, _projected_law(spec, theta)).value


def _scalar_fd_gradient(xs, spec, theta):
    """Central differences of ratio_fixed_direction, one axis at a time."""
    step = 1e-6
    grad = np.empty(theta.size)
    for axis, e in enumerate(np.eye(theta.size)):
        up = _normalize_rows((theta + step * e)[None, :])[0]
        dn = _normalize_rows((theta - step * e)[None, :])[0]
        grad[axis] = (_scalar_value(xs, spec, up) - _scalar_value(xs, spec, dn)) / (2.0 * step)
    return grad


@pytest.mark.parametrize("d", [2, 3, 8])
def test_ratio_objective_matches_the_scalar_statistic(d):
    # continuous samples at random directions: no projection ties and, to the
    # step, no switch of the active piece, so the statistic is smooth there
    rng = np.random.default_rng(40 + d)
    a = rng.normal(size=(d, d))
    spec = Gaussian(rng.normal(size=d), a @ a.T + 0.5 * np.eye(d))
    xs = sample(spec, 150, RngStream(4, d))
    rows = _normalize_rows(rng.normal(size=(5, d)))
    objective = _RatioObjective(xs, spec)
    vals, grads = objective.value_and_grad(rows)
    assert np.array_equal(vals, objective.value(rows))
    assert vals == pytest.approx([_scalar_value(xs, spec, t) for t in rows], rel=1e-12)
    for theta, grad in zip(rows, grads):
        # the statistic depends on the direction only
        assert abs(grad @ theta) <= 1e-12 * np.linalg.norm(grad)
        assert grad == pytest.approx(_scalar_fd_gradient(xs, spec, theta), rel=1e-4, abs=1e-6)


def test_ratio_sup_is_certified_and_beats_the_seed_grid():
    spec = Gaussian(np.zeros(2), np.eye(2))
    grid = grid_directions(2, 256)
    for seed in range(4):
        xs = sample(spec, 80, RngStream(seed, 0))
        res = ratio_sup(xs, spec, FAST, RngStream(seed, 2))
        assert res.value == _scalar_value(xs, spec, res.arg_theta)
        assert res.value >= max(_scalar_value(xs, spec, u) for u in grid) - 1e-12


def test_ratio_sup_requires_gaussian():
    from msw import ParetoProduct

    with pytest.raises(SpecError):
        ratio_sup(np.ones((3, 2)), ParetoProduct(8.0, 2), FAST, RngStream(0))


def test_ratio_sup_dimension_mismatch():
    with pytest.raises(DomainError, match="dimension mismatch: samples 3, spec 2"):
        ratio_sup(np.ones((4, 3)), Gaussian(np.zeros(2), np.eye(2)), FAST, RngStream(0))


def test_shatter_count_examples():
    assert shatter_count([[0.7, -0.3]]) == 2
    assert shatter_count([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]) == 8
    assert shatter_count([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]) == 14


def test_shatter_count_d1_is_two_n():
    pts = np.array([[-1.0], [0.2], [0.5], [2.0]])
    assert shatter_count(pts) == 8  # prefixes + suffixes + empty/full = 2n


def test_shatter_collinear_points():
    # three collinear points: the middle one cannot be isolated
    assert shatter_count([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]) == 6


def test_shatter_respects_bounds_on_random_sets():
    rng = np.random.default_rng(23)
    for _ in range(20):
        n = int(rng.integers(1, 9))
        d = int(rng.integers(1, 3))
        pts = rng.normal(size=(n, d))
        count = shatter_count(pts)
        assert count <= min(2**n, vc_bound(n, d))


def test_shatter_affine_invariance():
    rng = np.random.default_rng(29)
    for _ in range(10):
        pts = rng.normal(size=(6, 2))
        mat = rng.normal(size=(2, 2))
        while abs(np.linalg.det(mat)) < 0.1:
            mat = rng.normal(size=(2, 2))
        shift = rng.normal(size=2)
        assert shatter_count(pts) == shatter_count(pts @ mat.T + shift)


def test_shatter_scale_limits():
    with pytest.raises(ScaleError):
        shatter_count(np.zeros((11, 2)))
    with pytest.raises(ScaleError):
        shatter_count(np.zeros((4, 3)))


def test_vc_bound_values():
    assert vc_bound(1, 1) == 4
    assert vc_bound(3, 2) == 64
    assert vc_bound(10, 2) == 1331
    assert vc_bound(3, 2, two_sided=True) == 4**6
    # arbitrary-precision integers: no overflow at large arguments
    assert vc_bound(10**9, 8) == (10**9 + 1) ** 9
    with pytest.raises(DomainError):
        vc_bound(0, 2)


def test_ratio_tail_bound_values():
    zero = ratio_tail_bound(5, 2, 0.0)
    assert zero.raw == pytest.approx(8.0 * 11.0**3)
    assert zero.clipped == 1.0

    small = ratio_tail_bound(1, 1, 1.0)
    assert small.raw == pytest.approx(72.0 * math.exp(-0.25), rel=1e-12)
    assert small.clipped == 1.0

    tiny = ratio_tail_bound(10_000, 2, 0.2)
    assert tiny.raw == pytest.approx(8.0 * math.exp(3.0 * math.log(20_001.0) - 100.0), rel=1e-12)
    assert tiny.clipped == tiny.raw < 1e-25


def test_tail_bound_monotone_in_eps():
    vals = [ratio_tail_bound(200, 2, e).raw for e in (0.0, 0.2, 0.5, 1.0, 2.0)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_ratio_tail_bound_rejects_a_nan_threshold():
    for eps in (math.nan, -0.1):
        with pytest.raises(DomainError, match="threshold must be nonnegative"):
            ratio_tail_bound(20, 2, eps)
    inf = ratio_tail_bound(20, 2, math.inf)
    assert inf.raw == inf.clipped == 0.0
