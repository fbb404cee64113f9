import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr, ndtri

from msw import AnalyticCdf1d, DomainError, NumericError, project, w1d_empirical, w1d_vs_cdf
from msw.ot1d import _normal_quantile_blocks, _phi, quantile_blocks

finite_floats = st.floats(min_value=-50.0, max_value=50.0)
small_samples = st.lists(finite_floats, min_size=1, max_size=9).map(sorted)


def brute_force_wp(x, y, p):
    """Minimum over all assignments of (1/n) sum |x_i - y_pi(i)|^p, equal sizes."""
    n = len(x)
    best = math.inf
    for perm in itertools.permutations(range(n)):
        cost = sum(abs(x[i] - y[perm[i]]) ** p for i in range(n)) / n
        best = min(best, cost)
    return best


@pytest.mark.parametrize(
    "xs,ys,p,expected",
    [
        ([0.0, 1.0], [0.0, 1.0], 2.0, 0.0),
        ([1.0, 3.0], [2.0, 4.0], 2.0, 1.0),
        ([0.0, 2.0], [1.0], 1.0, 1.0),
    ],
)
def test_w1d_examples(xs, ys, p, expected):
    assert w1d_empirical(xs, ys, p) == pytest.approx(expected, abs=1e-12)


def test_w1d_matches_brute_force_assignment():
    rng = np.random.default_rng(100)
    for _ in range(60):
        n = int(rng.integers(1, 8))
        p = float(rng.choice([1.0, 2.0, 3.0]))
        x = np.sort(rng.normal(size=n))
        y = np.sort(rng.normal(size=n))
        got = w1d_empirical(x, y, p) ** p
        want = brute_force_wp(x, y, p)
        assert got == pytest.approx(want, rel=1e-10, abs=1e-12)


def test_w1d_duplication_invariance():
    # repeating every atom k times leaves the quantile functions unchanged,
    # which exercises the merged-grid path against the equal-size path
    x = np.sort(np.random.default_rng(3).normal(size=5))
    y = np.sort(np.random.default_rng(4).normal(size=5))
    base = w1d_empirical(x, y, 2.0)
    assert w1d_empirical(x, np.repeat(y, 3), 2.0) == pytest.approx(base, rel=1e-12)
    assert w1d_empirical(np.repeat(x, 2), np.repeat(y, 3), 2.0) == pytest.approx(base, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(x=small_samples, y=small_samples)
def test_w1d_symmetry(x, y):
    assert w1d_empirical(x, y, 2.0) == w1d_empirical(y, x, 2.0)


@settings(max_examples=60, deadline=None)
@given(
    data=st.lists(
        st.tuples(finite_floats, finite_floats, finite_floats), min_size=1, max_size=8
    )
)
def test_w1d_triangle_inequality(data):
    x = sorted(a for a, _, _ in data)
    y = sorted(b for _, b, _ in data)
    z = sorted(c for _, _, c in data)
    assert w1d_empirical(x, z, 2.0) <= w1d_empirical(x, y, 2.0) + w1d_empirical(y, z, 2.0) + 1e-10


@settings(max_examples=60, deadline=None)
@given(x=small_samples, y=small_samples, p=st.floats(min_value=1.0, max_value=3.0), q=st.floats(min_value=0.0, max_value=2.0))
def test_w1d_monotone_in_p(x, y, p, q):
    assert w1d_empirical(x, y, p) <= w1d_empirical(x, y, p + q) + 1e-10


@settings(max_examples=40, deadline=None)
@given(x=small_samples, y=small_samples, c=st.floats(min_value=-20.0, max_value=20.0))
def test_w1d_translation(x, y, c):
    x, y = np.asarray(x), np.asarray(y)
    shifted_both = w1d_empirical(x + c, y + c, 2.0)
    assert shifted_both == pytest.approx(w1d_empirical(x, y, 2.0), abs=1e-9)
    assert abs(w1d_empirical(x + c, y, 1.0) - w1d_empirical(x, y, 1.0)) <= abs(c) + 1e-10


@pytest.mark.parametrize("c", [1e-160, 1e-170])
def test_w1d_keeps_its_scale_where_the_powers_underflow(c):
    g = np.random.default_rng(3)
    x = np.sort(g.normal(size=200))
    for y in (np.sort(g.normal(size=200) + 0.3), np.sort(g.normal(size=150) + 0.3)):
        for p in (1.0, 2.0, 3.0):
            assert w1d_empirical(c * x, c * y, p) == pytest.approx(c * w1d_empirical(x, y, p), rel=1e-12, abs=0.0)
    # where no power underflows, the value keeps the bits of the plain formula
    y = np.sort(g.normal(size=200))
    assert w1d_empirical(x, y, 2.0) == float(np.mean(np.abs(x - y) ** 2.0) ** 0.5)


def test_w1d_errors():
    with pytest.raises(DomainError):
        w1d_empirical([], [1.0], 2.0)
    with pytest.raises(DomainError):
        w1d_empirical([1.0], [1.0], 0.5)
    with pytest.raises(DomainError):
        w1d_empirical([2.0, 1.0], [1.0], 1.0)  # not sorted


def test_an_infinite_order_is_a_domain_error():
    for p in (math.inf, math.nan):
        with pytest.raises(DomainError, match="order p must be finite and >= 1"):
            w1d_empirical([1.0], [2.0], p)
        with pytest.raises(DomainError, match="order p must be finite and >= 1"):
            w1d_vs_cdf([1.0], AnalyticCdf1d(0.0, 1.0), p)


@pytest.mark.parametrize("p", [1.0, 3.0, math.nan])
def test_vs_cdf_takes_p_2_only(p):
    with pytest.raises(DomainError):
        w1d_vs_cdf([1.0], AnalyticCdf1d(0.0, 1.0), p)


@pytest.mark.parametrize(
    "points,theta,expected",
    [
        ([[3.0, 4.0]], [1.0, 0.0], [3.0]),
        ([[1.0, 1.0], [-1.0, -1.0]], [2.0**-0.5, 2.0**-0.5], [-(2.0**0.5), 2.0**0.5]),
        ([[0.0, 0.0], [0.0, 5.0]], [1.0, 0.0], [0.0, 0.0]),
    ],
)
def test_project_examples(points, theta, expected):
    assert project(points, theta) == pytest.approx(expected, abs=1e-12)


def test_project_dimension_mismatch():
    with pytest.raises(DomainError):
        project([[1.0, 2.0]], [1.0, 0.0, 0.0])


def test_vs_cdf_absolute_moment_of_standard_normal():
    # the two points +-E|Z| are the means of N(0, 1) on its two half lines, so
    # W_2^2 is what they leave of the variance: 1 - (E|Z|)^2 = 1 - 2/pi
    m = math.sqrt(2.0 / math.pi)
    assert w1d_vs_cdf([-m, m], AnalyticCdf1d(0.0, 1.0), 2.0) ** 2 == pytest.approx(1.0 - 2.0 / math.pi, rel=1e-14)


def test_vs_cdf_second_moment_and_shift():
    # point at the mean of N(5, 1): W_2^2 equals the variance; shifted by 3, it adds 3^2
    assert w1d_vs_cdf([5.0], AnalyticCdf1d(5.0, 1.0), 2.0) == 1.0
    assert w1d_vs_cdf([8.0], AnalyticCdf1d(5.0, 1.0), 2.0) == math.sqrt(10.0)


def test_vs_cdf_narrow_law_is_near_zero():
    # one point at the mean: the distance is the sd
    assert w1d_vs_cdf([0.0], AnalyticCdf1d(0.0, math.sqrt(1e-18)), 2.0) == pytest.approx(1e-9, rel=1e-15)


def test_vs_cdf_quantile_grid_shrinks():
    law = AnalyticCdf1d(0.0, 1.0)
    values = []
    for n in (20, 80, 320):
        xs = np.sort(ndtri((np.arange(n) + 0.5) / n))
        values.append(w1d_vs_cdf(xs, law, 2.0))
    assert values[2] < values[1] < values[0]
    assert values[2] < 0.05


def test_gaussian_law_roundtrip_invariant():
    law = AnalyticCdf1d(1.5, 2.0)
    t = np.linspace(-6.0, 9.0, 100)
    u = law.cdf(t)
    strict = (u > 1e-14) & (u < 1.0 - 1e-14)
    assert np.max(np.abs(law.mean + law.sd * ndtri(u[strict]) - t[strict])) < 1e-8
    assert np.all(np.diff(u) >= 0.0)


def test_vs_cdf_non_finite_quantiles_are_a_numeric_error():
    for mean in (math.inf, math.nan):
        with pytest.raises(NumericError):
            w1d_vs_cdf([0.0], AnalyticCdf1d(mean, 1.0), 2.0)


def test_vs_cdf_takes_a_point_mass_and_rejects_a_negative_sd():
    # sd = 0 is the point mass at 0, one unit from both points
    assert w1d_vs_cdf([-1.0, 1.0], AnalyticCdf1d(0.0, 0.0), 2.0) == 1.0
    with pytest.raises(DomainError, match="sd must be >= 0"):
        w1d_vs_cdf([-1.0, 1.0], AnalyticCdf1d(0.0, -1.0), 2.0)


def test_phi_is_scipys_ndtr_to_4_ulp():
    # branch edges at |t| = 1 (erf's rational or 1 - it), sqrt(2) (erfc's
    # rationals) and 8 sqrt(2) (the second one), with their neighbours; the
    # lower tail down to and past the underflow of exp(-t^2 / 2) near -37.7
    edges = np.array([1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0)])
    edges = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, 2.0 * edges)])
    t = np.concatenate([np.linspace(-40.0, 40.0, 400_001), edges, -edges,
                        np.linspace(-38.0, -37.0, 20_001), [-37.5193, 300.0, -300.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _phi(t)
    want = ndtr(t)
    assert np.array_equal(got == 0.0, want == 0.0)
    pos = want > 0.0
    assert np.max(np.abs(got[pos] - want[pos]) / np.spacing(want[pos])) <= 4.0
    special = np.array([0.0, -0.0, 1e-300, -1e-300, np.inf, -np.inf, 1e300, -1e300, np.nan])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _phi(special)
    np.testing.assert_array_equal(got, [0.5, 0.5, 0.5, 0.5, 1.0, 0.0, 1.0, 0.0, np.nan])
    # any memory layout, and a scalar
    grid = t[:400_000].reshape(400, 1000)
    for view in (grid.T, grid[::3, ::-2]):
        assert np.array_equal(_phi(view), _phi(np.ascontiguousarray(view)))
    assert float(_phi(0.3)) == float(_phi(np.array([0.3]))[0])


def test_normal_quantile_blocks_match_the_scipy_ndtri_table():
    # g_i = phi(z_{i-1}) - phi(z_i), z_i = Phi^-1(i/n), rebuilt from scipy's ndtri
    def reference(n):
        pdf = np.zeros(n + 1)
        z = ndtri(np.arange(1, n) / n)
        pdf[1:-1] = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        return pdf[:-1] - pdf[1:]

    far = [n for n in [*range(1, 1601), 6000]
           if not np.max(np.abs(_normal_quantile_blocks(n) - reference(n))) <= 1e-15]
    assert far == []


def reference_quantile_blocks(n: int, m: int):
    """The merged quantile grid {i/n} union {j/m} by a two-pointer walk that
    compares the breakpoints (i+1)/n and (j+1)/m by cross-multiplication."""
    widths, xi, yj = [], [], []
    i = j = 0
    u = 0.0
    while i < n and j < m:
        lhs, rhs = (i + 1) * m, (j + 1) * n
        u_next = (i + 1) / n if lhs <= rhs else (j + 1) / m
        widths.append(u_next - u)
        xi.append(i)
        yj.append(j)
        u = u_next
        if lhs <= rhs:
            i += 1
        if rhs <= lhs:
            j += 1
    return (
        np.asarray(widths),
        np.asarray(xi, dtype=np.intp),
        np.asarray(yj, dtype=np.intp),
    )


def test_quantile_blocks_match_the_two_pointer_reference():
    sizes = [*itertools.product(range(1, 61), repeat=2), (1600, 1200), (6000, 5999),
             (4096, 3), (3, 4096)]
    mismatched = [
        (n, m) for n, m in sizes
        if not all(np.array_equal(a, b) and a.dtype == b.dtype
                   for a, b in zip(quantile_blocks(n, m), reference_quantile_blocks(n, m)))
    ]
    assert mismatched == []
