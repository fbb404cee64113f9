"""Output checks that rest on properties of the method or on computations made
here with numpy and scipy, apart from the msw library.

Every check returns a list of failure messages; an empty list means it passed.
The functions take plain arrays and dicts, so the self-test can hand them
broken outputs directly.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtr

# the slope bands of acceptance criteria 4 and 8
VS_TRUTH_BAND = (-0.60, -0.15)
RKHS_BAND = (-0.60, -0.12)
# relative tolerance for "equals": the same quantity summed in another order
EQUAL_RTOL = 1e-9


def expected_gaussian_norm(d: int) -> float:
    """E||Z|| for Z ~ N(0, I_d)."""
    return math.sqrt(2.0) * math.gamma((d + 1) / 2) / math.gamma(d / 2)


def slope_and_se(n, mean, stderr) -> tuple[float, float]:
    """OLS slope of log(mean) on log(n) and its standard error.

    The error propagates each row's stderr through the log (delta method), so
    it reflects the Monte Carlo noise of the curve rather than its curvature.
    """
    lx = np.log(np.asarray(n, dtype=np.float64))
    ly = np.log(np.asarray(mean, dtype=np.float64))
    centred = lx - lx.mean()
    weights = centred / np.sum(centred**2)
    slope = float(np.sum(weights * (ly - ly.mean())))
    se = float(np.sqrt(np.sum((weights * np.asarray(stderr) / np.asarray(mean)) ** 2)))
    return slope, se


def _check_slope(label: str, curve: dict, band: tuple[float, float]) -> list[str]:
    # The band is that of the acceptance criteria, which average 50 trials per
    # row; the benchmark averages far fewer, so the fitted slope may leave the
    # band by three of its own standard errors before the check fails.
    if np.any(curve["mean"] <= 0.0):
        return [f"{label}: non-positive mean {curve['mean'].tolist()}"]
    slope, se = slope_and_se(curve["n"], curve["mean"], curve["stderr"])
    lo, hi = band[0] - 3.0 * se, band[1] + 3.0 * se
    if not lo <= slope <= hi:
        return [f"{label}: slope {slope:.3f} (se {se:.3f}) outside [{lo:.3f}, {hi:.3f}]"]
    return []


def check_vs_truth_curves(curves: dict[int, dict]) -> list[str]:
    """Rate curves of W̄_2(mu_n, mu) for mu = N(0, I_d), keyed by d."""
    failures = []
    for d, c in sorted(curves.items()):
        n, mean, err = c["n"], c["mean"], c["stderr"]
        floor = expected_gaussian_norm(d) / np.sqrt(n)
        low = mean < floor - 3.0 * err
        if np.any(low):
            failures.append(f"d={d}: mean below E||Z_d||/sqrt(n) - 3 stderr at n={n[low].tolist()}")
        big = n >= 100
        m, e = mean[big], err[big]
        rise = np.diff(m) > 3.0 * np.hypot(e[:-1], e[1:])
        if np.any(rise):
            failures.append(f"d={d}: mean rises by more than 3 stderr after n={n[big][:-1][rise].tolist()}")
        failures += _check_slope(f"d={d}", c, VS_TRUTH_BAND)
    return failures


def check_rkhs_curves(curves: dict[int, dict]) -> list[str]:
    """Two-sample rate curves of the truncated feature embedding, keyed by d_test."""
    failures = []
    keys = sorted(curves)
    for i, a in enumerate(keys):
        for b in keys[i + 1:]:
            ca, cb = curves[a], curves[b]
            gap = np.abs(ca["mean"] - cb["mean"])
            if np.any(gap > 5.0 * np.hypot(ca["stderr"], cb["stderr"])):
                failures.append(f"d_test {a} and {b}: curves differ by more than 5 stderr")
    for key in keys:
        failures += _check_slope(f"d_test={key}", curves[key], RKHS_BAND)
    return failures


def ratio_tail_bound(n: int, d: int, eps: float) -> tuple[float, float]:
    """(raw, clipped) value of 8 exp((d+1) log(2n+1) - n eps^2 / 4)."""
    try:
        raw = 8.0 * math.exp((d + 1) * math.log(2 * n + 1) - n * eps * eps / 4.0)
    except OverflowError:
        raw = math.inf
    return raw, min(1.0, raw)


def check_ratio_table(table: dict, d: int) -> list[str]:
    """Exceedance table of the ratio statistic for a d-dimensional Gaussian."""
    failures = []
    for n in np.unique(table["n"]):
        rows = table["n"] == n
        order = np.argsort(table["epsilon"][rows], kind="stable")
        eps = table["epsilon"][rows][order]
        freq = table["frequency"][rows][order]
        bound = table["bound"][rows][order]
        raw = table["bound_raw"][rows][order]
        runs = table["runs"][rows][order]
        if np.any(np.diff(freq) > 0.0):
            failures.append(f"n={n}: frequency rises with epsilon")
        for e, f, b, r, k in zip(eps, freq, bound, raw, runs):
            want_raw, want = ratio_tail_bound(int(n), d, float(e))
            if not (math.isclose(b, want, rel_tol=EQUAL_RTOL) and math.isclose(r, want_raw, rel_tol=EQUAL_RTOL)):
                failures.append(f"n={n}, eps={e}: bound {b} / {r}, recomputed {want} / {want_raw}")
            if b < 0.5 and f > b + 3.0 * math.sqrt(f * (1.0 - f) / k):
                failures.append(f"n={n}, eps={e}: frequency {f} above bound {b}")
    return failures


def exceedance_area(table: dict) -> float:
    """Mean over n of the area under the exceedance curve, d_eps * sum(freq)."""
    areas = []
    for n in np.unique(table["n"]):
        rows = table["n"] == n
        eps = np.sort(table["epsilon"][rows])
        step = float(np.median(np.diff(eps))) if eps.size > 1 else float(eps[0])
        areas.append(step * float(np.sum(table["frequency"][rows])))
    return float(np.mean(areas))


def merged_grid_wp(a, b, p: float) -> float:
    """W_p between two empirical measures on R over the merged quantile grid.

    Breakpoints i/n and j/m are kept as integers over the common denominator
    n*m, so the blocks come out exact; on the block (k0, k1] the quantile
    functions take the order statistics floor(k0/m) and floor(k0/n).
    """
    x, y = np.sort(np.asarray(a, dtype=np.float64)), np.sort(np.asarray(b, dtype=np.float64))
    n, m = x.size, y.size
    ticks = np.union1d(np.arange(n + 1, dtype=np.int64) * m, np.arange(m + 1, dtype=np.int64) * n)
    k0, k1 = ticks[:-1], ticks[1:]
    widths = (k1 - k0) / (n * m)
    return float(np.sum(widths * np.abs(x[k0 // m] - y[k0 // n]) ** p) ** (1.0 / p))


def sorted_coupling_wp(a, b, p: float) -> float:
    """W_p between two equal-size empirical measures on R by sorted matching."""
    x, y = np.sort(np.asarray(a, dtype=np.float64)), np.sort(np.asarray(b, dtype=np.float64))
    return float(np.mean(np.abs(x - y) ** p) ** (1.0 / p))


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=EQUAL_RTOL, abs_tol=1e-300)


def check_two_sample_result(x, y, p: float, value: float, argmax) -> list[str]:
    """A max-sliced two-sample result: value at argmax, unit argmax, mean floor."""
    x, y, theta = np.asarray(x), np.asarray(y), np.asarray(argmax, dtype=np.float64)
    failures = []
    if not math.isclose(float(np.linalg.norm(theta)), 1.0, abs_tol=1e-12):
        failures.append(f"|argmax| = {np.linalg.norm(theta)!r}, not 1")
    own = (sorted_coupling_wp if x.shape[0] == y.shape[0] else merged_grid_wp)(x @ theta, y @ theta, p)
    if not _close(value, own):
        failures.append(f"value {value!r} differs from W_p at argmax {own!r}")
    floor = float(np.linalg.norm(x.mean(0) - y.mean(0)))
    if value < floor * (1.0 - EQUAL_RTOL):
        failures.append(f"value {value!r} below the mean-difference floor {floor!r}")
    return failures


def check_against_angle_grid(x, y, p: float, value: float, resolution: int = 4096) -> list[str]:
    """For equal-size samples in d = 2 the value cannot exceed a dense
    angle-grid maximum by more than the Lipschitz constant max|x| + max|y|
    times the grid spacing."""
    x, y = np.asarray(x), np.asarray(y)
    ang = 2.0 * math.pi * np.arange(resolution) / resolution
    dirs = np.stack([np.cos(ang), np.sin(ang)])
    px, py = np.sort(x @ dirs, axis=0), np.sort(y @ dirs, axis=0)
    best = float(np.max(np.mean(np.abs(px - py) ** p, axis=0)) ** (1.0 / p))
    lipschitz = float(np.max(np.linalg.norm(x, axis=1)) + np.max(np.linalg.norm(y, axis=1)))
    limit = best + lipschitz * 2.0 * math.pi / resolution
    return [] if value <= limit else [f"value {value!r} above grid maximum plus slack {limit!r}"]


def check_vs_truth_result(x, mean, value: float, rtol: float = 1e-2) -> list[str]:
    """A vs-truth result clears its own ||x̄ - m|| up to quadrature error.

    The search ranks directions with an 8-node quadrature and certifies with
    32 nodes, so the floor holds only up to the gap between the two, which
    measured at most 0.33% (d = 2, n = 1600); rtol allows 1%.
    """
    floor = float(np.linalg.norm(np.asarray(x).mean(0) - np.asarray(mean)))
    if value < floor * (1.0 - rtol):
        return [f"value {value!r} below the mean-difference floor {floor!r}"]
    return []


def ratio_statistic(x, mean, cov, theta) -> float:
    """sup_t |F(t) - F_n(t)| / sqrt(F(t) v F_n(t)) along theta for N(mean, cov)."""
    theta = np.asarray(theta, dtype=np.float64)
    t = np.sort(np.asarray(x) @ theta)
    n = t.size
    f = ndtr((t - theta @ mean) / math.sqrt(theta @ cov @ theta))
    best = 0.0
    for fn in (np.arange(1, n + 1) / n, np.arange(n) / n):
        denom = np.sqrt(np.maximum(f, fn))
        ratio = np.divide(np.abs(f - fn), denom, out=np.zeros(n), where=denom > 0.0)
        best = max(best, float(ratio.max()))
    return best


def check_ratio_result(x, mean, cov, value: float, arg_theta) -> list[str]:
    failures = []
    if not 0.0 <= value <= 1.0:
        failures.append(f"ratio statistic {value!r} outside [0, 1]")
    own = ratio_statistic(x, mean, cov, arg_theta)
    if not _close(value, own):
        failures.append(f"ratio statistic {value!r} differs from its recomputation {own!r}")
    return failures


def check_same_statistics(label: str, first: dict, second: dict) -> list[str]:
    """Bit-for-bit equality of two passes' statistics (exact text of each field)."""
    if first == second:
        return []
    keys = sorted(set(first) | set(second))
    diff = [k for k in keys if first.get(k) != second.get(k)]
    return [f"{label}: statistics differ between passes in {diff[:5]}"]
