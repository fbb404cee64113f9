"""Acceptance suite: one test per criterion, each printing its own PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines
live; without -s they appear in the captured output of failing tests. The
Monte Carlo criteria (4, 5, 8, 9, 11) carry the `slow` marker.

The rate criteria (4, 5, 8) check fitted log-log slopes of n -> E[W̄_2]
against a band. The band's upper end comes from the p-th root of the shipped
expectation bounds, which bound E[W̄_p^p]: the curve must decay at least
about that fast. In criteria 4 and 8 the lower end comes from the floor
W̄_p >= ||mean difference||, which decays like n^{-1/2}. The bounds are upper
bounds and need not be tight: the Gaussian and feature-embedding curves of
criteria 4 and 8 sit near the parametric -1/2, while the heavy-tailed Pareto
curves of criterion 5, where the moment condition binds, sit mid-band.
Criterion 4 also checks the mean curve against the closed-form expectation
of that floor at every n.
"""
import itertools
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

import msw
from msw import (
    Gaussian,
    KernelSpec,
    OptimizerOpts,
    ParetoProduct,
    RkhsPushforward,
    RngStream,
)
from msw.harness import (
    ExperimentConfig,
    fit_loglog_slope,
    run_rate_experiment,
    run_ratio_experiment,
)


@contextmanager
def criterion(num: int, title: str):
    start = time.perf_counter()
    try:
        yield
    except AssertionError as exc:
        elapsed = time.perf_counter() - start
        print(f"\nACCEPTANCE {num:02d} FAIL ({elapsed:.1f}s) - {title}: {exc}")
        raise
    else:
        elapsed = time.perf_counter() - start
        print(f"\nACCEPTANCE {num:02d} PASS ({elapsed:.1f}s) - {title}")


def test_criterion_01_one_dimensional_transport_oracle():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    with criterion(1, "1d transport matches exhaustive assignment"):
        for k in range(500):
            n = int(rng.integers(1, 8))
            p = (1.0, 2.0, 3.0)[k % 3]
            x = np.sort(rng.normal(size=n))
            y = np.sort(rng.normal(size=n))
            got = msw.w1d_empirical(x, y, p) ** p
            best = min(
                sum(abs(x[i] - y[perm[i]]) ** p for i in range(n)) / n
                for perm in itertools.permutations(range(n))
            )
            assert got == pytest.approx(best, rel=1e-10, abs=1e-13), (n, p)
        assert time.perf_counter() - start < 10.0, "runtime budget exceeded"


def test_criterion_02_lower_bound_soundness():
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    with criterion(2, "max-sliced value never exceeds the full Wasserstein distance"):
        for k in range(200):
            n = int(rng.integers(1, 9))
            d = int(rng.integers(1, 5))
            p = (1.0, 2.0, 3.0)[k % 3]
            x = rng.normal(size=(n, d))
            y = rng.normal(size=(n, d))
            res = msw.msw_empirical(x, y, p, rng=RngStream(5000 + k))
            full = msw.wasserstein_full(x, y, p)
            assert res.value <= full + 1e-9, (n, d, p, res.value, full)
        assert time.perf_counter() - start < 30.0, "runtime budget exceeded"


def test_criterion_03_oracle_agreement():
    rng = np.random.default_rng(303)
    start = time.perf_counter()
    with criterion(3, "optimizer agrees with the 1e5-angle grid oracle in d=2"):
        for k in range(50):
            n = int(rng.integers(3, 21))
            x = rng.normal(size=(n, 2))
            y = rng.normal(size=(n, 2))
            oracle = msw.msw_grid_oracle(x, y, 2.0, 100_000)
            res = msw.msw_empirical(x, y, 2.0, rng=RngStream(7000 + k))
            tol = max(1e-4, oracle.oracle_gap)
            assert abs(res.value - oracle.value) <= tol, (k, res.value, oracle.value, tol)
        assert time.perf_counter() - start < 60.0, "runtime budget exceeded"


def _gaussian_rate_curves():
    curves = {}
    for d in (2, 4, 8):
        spec = Gaussian(np.zeros(d), np.eye(d))
        cfg = ExperimentConfig(
            "rate_vs_truth", spec, p=2.0, mc_runs=50, master_seed=20260401 + d,
            optimizer=OptimizerOpts(),
        )
        curves[d] = run_rate_experiment(cfg, threads=0)
    return curves


# Slope bands of criteria 4 and 8 (p = 2). A RateCurve holds E[W̄_p], while the
# expectation_bound_* formulas bound E[W̄_p^p] at rate n^{-1/2} up to logs; by
# Jensen, E[W̄_p] <= E[W̄_p^p]^{1/p}, so the curves are compared with the p-th
# root of the bounds.
#
# Upper end: the curve decays at least about as fast as the bound allows. Over
# DEFAULT_N_GRID the square root of the `finite` bound with s -> infinity (the
# Gaussian and the feature embedding have every moment) has fitted slope
# -0.21, and that of `exp_decay` with gamma = 1 and s in (4, 8) has slope
# -0.09 to -0.11. Criterion 4 keeps -0.15: a curve that tracks the `finite`
# bound passes with 0.06 to spare, and one that stalls fails. Criterion 8
# keeps -0.12: each truncated curve is a measure on R^{d_test}, so the
# `finite` slope -0.21 applies to it too; a curve that only tracked the
# dimension-free `exp_decay` bound would fail, so there the end asks slightly
# more than that bound promises.
#
# Lower end: for every unit theta, W_p >= W_1 >= |mean difference| on the
# line, so W̄_p >= ||x̄ - m|| (vs truth) or ||x̄ - ȳ|| (two sample). That
# floor has expectation proportional to n^{-1/2}, so no correct curve decays
# faster than -1/2 for long. The lower end -0.60 is -1/2 less the 0.10 slack
# that a band centred at -1/4 allowed below its centre.
_SLOPE_LOWER = -0.60


def _slope_details(curves: dict, label: str) -> tuple[list[float], str]:
    """Fit every curve first, so a failure message lists all of them."""
    fits = {key: fit_loglog_slope(curve) for key, curve in curves.items()}
    details = "; ".join(
        f"{label}={key}: slope={slope:.3f} (r2={r2:.3f})" for key, (slope, _, r2) in fits.items()
    )
    return [slope for slope, _, _ in fits.values()], details


def _expected_gaussian_norm(d: int) -> float:
    """E||Z|| for Z ~ N(0, I_d)."""
    return math.sqrt(2.0) * math.gamma((d + 1) / 2) / math.gamma(d / 2)


@pytest.mark.slow
def test_criterion_04_gaussian_rate_reproduction():
    with criterion(4, "Gaussian vs-truth rate curves: slope band, mean floor, dimension order"):
        curves = _gaussian_rate_curves()
        for lo, hi in ((2, 4), (4, 8)):
            slack = 3.0 * (curves[lo].stderr + curves[hi].stderr)
            assert np.all(curves[hi].mean + slack > curves[lo].mean), (lo, hi)
        for curve in curves.values():  # strictly decreasing once n >= 100
            big = curve.n >= 100
            mean, err = curve.mean[big], curve.stderr[big]
            assert np.all(np.diff(mean) < 3.0 * (err[:-1] + err[1:]))
        slopes, details = _slope_details(curves, "d")
        assert all(_SLOPE_LOWER <= s <= -0.15 for s in slopes), details
        # Pointwise floor: x̄ - m ~ N(0, I_d / n), so E||x̄ - m|| = E||Z_d|| / sqrt(n).
        # The search always starts from the mean difference and keeps the best
        # value seen, so every trial value clears its own ||x̄ - m|| (the p = 2
        # certificate is exact). The Monte Carlo mean thus clears the
        # average of those norms, which scatters about E||Z_d|| / sqrt(n).
        for d, curve in curves.items():
            floor = _expected_gaussian_norm(d) / np.sqrt(curve.n)
            assert np.all(curve.mean >= floor - 3.0 * curve.stderr), (d, curve.mean, floor)


@pytest.mark.slow
def test_criterion_05_pareto_rate_reproduction():
    with criterion(5, "Pareto two-sample rate curves stay in the slope band"):
        details = []
        for d in (2, 4):
            cfg = ExperimentConfig(
                "rate_two_sample", ParetoProduct(8.0, d), p=2.0, mc_runs=100,
                master_seed=3000 + d, optimizer=OptimizerOpts(),
            )
            curve = run_rate_experiment(cfg, threads=0)
            slope, _, r2 = fit_loglog_slope(curve)
            details.append(f"d={d}: slope={slope:.3f} (r2={r2:.3f})")
            assert -0.40 <= slope <= -0.12, "; ".join(details)


def test_criterion_06_gaussian_kernel_spectrum():
    start = time.perf_counter()
    with criterion(6, "closed-form eigenvalues and the decay sandwich"):
        dyadic = KernelSpec(0.25, math.sqrt(0.125))
        for j in range(51):
            assert msw.eigenvalue(dyadic, j) == pytest.approx(0.5 ** (j + 1), rel=1e-12), j
        steep = KernelSpec(4.0, 1.0)
        assert steep.kappa == pytest.approx(8.0, rel=1e-14)
        for j in range(201):
            lo, hi = msw.eigenvalue_bounds(steep, j)
            lam = msw.eigenvalue(steep, j)
            assert lo <= lam * (1.0 + 1e-12) and lam <= hi * (1.0 + 1e-12), j
        assert time.perf_counter() - start < 1.0, "runtime budget exceeded"


def test_criterion_07_spectral_verification():
    start = time.perf_counter()
    with criterion(7, "orthonormality, eigen-residuals, Mercer weight convention"):
        for spec in (KernelSpec(0.25, math.sqrt(0.125)), KernelSpec(4.0, 1.0)):
            report = msw.check_spectrum(spec, 30)
            assert report.orthonormality_error <= 1e-8, spec
            lam0 = msw.eigenvalue(spec, 0)
            resid = msw.check_spectrum(spec, 16).eigen_residuals
            assert np.all(resid <= 1e-6 * lam0), spec

            sigma = math.sqrt(spec.sigma2)
            grid = np.linspace(-3.0 * sigma, 3.0 * sigma, 9)
            coords = msw.feature_coords(spec, grid, 60)
            exact = spec.kernel(grid[:, None], grid[None, :])
            lam_weighted = coords @ coords.T
            assert np.max(np.abs(lam_weighted - exact)) <= 1e-8, spec
            # sqrt(lambda) weighting must *fail* to reproduce the kernel
            lams = msw.eigenvalues(spec, 60)
            psi = coords / np.sqrt(lams)[None, :]
            sqrt_weighted = (psi * lams[None, :] ** 0.25) @ (psi * lams[None, :] ** 0.25).T
            assert np.max(np.abs(sqrt_weighted - exact)) > 1e-3, spec
        assert time.perf_counter() - start < 30.0, "runtime budget exceeded"


@pytest.mark.slow
def test_criterion_08_rkhs_rate_reproduction():
    spec = RkhsPushforward(KernelSpec(4.0, 1.0), 1.0, 30)
    cfg = ExperimentConfig(
        "rkhs_rate", spec, p=2.0, mc_runs=50, master_seed=4000,
        optimizer=OptimizerOpts(), d_test_list=(10, 20, 30),
    )
    with criterion(8, "feature-embedding rate curves: slope band and agreement"):
        curves = run_rate_experiment(cfg, threads=0)
        for a, b in itertools.combinations(sorted(curves), 2):
            gap = np.abs(curves[a].mean - curves[b].mean)
            assert np.all(gap <= 5.0 * (curves[a].stderr + curves[b].stderr)), (a, b)
        slopes, details = _slope_details(dict(sorted(curves.items())), "d_test")
        assert all(_SLOPE_LOWER <= s <= -0.12 for s in slopes), details


@pytest.mark.slow
def test_criterion_09_ratio_bound_consistency():
    spec = Gaussian(np.zeros(2), np.eye(2))
    cfg = ExperimentConfig(
        "ratio_exceedance", spec, n_grid=(200,), mc_runs=50, master_seed=900,
        optimizer=OptimizerOpts(restarts=6, max_iters=60),
    )
    table = run_ratio_experiment(cfg, threads=0)
    with criterion(9, "ratio exceedance frequencies respect the tail bound"):
        checked = 0
        for eps, freq, bound in zip(table.epsilon, table.frequency, table.bound):
            if bound >= 0.5:
                continue
            checked += 1
            stderr = math.sqrt(freq * (1.0 - freq) / cfg.mc_runs)
            assert freq <= bound + 3.0 * stderr, (eps, freq, bound)
        assert checked >= 5, "bound never active on the eps grid"


def test_criterion_10_shatter_and_vc():
    rng = np.random.default_rng(1010)
    start = time.perf_counter()
    with criterion(10, "shatter counts respect both combinatorial bounds"):
        assert msw.shatter_count([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]) == 8
        assert msw.shatter_count([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]) == 14
        for _ in range(40):
            n = int(rng.integers(1, 9))
            d = int(rng.integers(1, 3))
            pts = rng.normal(size=(n, d))
            count = msw.shatter_count(pts)
            assert count <= min(2**n, msw.vc_bound(n, d)), (n, d, count)
        collinear = np.column_stack([np.arange(5.0), np.arange(5.0)])
        assert msw.shatter_count(collinear) <= min(2**5, msw.vc_bound(5, 2))
        assert time.perf_counter() - start < 10.0, "runtime budget exceeded"


@pytest.mark.slow
def test_criterion_11_determinism_across_workers():
    spec = Gaussian(np.zeros(2), np.eye(2))
    cfg = ExperimentConfig(
        "rate_vs_truth", spec, p=2.0, n_grid=(50,), mc_runs=50,
        master_seed=20260403, optimizer=OptimizerOpts(),
    )
    with criterion(11, "experiments are bit-identical at 1 and 8 workers"):
        one = run_rate_experiment(cfg, threads=1)
        eight = run_rate_experiment(cfg, threads=8)
        again = run_rate_experiment(cfg, threads=8)
        # wallclock is physical measurement; every statistic must match bitwise
        assert one.same_statistics(eight)
        assert one.same_statistics(again)
        assert one.meta["content_hash"] == eight.meta["content_hash"]
