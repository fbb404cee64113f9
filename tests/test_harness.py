import dataclasses
import json
import math
import os
import platform
from concurrent.futures import Future

import numpy as np
import pytest

from msw import (
    ConfigError,
    DomainError,
    Gaussian,
    KernelSpec,
    OptimizerOpts,
    ParetoProduct,
    RkhsPushforward,
    RngStream,
    sample,
)
from msw import harness
from msw.bounds import BoundParams, expectation_bound_finite
from msw.harness import (
    ExperimentConfig,
    Overlay,
    RateCurve,
    emit,
    fit_loglog_slope,
    load_rate_curve,
    run_rate_experiment,
    run_ratio_experiment,
)

GAUSS2 = Gaussian(np.zeros(2), np.eye(2))
TINY_OPT = OptimizerOpts(restarts=3, max_iters=40)


def make_curve(ns, means, **kw):
    ns = np.asarray(ns, dtype=np.int64)
    return RateCurve(
        n=ns,
        mean=np.asarray(means, dtype=np.float64),
        stderr=kw.get("stderr", np.zeros(len(ns))),
        runs=kw.get("runs", np.full(len(ns), 10, dtype=np.int64)),
        wall_s=kw.get("wall_s", np.zeros(len(ns))),
        meta=kw.get("meta", {"config": {}, "master_seed": 0, "content_hash": ""}),
    )


def test_fit_slope_exact_power_laws():
    ns = [50, 100, 200, 400]
    curve = make_curve(ns, [n**-0.25 for n in ns])
    slope, intercept, r2 = fit_loglog_slope(curve)
    assert slope == pytest.approx(-0.25, abs=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)

    curve3 = make_curve(ns, [3.0 * n**-0.5 for n in ns])
    slope, intercept, _ = fit_loglog_slope(curve3)
    assert slope == pytest.approx(-0.5, abs=1e-12)
    assert intercept == pytest.approx(math.log(3.0), abs=1e-10)


def test_fit_slope_needs_three_rows():
    curve = make_curve([50, 100], [0.5, 0.4])
    with pytest.raises(Exception):
        fit_loglog_slope(curve)
    # four rows, two of them without a positive mean
    curve2 = make_curve([50, 100, 200, 400], [0.5, 0.0, 0.3, -0.2])
    with pytest.raises(Exception):
        fit_loglog_slope(curve2)


def test_emit_csv_format_contract(tmp_path):
    curve = make_curve([100], [0.5], stderr=np.array([0.01]),
                       runs=np.array([100], dtype=np.int64), wall_s=np.array([1.2]))
    out = tmp_path / "row.csv"
    emit(curve, "csv", out)
    assert out.read_bytes() == b"n,mean,stderr,runs,wall_s\n100,0.5,0.01,100,1.2\n"
    assert (tmp_path / "row.meta.json").exists()


def test_emit_round_trip_and_json_keys(tmp_path):
    cfg = ExperimentConfig("rate_two_sample", GAUSS2, n_grid=(8, 16), mc_runs=3,
                           master_seed=5, optimizer=TINY_OPT)
    curve = run_rate_experiment(cfg)
    for fmt in ("csv", "json"):
        out = tmp_path / f"curve.{fmt}"
        emit(curve, fmt, out)
        back = load_rate_curve(out, fmt)
        assert back.same_statistics(curve)
        assert np.array_equal(back.wall_s, curve.wall_s)
        assert back.meta["content_hash"] == curve.meta["content_hash"]
    rows = json.loads((tmp_path / "curve.json").read_text())
    assert sorted(rows[0]) == ["mean", "n", "runs", "stderr", "wall_s"]


def test_emit_json_writes_an_infinite_value_as_a_string(tmp_path):
    curve = make_curve([8, 16], [0.5, 0.25], stderr=np.array([math.inf, 0.01]))
    out = tmp_path / "inf.json"
    emit(curve, "json", out)

    def reject(token):
        raise ValueError(f"{token} is not JSON")

    rows = json.loads(out.read_text(), parse_constant=reject)
    assert [row["stderr"] for row in rows] == ["inf", 0.01]
    back = load_rate_curve(out, "json")
    assert back.stderr.tolist() == [math.inf, 0.01]
    assert back.same_statistics(curve)


def test_emit_overlay_column(tmp_path):
    overlay = Overlay("finite", s=5.0)
    cfg = ExperimentConfig("rate_two_sample", GAUSS2, n_grid=(8, 16), mc_runs=2,
                           master_seed=5, optimizer=TINY_OPT, overlay=overlay)
    curve = run_rate_experiment(cfg)
    assert curve.bound is not None and curve.bound.shape == (2,)
    out = tmp_path / "ov.csv"
    emit(curve, "csv", out)
    header = out.read_text().splitlines()[0]
    assert header == "n,mean,stderr,runs,wall_s,bound"
    assert load_rate_curve(out, "csv").same_statistics(curve)


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_overlay_column_is_the_pth_root_of_the_formula(p):
    params = BoundParams(p=p, s=2 * p + 1, d=2)
    cfg = ExperimentConfig("rate_two_sample", GAUSS2, p=p, n_grid=(8, 16), mc_runs=1,
                           master_seed=5, optimizer=TINY_OPT, overlay=Overlay("finite"))
    curve = run_rate_experiment(cfg)
    expected = [expectation_bound_finite(params, n) ** (1 / p) for n in (8, 16)]
    assert curve.bound.tolist() == expected


def test_meta_records_the_run_environment(tmp_path):
    import scipy
    from numpy._core import _multiarray_umath as umath

    cfg = ExperimentConfig("rate_two_sample", GAUSS2, n_grid=(8,), mc_runs=2,
                           master_seed=5, optimizer=TINY_OPT)
    one, two = run_rate_experiment(cfg, threads=1), run_rate_experiment(cfg, threads=2)
    # numpy's baseline and the dispatch targets this host enables
    cpu = {"baseline": list(umath.__cpu_baseline__),
           "dispatch": [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__[t]]}
    assert one.meta["environment"] == {
        "python": platform.python_version(), "numpy": np.__version__, "numpy_cpu": cpu,
        "scipy": scipy.__version__, "cpu_count": os.cpu_count(), "workers": 1,
    }
    assert two.meta["environment"]["workers"] == 2
    assert one.meta["content_hash"] == two.meta["content_hash"]
    emit(two, "csv", tmp_path / "c.csv")
    assert json.loads((tmp_path / "c.meta.json").read_text())["environment"] == two.meta["environment"]


def test_same_seed_same_statistics_and_new_seed_differs():
    cfg = ExperimentConfig("rate_vs_truth", GAUSS2, n_grid=(10, 20), mc_runs=2,
                           master_seed=9, optimizer=TINY_OPT)
    a = run_rate_experiment(cfg)
    b = run_rate_experiment(cfg)
    assert a.same_statistics(b)
    other = ExperimentConfig("rate_vs_truth", GAUSS2, n_grid=(10, 20), mc_runs=2,
                             master_seed=10, optimizer=TINY_OPT)
    assert not run_rate_experiment(other).same_statistics(a)


def test_thread_count_does_not_change_results():
    cfg = ExperimentConfig("rate_two_sample", GAUSS2, n_grid=(10, 20), mc_runs=4,
                           master_seed=13, optimizer=TINY_OPT)
    serial = run_rate_experiment(cfg, threads=1)
    parallel = run_rate_experiment(cfg, threads=4)
    auto = run_rate_experiment(cfg, threads=0)
    assert serial.same_statistics(parallel)
    assert serial.same_statistics(auto)
    with pytest.raises(DomainError):
        run_rate_experiment(cfg, threads=-1)


def test_single_run_curve_is_reproducible():
    cfg = ExperimentConfig("rate_two_sample", GAUSS2, n_grid=(12,), mc_runs=1,
                           master_seed=3, optimizer=TINY_OPT)
    a = run_rate_experiment(cfg)
    b = run_rate_experiment(cfg)
    assert a.same_statistics(b)
    assert a.stderr[0] == 0.0


def test_trial_streams_are_independent_roles():
    cfg = ExperimentConfig("rate_two_sample", GAUSS2, n_grid=(16,), mc_runs=2, master_seed=1)
    from msw.harness import _streams

    mu, nu, opt, spare = _streams(cfg, 0, 1)
    draws = {s: sample(GAUSS2, 4, s).tobytes() for s in (mu, nu, opt, spare)}
    assert len(set(draws.values())) == 4
    mu2, *_ = _streams(cfg, 1, 0)
    assert sample(GAUSS2, 4, mu2).tobytes() not in draws.values()


def test_rkhs_truncation_slices_are_consistent():
    kernel = KernelSpec(4.0, 1.0)
    stream = RngStream(77, 0)
    wide = sample(RkhsPushforward(kernel, 1.0, 30), 6, stream)
    narrow = sample(RkhsPushforward(kernel, 1.0, 10), 6, stream)
    assert np.array_equal(wide[:, :10], narrow)


def test_rkhs_rate_returns_curve_per_truncation():
    spec = RkhsPushforward(KernelSpec(4.0, 1.0), 1.0, 20)
    cfg = ExperimentConfig("rkhs_rate", spec, n_grid=(10, 20), mc_runs=2,
                           master_seed=2, optimizer=TINY_OPT, d_test_list=(10, 20))
    curves = run_rate_experiment(cfg)
    assert sorted(curves) == [10, 20]
    for curve in curves.values():
        assert np.all(curve.mean > 0.0)
    # truncation barely moves the coupled estimates
    assert np.allclose(curves[10].mean, curves[20].mean, rtol=0.1)


def _level_values(levels, master_seed=30, threads=1):
    """Per-trial rkhs_rate values {level: (len(n_grid), mc_runs)} at two n."""
    spec = RkhsPushforward(KernelSpec(4.0, 1.0), 1.0, max(levels))
    cfg = ExperimentConfig("rkhs_rate", spec, n_grid=(50, 400), mc_runs=8, master_seed=master_seed,
                           optimizer=OptimizerOpts(), d_test_list=levels)
    values, _, _ = harness._run_items(harness._rate_trial, cfg, threads)
    return dict(zip(levels, values))


def test_rkhs_values_never_fall_as_the_level_grows():
    # a level's winner, padded with zeros, starts the search of the next level
    found = _level_values((3, 6, 10))
    for low, high in ((3, 6), (6, 10)):
        assert np.all(found[high] >= found[low] * (1.0 - 1e-12)), (low, high)
    assert found[3].size == 16


def test_rkhs_levels_are_searched_in_ascending_order_whatever_the_config_order():
    ascending = _level_values((3, 6, 10))
    shuffled = _level_values((10, 3, 6))
    for level, vals in ascending.items():
        assert np.array_equal(shuffled[level], vals), level


def test_rkhs_rate_is_bit_identical_at_one_and_two_workers():
    spec = RkhsPushforward(KernelSpec(4.0, 1.0), 1.0, 6)
    cfg = ExperimentConfig("rkhs_rate", spec, n_grid=(10, 20), mc_runs=3, master_seed=8,
                           optimizer=TINY_OPT, d_test_list=(6, 2, 4))
    one = run_rate_experiment(cfg, threads=1)
    two = run_rate_experiment(cfg, threads=2)
    assert sorted(one) == sorted(two) == [2, 4, 6]
    for level in one:
        assert one[level].same_statistics(two[level]), level


def test_each_truncation_level_takes_its_own_overlay_dimension():
    spec = RkhsPushforward(KernelSpec(4.0, 1.0), 1.0, 6)
    cfg = ExperimentConfig("rkhs_rate", spec, n_grid=(8, 16, 32), mc_runs=1, master_seed=2,
                           optimizer=TINY_OPT, d_test_list=(2, 6), overlay=Overlay("finite"))
    curves = run_rate_experiment(cfg)
    for d, curve in curves.items():
        params = BoundParams(p=2.0, s=5.0, d=d)
        assert curve.bound.tolist() == [expectation_bound_finite(params, n) ** (1 / 2.0)
                                        for n in (8, 16, 32)]
        assert "d" not in curve.meta["config"]["overlay"]
    assert not np.array_equal(curves[2].bound, curves[6].bound)


@pytest.mark.slow
def test_vs_truth_means_decrease_monotonically():
    cfg = ExperimentConfig("rate_vs_truth", GAUSS2, n_grid=(100, 200, 400, 800),
                           mc_runs=40, master_seed=606, optimizer=OptimizerOpts())
    curve = run_rate_experiment(cfg, threads=0)
    slack = 3.0 * (curve.stderr[:-1] + curve.stderr[1:])
    assert np.all(np.diff(curve.mean) < slack)
    assert np.all(np.diff(curve.mean) < 0.0)  # strict at these sample counts


def test_two_sample_mean_is_within_factor_two_of_vs_truth():
    mc = 30
    base = dict(p=2.0, n_grid=(200,), mc_runs=mc, master_seed=700,
                optimizer=OptimizerOpts(restarts=4, max_iters=100))
    truth = run_rate_experiment(ExperimentConfig("rate_vs_truth", GAUSS2, **base), threads=2)
    two = run_rate_experiment(ExperimentConfig("rate_two_sample", GAUSS2, **base), threads=2)
    slack = 3.0 * (two.stderr[0] + 2.0 * truth.stderr[0])
    assert two.mean[0] <= 2.0 * truth.mean[0] + slack
    assert truth.mean[0] <= 2.0 * two.mean[0] + slack


def test_ratio_experiment_table_and_determinism():
    cfg = ExperimentConfig("ratio_exceedance", GAUSS2, n_grid=(40,), mc_runs=6, master_seed=21,
                           optimizer=OptimizerOpts(restarts=3, max_iters=25), eps_grid=(0.0, 0.2, 5.0))
    a = run_ratio_experiment(cfg)
    b = run_ratio_experiment(cfg, threads=3)
    assert a.same_statistics(b)
    # eps = 0 row: the statistic is a.s. positive, the bound is vacuous
    assert a.frequency[0] == 1.0
    assert a.bound[0] == 1.0
    # enormous threshold is never exceeded
    assert a.frequency[2] == 0.0


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        ExperimentConfig("bogus", GAUSS2)
    with pytest.raises(ConfigError):
        ExperimentConfig("rate_vs_truth", GAUSS2, n_grid=(100, 50))
    with pytest.raises(ConfigError):
        ExperimentConfig("rate_vs_truth", GAUSS2, n_grid=(1, 50))
    with pytest.raises(ConfigError):
        ExperimentConfig("rate_vs_truth", GAUSS2, mc_runs=0)
    with pytest.raises(ConfigError):
        ExperimentConfig("rate_vs_truth", ParetoProduct(8.0, 2))
    with pytest.raises(ConfigError):
        ExperimentConfig("rkhs_rate", GAUSS2)
    cfg = ExperimentConfig("rate_two_sample", GAUSS2, n_grid=(8,), mc_runs=1)
    with pytest.raises(ConfigError):
        run_ratio_experiment(cfg)
    with pytest.raises(ConfigError):
        run_rate_experiment(
            ExperimentConfig("ratio_exceedance", GAUSS2, n_grid=(8,), mc_runs=1)
        )


def test_config_rejects_a_value_that_nothing_reads():
    rkhs = RkhsPushforward(KernelSpec(4.0, 1.0), 1.0, 10)
    for experiment, spec, kwargs, message in (
        ("ratio_exceedance", GAUSS2, {"overlay": Overlay("finite")}, "emits no overlay"),
        ("rate_two_sample", GAUSS2, {"d_test_list": (2, 3)}, "reads no d_test_list"),
        ("rate_two_sample", rkhs, {"d_test_list": (10,)}, "reads no d_test_list"),
        ("rkhs_rate", rkhs, {"d_test_list": (10, 20, 10)}, "distinct levels"),
        ("rkhs_rate", rkhs, {"d_test_list": ()}, "distinct levels"),
        ("rate_two_sample", GAUSS2, {"overlay": Overlay("finite", gamma=1.0)}, "reads no gamma"),
        ("rate_two_sample", GAUSS2, {"overlay": Overlay("bogus")}, "unknown overlay kind"),
        ("rate_two_sample", GAUSS2, {"overlay": Overlay("finite", s=4.0)}, "must exceed 2p"),
        ("rate_two_sample", GAUSS2, {"overlay": Overlay("poly_decay")}, "decay exponent gamma"),
        ("rate_two_sample", GAUSS2, {"overlay": Overlay("finite", C_user=math.inf)},
         "C_user must be positive and finite"),
    ):
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig(experiment, spec, **kwargs)
    # the formula's order and dimension are the experiment's, so an overlay cannot
    # carry its own
    with pytest.raises(TypeError):
        Overlay("finite", BoundParams(p=1.0, s=3.0, d=7))


def test_the_overlay_reads_the_experiments_order_and_dimension():
    spec = Gaussian(np.zeros(3), np.eye(3))
    cfg = ExperimentConfig("rate_two_sample", spec, p=1.5, n_grid=(8, 16), mc_runs=1,
                           master_seed=5, optimizer=TINY_OPT, overlay=Overlay("finite"))
    params = BoundParams(p=1.5, s=4.0, d=3)
    expected = [expectation_bound_finite(params, n) ** (1 / 1.5) for n in (8, 16)]
    curve = run_rate_experiment(cfg)
    assert curve.bound.tolist() == expected
    assert curve.meta["config"]["overlay"] == {"kind": "finite", "s": 4.0, "gamma": None, "C_user": 1.0}


def test_ratio_takes_no_order_and_rkhs_samples_the_spec_it_records():
    with pytest.raises(ConfigError, match="experiment 'ratio_exceedance' reads no p"):
        ExperimentConfig("ratio_exceedance", GAUSS2, p=3.0)
    assert harness.config_to_dict(ExperimentConfig("ratio_exceedance", GAUSS2))["p"] is None
    assert ExperimentConfig("rate_two_sample", GAUSS2).p == 2.0
    stale = RkhsPushforward(KernelSpec(4.0, 1.0), 1.0, 99)
    with pytest.raises(ConfigError, match=r"largest level of d_test_list \(3, 5\) must be"):
        ExperimentConfig("rkhs_rate", stale, d_test_list=(3, 5))
    assert ExperimentConfig("rkhs_rate", stale).d_test_list == (99,)
    for p in (math.inf, math.nan, 0.5):
        with pytest.raises(ConfigError, match="order p must be finite and >= 1"):
            ExperimentConfig("rate_two_sample", GAUSS2, p=p)


def test_worker_pool_is_capped_at_the_item_count(monkeypatch):
    sizes = []

    class InlinePool:
        """Stands in for ProcessPoolExecutor: records max_workers, runs each item inline."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(harness, "ProcessPoolExecutor", InlinePool)
    cfg = ExperimentConfig("rate_two_sample", GAUSS2, n_grid=(8, 16), mc_runs=2,
                           master_seed=5, optimizer=TINY_OPT)
    capped = run_rate_experiment(cfg, threads=5000)
    ratio_cfg = ExperimentConfig("ratio_exceedance", GAUSS2, n_grid=(20,), mc_runs=3,
                                 master_seed=5, optimizer=TINY_OPT, eps_grid=(0.1,))
    run_ratio_experiment(ratio_cfg, threads=5000)
    assert sizes == [4, 3]
    assert capped.same_statistics(run_rate_experiment(cfg, threads=1))


def test_the_eps_grid_is_a_checked_config_field():
    cfg = ExperimentConfig("ratio_exceedance", GAUSS2)
    assert cfg.eps_grid == harness.DEFAULT_EPS_GRID and len(cfg.eps_grid) == 24
    cfg = ExperimentConfig("ratio_exceedance", GAUSS2, eps_grid=(1, 0.5))
    assert cfg.eps_grid == (1.0, 0.5) and all(type(e) is float for e in cfg.eps_grid)
    assert harness.config_to_dict(cfg)["eps_grid"] == [1.0, 0.5]
    for grid in ((), (math.nan,), (0.5, -0.1)):
        with pytest.raises(ConfigError, match="eps_grid must be nonempty thresholds >= 0"):
            ExperimentConfig("ratio_exceedance", GAUSS2, eps_grid=grid)
    with pytest.raises(ConfigError, match="experiment 'rate_two_sample' reads no eps_grid"):
        ExperimentConfig("rate_two_sample", GAUSS2, eps_grid=(0.5,))
    assert "eps_grid" not in harness.config_to_dict(ExperimentConfig("rate_two_sample", GAUSS2))


def test_the_record_has_a_key_for_every_config_field():
    rkhs = ExperimentConfig("rkhs_rate", RkhsPushforward(KernelSpec(4.0, 1.0), 1.0, 5),
                            d_test_list=(3, 5), overlay=Overlay("exp_decay", gamma=2.0))
    ratio_cfg = ExperimentConfig("ratio_exceedance", GAUSS2)
    recorded = harness.config_to_dict(rkhs).keys() | harness.config_to_dict(ratio_cfg).keys()
    assert sorted(f.name for f in dataclasses.fields(ExperimentConfig)) == sorted(recorded)
