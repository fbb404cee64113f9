"""Experiment driver: seeded Monte Carlo rate curves, ratio exceedance tables,
slope fits, and CSV/JSON emission.

Every (sample size, trial) work item owns random streams derived from the
master seed and its own indices, so results are bit-identical no matter how
the items are scheduled across worker processes.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import KW_ONLY, asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .bounds import (
    BoundParams,
    expectation_bound_exp_decay,
    expectation_bound_finite,
    expectation_bound_poly_decay,
    ratio_tail_bound,
)
# the sampler and the searches are read from their modules at each call, for
# the reason given in maxsliced.py
from . import maxsliced, measures, ratio
from .errors import ConfigError, DomainError, NumericError, check_order, check_vs_truth_order
from .maxsliced import OptimizerOpts
from .measures import DistributionSpec, Gaussian, ParetoProduct, RkhsPushforward, RngStream

EXPERIMENTS = ("rate_vs_truth", "rate_two_sample", "ratio_exceedance", "rkhs_rate")

# stream roles within one (n, trial) work item
_ROLE_MU, _ROLE_NU, _ROLE_OPT, _ROLE_SPARE = 0, 1, 2, 3

# desk-scale default grid of sample sizes
DEFAULT_N_GRID = (50, 100, 200, 400, 800, 1600)
DEFAULT_EPS_GRID = tuple(round(0.05 * k, 2) for k in range(1, 25))

_OVERLAY_FORMULAS = {
    "finite": expectation_bound_finite,
    "exp_decay": expectation_bound_exp_decay,
    "poly_decay": expectation_bound_poly_decay,
}


@dataclass(frozen=True)
class Overlay:
    """An expectation-bound curve to emit next to the empirical means.

    The formula's order p and dimension d are the experiment's; each rkhs_rate
    curve takes its own truncation level as d. ExperimentConfig sets an unset s
    to 2p + 1, so the record holds the s that the formula reads, and checks the
    kind and the inputs the formula needs. The formula bounds E[W̄_p^p]. The
    means estimate E[W̄_p], so the emitted column is its p-th root, which
    bounds E[W̄_p] by Jensen's inequality.
    """

    kind: str
    _: KW_ONLY
    s: float | None = None
    gamma: float | None = None
    C_user: float = 1.0


@dataclass(frozen=True)
class ExperimentConfig:
    """One seeded Monte Carlo experiment: its law, sample sizes, trials and search.

    p is the order of the rate experiments' distance, 2.0 when unset;
    rate_vs_truth computes its distance to the Gaussian law at p = 2 only. The
    ratio statistic has no order, so ratio_exceedance takes no p and records
    it as None. rkhs_rate samples its spec and slices each draw to the
    truncation levels of d_test_list, whose largest level must be the spec's
    d_test; no list means the one level spec.d_test. eps_grid holds the
    thresholds of ratio_exceedance alone, DEFAULT_EPS_GRID when unset, each >= 0.
    """

    experiment: str
    spec: DistributionSpec
    p: float | None = None
    n_grid: tuple[int, ...] = DEFAULT_N_GRID
    mc_runs: int = 100
    master_seed: int = 0
    optimizer: OptimizerOpts = OptimizerOpts()
    d_test_list: tuple[int, ...] | None = None
    eps_grid: tuple[float, ...] | None = None
    overlay: Overlay | None = None

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}; expected one of {EXPERIMENTS}")
        grid = tuple(int(n) for n in self.n_grid)
        if len(grid) < 1 or any(n < 2 for n in grid) or any(
            b <= a for a, b in zip(grid, grid[1:])
        ):
            raise ConfigError(f"n_grid must be strictly ascending with entries >= 2, got {grid}")
        object.__setattr__(self, "n_grid", grid)
        if self.mc_runs < 1:
            raise ConfigError(f"mc_runs must be >= 1, got {self.mc_runs}")
        if self.experiment == "ratio_exceedance":
            if self.p is not None:
                raise ConfigError("experiment 'ratio_exceedance' reads no p")
        else:
            object.__setattr__(self, "p", 2.0 if self.p is None else self.p)
            check = check_vs_truth_order if self.experiment == "rate_vs_truth" else check_order
            check(self.p, ConfigError)
        if self.experiment in ("rate_vs_truth", "ratio_exceedance") and not isinstance(self.spec, Gaussian):
            raise ConfigError(f"experiment {self.experiment!r} requires a Gaussian spec")
        if self.experiment == "rkhs_rate":
            if not isinstance(self.spec, RkhsPushforward):
                raise ConfigError("experiment 'rkhs_rate' requires an RkhsPushforward spec")
            if self.d_test_list is None:
                object.__setattr__(self, "d_test_list", (self.spec.d_test,))
            else:
                lst = tuple(int(d) for d in self.d_test_list)
                if not lst or any(d < 1 for d in lst) or len(set(lst)) < len(lst):
                    raise ConfigError(f"d_test_list must be distinct levels >= 1, got {lst}")
                if max(lst) != self.spec.d_test:
                    raise ConfigError(f"the largest level of d_test_list {lst} must be the "
                                      f"spec's d_test, {self.spec.d_test}")
                object.__setattr__(self, "d_test_list", lst)
        elif self.d_test_list is not None:
            raise ConfigError(f"experiment {self.experiment!r} reads no d_test_list")
        if self.experiment == "ratio_exceedance":
            eps = tuple(float(e) for e in (DEFAULT_EPS_GRID if self.eps_grid is None else self.eps_grid))
            if not eps or not all(e >= 0.0 for e in eps):
                raise ConfigError(f"eps_grid must be nonempty thresholds >= 0, got {eps}")
            object.__setattr__(self, "eps_grid", eps)
        elif self.eps_grid is not None:
            raise ConfigError(f"experiment {self.experiment!r} reads no eps_grid")
        if self.overlay is not None:
            kind = self.overlay.kind
            if self.experiment == "ratio_exceedance":
                raise ConfigError("experiment 'ratio_exceedance' emits no overlay")
            if kind not in _OVERLAY_FORMULAS:
                raise ConfigError(
                    f"unknown overlay kind {kind!r}; expected one of {tuple(_OVERLAY_FORMULAS)}"
                )
            if kind == "finite" and self.overlay.gamma is not None:
                raise ConfigError("overlay 'finite' reads no gamma")
            if self.overlay.s is None:
                object.__setattr__(self, "overlay", replace(self.overlay, s=2 * self.p + 1))
            try:
                _OVERLAY_FORMULAS[kind](self._bound_params(self.spec.dim), 1)
            except DomainError as exc:
                raise ConfigError(f"overlay {kind!r}: {exc}") from exc

    def _bound_params(self, d: int) -> BoundParams:
        """The overlay formula's inputs, at the experiment's p and dimension d."""
        return BoundParams(self.p, self.overlay.s, d, self.overlay.gamma, self.overlay.C_user)


class _Table:
    """A result whose COLUMNS name its emitted columns in order. A column set
    to None is left out, and every column but wall_s is a statistic."""

    COLUMNS: tuple[str, ...] = ()

    def columns(self) -> dict:
        return {c: getattr(self, c) for c in self.COLUMNS if getattr(self, c) is not None}

    def same_statistics(self, other) -> bool:
        """Bitwise equality of everything except the wallclock column."""
        a, b = self.columns(), other.columns()
        return a.keys() == b.keys() and all(np.array_equal(a[c], b[c]) for c in a if c != "wall_s")


@dataclass(frozen=True)
class RateCurve(_Table):
    """Per-n Monte Carlo estimates of E[W̄_p], the expected max-sliced distance.

    The mean column is the distance itself, not its p-th power.
    """

    COLUMNS = ("n", "mean", "stderr", "runs", "wall_s", "bound")

    n: np.ndarray
    mean: np.ndarray
    stderr: np.ndarray
    runs: np.ndarray
    wall_s: np.ndarray
    meta: dict
    bound: np.ndarray | None = None


@dataclass(frozen=True)
class RatioTable(_Table):
    """Exceedance frequencies of the ratio statistic next to the tail bound."""

    COLUMNS = ("n", "epsilon", "frequency", "bound", "bound_raw", "runs")

    n: np.ndarray
    epsilon: np.ndarray
    frequency: np.ndarray
    bound: np.ndarray
    bound_raw: np.ndarray
    runs: np.ndarray
    meta: dict


def spec_to_dict(spec: DistributionSpec) -> dict:
    if isinstance(spec, Gaussian):
        return {
            "distribution": "gaussian",
            "mean": spec.mean.tolist(),
            "cov": spec.cov.tolist(),
        }
    if isinstance(spec, ParetoProduct):
        return {"distribution": "pareto_product", "shape": spec.shape, "d": spec.d}
    if isinstance(spec, RkhsPushforward):
        return {
            "distribution": "rkhs_pushforward",
            "sigma2": spec.kernel.sigma2,
            "w": spec.kernel.w,
            "eta2": spec.eta2,
            "d_test": spec.d_test,
        }
    raise ConfigError(f"cannot serialize spec of type {type(spec).__name__}")


def _strict_json(x):
    """x, or "inf" for +inf, which strict JSON cannot hold: the one non-finite
    value of a config or of an emitted table."""
    return "inf" if x == math.inf else x


def config_to_dict(config: ExperimentConfig) -> dict:
    out = {
        "experiment": config.experiment,
        "spec": spec_to_dict(config.spec),
        "p": config.p,
        "n_grid": list(config.n_grid),
        "mc_runs": config.mc_runs,
        "master_seed": config.master_seed,
        "optimizer": asdict(config.optimizer),
    }
    if config.d_test_list is not None:
        out["d_test_list"] = list(config.d_test_list)
    if config.eps_grid is not None:
        out["eps_grid"] = [_strict_json(e) for e in config.eps_grid]
    if config.overlay is not None:
        out["overlay"] = {k: _strict_json(v) for k, v in asdict(config.overlay).items()}
    return out


def _environment(workers: int) -> dict:
    """The library versions, numpy's CPU dispatch, CPU count and worker count of a run.

    numpy_cpu is numpy's compiled-in baseline and the dispatch targets this host
    enables: on another CPU one numpy version may run other SIMD loops (np.log,
    np.exp), whose results can differ in the last bits.
    """
    import scipy  # the bare package loads no submodule
    from numpy._core import _multiarray_umath as umath

    features = umath.__cpu_features__
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numpy_cpu": {
            "baseline": list(umath.__cpu_baseline__),
            "dispatch": [t for t in umath.__cpu_dispatch__ if features.get(t)],
        },
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "workers": workers,
    }


def _meta(config: ExperimentConfig, workers: int) -> dict:
    """The config, seed and content hash of a run, and its environment.

    content_hash covers the config only, so it is the same for any worker
    count; the statistics are bit-identical only for fixed library versions.
    """
    blob = json.dumps(config_to_dict(config), sort_keys=True, separators=(",", ":"), allow_nan=False)
    return {
        "config": config_to_dict(config),
        "master_seed": config.master_seed,
        "content_hash": hashlib.sha256(blob.encode()).hexdigest(),
        "environment": _environment(workers),
    }


def _streams(config: ExperimentConfig, n_index: int, trial: int) -> tuple[RngStream, ...]:
    base = n_index * config.mc_runs * 4 + trial * 4
    return tuple(
        RngStream(config.master_seed, base + role)
        for role in (_ROLE_MU, _ROLE_NU, _ROLE_OPT, _ROLE_SPARE)
    )


def _rate_trial(config: ExperimentConfig, n_index: int, trial: int):
    """The statistics of one (n, trial) item, one per truncation level, and its wall time.

    rkhs_rate draws one sample pair at the top level and slices it to each
    level of d_test_list. The levels are nested: a direction padded with zeros
    projects the wider slice exactly as the narrower one, so the true distance
    cannot fall as d_test grows. The levels are searched in ascending order,
    the k-th on opt_stream.child(k). The first runs config.optimizer; each
    higher one starts from the zero-padded winner of the level below, with one
    random restart besides the seed directions. The values come back in the
    config's order.
    """
    n = config.n_grid[n_index]
    mu_stream, nu_stream, opt_stream, _ = _streams(config, n_index, trial)
    start = time.perf_counter()
    xs = measures.sample(config.spec, n, mu_stream)
    if config.experiment == "rate_vs_truth":
        result = maxsliced.msw_vs_analytic(xs, config.spec, config.p, config.optimizer, opt_stream)
        return (result.value,), time.perf_counter() - start
    ys = measures.sample(config.spec, n, nu_stream)
    if config.experiment == "rate_two_sample":
        result = maxsliced.msw_empirical(xs, ys, config.p, config.optimizer, opt_stream)
        return (result.value,), time.perf_counter() - start
    # rkhs_rate: one draw, sliced to each truncation level
    found, opts, below = {}, config.optimizer, None
    for k, dt in enumerate(sorted(config.d_test_list)):
        padded = None if below is None else np.pad(below, (0, dt - below.size))[None, :]
        result = maxsliced.msw_empirical(xs[:, :dt], ys[:, :dt], config.p, opts,
                                         opt_stream.child(k), extra_axes=padded)
        found[dt], below = result.value, result.argmax
        opts = replace(config.optimizer, restarts=1)
    return tuple(found[dt] for dt in config.d_test_list), time.perf_counter() - start


def _ratio_trial(config: ExperimentConfig, n_index: int, trial: int):
    n = config.n_grid[n_index]
    mu_stream, _, opt_stream, _ = _streams(config, n_index, trial)
    start = time.perf_counter()
    xs = measures.sample(config.spec, n, mu_stream)
    value = ratio.ratio_sup(xs, config.spec, config.optimizer, opt_stream).value
    return (value,), time.perf_counter() - start


def _run_items(worker, config: ExperimentConfig, threads: int):
    """Run worker on every (n index, trial) item of the config.

    Returns the values, shape (values per trial, len(n_grid), mc_runs), the
    wall times, shape (len(n_grid), mc_runs), and the worker count. Results
    are collected in item order, so they do not depend on how the items are
    scheduled. The pool never has more workers than items.
    """
    if threads < 0:
        raise DomainError(f"thread count must be >= 0, got {threads}")
    items = [(i, t) for i in range(len(config.n_grid)) for t in range(config.mc_runs)]
    threads = min(threads or os.cpu_count() or 1, len(items))
    if threads == 1:
        results = [worker(config, *it) for it in items]
    else:
        if config.experiment == "ratio_exceedance" and any(
                ratio.needs_search(config.spec, n) for n in config.n_grid):
            # the ratio search's normal cdf comes from scipy.special: loaded
            # once here, the forked workers inherit it instead of each
            # importing it on its first objective; the sweep needs none
            import scipy.special  # noqa: F401

        with ProcessPoolExecutor(max_workers=threads) as pool:
            futures = [pool.submit(worker, config, *it) for it in items]
            results = [f.result() for f in futures]
    shape = (len(config.n_grid), config.mc_runs)
    values = np.array([v for v, _ in results]).T.reshape(-1, *shape)
    return values, np.array([w for _, w in results]).reshape(shape), threads


def _aggregate(config: ExperimentConfig, d: int, vals: np.ndarray, walls: np.ndarray,
               workers: int) -> RateCurve:
    """The curve of the values vals, shape (len(n_grid), mc_runs), at dimension d."""
    bad = [n for n, row in zip(config.n_grid, vals) if not np.isfinite(row).all()]
    if bad:
        raise NumericError(f"a trial at n = {bad[0]} gave a non-finite statistic")
    n_count = len(config.n_grid)
    if config.mc_runs > 1:
        stderrs = vals.std(axis=1, ddof=1) / math.sqrt(config.mc_runs)
    else:
        stderrs = np.zeros(n_count)
    bound = None
    if config.overlay is not None:
        formula, params = _OVERLAY_FORMULAS[config.overlay.kind], config._bound_params(d)
        bound = np.array([formula(params, n) ** (1.0 / config.p) for n in config.n_grid])
    return RateCurve(
        n=np.array(config.n_grid, dtype=np.int64),
        mean=vals.mean(axis=1),
        stderr=stderrs,
        runs=np.full(n_count, config.mc_runs, dtype=np.int64),
        wall_s=walls.mean(axis=1),
        meta=_meta(config, workers),
        bound=bound,
    )


def run_rate_experiment(config: ExperimentConfig, threads: int = 1):
    """Monte Carlo estimate of n -> E[MSW_p] over the configured grid.

    Returns a RateCurve, except for the 'rkhs_rate' experiment which returns
    one curve per truncation level as {d_test: RateCurve}. threads = 0 picks
    the CPU count; any thread count produces identical statistics.
    """
    if config.experiment not in ("rate_vs_truth", "rate_two_sample", "rkhs_rate"):
        raise ConfigError(f"run_rate_experiment cannot run {config.experiment!r}")
    values, walls, workers = _run_items(_rate_trial, config, threads)
    if config.experiment == "rkhs_rate":
        return {dt: _aggregate(config, dt, v, walls, workers) for dt, v in zip(config.d_test_list, values)}
    return _aggregate(config, config.spec.dim, values[0], walls, workers)


def run_ratio_experiment(config: ExperimentConfig, threads: int = 1) -> RatioTable:
    """Exceedance frequencies of the ratio statistic at config.eps_grid against the tail bound."""
    if config.experiment != "ratio_exceedance":
        raise ConfigError(f"run_ratio_experiment cannot run {config.experiment!r}")
    d = config.spec.dim
    values, _, workers = _run_items(_ratio_trial, config, threads)
    rows = [
        (n, eps, float(np.mean(values[0, i] >= eps)), ratio_tail_bound(n, d, eps))
        for i, n in enumerate(config.n_grid)
        for eps in config.eps_grid
    ]
    n, eps, freq, bounds = zip(*rows)
    return RatioTable(
        n=np.array(n, dtype=np.int64),
        epsilon=np.array(eps),
        frequency=np.array(freq),
        bound=np.array([b.clipped for b in bounds]),
        bound_raw=np.array([b.raw for b in bounds]),
        runs=np.full(len(n), config.mc_runs, dtype=np.int64),
        meta=_meta(config, workers),
    )


def fit_loglog_slope(curve: RateCurve) -> tuple[float, float, float]:
    """OLS fit of log(mean) on log(n) over the rows with mean > 0.

    Returns (slope, intercept, r_squared); needs at least 3 usable rows.
    """
    keep = curve.mean > 0.0
    if int(np.sum(keep)) < 3:
        raise DomainError(f"slope fit needs >= 3 rows with positive mean, got {int(np.sum(keep))}")
    lx = np.log(curve.n[keep].astype(np.float64))
    ly = np.log(curve.mean[keep])
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    return float(slope), float(intercept), r2


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def emit(obj, format: str, path) -> None:
    """Write a RateCurve or RatioTable as CSV or JSON, plus a sibling meta file.

    CSV uses '.' decimals, LF line endings, UTF-8, and round-trippable float
    repr; JSON mirrors the same fields as one object per row, strict JSON with
    +inf written as the string "inf", as in the meta file. The metadata
    (full config, master seed, content hash, run environment) lands next to
    the output as <stem>.meta.json.
    """
    if format not in ("csv", "json"):
        raise DomainError(f"format must be 'csv' or 'json', got {format!r}")
    if not isinstance(obj, _Table):
        raise DomainError(f"cannot emit object of type {type(obj).__name__}")
    columns = obj.columns()
    header, rows = list(columns), list(zip(*columns.values()))
    path = Path(path)
    try:
        if format == "csv":
            lines = [",".join(header)]
            lines.extend(",".join(_fmt(x) for x in row) for row in rows)
            path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
        else:
            payload = [
                {key: (int(x) if isinstance(x, (int, np.integer)) else _strict_json(float(x)))
                 for key, x in zip(header, row)}
                for row in rows
            ]
            text = json.dumps(payload, indent=1, allow_nan=False)
            path.write_text(text + "\n", encoding="utf-8", newline="\n")
        meta = json.dumps(obj.meta, indent=2, sort_keys=True, allow_nan=False) + "\n"
        path.with_suffix(".meta.json").write_text(meta, encoding="utf-8", newline="\n")
    except OSError as exc:
        raise OSError(f"failed to write {path}: {exc}") from exc


def load_rate_curve(path, format: str) -> RateCurve:
    """Read back a RateCurve written by emit (meta comes from the sibling file)."""
    path = Path(path)
    meta_path = path.with_suffix(".meta.json")
    meta = json.loads(meta_path.read_text(encoding="utf-8")) if meta_path.exists() else {}
    if format == "csv":
        lines = path.read_text(encoding="utf-8").strip().split("\n")
        header = lines[0].split(",")
        rows = [line.split(",") for line in lines[1:]]
        data = {key: [row[i] for row in rows] for i, key in enumerate(header)}
    elif format == "json":
        rows = json.loads(path.read_text(encoding="utf-8"))
        header = list(rows[0].keys()) if rows else []
        data = {key: [row[key] for row in rows] for key in header}
    else:
        raise DomainError(f"format must be 'csv' or 'json', got {format!r}")
    columns = {
        c: (np.array([int(x) for x in data[c]], dtype=np.int64) if c in ("n", "runs")
            else np.array([float(x) for x in data[c]]))
        for c in RateCurve.COLUMNS
        if c in data
    }
    return RateCurve(**columns, meta=meta)
