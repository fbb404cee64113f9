"""Command-line interface: one-shot distances, rate/ratio experiments, spectra.

Exit codes: 0 success, 2 configuration error, 3 numeric error, 4 I/O error.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import numbers
import sys
from pathlib import Path

import numpy as np

from .bounds import BoundParams
from .errors import ConfigError, DomainError, MswError, NumericError, SpecError
from .harness import (
    DEFAULT_N_GRID,
    EXPERIMENT_OPTIMIZER,
    ExperimentConfig,
    Overlay,
    emit,
    run_rate_experiment,
    run_ratio_experiment,
)
from .maxsliced import OptimizerOpts, msw_empirical
from .measures import Gaussian, ParetoProduct, RkhsPushforward, RngStream
from .rkhs import KernelSpec, check_assumptions, check_spectrum, eigenvalues

DEFAULT_EPS_GRID = tuple(round(0.05 * k, 2) for k in range(1, 25))

_OPTIMIZER_KEYS = ("restarts", "max_iters", "tol")
# every key config_from_mapping reads; README.md documents the same set
_CONFIG_KEYS = frozenset((
    "experiment", "distribution", "d", "mean", "covariance", "shape", "sigma2", "w", "eta2",
    "d_test", "d_test_list", "p", "n_grid", "mc_runs", "master_seed", "eps_grid",
    "overlay_kind", "overlay_s", "overlay_gamma", "overlay_c", "overlay_C", *_OPTIMIZER_KEYS,
))


def _parse_scalar(token: str):
    token = token.strip()
    for cast in (int, float):
        try:
            return cast(token)
        except ValueError:
            pass
    return token


def _int(key: str, value) -> int:
    """An integer config value; anything else, a boolean included, is a ConfigError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _float(key: str, value) -> float:
    """A real config value; anything else, a boolean included, is a ConfigError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    return float(value)


def _split_top_level(value: str) -> list[str]:
    """Split on commas that are not nested inside parentheses."""
    parts, depth, cur = [], 0, []
    for ch in value:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


def parse_config_file(path) -> dict:
    """Read a `key = value` config file; '#' starts a comment.

    Comma-separated values become lists; integer and float tokens are
    converted, everything else stays a string.
    """
    mapping: dict = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise OSError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        parts = _split_top_level(value.strip())
        parsed = [_parse_scalar(p) for p in parts if p.strip() != ""]
        mapping[key.strip()] = parsed if len(parsed) > 1 else parsed[0]
    return mapping


def _as_list(value) -> list:
    return value if isinstance(value, list) else [value]


def _build_covariance(value, d: int) -> np.ndarray:
    if value is None or value == "identity":
        return np.eye(d)
    if isinstance(value, str) and value.startswith("equicorrelated(") and value.endswith(")"):
        rho = float(value[len("equicorrelated(") : -1])
        return (1.0 - rho) * np.eye(d) + rho * np.ones((d, d))
    if isinstance(value, str) and value.startswith("diag(") and value.endswith(")"):
        entries = [float(t) for t in value[len("diag(") : -1].split(",")]
        if len(entries) != d:
            raise ConfigError(f"diag covariance has {len(entries)} entries for dimension {d}")
        return np.diag(entries)
    raise ConfigError(
        f"unsupported covariance {value!r}; use identity, equicorrelated(rho) or diag(...)"
    )


def _build_spec(mapping: dict):
    dist = mapping.get("distribution", "gaussian")
    if dist == "gaussian":
        mean_raw = mapping.get("mean", 0.0)
        if isinstance(mean_raw, list):
            mean = np.asarray([_float("mean", v) for v in mean_raw])
            d = mean.size
        else:
            d = _int("d", mapping.get("d", 2))
            mean = np.full(d, _float("mean", mean_raw))
        return Gaussian(mean, _build_covariance(mapping.get("covariance"), d))
    if dist == "pareto_product":
        if "shape" not in mapping:
            raise ConfigError("pareto_product requires key 'shape'")
        return ParetoProduct(_float("shape", mapping["shape"]), _int("d", mapping.get("d", 2)))
    if dist == "rkhs_pushforward":
        for key in ("sigma2", "w", "eta2"):
            if key not in mapping:
                raise ConfigError(f"rkhs_pushforward requires key {key!r}")
        kernel = KernelSpec(_float("sigma2", mapping["sigma2"]), _float("w", mapping["w"]))
        if "d_test" in mapping:
            d_test = _int("d_test", mapping["d_test"])
        elif "d_test_list" in mapping:
            d_test = _int("d_test_list", _as_list(mapping["d_test_list"])[0])
        else:
            raise ConfigError("rkhs_pushforward requires 'd_test' or 'd_test_list'")
        return RkhsPushforward(kernel, _float("eta2", mapping["eta2"]), d_test)
    raise ConfigError(f"unknown distribution {dist!r}")


def _build_optimizer(mapping: dict) -> OptimizerOpts:
    overrides = {
        k: (_float if k == "tol" else _int)(k, mapping[k]) for k in _OPTIMIZER_KEYS if k in mapping
    }
    if not overrides:
        return EXPERIMENT_OPTIMIZER
    return dataclasses.replace(EXPERIMENT_OPTIMIZER, **overrides)


def _build_overlay(mapping: dict, p: float, spec) -> Overlay | None:
    kind = mapping.get("overlay_kind")
    if kind is None:
        return None
    params = BoundParams(
        p=p,
        s=_float("overlay_s", mapping.get("overlay_s", 2 * p + 1)),
        d=getattr(spec, "dim", None),
        gamma=(_float("overlay_gamma", mapping["overlay_gamma"])
               if "overlay_gamma" in mapping else None),
        c_user=_float("overlay_c", mapping.get("overlay_c", 1.0)),
        C_user=_float("overlay_C", mapping.get("overlay_C", 1.0)),
    )
    return Overlay(kind=str(kind), params=params)


def config_from_mapping(mapping: dict) -> tuple[ExperimentConfig, tuple[float, ...]]:
    """Build an ExperimentConfig (plus the eps grid for ratio experiments)."""
    unknown = sorted(set(mapping) - _CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    if "experiment" not in mapping:
        raise ConfigError("config must set 'experiment'")
    spec = _build_spec(mapping)
    p = _float("p", mapping.get("p", 2.0))
    n_grid = tuple(_int("n_grid", n) for n in _as_list(mapping.get("n_grid", list(DEFAULT_N_GRID))))
    d_test_list = mapping.get("d_test_list")
    if d_test_list is not None:
        d_test_list = tuple(_int("d_test_list", d) for d in _as_list(d_test_list))
    config = ExperimentConfig(
        experiment=str(mapping["experiment"]),
        spec=spec,
        p=p,
        n_grid=n_grid,
        mc_runs=_int("mc_runs", mapping.get("mc_runs", 100)),
        master_seed=_int("master_seed", mapping.get("master_seed", 0)),
        optimizer=_build_optimizer(mapping),
        d_test_list=d_test_list,
        overlay=_build_overlay(mapping, p, spec),
    )
    eps_grid = mapping.get("eps_grid", list(DEFAULT_EPS_GRID))
    eps_grid = tuple(_float("eps_grid", e) for e in _as_list(eps_grid))
    return config, eps_grid


def load_sample_file(path) -> np.ndarray:
    """CSV sample matrix, one point per row; a leading x1,...,xd header is skipped."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise OSError(f"cannot read sample file {path}: {exc}") from exc
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise DomainError(f"sample file {path} is empty")
    start = 0
    try:
        [float(tok) for tok in lines[0].split(",")]
    except ValueError:
        start = 1
    rows = []
    for lineno, line in enumerate(lines[start:], start=start + 1):
        try:
            row = [float(tok) for tok in line.split(",")]
        except ValueError as exc:
            raise DomainError(f"{path}:{lineno}: {exc}") from exc
        if rows and len(row) != len(rows[0]):
            raise DomainError(f"{path}:{lineno}: expected {len(rows[0])} values, got {len(row)}")
        rows.append(row)
    return np.asarray(rows, dtype=np.float64)


def _cmd_compute(args) -> int:
    xs = load_sample_file(args.x)
    ys = load_sample_file(args.y)
    opts = dataclasses.replace(
        OptimizerOpts(), restarts=args.restarts
    ) if args.restarts else OptimizerOpts()
    result = msw_empirical(xs, ys, args.p, opts, RngStream(args.seed))
    payload = {
        "value": result.value,
        "argmax": result.argmax.tolist(),
        "p": args.p,
        "restarts_used": result.restarts_used,
        "iterations": result.iterations,
    }
    text = json.dumps(payload, indent=1) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_rate(args) -> int:
    mapping = parse_config_file(args.config)
    if args.seed is not None:
        mapping["master_seed"] = args.seed
    config, _ = config_from_mapping(mapping)
    result = run_rate_experiment(config, threads=args.threads)
    out = Path(args.out)
    if isinstance(result, dict):
        for d_test, curve in result.items():
            emit(curve, args.format, out.with_stem(f"{out.stem}_dtest{d_test}"))
    else:
        emit(result, args.format, out)
    return 0


def _cmd_ratio(args) -> int:
    mapping = parse_config_file(args.config)
    if args.seed is not None:
        mapping["master_seed"] = args.seed
    mapping.setdefault("experiment", "ratio_exceedance")
    config, eps_grid = config_from_mapping(mapping)
    table = run_ratio_experiment(config, eps_grid, threads=args.threads)
    emit(table, args.format, args.out)
    return 0


def _cmd_rkhs_spectrum(args) -> int:
    kernel = KernelSpec(args.sigma2, args.w)
    lams = eigenvalues(kernel, args.j_max)
    report = check_spectrum(kernel, min(args.j_max, args.check_j)) if args.check else None
    assumptions = check_assumptions(kernel, args.eta2, args.p)
    if args.format == "csv":
        lines = ["j,lambda"]
        lines.extend(f"{j},{repr(float(lam))}" for j, lam in enumerate(lams))
        body = "\n".join(lines) + "\n"
    else:
        body = json.dumps(
            [{"j": j, "lambda": float(lam)} for j, lam in enumerate(lams)], indent=1
        ) + "\n"
    summary = {
        "sigma2": args.sigma2,
        "w": args.w,
        "kappa": assumptions.kappa,
        "exponential_decay": assumptions.exponential_decay,
        "admissible_s": [assumptions.s_min, assumptions.s_max] if assumptions.admissible else None,
    }
    if report is not None:
        summary["orthonormality_error"] = report.orthonormality_error
        summary["max_eigen_residual"] = float(np.max(report.eigen_residuals))
        summary["residual_j_max"] = report.j_max
    if args.out:
        out = Path(args.out)
        out.write_text(body, encoding="utf-8", newline="\n")
        out.with_suffix(".report.json").write_text(
            json.dumps(summary, indent=2) + "\n", encoding="utf-8", newline="\n"
        )
    else:
        sys.stdout.write(body)
        sys.stdout.write(json.dumps(summary, indent=2) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="msw", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compute", help="max-sliced distance between two sample files")
    c.add_argument("x", help="CSV file of samples, one point per row")
    c.add_argument("y", help="CSV file of samples, one point per row")
    c.add_argument("--p", type=float, default=2.0)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--restarts", type=int, default=None)
    c.add_argument("--out", default=None)
    c.set_defaults(func=_cmd_compute)

    r = sub.add_parser("rate", help="Monte Carlo rate experiment from a config file")
    r.add_argument("--config", required=True)
    r.add_argument("--seed", type=int, default=None, help="override master_seed")
    r.add_argument("--out", required=True)
    r.add_argument("--format", choices=("csv", "json"), default="csv")
    r.add_argument("--threads", type=int, default=1, help="worker count; 0 = auto")
    r.set_defaults(func=_cmd_rate)

    q = sub.add_parser("ratio", help="ratio-statistic exceedance experiment")
    q.add_argument("--config", required=True)
    q.add_argument("--seed", type=int, default=None)
    q.add_argument("--out", required=True)
    q.add_argument("--format", choices=("csv", "json"), default="csv")
    q.add_argument("--threads", type=int, default=1)
    q.set_defaults(func=_cmd_ratio)

    s = sub.add_parser("rkhs-spectrum", help="eigenvalue table and spectrum checks")
    s.add_argument("--sigma2", type=float, required=True)
    s.add_argument("--w", type=float, required=True)
    s.add_argument("--j-max", type=int, default=50)
    s.add_argument("--eta2", type=float, default=1.0)
    s.add_argument("--p", type=float, default=2.0)
    s.add_argument("--check", action="store_true", help="run quadrature verification")
    s.add_argument("--check-j", type=int, default=30)
    s.add_argument("--out", default=None)
    s.add_argument("--format", choices=("csv", "json"), default="csv")
    s.set_defaults(func=_cmd_rkhs_spectrum)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, SpecError, DomainError) as exc:
        print(f"msw: config error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"msw: numeric error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"msw: i/o error: {exc}", file=sys.stderr)
        return 4
    except MswError as exc:
        print(f"msw: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
