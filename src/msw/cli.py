"""Command-line interface: one-shot distances, rate/ratio experiments, spectra.

Exit codes: 0 success, 2 configuration error, 3 numeric error, 4 I/O error.
"""
from __future__ import annotations

import argparse
import json
import numbers
import sys
from pathlib import Path

# the rest of the package (and numpy) is imported by the command that runs it
from .errors import ConfigError, DomainError, MswError, NumericError, SpecError

DEFAULT_EPS_GRID = tuple(round(0.05 * k, 2) for k in range(1, 25))

# every config key and the kind of its values, a plural kind taking a comma
# list; README.md documents the same set
CONFIG_KINDS = {
    "experiment": "text", "distribution": "text", "covariance": "text", "overlay_kind": "text",
    "d": "integer", "d_test": "integer", "mc_runs": "integer", "master_seed": "integer",
    "restarts": "integer", "max_iters": "integer", "n_grid": "integers", "d_test_list": "integers",
    "p": "number", "shape": "number", "sigma2": "number", "w": "number", "eta2": "number",
    "overlay_s": "number", "overlay_gamma": "number", "overlay_c": "number", "overlay_C": "number",
    "mean": "numbers", "eps_grid": "numbers",
}
# keys that only some experiments, or only some distributions, read; a config
# whose experiment and distribution are both missing from a key's readers is
# rejected (no key is limited by both)
_RATE = ("rate_vs_truth", "rate_two_sample", "rkhs_rate")
_READ_BY = {"p": _RATE, "d_test_list": ("rkhs_rate",), "eps_grid": ("ratio_exceedance",),
            **{key: _RATE for key in CONFIG_KINDS if key.startswith("overlay_")},
            "mean": ("gaussian",), "covariance": ("gaussian",), "shape": ("pareto_product",),
            "d": ("gaussian", "pareto_product"),
            **{key: ("rkhs_pushforward",) for key in ("sigma2", "w", "eta2", "d_test")}}
# kind -> (its name in errors, the types it accepts, the cast applied)
_KINDS = {
    "text": ("text", str, str),
    "integer": ("an integer", numbers.Integral, int),
    "number": ("a number", numbers.Real, float),
}


def _parse_scalar(token: str):
    token = token.strip()
    for cast in (int, float):
        try:
            return cast(token)
        except ValueError:
            pass
    return token


def _typed(key: str, value, kind: str):
    """value cast to its kind, a list element by element; anything else, a
    boolean included, is a ConfigError."""
    if isinstance(value, list) and kind.endswith("s"):
        return [_typed(key, v, kind[:-1]) for v in value]
    name, types, cast = _KINDS[kind.removesuffix("s")]
    if isinstance(value, bool) or not isinstance(value, types):
        raise ConfigError(f"{key} must be {name}, got {value!r}")
    return cast(value)


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
        if not parsed:
            raise ConfigError(f"{path}:{lineno}: {key.strip()!r} has no value")
        mapping[key.strip()] = parsed if len(parsed) > 1 else parsed[0]
    return mapping


def _as_list(value) -> list:
    return value if isinstance(value, (list, tuple)) else [value]


def _build_covariance(value, d: int) -> np.ndarray:
    import numpy as np

    if value is None or value == "identity":
        return np.eye(d)
    form, _, args = value.partition("(")
    if form in ("equicorrelated", "diag") and args.endswith(")"):
        entries = [_typed(f"{form} entry", _parse_scalar(t), "number")
                   for t in args[:-1].split(",")]
        if form == "diag" and len(entries) == d:
            return np.diag(entries)
        if form == "equicorrelated" and len(entries) == 1:
            return (1.0 - entries[0]) * np.eye(d) + entries[0] * np.ones((d, d))
        raise ConfigError(f"{value!r} has {len(entries)} entries for dimension {d}")
    raise ConfigError(
        f"unsupported covariance {value!r}; use identity, equicorrelated(rho) or diag(...)"
    )


def _require(m: dict, dist: str, *keys: str) -> None:
    for key in keys:
        if key not in m:
            raise ConfigError(f"{dist} requires key {key!r}")


def _build_spec(m: dict):
    import numpy as np

    from .measures import Gaussian, ParetoProduct, RkhsPushforward
    from .rkhs import KernelSpec

    dist = m.get("distribution", "gaussian")
    if m.get("d", 1) < 1:
        raise ConfigError(f"d must be >= 1, got {m['d']}")
    if dist == "gaussian":
        mean = m.get("mean", 0.0)
        if isinstance(mean, list) and m.get("d", len(mean)) != len(mean):
            raise ConfigError(f"d = {m['d']} disagrees with the {len(mean)} entries of mean")
        mean = np.asarray(mean) if isinstance(mean, list) else np.full(m.get("d", 2), mean)
        return Gaussian(mean, _build_covariance(m.get("covariance"), mean.size))
    if dist == "pareto_product":
        _require(m, dist, "shape")
        return ParetoProduct(m["shape"], m.get("d", 2))
    if dist == "rkhs_pushforward":
        _require(m, dist, "sigma2", "w", "eta2")
        if "d_test" not in m and "d_test_list" not in m:
            raise ConfigError("rkhs_pushforward requires 'd_test' or 'd_test_list'")
        d_test = m["d_test"] if "d_test" in m else _as_list(m["d_test_list"])[0]
        return RkhsPushforward(KernelSpec(m["sigma2"], m["w"]), m["eta2"], d_test)
    raise ConfigError(f"unknown distribution {dist!r}")


def _build_overlay(m: dict, p: float, spec) -> Overlay | None:
    from .bounds import BoundParams
    from .harness import Overlay

    if "overlay_kind" not in m:
        return None
    params = BoundParams(
        p=p,
        s=m.get("overlay_s", 2 * p + 1),
        d=getattr(spec, "dim", None),
        gamma=m.get("overlay_gamma"),
        c_user=m.get("overlay_c", 1.0),
        C_user=m.get("overlay_C", 1.0),
    )
    return Overlay(kind=m["overlay_kind"], params=params)


def config_from_mapping(mapping: dict) -> tuple[ExperimentConfig, tuple[float, ...]]:
    """Build an ExperimentConfig (plus the eps grid for ratio experiments).

    Every key is looked up in CONFIG_KINDS and every value typed before
    anything is built, and a key that the experiment never reads is rejected,
    so a malformed config fails before the first trial.
    """
    from .harness import DEFAULT_N_GRID, ExperimentConfig
    from .maxsliced import OptimizerOpts

    unknown = sorted(mapping.keys() - CONFIG_KINDS.keys())
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    m = {key: _typed(key, value, CONFIG_KINDS[key]) for key, value in mapping.items()}
    if "experiment" not in m:
        raise ConfigError("config must set 'experiment'")
    spec = _build_spec(m)
    p = m.get("p", 2.0)
    optimizer = {k: m[k] for k in ("restarts", "max_iters") if k in m}
    config = ExperimentConfig(
        experiment=m["experiment"],
        spec=spec,
        p=p,
        n_grid=tuple(_as_list(m.get("n_grid", DEFAULT_N_GRID))),
        mc_runs=m.get("mc_runs", 100),
        master_seed=m.get("master_seed", 0),
        optimizer=OptimizerOpts(**optimizer),
        d_test_list=tuple(_as_list(m["d_test_list"])) if "d_test_list" in m else None,
        overlay=_build_overlay(m, p, spec),
    )
    exp, dist = config.experiment, m.get("distribution", "gaussian")
    unread = sorted(k for k in m if not {exp, dist} & set(_READ_BY.get(k, (exp,))))
    if unread:
        raise ConfigError(
            f"experiment {exp!r} with distribution {dist!r} does not read {', '.join(unread)}"
        )
    return config, tuple(_as_list(m.get("eps_grid", DEFAULT_EPS_GRID)))


def load_sample_file(path) -> np.ndarray:
    """CSV sample matrix, one point per row; blank lines and a leading
    x1,...,xd header are skipped, and an error names the row's line in the file.
    Every row is checked before numpy is imported."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise OSError(f"cannot read sample file {path}: {exc}") from exc
    lines = [(lineno, ln) for lineno, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not lines:
        raise DomainError(f"sample file {path} is empty")
    try:
        [float(tok) for tok in lines[0][1].split(",")]
    except ValueError:
        lines = lines[1:]
    rows = []
    for lineno, line in lines:
        try:
            row = [float(tok) for tok in line.split(",")]
        except ValueError as exc:
            raise DomainError(f"{path}:{lineno}: {exc}") from exc
        if rows and len(row) != len(rows[0]):
            raise DomainError(f"{path}:{lineno}: expected {len(rows[0])} values, got {len(row)}")
        rows.append(row)
    import numpy as np

    return np.asarray(rows, dtype=np.float64)


def _cmd_compute(args) -> int:
    xs = load_sample_file(args.x)
    ys = load_sample_file(args.y)
    from .maxsliced import OptimizerOpts, msw_empirical
    from .measures import RngStream

    opts = OptimizerOpts() if args.restarts is None else OptimizerOpts(restarts=args.restarts)
    result = msw_empirical(xs, ys, args.p, opts, RngStream(args.seed))
    payload = {
        "value": result.value,
        "argmax": result.argmax.tolist(),
        "p": args.p,
        "restarts_used": result.restarts_used,
        "iterations": result.iterations,
        "converged": result.converged,
    }
    text = json.dumps(payload, indent=1) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def _load_config(args, **defaults):
    """The config file's ExperimentConfig and eps grid; --seed overrides master_seed."""
    mapping = {**defaults, **parse_config_file(args.config)}
    if args.seed is not None:
        mapping["master_seed"] = args.seed
    return config_from_mapping(mapping)


def _cmd_rate(args) -> int:
    from .harness import emit, run_rate_experiment

    config, _ = _load_config(args)
    result = run_rate_experiment(config, threads=args.threads)
    out = Path(args.out)
    if isinstance(result, dict):
        for d_test, curve in result.items():
            emit(curve, args.format, out.with_stem(f"{out.stem}_dtest{d_test}"))
    else:
        emit(result, args.format, out)
    return 0


def _cmd_ratio(args) -> int:
    from .harness import emit, run_ratio_experiment

    config, eps_grid = _load_config(args, experiment="ratio_exceedance")
    emit(run_ratio_experiment(config, eps_grid, threads=args.threads), args.format, args.out)
    return 0


def _cmd_rkhs_spectrum(args) -> int:
    from .rkhs import KernelSpec, check_assumptions, check_spectrum, eigenvalues

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
        summary["max_eigen_residual"] = float(report.eigen_residuals.max())
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
