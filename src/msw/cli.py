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

# every config key and the kind of its values, a plural kind taking a comma
# list; README.md documents the same set
CONFIG_KINDS = {
    "experiment": "text", "distribution": "text", "covariance": "text", "overlay_kind": "text",
    "d": "integer", "d_test": "integer", "mc_runs": "integer", "master_seed": "integer",
    "restarts": "integer", "max_iters": "integer", "n_grid": "integers", "d_test_list": "integers",
    "p": "number", "shape": "number", "sigma2": "number", "w": "number", "eta2": "number",
    "overlay_s": "number", "overlay_gamma": "number", "overlay_C": "number",
    "mean": "numbers", "eps_grid": "numbers",
}
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


def _read_text(path, what: str) -> str:
    """The text of a UTF-8 file, without a leading byte-order mark; an
    unreadable file is an OSError (exit 4) and one that is not UTF-8 a
    DomainError (exit 2), each naming the file."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise OSError(f"cannot read {what} {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DomainError(f"{what} {path} is not UTF-8: {exc}") from exc


def parse_config_file(path) -> dict:
    """Read a `key = value` config file; '#' starts a comment.

    Comma-separated values become lists, except that a value containing '('
    (a covariance form such as diag(4, 1)) stays one token; integer and float
    tokens are converted, everything else stays a string.
    """
    mapping: dict = {}
    for lineno, raw in enumerate(_read_text(path, "config file").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        parts = [value] if "(" in value else value.split(",")
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
    """The distribution spec; the keys it reads are removed from m, except
    d_test_list, whose largest level is the spec's d_test."""
    import numpy as np

    from .measures import Gaussian, ParetoProduct, RkhsPushforward
    from .rkhs import KernelSpec

    dist = m.pop("distribution", "gaussian")
    if m.get("d", 1) < 1:
        raise ConfigError(f"d must be >= 1, got {m['d']}")
    if dist == "gaussian":
        mean = m.pop("mean", 0.0)
        d = m.pop("d", len(mean) if isinstance(mean, list) else 2)
        if isinstance(mean, list) and d != len(mean):
            raise ConfigError(f"d = {d} disagrees with the {len(mean)} entries of mean")
        mean = np.asarray(mean) if isinstance(mean, list) else np.full(d, mean)
        return Gaussian(mean, _build_covariance(m.pop("covariance", None), mean.size))
    if dist == "pareto_product":
        _require(m, dist, "shape")
        return ParetoProduct(m.pop("shape"), m.pop("d", 2))
    if dist == "rkhs_pushforward":
        _require(m, dist, "sigma2", "w", "eta2")
        if ("d_test" in m) == ("d_test_list" in m):
            raise ConfigError("rkhs_pushforward takes exactly one of 'd_test' and 'd_test_list'")
        d_test = m.pop("d_test") if "d_test" in m else max(_as_list(m["d_test_list"]))
        return RkhsPushforward(KernelSpec(m.pop("sigma2"), m.pop("w")), m.pop("eta2"), d_test)
    raise ConfigError(f"unknown distribution {dist!r}")


def _build_overlay(m: dict) -> Overlay | None:
    """The overlay, if m sets overlay_kind; the keys it reads are removed from m."""
    from .harness import Overlay

    if "overlay_kind" not in m:
        return None
    names = {"overlay_s": "s", "overlay_gamma": "gamma", "overlay_C": "C_user"}
    return Overlay(m.pop("overlay_kind"), **{names[k]: m.pop(k) for k in names if k in m})


def config_from_mapping(mapping: dict) -> ExperimentConfig:
    """Build an ExperimentConfig from a config file's mapping.

    Every key is looked up in CONFIG_KINDS and every value typed before
    anything is built, so a malformed config fails before the first trial.
    Each builder removes the keys it reads, and a key that none of them reads
    is rejected. Only the keys the mapping sets are passed on:
    ExperimentConfig and OptimizerOpts hold the defaults.
    """
    from .harness import ExperimentConfig
    from .maxsliced import OptimizerOpts

    unknown = sorted(mapping.keys() - CONFIG_KINDS.keys())
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    m = {key: _typed(key, value, CONFIG_KINDS[key]) for key, value in mapping.items()}
    if "experiment" not in m:
        raise ConfigError("config must set 'experiment'")
    exp, dist = m.pop("experiment"), m.get("distribution", "gaussian")
    spec = _build_spec(m)
    fields = {k: m.pop(k) for k in ("p", "mc_runs", "master_seed") if k in m}
    fields.update({k: tuple(_as_list(m.pop(k))) for k in ("n_grid", "d_test_list", "eps_grid") if k in m})
    optimizer = OptimizerOpts(**{k: m.pop(k) for k in ("restarts", "max_iters") if k in m})
    config = ExperimentConfig(exp, spec, optimizer=optimizer, overlay=_build_overlay(m), **fields)
    if m:
        raise ConfigError(
            f"experiment {exp!r} with distribution {dist!r} does not read {', '.join(sorted(m))}"
        )
    return config


def load_sample_file(path) -> np.ndarray:
    """CSV sample matrix, one point per row; blank lines and a leading
    x1,...,xd header are skipped, and an error names the row's line in the file.
    Every row is checked before numpy is imported."""
    text = _read_text(path, "sample file")
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
    """The config file's ExperimentConfig; --seed overrides master_seed."""
    mapping = {**defaults, **parse_config_file(args.config)}
    if args.seed is not None:
        mapping["master_seed"] = args.seed
    return config_from_mapping(mapping)


def _cmd_rate(args) -> int:
    from .harness import emit, run_rate_experiment

    result = run_rate_experiment(_load_config(args), threads=args.threads)
    out = Path(args.out)
    if isinstance(result, dict):
        for d_test, curve in result.items():
            emit(curve, args.format, out.with_stem(f"{out.stem}_dtest{d_test}"))
    else:
        emit(result, args.format, out)
    return 0


def _cmd_ratio(args) -> int:
    from .harness import emit, run_ratio_experiment

    config = _load_config(args, experiment="ratio_exceedance")
    emit(run_ratio_experiment(config, threads=args.threads), args.format, args.out)
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

    for name, func, help_text in (
        ("rate", _cmd_rate, "Monte Carlo rate experiment from a config file"),
        ("ratio", _cmd_ratio, "ratio-statistic exceedance experiment"),
    ):
        e = sub.add_parser(name, help=help_text)
        e.add_argument("--config", required=True)
        e.add_argument("--seed", type=int, default=None, help="override master_seed")
        e.add_argument("--out", required=True)
        e.add_argument("--format", choices=("csv", "json"), default="csv")
        e.add_argument("--threads", type=int, default=1, help="worker count; 0 = auto")
        e.set_defaults(func=func)

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
