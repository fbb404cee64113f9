"""The benchmark's workloads: the inputs each one writes from a seed, the msw
commands of one round, how their outputs are read back, and the checks.

Every size, trial count and optimizer setting is fixed here; only the seed
varies between runs.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks

DEFAULT_N_GRID = (50, 100, 200, 400, 800, 1600)
# worker processes of each rate and ratio command: nproc, at most 2
WORKERS = min(2, os.cpu_count() or 1)

VS_TRUTH_DIMS = (2, 8, 30)
VS_TRUTH_RUNS = 4
RKHS_D_TEST = (10, 20, 30)
RKHS_RUNS = 8
RATIO_N_GRID = (50, 200)
RATIO_RUNS = 30
# (d, points in x, points in y) of each msw compute call
COMPUTE_PAIRS = ((2, 800, 800), (8, 1600, 1200))
# a CSV whose second row is short; the README promises exit 2 for it
RAGGED_CSV = "x1,x2\n0.1,0.2\n0.3\n0.4,0.5\n"


@dataclass(frozen=True)
class Op:
    """One msw command of a round."""

    label: str
    kind: str  # "rate", "ratio", "compute" or "ragged"
    args: tuple[str, ...]
    trials: int

    def argv(self, in_dir: Path, out_dir: Path, workers: int) -> list[str]:
        args = [a.format(inp=in_dir) for a in self.args]
        argv = [*args, "--out", str(out_dir / self.out_name)]
        if self.kind in ("rate", "ratio"):
            argv += ["--threads", str(workers)]
        return argv

    @property
    def workers(self) -> int:
        return WORKERS if self.kind in ("rate", "ratio") else 1

    @property
    def out_name(self) -> str:
        return f"{self.label}.json" if self.kind in ("compute", "ragged") else f"{self.label}.csv"

    def succeeded(self, returncode: int) -> bool:
        return returncode == (2 if self.kind == "ragged" else 0)


def _write_config(path: Path, entries: dict) -> None:
    lines = [f"{key} = {value}" for key, value in entries.items()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _csv_list(values) -> str:
    return ", ".join(str(v) for v in values)


def _write_samples(path: Path, data: np.ndarray) -> None:
    header = ",".join(f"x{k + 1}" for k in range(data.shape[1]))
    np.savetxt(path, np.round(data, 1), fmt="%.1f", delimiter=",", header=header, comments="")


def _shifted_gaussian(rng: np.random.Generator, m: int, d: int) -> np.ndarray:
    """N(e_1, diag(2.25, 1, ..., 1)), whose max-sliced W_2 from N(0, I_d) is
    sqrt(1 + 0.5^2) = 1.118. A wider gap lets the stop rule end the search
    within tens of iterations, so the default optimizer would hardly run."""
    y = rng.standard_normal((m, d))
    y[:, 0] = 1.0 + 1.5 * y[:, 0]
    return y


def make_ops(workload: str, seed: int, in_dir: Path) -> list[Op]:
    """Write the workload's inputs for this seed and return its round of commands."""
    optimizer = {"restarts": 6, "max_iters": 200}
    if workload == "vs_truth":
        ops = []
        for d in VS_TRUTH_DIMS:
            _write_config(in_dir / f"vs_truth_d{d}.cfg", {
                "experiment": "rate_vs_truth", "distribution": "gaussian", "d": d, "p": 2,
                "n_grid": _csv_list(DEFAULT_N_GRID), "mc_runs": VS_TRUTH_RUNS,
                "master_seed": seed, **optimizer,
            })
            ops.append(Op(f"vs_truth_d{d}", "rate", ("rate", "--config", f"{{inp}}/vs_truth_d{d}.cfg"),
                          VS_TRUTH_RUNS * len(DEFAULT_N_GRID)))
        return ops
    if workload == "rkhs_two_sample":
        _write_config(in_dir / "rkhs.cfg", {
            "experiment": "rkhs_rate", "distribution": "rkhs_pushforward", "sigma2": 4, "w": 1,
            "eta2": 1, "d_test_list": _csv_list(RKHS_D_TEST), "p": 2,
            "n_grid": _csv_list(DEFAULT_N_GRID), "mc_runs": RKHS_RUNS, "master_seed": seed,
            **optimizer,
        })
        return [Op("rkhs", "rate", ("rate", "--config", "{inp}/rkhs.cfg"), RKHS_RUNS * len(DEFAULT_N_GRID))]
    if workload == "ratio":
        _write_config(in_dir / "ratio.cfg", {
            "experiment": "ratio_exceedance", "distribution": "gaussian", "d": 2,
            "n_grid": _csv_list(RATIO_N_GRID), "mc_runs": RATIO_RUNS, "master_seed": seed,
            "restarts": 6, "max_iters": 60,
        })
        return [Op("ratio", "ratio", ("ratio", "--config", "{inp}/ratio.cfg"), RATIO_RUNS * len(RATIO_N_GRID))]
    if workload == "cli_compute":
        rng = np.random.default_rng([seed, 2])
        ops = []
        for d, n, m in COMPUTE_PAIRS:
            _write_samples(in_dir / f"compute_d{d}_x.csv", rng.standard_normal((n, d)))
            _write_samples(in_dir / f"compute_d{d}_y.csv", _shifted_gaussian(rng, m, d))
            ops.append(Op(f"compute_d{d}", "compute", (
                "compute", f"{{inp}}/compute_d{d}_x.csv", f"{{inp}}/compute_d{d}_y.csv",
                "--p", "2", "--seed", str(seed)), 1))
        (in_dir / "ragged.csv").write_text(RAGGED_CSV, encoding="utf-8")
        ops.append(Op("ragged", "ragged", ("compute", "{inp}/ragged.csv", "{inp}/ragged.csv"), 0))
        return ops
    raise ValueError(f"unknown workload {workload!r}")


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text(encoding="utf-8").strip().split("\n")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _table(header: list[str], rows: list[list[str]]) -> dict:
    return {key: np.array([float(row[i]) for row in rows]) for i, key in enumerate(header)}


def read_output(op: Op, out_dir: Path) -> dict:
    """Parse an op's output files.

    Returns {"tables": {key: columns}, "stats": {field: exact text}}; the
    stats are every statistic the output holds (wallclock excluded) as text,
    so comparing them compares the numbers bit for bit.
    """
    path = out_dir / op.out_name
    if op.kind == "compute":
        payload = json.loads(path.read_text(encoding="utf-8"))
        stats = {key: repr(value) for key, value in payload.items()}
        return {"tables": {"result": payload}, "stats": stats}
    if op.label == "rkhs":
        files = {dt: path.with_stem(f"{path.stem}_dtest{dt}") for dt in RKHS_D_TEST}
    else:
        files = {op.label: path}
    tables, stats = {}, {}
    for key, file in files.items():
        header, rows = _read_csv(file)
        tables[key] = _table(header, rows)
        for r, row in enumerate(rows):
            for col, token in zip(header, row):
                if col != "wall_s":
                    stats[f"{file.name}:{r}:{col}"] = token
        meta = json.loads(file.with_suffix(".meta.json").read_text(encoding="utf-8"))
        stats[f"{file.name}:content_hash"] = meta["content_hash"]
    return {"tables": tables, "stats": stats}


def load_samples(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def check_outputs(workload: str, outputs: dict[str, dict], in_dir: Path) -> list[str]:
    """Check one round's parsed outputs, keyed by op label."""
    if workload == "vs_truth":
        curves = {d: outputs[f"vs_truth_d{d}"]["tables"][f"vs_truth_d{d}"] for d in VS_TRUTH_DIMS}
        return checks.check_vs_truth_curves(curves)
    if workload == "rkhs_two_sample":
        return checks.check_rkhs_curves(outputs["rkhs"]["tables"])
    if workload == "ratio":
        return checks.check_ratio_table(outputs["ratio"]["tables"]["ratio"], d=2)
    failures = []
    for d, _, _ in COMPUTE_PAIRS:
        result = outputs[f"compute_d{d}"]["tables"]["result"]
        x = load_samples(in_dir / f"compute_d{d}_x.csv")
        y = load_samples(in_dir / f"compute_d{d}_y.csv")
        found = checks.check_two_sample_result(x, y, result["p"], result["value"], result["argmax"])
        if d == 2:
            found += checks.check_against_angle_grid(x, y, result["p"], result["value"])
        failures += [f"compute d={d}: {f}" for f in found]
    return failures


def certified_values(workload: str, outputs: dict[str, dict]) -> list[float]:
    """The certified values a round reports, as certified_value_mean averages them."""
    values = []
    for out in outputs.values():
        tables = out["tables"]
        if workload == "ratio":
            values.append(checks.exceedance_area(tables["ratio"]))
        elif workload == "cli_compute":
            values.append(float(tables["result"]["value"]))
        else:
            for table in tables.values():
                values.extend(table["mean"].tolist())
    return values
