"""Benchmark of the msw command on four workloads.

    python3 perfbench/run.py --workload vs_truth --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the msw package is imported from its
src/ directory. With --trace 0 the script runs whole rounds of the workload's
msw commands as subprocesses until --seconds have passed, checks every output,
and reports the end-to-end metrics. With --trace 1 it runs one such round, then
the same commands in this process at one worker with the library's public
functions wrapped, and reports per-layer metrics. The last line of standard
output is one JSON object: correct, attempted, failed and metrics.
"""
from __future__ import annotations

import os

# one BLAS thread everywhere: the worker processes are the parallelism, and
# the traced pass must compute what the subprocesses compute
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "runs"
SETUP_REPEATS = 3
OP_TIMEOUT_S = 150
ENV = {**os.environ, "PYTHONPATH": str(SRC)}
WORKLOADS = ("vs_truth", "rkhs_two_sample", "ratio", "cli_compute")
# span names whose calls and self time are reported as they are
COUNTED = (
    "measures.sample", "rkhs.feature_coords", "ot1d.w1d_empirical", "ot1d.w1d_vs_cdf",
    "maxsliced.search", "maxsliced.value_and_grad", "ratio.ratio_sup",
    "ratio.ratio_fixed_direction", "cli.load_sample_file",
)
SELF_ONLY = ("harness.run", "harness.emit", "cli.main")


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def _import_time() -> float:
    """Seconds a fresh interpreter spends in `import msw.cli`."""
    code = "import time; t = time.perf_counter(); import msw.cli; print(time.perf_counter() - t)"
    proc = subprocess.run([sys.executable, "-c", code], env=ENV, capture_output=True, text=True,
                          timeout=OP_TIMEOUT_S, check=True)
    return float(proc.stdout)


def setup(workload: str, seed: int, in_dir: Path):
    """Write the inputs and warm up one import; returns (ops, import seconds)."""
    in_dir.mkdir(parents=True, exist_ok=True)
    ops = workloads.make_ops(workload, seed, in_dir)
    return ops, _import_time()


def run_subprocess(op, in_dir: Path, out_dir: Path) -> dict:
    """Run one msw command; returns its exit code, wall time and CPU time."""
    argv = [sys.executable, "-m", "msw.cli", *op.argv(in_dir, out_dir, op.workers)]
    before = _cpu(resource.getrusage(resource.RUSAGE_CHILDREN))
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=ENV, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        _, err = proc.communicate(timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    wall = time.perf_counter() - start
    cpu = _cpu(resource.getrusage(resource.RUSAGE_CHILDREN)) - before
    return {"returncode": proc.returncode, "wall_s": wall, "cpu_s": cpu,
            "error": err.strip().splitlines()[-1] if err.strip() else ""}


def run_inprocess(op, in_dir: Path, out_dir: Path):
    """Run one msw command through msw.cli.main in this process at one worker."""
    import msw.cli

    with open(os.devnull, "w") as sink, contextlib.redirect_stderr(sink):
        try:
            return {"returncode": msw.cli.main(op.argv(in_dir, out_dir, 1)), "error": ""}
        except SystemExit as exc:
            return {"returncode": exc.code, "error": "SystemExit"}
        except Exception as exc:  # the op failed; the pass goes on and counts it
            return {"returncode": None, "error": f"{type(exc).__name__}: {exc}"}


class Pass:
    """Outcome of whole rounds of one workload's commands."""

    def __init__(self, workload: str):
        self.workload = workload
        self.attempted = self.failed = self.trials = 0
        self.outputs: list[dict] = []   # per round: {op label: parsed output}
        self.records: list[list] = []   # per round: per op {label, returncode, ...}
        self.failures: list[str] = []

    def add_round(self, ops, results, out_dir: Path) -> None:
        outputs, records = {}, []
        for op, res in zip(ops, results):
            self.attempted += 1
            records.append({"label": op.label, **res})
            if not op.succeeded(res["returncode"]):
                self.failed += 1
                continue
            self.trials += op.trials
            if op.kind != "ragged":
                outputs[op.label] = workloads.read_output(op, out_dir)
        self.outputs.append(outputs)
        self.records.append(records)

    def stats(self, k: int) -> dict:
        return {label: out["stats"] for label, out in self.outputs[k].items()}

    def check(self, in_dir: Path) -> None:
        """Check the first round's outputs and that later rounds repeat them."""
        missing = [r["label"] for r in self.records[0] if r["label"] not in self.outputs[0]]
        if any(label != "ragged" for label in missing):
            # a failed command is counted in `failed`; its round is not checked
            print(f"run.py: no output from {missing}; round not checked", file=sys.stderr)
        else:
            self.failures += workloads.check_outputs(self.workload, self.outputs[0], in_dir)
        for k in range(1, len(self.outputs)):
            for label, stats in self.stats(k).items():
                self.failures += checks.check_same_statistics(
                    f"round {k} {label}", self.stats(0).get(label, {}), stats)


def rounds_done(start: float, rounds: int, seconds: float) -> bool:
    """Stop where the pass ends nearest to `seconds`: once another round of
    the mean length would overshoot by more than half a round."""
    elapsed = time.perf_counter() - start
    return elapsed + 0.5 * elapsed / rounds >= seconds


def untraced_pass(workload, ops, in_dir, run_dir, seconds) -> tuple[Pass, dict]:
    """Whole rounds of subprocess commands until `seconds` pass (at least one)."""
    out_dir = run_dir / "untraced"
    out_dir.mkdir(exist_ok=True)
    result = Pass(workload)
    self0, child0 = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    while True:
        results = [run_subprocess(op, in_dir, out_dir) for op in ops]
        result.add_round(ops, results, out_dir)
        if rounds_done(start, len(result.outputs), seconds):
            break
    wall = time.perf_counter() - start
    cpu = (_cpu(resource.getrusage(resource.RUSAGE_SELF)) - _cpu(self0)
           + _cpu(resource.getrusage(resource.RUSAGE_CHILDREN)) - _cpu(child0))
    timing = {
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        # workers x wall - CPU of the command and its workers, per round
        "worker_idle_s": statistics.median(
            sum(op.workers * r["wall_s"] - r["cpu_s"] for op, r in zip(ops, records))
            for records in result.records
        ),
    }
    result.check(in_dir)
    return result, timing


def check_traced_results(tracer: Tracer) -> list[str]:
    """Check every result the wrapped searches and ratio_sup calls returned."""
    failures = []
    for fn, args, kwargs, out in tracer.results:
        bound = inspect.signature(fn).bind(*args, **kwargs).arguments
        if fn.__name__ == "msw_empirical":
            found = checks.check_two_sample_result(bound["xs"], bound["ys"], bound["p"], out.value, out.argmax)
        elif fn.__name__ == "msw_vs_analytic":
            found = checks.check_vs_truth_result(bound["xs"], bound["spec"].mean, out.value)
        else:
            spec = bound["spec"]
            found = checks.check_ratio_result(bound["xs"], spec.mean, spec.cov, out.value, out.arg_theta)
        failures += [f"traced {fn.__name__}: {f}" for f in found]
    return failures


def traced_pass(workload, ops, in_dir, run_dir, seconds) -> tuple[Pass, list[Tracer]]:
    """Whole rounds in this process at one worker, with tracing, until `seconds` pass."""
    sys.path.insert(0, str(SRC))
    import msw.cli  # noqa: F401  (imported before any span starts)

    out_dir = run_dir / "traced"
    out_dir.mkdir(exist_ok=True)
    result, tracers = Pass(workload), []
    start = time.perf_counter()
    while True:
        tracer = Tracer()
        tracer.install()
        try:
            results = [run_inprocess(op, in_dir, out_dir) for op in ops]
        finally:
            tracer.uninstall()
        tracers.append(tracer)
        result.add_round(ops, results, out_dir)
        if rounds_done(start, len(tracers), seconds):
            break
    result.check(in_dir)
    result.failures += check_traced_results(tracers[0])
    return result, tracers


def per_layer_metrics(tracers: list[Tracer], idle_s: float, import_s: float) -> tuple[dict, list[str]]:
    """Per-layer metrics of a traced pass: counts of the first round (every
    round must repeat them) and the median self time over rounds."""
    rounds = []
    for tracer in tracers:
        totals = tracer.totals()
        m = {}
        for name in COUNTED:
            m[f"{name}.calls"] = totals[name]["calls"]
        m["maxsliced.value_and_grad.rows"] = tracer.rows
        searches = [out for fn, _, _, out in tracer.results if fn.__name__ != "ratio_sup"]
        m["maxsliced.iterations"] = sum(r.iterations for r in searches)
        m["maxsliced.restarts"] = sum(r.restarts_used for r in searches)
        for name in COUNTED + SELF_ONLY:
            m[f"{name}.self_s"] = totals[name]["self_s"]
        rounds.append(m)
    failures = []
    metrics = {}
    for key in rounds[0]:
        values = [m[key] for m in rounds]
        if key.endswith(".self_s"):
            metrics[key] = statistics.median(values)
        else:
            metrics[key] = values[0]
            if any(v != values[0] for v in values):
                failures.append(f"{key} differs between traced rounds: {values}")
    metrics["harness.worker_idle_s"] = idle_s
    metrics["cli.import_s"] = import_s
    return metrics, failures


def environment() -> dict:
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "workers": workloads.WORKERS,
        "blas_threads": BLAS_ENV,
    }


def _declared_metrics(trace: int) -> dict[str, dict]:
    """The metrics BENCHMARK.json names for this mode, by name."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "msw" / "cli.py").is_file():
        print(f"run.py: no msw source under {SRC}; run from the root of a source checkout",
              file=sys.stderr)
        return 2
    declared = _declared_metrics(args.trace)
    run_dir = RUNS / args.workload
    shutil.rmtree(run_dir, ignore_errors=True)
    in_dir = run_dir / "inputs"

    setup_s, import_s = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        ops, imported = setup(args.workload, args.seed, in_dir)
        setup_s.append(time.perf_counter() - start)
        import_s.append(imported)

    if args.trace == 0:
        untraced, timing = untraced_pass(args.workload, ops, in_dir, run_dir, args.seconds)
        passes = [untraced]
        values = workloads.certified_values(args.workload, untraced.outputs[0])
        metrics = {
            "setup_s": statistics.median(setup_s),
            "trials_per_s": untraced.trials / timing["wall_s"],
            "cpu_s_per_trial": timing["cpu_s"] / max(untraced.trials, 1),
            "peak_rss_mb": timing["peak_rss_mb"],
            "certified_value_mean": float(np.mean(values)) if values else 0.0,
        }
    else:
        untraced, timing = untraced_pass(args.workload, ops, in_dir, run_dir, 0.0)
        traced, tracers = traced_pass(args.workload, ops, in_dir, run_dir, args.seconds)
        passes = [untraced, traced]
        metrics, failures = per_layer_metrics(tracers, timing["worker_idle_s"], statistics.median(import_s))
        traced.failures += failures
        for k in range(len(traced.outputs)):
            for label, stats in traced.stats(k).items():
                traced.failures += checks.check_same_statistics(
                    f"traced round {k} {label} vs untraced", untraced.stats(0).get(label, {}), stats)
        with open(run_dir / "spans.csv", "w", encoding="utf-8") as fh:
            fh.write("round,index,parent,name,start_ns,end_ns,self_ns\n")
            for k, tracer in enumerate(tracers):
                for line in tracer.span_rows():
                    fh.write(f"{k},{line}\n")

    failures = [f for p in passes for f in p.failures]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    correct = not failures and attempted > failed
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": environment(), "setup_s": setup_s, "import_s": import_s,
        "rounds": [p.records for p in passes], "failures": failures, "metrics": metrics,
    }
    (run_dir / f"result_trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps({"environment": environment()}))
    if set(metrics) != set(declared):
        print(f"run.py: metrics out of step with BENCHMARK.json: {sorted(set(metrics) ^ set(declared))}",
              file=sys.stderr)
        return 2
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": declared[name]["unit"]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
