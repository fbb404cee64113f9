"""Tracing overhead: rounds of each workload in this process at one worker.

    python3 perfbench/overhead.py [--seed 1] [workload ...]

After one untraced warm-up round (the first round in a process is slower), it
times an untraced, a traced and another untraced round, and prints the traced
round's wall time over the mean of the untraced ones. It also prints the cost
of one wrapped call; times the number of spans, that is the overhead the
wrappers add, free of the machine's run-to-run noise.
"""
from __future__ import annotations

import argparse
import shutil
import sys
import time

import run
from tracing import Tracer


def timed_round(ops, in_dir, out_dir, tracer: Tracer | None) -> float:
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    try:
        for op in ops:
            run.run_inprocess(op, in_dir, out_dir)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return time.perf_counter() - start


def wrapper_cost(calls: int = 200_000) -> float:
    """Seconds a wrapped call adds to a call of a no-op function."""
    def noop():
        return None

    wrapped = Tracer()._wrap("noop", noop)
    start = time.perf_counter()
    for _ in range(calls):
        noop()
    plain = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(calls):
        wrapped()
    return (time.perf_counter() - start - plain) / calls


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("workloads", nargs="*", default=list(run.WORKLOADS))
    args = parser.parse_args()
    sys.path.insert(0, str(run.SRC))
    cost = wrapper_cost()
    print(f"one wrapped call: {cost * 1e6:.2f} us", flush=True)
    for workload in args.workloads:
        run_dir = run.RUNS / f"overhead_{workload}"
        shutil.rmtree(run_dir, ignore_errors=True)
        in_dir, out_dir = run_dir / "inputs", run_dir / "out"
        out_dir.mkdir(parents=True)
        ops, _ = run.setup(workload, args.seed, in_dir)
        timed_round(ops, in_dir, out_dir, None)
        plain = timed_round(ops, in_dir, out_dir, None)
        tracer = Tracer()
        traced = timed_round(ops, in_dir, out_dir, tracer)
        again = timed_round(ops, in_dir, out_dir, None)
        untraced = 0.5 * (plain + again)
        spans = len(tracer.spans)
        print(f"{workload}: untraced {plain:.2f} s / {again:.2f} s, traced {traced:.2f} s, "
              f"measured {100 * (traced / untraced - 1):+.1f}%; {spans} spans x wrapped call "
              f"= {spans * cost:.3f} s ({100 * spans * cost / untraced:.2f}%)", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
