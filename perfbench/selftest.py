"""The benchmark's checks reject broken outputs.

    python3 perfbench/selftest.py          # or: python3 -m pytest perfbench/selftest.py

Each test builds an output that passes its check, from the msw library or
from the closed forms the check rests on, then breaks it the way a faulty
program would and asserts that the check now fails.
"""
from __future__ import annotations

import math
import struct
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import msw  # noqa: E402

FAST = msw.OptimizerOpts(restarts=3, max_iters=30)
GRID = (50, 100, 200, 400, 800, 1600)


def _two_sample(n: int, m: int):
    rng = np.random.default_rng(3)
    x = np.round(rng.standard_normal((n, 2)), 1)
    y = np.round(rng.standard_normal((m, 2)) * [1.5, 1.0] + [1.0, 0.0], 1)
    return x, y, msw.msw_empirical(x, y, 2.0, FAST, msw.RngStream(5))


def _vs_truth_curves(scale: float = 1.0, power: float = 1.0) -> dict:
    """Curves at 1.5x the mean floor, decaying like n^-1/2, 3% stderr."""
    curves = {}
    for d in (2, 8):
        n = np.array(GRID)
        mean = (1.5 * checks.expected_gaussian_norm(d) / np.sqrt(n)) ** power * scale
        curves[d] = {"n": n, "mean": mean, "stderr": 0.03 * mean}
    return curves


def _ratio_table(n: int = 200, d: int = 2) -> dict:
    eps = np.round(0.05 * np.arange(1, 25), 2)
    raw, bound = zip(*(checks.ratio_tail_bound(n, d, float(e)) for e in eps))
    freq = np.clip(1.0 - eps / 0.3, 0.0, 1.0)
    return {"n": np.full(eps.size, n), "epsilon": eps, "frequency": freq,
            "bound": np.array(bound), "bound_raw": np.array(raw), "runs": np.full(eps.size, 30)}


def _flip_last_bit(x: float) -> float:
    (bits,) = struct.unpack("<q", struct.pack("<d", x))
    return struct.unpack("<d", struct.pack("<q", bits ^ 1))[0]


def test_value_halved_is_rejected():
    for n, m in ((80, 80), (80, 60)):
        x, y, res = _two_sample(n, m)
        assert checks.check_two_sample_result(x, y, 2.0, res.value, res.argmax) == []
        assert checks.check_two_sample_result(x, y, 2.0, res.value / 2, res.argmax)
    x, y, res = _two_sample(80, 80)
    assert checks.check_against_angle_grid(x, y, 2.0, res.value) == []
    assert checks.check_against_angle_grid(x, y, 2.0, 2.0 * res.value)  # a value no direction reaches

    # samples of N(e_1, I) against the law N(0, I): the floor |x̄ - m| is near 1
    spec = msw.Gaussian(np.zeros(2), np.eye(2))
    xs = msw.sample(msw.Gaussian(np.array([1.0, 0.0]), np.eye(2)), 100, msw.RngStream(9))
    res = msw.msw_vs_analytic(xs, spec, 2.0, FAST, msw.RngStream(10))
    assert checks.check_vs_truth_result(xs, spec.mean, res.value) == []
    assert checks.check_vs_truth_result(xs, spec.mean, res.value / 2)

    xs = msw.sample(spec, 100, msw.RngStream(9))
    ratio = msw.ratio_sup(xs, spec, FAST, msw.RngStream(11))
    assert checks.check_ratio_result(xs, spec.mean, spec.cov, ratio.value, ratio.arg_theta) == []
    assert checks.check_ratio_result(xs, spec.mean, spec.cov, ratio.value / 2, ratio.arg_theta)

    assert checks.check_vs_truth_curves(_vs_truth_curves()) == []
    assert checks.check_vs_truth_curves(_vs_truth_curves(scale=0.5))


def test_squared_values_leave_the_slope_band():
    squared = _vs_truth_curves(power=2.0)
    assert any("slope" in f for f in checks.check_vs_truth_curves(squared))
    assert any("slope" in f for f in checks.check_rkhs_curves({10: squared[2], 20: squared[2]}))
    assert checks.check_rkhs_curves({10: _vs_truth_curves()[2], 20: _vs_truth_curves()[2]}) == []


def test_perturbed_argmax_is_rejected():
    x, y, res = _two_sample(80, 60)
    angle = 0.05
    rot = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
    assert checks.check_two_sample_result(x, y, 2.0, res.value, rot @ res.argmax)
    assert checks.check_two_sample_result(x, y, 2.0, res.value, 1.01 * res.argmax)

    spec = msw.Gaussian(np.zeros(2), np.eye(2))
    xs = msw.sample(spec, 100, msw.RngStream(9))
    ratio = msw.ratio_sup(xs, spec, FAST, msw.RngStream(11))
    assert checks.check_ratio_result(xs, spec.mean, spec.cov, ratio.value, rot @ ratio.arg_theta)


def test_frequency_above_bound_is_rejected():
    table = _ratio_table()
    assert checks.check_ratio_table(table, d=2) == []
    active = int(np.argmax(table["bound"] < 0.5))
    table["frequency"][: active + 1] = 1.0  # exceeded in every run where the bound says < 0.5
    assert any("above bound" in f for f in checks.check_ratio_table(table, d=2))

    table = _ratio_table()
    table["bound"][3] *= 1.01
    assert any("recomputed" in f for f in checks.check_ratio_table(table, d=2))


def test_flipped_bit_is_rejected():
    mean = 0.12345678901234567
    first = {"curve.csv:3:mean": repr(mean), "curve.csv:content_hash": "ab"}
    assert checks.check_same_statistics("pass", first, dict(first)) == []
    second = {**first, "curve.csv:3:mean": repr(_flip_last_bit(mean))}
    assert checks.check_same_statistics("pass", first, second)


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    failed = 0
    for name, fn in tests:
        try:
            fn()
            print(f"PASS {name}")
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {name}: {exc!r}")
    sys.exit(1 if failed else 0)
