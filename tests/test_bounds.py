import math

import numpy as np
import pytest

from msw import (
    BoundParams,
    DomainError,
    expectation_bound_exp_decay,
    expectation_bound_finite,
    expectation_bound_poly_decay,
    ratio_tail_bound,
)


def test_finite_expectation_bound_values():
    params = BoundParams(p=2.0, s=5.0, d=4)
    want = math.log(201.0) ** 0.9 * math.sqrt(4.0 / 100.0)
    assert expectation_bound_finite(params, 100) == pytest.approx(want, rel=1e-12)
    assert expectation_bound_finite(params, 100) == pytest.approx(0.89766, abs=2e-4)
    one = BoundParams(p=2.0, s=5.0, d=1)
    assert expectation_bound_finite(one, 1) == pytest.approx(math.log(3.0) ** 0.9, rel=1e-12)
    assert expectation_bound_finite(one, 1) == pytest.approx(1.0883, abs=2e-4)


def test_finite_bound_dimension_scaling_identity():
    params = BoundParams(p=2.0, s=5.0, d=3)
    params4 = BoundParams(p=2.0, s=5.0, d=12)
    n = 250
    ratio = expectation_bound_finite(params4, 4 * n) / expectation_bound_finite(params, n)
    want = (math.log(8 * n + 1.0) / math.log(2 * n + 1.0)) ** 0.9
    assert ratio == pytest.approx(want, rel=1e-12)


def test_exp_decay_expectation_bound_values():
    params = BoundParams(p=2.0, s=6.0, gamma=1.0)
    want = math.log(2001.0) ** (1.0 / 3.0 + 0.5 + 1.0) / math.sqrt(1000.0)
    got = expectation_bound_exp_decay(params, 1000)
    assert got == pytest.approx(want, rel=1e-12)
    # independent re-derivation of the arithmetic
    assert got == pytest.approx(7.601402 ** (11.0 / 6.0) / 31.6228, abs=2e-4)


def test_exp_decay_quadrupling_n_nearly_halves_the_bound():
    params = BoundParams(p=2.0, s=6.0, gamma=1.0)
    n = 500
    ratio = expectation_bound_exp_decay(params, n) / expectation_bound_exp_decay(params, 4 * n)
    want = 2.0 * (math.log(2 * n + 1.0) / math.log(8 * n + 1.0)) ** (11.0 / 6.0)
    assert ratio == pytest.approx(want, rel=1e-12)
    assert ratio < 2.0


def test_exp_decay_large_gamma_recovers_finite_exponent():
    flat = BoundParams(p=2.0, s=5.0, gamma=1e12)
    finite = BoundParams(p=2.0, s=5.0, d=1)
    assert expectation_bound_exp_decay(flat, 500) == pytest.approx(
        expectation_bound_finite(finite, 500), rel=1e-9
    )


def test_poly_decay_expectation_bound_values():
    params = BoundParams(p=2.0, s=5.0, gamma=2.0)
    want = math.log(20_001.0) ** 0.4 / 10_000.0**0.375
    got = expectation_bound_poly_decay(params, 10_000)
    assert got == pytest.approx(want, rel=1e-12)
    assert got == pytest.approx(0.07912, abs=5e-5)
    assert expectation_bound_poly_decay(params, 1) == pytest.approx(
        math.log(3.0) ** 0.4, rel=1e-12
    )


def test_poly_decay_gamma_limit_and_domain():
    nearly = BoundParams(p=2.0, s=5.0, gamma=1e12)
    assert expectation_bound_poly_decay(nearly, 4096) == pytest.approx(
        math.log(8193.0) ** 0.4 / 4096.0**0.5, rel=1e-6
    )
    with pytest.raises(DomainError):
        expectation_bound_poly_decay(BoundParams(p=1.0, s=3.0, gamma=0.9), 10)


def test_user_constants_scale_the_bounds():
    base = BoundParams(p=2.0, s=6.0, gamma=1.0)
    double = BoundParams(p=2.0, s=6.0, gamma=1.0, C_user=2.0)
    assert expectation_bound_exp_decay(double, 100) == pytest.approx(
        2.0 * expectation_bound_exp_decay(base, 100), rel=1e-12
    )


def test_bounds_monotone_in_eps_and_n():
    # the ratio statistic's tail bound falls with eps, and beyond the vacuous
    # regime with n too
    vals = [ratio_tail_bound(400, 2, float(e)).raw for e in np.linspace(0.3, 2.0, 12)]
    assert all(a >= b - 1e-300 for a, b in zip(vals, vals[1:]))
    vals = [ratio_tail_bound(n, 2, 1.0).raw for n in (200, 400, 800, 1600)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_finite_rate_beats_parametric_up_to_logs():
    # the bound is o(n^(-1/2 + delta)); at delta = 1/4 the normalized values
    # must decrease toward zero across a log grid (smaller delta needs
    # astronomically large n before the log factor is dominated)
    params = BoundParams(p=2.0, s=5.0, d=4)
    grid = [10**k for k in range(1, 10)]
    normalized = [expectation_bound_finite(params, n) * n**0.25 for n in grid]
    assert all(a > b for a, b in zip(normalized, normalized[1:]))
    assert normalized[-1] < 0.1 * normalized[0]


def test_param_validation():
    with pytest.raises(DomainError):
        BoundParams(p=2.0, s=4.0)  # s must exceed 2p
    with pytest.raises(DomainError):
        BoundParams(p=0.5, s=3.0)
    with pytest.raises(DomainError):
        BoundParams(p=2.0, s=5.0, gamma=-1.0)
    for C in (0.0, math.inf, math.nan):
        with pytest.raises(DomainError, match="C_user must be positive and finite"):
            BoundParams(p=2.0, s=5.0, C_user=C)
    with pytest.raises(DomainError):
        expectation_bound_finite(BoundParams(p=2.0, s=5.0), 10)  # d missing
