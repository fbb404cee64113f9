import math

import numpy as np
import pytest

from msw import (
    DomainError,
    Gaussian,
    KernelSpec,
    NumericError,
    ParetoProduct,
    RkhsPushforward,
    RngStream,
    SpecError,
    sample,
)


def test_gaussian_sampling_is_bit_deterministic():
    spec = Gaussian(np.zeros(2), np.eye(2))
    a = sample(spec, 3, RngStream(123, 4))
    b = sample(spec, 3, RngStream(123, 4))
    assert a.shape == (3, 2)
    assert np.array_equal(a, b)


def test_distinct_streams_differ():
    spec = Gaussian(np.zeros(2), np.eye(2))
    a = sample(spec, 100, RngStream(123, 0))
    b = sample(spec, 100, RngStream(123, 1))
    c = sample(spec, 100, RngStream(124, 0))
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_child_streams_are_reproducible_and_distinct():
    base = RngStream(7, 3)
    assert np.array_equal(
        base.child(5).generator().standard_normal(4),
        base.child(5).generator().standard_normal(4),
    )
    assert not np.array_equal(
        base.child(5).generator().standard_normal(4),
        base.child(6).generator().standard_normal(4),
    )


def test_pareto_sampler_is_the_inverse_cdf_transform():
    # the sampler must consume one uniform block and apply (1-U)^(-1/shape);
    # this pins the open-at-1 convention bit-exactly
    spec = ParetoProduct(8.0, 3)
    stream = RngStream(55, 2)
    drawn = sample(spec, 20, stream)
    u = stream.generator().random((20, 3))
    assert np.array_equal(drawn, (1.0 - u) ** (-1.0 / 8.0))
    assert np.all(drawn >= 1.0)


def test_pareto_median_matches_inverse_cdf_at_half():
    # F(x) = 1 - x^-8 inverted at 1/2 gives 2^(1/8)
    spec = ParetoProduct(8.0, 1)
    draws = sample(spec, 100_001, RngStream(9))
    assert abs(np.median(draws) - 2.0 ** (1.0 / 8.0)) < 5e-3


def test_gaussian_mean_smoke():
    n = 100_000
    draws = sample(Gaussian(np.zeros(2), np.eye(2)), n, RngStream(2024))
    assert np.all(np.abs(draws.mean(axis=0)) < 4.0 / math.sqrt(n))


def test_rkhs_pushforward_shape_and_finiteness():
    spec = RkhsPushforward(KernelSpec(4.0, 1.0), 1.0, 10)
    draws = sample(spec, 5, RngStream(0))
    assert draws.shape == (5, 10)
    assert np.all(np.isfinite(draws))


def test_sample_errors():
    with pytest.raises(DomainError):
        sample(Gaussian(np.zeros(2), np.eye(2)), 0, RngStream(0))
    with pytest.raises(SpecError):
        Gaussian(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]))  # not PSD
    with pytest.raises(SpecError):
        ParetoProduct(0.0, 2)
    with pytest.raises(SpecError):
        RkhsPushforward(KernelSpec(4.0, 1.0), -1.0, 3)


def test_nearly_singular_covariance_is_accepted():
    # rank-one covariance: Cholesky needs the jitter path
    v = np.array([1.0, 2.0])
    spec = Gaussian(np.zeros(2), np.outer(v, v))
    draws = sample(spec, 10, RngStream(1))
    assert np.all(np.isfinite(draws))


def test_a_draw_that_overflows_is_a_numeric_error():
    huge = Gaussian(np.zeros(2), np.diag([1e308, 1e308]))
    with pytest.raises(NumericError, match="a draw of 4 points from the Gaussian spec overflowed"):
        sample(huge, 4, RngStream(0))
    with pytest.raises(NumericError, match="ParetoProduct"):
        sample(ParetoProduct(1e-3, 2), 4, RngStream(0))
