import math

import numpy as np
import pytest

from msw import (
    KernelSpec,
    NumericError,
    check_assumptions,
    check_spectrum,
    eigenvalue,
    eigenvalue_bounds,
    eigenvalues,
    feature_coords,
)
from msw.rkhs import _hermite_functions

# integer-valued constants: a = 1, b = 4, c = 3
INT_SPEC = KernelSpec(sigma2=0.25, w=math.sqrt(0.125))
# the infinite-dimensional experiment setting
EXP_SPEC = KernelSpec(sigma2=4.0, w=1.0)


def test_derived_constants():
    assert INT_SPEC.a == pytest.approx(1.0, rel=1e-14)
    assert INT_SPEC.b == pytest.approx(4.0, rel=1e-14)
    assert INT_SPEC.c == pytest.approx(3.0, rel=1e-14)
    assert EXP_SPEC.kappa == pytest.approx(8.0, rel=1e-14)


def test_abc_identities_hold_for_random_parameters():
    rng = np.random.default_rng(5)
    for _ in range(100):
        k = KernelSpec(float(rng.uniform(0.05, 20.0)), float(rng.uniform(0.05, 20.0)))
        a, b, c = k.a, k.b, k.c
        assert a * a + 2 * a * b == pytest.approx(c * c, rel=1e-14)
        assert b * (a + c) / (a + b + c) == pytest.approx(c - a, rel=1e-14)
        assert math.sqrt((a + b - c) / (a + b + c)) == pytest.approx(
            b / (a + b + c), rel=1e-14
        )


def test_eigenvalues_integer_case_are_powers_of_two():
    for j in range(51):
        assert eigenvalue(INT_SPEC, j) == pytest.approx(0.5 ** (j + 1), rel=1e-12)


def test_eigenvalue_experiment_setting():
    # a = 1/16, b = 1/2, c = sqrt(17)/16
    a, b, c = 1.0 / 16.0, 0.5, math.sqrt(17.0) / 16.0
    expected0 = math.sqrt(2.0 * a / (a + b + c))
    assert eigenvalue(EXP_SPEC, 0) == pytest.approx(expected0, rel=1e-13)
    assert eigenvalue(EXP_SPEC, 0) == pytest.approx(0.39039, abs=1e-5)


def test_eigenvalue_ratio_is_constant():
    k = KernelSpec(1.7, 0.9)
    ratio = k.b / (k.a + k.b + k.c)
    lams = eigenvalues(k, 40)
    assert np.allclose(lams[1:] / lams[:-1], ratio, rtol=1e-12)


def test_lambda_sandwich_for_kappa_at_least_four():
    for spec in (EXP_SPEC, INT_SPEC, KernelSpec(9.0, 1.3)):
        assert spec.kappa >= 4.0 - 1e-12
        for j in range(201):
            lo, hi = eigenvalue_bounds(spec, j)
            lam = eigenvalue(spec, j)
            assert lo <= lam * (1 + 1e-12)
            assert lam <= hi * (1 + 1e-12)


def test_exponential_decay_certificate():
    k = EXP_SPEC
    rate = math.log((k.a + k.b + k.c) / k.b)
    assert rate > 0.0
    for j in range(201):
        assert eigenvalue(k, j) <= 0.5 * math.exp(-rate * j) * (1 + 1e-12)


def _psi(spec, j, z):
    """psi_j(z) read off the truncated embedding: coordinate j over sqrt(lambda_j)."""
    return feature_coords(spec, z, j + 1)[j] / math.sqrt(eigenvalue(spec, j))


def test_eigenfunction_closed_forms_at_zero():
    assert _psi(INT_SPEC, 0, 0.0) == pytest.approx(3.0**0.25, rel=1e-12)
    assert _psi(INT_SPEC, 1, 0.0) == pytest.approx(0.0, abs=1e-14)
    assert _psi(EXP_SPEC, 1, 0.0) == pytest.approx(0.0, abs=1e-14)


def _eigenfunction_direct(spec, j, z):
    """Raw Hermite-polynomial route H_{j+1} = 2 y H_j - 2 j H_{j-1}; usable for small j."""
    a, c = spec.a, spec.c
    y = math.sqrt(2.0 * c) * z
    h_prev, h = 1.0, 2.0 * y
    if j == 0:
        hj = h_prev
    elif j == 1:
        hj = h
    else:
        for k in range(1, j):
            h_prev, h = h, 2.0 * y * h - 2.0 * k * h_prev
        hj = h
    norm = math.sqrt(math.sqrt(a / c) * 2.0**j * math.factorial(j))
    return math.exp(-(c - a) * z * z) * hj / norm


@pytest.mark.parametrize("spec", [INT_SPEC, EXP_SPEC, KernelSpec(2.3, 0.7)])
def test_stable_route_matches_direct_formula(spec):
    zs = np.linspace(-3.0 * math.sqrt(spec.sigma2), 3.0 * math.sqrt(spec.sigma2), 11)
    for j in range(11):
        for z in zs:
            want = _eigenfunction_direct(spec, j, float(z))
            got = _psi(spec, j, float(z))
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_eigenfunction_overflow_guard():
    with pytest.raises(NumericError):
        feature_coords(INT_SPEC, 1e6, 1)


def test_feature_coords_examples():
    coords = feature_coords(INT_SPEC, 0.0, 2)
    assert coords == pytest.approx([math.sqrt(0.5) * 3.0**0.25, 0.0], abs=1e-12)
    single = feature_coords(INT_SPEC, 0.7, 1)
    assert single.shape == (1,)
    assert single[0] == pytest.approx(
        math.sqrt(eigenvalue(INT_SPEC, 0)) * _eigenfunction_direct(INT_SPEC, 0, 0.7), rel=1e-12
    )
    batch = feature_coords(INT_SPEC, np.array([0.0, 0.7]), 2)
    assert batch.shape == (2, 2)
    assert batch[0] == pytest.approx(coords, rel=1e-12)


@pytest.mark.parametrize("spec", [INT_SPEC, EXP_SPEC])
def test_feature_coords_bits_match_three_factor_formula(spec):
    # sqrt(lambda_j) * h_j(sqrt(2c) z) * (c/a)^{1/4} pi^{1/4} e^{a z^2}, multiplied
    # in this order; sampled RKHS points depend on every bit of it
    z = np.random.default_rng(31).standard_normal(5000)
    a, b, c = spec.a, spec.b, spec.c
    lams = np.exp(0.5 * math.log(2.0 * a / (a + b + c)) + np.arange(30) * math.log(b / (a + b + c)))
    h = _hermite_functions(math.sqrt(2.0 * c) * z, 29)
    pref = (c / a) ** 0.25 * math.pi**0.25 * np.exp(a * z**2)
    want = (np.sqrt(lams)[:, None] * h * pref[None, :]).T
    assert np.array_equal(feature_coords(spec, z, 30), want)


@pytest.mark.parametrize("spec", [INT_SPEC, EXP_SPEC])
def test_mercer_reconstruction_distinguishes_weightings(spec):
    sigma = math.sqrt(spec.sigma2)
    grid = np.linspace(-3.0 * sigma, 3.0 * sigma, 9)
    coords = feature_coords(spec, grid, 60)  # rows are sqrt(lambda_j) psi_j(z)
    recon = coords @ coords.T                # sum_j lambda_j psi_j(z) psi_j(z')
    exact = spec.kernel(grid[:, None], grid[None, :])
    assert np.max(np.abs(recon - exact)) <= 1e-8

    lams = eigenvalues(spec, 60)
    psi = coords / np.sqrt(lams)[None, :]
    sqrt_weighted = (psi * np.sqrt(lams)[None, :] ** 0.5) @ (psi * np.sqrt(lams)[None, :] ** 0.5).T
    # the sqrt(lambda) convention does not reproduce the kernel
    assert np.max(np.abs(sqrt_weighted - exact)) > 1e-3


def test_check_spectrum_orthonormality_and_residuals():
    report = check_spectrum(INT_SPEC, 30)
    assert report.orthonormality_error <= 1e-8
    lam0 = eigenvalue(INT_SPEC, 0)
    report16 = check_spectrum(INT_SPEC, 16)
    assert np.all(report16.eigen_residuals <= 1e-6 * lam0)


def test_check_assumptions_examples():
    report = check_assumptions(EXP_SPEC, eta2=1.0, p=2.0)
    assert report.kappa == pytest.approx(8.0)
    assert report.exponential_decay
    assert (report.s_min, report.s_max) == (4.0, 8.0)
    assert report.admissible and report.s_min < 6.0 < report.s_max

    low = check_assumptions(KernelSpec(1.0, 1.0), eta2=1.0, p=2.0)
    assert low.kappa == pytest.approx(2.0)
    assert not low.exponential_decay

    empty = check_assumptions(EXP_SPEC, eta2=4.0, p=2.0)
    assert empty.s_max == pytest.approx(2.0)
    assert not empty.admissible
