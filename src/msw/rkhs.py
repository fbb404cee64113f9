"""Gaussian-kernel eigensystem under a Gaussian base measure.

Closed-form eigenvalues, truncated feature coordinates whose eigenfunctions
are evaluated stably through orthonormal Hermite functions, and
quadrature-based verification of orthonormality and the eigen-relations.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError, SpecError, check_order

# exp() overflows just above this; reached only far outside any sampling range
_EXP_ARG_MAX = 700.0


@dataclass(frozen=True)
class KernelSpec:
    """Gaussian kernel exp(-(z-z')^2 / (2 w^2)) with base measure N(0, sigma2).

    The derived constants a, b, c drive every closed form below; kappa is the
    eigenvalue-decay ratio 2*sigma2/w^2.
    """

    sigma2: float
    w: float

    def __post_init__(self):
        if not (self.sigma2 > 0.0 and math.isfinite(self.sigma2)):
            raise SpecError(f"base-measure variance must be positive, got {self.sigma2}")
        if not (self.w > 0.0 and math.isfinite(self.w)):
            raise SpecError(f"kernel width must be positive, got {self.w}")

    @property
    def a(self) -> float:
        return 1.0 / (4.0 * self.sigma2)

    @property
    def b(self) -> float:
        return 1.0 / (2.0 * self.w**2)

    @property
    def c(self) -> float:
        return math.sqrt(self.a * self.a + 2.0 * self.a * self.b)

    @property
    def kappa(self) -> float:
        return 2.0 * self.sigma2 / self.w**2

    def kernel(self, z, zp) -> np.ndarray:
        """Evaluate the kernel at (z, z'), broadcasting numpy-style."""
        z = np.asarray(z, dtype=np.float64)
        zp = np.asarray(zp, dtype=np.float64)
        return np.exp(-((z - zp) ** 2) / (2.0 * self.w**2))


def eigenvalue(kernel: KernelSpec, j: int) -> float:
    """j-th eigenvalue sqrt(2a/(a+b+c)) * (b/(a+b+c))^j, indexed from j = 0.

    Evaluated in log space so that large j underflows gracefully to 0 instead
    of losing accuracy through repeated multiplication.
    """
    if j < 0:
        raise DomainError(f"eigenvalue index must be >= 0, got {j}")
    s = kernel.a + kernel.b + kernel.c
    return math.exp(0.5 * math.log(2.0 * kernel.a / s) + j * math.log(kernel.b / s))


def eigenvalues(kernel: KernelSpec, count: int) -> np.ndarray:
    """Eigenvalues lambda_0 .. lambda_{count-1} as one array."""
    if count < 1:
        raise DomainError(f"count must be >= 1, got {count}")
    s = kernel.a + kernel.b + kernel.c
    j = np.arange(count)
    return np.exp(0.5 * math.log(2.0 * kernel.a / s) + j * math.log(kernel.b / s))


def eigenvalue_bounds(kernel: KernelSpec, j: int) -> tuple[float, float]:
    """Two-sided sandwich for lambda_j, valid whenever kappa >= 4.

    Returns (sqrt(2/(1+kappa+sqrt(1+2kappa))) * 2^-j, 1/2); the eigenvalue is
    guaranteed to lie between the two when the decay ratio is at least 4.
    """
    kap = kernel.kappa
    lam0 = math.sqrt(2.0 / (1.0 + kap + math.sqrt(1.0 + 2.0 * kap)))
    return lam0 * 0.5**j, 0.5


def _hermite_functions(y: np.ndarray, jmax: int) -> np.ndarray:
    """Orthonormal Hermite functions h_0..h_jmax at points y, shape (jmax+1, len(y)).

    h_{j+1}(y) = y sqrt(2/(j+1)) h_j(y) - sqrt(j/(j+1)) h_{j-1}(y),
    h_0(y) = pi^{-1/4} exp(-y^2/2). No factorials are ever formed.
    """
    y = np.asarray(y, dtype=np.float64)
    out = np.empty((jmax + 1, y.size), dtype=np.float64)
    out[0] = math.pi**-0.25 * np.exp(-0.5 * y.ravel() ** 2)
    if jmax >= 1:
        out[1] = math.sqrt(2.0) * y.ravel() * out[0]
    for j in range(1, jmax):
        out[j + 1] = y.ravel() * math.sqrt(2.0 / (j + 1)) * out[j] - math.sqrt(
            j / (j + 1)
        ) * out[j - 1]
    return out


def _psi_parts(kernel: KernelSpec, z: np.ndarray, jmax: int) -> tuple[np.ndarray, np.ndarray]:
    """h_0..h_jmax at sqrt(2c) z, shape (jmax+1, len(z)), and the prefactor.

    psi_j(z) = prefactor(z) * h_j(sqrt(2c) z), with the prefactor
    (c/a)^{1/4} pi^{1/4} exp(a z^2); exp(a z^2) is guarded against overflow.
    """
    arg = kernel.a * z**2
    if np.any(arg > _EXP_ARG_MAX):
        zbad = float(np.asarray(z).ravel()[int(np.argmax(arg))])
        raise NumericError(
            f"eigenfunction evaluation overflows at z={zbad:g} "
            f"(a*z^2={float(np.max(arg)):g} exceeds {_EXP_ARG_MAX:g})"
        )
    h = _hermite_functions(math.sqrt(2.0 * kernel.c) * z, jmax)
    return h, (kernel.c / kernel.a) ** 0.25 * math.pi**0.25 * np.exp(arg)


def feature_coords(kernel: KernelSpec, z, d_test: int) -> np.ndarray:
    """Coordinates (sqrt(lambda_j) psi_j(z))_{j<d_test} of the truncated embedding.

    In these coordinates the Euclidean inner product of two embedded points
    reproduces the truncated kernel, so downstream code can treat the rows as
    ordinary vectors in R^{d_test}.

    Scalar z gives shape (d_test,), an array of n points gives (n, d_test).
    """
    if d_test < 1:
        raise DomainError(f"d_test must be >= 1, got {d_test}")
    h, pref = _psi_parts(kernel, np.atleast_1d(np.asarray(z, dtype=np.float64)), d_test - 1)
    coords = (np.sqrt(eigenvalues(kernel, d_test))[:, None] * h * pref[None, :]).T
    if np.isscalar(z) or np.ndim(z) == 0:
        return coords[0]
    return coords


@dataclass(frozen=True)
class SpectrumReport:
    """Quadrature verification of orthonormality and the eigen-relations."""

    j_max: int
    orthonormality_error: float  # max |G - I| over the (j_max x j_max) Gram matrix
    eigen_residuals: np.ndarray  # sup_z' |T_K psi_j(z') - lambda_j psi_j(z')| per j


# the eigen-relation integrand is entire, so a fixed high quadrature order suffices
_RESIDUAL_QUAD_NODES = 128
_ZPRIME_GRID_POINTS = 25


def check_spectrum(kernel: KernelSpec, j_max: int) -> SpectrumReport:
    """Verify the first j_max eigenpairs by Gauss-Hermite quadrature.

    The Gram matrix G_{jk} = int psi_j psi_k dm is computed after the
    substitution t = sqrt(2c) z, which turns the integrand into a polynomial
    of degree at most 2 j_max - 2 times exp(-t^2); max(64, j_max + 8) nodes
    integrate it exactly up to rounding. Residuals |int K(z, z') psi_j(z) m(dz)
    - lambda_j psi_j(z')| are evaluated on a z' grid spanning +-3 sigma.
    """
    if j_max < 1:
        raise DomainError(f"j_max must be >= 1, got {j_max}")

    from numpy.polynomial.hermite import hermgauss
    # orthonormality: G = S S^T with S_ji = h_j(t_i) sqrt(w_i e^{t_i^2}), symmetrized
    t, wq = hermgauss(max(64, j_max + 8))
    h = _hermite_functions(t, j_max - 1)
    scaled = h * np.sqrt(wq * np.exp(t**2))[None, :]
    gram = scaled @ scaled.T
    gram = 0.5 * (gram + gram.T)
    orth_err = float(np.max(np.abs(gram - np.eye(j_max))))

    # eigen-relations: integrate against the base measure via t = sqrt(2a) z
    tn, wn = hermgauss(_RESIDUAL_QUAD_NODES)
    zn = tn / math.sqrt(2.0 * kernel.a)
    sigma = math.sqrt(kernel.sigma2)
    zp = np.linspace(-3.0 * sigma, 3.0 * sigma, _ZPRIME_GRID_POINTS)
    h_nodes, pref_nodes = _psi_parts(kernel, zn, j_max - 1)
    h_zp, pref_zp = _psi_parts(kernel, zp, j_max - 1)
    psi_nodes = pref_nodes[None, :] * h_nodes          # (j_max, nodes)
    psi_zp = pref_zp[None, :] * h_zp                   # (j_max, grid)
    kern = kernel.kernel(zn[:, None], zp[None, :])     # (nodes, grid)
    integrals = (psi_nodes * wn[None, :]) @ kern / math.sqrt(math.pi)
    lams = eigenvalues(kernel, j_max)
    resid = np.max(np.abs(integrals - lams[:, None] * psi_zp), axis=1)

    return SpectrumReport(
        j_max=j_max,
        orthonormality_error=orth_err,
        eigen_residuals=resid,
    )


@dataclass(frozen=True)
class AssumptionReport:
    """Decay and moment admissibility for a pushforward source N(0, eta2)."""

    kappa: float
    exponential_decay: bool  # kappa >= 4 certifies lambda_j <= (1/2) e^{-c j}
    s_min: float             # moment order must exceed 2p (exclusive)
    s_max: float             # and stay below 2 sigma2 / eta2 (exclusive)
    admissible: bool         # the open interval (s_min, s_max) is nonempty


def check_assumptions(kernel: KernelSpec, eta2: float, p: float) -> AssumptionReport:
    """Check eigenvalue decay and the admissible moment range for order p."""
    if not eta2 > 0.0:
        raise DomainError(f"source variance must be positive, got {eta2}")
    check_order(p)
    s_min = 2.0 * p
    s_max = 2.0 * kernel.sigma2 / eta2
    return AssumptionReport(
        kappa=kernel.kappa,
        exponential_decay=kernel.kappa >= 4.0,
        s_min=s_min,
        s_max=s_max,
        admissible=s_max > s_min,
    )
