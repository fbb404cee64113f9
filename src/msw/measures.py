"""Source measures: distribution specifications and seeded samplers."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import rkhs
from .errors import DomainError, NumericError, SpecError

# PSD tolerance: Cholesky must succeed on the symmetrized covariance after at
# most this much diagonal jitter, in units of its largest diagonal entry
_JITTER_STEPS = (0.0, 1e-12, 1e-11, 1e-10)


def as_samples(data) -> np.ndarray:
    """Validate and return an n x d sample matrix (finite float64, n, d >= 1).

    One-dimensional input is promoted to a single column.
    """
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise DomainError(f"sample matrix must be 2-dimensional, got shape {arr.shape}")
    n, d = arr.shape
    if n < 1 or d < 1:
        raise DomainError(f"sample matrix needs n >= 1 and d >= 1, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DomainError("sample matrix contains non-finite entries")
    return np.ascontiguousarray(arr)


@dataclass(frozen=True)
class RngStream:
    """A reproducible random stream keyed by (master_seed, stream_index).

    Distinct key pairs yield statistically independent streams; equal pairs
    reproduce the same draws bit-exactly on any thread schedule, because every
    consumer builds a fresh generator from the key instead of sharing state.
    """

    master_seed: int
    stream_index: int = 0
    _path: tuple[int, ...] = field(default=(), repr=False)

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(
            self.master_seed, spawn_key=(self.stream_index, *self._path)
        )
        return np.random.Generator(np.random.PCG64(seq))

    def child(self, *keys: int) -> "RngStream":
        """Derive an independent sub-stream, e.g. one per optimizer restart."""
        return RngStream(self.master_seed, self.stream_index, self._path + keys)


@dataclass(frozen=True, eq=False)
class Gaussian:
    """N(mean, cov) on R^d; the covariance must be symmetric PSD."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=np.float64))
        cov = np.asarray(self.cov, dtype=np.float64)
        if mean.ndim != 1 or mean.size < 1:
            raise SpecError(f"Gaussian mean must be a nonempty vector, got shape {mean.shape}")
        if cov.shape != (mean.size, mean.size):
            raise SpecError(
                f"Gaussian covariance shape {cov.shape} does not match dimension {mean.size}"
            )
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))):
            raise SpecError("Gaussian parameters must be finite")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        _cholesky_psd(cov)  # raises SpecError if not PSD within tolerance

    @property
    def dim(self) -> int:
        return self.mean.size


@dataclass(frozen=True)
class ParetoProduct:
    """Product of d Pareto(shape) marginals, cdf F(x) = 1 - x^-shape on [1, inf)."""

    shape: float
    d: int

    def __post_init__(self):
        if not (self.shape > 0.0 and math.isfinite(self.shape)):
            raise SpecError(f"Pareto shape must be positive, got {self.shape}")
        if self.d < 1:
            raise SpecError(f"dimension must be >= 1, got {self.d}")

    @property
    def dim(self) -> int:
        return self.d


@dataclass(frozen=True)
class RkhsPushforward:
    """Feature embedding of N(0, eta2) truncated to the first d_test coordinates."""

    kernel: rkhs.KernelSpec
    eta2: float
    d_test: int

    def __post_init__(self):
        if not (self.eta2 > 0.0 and math.isfinite(self.eta2)):
            raise SpecError(f"source variance must be positive, got {self.eta2}")
        if self.d_test < 1:
            raise SpecError(f"d_test must be >= 1, got {self.d_test}")

    @property
    def dim(self) -> int:
        return self.d_test


DistributionSpec = Gaussian | ParetoProduct | RkhsPushforward


def _cholesky_psd(cov: np.ndarray) -> np.ndarray:
    """Cholesky factor of the symmetrized covariance, with escalating jitter.

    Nearly singular covariances (e.g. equicorrelated matrices) are accepted by
    adding up to 1e-10 times the largest variance to the diagonal, whatever the
    units; anything needing more is not PSD. The zero covariance has factor 0.
    """
    # an entry whose symmetrized sum overflows leaves a non-finite factor, so
    # sample reports the non-finite draw that follows (NumericError)
    with np.errstate(over="ignore"):
        sym = 0.5 * (cov + cov.T)
    if not sym.any():
        return sym
    top = np.max(np.diag(sym))
    for jitter in _JITTER_STEPS:
        try:  # no jitter at first, which an infinite top would turn into 0 * inf
            return np.linalg.cholesky(sym + jitter * top * np.eye(sym.shape[0]) if jitter else sym)
        except np.linalg.LinAlgError:
            continue
    raise SpecError("covariance is not positive semi-definite within relative tolerance 1e-10")


def sample(spec: DistributionSpec, n: int, rng: RngStream) -> np.ndarray:
    """Draw n i.i.d. points from the spec, bit-reproducibly for a fixed stream.

    Gaussian draws are mean + L z with L the (jittered) Cholesky factor and z
    standard normal. Pareto marginals use the inverse cdf x = (1-U)^(-1/shape)
    with U uniform on [0, 1), so draws are at least 1. Pushforward samples
    embed z ~ N(0, eta2) through the truncated feature map. A draw that
    overflows is a NumericError.
    """
    if n < 1:
        raise DomainError(f"sample count must be >= 1, got {n}")
    gen = rng.generator()
    if isinstance(spec, Gaussian):
        chol = _cholesky_psd(spec.cov)
        z = gen.standard_normal((n, spec.dim))
        draw = spec.mean[None, :] + z @ chol.T
    elif isinstance(spec, ParetoProduct):
        u = gen.random((n, spec.d))
        with np.errstate(over="ignore"):
            draw = (1.0 - u) ** (-1.0 / spec.shape)
    elif isinstance(spec, RkhsPushforward):
        z = math.sqrt(spec.eta2) * gen.standard_normal(n)
        draw = rkhs.feature_coords(spec.kernel, z, spec.d_test)
    else:
        raise SpecError(f"unknown distribution spec {type(spec).__name__}")
    if not np.isfinite(draw).all():
        raise NumericError(f"a draw of {n} points from the {type(spec).__name__} spec overflowed")
    return draw

