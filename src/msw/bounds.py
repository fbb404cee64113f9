"""Evaluators for the theoretical rate bounds, the ratio statistic's tail bound
and the VC shatter bound.

The absolute constant that the expectation bounds leave unspecified enters as
the user parameter C_user (default 1), so curves produced with the default are
shape-only overlays.

Every expectation_bound_* function bounds E[W̄_p^p(mu, mu_n)], the p-th power
of the max-sliced distance between a measure and its empirical measure, at
rate n^(-1/2) up to logarithms (slower under polynomial decay). The moment
condition s > 2p fits this reading: on the line, W_p^p(F, G) <= p 2^(p-1)
int |x|^(p-1) |F - G| dx; a uniform ratio bound over halfspaces controls
|F_n - F| by sqrt(F (1 - F) log(n) / n); and int |x|^(p-1) sqrt(F (1 - F)) dx
is finite once the s-th moment is, for s > 2p. A harness RateCurve holds
Monte Carlo estimates of E[W̄_p], so a curve is compared with the bound to
the power 1/p (Jensen: E[W̄_p] <= E[W̄_p^p]^(1/p)), which decays like
n^(-1/(2p)) up to logarithms.

Provenance: the repository holds only the abstract of arXiv:2405.13153, so no
formula here has been checked against the paper's theorem statements.
- expectation_bound_finite: reconstructed from the abstract; theorem numbers unchecked.
- expectation_bound_exp_decay: reconstructed from the abstract; theorem numbers unchecked.
- expectation_bound_poly_decay: reconstructed from the abstract; theorem numbers unchecked.
- ratio_tail_bound: reconstructed from the abstract; theorem numbers unchecked.
- vc_bound: the polynomial bound on the labelings of n points by halfspaces
  in dimension d, whose VC dimension is d + 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import DomainError, check_order


@dataclass(frozen=True)
class BoundParams:
    """Parameters of the expectation bounds.

    d is required by the finite-dimensional bound, gamma by the decay-based
    ones.
    """

    p: float
    s: float
    d: int | None = None
    gamma: float | None = None
    C_user: float = 1.0

    def __post_init__(self):
        check_order(self.p)
        if not self.s > 2.0 * self.p:
            raise DomainError(f"moment order s must exceed 2p = {2 * self.p}, got {self.s}")
        if self.d is not None and self.d < 1:
            raise DomainError(f"dimension must be >= 1, got {self.d}")
        if self.gamma is not None and not self.gamma > 0.0:
            raise DomainError(f"decay exponent must be positive, got {self.gamma}")
        if not 0.0 < self.C_user < math.inf:
            raise DomainError(f"constant C_user must be positive and finite, got {self.C_user}")

    def _need_d(self) -> int:
        if self.d is None:
            raise DomainError("this bound requires the dimension d")
        return self.d

    def _need_gamma(self) -> float:
        if self.gamma is None:
            raise DomainError("this bound requires the decay exponent gamma")
        return self.gamma


class BoundValue(NamedTuple):
    """A theoretical bound before and after clipping to the probability range."""

    raw: float
    clipped: float


def _exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _log2n1(n: int) -> float:
    if n < 1:
        raise DomainError(f"sample size must be >= 1, got {n}")
    return math.log(2.0 * n + 1.0)


def expectation_bound_finite(params: BoundParams, n: int) -> float:
    """C log(2n+1)^(p/s + 1/2) sqrt(d/n): E[W̄_p^p] in finite dimension d."""
    d = params._need_d()
    ln = _log2n1(n)
    return params.C_user * ln ** (params.p / params.s + 0.5) * math.sqrt(d / n)


def expectation_bound_exp_decay(params: BoundParams, n: int) -> float:
    """C log(2n+1)^(p/s + 1/2 + 1/gamma) / sqrt(n): E[W̄_p^p] under exponential decay."""
    gamma = params._need_gamma()
    ln = _log2n1(n)
    return params.C_user * ln ** (params.p / params.s + 0.5 + 1.0 / gamma) / math.sqrt(n)


def expectation_bound_poly_decay(params: BoundParams, n: int) -> float:
    """C log(2n+1)^(p/s) / n^(1/2 - 1/(2 p gamma)): E[W̄_p^p] under polynomial decay."""
    gamma = params._need_gamma()
    if not params.p * gamma > 1.0:
        raise DomainError(
            f"polynomial-decay rate needs p*gamma > 1, got {params.p * gamma}"
        )
    ln = _log2n1(n)
    return params.C_user * ln ** (params.p / params.s) / n ** (0.5 - 1.0 / (2.0 * params.p * gamma))


def vc_bound(n: int, d: int) -> int:
    """Polynomial shatter bound (n+1)^(d+1) for halfspaces in dimension d.

    Exact integer arithmetic, so no overflow at any scale.
    """
    if n < 1 or d < 1:
        raise DomainError(f"need n >= 1 and d >= 1, got n={n}, d={d}")
    return (n + 1) ** (d + 1)


def ratio_tail_bound(n: int, d: int, eps: float) -> BoundValue:
    """Tail bound 8 exp((d+1) log(2n+1) - n eps^2 / 4) on the ratio statistic."""
    if n < 1 or d < 1:
        raise DomainError(f"need n >= 1 and d >= 1, got n={n}, d={d}")
    if not eps >= 0.0:
        raise DomainError(f"threshold must be nonnegative, got {eps}")
    raw = 8.0 * _exp((d + 1) * _log2n1(n) - n * eps * eps / 4.0)
    return BoundValue(raw=raw, clipped=min(1.0, raw))
