"""One-dimensional Wasserstein distances through quantile couplings.

Between two empirical measures the distance is exact at every order. The one
law msw compares a sample with is N(mean, sd^2), a Gaussian spec projected
along a direction; against it the distance is W_2, exact in closed form from
cached block integrals of Phi^-1 that msw.maxsliced's analytic objective reads.
The law's cdf is _phi, a numpy port of Cephes ndtr, so evaluating it loads no
scipy submodule. The sups divide their data by the power of two of
_scale_exponent first (msw.maxsliced), and _projected_moments floors s^2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, NumericError, check_order, check_vs_truth_order
from .measures import as_samples


# Cephes ndtr's rational approximations: erf(x) = x T(x^2) / U(x^2) for
# |x| < 1, erfc(x) = exp(-x^2) P(x) / Q(x) for 1 <= x < 8 and R / S above;
# U, Q and S are monic, their leading 1 left out
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_MAXLOG = 7.09782712893383996843e2  # log of the largest double


def _horner(x: np.ndarray, coefs, monic: bool = False) -> np.ndarray:
    """The polynomial with coefficients coefs, highest first, at x, in place on
    one new array; monic puts a leading 1 before coefs."""
    acc = x + coefs[0] if monic else np.full_like(x, coefs[0])
    for c in coefs[1:]:
        acc *= x
        acc += c
    return acc


def _phi(t) -> np.ndarray:
    """The standard normal cdf Phi(t), elementwise: Cephes ndtr, as in
    scipy.special.ndtr, up to numpy's exp (within 4 ulp of scipy on [-40, 40]).

    With x = t / sqrt(2), Phi = (1 + erf(x)) / 2 for |x| < 1, and erfc(|x|) / 2
    or 1 minus it above, 0 once exp(-x^2) underflows. |x| is clipped at 27,
    past that underflow, so no step overflows on a huge or infinite t.
    """
    x = np.asarray(t, dtype=np.float64) * math.sqrt(0.5)
    z = np.minimum(np.abs(x), 27.0)
    w = z * z
    y = _horner(w, _ERF_T)
    y *= np.copysign(z, x)
    y /= _horner(w, _ERF_U, monic=True)
    y *= 0.5
    y += 0.5
    hi = np.flatnonzero(z >= 1.0)  # flat indices in C order, whatever x's layout
    zh, wh = np.take(z, hi), np.take(w, hi)
    p, q = _horner(zh, _ERFC_P), _horner(zh, _ERFC_Q, monic=True)
    far = zh >= 8.0
    if far.any():
        p[far], q[far] = _horner(zh[far], _ERFC_R), _horner(zh[far], _ERFC_S, monic=True)
    tail = 0.5 * np.where(wh > _MAXLOG, 0.0, np.exp(-wh) * p / q)
    np.put(y, hi, np.where(np.take(x, hi) > 0.0, 1.0 - tail, tail))
    return y


def as_sorted_sample(values) -> np.ndarray:
    """Validate a nonempty, finite, nondecreasing 1-d array."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 1:
        raise DomainError(f"sorted sample must be a nonempty vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DomainError("sorted sample contains non-finite entries")
    if np.any(np.diff(arr) < 0.0):
        raise DomainError("sample values are not sorted nondecreasingly")
    return arr


def project(samples, theta) -> np.ndarray:
    """Sorted inner products <x_i, theta> of the rows with a direction; a
    product that overflows is a NumericError."""
    arr = as_samples(samples)
    th = np.asarray(theta, dtype=np.float64).ravel()
    if th.size != arr.shape[1]:
        raise DomainError(
            f"direction has dimension {th.size}, samples have dimension {arr.shape[1]}"
        )
    proj = arr @ th
    if not np.all(np.isfinite(proj)):
        raise NumericError("projections along theta are not finite (overflow)")
    return np.sort(proj)


@dataclass(frozen=True)
class AnalyticCdf1d:
    """The one-dimensional law N(mean, sd^2), with its cdf."""

    mean: float
    sd: float

    def cdf(self, t) -> np.ndarray:
        return _phi((np.asarray(t, dtype=np.float64) - self.mean) / self.sd)


def _scale_exponent(*arrays) -> int:
    """e with the largest |entry| of arrays over 2^e in [1/4, 1/2); dividing by
    2^e (np.ldexp) is exact while the results stay normal doubles."""
    return math.frexp(max(float(np.max(np.abs(a))) for a in arrays))[1] + 1


def _projected_moments(th: np.ndarray, mean: np.ndarray, cov: np.ndarray):
    """<theta, mean>, Sigma theta and s = sqrt(theta^T Sigma theta) per row theta of
    th. s^2 is floored at 1e-300, far below the variances of prescaled data, so a
    null direction of the covariance gives a near point mass, not 0 / 0."""
    sig_th = th @ cov
    return th @ mean, sig_th, np.sqrt(np.maximum(np.einsum("rd,rd->r", sig_th, th), 1e-300))


def _projected_law(spec, theta: np.ndarray) -> AnalyticCdf1d:
    """The law of <theta, X> for X ~ N(spec.mean, spec.cov), from _projected_moments."""
    m, _, s = _projected_moments(np.atleast_2d(theta), spec.mean, spec.cov)
    return AnalyticCdf1d(float(m[0]), float(s[0]))


@lru_cache(maxsize=512)
def quantile_blocks(n: int, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Blocks of the merged quantile grid {i/n} union {j/m}.

    Returns (widths, xi, yj): on block k both empirical quantile functions are
    constant, equal to the xi[k]-th and yj[k]-th order statistics. In units of
    1/(nm) the breakpoints are the integers i*m and j*n, merged exactly, so no
    block is ever split or merged by floating-point noise. Arrays are cached;
    treat as read-only.
    """
    bx, by = np.arange(1, n + 1) * m, np.arange(1, m + 1) * n
    # np.union1d would load numpy.ma (np.unique asks np.ma.is_masked)
    ends = np.sort(np.concatenate((bx, by)))
    ends = ends[np.concatenate(([True], ends[1:] != ends[:-1]))]
    xi, yj = np.searchsorted(bx, ends), np.searchsorted(by, ends)
    u = np.where(ends % m == 0, (xi + 1) / n, (yj + 1) / m)
    return np.diff(u, prepend=0.0), xi, yj


def w1d_empirical(xs, ys, p: float) -> float:
    """Order-p Wasserstein distance between two empirical measures on R.

    Computed exactly as the L^p norm of the quantile difference over the
    merged breakpoint grid. For equal sample sizes this reduces to the sorted
    matching ((1/n) sum |x_(i) - y_(i)|^p)^(1/p); sizes may differ. When the
    largest difference's p-th power is below the smallest normal double, the
    differences are divided by it before the power and the root is multiplied
    by it after, so the distance keeps its scale. A distance that overflows is
    a NumericError.
    """
    check_order(p)
    x = as_sorted_sample(xs)
    y = as_sorted_sample(ys)
    if x.size == y.size:
        diff, w = np.abs(x - y), None
    else:
        w, xi, yj = quantile_blocks(x.size, y.size)
        diff = np.abs(x[xi] - y[yj])
    top = float(np.max(diff))
    # below 1, top ** p cannot overflow; where it underflows, take the powers of diff / top
    scale = top if 0.0 < top < 1.0 and top**p < np.finfo(np.float64).tiny else 1.0
    powers = (diff / scale) ** p  # dividing by 1.0 keeps every bit
    value = scale * float((np.mean(powers) if w is None else np.sum(w * powers)) ** (1.0 / p))
    if not math.isfinite(value):
        raise NumericError(f"the order-{p!r} distance between the samples is not finite (overflow)")
    return value


@lru_cache(maxsize=32)
def _normal_quantile_blocks(n: int) -> np.ndarray:
    """The integrals g_i = phi(z_{i-1}) - phi(z_i) of the standard normal
    quantile Phi^-1 over the n blocks ((i-1)/n, i/n], with z_i = Phi^-1(i/n)
    and phi(z_0) = phi(z_n) = 0. Cached per n and read-only. z_i is the standard
    library's NormalDist().inv_cdf (Wichura's AS 241), imported here alone."""
    from statistics import NormalDist

    pdf = np.zeros(n + 1)
    z = np.fromiter(map(NormalDist().inv_cdf, np.arange(1, n) / n), np.float64, n - 1)
    pdf[1:-1] = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    g = pdf[:-1] - pdf[1:]
    g.flags.writeable = False
    return g


def w1d_vs_cdf(xs, law: AnalyticCdf1d, p: float) -> float:
    """W_2 between an empirical measure and N(mean, sd^2), exact in closed form.

    With c_i = x_(i) - mean and g the block integrals of _normal_quantile_blocks,

        W_2^2 = mean(c^2) - 2 sd sum_i g_i c_i + sd^2.

    This is the certificate of the analytic objective of msw.maxsliced, which
    evaluates the same form per direction. p must be 2: msw computes no other
    order against a Gaussian law, and any other p is a DomainError. sd = 0 is
    the point mass at mean; a negative sd is a DomainError. A law or a
    distance that is not finite is a NumericError.
    """
    check_vs_truth_order(p)
    x = as_sorted_sample(xs)
    if not (math.isfinite(law.mean) and math.isfinite(law.sd)):
        raise NumericError(f"quantiles of N({law.mean!r}, {law.sd!r}^2) are not finite")
    if law.sd < 0.0:
        raise DomainError(f"the law's sd must be >= 0, got {law.sd!r}")
    c, s = x - law.mean, law.sd
    value = math.sqrt(max(np.mean(c * c) - 2.0 * s * (_normal_quantile_blocks(x.size) @ c) + s * s, 0.0))
    if not math.isfinite(value):
        raise NumericError("the W_2 distance to the Gaussian law is not finite (overflow)")
    return value
