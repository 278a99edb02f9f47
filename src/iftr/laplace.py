"""Numerical inverse Laplace transform on the positive half-line.

Two Bromwich-summation engines are provided:

* ``euler-summation`` -- trapezoidal discretization on a vertical contour
  with alternating-series (binomial/Euler) acceleration.  The default; its
  nodes keep Re(s) > 0, so transforms of distributions supported on
  [0, inf) are always evaluated inside their analyticity region.
* ``fixed-talbot`` -- the parameter-free Talbot contour.  Used as an
  independent cross-check; it requires the transform to be analytic off
  the negative real axis and to remain evaluable on a contour that enters
  the left half-plane.

Both are deterministic for a fixed configuration.  The `transform`
callables receive a complex ndarray of contour nodes and must return the
transform values elementwise; for a random variable with moment
generating function M this is ``s -> M(-s)``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .specfun import ConvergenceError

__all__ = [
    "LaplaceInversionConfig",
    "ToleranceWarning",
    "laplace_invert_density",
    "laplace_invert_cdf",
    "phi2_multi_rate",
    "euler_contour",
    "log1p_c",
    "clamp_counts",
]


class ToleranceWarning(UserWarning):
    """The internal error estimate exceeded the precision target."""


# Diagnostic counters for values nudged back into their valid range.
clamp_counts = {"density_negative": 0, "cdf_below_zero": 0, "cdf_above_one": 0}


def log1p_c(w):
    """log(1 + w) for complex arrays, accurate for small |w|."""
    w = np.asarray(w, dtype=complex)
    u = 1.0 + w
    # Kahan's correction factor w / (u - 1) cancels the rounding of 1 + w.
    exact = u == 1.0
    denom = np.where(exact, 1.0, u - 1.0)
    out = np.log(u) * (w / denom)
    return np.where(exact, w, out)


# Relative accuracy aimed for on smooth transforms.
_PRECISION_TARGET = 1e-9
# Dimensionless Euler contour parameter; e^-shift bounds the aliasing error.
# Capped at 24: beyond that the e^(shift/2) scale factor amplifies rounding
# in the alternating sum faster than aliasing shrinks.
_CONTOUR_SHIFT = min(max(-math.log(_PRECISION_TARGET) + 3.0, 14.0), 24.0)


@dataclass(frozen=True)
class LaplaceInversionConfig:
    """Inversion engine selection and effort knob.

    ``terms`` counts transform evaluations per abscissa (16..512).
    """

    method: str = "euler-summation"
    terms: int = 64

    def __post_init__(self) -> None:
        if self.method not in ("euler-summation", "fixed-talbot"):
            raise ValueError(f"unknown inversion method {self.method!r}")
        if not 16 <= self.terms <= 512:
            raise ValueError(f"terms must lie in [16, 512], got {self.terms}")


DEFAULT_CONFIG = LaplaceInversionConfig()


def _binomial_weights(m: int) -> np.ndarray:
    # Exact integers over an exact power of two: each weight correctly rounded.
    return np.array([math.comb(m, k) for k in range(m + 1)], dtype=float) / 2.0**m


def euler_contour(x: np.ndarray, cfg: LaplaceInversionConfig):
    """Euler-summation contour nodes and finisher for abscissae ``x``.

    Returns ``(s, finish)`` where ``s`` has shape (len(x), nodes) and
    ``finish(fvals)`` maps transform values on ``s`` to
    ``(inverse values, relative error estimates)``.  Splitting the two
    steps lets callers evaluate many transforms on memoized nodes.
    """
    a = _CONTOUR_SHIFT
    m_binom = min(15, cfg.terms // 4)
    n_base = cfg.terms - m_binom - 1
    n_nodes = n_base + m_binom + 1
    k = np.arange(n_nodes)
    # Vertical contour Re(s) = a / (2x); alternating series in k.
    s = (0.5 * a + 1j * math.pi * k)[None, :] / x[:, None]
    weights = _binomial_weights(m_binom)
    signs = np.ones(n_nodes)
    signs[1::2] = -1.0
    scale = np.exp(0.5 * a) / x

    def finish(fvals: np.ndarray):
        terms = np.real(fvals) * signs[None, :]
        terms[:, 0] *= 0.5
        partial = np.cumsum(terms, axis=1)
        accel = partial[:, n_base : n_base + m_binom + 1] @ weights
        # Error estimate: sensitivity of the accelerated value to dropping
        # the last two base terms.
        accel_back = partial[:, n_base - 2 : n_base + m_binom - 1] @ weights
        values = scale * accel
        ref = np.maximum(np.abs(values), 1e-300)
        est = np.abs(scale * (accel - accel_back)) / ref
        return values, est

    return s, finish


def _euler_invert(transform, x: np.ndarray, cfg: LaplaceInversionConfig):
    """Euler-summation inversion; returns (values, relative error estimates)."""
    s, finish = euler_contour(x, cfg)
    fvals = transform(s.ravel()).reshape(s.shape)
    return finish(fvals)


def _talbot_invert(transform, x: np.ndarray, cfg: LaplaceInversionConfig):
    """Fixed-Talbot inversion; returns (values, relative error estimates)."""
    m = cfg.terms
    theta = math.pi * np.arange(1, m) / m
    cot = 1.0 / np.tan(theta)
    r = 2.0 * m / (5.0 * x)
    s = r[:, None] * theta[None, :] * (cot[None, :] + 1j)
    sigma = theta + (theta * cot - 1.0) * cot
    f0 = transform(r.astype(complex))
    fvals = transform(s.ravel()).reshape(s.shape)
    inner = np.real(np.exp(s * x[:, None]) * fvals * (1.0 + 1j * sigma[None, :]))
    total = 0.5 * np.real(f0) * np.exp(r * x) + inner.sum(axis=1)
    values = (r / m) * total
    # Error estimate: drop the last (most oscillatory) contour node pair.
    trimmed = (r / m) * (0.5 * np.real(f0) * np.exp(r * x) + inner[:, :-1].sum(axis=1))
    ref = np.maximum(np.abs(values), 1e-300)
    est = np.abs(values - trimmed) / ref
    return values, est


def _invert(transform, x, cfg: LaplaceInversionConfig):
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(x_arr <= 0.0) or not np.all(np.isfinite(x_arr)):
        raise ValueError("inversion abscissae must be finite and > 0")
    engine = _euler_invert if cfg.method == "euler-summation" else _talbot_invert
    values, est = engine(transform, x_arr, cfg)
    bad = ~np.isfinite(values)
    if bad.any():
        raise ConvergenceError(
            f"inversion gave a non-finite value at x = {x_arr[np.argmax(bad)]:.6g} "
            f"({np.count_nonzero(bad)} of {x_arr.size} abscissae)"
        )
    # The internal estimate is conservative by design; alarm only on a clear
    # order-of-magnitude miss, and say where the worst one is.
    missed = est > 10.0 * _PRECISION_TARGET
    if missed.any():
        i = int(np.argmax(est))
        warnings.warn(
            f"inversion error estimate {est[i]:.3g} exceeds target "
            f"{_PRECISION_TARGET:.3g} at x = {x_arr[i]:.3g} "
            f"({np.count_nonzero(missed)} of {x_arr.size} abscissae)",
            ToleranceWarning,
            stacklevel=3,
        )
    return values


def laplace_invert_density(transform, x, cfg: LaplaceInversionConfig | None = None):
    """Invert ``transform`` (s -> M(-s)) to the density at abscissa(e) x > 0.

    Deterministic for a fixed configuration; emits :class:`ToleranceWarning`
    when the internal estimate misses the 1e-9 precision target.  Small
    negative excursions are clamped to zero and counted in
    ``clamp_counts['density_negative']``.
    """
    cfg = cfg or DEFAULT_CONFIG
    values = _invert(transform, x, cfg)
    neg = values < 0.0
    if neg.any():
        clamp_counts["density_negative"] += int(neg.sum())
        values = np.where(neg, 0.0, values)
    return values if np.ndim(x) else float(values[0])


def laplace_invert_cdf(transform, x, cfg: LaplaceInversionConfig | None = None):
    """Invert ``transform`` to the CDF at x > 0 via the extra 1/s factor.

    Results are clamped to [0, 1]; clamps are tallied in ``clamp_counts``.
    """
    cfg = cfg or DEFAULT_CONFIG

    def integrand(s):
        return transform(s) / s

    values = _clamp_cdf(_invert(integrand, x, cfg))
    return values if np.ndim(x) else float(values[0])


def _clamp_cdf(values: np.ndarray) -> np.ndarray:
    """Clip inverted CDF values to [0, 1], tallying clamps in ``clamp_counts``."""
    clamp_counts["cdf_below_zero"] += int(np.count_nonzero(values < 0.0))
    clamp_counts["cdf_above_one"] += int(np.count_nonzero(values > 1.0))
    return np.clip(values, 0.0, 1.0)


def phi2_multi_rate(b, c, rates, x, cfg: LaplaceInversionConfig | None = None):
    """Confluent hypergeometric Phi_2^(n)(b_1..b_n; c; rate_1 x, .., rate_n x).

    Evaluated through its Laplace representation
        Phi_2(b; c; rate x) = Gamma(c) x^(1-c) L^-1[ s^-c prod_i
        (1 - rate_i / s)^(-b_i) ](x),
    which needs only elementary factors on the contour.  Intended for
    non-positive rates (decaying mixtures), where the transform is analytic
    on Re(s) > 0.
    """
    cfg = cfg or DEFAULT_CONFIG
    b_arr = np.asarray(b, dtype=float)
    rate_arr = np.asarray(rates, dtype=float)
    if b_arr.shape != rate_arr.shape:
        raise ValueError("b and rates must have matching shapes")
    c = float(c)

    def transform(s):
        log_f = -c * np.log(s)
        for b_i, lam in zip(b_arr, rate_arr):
            if b_i != 0.0 and lam != 0.0:
                log_f = log_f - b_i * log1p_c(-lam / s)
        return np.exp(log_f)

    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    values = _invert(transform, x_arr, cfg)
    values = values * np.exp(math.lgamma(c) + (1.0 - c) * np.log(x_arr))
    return values if np.ndim(x) else float(values[0])
