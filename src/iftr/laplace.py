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

Every inversion (density, CDF, Phi_2, the fit's objective) runs through a
:class:`Contour`: each raises :class:`ConvergenceError` on a non-finite
value and warns when its error estimate misses the target.
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
    "Contour",
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


class Contour:
    """Bromwich nodes for abscissae ``x`` > 0, built once, and the one
    checked finish of every inversion.

    ``nodes`` (read-only) has shape (len(x), terms); on the fixed-Talbot
    contour column 0 is the real node.  :meth:`invert` and :meth:`cdf`
    raise :class:`ConvergenceError` on a non-finite result, and their
    :class:`ToleranceWarning` points at the line that called their caller.
    A caller holds one contour to invert many transforms on its nodes.
    """

    def __init__(self, x, cfg: LaplaceInversionConfig | None = None):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if np.any(x <= 0.0) or not np.all(np.isfinite(x)):
            raise ValueError("inversion abscissae must be finite and > 0")
        cfg = cfg or DEFAULT_CONFIG
        self.x, m, self._talbot = x, cfg.terms, cfg.method == "fixed-talbot"
        if self._talbot:
            theta = math.pi * np.arange(1, m) / m
            cot = 1.0 / np.tan(theta)
            self._r = 2.0 * m / (5.0 * x)
            s = np.column_stack((self._r + 0j, self._r[:, None] * theta * (cot + 1j)))
            self._sigma = theta + (theta * cot - 1.0) * cot
        else:
            self._m_binom = min(15, m // 4)
            # Vertical contour Re(s) = shift / (2x); alternating series in k.
            s = (0.5 * _CONTOUR_SHIFT + 1j * math.pi * np.arange(m))[None, :] / x[:, None]
            self._weights = _binomial_weights(self._m_binom)
            self._signs = np.ones(m)
            self._signs[1::2] = -1.0
            self._scale = np.exp(0.5 * _CONTOUR_SHIFT) / x
        s.flags.writeable = False
        self.nodes, self._flat = s, s.ravel()

    def _euler_sum(self, fvals):
        n_base = fvals.shape[1] - self._m_binom - 1
        terms = np.real(fvals) * self._signs[None, :]
        terms[:, 0] *= 0.5
        partial = np.cumsum(terms, axis=1)
        accel = partial[:, n_base:] @ self._weights
        # Error estimate: sensitivity of the accelerated value to dropping
        # the last two base terms.
        accel_back = partial[:, n_base - 2 : -2] @ self._weights
        values = self._scale * accel
        return values, np.abs(self._scale * (accel - accel_back))

    def _talbot_sum(self, fvals):
        r, x, m = self._r, self.x, fvals.shape[1]
        s, f0 = self.nodes[:, 1:], fvals[:, 0]
        inner = np.real(np.exp(s * x[:, None]) * fvals[:, 1:] * (1.0 + 1j * self._sigma[None, :]))
        head = 0.5 * np.real(f0) * np.exp(r * x)
        values = (r / m) * (head + inner.sum(axis=1))
        # Error estimate: drop the last (most oscillatory) contour node pair.
        return values, np.abs(values - (r / m) * (head + inner[:, :-1].sum(axis=1)))

    def _finish(self, fvals):
        values, err = (self._talbot_sum if self._talbot else self._euler_sum)(fvals.reshape(self.nodes.shape))
        bad = ~np.isfinite(values)
        if bad.any():
            raise ConvergenceError(
                f"inversion gave a non-finite value at x = {self.x[np.argmax(bad)]:.6g} "
                f"({np.count_nonzero(bad)} of {self.x.size} abscissae)"
            )
        est = err / np.maximum(np.abs(values), 1e-300)
        # The internal estimate is conservative by design; alarm only on a clear
        # order-of-magnitude miss, and say where the worst one is.
        missed = est > 10.0 * _PRECISION_TARGET
        if missed.any():
            i = int(np.argmax(est))
            warnings.warn(
                f"inversion error estimate {est[i]:.3g} exceeds target "
                f"{_PRECISION_TARGET:.3g} at x = {self.x[i]:.3g} "
                f"({np.count_nonzero(missed)} of {self.x.size} abscissae)",
                ToleranceWarning,
                stacklevel=4,
            )
        return values

    def invert(self, transform) -> np.ndarray:
        """The inverse of ``transform`` (s -> M(-s) gives the density) at ``x``."""
        return self._finish(transform(self._flat))

    def cdf(self, transform) -> np.ndarray:
        """The inverse of ``transform(s) / s``, the CDF, clipped to [0, 1];
        the clamps are tallied in ``clamp_counts``."""
        values = self._finish(transform(self._flat) / self._flat)
        clamp_counts["cdf_below_zero"] += int(np.count_nonzero(values < 0.0))
        clamp_counts["cdf_above_one"] += int(np.count_nonzero(values > 1.0))
        return np.clip(values, 0.0, 1.0)


def laplace_invert_density(transform, x, cfg: LaplaceInversionConfig | None = None):
    """Invert ``transform`` (s -> M(-s)) to the density at abscissa(e) x > 0.

    Deterministic for a fixed configuration; emits :class:`ToleranceWarning`
    when the internal estimate misses the 1e-9 precision target.  Small
    negative excursions are clamped to zero and counted in
    ``clamp_counts['density_negative']``.
    """
    values = Contour(x, cfg).invert(transform)
    neg = values < 0.0
    if neg.any():
        clamp_counts["density_negative"] += int(neg.sum())
        values = np.where(neg, 0.0, values)
    return values if np.ndim(x) else float(values[0])


def laplace_invert_cdf(transform, x, cfg: LaplaceInversionConfig | None = None):
    """Invert ``transform`` to the CDF at x > 0 via the extra 1/s factor.

    Results are clamped to [0, 1]; clamps are tallied in ``clamp_counts``.
    """
    values = Contour(x, cfg).cdf(transform)
    return values if np.ndim(x) else float(values[0])


def phi2_multi_rate(b, c, rates, x, cfg: LaplaceInversionConfig | None = None):
    """Confluent hypergeometric Phi_2^(n)(b_1..b_n; c; rate_1 x, .., rate_n x).

    Evaluated through its Laplace representation
        Phi_2(b; c; rate x) = Gamma(c) x^(1-c) L^-1[ s^-c prod_i
        (1 - rate_i / s)^(-b_i) ](x),
    which needs only elementary factors on the contour.  Intended for
    non-positive rates (decaying mixtures), where the transform is analytic
    on Re(s) > 0.
    """
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

    contour = Contour(x, cfg)
    values = contour.invert(transform) * np.exp(math.lgamma(c) + (1.0 - c) * np.log(contour.x))
    return values if np.ndim(x) else float(values[0])
