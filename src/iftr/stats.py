"""Distribution of the received SNR (or squared envelope) of the channel.

The moment generating function is available in closed form for arbitrary
real fluctuation shapes; when the shape attached to one ray is a positive
integer it collapses to a finite sum of elementary terms.  Densities and
distribution functions are obtained by numerically inverting the MGF on a
Bromwich contour: the general MGF by default (valid for any shapes), or
-- for integer shapes -- the finite-sum MGF (the closed-form route), on
the same contour.  The two routes cross-validate each other.

Frozen fluctuations are requested with ``m = math.inf``: both shapes
infinite gives the two-wave-with-diffuse-power (TWDP) limit, additionally
``delta = 0`` gives Rice, and ``delta = 0`` with finite ``m1`` is the
Rician-shadowed special case; ``params.family_params`` builds these rows.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache, partial

import numpy as np

from .laplace import (
    LaplaceInversionConfig,
    laplace_invert_cdf,
    laplace_invert_density,
    log1p_c,
)
from .params import IftrParams, ValidationError
from .specfun import ConvergenceError, _log_factorials, hyp2f1_ln, kummer_1f1_ln, log_i0

__all__ = [
    "DistributionDomain",
    "ApproximationWarning",
    "mgf",
    "mgf_integer_m1",
    "rician_shadowed_pdf",
    "pdf",
    "cdf",
    "cdf_asymptotic_slope",
    "convergence_abscissa",
]

POLE_TOLERANCE = 1e-12


class ApproximationWarning(UserWarning):
    """A returned value is a documented one-sided approximation."""


class DistributionDomain(Enum):
    """Interpretation of abscissae: instantaneous SNR or signal envelope.

    In the envelope domain the scale parameter of :class:`IftrParams` is
    read as the mean squared envelope and densities transform as
    ``f_r(r) = 2 r f_snr(r^2)``, ``F_r(r) = F_snr(r^2)``.
    """

    SNR = "snr"
    ENVELOPE = "envelope"


def _contour_pieces(k: float, mean_snr: float, s):
    """(A, log B) for the rational contour kernels.

    ``A = gbar s / (1 + K - gbar s)`` and ``B = (1 + K) / (1 + K - gbar s)``.
    Raises on pole proximity.
    """
    s_arr = np.asarray(s, dtype=complex)
    t = mean_snr * s_arr
    denom = (1.0 + k) - t
    if np.any(np.abs(denom) < POLE_TOLERANCE):
        raise ValueError(f"MGF pole proximity: |1 + K - gbar s| < {POLE_TOLERANCE:g}")
    a_frac = t / denom
    log_b = math.log1p(k) - np.log(denom)
    return a_frac, log_b


def _finalize(values: np.ndarray, s) -> np.ndarray | complex | float:
    if np.ndim(s) == 0:
        value = complex(values)
        if np.isrealobj(np.asarray(s)) and abs(value.imag) <= 1e-12 * max(1.0, abs(value.real)):
            return value.real
        return value
    if np.isrealobj(np.asarray(s)):
        if np.all(np.abs(values.imag) <= 1e-12 * np.maximum(1.0, np.abs(values.real))):
            return values.real
    return values


def _add_specular_log(p: IftrParams, exponent, a_frac):
    """``exponent`` plus the log of the MGF's specular factor at
    ``A = gbar s / (1 + K - gbar s)``.

    The one place that tells frozen shapes from finite ones.  Frozen rays
    give exp(K A) I0(Delta K A); otherwise each ray contributes its Gamma
    factor (1 - p_i A / m_i)^(-m_i), and two rays couple through
    2F1(m1, m2; 1; z).
    """
    if p.delta > 0.0 and (p.m1 == math.inf) != (p.m2 == math.inf):
        raise NotImplementedError(
            "frozen fluctuation on only one ray with delta > 0 has no closed "
            "MGF here; freeze both shapes or keep both finite"
        )
    if p.m1 == math.inf and (p.m2 == math.inf or p.delta == 0.0):
        exponent = exponent + p.k * a_frac
        if p.delta > 0.0:
            exponent = exponent + log_i0(p.delta * p.k * a_frac)
        return exponent
    p1, p2 = p.ray_power_ratios()
    m1 = p.m1
    # With delta == 0 the weaker-ray factor is identically 1, so an infinite
    # m2 is inert; substitute a benign finite value for the arithmetic.
    m2 = 1.0 if (p2 == 0.0 and p.m2 == math.inf) else p.m2
    if p1 > 0.0:
        exponent = exponent - m1 * log1p_c(-(p1 / m1) * a_frac)
    if p2 > 0.0:
        exponent = exponent - m2 * log1p_c(-(p2 / m2) * a_frac)
    if p1 > 0.0 and p2 > 0.0:
        f1 = m1 - p1 * a_frac
        f2 = m2 - p2 * a_frac
        z = (p1 * p2) * a_frac * a_frac / (f1 * f2)
        one_minus_z = (m1 * m2 - (m1 * p2 + m2 * p1) * a_frac) / (f1 * f2)
        exponent = exponent + hyp2f1_ln(m1, m2, 1.0, z, one_minus_z=one_minus_z)
    return exponent


def mgf(p: IftrParams, s):
    """Moment generating function E[exp(s gamma)] of the SNR.

    Valid for real s <= 0 and complex s with ``Re(gbar s) < 1 + K`` away
    from the transform singularities (automatic on inversion contours).
    M(0) = 1 exactly.  Shapes set to ``math.inf`` route to the matching
    frozen-fluctuation closed form.
    """
    a_frac, log_b = _contour_pieces(p.k, p.mean_snr, s)
    return _finalize(np.exp(_add_specular_log(p, log_b, a_frac)), s)


_MAX_SUM_TERMS = 400
# log n! for n < _MAX_SUM_TERMS: every factorial the integer-shape sums need.
_LOG_FACTORIAL = _log_factorials(_MAX_SUM_TERMS)


def _integer_shape(value: float) -> int | None:
    if math.isfinite(value) and abs(value - round(value)) < 1e-9 and round(value) >= 1:
        return int(round(value))
    return None


@dataclass(frozen=True)
class _IntegerShapeForm:
    """The finite sum behind the integer-shape MGF, PDF/CDF and exact BER.

    With the integer shape m_A on the ray of power ratio p_A and the other
    shape m_B on the ray of power ratio p_B,

        M(s) = sum_n exp(c_n) (-s)^(2n) prod_i (lam_i - s)^(-b_n,i),

    over n = 0..m_A - 1 (n = 0 alone when K Delta = 0), with the positive
    rates lam = (1 + K)/gbar (1, m_A/a_1, m_A m_B/a_2), a_1 = m_A + p_A,
    a_2 = m_A p_B + m_B p_A + m_A m_B, and b_n = (n + 1 - m_A, m_A - m_B,
    m_B + n).  Summand n of the PDF is exp(c_n) Phi_2(b_n; 1; -lam x), and
    its Q-function average is a Lauricella F_D term.
    """

    m_int: int
    m_other: float
    p_int: float
    p_other: float
    log_coeff: np.ndarray  # c_n
    rates: np.ndarray  # lam
    exponents: np.ndarray  # rows b_n

    @classmethod
    def from_split(cls, p: IftrParams, m_int: int, m_other: float, p_int: float, p_other: float):
        """The form with ``m_int`` attached to the ray of power ratio
        ``p_int``; the two orderings realize the labeling symmetry."""
        k, gbar = p.k, p.mean_snr
        mA, mB = float(m_int), float(m_other)
        a1 = mA + p_int
        a2 = mA * p_other + mB * p_int + mA * mB
        rates = np.array(
            [
                (1.0 + k) / gbar,
                mA * (1.0 + k) / (a1 * gbar),
                mA * mB * (1.0 + k) / (a2 * gbar),
            ]
        )
        size = m_int if p.delta > 0.0 else 1
        n = np.arange(size)
        log_fact_n = _LOG_FACTORIAL[:size]  # log n!
        log_coeff = (
            math.log1p(k)
            - math.log(gbar)
            + mA * math.log(mA)
            + mB * math.log(mB)
            + (mB - mA) * math.log(a1)
            - log_fact_n
            + _LOG_FACTORIAL[m_int - 1]
            - log_fact_n
            - _LOG_FACTORIAL[m_int - 1 - n]
            + np.array([math.lgamma(mB + j) for j in range(size)])
            - math.lgamma(mB)
            - (mB + n) * math.log(a2)
        )
        if n.size > 1:
            log_coeff += 2.0 * n * math.log(0.5 * k * p.delta)
        exponents = np.column_stack((n + 1.0 - mA, np.full(n.size, mA - mB), mB + n))
        return cls(m_int, mB, p_int, p_other, log_coeff, rates, exponents)

    def mgf(self, s):
        s_arr = np.asarray(s, dtype=complex)
        flat = np.atleast_1d(s_arr).ravel()
        n = np.arange(self.log_coeff.size)[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            log_terms = (
                self.log_coeff[:, None]
                + np.where(n > 0, 2.0 * n * np.log(-flat), 0.0)
                - self.exponents @ np.log(self.rates[:, None] - flat)
            )
        # Accumulated at scaled magnitude; all terms are positive for real s <= 0.
        shift = np.max(log_terms.real, axis=0)
        scaled = np.exp(log_terms - shift)
        total, spread = np.sum(scaled, axis=0), np.sum(np.abs(scaled), axis=0)
        # Past sum |term| / |sum| = 1e6 fewer than ~10 of the 16 digits are left.
        bad = spread > 1e6 * np.abs(total)
        if bad.any():
            ratio = np.max(spread[bad] / np.abs(total[bad]))
            raise ConvergenceError(f"the finite sum at m_int = {self.m_int} cancels: sum |term| / |sum| = {ratio:.3g}")
        return _finalize((np.exp(shift) * total).reshape(s_arr.shape), s)


def _integer_shape_form(p: IftrParams) -> _IntegerShapeForm | None:
    """The finite-sum form led by m1, else by m2: the leading shape must be
    a positive integer (within 1e-9) of at most 400 and the other finite."""
    p1, p2 = p.ray_power_ratios()
    for m_lead, m_other, p_lead, p_other in ((p.m1, p.m2, p1, p2), (p.m2, p.m1, p2, p1)):
        m_int = _integer_shape(m_lead)
        if m_int is not None and m_int <= _MAX_SUM_TERMS and math.isfinite(m_other):
            return _IntegerShapeForm.from_split(p, m_int, m_other, p_lead, p_other)
    return None


def _require_integer_shape_form(p: IftrParams, route: str) -> _IntegerShapeForm:
    form = _integer_shape_form(p)
    if form is None:
        raise ValidationError(
            f"{route} needs a positive-integer fluctuation shape of at most "
            f"{_MAX_SUM_TERMS} and a finite other shape; got m1={p.m1}, m2={p.m2}"
        )
    return form


def mgf_integer_m1(p: IftrParams, s):
    """Finite-sum MGF for integer m1 (or, by the labeling symmetry, m2).

    Agrees with :func:`mgf` to better than 1e-9 relative, and raises
    :class:`ConvergenceError` where sum |term| / |sum| passes 1e6.  The
    closed-form PDF/CDF invert this sum, and the exact BER averages its summands.
    """
    form = _require_integer_shape_form(p, "finite-sum MGF")
    _contour_pieces(p.k, p.mean_snr, s)  # raises at the pole, as mgf does
    return form.mgf(s)


def convergence_abscissa(p: IftrParams) -> float:
    """Leftmost singularity of the MGF on the positive real s-axis.

    Equals ``(1 + K) / gbar * m1 m2 / a2``; the inversion contours used
    here keep Re(s) > 0 in the transform variable, i.e. strictly left of
    it, which this bound documents and the tests assert.
    """
    p1, p2 = p.ray_power_ratios()
    inv = 1.0 + (p1 / p.m1 if p.m1 != math.inf else 0.0) + (
        p2 / p.m2 if p.m2 != math.inf else 0.0
    )
    return (1.0 + p.k) / p.mean_snr / inv


def _snr_abscissae(x, domain):
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    if domain is DistributionDomain.ENVELOPE:
        return x_arr * x_arr
    return x_arr


def _inversion_route(p: IftrParams, x_snr: np.ndarray, cfg, method: str):
    """(transform s -> M(-s), contour config) shared by :func:`pdf` and :func:`cdf`.

    ``method='inversion'`` inverts :func:`mgf`; ``method='closed-form'``
    inverts the integer-shape finite sum.  Both run on the same contour.
    The MGF varies on |s| ~ (1 + K) / mean_snr; a contour for abscissa x
    reaches |s| ~ pi * terms / x, so resolving a sharply concentrated
    (large K) distribution needs terms growing like x (1 + K) / mean_snr.
    When no config is given the node count is sized to that demand; an
    explicit config is honored as-is.  Either way a warning flags
    abscissae beyond what the node cap can resolve.
    """
    if method == "inversion":
        transform_mgf = partial(mgf, p)
    elif method == "closed-form":
        transform_mgf = _require_integer_shape_form(p, "closed-form route").mgf
    else:
        raise ValueError(f"unknown method {method!r}")
    demand = float(np.max(x_snr)) * (1.0 + p.k) / p.mean_snr
    # Capped before int(), which an infinite demand (K near 1e308) overflows.
    needed = int(math.ceil(min(2.0 * demand / math.pi, 1e6))) + 16
    if cfg is None:
        cfg = LaplaceInversionConfig(terms=min(max(64, needed), 512))
    if needed > cfg.terms:
        warnings.warn(
            f"contour with {cfg.terms} nodes cannot resolve the transform "
            f"scale (x (1+K)/scale = {demand:.3g}); deep-saturation values "
            "may be inflated -- raise terms",
            ApproximationWarning,
            stacklevel=3,
        )
    return (lambda s: transform_mgf(-s)), cfg


def pdf(p: IftrParams, x, domain=DistributionDomain.SNR, cfg: LaplaceInversionConfig | None = None, method: str = "inversion"):
    """Density of the SNR (or of the envelope, with the scale read as the
    mean squared envelope).

    ``method='inversion'`` (default) inverts the general MGF and works for
    any real shapes; ``method='closed-form'`` inverts the integer-shape
    finite-sum MGF as an independent route.  ``x = 0`` returns a one-sided
    extrapolation from 1e-8 * scale and warns.
    """
    domain = DistributionDomain(domain)
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all(x_arr >= 0.0):
        raise ValueError("abscissae must be >= 0 and not NaN")
    at_zero = x_arr == 0.0
    if at_zero.any():
        warnings.warn(
            "density at 0 is extrapolated one-sidedly from 1e-8 * scale",
            ApproximationWarning,
            stacklevel=2,
        )
    eps0 = 1e-8 * p.mean_snr
    x_snr = _snr_abscissae(np.where(at_zero, math.sqrt(eps0) if domain is DistributionDomain.ENVELOPE else eps0, x_arr), domain)
    transform, cfg = _inversion_route(p, x_snr, cfg, method)
    vals = laplace_invert_density(transform, x_snr, cfg)
    if domain is DistributionDomain.ENVELOPE:
        r = np.where(at_zero, math.sqrt(eps0), x_arr)
        vals = 2.0 * r * vals
    return vals if np.ndim(x) else float(vals[0])


def cdf(p: IftrParams, x, domain=DistributionDomain.SNR, cfg: LaplaceInversionConfig | None = None, method: str = "inversion"):
    """Distribution function; nondecreasing with F(0) = 0, clamped to [0, 1].

    Within one call the values are projected onto the nondecreasing cone
    (in abscissa order): the exact distribution function is monotone, so
    the projection only removes sub-precision inversion wiggle near
    saturation.  No ordering is guaranteed across separate calls beyond
    the engine precision.
    """
    domain = DistributionDomain(domain)
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all(x_arr >= 0.0):
        raise ValueError("abscissae must be >= 0 and not NaN")
    positive = x_arr > 0.0
    out = np.zeros(x_arr.shape, dtype=float)
    if positive.any():
        x_snr = _snr_abscissae(x_arr[positive], domain)
        transform, cfg = _inversion_route(p, x_snr, cfg, method)
        vals = laplace_invert_cdf(transform, x_snr, cfg)
        order = np.argsort(x_snr, kind="stable")
        vals[order] = np.maximum.accumulate(vals[order])
        out[positive] = vals
    return out if np.ndim(x) else float(out[0])


def cdf_asymptotic_slope(p: IftrParams) -> float:
    """Coefficient c with F(x) ~ c x in the high-mean-SNR (deep fade) regime.

    The distribution has diversity order one; this is the exact leading
    coefficient of the CDF at the origin: the limit of -s M(s) as
    s -> -inf, where A -> -1 and -s B -> (1 + K) / mean_snr.

    The slope is exactly proportional to 1 / mean_snr, so its value at
    mean SNR 1 is computed once per channel shape (cached) and divided by
    mean_snr.  A shape's first call sums its 2F1, typically in 0.1-1 ms;
    repeated calls cost a cache lookup.  A shape that raises is
    not cached, so it raises on every call.
    """
    return _unit_mean_slope(p.with_mean_snr(1.0)) / p.mean_snr


@lru_cache(maxsize=256)
def _unit_mean_slope(p: IftrParams) -> float:
    return math.exp(float(np.real(_add_specular_log(p, math.log1p(p.k), -1.0))))


def rician_shadowed_pdf(k: float, m: int, mean_snr: float, x):
    """Closed-form Rician-shadowed SNR density for integer shape m.

    Serves as an independent reference for the ``delta -> 0`` behavior of
    the two-ray model.
    """
    m_int = _integer_shape(float(m))
    if m_int is None:
        raise ValueError(f"m must be a positive integer, got {m!r}")
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    rate = (1.0 + k) / mean_snr
    log_pref = math.log(rate) + m_int * (math.log(m_int) - math.log(m_int + k))
    arg_scale = k * rate / (m_int + k)
    vals = np.exp(log_pref - rate * x_arr + kummer_1f1_ln(m_int, arg_scale * x_arr))
    return vals if np.ndim(x) else float(vals[0])
