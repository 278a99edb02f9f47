import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import i0

from iftr.laplace import LaplaceInversionConfig
from iftr.linkperf import ber_exact, ber_mgf_quadrature
from iftr.params import IftrParams, ModulationSpec, ValidationError, family_params
from iftr.specfun import ConvergenceError
from iftr.stats import (
    ApproximationWarning,
    DistributionDomain,
    cdf,
    cdf_asymptotic_slope,
    convergence_abscissa,
    mgf,
    mgf_integer_m1,
    pdf,
    rician_shadowed_pdf,
)
from iftr.stats import _IntegerShapeForm, _integer_shape_form


def random_params(rng, integer_m1=False, k_max=30.0):
    k = rng.uniform(0.1, k_max)
    delta = rng.uniform(0.0, 1.0)
    m1 = float(rng.integers(1, 9)) if integer_m1 else rng.uniform(0.5, 50.0)
    m2 = rng.uniform(0.5, 50.0)
    gbar = rng.uniform(0.25, 4.0)
    return IftrParams(k=k, delta=delta, m1=m1, m2=m2, mean_snr=gbar)


# ---------------------------------------------------------------------------
# MGF
# ---------------------------------------------------------------------------

def test_mgf_at_zero_is_one_exactly():
    p = IftrParams(k=15, delta=0.5, m1=2.7, m2=4.1, mean_snr=3.0)
    assert mgf(p, 0.0) == 1.0


def test_mgf_diffuse_only_is_exponential():
    p = IftrParams(k=0.0, delta=0.0, m1=3, m2=5, mean_snr=2.0)
    for s in (-0.1, -1.0, -7.0):
        assert mgf(p, s) == pytest.approx(1.0 / (1.0 - 2.0 * s), rel=1e-14)


def test_mgf_delta_zero_equals_rician_shadowed_closed_form():
    p = IftrParams(k=5.0, delta=0.0, m1=3.0, m2=17.3, mean_snr=1.0)
    for s in (-0.3, -1.0, -10.0):
        # With delta = 0 the second ray carries no power, so m2 is inert:
        # B (1 - (K/m) A)^(-m), A = gbar s / (1 + K - gbar s)
        a_frac = s / (6.0 - s)
        closed = 6.0 / (6.0 - s) * (1.0 - 5.0 / 3.0 * a_frac) ** -3.0
        assert mgf(p, s) == pytest.approx(closed, rel=1e-10)
    for m in (0.0, -1.0):
        with pytest.raises(ValidationError):
            family_params("rician-shadowed", k=5.0, m1=m)


def test_mgf_pole_proximity_error():
    p = IftrParams(k=1.0, delta=0.5, m1=2, m2=2, mean_snr=1.0)
    with pytest.raises(ValueError):
        mgf(p, 2.0)  # 1 + K - gbar s = 0
    with pytest.raises(ValueError):
        mgf_integer_m1(p, 2.0)


def test_mgf_cross_form_random_sweep():
    rng = np.random.default_rng(101)
    for _ in range(100):
        p = random_params(rng, integer_m1=True)
        for s_scaled in (-0.1, -1.0, -10.0):
            s = s_scaled / p.mean_snr
            a = mgf(p, s)
            b = mgf_integer_m1(p, s)
            assert b == pytest.approx(a, rel=1e-9), p


def test_mgf_integer_m2_via_labeling_swap():
    p = IftrParams(k=12.0, delta=0.7, m1=2.6, m2=4.0, mean_snr=1.5)
    for s in (-0.2, -2.0):
        assert mgf_integer_m1(p, s) == pytest.approx(mgf(p, s), rel=1e-9)


def test_finite_sum_labeling_symmetry():
    # Swapping the shapes together with the ray roles is the identity.
    p = IftrParams(k=9.0, delta=0.6, m1=3, m2=5, mean_snr=2.0)
    p1, p2 = p.ray_power_ratios()
    for s in (-0.5, -3.0):
        a = _IntegerShapeForm.from_split(p, 3, 5.0, p1, p2).mgf(s)
        b = _IntegerShapeForm.from_split(p, 5, 3.0, p2, p1).mgf(s)
        assert a == pytest.approx(b, rel=1e-12)


@pytest.mark.parametrize("m_int", [1, 2, 3, 8, 40, 100, 250, 399, 400])
def test_integer_shape_coefficients_match_the_gammaln_formula(m_int):
    # Each c_n is a sum of terms up to ~5e3 in size (log Gamma(m_int),
    # (m_B + n) log a_2), so it is compared at the rounding of its largest term.
    from scipy.special import gammaln

    for k, delta, m_other in ((10.0, 0.9, 2.3), (300.0, 1.0, 0.7), (0.5, 0.5, 80.0), (3.0, 0.0, 5.5)):
        p = IftrParams(k=k, delta=delta, m1=m_int, m2=m_other, mean_snr=2.0)
        form = _integer_shape_form(p)
        mA, mB, pA, pB = float(m_int), m_other, form.p_int, form.p_other
        a1 = mA + pA
        a2 = mA * pB + mB * pA + mA * mB
        n = np.arange(m_int if delta > 0.0 else 1)
        terms = [
            math.log1p(k) - math.log(p.mean_snr) + mA * math.log(mA) + mB * math.log(mB) + (mB - mA) * math.log(a1),
            -gammaln(n + 1),
            gammaln(mA),
            -gammaln(n + 1),
            -gammaln(mA - n),
            gammaln(mB + n),
            -gammaln(mB),
            -(mB + n) * math.log(a2),
        ]
        if n.size > 1:
            terms.append(2.0 * n * math.log(0.5 * k * delta))
        want = sum(terms)
        scale = max(np.max(np.abs(t)) for t in terms)
        assert form.m_int == m_int and form.log_coeff.shape == n.shape
        assert np.max(np.abs(form.log_coeff - want)) <= 1e-14 * scale, (k, delta, m_other)


@pytest.mark.parametrize(
    "m1, m2, lead",
    [
        (2 + 5e-10, 2.5, 2),  # within 1e-9 of an integer counts as one
        (500.0, 3.0, 3),  # m1 beyond the 400-term cap: m2 leads
        (500.0, 2.5, None),  # no shape qualifies
    ],
)
def test_one_integer_shape_rule_for_every_finite_sum_route(m1, m2, lead):
    p = IftrParams(k=5.0, delta=0.5, m1=m1, m2=m2, mean_snr=2.0)
    bpsk = ModulationSpec.bpsk()
    s = np.array([-0.1, -1.0, -10.0]) / p.mean_snr
    x = np.array([0.05, 0.5, 2.0, 6.0])
    form = _integer_shape_form(p)
    if lead is None:
        assert form is None
        with pytest.raises(ValidationError, match="400"):
            mgf_integer_m1(p, s)
        with pytest.raises(ValidationError, match="400"):
            cdf(p, x, method="closed-form")
        with pytest.warns(UserWarning, match="at most 400"):
            assert ber_exact(p, bpsk).method == "mgf-quadrature"
        return
    assert form.m_int == lead
    np.testing.assert_allclose(mgf_integer_m1(p, s), mgf(p, s), rtol=1e-9)
    np.testing.assert_allclose(cdf(p, x, method="closed-form"), cdf(p, x), rtol=1e-8)
    exact = ber_exact(p, bpsk)
    assert exact.method == "lauricella-exact"
    assert exact.value == pytest.approx(ber_mgf_quadrature(p, bpsk).value, rel=1e-9)


def test_mgf_rejects_one_sided_frozen_shape_with_delta():
    p = IftrParams(k=2.0, delta=0.5, m1=math.inf, m2=2.0)
    with pytest.raises(NotImplementedError):
        mgf(p, -1.0)
    with pytest.raises(NotImplementedError):
        cdf_asymptotic_slope(p)


def test_mgf_complex_contour_magnitude_bound():
    # |E exp(s gamma)| <= 1 for Re(s) <= 0.
    p = IftrParams(k=80.0, delta=0.95, m1=0.6, m2=30.0, mean_snr=1.0)
    s = -0.5 + 1j * np.linspace(-200, 200, 101)
    vals = mgf(p, s)
    assert np.all(np.abs(vals) <= 1.0 + 1e-12)


# ---------------------------------------------------------------------------
# Frozen-fluctuation limits
# ---------------------------------------------------------------------------

def test_twdp_limit_normalization_and_rice_reduction():
    assert mgf(family_params("twdp", k=15.0, delta=0.9), 0.0) == 1.0
    # Delta = 0 leaves the Rice MGF B exp(K A), A = gbar s / (1 + K - gbar s).
    for s in (-0.4, -3.0):
        want = 8.0 / (8.0 - 2.0 * s) * math.exp(7.0 * 2.0 * s / (8.0 - 2.0 * s))
        assert mgf(family_params("twdp", 2.0, k=7.0, delta=0.0), s) == pytest.approx(want, rel=1e-14)


def test_twdp_limit_matches_large_shape_evaluation():
    k, delta, gbar = 15.0, 0.9, 1.0
    p = IftrParams(k=k, delta=delta, m1=1e5, m2=1e5, mean_snr=gbar)
    s = -2.0
    a = mgf(p, s)
    b = mgf(family_params("twdp", gbar, k=k, delta=delta), s)
    assert a == pytest.approx(b, rel=1e-3)


def test_rice_limit_large_shape():
    k, gbar = 15.0, 1.0
    p = IftrParams(k=k, delta=0.0, m1=1e6, m2=3.0, mean_snr=gbar)
    for s in (-0.1, -1.0, -10.0):
        assert mgf(p, s) == pytest.approx(mgf(family_params("rice", gbar, k=k), s), rel=1e-4)


def test_frozen_shapes_route_to_twdp():
    # Frozen rays give the TWDP MGF B exp(K A) I0(Delta K A).
    p = IftrParams(k=15.0, delta=0.9, m1=math.inf, m2=math.inf, mean_snr=1.0)
    for s in (-0.7, -4.0):
        a = s / (16.0 - s)
        want = 16.0 / (16.0 - s) * math.exp(15.0 * a) * i0(0.9 * 15.0 * a)
        assert mgf(p, s) == pytest.approx(want, rel=1e-14)


# ---------------------------------------------------------------------------
# PDF / CDF
# ---------------------------------------------------------------------------

def test_pdf_cdf_exponential_limit():
    p = IftrParams(k=0.0, delta=0.0, m1=1, m2=1, mean_snr=1.0)
    assert pdf(p, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-9)
    assert cdf(p, 3.0) == pytest.approx(1.0 - math.exp(-3.0), rel=1e-9)
    assert cdf(p, 0.0) == 0.0


def test_nan_abscissa_is_rejected():
    for fn in (pdf, cdf):
        with pytest.raises(ValueError, match="abscissae must be >= 0 and not NaN"):
            fn(IftrParams(3, 0.5, 2, 2), [1.0, math.nan])


def test_huge_k_warns_instead_of_overflowing_the_node_demand():
    with pytest.warns(ApproximationWarning):
        values = cdf(IftrParams(1e308, 0.0, math.inf, math.inf), [0.5, 2.0])
    assert values.shape == (2,)


def test_pdf_at_zero_warns_and_extrapolates():
    p = IftrParams(k=0.0, delta=0.0, m1=1, m2=1, mean_snr=1.0)
    with pytest.warns(ApproximationWarning):
        val = pdf(p, 0.0)
    assert val == pytest.approx(1.0, rel=1e-6)


def test_closed_form_and_inversion_routes_agree():
    p = IftrParams(k=15.0, delta=0.9, m1=2, m2=10, mean_snr=1.0)
    x = np.array([1e-4, 1e-2, 0.1, 0.5, 1.0, 2.0, 5.0])
    np.testing.assert_allclose(
        cdf(p, x), cdf(p, x, method="closed-form"), rtol=1e-8
    )
    np.testing.assert_allclose(
        pdf(p, x), pdf(p, x, method="closed-form"), rtol=1e-5
    )


def test_closed_form_route_on_concentrated_channel():
    # K = 3000 concentrates the SNR around its mean; the closed-form route
    # needs the same auto-sized contour as the inversion route there.
    p = IftrParams(k=3000.0, delta=0.0, m1=300, m2=2, mean_snr=1.0)
    x = np.array([0.8, 0.9, 1.0, 1.1])
    np.testing.assert_allclose(
        pdf(p, x, method="closed-form"), rician_shadowed_pdf(3000.0, 300, 1.0, x), rtol=1e-9
    )
    np.testing.assert_allclose(cdf(p, x, method="closed-form"), cdf(p, x), rtol=1e-8)


def test_pdf_normalization_and_mean():
    rng = np.random.default_rng(33)
    for _ in range(3):
        p = random_params(rng)
        total, _ = quad(lambda x: pdf(p, x), 0.0, 60.0 * p.mean_snr, limit=300)
        assert total == pytest.approx(1.0, abs=1e-6)
        mean, _ = quad(lambda x: x * pdf(p, x), 0.0, 60.0 * p.mean_snr, limit=300)
        assert mean == pytest.approx(p.mean_snr, rel=1e-4)


def test_mgf_pdf_consistency():
    p = IftrParams(k=10.0, delta=0.5, m1=3.3, m2=2.0, mean_snr=1.0)
    for s_scaled in (-0.5, -1.0, -2.0):
        s = s_scaled / p.mean_snr
        integral, _ = quad(lambda x: math.exp(s * x) * pdf(p, x), 0.0, 60.0, limit=300)
        assert integral == pytest.approx(float(mgf(p, s)), abs=1e-6)


def test_cdf_monotone_on_random_grids():
    rng = np.random.default_rng(44)
    for _ in range(5):
        p = random_params(rng)
        x = np.sort(rng.uniform(1e-3, 10.0 * p.mean_snr, size=40))
        F = cdf(p, x)
        assert np.all(np.diff(F) >= -1e-12)
        assert np.all((0.0 <= F) & (F <= 1.0))


def test_envelope_domain_change_of_variables():
    p = IftrParams(k=15.0, delta=0.9, m1=10, m2=10, mean_snr=1.0)
    r = np.array([0.3, 0.8, 1.2])
    np.testing.assert_allclose(
        pdf(p, r, domain=DistributionDomain.ENVELOPE), 2.0 * r * pdf(p, r * r), rtol=1e-12
    )
    np.testing.assert_allclose(
        cdf(p, r, domain="envelope"), cdf(p, r * r), rtol=1e-12
    )


def test_a_non_finite_inversion_raises_naming_the_abscissa():
    # At this seeded point the contour MGF overflows to NaN; pdf and cdf
    # must raise rather than return it.
    p = IftrParams(k=369073.33, delta=0.19935, m1=398.80, m2=0.21114, mean_snr=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for f in (cdf, pdf):
            with pytest.raises(ConvergenceError, match=r"non-finite value at x = 0\.52746 \(1 of 2 "):
                f(p, np.array([0.52746, 1e-3]))


def test_pdf_close_to_rician_shadowed_at_small_delta():
    p = IftrParams(k=15.0, delta=0.1, m1=3, m2=5, mean_snr=1.0)
    got = pdf(p, 0.5)
    ref = rician_shadowed_pdf(15.0, 3, 1.0, 0.5)
    assert got == pytest.approx(ref, rel=0.02)


def test_rician_shadowed_pdf_on_the_fig2_grid_matches_per_point_sums():
    # One array call against the closed form summed point by point with
    # scipy's logsumexp, in the same order of operations.
    from scipy.special import gammaln, logsumexp

    k, m = 15.0, 3
    x = np.linspace(0.01, 4.0, 400)
    rate = 1.0 + k
    log_pref = math.log(rate) + m * (math.log(m) - math.log(m + k))
    n = np.arange(m)
    log_binom = gammaln(m) - gammaln(n + 1) - gammaln(m - n)

    def log_1f1(z):
        return z + float(logsumexp(log_binom + n * math.log(z) - gammaln(n + 1)))

    want = [math.exp(log_pref - rate * xi + log_1f1(k * rate / (m + k) * xi)) for xi in x]
    np.testing.assert_allclose(rician_shadowed_pdf(k, m, 1.0, x), want, rtol=1e-14, atol=0.0)


def test_rician_shadowed_pdf_normalizes():
    total, _ = quad(lambda x: rician_shadowed_pdf(7.0, 4, 1.0, x), 0.0, 80.0, limit=300)
    assert total == pytest.approx(1.0, abs=1e-8)


# ---------------------------------------------------------------------------
# Asymptotic slope
# ---------------------------------------------------------------------------

def test_slope_k_zero():
    p = IftrParams(k=0.0, delta=0.0, m1=2, m2=2, mean_snr=4.0)
    assert cdf_asymptotic_slope(p) == pytest.approx(0.25, rel=1e-12)


def test_slope_delta_zero_closed_form():
    k, m, gbar = 6.0, 3.0, 2.0
    p = IftrParams(k=k, delta=0.0, m1=m, m2=9.9, mean_snr=gbar)
    want = (1.0 + k) / gbar * m ** m / (m + k) ** m
    assert cdf_asymptotic_slope(p) == pytest.approx(want, rel=1e-12)


def test_slope_frozen_limit():
    for k, delta, gbar in ((15.0, 0.9, 3.0), (4.0, 0.0, 0.5), (40.0, 1.0, 2.0)):
        p = IftrParams(k=k, delta=delta, m1=math.inf, m2=math.inf, mean_snr=gbar)
        want = (1.0 + k) / gbar * math.exp(-k) * i0(k * delta)
        assert cdf_asymptotic_slope(p) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("k, delta, m1, m2", [(1e4, 1.0, 0.5, 0.5), (1e4, 0.9, 300.0, 250.0)])
def test_slope_at_large_shapes_against_mpmath(k, delta, m1, m2):
    # (1 + K) prod_i (1 + p_i/m_i)^(-m_i) 2F1(m1, m2; 1; z) at mean SNR 1;
    # the first case sums about 200,000 series terms at z = 1 - 2e-4.
    mpmath = pytest.importorskip("mpmath")
    p = IftrParams(k=k, delta=delta, m1=m1, m2=m2)
    with mpmath.workdps(40):
        p1, p2 = (mpmath.mpf(v) for v in p.ray_power_ratios())
        f1, f2 = m1 + p1, m2 + p2
        want = (1 + mpmath.mpf(k)) * (m1 / f1) ** m1 * (m2 / f2) ** m2 * mpmath.hyp2f1(m1, m2, 1, p1 * p2 / (f1 * f2))
        assert abs(cdf_asymptotic_slope(p) - want) <= 1e-12 * want


def test_slope_near_the_log_case_fails_loudly():
    # m1 + m2 = 1 and z = 1 - 2e-6: the ascending series would need ~2e7
    # terms, and the connection at z = 1 skips the log case c - a - b = 0.
    with pytest.raises(ConvergenceError):
        cdf_asymptotic_slope(IftrParams(k=1e6, delta=1.0, m1=0.5, m2=0.5))


def test_slope_is_the_unit_mean_slope_over_mean_snr():
    # The slope is cached per channel shape at mean SNR 1 and scaled.
    shape = dict(k=15.0, delta=0.5, m1=2.5, m2=7.3)
    unit = cdf_asymptotic_slope(IftrParams(mean_snr=1.0, **shape))
    for gbar in (1e-3, 0.7, 3.0, 1e4):
        assert cdf_asymptotic_slope(IftrParams(mean_snr=gbar, **shape)) == unit / gbar


def test_slope_raising_shapes_raise_on_every_call():
    # A failure is not cached: the same shape raises again, at any mean SNR.
    frozen = IftrParams(k=2.0, delta=0.5, m1=math.inf, m2=2.0)
    log_case = IftrParams(k=1e6, delta=1.0, m1=0.5, m2=0.5)
    for gbar in (1.0, 1.0, 20.0):
        with pytest.raises(NotImplementedError):
            cdf_asymptotic_slope(frozen.with_mean_snr(gbar))
    for gbar in (1.0, 1.0):
        with pytest.raises(ConvergenceError):
            cdf_asymptotic_slope(log_case.with_mean_snr(gbar))


def test_slope_against_cdf_oracle():
    p = IftrParams(k=15.0, delta=0.5, m1=5, m2=2, mean_snr=100.0)
    slope = cdf_asymptotic_slope(p)
    # At x = 1e-3 * gbar the linear correction is still ~1%; deeper in the
    # tail the ratio tightens.
    x = 1e-3 * p.mean_snr
    assert cdf(p, x) / x == pytest.approx(slope, rel=1e-2)
    x = 1e-5 * p.mean_snr
    assert cdf(p, x) / x == pytest.approx(slope, rel=3e-4)


def test_contour_autosizing_warns_when_unresolvable():
    # A sharply concentrated channel (huge K) varies on |s| ~ (1+K)/scale;
    # abscissae beyond the node cap's reach must be flagged, not silently
    # wrong.  The integer-shape closed-form route stays accurate there.
    p = IftrParams(k=14980.8, delta=0.5104, m1=10, m2=83.8, mean_snr=3.566)
    with pytest.warns(ApproximationWarning, match="resolve"):
        cdf(p, 0.42)
    ref = cdf(p, np.array([0.42, 0.76]), method="closed-form")
    assert 5e-4 < ref[0] < 2e-3  # matches a 1e6-sample Monte Carlo check
    # Moderate parameters stay warning-free on the default path.
    with warnings.catch_warnings():
        warnings.simplefilter("error", ApproximationWarning)
        cdf(IftrParams(k=15, delta=0.9, m1=2, m2=10, mean_snr=1.0), 0.42)


def test_convergence_abscissa_left_of_poles():
    rng = np.random.default_rng(66)
    for _ in range(200):
        p = random_params(rng)
        p1, p2 = p.ray_power_ratios()
        s_star = convergence_abscissa(p)
        rate = (1.0 + p.k) / p.mean_snr
        poles = [rate, rate * p.m1 / (p.m1 + p1), rate * p.m2 / (p.m2 + p2)]
        assert all(s_star <= pole * (1 + 1e-12) for pole in poles)
        # The MGF evaluates cleanly just left of the abscissa.
        assert np.isfinite(mgf(p, 0.5 * s_star))
