import math

import numpy as np
import pytest

from iftr.linkperf import (
    BerResult,
    ber_asymptotic,
    ber_exact,
    ber_mgf_quadrature,
    ber_monte_carlo,
    outage,
    outage_asymptotic,
)
from iftr.params import IftrParams, ModulationSpec, ValidationError
from iftr.stats import cdf

BPSK = ModulationSpec.bpsk()


def rayleigh_bpsk(gbar: float) -> float:
    return 0.5 * (1.0 - math.sqrt(gbar / (1.0 + gbar)))


def test_rayleigh_closed_form_exact_route():
    p = IftrParams(k=0, delta=0, m1=1, m2=1, mean_snr=10.0)
    res = ber_exact(p, BPSK)
    assert res.method == "lauricella-exact"
    assert res.value == pytest.approx(rayleigh_bpsk(10.0), rel=1e-10)


def test_rayleigh_closed_form_quadrature_route():
    p = IftrParams(k=0, delta=0, m1=1, m2=1, mean_snr=10.0)
    res = ber_mgf_quadrature(p, BPSK)
    assert res.method == "mgf-quadrature"
    assert res.value == pytest.approx(rayleigh_bpsk(10.0), rel=1e-10)


def test_zero_snr_limit_is_half():
    # CEP at zero SNR is Q(0) = 1/2 per unit-weight term; the average tends
    # there as the mean SNR vanishes.
    p = IftrParams(k=3.0, delta=0.5, m1=2, m2=2, mean_snr=1e-9)
    assert ber_exact(p, BPSK).value == pytest.approx(0.5, rel=1e-4)


def test_low_snr_boundary_layer_custom_modulation():
    # At mean SNR 1e-9 the Craig integrand falls from its plateau to zero
    # within sin^2 t ~ 1e-10 of t = 0; an adaptive quadrature that steps
    # over that layer misses the value by 1.7e-5 while reporting 6e-12.
    p = IftrParams(k=3.0, delta=0.5, m1=2, m2=2, mean_snr=1e-9)
    mod = ModulationSpec([(2.0, 0.3), (-0.5, 1.2)])
    exact = ber_exact(p, mod)
    quad = ber_mgf_quadrature(p, mod)
    gap = abs(exact.value - quad.value)
    assert gap <= 1e-9 * exact.value
    assert exact.est_error * exact.value >= gap
    assert quad.est_error * quad.value >= gap


@pytest.mark.parametrize("m1", [2, 5, 40])
def test_exact_error_estimate_at_fig4_points(m1):
    for db in range(0, 51, 5):
        p = IftrParams(k=15, delta=0.5, m1=m1, m2=2, mean_snr=10 ** (db / 10.0))
        est = ber_exact(p, BPSK).est_error
        assert math.isfinite(est) and 0.0 <= est <= 1e-10, (m1, db, est)


def test_exact_vs_quadrature_random_sweep():
    rng = np.random.default_rng(404)
    for _ in range(10):
        p = IftrParams(
            k=rng.uniform(0.1, 30.0),
            delta=rng.uniform(0.0, 1.0),
            m1=float(rng.integers(1, 9)),
            m2=rng.uniform(0.5, 50.0),
            mean_snr=rng.uniform(1.0, 300.0),
        )
        a = ber_exact(p, BPSK)
        b = ber_mgf_quadrature(p, BPSK)
        assert a.value == pytest.approx(b.value, rel=1e-6), p


def test_exact_works_with_integer_m2_only():
    p = IftrParams(k=5.0, delta=0.5, m1=2.7, m2=4, mean_snr=50.0)
    a = ber_exact(p, BPSK)
    assert a.method == "lauricella-exact"
    b = ber_mgf_quadrature(p, BPSK)
    assert a.value == pytest.approx(b.value, rel=1e-6)


def test_noninteger_shapes_fall_back_with_notice():
    p = IftrParams(k=5.0, delta=0.5, m1=2.5, m2=4.4, mean_snr=50.0)
    with pytest.warns(UserWarning, match="quadrature"):
        res = ber_exact(p, BPSK)
    assert res.method == "mgf-quadrature"


def test_integer_shape_beyond_term_cap_falls_back_naming_the_cap():
    p = IftrParams(k=5.0, delta=0.5, m1=500, m2=2.5, mean_snr=10.0)
    with pytest.warns(UserWarning, match="at most 400"):
        res = ber_exact(p, BPSK)
    assert res.method == "mgf-quadrature"
    assert res.value == ber_mgf_quadrature(p, BPSK).value


def test_exact_falls_back_when_theta_engine_does_not_converge():
    # At this mean SNR 20 of the 400 Lauricella integrals are still open at
    # the theta engine's node budget.
    p = IftrParams(k=300.0, delta=1.0, m1=400, m2=2.0, mean_snr=1e-9)
    with pytest.warns(UserWarning, match="did not converge.*MGF quadrature"):
        res = ber_exact(p, BPSK)
    assert res.method == "mgf-quadrature"
    assert res.value == pytest.approx(0.4999838267475, rel=1e-12)
    assert res.value == ber_mgf_quadrature(p, BPSK).value


def test_monte_carlo_agrees():
    p = IftrParams(k=15, delta=0.5, m1=5, m2=2, mean_snr=10.0)
    mc = ber_monte_carlo(p, BPSK, n_samples=10 ** 6, seed=8)
    exact = ber_exact(p, BPSK)
    assert abs(mc.value - exact.value) < 3 * mc.est_error * mc.value


def test_asymptotic_k0_quarter_over_snr():
    for gbar in (10.0, 400.0):
        p = IftrParams(k=0, delta=0, m1=2, m2=2, mean_snr=gbar)
        assert ber_asymptotic(p, BPSK).value == pytest.approx(0.25 / gbar, rel=1e-12)


def test_asymptotic_halves_when_snr_doubles():
    p1 = IftrParams(k=15, delta=0.5, m1=5, m2=2, mean_snr=100.0)
    p2 = p1.with_mean_snr(200.0)
    assert ber_asymptotic(p1, BPSK).value == pytest.approx(
        2.0 * ber_asymptotic(p2, BPSK).value, rel=1e-12
    )


def test_exact_approaches_asymptote():
    p = IftrParams(k=15, delta=0.5, m1=40, m2=2, mean_snr=1e5)
    ratio = ber_exact(p, BPSK).value / ber_asymptotic(p, BPSK).value
    assert ratio == pytest.approx(1.0, abs=0.02)
    p_hi = p.with_mean_snr(1e7)
    ratio_hi = ber_exact(p_hi, BPSK).value / ber_asymptotic(p_hi, BPSK).value
    assert abs(ratio_hi - 1.0) < abs(ratio - 1.0)


def test_ber_monotone_in_mean_snr():
    values = []
    for gbar_db in range(0, 41, 5):
        p = IftrParams(k=15, delta=0.5, m1=5, m2=2, mean_snr=10 ** (gbar_db / 10.0))
        values.append(ber_exact(p, BPSK).value)
    assert all(b < a for a, b in zip(values, values[1:]))
    assert all(0.0 < v <= 0.5 for v in values)


def test_outage_exponential_limit():
    p = IftrParams(k=0, delta=0, m1=1, m2=1, mean_snr=1.0)
    assert outage(p, 2.0) == pytest.approx(1.0 - math.exp(-3.0), rel=1e-9)
    assert outage(p, 0.0) == 0.0


def test_outage_matches_cdf_at_threshold():
    p = IftrParams(k=10, delta=0.9, m1=2, m2=8, mean_snr=10 ** 1.5)
    assert outage(p, 2.0) == pytest.approx(float(cdf(p, 3.0)), rel=1e-12)


def test_outage_monotone_in_threshold_and_snr():
    p = IftrParams(k=10, delta=0.9, m1=2, m2=8, mean_snr=10.0)
    rs = np.linspace(0.1, 4.0, 9)
    vals = [outage(p, r) for r in rs]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    snrs = [1.0, 10.0, 100.0]
    vals = [outage(p.with_mean_snr(g), 2.0) for g in snrs]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_outage_asymptotic_k0():
    p = IftrParams(k=0, delta=0, m1=1, m2=1, mean_snr=100.0)
    assert outage_asymptotic(p, 1.0) == pytest.approx(0.01, rel=1e-12)


def test_outage_asymptote_scaling_and_convergence():
    p = IftrParams(k=10, delta=0.9, m1=2, m2=8, mean_snr=1e4)
    a4 = outage_asymptotic(p, 2.0)
    a5 = outage_asymptotic(p.with_mean_snr(1e5), 2.0)
    assert a4 == pytest.approx(10.0 * a5, rel=1e-12)
    ratio4 = outage(p, 2.0) / a4
    ratio6 = outage(p.with_mean_snr(1e6), 2.0) / outage_asymptotic(p.with_mean_snr(1e6), 2.0)
    assert abs(ratio6 - 1.0) < abs(ratio4 - 1.0)
    assert ratio6 == pytest.approx(1.0, abs=0.01)


def test_outage_rejects_negative_threshold():
    p = IftrParams(k=1, delta=0, m1=1, m2=1)
    with pytest.raises(ValidationError):
        outage(p, -1.0)
    with pytest.raises(ValidationError):
        outage_asymptotic(p, -0.5)


@pytest.mark.parametrize("rate", [math.nan, math.inf, 1024.0, 1e308])
def test_outage_rejects_nan_and_overflowing_thresholds(rate):
    p = IftrParams(k=1, delta=0, m1=1, m2=1)
    with pytest.raises(ValidationError, match="rate threshold"):
        outage(p, rate)
    with pytest.raises(ValidationError, match="rate threshold"):
        outage_asymptotic(p, rate)


def test_ber_result_fields():
    res = BerResult(value=0.1, method="asymptotic", est_error=math.nan)
    assert res.value == 0.1 and res.method == "asymptotic"
