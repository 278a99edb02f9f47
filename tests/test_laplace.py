import math
import warnings

import numpy as np
import pytest

import iftr.laplace
from iftr.laplace import (
    Contour,
    LaplaceInversionConfig,
    ToleranceWarning,
    clamp_counts,
    laplace_invert_cdf,
    laplace_invert_density,
    phi2_multi_rate,
    log1p_c,
)

X_GRID = np.linspace(0.1, 10.0, 34)

# Five reference transform pairs: exponential, Erlang-2, Erlang-5, a
# two-exponential mixture, and chi-square with 4 degrees of freedom.
PAIRS = {
    "exponential": (lambda s: 1.0 / (1.0 + s), lambda x: np.exp(-x)),
    "erlang2": (lambda s: (1.0 + s) ** -2.0, lambda x: x * np.exp(-x)),
    "erlang5": (lambda s: (1.0 + s) ** -5.0, lambda x: x ** 4 * np.exp(-x) / 24.0),
    "mixture": (
        lambda s: 0.3 * 2.0 / (2.0 + s) + 0.7 * 0.5 / (0.5 + s),
        lambda x: 0.3 * 2.0 * np.exp(-2.0 * x) + 0.7 * 0.5 * np.exp(-0.5 * x),
    ),
    "chisq4": (lambda s: (1.0 + 2.0 * s) ** -2.0, lambda x: x * np.exp(-0.5 * x) / 4.0),
}

TALBOT = LaplaceInversionConfig(method="fixed-talbot", terms=24)


def test_euler_binomial_weights_are_exact():
    for m in range(4, 16):
        weights = iftr.laplace._binomial_weights(m)
        assert weights.tolist() == [math.comb(m, k) / 2**m for k in range(m + 1)]
        assert weights.sum() == 1.0


def test_config_validation():
    with pytest.raises(ValueError):
        LaplaceInversionConfig(method="bromwich")
    with pytest.raises(ValueError):
        LaplaceInversionConfig(terms=8)
    with pytest.raises(ValueError):
        LaplaceInversionConfig(terms=1024)


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_known_pairs_talbot(name):
    transform, density = PAIRS[name]
    got = laplace_invert_density(transform, X_GRID, TALBOT)
    np.testing.assert_allclose(got, density(X_GRID), rtol=1e-8)


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_known_pairs_euler(name):
    # The vertical-contour engine carries a dynamic-range penalty on decaying
    # tails; it is the default for distribution work where its contour always
    # stays inside the analyticity region.
    transform, density = PAIRS[name]
    got = laplace_invert_density(transform, X_GRID, LaplaceInversionConfig())
    np.testing.assert_allclose(got, density(X_GRID), rtol=5e-6)


def test_exponential_cdf_pair():
    got = laplace_invert_cdf(PAIRS["exponential"][0], 3.0)
    assert got == pytest.approx(1.0 - math.exp(-3.0), rel=1e-9)
    # saturates to total probability
    assert laplace_invert_cdf(PAIRS["exponential"][0], 60.0) == pytest.approx(1.0, abs=1e-9)


def test_gamma2_pair_single_point():
    got = laplace_invert_density(PAIRS["erlang2"][0], 2.0)
    assert got == pytest.approx(2.0 * math.exp(-2.0), rel=1e-9)


def test_determinism():
    transform, _ = PAIRS["mixture"]
    a = laplace_invert_density(transform, X_GRID)
    b = laplace_invert_density(transform, X_GRID)
    np.testing.assert_array_equal(a, b)


def test_cdf_clamping_counters():
    # Deep saturation wiggles over 1 get clamped, and each clamp is tallied.
    transform, x = PAIRS["exponential"][0], np.array([50.0, 80.0, 100.0])
    raw = Contour(x).invert(lambda s: transform(s) / s)
    before = clamp_counts["cdf_above_one"]
    values = laplace_invert_cdf(transform, x)
    assert clamp_counts["cdf_above_one"] - before == np.count_nonzero(raw > 1.0) > 0
    np.testing.assert_array_equal(values, np.clip(raw, 0.0, 1.0))


def test_tolerance_warning_fires():
    cfg = LaplaceInversionConfig(terms=16)
    with pytest.warns(ToleranceWarning) as record:
        laplace_invert_density(PAIRS["erlang5"][0], np.array([0.1]), cfg)
    with pytest.warns(ToleranceWarning) as record_cdf:
        laplace_invert_cdf(lambda s: (1 + s) ** -40, [0.01, 50.0], cfg)
    assert [w.filename for w in (*record, *record_cdf)] == [__file__, __file__]


def test_one_contour_inverts_many_transforms():
    # A held contour gives the bits of fresh calls and keeps its nodes.
    x = np.array([0.3, 1.0, 4.0])
    contour = Contour(x)
    nodes = contour.nodes.copy()
    for name in ("erlang2", "mixture"):
        transform = PAIRS[name][0]
        assert contour.cdf(transform).tobytes() == laplace_invert_cdf(transform, x).tobytes()
    np.testing.assert_array_equal(contour.nodes, nodes)
    assert not contour.nodes.flags.writeable


def test_talbot_contour_puts_its_real_node_first():
    contour = Contour([0.5, 2.0], TALBOT)
    assert contour.nodes.shape == (2, TALBOT.terms)
    np.testing.assert_array_equal(contour.nodes[:, 0], 2.0 * TALBOT.terms / (5.0 * np.array([0.5, 2.0])))


def test_tolerance_warning_names_the_worst_abscissa():
    # Only the far abscissae miss with 32 nodes; the warning says which.
    cfg = LaplaceInversionConfig(terms=32)
    x = np.array([0.1, 1.0, 3.0, 8.0, 30.0])
    with pytest.warns(ToleranceWarning, match=r"at x = 30 \(2 of 5 abscissae\)$"):
        laplace_invert_density(PAIRS["erlang5"][0], x, cfg)


def test_rejects_nonpositive_abscissae():
    with pytest.raises(ValueError):
        laplace_invert_density(PAIRS["exponential"][0], 0.0)
    with pytest.raises(ValueError):
        laplace_invert_density(PAIRS["exponential"][0], np.array([1.0, -2.0]))


def test_log1p_c_small_arguments():
    w = np.array([1e-18 + 1e-18j, -2e-12 + 1e-13j, 0.25 - 0.125j])
    got = log1p_c(w)
    assert got[0] == pytest.approx(1e-18 + 1e-18j, rel=1e-12)
    assert got[1].real == pytest.approx(-2e-12, rel=1e-10)
    assert got[2] == pytest.approx(complex(np.log(1 + w[2])), rel=1e-14)


def test_phi2_single_rate_reduces_to_kummer():
    # Phi_2 with one factor is 1F1(b; c; rate x).
    mpmath = pytest.importorskip("mpmath")
    x = np.array([0.2, 0.7, 1.9])
    got = phi2_multi_rate([3.0], 1.0, [-2.0], x)
    want = np.array([float(mpmath.hyp1f1(3, 1, -2.0 * xi)) for xi in x])
    np.testing.assert_allclose(got, want, rtol=1e-8)


def test_phi2_exponential_special_case():
    x = np.array([0.5, 1.0, 2.5])
    got = phi2_multi_rate([1.0], 1.0, [-1.3], x)
    np.testing.assert_allclose(got, np.exp(-1.3 * x), rtol=1e-9)


def test_phi2_two_rates_against_series():
    # Phi_2(b1, b2; c; x1, x2) brute-force double series oracle.
    def phi2_series(b1, b2, c, x1, x2, terms=80):
        from scipy.special import gammaln

        total = 0.0
        for m in range(terms):
            for n in range(terms - m):
                lg = (
                    gammaln(b1 + m) - gammaln(b1)
                    + gammaln(b2 + n) - gammaln(b2)
                    - gammaln(c + m + n) + gammaln(c)
                    - gammaln(m + 1) - gammaln(n + 1)
                )
                total += math.exp(lg) * x1 ** m * x2 ** n
        return total

    got = phi2_multi_rate([0.7, 1.4, 0.0], 2.0, [-0.8, -0.3, 0.0], np.array([1.0]))[0]
    want = phi2_series(0.7, 1.4, 2.0, -0.8, -0.3)
    assert got == pytest.approx(want, rel=1e-8)
