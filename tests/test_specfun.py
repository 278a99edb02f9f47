import importlib
import importlib.util
import math
import pathlib
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.special as sps

import iftr
import iftr.fitting
import iftr.laplace
import iftr.linkperf
import iftr.sim
import iftr.specfun
import iftr.stats
from iftr.params import IftrParams
from iftr.specfun import (
    ConvergenceError,
    hyp2f1_ln,
    kummer_1f1_ln,
    lauricella_fd3_ln,
    log_i0,
    theta_quadrature_ln,
)


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------

def frac_2f1_series(a, b, c, z: Fraction, terms: int = 200) -> Fraction:
    """Exact-rational ascending series of 2F1 (oracle)."""
    total = Fraction(1)
    term = Fraction(1)
    for n in range(terms):
        term *= Fraction(a + n) * Fraction(b + n) * z
        term /= Fraction(c + n) * Fraction(n + 1)
        total += term
    return total


def frac_2f1_pfaff(a, b, c, z: Fraction, terms: int = 200) -> Fraction:
    """2F1 via the Pfaff transform in exact rational arithmetic (oracle)."""
    w = z / (z - 1)
    return (1 - z) ** (-b) * frac_2f1_series(c - a, b, c, w, terms)


def series_1f1(a, b, z, terms: int = 50) -> float:
    total, term = 1.0, 1.0
    for n in range(terms):
        term *= (a + n) / (b + n) * z / (n + 1)
        total += term
    return total


def series_i0(x, terms: int = 40) -> float:
    total, term = 1.0, 1.0
    for k in range(1, terms):
        term *= (x * x / 4.0) / (k * k)
        total += term
    return total


def simpson_fd3(a, bs, c, xs, nodes: int = 1_000_000) -> float:
    """Composite-Simpson oracle for the Euler integral of F_D, on the
    sin^2-substituted smooth integrand."""
    if nodes % 2 == 1:
        nodes += 1
    theta = np.linspace(0.0, 0.5 * math.pi, nodes + 1)
    s2 = np.sin(theta) ** 2
    f = 2.0 * np.sin(theta) ** (2 * a - 1) * np.cos(theta) ** (2 * (c - a) - 1)
    for b_i, x_i in zip(bs, xs):
        f = f * (1.0 - x_i * s2) ** (-b_i)
    w = np.ones(nodes + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    h = 0.5 * math.pi / nodes
    integral = h / 3.0 * np.sum(w * f)
    pref = math.exp(sps.gammaln(c) - sps.gammaln(a) - sps.gammaln(c - a))
    return pref * integral


def fd3(*args) -> float:
    """F_D^(3) from its log kernel (value only)."""
    return math.exp(lauricella_fd3_ln(*args)[0])


@pytest.mark.parametrize(
    "module",
    [iftr, iftr.specfun, iftr.laplace, iftr.params, iftr.stats, iftr.sim, iftr.fitting, iftr.linkperf],
    ids=lambda m: m.__name__,
)
def test_public_names_resolve(module):
    for name in module.__all__:
        assert hasattr(module, name), f"{module.__name__}.__all__ lists missing {name!r}"


def test_bench_tracer_layers_resolve():
    # The benchmark tracer wraps these functions by name at run time.
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for layer, funcs in tracing.LAYERS.items():
        module = importlib.import_module(f"iftr.{layer}")
        for name in funcs:
            assert callable(getattr(module, name, None)), f"bench tracer wraps missing iftr.{layer}.{name}"


# ---------------------------------------------------------------------------
# Gauss 2F1
# ---------------------------------------------------------------------------

def test_2f1_empty_series():
    assert np.exp(hyp2f1_ln(2.3, 0.7, 1.4, 0.0)) == pytest.approx(1.0, abs=1e-15)


def test_2f1_log_identity():
    z = 0.5
    assert np.exp(hyp2f1_ln(1, 1, 2, z)) == pytest.approx(-math.log(1 - z) / z, rel=1e-13)


def test_2f1_against_exact_rational_oracle():
    oracle = float(frac_2f1_pfaff(3, 2, 1, Fraction(-1, 4)))
    assert oracle == pytest.approx(0.2048, abs=1e-12)  # terminating Pfaff series
    assert np.exp(hyp2f1_ln(3, 2, 1, -0.25)) == pytest.approx(oracle, rel=1e-13)


@pytest.mark.parametrize(
    "a,b,c,z",
    [
        (0.5, 1.5, 1.0, 0.9),
        (2.0, 10.0, 1.0, 0.985),
        (5.0, 7.0, 1.0, -0.99),
        (1.3, 0.3, 2.7, 0.5),
        (3.0, 2.0, 4.0, -8.0),
        (0.05, 0.05, 1.0, 0.989),
        (40.0, 2.0, 1.0, 0.97),
    ],
)
def test_2f1_real_against_scipy(a, b, c, z):
    assert np.exp(hyp2f1_ln(a, b, c, z)) == pytest.approx(float(sps.hyp2f1(a, b, c, z)), rel=5e-12)


def test_2f1_complex_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    cases = [
        (2.0, 10.0, 1.0, 0.4 + 0.35j),
        (1.5, 0.7, 1.0, -0.8 + 0.2j),
        (3.0, 2.5, 1.0, 0.92 + 0.05j),
        (12.0, 0.4, 1.0, -4.0 + 1.5j),
        (2.0, 2.0, 1.0, 0.97 - 0.02j),
    ]
    for a, b, c, z in cases:
        got = complex(np.exp(hyp2f1_ln(a, b, c, z)))
        want = complex(mpmath.hyp2f1(a, b, c, z))
        assert abs(got - want) / abs(want) < 1e-10, (a, b, c, z)


def test_2f1_huge_parameters_log_route():
    # Near-unit argument with large shapes: the value overflows doubles but
    # its log is finite and must match the high-precision oracle.
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    a, b, c, z = 60.0, 50.5, 1.0, 0.995
    got = hyp2f1_ln(a, b, c, z)
    want = mpmath.log(mpmath.hyp2f1(a, b, c, z))
    assert abs(complex(got) - complex(want)) < 1e-9 * abs(complex(want))


@pytest.mark.parametrize(
    "x",
    [-170.3, -58.5, -10.25, -3.7, -2.5, -1.5, -0.5, 1e-300, 1e-8, 0.3, 1.0 + 1e-7, 1.5, 2.5, 7.3, 100.5, 1e5, 1e10],
)
def test_log_gamma_signed_against_scipy(x):
    got = iftr.specfun._log_gamma_signed(x)
    want = sps.gammaln(x)
    assert abs(got.real - want) <= 1e-15 * max(1.0, abs(want))
    assert got.imag == (math.pi if sps.gammasgn(x) < 0.0 else 0.0)


@pytest.mark.parametrize("x", [-59.0, -1.0, 0.0])
def test_log_gamma_signed_is_inf_at_the_poles(x):
    assert sps.gammaln(x) == math.inf
    assert iftr.specfun._log_gamma_signed(x) == complex(math.inf)


def test_2f1_rejects_cut_and_pole():
    with pytest.raises(ValueError):
        hyp2f1_ln(1.0, 2.0, 3.0, 1.0)
    with pytest.raises(ValueError):
        hyp2f1_ln(1.0, 2.0, 0.0, 0.5)


@pytest.mark.parametrize(
    "a, b, c, z",
    [
        (1.5, 1.0, 1.0, complex(math.nan, 0.5)),
        (1.5, 1.0, 1.0, math.nan),
        (1.5, 1.0, 1.0, np.array([0.25, math.nan])),
        (math.nan, 1.0, 1.0, 0.5),
        (1.5, math.nan, 1.0, 0.5j),
        (1.5, 1.0, math.nan, -0.5),
    ],
)
def test_2f1_rejects_nan_at_once(a, b, c, z):
    # A NaN used to run the series to its 500,000-term budget (9 s) before
    # raising ConvergenceError.
    start = time.perf_counter()
    with pytest.raises(ValueError, match="NaN"):
        hyp2f1_ln(a, b, c, z)
    assert time.perf_counter() - start < 0.5


def test_2f1_divergence_flag():
    with pytest.raises(ConvergenceError):
        hyp2f1_ln(1.5, 2.5, 1.0, 0.5 + 0.9j)  # |z| > 1 with Re z >= 0.5


def test_2f1_batch_equals_scalar_calls_bit_for_bit():
    # Entries that settle after very different numbers of terms, on the
    # direct, Pfaff and Euler routes, share one call; each must come out
    # exactly as it does alone.
    rng = np.random.default_rng(23)
    radius = np.concatenate([np.geomspace(1e-6, 0.89, 40), rng.uniform(0.91, 0.94, 8)])
    z = radius * np.exp(1j * rng.uniform(-math.pi, math.pi, radius.size))
    a, b, c = 2.3, 1.7, 1.0  # a + b - c > 0: the near-unit annulus goes through Euler
    batch = hyp2f1_ln(a, b, c, z)
    alone = np.array([hyp2f1_ln(a, b, c, zi) for zi in z])
    assert np.any(z.real < 0.0) and np.any((np.abs(z) > 0.9) & (z.real > 0.0))
    assert np.array_equal(batch, alone)


@pytest.mark.parametrize("a", [237.0, 400.0])
def test_2f1_rescaled_series_against_mpmath(a):
    # Near z = 0.5 the sums of 2F1(a, a; 1; z) pass 1e250, so they must be
    # rescaled: at a = 237 the sum alone does, at a = 400 the terms do too
    # and the sum passes the largest double.  The small entry settles long
    # before and stays in the working arrays while the others rescale.
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    z = (0.5, 0.4999, 0.4998, 1e-3)
    got = hyp2f1_ln(a, a, 1.0, np.array(z))
    assert np.all(got[:3].real > math.log(1e250))
    assert np.array_equal(got, [hyp2f1_ln(a, a, 1.0, zi) for zi in z])
    for zi, gi in zip(z, got):
        want = complex(mpmath.log(mpmath.hyp2f1(a, a, 1, zi)))
        assert abs(gi - want) <= 1e-13 * abs(want), zi


def test_2f1_rescaled_direct_series_against_mpmath():
    # hyp2f1_ln may send these integer-shape entries through Euler's
    # terminating series; the rescaled direct sum must stay accurate too.
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    z = np.array([0.5, 0.4999, 0.4998, 1e-3], dtype=complex)
    for a in (237.0, 400.0):
        got = iftr.specfun._series_2f1_ln(a, a, 1.0, z)
        assert np.all(got[:3].real > math.log(1e250))
        for zi, gi in zip(z, got):
            want = complex(mpmath.log(mpmath.hyp2f1(a, a, 1, zi)))
            assert abs(gi - want) <= 1e-13 * abs(want), (a, zi)


def contour_2f1_arguments(p, x):
    """(a, b, c, z, 1 - z) of the 2F1 the MGF evaluates on the inversion
    contour of ``cdf(p, x)``."""
    seen = []

    def record(a, b, c, z, one_minus_z=None):
        seen.append((a, b, c, np.array(z), np.array(one_minus_z)))
        return hyp2f1_ln(a, b, c, z, one_minus_z)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(iftr.stats, "hyp2f1_ln", record)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            iftr.stats.cdf(p, np.atleast_1d(x))
    return seen[0]


# ROADMAP item 1's point: on these contours one of Pfaff's two forms
# cancels at the Re z < 0 entries (by up to 1e-2), the other does not.
ITEM1_POINT = IftrParams(k=300.0, delta=0.9, m1=250.0, m2=11.0, mean_snr=1.0)
ITEM1_X = (1.5, 2.0, 2.5)


def box_params(rng, log10_k, m_range):
    """Seeded IftrParams at mean SNR 1: K and both shapes log-uniform, m1
    rounded to an integer 30 % of the time."""
    log10_m = (math.log10(m_range[0]), math.log10(m_range[1]))
    m1 = 10 ** rng.uniform(*log10_m)
    if rng.random() < 0.3:
        m1 = float(max(1, round(m1)))
    return IftrParams(
        k=10 ** rng.uniform(*log10_k), delta=rng.uniform(0.0, 1.0),
        m1=m1, m2=10 ** rng.uniform(*log10_m), mean_snr=1.0,
    )


def test_2f1_routes_against_mpmath_on_contours():
    # Across the parameter box, every contour entry is at most ten times
    # less accurate than the direct series summed on that entry (or within
    # 1e-13): Euler's series is taken only where it is no worse conditioned.
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40

    def check(p, x, pick):
        """How many of the picked contour entries were checked."""
        a, b, c, z, omz = contour_2f1_arguments(p, x)
        nodes = pick(z.size)
        got = hyp2f1_ln(a, b, c, z[nodes], omz[nodes])
        checked = 0
        for j, g in zip(nodes, got):
            try:
                direct = iftr.specfun._series_2f1_ln(a, b, c, z[j:j + 1])[0]
            except ConvergenceError:
                continue  # no direct series to compare with
            want = mpmath.log(mpmath.hyp2f1(a, b, c, mpmath.mpc(z[j])))
            err = abs(complex(mpmath.expm1(g - want)))
            err_direct = abs(complex(mpmath.expm1(direct - want)))
            assert err <= max(10.0 * err_direct, 1e-13), (p, z[j], err, err_direct)
            checked += 1
        return checked

    # Every node of the item-1 contours.
    assert sum(check(ITEM1_POINT, x, np.arange) for x in ITEM1_X) >= 300
    rng = np.random.default_rng(1501)
    checked = 0
    for _ in range(40):
        p = box_params(rng, (-1.0, 4.0), (0.2, 100.0))
        x = 10 ** rng.uniform(-2.0, 0.5)
        checked += check(p, x, lambda n: rng.choice(n, 8, replace=False))
    assert checked >= 200


def test_2f1_fig5_contour_takes_the_one_term_euler_polynomial(monkeypatch):
    # 2F1(2, 8; 1; z) = (1 - z)^-9 2F1(-1, -7; 1; z) = (1 + 7z) (1 - z)^-9.
    p = IftrParams(k=80.0, delta=0.9, m1=2.0, m2=8.0, mean_snr=100.0)
    a, b, c, z, omz = contour_2f1_arguments(p, 2.0 ** 2 - 1.0)
    assert (a, b, c) == (2.0, 8.0, 1.0) and np.abs(z).max() > 0.7
    series = []
    kernel = iftr.specfun._series_2f1_ln

    def counted(a, b, c, z):
        series.append((a, b))
        return kernel(a, b, c, z)

    monkeypatch.setattr(iftr.specfun, "_series_2f1_ln", counted)
    got = np.exp(hyp2f1_ln(a, b, c, z, omz))
    assert np.allclose(got, (1.0 + 7.0 * z) / (1.0 - z) ** 9, rtol=1e-14, atol=0.0)
    # Only terminating series of at most two terms ran.
    assert series and all(min(-a, -b) + 1 <= 2 for a, b in series)


def test_cdf_where_the_direct_2f1_series_cancels():
    # The direct series loses every digit on these contours, and from x =
    # 1.5 up so does one of Pfaff's two forms at their Re z < 0 entries;
    # the terminating polynomials (Euler's at z, the other form at w) do not.
    p = ITEM1_POINT
    x = np.array([0.5, 0.9, 1.5, 2.0, 2.5])
    got = iftr.stats.cdf(p, x)
    draws = iftr.sim.sample_iftr(p, iftr.sim.SimConfig(n_samples=10 ** 6, seed=2, output="snr"))
    mc = np.array([np.mean(draws <= xi) for xi in x])
    se = np.sqrt(mc * (1.0 - mc) / draws.size)
    assert np.all(np.abs(got - mc) <= 4.0 * se), (got, mc, se)
    p = IftrParams(k=14980.8, delta=0.5104, m1=10.0, m2=83.8, mean_snr=3.566)
    assert iftr.stats.cdf(p, 0.42) == pytest.approx(iftr.stats.cdf(p, 0.42, method="closed-form"), abs=1e-6)


def pfaff_forms_ln(a, b, c, z, omz):
    """Pfaff's two forms of log 2F1, (1 - z)^(-a) 2F1(a, c - b; c; w) and
    (1 - z)^(-b) 2F1(c - a, b; c; w) with w = z / (z - 1), each summed by
    the plain series; NaN where a series gives up."""
    w = -z / omz
    out = []
    for pre, a_w, b_w in ((a, a, c - b), (b, c - a, b)):
        try:
            out.append(-pre * np.log(omz) + iftr.specfun._series_2f1_ln(a_w, b_w, c, w))
        except ConvergenceError:
            out.append(np.full(z.shape, complex(math.nan)))
    return out


def test_2f1_pfaff_takes_the_better_form_against_mpmath():
    # Every Re z < 0 contour entry is within ten times the error of the
    # better of Pfaff's two forms (or 1e-12) of 40-digit mpmath.  A fixed
    # choice of form misses by up to 5e30 on some of these entries.
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    rng = np.random.default_rng(18)
    cases = [(ITEM1_POINT, 2.0)]
    for _ in range(200):
        p = box_params(rng, (-3.0, 6.0), (0.05, 1e3))
        cases.append((p, 10 ** rng.uniform(-2.0, 0.5)))
    checked = telling = 0
    for p, x in cases:
        a, b, c, z, omz = contour_2f1_arguments(p, x)
        nodes = np.flatnonzero((z.real < 0.0) & (np.abs(z) <= 1.0))
        if p is not ITEM1_POINT and nodes.size > 3:
            nodes = rng.choice(nodes, 3, replace=False)
        if not nodes.size:
            continue
        got = hyp2f1_ln(a, b, c, z[nodes], omz[nodes])
        forms = pfaff_forms_ln(a, b, c, z[nodes], omz[nodes])
        for i, j in enumerate(nodes):
            want = mpmath.log(mpmath.hyp2f1(a, b, c, mpmath.mpc(z[j])))

            def err(v):
                return abs(complex(mpmath.expm1(v - want))) if np.isfinite(v) else math.inf

            err_forms = sorted(err(f[i]) for f in forms)
            assert err(got[i]) <= max(10.0 * err_forms[0], 1e-12), (p, z[j], err(got[i]), err_forms)
            checked += 1
            telling += err_forms[1] > max(10.0 * err_forms[0], 1e-12)
    # Enough entries where only one of the forms passes.
    assert checked >= 80 and telling >= 30, (checked, telling)


def ungated_series_2f1_ln(a, b, c, z):
    """The ascending 2F1 series with its settle and rescale checks on every
    term: the oracle for the gated kernel, with the same array arithmetic."""
    limit = iftr.specfun._RESCALE_LIMIT
    out = np.empty(z.shape, dtype=complex)
    s = np.ones(z.shape, dtype=complex)
    term = np.ones(z.shape, dtype=complex)
    log_scale = np.zeros(z.shape)
    prev_small = np.zeros(z.shape, dtype=bool)
    is_open = np.ones(z.shape, dtype=bool)
    for n in range(100_000):
        term = term * (z * ((a + n) * (b + n) / ((c + n) * (n + 1.0))))
        s += term
        small = np.abs(term) <= 1e-17 * np.abs(s)
        done = is_open & small & prev_small
        out[done] = np.log(s[done]) + log_scale[done]
        is_open &= ~done
        if not is_open.any():
            return out
        prev_small = small
        big = is_open & ((np.abs(s) > limit) | (np.abs(term) > limit))
        s[big] /= limit
        term[big] /= limit
        log_scale[big] += math.log(limit)
    raise AssertionError("oracle did not settle")


def gate_cases(rng):
    """(a, b, c, z) batches that stop the check gate at every kind of bound."""
    for size in (1, 7, 64):
        def spread(lo, hi):
            # log-uniform radii, random phases, one real entry
            r = np.exp(rng.uniform(math.log(lo), math.log(hi), size))
            z = r * np.exp(1j * rng.uniform(-math.pi, math.pi, size))
            z[0] = z[0].real
            return z
        yield 2.3, 1.7, 1.0, spread(1e-3, 0.85)
        yield rng.uniform(0.5, 40.0), rng.uniform(0.5, 40.0), rng.uniform(0.5, 9.0), spread(1e-9, 0.9)
        z = spread(0.05, 0.8)
        z[-1] = 0.0  # a zero argument stops the gate at the first term
        yield 3.1, 0.6, 1.0, z
        yield -7.0, 2.5, 1.0, spread(0.1, 0.9)  # terminating: a zero coefficient
        yield 1.0 - 1.02, 0.89, 1.0, spread(0.2, 0.9)  # the Euler branch's 1 - m1
        yield -0.02, 1.0 - rng.uniform(20.0, 60.0), 1.0, spread(1e-4, 0.6)
        z = spread(0.3, 0.5)
        z[rng.random(size) < 0.3] = 1e-3
        yield 237.0 + rng.uniform(0.0, 180.0), 240.0, 1.0, z  # sums pass the rescale limit


def test_2f1_check_gate_is_exact():
    # The kernel skips its settle and rescale checks while majorants show
    # they cannot fire; the results must equal checking every term.
    rng = np.random.default_rng(2019)
    for a, b, c, z in gate_cases(rng):
        z = np.asarray(z, dtype=complex)
        got = iftr.specfun._series_2f1_ln(a, b, c, z)
        assert np.array_equal(got, ungated_series_2f1_ln(a, b, c, z)), (a, b, c, z.size)


def real_kernel_cases(rng):
    """Seeded (a, b, c, x) on every route a lone real argument can take."""
    def shapes(hi=40.0):
        return rng.uniform(0.05, hi), rng.uniform(0.05, hi), rng.uniform(0.5, 9.0)
    for _ in range(40):
        yield *shapes(), rng.uniform(0.0, 0.9)  # direct
        yield *shapes(), rng.uniform(-3.0, 0.0)  # Pfaff with real w
        a, b, c = shapes()
        yield a + c, b, c, rng.uniform(0.9, 0.95)  # Euler: a + b - c > 0
        yield *shapes(), 1.0 - rng.uniform(1e-4, 0.05)  # the connection series
        yield -float(rng.integers(0, 60)), rng.uniform(0.05, 40.0), 1.0, rng.uniform(-0.9, 0.9)
        yield 237.0 + rng.uniform(0.0, 180.0), 240.0, 1.0, rng.uniform(0.3, 0.5)  # rescaled
    yield 400.0, 400.0, 1.0, 0.5  # the sum passes the largest double
    yield 1e-20, 500.0, 1.0, 0.5  # a first term below 1e-17, then growing ones
    # Rescaling by dividing by the limit, not multiplying by its reciprocal,
    # rounds this sum differently.
    yield 360.81571759138876, 449.40082216358076, 1.0, 0.5810647966921081


def test_2f1_real_scalar_kernel_is_bit_identical():
    # A lone real argument, on every route, must equal the same argument in
    # a call of two: an entry's value never depends on its batch.
    rng = np.random.default_rng(2024)
    for a, b, c, x in real_kernel_cases(rng):
        pair = np.array([x, x], dtype=complex)
        if abs(x) <= 0.9:  # where the ascending series is summed directly
            got = iftr.specfun._series_2f1_ln(a, b, c, pair[:1])
            assert np.array_equal(got, iftr.specfun._series_2f1_ln(a, b, c, pair)[:1]), (a, b, c, x)
        assert np.array_equal(hyp2f1_ln(a, b, c, x), hyp2f1_ln(a, b, c, pair)[0]), (a, b, c, x)
    assert hyp2f1_ln(400.0, 400.0, 1.0, 0.5).real > math.log(np.finfo(float).max)


def test_cdf_slope_real_kernel_is_bit_identical(monkeypatch):
    rng = np.random.default_rng(1977)
    params = [
        IftrParams(
            k=10 ** rng.uniform(-3.0, 3.0),
            delta=rng.uniform(0.0, 1.0),
            m1=10 ** rng.uniform(math.log10(0.05), 3.0),
            m2=10 ** rng.uniform(math.log10(0.05), 3.0),
            mean_snr=10 ** rng.uniform(-2.0, 4.0),
        )
        for _ in range(1000)
    ]
    # The slope's lone real 2F1 entry must equal the same entry in a call of
    # two; the per-shape slope cache is cleared so that each pass sums it.
    iftr.stats._unit_mean_slope.cache_clear()
    got = [iftr.stats.cdf_asymptotic_slope(p) for p in params]

    def vector_loop(a, b, c, z, one_minus_z):
        return hyp2f1_ln(a, b, c, np.array([z, z]), one_minus_z=np.array([one_minus_z] * 2))[0]

    monkeypatch.setattr(iftr.stats, "hyp2f1_ln", vector_loop)
    iftr.stats._unit_mean_slope.cache_clear()
    assert got == [iftr.stats.cdf_asymptotic_slope(p) for p in params]
    iftr.stats._unit_mean_slope.cache_clear()  # drop the patched pass's values


def test_2f1_empty_array():
    for a in (2.3, -2.0):  # series routes, and the terminating series
        out = hyp2f1_ln(a, 1.5, 1.0, np.empty(0))
        assert out.shape == (0,) and out.dtype == complex
    assert iftr.specfun._series_2f1_ln(2.3, 1.5, 1.0, np.empty(0, dtype=complex)).shape == (0,)


def test_2f1_term_budget(monkeypatch):
    # A terminating series skips the up-front estimate, so a budget shorter
    # than its 151 terms is met inside the summation loop.
    monkeypatch.setattr(iftr.specfun, "_MAX_SERIES_TERMS", 100)
    with pytest.raises(ConvergenceError, match="did not converge within 100 terms"):
        hyp2f1_ln(-150.0, 1.0, 1.0, np.array([0.5, 1e-3]))
    with pytest.raises(ConvergenceError, match="did not converge within 100 terms"):
        hyp2f1_ln(-150.0, 1.0, 1.0, 0.5)  # a lone entry
    assert np.isfinite(hyp2f1_ln(-50.0, 1.0, 1.0, 0.5))


def test_in_model_2f1_argument_inside_unit_interval():
    # K^2 Delta^2 < [2 m1 + K(1 + r)][2 m2 + K(1 - r)] for all valid
    # parameters, so the asymptotic-coefficient argument stays in [0, 1).
    rng = np.random.default_rng(11)
    for _ in range(10_000):
        k = rng.uniform(0.0, 1000.0)
        delta = rng.uniform(0.0, 1.0)
        m1 = rng.uniform(0.05, 500.0)
        m2 = rng.uniform(0.05, 500.0)
        p = IftrParams(k=k, delta=delta, m1=m1, m2=m2)
        p1, p2 = p.ray_power_ratios()
        z = (k * delta) ** 2 / ((2 * m1 + 2 * p1) * (2 * m2 + 2 * p2))
        assert 0.0 <= z < 1.0


# ---------------------------------------------------------------------------
# Kummer 1F1(m; 1; z)
# ---------------------------------------------------------------------------

def test_kummer_single_term_is_exp():
    for z in (0.7, 2.5):
        assert math.exp(kummer_1f1_ln(1, z)) == pytest.approx(math.exp(z), rel=1e-14)


def test_kummer_at_zero():
    for m in (1, 2, 7):
        assert math.exp(kummer_1f1_ln(m, 0.0)) == pytest.approx(1.0, abs=1e-15)


def test_kummer_against_series_oracle():
    oracle = series_1f1(3.0, 1.0, 1.5)
    assert math.exp(kummer_1f1_ln(3, 1.5)) == pytest.approx(oracle, rel=1e-13)
    assert math.exp(kummer_1f1_ln(5, 4.2)) == pytest.approx(series_1f1(5.0, 1.0, 4.2), rel=1e-12)


def test_kummer_log_space_large_argument():
    ln = kummer_1f1_ln(3, 800.0)
    # 1F1(3;1;z) = e^z (1 + 2 z + z^2/2) for m = 3
    want = 800.0 + math.log(1.0 + 2 * 800.0 + 800.0 ** 2 / 2.0)
    assert ln == pytest.approx(want, rel=1e-13)


def test_kummer_rejects_bad_order():
    with pytest.raises(ValueError):
        kummer_1f1_ln(0, 1.0)
    with pytest.raises(ValueError):
        kummer_1f1_ln(2.5, 1.0)


def test_kummer_array_argument_matches_scalar_calls():
    z = np.array([0.0, 1e-300, 0.4, 3.0, 75.0, 800.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = kummer_1f1_ln(4, z)
    assert got[0] == 0.0
    np.testing.assert_allclose(got, [kummer_1f1_ln(4, zi) for zi in z], rtol=1e-15, atol=0.0)
    assert kummer_1f1_ln(4, z.reshape(2, 3)).shape == (2, 3)
    with pytest.raises(ValueError):
        kummer_1f1_ln(2, np.array([1.0, -0.5]))


# ---------------------------------------------------------------------------
# Log-sum-exp (oracle: scipy.special.logsumexp)
# ---------------------------------------------------------------------------

def assert_log_close(got, want):
    # log|S| to 1e-15 absolute near zero and relative beyond: 1e-15 of S itself
    got, want = np.broadcast_arrays(np.asarray(got, dtype=float), np.asarray(want, dtype=float))
    same_inf = np.isinf(want) & (got == want)
    err = np.abs(np.subtract(got, want, out=np.zeros(want.shape), where=~same_inf)) / np.maximum(1.0, np.abs(want))
    assert np.all(err <= 1e-15), err.max()


def test_log_sum_exp_against_scipy():
    rng = np.random.default_rng(2021)
    lse = iftr.specfun._log_sum_exp
    log_x = rng.uniform(-30.0, 5.0, (40, 33)) + rng.choice([0.0, -700.0, 700.0], (40, 1))
    log_x[3, :5] = -np.inf
    log_x[4, :] = -np.inf  # a row without terms
    log_x[5, :] = 0.0  # all tied
    log_x[6] = -40.0  # log S just above zero
    log_x[6, 0] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, sign = lse(log_x)
        assert_log_close(got, sps.logsumexp(log_x, axis=-1))
        assert got[4] == -np.inf and sign[4] == 0.0 and np.all(np.delete(sign, 4) == 1.0)

        # Signed weights, the larger part positive or negative, and zero
        # weights, on the largest log and on an infinite or NaN log too.
        w = rng.uniform(0.5, 2.0, log_x.shape) * rng.choice([1.0, -0.3], log_x.shape)
        w[::2] *= -1.0
        w[:, 7] = 0.0
        w[7:9, :] = 0.0  # rows with every weight zero
        log_x[:, 7] = np.where(np.arange(40) % 3 == 0, np.inf, 50.0)
        log_x[10, 7] = np.nan
        got, sign = lse(log_x, w)
        want, want_sign = sps.logsumexp(log_x, axis=-1, b=w, return_sign=True)
        assert_log_close(got, want)
        assert np.array_equal(sign, want_sign)
        assert np.all(sign[7:9] == 0.0) and np.all(got[7:9] == -np.inf)
        assert np.any(sign < 0.0) and np.any(sign > 0.0)

        # Terms that cancel exactly.
        assert lse(np.array([1.5, 1.5]), np.array([2.0, -2.0])) == (-np.inf, 0.0)


def test_ber_exact_sums_against_scipy_with_zero_term_errors(monkeypatch):
    # ber_exact adds its signed Lauricella terms, and their error estimates
    # (exactly zero for some terms here), with the helper.
    from iftr.linkperf import ber_exact
    from iftr.params import ModulationSpec
    from iftr.stats import _integer_shape_form

    real_fd3 = iftr.linkperf.lauricella_fd3_ln
    seen = []

    def fd3_with_some_exact_terms(*args):
        log_fd, err = real_fd3(*args)
        err = np.where(np.arange(err.size) % 2 == 0, 0.0, err)
        seen.append((log_fd, err))
        return log_fd, err

    monkeypatch.setattr(iftr.linkperf, "lauricella_fd3_ln", fd3_with_some_exact_terms)
    p = IftrParams(k=15.0, delta=0.5, m1=5, m2=2, mean_snr=10.0)
    mod = ModulationSpec([(2.0, 0.3), (-0.5, 1.2)])
    got = ber_exact(p, mod)
    log_coeff = _integer_shape_form(p).log_coeff
    logs = np.concatenate(
        [log_coeff + math.log(abs(al) / (2.0 * be)) + log_fd for (al, be), (log_fd, _) in zip(mod.terms, seen)]
    )
    errs = np.concatenate([err for _, err in seen])
    signs = np.repeat([1.0, -1.0], log_coeff.size)
    log_total, sign = sps.logsumexp(logs, b=signs, return_sign=True)
    log_err = sps.logsumexp(logs, b=errs)
    assert np.any(errs == 0.0) and np.any(errs > 0.0)
    assert sign == 1.0 and got.est_error > 0.0
    assert_log_close(math.log(got.value), log_total)
    assert_log_close(math.log(got.est_error) + log_total, log_err)


# ---------------------------------------------------------------------------
# Bessel I0
# ---------------------------------------------------------------------------

def test_i0_basics():
    assert np.exp(log_i0(0.0)) == pytest.approx(1.0, abs=1e-15)
    for x in (0.3, 2.0, 11.0, 40.0):
        assert np.exp(log_i0(-x)) == pytest.approx(np.exp(log_i0(x)), rel=1e-14)


def test_i0_series_oracle():
    assert np.exp(log_i0(2.0)) == pytest.approx(series_i0(2.0), rel=1e-14)
    assert np.exp(log_i0(2.0)) == pytest.approx(2.2795853023360673, rel=1e-12)


def test_i0_against_scipy_across_regimes():
    xs = np.array([0.1, 1.0, 5.0, 19.9, 20.1, 50.0, 300.0])
    np.testing.assert_allclose(np.exp(log_i0(xs).real - xs), sps.i0e(xs), rtol=2e-14)
    np.testing.assert_allclose(np.exp(log_i0(xs[:5])), sps.i0(xs[:5]), rtol=2e-14)


def test_i0_complex_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    for z in (3.0 + 4.0j, -2.0 + 11.0j, 0.5 + 25.0j, 30.0 + 40.0j, 1e-3 + 22.0j):
        got = complex(np.exp(log_i0(z)))
        want = complex(mpmath.besseli(0, z))
        assert abs(got - want) / abs(want) < 5e-7, z


# ---------------------------------------------------------------------------
# Lauricella F_D of three variables
# ---------------------------------------------------------------------------

def test_fd3_zero_exponents_is_one():
    assert fd3(1.5, 0, 0, 0, 2.0, -0.3, -0.7, -1.2) == pytest.approx(1.0, rel=1e-12)


def test_fd3_confluence_to_2f1():
    rng = np.random.default_rng(5)
    for _ in range(20):
        b = rng.uniform(-2.0, 3.0, size=3)
        w = rng.uniform(-3.0, 0.5)
        got = fd3(1.5, b[0], b[1], b[2], 2.0, w, w, w)
        want = np.exp(hyp2f1_ln(1.5, float(b.sum()), 2.0, w))
        assert got == pytest.approx(want, rel=1e-9)


def test_fd3_against_simpson_oracle():
    got = fd3(1.5, 0.5, 1.0, 2.0, 2.0, -0.3, -0.7, -1.2)
    oracle = simpson_fd3(1.5, (0.5, 1.0, 2.0), 2.0, (-0.3, -0.7, -1.2))
    assert got == pytest.approx(oracle, rel=1e-9)


def test_fd3_dropping_zero_exponent_argument():
    rng = np.random.default_rng(17)
    for _ in range(10):
        b1, b2 = rng.uniform(0.1, 3.0, size=2)
        x, y = rng.uniform(-2.0, 0.0, size=2)
        full = fd3(1.5, b1, b2, 0.0, 2.0, x, y, -0.9)
        reduced = fd3(1.5, b1, b2, 0.0, 2.0, x, y, 0.0)
        assert full == pytest.approx(reduced, rel=1e-10)


def test_fd3_domain_checks():
    with pytest.raises(ValueError):
        lauricella_fd3_ln(2.5, 1, 1, 1, 2.0, -0.5, -0.5, -0.5)  # needs c > a
    with pytest.raises(ValueError):
        lauricella_fd3_ln(1.5, 1, 1, 1, 2.0, 1.5, -0.5, -0.5)  # argument >= 1


def test_fd3_rejects_shapes_without_periodic_integrand():
    # a - 1/2 and c - a - 1/2 must be non-negative integers.
    with pytest.raises(ValueError):
        lauricella_fd3_ln(1.0, 1, 1, 1, 2.5, -0.5, -0.5, -0.5)
    with pytest.raises(ValueError):
        lauricella_fd3_ln(1.5, 1, 1, 1, 2.2, -0.5, -0.5, -0.5)


def test_fd3_other_half_integer_shapes_against_simpson_oracle():
    for a, c in ((0.5, 1.0), (2.5, 4.0)):
        got = fd3(a, 0.5, 1.0, 2.0, c, -0.3, -0.7, -1.2)
        oracle = simpson_fd3(a, (0.5, 1.0, 2.0), c, (-0.3, -0.7, -1.2))
        assert got == pytest.approx(oracle, rel=1e-9), (a, c)


def test_fd3_batched_rows_equal_scalar_calls():
    n = np.arange(12.0)
    for args in ((-3e4, -20.0, -0.5), (-4e9, -3e9, -1e9), (0.9, -2.0, 0.0)):
        batch, batch_err = lauricella_fd3_ln(1.5, n - 3.0, 2.0, n + 1.0, 2.0, *args)
        assert batch.shape == batch_err.shape == n.shape
        assert np.all(batch_err <= 1e-10)
        for i, b in enumerate(n):
            single, single_err = lauricella_fd3_ln(1.5, b - 3.0, 2.0, b + 1.0, 2.0, *args)
            assert isinstance(single, float) and isinstance(single_err, float)
            assert abs(math.expm1(batch[i] - single)) <= 1e-15, (args, b)
            assert single_err == batch_err[i]
    # Broadcasting across exponent arrays of different shapes.
    grid, grid_err = lauricella_fd3_ln(1.5, n[:, None], np.array([0.5, 1.5]), 1.0, 2.0, -5.0, -2.0, -1.0)
    assert grid.shape == grid_err.shape == (12, 2)


def test_fd3_argument_close_to_one():
    # 1 - x sin^2 keeps its digits as x -> 1, and the nodes crowd towards
    # theta = pi/2, where the integrand's change sits.
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    x = 1.0 - 1e-9
    got, err = lauricella_fd3_ln(1.5, 1, 0, 0, 2, x, 0, 0)
    want = float(mpmath.log(mpmath.hyp2f1(1.5, 1, 2, x)))
    assert err <= 1e-10
    assert abs(math.expm1(got - want)) <= 1e-10


# ---------------------------------------------------------------------------
# Theta quadrature engine
# ---------------------------------------------------------------------------

def test_theta_quadrature_elementary_integral():
    # integral_0^{pi/2} d(theta) / (1 - x sin^2 theta) = pi / (2 sqrt(1 - x)),
    # with a layer at theta = 0 for x << -1 and at pi/2 for x -> 1.
    x = np.array([-1e9, -1e6, -3.0, 0.0, 0.5, 0.99, 1.0 - 1e-9])

    def log_f(rows, sin2, cos2):
        # 1 - x sin^2 written so that it keeps its digits as x -> 1
        return -np.log(cos2 + (1.0 - x[rows, None]) * sin2)

    want = np.log(0.5 * math.pi / np.sqrt(1.0 - x))
    # Nodes clustered per row where its layer sits.
    log_int, err = theta_quadrature_ln(log_f, x.size, tau=(1.0 - x) ** -0.25, rtol=1e-12)
    np.testing.assert_allclose(log_int, want, rtol=0, atol=5e-14)
    assert np.all(err <= 1e-12)
    # Without clustering the moderate rows still converge, and each row's
    # value does not depend on the rows beside it.
    def moderate(shift):
        return lambda rows, sin2, cos2: log_f(rows + shift, sin2, cos2)

    plain, _ = theta_quadrature_ln(moderate(2), 4, rtol=1e-12)
    np.testing.assert_allclose(plain, want[2:6], rtol=0, atol=5e-14)
    alone, _ = theta_quadrature_ln(moderate(3), 1, rtol=1e-12)
    assert alone[0] == plain[1]


def test_theta_quadrature_node_budget():
    # A kink at theta = pi/4 spoils geometric convergence: the trapezoid
    # error falls only as h^2, so 1e-13 is out of reach of the budget.
    def log_f(rows, sin2, cos2):
        return np.log(np.abs(sin2 - cos2) + 1.0) + np.zeros((rows.size, 1))

    with pytest.raises(ConvergenceError):
        theta_quadrature_ln(log_f, 2, rtol=1e-13)


@pytest.mark.parametrize(
    "k,delta,m1,m2,gbar",
    [(300.0, 1.0, 40, 2.0, 0.01), (50.0, 0.9, 7, 0.6, 1e-3)],
)
def test_ber_routes_agree_at_large_k_low_snr(k, delta, m1, m2, gbar):
    from iftr.linkperf import ber_exact, ber_mgf_quadrature
    from iftr.params import ModulationSpec

    p = IftrParams(k=k, delta=delta, m1=m1, m2=m2, mean_snr=gbar)
    bpsk = ModulationSpec.bpsk()
    exact = ber_exact(p, bpsk)
    quad = ber_mgf_quadrature(p, bpsk)
    assert exact.method == "lauricella-exact"
    assert exact.value == pytest.approx(quad.value, rel=1e-9)
