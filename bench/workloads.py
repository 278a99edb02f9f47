"""The four benchmark workloads: seeded inputs, op lists and output checks.

Each workload is a fixed list of ops, issued one after another by a single
caller (a closed loop).  An op is one curve, one BER point, one fit, or one
sampler / sample-file call.  Every op's output is checked; where a stored
high-precision reference exists (``refs.json``, written by
``make_refs.py``) the check also yields the relative error that feeds the
``digits`` metric.

The library is reached through module attributes (``stats.cdf``...), so
the spans that ``tracing.Tracer`` installs see these calls as well.

Why each workload exists is written in ``README.md`` beside this file.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

HERE = Path(__file__).resolve().parent
REFS_PATH = HERE / "refs.json"
WORK_DIR = HERE / ".work"

# Relative error above which a value fails its reference check: ten times
# the documented accuracy of the inversion (~1e-9, README "Numerical notes").
REF_RTOL = 1e-8
# Monte Carlo checks allow five standard errors.
MC_SIGMAS = 5.0

# Parameter sets (k, delta, m1, m2) of the figure presets, as in `iftr eval
# --preset`, `iftr ber --preset fig4` and `iftr outage --preset fig5`.
FIG1 = [("iftr_m2", (15.0, 0.9, 2.0, 2.0)), ("iftr_m10", (15.0, 0.9, 10.0, 10.0))]
FIG2 = [("d0.1_m1_3_m2_5", (15.0, 0.1, 3.0, 5.0)),
        ("d0.9_m1_3_m2_5", (15.0, 0.9, 3.0, 5.0)),
        ("d0.9_m1_10_m2_10", (15.0, 0.9, 10.0, 10.0))]
FIG3 = [("K10_d0.9_m1_2_m2_8", (10.0, 0.9, 2.0, 8.0)),
        ("K10_d0.1_m1_2_m2_8", (10.0, 0.1, 2.0, 8.0)),
        ("K10_d0.9_m1_8_m2_2", (10.0, 0.9, 8.0, 2.0)),
        ("K10_d0.5_m1_3_m2_2", (10.0, 0.5, 3.0, 2.0))]
FIG4_M1 = (2.0, 5.0, 40.0)  # BPSK, K=15, Delta=0.5, m2=2
# dB step of each fig4 curve: an m1 = 40 point costs 40-150 ms (40 FD3
# integrals), so that curve is sampled every 2.5 dB to keep a pass short.
# Its 21 points are the slowest ops of the pass, so op_p90_ms falls among
# them and not among the seed-drawn quadrature points.
FIG4_STEP_DB = {2.0: 1.0, 5.0: 1.0, 40.0: 2.5}
FIG5 = [("K10_d0.1_m1_2_m2_8", (10.0, 0.1, 2.0, 8.0)),
        ("K10_d0.9_m1_2_m2_8", (10.0, 0.9, 2.0, 8.0)),
        ("K80_d0.9_m1_2_m2_8", (80.0, 0.9, 2.0, 8.0)),
        ("K10_d0.9_m1_8_m2_2", (10.0, 0.9, 8.0, 2.0))]
RS_K, RS_M = 15.0, 3  # fig2's Rician-shadowed comparison curve


def fig1_grid():
    return np.linspace(0.01, 3.0, 300)


def fig2_grid():
    return np.linspace(0.01, 4.0, 400)


def cdf_grid():
    return np.logspace(-4, 1, 251)


def sweep_db():
    return np.arange(0.0, 51.0, 1.0)


# The high-K curve is fixed: with seed-drawn shapes its cost ranged
# 0.68-1.26 s (251 points), more than the rest of the pass varies.  Its
# 61-point grid spans the same range, so the contour still hits the cap.
HIGH_K = (100.0, 0.8, 2.6, 5.4)
HIGH_K_POINTS = 61

OUTAGE_RS = 2.0
OUTAGE_X = 2.0 ** OUTAGE_RS - 1.0

# Non-integer shapes with stored references for the quadrature BER route.
QUAD_REF = (8.0, 0.7, 2.5, 3.5)
QUAD_REF_DB = (0.0, 10.0, 20.0, 30.0)
# Seed-drawn non-integer shapes for the quadrature route, each at a few
# mean SNRs: a point costs 15-47 ms depending on the shapes, and more
# shapes at fewer points each keep that cost steadier across seeds.
QUAD_DRAWN = 4
QUAD_DRAWN_DB = (0.0, 20.0, 40.0)

# Criterion-10 style fit data: true parameters and sample count.
FIT_TRUE = (15.0, 0.9, 2.0, 10.0)
FIT_SAMPLES = 10 ** 5
# Fit time depends strongly on the data: 1.5 s to 82 s per fit across
# sampler seeds 5000..5015 (fit seed = sampler seed - 5000), and a fit of
# several seconds averages over the host's speed swings instead of
# sampling them.  So the inputs are fixed, whatever the run seed: one full
# fit of sampler seed 5012 with fit seed 12 (~1.6 s, 38% of it in 2F1),
# and the slowest objective evaluations of the fit of sampler seed 5009
# with fit seed 9 (5.7 s, 91% of it in 2F1), replayed as single curves of
# ~60 ms on that dataset's abscissae.
FIT_DATA = (5012, 12)
FIT_SLOW_DATA = 5009
FIT_SLOW_POINTS = (
    (707500.0, 0.7847, 1.139, 54.11), (707500.0, 0.8238, 1.139, 54.03),
    (707600.0, 0.7849, 1.139, 53.86), (720800.0, 0.7846, 1.139, 54.03),
    (709100.0, 0.7895, 1.14, 51.4), (707500.0, 0.7846, 1.139, 65.96),
    (707900.0, 0.7858, 1.139, 55.39), (707500.0, 0.7846, 1.139, 56.79),
)
FIT_REF_X = (1e-3, 1e-2, 0.1, 0.5, 1.0, 2.0)

# Monte Carlo: one parameter set with stored CDF and BER references.
MC_PARAMS = (10.0, 0.9, 2.0, 8.0)
MC_SAMPLES = 10 ** 6
MC_FILE_VALUES = 2 * 10 ** 5  # leading SNR draws in the write/read round trip
MC_REF_X = (0.01, 0.1, 0.5, 1.0, 2.0)
MC_BER_DB = 10.0


class CheckError(Exception):
    """An op's output failed its correctness check."""


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    # check(output) -> dict with optional "rel_err" (list) and "excess_eps";
    # raises CheckError when the output is wrong.
    check: Callable[[object], dict]


@dataclass
class Workload:
    ops: list
    # Untimed checks run once per run; returns relative errors vs references.
    run_checks: Callable[[], list] = field(default=lambda: [])
    cleanup: Callable[[], None] = field(default=lambda: None)


def load_refs() -> dict:
    with open(REFS_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)["values"]


def rel_errors(values, refs) -> list:
    """Relative errors of ``values`` against reference pairs; raises CheckError beyond REF_RTOL."""
    errs = []
    for got, (where, ref) in zip(values, refs):
        err = abs(float(got) - ref) / abs(ref) if math.isfinite(float(got)) else math.inf
        if not err <= REF_RTOL:
            raise CheckError(f"value {float(got)!r} at {where} vs reference {ref!r} (rel err {err:.3g})")
        errs.append(err)
    return errs


def _finite(values, what):
    arr = np.atleast_1d(np.asarray(values, dtype=float))
    if not np.all(np.isfinite(arr)):
        raise CheckError(f"{what}: non-finite output")
    return arr


def _curve_check(kind, refs=None, grid=None):
    """Finite; densities >= 0; CDFs in [0, 1] and nondecreasing; reference points."""

    def check(values):
        arr = _finite(values, kind)
        if kind == "pdf" and np.any(arr < 0.0):
            raise CheckError("pdf: negative density")
        if kind == "cdf" and (np.any(arr < 0.0) or np.any(arr > 1.0) or np.any(np.diff(arr) < 0.0)):
            raise CheckError("cdf: outside [0, 1] or decreasing")
        if not refs:
            return {}
        idx = [int(np.searchsorted(grid, x)) for x, _ in refs]
        return {"rel_err": rel_errors(arr[idx], refs)}

    return check


def _scalar_check(refs=None, lo=0.0, hi=1.0):
    def check(value):
        v = float(_finite(value, "scalar")[0])
        if not lo < v <= hi:
            raise CheckError(f"value {v!r} outside ({lo}, {hi}]")
        return {"rel_err": rel_errors([v], refs)} if refs else {}

    return check


def _noninteger(rng, lo, hi):
    """A shape drawn from [lo, hi] kept at least 0.1 away from the integers."""
    m = float(rng.uniform(lo, hi))
    return m + 0.25 if abs(m - round(m)) < 0.1 else m


def curves(seed: int) -> Workload:
    from iftr import laplace, params, stats, linkperf

    refs = load_refs()
    rng = np.random.default_rng([seed, 1])
    P = params.IftrParams
    cfg = laplace.LaplaceInversionConfig()  # the preset curves' fixed config
    ops = []
    g1, g2, g3 = fig1_grid(), fig2_grid(), cdf_grid()
    for name, (k, d, m1, m2) in FIG1:
        p = P(k, d, m1, m2, 1.0)
        ops.append(Op("pdf", lambda p=p: stats.pdf(p, g1, domain="envelope", cfg=cfg),
                      _curve_check("pdf", refs[f"fig1/{name}"], g1)))
    for name, (k, d, m1, m2) in FIG2:
        p = P(k, d, m1, m2, 1.0)
        ops.append(Op("pdf", lambda p=p: stats.pdf(p, g2, cfg=cfg),
                      _curve_check("pdf", refs[f"fig2/{name}"], g2)))
    ops.append(Op("pdf", lambda: stats.rician_shadowed_pdf(RS_K, RS_M, 1.0, g2),
                  _curve_check("pdf", refs["fig2/rician_shadowed_m3"], g2)))
    for name, (k, d, m1, m2) in FIG3:
        p = P(k, d, m1, m2, 1.0)
        ops.append(Op("cdf", lambda p=p: stats.cdf(p, g3, cfg=cfg),
                      _curve_check("cdf", refs[f"fig3/{name}"], g3)))
    k, d, m1, m2 = FIG3[0][1]
    p_cf = P(k, d, m1, m2, 1.0)
    ops.append(Op("cdf", lambda: stats.cdf(p_cf, g3, method="closed-form"),
                  _curve_check("cdf", refs[f"fig3/{FIG3[0][0]}"], g3)))
    # fig5: one single-abscissa outage call per mean-SNR point.
    for name, (k, d, m1, m2) in FIG5:
        ref_by_db = {x: v for x, v in refs[f"fig5/{name}"]}
        for db in sweep_db():
            p = P(k, d, m1, m2, 10.0 ** (db / 10.0))
            ref = [(db, ref_by_db[db])] if db in ref_by_db else None
            ops.append(Op("outage", lambda p=p: linkperf.outage(p, OUTAGE_RS),
                          _scalar_check(ref)))
    # Non-integer shapes on auto-sized contours: two seed-drawn curves and
    # the fixed high-K one, where the node count reaches its 512 cap.
    drawn = [
        (rng.uniform(8.0, 16.0), rng.uniform(0.5, 0.9), _noninteger(rng, 1.5, 4.5), _noninteger(rng, 2.0, 8.0))
        for _ in range(2)
    ]
    g_high = np.logspace(-4, 1, HIGH_K_POINTS)
    for (k, d, m1, m2), grid in zip(drawn + [HIGH_K], (g3, g3, g_high)):
        p = P(k, d, m1, m2, 1.0)
        ops.append(Op("cdf", lambda p=p, grid=grid: stats.cdf(p, grid), _curve_check("cdf")))
    return Workload(ops)


def ber(seed: int) -> Workload:
    from iftr import params, linkperf

    refs = load_refs()
    rng = np.random.default_rng([seed, 2])
    P = params.IftrParams
    bpsk = params.ModulationSpec.bpsk()

    def exact_and_asymptote(p):
        return linkperf.ber_exact(p, bpsk).value, linkperf.ber_asymptotic(p, bpsk).value

    def pair_check(ref):
        inner = _scalar_check(ref, hi=0.5)

        def check(pair):
            _finite(pair[1], "asymptote")
            if not pair[1] > 0.0:
                raise CheckError("asymptote must be positive")
            return inner(pair[0])

        return check

    ops = []
    for m1 in FIG4_M1:
        ref_by_db = {x: v for x, v in refs[f"fig4/m1_{m1:g}"]}
        for db in np.arange(0.0, 51.0, FIG4_STEP_DB[m1]):
            p = P(15.0, 0.5, m1, 2.0, 10.0 ** (db / 10.0))
            ref = [(db, ref_by_db[db])] if db in ref_by_db else None
            ops.append(Op("ber", lambda p=p: exact_and_asymptote(p), pair_check(ref)))

    def quadrature(p):
        return linkperf.ber_mgf_quadrature(p, bpsk).value

    k, d, m1, m2 = QUAD_REF
    ref_by_db = {x: v for x, v in refs["ber/quadrature"]}
    for db in QUAD_REF_DB:
        p = P(k, d, m1, m2, 10.0 ** (db / 10.0))
        ops.append(Op("ber", lambda p=p: quadrature(p), _scalar_check([(db, ref_by_db[db])], hi=0.5)))
    for _ in range(QUAD_DRAWN):
        k, d = rng.uniform(8.0, 14.0), rng.uniform(0.3, 0.7)
        m1, m2 = _noninteger(rng, 1.5, 4.5), _noninteger(rng, 1.5, 4.5)
        for db in QUAD_DRAWN_DB:
            p = P(k, d, m1, m2, 10.0 ** (db / 10.0))
            ops.append(Op("ber", lambda p=p: quadrature(p), _scalar_check(hi=0.5)))
    return Workload(ops)


def fit_dataset(data_seed: int):
    """Criterion-10 style empirical CDF (part of set-up: sampling and the quantile grid)."""
    from iftr import fitting, params, sim

    p_true = params.IftrParams(*FIT_TRUE, 1.0)
    snr = sim.sample_iftr(p_true, sim.SimConfig(n_samples=FIT_SAMPLES, seed=data_seed, output="snr"))
    return fitting.empirical_cdf_from_samples(snr)


def fit(seed: int) -> Workload:
    from iftr import fitting, laplace, params, stats

    refs = load_refs()
    P = params.IftrParams
    p_true = P(*FIT_TRUE, 1.0)
    cfg = laplace.LaplaceInversionConfig()  # the fit objective's contour
    emp = fit_dataset(FIT_DATA[0])
    # Truth epsilon: the statistic at the true parameters on the fit's own
    # contour (the value criterion 10 compares against).
    eps_true = fitting.modified_ks(emp, lambda x: stats.cdf(p_true, x, cfg=cfg))
    fcfg = fitting.FitConfig(model_family="iftr", restarts=3, seed=FIT_DATA[1], max_evaluations=2000)

    def check(res):
        if not math.isfinite(res.epsilon):
            raise CheckError("non-finite epsilon")
        if res.epsilon > eps_true + 0.01:
            raise CheckError(f"epsilon {res.epsilon:.4g} exceeds truth {eps_true:.4g} + 0.01")
        for family, eps in res.diagnostics["nested"].items():
            if res.epsilon > eps + 1e-6:
                raise CheckError(f"nested dominance broken against {family}")
        return {"excess_eps": res.epsilon - eps_true}

    ops = [Op("fit", lambda: fitting.fit(emp, fcfg), check)]
    x_slow = fit_dataset(FIT_SLOW_DATA).x
    for point in FIT_SLOW_POINTS:
        p = P(*point, 1.0)
        ops.append(Op("objective", lambda p=p: stats.cdf(p, x_slow, cfg=cfg), _curve_check("cdf")))

    def run_checks():
        ref = refs["fit/true_cdf"]
        return rel_errors(stats.cdf(p_true, np.array([x for x, _ in ref]), cfg=cfg), ref)

    return Workload(ops, run_checks)


def montecarlo(seed: int) -> Workload:
    from iftr import fitting, linkperf, params, sim, stats

    refs = load_refs()
    rng = np.random.default_rng([seed, 4])
    seeds = [int(s) for s in rng.integers(0, 2 ** 31, size=4)]
    p = params.IftrParams(*MC_PARAMS, 1.0)
    p_ber = p.with_mean_snr(10.0 ** (MC_BER_DB / 10.0))
    bpsk = params.ModulationSpec.bpsk()
    WORK_DIR.mkdir(exist_ok=True)
    path = WORK_DIR / f"samples-{os.getpid()}.txt"
    n = MC_SAMPLES
    cdf_ref = refs["mc/cdf"]
    ber_ref = refs["mc/ber"][0][1]
    kept = {}  # the snr draw, shared by the I/O and empirical-CDF ops

    def sample(output, s):
        values = sim.sample_iftr(p, sim.SimConfig(n_samples=n, seed=s, output=output))
        if output == "snr":
            kept["snr"] = values
        return values

    def mean_check(output):
        def check(values):
            power = np.abs(values) ** 2 if output != "snr" else values
            _finite(power, output)
            if len(power) != n:
                raise CheckError(f"{output}: {len(power)} draws, expected {n}")
            se = float(np.std(power)) / math.sqrt(n)
            if abs(float(np.mean(power)) - p.mean_snr) > MC_SIGMAS * se:
                raise CheckError(f"{output}: mean power off by more than {MC_SIGMAS} SE")
            # Empirical CDF of the SNR at the reference abscissae.
            for x, ref in cdf_ref:
                f = float(np.mean(power <= x))
                if abs(f - ref) > MC_SIGMAS * math.sqrt(ref * (1.0 - ref) / n):
                    raise CheckError(f"{output}: empirical CDF at {x} is {f}, reference {ref}")
            return {}

        return check

    provenance = {"tool": "bench", "n_samples": n, "seed": seeds[1]}

    def write():
        sim.write_samples(path, kept["snr"][:MC_FILE_VALUES], provenance)

    def read():
        return sim.read_samples(path)

    def read_check(result):
        values, prov = result
        if prov.get("seed") != provenance["seed"] or not np.array_equal(values, kept["snr"][:MC_FILE_VALUES]):
            raise CheckError("sample file round trip is not exact")
        return {}

    def ecdf_check(emp):
        model = stats.cdf(p, emp.x)
        sigma = np.sqrt(model * (1.0 - model) / n)
        if np.any(np.abs(emp.F - model) > MC_SIGMAS * sigma):
            raise CheckError("empirical CDF off stats.cdf by more than 5 sigma at a quantile")
        return {}

    def ber_check(res):
        if abs(res.value - ber_ref) > MC_SIGMAS * res.est_error * res.value:
            raise CheckError(f"Monte Carlo BER {res.value} vs reference {ber_ref}")
        return {}

    ops = [
        Op("sample", lambda: sample("envelope", seeds[0]), mean_check("envelope")),
        Op("sample", lambda: sample("snr", seeds[1]), mean_check("snr")),
        Op("sample", lambda: sample("complex-voltage", seeds[2]), mean_check("complex-voltage")),
        Op("write", write, lambda _: {}),
        Op("read", read, read_check),
        Op("ecdf", lambda: fitting.empirical_cdf_from_samples(kept["snr"]), ecdf_check),
        Op("ber", lambda: linkperf.ber_monte_carlo(p_ber, bpsk, n, seeds[3]), ber_check),
    ]

    def run_checks():
        return rel_errors(stats.cdf(p, np.array([x for x, _ in cdf_ref])), cdf_ref)

    def cleanup():
        if path.exists():
            path.unlink()

    return Workload(ops, run_checks, cleanup)


BUILDERS = {"curves": curves, "ber": ber, "fit": fit, "montecarlo": montecarlo}
