"""Regenerate ``refs.json``: high-precision reference values for ``digits``.

Run from the repository root (takes a few minutes; not part of a benchmark run):

    python3 bench/make_refs.py

Values come from mpmath at 34 significant digits, independently of the
library:

* PDF/CDF points: ``mpmath.invertlaplace`` (Talbot) of M(-s) and M(-s)/s,
  with the MGF written out using ``mpmath.hyp2f1``; every point is
  recomputed with de Hoog's method and the two must agree to 1e-20.
* BER points: ``mpmath.quad`` of (1/pi) int_0^{pi/2} M(-1/sin^2 t) dt
  (BPSK), checked against the same integral split at pi/4.
* The Rician-shadowed density: its closed form with ``mpmath.hyp1f1``.

The abscissae are chosen from the workloads' own grids, so a check can
look each one up by exact value.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import mpmath as mp

sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads as W  # noqa: E402

mp.mp.dps = 34
AGREE = mp.mpf("1e-20")


def mgf(k, delta, m1, m2, gbar, s):
    """E[exp(s gamma)] of the two-ray channel, with p1 >= p2 the ray power ratios."""
    k, delta, m1, m2, gbar = map(mp.mpf, (k, delta, m1, m2, gbar))
    root = mp.sqrt((1 - delta) * (1 + delta))
    p1, p2 = k / 2 * (1 + root), k / 2 * (1 - root)
    den = 1 + k - gbar * s
    a = gbar * s / den
    out = (1 + k) / den * (1 - p1 * a / m1) ** (-m1)
    if p2 > 0:
        out *= (1 - p2 * a / m2) ** (-m2)
        out *= mp.hyp2f1(m1, m2, 1, p1 * p2 * a * a / ((m1 - p1 * a) * (m2 - p2 * a)))
    return out


def _invert(f, x):
    talbot = mp.invertlaplace(f, x, method="talbot")
    dehoog = mp.invertlaplace(f, x, method="dehoog")
    if abs(talbot - dehoog) > AGREE * abs(talbot):
        raise RuntimeError(f"Talbot and de Hoog disagree at x={x}: {talbot} vs {dehoog}")
    return talbot


def cdf(par, gbar, x):
    return _invert(lambda s: mgf(*par, gbar, -s) / s, mp.mpf(x))


def pdf(par, gbar, x):
    return _invert(lambda s: mgf(*par, gbar, -s), mp.mpf(x))


def ber_bpsk(par, gbar):
    f = lambda t: mgf(*par, gbar, -1 / mp.sin(t) ** 2)  # noqa: E731
    whole = mp.quad(f, [0, mp.pi / 2]) / mp.pi
    split = mp.quad(f, [0, mp.pi / 4, mp.pi / 2]) / mp.pi
    if abs(whole - split) > AGREE * abs(whole):
        raise RuntimeError(f"BER quadratures disagree for {par} at gbar={gbar}")
    return whole


def rician_shadowed_pdf(k, m, gbar, x):
    k, m, gbar, x = map(mp.mpf, (k, m, gbar, x))
    rate = (1 + k) / gbar
    return rate * (m / (m + k)) ** m * mp.exp(-rate * x) * mp.hyp1f1(m, 1, k * rate * x / (m + k))


def main() -> None:
    values = {}
    g1, g2, g3 = W.fig1_grid(), W.fig2_grid(), W.cdf_grid()
    db = lambda d: mp.mpf(10) ** (mp.mpf(d) / 10)  # noqa: E731

    def put(label, pairs):
        values[label] = [[float(x), float(v)] for x, v in pairs]
        print(label, len(pairs), flush=True)

    for name, par in W.FIG1:  # envelope density 2 r f(r^2), Omega = 1
        put(f"fig1/{name}", [(r, 2 * mp.mpf(r) * pdf(par, 1, mp.mpf(r) ** 2)) for r in g1[[20, 100, 200]]])
    for name, par in W.FIG2:
        put(f"fig2/{name}", [(x, pdf(par, 1, x)) for x in g2[[10, 100, 300]]])
    put("fig2/rician_shadowed_m3", [(x, rician_shadowed_pdf(W.RS_K, W.RS_M, 1, x)) for x in g2[[10, 100, 300]]])
    for name, par in W.FIG3:
        put(f"fig3/{name}", [(x, cdf(par, 1, x)) for x in g3[[0, 100, 175, 225]]])
    for name, par in W.FIG5:
        put(f"fig5/{name}", [(d, cdf(par, db(d), W.OUTAGE_X)) for d in (0.0, 10.0, 30.0, 50.0)])
    for m1 in W.FIG4_M1:
        par = (15.0, 0.5, m1, 2.0)
        put(f"fig4/m1_{m1:g}", [(d, ber_bpsk(par, db(d))) for d in (0.0, 10.0, 20.0, 30.0, 40.0, 50.0)])
    put("ber/quadrature", [(d, ber_bpsk(W.QUAD_REF, db(d))) for d in W.QUAD_REF_DB])
    put("fit/true_cdf", [(x, cdf(W.FIT_TRUE, 1, x)) for x in W.FIT_REF_X])
    put("mc/cdf", [(x, cdf(W.MC_PARAMS, 1, x)) for x in W.MC_REF_X])
    put("mc/ber", [(W.MC_BER_DB, ber_bpsk(W.MC_PARAMS, db(W.MC_BER_DB)))])

    doc = {
        "generator": "bench/make_refs.py",
        "mpmath": mp.__version__,
        "dps": mp.mp.dps,
        "values": values,
    }
    with open(W.REFS_PATH, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
