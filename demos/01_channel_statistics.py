"""Walk through the channel statistics: parameterizations, MGF, PDF/CDF.

The model: two specular rays with amplitudes v1 >= v2 whose powers
fluctuate independently (unit-mean Gamma, shapes m1 and m2), plus diffuse
Gaussian scatter.  Everything downstream runs on the (K, Delta, m1, m2,
mean SNR) parameterization.
"""

import numpy as np

from iftr import (
    IftrParams,
    SpecularDecomposition,
    amplitudes_from_params,
    cdf,
    family_params,
    mgf,
    mgf_integer_m1,
    params_from_amplitudes,
    pdf,
)

print("== physical <-> statistical parameterization ==")
d = SpecularDecomposition(v1=np.sqrt(3.0), v2=1.0, sigma2=0.5)
p = params_from_amplitudes(d, es_n0=2.0, m1=2, m2=10)
print(f"amplitudes (v1={d.v1:.4f}, v2={d.v2:.4f}, sigma2={d.sigma2})")
print(f"  -> K={p.k:.4f}, Delta={p.delta:.4f}, mean_snr={p.mean_snr:.4f}")
back = amplitudes_from_params(p, sigma2=0.5)
print(f"  round trip: v1={back.v1:.12f}, v2={back.v2:.12f}")

print()
print("== MGF: general form vs integer-shape finite sum ==")
p = IftrParams(k=15.0, delta=0.9, m1=2, m2=10, mean_snr=1.0)
for s in (-0.5, -2.0, -10.0):
    a = mgf(p, s)
    b = mgf_integer_m1(p, s)
    print(f"  s={s:6.1f}:  general {a:.12f}   finite-sum {b:.12f}   rel diff {abs(a-b)/a:.1e}")

print()
print("== PDF/CDF: contour inversion vs closed-form route ==")
x = np.array([0.01, 0.1, 0.5, 1.0, 2.0])
f_inv = pdf(p, x)
f_cf = pdf(p, x, method="closed-form")
F_inv = cdf(p, x)
F_cf = cdf(p, x, method="closed-form")
print("      x      pdf(inversion)  pdf(closed)   cdf(inversion)  cdf(closed)")
for i, xi in enumerate(x):
    print(f"  {xi:7.3f}  {f_inv[i]:.8e}  {f_cf[i]:.8e}  {F_inv[i]:.8e}  {F_cf[i]:.8e}")

print()
print("== envelope domain (scale read as mean squared envelope) ==")
r = np.array([0.25, 0.75, 1.25])
print("  r, envelope pdf 2 r f(r^2):", np.round(pdf(p, r, domain="envelope"), 6))

print()
print("== special cases ==")
s = -1.0
p_shadow = IftrParams(k=5.0, delta=0.0, m1=3.0, m2=7.0, mean_snr=1.0)
print(f"  delta=0      : {mgf(p_shadow, s):.12f}  vs single-fluctuating-ray "
      f"{mgf(family_params('rician-shadowed', k=5.0, m1=3.0), s):.12f}")
p_frozen = IftrParams(k=15.0, delta=0.9, m1=1e5, m2=1e5, mean_snr=1.0)
print(f"  m1=m2=1e5    : {mgf(p_frozen, s):.8f}  vs frozen-ray limit "
      f"{mgf(family_params('twdp', k=15.0, delta=0.9), s):.8f}")
