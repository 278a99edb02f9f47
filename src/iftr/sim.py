"""Seeded Monte Carlo generation of channel realizations.

Physical model per draw:

    V = sqrt(zeta1) v1 e^{j phi1} + sqrt(zeta2) v2 e^{j phi2} + X + jY

with independent unit-mean Gamma fluctuations ``zeta_i`` (shapes m1, m2),
independent uniform phases, and i.i.d. Gaussian diffuse quadratures.  The
nested families (TWDP, Rice, Rician-shadowed) are ``sample_iftr`` of
``params.family_params``; jointly fluctuating rays, one shared
fluctuation on both, have their own sampler on the same machinery.

Streams come from numpy's PCG64 generator seeded through SeedSequence;
generation is chunked with per-chunk spawned seeds and fixed assembly
order, so outputs are bit-reproducible for a fixed (seed, config,
numpy stream version) regardless of how chunks are produced.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict

import numpy as np

from .params import IftrParams, ValidationError

__all__ = ["SimConfig", "sample_iftr", "sample_ftr", "write_samples", "read_samples"]

OUTPUTS = ("envelope", "snr", "complex-voltage")
_CHUNK = 1 << 19


@dataclass(frozen=True)
class SimConfig:
    """Sample count, seed and output kind."""

    n_samples: int
    seed: int
    output: str = "envelope"

    def __post_init__(self) -> None:
        if self.n_samples < 1:
            raise ValidationError(f"n_samples must be >= 1, got {self.n_samples}")
        if self.output not in OUTPUTS:
            raise ValidationError(f"output must be one of {OUTPUTS}, got {self.output!r}")


def _unit_gamma(rng: np.random.Generator, shape: float, n: int) -> np.ndarray:
    """Unit-mean Gamma fluctuations; shape = inf means frozen (identically 1)."""
    if shape == math.inf:
        return np.ones(n)
    return rng.gamma(shape, 1.0 / shape, size=n)


def _chunks(cfg: SimConfig):
    seeds = np.random.SeedSequence(cfg.seed).spawn(
        (cfg.n_samples + _CHUNK - 1) // _CHUNK
    )
    start = 0
    for seq in seeds:
        n = min(_CHUNK, cfg.n_samples - start)
        yield np.random.default_rng(seq), n
        start += n


def _assemble(cfg: SimConfig, voltage_chunks, mean_power: float) -> np.ndarray:
    v = np.concatenate(voltage_chunks)
    # Unit mean |V|^2 by construction; mean_power (snr or envelope scale)
    # enters as a deterministic rescale.
    if cfg.output == "complex-voltage":
        return v * math.sqrt(mean_power)
    power = (v.real * v.real + v.imag * v.imag) * mean_power
    if cfg.output == "snr":
        return power
    return np.sqrt(power)


def _draw_voltage(rng, n, v1, v2, sigma, m1, m2, shared_shape=None):
    """One chunk of normalized voltages.  Draw order is pinned:
    fluctuations, phases, then diffuse quadratures."""
    if shared_shape is None:
        z1 = _unit_gamma(rng, m1, n)
        z2 = _unit_gamma(rng, m2, n)
    else:
        z1 = z2 = _unit_gamma(rng, shared_shape, n)
    phi = rng.uniform(0.0, 2.0 * math.pi, size=(2, n))
    xy = rng.normal(0.0, sigma, size=(2, n))
    return (
        np.sqrt(z1) * v1 * np.exp(1j * phi[0])
        + np.sqrt(z2) * v2 * np.exp(1j * phi[1])
        + xy[0]
        + 1j * xy[1]
    )


def _normalized_amplitudes(k: float, delta: float):
    """(v1, v2, sigma) scaled so that E|V|^2 = 2 sigma^2 (1 + K) = 1."""
    sigma2 = 1.0 / (2.0 * (1.0 + k))
    root = math.sqrt((1.0 - delta) * (1.0 + delta))
    v1 = math.sqrt(2.0 * sigma2 * 0.5 * k * (1.0 + root))
    v2 = math.sqrt(2.0 * sigma2 * 0.5 * k * (1.0 - root))
    return v1, v2, math.sqrt(sigma2)


def sample_iftr(p: IftrParams, cfg: SimConfig) -> np.ndarray:
    """Channel realizations with independently fluctuating rays.

    Works for any real shapes m1, m2 > 0 (numpy's Gamma sampler handles
    non-integer shapes); the sample mean of the SNR targets ``p.mean_snr``
    exactly in expectation.
    """
    v1, v2, sigma = _normalized_amplitudes(p.k, p.delta)
    chunks = [
        _draw_voltage(rng, n, v1, v2, sigma, p.m1, p.m2) for rng, n in _chunks(cfg)
    ]
    return _assemble(cfg, chunks, p.mean_snr)


def sample_ftr(k: float, delta: float, m: float, mean_power: float, cfg: SimConfig) -> np.ndarray:
    """Jointly fluctuating rays: one shared Gamma fluctuation on both."""
    v1, v2, sigma = _normalized_amplitudes(k, delta)
    chunks = [
        _draw_voltage(rng, n, v1, v2, sigma, None, None, shared_shape=m)
        for rng, n in _chunks(cfg)
    ]
    return _assemble(cfg, chunks, mean_power)


def write_samples(path, values: np.ndarray, provenance: dict) -> None:
    """Dump samples one value per line, '#'-prefixed JSON provenance header.

    Formatting uses repr-roundtrip precision so repeated runs with the same
    seed produce byte-identical files.
    """
    header = dict(provenance)
    header.setdefault("generator", "numpy-pcg64")
    values = np.asarray(values)
    if np.iscomplexobj(values):
        lines = map(",".join, zip(map(repr, values.real.tolist()), map(repr, values.imag.tolist())))
    else:
        lines = map(repr, values.astype(float, copy=False).tolist())
    body = "\n".join(lines)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# " + json.dumps(header, sort_keys=True) + "\n")
        if body:
            fh.write(body + "\n")


def read_samples(path):
    """Read a sample dump; returns (values, provenance dict)."""
    provenance = {}
    rows = []
    complex_rows = False
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                payload = line.lstrip("#").strip()
                if payload:
                    provenance = json.loads(payload)
                continue
            if "," in line:
                complex_rows = True
                re_s, im_s = line.split(",")
                rows.append(complex(float(re_s), float(im_s)))
            else:
                rows.append(float(line))
    dtype = complex if complex_rows else float
    return np.asarray(rows, dtype=dtype), provenance


def provenance_dict(cfg: SimConfig, **extra) -> dict:
    doc = asdict(cfg)
    doc.update(extra)
    return doc
