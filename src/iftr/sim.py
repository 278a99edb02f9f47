"""Seeded Monte Carlo generation of channel realizations.

Physical model per draw:

    V = sqrt(zeta1) v1 e^{j phi1} + sqrt(zeta2) v2 e^{j phi2} + X + jY

with independent unit-mean Gamma fluctuations ``zeta_i`` (shapes m1, m2),
independent uniform phases, and i.i.d. Gaussian diffuse quadratures.  The
nested families (TWDP, Rice, Rician-shadowed) are ``sample_iftr`` of
``params.family_params``; jointly fluctuating rays, one shared
fluctuation on both, have their own sampler on the same machinery.

Streams come from numpy's PCG64 generator seeded through SeedSequence;
generation is chunked (2^19 draws) with per-chunk spawned seeds, and each
chunk is written into its own slice of preallocated real and imaginary
output arrays, so outputs are bit-reproducible for a fixed (seed, config,
numpy stream version).

Chunks run on min(chunks, usable CPUs) lanes, threads of a per-call pool
(numpy's generator fills and ufuncs release the GIL); a single-chunk draw
runs inline.  Lane k takes chunks k, k + lanes, ...; since a chunk's
values depend only on its index, outputs do not depend on the lane count.
Each lane reuses one scratch block of six chunk-length rows for all its
chunks.  The blocks are allocated by the calling thread and every step
writes into them or into the outputs, so no lane allocates an array.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
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


def _unit_root(rng: np.random.Generator, shape: float, out: np.ndarray):
    """sqrt(zeta) of unit-mean Gamma fluctuations drawn into ``out``;
    shape = inf means frozen (1.0, nothing drawn).  ``standard_gamma``
    times 1/shape is numpy's ``gamma(shape, 1/shape)`` to the bit."""
    if shape == math.inf:
        return 1.0
    rng.standard_gamma(shape, out=out)
    out *= 1.0 / shape
    return np.sqrt(out, out=out)


def _draw_chunk(rng, re, im, rows, rays, output, mean_power):
    """Fill one chunk's finished outputs into ``re`` (and ``im``, or the
    last scratch row when the output is real).

    ``rays`` is (v1, v2, sigma, m1, m2, shared); ``rows`` is the lane's
    (6, chunk) scratch.  Draw order is pinned: fluctuations, phases, then
    diffuse quadratures.  Per draw this is the arithmetic of

        V = a1 e^{j phi1} + a2 e^{j phi2} + (X + jY),   a_i = sqrt(zeta_i) v_i,

    on real parts: Re V = X + (a1 cos phi1 + a2 cos phi2), Im V the same
    with sin.  Every step writes into ``re``, ``im`` or ``rows``.
    """
    n = re.size
    a1, a2, p1, p2, t, im_row = (row[:n] for row in rows)
    im = im_row if im is None else im
    v1, v2, sigma, m1, m2, shared = rays
    if shared:
        root = _unit_root(rng, m1, a1)
        np.multiply(root, v2, out=a2)
        np.multiply(root, v1, out=a1)
    else:
        np.multiply(_unit_root(rng, m1, a1), v1, out=a1)
        np.multiply(_unit_root(rng, m2, a2), v2, out=a2)
    for p in (p1, p2):
        rng.random(out=p)
        p *= 2.0 * math.pi
    for q in (re, im):
        rng.standard_normal(out=q)
        q *= sigma
    np.cos(p1, out=t)
    t *= a1
    np.sin(p1, out=p1)
    p1 *= a1
    np.cos(p2, out=a1)  # a1 is spent: it now holds a2 cos phi2
    a1 *= a2
    np.sin(p2, out=p2)
    p2 *= a2
    t += a1
    re += t
    p1 += p2
    im += p1
    # Unit mean |V|^2 by construction; mean_power (snr or envelope scale)
    # enters as a deterministic rescale.
    if output == "complex-voltage":
        scale = math.sqrt(mean_power)
        re *= scale
        im *= scale
        return
    re *= re
    im *= im
    re += im
    re *= mean_power
    if output == "envelope":
        np.sqrt(re, out=re)


def _cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this OS
        return os.cpu_count() or 1


def _sample(cfg: SimConfig, rays, mean_power: float) -> np.ndarray:
    n = cfg.n_samples
    seeds = np.random.SeedSequence(cfg.seed).spawn((n + _CHUNK - 1) // _CHUNK)
    lanes = min(len(seeds), _cpus())
    re = np.empty(n)
    im = np.empty(n) if cfg.output == "complex-voltage" else None
    # Separate 24 MB blocks per lane stay under glibc's 32 MB mmap
    # ceiling, so repeated calls reuse freed heap memory; one block for all
    # lanes would be a fresh mapping on top of it on every call.
    scratch = [np.empty((6, min(n, _CHUNK))) for _ in range(lanes)]

    def lane(k: int) -> None:
        for c in range(k, len(seeds), lanes):
            part = slice(c * _CHUNK, (c + 1) * _CHUNK)
            _draw_chunk(
                np.random.default_rng(seeds[c]),
                re[part],
                None if im is None else im[part],
                scratch[k],
                rays,
                cfg.output,
                mean_power,
            )

    if lanes == 1:
        lane(0)
    else:
        with ThreadPoolExecutor(max_workers=lanes) as pool:
            list(pool.map(lane, range(lanes)))
    if im is None:
        return re
    del scratch  # before the complex output is allocated
    v = np.empty(n, dtype=complex)
    v.real = re
    v.imag = im
    return v


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
    rays = (*_normalized_amplitudes(p.k, p.delta), p.m1, p.m2, False)
    return _sample(cfg, rays, p.mean_snr)


def sample_ftr(k: float, delta: float, m: float, mean_power: float, cfg: SimConfig) -> np.ndarray:
    """Jointly fluctuating rays: one shared Gamma fluctuation on both."""
    rays = (*_normalized_amplitudes(k, delta), m, m, True)
    return _sample(cfg, rays, mean_power)


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


def _complex_row(line: str) -> complex:
    if "," not in line:
        return float(line)
    re_s, im_s = line.split(",")
    return complex(float(re_s), float(im_s))


def read_samples(path):
    """Read a sample dump; returns (values, provenance dict).

    Blank lines are skipped, the last non-empty '#' header wins, and one
    're,im' row makes the whole file complex.  A malformed row raises
    ``ValueError``.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line for line in map(str.strip, fh) if line]
    headers = [line for line in lines if line[0] == "#"]
    rows = [line for line in lines if line[0] != "#"] if headers else lines
    provenance = {}
    for header in headers:
        payload = header.lstrip("#").strip()
        if payload:
            provenance = json.loads(payload)
    try:
        return np.fromiter(map(float, rows), dtype=float, count=len(rows)), provenance
    except ValueError:
        if not any("," in row for row in rows):
            raise
    return np.array(list(map(_complex_row, rows)), dtype=complex), provenance


def provenance_dict(cfg: SimConfig, **extra) -> dict:
    doc = asdict(cfg)
    doc.update(extra)
    return doc
