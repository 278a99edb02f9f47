import json
import math

import numpy as np
import pytest
from scipy.stats import ks_2samp

from iftr.params import IftrParams, ValidationError, family_params
from iftr.sim import (
    SimConfig,
    provenance_dict,
    read_samples,
    sample_ftr,
    sample_iftr,
    write_samples,
)
from iftr.stats import mgf


def one_sample_ks(values, cdf_values):
    n = len(values)
    i = np.arange(1, n + 1)
    return max(np.max(i / n - cdf_values), np.max(cdf_values - (i - 1) / n))


def test_config_validation():
    with pytest.raises(ValidationError):
        SimConfig(n_samples=0, seed=1)
    with pytest.raises(ValidationError):
        SimConfig(n_samples=10, seed=1, output="power")


def test_determinism_bit_identical():
    p = IftrParams(k=15, delta=0.9, m1=2, m2=2, mean_snr=1.0)
    cfg = SimConfig(n_samples=2048, seed=1234)
    a = sample_iftr(p, cfg)
    b = sample_iftr(p, cfg)
    np.testing.assert_array_equal(a, b)
    c = sample_iftr(p, SimConfig(n_samples=2048, seed=1235))
    assert not np.array_equal(a, c)


def test_chunking_invariant_prefix():
    # Chunked assembly is indexed by chunk, so a longer run extends a
    # shorter one with the same seed chunk-for-chunk.
    p = IftrParams(k=3, delta=0.4, m1=1.5, m2=5, mean_snr=1.0)
    long = sample_iftr(p, SimConfig(n_samples=(1 << 19) + 100, seed=7))
    short = sample_iftr(p, SimConfig(n_samples=1 << 19, seed=7))
    np.testing.assert_array_equal(long[: 1 << 19], short)


def test_mean_power_matches_spec():
    p = IftrParams(k=15, delta=0.9, m1=2, m2=2, mean_snr=2.5)
    snr = sample_iftr(p, SimConfig(n_samples=10 ** 6, seed=5, output="snr"))
    se = snr.std() / math.sqrt(len(snr))
    assert abs(snr.mean() - 2.5) < 3 * se


def test_diffuse_only_is_exponential():
    n = 10 ** 7
    p = IftrParams(k=0, delta=0, m1=1, m2=1, mean_snr=1.0)
    snr = np.sort(sample_iftr(p, SimConfig(n_samples=n, seed=1, output="snr")))
    ks = one_sample_ks(snr, 1.0 - np.exp(-snr))
    assert ks < 0.001


def test_rice_k0_is_rayleigh():
    n = 10 ** 7
    env = np.sort(sample_iftr(family_params("rice", k=0.0), SimConfig(n_samples=n, seed=2)))
    ks = one_sample_ks(env, 1.0 - np.exp(-(env ** 2)))
    assert ks < 0.001


def test_empirical_mgf_matches_analytic():
    p = IftrParams(k=15, delta=0.9, m1=2, m2=2, mean_snr=1.0)
    snr = sample_iftr(p, SimConfig(n_samples=10 ** 6, seed=6, output="snr"))
    for s in (-0.5, -1.0):
        e = np.exp(s * snr)
        se = e.std() / math.sqrt(len(e))
        assert abs(e.mean() - float(mgf(p, s))) < 3 * se


def test_rician_shadowed_nests_into_iftr():
    n = 10 ** 6
    a = sample_iftr(family_params("rician-shadowed", k=5.0, m1=2.5), SimConfig(n_samples=n, seed=10))
    b = sample_iftr(
        IftrParams(k=5.0, delta=0.0, m1=2.5, m2=7.0, mean_snr=1.0),
        SimConfig(n_samples=n, seed=11),
    )
    assert ks_2samp(a, b).statistic < 0.002


def test_twdp_equals_iftr_with_frozen_shapes():
    n = 10 ** 6
    a = sample_iftr(family_params("twdp", k=15.0, delta=0.9), SimConfig(n_samples=n, seed=12))
    b = sample_iftr(
        IftrParams(k=15.0, delta=0.9, m1=1e6, m2=1e6, mean_snr=1.0),
        SimConfig(n_samples=n, seed=13),
    )
    assert ks_2samp(a, b).statistic < 0.002


def test_ftr_freezes_to_twdp():
    n = 10 ** 6
    a = sample_ftr(15.0, 0.9, 1e6, 1.0, SimConfig(n_samples=n, seed=14))
    b = sample_iftr(family_params("twdp", k=15.0, delta=0.9), SimConfig(n_samples=n, seed=15))
    assert ks_2samp(a, b).statistic < 0.002


def test_ftr_mean_power():
    snr = sample_ftr(15.0, 0.5, 2.0, 3.0, SimConfig(n_samples=10 ** 6, seed=16, output="snr"))
    se = snr.std() / math.sqrt(len(snr))
    assert abs(snr.mean() - 3.0) < 3 * se


def test_phase_rotation_invariance():
    # A global phase rotation leaves the envelope distribution unchanged.
    n = 10 ** 6
    p = IftrParams(k=8.0, delta=0.7, m1=2, m2=3, mean_snr=1.0)
    v = sample_iftr(p, SimConfig(n_samples=n, seed=20, output="complex-voltage"))
    rotated_env = np.abs(v * np.exp(1j * 1.234))
    env = sample_iftr(p, SimConfig(n_samples=n, seed=21, output="envelope"))
    assert ks_2samp(rotated_env, env).statistic < 0.002


def test_sample_dispatch():
    cfg = SimConfig(n_samples=100, seed=3)
    v = sample_iftr(family_params("twdp", k=5.0, delta=0.5), cfg)
    assert v.shape == (100,)
    # Fields the family does not free are ignored.
    np.testing.assert_array_equal(sample_iftr(family_params("twdp", k=5.0, delta=0.5, m1=3.0), cfg), v)


def per_line_dump(values, provenance):
    """The sample-file format written value by value (reference for write_samples)."""
    header = {"generator": "numpy-pcg64", **provenance}
    lines = ["# " + json.dumps(header, sort_keys=True)]
    for v in values:
        if np.iscomplexobj(values):
            lines.append(f"{float(v.real)!r},{float(v.imag)!r}")
        else:
            lines.append(f"{float(v)!r}")
    return "".join(line + "\n" for line in lines).encode("utf-8")


def test_write_read_round_trip(tmp_path):
    p = IftrParams(k=2, delta=0.3, m1=1.5, m2=2.5, mean_snr=1.0)
    cfg = SimConfig(n_samples=500, seed=9, output="snr")
    values = sample_iftr(p, cfg)
    path = tmp_path / "samples.txt"
    write_samples(path, values, provenance_dict(cfg, K=2.0))
    assert path.read_bytes() == per_line_dump(values, provenance_dict(cfg, K=2.0))
    back, prov = read_samples(path)
    np.testing.assert_array_equal(values, back)
    assert prov["seed"] == 9 and prov["K"] == 2.0 and prov["generator"] == "numpy-pcg64"


def test_write_read_complex(tmp_path):
    p = IftrParams(k=2, delta=0.3, m1=1.5, m2=2.5, mean_snr=1.0)
    cfg = SimConfig(n_samples=64, seed=9, output="complex-voltage")
    values = sample_iftr(p, cfg)
    path = tmp_path / "voltage.txt"
    write_samples(path, values, {})
    assert path.read_bytes() == per_line_dump(values, {})
    back, _ = read_samples(path)
    np.testing.assert_array_equal(values, back)
