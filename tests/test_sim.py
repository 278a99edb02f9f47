import json
import math
import os
import sys

import numpy as np
import pytest
from scipy.stats import ks_2samp

import iftr.sim
from iftr.params import IftrParams, ValidationError, family_params
from iftr.sim import (
    OUTPUTS,
    SimConfig,
    provenance_dict,
    read_samples,
    sample_ftr,
    sample_iftr,
    write_samples,
)
from iftr.stats import mgf


PINNED_N = (1 << 19) + 3
PINNED_AT = (0, (1 << 19) - 1, 1 << 19, PINNED_N - 1)  # first, chunk boundary, last
PINNED_SAMPLERS = {
    "iftr": lambda cfg: sample_iftr(IftrParams(k=3.0, delta=0.4, m1=1.5, m2=5.0, mean_snr=2.0), cfg),
    "twdp": lambda cfg: sample_iftr(family_params("twdp", k=15.0, delta=0.9), cfg),
    "ftr": lambda cfg: sample_ftr(8.0, 0.6, 2.5, 3.0, cfg),
}
# float.hex of the draws at PINNED_AT (seed 2024) as the sampler produced
# them when it assembled complex voltages chunk by chunk on one thread.
PINNED_BITS = {
    ("iftr", "envelope"): [
        "0x1.fd9a158969c26p-1",
        "0x1.53d45b5c3e8dcp+0",
        "0x1.7e4cfcb7eb24fp+1",
        "0x1.7a6883ac081a2p+0",
    ],
    ("iftr", "snr"): [
        "0x1.fb370b312cd90p-1",
        "0x1.c31c1a1dbf0ddp+0",
        "0x1.1d74ecadf4384p+3",
        "0x1.17ac67c1a3b6ap+1",
    ],
    ("iftr", "complex-voltage"): [
        ("-0x1.ba7a3659132f5p-1", "-0x1.f9999af297236p-2"),
        ("0x1.2ab1572b20a80p+0", "0x1.4423f1e1778fcp-1"),
        ("0x1.42e5fb071a415p+1", "-0x1.9957e69ba60eap+0"),
        ("0x1.2f44f55392e0ap+0", "0x1.c4a3911406960p-1"),
    ],
    ("twdp", "envelope"): [
        "0x1.50381de4e484fp-2",
        "0x1.704e1c6cea33ep+0",
        "0x1.498ed9c48f4afp-2",
        "0x1.1d266d167455dp+0",
    ],
    ("twdp", "snr"): [
        "0x1.b9935ac5ef7eap-4",
        "0x1.08f054c73b6dfp+1",
        "0x1.a8407b71879c6p-4",
        "0x1.3d9e94a8902dbp+0",
    ],
    ("twdp", "complex-voltage"): [
        ("-0x1.38c7e90d4091fp-2", "-0x1.ed56cb98bd40cp-4"),
        ("0x1.f98c96379afb1p-1", "0x1.0bde67032e293p+0"),
        ("0x1.190a58bac0673p-2", "0x1.583ca7a7ce89dp-3"),
        ("0x1.0fccb133c1526p+0", "0x1.58eb43522a222p-2"),
    ],
    ("ftr", "envelope"): [
        "0x1.f06314bb4c0ebp-1",
        "0x1.5c09ef0b69349p+1",
        "0x1.e6b469c41cab9p+0",
        "0x1.659236a752f17p-1",
    ],
    ("ftr", "snr"): [
        "0x1.e1400b5768a1dp-1",
        "0x1.d92b0249b40aap+2",
        "0x1.cea8c05cc22b1p+1",
        "0x1.f3711ff10fdb0p-2",
    ],
    ("ftr", "complex-voltage"): [
        ("-0x1.c8b76cc52a4dap-1", "0x1.84e581bfd808dp-2"),
        ("0x1.3326cded08749p-1", "-0x1.537656e168418p+1"),
        ("0x1.c9fb6b8308ddap+0", "0x1.4972860f3206fp-1"),
        ("-0x1.258e523200b13p-1", "-0x1.9852d54b44ed1p-2"),
    ],
}


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


@pytest.mark.parametrize("sampler, output", sorted(PINNED_BITS))
def test_sampler_bits_are_pinned(sampler, output):
    v = PINNED_SAMPLERS[sampler](SimConfig(n_samples=PINNED_N, seed=2024, output=output))
    if np.iscomplexobj(v):
        got = [(float(v[i].real).hex(), float(v[i].imag).hex()) for i in PINNED_AT]
        want = [tuple(pair) for pair in PINNED_BITS[sampler, output]]
    else:
        got = [float(v[i]).hex() for i in PINNED_AT]
        want = PINNED_BITS[sampler, output]
    assert got == want


@pytest.mark.parametrize("output", OUTPUTS)
def test_one_lane_equals_many(monkeypatch, output):
    # Three chunks: uneven over two lanes, one each over four.
    p = IftrParams(k=6.0, delta=0.8, m1=0.7, m2=3.0, mean_snr=1.5)
    cfg = SimConfig(n_samples=2 * (1 << 19) + 5, seed=31, output=output)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
    many = sample_iftr(p, cfg)
    shared = sample_ftr(6.0, 0.8, 0.7, 1.5, cfg)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    np.testing.assert_array_equal(sample_iftr(p, cfg), many)
    np.testing.assert_array_equal(sample_ftr(6.0, 0.8, 0.7, 1.5, cfg), shared)


def test_lanes_under_thread_switching(monkeypatch):
    # More lanes than cores, small chunks and a short switch interval:
    # every chunk must still land in its own slice with its own stream.
    monkeypatch.setattr(iftr.sim, "_CHUNK", 1000)
    p = IftrParams(k=2.0, delta=0.5, m1=1.2, m2=4.0, mean_snr=1.0)
    cfg = SimConfig(n_samples=40_321, seed=5, output="complex-voltage")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    one = sample_iftr(p, cfg)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(16)), raising=False)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            np.testing.assert_array_equal(sample_iftr(p, cfg), one)
    finally:
        sys.setswitchinterval(interval)


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


def test_read_samples_file_forms(tmp_path):
    path = tmp_path / "samples.txt"
    path.write_text('# {"seed": 1}\n', encoding="utf-8")
    values, prov = read_samples(path)
    assert values.dtype == float and values.size == 0 and prov == {"seed": 1}

    # Blank lines are skipped, the last non-empty header wins.
    path.write_text('\n# {"seed": 1}\n  0.5\n\n   \n#\n1e-3\n# {"seed": 2}\n\n', encoding="utf-8")
    values, prov = read_samples(path)
    assert values.tolist() == [0.5, 1e-3] and prov == {"seed": 2}

    # One 're,im' row makes the whole file complex.
    path.write_text("# {}\n2.0\n0.5,-1.5\n", encoding="utf-8")
    values, _ = read_samples(path)
    assert values.dtype == complex and values.tolist() == [2.0 + 0j, 0.5 - 1.5j]

    for bad in ("0.5\nnan-ish\n", "0.5\n1.0 # note\n", "0.5,1.0\n0.5,1.0,2.0\n", "0.5,x\n"):
        path.write_text("# {}\n" + bad, encoding="utf-8")
        with pytest.raises(ValueError):
            read_samples(path)
