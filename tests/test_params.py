import json
import math
from dataclasses import replace

import numpy as np
import pytest

from iftr import (
    IftrParams,
    ModulationSpec,
    SpecularDecomposition,
    ValidationError,
    amplitudes_from_params,
    family_params,
    params_from_amplitudes,
    params_from_json,
    params_to_json,
)
from iftr.stats import mgf


def test_params_from_amplitudes_single_component():
    d = SpecularDecomposition(v1=1.0, v2=0.0, sigma2=0.5)
    p = params_from_amplitudes(d, es_n0=1.0, m1=2, m2=2)
    assert p.k == pytest.approx(1.0, abs=1e-15)
    assert p.delta == 0.0
    assert p.mean_snr == pytest.approx(2.0, abs=1e-15)


def test_params_from_amplitudes_equal_components():
    d = SpecularDecomposition(v1=1.0, v2=1.0, sigma2=0.5)
    p = params_from_amplitudes(d, es_n0=1.0, m1=2, m2=2)
    assert p.k == pytest.approx(2.0, abs=1e-15)
    assert p.delta == pytest.approx(1.0, abs=1e-15)
    assert p.mean_snr == pytest.approx(3.0, abs=1e-15)


def test_params_from_amplitudes_hand_computed():
    # v1^2 + v2^2 = 4, K = 4 / (2 * 0.5) = 4, Delta = 2 sqrt(3) / 4,
    # mean snr = 2 * 2 * 0.5 * (1 + 4) = 10.
    d = SpecularDecomposition(v1=math.sqrt(3.0), v2=1.0, sigma2=0.5)
    p = params_from_amplitudes(d, es_n0=2.0, m1=1, m2=1)
    assert p.k == pytest.approx(4.0, rel=1e-15)
    assert p.delta == pytest.approx(math.sqrt(3.0) / 2.0, rel=1e-15)
    assert p.mean_snr == pytest.approx(10.0, rel=1e-15)


@pytest.mark.parametrize(
    "k,delta,v1,v2",
    [(1.0, 0.0, 1.0, 0.0), (2.0, 1.0, 1.0, 1.0), (4.0, math.sqrt(3.0) / 2.0, math.sqrt(3.0), 1.0)],
)
def test_amplitudes_from_params(k, delta, v1, v2):
    p = IftrParams(k=k, delta=delta, m1=2, m2=2, mean_snr=1.0)
    d = amplitudes_from_params(p, sigma2=0.5)
    assert d.v1 == pytest.approx(v1, rel=1e-12, abs=1e-12)
    assert d.v2 == pytest.approx(v2, rel=1e-12, abs=1e-12)


def test_round_trip_random_parameter_sets():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        v2 = rng.uniform(0.0, 2.0)
        v1 = v2 + rng.uniform(0.0, 3.0)
        sigma2 = rng.uniform(0.05, 4.0)
        es_n0 = rng.uniform(0.1, 10.0)
        d = SpecularDecomposition(v1=v1, v2=v2, sigma2=sigma2)
        p = params_from_amplitudes(d, es_n0, m1=1.5, m2=3.0)
        back = amplitudes_from_params(p, sigma2=sigma2)
        assert back.v1 == pytest.approx(v1, rel=1e-12, abs=1e-12)
        assert back.v2 == pytest.approx(v2, rel=1e-12, abs=1e-12)
        # Delta stays in [0, 1] and hits the endpoints only as documented.
        assert 0.0 <= p.delta <= 1.0
        assert (p.delta == 0.0) == (v2 == 0.0)
        assert (abs(p.delta - 1.0) < 1e-15) == (abs(v1 - v2) < 1e-15)


def test_ray_power_ratios_identities():
    rng = np.random.default_rng(7)
    for _ in range(200):
        p = IftrParams(
            k=rng.uniform(0.0, 50.0),
            delta=rng.uniform(0.0, 1.0),
            m1=1.0,
            m2=1.0,
        )
        p1, p2 = p.ray_power_ratios()
        assert p1 >= p2 >= 0.0
        assert p1 + p2 == pytest.approx(p.k, rel=1e-13, abs=1e-13)
        assert p1 * p2 == pytest.approx((0.5 * p.k * p.delta) ** 2, rel=1e-10, abs=1e-12)


def test_validation_bounds():
    with pytest.raises(ValidationError):
        IftrParams(k=-0.1, delta=0.0, m1=1, m2=1)
    with pytest.raises(ValidationError):
        IftrParams(k=1.0, delta=1.2, m1=1, m2=1)
    with pytest.raises(ValidationError):
        IftrParams(k=1.0, delta=0.5, m1=0.0, m2=1)
    with pytest.raises(ValidationError):
        IftrParams(k=1.0, delta=0.5, m1=1, m2=1, mean_snr=0.0)
    with pytest.raises(ValidationError):
        IftrParams(k=1.0, delta=0.5, m1=2e6, m2=1)  # above the finite-shape cap
    with pytest.raises(ValidationError):
        IftrParams(k=math.nan, delta=0.5, m1=1, m2=1)
    with pytest.raises(ValidationError):
        SpecularDecomposition(v1=1.0, v2=2.0, sigma2=0.5)
    # math.inf is the explicit frozen-fluctuation request
    IftrParams(k=1.0, delta=0.5, m1=math.inf, m2=math.inf)


def test_k_zero_forces_delta_zero():
    p = IftrParams(k=0.0, delta=0.7, m1=1, m2=1)
    assert p.delta == 0.0


def test_canonicalize_preserves_mgf():
    # The labeling swap maps to a statistically identical channel: the MGF
    # with shapes swapped together with the ray roles coincides with the
    # original (checked through the finite-sum symmetry in test_stats).
    # With no specular power (k = 0) or equal rays (delta = 1) the roles
    # coincide, so swapping the shapes alone must leave the MGF unchanged.
    s_grid = np.linspace(-5.0, -0.1, 11)
    for k, delta in ((0.0, 0.7), (6.0, 1.0)):
        p = IftrParams(k=k, delta=delta, m1=2, m2=8, mean_snr=1.0)
        q = replace(p, m1=p.m2, m2=p.m1)
        np.testing.assert_allclose(mgf(p, s_grid), mgf(q, s_grid), rtol=1e-12)


@pytest.mark.parametrize(
    "family, fields, want",
    [
        ("rice", dict(k=4.0), (4.0, 0.0, math.inf, math.inf)),
        ("twdp", dict(k=4.0, delta=0.6), (4.0, 0.6, math.inf, math.inf)),
        ("rician-shadowed", dict(k=4.0, m1=2.5), (4.0, 0.0, 2.5, math.inf)),
        ("iftr", dict(k=4.0, delta=0.6, m1=2.5, m2=7.0), (4.0, 0.6, 2.5, 7.0)),
    ],
)
def test_family_params_pins_the_fields_a_family_does_not_free(family, fields, want):
    every = dict(k=4.0, delta=0.6, m1=2.5, m2=7.0)
    assert family_params(family, 3.0, **fields) == IftrParams(*want, mean_snr=3.0)
    # Fields the family does not free are ignored.
    assert family_params(family, 3.0, **every) == IftrParams(*want, mean_snr=3.0)
    for name in fields:
        with pytest.raises(ValidationError, match=f"needs {name}$"):
            family_params(family, **{f: v for f, v in fields.items() if f != name})
    with pytest.raises(ValidationError, match="family must be one of"):
        family_params("ftr", **every)


def test_modulation_spec_validation():
    bpsk = ModulationSpec.bpsk()
    assert bpsk.terms == ((1.0, 2.0),)
    assert repr(bpsk) == "ModulationSpec(terms=((1.0, 2.0),))"
    assert ModulationSpec(((1, 2),)) == bpsk and hash(ModulationSpec(((1, 2),))) == hash(bpsk)
    with pytest.raises(ValidationError):
        ModulationSpec([])
    with pytest.raises(ValidationError):
        ModulationSpec([(1.0, 0.0)])
    with pytest.raises(ValidationError):
        ModulationSpec([(1.0, -2.0)])
    # CEP exceeding 1 at snr = 0 is rejected
    with pytest.raises(ValidationError):
        ModulationSpec([(3.0, 2.0)])
    # CEP dipping below 0 is rejected
    with pytest.raises(ValidationError):
        ModulationSpec([(1.0, 2.0), (-1.0, 2.0), (-0.5, 1.0)])


def test_modulation_cep_values():
    bpsk = ModulationSpec.bpsk()
    assert bpsk.cep(0.0) == pytest.approx(0.5, rel=1e-12)
    assert bpsk.cep(1e9) == pytest.approx(0.0, abs=1e-12)


def test_params_json_round_trip():
    p = IftrParams(k=15.0, delta=0.5, m1=3, m2=2.5, mean_snr=10.0 ** 1.7)
    doc = json.loads(params_to_json(p))
    assert doc["mean_snr_db"] == pytest.approx(17.0, rel=1e-12)
    q = params_from_json(params_to_json(p))
    assert q.k == pytest.approx(p.k, rel=1e-12)
    assert q.mean_snr == pytest.approx(p.mean_snr, rel=1e-12)
    inf_doc = {"K": 1.0, "Delta": 0.0, "m1": "inf", "m2": 2.0, "mean_snr_db": 0.0}
    q = params_from_json(json.dumps(inf_doc))
    assert q.m1 == math.inf and q.mean_snr == 1.0
    with pytest.raises(ValidationError):
        params_from_json({"K": 1.0, "Delta": 0.0, "m1": 1.0, "m2": 1.0})
