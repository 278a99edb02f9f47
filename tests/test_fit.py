import json
import math

import numpy as np
import pytest

from iftr.fitting import (
    MODEL_FAMILIES,
    EmpiricalCdf,
    FitConfig,
    empirical_cdf_from_samples,
    fit,
    fit_result_to_json,
    load_empirical_cdf,
    modified_ks,
)
from iftr.fitting import _CdfEvaluator, _objective
from iftr.laplace import LaplaceInversionConfig, clamp_counts
from iftr.params import FAMILIES, IftrParams, ValidationError, family_params
from iftr.sim import SimConfig, sample_iftr
from iftr.stats import DistributionDomain, cdf

FAST_FIT = dict(restarts=2, max_evaluations=600)


def make_emp(n_points=12):
    x = np.linspace(0.1, 3.0, n_points)
    F = 1.0 - np.exp(-x)
    return EmpiricalCdf(x=x, F=F)


# ---------------------------------------------------------------------------
# The log-domain KS statistic
# ---------------------------------------------------------------------------

def test_modified_ks_identical_is_zero():
    emp = make_emp()
    assert modified_ks(emp, lambda x: emp.F.copy()) == 0.0


def test_modified_ks_single_point_decade_fraction():
    emp = make_emp()

    def model(x):
        fa = emp.F.copy()
        fa[3] = emp.F[3] * 10 ** 0.3
        return fa

    assert modified_ks(emp, model) == pytest.approx(0.3, rel=1e-12)


def test_modified_ks_duplicate_point_invariance():
    emp = make_emp()
    x2 = np.concatenate([emp.x, [emp.x[-1] + 1e-9]])
    F2 = np.concatenate([emp.F, [emp.F[-1]]])
    emp2 = EmpiricalCdf(x=x2, F=F2)

    def model(x):
        return 1.0 - np.exp(-0.9 * x)

    assert modified_ks(emp2, model) == pytest.approx(modified_ks(emp, lambda x: model(emp.x)), rel=1e-12)


def test_modified_ks_rejects_nonpositive_model():
    emp = make_emp()
    with pytest.raises(ValidationError, match="x="):
        modified_ks(emp, lambda x: np.where(x < 1.0, 0.0, 0.5))


def test_modified_ks_sampling_noise_bound():
    # Regression bound for the pipeline noise floor: quantile-grid empirical
    # CDFs of exponential samples against the exact exponential.  The 0.35
    # ceiling was frozen from the maximum over these 100 seeds at n = 1e5
    # with the default deep-fade grid: its deepest level holds ~20 counts,
    # so the extreme seed reaches |log10(20/9.7)| ~ 0.31.
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        s = rng.exponential(1.0, size=10 ** 5)
        emp = empirical_cdf_from_samples(s)
        eps = modified_ks(emp, lambda x: 1.0 - np.exp(-x))
        worst = max(worst, eps)
    assert worst < 0.35


# ---------------------------------------------------------------------------
# Ingestion
# ---------------------------------------------------------------------------

def test_empirical_cdf_validation():
    with pytest.raises(ValidationError):
        EmpiricalCdf(x=np.array([1.0, 2.0]), F=np.array([0.1, 0.2]))  # too few
    x = np.linspace(1, 2, 8)
    with pytest.raises(ValidationError, match="row"):
        EmpiricalCdf(x=np.concatenate([x[:4], x[2:6]]), F=np.linspace(0.1, 0.8, 8))
    with pytest.raises(ValidationError):
        EmpiricalCdf(x=x, F=np.full(8, 1.5))


def test_load_csv(tmp_path):
    path = tmp_path / "emp.csv"
    rows = ["x,cdf"] + [f"{0.1 * (i + 1)},{(i + 1) / 25}" for i in range(20)]
    path.write_text("\n".join(rows) + "\n")
    emp = load_empirical_cdf(path)
    assert len(emp.x) == 20
    assert emp.x[0] == pytest.approx(0.1)
    assert emp.F[-1] == pytest.approx(0.8)


def test_load_csv_decreasing_cdf_names_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,cdf\n1.0,0.2\n2.0,0.4\n3.0,0.3\n4.0,0.5\n")
    with pytest.raises(ValidationError, match="line 4"):
        load_empirical_cdf(path)


def test_load_csv_db_units(tmp_path):
    path = tmp_path / "db.csv"
    rows = ["x_db,cdf"] + [f"{-20 + 2 * i},{(i + 1) / 15}" for i in range(12)]
    path.write_text("\n".join(rows) + "\n")
    emp = load_empirical_cdf(path)
    assert emp.x[10] == pytest.approx(1.0, rel=1e-12)  # 0 dB -> linear 1


def test_load_csv_bad_header_and_fields(tmp_path):
    path = tmp_path / "h.csv"
    path.write_text("snr;cdf\n")
    with pytest.raises(ValidationError, match="header"):
        load_empirical_cdf(path)
    path.write_text("x,cdf\n1.0,0.1,9\n")
    with pytest.raises(ValidationError, match="line 2"):
        load_empirical_cdf(path)


def test_from_samples_quantile_grid():
    rng = np.random.default_rng(0)
    s = rng.exponential(1.0, size=10 ** 5)
    emp = empirical_cdf_from_samples(s, n_points=30)
    assert 8 <= len(emp.x) <= 30
    assert np.all(np.diff(emp.x) > 0)
    # F is the exact fraction at or below each abscissa
    for xi, fi in zip(emp.x[:5], emp.F[:5]):
        assert fi == pytest.approx(np.mean(s <= xi), abs=1e-12)


# ---------------------------------------------------------------------------
# Fitting
# ---------------------------------------------------------------------------

def test_evaluator_clamps_are_counted():
    # The exponential CDF saturates within the inversion wiggle at large x,
    # so some values are clipped to 1; each clip shows in the counters.
    x = np.linspace(0.5, 40.0, 10)
    evaluator = _CdfEvaluator(EmpiricalCdf(x=x, F=np.linspace(0.05, 1.0, 10)), LaplaceInversionConfig())
    before = clamp_counts["cdf_above_one"]
    values = evaluator(IftrParams(k=0.0, delta=0.0, m1=1, m2=1, mean_snr=1.0))
    clipped = clamp_counts["cdf_above_one"] - before
    assert clipped > 0
    assert clipped == np.count_nonzero(values == 1.0)


def test_objective_scores_a_nan_model_value_as_rejected():
    # Nelder-Mead must never see a NaN epsilon: a NaN model CDF value among
    # positive ones scores like a zero one.
    emp = make_emp()
    fa = emp.F.copy()
    fa[4] = np.nan
    fun = _objective(lambda p: fa, emp, lambda theta: None)
    assert fun([0.0]) == 1e6
    assert _objective(lambda p: emp.F.copy(), emp, lambda theta: None)([0.0]) == 0.0


def test_rice_recovery_within_ten_percent():
    k_true = 5.0
    env = sample_iftr(family_params("rice", k=k_true), SimConfig(n_samples=10 ** 5, seed=77))
    emp = empirical_cdf_from_samples(env ** 2)
    res = fit(emp, FitConfig(model_family="rice", seed=1, **FAST_FIT))
    assert res.model_family == "rice"
    assert res.params.k == pytest.approx(k_true, rel=0.10)


def test_iftr_fit_beats_truth_epsilon_and_nested(tmp_path):
    p_true = IftrParams(k=15, delta=0.9, m1=2, m2=10, mean_snr=1.0)
    snr = sample_iftr(p_true, SimConfig(n_samples=10 ** 5, seed=5, output="snr"))
    emp = empirical_cdf_from_samples(snr)

    evaluator = _CdfEvaluator(emp, LaplaceInversionConfig())
    eps_true = modified_ks(emp, lambda x: evaluator(p_true))
    res = fit(emp, FitConfig(model_family="iftr", seed=2, **FAST_FIT))
    assert res.epsilon <= eps_true + 0.01
    assert set(res.diagnostics["nested"]) == {"rice", "twdp", "rician-shadowed"}
    for family, eps in res.diagnostics["nested"].items():
        assert res.epsilon <= eps, family


def test_integer_m1_family_runs_on_small_grid():
    p_true = IftrParams(k=5, delta=0.7, m1=2, m2=4, mean_snr=1.0)
    snr = sample_iftr(p_true, SimConfig(n_samples=3 * 10 ** 4, seed=6, output="snr"))
    emp = empirical_cdf_from_samples(snr, n_points=25)
    res = fit(
        emp,
        FitConfig(model_family="iftr-integer-m1", seed=3, m1_grid=(1, 2, 3), restarts=2, max_evaluations=400),
    )
    assert res.model_family == "iftr-integer-m1"
    assert float(res.params.m1).is_integer() or res.params.m1 == math.inf
    assert res.epsilon < 0.5
    # Only the special cases that keep m1 frozen are embedded.
    assert set(res.diagnostics["nested"]) == {"rice", "twdp"}


def test_integer_m1_is_pinned_exactly():
    # 10 ** log10(5) is 5.000000000000001: the grid value must reach the
    # model as given, not through the optimizer's log coordinate.
    p_true = IftrParams(k=10, delta=0.5, m1=5, m2=1.0, mean_snr=1.0)
    x = np.logspace(-2, 0.4, 16)
    emp = EmpiricalCdf(x=x, F=cdf(p_true, x))
    res = fit(
        emp,
        FitConfig(model_family="iftr-integer-m1", seed=3, m1_grid=(5,), restarts=2, max_evaluations=400),
    )
    assert "embedded_from" not in res.diagnostics
    assert res.params.m1 == 5.0
    assert '"m1": 5.0,' in fit_result_to_json(res)


def test_fit_determinism():
    rng = np.random.default_rng(4)
    s = rng.exponential(1.0, size=2 * 10 ** 4)
    emp = empirical_cdf_from_samples(s, n_points=20)
    cfg = FitConfig(model_family="twdp", seed=11, **FAST_FIT)
    a = fit(emp, cfg)
    b = fit(emp, cfg)
    assert fit_result_to_json(a) == fit_result_to_json(b)


def test_fit_config_validation():
    with pytest.raises(ValidationError):
        FitConfig(model_family="nakagami")
    with pytest.raises(ValidationError):
        FitConfig(restarts=0)
    with pytest.raises(ValidationError):
        FitConfig(m1_grid=(1, 2.5))


def test_fit_config_rejects_an_empty_m1_grid():
    with pytest.raises(ValidationError, match="empty"):
        FitConfig(model_family="iftr-integer-m1", m1_grid=())


@pytest.mark.parametrize("samples, n_points", [(np.ones(100), 0), (np.ones(100), 7), (np.array([]), 40)])
def test_empirical_cdf_from_samples_rejects_too_few_points(samples, n_points):
    with pytest.raises(ValidationError, match="n_points"):
        empirical_cdf_from_samples(samples, n_points=n_points)


def test_fit_result_json_shape():
    emp = make_emp(16)
    res = fit(emp, FitConfig(model_family="rice", seed=0, restarts=1, max_evaluations=200))
    doc = json.loads(fit_result_to_json(res, 1))
    assert set(doc) == {"model", "epsilon", "params", "restarts"}
    assert set(doc["params"]) == {"K", "Delta", "m1", "m2", "Omega"}
    assert doc["params"]["m1"] == "inf"
    assert doc["model"] == "rice"


# ---------------------------------------------------------------------------
# One fit path: table rows, their random-start blocks and exact nesting
# ---------------------------------------------------------------------------

ROW_CFG = dict(restarts=2, seed=3, max_evaluations=300, m1_grid=(1, 2, 3))

# Fits whose random starts sit where they always did in the seed's stream:
# fitted (k, delta, m1, m2) and epsilon as float.hex, the evaluation count,
# the row the optimum came from, and the trace -- (start, epsilon) per
# Nelder-Mead start, or (m1, epsilon) per grid value.
PINNED = {
    "rice": (
        ("0x1.e1a3a3dbc3923p-1", "0x0.0p+0", "inf", "inf"),
        "0x1.d497725701d80p-5", 102, None,
        [([1.5], 0.05720117318337081), ([-2.2291574957073808], 0.0572011216354964)],
    ),
    "iftr": (
        ("0x1.24c0b192696d8p+1", "0x1.bedaaeb69e968p-1", "inf", "inf"),
        "0x1.ce9913eac8d20p-5", 1473, "twdp",
        [([1.5, 0.5, 0.8494850021680094, 0.8494850021680094], 0.0570060482276169),
         ([0.8981424621282641, 0.479051298140834, -0.6139881323350982, 1.8584083666764526], 0.060224404252527064)],
    ),
    "iftr-integer-m1": (
        ("0x1.24c0b192696d8p+1", "0x1.bedaaeb69e968p-1", "inf", "inf"),
        "0x1.ce9913eac8d20p-5", 1506, "twdp",
        [(1, 0.0572026844717457), (2, 0.05718003046433351), (3, 0.05701856653857473)],
    ),
}


@pytest.fixture(scope="module")
def row_fits():
    p_true = IftrParams(k=5, delta=0.7, m1=2, m2=4, mean_snr=1.0)
    snr = sample_iftr(p_true, SimConfig(n_samples=3 * 10 ** 4, seed=6, output="snr"))
    emp = empirical_cdf_from_samples(snr, n_points=20)
    return {family: fit(emp, FitConfig(model_family=family, **ROW_CFG)) for family in MODEL_FAMILIES}


@pytest.mark.parametrize("family", sorted(PINNED))
def test_fit_results_are_pinned(row_fits, family):
    res, d = row_fits[family], row_fits[family].diagnostics
    params, eps, n_evals, embedded_from, trace = PINNED[family]
    q = res.params
    assert tuple(float(v).hex() for v in (q.k, q.delta, q.m1, q.m2)) == params
    assert res.epsilon.hex() == eps
    assert d["n_evals"] == n_evals
    assert d.get("embedded_from") == embedded_from
    if "restarts" in d:
        assert [(r["start"], r["epsilon"]) for r in d["restarts"]] == trace
    else:
        assert [(r["m1"], r["epsilon"]) for r in d["per_m1"]] == trace


ROWS_INSIDE = [("iftr", row) for row in ("rice", "twdp", "rician-shadowed")] + [
    ("iftr-integer-m1", row) for row in ("rice", "twdp")
]


@pytest.mark.parametrize("family, row", ROWS_INSIDE)
def test_a_standalone_fit_equals_its_row_inside_a_larger_fit(row_fits, family, row):
    alone, inside = row_fits[row], row_fits[family].nested[row]
    assert inside.model_family == row
    assert inside.params == alone.params
    assert inside.epsilon == alone.epsilon
    assert inside.diagnostics["restarts"] == alone.diagnostics["restarts"]
    assert inside.diagnostics.get("embedded_from") == alone.diagnostics.get("embedded_from")


def test_every_row_dominates_its_special_cases_exactly(row_fits):
    for family, res in row_fits.items():
        assert set(res.nested) == set(res.diagnostics.get("nested", ()))
        rows = {**res.nested, family: res}
        for name, row in rows.items():
            for sub, nested in row.nested.items():
                assert row.epsilon <= nested.epsilon, (family, name, sub)
                assert row.diagnostics["nested"][sub] == nested.epsilon
    for family, fields in FAMILIES.items():
        for sub, sub_fields in FAMILIES.items():
            if set(sub_fields) < set(fields):
                assert row_fits[family].epsilon <= row_fits[sub].epsilon, (family, sub)


def test_a_fit_runs_exactly_the_rows_its_family_contains(row_fits):
    expected = {
        "rice": set(),
        "twdp": {"rice"},
        "rician-shadowed": {"rice"},
        "iftr": {"rice", "twdp", "rician-shadowed"},
        "iftr-integer-m1": {"rice", "twdp"},
    }
    assert {family: set(res.nested) for family, res in row_fits.items()} == expected


@pytest.mark.parametrize("name", ["restarts", "max_evaluations"])
@pytest.mark.parametrize("value", [0, -1, 2.5, 2.0, "3", None, True])
def test_fit_config_requires_integer_budgets(name, value):
    with pytest.raises(ValidationError, match=name):
        FitConfig(**{name: value})


def test_fit_config_accepts_numpy_integer_budgets():
    assert FitConfig(restarts=np.int64(2), max_evaluations=np.int32(50)).restarts == 2
