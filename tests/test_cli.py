import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import iftr
from iftr.cli import main
from iftr.linkperf import ber_mgf_quadrature, ber_monte_carlo
from iftr.params import ModulationSpec
from iftr.sim import SimConfig, sample_ftr, sample_iftr
from iftr.params import IftrParams
from iftr.sim import read_samples, write_samples, provenance_dict


def run(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, out


def parse_csv(text):
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [list(map(float, ln.split(","))) for ln in lines[1:]]
    return header, np.asarray(rows)


def test_eval_exponential_cdf_row(capsys):
    rc, out = run(
        capsys,
        ["eval", "--quantity", "cdf-snr", "--K", "0", "--m1", "1", "--m2", "1",
         "--gamma-bar", "1", "--grid", "1:5:5"],
    )
    assert rc == 0
    header, rows = parse_csv(out)
    assert header == ["x", "value"]
    x3 = rows[rows[:, 0] == 3.0][0]
    assert x3[1] == pytest.approx(1.0 - math.exp(-3.0), rel=1e-6)


def test_eval_provenance_block(capsys):
    rc, out = run(capsys, ["eval", "--quantity", "cdf-snr", "--K", "0", "--m1", "1", "--m2", "1", "--grid", "1:2:3"])
    assert rc == 0
    first = out.splitlines()[0]
    assert first.startswith("# ")
    doc = json.loads(first[2:])
    assert doc["tool"] == "iftr" and "version" in doc and doc["config"]["grid"] == "1:2:3"


def test_eval_non_finite_values_are_a_numerical_exit(capsys):
    argv = ["eval", "--K", "116056.53", "--Delta", "0.92111", "--m1", "456.73", "--m2", "3.8156",
            "--gamma-bar", "5.6543", "--grid", "0.5:2:4"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 3
    assert "numerical error:" in captured.err and "nan" not in captured.out


def test_eval_rejects_bad_delta(capsys):
    rc = main(["eval", "--quantity", "cdf-snr", "--K", "1", "--Delta", "1.2",
               "--m1", "2", "--m2", "2", "--grid", "1:2:3"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "delta" in err


def test_eval_rejects_bad_grid():
    assert main(["eval", "--quantity", "cdf-snr", "--grid", "5:1:10"]) == 2
    assert main(["eval", "--quantity", "cdf-snr", "--grid", "1:5:1"]) == 2
    assert main(["eval", "--quantity", "ber", "--grid", "1:5:5"]) == 2


def test_sample_deterministic_files(tmp_path):
    f1, f2 = tmp_path / "a.txt", tmp_path / "b.txt"
    argv = ["sample", "--model", "iftr", "--n", "1000", "--seed", "7", "--K", "15",
            "--Delta", "0.9", "--m1", "2", "--m2", "2"]
    assert main(argv + ["--out", str(f1)]) == 0
    assert main(argv + ["--out", str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes()
    header = f1.read_text().splitlines()[0]
    assert header.startswith("# ")
    assert json.loads(header[2:])["seed"] == 7


def test_sample_ftr_model(tmp_path):
    out = tmp_path / "ftr.txt"
    rc = main(["sample", "--model", "ftr", "--n", "500", "--seed", "1", "--K", "15",
               "--Delta", "0.9", "--m", "10", "--out", str(out)])
    assert rc == 0
    assert sum(1 for ln in out.read_text().splitlines() if not ln.startswith("#")) == 500


# Each model's draw from the sampler directly, with the fields it pins.
SAMPLE_MODELS = {
    "iftr": lambda cfg: sample_iftr(IftrParams(7.0, 0.6, 2.5, 4.0, 2.0), cfg),
    "ftr": lambda cfg: sample_ftr(7.0, 0.6, 3.0, 2.0, cfg),
    "twdp": lambda cfg: sample_iftr(IftrParams(7.0, 0.6, math.inf, math.inf, 2.0), cfg),
    "rice": lambda cfg: sample_iftr(IftrParams(7.0, 0.0, math.inf, math.inf, 2.0), cfg),
    "rician-shadowed": lambda cfg: sample_iftr(IftrParams(7.0, 0.0, 3.0, math.inf, 2.0), cfg),
}
# The flags each model reads; any other parameter flag exits 2.
SAMPLE_FLAGS = {
    "iftr": ["--K", "7", "--Delta", "0.6", "--m1", "2.5", "--m2", "4"],
    "ftr": ["--K", "7", "--Delta", "0.6", "--m", "3"],
    "twdp": ["--K", "7", "--Delta", "0.6"],
    "rice": ["--K", "7"],
    "rician-shadowed": ["--K", "7", "--m1", "3"],
}


@pytest.mark.parametrize("model", SAMPLE_MODELS)
def test_sample_model_writes_the_direct_draw(tmp_path, model):
    out = tmp_path / "s.txt"
    rc = main(["sample", "--model", model, "--n", "300", "--seed", "5", *SAMPLE_FLAGS[model],
               "--gamma-bar", "2", "--output", "snr", "--out", str(out)])
    assert rc == 0
    values, prov = read_samples(out)
    np.testing.assert_array_equal(values, SAMPLE_MODELS[model](SimConfig(n_samples=300, seed=5, output="snr")))
    assert prov["model"] == model


def test_sample_takes_the_scale_from_gamma_bar_db(tmp_path):
    out = tmp_path / "s.txt"
    rc = main(["sample", "--n", "300", "--seed", "5", "--K", "3", "--Delta", "0.5", "--m1", "2",
               "--m2", "2", "--gamma-bar", "4", "--gamma-bar-db", "10", "--output", "snr", "--out", str(out)])
    assert rc == 0
    values, prov = read_samples(out)
    assert prov["scale"] == 10.0  # --gamma-bar-db over --gamma-bar, as for eval, ber and outage
    want = sample_iftr(IftrParams(3.0, 0.5, 2.0, 2.0, 10.0), SimConfig(n_samples=300, seed=5, output="snr"))
    np.testing.assert_array_equal(values, want)


def test_sample_draws_from_a_params_json_file(tmp_path):
    doc = tmp_path / "p.json"
    doc.write_text(json.dumps({"K": 3, "Delta": 0.5, "m1": 2, "m2": "inf", "mean_snr_db": 10}))
    out = tmp_path / "s.txt"
    rc = main(["sample", "--n", "300", "--seed", "5", "--output", "snr", "--params-json", str(doc),
               "--out", str(out)])
    assert rc == 0
    values, prov = read_samples(out)
    assert (prov["K"], prov["Delta"], prov["m1"], prov["m2"], prov["scale"]) == (3.0, 0.5, 2.0, "inf", 10.0)
    want = sample_iftr(IftrParams(3.0, 0.5, 2.0, math.inf, 10.0), SimConfig(n_samples=300, seed=5, output="snr"))
    np.testing.assert_array_equal(values, want)


@pytest.mark.parametrize("model", ["ftr", "rice", "rician-shadowed"])
def test_sample_params_json_with_another_model_is_a_validation_exit(tmp_path, capsys, model):
    doc = tmp_path / "p.json"
    doc.write_text(json.dumps({"K": 3, "Delta": 0.5, "m1": 2, "m2": 2, "mean_snr_db": 10}))
    out = tmp_path / "s.txt"
    rc = main(["sample", "--model", model, "--n", "10", "--params-json", str(doc), "--out", str(out)])
    assert rc == 2 and "--params-json" in capsys.readouterr().err
    assert not out.exists()


def test_sample_rejects_zero_n(tmp_path):
    rc = main(["sample", "--model", "iftr", "--n", "0", "--seed", "1",
               "--out", str(tmp_path / "x.txt")])
    assert rc == 2


def test_ber_sweep_k0_row(capsys):
    rc, out = run(
        capsys,
        ["ber", "--K", "0", "--m1", "1", "--m2", "1", "--db-start", "0",
         "--db-stop", "12", "--db-step", "2", "--monte-carlo", "2000", "--seed", "4"],
    )
    assert rc == 0
    header, rows = parse_csv(out)
    assert header == ["gamma_bar_db", "exact", "asymptotic", "monte_carlo"]
    row10 = rows[rows[:, 0] == 10.0][0]
    want = 0.5 * (1.0 - math.sqrt(10.0 / 11.0))
    assert row10[1] == pytest.approx(want, rel=1e-9)
    assert row10[2] == pytest.approx(0.25 / 10.0, rel=1e-9)
    # One unit-mean draw scaled per point equals a fresh draw at that point.
    p = IftrParams(k=0, delta=0, m1=1, m2=1, mean_snr=10.0)
    assert row10[3] == ber_monte_carlo(p, ModulationSpec.bpsk(), 2000, 4).value


def test_outage_sweep_matches_library(capsys):
    rc, out = run(
        capsys,
        ["outage", "--K", "10", "--Delta", "0.9", "--m1", "2", "--m2", "8",
         "--Rs", "2", "--db-start", "10", "--db-stop", "20", "--db-step", "5",
         "--monte-carlo", "2000", "--seed", "6"],
    )
    assert rc == 0
    header, rows = parse_csv(out)
    assert header == ["gamma_bar_db", "exact", "asymptotic", "monte_carlo"]
    from iftr.linkperf import outage, outage_asymptotic

    p = IftrParams(k=10, delta=0.9, m1=2, m2=8, mean_snr=10.0 ** 1.5)
    row15 = rows[rows[:, 0] == 15.0][0]
    assert row15[1] == pytest.approx(outage(p, 2.0), rel=1e-9)
    assert row15[2] == pytest.approx(outage_asymptotic(p, 2.0), rel=1e-13)
    snr = sample_iftr(p, SimConfig(n_samples=2000, seed=6, output="snr"))
    assert row15[3] == float(np.mean(snr < 3.0))


def test_one_frozen_ray_with_delta_is_a_validation_exit(capsys):
    rc = main(["eval", "--K", "5", "--Delta", "0.5", "--m1", "inf", "--m2", "2"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:") and "frozen" in err


def test_fig3_preset_curves_ordered(capsys):
    rc, out = run(capsys, ["eval", "--preset", "fig3"])
    assert rc == 0
    assert not {"grid", "quantity"} & json.loads(out.splitlines()[0][2:])["config"].keys()
    header, rows = parse_csv(out)
    assert header[0] == "x" and len(header) == 5
    # Deep-fade probability is higher for similar rays (Delta = 0.9) than
    # for a dominant single ray (Delta = 0.1) at the same K, m1, m2.
    d09 = header.index("iftr_K10_d0.9_m1_2_m2_8")
    d01 = header.index("iftr_K10_d0.1_m1_2_m2_8")
    deep = rows[rows[:, 0] < 1e-2]
    assert np.all(deep[:, d09] > deep[:, d01])


def test_fig5_preset_smoke(capsys):
    rc, out = run(capsys, ["outage", "--preset", "fig5", "--db-start", "10",
                           "--db-stop", "14", "--db-step", "2"])
    assert rc == 0
    assert "seed" not in json.loads(out.splitlines()[0][2:])["config"]
    header, rows = parse_csv(out)
    assert rows.shape == (3, 5)
    d01 = header.index("K10_d0.1_m1_2_m2_8")
    d09 = header.index("K10_d0.9_m1_2_m2_8")
    assert np.all(rows[:, d01] < rows[:, d09])


def test_fit_missing_file():
    assert main(["fit", "/nonexistent/no.csv"]) == 1


def test_fit_from_samples_json(tmp_path, capsys):
    p = IftrParams(k=4.0, delta=0.0, m1=1e6, m2=1e6, mean_snr=1.0)
    values = sample_iftr(p, SimConfig(n_samples=20000, seed=3, output="snr"))
    path = tmp_path / "samples.txt"
    write_samples(path, values, provenance_dict(SimConfig(n_samples=20000, seed=3, output="snr")))
    rc, out = run(
        capsys,
        ["fit", str(path), "--from-samples", "--model", "rice", "--restarts", "2",
         "--quantiles", "25", "--seed", "5"],
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["model"] == "rice"
    assert doc["params"]["K"] == pytest.approx(4.0, rel=0.25)
    assert doc["restarts"] == 2


def test_fit_compare_document(tmp_path, capsys):
    p = IftrParams(k=5.0, delta=0.6, m1=2, m2=4, mean_snr=1.0)
    values = sample_iftr(p, SimConfig(n_samples=10000, seed=1, output="snr"))
    path = tmp_path / "s.txt"
    write_samples(path, values, {})
    rc, out = run(
        capsys,
        ["fit", str(path), "--from-samples", "--compare", "--restarts", "1",
         "--quantiles", "16", "--seed", "2"],
    )
    assert rc == 0
    doc = json.loads(out)
    assert set(doc["comparison"]) == {"iftr", "rice", "twdp", "rician-shadowed"}
    eps = {fam: r["epsilon"] for fam, r in doc["comparison"].items()}
    # Every row is at least as good as each of its special cases, exactly.
    assert all(eps["iftr"] <= e for e in eps.values())
    assert eps["twdp"] <= eps["rice"] and eps["rician-shadowed"] <= eps["rice"]
    for r in doc["comparison"].values():
        assert set(r["params"]) == {"K", "Delta", "m1", "m2", "Omega"}


def test_fit_compare_reports_the_rows_of_one_iftr_fit(tmp_path, capsys, monkeypatch):
    values = sample_iftr(IftrParams(k=5.0, delta=0.6, m1=2, m2=4, mean_snr=1.0), SimConfig(8000, 4, "snr"))
    path = tmp_path / "s.txt"
    write_samples(path, values, {})
    calls, real_fit = [], iftr.cli.fit

    def counting_fit(emp, cfg):
        calls.append(cfg.model_family)
        return real_fit(emp, cfg)

    monkeypatch.setattr(iftr.cli, "fit", counting_fit)
    argv = ["fit", str(path), "--from-samples", "--restarts", "1", "--quantiles", "12", "--seed", "3"]
    rc, out = run(capsys, [*argv, "--compare"])
    assert rc == 0 and calls == ["iftr"]
    comparison = json.loads(out)["comparison"]
    rc, out = run(capsys, argv)
    assert rc == 0 and comparison["iftr"] == json.loads(out)
    for family in ("rice", "twdp", "rician-shadowed"):
        rc, out = run(capsys, [*argv, "--model", family])
        assert rc == 0 and comparison[family] == json.loads(out)


@pytest.mark.parametrize(
    "extra, flag",
    [
        (["--compare", "--model", "iftr"], "--model"),
        (["--model", "rice", "--m1-max", "2"], "--m1-max"),
        (["--m1-min", "2"], "--m1-min"),
        (["--compare", "--m1-min", "2"], "--m1-min"),
        (["--model", "iftr-integer-m1", "--quantiles", "12"], "--quantiles"),
    ],
)
def test_fit_flags_the_run_would_ignore_are_a_validation_exit(tmp_path, capsys, extra, flag):
    rng = np.random.default_rng(8)
    s = np.sort(rng.exponential(1.0, size=2000))
    path = tmp_path / "exp.csv"
    path.write_text("x,cdf\n" + "".join(f"{s[i]!r},{(i + 1) / 2000!r}\n" for i in range(99, 2000, 100)))
    assert main(["fit", str(path), "--restarts", "1", *extra]) == 2
    assert capsys.readouterr().err.startswith("error: " + flag)


def test_fit_json_deterministic(tmp_path, capsys):
    rng = np.random.default_rng(8)
    s = rng.exponential(1.0, size=20000)
    path = tmp_path / "exp.csv"
    emp_x = np.quantile(s, np.linspace(0.05, 0.95, 15))
    lines = ["x,cdf"] + [f"{float(x)!r},{float(np.mean(s <= x))!r}" for x in emp_x]
    path.write_text("\n".join(lines) + "\n")
    argv = ["fit", str(path), "--model", "rice", "--restarts", "2", "--seed", "9"]
    rc1, out1 = run(capsys, argv)
    rc2, out2 = run(capsys, argv)
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_ber_route_choice_beyond_term_cap(capsys):
    # m1 = 500 is an integer but past the closed form's 400-term cap: the
    # quadrature route runs directly, without a fallback warning per point.
    argv = ["ber", "--K", "5", "--Delta", "0.5", "--m1", "500", "--m2", "2.5",
            "--db-start", "0", "--db-stop", "20", "--db-step", "10"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out = run(capsys, argv)
    assert rc == 0
    header, rows = parse_csv(out)
    assert header == ["gamma_bar_db", "exact", "asymptotic"]
    for db, value in rows[:, :2]:
        p = IftrParams(k=5, delta=0.5, m1=500, m2=2.5, mean_snr=10 ** (db / 10.0))
        assert value == pytest.approx(ber_mgf_quadrature(p, ModulationSpec.bpsk()).value, rel=1e-15)


def test_sample_rician_shadowed_takes_its_shape_from_m1(tmp_path, capsys):
    shadowed, rice = tmp_path / "rs.txt", tmp_path / "rice.txt"
    common = ["--n", "300", "--seed", "5", "--K", "3", "--output", "snr"]
    assert main(["sample", "--model", "rician-shadowed", *common, "--m1", "3", "--out", str(shadowed)]) == 0
    assert main(["sample", "--model", "rice", *common, "--out", str(rice)]) == 0
    values, prov = read_samples(shadowed)
    want = sample_iftr(IftrParams(3.0, 0.0, 3.0, math.inf), SimConfig(n_samples=300, seed=5, output="snr"))
    np.testing.assert_array_equal(values, want)
    assert not np.array_equal(values, read_samples(rice)[0])
    # The header lists the fields the model used, and only those.
    assert {k: prov.get(k) for k in ("K", "Delta", "m1", "m2", "m", "scale")} == {
        "K": 3.0, "Delta": None, "m1": 3.0, "m2": None, "m": None, "scale": 1.0}
    rc = main(["sample", "--model", "rician-shadowed", *common, "--m", "3", "--out", str(tmp_path / "x.txt")])
    assert rc == 2 and "--m is pinned by --model rician-shadowed" in capsys.readouterr().err


@pytest.mark.parametrize("model, flag", [("rice", "--Delta"), ("twdp", "--m1"), ("rician-shadowed", "--m2"),
                                         ("iftr", "--m"), ("ftr", "--m1")])
def test_sample_pinned_flag_is_a_validation_exit(tmp_path, capsys, model, flag):
    out = tmp_path / "s.txt"
    rc = main(["sample", "--model", model, "--n", "10", "--K", "3", flag, "2", "--out", str(out)])
    assert rc == 2 and f"error: {flag} is pinned by --model {model}" in capsys.readouterr().err
    assert not out.exists()


def test_params_json_beside_a_parameter_flag_is_a_validation_exit(tmp_path, capsys):
    doc = tmp_path / "p.json"
    doc.write_text(json.dumps({"K": 3, "Delta": 0.5, "m1": 2, "m2": 2, "mean_snr_db": 10}))
    for argv, flag in ((["eval", "--grid", "1:2:2", "--K", "9"], "--K"),
                       (["ber", "--db-stop", "2", "--m2", "3"], "--m2"),
                       (["sample", "--n", "10", "--gamma-bar", "2", "--out", str(tmp_path / "s.txt")], "--gamma-bar")):
        assert main([*argv, "--params-json", str(doc)]) == 2
        assert f"{flag} cannot be given with --params-json" in capsys.readouterr().err


def test_eval_provenance_lists_the_params_json_values(tmp_path, capsys):
    doc = tmp_path / "p.json"
    doc.write_text(json.dumps({"K": 3, "Delta": 0, "m1": 2, "m2": "inf", "mean_snr_db": 10}))
    rc, out = run(capsys, ["eval", "--grid", "1:2:2", "--params-json", str(doc)])
    assert rc == 0
    cfg = json.loads(out.splitlines()[0][2:])["config"]
    assert (cfg["K"], cfg["Delta"], cfg["m1"], cfg["m2"]) == (3.0, 0.0, 2.0, math.inf)


@pytest.mark.parametrize("argv", [["ber", "--preset", "fig5"], ["outage", "--preset", "fig4"],
                                  ["eval", "--preset", "fig4"], ["ber", "--mod", "qpsk"]])
def test_unknown_preset_or_modulation_is_a_validation_exit(capsys, argv):
    assert main(argv) == 2
    assert "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (["eval", "--preset", "fig1", "--K", "3"], "--K"),
    (["eval", "--preset", "fig2", "--gamma-bar", "2"], "--gamma-bar"),
    (["ber", "--preset", "fig4", "--m1", "2"], "--m1"),
    (["outage", "--preset", "fig5", "--monte-carlo", "100"], "--monte-carlo"),
    (["outage", "--preset", "fig5", "--params-json", "p.json"], "--params-json"),
    (["eval", "--preset", "fig3", "--quantity", "pdf-snr"], "--quantity"),
    (["eval", "--preset", "fig3", "--grid", "1:2:3"], "--grid"),
])
def test_flag_beside_a_preset_is_a_validation_exit(capsys, argv, flag):
    assert main(argv) == 2
    assert f"{flag} cannot be given with --preset" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["outage", "--seed", "5"], ["ber", "--db-stop", "2", "--seed", "0"],
                                  ["ber", "--preset", "fig4", "--seed", "5"]])
def test_seed_without_monte_carlo_is_a_validation_exit(capsys, argv):
    assert main(argv) == 2
    assert "--seed needs --monte-carlo" in capsys.readouterr().err


def test_alpha_beta_with_bpsk_is_a_validation_exit(capsys):
    assert main(["ber", "--db-stop", "2", "--alpha", "1", "--beta", "2"]) == 2
    assert "--alpha needs --mod custom" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["ber", "--db-step", "0"], ["outage", "--db-step", "-1"],
                                  ["outage", "--db-stop", "2", "--Rs", "nan"],
                                  ["outage", "--db-stop", "2", "--gamma-bar", "10"],
                                  ["ber", "--db-start", "3000", "--db-stop", "3100"]])
def test_bad_sweep_or_rate_is_a_validation_exit(capsys, argv):
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_fit_with_an_empty_m1_grid_is_a_validation_exit(tmp_path, capsys):
    path = tmp_path / "s.txt"
    assert main(["sample", "--n", "2000", "--seed", "1", "--K", "3", "--output", "snr", "--out", str(path)]) == 0
    rc = main(["fit", str(path), "--from-samples", "--model", "iftr-integer-m1", "--m1-min", "5", "--m1-max", "1"])
    assert rc == 2 and "m1_grid must not be empty" in capsys.readouterr().err


BAD_VALUES = ["nan", "inf", "0", "-1", "1e308", ""]
PARAM_FLAGS = ["--K", "--Delta", "--m1", "--m2", "--gamma-bar", "--gamma-bar-db", "--Omega", "--params-json"]


def _flag_cases(tmp_path):
    """(base argv, flag) for every subcommand, model and flag."""
    samples = tmp_path / "fit.txt"
    write_samples(samples, sample_iftr(IftrParams(3.0, 0.0, math.inf, math.inf), SimConfig(2000, 1, "snr")), {})
    cases = [(["eval", "--grid", "0.5:2:2"], flag) for flag in [*PARAM_FLAGS, "--grid", "--quantity", "--preset"]]
    sweep = ["--db-start", "--db-stop", "--db-step", "--monte-carlo", "--seed", "--preset"]
    for name, extra in (("ber", ["--mod", "--alpha", "--beta"]), ("outage", ["--Rs"])):
        base = [name, "--db-start", "0", "--db-stop", "2", "--db-step", "1"]
        cases += [(base, flag) for flag in [*PARAM_FLAGS, *sweep, *extra]]
    for model in SAMPLE_MODELS:
        base = ["sample", "--model", model, "--n", "20", "--out", str(tmp_path / "s.txt")]
        cases += [(base, flag) for flag in [*PARAM_FLAGS, "--m", "--n", "--seed", "--output"]]
    base = ["fit", str(samples), "--from-samples", "--model", "rice", "--restarts", "1", "--quantiles", "8"]
    cases += [(base, flag) for flag in ["--quantiles", "--restarts", "--seed", "--m1-min", "--m1-max", "--model"]]
    return cases


def test_every_flag_value_exits_with_a_documented_code_and_no_traceback(tmp_path, capsys):
    failures = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for base, flag in _flag_cases(tmp_path):
            for value in BAD_VALUES:
                argv = [*base, flag, value]
                try:
                    rc = main(argv)
                except Exception as exc:  # an uncaught exception is a traceback
                    rc = f"{type(exc).__name__}: {exc}"
                err = capsys.readouterr().err
                if rc not in (0, 1, 2, 3) or "Traceback" in err:
                    failures.append((argv, rc))
    assert failures == []


def _scipy_modules_after(code, *args):
    """The scipy modules loaded by ``code`` run in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(iftr.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code += "; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip().splitlines()[-1]


def test_cli_import_loads_no_scipy():
    assert _scipy_modules_after("import sys, iftr.cli") == "[]"


# `fit` is the only command that needs scipy (its optimizer).
@pytest.mark.parametrize(
    "argv",
    [["eval", "--preset", f] for f in ("fig1", "fig2", "fig3")]
    + [["ber", "--preset", "fig4"], ["outage", "--preset", "fig5"]],
    ids=lambda argv: argv[-1],
)
def test_preset_command_loads_no_scipy(tmp_path, argv):
    code = "import sys, warnings, iftr.cli; warnings.simplefilter('ignore'); assert iftr.cli.main(sys.argv[1:]) == 0"
    assert _scipy_modules_after(code, *argv, "--out", str(tmp_path / "out.csv")) == "[]"
