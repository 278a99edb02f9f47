"""Command-line frontend: curve evaluation, sampling, BER/outage sweeps, fitting.

Outputs are deterministic for fixed flags and seeds.  CSV files start with
'#'-prefixed provenance lines (tool version and the full effective
configuration as JSON), followed by a header line and comma-separated
data rows.  Exit codes: 0 success, 1 I/O failure, 2 validation failure,
3 numerical non-convergence.

dB conventions: mean-SNR sweeps and SNR-domain grids use 10*log10;
envelope-domain grids given in dB use 20*log10 of the amplitude.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .fitting import (
    MODEL_FAMILIES,
    FitConfig,
    empirical_cdf_from_samples,
    fit,
    fit_result_to_json,
    load_empirical_cdf,
)
from .laplace import LaplaceInversionConfig
from .linkperf import (
    ber_asymptotic,
    ber_exact,
    ber_mgf_quadrature,
    outage,
    outage_asymptotic,
)
from .params import FAMILIES, IftrParams, ModulationSpec, ValidationError, family_params, params_from_json
from .sim import OUTPUTS, SimConfig, provenance_dict, read_samples, sample_ftr, sample_iftr, write_samples
from .specfun import ConvergenceError
from .stats import DistributionDomain, _integer_shape_form, cdf, pdf, rician_shadowed_pdf

EXIT_OK = 0
EXIT_IO = 1
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

EVAL_QUANTITIES = ("pdf-envelope", "pdf-snr", "cdf-snr", "ccdf-envelope")


def _parse_grid(spec: str):
    """start:stop:count[:linear|log|db] -> (ndarray, spacing tag)."""
    parts = spec.split(":")
    if len(parts) not in (3, 4):
        raise ValidationError(f"grid must be start:stop:count[:spacing], got {spec!r}")
    start, stop = float(parts[0]), float(parts[1])
    count = int(parts[2])
    spacing = parts[3] if len(parts) == 4 else "linear"
    if not 2 <= count <= 10**6:
        raise ValidationError(f"grid count must lie in [2, 1e6], got {count}")
    if not start < stop:
        raise ValidationError(f"grid needs start < stop, got {start} >= {stop}")
    if spacing == "linear":
        return np.linspace(start, stop, count), spacing
    if spacing == "log":
        if start <= 0:
            raise ValidationError("log grid needs start > 0")
        return np.logspace(math.log10(start), math.log10(stop), count), spacing
    if spacing == "db":
        return np.linspace(start, stop, count), spacing
    raise ValidationError(f"unknown grid spacing {spacing!r}")


def _scale_from_args(args) -> float:
    """The scale flag that wins: --Omega, then --gamma-bar-db, then --gamma-bar, else 1."""
    if args.omega is not None:
        return args.omega
    if args.gamma_bar_db is not None:
        if not abs(args.gamma_bar_db) <= 3000.0:
            raise ValidationError(f"--gamma-bar-db must lie within +-3000 dB, got {args.gamma_bar_db}")
        return 10.0 ** (args.gamma_bar_db / 10.0)
    if args.gamma_bar is not None:
        return args.gamma_bar
    return 1.0


# Each parameter flag at its value when unset.  A FAMILIES row reads the
# flags of its free fields; ftr reads --m, the shape both its rays share.
# A model pins every flag it does not read.
_UNSET = {"K": 0.0, "Delta": 0.0, "m1": math.inf, "m2": math.inf, "m": math.inf}
_FLAG = {"k": "K", "delta": "Delta", "m1": "m1", "m2": "m2"}
_READS = {model: [_FLAG[field] for field in free] for model, free in FAMILIES.items()}
_READS["ftr"] = ["K", "Delta", "m"]
_SCALES = ("omega", "gamma_bar_db", "gamma_bar")


def _reject(args, why: str, *dests: str) -> None:
    """Raise ValidationError naming the first of the dests that was given."""
    for dest in dests:
        if getattr(args, dest, None) is not None:
            flag = "--Omega" if dest == "omega" else "--" + dest.replace("_", "-")
            raise ValidationError(f"{flag} {why}")


def _params_from_args(args, model: str = "iftr"):
    """(channel, {flag: value} of the flags `model` reads): the one place
    parameters are resolved.  A --params-json file gives a whole iftr
    channel, else the flags `model` reads do, each unset one at _UNSET; ftr
    is iftr with both shapes at --m.  A flag the model pins, or a parameter
    or scale flag beside --params-json or --preset, raises naming it."""
    if getattr(args, "preset", None):
        _reject(args, "cannot be given with --preset", "params_json", *_UNSET, *_SCALES)
    if args.params_json is not None:
        _reject(args, "cannot be given with --params-json", *_UNSET, *_SCALES)
        if model != "iftr":
            raise ValidationError(f"--params-json gives iftr parameters; --model {model} takes them from its flags")
        with open(args.params_json, "r", encoding="utf-8") as fh:
            p = params_from_json(fh.read())
    else:
        _reject(args, f"is pinned by --model {model}", *(flag for flag in _UNSET if flag not in _READS[model]))
        given = {flag: getattr(args, flag) for flag in _READS[model] if getattr(args, flag) is not None}
        v = {**_UNSET, **given}
        if model == "ftr":
            v["m1"] = v["m2"] = v["m"]
        family = "iftr" if model == "ftr" else model
        p = family_params(family, _scale_from_args(args), k=v["K"], delta=v["Delta"], m1=v["m1"], m2=v["m2"])
    resolved = {"K": p.k, "Delta": p.delta, "m1": p.m1, "m2": p.m2, "m": p.m1}
    return p, {flag: resolved[flag] for flag in _READS[model]}


def _write(args, text: str) -> int:
    """Write text to --out, else to stdout."""
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _write_csv(args, used: dict, command: str, grid_name: str, grid, cols: dict) -> int:
    """Provenance line (the flags given, with the resolved parameters `used`),
    header, then one row per grid point: the abscissa, then each column."""
    cfg = {k: v for k, v in vars(args).items() if k != "func" and v is not None}
    doc = {"tool": "iftr", "version": __version__, "command": command, "config": {**cfg, **used}}
    lines = ["# " + json.dumps(doc, sort_keys=True, default=str), ",".join([grid_name, *cols])]
    for i, x in enumerate(grid):
        row = [x] + [col[i] for col in cols.values()]
        lines.append(",".join(repr(float(v)) for v in row))
    return _write(args, "\n".join(lines) + "\n")


# Figure-regeneration presets (parameter sets of the reference curves).  An
# eval preset is (abscissae, quantity, curves); a curve is the IftrParams
# fields of a unit-scale channel, or a closed-form density of the abscissae.

FIG1_CURVES = [("iftr_m2", dict(k=15, delta=0.9, m1=2, m2=2)),
               ("iftr_m10", dict(k=15, delta=0.9, m1=10, m2=10))]
FIG2_CURVES = [("iftr_d0.1_m1_3_m2_5", dict(k=15, delta=0.1, m1=3, m2=5)),
               ("iftr_d0.9_m1_3_m2_5", dict(k=15, delta=0.9, m1=3, m2=5)),
               ("iftr_d0.9_m1_10_m2_10", dict(k=15, delta=0.9, m1=10, m2=10))]
FIG3_CURVES = [("iftr_K10_d0.9_m1_2_m2_8", dict(k=10, delta=0.9, m1=2, m2=8)),
               ("iftr_K10_d0.1_m1_2_m2_8", dict(k=10, delta=0.1, m1=2, m2=8)),
               ("iftr_K10_d0.9_m1_8_m2_2", dict(k=10, delta=0.9, m1=8, m2=2)),
               ("iftr_K10_d0.5_m1_3_m2_2", dict(k=10, delta=0.5, m1=3, m2=2))]
FIG4_M1 = (2, 5, 40)          # BPSK, K=15, Delta=0.5, m2=2
FIG5_CURVES = [("K10_d0.1_m1_2_m2_8", dict(k=10, delta=0.1, m1=2, m2=8)),
               ("K10_d0.9_m1_2_m2_8", dict(k=10, delta=0.9, m1=2, m2=8)),
               ("K80_d0.9_m1_2_m2_8", dict(k=80, delta=0.9, m1=2, m2=8)),
               ("K10_d0.9_m1_8_m2_2", dict(k=10, delta=0.9, m1=8, m2=2))]
EVAL_PRESETS = {
    "fig1": (np.linspace(0.01, 3.0, 300), "pdf-envelope", FIG1_CURVES),
    "fig2": (np.linspace(0.01, 4.0, 400), "pdf-snr",
             [*FIG2_CURVES, ("rician_shadowed_m3", lambda x: rician_shadowed_pdf(15.0, 3, 1.0, x))]),
    "fig3": (np.logspace(-4, 1, 251), "cdf-snr", FIG3_CURVES),
}


def _curve(quantity: str, p: IftrParams, x, cfg: LaplaceInversionConfig | None = None):
    """One EVAL_QUANTITIES curve of channel p at abscissae x."""
    domain = DistributionDomain.ENVELOPE if quantity.endswith("envelope") else DistributionDomain.SNR
    if quantity.startswith("pdf"):
        return pdf(p, x, domain=domain, cfg=cfg)
    values = cdf(p, x, domain=domain, cfg=cfg)
    return 1.0 - values if quantity.startswith("ccdf") else values


def cmd_eval(args) -> int:
    p, used = _params_from_args(args)
    if not args.preset:
        used["quantity"] = quantity = "cdf-snr" if args.quantity is None else args.quantity
        used["grid"] = "0.1:10:100" if args.grid is None else args.grid
        grid, spacing = _parse_grid(used["grid"])
        if spacing == "db":
            grid = 10.0 ** (grid / (20.0 if quantity.endswith("envelope") else 10.0))
        return _write_csv(args, used, "eval", "x", grid, {"value": _curve(quantity, p, grid)})
    _reject(args, "cannot be given with --preset", "quantity", "grid")
    grid, quantity, curves = EVAL_PRESETS[args.preset]
    cfg = LaplaceInversionConfig()
    cols = {}
    for name, kw in curves:
        cols[name] = kw(grid) if callable(kw) else _curve(quantity, IftrParams(**kw), grid, cfg)
    return _write_csv(args, used, "eval", "x", grid, cols)


def cmd_sample(args) -> int:
    cfg = SimConfig(n_samples=args.n, seed=args.seed, output=args.output)
    p, used = _params_from_args(args, args.model)
    if args.model == "ftr":
        values = sample_ftr(p.k, p.delta, p.m1, p.mean_snr, cfg)
    else:
        values = sample_iftr(p, cfg)
    prov = provenance_dict(cfg, model=args.model, tool="iftr", version=__version__, scale=p.mean_snr, **used)
    write_samples(args.out, values, {k: ("inf" if v == math.inf else v) for k, v in prov.items()})
    return EXIT_OK


def _modulation_from_args(args) -> ModulationSpec:
    if args.mod == "bpsk":
        _reject(args, "needs --mod custom", "alpha", "beta")
        return ModulationSpec.bpsk()
    if not args.alpha or not args.beta or len(args.alpha) != len(args.beta):
        raise ValidationError("custom modulation needs matching --alpha/--beta lists")
    return ModulationSpec(list(zip(args.alpha, args.beta)))


def _sweep_db(args) -> np.ndarray:
    """The mean-SNR sweep in dB; NaN fails every check."""
    _reject(args, "cannot be given with a sweep, which sets the mean SNR", *_SCALES)
    if args.preset and args.monte_carlo:
        raise ValidationError("--monte-carlo cannot be given with --preset")
    if not args.monte_carlo:
        _reject(args, "needs --monte-carlo", "seed")
    if not args.db_step > 0.0:
        raise ValidationError(f"need db-step > 0, got {args.db_step}")
    if not 0.0 < (args.db_stop - args.db_start) / args.db_step <= 1e6:
        raise ValidationError("need db-stop > db-start, at most 1e6 steps apart")
    db = np.arange(args.db_start, args.db_stop + 0.5 * args.db_step, args.db_step)
    if not np.all(np.abs(db) <= 3000.0):
        raise ValidationError("the sweep must lie within +-3000 dB")
    return db


def cmd_ber(args) -> int:
    mod = _modulation_from_args(args)
    db = _sweep_db(args)
    unit, used = _params_from_args(args)
    unit = unit.with_mean_snr(1.0)
    # Mean SNR is a pure scale: each curve's asymptote falls as 1 / gbar, and
    # the sampler applies gbar as its last multiply, so one unit-mean draw
    # times gbar is exactly the draw at gbar.
    if args.preset:
        gbar = 10.0 ** (db / 10.0)
        curves = [(f"_m1_{m1}", IftrParams(k=15, delta=0.5, m1=m1, m2=2)) for m1 in FIG4_M1]
    else:
        used["seed"] = 0 if args.seed is None else args.seed
        gbar = [10.0 ** (d / 10.0) for d in db]
        curves = [("", unit)]
    cols = {}
    for suffix, p in curves:
        route = ber_exact if _integer_shape_form(p) is not None else ber_mgf_quadrature
        asym = ber_asymptotic(p, mod).value
        cols["exact" + suffix] = [route(p.with_mean_snr(g), mod).value for g in gbar]
        cols["asymptotic" + suffix] = [asym / g for g in gbar]
    if args.monte_carlo:
        snr = sample_iftr(unit, SimConfig(n_samples=args.monte_carlo, seed=used["seed"], output="snr"))
        cols["monte_carlo"] = [mod.cep(snr * g).mean() for g in gbar]
    return _write_csv(args, used, "ber", "gamma_bar_db", db, cols)


def cmd_outage(args) -> int:
    db = _sweep_db(args)
    unit, used = _params_from_args(args)
    unit = unit.with_mean_snr(1.0)
    if args.preset:
        cols = {}
        for name, kw in FIG5_CURVES:
            cols[name] = [outage(IftrParams(mean_snr=g, **kw), args.Rs) for g in 10.0 ** (db / 10.0)]
        return _write_csv(args, used, "outage", "gamma_bar_db", db, cols)
    used["seed"] = 0 if args.seed is None else args.seed
    gbar = [10.0 ** (d / 10.0) for d in db]
    asym = outage_asymptotic(unit, args.Rs)
    cols = {
        "exact": [outage(unit.with_mean_snr(g), args.Rs) for g in gbar],
        "asymptotic": [asym / g for g in gbar],
    }
    if args.monte_carlo:
        snr = sample_iftr(unit, SimConfig(n_samples=args.monte_carlo, seed=used["seed"], output="snr"))
        cols["monte_carlo"] = [np.mean(snr * g < 2.0 ** args.Rs - 1.0) for g in gbar]
    return _write_csv(args, used, "outage", "gamma_bar_db", db, cols)


def cmd_fit(args) -> int:
    """Fit one family; --compare reports every row of the one iftr fit."""
    if args.compare:
        _reject(args, "cannot be given with --compare, which fits iftr and reports its rows", "model")
    model = args.model or "iftr"
    if model != "iftr-integer-m1":
        _reject(args, "needs --model iftr-integer-m1", "m1_min", "m1_max")
    m1_grid = tuple(range(1 if args.m1_min is None else args.m1_min, (60 if args.m1_max is None else args.m1_max) + 1))
    cfg = FitConfig(model_family=model, fit_scale=args.fit_scale, restarts=args.restarts, seed=args.seed, m1_grid=m1_grid)
    domain = DistributionDomain(args.domain)
    if args.from_samples:
        values, _ = read_samples(args.input)
        emp = empirical_cdf_from_samples(values, domain=domain, n_points=40 if args.quantiles is None else args.quantiles)
    else:
        _reject(args, "needs --from-samples", "quantiles")
        emp = load_empirical_cdf(args.input, domain=domain)
    result = fit(emp, cfg)
    if not args.compare:
        return _write(args, fit_result_to_json(result, args.restarts) + "\n")
    rows = {**result.nested, model: result}
    comparison = {family: json.loads(fit_result_to_json(r, args.restarts)) for family, r in rows.items()}
    return _write(args, json.dumps({"comparison": comparison}, sort_keys=True) + "\n")


def _add_param_flags(sp):
    sp.add_argument("--K", type=float, default=None, help="specular-to-diffuse power ratio (default 0)")
    sp.add_argument("--Delta", type=float, default=None, help="ray similarity index in [0, 1] (default 0)")
    sp.add_argument("--m1", type=float, default=None, help="shape of the stronger-ray fluctuation ('inf', the default, freezes it)")
    sp.add_argument("--m2", type=float, default=None, help="shape of the weaker-ray fluctuation (default inf)")
    sp.add_argument("--gamma-bar", type=float, default=None, help="mean SNR, linear")
    sp.add_argument("--gamma-bar-db", type=float, default=None, help="mean SNR in dB")
    sp.add_argument("--Omega", dest="omega", type=float, default=None, help="mean squared envelope (envelope-domain scale)")
    sp.add_argument("--params-json", default=None, help="JSON parameter document file, in place of the flags above")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="iftr", description=__doc__)
    ap.add_argument("--version", action="version", version=f"iftr {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("eval", help="evaluate a distribution curve to CSV")
    _add_param_flags(sp)
    sp.add_argument("--quantity", default=None, choices=EVAL_QUANTITIES, help="(default cdf-snr)")
    sp.add_argument("--grid", default=None,
                    help="start:stop:count[:linear|log|db] (default 0.1:10:100); "
                         "use --grid=-10:5:40:db for negative starts")
    sp.add_argument("--preset", default=None, choices=tuple(EVAL_PRESETS), help="reference curve sets")
    sp.add_argument("--out", default=None, help="output CSV path (default stdout)")
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("sample", help="draw channel realizations to a sample file")
    sp.add_argument("--model", default="iftr", choices=(*FAMILIES, "ftr"))
    sp.add_argument("--n", type=int, required=True, help="number of samples")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--output", default="envelope", choices=OUTPUTS)
    sp.add_argument("--m", type=float, default=None, help="ftr's fluctuation shape, shared by both rays (default inf)")
    _add_param_flags(sp)
    sp.add_argument("--out", required=True, help="output sample file")
    sp.set_defaults(func=cmd_sample)

    for name, fn, extra in (("ber", cmd_ber, "fig4"), ("outage", cmd_outage, "fig5")):
        sp = sub.add_parser(name, help=f"{name} vs mean SNR sweep to CSV")
        _add_param_flags(sp)
        sp.add_argument("--db-start", type=float, default=0.0)
        sp.add_argument("--db-stop", type=float, default=50.0)
        sp.add_argument("--db-step", type=float, default=1.0)
        sp.add_argument("--monte-carlo", type=int, default=0, help="add a Monte Carlo column with this many samples per point")
        sp.add_argument("--seed", type=int, default=None, help="Monte Carlo seed (default 0)")
        sp.add_argument("--preset", default=None, choices=(extra,), help="reference sweep")
        sp.add_argument("--out", default=None)
        if name == "ber":
            sp.add_argument("--mod", default="bpsk", choices=("bpsk", "custom"), help="'custom' takes --alpha/--beta")
            sp.add_argument("--alpha", type=float, action="append", default=None)
            sp.add_argument("--beta", type=float, action="append", default=None)
        else:
            sp.add_argument("--Rs", type=float, default=2.0, help="rate threshold, bits/s/Hz")
        sp.set_defaults(func=fn)

    sp = sub.add_parser("fit", help="fit model families to an empirical CDF")
    sp.add_argument("input", help="CSV empirical CDF (x,cdf | x_db,cdf) or sample dump with --from-samples")
    sp.add_argument("--from-samples", action="store_true", help="input is a sample dump; build the CDF from quantiles")
    sp.add_argument("--quantiles", type=int, default=None, help="quantile-grid points, with --from-samples (default 40)")
    sp.add_argument("--domain", default="snr", choices=("snr", "envelope"))
    sp.add_argument("--model", default=None, choices=MODEL_FAMILIES, help="(default iftr)")
    sp.add_argument("--compare", action="store_true", help="fit iftr and emit a comparison document of its rows")
    sp.add_argument("--fit-scale", action="store_true", help="also fit the scale (non-normalized data)")
    sp.add_argument("--restarts", type=int, default=4)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--m1-min", type=int, default=None, help="m1 grid, with --model iftr-integer-m1 (default 1)")
    sp.add_argument("--m1-max", type=int, default=None, help="(default 60)")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_fit)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse's usage error (2), or --help/--version (0)
        return exc.code
    try:
        return args.func(args)
    except (ValidationError, ValueError, NotImplementedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ConvergenceError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
