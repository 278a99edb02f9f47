"""Empirical-CDF ingestion and parameter estimation.

The goodness-of-fit statistic is the deep-fade-weighted variant of the
Kolmogorov-Smirnov distance,

    epsilon = max over empirical abscissae of |log10 Fe - log10 Fa|,

which magnifies errors where both CDFs are small -- the region that
drives error-rate and outage performance.  Estimation minimizes epsilon
with multi-start Nelder-Mead over a fixed search box, with an integer
grid on m1 for the integer-constrained family.

The family table ``params.FAMILIES`` names the fields each family frees;
``params.family_params`` pins the rest (frozen fluctuations at
``math.inf``), so a family contains each row whose free fields it frees.
A fit runs all of those rows on one path and offers their optima as
candidates, and every row draws its random starts from its own fixed place
in the seed's stream, so one iftr fit yields a whole comparison table that
obeys nesting exactly.
"""

from __future__ import annotations

import json
import math
import numbers
import warnings
from dataclasses import dataclass, field

import numpy as np

from .laplace import DEFAULT_CONFIG, Contour, LaplaceInversionConfig, clamp_counts
from .params import FAMILIES, IftrParams, ValidationError, family_params
from .stats import DistributionDomain, mgf
from .specfun import ConvergenceError

__all__ = [
    "EmpiricalCdf",
    "FitConfig",
    "FitResult",
    "modified_ks",
    "fit",
    "load_empirical_cdf",
    "empirical_cdf_from_samples",
    "fit_result_to_json",
]

MODEL_FAMILIES = (*FAMILIES, "iftr-integer-m1")

# Optimizer coordinate and search box per field: log10 of K, the shapes and
# the scale, whose interesting ranges span many decades; delta raw.
_SEARCH_BOX = {
    "k": ("log10_k", math.log10(1e-3), math.log10(1e6)),
    "delta": ("delta", 0.0, 1.0),
    "m1": ("log10_m1", math.log10(0.05), math.log10(1e3)),
    "m2": ("log10_m2", math.log10(0.05), math.log10(1e3)),
    "mean_snr": ("log10_omega", math.log10(1e-3), math.log10(1e3)),
}

# Nelder-Mead stopping tolerance on epsilon.
_FATOL = 1e-7

# Top probability level of the quantile grid built from samples.
_P_MAX = 0.995


@dataclass(frozen=True)
class EmpiricalCdf:
    """Sorted empirical distribution points (x strictly increasing > 0,
    F nondecreasing in (0, 1], at least 8 of them).

    The model scale is pinned to 1 unless ``FitConfig.fit_scale`` frees it.
    """

    x: np.ndarray
    F: np.ndarray
    domain: DistributionDomain = DistributionDomain.SNR

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=float)
        F = np.asarray(self.F, dtype=float)
        if x.ndim != 1 or x.shape != F.shape:
            raise ValidationError("x and F must be 1-d arrays of equal length")
        if len(x) < 8:
            raise ValidationError(f"need at least 8 points, got {len(x)}")
        if np.any(x <= 0.0) or not np.all(np.isfinite(x)):
            raise ValidationError("abscissae must be finite and > 0")
        if np.any(np.diff(x) <= 0.0):
            i = int(np.argmax(np.diff(x) <= 0.0))
            raise ValidationError(f"abscissae must increase strictly; row {i + 1} breaks order")
        if np.any((F <= 0.0) | (F > 1.0)):
            raise ValidationError("probabilities must lie in (0, 1]")
        if np.any(np.diff(F) < 0.0):
            i = int(np.argmax(np.diff(F) < 0.0))
            raise ValidationError(f"probabilities must be nondecreasing; row {i + 1} decreases")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "F", F)
        object.__setattr__(self, "domain", DistributionDomain(self.domain))


@dataclass(frozen=True)
class FitConfig:
    """Family selection, restart budget and seed."""

    model_family: str = "iftr"
    fit_scale: bool = False
    restarts: int = 4
    seed: int = 0
    m1_grid: tuple = tuple(range(1, 61))
    max_evaluations: int = 4000

    def __post_init__(self) -> None:
        if self.model_family not in MODEL_FAMILIES:
            raise ValidationError(
                f"model_family must be one of {MODEL_FAMILIES}, got {self.model_family!r}"
            )
        for name in ("restarts", "max_evaluations"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
                raise ValidationError(f"{name} must be an integer >= 1, got {value!r}")
        if not self.m1_grid:
            raise ValidationError("m1_grid must not be empty")
        if not all(int(m) == m and m >= 1 for m in self.m1_grid):
            raise ValidationError("m1_grid must contain positive integers")


@dataclass(frozen=True)
class FitResult:
    """Fitted parameters, achieved epsilon, optimizer diagnostics, and the
    nested rows' results by family."""

    params: IftrParams
    epsilon: float
    model_family: str
    diagnostics: dict
    nested: dict = field(default_factory=dict)


def modified_ks(emp: EmpiricalCdf, model_cdf) -> float:
    """max |log10 Fe - log10 Fa| over the empirical abscissae.

    ``model_cdf`` maps the abscissa vector to model CDF values; a
    non-positive model value makes the statistic undefined and raises,
    naming the first offending point.
    """
    fa = np.asarray(model_cdf(emp.x), dtype=float)
    if fa.shape != emp.x.shape:
        raise ValidationError("model_cdf must return one value per abscissa")
    bad = ~(fa > 0.0)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValidationError(
            f"model CDF is not positive at x={emp.x[i]:g} (value {fa[i]!r})"
        )
    return float(np.max(np.abs(np.log10(emp.F) - np.log10(fa))))


class _CdfEvaluator:
    """Model CDF on a fixed abscissa vector.  These evaluations dominate the
    fitting loop, so one contour is built per dataset."""

    def __init__(self, emp: EmpiricalCdf, cfg: LaplaceInversionConfig):
        self.contour = Contour(emp.x * emp.x if emp.domain is DistributionDomain.ENVELOPE else emp.x, cfg)
        self.n_evals = 0

    def __call__(self, p: IftrParams) -> np.ndarray:
        self.n_evals += 1
        return self.contour.cdf(lambda s: mgf(p, -s))


def _objective(evaluator: _CdfEvaluator, emp: EmpiricalCdf, make_params):
    def fun(theta):
        try:
            p = make_params(theta)
            return modified_ks(emp, lambda _: evaluator(p))
        except (ValidationError, ConvergenceError, ValueError, NotImplementedError, OverflowError):
            return 1e6

    return fun


def _multistart(emp, evaluator, family, fixed, block, cfg: FitConfig) -> FitResult:
    """Nelder-Mead over the free fields of ``family`` not in ``fixed`` from
    the box centre, then from each row of ``block``, uniforms in [0, 1)
    mapped onto the box.  The diagnostics name the coordinates and trace
    every start."""
    from scipy.optimize import minimize  # deferred: only fits need the optimizer

    fields = [f for f in FAMILIES[family] if f not in fixed] + ["mean_snr"] * cfg.fit_scale
    boxes = np.array([_SEARCH_BOX[f][1:] for f in fields])

    def make(theta):
        values = dict(fixed)
        values.update((f, t if f == "delta" else 10.0 ** t) for f, t in zip(fields, theta))
        return family_params(family, **values)

    fun = _objective(evaluator, emp, make)
    starts = [0.5 * (boxes[:, 0] + boxes[:, 1])]
    starts += [boxes[:, 0] + (boxes[:, 1] - boxes[:, 0]) * u for u in block]
    options = {"maxfev": cfg.max_evaluations, "xatol": 1e-4, "fatol": _FATOL}
    trace = []
    best_theta, best_eps = None, math.inf
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for theta0 in starts:
            res = minimize(fun, theta0, method="Nelder-Mead", bounds=boxes, options=options)
            trace.append({"start": list(map(float, theta0)), "epsilon": float(res.fun)})
            if res.fun < best_eps:
                best_eps, best_theta = float(res.fun), res.x
    names = [_SEARCH_BOX[f][0] for f in fields]
    return FitResult(make(best_theta), best_eps, family, {"parameters": names, "restarts": trace, "n_evals": evaluator.n_evals})


def _best(own: FitResult, nested: dict) -> FitResult:
    """``own``, or the optimum of the best ``nested`` row if one beats it
    strictly (the first, on ties); diagnostics record the nested epsilons
    and the row the optimum came from."""
    best = min([own, *nested.values()], key=lambda r: r.epsilon)
    diagnostics = dict(own.diagnostics)
    if nested:
        diagnostics["nested"] = {family: r.epsilon for family, r in nested.items()}
    if best is not own:
        diagnostics["embedded_from"] = best.model_family
    return FitResult(best.params, best.epsilon, own.model_family, diagnostics, nested)


def fit(emp: EmpiricalCdf, cfg: FitConfig) -> FitResult:
    """Minimize the log-domain KS statistic over the selected family.

    Deterministic for a fixed (seed, config).  The fit runs, once each and
    in ``FAMILIES`` order, every row whose free fields its family contains,
    and each row keeps the best of its own run and its sub-rows' results
    (ties keep its own), so no row's epsilon exceeds a special case's.  Row
    g's random starts are the g-th block of ``default_rng(seed)``:
    (restarts - 1) x (free fields + fit_scale) uniforms, drawn in table
    order whether or not the row runs, so a standalone fit equals its row
    inside every larger fit.  ``iftr-integer-m1`` runs rice and twdp, then
    ``iftr`` with m1 pinned to each grid value, drawing on from there.
    """
    evaluator = _CdfEvaluator(emp, DEFAULT_CONFIG)
    rng = np.random.default_rng(cfg.seed)
    clamps_before = dict(clamp_counts)
    integer = cfg.model_family == "iftr-integer-m1"
    free = set(FAMILIES["iftr"]) - {"m1"} if integer else set(FAMILIES[cfg.model_family])
    table = list(FAMILIES.items())
    last = max(i for i, (_, fields) in enumerate(table) if set(fields) <= free)
    rows = {}
    for family, fields in table[: last + 1]:
        block = rng.random((cfg.restarts - 1, len(fields) + cfg.fit_scale))
        if set(fields) <= free:
            own = _multistart(emp, evaluator, family, {}, block, cfg)
            rows[family] = _best(own, {f: r for f, r in rows.items() if set(FAMILIES[f]) < set(fields)})
    if integer:
        chosen, per_m1 = None, []
        for m1 in cfg.m1_grid:
            block = rng.random((max(1, cfg.restarts // 2), len(free) + cfg.fit_scale))
            res = _multistart(emp, evaluator, "iftr", {"m1": m1}, block, cfg)
            per_m1.append({"m1": m1, "epsilon": res.epsilon})
            # Deterministic tie-break: strictly better epsilon wins; the
            # grid ascends, so ties keep the lowest m1.
            if chosen is None or res.epsilon < chosen.epsilon - 1e-15:
                chosen = res
        own = FitResult(chosen.params, chosen.epsilon, cfg.model_family, {"per_m1": per_m1, "n_evals": evaluator.n_evals})
        result = _best(own, rows)
    else:
        result = rows[cfg.model_family]
    result.diagnostics["clamp_counts"] = {k: clamp_counts[k] - clamps_before[k] for k in clamp_counts}
    return result


def empirical_cdf_from_samples(samples, domain=DistributionDomain.SNR, n_points: int = 40) -> EmpiricalCdf:
    """Reduce raw samples to an empirical CDF on a quantile grid.

    Probability levels are log-spaced from 20/n (floored at 1e-5) to
    ``_P_MAX``; each abscissa is an order statistic and F is the exact
    fraction of samples at or below it.
    """
    s = np.sort(np.asarray(samples, dtype=float))
    n = len(s)
    if n == 0 or n_points < 8:
        raise ValidationError(f"need samples and n_points >= 8, got {n} samples and n_points {n_points}")
    p_min = max(20.0 / n, 1e-5)
    levels = np.logspace(math.log10(p_min), math.log10(_P_MAX), n_points)
    idx = np.minimum((levels * n).astype(int), n - 1)
    x = s[idx]
    keep = np.concatenate(([True], np.diff(x) > 0.0))
    x = x[keep]
    F = np.searchsorted(s, x, side="right") / n
    return EmpiricalCdf(x=x, F=F, domain=domain)


def load_empirical_cdf(path, domain=DistributionDomain.SNR) -> EmpiricalCdf:
    """Read a two-column CSV with header ``x,cdf`` or ``x_db,cdf``.

    A dB abscissa column converts as ``x = 10^(x_db / 10)``.  Parse
    failures and ordering violations report the offending line number.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh]
    rows = [(i + 1, ln) for i, ln in enumerate(lines) if ln and not ln.startswith("#")]
    if not rows:
        raise ValidationError(f"{path}: empty file")
    header = rows[0][1].lower().replace(" ", "")
    if header not in ("x,cdf", "x_db,cdf"):
        raise ValidationError(
            f"{path}: line {rows[0][0]}: header must be 'x,cdf' or 'x_db,cdf', got {rows[0][1]!r}"
        )
    in_db = header.startswith("x_db")
    xs, fs = [], []
    for lineno, ln in rows[1:]:
        parts = ln.split(",")
        if len(parts) != 2:
            raise ValidationError(f"{path}: line {lineno}: expected two comma-separated fields")
        try:
            x = float(parts[0])
            f = float(parts[1])
        except ValueError:
            raise ValidationError(f"{path}: line {lineno}: non-numeric value") from None
        xs.append(10.0 ** (x / 10.0) if in_db else x)
        fs.append(f)
    x_arr = np.asarray(xs)
    f_arr = np.asarray(fs)
    if np.any(np.diff(f_arr) < 0.0):
        bad = int(np.argmax(np.diff(f_arr) < 0.0))
        raise ValidationError(
            f"{path}: line {rows[1 + bad + 1][0]}: cdf decreases at this row"
        )
    try:
        return EmpiricalCdf(x=x_arr, F=f_arr, domain=domain)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def _param_json_value(value: float):
    return "inf" if value == math.inf else value


def fit_result_to_json(result: FitResult, n_restarts: int | None = None) -> str:
    """Serialize a fit result to the stable JSON interchange shape."""
    doc = {
        "model": result.model_family,
        "epsilon": result.epsilon,
        "params": {
            "K": result.params.k,
            "Delta": result.params.delta,
            "m1": _param_json_value(result.params.m1),
            "m2": _param_json_value(result.params.m2),
            "Omega": result.params.mean_snr,
        },
        "restarts": n_restarts if n_restarts is not None else len(result.diagnostics.get("restarts", [])),
    }
    return json.dumps(doc, sort_keys=True)
