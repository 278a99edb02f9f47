"""Parameter containers and physical <-> statistical conversions.

The channel model is two specular rays with amplitudes ``v1 >= v2`` and
independent unit-mean Gamma fluctuations of shapes ``m1`` (stronger ray)
and ``m2`` (weaker ray), plus a diffuse complex Gaussian component with
per-dimension variance ``sigma2``.  The statistical parameterization is

    K     = (v1^2 + v2^2) / (2 sigma2)        specular-to-diffuse power
    Delta = 2 v1 v2 / (v1^2 + v2^2)           ray-similarity index in [0, 1]

together with the mean SNR ``mean_snr`` (interpreted as the mean squared
envelope ``Omega`` when working in the envelope domain).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "M_SHAPE_MAX",
    "ValidationError",
    "IftrParams",
    "SpecularDecomposition",
    "ModulationSpec",
    "FAMILIES",
    "family_params",
    "params_from_amplitudes",
    "amplitudes_from_params",
    "params_from_json",
    "params_to_json",
]

# Largest finite fluctuation shape accepted; math.inf requests the frozen
# (non-fluctuating) limit explicitly.  Finite shapes are evaluated through
# log-domain formulas and stay accurate up to this bound.
M_SHAPE_MAX = 1.0e6


class ValidationError(ValueError):
    """Raised when a parameter container is constructed from invalid values."""


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if math.isnan(value) or math.isinf(value):
        raise ValidationError(f"{name} must be finite, got {value!r}")
    return value


def _validate_shape(name: str, value: float) -> float:
    value = float(value)
    if math.isnan(value):
        raise ValidationError(f"{name} must not be NaN")
    if value == math.inf:
        return value
    if not 0.0 < value <= M_SHAPE_MAX:
        raise ValidationError(
            f"{name} must lie in (0, {M_SHAPE_MAX:g}] or be math.inf, got {value!r}"
        )
    return value


@dataclass(frozen=True)
class IftrParams:
    """Five-parameter description of the fading channel.

    ``k >= 0``, ``0 <= delta <= 1``, ``m1, m2 > 0`` (``math.inf`` freezes a
    fluctuation), ``mean_snr > 0``.  ``k == 0`` forces ``delta = 0`` since
    the similarity index is undefined without specular power.
    """

    k: float
    delta: float
    m1: float
    m2: float
    mean_snr: float = 1.0

    def __post_init__(self) -> None:
        k = _require_finite("k", self.k)
        delta = _require_finite("delta", self.delta)
        mean_snr = _require_finite("mean_snr", self.mean_snr)
        if k < 0.0:
            raise ValidationError(f"k must be >= 0, got {k}")
        if not 0.0 <= delta <= 1.0:
            raise ValidationError(f"delta must lie in [0, 1], got {delta}")
        if mean_snr <= 0.0:
            raise ValidationError(f"mean_snr must be > 0, got {mean_snr}")
        m1 = _validate_shape("m1", self.m1)
        m2 = _validate_shape("m2", self.m2)
        if k == 0.0:
            delta = 0.0
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "m1", m1)
        object.__setattr__(self, "m2", m2)
        object.__setattr__(self, "mean_snr", mean_snr)

    def ray_power_ratios(self) -> tuple[float, float]:
        """Per-ray specular-to-diffuse power ratios ``v_i^2 / (2 sigma2)``.

        Returns ``(p1, p2) = (K/2)(1 +/- sqrt(1 - Delta^2))`` with
        ``p1 >= p2``; their sum is ``K`` and their product ``(K Delta / 2)^2``.
        """
        root = math.sqrt((1.0 - self.delta) * (1.0 + self.delta))
        return 0.5 * self.k * (1.0 + root), 0.5 * self.k * (1.0 - root)

    def with_mean_snr(self, mean_snr: float) -> "IftrParams":
        return replace(self, mean_snr=mean_snr)


# The IftrParams fields each model family frees, special cases first.  Every
# other field keeps its _PINNED value (frozen fluctuations at math.inf), so a
# family whose free fields are a subset of another's is one of its special
# cases.
FAMILIES = {
    "rice": ("k",),
    "twdp": ("k", "delta"),
    "rician-shadowed": ("k", "m1"),
    "iftr": ("k", "delta", "m1", "m2"),
}
_PINNED = {"delta": 0.0, "m1": math.inf, "m2": math.inf}


def family_params(family: str, mean_snr: float = 1.0, **fields) -> IftrParams:
    """Parameters of a ``FAMILIES`` row: its free fields taken from
    ``fields`` (any others are ignored), every other field pinned.  A free
    field that is missing or None raises ``ValidationError``."""
    if family not in FAMILIES:
        raise ValidationError(f"family must be one of {tuple(FAMILIES)}, got {family!r}")
    missing = [f for f in FAMILIES[family] if fields.get(f) is None]
    if missing:
        raise ValidationError(f"family {family!r} needs {', '.join(missing)}")
    free = {f: fields[f] for f in FAMILIES[family]}
    return IftrParams(**{**_PINNED, **free}, mean_snr=mean_snr)


@dataclass(frozen=True)
class SpecularDecomposition:
    """Physical ray amplitudes ``v1 >= v2 >= 0`` and diffuse variance ``sigma2 > 0``."""

    v1: float
    v2: float
    sigma2: float

    def __post_init__(self) -> None:
        v1 = _require_finite("v1", self.v1)
        v2 = _require_finite("v2", self.v2)
        sigma2 = _require_finite("sigma2", self.sigma2)
        if not v1 >= v2 >= 0.0:
            raise ValidationError(f"need v1 >= v2 >= 0, got v1={v1}, v2={v2}")
        if sigma2 <= 0.0:
            raise ValidationError(f"sigma2 must be > 0, got {sigma2}")
        object.__setattr__(self, "v1", v1)
        object.__setattr__(self, "v2", v2)
        object.__setattr__(self, "sigma2", sigma2)


def params_from_amplitudes(
    d: SpecularDecomposition, es_n0: float, m1: float = math.inf, m2: float = math.inf
) -> IftrParams:
    """Convert ray amplitudes to the (K, Delta, mean SNR) parameterization.

    ``es_n0`` is the linear symbol-energy to noise-density ratio; the mean
    SNR is ``es_n0 * (v1^2 + v2^2 + 2 sigma2) = es_n0 * 2 sigma2 (1 + K)``.
    Fluctuation shapes are carried through unchanged.
    """
    es_n0 = _require_finite("es_n0", es_n0)
    if es_n0 <= 0.0:
        raise ValidationError(f"es_n0 must be > 0, got {es_n0}")
    specular = d.v1 * d.v1 + d.v2 * d.v2
    k = specular / (2.0 * d.sigma2)
    delta = 2.0 * d.v1 * d.v2 / specular if specular > 0.0 else 0.0
    # Guard rounding excursions just above 1 when v1 == v2.
    delta = min(delta, 1.0)
    mean_snr = es_n0 * 2.0 * d.sigma2 * (1.0 + k)
    return IftrParams(k=k, delta=delta, m1=m1, m2=m2, mean_snr=mean_snr)


def amplitudes_from_params(p: IftrParams, sigma2: float) -> SpecularDecomposition:
    """Recover ray amplitudes for a given diffuse variance.

    ``v_i^2 = 2 sigma2 * (K/2)(1 +/- sqrt(1 - Delta^2))``; inverse of
    :func:`params_from_amplitudes` up to the free ``sigma2`` scale.
    """
    sigma2 = _require_finite("sigma2", sigma2)
    if sigma2 <= 0.0:
        raise ValidationError(f"sigma2 must be > 0, got {sigma2}")
    p1, p2 = p.ray_power_ratios()
    v1 = math.sqrt(2.0 * sigma2 * p1)
    v2 = math.sqrt(2.0 * sigma2 * p2)
    return SpecularDecomposition(v1=v1, v2=v2, sigma2=sigma2)


_CEP_GRID_POINTS = 201


@dataclass(frozen=True)
class ModulationSpec:
    """Coefficients of a conditional error probability sum(alpha_r Q(sqrt(beta_r x))).

    ``terms`` is an ordered sequence of ``(alpha_r, beta_r)`` pairs with
    ``beta_r > 0``, stored as a tuple.  Construction checks that the
    resulting conditional error probability stays within [0, 1] on a wide
    SNR grid.
    """

    terms: tuple

    def __post_init__(self) -> None:
        terms = tuple((float(a), float(b)) for a, b in self.terms)
        if len(terms) < 1:
            raise ValidationError("ModulationSpec needs at least one (alpha, beta) term")
        for i, (alpha, beta) in enumerate(terms):
            _require_finite(f"alpha[{i}]", alpha)
            _require_finite(f"beta[{i}]", beta)
            if beta <= 0.0:
                raise ValidationError(f"beta[{i}] must be > 0, got {beta}")
        object.__setattr__(self, "terms", terms)
        bad = self._cep_out_of_range()
        if bad is not None:
            raise ValidationError(
                f"conditional error probability leaves [0, 1] at snr={bad[0]:g} "
                f"(value {bad[1]:g})"
            )

    def _cep_out_of_range(self):
        # Scalar math.erfc on the grid: construction needs no scipy.
        snr = np.concatenate(([0.0], np.logspace(-3.0, 3.0, _CEP_GRID_POINTS)))
        tol = 1e-12
        for x in snr.tolist():
            cep = sum(alpha * 0.5 * math.erfc(math.sqrt(0.5 * beta * x)) for alpha, beta in self.terms)
            if cep < -tol or cep > 1.0 + tol:
                return x, cep
        return None

    def cep(self, snr):
        """Conditional error probability at the given instantaneous SNR(s)."""
        from scipy.special import erfc  # deferred: keeps scipy off the import path

        snr = np.asarray(snr, dtype=float)
        out = np.zeros_like(snr)
        for alpha, beta in self.terms:
            out += alpha * 0.5 * erfc(np.sqrt(0.5 * beta * snr))
        return out

    @classmethod
    def bpsk(cls) -> "ModulationSpec":
        """Coherent BPSK: a single Q(sqrt(2 x)) term."""
        return cls([(1.0, 2.0)])


def _shape_from_json(name: str, value) -> float:
    if isinstance(value, str):
        if value.lower() in ("inf", "infinity"):
            return math.inf
        raise ValidationError(f"{name}: unrecognized string value {value!r}")
    return float(value)


def params_from_json(doc) -> IftrParams:
    """Build parameters from a JSON document or parsed mapping.

    Expected keys: ``K``, ``Delta``, ``m1``, ``m2``, ``mean_snr_db``; the
    dB field converts as ``linear = 10^(dB/10)``.  Shapes also accept the
    string ``"inf"``.
    """
    if isinstance(doc, (str, bytes)):
        doc = json.loads(doc)
    try:
        k = float(doc["K"])
        delta = float(doc["Delta"])
        m1 = _shape_from_json("m1", doc["m1"])
        m2 = _shape_from_json("m2", doc["m2"])
        mean_snr_db = float(doc["mean_snr_db"])
    except KeyError as exc:
        raise ValidationError(f"missing parameter field {exc.args[0]!r}") from None
    return IftrParams(k=k, delta=delta, m1=m1, m2=m2, mean_snr=10.0 ** (mean_snr_db / 10.0))


def params_to_json(p: IftrParams) -> str:
    """Serialize parameters to the JSON document format of :func:`params_from_json`."""
    doc = {
        "K": p.k,
        "Delta": p.delta,
        "m1": "inf" if p.m1 == math.inf else p.m1,
        "m2": "inf" if p.m2 == math.inf else p.m2,
        "mean_snr_db": 10.0 * math.log10(p.mean_snr),
    }
    return json.dumps(doc)
