"""Radiance observation operator and its bias-correction machinery.

Maps a single-column atmospheric state to the 23.8 GHz brightness
temperature a spaceborne radiometer would report. The operator blends
surface and atmosphere emission through a water-vapor opacity term:

    T_b(q) = T_surf * exp(-kappa q) + T_atm * (1 - exp(-kappa q))

which is transparent at q = 0, saturates to the atmosphere temperature as
the column moistens, and is monotone in q in between. The bias-corrected
operator adds a constant coefficient plus a linear combination of named
predictors evaluated per observation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ValidationError
from .leakage import ChannelSpec, VICTIM_CHANNEL


@dataclass(frozen=True)
class ColumnState:
    """Single-column state presented to the observation operator."""

    water_vapor_kg_m2: float
    surface_temperature_k: float
    atmosphere_temperature_k: float

    def __post_init__(self):
        if self.water_vapor_kg_m2 < 0:
            raise ValidationError("column water vapor must be >= 0")
        if self.surface_temperature_k <= 0 or self.atmosphere_temperature_k <= 0:
            raise ValidationError("column temperatures must be positive")


@dataclass(frozen=True)
class ForwardOperatorParams:
    """Opacity coefficient per unit column water vapor, (kg/m^2)^-1.

    The default 0.05 puts typical mid-latitude columns (5 to 50 kg/m^2) in
    the curved part of the operator.
    """

    opacity_coefficient: float = 0.05

    def __post_init__(self):
        if self.opacity_coefficient <= 0:
            raise ValidationError("opacity coefficient must be positive")


@dataclass(frozen=True)
class RadianceObservation:
    """One brightness-temperature sample with its error metadata."""

    channel: ChannelSpec
    value_k: float
    error_stddev_k: float
    scan_position: int
    applied_perturbation_k: float = 0.0

    def __post_init__(self):
        if self.error_stddev_k <= 0:
            raise ValidationError("observation error stddev must be positive")
        if not math.isfinite(self.value_k):
            raise ValidationError("observation value must be finite")


@dataclass(frozen=True)
class PredictorDef:
    """A named bias predictor with its state sensitivities.

    ``value`` evaluates the predictor for one observation, as observation
    synthesis does; ``vector_value`` evaluates it for a whole observation
    set from arrays of (surface temperature, water vapor, scan position),
    as the analysis operator does. The two derivative fields give the
    predictor's sensitivity to the column surface temperature and water
    vapor, needed by the analytic assimilation gradient.
    """

    name: str
    value: Callable[[ColumnState, RadianceObservation], float]
    vector_value: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    d_surface_temperature: float = 0.0
    d_water_vapor: float = 0.0


PREDICTOR_REGISTRY: dict[str, PredictorDef] = {
    p.name: p
    for p in (
        PredictorDef(
            "surface_temperature",
            lambda state, obs: state.surface_temperature_k,
            vector_value=lambda t_surf, q, scan: t_surf,
            d_surface_temperature=1.0,
        ),
        PredictorDef(
            "scan_position",
            lambda state, obs: float(obs.scan_position),
            vector_value=lambda t_surf, q, scan: scan,
        ),
    )
}


@dataclass(frozen=True)
class BiasModel:
    """Constant plus per-predictor linear bias correction.

    Predictor names are resolved against the registry at construction, so a
    typo fails at load time rather than mid-assimilation.
    """

    constant_coefficient_k: float = 0.0
    coefficients: tuple[float, ...] = ()
    predictor_definitions: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "coefficients", tuple(float(c) for c in self.coefficients))
        object.__setattr__(self, "predictor_definitions", tuple(self.predictor_definitions))
        if len(self.coefficients) != len(self.predictor_definitions):
            raise ValidationError(
                f"{len(self.coefficients)} coefficients for "
                f"{len(self.predictor_definitions)} predictors"
            )
        unknown = [n for n in self.predictor_definitions if n not in PREDICTOR_REGISTRY]
        if unknown:
            raise ValidationError(
                f"unknown predictor name(s) {unknown}; "
                f"registered: {sorted(PREDICTOR_REGISTRY)}"
            )
        values = (self.constant_coefficient_k, *self.coefficients)
        if not all(math.isfinite(v) for v in values):
            raise ValidationError("bias coefficients must be finite")

    @property
    def n_predictors(self) -> int:
        return len(self.predictor_definitions)

    def resolved(self) -> tuple[PredictorDef, ...]:
        return tuple(PREDICTOR_REGISTRY[n] for n in self.predictor_definitions)


def forward(state: ColumnState, params: ForwardOperatorParams) -> float:
    """Brightness temperature of a column, in kelvin."""
    w = math.exp(-params.opacity_coefficient * state.water_vapor_kg_m2)
    return state.surface_temperature_k * w + state.atmosphere_temperature_k * (1.0 - w)


def predictors(
    state: ColumnState, obs: RadianceObservation, bias: BiasModel
) -> list[float]:
    """Evaluate the bias model's predictors for one observation."""
    return [p.value(state, obs) for p in bias.resolved()]


def bias_corrected_forward(
    state: ColumnState,
    bias: BiasModel,
    obs: RadianceObservation,
    params: ForwardOperatorParams,
) -> float:
    """Forward operator plus the bias correction: H + beta_0 + sum(beta_i p_i)."""
    correction = bias.constant_coefficient_k
    for coeff, value in zip(bias.coefficients, predictors(state, obs, bias)):
        correction += coeff * value
    return forward(state, params) + correction


__all__ = [
    "BiasModel",
    "ColumnState",
    "ForwardOperatorParams",
    "PredictorDef",
    "PREDICTOR_REGISTRY",
    "RadianceObservation",
    "VICTIM_CHANNEL",
    "bias_corrected_forward",
    "forward",
    "predictors",
]
