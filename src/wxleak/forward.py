"""Radiance observation operator and its bias-correction machinery.

Maps a single-column atmospheric state to the 23.8 GHz brightness
temperature a spaceborne radiometer would report. The operator blends
surface and atmosphere emission through a water-vapor opacity term:

    T_b(q) = T_surf * exp(-kappa q) + T_atm * (1 - exp(-kappa q))

which is transparent at q = 0, saturates to the atmosphere temperature as
the column moistens, and is monotone in q in between. The bias-corrected
operator adds a constant coefficient plus a linear combination of named
predictors evaluated per observation, at its scan position (the grid cell
it looks at).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ValidationError


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
class PredictorDef:
    """A named bias predictor with its state sensitivities.

    ``value`` evaluates the predictor for one column at one scan position,
    as observation synthesis does; ``vector_value`` evaluates it for a whole
    observation set from arrays of (surface temperature, water vapor, scan
    position), as the analysis operator does. The two derivative fields give
    the predictor's sensitivity to the column surface temperature and water
    vapor, needed by the analytic assimilation gradient.
    """

    name: str
    value: Callable[[ColumnState, int], float]
    vector_value: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    d_surface_temperature: float = 0.0
    d_water_vapor: float = 0.0


PREDICTOR_REGISTRY: dict[str, PredictorDef] = {
    p.name: p
    for p in (
        PredictorDef(
            "surface_temperature",
            lambda state, scan: state.surface_temperature_k,
            vector_value=lambda t_surf, q, scan: t_surf,
            d_surface_temperature=1.0,
        ),
        PredictorDef(
            "scan_position",
            lambda state, scan: float(scan),
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
    predictors: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "coefficients", tuple(float(c) for c in self.coefficients))
        object.__setattr__(self, "predictors", tuple(self.predictors))
        if len(self.coefficients) != len(self.predictors):
            raise ValidationError(
                f"{len(self.coefficients)} coefficients for {len(self.predictors)} predictors"
            )
        unknown = [n for n in self.predictors if n not in PREDICTOR_REGISTRY]
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
        return len(self.predictors)

    def resolved(self) -> tuple[PredictorDef, ...]:
        return tuple(PREDICTOR_REGISTRY[n] for n in self.predictors)


def forward(state: ColumnState, opacity_coefficient: float) -> float:
    """Brightness temperature of a column, in kelvin.

    ``opacity_coefficient`` is the opacity per unit column water vapor,
    (kg/m^2)^-1.
    """
    w = math.exp(-opacity_coefficient * state.water_vapor_kg_m2)
    return state.surface_temperature_k * w + state.atmosphere_temperature_k * (1.0 - w)


def predictors(state: ColumnState, scan_position: int, bias: BiasModel) -> list[float]:
    """Evaluate the bias model's predictors for one observation."""
    return [p.value(state, scan_position) for p in bias.resolved()]


def bias_corrected_forward(
    state: ColumnState, bias: BiasModel, scan_position: int, opacity_coefficient: float
) -> float:
    """Forward operator plus the bias correction: H + beta_0 + sum(beta_i p_i)."""
    correction = bias.constant_coefficient_k
    for coeff, value in zip(bias.coefficients, predictors(state, scan_position, bias)):
        correction += coeff * value
    return forward(state, opacity_coefficient) + correction


__all__ = [
    "BiasModel",
    "ColumnState",
    "PredictorDef",
    "PREDICTOR_REGISTRY",
    "bias_corrected_forward",
    "forward",
    "predictors",
]
