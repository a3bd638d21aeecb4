"""Out-of-band leakage chain: emission mask to brightness-temperature error.

Models how emissions from transmitters in a band adjacent to a passive
23.8 GHz sensing channel end up perturbing the radiometric measurement:

1. ``aci_leakage_fraction``     - how much of a transmitter's power falls in
                                  the victim channel, from its emission mask
2. ``aggregate_leakage_power``  - incoherent sum over a transmitter field
3. ``received_power``           - leakage power arriving at the spaceborne
                                  radiometer after the link budget
4. ``induced_noise_temperature``- equivalent noise temperature of that power
5. ``antenna_temperature``      - scene brightness to antenna temperature
6. ``brightness_perturbation``  - the brightness-temperature error an unaware
                                  retrieval attributes to the atmosphere

Conventions: public parameters are in dB/dBW, internal arithmetic is in
linear units (watts), conversions happen only at function boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import MaskCoverageError, ValidationError

BOLTZMANN_J_PER_K = 1.380649e-23

#: Sentinel for "no power at all" (zero transmitters or zero leakage
#: fraction). It is a value, not an error: downstream conversions map it to
#: exactly zero watts.
NO_LEAKAGE_DBW = float("-inf")

#: Natural-log growth per dB of a power ratio: 10^(p/10) = exp(p * _NEPER_PER_DB).
_NEPER_PER_DB = math.log(10.0) / 10.0


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def linear_to_db(value: float) -> float:
    if value == 0.0:
        return NO_LEAKAGE_DBW
    return 10.0 * math.log10(value)


def sum_power_dbw(levels_dbw: list[float]) -> float:
    """Incoherently add power levels given in dBW (linear-domain sum)."""
    total = sum(db_to_linear(level) for level in levels_dbw)
    return linear_to_db(total)


@dataclass(frozen=True)
class ChannelSpec:
    """A radio channel between two edge frequencies (Hz)."""

    f_low_hz: float
    f_high_hz: float

    def __post_init__(self):
        if not (self.f_low_hz < self.f_high_hz):
            raise ValidationError(
                f"channel edges inverted: f_low {self.f_low_hz:.6g} >= f_high {self.f_high_hz:.6g}"
            )

    @property
    def center_frequency_hz(self) -> float:
        return (self.f_low_hz + self.f_high_hz) / 2.0

    @property
    def bandwidth_hz(self) -> float:
        return self.f_high_hz - self.f_low_hz

    @classmethod
    def from_center(cls, center_hz: float, bandwidth_hz: float) -> "ChannelSpec":
        half = bandwidth_hz / 2.0
        return cls(center_hz - half, center_hz + half)


#: The passive water-vapor sensing channel: 23.8 GHz center, 270 MHz wide.
VICTIM_CHANNEL = ChannelSpec.from_center(23.8e9, 270e6)

#: The adjacent 5G mmWave allocation, 24.25 to 27.5 GHz.
AGGRESSOR_CHANNEL = ChannelSpec(24.25e9, 27.5e9)


@dataclass(frozen=True)
class EmissionMask:
    """Piecewise-linear-in-dB power spectral density of one transmitter.

    ``breakpoints`` are (offset from the aggressor channel center in Hz,
    PSD in dB relative to the in-band PSD), sorted strictly by offset.
    Between breakpoints the PSD interpolates linearly in dB; outside the
    covered span the mask is undefined and integration raises
    ``MaskCoverageError``. Only ratios of mask integrals are used, so the
    in-band level the PSD is relative to never enters a result.
    """

    breakpoints: tuple[tuple[float, float], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "breakpoints", tuple((float(o), float(p)) for o, p in self.breakpoints)
        )
        if len(self.breakpoints) < 2:
            raise ValidationError("emission mask needs at least two breakpoints", "breakpoints")
        offsets = [o for o, _ in self.breakpoints]
        if any(b <= a for a, b in zip(offsets, offsets[1:])):
            raise ValidationError("mask breakpoint offsets must increase strictly", "breakpoints")
        if not all(math.isfinite(p) for _, p in self.breakpoints):
            raise ValidationError("mask PSD values must be finite", "breakpoints")

    def integrate_linear(self, f_low_hz: float, f_high_hz: float, center_hz: float) -> float:
        """Integrate 10^(PSD/10) over [f_low, f_high] (absolute Hz).

        Exact inside each dB-linear segment: over [a, b] the PSD is
        10^(p_a/10) exp(x (f - a)/(b - a)) with x = (p_b - p_a) ln(10)/10,
        whose integral is 10^(p_a/10) (b - a) expm1(x)/x, and (b - a) times
        the level for a flat segment (x = 0). The result is linear power
        times hertz, relative to the in-band PSD.
        """
        lo = f_low_hz - center_hz
        hi = f_high_hz - center_hz
        pts = self.breakpoints
        if lo < pts[0][0] or hi > pts[-1][0]:
            span_lo = f_low_hz if lo < pts[0][0] else center_hz + pts[-1][0]
            span_hi = center_hz + pts[0][0] if lo < pts[0][0] else f_high_hz
            raise MaskCoverageError(span_lo, span_hi)
        if hi <= lo:
            raise ValidationError("integration span is empty or inverted")

        total = 0.0
        for (o0, p0), (o1, p1) in zip(pts, pts[1:]):
            a = max(lo, o0)
            b = min(hi, o1)
            if b <= a:
                continue
            slope = (p1 - p0) / (o1 - o0)
            x = slope * (b - a) * _NEPER_PER_DB
            width = (b - a) if x == 0.0 else (b - a) * math.expm1(x) / x
            total += db_to_linear(p0 + slope * (a - o0)) * width
        return total


def default_emission_mask() -> EmissionMask:
    """Shipped roll-off mask: flat in the aggressor band, then a linear dB
    roll-off to a -40 dB floor across a 450 MHz guard on each side.

    The floor extends far enough below the aggressor band to cover the full
    victim channel.
    """
    half = AGGRESSOR_CHANNEL.bandwidth_hz / 2.0
    guard = 450e6
    return EmissionMask(
        breakpoints=(
            (-(half + 1500e6), -40.0),
            (-(half + guard), -40.0),
            (-half, 0.0),
            (half, 0.0),
            (half + guard, -40.0),
            (half + 1500e6, -40.0),
        )
    )


@dataclass(frozen=True)
class TransmitterField:
    """Population of identical emitters inside one sensor footprint."""

    count: int = 1
    elevation_gain_db: float = 0.0

    def __post_init__(self):
        if self.count < 0:
            raise ValidationError("transmitter count must be >= 0", "count")


@dataclass(frozen=True)
class LinkBudget:
    """Ground-to-satellite path for leakage power.

    ``total_pathloss_db`` is the all-inclusive link loss (distance, antenna
    and system gains already folded in); ``transmittance`` is the fraction
    of the signal energy that passes the atmosphere.
    """

    total_pathloss_db: float = 130.0
    transmittance: float = 1.0

    def __post_init__(self):
        if self.total_pathloss_db <= 0:
            raise ValidationError("total pathloss must be positive", "total_pathloss_db")
        if not 0.0 <= self.transmittance <= 1.0:
            raise ValidationError("transmittance must lie in [0, 1]", "transmittance")


@dataclass(frozen=True)
class AntennaModel:
    """Radiometer antenna: radiation efficiency and self-emission temperature."""

    radiation_efficiency: float = 0.95
    physical_temperature_k: float = 290.0

    def __post_init__(self):
        if not 0.0 <= self.radiation_efficiency <= 1.0:
            raise ValidationError("radiation efficiency must lie in [0, 1]", "radiation_efficiency")
        if self.physical_temperature_k <= 0:
            raise ValidationError("physical temperature must be positive", "physical_temperature_k")


def aci_leakage_fraction(
    mask: EmissionMask, aggressor: ChannelSpec, victim: ChannelSpec
) -> float:
    """Fraction of one transmitter's power that lands inside the victim band.

    Both integrals run over the mask in linear power units: the numerator
    across [victim.f_low, victim.f_high], the denominator across the
    aggressor channel (the transmitter's in-band power). The mask must cover
    both spans. For physical masks, whose out-of-band PSD never exceeds the
    in-band level, the result lies in [0, 1].
    """
    center = aggressor.center_frequency_hz
    leaked = mask.integrate_linear(victim.f_low_hz, victim.f_high_hz, center)
    in_band = mask.integrate_linear(aggressor.f_low_hz, aggressor.f_high_hz, center)
    if in_band <= 0.0:
        raise ValidationError("aggressor in-band power integrates to zero")
    return leaked / in_band


def aggregate_leakage_power(
    field_: TransmitterField, per_device_eirp_dbw: float, fraction: float
) -> float:
    """Total leakage EIRP of a transmitter field toward the satellite, dBW.

    Incoherent (linear-watt) sum of ``count`` identical devices of in-band
    EIRP ``per_device_eirp_dbw``, scaled by the in-victim-band ``fraction``
    and the elevation gain. Zero devices or zero fraction yield
    ``NO_LEAKAGE_DBW``.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValidationError("leakage fraction must lie in [0, 1]")
    if field_.count == 0 or fraction == 0.0:
        return NO_LEAKAGE_DBW
    total_w = field_.count * db_to_linear(per_device_eirp_dbw) * fraction
    return linear_to_db(total_w) + field_.elevation_gain_db


def received_power(leakage_dbw: float, link: LinkBudget) -> float:
    """Leakage power reaching the radiometer, in watts.

    ``P_rx = 10^((leakage - pathloss) / 10) * transmittance``; the idealized
    default has transmittance one (no blockage or scattering).
    """
    if leakage_dbw == NO_LEAKAGE_DBW:
        return 0.0
    return db_to_linear(leakage_dbw - link.total_pathloss_db) * link.transmittance


def induced_noise_temperature(p_rx_w: float, channel: ChannelSpec) -> float:
    """Noise temperature (K) equivalent to ``p_rx_w`` over the channel bandwidth.

    T = P / (k_B * B).
    """
    if p_rx_w < 0:
        raise ValidationError("received power must be >= 0")
    return p_rx_w / (BOLTZMANN_J_PER_K * channel.bandwidth_hz)


def antenna_temperature(t_b_k: float, antenna: AntennaModel) -> float:
    """Antenna temperature seen at the radiometer terminals.

    T_a = eta * T_b + (1 - eta) * T_p: a convex blend of scene brightness
    and the antenna's own thermal emission.
    """
    if t_b_k < 0:
        raise ValidationError("brightness temperature must be >= 0")
    eta = antenna.radiation_efficiency
    return eta * t_b_k + (1.0 - eta) * antenna.physical_temperature_k


def brightness_perturbation(noise_k: float, antenna: AntennaModel) -> float:
    """Brightness-temperature error implied by an antenna-temperature rise.

    A retrieval unaware of the interference inverts the antenna relation
    holding the physical temperature fixed, so a noise rise dT_a of
    ``noise_k`` kelvin maps to a scene error dT_b = dT_a / eta. Undefined
    for a zero-efficiency antenna (it sees only itself).
    """
    if noise_k < 0:
        raise ValidationError("noise temperature must be >= 0")
    if antenna.radiation_efficiency <= 0.0:
        raise ValidationError(
            "brightness perturbation undefined at zero radiation efficiency"
        )
    return noise_k / antenna.radiation_efficiency
