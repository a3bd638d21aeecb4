"""Tests for the leakage chain: mask integration through brightness error."""

import math
import sys

import numpy as np
import pytest

from wxleak.errors import ValidationError
from wxleak.leakage import (
    AGGRESSOR_CHANNEL,
    AntennaModel,
    BOLTZMANN_J_PER_K,
    ChannelSpec,
    EmissionMask,
    LinkBudget,
    NO_LEAKAGE_DBW,
    TransmitterField,
    VICTIM_CHANNEL,
    aci_leakage_fraction,
    aggregate_leakage_power,
    antenna_temperature,
    brightness_perturbation,
    db_to_linear,
    default_emission_mask,
    induced_noise_temperature,
    linear_to_db,
    received_power,
    sum_power_dbw,
)


def brute_force_fraction(mask, aggressor, victim, n=1_000_000):
    """Independent quadrature oracle: dense sampling plus trapezoids."""

    def integral(f_lo, f_hi):
        freqs = np.linspace(f_lo, f_hi, n)
        offsets = freqs - aggressor.center_frequency_hz
        xs = np.array([o for o, _ in mask.breakpoints])
        ys = np.array([p for _, p in mask.breakpoints])
        power = 10.0 ** (np.interp(offsets, xs, ys) / 10.0)
        h = (f_hi - f_lo) / (n - 1)
        return 0.5 * h * (power[0] + power[-1]) + h * power[1:-1].sum()

    leaked = integral(victim.f_low_hz, victim.f_high_hz)
    total = integral(aggressor.f_low_hz, aggressor.f_high_hz)
    return leaked / total


class TestChannelSpec:
    def test_builtin_victim(self):
        """23.8 GHz center with 270 MHz width puts the edges at 23.665/23.935 GHz."""
        assert VICTIM_CHANNEL.center_frequency_hz == 23.8e9
        assert VICTIM_CHANNEL.bandwidth_hz == 270e6
        assert math.isclose(VICTIM_CHANNEL.f_low_hz, 23.665e9)
        assert math.isclose(VICTIM_CHANNEL.f_high_hz, 23.935e9)

    def test_builtin_aggressor(self):
        """24.25 to 27.5 GHz: the center and width derived from the edges are exact."""
        assert AGGRESSOR_CHANNEL.f_low_hz == 24.25e9
        assert AGGRESSOR_CHANNEL.f_high_hz == 27.5e9
        assert AGGRESSOR_CHANNEL.center_frequency_hz == 25.875e9
        assert AGGRESSOR_CHANNEL.bandwidth_hz == 3.25e9

    def test_inverted_edges_rejected(self):
        with pytest.raises(ValidationError):
            ChannelSpec(25e9, 24.5e9)
        with pytest.raises(ValidationError):
            ChannelSpec.from_center(24e9, 0.0)


class TestEmissionMask:
    def test_unsorted_breakpoints_rejected(self):
        with pytest.raises(ValidationError):
            EmissionMask(((0.0, 0.0), (-1e6, -10.0)))

    def test_single_breakpoint_rejected(self):
        with pytest.raises(ValidationError):
            EmissionMask(((0.0, 0.0),))

    def test_non_finite_psd_rejected(self):
        with pytest.raises(ValidationError):
            EmissionMask(((0.0, 0.0), (1e6, float("inf"))))

    def test_flat_segment_integral_is_width_times_level(self):
        mask = EmissionMask(((0.0, -3.0), (2e6, -3.0)))
        assert mask.integrate_linear(0.0, 2e6, 0.0) == 2e6 * 10.0 ** (-0.3)

    def test_sloped_segment_integral_closed_form(self):
        """0 to -10 dB over 1 MHz: the integral of 10^(-f/1e6) is 0.9e6 / ln(10)."""
        mask = EmissionMask(((0.0, 0.0), (1e6, -10.0)))
        expected = 0.9e6 / math.log(10.0)
        assert math.isclose(mask.integrate_linear(0.0, 1e6, 0.0), expected, rel_tol=1e-14)

    def test_partial_segments_sum_to_whole(self):
        """Integration limits inside segments: splitting anywhere preserves the total."""
        mask = default_emission_mask()
        lo, hi = -3e9, 3e9
        whole = mask.integrate_linear(lo, hi, 0.0)
        for cut in (-2.1e9, -1.7e9, 0.0, 1.9e9):
            parts = mask.integrate_linear(lo, cut, 0.0) + mask.integrate_linear(cut, hi, 0.0)
            assert math.isclose(parts, whole, rel_tol=1e-13)

    def test_nearly_flat_segment_is_continuous(self):
        """A vanishing slope approaches the flat-segment value smoothly."""
        flat = EmissionMask(((0.0, -20.0), (1e9, -20.0))).integrate_linear(0.0, 1e9, 0.0)
        tilted = EmissionMask(((0.0, -20.0), (1e9, -20.0 + 1e-12))).integrate_linear(0.0, 1e9, 0.0)
        assert math.isclose(tilted, flat, rel_tol=1e-12)

    @pytest.mark.parametrize("lo, hi", [(1e6, 1e6), (2e6, 1e6)])
    def test_empty_or_inverted_span_rejected(self, lo, hi):
        with pytest.raises(ValidationError, match="empty or inverted"):
            default_emission_mask().integrate_linear(lo, hi, 0.0)

    def test_uncovered_region_names_span(self):
        mask = default_emission_mask()
        far = ChannelSpec.from_center(10e9, 270e6)
        with pytest.raises(ValidationError) as excinfo:
            aci_leakage_fraction(mask, AGGRESSOR_CHANNEL, far)
        assert str(excinfo.value) == "emission mask undefined over 9.865e+09 Hz to 2.275e+10 Hz"
        assert excinfo.value.field == "breakpoints"


class TestLeakageFraction:
    def test_disjoint_victim_with_floor(self):
        """A -300 dB floor outside the aggressor band leaks nothing measurable."""
        half = AGGRESSOR_CHANNEL.bandwidth_hz / 2
        mask = EmissionMask(
            (
                (-4e9, -300.0),
                (-half - 1e6, -300.0),
                (-half, 0.0),
                (half, 0.0),
                (half + 1e6, -300.0),
                (4e9, -300.0),
            )
        )
        frac = aci_leakage_fraction(mask, AGGRESSOR_CHANNEL, VICTIM_CHANNEL)
        assert frac < 1e-12

    def test_flat_mask_identical_bands(self):
        """All power in band when victim and aggressor coincide."""
        mask = EmissionMask(((-AGGRESSOR_CHANNEL.bandwidth_hz / 2, 0.0),
                             (AGGRESSOR_CHANNEL.bandwidth_hz / 2, 0.0)))
        frac = aci_leakage_fraction(mask, AGGRESSOR_CHANNEL, AGGRESSOR_CHANNEL)
        assert math.isclose(frac, 1.0, rel_tol=1e-12)

    def test_default_mask_against_frozen_oracle(self):
        """Default roll-off mask fraction, frozen from a 1e6-point quadrature."""
        frac = aci_leakage_fraction(default_emission_mask(), AGGRESSOR_CHANNEL, VICTIM_CHANNEL)
        assert abs(frac - 2.6476647220501326e-05) < 1e-6
        assert abs(frac - 2.6476647220501326e-05) / 2.6476647220501326e-05 < 1e-4

    def test_matches_brute_force_on_default_mask(self):
        mask = default_emission_mask()
        frac = aci_leakage_fraction(mask, AGGRESSOR_CHANNEL, VICTIM_CHANNEL)
        oracle = brute_force_fraction(mask, AGGRESSOR_CHANNEL, VICTIM_CHANNEL)
        assert abs(frac - oracle) < 1e-6

    def test_fraction_in_unit_interval_random_masks(self):
        rng = np.random.default_rng(2024)
        for _ in range(10):
            mask = random_emission_mask(rng)
            frac = aci_leakage_fraction(mask, AGGRESSOR_CHANNEL, VICTIM_CHANNEL)
            assert 0.0 <= frac <= 1.0

    def test_random_masks_match_brute_force(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            mask = random_emission_mask(rng)
            frac = aci_leakage_fraction(mask, AGGRESSOR_CHANNEL, VICTIM_CHANNEL)
            oracle = brute_force_fraction(mask, AGGRESSOR_CHANNEL, VICTIM_CHANNEL, n=200_000)
            assert abs(frac - oracle) < 1e-6

    def test_sub_band_additivity(self):
        """Splitting the victim band in two preserves the total fraction."""
        mask = default_emission_mask()
        mid = 0.5 * (VICTIM_CHANNEL.f_low_hz + VICTIM_CHANNEL.f_high_hz)
        whole = aci_leakage_fraction(mask, AGGRESSOR_CHANNEL, VICTIM_CHANNEL)
        low = aci_leakage_fraction(
            mask, AGGRESSOR_CHANNEL, ChannelSpec(VICTIM_CHANNEL.f_low_hz, mid)
        )
        high = aci_leakage_fraction(
            mask, AGGRESSOR_CHANNEL, ChannelSpec(mid, VICTIM_CHANNEL.f_high_hz)
        )
        assert abs((low + high) - whole) < 1e-6

    def test_in_band_power_must_be_positive_and_finite(self):
        """An in-band level past the largest float integrates to inf, which
        would leave any finite leak a fraction of 0."""
        half = AGGRESSOR_CHANNEL.bandwidth_hz / 2.0
        mask = EmissionMask(((-3e9, 0.0), (-half, 4000.0), (half, 4000.0), (3e9, 0.0)))
        with pytest.raises(ValidationError, match="integrates to zero or overflows"):
            aci_leakage_fraction(mask, AGGRESSOR_CHANNEL, VICTIM_CHANNEL)

    def test_out_of_band_overflow_is_a_value(self):
        """A leaked PSD past the largest float is an infinite fraction, for
        the caller to reject, not an exception."""
        half = AGGRESSOR_CHANNEL.bandwidth_hz / 2.0
        mask = EmissionMask(((-3e9, -40.0), (-2e9, 4000.0), (-half, 0.0), (half, 0.0), (3e9, -40.0)))
        assert aci_leakage_fraction(mask, AGGRESSOR_CHANNEL, VICTIM_CHANNEL) == math.inf


def random_emission_mask(rng):
    """Random physically shaped mask: flat in band, monotone roll-off outside.

    Out-of-band PSD never exceeds the in-band reference, as for a real
    transmitter, so the leaked fraction stays in [0, 1].
    """
    half = AGGRESSOR_CHANNEL.bandwidth_hz / 2.0
    floor_low = float(rng.uniform(-60.0, -25.0))
    floor_high = float(rng.uniform(-60.0, -25.0))
    knee_low = float(rng.uniform(floor_low, -5.0))
    guard1 = float(rng.uniform(50e6, 400e6))
    guard2 = float(rng.uniform(100e6, 1000e6))
    guard3 = float(rng.uniform(50e6, 800e6))
    points = (
        (-half - 3e9, floor_low),
        (-half - guard1 - guard2, floor_low),
        (-half - guard1, knee_low),
        (-half, 0.0),
        (half, 0.0),
        (half + guard3, floor_high),
        (half + 3e9, floor_high),
    )
    return EmissionMask(points)


class TestDbToLinear:
    def test_overflow_is_inf_and_underflow_zero(self):
        assert db_to_linear(4000.0) == math.inf
        assert db_to_linear(-4000.0) == 0.0
        assert db_to_linear(math.inf) == math.inf
        assert db_to_linear(NO_LEAKAGE_DBW) == 0.0
        assert linear_to_db(0.0) == sum_power_dbw([]) == NO_LEAKAGE_DBW
        assert math.isnan(db_to_linear(math.nan))

    def test_finite_powers_keep_their_bits(self):
        """Below the overflow, the value is the power of ten it always was,
        up to the largest float itself."""
        largest = 10.0 * math.log10(sys.float_info.max)
        below = math.nextafter(largest, 0.0)
        for db in (-300.0, -43.0, 0.0, 0.1, 130.0, 3000.0, below):
            assert db_to_linear(db) == 10.0 ** (db / 10.0)
        assert db_to_linear(below) > 0.99999 * sys.float_info.max
        assert db_to_linear(largest) == math.inf


class TestAggregateLeakagePower:
    def test_single_device_identity(self):
        field = TransmitterField(count=1)
        assert math.isclose(aggregate_leakage_power(field, -20.0, 1.0), -20.0, rel_tol=1e-12)

    def test_ten_incoherent_sources_add_ten_db(self):
        field = TransmitterField(count=10)
        assert math.isclose(aggregate_leakage_power(field, -30.0, 1.0), -20.0, rel_tol=1e-12)

    def test_metropolitan_case_against_linear_sum_oracle(self):
        """250 devices at -43 dBW, 1% leaked, +5 dB gain: explicit watt-sum oracle."""
        watts = 0.0
        for _ in range(250):
            watts += 10.0 ** (-43.0 / 10.0)
        oracle = 10.0 * math.log10(watts * 0.01) + 5.0
        field = TransmitterField(count=250, elevation_gain_db=5.0)
        assert math.isclose(aggregate_leakage_power(field, -43.0, 0.01), oracle, rel_tol=1e-12)

    def test_zero_count_is_no_leakage(self):
        field = TransmitterField(count=0)
        assert aggregate_leakage_power(field, -43.0, 0.5) == NO_LEAKAGE_DBW

    def test_zero_fraction_is_no_leakage(self):
        field = TransmitterField(count=5)
        assert aggregate_leakage_power(field, -43.0, 0.0) == NO_LEAKAGE_DBW

    def test_no_leakage_flows_to_zero_watts(self):
        """``NO_LEAKAGE_DBW`` is 0.0 W by the arithmetic alone, a positive zero."""
        p_rx = received_power(NO_LEAKAGE_DBW, LinkBudget())
        assert p_rx == 0.0 and math.copysign(1.0, p_rx) == 1.0

    def test_overflowing_level_flows_to_infinite_watts(self):
        assert received_power(4000.0, LinkBudget()) == math.inf

    def test_partition_invariance(self):
        """Disjoint sub-fields summed in linear units equal the union."""
        union = TransmitterField(count=100)
        a = TransmitterField(count=37)
        b = TransmitterField(count=63)
        split = sum_power_dbw(
            [aggregate_leakage_power(a, -41.0, 0.37), aggregate_leakage_power(b, -41.0, 0.37)]
        )
        whole = aggregate_leakage_power(union, -41.0, 0.37)
        assert abs(10 ** (split / 10) - 10 ** (whole / 10)) < 1e-12 * 10 ** (whole / 10)

    def test_permutation_invariance(self):
        parts = [
            aggregate_leakage_power(TransmitterField(count=c), -40.0, 0.2)
            for c in (5, 17, 3)
        ]
        assert sum_power_dbw(parts) == sum_power_dbw(list(reversed(parts)))

    def test_fraction_out_of_range(self):
        with pytest.raises(ValidationError):
            aggregate_leakage_power(TransmitterField(), -43.0, 1.5)

    def test_negative_count_rejected(self):
        with pytest.raises(ValidationError):
            TransmitterField(count=-1)

    def test_count_past_the_largest_float_rejected(self):
        """One device's power is multiplied by the count as a float, which a
        larger integer cannot become; the largest float's own integer can."""
        with pytest.raises(ValidationError):
            TransmitterField(count=int(sys.float_info.max) + 1)
        field = TransmitterField(count=int(sys.float_info.max))
        assert aggregate_leakage_power(field, 0.0, 1.0) == 10.0 * math.log10(sys.float_info.max)


class TestReceivedPower:
    def test_reference_point_minus_20_dbw(self):
        """-20 dBW through 130 dB pathloss is 1e-15 W."""
        p = received_power(-20.0, LinkBudget())
        assert math.isclose(p, 1e-15, rel_tol=1e-12)

    def test_hand_arithmetic_minus_15(self):
        p = received_power(-15.0, LinkBudget())
        assert math.isclose(p, 10 ** (-14.5), rel_tol=1e-12)

    def test_full_absorption(self):
        link = LinkBudget(transmittance=0.0)
        assert received_power(-20.0, link) == 0.0


class TestLinkBudget:
    def test_invalid_values_rejected(self):
        with pytest.raises(ValidationError):
            LinkBudget(total_pathloss_db=0.0)
        for transmittance in (-0.1, 1.5):
            with pytest.raises(ValidationError):
                LinkBudget(transmittance=transmittance)


class TestNoiseTemperature:
    def test_reference_value_minus_20_dbw(self):
        """Frozen hand value: 1e-15 W over 270 MHz."""
        noise = induced_noise_temperature(1e-15, VICTIM_CHANNEL)
        assert math.isclose(noise, 0.2682581672607378, rel_tol=1e-12)
        assert abs(noise - 0.26826) / 0.26826 < 1e-5

    def test_reference_value_minus_15_dbw(self):
        noise = induced_noise_temperature(10 ** (-14.5), VICTIM_CHANNEL)
        assert math.isclose(noise, 0.8483068094863436, rel_tol=1e-12)
        assert abs(noise - 0.84831) / 0.84831 < 1e-5

    def test_zero_power(self):
        assert induced_noise_temperature(0.0, VICTIM_CHANNEL) == 0.0

    def test_negative_power_rejected(self):
        with pytest.raises(ValidationError):
            induced_noise_temperature(-1e-18, VICTIM_CHANNEL)

    def test_linearity(self):
        """Doubling power doubles temperature, across many magnitudes."""
        rng = np.random.default_rng(3)
        for _ in range(200):
            p = float(10.0 ** rng.uniform(-20, -12))
            t1 = induced_noise_temperature(p, VICTIM_CHANNEL)
            t2 = induced_noise_temperature(2 * p, VICTIM_CHANNEL)
            assert abs(t2 - 2 * t1) <= 1e-12 * abs(2 * t1)

    def test_decade_law(self):
        """+10 dB leakage multiplies the induced temperature by exactly ten."""
        link = LinkBudget()
        for level in np.arange(-55.0, -16.0, 1.0):
            t_lo = induced_noise_temperature(received_power(level, link), VICTIM_CHANNEL)
            t_hi = induced_noise_temperature(received_power(level + 10.0, link), VICTIM_CHANNEL)
            assert abs(t_hi / t_lo - 10.0) < 1e-9 * 10.0

    def test_kb_value(self):
        assert BOLTZMANN_J_PER_K == 1.380649e-23


class TestAntennaTemperature:
    def test_lossless_collapse(self):
        assert antenna_temperature(250.0, AntennaModel(1.0, 290.0)) == 250.0

    def test_fully_lossy_collapse(self):
        assert antenna_temperature(123.0, AntennaModel(0.0, 290.0)) == 290.0

    def test_hand_arithmetic(self):
        assert math.isclose(
            antenna_temperature(250.0, AntennaModel(0.9, 290.0)), 254.0, rel_tol=1e-12
        )

    def test_convex_bounds_random(self):
        rng = np.random.default_rng(17)
        for _ in range(500):
            eta = float(rng.uniform(0, 1))
            t_b = float(rng.uniform(100, 350))
            t_p = float(rng.uniform(250, 320))
            t_a = antenna_temperature(t_b, AntennaModel(eta, t_p))
            assert min(t_b, t_p) - 1e-9 <= t_a <= max(t_b, t_p) + 1e-9

    def test_invalid_values_rejected(self):
        for efficiency in (-0.1, 1.1):
            with pytest.raises(ValidationError):
                AntennaModel(efficiency, 290.0)
        with pytest.raises(ValidationError):
            AntennaModel(0.9, 0.0)
        with pytest.raises(ValidationError):
            antenna_temperature(-1.0, AntennaModel(0.9, 290.0))


class TestBrightnessPerturbation:
    def test_identity_at_unit_efficiency(self):
        noise = induced_noise_temperature(1e-15, VICTIM_CHANNEL)
        dtb = brightness_perturbation(noise, AntennaModel(1.0, 290.0))
        assert math.isclose(dtb, noise, rel_tol=1e-12)

    def test_zero_noise(self):
        noise = induced_noise_temperature(0.0, VICTIM_CHANNEL)
        assert brightness_perturbation(noise, AntennaModel()) == 0.0

    def test_hand_arithmetic(self):
        """0.84831 K noise through a 0.95-efficiency antenna."""
        noise = induced_noise_temperature(10 ** (-14.5), VICTIM_CHANNEL)
        dtb = brightness_perturbation(noise, AntennaModel(0.95, 290.0))
        assert abs(dtb - 0.89296) / 0.89296 < 1e-5

    def test_negative_noise_rejected(self):
        with pytest.raises(ValidationError):
            brightness_perturbation(-1e-3, AntennaModel())

    def test_zero_efficiency_rejected(self):
        noise = induced_noise_temperature(1e-15, VICTIM_CHANNEL)
        with pytest.raises(ValidationError):
            brightness_perturbation(noise, AntennaModel(0.0, 290.0))

    def test_round_trip(self):
        """Raising the scene by the perturbation restores the noise rise."""
        rng = np.random.default_rng(23)
        for _ in range(500):
            eta = float(rng.uniform(0.05, 1.0))
            t_b = float(rng.uniform(150, 320))
            t_p = float(rng.uniform(250, 320))
            antenna = AntennaModel(eta, t_p)
            noise = induced_noise_temperature(float(10 ** rng.uniform(-16, -14)), VICTIM_CHANNEL)
            dtb = brightness_perturbation(noise, antenna)
            recovered = antenna_temperature(t_b + dtb, antenna) - antenna_temperature(t_b, antenna)
            assert abs(recovered - noise) <= 1e-9 * noise
