"""Tests for the flux-tunable transmon model."""


import pytest
from hypothesis import given, strategies as st

from repro.devices import Transmon, TransmonParams


@pytest.fixture()
def transmon() -> Transmon:
    return Transmon(TransmonParams(omega_max=7.0, asymmetry=0.5), index=3)


class TestParamsValidation:
    def test_negative_omega_rejected(self):
        with pytest.raises(ValueError):
            TransmonParams(omega_max=-1.0)

    def test_positive_anharmonicity_rejected(self):
        with pytest.raises(ValueError):
            TransmonParams(anharmonicity=0.2)

    def test_asymmetry_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            TransmonParams(asymmetry=1.5)

    def test_nonpositive_coherence_rejected(self):
        with pytest.raises(ValueError):
            TransmonParams(t1_ns=0.0)

    def test_omega_min_formula(self):
        params = TransmonParams(omega_max=6.0, asymmetry=0.25, anharmonicity=-0.2)
        assert params.omega_min == pytest.approx((6.0 + 0.2) * 0.5 - 0.2)


class TestFluxCurve:
    def test_upper_sweet_spot_at_zero_flux(self, transmon):
        assert transmon.frequency_01(0.0) == pytest.approx(transmon.params.omega_max)

    def test_lower_sweet_spot_at_half_flux(self, transmon):
        low = transmon.frequency_01(0.5)
        assert low == pytest.approx(transmon.params.omega_min, abs=1e-9)

    def test_frequency_decreases_with_flux(self, transmon):
        freqs = [transmon.frequency_01(phi) for phi in (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)]
        assert all(a > b for a, b in zip(freqs, freqs[1:]))

    def test_omega12_below_omega01(self, transmon):
        assert transmon.frequency_12(0.2) < transmon.frequency_01(0.2)
        assert transmon.frequency_12(0.2) == pytest.approx(
            transmon.frequency_01(0.2) + transmon.params.anharmonicity
        )

    def test_omega02_is_sum_of_transitions(self, transmon):
        assert transmon.frequency_02(0.1) == pytest.approx(
            transmon.frequency_01(0.1) + transmon.frequency_12(0.1)
        )

    @given(flux=st.floats(min_value=0.0, max_value=0.5))
    def test_frequency_stays_within_tunable_range(self, flux):
        transmon = Transmon(TransmonParams(omega_max=7.0, asymmetry=0.5))
        low, high = transmon.tunable_range
        assert low - 1e-6 <= transmon.frequency_01(flux) <= high + 1e-6

    @given(omega=st.floats(min_value=0.0, max_value=1.0))
    def test_flux_inversion_round_trips(self, omega):
        transmon = Transmon(TransmonParams(omega_max=7.0, asymmetry=0.5))
        low, high = transmon.tunable_range
        target = low + omega * (high - low)
        flux = transmon.flux_for_frequency(target)
        assert transmon.frequency_01(flux) == pytest.approx(target, abs=1e-6)

    def test_out_of_range_frequency_raises(self, transmon):
        with pytest.raises(ValueError):
            transmon.flux_for_frequency(transmon.params.omega_max + 1.0)


class TestOperatingPoints:
    def test_sweet_spots_match_tunable_range(self, transmon):
        assert transmon.sweet_spots == transmon.tunable_range

    def test_sensitivity_is_zero_at_sweet_spots(self, transmon):
        assert transmon.flux_sensitivity(0.0) == pytest.approx(0.0, abs=0.05)
        assert transmon.flux_sensitivity(0.5) == pytest.approx(0.0, abs=0.05)

    def test_sensitivity_positive_between_sweet_spots(self, transmon):
        assert transmon.flux_sensitivity(0.25) > 0.5

    def test_contains_frequency(self, transmon):
        low, high = transmon.tunable_range
        assert transmon.contains_frequency((low + high) / 2)
        assert not transmon.contains_frequency(high + 0.5)
