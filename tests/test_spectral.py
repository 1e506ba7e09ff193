"""Tests for DFT machinery: bins, amplitudes, phases, harmonics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.spectral import (
    compute_spectra,
    compute_spectrum,
    diurnal_bin,
    diurnal_candidates,
    harmonic_bins,
)

ROUND = 660.0
DAY = 86400.0


def daily_series(n_days, amplitude=0.3, phase=0.0, mean=0.5):
    n = int(n_days * DAY / ROUND)
    t = np.arange(n) * ROUND
    return mean + amplitude * np.cos(2 * np.pi * t / DAY + phase)


class TestDiurnalBin:
    def test_14_day_series(self):
        n = int(14 * DAY / ROUND)
        assert diurnal_bin(n, ROUND) == 14

    def test_35_day_series(self):
        """Paper Figure 6: the A_12w diurnal peak appears at k = 35."""
        n = int(35 * DAY / ROUND)
        assert diurnal_bin(n, ROUND) == 35

    def test_candidates_include_next_bin(self):
        n = int(14 * DAY / ROUND)
        assert diurnal_candidates(n, ROUND) == (14, 15)

    def test_sub_day_observation_rejected(self):
        with pytest.raises(ValueError):
            diurnal_bin(4, ROUND)


class TestSpectrum:
    def test_peak_at_diurnal_bin(self):
        values = daily_series(14)
        spec = compute_spectrum(values, ROUND)
        assert spec.dominant_bin() in diurnal_candidates(spec.n_samples, ROUND)

    def test_cycles_per_day_of_diurnal_bin(self):
        values = daily_series(14)
        spec = compute_spectrum(values, ROUND)
        k = diurnal_bin(spec.n_samples, ROUND)
        assert spec.cycles_per_day(k) == pytest.approx(1.0, abs=0.01)

    def test_frequency_hz(self):
        values = daily_series(7)
        spec = compute_spectrum(values, ROUND)
        k = diurnal_bin(spec.n_samples, ROUND)
        assert spec.frequency_hz(k) == pytest.approx(1 / DAY, rel=0.01)

    def test_duration_days(self):
        spec = compute_spectrum(daily_series(14), ROUND)
        assert spec.duration_days() == pytest.approx(14, abs=0.01)

    def test_flat_series_has_flat_spectrum(self):
        spec = compute_spectrum(np.full(1000, 0.7), ROUND)
        assert spec.amplitudes[1:].max() == pytest.approx(0.0, abs=1e-9)

    def test_dc_component_is_mean_times_n(self):
        values = daily_series(7, mean=0.6)
        spec = compute_spectrum(values, ROUND)
        assert spec.amplitudes[0] == pytest.approx(0.6 * spec.n_samples, rel=0.01)

    def test_phase_recovers_cosine_phase(self):
        for true_phase in (-2.0, -0.5, 0.0, 1.0, 2.5):
            values = daily_series(14, phase=true_phase)
            spec = compute_spectrum(values, ROUND)
            k = diurnal_bin(spec.n_samples, ROUND)
            measured = spec.phase(k)
            delta = np.angle(np.exp(1j * (measured - true_phase)))
            assert abs(delta) < 0.05

    def test_nan_rejected(self):
        values = daily_series(7)
        values[5] = np.nan
        with pytest.raises(ValueError):
            compute_spectrum(values, ROUND)

    def test_2d_input_rejected(self):
        with pytest.raises(ValueError):
            compute_spectrum(np.ones((2, 100)), ROUND)

    def test_too_short_for_dominant(self):
        spec = compute_spectrum(np.ones(1), ROUND)
        with pytest.raises(ValueError):
            spec.dominant_bin()


class TestBatchSpectra:
    def test_matches_per_row_fft(self):
        matrix = np.vstack([daily_series(7, amplitude=a) for a in (0.1, 0.2, 0.3)])
        batch = compute_spectra(matrix, ROUND)
        for i in range(3):
            single = compute_spectrum(matrix[i], ROUND)
            assert np.allclose(batch.coefficients[i], single.coefficients)

    def test_1d_rejected(self):
        with pytest.raises(ValueError):
            compute_spectra(np.ones(10), ROUND)

    def test_nan_rejected(self):
        matrix = np.ones((2, 50))
        matrix[1, 3] = np.nan
        with pytest.raises(ValueError):
            compute_spectra(matrix, ROUND)


class TestHarmonics:
    def test_first_harmonic_near_2k(self):
        bins = harmonic_bins(14, n_bins=500, max_harmonic=2)
        assert 28 in bins
        assert 27 in bins  # tolerance below
        assert 30 in bins  # harmonic of k+1 = 2*15
        assert 14 not in bins  # fundamental excluded

    def test_bounded_by_n_bins(self):
        bins = harmonic_bins(14, n_bins=40)
        assert (bins < 40).all()

    def test_no_dc_or_negative(self):
        bins = harmonic_bins(2, n_bins=100)
        assert (bins >= 1).all()

    def test_square_wave_energy_lands_in_harmonics(self):
        """A hard on/off diurnal block has strong harmonic content; the
        harmonic bin set must capture it so strict classification can
        require the fundamental to dominate it."""
        n = int(14 * DAY / ROUND)
        t = np.arange(n) * ROUND
        values = ((t % DAY) < 8 * 3600).astype(float)
        spec = compute_spectrum(values, ROUND)
        harm = harmonic_bins(14, spec.n_bins)
        others = np.setdiff1d(
            np.arange(3, spec.n_bins), np.concatenate([harm, [14, 15]])
        )
        assert spec.amplitudes[harm].max() > spec.amplitudes[others].max()


@settings(max_examples=20, deadline=None)
@given(
    days=st.integers(min_value=2, max_value=35),
    amplitude=st.floats(min_value=0.05, max_value=0.5),
    phase=st.floats(min_value=-3.1, max_value=3.1),
)
def test_pure_daily_tone_always_lands_in_diurnal_candidates(days, amplitude, phase):
    values = daily_series(days, amplitude=amplitude, phase=phase)
    spec = compute_spectrum(values, ROUND)
    assert spec.dominant_bin() in diurnal_candidates(spec.n_samples, ROUND)


class TestBinValidation:
    """Satellite fix: phase()/frequency_hz() must refuse out-of-range bins."""

    def test_phase_rejects_negative_bin(self):
        spec = compute_spectrum(daily_series(7), ROUND)
        with pytest.raises(ValueError, match="out of range"):
            spec.phase(-1)

    def test_phase_rejects_past_end(self):
        spec = compute_spectrum(daily_series(7), ROUND)
        with pytest.raises(ValueError, match="out of range"):
            spec.phase(spec.n_bins)

    def test_frequency_hz_rejects_negative_bin(self):
        spec = compute_spectrum(daily_series(7), ROUND)
        with pytest.raises(ValueError, match="out of range"):
            spec.frequency_hz(-2)

    def test_frequency_hz_rejects_past_end(self):
        spec = compute_spectrum(daily_series(7), ROUND)
        with pytest.raises(ValueError, match="out of range"):
            spec.frequency_hz(spec.n_bins + 5)

    def test_boundary_bins_accepted(self):
        spec = compute_spectrum(daily_series(7), ROUND)
        spec.phase(0)
        spec.phase(spec.n_bins - 1)
        spec.frequency_hz(0)
        spec.frequency_hz(spec.n_bins - 1)

