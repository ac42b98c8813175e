"""Mel scale, filterbank construction, log-mel features, and normalization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import log_mel_features
from wavefront.dsp import Waveform, frame_signal, hanning_window, power_spectrum
from wavefront.melfb import (
    mean_variance_normalize,
    mel_energy_features,
    mel_filterbank_matrix,
    mel_scale,
    mel_scale_inv,
)

MATRIX = mel_filterbank_matrix()
WIN_LEN, HOP = 400, 160  # 25 ms windows every 10 ms at 16 kHz


def banded_product(spectra, m):
    """(n_filters, frames) energies of (frames, bins) spectra, each band of
    filters summed over its own bins, as mel_energy_features sums them."""
    energies = np.zeros((m.n_filters, len(spectra)))
    for a, b, lo, hi, block in m.bands:
        energies[a:b] = (spectra[:, lo:hi] @ block).T
    return energies


def tone(freq_hz, n=40000, sr=16000, amp=0.1):
    return Waveform(amp * np.sin(2 * np.pi * freq_hz * np.arange(n) / sr), sr)


class TestMelScale:
    def test_zero(self):
        assert mel_scale(0.0) == 0.0

    def test_700_hz(self):
        assert mel_scale(700.0) == pytest.approx(2595.0 * math.log10(2.0))

    def test_round_trip(self):
        assert mel_scale_inv(mel_scale(4000.0)) == pytest.approx(4000.0, abs=1e-9)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            mel_scale(-1.0)
        with pytest.raises(ValueError):
            mel_scale_inv(-1.0)

    @given(st.floats(0, 8000))
    @settings(max_examples=50)
    def test_round_trip_everywhere(self, f):
        assert mel_scale_inv(mel_scale(f)) == pytest.approx(f, abs=1e-8)


class TestMelFilterbankMatrix:
    def test_standard_layout(self):
        m = mel_filterbank_matrix(64, 512, 16000)
        assert m.weights.shape == (64, 257)
        assert np.all(np.diff(m.center_freqs_hz) > 0)
        assert np.all(m.weights >= 0)

    def test_rows_strictly_positive(self):
        m = mel_filterbank_matrix()
        assert np.all(m.weights.sum(axis=1) > 0)

    def test_peak_bins_match_recomputed_grid(self):
        m = mel_filterbank_matrix()
        # independent grid: equally spaced in mel between the band edges
        grid_mel = np.linspace(mel_scale(0.0), mel_scale(8000.0), 66)
        centers = mel_scale_inv(grid_mel[1:-1])
        bin_width = 16000 / 512
        peak_hz = np.argmax(m.weights, axis=1) * bin_width
        assert np.all(np.abs(peak_hz - centers) <= bin_width)

    def test_peak_bins_strictly_increasing(self):
        m = mel_filterbank_matrix()
        assert np.all(np.diff(np.argmax(m.weights, axis=1)) > 0)

    def test_single_support_interval_per_row(self):
        m = mel_filterbank_matrix()
        for row in m.weights:
            nz = np.flatnonzero(row > 0)
            assert np.array_equal(nz, np.arange(nz[0], nz[-1] + 1))

    @pytest.mark.parametrize("sample_rate", [8000, 22050, 44100])
    def test_grid_spans_zero_to_nyquist(self, sample_rate):
        m = mel_filterbank_matrix(64, 512, sample_rate)
        spacing = np.diff(mel_scale(m.center_freqs_hz)).mean()
        assert mel_scale(m.center_freqs_hz[0]) == pytest.approx(spacing)
        assert mel_scale(sample_rate / 2) - mel_scale(
            m.center_freqs_hz[-1]
        ) == pytest.approx(spacing)


class TestLogMelFeatures:
    def test_zero_waveform_is_exactly_zero(self):
        fm = log_mel_features(Waveform(np.zeros(40000), 16000), MATRIX, WIN_LEN, HOP)
        assert fm.shape == (64, 248)
        assert np.all(fm == 0.0)

    def test_output_shape(self):
        fm = log_mel_features(tone(440.0), MATRIX, WIN_LEN, HOP)
        assert fm.shape == (64, 248)

    def test_tone_hits_nearest_filter_every_frame(self):
        m = mel_filterbank_matrix()
        fm = log_mel_features(tone(2000.0), m, WIN_LEN, HOP)
        expected = int(np.argmin(np.abs(m.center_freqs_hz - 2000.0)))
        assert np.all(np.argmax(fm, axis=0) == expected)

    def test_too_short_waveform(self):
        with pytest.raises(ValueError):
            log_mel_features(Waveform(np.ones(100), 16000), MATRIX, WIN_LEN, HOP)

    def test_amplitude_scaling_is_monotone(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(40000) * 0.05
        small = log_mel_features(Waveform(x, 16000), MATRIX, WIN_LEN, HOP)
        large = log_mel_features(Waveform(3.0 * x, 16000), MATRIX, WIN_LEN, HOP)
        assert np.all(large >= small - 1e-12)

    @pytest.mark.parametrize(
        "n_filters,n_fft,sample_rate",
        [(64, 512, 16000), (40, 1024, 16000), (61, 512, 8000), (128, 256, 16000)],
    )
    def test_banded_product_matches_the_dense_one(self, n_filters, n_fft, sample_rate):
        # Each band of filters meets only its own bins; the sums agree with
        # the dense product up to their order. At 128 filters over 129 bins
        # some filters fall between bins: their rows are exact zeros.
        m = mel_filterbank_matrix(n_filters, n_fft, sample_rate)
        rng = np.random.default_rng(n_filters)
        w = Waveform(0.1 * rng.standard_normal(sample_rate), sample_rate)
        win_len = min(WIN_LEN, n_fft)
        frames = frame_signal(w, win_len, HOP) * hanning_window(win_len)
        dense = (power_spectrum(frames, n_fft) @ m.weights.T).T
        fm = mel_energy_features(w, m, win_len, HOP)
        assert fm.values == pytest.approx(dense, rel=1e-12, abs=0)
        empty = ~m.weights.any(axis=1)
        assert empty.any() == (n_filters == 128)
        assert np.all(fm.values[empty] == 0) and np.all(fm.values[~empty] > 0)

    def test_frame_longer_than_the_transform_is_refused(self):
        m = mel_filterbank_matrix(64, 256)
        with pytest.raises(ValueError, match="n_fft 256 smaller than frame length 400"):
            mel_energy_features(tone(440.0), m, WIN_LEN, HOP)

    def test_energy_features_are_nonnegative(self):
        fm = mel_energy_features(tone(1000.0), MATRIX, WIN_LEN, HOP)
        assert np.all(fm.values >= 0)

    @pytest.mark.parametrize("last", [399, 13999, 20159, 20160, 20161, 39999])
    def test_padded_clip_matches_every_frame_transformed(self, last):
        # Only frames 0 .. last // hop are transformed; the rest must be the
        # exact zeros that transforming them would give. The frames are the
        # banded product's rows, so the live ones' sums do not depend on how
        # many frames there are (from 2 on: one frame is a matrix-vector
        # product, summed in another order).
        m = mel_filterbank_matrix()
        x = np.zeros(40000)
        x[: last + 1] = 0.1 * np.random.default_rng(last).standard_normal(last + 1)
        w = Waveform(x, 16000)
        frames = frame_signal(w, WIN_LEN, HOP) * hanning_window(WIN_LEN)
        expected = banded_product(power_spectrum(frames, m.n_fft), m)
        fm = mel_energy_features(w, m, WIN_LEN, HOP)
        live = last // HOP + 1
        assert np.all(fm.values[:, live:] == 0) and np.all(expected[:, live:] == 0)
        assert fm.values.tobytes() == expected.tobytes()


class TestMeanVarianceNormalize:
    def test_simple_channel(self):
        out = mean_variance_normalize(np.array([[1.0, 2.0, 3.0]]), 3)[0]
        assert out.mean() == pytest.approx(0.0, abs=1e-12)
        assert out.std() == pytest.approx(1.0, abs=1e-12)

    def test_constant_channel_centered_only(self):
        out = mean_variance_normalize(np.array([[5.0, 5.0, 5.0]]), 3)
        assert out[0] == pytest.approx([0, 0, 0])

    def test_rejects_single_frame(self):
        with pytest.raises(ValueError, match="at least 2 frames"):
            mean_variance_normalize(np.ones((4, 1)), 2)

    def test_without_count_matches_all_frame_formula_bit_for_bit(self):
        # Statistics over the whole clip: a count of every frame.
        rng = np.random.default_rng(3)
        values = rng.standard_normal((5, 248)) * rng.uniform(0.5, 4.0, (5, 1))
        values[2] = 1.5
        mean = values.mean(axis=1, keepdims=True)
        std = values.std(axis=1, keepdims=True)
        want = (values - mean) / np.where(std < 1e-8, 1.0, std)
        out = mean_variance_normalize(values, 248)
        assert np.array_equal(out, want)

    def test_statistics_from_leading_frames(self):
        rng = np.random.default_rng(4)
        values = rng.standard_normal((6, 40)) + 3.0
        out = mean_variance_normalize(values, 25)
        lead = values[:, :25]
        want = (values - lead.mean(axis=1, keepdims=True)) / lead.std(
            axis=1, keepdims=True
        )
        np.testing.assert_allclose(out, want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("count", [0, 1, 41])
    def test_rejects_count_outside_the_frames(self, count):
        with pytest.raises(ValueError):
            mean_variance_normalize(np.ones((4, 40)), count)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30)
    def test_output_statistics(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.standard_normal((6, 40)) * rng.uniform(0.5, 4.0, (6, 1))
        out = mean_variance_normalize(values, 40)
        assert np.max(np.abs(out.mean(axis=1))) < 1e-10
        assert out.std(axis=1) == pytest.approx(np.ones(6), abs=1e-8)
