"""Learnable filterbank: Gabor initialization, forward stack, gradients."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from oracles import log_mel_features, preemphasis
from wavefront import tdfb
from wavefront.dsp import Waveform
from wavefront.melfb import mel_filterbank_matrix
from wavefront.tdfb import (
    center_frequency_report,
    gabor_impulse_response,
    gabor_params_from_mel,
    init_tdfb_params,
    tdfb_backward,
    tdfb_forward,
)

SR = 16000
MATRIX = mel_filterbank_matrix()


@pytest.fixture(scope="module")
def params():
    return init_tdfb_params(MATRIX)


def toy_params(jitter_seed=None, n_filters=2, kernel_width=9):
    matrix = mel_filterbank_matrix(n_filters, 64, SR)
    p = init_tdfb_params(
        matrix, kernel_width=kernel_width, lowpass_width=16, lowpass_stride=4
    )
    if jitter_seed is not None:
        rng = np.random.default_rng(jitter_seed)
        p.conv_taps += 0.05 * rng.standard_normal(p.conv_taps.shape)
    return p


def oracle_energy(x, p, channels):
    """Pooled energy of the given channels from np.correlate with the real
    and imaginary taps and a direct squared-Hann pooling sum."""
    k = p.kernel_width
    pad_left = (k - 1) // 2
    xp = np.concatenate([np.zeros(pad_left), x, np.zeros(k - 1 - pad_left)])
    lp = np.hanning(p.lowpass_width) ** 2
    lp /= lp.sum()
    hop = p.lowpass_stride
    n_frames = (x.size - lp.size) // hop + 1
    rows = []
    for ch in channels:
        re = np.correlate(xp, p.conv_taps[2 * ch], "valid")
        im = np.correlate(xp, p.conv_taps[2 * ch + 1], "valid")
        energy = re**2 + im**2
        rows.append(
            [np.dot(lp, energy[f * hop : f * hop + lp.size]) for f in range(n_frames)]
        )
    return np.array(rows)


def assert_rel_close(actual, expected, rel):
    scale = np.abs(expected).max()
    assert np.abs(actual - expected).max() <= rel * scale


def assert_tap_gradient_matches_differences(p, x, probe, h=1e-5):
    """tdfb_backward's tap gradient of sum(probe * energies) against a
    central difference at every tap, to 1e-5 relative (floor 1e-8)."""
    _, cache = tdfb_forward(Waveform(x, SR), p)
    grad_taps = tdfb_backward(probe, cache)

    def loss():
        fm, _ = tdfb_forward(Waveform(x, SR), p)
        return float((fm.values * probe).sum())

    for idx in np.ndindex(p.conv_taps.shape):
        orig = p.conv_taps[idx]
        p.conv_taps[idx] = orig + h
        up = loss()
        p.conv_taps[idx] = orig - h
        down = loss()
        p.conv_taps[idx] = orig
        numeric = (up - down) / (2 * h)
        denom = max(abs(grad_taps[idx]), abs(numeric), 1e-8)
        assert abs(grad_taps[idx] - numeric) / denom < 1e-5


class TestGaborParams:
    def test_centers_match_mel_peaks(self):
        g = gabor_params_from_mel(MATRIX)
        bin_width = SR / 512
        peak_hz = np.argmax(MATRIX.weights, axis=1) * bin_width
        assert np.all(np.abs(g.center_freqs_hz - peak_hz) <= bin_width)

    def test_sigmas_positive(self):
        g = gabor_params_from_mel(MATRIX)
        assert np.all(g.sigmas_s > 0)

    def test_wider_triangles_give_smaller_sigma(self):
        # triangle widths grow with frequency, so sigma must fall
        g = gabor_params_from_mel(MATRIX)
        assert np.all(np.diff(g.sigmas_s) < 0)


class TestGaborImpulseResponse:
    def test_envelope_symmetric_about_center_tap(self):
        g = gabor_params_from_mel(MATRIX)
        taps = gabor_impulse_response(g, 40, 401, SR)
        mag = np.abs(taps)
        center = 200
        for k in range(1, 201):
            assert mag[center - k] == pytest.approx(mag[center + k], rel=1e-12)

    def test_even_width_symmetry_about_center_tap(self):
        g = gabor_params_from_mel(MATRIX)
        mag = np.abs(gabor_impulse_response(g, 40, 400, SR))
        center = 199
        for k in range(1, 200):
            assert mag[center - k] == pytest.approx(mag[center + k], rel=1e-12)

    def test_center_tap_is_real_positive(self):
        g = gabor_params_from_mel(MATRIX)
        for n in (0, 20, 63):
            taps = gabor_impulse_response(g, n, 400, SR)
            center = taps[199]
            assert center.imag == pytest.approx(0.0, abs=1e-15)
            assert center.real > 0

    def test_spectrum_peaks_at_center_frequency(self):
        g = gabor_params_from_mel(MATRIX)
        bin_width = SR / 512
        for n in (10, 32, 63):
            taps = gabor_impulse_response(g, n, 400, SR)
            mag = np.abs(np.fft.fft(taps, 512))[:257]
            peak_hz = np.argmax(mag) * bin_width
            assert abs(peak_hz - g.center_freqs_hz[n]) <= bin_width


class TestForward:
    def test_zero_waveform(self, params):
        fm, cache = tdfb_forward(Waveform(np.zeros(40000), SR), params)
        assert fm.values.shape == (64, 248)
        assert np.all(fm.values == 0.0)
        assert cache.spectra.shape[0] == 0  # no block holds signal
        grad_taps = tdfb_backward(np.ones_like(fm.values), cache)
        assert grad_taps.shape == params.conv_taps.shape
        assert np.all(grad_taps == 0)

    def test_output_shape(self, params):
        x = np.random.default_rng(0).standard_normal(40000) * 0.05
        fm, _ = tdfb_forward(Waveform(x, SR), params)
        assert fm.values.shape == (64, 248)

    def test_tone_argmax_matches_mel_reference(self, params):
        x = 0.1 * np.sin(2 * np.pi * 2000.0 * np.arange(40000) / SR)
        w = Waveform(x, SR)
        td, _ = tdfb_forward(w, params)
        mel = log_mel_features(w, MATRIX, 400, 160)
        assert np.array_equal(np.argmax(td.values, axis=0), np.argmax(mel, axis=0))

    def test_prelog_output_nonnegative(self):
        p = init_tdfb_params(MATRIX)
        x = np.random.default_rng(1).standard_normal(40000) * 0.1
        fm, _ = tdfb_forward(Waveform(x, SR), p)
        assert np.all(fm.values >= 0)

    def test_delay_by_one_hop_shifts_one_frame(self, params):
        rng = np.random.default_rng(2)
        x = np.zeros(40000)
        x[: 40000 - 160] = 0.1 * rng.standard_normal(40000 - 160)
        delayed = np.roll(x, 160)
        a, _ = tdfb_forward(Waveform(x, SR), params)
        b, _ = tdfb_forward(Waveform(delayed, SR), params)
        # interior frames, clear of the zero-padding at both ends
        assert a.values[:, 2:244] == pytest.approx(
            b.values[:, 3:245], abs=1e-9
        )

    def test_amplitude_scaling_squares(self):
        p = init_tdfb_params(MATRIX)
        x = np.random.default_rng(3).standard_normal(40000) * 0.05
        base, _ = tdfb_forward(Waveform(x, SR), p)
        scaled, _ = tdfb_forward(Waveform(2.0 * x, SR), p)
        assert scaled.values == pytest.approx(4.0 * base.values, rel=1e-9)

    def test_too_short_waveform(self, params):
        with pytest.raises(ValueError):
            tdfb_forward(Waveform(np.ones(100), SR), params)

    def test_matches_correlate_oracle_at_paper_shapes(self):
        p = init_tdfb_params(MATRIX)
        rng = np.random.default_rng(4)
        p.conv_taps += 0.01 * rng.standard_normal(p.conv_taps.shape)
        x = 0.1 * rng.standard_normal(40000)
        fm, _ = tdfb_forward(Waveform(x, SR), p)
        channels = (0, 7, 8, 21, 42, 63)  # first, last and neighbouring filters
        expected = oracle_energy(x, p, channels)
        for row, ch in enumerate(channels):
            assert_rel_close(fm.values[ch], expected[row], 1e-12)

    def test_kernel_wider_than_half_block(self):
        # 2100 taps leave a 4096-point block too little room, so it grows to
        # 8192; 20 000 samples then span four blocks.
        p = toy_params(jitter_seed=18, n_filters=3, kernel_width=2100)
        x = np.random.default_rng(19).standard_normal(20000)
        fm, cache = tdfb_forward(Waveform(x, SR), p)
        assert cache.spectra.shape == (4, 8192)
        expected = oracle_energy(x, p, range(3))
        for ch in range(3):
            assert_rel_close(fm.values[ch], expected[ch], 1e-12)

    @pytest.mark.parametrize(
        "params_of",
        [
            lambda: init_tdfb_params(MATRIX),
            lambda: toy_params(jitter_seed=20, kernel_width=5),
            lambda: toy_params(jitter_seed=21, n_filters=3, kernel_width=2100),
        ],
        ids=["paper", "5-taps", "2100-taps"],
    )
    def test_taps_spectrum_is_the_conjugated_transform_of_conjugate_taps(
        self, params_of
    ):
        # The correlation spectrum conj(DFT(conj taps)) from one inverse
        # transform; 2100 taps take a 8192-point block. The bytes agree but
        # for the sign of some zero parts (169 of the Gabor taps' 524 288 at
        # paper shapes), and the tap gradient built on either is the same.
        p = params_of()
        rng = np.random.default_rng(22)
        x = rng.standard_normal(20000)
        fm, cache = tdfb_forward(Waveform(x, SR), p)
        block = cache.spectra.shape[1]
        taps = p.conv_taps[0::2] + 1j * p.conv_taps[1::2]
        expected = np.conj(np.fft.fft(np.conj(taps), block))
        assert (cache.taps_spec + 0.0).tobytes() == (expected + 0.0).tobytes()
        g = rng.standard_normal(fm.values.shape)
        old = dataclasses.replace(cache, taps_spec=expected)
        assert tdfb_backward(g, cache).tobytes() == tdfb_backward(g, old).tobytes()


class TestBackward:
    def test_finite_differences_on_toy_instance(self):
        p = toy_params(jitter_seed=11)
        rng = np.random.default_rng(12)
        samples = rng.standard_normal(64)
        n_frames = (64 - p.lowpass_width) // p.lowpass_stride + 1
        probe = rng.standard_normal((2, n_frames))
        assert_tap_gradient_matches_differences(p, samples, probe)

    def test_finite_differences_across_blocks(self):
        # 10 filters, each transformed in turn in the one reused buffer; the
        # waveform spans four overlap-save blocks, the last one partial.
        p = toy_params(jitter_seed=22, n_filters=10)
        k = p.kernel_width
        step = tdfb.BLOCK - k + 1
        n = 3 * step + 123
        rng = np.random.default_rng(23)
        samples = rng.standard_normal(n)
        n_frames = (n - p.lowpass_width) // p.lowpass_stride + 1
        probe = rng.standard_normal((10, n_frames))
        _, cache = tdfb_forward(Waveform(samples, SR), p)
        assert cache.spectra.shape[0] == 4
        assert_tap_gradient_matches_differences(p, samples, probe)

    def test_wide_kernel_directional_gradients(self):
        p = toy_params(jitter_seed=20, n_filters=3, kernel_width=2100)
        rng = np.random.default_rng(21)
        x = rng.standard_normal(13000)
        fm, cache = tdfb_forward(Waveform(x, SR), p)
        probe = rng.standard_normal(fm.values.shape)
        grad_taps = tdfb_backward(probe, cache)
        base = p.conv_taps.copy()
        v = rng.standard_normal(base.shape)
        h = 1e-6

        def loss(t):
            p.conv_taps[...] = base + t * v
            fm, _ = tdfb_forward(Waveform(x, SR), p)
            return float((fm.values * probe).sum())

        numeric = (loss(h) - loss(-h)) / (2 * h)
        assert np.sum(grad_taps * v) == pytest.approx(numeric, rel=1e-6)

    def test_gradient_is_of_the_taps_the_forward_saw(self):
        p = toy_params(jitter_seed=24, n_filters=10)
        rng = np.random.default_rng(25)
        x = rng.standard_normal(5000)
        fm, cache = tdfb_forward(Waveform(x, SR), p)
        probe = rng.standard_normal(fm.values.shape)
        expected = tdfb_backward(probe, cache)
        p.conv_taps += 0.1 * rng.standard_normal(p.conv_taps.shape)
        assert tdfb_backward(probe, cache).tobytes() == expected.tobytes()

    def test_zero_upstream_gradient(self):
        p = toy_params(jitter_seed=13)
        x = np.random.default_rng(14).standard_normal(64)
        fm, cache = tdfb_forward(Waveform(x, SR), p)
        grad_taps = tdfb_backward(np.zeros_like(fm.values), cache)
        assert np.all(grad_taps == 0)

    def test_masked_channel_gets_zero_gradient(self):
        p = toy_params(jitter_seed=15)
        x = np.random.default_rng(16).standard_normal(64)
        fm, cache = tdfb_forward(Waveform(x, SR), p)
        grad = np.ones_like(fm.values)
        grad[1] = 0.0  # loss ignores channel 1 entirely
        grad_taps = tdfb_backward(grad, cache)
        assert np.all(grad_taps[2] == 0) and np.all(grad_taps[3] == 0)
        assert np.any(grad_taps[0] != 0)

    def test_shape_mismatch_raises(self):
        p = toy_params()
        x = np.random.default_rng(17).standard_normal(64)
        _, cache = tdfb_forward(Waveform(x, SR), p)
        with pytest.raises(ValueError):
            tdfb_backward(np.zeros((2, 99)), cache)


def padded_clip(seconds, clip_seconds, seed):
    """A noise clip of `seconds`, zero-padded to `clip_seconds` and
    pre-emphasised, as net.prepare_waveform makes it."""
    n = round(seconds * SR)
    x = np.zeros(round(clip_seconds * SR))
    x[:n] = 0.1 * np.random.default_rng(seed).standard_normal(n)
    return preemphasis(Waveform(x, SR, n), 0.97)


class TestLiveBlocks:
    """Only overlap-save blocks that hold signal are transformed."""

    def test_padded_clip_matches_correlate_oracle_on_every_frame(self):
        p = init_tdfb_params(MATRIX)
        rng = np.random.default_rng(30)
        p.conv_taps += 0.01 * rng.standard_normal(p.conv_taps.shape)
        w = padded_clip(1.3, 2.5, seed=31)
        fm, cache = tdfb_forward(w, p)
        step = tdfb.BLOCK - p.kernel_width + 1
        assert cache.spectra.shape[0] < -(-w.samples.size // step)  # blocks skipped
        channels = (0, 7, 8, 42, 63)
        expected = oracle_energy(w.samples, p, channels)
        for row, ch in enumerate(channels):
            assert_rel_close(fm.values[ch], expected[row], 1e-12)
        # frames wholly inside the padding are exact zeros in both
        tail = expected[:, -50:]
        assert np.all(tail == 0) and np.all(fm.values[list(channels), -50:] == 0)

    def test_finite_differences_at_the_last_live_seam(self):
        # The signal ends inside block 1 of four, so two blocks are live and
        # the tap gradient must come from those two alone.
        p = toy_params(jitter_seed=32, n_filters=3)
        k = p.kernel_width
        pad_left = (k - 1) // 2
        step = tdfb.BLOCK - k + 1
        n = 3 * step + 50
        last = 2 * step - pad_left - 6  # last nonzero sample
        x = np.zeros(n)
        rng = np.random.default_rng(33)
        x[: last + 1] = rng.standard_normal(last + 1)
        n_frames = (n - p.lowpass_width) // p.lowpass_stride + 1
        probe = rng.standard_normal((3, n_frames))
        _, cache = tdfb_forward(Waveform(x, SR), p)
        assert cache.spectra.shape[0] == 2
        assert_tap_gradient_matches_differences(p, x, probe)

    @pytest.mark.parametrize("offset, live", [(-1, 2), (0, 3), (1, 3)])
    def test_live_block_count_at_a_block_boundary(self, offset, live):
        p = toy_params(jitter_seed=34)
        k = p.kernel_width
        pad_left = (k - 1) // 2
        step = tdfb.BLOCK - k + 1
        x = np.zeros(4 * step + 7)
        # offset 0 puts the last nonzero sample at the first input of block 2
        last = 2 * step - pad_left + offset
        x[: last + 1] = np.random.default_rng(35).standard_normal(last + 1)
        fm, cache = tdfb_forward(Waveform(x, SR), p)
        assert cache.spectra.shape[0] == live < -(-x.size // step)
        expected = oracle_energy(x, p, range(2))
        for ch in range(2):
            assert_rel_close(fm.values[ch], expected[ch], 1e-12)
        # frames past the live blocks read no signal: exact zeros in both
        tail = -(-live * step // p.lowpass_stride)
        assert np.all(expected[:, tail:] == 0) and np.all(fm.values[:, tail:] == 0)

    def test_longer_padding_leaves_shared_frames_bit_identical(self, params):
        short, _ = tdfb_forward(padded_clip(1.7, 2.5, seed=36), params)
        long, _ = tdfb_forward(padded_clip(1.7, 3.0, seed=36), params)
        assert short.values.shape == (64, 248) and long.values.shape == (64, 298)
        assert np.array_equal(short.values, long.values[:, :248])


class TestCacheMemory:
    def test_paper_clip_cache_under_8_mb(self, params):
        # The spectra of the input blocks and the taps, about 5 MB; the
        # convolution output of 64 filters alone would be 41.6 MB.
        x = np.random.default_rng(24).standard_normal(40000) * 0.05
        _, cache = tdfb_forward(Waveform(x, SR), params)
        held = sum(
            v.nbytes for v in vars(cache).values() if isinstance(v, np.ndarray)
        )
        assert held < 8e6

    def test_paper_clip_working_memory(self, params):
        # What the passes allocate beyond their results: the forward's one
        # filter-sized transform buffer and energy row, the backward's
        # buffer, conjugate spectra and gradient. Transforming 8 filters at
        # a time took 9.2 and 13 MB.
        x = np.random.default_rng(25).standard_normal(40000) * 0.05
        w = Waveform(x, SR)
        fm, cache = tdfb_forward(w, params)
        probe = np.ones_like(fm.values)
        tdfb_backward(probe, cache)  # warm np.fft's plan cache first
        del fm, cache
        tracemalloc.start()
        try:
            fm, cache = tdfb_forward(w, params)
            returned, peak = tracemalloc.get_traced_memory()
            assert peak - returned < 6e6
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            tdfb_backward(probe, cache)
            assert tracemalloc.get_traced_memory()[1] - held < 4e6
        finally:
            tracemalloc.stop()


class TestCenterFrequencyReport:
    def test_row_count(self, params):
        assert len(center_frequency_report(params)) == 64

    def test_initial_centers_within_one_bin(self, params):
        bin_width = SR / 512
        for _, learned_hz, init_hz in center_frequency_report(params):
            assert abs(learned_hz - init_hz) <= bin_width
