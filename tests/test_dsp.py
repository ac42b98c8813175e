"""Window, pre-emphasis, framing, and power-spectrum primitives against direct
oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavefront.dsp import (
    Waveform,
    frame_signal,
    hanning_window,
    last_nonzero,
    power_spectrum,
    preemphasis,
    squared_hanning_window,
)


def naive_dft(x, n):
    """O(n^2) reference transform."""
    x = np.asarray(x, dtype=complex)
    if len(x) < n:
        x = np.concatenate([x, np.zeros(n - len(x), dtype=complex)])
    k = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(k, k) / n) @ x


class TestHanningWindow:
    def test_three_taps(self):
        assert hanning_window(3) == pytest.approx([0.0, 1.0, 0.0])

    def test_degenerate_single_tap(self):
        assert hanning_window(1) == pytest.approx([1.0])

    def test_five_taps(self):
        assert hanning_window(5) == pytest.approx([0.0, 0.5, 1.0, 0.5, 0.0])

    def test_rejects_zero_taps(self):
        with pytest.raises(ValueError):
            hanning_window(0)

    @pytest.mark.parametrize("n", [2, 5, 64, 401])
    def test_symmetric_and_bounded(self, n):
        taps = hanning_window(n)
        assert np.allclose(taps, taps[::-1])
        assert taps.min() >= 0.0 and taps.max() <= 1.0

    def test_squared_variant(self):
        n = 17
        assert squared_hanning_window(n) == pytest.approx(hanning_window(n) ** 2)


class TestPreemphasis:
    def test_constant_signal(self):
        out = preemphasis(Waveform([1.0, 1.0, 1.0], 16000), 0.97)
        assert out.samples == pytest.approx([1.0, 0.03, 0.03])

    def test_zero_coefficient_is_identity(self):
        w = Waveform([0.3, -0.2, 0.9], 16000)
        assert preemphasis(w, 0.0).samples == pytest.approx(w.samples)

    def test_impulse(self):
        out = preemphasis(Waveform([0.0, 1.0, 0.0], 16000), 0.97)
        assert out.samples == pytest.approx([0.0, 1.0, -0.97])

    def test_keeps_signal_count(self):
        w = Waveform([0.3, -0.2, 0.0, 0.0], 16000, n_signal=2)
        assert preemphasis(w, 0.97).n_signal == 2
        assert preemphasis(Waveform([0.3, -0.2], 16000), 0.97).n_signal is None

    @pytest.mark.parametrize("coeff", [-0.1, 1.0, 1.5])
    def test_rejects_bad_coefficient(self, coeff):
        with pytest.raises(ValueError):
            preemphasis(Waveform([1.0, 2.0], 16000), coeff)

    @given(
        st.lists(st.floats(-1, 1), min_size=2, max_size=50),
        st.lists(st.floats(-1, 1), min_size=2, max_size=50),
        st.floats(-2, 2),
        st.floats(-2, 2),
    )
    @settings(max_examples=50)
    def test_linearity(self, xs, ys, a, b):
        n = min(len(xs), len(ys))
        x = np.array(xs[:n])
        y = np.array(ys[:n])
        lhs = preemphasis(Waveform(a * x + b * y + 1.0, 16000), 0.9).samples
        # offset by a constant signal keeps Waveform non-degenerate; subtract
        # its response to isolate the linear part
        base = preemphasis(Waveform(np.ones(n), 16000), 0.9).samples
        rhs = (
            a * (preemphasis(Waveform(x + 1.0, 16000), 0.9).samples - base)
            + b * (preemphasis(Waveform(y + 1.0, 16000), 0.9).samples - base)
            + base
        )
        assert lhs == pytest.approx(rhs, abs=1e-12)


class TestFrameSignal:
    @pytest.mark.parametrize(
        "length,win,hop,expected",
        [(40000, 400, 160, 248), (400, 400, 160, 1), (560, 400, 160, 2)],
    )
    def test_frame_counts(self, length, win, hop, expected):
        w = Waveform(np.arange(length, dtype=float), 16000)
        frames = frame_signal(w, win, hop)
        assert frames.shape == (expected, win)

    def test_too_short_raises(self):
        with pytest.raises(ValueError):
            frame_signal(Waveform(np.ones(399), 16000), 400, 160)

    def test_frames_cover_expected_samples(self):
        x = np.arange(1000, dtype=float)
        frames = frame_signal(Waveform(x, 16000), 300, 100)
        for k, frame in enumerate(frames):
            assert frame == pytest.approx(x[100 * k : 100 * k + 300])

    @given(st.integers(1, 20), st.integers(1, 10), st.integers(0, 30))
    @settings(max_examples=50)
    def test_overlay_reconstructs_prefix(self, win, hop, extra):
        n = win + extra
        rng = np.random.default_rng(win * 1000 + hop * 10 + extra)
        x = rng.standard_normal(n)
        frames = frame_signal(Waveform(x, 16000), win, hop)
        rebuilt = np.full(n, np.nan)
        for k, frame in enumerate(frames):
            rebuilt[k * hop : k * hop + win] = frame
        covered = ~np.isnan(rebuilt)
        assert np.array_equal(rebuilt[covered], x[covered])


class TestPowerSpectrum:
    def test_impulse_is_flat(self):
        assert power_spectrum(np.array([1.0, 0, 0, 0]), 4) == pytest.approx(
            [1.0, 1.0, 1.0]
        )

    def test_dc_signal(self):
        assert power_spectrum(np.ones(4), 4) == pytest.approx([16.0, 0.0, 0.0])

    def test_matches_naive_dft(self):
        rng = np.random.default_rng(3)
        frame = rng.standard_normal(8)
        expected = np.abs(naive_dft(frame, 8)[:5]) ** 2
        assert power_spectrum(frame, 8) == pytest.approx(expected, abs=1e-10)

    def test_zero_padding_matches_naive_dft(self):
        rng = np.random.default_rng(4)
        frame = rng.standard_normal(5)
        expected = np.abs(naive_dft(frame, 16)[:9]) ** 2
        assert power_spectrum(frame, 16) == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("bad", [3, 6, 12, 0])
    def test_rejects_non_power_of_two(self, bad):
        with pytest.raises(ValueError):
            power_spectrum(np.ones(2), bad)

    def test_rejects_short_transform(self):
        with pytest.raises(ValueError):
            power_spectrum(np.ones(8), 4)

    @pytest.mark.parametrize("shape", [(400,), (7, 400)])
    def test_padded_buffer_matches_the_short_frame_bit_for_bit(self, shape):
        # A frame written into a zeroed transform-length buffer gives the
        # bytes of the short frame padded by rfft, squared part by part.
        frame = np.random.default_rng(6).standard_normal(shape)
        padded = np.zeros(shape[:-1] + (512,))
        padded[..., :400] = frame
        spec = np.fft.rfft(frame, 512)
        expected = spec.real * spec.real + spec.imag * spec.imag
        assert power_spectrum(padded, 512).tobytes() == expected.tobytes()

    @given(st.integers(0, 2**32 - 1), st.sampled_from([4, 8, 16, 64, 256]))
    @settings(max_examples=40)
    def test_parseval(self, seed, n):
        x = np.random.default_rng(seed).standard_normal(n)
        ps = power_spectrum(x, n)
        # interior bins represent a conjugate pair each
        total = ps[0] + ps[-1] + 2 * ps[1:-1].sum()
        assert total == pytest.approx(n * np.sum(x**2), rel=1e-9)


class TestLastNonzero:
    """Against the index array it replaces: np.flatnonzero(x)[-1]."""

    @staticmethod
    def oracle(x):
        nonzero = np.flatnonzero(x)
        return int(nonzero[-1]) if nonzero.size else -1

    @pytest.mark.parametrize("seed", range(8))
    def test_random_zero_tails(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(40000)
        x[rng.integers(1, 40000) :] = 0.0
        x[rng.random(40000) < 0.01] = 0.0  # zeros inside the signal too
        assert last_nonzero(x) == self.oracle(x)

    def test_all_zero(self):
        assert last_nonzero(np.zeros(40000)) == self.oracle(np.zeros(40000)) == -1

    @pytest.mark.parametrize("n", [1, 2, 40000])
    @pytest.mark.parametrize("at_end", [False, True])
    def test_single_nonzero_sample(self, n, at_end):
        x = np.zeros(n)
        x[n - 1 if at_end else 0] = -1e-300
        assert last_nonzero(x) == self.oracle(x) == (n - 1 if at_end else 0)


class TestFftKernel:
    """The transform behind power_spectrum (np.fft.rfft) against the naive
    O(n^2) DFT."""

    @pytest.mark.parametrize("n", [1, 2, 4, 32, 128, 512])
    def test_matches_naive_dft(self, n):
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n)
        expected = np.abs(naive_dft(x, n)[: n // 2 + 1]) ** 2
        assert power_spectrum(x, n) == pytest.approx(expected, rel=1e-9, abs=1e-9)

    def test_batched_rows_match_single_calls(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((5, 16))
        batched = power_spectrum(x, 16)
        for row_in, row_out in zip(x, batched):
            assert row_out == pytest.approx(power_spectrum(row_in, 16))
            assert row_out == pytest.approx(
                np.abs(naive_dft(row_in, 16)[:9]) ** 2, abs=1e-9
            )


class TestWaveform:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            Waveform(np.array([0.0, np.nan]), 16000)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Waveform(np.array([]), 16000)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            Waveform(np.ones(4), 0)

    @pytest.mark.parametrize("n_signal", [0, 5])
    def test_rejects_signal_count_outside_the_samples(self, n_signal):
        with pytest.raises(ValueError):
            Waveform(np.ones(4), 16000, n_signal=n_signal)
