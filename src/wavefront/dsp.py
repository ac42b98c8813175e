"""Shared signal primitives: windows, pre-emphasis, framing, power spectrum.

Everything here is a pure function of its inputs and safe to call from
multiple threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


@dataclass
class Waveform:
    """Mono audio samples (nominally in [-1, 1]) with their sample rate.

    n_signal is the number of leading samples that are the clip's own audio,
    before any zero padding; None means every sample is signal.
    """

    samples: np.ndarray
    sample_rate: int
    n_signal: int | None = None

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        if self.samples.ndim != 1 or self.samples.size == 0:
            raise ValueError("samples must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("samples contain NaN or Inf")
        n = self.samples.size
        if self.n_signal is not None and not 1 <= self.n_signal <= n:
            raise ValueError(f"n_signal must be in [1, {n}], got {self.n_signal}")

    def __len__(self) -> int:
        return self.samples.size

    @property
    def signal_len(self) -> int:
        """Sample count of the clip's own audio, padding excluded."""
        return self.samples.size if self.n_signal is None else self.n_signal


def hanning_window(n_taps: int) -> np.ndarray:
    """Symmetric Hann window taps; the degenerate 1-tap window is [1]."""
    if n_taps < 1:
        raise ValueError(f"n_taps must be >= 1, got {n_taps}")
    if n_taps == 1:
        return np.ones(1)
    i = np.arange(n_taps)
    return 0.5 * (1.0 - np.cos(2.0 * np.pi * i / (n_taps - 1)))


def squared_hanning_window(n_taps: int) -> np.ndarray:
    return hanning_window(n_taps) ** 2


def preemphasis(w: Waveform, coeff: float) -> Waveform:
    """First-order high-pass: out[t] = in[t] - coeff * in[t-1], out[0] = in[0].
    The signal sample count is carried over."""
    if not 0.0 <= coeff < 1.0:
        raise ValueError(f"pre-emphasis coefficient must be in [0, 1), got {coeff}")
    x = w.samples
    out = np.empty_like(x)
    out[0] = x[0]
    out[1:] = x[1:] - coeff * x[:-1]
    return Waveform(out, w.sample_rate, w.n_signal)


def last_nonzero(samples: np.ndarray) -> int:
    """Index of the last nonzero entry of a 1-D array, or -1 if there is
    none. Builds one boolean mask, not np.flatnonzero's index array."""
    i = samples.size - 1 - int(np.argmax((samples != 0)[::-1]))
    return i if samples[i] != 0 else -1


def frame_signal(w: Waveform, win_len: int, hop: int) -> np.ndarray:
    """Slice into full overlapping frames; trailing samples that do not fill
    a window are dropped. Returns an (n_frames, win_len) read-only strided
    view of the samples, which copies nothing."""
    if hop < 1:
        raise ValueError(f"hop must be >= 1, got {hop}")
    n = len(w)
    if win_len > n:
        raise ValueError(f"win_len {win_len} exceeds signal length {n}; pad first")
    return sliding_window_view(w.samples, win_len)[::hop]


def power_spectrum(frame: np.ndarray, n_fft: int) -> np.ndarray:
    """Squared-magnitude spectrum |DFT|^2 at bins 0 .. n_fft/2 (last axis).

    n_fft must be a power of two and at least the frame length; shorter
    frames are zero-padded.
    """
    frame = np.asarray(frame, dtype=np.float64)
    if n_fft < 1 or (n_fft & (n_fft - 1)) != 0:
        raise ValueError(f"transform size must be a power of two, got {n_fft}")
    if n_fft < frame.shape[-1]:
        raise ValueError(
            f"n_fft {n_fft} smaller than frame length {frame.shape[-1]}"
        )
    spec = np.fft.rfft(frame, n_fft)
    # Squared in place through the float view, whose even and odd columns
    # are the real and imaginary parts: one pass, no temporary beyond the
    # spectrum and the result.
    v = spec.view(np.float64)
    np.square(v, out=v)
    return np.add(v[..., 0::2], v[..., 1::2])
