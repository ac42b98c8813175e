"""Fixed log-mel reference path: mel scale, triangular filterbank, features.

This path is never trained; it is the baseline the learnable frontend is
initialized to replicate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dsp import Waveform, frame_signal, hanning_window, last_nonzero, power_spectrum

# Filters per band of the filterbank product. At paper shapes bands of 8 and
# 16 cost alike and 32 twice as much (ROADMAP, Closed levers); 8 multiplies
# the fewest zero weights.
BAND = 8


@dataclass(frozen=True)
class MelFilterbankMatrix:
    weights: np.ndarray  # (n_filters, n_fft // 2 + 1), non-negative triangles
    center_freqs_hz: np.ndarray  # strictly increasing peak frequencies
    n_fft: int
    sample_rate: int
    # (first filter, end filter, first bin, end bin, weights) of each band of
    # BAND filters with a nonzero weight: the span of bins the band covers,
    # outside which its weights are zero, and a C-contiguous (bins, filters)
    # copy of its weights there.
    bands: tuple

    @property
    def n_filters(self) -> int:
        return self.weights.shape[0]


@dataclass
class FeatureMap:
    """A channels-by-frames block of features flowing between stages."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ValueError("feature map must be 2-D (channels, frames)")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("feature map contains NaN or Inf")


def mel_scale(f_hz):
    """Hz -> mel, 2595 * log10(1 + f / 700)."""
    f = np.asarray(f_hz, dtype=np.float64)
    if np.any(f < 0):
        raise ValueError("frequency must be non-negative")
    return 2595.0 * np.log10(1.0 + f / 700.0)


def mel_scale_inv(m):
    """mel -> Hz, exact inverse of mel_scale."""
    m = np.asarray(m, dtype=np.float64)
    if np.any(m < 0):
        raise ValueError("mel value must be non-negative")
    return 700.0 * (10.0 ** (m / 2595.0) - 1.0)


def mel_filterbank_matrix(
    n_filters: int = 64, n_fft: int = 512, sample_rate: int = 16000
) -> MelFilterbankMatrix:
    """Triangular filters with unit peak height, centers equally spaced in mel
    between 0 Hz and Nyquist.

    Filter n rises linearly from grid point n-1 to its center at grid point n
    and falls to grid point n+1, evaluated at FFT-bin frequencies.
    """
    grid_hz = mel_scale_inv(
        np.linspace(mel_scale(0.0), mel_scale(sample_rate / 2.0), n_filters + 2)
    )
    bin_freqs = np.arange(n_fft // 2 + 1) * (sample_rate / n_fft)
    weights = np.zeros((n_filters, n_fft // 2 + 1))
    for n in range(n_filters):
        lo, center, hi = grid_hz[n], grid_hz[n + 1], grid_hz[n + 2]
        rising = (bin_freqs - lo) / (center - lo)
        falling = (hi - bin_freqs) / (hi - center)
        weights[n] = np.clip(np.minimum(rising, falling), 0.0, None)
    bands = []
    for a in range(0, n_filters, BAND):
        b = min(a + BAND, n_filters)
        bins = np.flatnonzero(weights[a:b].any(axis=0))
        if bins.size:
            lo, hi = int(bins[0]), int(bins[-1]) + 1
            block = np.ascontiguousarray(weights[a:b, lo:hi].T)
            bands.append((a, b, lo, hi, block))
    return MelFilterbankMatrix(
        weights, grid_hz[1:-1].copy(), n_fft, sample_rate, tuple(bands)
    )


def mel_energy_features(
    w: Waveform, matrix: MelFilterbankMatrix, win_len: int, hop: int
) -> FeatureMap:
    """Hann-windowed power spectra of win_len-sample frames every hop
    samples, projected through the filterbank (whose n_fft sets the
    transform length), no compression. This is the input expected by energy
    normalization."""
    taps = hanning_window(win_len)
    # Frames that start past the last nonzero sample hold only zeros, and
    # so do their energies: only frames 0 .. last // hop are transformed.
    n_live = max(last_nonzero(w.samples), 0) // hop + 1
    live = Waveform(w.samples[: (n_live - 1) * hop + win_len], w.sample_rate)
    # frame_signal is a view of the samples. The windowed frames are written
    # into one zeroed buffer of full transform rows, the only frame matrix a
    # feature pass builds. Its row count is the view's: a last nonzero
    # sample in a tail too short for a frame leaves fewer than n_live.
    frames = frame_signal(live, win_len, hop)
    if win_len > matrix.n_fft:
        raise ValueError(f"n_fft {matrix.n_fft} smaller than frame length {win_len}")
    padded = np.zeros((len(frames), matrix.n_fft))
    np.multiply(frames, taps, out=padded[:, :win_len])
    spectra = power_spectrum(padded, matrix.n_fft)
    energies = np.zeros((matrix.n_filters, (len(w) - win_len) // hop + 1))
    # Each band of filters meets only the bins it covers. With the frames as
    # the product's rows, OpenBLAS sums an energy the same way however many
    # frames are transformed (2 or more); with the filters as rows it did not.
    for a, b, lo, hi, block in matrix.bands:
        np.matmul(spectra[:, lo:hi], block, out=energies[a:b, : len(spectra)].T)
    return FeatureMap(energies)


def mean_variance_normalize(values: np.ndarray, n_stat_frames: int) -> np.ndarray:
    """Per-channel standardization of (channels, frames) values, with each
    channel's mean and population std taken from its first n_stat_frames
    frames (the clip's own frames, say, before its zero padding) and applied
    to every frame. Channels with std below 1e-8 are centered only.
    n_stat_frames must be in [2, n_frames].
    """
    n_frames = values.shape[1]
    if n_frames < 2:
        raise ValueError("mean-variance normalization needs at least 2 frames")
    if not 2 <= n_stat_frames <= n_frames:
        raise ValueError(
            f"n_stat_frames must be in [2, {n_frames}], got {n_stat_frames}"
        )
    stats = values[:, :n_stat_frames]
    mean = stats.mean(axis=1, keepdims=True)
    std = stats.std(axis=1, keepdims=True)
    degenerate = std < 1e-8
    return (values - mean) / np.where(degenerate, 1.0, std)
