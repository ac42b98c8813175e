"""Reference features and the two-step waveform preparation shared by the
tests."""

import numpy as np

from wavefront.dsp import Waveform
from wavefront.melfb import mel_energy_features


def log_mel_features(w, matrix, win_len: int, hop: int) -> np.ndarray:
    """log(1 + mel energy), the compression of the mel frontend: zero input
    gives exactly zero output."""
    return np.log1p(mel_energy_features(w, matrix, win_len, hop).values)


def pad_or_trim(w: Waveform, duration_s: float = 2.5) -> Waveform:
    """Zero-pad at the end or truncate the tail to an exact sample count.

    The result records how many leading samples are signal (n_signal); a
    trimmed or exact-length clip is all signal.
    """
    target = int(round(duration_s * w.sample_rate))
    n = len(w)
    if n == target:
        return w
    if n < target:
        samples = np.concatenate([w.samples, np.zeros(target - n)])
    else:
        samples = w.samples[:target].copy()
    n_signal = min(w.signal_len, target)
    return Waveform(samples, w.sample_rate, None if n_signal == target else n_signal)


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


def prepare_waveform(w: Waveform, duration_s: float, coeff: float) -> Waveform:
    """The two-step waveform preparation: padding or trimming, then
    pre-emphasis, each in its own pass."""
    return preemphasis(pad_or_trim(w, duration_s), coeff)
