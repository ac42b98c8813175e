"""Correctness checks for the wavefront benchmark.

Each check compares a program output against a value computed here, apart
from the program (numpy's FFT and correlation, plain loops), or tests a
property the method must have. None imports wavefront. A failing check
raises CheckFailed with a one-line reason.
"""

from __future__ import annotations

import wave

import numpy as np


class CheckFailed(Exception):
    pass


def _compare(name: str, got, want, rtol: float) -> None:
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        raise CheckFailed(f"{name}: shape {got.shape}, expected {want.shape}")
    if not np.all(np.isfinite(got)):
        raise CheckFailed(f"{name}: non-finite values")
    scale = max(float(np.max(np.abs(want))), 1e-12)
    err = float(np.max(np.abs(got - want))) / scale
    if not err <= rtol:
        raise CheckFailed(f"{name}: max error {err:.3e} of scale, tolerance {rtol:.0e}")


# ---------------------------------------------------------------------------
# Independent input preparation


def read_pcm16(path) -> np.ndarray:
    with wave.open(str(path), "rb") as wf:
        raw = wf.readframes(wf.getnframes())
    return np.frombuffer(raw, dtype="<i2") / 32768.0


def prepared_samples(path, n_samples: int = 40000, coeff: float = 0.97) -> np.ndarray:
    """Zero-pad or cut to n_samples, then pre-emphasis y[t] = x[t] - c x[t-1]."""
    x = np.zeros(n_samples)
    pcm = read_pcm16(path)[:n_samples]
    x[: pcm.size] = pcm
    y = x.copy()
    y[1:] -= coeff * x[:-1]
    return y


def hann(n: int) -> np.ndarray:
    return np.array([0.5 - 0.5 * np.cos(2.0 * np.pi * i / (n - 1)) for i in range(n)])


# ---------------------------------------------------------------------------
# Oracles


def mel_triangles(n_filters, n_fft, sample_rate, f_min, f_max) -> np.ndarray:
    def to_mel(f):
        return 2595.0 * np.log10(1.0 + f / 700.0)

    mels = np.linspace(to_mel(f_min), to_mel(f_max), n_filters + 2)
    edges = 700.0 * (10.0 ** (mels / 2595.0) - 1.0)
    bins = np.arange(n_fft // 2 + 1) * sample_rate / n_fft
    out = np.zeros((n_filters, bins.size))
    for n in range(n_filters):
        lo, mid, hi = edges[n], edges[n + 1], edges[n + 2]
        for b, f in enumerate(bins):
            if lo < f <= mid:
                out[n, b] = (f - lo) / (mid - lo)
            elif mid < f < hi:
                out[n, b] = (hi - f) / (hi - mid)
    return out


def log_mel_oracle(samples, n_filters=64, win=400, hop=160, n_fft=512, sample_rate=16000):
    """log(1 + mel energy) from np.fft.rfft of Hann-windowed frames."""
    n_frames = (samples.size - win) // hop + 1
    frames = np.stack([samples[i * hop : i * hop + win] for i in range(n_frames)])
    spec = np.abs(np.fft.rfft(frames * hann(win), n_fft)) ** 2
    fb = mel_triangles(n_filters, n_fft, sample_rate, 0.0, sample_rate / 2.0)
    return np.log1p(fb @ spec.T)


def tdfb_oracle(samples, taps_re, taps_im, lowpass_width, hop) -> np.ndarray:
    """One channel: np.correlate against each tap row on the "same"-padded
    input, squared modulus, then a direct squared-Hann pooling sum."""
    k = taps_re.size
    pad_left = (k - 1) // 2
    xp = np.concatenate([np.zeros(pad_left), samples, np.zeros(k - 1 - pad_left)])
    energy = np.correlate(xp, taps_re, "valid") ** 2 + np.correlate(xp, taps_im, "valid") ** 2
    lp = hann(lowpass_width) ** 2
    lp /= lp.sum()
    n_frames = (samples.size - lowpass_width) // hop + 1
    return np.array(
        [np.dot(lp, energy[f * hop : f * hop + lowpass_width]) for f in range(n_frames)]
    )


def pcen_oracle(energy, alpha, delta, r, s, eps) -> np.ndarray:
    """Per-frame loop of M(t) = (1-s) M(t-1) + s E(t), M(0) = E(0), and
    (E / (eps + M)^alpha + delta)^|r| - delta^|r| with delta clamped at 0."""
    r = np.abs(r)
    delta = np.maximum(delta, 0.0)
    out = np.empty_like(energy)
    m = energy[:, 0].copy()
    for t in range(energy.shape[1]):
        if t > 0:
            m = (1.0 - s) * m + s * energy[:, t]
        out[:, t] = (energy[:, t] / (eps + m) ** alpha + delta) ** r - delta**r
    return out


def uar_by_counting(predictions, truths) -> float:
    recalls = []
    for label in sorted(set(truths)):
        hits = total = 0
        for p, t in zip(predictions, truths):
            if t == label:
                total += 1
                hits += p == t
        recalls.append(hits / total)
    return sum(recalls) / len(recalls)


# ---------------------------------------------------------------------------
# Checks


def check_log_mel(program_values, path) -> None:
    _compare("log-mel", program_values, log_mel_oracle(prepared_samples(path)), 1e-9)


def check_tdfb_channels(program_values, path, conv_taps, lowpass_width, hop, channels) -> None:
    samples = prepared_samples(path)
    for ch in channels:
        want = tdfb_oracle(samples, conv_taps[2 * ch], conv_taps[2 * ch + 1], lowpass_width, hop)
        _compare(f"tdfb channel {ch}", program_values[ch], want, 1e-9)


def check_pcen(program_out, energy, alpha, delta, r, s, eps) -> None:
    _compare("pcen", program_out, pcen_oracle(energy, alpha, delta, r, s, eps), 1e-9)


def check_uar(reported: float, predictions, truths) -> None:
    want = uar_by_counting(predictions, truths)
    if abs(reported - want) > 1e-12:
        raise CheckFailed(f"UAR: program {reported!r}, counted {want!r}")


def check_min_uar(value: float, floor: float) -> None:
    if not value >= floor:
        raise CheckFailed(f"test UAR {value:.4f} below {floor}")


def check_rounds_agree(rounds) -> None:
    """Every round of a run gave the same output (labels or log rows)."""
    first = rounds[0]
    for i, out in enumerate(rounds[1:], start=2):
        if list(out) != list(first):
            raise CheckFailed(f"round {i} differs from round 1")


def check_finite_tensors(label: str, tensors: dict) -> None:
    bad = sorted(k for k, v in tensors.items() if not np.all(np.isfinite(v)))
    if bad:
        raise CheckFailed(f"{label}: non-finite tensors {', '.join(bad)}")


def check_directional_gradient(loss_fn, grads: dict, tensors: dict, seed: int,
                               h: float = 1e-3, rtol: float = 1e-6) -> None:
    """Compare the analytic gradient's projection on a random unit direction v
    over all learnable tensors with the central difference
    D(h) = (L(x + h v) - L(x - h v)) / 2h, extrapolated as (4 D(h/2) - D(h)) / 3.

    The extrapolation cancels the h^2 term, so h can be large enough that
    round-off stays far below the tolerance even when the projection is
    small. Tensors are perturbed in place and restored bit-exactly."""
    if set(grads) != set(tensors):
        raise CheckFailed(f"gradient names {sorted(grads)} differ from tensors {sorted(tensors)}")
    rng = np.random.default_rng(seed)
    names = sorted(tensors)
    v = {k: rng.standard_normal(tensors[k].shape) for k in names}
    norm = np.sqrt(sum(float(np.sum(d * d)) for d in v.values()))
    analytic = sum(float(np.sum(grads[k] * v[k])) for k in names) / norm
    saved = {k: tensors[k].copy() for k in names}

    def central(step):
        values = []
        for sign in (1.0, -1.0):
            for k in names:
                tensors[k][...] = saved[k] + (sign * step / norm) * v[k]
            values.append(loss_fn())
        return (values[0] - values[1]) / (2.0 * step)

    try:
        coarse, fine = central(h), central(h / 2.0)
    finally:
        for k in names:
            tensors[k][...] = saved[k]
    numeric = (4.0 * fine - coarse) / 3.0
    err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)
    if not err <= rtol:
        raise CheckFailed(
            f"directional derivative: analytic {analytic:.6e}, "
            f"central difference {numeric:.6e} (relative error {err:.2e})"
        )
