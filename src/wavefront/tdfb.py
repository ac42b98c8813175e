"""Learnable time-domain filterbank.

Layer stack: complex 1-D convolution (1 -> 2N channels, stride 1, "same"
zero padding), modulus and square fused as real^2 + imag^2 (2N -> N), fixed
squared-Hann lowpass convolution with decimation (valid, stride = hop). The
output is pre-compression energy; the log or PCEN that follows is the
frontend's compression stage (net.frontend_forward). The first
convolution's taps are initialized as Gabor wavelets matching the mel
triangles and carry analytic gradients; the lowpass never receives
gradient.

The convolution and its tap gradient run by overlap-save on np.fft, with
each filter's real and imaginary taps as one complex sequence and one
filter per transform, in one buffer reused by every filter and small
enough to stay in cache. No gradient flows to the waveform: nothing
upstream of it learns. Only blocks holding signal are transformed: a clip
zero-padded to a fixed length ends in blocks whose correlation is exactly
zero, so the forward pass and the gradient stop at the block that holds
the last nonzero sample. The convolution output is not kept: the cache
holds the spectra of the live input blocks and of the taps, and the
backward pass rebuilds each filter's convolution from them with one
inverse transform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .dsp import Waveform, last_nonzero, squared_hanning_window
from .errors import NumericError
from .melfb import (
    FeatureMap,
    MelFilterbankMatrix,
    mel_filterbank_matrix,
    mel_scale,
    mel_scale_inv,
)

BLOCK = 4096  # overlap-save block length; grows for kernels over BLOCK / 2 taps


@dataclass(frozen=True)
class GaborParams:
    center_freqs_hz: np.ndarray  # strictly increasing, in (0, Nyquist)
    sigmas_s: np.ndarray  # time-domain Gaussian widths in seconds, > 0


@dataclass
class TdfbParams:
    conv_taps: np.ndarray  # (2 * n_filters, kernel_width); rows 2n real, 2n+1 imag
    lowpass_taps: np.ndarray  # fixed L1-normalized squared Hann, never trained
    lowpass_stride: int
    sample_rate: int

    @property
    def n_filters(self) -> int:
        return self.conv_taps.shape[0] // 2

    @property
    def kernel_width(self) -> int:
        return self.conv_taps.shape[1]

    @property
    def lowpass_width(self) -> int:
        return self.lowpass_taps.shape[0]


@dataclass
class TdfbCache:
    """Forward intermediates retained for the backward pass: the spectra
    that the convolution is rebuilt from, not the convolution itself, so
    the cache stays a few MB at paper shapes."""

    params: TdfbParams
    n_samples: int  # input length; conv past it is never read
    spectra: np.ndarray  # (n_live, block): DFT of each input block holding signal
    # (n_filters, block): correlation spectrum of the taps the forward used,
    # so the gradient is that of the forward's output even if the taps change
    taps_spec: np.ndarray
    pooled: np.ndarray  # (n_filters, n_frames), the output energies


def gabor_params_from_mel(melfb: MelFilterbankMatrix) -> GaborParams:
    """Centers come from the mel peaks; each Gaussian's frequency-response
    FWHM is matched to the triangle's half-height width:
    sigma = sqrt(2 ln 2) / (pi * width_hz)."""
    centers = melfb.center_freqs_hz
    if centers.size < 2:
        raise ValueError("need at least 2 filters to recover the mel grid")
    mels = mel_scale(centers)
    spacing = mels[1] - mels[0]  # grid is uniform in mel by construction
    lower = mel_scale_inv(np.maximum(mels - spacing, 0.0))
    upper = mel_scale_inv(mels + spacing)
    fwhm_hz = (upper - lower) / 2.0
    if np.any(fwhm_hz <= 0):
        raise ValueError("degenerate mel triangle with zero width")
    sigmas = np.sqrt(2.0 * np.log(2.0)) / (np.pi * fwhm_hz)
    return GaborParams(centers.copy(), sigmas)


def gabor_impulse_response(
    p: GaborParams, n: int, width: int, sample_rate: int
) -> np.ndarray:
    """Complex taps of filter n on a centered integer grid (t = 0 at index
    (width - 1) // 2); Gaussian envelope carries unit L1 mass."""
    t = np.arange(width, dtype=np.float64) - (width - 1) // 2
    sigma = p.sigmas_s[n] * sample_rate  # width in samples
    envelope = np.exp(-0.5 * (t / sigma) ** 2) / (np.sqrt(2.0 * np.pi) * sigma)
    carrier = np.exp(2j * np.pi * p.center_freqs_hz[n] * t / sample_rate)
    return envelope * carrier


def init_tdfb_params(
    melfb: MelFilterbankMatrix,
    kernel_width: int = 400,
    lowpass_width: int = 400,
    lowpass_stride: int = 160,
) -> TdfbParams:
    gabor = gabor_params_from_mel(melfb)
    n = melfb.n_filters
    lp_raw = squared_hanning_window(lowpass_width)
    # Amplitude match to the reference path: the mel energies sum raw |DFT|^2
    # bins while this path averages |conv|^2 through the unit-sum lowpass, a
    # gap of n_fft * sum(hann^2) / (2 pi) at initialization. Folding its
    # square root into the taps puts both paths on one scale, so the shared
    # log compression and the downstream classifier see comparable inputs.
    amplitude = np.sqrt(melfb.n_fft * lp_raw.sum() / (2.0 * np.pi))
    taps = np.empty((2 * n, kernel_width))
    for i in range(n):
        g = amplitude * gabor_impulse_response(
            gabor, i, kernel_width, melfb.sample_rate
        )
        taps[2 * i] = g.real
        taps[2 * i + 1] = g.imag
    lp = lp_raw / lp_raw.sum()  # constant input maps to the same constant
    return TdfbParams(
        conv_taps=taps,
        lowpass_taps=lp,
        lowpass_stride=lowpass_stride,
        sample_rate=melfb.sample_rate,
    )


def _lowpass_slots(taps: np.ndarray, hop: int) -> np.ndarray:
    """Row r holds taps[r*hop : (r+1)*hop], zero-padded. Cut into hop-wide
    slots, frame f's tap r*hop + s reads slot f + r at offset s."""
    return np.pad(taps, (0, -taps.size % hop)).reshape(-1, hop)


def _lowpass(energy: np.ndarray, slots: np.ndarray, n_frames: int) -> np.ndarray:
    """out[f] = sum_i taps[i] energy[f*hop + i] for energy of whole slots,
    zero past the signal: one product with the slot rows, then a shifted
    sum over r."""
    proj = energy.reshape(-1, slots.shape[1]) @ slots.T
    return sum(proj[r : r + n_frames, r] for r in range(slots.shape[0]))


def _lowpass_adjoint(g: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """Transpose of _lowpass: frame f spreads g[f] * taps over slots
    f .. f + len(slots) - 1."""
    n_frames = g.size
    shifted = np.zeros((n_frames + slots.shape[0], slots.shape[0]))
    for r in range(slots.shape[0]):
        shifted[r : r + n_frames, r] = g
    return (shifted @ slots).reshape(-1)


def _complex_taps(p: TdfbParams) -> np.ndarray:
    return p.conv_taps[0::2] + 1j * p.conv_taps[1::2]


def tdfb_forward(w: Waveform, p: TdfbParams) -> tuple[FeatureMap, TdfbCache]:
    """Run the layer stack on one waveform.

    Returns the pre-compression energies (n_filters, n_frames) and the cache
    needed by tdfb_backward. n_frames = (len(w) - lowpass_width) // lowpass_stride + 1.
    Energies that overflow raise NumericError naming the filter and frame.
    """
    x = w.samples
    n = x.size
    k = p.kernel_width
    k2 = p.lowpass_width
    hop = p.lowpass_stride
    if n < k2:
        raise ValueError(f"waveform length {n} shorter than lowpass width {k2}")
    pad_left = (k - 1) // 2
    block = max(BLOCK, 1 << (2 * k - 1).bit_length())  # >= 2 k, a power of two
    step = block - k + 1
    n_blocks = -(-n // step)
    # Overlap-save: block b holds xp[b*step : b*step + block] of the padded
    # input xp, so its circular correlation with the taps equals the linear
    # one y[t] = sum_j taps[j] xp[t+j] at its first `step` outputs. The
    # correlation's spectrum is DFT(taps)[-f] X[f] = conj(DFT(conj taps)) X.
    # Outputs past the last nonzero input sample (t > pad_left + last) read
    # only zeros, so blocks from n_live on are exactly zero and skipped.
    last = last_nonzero(x)
    n_live = min(n_blocks, -(-(pad_left + last + 1) // step)) if last >= 0 else 0
    xp = np.zeros((n_blocks - 1) * step + block)
    xp[pad_left : pad_left + n] = x
    spectra = np.fft.fft(sliding_window_view(xp, block)[::step][:n_live])
    taps_spec = np.fft.fft(np.conj(_complex_taps(p)), block)
    np.conj(taps_spec, out=taps_spec)
    n_frames = (n - k2) // hop + 1
    pooled = np.empty((p.n_filters, n_frames))
    slots = _lowpass_slots(p.lowpass_taps, hop)
    width = (n_frames + slots.shape[0]) * hop  # whole slots, past the input end
    # Energies are written in block layout, so the row spans the live
    # blocks too. Columns from n on, past the input, meet only zero lowpass
    # taps; columns past the live blocks stay zero.
    energy = np.zeros(max(width, n_live * step))
    e = energy[: n_live * step].reshape(n_live, step)
    # One buffer, transformed in place and reused by every filter, so the
    # filter loop works in the same cache-sized memory.
    y = np.empty((n_live, block), dtype=np.complex128)
    # An overflow is reported once, as the NumericError below, not as warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        for f, spec in enumerate(taps_spec):
            c = np.multiply(spec, spectra, out=y)
            np.fft.ifft(c, out=c)
            # Squared modulus: both parts squared in place through the float
            # view, then its even (real) and odd (imaginary) columns added.
            v = c.view(np.float64)[:, : 2 * step]
            np.square(v, out=v)
            np.add(v[:, 0::2], v[:, 1::2], out=e)
            pooled[f] = _lowpass(energy[:width], slots, n_frames)
    if not np.all(np.isfinite(pooled)):
        f, fr = np.argwhere(~np.isfinite(pooled))[0]
        raise NumericError(f"non-finite filterbank energy at filter {f}, frame {fr}")
    return FeatureMap(pooled), TdfbCache(p, n, spectra, taps_spec, pooled)


def tdfb_backward(grad_out: np.ndarray, cache: TdfbCache) -> np.ndarray:
    """Exact gradient of a scalar loss w.r.t. the conv taps. The lowpass
    taps are fixed and receive none."""
    p = cache.params
    g = np.asarray(grad_out, dtype=np.float64)
    if g.shape != cache.pooled.shape:
        raise ValueError(
            f"grad shape {g.shape} does not match forward output {cache.pooled.shape}"
        )
    g = 2.0 * g  # d(energy)/d(conv) = 2 conv, for the real and the imaginary part
    n = cache.n_samples
    k = p.kernel_width
    n_live, block = cache.spectra.shape
    step = block - k + 1
    spectra_conj = np.conj(cache.spectra)
    grad_taps = np.empty_like(p.conv_taps)
    slots = _lowpass_slots(p.lowpass_taps, p.lowpass_stride)
    # d over the live blocks only, since conv is zero past them; d_energy
    # stays 0 from the end of the input on, and so do the last k - 1
    # columns of each block of d.
    live = min(n, n_live * step)
    d_energy = np.zeros(n_live * step)
    de = d_energy.reshape(n_live, step)
    y = np.empty((n_live, block), dtype=np.complex128)
    for f, spec in enumerate(cache.taps_spec):
        # the forward's convolution, rebuilt from its spectra
        d = np.multiply(spec, cache.spectra, out=y)
        np.fft.ifft(d, out=d)
        d_energy[:live] = _lowpass_adjoint(g[f], slots)[:live]
        d.real[:, :step] *= de
        d.imag[:, :step] *= de
        d[:, step:] = 0
        d_spec = np.fft.fft(d, out=d)
        # Tap gradient: grad[j] = sum_t d[t] xp[t+j] for j < k, block by
        # block; with W = sum_b D_b conj(X_b) and real X this is
        # sum_f W[f] e^{-2 pi i f j / block} / block.
        corr = np.einsum("bf,bf->f", d_spec, spectra_conj)
        grad = np.fft.fft(corr)[:k] / block
        grad_taps[2 * f] = grad.real
        grad_taps[2 * f + 1] = grad.imag
    return grad_taps


def center_frequency_report(
    p: TdfbParams, n_fft: int = 512
) -> list[tuple[int, float, float]]:
    """Per-filter (index, learned center Hz, initial mel center Hz).

    The learned center is the peak of the filter's n_fft-point DFT magnitude;
    the initial column is the canonical mel grid for this layout.
    """
    init = mel_filterbank_matrix(p.n_filters, n_fft, p.sample_rate)
    init_centers = init.center_freqs_hz
    if p.kernel_width > n_fft:
        raise ValueError(f"kernel width {p.kernel_width} exceeds n_fft {n_fft}")
    mag = np.abs(np.fft.fft(_complex_taps(p), n_fft))[:, : n_fft // 2 + 1]
    learned_hz = np.argmax(mag, axis=1) * p.sample_rate / n_fft
    return [
        (i, float(learned_hz[i]), float(init_centers[i])) for i in range(p.n_filters)
    ]
