"""Per-channel energy normalization.

A causal exponential moving average M smooths the energies E along time;
each channel is then gain-normalized and root-compressed:

    out = (E / (eps + M)^alpha + delta)^|r| - delta^|r|

alpha, delta, and r are per-channel, each with its own gradient; which of
them learn is the training state's choice. s and eps are fixed. delta is
clamped to >= 0 at application time and only the magnitude of r is used.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError
from .melfb import FeatureMap


@dataclass
class PcenParams:
    alpha: np.ndarray  # per-channel normalization strength
    delta: np.ndarray  # per-channel offset, clamped to >= 0 when applied
    r: np.ndarray  # per-channel compression exponent, |r| used in forward
    s: float = 0.5  # smoother coefficient, fixed
    epsilon: float = 1e-6  # division guard, fixed

    def __post_init__(self):
        self.alpha = np.asarray(self.alpha, dtype=np.float64)
        self.delta = np.asarray(self.delta, dtype=np.float64)
        self.r = np.asarray(self.r, dtype=np.float64)
        if not (self.alpha.shape == self.delta.shape == self.r.shape):
            raise ValueError("alpha, delta, r must have matching shapes")
        if self.alpha.ndim != 1:
            raise ValueError("PCEN parameters are per-channel vectors")
        if self.epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if not 0.0 < self.s <= 1.0:
            raise ValueError(f"s must be in (0, 1], got {self.s}")

    @property
    def n_channels(self) -> int:
        return self.alpha.shape[0]


@dataclass
class PcenCache:
    params: PcenParams
    energy: np.ndarray
    smooth: np.ndarray
    denom: np.ndarray  # (eps + M)^alpha
    gain: np.ndarray  # E / denom
    base: np.ndarray  # gain + clamped delta
    r_eff: np.ndarray  # |r|, column vector
    delta_eff: np.ndarray  # max(delta, 0), column vector


def init_pcen_params(n_channels: int) -> PcenParams:
    """The initial values of every channel: r = 0.5, alpha = 0.98, delta = 2."""
    return PcenParams(
        alpha=np.full(n_channels, 0.98),
        delta=np.full(n_channels, 2.0),
        r=np.full(n_channels, 0.5),
    )


def smoother(energies: np.ndarray, s: float) -> np.ndarray:
    """Causal moving average along frames of (channels, frames) energies:
    M(t) = (1-s) M(t-1) + s E(t), M(0) = E(0)."""
    if np.any(energies < 0):
        raise ValueError("smoother input must be non-negative energies")
    m = np.empty_like(energies)
    m[:, 0] = energies[:, 0]
    one_minus_s = 1.0 - s
    for t in range(1, energies.shape[1]):
        m[:, t] = one_minus_s * m[:, t - 1] + s * energies[:, t]
    return m


def pcen_forward(
    energies: FeatureMap, p: PcenParams
) -> tuple[FeatureMap, PcenCache]:
    """Apply the normalization elementwise; returns the output map and the
    cache needed by pcen_backward. The energies must be non-negative."""
    v = energies.values
    if v.shape[0] != p.n_channels:
        raise ValueError(
            f"channel mismatch: features have {v.shape[0]}, params {p.n_channels}"
        )
    m = smoother(v, p.s)
    r_eff = np.abs(p.r)[:, None]
    delta_eff = np.maximum(p.delta, 0.0)[:, None]
    # A non-finite output is reported once, as the NumericError below, not
    # as warnings.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        denom = (p.epsilon + m) ** p.alpha[:, None]
        gain = v / denom
        base = gain + delta_eff
        out = base**r_eff - delta_eff**r_eff
    if not np.all(np.isfinite(out)):
        ch, fr = np.argwhere(~np.isfinite(out))[0]
        raise NumericError(f"non-finite PCEN output at channel {ch}, frame {fr}")
    cache = PcenCache(p, v, m, denom, gain, base, r_eff, delta_eff)
    return FeatureMap(out), cache


def pcen_backward(
    grad_out: np.ndarray, cache: PcenCache
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Exact gradients (grad_E, grad_alpha, grad_delta, grad_r).

    Includes backpropagation through the smoother recurrence. Subgradient
    choices: d|r|/dr = 0 at r = 0, the delta clamp blocks gradient for
    delta <= 0, and the one-sided infinite slope at base = 0 (for |r| < 1)
    is taken as 0.
    """
    p = cache.params
    g = np.asarray(grad_out, dtype=np.float64)
    if g.shape != cache.energy.shape:
        raise ValueError(
            f"grad shape {g.shape} does not match energies {cache.energy.shape}"
        )
    r_eff = cache.r_eff
    delta_eff = cache.delta_eff
    base = cache.base
    safe_base = np.where(base > 0, base, 1.0)
    dbase = g * np.where(base > 0, r_eff * safe_base ** (r_eff - 1.0), 0.0)

    log_base = np.where(base > 0, np.log(safe_base), 0.0)
    dy_dr = np.where(base > 0, safe_base**r_eff * log_base, 0.0)
    safe_delta = np.where(delta_eff > 0, delta_eff, 1.0)
    dy_dr = dy_dr - np.where(
        delta_eff > 0, safe_delta**r_eff * np.log(safe_delta), 0.0
    )
    grad_r = (g * dy_dr).sum(axis=1) * np.sign(p.r)

    pow_delta = np.where(delta_eff > 0, safe_delta ** (r_eff - 1.0), 0.0)
    pow_base = np.where(base > 0, safe_base ** (r_eff - 1.0), 0.0)
    ddelta = (g * r_eff * (pow_base - pow_delta)).sum(axis=1)
    grad_delta = np.where(p.delta > 0, ddelta, 0.0)

    log_denom_arg = np.log(p.epsilon + cache.smooth)
    grad_alpha = -(dbase * cache.gain * log_denom_arg).sum(axis=1)

    grad_energy = dbase / cache.denom
    dm_direct = -p.alpha[:, None] * dbase * cache.gain / (p.epsilon + cache.smooth)

    # Backprop through M(t) = (1-s) M(t-1) + s E(t), M(0) = E(0).
    s = p.s
    n_frames = cache.energy.shape[1]
    lam = np.zeros(p.n_channels)
    for t in range(n_frames - 1, 0, -1):
        lam = dm_direct[:, t] + (1.0 - s) * lam
        grad_energy[:, t] += s * lam
    lam = dm_direct[:, 0] + (1.0 - s) * lam
    grad_energy[:, 0] += lam

    return grad_energy, grad_alpha, grad_delta, grad_r


def compression_report(p: PcenParams) -> list[tuple[int, float, float, float]]:
    """Per-channel (channel, |r|, alpha, delta) rows for CSV export."""
    return [
        (ch, float(abs(p.r[ch])), float(p.alpha[ch]), float(p.delta[ch]))
        for ch in range(p.n_channels)
    ]
