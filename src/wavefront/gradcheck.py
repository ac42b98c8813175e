"""The hand-derived gradients of the whole model against finite differences
of its loss, for every ablation configuration, on a tiny model."""

from dataclasses import dataclass

import numpy as np

from .dsp import Waveform
from .net import ABLATION_CONFIGS, config_label, make_run_config, make_train_state
from .net import utterance_loss, utterance_loss_and_grads

# A row passes when its max_relative_error is below this.
GRADCHECK_THRESHOLD = 1e-5


@dataclass(frozen=True)
class GradcheckRow:
    config: str  # the ablation row, by config_label
    tensor: str
    max_rel_err: float
    passed: bool


def numeric_gradient(loss_fn, tensor: np.ndarray, h: float = 1e-3) -> np.ndarray:
    """Central differences D(h) and D(h/2) per entry, extrapolated as
    (4 D(h/2) - D(h)) / 3 to cancel the h^2 term; the tensor is perturbed in
    place and restored."""
    grad = np.zeros_like(tensor)
    for idx in np.ndindex(tensor.shape):
        orig = tensor[idx]
        central = []
        for step in (h, h / 2.0):
            tensor[idx] = orig + step
            f_plus = loss_fn()
            tensor[idx] = orig - step
            f_minus = loss_fn()
            central.append((f_plus - f_minus) / (2.0 * step))
        tensor[idx] = orig
        grad[idx] = (4.0 * central[1] - central[0]) / 3.0
    return grad


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """The largest entry of |analytic - numeric|, relative to the tensor's
    largest gradient entry."""
    scale = max(np.abs(analytic).max(), np.abs(numeric).max())
    return float(np.abs(analytic - numeric).max() / scale)


def run_gradcheck(seed: int = 0) -> list[GradcheckRow]:
    """utterance_loss_and_grads against finite differences of utterance_loss,
    for every ablation config and every learned tensor, on a tiny model with
    jittered taps and PCEN parameters. One channel's r is negative, so
    sign(r) enters the r gradient."""
    rows = []
    for kind, learn in ABLATION_CONFIGS:
        cfg = make_run_config(
            kind, learn, seed=seed, n_filters=2, win_len=9, hop=4, n_fft=64,
            hidden_size=4, attn_size=3, clip_seconds=64 / 16000,
        )
        state = make_train_state(cfg)
        fe, rng = state.frontend, state.rng
        if fe.tdfb is not None:
            fe.tdfb.conv_taps += 0.05 * rng.standard_normal(fe.tdfb.conv_taps.shape)
        if fe.pcen is not None:
            fe.pcen.alpha += rng.normal(0.0, 0.05, 2)
            fe.pcen.delta += rng.uniform(-0.3, 0.5, 2)
            fe.pcen.r += rng.normal(0.0, 0.08, 2)
            fe.pcen.r[0] *= -1.0
        wave = Waveform(rng.standard_normal(64), 16000)

        def loss_fn():
            return utterance_loss(state, wave, 0)

        _, analytic = utterance_loss_and_grads(state, wave, 0)
        label = config_label(kind, learn)
        for name, target in state.tensors.items():
            err = max_relative_error(analytic[name], numeric_gradient(loss_fn, target))
            rows.append(GradcheckRow(label, name, err, err < GRADCHECK_THRESHOLD))
    return rows
