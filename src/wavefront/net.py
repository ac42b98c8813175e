"""Classifier head and training machinery.

A unidirectional LSTM (hidden 60) reads the feature frames, an additive
attention block (FC-50 -> FC-1 -> softmax over time) pools them into one
vector, and a dense layer produces the label logits. All gradients are
hand-derived, including backprop through time; the optimizer is SGD with
classic momentum at batch size 1. Also here: run configuration, the
frontend (a filterbank, then a compression) and its per-utterance feature
cache, checkpoint serialization, and the finite-difference gradient check
registry. Evaluation and validation run a forward-only copy of the
classifier over batches of PREDICT_BATCH utterances.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import LABELS, Manifest, Utterance, pad_or_trim, read_wav, uar
from .dsp import Waveform, preemphasis
from .errors import ConfigError, NumericError, ValidationError
from .melfb import (
    LOG_MEL,
    FeatureMap,
    MelConfig,
    MelFilterbankMatrix,
    mean_variance_normalize,
    mel_energy_features,
    mel_filterbank_matrix,
)
from .pcen import PcenCache, PcenParams, init_pcen_params, pcen_backward, pcen_forward
from .tdfb import TdfbCache, TdfbParams, init_tdfb_params, tdfb_backward, tdfb_forward

FRONTENDS = ("mel", "mel_mvn", "mel_pcen", "tdfb", "tdfb_pcen")
PCEN_FRONTENDS = ("mel_pcen", "tdfb_pcen")
PCEN_PARAM_NAMES = ("r", "alpha", "delta")
# Utterances per forward-only batch in evaluate and validation. Every clip is
# padded or trimmed to clip_seconds, so a batch needs no mask.
PREDICT_BATCH = 8


# ---------------------------------------------------------------------------
# Run configuration


@dataclass(frozen=True)
class RunConfig:
    """Everything a training or evaluation run depends on."""

    frontend: str
    pcen_learn: tuple[str, ...] = ()
    seed: int = 0
    epochs: int = 20
    patience: int = 10
    learning_rate: float = 0.001
    momentum: float = 0.98
    n_filters: int = 64
    sample_rate: int = 16000
    clip_seconds: float = 2.5
    win_len: int = 400
    hop: int = 160
    n_fft: int = 512
    hidden_size: int = 60
    attn_size: int = 50
    n_labels: int = 2
    preemphasis_coeff: float = 0.97


def make_run_config(frontend: str, pcen_learn=None, **kwargs) -> RunConfig:
    """Build and validate a RunConfig; pcen_learn defaults to all three
    parameters for PCEN frontends and must be absent otherwise."""
    if frontend not in FRONTENDS:
        raise ConfigError(
            f"unknown frontend '{frontend}' (choose from {', '.join(FRONTENDS)})"
        )
    if frontend in PCEN_FRONTENDS:
        if pcen_learn is None:
            pcen_learn = PCEN_PARAM_NAMES
        bad = [p for p in pcen_learn if p not in PCEN_PARAM_NAMES]
        if bad:
            raise ConfigError(f"unknown PCEN parameters: {', '.join(map(str, bad))}")
        pcen_learn = tuple(p for p in PCEN_PARAM_NAMES if p in pcen_learn)
    else:
        if pcen_learn:
            raise ConfigError(
                f"--pcen-learn is only valid with PCEN frontends, not '{frontend}'"
            )
        pcen_learn = ()
    cfg = RunConfig(frontend=frontend, pcen_learn=pcen_learn, **kwargs)
    if cfg.epochs < 0:
        raise ConfigError("epochs must be >= 0")
    if cfg.patience < 1:
        raise ConfigError("patience must be >= 1")
    for name in (
        "n_filters", "sample_rate", "win_len", "hop", "n_fft", "hidden_size",
        "attn_size", "n_labels",
    ):
        value = getattr(cfg, name)
        if not isinstance(value, int) or value < 1:
            raise ConfigError(f"{name} must be a positive integer, got {value!r}")
    for name in ("clip_seconds", "learning_rate"):
        value = getattr(cfg, name)
        if not (math.isfinite(value) and value > 0):
            raise ConfigError(f"{name} must be finite and > 0, got {value!r}")
    for name in ("momentum", "preemphasis_coeff"):
        value = getattr(cfg, name)
        if not 0 <= value < 1:
            raise ConfigError(f"{name} must lie in [0, 1), got {value!r}")
    return cfg


def config_to_dict(cfg: RunConfig) -> dict:
    d = {k: getattr(cfg, k) for k in cfg.__dataclass_fields__}
    d["pcen_learn"] = list(cfg.pcen_learn)
    return d


# JSON types accepted for each RunConfig field type; pcen_learn is a list.
_JSON_TYPES = {int: int, float: (int, float), str: str}


def config_from_dict(d) -> RunConfig:
    """Rebuild a RunConfig written by config_to_dict, with the checks of
    make_run_config. A key RunConfig lacks, or a value of the wrong JSON
    type, raises ConfigError."""
    if not isinstance(d, dict):
        raise ConfigError("config is not a JSON object")
    hints = typing.get_type_hints(RunConfig)
    unknown = sorted(set(d) - set(hints))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    for name, value in d.items():
        want = _JSON_TYPES.get(hints[name], list)
        if isinstance(value, bool) or not isinstance(value, want):
            raise ConfigError(f"config '{name}' has invalid value {value!r}")
    kwargs = dict(d)
    return make_run_config(kwargs.pop("frontend", None), **kwargs)


def config_hash(cfg: RunConfig) -> str:
    blob = json.dumps(config_to_dict(cfg), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


# ---------------------------------------------------------------------------
# Model parameters

MODEL_TENSOR_NAMES = (
    "lstm.wx",
    "lstm.wh",
    "lstm.b",
    "attn1.w",
    "attn1.b",
    "attn2.w",
    "attn2.b",
    "out.w",
    "out.b",
)


@dataclass
class ModelParams:
    """LSTM + attention + output layer weights. Gate rows of the stacked
    LSTM matrices are ordered input, forget, cell, output."""

    lstm_wx: np.ndarray  # (4H, D)
    lstm_wh: np.ndarray  # (4H, H)
    lstm_b: np.ndarray  # (4H,)
    attn1_w: np.ndarray  # (A, H)
    attn1_b: np.ndarray  # (A,)
    attn2_w: np.ndarray  # (A,)
    attn2_b: np.ndarray  # (1,)
    out_w: np.ndarray  # (n_labels, H)
    out_b: np.ndarray  # (n_labels,)

    @property
    def hidden_size(self) -> int:
        return self.lstm_wh.shape[1]

    def tensors(self) -> dict[str, np.ndarray]:
        return {
            "lstm.wx": self.lstm_wx,
            "lstm.wh": self.lstm_wh,
            "lstm.b": self.lstm_b,
            "attn1.w": self.attn1_w,
            "attn1.b": self.attn1_b,
            "attn2.w": self.attn2_w,
            "attn2.b": self.attn2_b,
            "out.w": self.out_w,
            "out.b": self.out_b,
        }


def _uniform(rng, shape, fan_in, fan_out):
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, shape)


def init_model_params(
    rng: np.random.Generator, n_inputs: int, hidden: int, attn: int, n_labels: int
) -> ModelParams:
    h4 = 4 * hidden
    b = np.zeros(h4)
    b[hidden : 2 * hidden] = 1.0  # forget-gate bias starts open
    return ModelParams(
        lstm_wx=_uniform(rng, (h4, n_inputs), n_inputs, h4),
        lstm_wh=_uniform(rng, (h4, hidden), hidden, h4),
        lstm_b=b,
        attn1_w=_uniform(rng, (attn, hidden), hidden, attn),
        attn1_b=np.zeros(attn),
        attn2_w=_uniform(rng, (attn,), attn, 1),
        attn2_b=np.zeros(1),
        out_w=_uniform(rng, (n_labels, hidden), hidden, n_labels),
        out_b=np.zeros(n_labels),
    )


# ---------------------------------------------------------------------------
# LSTM


def _sigmoid(z):
    # 1 / (1 + e^-z) for z >= 0 and e^z / (1 + e^z) below, so exp never
    # overflows.
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


@dataclass
class LstmCache:
    x: np.ndarray
    gates_i: np.ndarray
    gates_f: np.ndarray
    gates_g: np.ndarray
    gates_o: np.ndarray
    cells: np.ndarray
    tanh_cells: np.ndarray
    hidden: np.ndarray


def lstm_forward(x: np.ndarray, p: ModelParams) -> tuple[np.ndarray, LstmCache]:
    """Standard LSTM over (n_frames, n_inputs) with h0 = c0 = 0; returns the
    hidden sequence (n_frames, hidden)."""
    n_frames = x.shape[0]
    h = p.hidden_size
    pre = x @ p.lstm_wx.T + p.lstm_b  # input contribution for every step
    # One sigmoid over all 4H pre-activations per step; the cell-input
    # columns of `gates` are unused, tanh gives that gate.
    gates = np.empty((n_frames, 4 * h))
    gg = np.empty((n_frames, h))
    cells = np.empty((n_frames, h))
    tanh_cells = np.empty((n_frames, h))
    hidden = np.empty((n_frames, h))
    h_prev = np.zeros(h)
    c_prev = np.zeros(h)
    for t in range(n_frames):
        z = pre[t] + p.lstm_wh @ h_prev
        gates[t] = s = _sigmoid(z)
        gg[t] = np.tanh(z[2 * h : 3 * h])
        c_prev = s[h : 2 * h] * c_prev + s[:h] * gg[t]
        cells[t] = c_prev
        tanh_cells[t] = np.tanh(c_prev)
        h_prev = s[3 * h :] * tanh_cells[t]
        hidden[t] = h_prev
    bad = ~np.isfinite(hidden).all(axis=1)
    if bad.any():
        raise NumericError(f"non-finite LSTM state at timestep {np.argmax(bad)}")
    gi, gf, go = gates[:, :h], gates[:, h : 2 * h], gates[:, 3 * h :]
    return hidden, LstmCache(x, gi, gf, gg, go, cells, tanh_cells, hidden)


def lstm_backward(
    grad_hidden: np.ndarray, cache: LstmCache, p: ModelParams
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Backprop through time; returns LSTM weight gradients and grad w.r.t.
    the input sequence."""
    n_frames, h = cache.hidden.shape
    dz_all = np.empty((n_frames, 4 * h))
    dh_next = np.zeros(h)
    dc_next = np.zeros(h)
    for t in range(n_frames - 1, -1, -1):
        dh = grad_hidden[t] + dh_next
        tc = cache.tanh_cells[t]
        do = dh * tc
        dc = dc_next + dh * cache.gates_o[t] * (1.0 - tc * tc)
        c_prev = cache.cells[t - 1] if t > 0 else np.zeros(h)
        di = dc * cache.gates_g[t]
        dg = dc * cache.gates_i[t]
        df = dc * c_prev
        dc_next = dc * cache.gates_f[t]
        gi, gf, gg, go = (
            cache.gates_i[t],
            cache.gates_f[t],
            cache.gates_g[t],
            cache.gates_o[t],
        )
        dz = dz_all[t]
        dz[:h] = di * gi * (1.0 - gi)
        dz[h : 2 * h] = df * gf * (1.0 - gf)
        dz[2 * h : 3 * h] = dg * (1.0 - gg * gg)
        dz[3 * h :] = do * go * (1.0 - go)
        dh_next = p.lstm_wh.T @ dz
    h_prev_seq = np.vstack([np.zeros((1, h)), cache.hidden[:-1]])
    grads = {
        "lstm.wx": dz_all.T @ cache.x,
        "lstm.wh": dz_all.T @ h_prev_seq,
        "lstm.b": dz_all.sum(axis=0),
    }
    grad_x = dz_all @ p.lstm_wx
    return grads, grad_x


# ---------------------------------------------------------------------------
# Attention pooling and output layer


@dataclass
class AttentionCache:
    hidden: np.ndarray
    scored: np.ndarray  # tanh(fc1(h_t))
    weights: np.ndarray
    context: np.ndarray


def attention_forward(
    hidden: np.ndarray, p: ModelParams
) -> tuple[np.ndarray, np.ndarray, AttentionCache]:
    """Score each hidden state (FC -> tanh -> FC-1), softmax the scores over
    time, and classify the weighted combination of hidden states.

    Returns (logits, attention weights, cache).
    """
    scored = np.tanh(hidden @ p.attn1_w.T + p.attn1_b)
    scores = scored @ p.attn2_w + p.attn2_b[0]
    shifted = scores - scores.max()
    exp = np.exp(shifted)
    weights = exp / exp.sum()
    context = weights @ hidden
    logits = p.out_w @ context + p.out_b
    return logits, weights, AttentionCache(hidden, scored, weights, context)


def attention_backward(
    grad_logits: np.ndarray, cache: AttentionCache, p: ModelParams
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Returns attention/output weight gradients and grad w.r.t. the hidden
    sequence."""
    a = cache.weights
    grads = {
        "out.w": np.outer(grad_logits, cache.context),
        "out.b": grad_logits.copy(),
    }
    dcontext = p.out_w.T @ grad_logits
    da = cache.hidden @ dcontext
    grad_hidden = np.outer(a, dcontext)
    dscores = a * (da - a @ da)  # softmax backward
    grads["attn2.w"] = cache.scored.T @ dscores
    grads["attn2.b"] = np.array([dscores.sum()])
    dscored = np.outer(dscores, p.attn2_w) * (1.0 - cache.scored**2)
    grads["attn1.w"] = dscored.T @ cache.hidden
    grads["attn1.b"] = dscored.sum(axis=0)
    grad_hidden += dscored @ p.attn1_w
    return grads, grad_hidden


def cross_entropy_loss(
    logits: np.ndarray, label: int
) -> tuple[float, np.ndarray]:
    """Softmax cross-entropy with max-subtraction; returns loss and
    grad w.r.t. the logits (softmax - onehot)."""
    if not 0 <= label < logits.shape[0]:
        raise ValueError(f"label {label} out of range for {logits.shape[0]} logits")
    shifted = logits - logits.max()
    log_z = np.log(np.exp(shifted).sum())
    log_probs = shifted - log_z
    grad = np.exp(log_probs)
    grad[label] -= 1.0
    return float(-log_probs[label]), grad


def classifier_forward(features: np.ndarray, p: ModelParams):
    """Features are (channels, frames); the LSTM consumes them frame-major."""
    x = np.ascontiguousarray(features.T)
    hidden, lstm_cache = lstm_forward(x, p)
    logits, weights, attn_cache = attention_forward(hidden, p)
    return logits, weights, (lstm_cache, attn_cache)


def classifier_backward(grad_logits, caches, p: ModelParams):
    lstm_cache, attn_cache = caches
    grads, grad_hidden = attention_backward(grad_logits, attn_cache, p)
    lstm_grads, grad_x = lstm_backward(grad_hidden, lstm_cache, p)
    grads.update(lstm_grads)
    return grads, grad_x.T  # back to (channels, frames)


def predict_logits(x: np.ndarray, p: ModelParams, ids=None) -> np.ndarray:
    """Forward-only classifier over a batch of equal-length utterances.

    x is (frames, batch, channels); returns (batch, n_labels) logits, the
    values classifier_forward gives each utterance up to rounding. Nothing
    is kept for backprop: each step projects only its own input frame and
    scores its hidden state for attention at once. A non-finite LSTM state
    raises NumericError naming the first such batch row, by ids[row] when
    ids is given, and its first non-finite timestep.
    """
    n_frames, batch, _ = x.shape
    h = p.hidden_size
    h_prev = np.zeros((batch, h))
    c_prev = np.zeros((batch, h))
    hidden = np.empty((n_frames, batch, h))
    scores = np.empty((n_frames, batch))
    for t in range(n_frames):
        z = x[t] @ p.lstm_wx.T + p.lstm_b
        z += h_prev @ p.lstm_wh.T
        s = _sigmoid(z)
        c_prev = s[:, h : 2 * h] * c_prev + s[:, :h] * np.tanh(z[:, 2 * h : 3 * h])
        h_prev = s[:, 3 * h :] * np.tanh(c_prev)
        hidden[t] = h_prev
        scores[t] = np.tanh(h_prev @ p.attn1_w.T + p.attn1_b) @ p.attn2_w
    bad = ~np.isfinite(hidden).all(axis=2)  # (frames, batch)
    if bad.any():
        row = int(np.argmax(bad.any(axis=0)))
        name = f"utterance {ids[row]}" if ids is not None else f"batch row {row}"
        raise NumericError(
            f"non-finite LSTM state in {name} at timestep {np.argmax(bad[:, row])}"
        )
    # attn2.b shifts every score of an utterance equally, which the softmax
    # cancels, so it is left out.
    weights = np.exp(scores - scores.max(axis=0))
    weights /= weights.sum(axis=0)
    context = np.einsum("tb,tbh->bh", weights, hidden)
    return context @ p.out_w.T + p.out_b


def batched_logits(p: ModelParams, utterances: list, features_of) -> np.ndarray:
    """Logits (len(utterances), n_labels), in utterance order, from
    predict_logits over chunks of PREDICT_BATCH. features_of(utt) returns
    (channels, frames) features; each is copied into the chunk's block as
    soon as it is computed, so at most one chunk of feature maps is held."""
    logits = [np.empty((0, p.out_b.shape[0]))]
    block = None
    for start in range(0, len(utterances), PREDICT_BATCH):
        chunk = utterances[start : start + PREDICT_BATCH]
        for i, utt in enumerate(chunk):
            values = features_of(utt)
            if block is None:
                block = np.empty((values.shape[1], PREDICT_BATCH, values.shape[0]))
            if values.shape != (block.shape[2], block.shape[0]):
                raise ValueError(
                    f"utterance {utt.utt_id} has features of shape {values.shape}, "
                    f"not {(block.shape[2], block.shape[0])} as the first one"
                )
            block[:, i] = values.T
        ids = [u.utt_id for u in chunk]
        logits.append(predict_logits(block[:, : len(chunk)], p, ids))
    return np.concatenate(logits)


# ---------------------------------------------------------------------------
# Optimizer


@dataclass
class OptimizerState:
    velocities: dict[str, np.ndarray]
    momentum: float = 0.98
    learning_rate: float = 0.001


def init_optimizer(
    tensors: dict[str, np.ndarray], momentum: float, learning_rate: float
) -> OptimizerState:
    return OptimizerState(
        velocities={k: np.zeros_like(v) for k, v in tensors.items()},
        momentum=momentum,
        learning_rate=learning_rate,
    )


def sgd_momentum_step(
    tensors: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: OptimizerState,
) -> None:
    """Classic momentum, applied in place: v <- mu v + g, theta <- theta - lr v."""
    for name, vel in state.velocities.items():
        if name not in grads:
            raise ValueError(f"missing gradient for tensor '{name}'")
        g = grads[name]
        if g.shape != vel.shape:
            raise ValueError(
                f"gradient shape {g.shape} does not match tensor "
                f"'{name}' shape {vel.shape}"
            )
        vel *= state.momentum
        vel += g
        tensors[name] -= state.learning_rate * vel


# ---------------------------------------------------------------------------
# Frontend: a filterbank, then a compression


@dataclass
class Frontend:
    """A filterbank, then a compression. The filterbank is the fixed mel
    energies when tdfb is None, otherwise the learnable time-domain one. The
    compression is PCEN when pcen is set, otherwise log(1 + x), standardized
    per channel when mvn is set. build_frontend alone maps kind to these."""

    kind: str
    mel_config: MelConfig
    mel_matrix: MelFilterbankMatrix
    tdfb: TdfbParams | None = None
    pcen: PcenParams | None = None
    mvn: bool = False


@dataclass
class FrontendCache:
    """What frontend_backward needs from the forward pass."""

    tdfb: TdfbCache | None = None  # None for the fixed mel filterbank
    pcen: PcenCache | None = None  # None for log(1 + x)


def build_frontend(cfg: RunConfig) -> Frontend:
    mel_config = MelConfig(
        n_filters=cfg.n_filters,
        win_len=cfg.win_len,
        hop=cfg.hop,
        n_fft=cfg.n_fft,
        sample_rate=cfg.sample_rate,
        f_min=0.0,
        f_max=cfg.sample_rate / 2.0,
    )
    matrix = mel_filterbank_matrix(
        cfg.n_filters, cfg.n_fft, cfg.sample_rate, 0.0, cfg.sample_rate / 2.0
    )
    fe = Frontend(cfg.frontend, mel_config, matrix, mvn=cfg.frontend == "mel_mvn")
    if cfg.frontend in ("tdfb", "tdfb_pcen"):
        fe.tdfb = init_tdfb_params(
            matrix,
            kernel_width=cfg.win_len,
            lowpass_width=cfg.win_len,
            lowpass_stride=cfg.hop,
        )
    if cfg.frontend in PCEN_FRONTENDS:
        fe.pcen = init_pcen_params(cfg.n_filters, learn=cfg.pcen_learn)
    return fe


def frontend_forward(fe: Frontend, wave: Waveform):
    """Returns (values (channels, frames), FrontendCache)."""
    tdfb_cache = None
    if fe.tdfb is None:
        energies = mel_energy_features(wave, fe.mel_config, fe.mel_matrix)
    else:
        energies, tdfb_cache = tdfb_forward(wave, fe.tdfb)
    values, cache = _compress(fe, energies, tdfb_cache)
    if fe.mvn:
        # Statistics come from the frames wholly inside the signal (at least
        # 2), so the zero padding does not shift or shrink them.
        cfg = fe.mel_config
        n_stat = max(2, 1 + (wave.signal_len - cfg.win_len) // cfg.hop)
        values = mean_variance_normalize(FeatureMap(values, LOG_MEL), n_stat).values
    return values, cache


def _compress(fe: Frontend, energies: FeatureMap, tdfb_cache: TdfbCache | None):
    if fe.pcen is None:
        return np.log1p(energies.values), FrontendCache(tdfb_cache)
    out, pcen_cache = pcen_forward(energies, fe.pcen)
    return out.values, FrontendCache(tdfb_cache, pcen_cache)


def frontend_backward(fe: Frontend, grad_values, cache: FrontendCache) -> dict:
    """Gradients for the frontend's learnable tensors: the compression's
    backward, then the filterbank's. Empty for the fixed mel frontends."""
    grads = {}
    if fe.pcen is not None:
        grad_energy, *pcen_grads = pcen_backward(grad_values, cache.pcen)
        names = ("pcen.alpha", "pcen.delta", "pcen.r")
        learned = frontend_tensors(fe)
        grads = {n: g for n, g in zip(names, pcen_grads) if n in learned}
    elif fe.tdfb is not None:
        grad_energy = grad_values / (1.0 + cache.tdfb.pooled)  # d log(1 + x)
    if fe.tdfb is not None:
        grads["tdfb.conv_taps"], _ = tdfb_backward(
            grad_energy, cache.tdfb, need_input_grad=False
        )
    return grads


def frontend_tensors(fe: Frontend, frozen: bool = False) -> dict[str, np.ndarray]:
    """The frontend's learnable tensors by name; frozen adds the PCEN
    parameters that are not learned, which checkpoints also store."""
    tensors = {}
    if fe.tdfb is not None:
        tensors["tdfb.conv_taps"] = fe.tdfb.conv_taps
    if fe.pcen is not None:
        for name in ("alpha", "delta", "r"):
            if frozen or getattr(fe.pcen, "learn_" + name):
                tensors["pcen." + name] = getattr(fe.pcen, name)
    return tensors


# ---------------------------------------------------------------------------
# Train state


@dataclass
class TrainState:
    config: RunConfig
    frontend: Frontend
    model: ModelParams
    tensors: dict[str, np.ndarray]  # learnable tensors only
    opt: OptimizerState
    rng: np.random.Generator


def checkpoint_tensors(state: TrainState) -> dict[str, np.ndarray]:
    """Every tensor a checkpoint stores: model weights, all frontend
    parameters (frozen ones included), and optimizer velocities."""
    tensors = {**state.model.tensors(), **frontend_tensors(state.frontend, frozen=True)}
    for name, vel in state.opt.velocities.items():
        tensors["vel." + name] = vel
    return tensors


def make_train_state(cfg: RunConfig) -> TrainState:
    rng = np.random.default_rng(cfg.seed)
    frontend = build_frontend(cfg)
    model = init_model_params(
        rng, cfg.n_filters, cfg.hidden_size, cfg.attn_size, cfg.n_labels
    )
    tensors = {**model.tensors(), **frontend_tensors(frontend)}
    opt = init_optimizer(tensors, cfg.momentum, cfg.learning_rate)
    return TrainState(cfg, frontend, model, tensors, opt, rng)


def prepare_waveform(w: Waveform, cfg: RunConfig) -> Waveform:
    """Fixed-duration padding followed by pre-emphasis; both feature paths
    consume the identical prepared signal."""
    return preemphasis(pad_or_trim(w, cfg.clip_seconds), cfg.preemphasis_coeff)


def make_feature_provider(state: TrainState):
    """provider(utt) returns frontend_forward's (values, cache) for the
    utterance, keeping the output of the frontend's fixed part per utterance
    id: the finished features of mel and mel_mvn, the mel energies of
    mel_pcen, and the prepared waveform of tdfb and tdfb_pcen. The learnable
    part runs on every call."""
    fe = state.frontend
    cfg = state.config
    fixed: dict = {}

    def provider(utt: Utterance):
        held = fixed.get(utt.utt_id)
        if held is None:
            held = prepare_waveform(read_wav(utt.path, cfg.sample_rate), cfg)
            if fe.tdfb is None and fe.pcen is None:
                held = frontend_forward(fe, held)[0]
            elif fe.tdfb is None:
                held = mel_energy_features(held, fe.mel_config, fe.mel_matrix)
            fixed[utt.utt_id] = held
        if fe.tdfb is not None:
            return frontend_forward(fe, held)
        if fe.pcen is not None:
            return _compress(fe, held, None)
        return held, FrontendCache()

    return provider


def utterance_loss(state: TrainState, wave: Waveform, label_idx: int) -> float:
    values, _ = frontend_forward(state.frontend, wave)
    logits, _, _ = classifier_forward(values, state.model)
    loss, _ = cross_entropy_loss(logits, label_idx)
    return loss


def utterance_loss_and_grads(
    state: TrainState, wave: Waveform, label_idx: int, frontend_out=None
) -> tuple[float, dict[str, np.ndarray]]:
    """One full forward/backward pass; returns the loss and gradients for
    every learnable tensor."""
    if frontend_out is None:
        frontend_out = frontend_forward(state.frontend, wave)
    values, fe_cache = frontend_out
    logits, _, caches = classifier_forward(values, state.model)
    loss, grad_logits = cross_entropy_loss(logits, label_idx)
    grads, grad_values = classifier_backward(grad_logits, caches, state.model)
    grads.update(frontend_backward(state.frontend, grad_values, fe_cache))
    return loss, grads


def step_utterance(
    state: TrainState, wave: Waveform, label_idx: int, frontend_out=None
) -> float:
    loss, grads = utterance_loss_and_grads(state, wave, label_idx, frontend_out)
    sgd_momentum_step(state.tensors, grads, state.opt)
    return loss


def predict_label(state: TrainState, wave: Waveform, features=None) -> int:
    """Label index for one utterance, as a batch of one."""
    if features is None:
        features, _ = frontend_forward(state.frontend, wave)
    return int(np.argmax(predict_logits(features.T[:, None, :], state.model)[0]))


# ---------------------------------------------------------------------------
# Evaluation


@dataclass
class EvalResult:
    uar: float
    per_class_recall: dict[str, float]
    confusion: dict[str, dict[str, int]]
    n: int
    predictions: list[str]


def evaluate(
    state: TrainState, utterances: list[Utterance], wave_provider=None
) -> EvalResult:
    """Deterministic evaluation in the given utterance order, in batches of
    PREDICT_BATCH. wave_provider(utt) defaults to the prepared WAV file."""
    if wave_provider is None:
        cfg = state.config

        def wave_provider(utt):
            return prepare_waveform(read_wav(utt.path, cfg.sample_rate), cfg)

    def features_of(utt):
        return frontend_forward(state.frontend, wave_provider(utt))[0]

    logits = batched_logits(state.model, utterances, features_of)
    predictions = [LABELS[i] for i in np.argmax(logits, axis=1)]
    truths = [u.label for u in utterances]
    confusion = {t: {p: 0 for p in LABELS} for t in LABELS}
    for t, p in zip(truths, predictions):
        confusion[t][p] += 1
    recalls = {}
    for label in LABELS:
        total = sum(confusion[label].values())
        if total:
            recalls[label] = confusion[label][label] / total
    return EvalResult(
        uar=uar(predictions, truths),
        per_class_recall=recalls,
        confusion=confusion,
        n=len(utterances),
        predictions=predictions,
    )


# ---------------------------------------------------------------------------
# Checkpoints

_CKPT_MAGIC = b"WFCP"
_CKPT_VERSION = 1


def write_atomic(path, chunks) -> None:
    """Write the byte chunks to a temp file in path's directory, then
    os.replace it onto path. A write that fails leaves an earlier file at
    path intact and removes the temp file."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_checkpoint(path, tensors: dict[str, np.ndarray], meta: dict) -> None:
    """Versioned binary container: named float64 tensors plus a JSON header
    recording the config, its hash, seed, and epoch. Round-trips bit-exactly."""
    names = sorted(tensors)
    arrays = [np.ascontiguousarray(tensors[n], dtype="<f8") for n in names]
    entries = [{"name": n, "shape": list(a.shape)} for n, a in zip(names, arrays)]
    header = json.dumps(
        {"version": _CKPT_VERSION, "meta": meta, "tensors": entries},
        sort_keys=True,
    ).encode()
    head = [_CKPT_MAGIC, struct.pack("<IQ", _CKPT_VERSION, len(header)), header]
    write_atomic(path, head + arrays)


def _tensor_entries(path, header, n_payload: int) -> list[tuple[str, tuple]]:
    """(name, shape) of each tensor a checkpoint header lists, once the
    header has the schema save_checkpoint writes and its tensors fill the
    n_payload bytes after it exactly; ConfigError naming the file if not."""

    def invalid(what):
        return ConfigError(f"{path}: invalid checkpoint header: {what}")

    if not isinstance(header, dict):
        raise invalid("not a JSON object")
    meta, listed = header.get("meta"), header.get("tensors")
    if not isinstance(meta, dict) or not isinstance(meta.get("config"), dict):
        raise invalid("'meta.config' is not an object")
    if not isinstance(listed, list):
        raise invalid("'tensors' is not a list")
    entries: dict[str, tuple] = {}
    for i, entry in enumerate(listed):
        name = entry.get("name") if isinstance(entry, dict) else None
        if not isinstance(name, str) or name in entries:
            raise invalid(f"tensor {i} has a missing or repeated name")
        shape = entry.get("shape")
        if not isinstance(shape, list) or not all(
            type(d) is int and d >= 0 for d in shape
        ):
            raise invalid(f"tensor '{name}' has shape {shape!r}, not a list of sizes")
        entries[name] = tuple(shape)
    n_bytes = sum(8 * math.prod(shape) for shape in entries.values())
    if n_bytes != n_payload:
        raise invalid(f"its tensors take {n_bytes} bytes but {n_payload} follow it")
    return list(entries.items())


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    """Tensors and meta of a checkpoint written by save_checkpoint. A file
    that breaks the format, its header schema included, raises ConfigError
    naming it; nothing is read past a length before it is checked against
    the file size."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _CKPT_MAGIC:
            raise ConfigError(f"{path} is not a checkpoint file")
        fixed = fh.read(12)
        if len(fixed) != 12:
            raise ConfigError(f"{path} is truncated inside its checkpoint header")
        version, header_len = struct.unpack("<IQ", fixed)
        if version != _CKPT_VERSION:
            raise ConfigError(f"unsupported checkpoint version {version}")
        n_rest = os.fstat(fh.fileno()).st_size - 16
        if header_len > n_rest:
            raise ConfigError(
                f"{path}: header length {header_len} exceeds the {n_rest} bytes left"
            )
        try:
            header = json.loads(fh.read(header_len).decode())
        except ValueError as e:
            raise ConfigError(f"{path}: checkpoint header is not JSON: {e}") from e
        tensors = {}
        for name, shape in _tensor_entries(path, header, n_rest - header_len):
            blob = fh.read(8 * math.prod(shape))
            tensors[name] = np.frombuffer(blob, dtype="<f8").reshape(shape).copy()
    return tensors, header["meta"]


def state_from_checkpoint(path) -> TrainState:
    """Rebuild a TrainState with all tensors (including frozen frontend
    parameters and optimizer velocities) restored bit-exactly."""
    tensors, meta = load_checkpoint(path)
    cfg = config_from_dict(meta["config"])
    state = make_train_state(cfg)
    targets = checkpoint_tensors(state)
    missing = sorted(set(targets) - set(tensors))
    if missing:
        raise ConfigError(f"{path} lacks tensors {', '.join(missing)}")
    for name, value in tensors.items():
        if name not in targets:
            raise ConfigError(f"checkpoint tensor '{name}' not used by config")
        if targets[name].shape != value.shape:
            raise ConfigError(
                f"checkpoint tensor '{name}' has shape {value.shape}, "
                f"expected {targets[name].shape}"
            )
        targets[name][...] = value
    return state


# ---------------------------------------------------------------------------
# Training loop


@dataclass
class TrainResult:
    config: RunConfig
    best_epoch: int
    best_valid_uar: float
    log_rows: list[tuple[int, float, float]]
    checkpoint_path: str
    state: TrainState


def train_run(
    manifest: Manifest,
    cfg: RunConfig,
    out_dir,
    checkpoint_name: str = "checkpoint.ckpt",
    log_name: str = "train_log.csv",
) -> TrainResult:
    """Train with early stopping on validation UAR; writes the best
    checkpoint, a per-epoch CSV log, and a config echo into out_dir."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    train_utts = manifest.split("train")
    valid_utts = manifest.split("valid")
    if cfg.epochs > 0 and (not train_utts or not valid_utts):
        raise ConfigError("training needs non-empty train and valid splits")

    state = make_train_state(cfg)
    label_to_idx = {label: i for i, label in enumerate(LABELS)}

    provider = make_feature_provider(state)

    def valid_uar() -> float:
        logits = batched_logits(state.model, valid_utts, lambda u: provider(u)[0])
        preds = [LABELS[i] for i in np.argmax(logits, axis=1)]
        return uar(preds, [u.label for u in valid_utts])

    best_epoch = 0
    best_uar = -1.0
    best_tensors = {k: v.copy() for k, v in checkpoint_tensors(state).items()}
    log_rows: list[tuple[int, float, float]] = []

    for epoch in range(1, cfg.epochs + 1):
        order = state.rng.permutation(len(train_utts))
        losses = []
        for idx in order:
            utt = train_utts[idx]
            loss = step_utterance(
                state, None, label_to_idx[utt.label], frontend_out=provider(utt)
            )
            losses.append(loss)
        epoch_uar = valid_uar()
        log_rows.append((epoch, float(np.mean(losses)), epoch_uar))
        if epoch_uar > best_uar:
            best_uar = epoch_uar
            best_epoch = epoch
            best_tensors = {
                k: v.copy() for k, v in checkpoint_tensors(state).items()
            }
        elif epoch - best_epoch >= cfg.patience:
            break

    meta = {
        "config": config_to_dict(cfg),
        "config_hash": config_hash(cfg),
        "seed": cfg.seed,
        "epoch": best_epoch,
        "frontend": cfg.frontend,
        "best_valid_uar": best_uar if best_uar >= 0 else None,
    }
    checkpoint_path = out_dir / checkpoint_name
    save_checkpoint(checkpoint_path, best_tensors, meta)

    log = "epoch,train_loss,valid_uar\n" + "".join(
        f"{epoch},{loss!r},{epoch_uar!r}\n" for epoch, loss, epoch_uar in log_rows
    )
    write_atomic(out_dir / log_name, [log.encode()])
    config_json = json.dumps(config_to_dict(cfg), indent=2, sort_keys=True) + "\n"
    write_atomic(out_dir / "config.json", [config_json.encode()])

    return TrainResult(
        config=cfg,
        best_epoch=best_epoch,
        best_valid_uar=best_uar,
        log_rows=log_rows,
        checkpoint_path=str(checkpoint_path),
        state=state,
    )


@dataclass
class OverfitResult:
    initial: float  # mean loss over the subset before training
    final: float  # mean loss after the last epoch run
    epochs: int
    state: TrainState


def overfit_check(manifest: Manifest, cfg: RunConfig) -> OverfitResult:
    """Train on the first 5 train utterances of each label, for at most
    cfg.epochs epochs, until their mean loss falls below a tenth of its
    initial value."""
    train = manifest.split("train")
    subset = []
    for label in LABELS:
        subset += [u for u in train if u.label == label][:5]
    if len(subset) < 5 * len(LABELS):
        raise ValidationError("the overfit check needs 5 train utterances per label")
    state = make_train_state(cfg)
    provider = make_feature_provider(state)

    def mean_loss() -> float:
        losses = []
        for u in subset:
            logits, _, _ = classifier_forward(provider(u)[0], state.model)
            losses.append(cross_entropy_loss(logits, LABELS.index(u.label))[0])
        return float(np.mean(losses))

    initial = current = mean_loss()
    epochs = 0
    while epochs < cfg.epochs and not current < 0.1 * initial:
        epochs += 1
        for k in state.rng.permutation(len(subset)):
            u = subset[k]
            step_utterance(state, None, LABELS.index(u.label), frontend_out=provider(u))
        current = mean_loss()
    return OverfitResult(initial, current, epochs, state)


# ---------------------------------------------------------------------------
# Gradient checking


@dataclass(frozen=True)
class GradcheckRow:
    op: str
    tensor: str
    max_rel_err: float
    threshold: float
    passed: bool


def numeric_gradient(loss_fn, tensor: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences, perturbing the tensor in place."""
    grad = np.zeros_like(tensor)
    for idx in np.ndindex(tensor.shape):
        orig = tensor[idx]
        tensor[idx] = orig + h
        f_plus = loss_fn()
        tensor[idx] = orig - h
        f_minus = loss_fn()
        tensor[idx] = orig
        grad[idx] = (f_plus - f_minus) / (2.0 * h)
    return grad


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))


def _rows_for(op, loss_fn, analytic: dict, tensors: dict, threshold: float):
    rows = []
    for name, target in tensors.items():
        numeric = numeric_gradient(loss_fn, target)
        err = max_relative_error(analytic[name], numeric)
        rows.append(GradcheckRow(op, name, err, threshold, err < threshold))
    return rows


def _check_pcen(seed: int) -> list[GradcheckRow]:
    rows = []
    masks = (("r", "alpha", "delta"), ("r",), ("alpha",))
    for mask in masks:
        rng = np.random.default_rng(seed)
        n_channels, n_frames = 3, 10
        energy = rng.uniform(0.05, 3.0, (n_channels, n_frames))
        p = init_pcen_params(n_channels, learn=mask)
        p.alpha += rng.normal(0.0, 0.05, n_channels)
        p.delta += rng.uniform(-0.3, 0.5, n_channels)
        p.r += rng.normal(0.0, 0.08, n_channels)
        probe = rng.standard_normal((n_channels, n_frames))

        def loss_fn():
            out, _ = pcen_forward(
                FeatureMap(energy.copy(), "pre_compression_energy"), p
            )
            return float((out.values * probe).sum())

        out, cache = pcen_forward(
            FeatureMap(energy.copy(), "pre_compression_energy"), p
        )
        g_e, g_alpha, g_delta, g_r = pcen_backward(probe, cache)
        analytic = {"energy": g_e, "alpha": g_alpha, "delta": g_delta, "r": g_r}
        targets = {"energy": energy}
        if "alpha" in mask:
            targets["alpha"] = p.alpha
        if "delta" in mask:
            targets["delta"] = p.delta
        if "r" in mask:
            targets["r"] = p.r
        op = f"pcen[{','.join(mask)}]"
        rows.extend(_rows_for(op, loss_fn, analytic, targets, 1e-5))
    return rows


def _check_tdfb(seed: int) -> list[GradcheckRow]:
    rng = np.random.default_rng(seed)
    matrix = mel_filterbank_matrix(2, 64, 16000, 0.0, 8000.0)
    p = init_tdfb_params(matrix, kernel_width=9, lowpass_width=16, lowpass_stride=4)
    p.conv_taps += 0.05 * rng.standard_normal(p.conv_taps.shape)
    samples = rng.standard_normal(64)
    n_frames = (64 - p.lowpass_width) // p.lowpass_stride + 1
    probe = rng.standard_normal((p.n_filters, n_frames))

    def loss_fn():
        fm, _ = tdfb_forward(Waveform(samples.copy(), 16000), p)
        return float((fm.values * probe).sum())

    _, cache = tdfb_forward(Waveform(samples.copy(), 16000), p)
    grad_taps, grad_wave = tdfb_backward(probe, cache, need_input_grad=True)
    analytic = {"conv_taps": grad_taps, "waveform": grad_wave}
    targets = {"conv_taps": p.conv_taps, "waveform": samples}
    return _rows_for("tdfb", loss_fn, analytic, targets, 1e-5)


def _check_frontend(seed: int) -> list[GradcheckRow]:
    # frontend_backward against frontend_forward for every frontend with
    # learnable tensors, with jittered taps and PCEN parameters.
    rows = []
    for kind in ("mel_pcen", "tdfb", "tdfb_pcen"):
        rng = np.random.default_rng(seed)
        fe = build_frontend(
            make_run_config(kind, n_filters=2, win_len=9, hop=4, n_fft=64)
        )
        if fe.tdfb is not None:
            fe.tdfb.conv_taps += 0.05 * rng.standard_normal(fe.tdfb.conv_taps.shape)
        if fe.pcen is not None:
            fe.pcen.alpha += rng.normal(0.0, 0.05, 2)
            fe.pcen.delta += rng.uniform(-0.3, 0.5, 2)
            fe.pcen.r += rng.normal(0.0, 0.08, 2)
        wave = Waveform(rng.standard_normal(64), 16000)
        values, cache = frontend_forward(fe, wave)
        probe = rng.standard_normal(values.shape)

        def loss_fn():
            return float((frontend_forward(fe, wave)[0] * probe).sum())

        analytic = frontend_backward(fe, probe, cache)
        op = f"frontend[{kind}]"
        rows.extend(_rows_for(op, loss_fn, analytic, frontend_tensors(fe), 1e-5))
    return rows


def _check_lstm(seed: int) -> list[GradcheckRow]:
    rng = np.random.default_rng(seed)
    n_frames, n_inputs, hidden, attn, n_labels = 4, 3, 5, 4, 2
    model = init_model_params(rng, n_inputs, hidden, attn, n_labels)
    features = rng.standard_normal((n_inputs, n_frames))
    label = 1

    def loss_fn():
        logits, _, _ = classifier_forward(features, model)
        return cross_entropy_loss(logits, label)[0]

    logits, _, caches = classifier_forward(features, model)
    _, grad_logits = cross_entropy_loss(logits, label)
    grads, grad_features = classifier_backward(grad_logits, caches, model)
    analytic = dict(grads)
    analytic["features"] = grad_features
    targets = dict(model.tensors())
    targets["features"] = features
    return _rows_for("lstm+attention", loss_fn, analytic, targets, 1e-4)


def _check_e2e(seed: int) -> list[GradcheckRow]:
    cfg = make_run_config(
        "tdfb_pcen",
        seed=seed,
        n_filters=2,
        win_len=9,
        hop=4,
        n_fft=64,
        hidden_size=4,
        attn_size=3,
        clip_seconds=64 / 16000,
    )
    state = make_train_state(cfg)
    rng = np.random.default_rng(seed + 1)
    state.frontend.tdfb.conv_taps += 0.05 * rng.standard_normal(
        state.frontend.tdfb.conv_taps.shape
    )
    wave = Waveform(rng.standard_normal(64), 16000)
    label = 0

    def loss_fn():
        return utterance_loss(state, wave, label)

    _, grads = utterance_loss_and_grads(state, wave, label)
    return _rows_for("e2e", loss_fn, grads, dict(state.tensors), 1e-4)


def _check_selftest_broken(seed: int) -> list[GradcheckRow]:
    # Harness self-test: a deliberately wrong analytic gradient must fail.
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((3, 4))
    x = rng.standard_normal(4)
    probe = rng.standard_normal(3)

    def loss_fn():
        return float((w @ x) @ probe)

    analytic = np.outer(probe, x)
    analytic[0, 0] *= 1.01  # the deliberate error
    numeric = numeric_gradient(loss_fn, w)
    err = max_relative_error(analytic, numeric)
    return [GradcheckRow("selftest-broken", "w", err, 1e-5, err < 1e-5)]


GRADCHECK_OPS = {
    "pcen": _check_pcen,
    "tdfb": _check_tdfb,
    "frontend": _check_frontend,
    "lstm": _check_lstm,
    "e2e": _check_e2e,
    "selftest-broken": _check_selftest_broken,
}

# "all" runs the real operators; the broken self-test is opt-in.
GRADCHECK_ALL = ("pcen", "tdfb", "frontend", "lstm", "e2e")


def run_gradcheck(op: str = "all", seed: int = 0) -> list[GradcheckRow]:
    if op == "all":
        rows = []
        for name in GRADCHECK_ALL:
            rows.extend(GRADCHECK_OPS[name](seed))
        return rows
    if op not in GRADCHECK_OPS:
        raise ConfigError(
            f"unknown gradcheck op '{op}' "
            f"(choose from all, {', '.join(GRADCHECK_OPS)})"
        )
    return GRADCHECK_OPS[op](seed)
