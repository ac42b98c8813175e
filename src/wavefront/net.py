"""Classifier head and training machinery.

A unidirectional LSTM (hidden 60) reads the feature frames, an additive
attention block (FC-50 -> FC-1 -> softmax over time) pools them into one
vector, and a dense layer produces the label logits. All gradients are
hand-derived, including backprop through time; the optimizer is SGD with
classic momentum at batch size 1. Also here: RunConfig, the one settings
object of a run (the learning rate, momentum and pre-emphasis are the
paper's constants, not settings); prepare_waveform, which pads or trims
every clip to clip_seconds and pre-emphasises it in one pass; the frontend
(a filterbank, then a compression) as a fixed part, kept per utterance by
the feature cache, and a learned part; make_train_state, the one place that
decides which tensors learn, and state_from_checkpoint; train_epoch, the
SGD pass of training and of the overfit check; and the experiment over
every ablation configuration and seed. Evaluation and validation run a
forward-only copy of the classifier over chunks of PREDICT_BATCH
utterances, scoring attention slab by slab into a running softmax, so a
chunk holds no per-frame block of hidden states or scores.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .artifacts import load_checkpoint, save_checkpoint, write_atomic, write_csv
from .data import LABELS, Manifest, Utterance, read_wav, uar
from .dsp import Waveform
from .errors import ConfigError, NumericError, ValidationError
from .melfb import (
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
# The paper's comparison, one (frontend, pcen_learn) row per configuration:
# the five frontends, and tdfb_pcen learning r, alpha and delta, r only or
# alpha only. config_label names a row; `train --list-configs` prints the
# labels, the gradient check runs every row and `experiment` trains them.
ABLATION_CONFIGS = (
    ("mel", None),
    ("mel_mvn", None),
    ("mel_pcen", ("r", "alpha", "delta")),
    ("tdfb", None),
    ("tdfb_pcen", ("r", "alpha", "delta")),
    ("tdfb_pcen", ("r",)),
    ("tdfb_pcen", ("alpha",)),
)
# The paper's fixed hyperparameters: SGD with classic momentum, and the
# pre-emphasis filter applied to every prepared waveform.
LEARNING_RATE = 0.001
MOMENTUM = 0.98
PREEMPHASIS = 0.97
# Upper bounds on the sizes a config may ask for, far above the paper's
# (2.5 s clips at 16 kHz, n_fft 512, 64 filters, H=60, A=50). A
# checkpoint without its config_hash may carry any size, and one that the
# allocator grants lazily but the machine cannot back would be killed when
# its pages are touched instead of being refused.
MAX_SIZES = {
    "clip_seconds": 60.0,
    "sample_rate": 48000,
    "n_fft": 8192,
    "n_filters": 512,
    "hidden_size": 1024,
    "attn_size": 1024,
}
# Upper bound on the products of sizes, in array elements (512 MB as float64):
# frames x n_fft, which every frontend meets (mel framing and spectra, or the
# tdfb lowpass pooling, whose width win_len is at most n_fft), and, for tdfb,
# n_filters x clip samples. The paper's are 248 x 512 and 64 x 40 000 (26
# times below it); a 60 s clip at hop 1 is far above it.
MAX_SIZE_PRODUCT = 2**26
# Utterances per forward-only chunk in evaluate and validation. Every clip
# is padded or trimmed to clip_seconds, so a chunk needs no mask.
# predict_logits' per-step numpy calls cost the same at any batch size, so
# larger chunks amortise them (see its timing comment), but each utterance
# adds 127 KB of feature block at paper shapes. At 20, evaluation's peak RSS
# is about 1.2 MB (2.5 %) above chunks of 8.
PREDICT_BATCH = 20
# Frames of hidden states predict_logits holds before it scores them and
# folds them into its running softmax.
SLAB = 32


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
    n_filters: int = 64
    sample_rate: int = 16000
    clip_seconds: float = 2.5
    win_len: int = 400
    hop: int = 160
    n_fft: int = 512
    hidden_size: int = 60
    attn_size: int = 50


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
    if not isinstance(cfg.seed, int) or cfg.seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {cfg.seed!r}")
    if cfg.epochs < 0:
        raise ConfigError("epochs must be >= 0")
    if cfg.patience < 1:
        raise ConfigError("patience must be >= 1")
    for name in (
        "n_filters", "sample_rate", "win_len", "hop", "n_fft", "hidden_size",
        "attn_size",
    ):
        value = getattr(cfg, name)
        if not isinstance(value, int) or value < 1:
            raise ConfigError(f"{name} must be a positive integer, got {value!r}")
    if not (math.isfinite(cfg.clip_seconds) and cfg.clip_seconds > 0):
        raise ConfigError(
            f"clip_seconds must be finite and > 0, got {cfg.clip_seconds!r}"
        )
    for name, bound in MAX_SIZES.items():
        value = getattr(cfg, name)
        if value > bound:
            raise ConfigError(f"{name} must be <= {bound}, got {value!r}")
    if cfg.n_fft & (cfg.n_fft - 1) or cfg.n_fft < cfg.win_len:
        raise ConfigError(
            f"n_fft must be a power of two >= win_len {cfg.win_len}, got {cfg.n_fft}"
        )
    clip_samples = round(cfg.clip_seconds * cfg.sample_rate)
    if cfg.win_len > clip_samples:
        raise ConfigError(
            f"win_len {cfg.win_len} exceeds the clip's {clip_samples} samples"
        )
    n_frames = (clip_samples - cfg.win_len) // cfg.hop + 1
    products = {"frames x n_fft": n_frames * cfg.n_fft}
    if cfg.frontend in ("tdfb", "tdfb_pcen"):
        products["n_filters x clip samples"] = cfg.n_filters * clip_samples
    for name, value in products.items():
        if value > MAX_SIZE_PRODUCT:
            raise ConfigError(f"{name} must be <= {MAX_SIZE_PRODUCT}, got {value}")
    return cfg


def config_label(frontend: str, learn) -> str:
    """The name of an ABLATION_CONFIGS row, e.g. tdfb_pcen:r,alpha,delta."""
    return f"{frontend}:{','.join(learn)}" if learn else frontend


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
        out_w=_uniform(rng, (n_labels, hidden), hidden, n_labels),
        out_b=np.zeros(n_labels),
    )


# ---------------------------------------------------------------------------
# LSTM


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


def _tanh_gate_weights(p: ModelParams):
    """(wx, wh, b, scale, offset) for all four gates from one tanh.

    sigmoid(z) = 1/2 + tanh(z/2)/2. The input, forget and output rows of the
    weights and bias are halved, a power-of-two scale, so their
    pre-activations are exactly z/2 (short of subnormals). scale * tanh +
    offset, with (1/2, 1/2) on those rows and (1, 0) on the cell-input rows,
    then gives the gate values.
    """
    h = p.hidden_size
    scale = np.full(4 * h, 0.5)
    scale[2 * h : 3 * h] = 1.0
    offset = 1.0 - scale
    rows = scale[:, None]
    return p.lstm_wx * rows, p.lstm_wh * rows, p.lstm_b * scale, scale, offset


def lstm_forward(x: np.ndarray, p: ModelParams) -> tuple[np.ndarray, LstmCache]:
    """Standard LSTM over (n_frames, n_inputs) with h0 = c0 = 0; returns the
    hidden sequence (n_frames, hidden).

    One tanh per frame gives all four gates (see _tanh_gate_weights), and no
    exp can overflow. The cache's gate arrays are views of one (n_frames, 4H)
    block; lstm_backward needs only their values, as sigmoid' = g(1 - g).
    """
    n_frames = x.shape[0]
    h = p.hidden_size
    wx, wh, b, scale, offset = _tanh_gate_weights(p)
    gates = x @ wx.T + b  # each frame's input term, turned into gates in place
    cells = np.empty((n_frames, h))
    tanh_cells = np.empty((n_frames, h))
    hidden = np.empty((n_frames, h))
    gi, gf, gg, go = (gates[:, k * h : (k + 1) * h] for k in range(4))
    h_prev = np.zeros(h)
    c_prev = np.zeros(h)
    for g, i_t, f_t, g_t, o_t, c_t, tc_t, h_t in zip(
        gates, gi, gf, gg, go, cells, tanh_cells, hidden
    ):
        g += wh @ h_prev
        np.tanh(g, out=g)
        g *= scale
        g += offset
        c_prev = np.multiply(f_t, c_prev, out=c_t)
        c_prev += i_t * g_t
        np.tanh(c_prev, out=tc_t)
        h_prev = np.multiply(o_t, tc_t, out=h_t)
    bad = ~np.isfinite(hidden).all(axis=1)
    if bad.any():
        raise NumericError(f"non-finite LSTM state at timestep {np.argmax(bad)}")
    return hidden, LstmCache(x, gi, gf, gg, go, cells, tanh_cells, hidden)


def lstm_backward(
    grad_hidden: np.ndarray, cache: LstmCache, p: ModelParams
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Backprop through time; returns LSTM weight gradients and grad w.r.t.
    the input sequence.

    The reversed time loop carries only the recurrence: the hidden-state
    gradient dh (back through lstm.wh) and the cell gradient dc (back
    through the forget gate). Every factor that depends on the forward cache
    alone is computed for all frames before the loop: per gate, the
    coefficient that turns dc (input, forget and cell gates) or dh (output
    gate) into its pre-activation gradient; go * (1 - tanh(c)^2), which
    carries dh into dc; and the next frame's forget gate, which carries dc
    back one frame. dz_all starts as the gate coefficients and is multiplied
    in place, row by row, into the pre-activation gradients.
    """
    n_frames, h = cache.hidden.shape
    gi, gf, gg, go = cache.gates_i, cache.gates_f, cache.gates_g, cache.gates_o
    tc = cache.tanh_cells
    dz_all = np.empty((n_frames, 4 * h))
    coef = dz_all.reshape(n_frames, 4, h)
    coef[:, 0] = gg * gi * (1.0 - gi)
    coef[0, 1] = 0.0  # c_{-1} = 0
    coef[1:, 1] = cache.cells[:-1] * gf[1:] * (1.0 - gf[1:])
    coef[:, 2] = gi * (1.0 - gg * gg)
    coef[:, 3] = tc * go * (1.0 - go)
    dc_from_dh = go * (1.0 - tc * tc)
    gf_next = np.zeros((n_frames, h))
    gf_next[:-1] = gf[1:]
    dh_next = np.zeros(h)
    dc = np.zeros(h)
    for grad_h, f_next, dcdh, row, dz in zip(
        grad_hidden[::-1], gf_next[::-1], dc_from_dh[::-1], coef[::-1], dz_all[::-1]
    ):
        dh = grad_h + dh_next
        dc = dc * f_next + dh * dcdh
        np.multiply(row[:3], dc, out=row[:3])
        row[3] *= dh
        dh_next = dz @ p.lstm_wh
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
    time, and classify the weighted combination of hidden states. The FC-1
    scores carry no bias: the softmax would cancel one shared by every score.

    Returns (logits, attention weights, cache).
    """
    scored = np.tanh(hidden @ p.attn1_w.T + p.attn1_b)
    scores = scored @ p.attn2_w
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
    is kept for backprop. Each step projects only its own input frame and
    writes its hidden state into a reused (SLAB, batch, H) buffer. After
    each slab its states are scored for attention in one product and
    folded into a running softmax: a running max, a running sum of
    exponentials and a running weighted context, divided by the sum once at
    the end (the online normaliser of Milakov and Gimelshein,
    arXiv:1805.02867). No (frames, batch, ...) block is held. A non-finite
    LSTM state stops the folding; after the recurrence it raises
    NumericError naming the first such batch row, by ids[row] when ids is
    given, and its first non-finite timestep.
    """
    n_frames, batch, _ = x.shape
    h = p.hidden_size
    wx, wh, b, scale, offset = _tanh_gate_weights(p)
    # C-contiguous (in, out) copies: at batch 8, one BLAS thread, OpenBLAS
    # serves a frame's products from these 2 to 3 times faster than from
    # the views wx.T and wh.T (about 4.2 against 11.6 us, 4.4 against 9.8 us).
    wx_t = np.ascontiguousarray(wx.T)
    wh_t = np.ascontiguousarray(wh.T)
    attn1_w_t = np.ascontiguousarray(p.attn1_w.T)
    # The gate constants as (batch, 4H) blocks, and reused buffers for the
    # gates, the state's term and one (batch, H) product: a step adds no
    # broadcast and allocates nothing.
    b_full, scale_full, offset_full = (
        np.tile(v, (batch, 1)) for v in (b, scale, offset)
    )
    g = np.empty((batch, 4 * h))
    from_state = np.empty((batch, 4 * h))
    tmp = np.empty((batch, h))
    gi, gf, gg, go = (g[:, k * h : (k + 1) * h] for k in range(4))
    h_prev = np.zeros((batch, h))
    c_prev = np.zeros((batch, h))
    slab = np.empty((min(SLAB, n_frames), batch, h))
    bad = np.zeros((n_frames, batch), dtype=bool)
    run_max = np.full(batch, -np.inf)
    run_sum = np.zeros(batch)
    context = np.zeros((batch, h))
    # At paper shapes, one BLAS thread of a 2-vCPU Xeon KVM guest, this takes
    # about 0.77 ms per utterance at batch 8, 0.65 at 16, 0.63 at 20 and 0.61
    # at 24 (0.95, 0.78, 0.74 and 0.71 with the (4H,) constants broadcast and
    # fresh temporaries at every step). Scoring the whole (frames, batch, H)
    # block after the loop was no faster. Its peak traced memory at batch 20
    # is 1.6 MB against 5.1 MB with that block. The input projection stays per
    # step: done before the loop it holds a (frames, batch, 4H) block and
    # gained about 2 %.
    for start in range(0, n_frames, SLAB):
        stop = min(start + SLAB, n_frames)
        states = slab[: stop - start]
        for t in range(start, stop):
            np.matmul(x[t], wx_t, out=g)
            g += b_full
            g += np.matmul(h_prev, wh_t, out=from_state)
            np.tanh(g, out=g)
            g *= scale_full
            g += offset_full
            c_prev *= gf
            c_prev += np.multiply(gi, gg, out=tmp)
            h_prev = np.multiply(go, np.tanh(c_prev, out=tmp), out=states[t - start])
        bad[start:stop] = ~np.isfinite(states).all(axis=2)
        if bad[:stop].any():
            continue  # the recurrence runs on, so the error names the first row
        scored = states.reshape(-1, h) @ attn1_w_t
        scored += p.attn1_b
        np.tanh(scored, out=scored)
        scores = (scored @ p.attn2_w).reshape(stop - start, batch)
        new_max = np.maximum(run_max, scores.max(axis=0))
        rescale = np.exp(run_max - new_max)
        weights = np.exp(scores - new_max)
        run_sum *= rescale
        run_sum += weights.sum(axis=0)
        context *= rescale[:, None]
        context += np.einsum("tb,tbh->bh", weights, states)
        run_max = new_max
    if bad.any():
        row = int(np.argmax(bad.any(axis=0)))
        name = f"utterance {ids[row]}" if ids is not None else f"batch row {row}"
        raise NumericError(
            f"non-finite LSTM state in {name} at timestep {np.argmax(bad[:, row])}"
        )
    context /= run_sum[:, None]
    return context @ p.out_w.T + p.out_b


def batched_logits(p: ModelParams, utterances: list, features_of) -> np.ndarray:
    """Logits (len(utterances), n_labels), in utterance order, from
    predict_logits over chunks of PREDICT_BATCH, the last one partial.
    features_of(utt) returns (channels, frames) features; each is copied into
    the chunk's block, sized to the first chunk, as soon as it is computed,
    so at most one chunk of feature maps is held. A NumericError from
    features_of is raised again prefixed with the utterance's id."""
    logits = [np.empty((0, p.out_b.shape[0]))]
    block = None
    for start in range(0, len(utterances), PREDICT_BATCH):
        chunk = utterances[start : start + PREDICT_BATCH]
        for i, utt in enumerate(chunk):
            try:
                values = features_of(utt)
            except NumericError as e:
                raise NumericError(f"utterance {utt.utt_id}: {e}") from e
            if block is None:
                block = np.empty((values.shape[1], len(chunk), values.shape[0]))
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


def sgd_momentum_step(
    tensors: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    velocities: dict[str, np.ndarray],
) -> None:
    """Classic momentum, applied in place: v <- mu v + g, theta <- theta - lr v,
    with mu = MOMENTUM and lr = LEARNING_RATE, for every tensor that has a
    velocity."""
    for name, vel in velocities.items():
        if name not in grads:
            raise ValueError(f"missing gradient for tensor '{name}'")
        g = grads[name]
        if g.shape != vel.shape:
            raise ValueError(
                f"gradient shape {g.shape} does not match tensor "
                f"'{name}' shape {vel.shape}"
            )
        vel *= MOMENTUM
        vel += g
        tensors[name] -= LEARNING_RATE * vel


# ---------------------------------------------------------------------------
# Frontend: a filterbank, then a compression


@dataclass
class Frontend:
    """A filterbank, then a compression. The filterbank is the fixed mel
    energies when tdfb is None, otherwise the learnable time-domain one. The
    compression is PCEN when pcen is set, otherwise log(1 + x), standardized
    per channel when mvn is set. frontend_fixed runs the stages before the
    first learned one, frontend_learned the rest. build_frontend alone maps
    the config's frontend to these; the config also gives the mel analysis
    window and hop."""

    config: RunConfig
    mel_matrix: MelFilterbankMatrix
    tdfb: TdfbParams | None = None
    pcen: PcenParams | None = None
    mvn: bool = False

    @property
    def kind(self) -> str:
        return self.config.frontend


@dataclass
class FrontendCache:
    """What frontend_backward needs from the forward pass."""

    tdfb: TdfbCache | None = None  # None for the fixed mel filterbank
    pcen: PcenCache | None = None  # None for log(1 + x)


def build_frontend(cfg: RunConfig) -> Frontend:
    matrix = mel_filterbank_matrix(cfg.n_filters, cfg.n_fft, cfg.sample_rate)
    fe = Frontend(cfg, matrix, mvn=cfg.frontend == "mel_mvn")
    if cfg.frontend in ("tdfb", "tdfb_pcen"):
        fe.tdfb = init_tdfb_params(
            matrix,
            kernel_width=cfg.win_len,
            lowpass_width=cfg.win_len,
            lowpass_stride=cfg.hop,
        )
    if cfg.frontend in PCEN_FRONTENDS:
        fe.pcen = init_pcen_params(cfg.n_filters)
    return fe


def frontend_fixed(fe: Frontend, wave: Waveform):
    """The deepest output that no learned tensor reaches: the prepared
    waveform for tdfb, the mel energies for PCEN, else the finished features."""
    if fe.tdfb is not None:
        return wave
    cfg = fe.config
    energies = mel_energy_features(wave, fe.mel_matrix, cfg.win_len, cfg.hop)
    if fe.pcen is not None:
        return energies
    values = np.log1p(energies.values)
    if fe.mvn:
        # Statistics come from the frames wholly inside the signal (at least
        # 2), so the zero padding does not shift or shrink them.
        n_stat = max(2, 1 + (wave.signal_len - cfg.win_len) // cfg.hop)
        values = mean_variance_normalize(values, n_stat)
    return values


def frontend_learned(fe: Frontend, fixed):
    """The stages after frontend_fixed (none for mel and mel_mvn), on its
    output; returns (values (channels, frames), FrontendCache)."""
    cache = FrontendCache()
    if fe.tdfb is None and fe.pcen is None:
        return fixed, cache
    if fe.tdfb is not None:
        fixed, cache.tdfb = tdfb_forward(fixed, fe.tdfb)
    if fe.pcen is None:
        return np.log1p(fixed.values), cache
    out, cache.pcen = pcen_forward(fixed, fe.pcen)
    return out.values, cache


def frontend_forward(fe: Frontend, wave: Waveform):
    return frontend_learned(fe, frontend_fixed(fe, wave))


def frontend_backward(fe: Frontend, grad_values, cache: FrontendCache) -> dict:
    """Gradients for every tensor of frontend_tensors: the compression's
    backward, then the filterbank's. Empty for the fixed mel frontends."""
    grads = {}
    if fe.pcen is not None:
        grad_energy, *pcen_grads = pcen_backward(grad_values, cache.pcen)
        grads = dict(zip(("pcen.alpha", "pcen.delta", "pcen.r"), pcen_grads))
    elif fe.tdfb is not None:
        grad_energy = grad_values / (1.0 + cache.tdfb.pooled)  # d log(1 + x)
    if fe.tdfb is not None:
        grads["tdfb.conv_taps"] = tdfb_backward(grad_energy, cache.tdfb)
    return grads


def frontend_tensors(fe: Frontend) -> dict[str, np.ndarray]:
    """The frontend's tensors by name: the filterbank taps and the PCEN
    parameters, learned or not. make_train_state picks the learned ones."""
    tensors = {}
    if fe.tdfb is not None:
        tensors["tdfb.conv_taps"] = fe.tdfb.conv_taps
    if fe.pcen is not None:
        for name in ("alpha", "delta", "r"):
            tensors["pcen." + name] = getattr(fe.pcen, name)
    return tensors


# ---------------------------------------------------------------------------
# Train state


@dataclass
class TrainState:
    config: RunConfig
    frontend: Frontend
    model: ModelParams
    tensors: dict[str, np.ndarray]  # learned tensors only
    velocities: dict[str, np.ndarray]  # momentum velocity of each learned tensor
    rng: np.random.Generator


def checkpoint_tensors(state: TrainState) -> dict[str, np.ndarray]:
    """Every tensor a checkpoint stores: model weights and all frontend
    parameters, the PCEN ones that are not learned included."""
    return {**state.model.tensors(), **frontend_tensors(state.frontend)}


def make_train_state(cfg: RunConfig) -> TrainState:
    """A fresh state; the one place that decides which tensors learn: every
    model and filterbank tensor, and the PCEN parameters in cfg.pcen_learn."""
    rng = np.random.default_rng(cfg.seed)
    frontend = build_frontend(cfg)
    model = init_model_params(
        rng, cfg.n_filters, cfg.hidden_size, cfg.attn_size, len(LABELS)
    )
    frozen = {"pcen." + p for p in PCEN_PARAM_NAMES if p not in cfg.pcen_learn}
    params = {**model.tensors(), **frontend_tensors(frontend)}
    tensors = {name: value for name, value in params.items() if name not in frozen}
    velocities = {name: np.zeros_like(value) for name, value in tensors.items()}
    return TrainState(cfg, frontend, model, tensors, velocities, rng)


def prepare_waveform(w: Waveform, cfg: RunConfig) -> Waveform:
    """The clip zero-padded at the end or trimmed to clip_seconds, then
    pre-emphasised, out[t] = in[t] - PREEMPHASIS * in[t-1] with out[0] =
    in[0], written into one clip-length buffer; both feature paths consume
    this signal. n_signal counts the clip's own samples, None when the clip
    fills the prepared length."""
    x = w.samples
    target = int(round(cfg.clip_seconds * w.sample_rate))
    n = min(x.size, target)
    out = np.empty(target)
    out[0] = x[0]
    np.multiply(x[: n - 1], PREEMPHASIS, out=out[1:n])
    np.subtract(x[1:n], out[1:n], out=out[1:n])
    if n < target:  # the padding's zeros: only its first sample sees the clip
        out[n] = 0.0 - PREEMPHASIS * x[n - 1]
        out[n + 1 :] = 0.0
    n_signal = min(w.signal_len, target)
    return Waveform(out, w.sample_rate, None if n_signal == target else n_signal)


def make_feature_provider(state: TrainState):
    """provider(utt) returns frontend_forward's (values, cache) for the
    utterance: frontend_fixed's output is kept per utterance id, and
    frontend_learned runs on every call."""
    fe = state.frontend
    cfg = state.config
    fixed: dict = {}

    def provider(utt: Utterance):
        held = fixed.get(utt.utt_id)
        if held is None:
            held = prepare_waveform(read_wav(utt.path, cfg.sample_rate), cfg)
            held = fixed[utt.utt_id] = frontend_fixed(fe, held)
        return frontend_learned(fe, held)

    return provider


def utterance_loss(state: TrainState, wave: Waveform, label_idx: int) -> float:
    values, _ = frontend_forward(state.frontend, wave)
    logits, _, _ = classifier_forward(values, state.model)
    loss, _ = cross_entropy_loss(logits, label_idx)
    return loss


def utterance_loss_and_grads(
    state: TrainState, wave: Waveform, label_idx: int, frontend_out=None
) -> tuple[float, dict[str, np.ndarray]]:
    """One full forward/backward pass; returns the loss and the gradients of
    the learned tensors, named as state.tensors."""
    if frontend_out is None:
        frontend_out = frontend_forward(state.frontend, wave)
    values, fe_cache = frontend_out
    logits, _, caches = classifier_forward(values, state.model)
    loss, grad_logits = cross_entropy_loss(logits, label_idx)
    grads, grad_values = classifier_backward(grad_logits, caches, state.model)
    grads.update(frontend_backward(state.frontend, grad_values, fe_cache))
    return loss, {name: grads[name] for name in state.tensors}


def predict_label(state: TrainState, wave: Waveform) -> int:
    """Label index for one prepared waveform, as a batch of one."""
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


def evaluate(state: TrainState, utterances: list[Utterance]) -> EvalResult:
    """Deterministic evaluation of the utterances' WAV files in the given
    order, in chunks of PREDICT_BATCH."""
    cfg = state.config

    def features_of(utt):
        wave = prepare_waveform(read_wav(utt.path, cfg.sample_rate), cfg)
        return frontend_forward(state.frontend, wave)[0]

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


def state_from_checkpoint(path) -> TrainState:
    """Rebuild a TrainState with all parameters (the PCEN ones that are not
    learned included) restored bit-exactly; the velocities start at zero. A
    config that is invalid or no longer matches the header's config_hash,
    when it has one, and a tensor missing, extra or of the wrong shape raise
    ConfigError naming the file."""
    tensors, meta = load_checkpoint(path)
    try:
        cfg = config_from_dict(meta["config"])
    except ConfigError as e:
        raise ConfigError(f"{path}: {e}") from e
    if "config_hash" in meta and meta["config_hash"] != config_hash(cfg):
        raise ConfigError(f"{path}: config does not match its config_hash")
    state = make_train_state(cfg)
    targets = checkpoint_tensors(state)
    missing = sorted(set(targets) - set(tensors))
    if missing:
        raise ConfigError(f"{path} lacks tensors {', '.join(missing)}")
    for name, value in tensors.items():
        if name not in targets:
            raise ConfigError(f"{path}: checkpoint tensor '{name}' not used by config")
        if targets[name].shape != value.shape:
            raise ConfigError(
                f"{path}: checkpoint tensor '{name}' has shape {value.shape}, "
                f"expected {targets[name].shape}"
            )
        targets[name][...] = value
    return state


# ---------------------------------------------------------------------------
# Training loop


def train_epoch(state: TrainState, provider, utts, epoch: int) -> list[float]:
    """One SGD pass over utts in a fresh state.rng order; returns the losses.
    A NumericError is raised again prefixed `epoch E, step S, utterance U:`,
    S counting the updates since epoch 1 began."""
    losses = []
    order = state.rng.permutation(len(utts))
    for step, idx in enumerate(order, start=(epoch - 1) * len(utts) + 1):
        utt = utts[idx]
        try:
            loss, grads = utterance_loss_and_grads(
                state, None, LABELS.index(utt.label), provider(utt)
            )
        except NumericError as e:
            raise NumericError(
                f"epoch {epoch}, step {step}, utterance {utt.utt_id}: {e}"
            ) from e
        sgd_momentum_step(state.tensors, grads, state.velocities)
        del grads  # freed before the next step, whose peak memory it would raise
        losses.append(loss)
    return losses


@dataclass
class TrainResult:
    best_epoch: int
    best_valid_uar: float
    log_rows: list[tuple[int, float, float]]
    checkpoint_path: str
    state: TrainState


def train_run(manifest: Manifest, cfg: RunConfig, out_dir) -> TrainResult:
    """Train with early stopping on validation UAR; writes the best
    checkpoint (checkpoint.ckpt), a per-epoch CSV log (train_log.csv), and a
    config echo (config.json) into out_dir."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    train_utts = manifest.split("train")
    valid_utts = manifest.split("valid")
    if cfg.epochs > 0 and (not train_utts or not valid_utts):
        raise ConfigError("training needs non-empty train and valid splits")

    state = make_train_state(cfg)
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
        losses = train_epoch(state, provider, train_utts, epoch)
        epoch_uar = valid_uar()
        log_rows.append((epoch, float(np.mean(losses)), epoch_uar))
        if epoch_uar > best_uar:
            best_uar = epoch_uar
            best_epoch = epoch
            best_tensors = {k: v.copy() for k, v in checkpoint_tensors(state).items()}
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
    checkpoint_path = out_dir / "checkpoint.ckpt"
    save_checkpoint(checkpoint_path, best_tensors, meta)

    write_csv(out_dir / "train_log.csv", log_rows, "epoch,train_loss,valid_uar")
    config_json = json.dumps(config_to_dict(cfg), indent=2, sort_keys=True) + "\n"
    write_atomic(out_dir / "config.json", [config_json.encode()])

    return TrainResult(
        best_epoch=best_epoch,
        best_valid_uar=best_uar,
        log_rows=log_rows,
        checkpoint_path=str(checkpoint_path),
        state=state,
    )


def run_experiment(
    manifest: Manifest, configs, seeds, out_dir, epochs: int, patience: int
) -> list[dict]:
    """Train every (frontend, pcen_learn) config once per seed into
    out_dir/<label>_s<seed>, then score the best checkpoint on the test
    split. One record per run, in config-then-seed order; a repeated config
    or seed, and an invalid one, is refused before anything trains."""
    labels = [config_label(frontend, learn) for frontend, learn in configs]
    for what, items in (("config", labels), ("seed", seeds)):
        repeated = sorted({x for x in items if items.count(x) > 1})
        if repeated:
            raise ConfigError(f"repeated {what}: {', '.join(map(str, repeated))}")
    runs = [
        (label, make_run_config(
            frontend, learn, seed=seed, epochs=epochs, patience=patience
        ))
        for (frontend, learn), label in zip(configs, labels)
        for seed in seeds
    ]
    records = []
    for label, cfg in runs:
        t0 = time.perf_counter()
        result = train_run(manifest, cfg, Path(out_dir) / f"{label}_s{cfg.seed}")
        train_s = time.perf_counter() - t0
        state = state_from_checkpoint(result.checkpoint_path)
        records.append(dict(
            config=label, seed=cfg.seed, best_epoch=result.best_epoch,
            best_valid_uar=result.best_valid_uar,
            test_uar=evaluate(state, manifest.split("test")).uar,
            train_s=train_s, checkpoint=result.checkpoint_path,
        ))
    return records


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
        train_epoch(state, provider, subset, epochs)
        current = mean_loss()
    return OverfitResult(initial, current, epochs, state)
