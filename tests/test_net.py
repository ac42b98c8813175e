"""Classifier pieces against scalar oracles, optimizer closed forms,
checkpoint round-trips, and the gradient check."""

import copy
import math
import re
import tracemalloc

import numpy as np
import pytest

from wavefront import net
from wavefront.data import Utterance, read_wav, write_wav
from wavefront.dsp import Waveform
from wavefront.errors import ConfigError, NumericError, ValidationError
from wavefront.net import (
    attention_forward,
    classifier_forward,
    cross_entropy_loss,
    init_model_params,
    lstm_backward,
    lstm_forward,
    make_run_config,
    make_train_state,
    run_gradcheck,
    sgd_momentum_step,
    utterance_loss_and_grads,
)


def scalar_sigmoid(z):
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def scalar_lstm(x, p):
    """Naive per-gate float implementation used as an oracle."""
    n_frames, n_in = x.shape
    hidden = p.lstm_wh.shape[1]
    h = [0.0] * hidden
    c = [0.0] * hidden
    outputs = []
    for t in range(n_frames):
        z = []
        for j in range(4 * hidden):
            acc = p.lstm_b[j]
            for k in range(n_in):
                acc += p.lstm_wx[j, k] * x[t, k]
            for k in range(hidden):
                acc += p.lstm_wh[j, k] * h[k]
            z.append(acc)
        new_h, new_c = [], []
        for k in range(hidden):
            gi = scalar_sigmoid(z[k])
            gf = scalar_sigmoid(z[hidden + k])
            gg = math.tanh(z[2 * hidden + k])
            go = scalar_sigmoid(z[3 * hidden + k])
            ck = gf * c[k] + gi * gg
            new_c.append(ck)
            new_h.append(go * math.tanh(ck))
        h, c = new_h, new_c
        outputs.append(list(h))
    return np.array(outputs)


def scalar_lstm_backward(x, p, grad_hidden):
    """Per-element, per-frame BPTT written from the LSTM equations, used as
    an oracle. Returns the gradients of sum(grad_hidden * h) w.r.t. lstm.wx,
    lstm.wh, lstm.b and x, and the largest |pre-activation| seen."""
    n_frames, n_in = x.shape
    hidden = p.lstm_wh.shape[1]
    n_z = 4 * hidden
    h_seq, c_seq, gates, z_max = [[0.0] * hidden], [[0.0] * hidden], [], 0.0
    for t in range(n_frames):
        h_prev, c_prev = h_seq[-1], c_seq[-1]
        z = []
        for j in range(n_z):
            acc = p.lstm_b[j]
            for k in range(n_in):
                acc += p.lstm_wx[j, k] * x[t, k]
            for k in range(hidden):
                acc += p.lstm_wh[j, k] * h_prev[k]
            z.append(acc)
        z_max = max(z_max, max(abs(v) for v in z))
        gi = [scalar_sigmoid(z[k]) for k in range(hidden)]
        gf = [scalar_sigmoid(z[hidden + k]) for k in range(hidden)]
        gg = [math.tanh(z[2 * hidden + k]) for k in range(hidden)]
        go = [scalar_sigmoid(z[3 * hidden + k]) for k in range(hidden)]
        c = [gf[k] * c_prev[k] + gi[k] * gg[k] for k in range(hidden)]
        h_seq.append([go[k] * math.tanh(c[k]) for k in range(hidden)])
        c_seq.append(c)
        gates.append((gi, gf, gg, go))
    d_wx = [[0.0] * n_in for _ in range(n_z)]
    d_wh = [[0.0] * hidden for _ in range(n_z)]
    d_b = [0.0] * n_z
    d_x = [[0.0] * n_in for _ in range(n_frames)]
    dh_next = [0.0] * hidden
    dc_next = [0.0] * hidden
    for t in range(n_frames - 1, -1, -1):
        gi, gf, gg, go = gates[t]
        c, c_prev, h_prev = c_seq[t + 1], c_seq[t], h_seq[t]
        dz = [0.0] * n_z
        for k in range(hidden):
            dh = grad_hidden[t, k] + dh_next[k]
            tc = math.tanh(c[k])
            dc = dc_next[k] + dh * go[k] * (1.0 - tc * tc)
            dz[k] = dc * gg[k] * gi[k] * (1.0 - gi[k])
            dz[hidden + k] = dc * c_prev[k] * gf[k] * (1.0 - gf[k])
            dz[2 * hidden + k] = dc * gi[k] * (1.0 - gg[k] * gg[k])
            dz[3 * hidden + k] = dh * tc * go[k] * (1.0 - go[k])
            dc_next[k] = dc * gf[k]
        for j in range(n_z):
            d_b[j] += dz[j]
            for k in range(n_in):
                d_wx[j][k] += dz[j] * x[t, k]
                d_x[t][k] += dz[j] * p.lstm_wx[j, k]
            for k in range(hidden):
                d_wh[j][k] += dz[j] * h_prev[k]
        dh_next = [sum(dz[j] * p.lstm_wh[j, k] for j in range(n_z)) for k in range(hidden)]
    grads = {"lstm.wx": d_wx, "lstm.wh": d_wh, "lstm.b": d_b, "x": d_x}
    return {k: np.array(v) for k, v in grads.items()}, z_max


class TestLstm:
    def test_zero_weights_give_zero_hidden(self):
        hidden = 5
        p = init_model_params(np.random.default_rng(0), 3, hidden, 4, 2)
        p.lstm_wx[:] = 0.0
        p.lstm_wh[:] = 0.0
        p.lstm_b[:] = 0.0
        out, _ = lstm_forward(np.ones((6, 3)), p)
        assert np.all(out == 0.0)

    def test_single_frame(self):
        p = init_model_params(np.random.default_rng(1), 3, 5, 4, 2)
        out, _ = lstm_forward(np.ones((1, 3)), p)
        assert out.shape == (1, 5)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(2)
        p = init_model_params(rng, 3, 5, 4, 2)
        x = rng.standard_normal((4, 3))
        fast, _ = lstm_forward(x, p)
        assert fast == pytest.approx(scalar_lstm(x, p), abs=1e-12)

    def test_non_finite_state_raises_with_timestep(self):
        p = init_model_params(np.random.default_rng(3), 3, 5, 4, 2)
        p.lstm_wx[0, 0] = np.nan
        with pytest.raises(NumericError, match="timestep 0"):
            lstm_forward(np.ones((4, 3)), p)

    def test_first_non_finite_timestep_is_named(self):
        p = init_model_params(np.random.default_rng(3), 3, 5, 4, 2)
        x = np.ones((6, 3))
        x[3, 1] = np.nan
        with pytest.raises(NumericError, match="timestep 3$"):
            lstm_forward(x, p)

    def test_saturated_gates_stay_finite_without_overflow(self):
        # Units 0-2 have every gate's bias at +-30 to +-800, where a naive
        # sigmoid's exp(-z) overflows; units 3-5 stay in range.
        rng = np.random.default_rng(5)
        hidden = 6
        p = init_model_params(rng, 3, hidden, 4, 2)
        sat = (np.arange(4 * hidden) % hidden) < 3
        p.lstm_b[sat] = rng.choice([-1.0, 1.0], sat.sum()) * rng.uniform(
            30.0, 800.0, sat.sum()
        )
        p.lstm_b[[0, hidden]] = [800.0, -800.0]
        x = rng.standard_normal((2, 7, 3))
        with np.errstate(all="raise"):
            fast, _ = lstm_forward(x[0], p)
            per_utt = np.array([classifier_forward(u.T, p)[0] for u in x])
            batched = net.predict_logits(x.transpose(1, 0, 2), p)
        assert np.isfinite(fast).all()
        assert fast == pytest.approx(scalar_lstm(x[0], p), abs=1e-12)
        assert np.max(np.abs(batched - per_utt)) <= 1e-12


class TestLstmBackward:
    @staticmethod
    def compare(x, p, grad_hidden):
        _, cache = lstm_forward(x, p)
        grads, grad_x = lstm_backward(grad_hidden, cache, p)
        grads["x"] = grad_x
        ref, z_max = scalar_lstm_backward(x, p, grad_hidden)
        for name, want in ref.items():
            # relative to the largest entry; lstm.wh is exactly 0 at 1 frame
            err = np.abs(grads[name] - want).max()
            assert err <= 1e-12 * np.abs(want).max(), (name, err)
        return z_max

    @pytest.mark.parametrize("n_frames", [1, 2, 7])
    def test_matches_scalar_bptt(self, n_frames):
        rng = np.random.default_rng(20 + n_frames)
        p = init_model_params(rng, 3, 5, 4, 2)
        p.lstm_b += rng.normal(0.0, 0.5, p.lstm_b.shape)
        x = rng.standard_normal((n_frames, 3))
        self.compare(x, p, rng.standard_normal((n_frames, 5)))

    def test_saturated_gates(self):
        # Units 0-2 have every gate pinned at |z| > 30, where sigmoid is 1.0
        # or below 1e-13 and tanh is +-1; units 3-5 stay in range.
        rng = np.random.default_rng(30)
        hidden = 6
        p = init_model_params(rng, 3, hidden, 4, 2)
        sat = (np.arange(4 * hidden) % hidden) < 3
        p.lstm_b[sat] = 35.0 * rng.choice([-1.0, 1.0], sat.sum())
        x = rng.standard_normal((7, 3))
        z_max = self.compare(x, p, rng.standard_normal((7, hidden)))
        assert z_max > 30.0


class TestAttention:
    def setup_method(self):
        rng = np.random.default_rng(4)
        self.p = init_model_params(rng, 3, 5, 4, 2)
        self.h = rng.standard_normal((7, 5))

    def test_weights_are_a_distribution(self):
        _, weights, _ = attention_forward(self.h, self.p)
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(weights > 0)

    def test_identical_states_give_uniform_weights(self):
        h = np.tile(self.h[0], (248, 1))
        _, weights, _ = attention_forward(h, self.p)
        assert weights == pytest.approx(np.full(248, 1 / 248), abs=1e-12)

    def test_context_is_convex_combination(self):
        _, weights, cache = attention_forward(self.h, self.p)
        assert cache.context == pytest.approx(weights @ self.h)


class TestCrossEntropy:
    def test_symmetric_logits(self):
        loss, _ = cross_entropy_loss(np.zeros(2), 0)
        assert loss == pytest.approx(math.log(2.0), abs=1e-12)

    def test_gradient_sums_to_zero(self):
        _, grad = cross_entropy_loss(np.array([0.3, -1.2, 0.8]), 2)
        assert grad.sum() == pytest.approx(0.0, abs=1e-12)

    def test_extreme_logits_stay_finite(self):
        loss, grad = cross_entropy_loss(np.array([1000.0, 0.0]), 0)
        assert loss == pytest.approx(0.0, abs=1e-12)
        assert np.all(np.isfinite(grad))

    def test_out_of_range_label(self):
        with pytest.raises(ValueError):
            cross_entropy_loss(np.zeros(2), 2)


def zero_velocities(tensors):
    return {k: np.zeros_like(v) for k, v in tensors.items()}


class TestSgdMomentum:
    def test_paper_hyperparameters(self):
        assert (net.LEARNING_RATE, net.MOMENTUM, net.PREEMPHASIS) == (0.001, 0.98, 0.97)

    def test_zero_gradient_keeps_params(self):
        tensors = {"w": np.array([1.0, 2.0])}
        velocities = zero_velocities(tensors)
        sgd_momentum_step(tensors, {"w": np.zeros(2)}, velocities)
        assert tensors["w"] == pytest.approx([1.0, 2.0])

    def test_first_step_is_plain_sgd(self):
        tensors = {"w": np.array([1.0])}
        sgd_momentum_step(tensors, {"w": np.array([2.0])}, zero_velocities(tensors))
        assert tensors["w"] == pytest.approx([1.0 - 0.001 * 2.0])

    def test_velocity_follows_geometric_series(self):
        mu, g = 0.98, 3.0
        tensors = {"w": np.array([0.0])}
        velocities = zero_velocities(tensors)
        for k in range(1, 401):
            sgd_momentum_step(tensors, {"w": np.array([g])}, velocities)
            closed = g * (1.0 - mu**k) / (1.0 - mu)
            assert velocities["w"][0] == pytest.approx(closed, rel=1e-12)
            if k == 200:
                v200 = velocities["w"][0]
        limit = g / (1.0 - mu)  # 50 g
        assert limit == pytest.approx(50.0 * g)
        # geometric approach: the residual gap is exactly mu^k
        assert abs(v200 - limit) / limit == pytest.approx(mu**200, rel=1e-9)
        assert abs(velocities["w"][0] - limit) / limit < 0.01  # k = 400

    def test_shape_mismatch_raises(self):
        tensors = {"w": np.zeros(3)}
        with pytest.raises(ValueError):
            sgd_momentum_step(tensors, {"w": np.zeros(4)}, zero_velocities(tensors))

    def test_missing_gradient_raises(self):
        tensors = {"w": np.zeros(3)}
        with pytest.raises(ValueError):
            sgd_momentum_step(tensors, {}, zero_velocities(tensors))


class TestRunConfig:
    def test_unknown_frontend(self):
        with pytest.raises(ConfigError):
            make_run_config("spectrogram")

    def test_pcen_mask_on_non_pcen_frontend(self):
        with pytest.raises(ConfigError):
            make_run_config("mel_mvn", pcen_learn=("r",))

    def test_unknown_pcen_parameter(self):
        with pytest.raises(ConfigError):
            make_run_config("mel_pcen", pcen_learn=("gamma",))

    def test_default_mask_for_pcen_frontend(self):
        cfg = make_run_config("tdfb_pcen")
        assert cfg.pcen_learn == ("r", "alpha", "delta")

    def test_round_trip_through_dict(self):
        cfg = make_run_config("tdfb_pcen", pcen_learn=("r",), seed=5, epochs=3)
        assert net.config_from_dict(net.config_to_dict(cfg)) == cfg

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"dropout": 0.5}, "unknown config keys: dropout"),
            ({"epochs": -5}, "epochs must be >= 0"),
            ({"patience": 0}, "patience must be >= 1"),
            ({"epochs": "5"}, "'epochs' has invalid value '5'"),
            ({"hidden_size": 6.0}, "'hidden_size' has invalid value 6.0"),
            ({"seed": True}, "'seed' has invalid value True"),
            ({"pcen_learn": "r"}, "'pcen_learn' has invalid value 'r'"),
            ({"pcen_learn": ["gamma"]}, "unknown PCEN parameters: gamma"),
            ({"frontend": "spectrogram"}, "unknown frontend 'spectrogram'"),
            # keys of version-2 configs, which are constants, not settings
            ({"n_labels": 3}, "unknown config keys: n_labels"),
            ({"learning_rate": 0.001, "momentum": 0.98, "preemphasis_coeff": 0.97},
             "unknown config keys: learning_rate, momentum, preemphasis_coeff"),
        ],
    )
    def test_dict_gets_the_checks_of_make_run_config(self, change, message):
        d = net.config_to_dict(make_run_config("mel_pcen"))
        d.update(change)
        with pytest.raises(ConfigError, match=message):
            net.config_from_dict(d)

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"hop": 0}, "hop must be a positive integer, got 0"),
            ({"win_len": 0}, "win_len must be a positive integer"),
            ({"n_filters": 0}, "n_filters must be a positive integer"),
            ({"sample_rate": 0}, "sample_rate must be a positive integer"),
            ({"hop": 160.0}, "hop must be a positive integer, got 160.0"),
            ({"clip_seconds": -1.0}, "clip_seconds must be finite and > 0"),
            ({"clip_seconds": float("inf")}, "clip_seconds must be finite and > 0"),
            ({"hidden_size": 0}, "hidden_size must be a positive integer"),
            ({"attn_size": -1}, "attn_size must be a positive integer"),
            ({"clip_seconds": float("nan")}, "clip_seconds must be finite and > 0"),
            ({"clip_seconds": 0.0}, "clip_seconds must be finite and > 0"),
            ({"n_fft": 0}, "n_fft must be a positive integer, got 0"),
            ({"n_filters": 1.5}, "n_filters must be a positive integer, got 1.5"),
            ({"n_fft": 500}, "n_fft must be a power of two >= win_len 400, got 500"),
            ({"n_fft": 256}, "n_fft must be a power of two >= win_len 400, got 256"),
            ({"clip_seconds": 0.02}, "win_len 400 exceeds the clip's 320 samples"),
            ({"clip_seconds": 1e9}, "clip_seconds must be <= 60.0, got 1000000000.0"),
            ({"sample_rate": 10**9}, "sample_rate must be <= 48000"),
            ({"n_fft": 2**20}, "n_fft must be <= 8192, got 1048576"),
            ({"n_filters": 513}, "n_filters must be <= 512, got 513"),
            ({"hidden_size": 10**30}, "hidden_size must be <= 1024"),
            ({"attn_size": 1025}, "attn_size must be <= 1024, got 1025"),
            ({"seed": -1}, "seed must be a non-negative integer, got -1"),
        ],
    )
    def test_out_of_range_values(self, change, message):
        with pytest.raises(ConfigError, match=message):
            make_run_config("mel", **change)

    def test_range_edges_are_accepted(self):
        cfg = make_run_config("mel", hop=1)
        assert cfg.hop == 1
        cfg = make_run_config("mel", win_len=512, n_fft=512, clip_seconds=0.032)
        assert (cfg.win_len, cfg.n_fft, cfg.clip_seconds) == (512, 512, 0.032)
        for name, bound in net.MAX_SIZES.items():
            cfg = make_run_config("tdfb_pcen", **{name: bound})
            assert getattr(cfg, name) == bound

    @pytest.mark.parametrize("frontend", net.FRONTENDS)
    def test_paper_shapes_pass_the_size_product_bound_widely(self, frontend):
        cfg = make_run_config(frontend)
        samples = round(cfg.clip_seconds * cfg.sample_rate)
        frames = (samples - cfg.win_len) // cfg.hop + 1
        assert 16 * max(frames * cfg.n_fft, cfg.n_filters * samples) < net.MAX_SIZE_PRODUCT

    # Each `at` config's product is exactly 2**26; `past` is one step more.
    # 2**17 frames of 512 points at hop 1
    MEL_AT = dict(sample_rate=16384, win_len=512, hop=1, clip_seconds=(2**17 + 511) / 16384)
    TDFB_AT = dict(sample_rate=32768, clip_seconds=32.0)  # 64 filters x 2**20 samples

    @pytest.mark.parametrize(
        "frontend, at, past, product",
        [
            ("mel", MEL_AT, dict(MEL_AT, clip_seconds=(2**17 + 512) / 16384),
             "frames x n_fft"),
            ("tdfb", TDFB_AT, dict(TDFB_AT, n_filters=65), "n_filters x clip samples"),
        ],
    )
    def test_size_product_at_the_bound_and_just_past(self, frontend, at, past, product):
        assert net.MAX_SIZE_PRODUCT == 2**26
        make_run_config(frontend, **at)
        with pytest.raises(ConfigError, match=f"{product} must be <= {2**26}, got "):
            make_run_config(frontend, **past)

    @pytest.mark.parametrize("frontend", net.FRONTENDS)
    def test_a_minute_at_hop_1_is_refused(self, frontend):
        # about 960 000 frames: only the config is built, nothing is run
        with pytest.raises(ConfigError, match="frames x n_fft must be <="):
            make_run_config(frontend, clip_seconds=60.0, hop=1)

    def test_dict_without_frontend(self):
        d = net.config_to_dict(make_run_config("mel"))
        del d["frontend"]
        with pytest.raises(ConfigError, match="unknown frontend"):
            net.config_from_dict(d)


def toy_config(frontend="tdfb_pcen", **kw):
    sizes = dict(
        n_filters=2,
        win_len=9,
        hop=4,
        n_fft=64,
        hidden_size=4,
        attn_size=3,
        clip_seconds=64 / 16000,
    )
    return make_run_config(frontend, **{**sizes, **kw})


class TestEndToEnd:
    def test_frozen_tensors_are_not_learnable(self):
        state = make_train_state(toy_config(pcen_learn=("r",)))
        assert "pcen.r" in state.tensors
        assert "pcen.alpha" not in state.tensors
        assert "pcen.delta" not in state.tensors
        assert set(state.velocities) == set(state.tensors)
        # checkpoints store every parameter, learned or not, and no velocity
        assert set(net.checkpoint_tensors(state)) == set(state.tensors) | {
            "pcen.alpha", "pcen.delta"
        }
        wave = Waveform(np.random.default_rng(0).standard_normal(64), 16000)
        _, grads = utterance_loss_and_grads(state, wave, 0)
        assert set(grads) == set(state.tensors)

    def test_identical_calls_give_bit_identical_gradients(self):
        state = make_train_state(toy_config(seed=3))
        wave = Waveform(np.random.default_rng(1).standard_normal(64), 16000)
        loss_a, grads_a = utterance_loss_and_grads(state, wave, 1)
        loss_b, grads_b = utterance_loss_and_grads(state, wave, 1)
        assert loss_a == loss_b
        for name in grads_a:
            assert np.array_equal(grads_a[name], grads_b[name])

    def test_features_shape_for_every_frontend(self):
        rng = np.random.default_rng(2)
        wave = Waveform(0.1 * rng.standard_normal(40000), 16000)
        for frontend in net.FRONTENDS:
            state = make_train_state(make_run_config(frontend))
            values, _ = net.frontend_forward(state.frontend, wave)
            assert values.shape == (64, 248), frontend


class TestFeatureProvider:
    @pytest.mark.parametrize("frontend", net.FRONTENDS)
    def test_matches_frontend_forward_and_reads_once(
        self, small_corpus, monkeypatch, frontend
    ):
        manifest, _ = small_corpus
        utt = manifest.split("train")[0]
        state = make_train_state(make_run_config(frontend, seed=2))
        wave = net.prepare_waveform(net.read_wav(utt.path), state.config)
        values, cache = net.frontend_forward(state.frontend, wave)
        probe = np.random.default_rng(3).standard_normal(values.shape)
        grads = net.frontend_backward(state.frontend, probe, cache)
        reads = []
        real_read = net.read_wav
        monkeypatch.setattr(
            net, "read_wav", lambda *args: reads.append(args) or real_read(*args)
        )
        provider = net.make_feature_provider(state)
        for _ in range(2):
            got, got_cache = provider(utt)
            assert np.array_equal(got, values)
            got_grads = net.frontend_backward(state.frontend, probe, got_cache)
            assert set(got_grads) == set(grads)
            for name, g in grads.items():
                assert np.array_equal(got_grads[name], g), name
        assert len(reads) == 1

    def test_overfit_check_needs_five_per_label(self):
        utts = [
            Utterance(f"u{i}", f"/nonexistent/u{i}.wav", label, f"s{i}", "train")
            for i, label in enumerate(["control"] * 5 + ["dysarthric"] * 4)
        ]
        with pytest.raises(ValidationError, match="5 train utterances per label"):
            net.overfit_check(net.Manifest(utts), make_run_config("mel"))


class TestMelMvnPadding:
    @staticmethod
    def mvn_features(raw, clip_seconds):
        cfg = make_run_config("mel_mvn", clip_seconds=clip_seconds)
        fe = net.build_frontend(cfg)
        return net.frontend_forward(fe, net.prepare_waveform(raw, cfg))[0]

    def test_padding_leaves_statistics_unchanged(self):
        rng = np.random.default_rng(11)
        raw = Waveform(0.1 * rng.standard_normal(24000), 16000)
        n_signal_frames = 1 + (24000 - 400) // 160
        short = self.mvn_features(raw, 2.5)
        long = self.mvn_features(raw, 3.0)
        assert short.shape == (64, 248) and long.shape == (64, 298)
        np.testing.assert_allclose(
            short[:, :n_signal_frames], long[:, :n_signal_frames], rtol=0, atol=1e-12
        )
        signal = short[:, :n_signal_frames]
        np.testing.assert_allclose(signal.mean(axis=1), 0.0, atol=1e-10)
        np.testing.assert_allclose(signal.std(axis=1), 1.0, atol=1e-10)

    def test_clip_shorter_than_two_frames(self):
        rng = np.random.default_rng(12)
        values = self.mvn_features(Waveform(rng.standard_normal(100), 16000), 2.5)
        assert values.shape == (64, 248)
        assert np.all(np.isfinite(values))


class TestGradcheckRegistry:
    def test_all_ops_pass(self):
        rows = run_gradcheck()
        assert rows, "the gradient check returned no rows"
        for row in rows:
            assert row.passed, f"{row.config}/{row.tensor}: {row.max_rel_err:.2e}"

    def test_one_row_per_config_and_tensor(self):
        rows = run_gradcheck()
        expected = []
        for kind, learn in net.ABLATION_CONFIGS:
            label = f"{kind}:{','.join(learn)}" if learn else kind
            state = make_train_state(make_run_config(kind, learn))
            expected += [(label, name) for name in state.tensors]
        assert [(row.config, row.tensor) for row in rows] == expected
        for row in rows:
            assert row.passed, f"{row.config}/{row.tensor}: {row.max_rel_err:.2e}"

    @pytest.mark.acceptance
    def test_all_passes_over_40_seeds(self):
        for seed in range(40):
            for row in run_gradcheck(seed):
                assert row.passed, (
                    f"seed {seed} {row.config}/{row.tensor}: {row.max_rel_err:.2e}"
                )

    def test_selftest_detects_broken_gradient(self):
        # The harness itself: a gradient 1 % off in one entry must fail.
        rng = np.random.default_rng(0)
        w = rng.standard_normal((3, 4))
        x = rng.standard_normal(4)
        probe = rng.standard_normal(3)

        def loss_fn():
            return float((w @ x) @ probe)

        numeric = net.numeric_gradient(loss_fn, w)
        right = np.outer(probe, x)
        wrong = right.copy()
        wrong[0, 0] *= 1.01
        assert net.max_relative_error(right, numeric) < net.GRADCHECK_THRESHOLD
        assert net.max_relative_error(wrong, numeric) > net.GRADCHECK_THRESHOLD


class TestCheckpoint:
    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        tensors = {
            "a": rng.standard_normal((3, 4)),
            "b": rng.standard_normal(7),
            "nested.name": rng.standard_normal((2, 2, 2)),
        }
        meta = {"config": {"frontend": "mel"}, "seed": 1, "epoch": 4}
        path = tmp_path / "test.ckpt"
        net.save_checkpoint(path, tensors, meta)
        loaded, loaded_meta = net.load_checkpoint(path)
        assert loaded_meta["seed"] == 1 and loaded_meta["epoch"] == 4
        assert set(loaded) == set(tensors)
        for name in tensors:
            assert np.array_equal(loaded[name], tensors[name])

    def test_rejects_non_checkpoint_file(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"not a checkpoint at all")
        with pytest.raises(ConfigError):
            net.load_checkpoint(path)

    def test_truncated_header_names_file(self, tmp_path):
        path = tmp_path / "cut.ckpt"
        net.save_checkpoint(path, {"a": np.ones(3)}, {"seed": 0})
        path.write_bytes(path.read_bytes()[:10])
        with pytest.raises(ConfigError, match="cut.ckpt"):
            net.load_checkpoint(path)

    def test_missing_tensor_is_named(self, tmp_path):
        cfg = toy_config(frontend="mel", seed=9)
        tensors = net.checkpoint_tensors(make_train_state(cfg))
        del tensors["out.w"]
        meta = {"config": net.config_to_dict(cfg), "seed": cfg.seed, "epoch": 0}
        path = tmp_path / "partial.ckpt"
        net.save_checkpoint(path, tensors, meta)
        with pytest.raises(ConfigError, match=r"out\.w"):
            net.state_from_checkpoint(path)

    def test_failed_write_keeps_earlier_file(self, tmp_path):
        path = tmp_path / "kept.ckpt"
        net.save_checkpoint(path, {"a": np.ones(3)}, {"seed": 0})
        before = path.read_bytes()

        def chunks():
            yield b"WFCP"
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            net.write_atomic(path, chunks())
        assert path.read_bytes() == before
        assert [f.name for f in tmp_path.iterdir()] == ["kept.ckpt"]

    def test_failed_replace_keeps_earlier_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "kept.ckpt"
        net.save_checkpoint(path, {"a": np.ones(3)}, {"seed": 0})
        before = path.read_bytes()

        def refuse(src, dst):
            raise OSError("replace refused")

        monkeypatch.setattr(net.os, "replace", refuse)
        with pytest.raises(OSError, match="replace refused"):
            net.save_checkpoint(path, {"a": np.zeros(3)}, {"seed": 1})
        assert path.read_bytes() == before
        assert [f.name for f in tmp_path.iterdir()] == ["kept.ckpt"]

    def test_state_restores_every_tensor(self, tmp_path):
        cfg = toy_config(seed=9)
        state = make_train_state(cfg)
        wave = Waveform(np.random.default_rng(5).standard_normal(64), 16000)
        for _ in range(3):
            net.step_utterance(state, wave, 1)
        tensors = net.checkpoint_tensors(state)
        meta = {
            "config": net.config_to_dict(cfg),
            "seed": cfg.seed,
            "epoch": 3,
            "config_hash": net.config_hash(cfg),
        }
        path = tmp_path / "trained.ckpt"
        net.save_checkpoint(path, tensors, meta)
        restored = net.state_from_checkpoint(path)
        for name, value in net.checkpoint_tensors(restored).items():
            assert np.array_equal(value, tensors[name]), name


def broadcast_predict_logits(x, p, ids=None):
    """predict_logits with the (4H,) gate constants broadcast over the batch
    at every step and fresh temporaries per step: the byte oracle for its
    buffered recurrence."""
    n_frames, batch, _ = x.shape
    h = p.hidden_size
    wx, wh, b, scale, offset = net._tanh_gate_weights(p)
    wx_t = np.ascontiguousarray(wx.T)
    wh_t = np.ascontiguousarray(wh.T)
    attn1_w_t = np.ascontiguousarray(p.attn1_w.T)
    h_prev = np.zeros((batch, h))
    c_prev = np.zeros((batch, h))
    slab = np.empty((min(net.SLAB, n_frames), batch, h))
    bad = np.zeros((n_frames, batch), dtype=bool)
    run_max = np.full(batch, -np.inf)
    run_sum = np.zeros(batch)
    context = np.zeros((batch, h))
    for start in range(0, n_frames, net.SLAB):
        stop = min(start + net.SLAB, n_frames)
        states = slab[: stop - start]
        for t in range(start, stop):
            g = x[t] @ wx_t + b
            g += h_prev @ wh_t
            np.tanh(g, out=g)
            g *= scale
            g += offset
            c_prev = g[:, h : 2 * h] * c_prev + g[:, :h] * g[:, 2 * h : 3 * h]
            h_prev = np.multiply(g[:, 3 * h :], np.tanh(c_prev), out=states[t - start])
        bad[start:stop] = ~np.isfinite(states).all(axis=2)
        if bad[:stop].any():
            continue
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


class TestEvaluate:
    def make_state_and_utts(self, tmp_path, frontend="tdfb", n=10, n_samples=64, **kw):
        """A toy state, n utterances in WAV files under tmp_path, and
        provider(utt), the prepared waveform that evaluate reads for it."""
        state = make_train_state(toy_config(frontend=frontend, seed=7, **kw))
        rng = np.random.default_rng(8)
        tmp_path.mkdir(exist_ok=True)
        utts = []
        for i in range(n):
            label = "control" if i % 2 == 0 else "dysarthric"
            path = str(tmp_path / f"u{i}.wav")
            utt = Utterance(f"u{i}", path, label, f"s{i}", "test")
            utts.append(utt)
            samples = np.clip(0.3 * rng.standard_normal(n_samples), -0.99, 0.99)
            write_wav(utt.path, Waveform(samples, 16000))

        def provider(utt):
            return net.prepare_waveform(read_wav(utt.path), state.config)

        return state, utts, provider

    def test_batched_matches_per_utterance(self, tmp_path):
        # One utterance, one full chunk, one past it (two chunks) and three
        # chunks, the last one partial.
        sizes = [1, net.PREDICT_BATCH, net.PREDICT_BATCH + 1, 2 * net.PREDICT_BATCH + 3]
        for frontend in net.FRONTENDS:
            state, utts, provider = self.make_state_and_utts(
                tmp_path / frontend, frontend, n=max(sizes), n_samples=800,
                n_filters=6, hidden_size=9, attn_size=5, clip_seconds=800 / 16000,
            )
            rng = np.random.default_rng(9)
            for tensor in state.model.tensors().values():  # biases start at 0
                tensor += 0.3 * rng.standard_normal(tensor.shape)
            features = {
                u.utt_id: net.frontend_forward(state.frontend, provider(u))[0]
                for u in utts
            }
            per_utt = np.array(
                [classifier_forward(features[u.utt_id], state.model)[0] for u in utts]
            )
            for n in sizes:
                batched = net.batched_logits(
                    state.model, utts[:n], lambda u: features[u.utt_id]
                )
                assert batched.shape == per_utt[:n].shape
                assert np.max(np.abs(batched - per_utt[:n])) <= 1e-12, (frontend, n)
                expected = [net.LABELS[i] for i in np.argmax(per_utt[:n], axis=1)]
                result = net.evaluate(state, utts[:n])
                assert result.predictions == expected, (frontend, n)
            assert net.predict_label(state, provider(utts[3])) == np.argmax(per_utt[3])

    @pytest.mark.parametrize("n_full,rest", [(0, 0), (0, 1), (1, 0), (2, 3)])
    def test_chunks_are_predict_batch_then_the_rest(self, monkeypatch, n_full, rest):
        n = n_full * net.PREDICT_BATCH + rest
        chunks = [net.PREDICT_BATCH] * n_full + [rest] * (rest > 0)
        p = init_model_params(np.random.default_rng(1), 3, 4, 2, 2)
        seen = []
        predict = net.predict_logits

        def recording(x, p, ids=None):
            seen.append(x.shape[1])
            return predict(x, p, ids)

        monkeypatch.setattr(net, "predict_logits", recording)
        utts = [Utterance(f"u{i}", "", "control", "s", "test") for i in range(n)]
        logits = net.batched_logits(p, utts, lambda u: np.ones((3, 5)))
        assert seen == chunks
        assert logits.shape == (n, 2)

    @pytest.mark.parametrize("batch", [1, 3, 8, 20, 24])
    def test_predict_logits_at_paper_shapes(self, batch):
        # BLAS picks its kernels by shape: 64 channels, 248 frames, H=60, A=50.
        rng = np.random.default_rng(40 + batch)
        p = init_model_params(rng, 64, 60, 50, 2)
        for tensor in p.tensors().values():  # biases start at 0
            tensor += 0.3 * rng.standard_normal(tensor.shape)
        x = rng.standard_normal((248, batch, 64))
        per_utt = np.array([classifier_forward(x[:, i].T, p)[0] for i in range(batch)])
        batched = net.predict_logits(x, p)
        assert batched.tobytes() == broadcast_predict_logits(x, p).tobytes()
        assert np.max(np.abs(batched - per_utt)) <= 1e-12
        assert (np.argmax(batched, axis=1) == np.argmax(per_utt, axis=1)).all()

    @pytest.mark.parametrize("frontend", net.FRONTENDS)
    def test_predict_logits_matches_the_broadcast_loop_bit_for_bit(
        self, tmp_path, frontend
    ):
        # Chunks of 1, 8, PREDICT_BATCH and 24 utterances, as views of one
        # block like batched_logits' partial chunks; then a NaN in a later
        # slab must be reported as the broadcast loop reports it.
        state, utts, provider = self.make_state_and_utts(
            tmp_path, frontend, n=24, n_samples=800, n_filters=6, hidden_size=9,
            attn_size=5, clip_seconds=800 / 16000,
        )
        rng = np.random.default_rng(11)
        for tensor in state.model.tensors().values():  # biases start at 0
            tensor += 0.3 * rng.standard_normal(tensor.shape)
        x = np.stack(
            [net.frontend_forward(state.frontend, provider(u))[0].T for u in utts],
            axis=1,
        )
        assert x.shape[0] > 4 * net.SLAB
        for batch in (1, 8, net.PREDICT_BATCH, 24):
            got = net.predict_logits(x[:, :batch], state.model)
            want = broadcast_predict_logits(x[:, :batch], state.model)
            assert got.tobytes() == want.tobytes(), batch
        x[4 * net.SLAB + 1, 5, 2] = np.nan
        ids = [u.utt_id for u in utts]
        with pytest.raises(NumericError) as want:
            broadcast_predict_logits(x, state.model, ids)
        with pytest.raises(NumericError, match=f"^{re.escape(str(want.value))}$"):
            net.predict_logits(x, state.model, ids)

    def test_predict_logits_holds_no_per_frame_block(self):
        # A (frames, batch, H) hidden block alone would be 2.9 MB here; the
        # slab-wise running softmax keeps the peak below the input's size.
        rng = np.random.default_rng(41)
        p = init_model_params(rng, 64, 60, 50, 2)
        x = rng.standard_normal((248, 24, 64))
        tracemalloc.start()
        try:
            net.predict_logits(x, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < x.nbytes

    def test_batched_matches_evaluate_at_paper_shapes(self, tmp_path):
        state, utts, provider = self.make_state_and_utts(
            tmp_path, "mel", n=19, n_samples=36_000, n_filters=64, win_len=400,
            hop=160, n_fft=512, hidden_size=60, attn_size=50, clip_seconds=2.5,
        )
        rng = np.random.default_rng(10)
        for tensor in state.model.tensors().values():
            tensor += 0.3 * rng.standard_normal(tensor.shape)
        features = {
            u.utt_id: net.frontend_forward(state.frontend, provider(u))[0]
            for u in utts
        }
        assert features["u0"].shape == (64, 248)

        def per_utt():
            return np.array(
                [classifier_forward(features[u.utt_id], state.model)[0] for u in utts]
            )

        # The noise clips score alike: move the boundary midway between the
        # two middle margins, so that both labels are predicted and no
        # margin sits near 0.
        margins = np.sort(np.diff(per_utt(), axis=1).ravel())
        state.model.out_b[1] -= margins[8:10].mean()
        want = per_utt()
        batched = net.batched_logits(state.model, utts, lambda u: features[u.utt_id])
        assert np.max(np.abs(batched - want)) <= 1e-12
        expected = [net.LABELS[i] for i in np.argmax(want, axis=1)]
        assert set(expected) == set(net.LABELS)
        assert [net.LABELS[i] for i in np.argmax(batched, axis=1)] == expected
        assert net.evaluate(state, utts).predictions == expected

    def test_non_finite_state_names_the_utterance(self, tmp_path):
        state, utts, provider = self.make_state_and_utts(tmp_path, n=12)
        features = {
            u.utt_id: net.frontend_forward(state.frontend, provider(u))[0]
            for u in utts
        }
        features["u10"] = features["u10"].copy()
        features["u10"][1, 2] = np.nan
        with pytest.raises(NumericError, match="utterance u10 at timestep 2"):
            net.batched_logits(state.model, utts, lambda u: features[u.utt_id])
        x = np.stack([features[u.utt_id].T for u in utts[8:]], axis=1)
        with pytest.raises(NumericError, match="utterance u10 at timestep 2"):
            net.predict_logits(x, state.model, [u.utt_id for u in utts[8:]])

    def test_non_finite_state_in_a_later_slab_of_the_second_chunk(self):
        # Row 5 of the second chunk turns non-finite at frame 200, in the
        # seventh slab. Row 7 turns non-finite earlier, at frame 5, but in a
        # later row: the first row is named, with its first non-finite
        # timestep.
        assert net.SLAB < 200
        first, later = net.PREDICT_BATCH + 5, net.PREDICT_BATCH + 7
        rng = np.random.default_rng(12)
        p = init_model_params(rng, 3, 4, 2, 2)
        utts = [
            Utterance(f"u{i}", "", "control", "s", "test")
            for i in range(net.PREDICT_BATCH + 10)
        ]
        features = {u.utt_id: rng.standard_normal((3, 248)) for u in utts}
        features[f"u{first}"][1, 200] = np.nan
        features[f"u{later}"][0, 5] = np.nan
        message = f"utterance u{first} at timestep 200$"
        with pytest.raises(NumericError, match=message):
            net.batched_logits(p, utts, lambda u: features[u.utt_id])
        second = utts[net.PREDICT_BATCH :]
        x = np.stack([features[u.utt_id].T for u in second], axis=1)
        with pytest.raises(NumericError, match=message):
            net.predict_logits(x, p, [u.utt_id for u in second])

    def test_unequal_feature_lengths_are_rejected(self, tmp_path):
        # evaluate pads every clip to clip_seconds; batched_logits still
        # refuses a feature map whose shape differs from the first one's.
        state, utts, provider = self.make_state_and_utts(tmp_path, n=4)
        short = Waveform(np.zeros(40), 16000)

        def features_of(u):
            wave = short if u.utt_id == "u2" else provider(u)
            return net.frontend_forward(state.frontend, wave)[0]

        with pytest.raises(ValueError, match="utterance u2"):
            net.batched_logits(state.model, utts, features_of)

    def test_confusion_counts_sum_to_n(self, tmp_path):
        state, utts, provider = self.make_state_and_utts(tmp_path)
        result = net.evaluate(state, utts)
        total = sum(sum(row.values()) for row in result.confusion.values())
        assert total == result.n == len(utts)


class TestTrainRun(object):
    def test_mel_smoke_run(self, small_corpus, tmp_path):
        manifest, _ = small_corpus
        cfg = make_run_config("mel", seed=0, epochs=2, patience=5)
        result = net.train_run(manifest, cfg, tmp_path / "run")
        assert len(result.log_rows) == 2
        assert (tmp_path / "run" / "train_log.csv").exists()
        assert (tmp_path / "run" / "config.json").exists()
        # reloading the best checkpoint reproduces the logged validation UAR
        state = net.state_from_checkpoint(result.checkpoint_path)
        ev = net.evaluate(state, manifest.split("valid"))
        assert ev.uar == result.best_valid_uar

    def test_epochs_zero_saves_initial_checkpoint(self, small_corpus, tmp_path):
        manifest, _ = small_corpus
        cfg = make_run_config("tdfb_pcen", seed=0, epochs=0)
        result = net.train_run(manifest, cfg, tmp_path / "init_run")
        state = net.state_from_checkpoint(result.checkpoint_path)
        assert np.all(state.frontend.pcen.r == 0.5)
        assert np.all(state.frontend.pcen.alpha == 0.98)
        assert np.all(state.frontend.pcen.delta == 2.0)

    def test_step_error_names_the_epoch_and_utterance(
        self, small_corpus, tmp_path, monkeypatch
    ):
        # alpha = -400 overflows PCEN on the first step of epoch 1.
        manifest, _ = small_corpus
        state = make_train_state(make_run_config("mel_pcen", seed=0, epochs=1))
        state.frontend.pcen.alpha[:] = -400.0
        order = copy.deepcopy(state.rng).permutation(len(manifest.split("train")))
        first = re.escape(manifest.split("train")[order[0]].utt_id)
        monkeypatch.setattr(net, "make_train_state", lambda cfg: state)
        with pytest.raises(NumericError) as e:
            net.train_run(manifest, state.config, tmp_path / "run")
        expected = rf"epoch 1, utterance {first}: non-finite PCEN output at channel \d+"
        assert re.fullmatch(expected + r", frame \d+", str(e.value)), str(e.value)

    def test_early_stopping_bounds_improvement_gaps(self, small_corpus, tmp_path):
        manifest, _ = small_corpus
        cfg = make_run_config("mel", seed=1, epochs=10, patience=2)
        result = net.train_run(manifest, cfg, tmp_path / "es_run")
        best = -1.0
        last_improvement = 0
        for epoch, _, epoch_uar in result.log_rows:
            if epoch_uar > best:
                best = epoch_uar
                last_improvement = epoch
            else:
                assert epoch - last_improvement <= cfg.patience
        stopped_early = len(result.log_rows) < cfg.epochs
        if stopped_early:
            assert result.log_rows[-1][0] - last_improvement == cfg.patience
