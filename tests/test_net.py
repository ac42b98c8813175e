"""Classifier pieces against scalar oracles, optimizer closed forms,
checkpoint round-trips, and the gradient-check registry."""

import math

import numpy as np
import pytest

from wavefront import net
from wavefront.data import Utterance
from wavefront.dsp import Waveform
from wavefront.errors import ConfigError, NumericError, ValidationError
from wavefront.net import (
    attention_forward,
    classifier_forward,
    cross_entropy_loss,
    init_model_params,
    init_optimizer,
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

    def test_sigmoid_matches_masked_two_branch_form(self):
        z = np.concatenate([
            np.random.default_rng(4).normal(0.0, 8.0, 1000),
            [0.0, -0.0, 1e-300, -1e-300, 36.0, -36.0, 745.0, -745.0, 800.0, -800.0],
        ])
        ref = np.empty_like(z)
        pos = z >= 0
        ref[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        ref[~pos] = ez / (1.0 + ez)
        assert np.array_equal(net._sigmoid(z), ref)


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

    def test_score_shift_invariance(self):
        _, base, _ = attention_forward(self.h, self.p)
        # shifting the score bias adds a constant to every score
        self.p.attn2_b[0] += 7.5
        _, moved, _ = attention_forward(self.h, self.p)
        self.p.attn2_b[0] -= 7.5
        assert moved == pytest.approx(base, abs=1e-12)

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


class TestSgdMomentum:
    def test_zero_gradient_keeps_params(self):
        tensors = {"w": np.array([1.0, 2.0])}
        state = init_optimizer(tensors, 0.98, 0.001)
        sgd_momentum_step(tensors, {"w": np.zeros(2)}, state)
        assert tensors["w"] == pytest.approx([1.0, 2.0])

    def test_first_step_is_plain_sgd(self):
        tensors = {"w": np.array([1.0])}
        state = init_optimizer(tensors, 0.98, 0.001)
        sgd_momentum_step(tensors, {"w": np.array([2.0])}, state)
        assert tensors["w"] == pytest.approx([1.0 - 0.001 * 2.0])

    def test_velocity_follows_geometric_series(self):
        mu, lr, g = 0.98, 0.001, 3.0
        tensors = {"w": np.array([0.0])}
        state = init_optimizer(tensors, mu, lr)
        for k in range(1, 401):
            sgd_momentum_step(tensors, {"w": np.array([g])}, state)
            closed = g * (1.0 - mu**k) / (1.0 - mu)
            assert state.velocities["w"][0] == pytest.approx(closed, rel=1e-12)
            if k == 200:
                v200 = state.velocities["w"][0]
        limit = g / (1.0 - mu)  # 50 g
        assert limit == pytest.approx(50.0 * g)
        # geometric approach: the residual gap is exactly mu^k
        assert abs(v200 - limit) / limit == pytest.approx(mu**200, rel=1e-9)
        assert abs(state.velocities["w"][0] - limit) / limit < 0.01  # k = 400

    def test_shape_mismatch_raises(self):
        tensors = {"w": np.zeros(3)}
        state = init_optimizer(tensors, 0.9, 0.1)
        with pytest.raises(ValueError):
            sgd_momentum_step(tensors, {"w": np.zeros(4)}, state)

    def test_missing_gradient_raises(self):
        tensors = {"w": np.zeros(3)}
        state = init_optimizer(tensors, 0.9, 0.1)
        with pytest.raises(ValueError):
            sgd_momentum_step(tensors, {}, state)


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
            ({"n_labels": -2}, "n_labels must be a positive integer"),
            ({"hop": 160.0}, "hop must be a positive integer, got 160.0"),
            ({"clip_seconds": -1.0}, "clip_seconds must be finite and > 0"),
            ({"clip_seconds": float("inf")}, "clip_seconds must be finite and > 0"),
            ({"learning_rate": float("nan")}, "learning_rate must be finite and > 0"),
            ({"learning_rate": 0.0}, "learning_rate must be finite and > 0"),
            ({"momentum": 1.5}, r"momentum must lie in \[0, 1\), got 1.5"),
            ({"momentum": 1.0}, r"momentum must lie in \[0, 1\)"),
            ({"momentum": -0.1}, r"momentum must lie in \[0, 1\)"),
            ({"preemphasis_coeff": float("nan")}, "preemphasis_coeff must lie in"),
        ],
    )
    def test_out_of_range_values(self, change, message):
        with pytest.raises(ConfigError, match=message):
            make_run_config("mel", **change)

    def test_range_edges_are_accepted(self):
        cfg = make_run_config("mel", momentum=0.0, preemphasis_coeff=0.0, hop=1)
        assert (cfg.momentum, cfg.preemphasis_coeff, cfg.hop) == (0.0, 0.0, 1)

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
        rows = run_gradcheck("all")
        assert rows, "registry returned no checks"
        for row in rows:
            assert row.passed, f"{row.op}/{row.tensor}: {row.max_rel_err:.2e}"

    def test_thresholds_by_op(self):
        rows = run_gradcheck("all")
        for row in rows:
            expected = 1e-5 if row.op.startswith(("pcen", "tdfb", "frontend")) else 1e-4
            assert row.threshold == expected

    def test_unknown_op(self):
        with pytest.raises(ConfigError):
            run_gradcheck("convolution")

    def test_selftest_detects_broken_gradient(self):
        rows = run_gradcheck("selftest-broken")
        assert len(rows) == 1 and not rows[0].passed


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


class TestEvaluate:
    def make_state_and_utts(self, frontend="tdfb", n=10, n_samples=64, **kw):
        state = make_train_state(toy_config(frontend=frontend, seed=7, **kw))
        rng = np.random.default_rng(8)
        utts, waves = [], {}
        for i in range(n):
            label = "control" if i % 2 == 0 else "dysarthric"
            utt = Utterance(f"u{i}", f"/nonexistent/u{i}.wav", label, f"s{i}", "test")
            utts.append(utt)
            waves[utt.utt_id] = Waveform(rng.standard_normal(n_samples), 16000)
        return state, utts, lambda u: waves[u.utt_id]

    def test_batched_matches_per_utterance(self):
        # 19 utterances: two full batches of PREDICT_BATCH and a partial one.
        assert 19 % net.PREDICT_BATCH != 0
        for frontend in net.FRONTENDS:
            state, utts, provider = self.make_state_and_utts(
                frontend, n=19, n_samples=800, n_filters=6, hidden_size=9, attn_size=5
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
            batched = net.batched_logits(
                state.model, utts, lambda u: features[u.utt_id]
            )
            assert batched.shape == per_utt.shape
            assert np.max(np.abs(batched - per_utt)) <= 1e-12, frontend
            expected = [net.LABELS[i] for i in np.argmax(per_utt, axis=1)]
            result = net.evaluate(state, utts, wave_provider=provider)
            assert result.predictions == expected, frontend
            assert net.predict_label(state, provider(utts[3])) == np.argmax(per_utt[3])

    def test_non_finite_state_names_the_utterance(self):
        state, utts, provider = self.make_state_and_utts(n=12)
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

    def test_unequal_feature_lengths_are_rejected(self):
        state, utts, provider = self.make_state_and_utts(n=4)
        short = Waveform(np.zeros(40), 16000)

        def waves(u):
            return short if u.utt_id == "u2" else provider(u)

        with pytest.raises(ValueError, match="utterance u2"):
            net.evaluate(state, utts, wave_provider=waves)

    def test_confusion_counts_sum_to_n(self):
        state, utts, provider = self.make_state_and_utts()
        result = net.evaluate(state, utts, wave_provider=provider)
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
