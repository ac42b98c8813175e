"""WAV I/O, padding, manifests, the synthetic corpus, and the UAR metric."""

import hashlib
import wave
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavefront.data import (
    LABELS,
    Manifest,
    SyntheticSpec,
    Utterance,
    generate_synthetic,
    load_manifest,
    read_wav,
    save_manifest,
    uar,
    validate_manifest,
    write_wav,
)
from wavefront.dsp import Waveform, power_spectrum
from wavefront.errors import FormatError, ValidationError
from wavefront.net import PREEMPHASIS, make_run_config, prepare_waveform


class TestWavIO:
    def test_minimal_file_round_trip(self, tmp_path):
        path = tmp_path / "tiny.wav"
        samples = np.arange(-8, 8) / 32768.0
        write_wav(path, Waveform(samples, 16000))
        back = read_wav(path)
        assert len(back) == 16
        assert np.max(np.abs(back.samples)) <= 1.0
        assert np.array_equal(back.samples, samples)

    def test_round_trip_is_sample_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        original = rng.uniform(-0.9, 0.9, 2000)
        a = tmp_path / "a.wav"
        b = tmp_path / "b.wav"
        write_wav(a, Waveform(original, 16000))
        first = read_wav(a)
        write_wav(b, first)
        second = read_wav(b)
        assert np.array_equal(first.samples, second.samples)

    def test_wrong_sample_rate(self, tmp_path):
        path = tmp_path / "fast.wav"
        with wave.open(str(path), "wb") as fh:
            fh.setnchannels(1)
            fh.setsampwidth(2)
            fh.setframerate(44100)
            fh.writeframes(np.zeros(100, dtype="<i2").tobytes())
        with pytest.raises(FormatError, match="sample_rate"):
            read_wav(path)

    def test_wrong_channel_count(self, tmp_path):
        path = tmp_path / "stereo.wav"
        with wave.open(str(path), "wb") as fh:
            fh.setnchannels(2)
            fh.setsampwidth(2)
            fh.setframerate(16000)
            fh.writeframes(np.zeros(200, dtype="<i2").tobytes())
        with pytest.raises(FormatError, match="channels"):
            read_wav(path)

    def test_wrong_sample_width(self, tmp_path):
        path = tmp_path / "bytes.wav"
        with wave.open(str(path), "wb") as fh:
            fh.setnchannels(1)
            fh.setsampwidth(1)
            fh.setframerate(16000)
            fh.writeframes(bytes(100))
        with pytest.raises(FormatError, match="sample_width"):
            read_wav(path)

    def test_empty_data_chunk_names_the_file(self, tmp_path):
        path = tmp_path / "empty.wav"
        with wave.open(str(path), "wb") as fh:
            fh.setnchannels(1)
            fh.setsampwidth(2)
            fh.setframerate(16000)
            fh.writeframes(b"")
        with pytest.raises(FormatError, match="empty.wav: empty data chunk"):
            read_wav(path)

    def test_pcm_extremes_convert_as_float64_over_32768(self, tmp_path):
        path = tmp_path / "extremes.wav"
        pcm = np.array([-32768, 0, 32767], dtype="<i2")
        with wave.open(str(path), "wb") as fh:
            fh.setnchannels(1)
            fh.setsampwidth(2)
            fh.setframerate(16000)
            fh.writeframes(pcm.tobytes())
        samples = read_wav(path).samples
        assert samples.dtype == np.float64
        assert samples.tobytes() == (pcm.astype(np.float64) / 32768.0).tobytes()

    def test_not_a_wav_file(self, tmp_path):
        path = tmp_path / "noise.wav"
        path.write_bytes(b"definitely not RIFF data")
        with pytest.raises(FormatError):
            read_wav(path)


def prepare(w, clip_seconds=2.5):
    return prepare_waveform(w, make_run_config("mel", clip_seconds=clip_seconds))


class TestPadOrTrim:
    """The padding and trimming of net.prepare_waveform, which pre-emphasises
    the clip in the same pass."""

    def test_pads_short_input(self):
        out = prepare(Waveform(np.ones(30000), 16000))
        assert len(out) == 40000
        # the first padded sample still sees the clip's last one
        assert out.samples[30000] == -PREEMPHASIS
        assert np.all(out.samples[30001:] == 0.0)

    def test_keeps_exact_input(self):
        x = np.random.default_rng(3).standard_normal(40000)
        w = Waveform(x.copy(), 16000)
        out = prepare(w)
        assert np.array_equal(w.samples, x)
        assert out.samples[0] == x[0]
        assert np.array_equal(out.samples[1:], x[1:] - PREEMPHASIS * x[:-1])

    def test_truncates_long_input(self):
        x = np.arange(50000, dtype=float)
        out = prepare(Waveform(x, 16000))
        assert len(out) == 40000
        assert out.samples[0] == x[0]
        assert np.array_equal(out.samples[1:], x[1:40000] - PREEMPHASIS * x[:39999])

    def test_records_signal_count_when_padding(self):
        out = prepare(Waveform(np.ones(30000), 16000))
        assert out.n_signal == 30000
        assert out.signal_len == 30000

    def test_padded_clip_keeps_its_count(self):
        once = prepare(Waveform(np.ones(30000), 16000))
        assert prepare(once, 3.0).n_signal == 30000
        assert prepare(once, 2.0).n_signal == 30000
        assert prepare(once, 1.5).n_signal is None

    @pytest.mark.parametrize("n", [40000, 50000])
    def test_trimmed_or_exact_clip_is_all_signal(self, n):
        out = prepare(Waveform(np.ones(n), 16000))
        assert out.n_signal is None
        assert out.signal_len == 40000

    @given(st.integers(1, 90000))
    @settings(max_examples=40)
    def test_idempotent(self, n):
        # Preparing a prepared clip pre-emphasises it again, but keeps its
        # length and its signal count.
        once = prepare(Waveform(np.ones(n), 16000))
        twice = prepare(once)
        assert len(twice) == len(once) == 40000
        assert twice.n_signal == once.n_signal


def table_layout_manifest():
    """Speaker-to-split layout mirroring the corpus protocol, with the
    recording counts spread round-robin over each split's speakers."""
    layout = {
        "train": (("FC02", "MC04", "MC03"), ("F03", "F01", "M02"), 3182, 1382),
        "valid": (("MC02", "FC01"), ("M03", "M01"), 950, 802),
        "test": (("FC03", "MC01"), ("F04", "M05", "M04"), 2103, 997),
    }
    records = []
    for split, (controls, dysarthrics, n_control, n_dys) in layout.items():
        for i in range(n_control):
            spk = controls[i % len(controls)]
            records.append(
                Utterance(f"{split}-c{i}", f"{spk}/{i}.wav", "control", spk, split)
            )
        for i in range(n_dys):
            spk = dysarthrics[i % len(dysarthrics)]
            records.append(
                Utterance(f"{split}-d{i}", f"{spk}/{i}.wav", "dysarthric", spk, split)
            )
    return Manifest(records)


class TestManifest:
    def test_speaker_layout_counts(self):
        report = validate_manifest(table_layout_manifest(), check_files=False)
        assert report["splits"]["train"] == {"control": 3182, "dysarthric": 1382}
        assert report["splits"]["valid"] == {"control": 950, "dysarthric": 802}
        assert report["splits"]["test"] == {"control": 2103, "dysarthric": 997}

    def test_shared_speaker_is_rejected(self):
        m = table_layout_manifest()
        leaked = Utterance("bad", "x.wav", "control", "FC02", "test")
        with pytest.raises(ValidationError, match="FC02"):
            validate_manifest(Manifest(m.records + [leaked]), check_files=False)

    def test_empty_split_is_rejected(self):
        m = table_layout_manifest()
        trimmed = [r for r in m.records if r.split != "valid"]
        with pytest.raises(ValidationError, match="valid"):
            validate_manifest(Manifest(trimmed), check_files=False)

    def test_missing_label_in_split_is_rejected(self):
        m = table_layout_manifest()
        trimmed = [
            r
            for r in m.records
            if not (r.split == "test" and r.label == "dysarthric")
        ]
        with pytest.raises(ValidationError, match="dysarthric"):
            validate_manifest(Manifest(trimmed), check_files=False)

    def test_missing_files_are_reported(self, tmp_path):
        m = Manifest(
            [
                Utterance("a", str(tmp_path / "a.wav"), "control", "s1", "train"),
                Utterance("b", str(tmp_path / "b.wav"), "dysarthric", "s2", "train"),
                Utterance("c", str(tmp_path / "c.wav"), "control", "s3", "valid"),
                Utterance("d", str(tmp_path / "d.wav"), "dysarthric", "s4", "valid"),
                Utterance("e", str(tmp_path / "e.wav"), "control", "s5", "test"),
                Utterance("f", str(tmp_path / "f.wav"), "dysarthric", "s6", "test"),
            ]
        )
        with pytest.raises(ValidationError, match="missing"):
            validate_manifest(m, check_files=True)

    def test_save_load_round_trip(self, tmp_path):
        m = table_layout_manifest()
        path = tmp_path / "manifest.csv"
        save_manifest(m, path)
        back = load_manifest(path)
        assert len(back.records) == len(m.records)
        assert back.records[0].utt_id == m.records[0].utt_id
        assert back.records[0].path.startswith(str(tmp_path))

    def test_unknown_label_rejected_at_load(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text("id,path,label,speaker,split\nu0,a.wav,healthy,s,train\n")
        with pytest.raises(ValidationError) as e:
            load_manifest(path)
        assert str(e.value) == f"{path}: line 2: unknown label 'healthy'"

    @pytest.mark.parametrize("rows, message", [
        ("u2,b.wav,healthy,s2,train\n", "line 4: unknown label 'healthy'"),
        ("u2,b.wav,control,s2,dev\n", "line 4: unknown split 'dev'"),
        ("u2,b.wav,control\n", "line 4: 3 fields, not 5"),
        ("u2,b.wav,control,s2,train\nu1,c.wav,control,s2,train\n",
         "line 5: duplicate id 'u1', first at line 2"),
        ('u2,b.wav,control,"s\n\n2",train\nu3,c.wav,healthy,s3,train\n',
         "line 7: unknown label 'healthy'"),
    ], ids=["label", "split", "fields", "duplicate", "two-newlines"])
    def test_errors_name_the_file_and_physical_line(self, rows, message, tmp_path):
        # u1's quoted speaker field spans lines 2 and 3, so every later
        # record starts one physical line below its record number.
        path = tmp_path / "manifest.csv"
        path.write_text(
            'id,path,label,speaker,split\nu1,a.wav,dysarthric,"s\n1",train\n' + rows
        )
        with pytest.raises(ValidationError) as e:
            load_manifest(path)
        assert str(e.value) == f"{path}: {message}"

    @pytest.mark.parametrize("eol", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize("row, message", [
        (b"u2,b.wav,healthy,s2,train", "line 3: unknown label 'healthy'"),
        (b"u2,b.wav,control,s\xff,train", "line 3 is not UTF-8: invalid start byte"),
    ], ids=["label", "non-utf8-byte"])
    def test_every_line_ending_counts(self, eol, row, message, tmp_path):
        path = tmp_path / "manifest.csv"
        rows = [b"id,path,label,speaker,split", b"u1,a.wav,control,s1,train", row]
        path.write_bytes(eol.join(rows) + eol)
        with pytest.raises(ValidationError) as e:
            load_manifest(path)
        assert str(e.value) == f"{path}: {message}"

    def test_wrong_header_names_the_file(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text("id,path,label,split\n")
        with pytest.raises(ValidationError) as e:
            load_manifest(path)
        assert str(e.value) == f"{path}: line 1: header must be id,path,label,speaker,split"


def file_digest(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class TestSyntheticCorpus:
    def test_same_seed_is_byte_identical(self, tmp_path):
        spec = SyntheticSpec(seed=5, n_train_per_class=3, n_valid_per_class=2,
                             n_test_per_class=2)
        m1 = generate_synthetic(spec, tmp_path / "one")
        m2 = generate_synthetic(spec, tmp_path / "two")
        assert file_digest(tmp_path / "one" / "manifest.csv") == file_digest(
            tmp_path / "two" / "manifest.csv"
        )
        for r1, r2 in zip(m1.records, m2.records):
            assert file_digest(r1.path) == file_digest(r2.path)

    def test_different_seed_differs(self, tmp_path):
        base = dict(n_train_per_class=2, n_valid_per_class=2, n_test_per_class=2)
        m1 = generate_synthetic(SyntheticSpec(seed=1, **base), tmp_path / "one")
        m2 = generate_synthetic(SyntheticSpec(seed=2, **base), tmp_path / "two")
        assert file_digest(m1.records[0].path) != file_digest(m2.records[0].path)

    def test_manifest_validates(self, small_corpus):
        manifest, _ = small_corpus
        report = validate_manifest(manifest, check_files=True)
        assert report["splits"]["train"] == {"control": 8, "dysarthric": 8}

    def test_class_centroids_are_ordered(self, small_corpus):
        manifest, _ = small_corpus

        def centroid(path):
            w = read_wav(path)
            ps = power_spectrum(w.samples[:16384], 16384)
            freqs = np.arange(ps.shape[-1]) * w.sample_rate / 16384
            return float((ps * freqs).sum() / ps.sum())

        lows = [centroid(r.path) for r in manifest.records if r.label == "control"]
        highs = [centroid(r.path) for r in manifest.records if r.label == "dysarthric"]
        assert max(lows) < min(highs)

    def test_speaker_nuisance_overlaps_energy(self, small_corpus):
        # per-speaker gain must not separate the classes by level alone
        manifest, _ = small_corpus
        rms = {"control": [], "dysarthric": []}
        for r in manifest.records:
            w = read_wav(r.path)
            rms[r.label].append(float(np.sqrt(np.mean(w.samples**2))))
        assert max(rms["control"]) > min(rms["dysarthric"])
        assert max(rms["dysarthric"]) > min(rms["control"])

    def test_zero_utterances_per_class_is_legal(self, tmp_path):
        # the benchmark's training corpora have no test split
        spec = SyntheticSpec(seed=4, n_train_per_class=1, n_valid_per_class=1,
                             n_test_per_class=0)
        manifest = generate_synthetic(spec, tmp_path)
        assert [r.split for r in manifest.records] == ["train"] * 2 + ["valid"] * 2

    def test_centroid_threshold_classifier_clears_sanity_floor(self, small_corpus):
        # the task must be solvable by a trivial spectral statistic
        manifest, _ = small_corpus

        def centroid(path):
            w = read_wav(path)
            ps = power_spectrum(w.samples[:16384], 16384)
            freqs = np.arange(ps.shape[-1]) * w.sample_rate / 16384
            return float((ps * freqs).sum() / ps.sum())

        train_cents = [centroid(r.path) for r in manifest.split("train")]
        threshold = float(np.median(train_cents))
        preds, truths = [], []
        for r in manifest.split("test"):
            preds.append("control" if centroid(r.path) < threshold else "dysarthric")
            truths.append(r.label)
        assert uar(preds, truths) > 0.9


class TestUar:
    def test_mixed_recalls(self):
        truths = ["a"] * 4 + ["b"] * 2
        preds = ["a", "a", "a", "b", "b", "a"]
        assert uar(preds, truths) == pytest.approx((0.75 + 0.5) / 2)

    def test_all_correct(self):
        labels = ["a", "b", "a", "b"]
        assert uar(labels, labels) == 1.0

    def test_majority_predictor_scores_half(self):
        truths = ["a"] * 99 + ["b"]
        preds = ["a"] * 100
        assert uar(preds, truths) == 0.5

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            uar(["a"], ["a", "b"])

    def test_empty_input(self):
        with pytest.raises(ValueError):
            uar([], [])

    def test_matches_brute_force_on_large_random_sample(self):
        rng = np.random.default_rng(99)
        labels = ["control", "dysarthric"]
        truths = [labels[i] for i in rng.integers(0, 2, 1000)]
        preds = [labels[i] for i in rng.integers(0, 2, 1000)]
        by_label = {}
        for p, t in zip(preds, truths):
            hits, total = by_label.get(t, (0, 0))
            by_label[t] = (hits + (p == t), total + 1)
        expected = sum(h / n for h, n in by_label.values()) / len(by_label)
        assert uar(preds, truths) == expected

    @given(st.integers(0, 2**32 - 1), st.integers(1, 6))
    @settings(max_examples=40)
    def test_invariant_under_class_duplication(self, seed, copies):
        rng = np.random.default_rng(seed)
        truths = ["a"] * 5 + ["b"] * 3
        preds = [["a", "b"][i] for i in rng.integers(0, 2, 8)]
        dup_t = truths + ["b"] * 3 * (copies - 1)
        dup_p = preds + preds[5:] * (copies - 1)
        assert uar(preds, truths) == pytest.approx(uar(dup_p, dup_t))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40)
    def test_equals_accuracy_when_balanced(self, seed):
        rng = np.random.default_rng(seed)
        truths = ["a"] * 10 + ["b"] * 10
        preds = [["a", "b"][i] for i in rng.integers(0, 2, 20)]
        accuracy = np.mean([p == t for p, t in zip(preds, truths)])
        assert uar(preds, truths) == pytest.approx(accuracy)
