"""Command-line surface: flags, exit codes, and artifact formats."""

import dataclasses
import functools
import json
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from wavefront import artifacts, cli, gradcheck, net
from wavefront.data import (
    Manifest,
    SyntheticSpec,
    Waveform,
    load_manifest,
    save_manifest,
    write_wav,
)


def run_cli(args):
    return cli.main(list(args))


@pytest.fixture(scope="module")
def zero_wav(tmp_path_factory):
    path = tmp_path_factory.mktemp("wavs") / "zero.wav"
    write_wav(path, Waveform(np.zeros(40000), 16000))
    return path


@pytest.fixture(scope="module")
def trained_mel_run(small_corpus, tmp_path_factory):
    manifest, root = small_corpus
    out = tmp_path_factory.mktemp("mel_run")
    code = run_cli([
        "train", "--manifest", str(root / "manifest.csv"), "--frontend", "mel",
        "--seed", "0", "--epochs", "2", "--patience", "5",
        "--out-dir", str(out),
    ])
    assert code == 0
    return out


class TestListConfigs:
    def test_enumerates_all_ablations(self, capsys):
        # one label per row, as `experiment --configs` takes it
        assert run_cli(["train", "--list-configs"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == [
            "mel",
            "mel_mvn",
            "mel_pcen:r,alpha,delta",
            "tdfb",
            "tdfb_pcen:r,alpha,delta",
            "tdfb_pcen:r",
            "tdfb_pcen:alpha",
        ]
        assert lines == cli.build_parser().parse_args(
            ["experiment", "--manifest", "m", "--out-dir", "d"]
        ).configs


def test_readme_and_list_configs_match_the_code(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    cli_block = readme.split("## CLI\n\n```\n", 1)[1].split("```", 1)[0]
    commands = {
        s.split()[1] for s in cli_block.splitlines() if s.startswith("wavefront ")
    }
    assert commands == set(cli._DISPATCH)
    (line,) = [s for s in readme.splitlines() if s.startswith("wavefront gradcheck")]
    assert line == "wavefront gradcheck [--seed N]"
    args = cli.build_parser().parse_args(["gradcheck", "--seed", "3"])
    assert vars(args) == {"command": "gradcheck", "seed": 3}
    assert run_cli(["train", "--list-configs"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == len(net.ABLATION_CONFIGS)


class TestConfigErrors:
    def test_pcen_mask_with_plain_frontend(self, small_corpus, tmp_path):
        _, root = small_corpus
        code = run_cli([
            "train", "--manifest", str(root / "manifest.csv"),
            "--frontend", "mel_mvn", "--pcen-learn", "r",
            "--out-dir", str(tmp_path),
        ])
        assert code == 2

    def test_train_requires_out_dir(self, small_corpus):
        _, root = small_corpus
        code = run_cli([
            "train", "--manifest", str(root / "manifest.csv"), "--frontend", "mel",
        ])
        assert code == 2

    def test_extract_needs_a_parameter_source(self, zero_wav, tmp_path):
        code = run_cli(["extract", "--wav", str(zero_wav),
                        "--out", str(tmp_path / "x.csv")])
        assert code == 2

    def test_negative_train_seed_writes_nothing(self, small_corpus, tmp_path, capsys):
        _, root = small_corpus
        out_dir = tmp_path / "run"
        code = run_cli([
            "train", "--manifest", str(root / "manifest.csv"), "--frontend", "mel",
            "--seed", "-1", "--out-dir", str(out_dir),
        ])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: seed must be a non-negative integer, got -1\n"
        )
        assert not out_dir.exists()


class TestGradcheckCommand:
    def test_single_op_exits_clean(self, capsys):
        assert run_cli(["gradcheck"]) == 0
        out = capsys.readouterr().out
        assert "tdfb_pcen:r,alpha,delta/pcen.r" in out
        assert "FAIL" not in out

    def test_broken_selftest_fails_with_numeric_exit(self, monkeypatch, capsys):
        rows = [
            gradcheck.GradcheckRow("mel", "lstm.wx", 1e-9, True),
            gradcheck.GradcheckRow("mel", "lstm.wh", 0.5, False),
        ]
        monkeypatch.setattr(gradcheck, "run_gradcheck", lambda seed: rows)
        assert run_cli(["gradcheck"]) == 4
        out = capsys.readouterr().out.splitlines()
        assert out[1].startswith("mel/lstm.wh") and out[1].endswith("FAIL")
        assert out[2] == "1 gradient check(s) failed (max rel err < 1e-05)"


class TestSynthCommand:
    def test_generates_valid_corpus(self, tmp_path, capsys):
        code = run_cli([
            "synth", "--out-dir", str(tmp_path / "c"), "--seed", "3",
            "--n-train", "3", "--n-valid", "2", "--n-test", "2",
        ])
        assert code == 0
        manifest = load_manifest(tmp_path / "c" / "manifest.csv")
        assert len(manifest.records) == 14
        out = capsys.readouterr().out
        assert "manifest" in out and "train" in out

    def test_sets_every_field_of_the_spec(self, monkeypatch, tmp_path):
        # A SyntheticSpec field that synth does not set is a setting that no
        # command can change, so it belongs among the data module constants.
        passed = {}

        def spec(**kwargs):
            passed.update(kwargs)
            return SyntheticSpec(**kwargs)

        monkeypatch.setattr(cli, "SyntheticSpec", spec)
        out_dir = str(tmp_path / "c")
        assert run_cli(["synth", "--out-dir", out_dir, "--n-test", "1"]) == 0
        assert set(passed) == {f.name for f in dataclasses.fields(SyntheticSpec)}

    @pytest.mark.parametrize("flags, message", [
        (["--n-train", "-1"], "n_train_per_class must be >= 0, got -1"),
        (["--n-valid", "-2"], "n_valid_per_class must be >= 0, got -2"),
        (["--n-test", "-1"], "n_test_per_class must be >= 0, got -1"),
        (["--n-speakers", "0"], "n_speakers_per_class must be >= 1, got 0"),
        (["--noise-floor", "nan"], "noise_floor must be finite and >= 0, got nan"),
        (["--noise-floor", "inf"], "noise_floor must be finite and >= 0, got inf"),
        (["--noise-floor", "-0.1"], "noise_floor must be finite and >= 0, got -0.1"),
        (["--seed", "-1"], "seed must be >= 0, got -1"),
    ], ids=["n-train", "n-valid", "n-test", "n-speakers", "noise-nan", "noise-inf",
            "noise-negative", "seed"])
    def test_bad_spec_is_refused_before_writing(self, flags, message, tmp_path, capsys):
        out_dir = tmp_path / "c"
        assert run_cli(["synth", "--out-dir", str(out_dir), *flags]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out_dir.exists()


@pytest.fixture(scope="module")
def tiny_manifest(tmp_path_factory):
    """2/2/2 utterances per class: too few for the overfit check."""
    root = tmp_path_factory.mktemp("corpus_tiny")
    assert run_cli([
        "synth", "--out-dir", str(root), "--seed", "1",
        "--n-train", "2", "--n-valid", "2", "--n-test", "2",
    ]) == 0
    return str(root / "manifest.csv")


class TestExperimentCommand:
    def test_reports_one_row_per_config(self, tiny_manifest, tmp_path, capsys):
        assert run_cli([
            "experiment", "--manifest", tiny_manifest, "--out-dir", str(tmp_path),
            "--configs", "mel", "--seeds", "1", "--epochs", "1",
        ]) == 0
        report = json.loads(capsys.readouterr().out)
        (run,) = report["runs"]
        assert (run["config"], run["seed"]) == ("mel", 1)
        assert report["configs"] == {
            "mel": {"uar_mean": run["test_uar"], "uar_std": 0.0}
        }

    def test_run_matches_train_and_eval(self, tiny_manifest, tmp_path, capsys):
        flags = ["--manifest", tiny_manifest, "--epochs", "2", "--patience", "1"]
        assert run_cli([
            "experiment", *flags, "--out-dir", str(tmp_path / "exp"),
            "--configs", "mel", "--seeds", "4",
        ]) == 0
        (run,) = json.loads(capsys.readouterr().out)["runs"]
        assert run["checkpoint"] == str(tmp_path / "exp" / "mel_s4" / "checkpoint.ckpt")
        assert run_cli([
            "train", *flags, "--out-dir", str(tmp_path / "train"),
            "--frontend", "mel", "--seed", "4",
        ]) == 0
        for name in ("checkpoint.ckpt", "train_log.csv", "config.json"):
            assert (tmp_path / "exp" / "mel_s4" / name).read_bytes() == (
                tmp_path / "train" / name
            ).read_bytes(), name
        capsys.readouterr()
        assert run_cli([
            "eval", "--checkpoint", run["checkpoint"], "--manifest", tiny_manifest,
            "--split", "test",
        ]) == 0
        assert json.loads(capsys.readouterr().out)["uar"] == run["test_uar"]

    @pytest.mark.parametrize("selection", [
        ["--configs", "bogus"],
        ["--configs", "mel", "tdfb", "mel"],
        ["--configs", "mel", "--seeds", "1", "2", "1"],
        ["--configs", "mel", "--seeds", "1", "-1"],
    ], ids=["unknown-label", "repeated-label", "repeated-seed", "negative-seed"])
    def test_bad_selection_is_a_config_error(
        self, selection, tiny_manifest, tmp_path, capsys
    ):
        out_dir = tmp_path / "exp"
        code = run_cli([
            "experiment", "--manifest", tiny_manifest, "--out-dir", str(out_dir),
            "--epochs", "1", *selection,
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert not out_dir.exists()


class TestOverfitCommand:
    def test_reports_every_frontend(self, small_corpus, capsys):
        _, root = small_corpus
        assert run_cli([
            "overfit", "--manifest", str(root / "manifest.csv"), "--max-epochs", "1",
        ]) == 0
        report = json.loads(capsys.readouterr().out)
        assert list(report) == list(net.FRONTENDS)
        for row in report.values():
            assert row["epochs"] <= 1
            assert row["reached"] == (row["final"] < 0.1 * row["initial"])

    def test_too_few_train_utterances_is_a_data_error(self, tiny_manifest, capsys):
        assert run_cli(["overfit", "--manifest", tiny_manifest]) == 3
        assert capsys.readouterr().err.count("\n") == 1


class TestExtractCommand:
    def test_zero_wav_gives_zero_csv(self, zero_wav, tmp_path, capsys):
        out_csv = tmp_path / "features.csv"
        code = run_cli([
            "extract", "--wav", str(zero_wav), "--frontend", "mel",
            "--out", str(out_csv),
        ])
        assert code == 0
        rows = out_csv.read_text().strip().splitlines()
        assert len(rows) == 64
        values = np.array([[float(v) for v in r.split(",")] for r in rows])
        assert values.shape == (64, 248)
        assert np.all(values == 0.0)

    @pytest.mark.parametrize("frontend", ["tdfb", "mel_pcen", "tdfb_pcen"])
    def test_shape_for_learnable_frontends(self, zero_wav, tmp_path, frontend):
        out_csv = tmp_path / f"{frontend}.csv"
        code = run_cli([
            "extract", "--wav", str(zero_wav), "--frontend", frontend,
            "--out", str(out_csv),
        ])
        assert code == 0
        rows = out_csv.read_text().strip().splitlines()
        assert len(rows) == 64
        assert all(len(r.split(",")) == 248 for r in rows)

    def test_checkpoint_frontend_mismatch_names_the_checkpoint(
        self, trained_mel_run, zero_wav, tmp_path, capsys
    ):
        checkpoint = trained_mel_run / "checkpoint.ckpt"
        out_csv = tmp_path / "x.csv"
        code = run_cli([
            "extract", "--wav", str(zero_wav), "--checkpoint", str(checkpoint),
            "--frontend", "tdfb", "--out", str(out_csv),
        ])
        err = capsys.readouterr().err
        assert code == 2 and err.count("\n") == 1 and str(checkpoint) in err, err
        assert not out_csv.exists()

    def test_missing_wav_is_data_error(self, tmp_path):
        code = run_cli([
            "extract", "--wav", str(tmp_path / "absent.wav"),
            "--frontend", "mel", "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 3

    @pytest.mark.parametrize(
        "old", ["version-1", "attn2.b", "version-2", "vel", "n_labels", "out.w rows"]
    )
    def test_old_checkpoints_are_refused(self, old, zero_wav, tmp_path, capsys):
        """A checkpoint of the version-1 or version-2 format, and a version-3
        one that carries the removed attention score bias, a momentum
        velocity, the removed n_labels setting or an output layer of 3
        labels, exits 2 with one stderr line that names the file."""
        state = net.make_train_state(net.make_run_config("mel"))
        tensors = net.checkpoint_tensors(state)
        config = net.config_to_dict(state.config)
        if old == "attn2.b":
            tensors["attn2.b"] = np.zeros(1)
        if old in ("version-2", "vel"):
            tensors.update({"vel." + k: np.zeros_like(v) for k, v in state.tensors.items()})
        if old in ("n_labels", "out.w rows"):
            tensors.update({"out.w": np.zeros((3, 60)), "out.b": np.zeros(3)})
        if old == "n_labels":
            config["n_labels"] = 3
        path = tmp_path / "old.ckpt"
        net.save_checkpoint(path, tensors, {"config": config})
        if old in ("version-1", "version-2"):
            blob = path.read_bytes()
            version = int(old[-1])
            path.write_bytes(blob[:4] + struct.pack("<I", version) + blob[8:])
        code = run_cli(["extract", "--wav", str(zero_wav), "--checkpoint", str(path),
                        "--out", str(tmp_path / "x.csv")])
        err = capsys.readouterr().err
        assert code == 2 and err.count("\n") == 1, err
        assert str(path) in err and "Traceback" not in err

    def test_every_header_byte_mutation(self, tmp_path, capsys):
        """Each of the 44 header bytes of a 1 s WAV set to 0x00, 0x01, 0x7f,
        0x80, 0xff and its own value with the low bit flipped, each run
        through `extract`. A case exits 3 with one stderr line that names
        the file, or loads. Only fields that `wave` ignores or honours as
        written may load: the RIFF size (bytes 4-7), byte rate (28-31), block
        align (32-33) and a data size no larger than the data (40-41). A
        loaded case gives the clip that its data size describes."""
        samples = np.random.default_rng(0).uniform(-0.5, 0.5, 16000)
        clean = tmp_path / "clean.wav"
        write_wav(clean, Waveform(samples, 16000))
        original = clean.read_bytes()
        may_load = {*range(4, 8), *range(28, 34), 40, 41}

        def extract(wav, out):
            code = run_cli(["extract", "--wav", str(wav), "--frontend", "mel",
                            "--out", str(out)])
            return code, capsys.readouterr().err

        wants = {}

        def want(n_frames):
            if n_frames not in wants:
                short = tmp_path / "short.wav"
                write_wav(short, Waveform(samples[:n_frames], 16000))
                assert extract(short, tmp_path / "want.csv")[0] == 0
                wants[n_frames] = (tmp_path / "want.csv").read_bytes()
            return wants[n_frames]

        bad = tmp_path / "bad.wav"
        got = tmp_path / "got.csv"
        for offset in range(44):
            for value in (0x00, 0x01, 0x7F, 0x80, 0xFF, original[offset] ^ 0x01):
                blob = bytearray(original)
                blob[offset] = value
                bad.write_bytes(blob)
                got.unlink(missing_ok=True)
                code, err = extract(bad, got)
                case = f"byte {offset} = {value:#04x}"
                if blob == original or code == 0:
                    assert code == 0, (case, err)
                    assert blob == original or offset in may_load, case
                    (data_size,) = struct.unpack("<I", blob[40:44])
                    assert data_size // 2 <= len(samples), case
                    assert got.read_bytes() == want(data_size // 2), case
                else:
                    assert code == 3 and err.count("\n") == 1, (case, code, err)
                    assert str(bad) in err, (case, err)

    def test_tdfb_extract_tracks_mel_extract_at_init(self, tmp_path):
        # level-varying white noise; the learnable path starts as a replica
        # of the reference, so their exported features correlate per channel
        rng = np.random.default_rng(400)
        levels = np.exp(rng.uniform(np.log(1e-3), 0.0, 9))
        envelope = np.interp(np.arange(40000), np.linspace(0, 40000, 9), levels)
        wav_path = tmp_path / "noise.wav"
        write_wav(
            wav_path, Waveform(0.05 * envelope * rng.standard_normal(40000), 16000)
        )
        maps = {}
        for frontend in ("mel", "tdfb"):
            out_csv = tmp_path / f"{frontend}.csv"
            assert run_cli([
                "extract", "--wav", str(wav_path), "--frontend", frontend,
                "--out", str(out_csv),
            ]) == 0
            maps[frontend] = np.array([
                [float(v) for v in line.split(",")]
                for line in out_csv.read_text().strip().splitlines()
            ])
        corrs = np.array([
            np.corrcoef(maps["mel"][ch], maps["tdfb"][ch])[0, 1]
            for ch in range(64)
        ])
        assert np.median(corrs) >= 0.9
        assert np.sum(corrs >= 0.9) >= 50


class TestTrainEvalCycle:
    def test_artifacts_exist(self, trained_mel_run):
        assert (trained_mel_run / "checkpoint.ckpt").exists()
        log = (trained_mel_run / "train_log.csv").read_text().splitlines()
        assert log[0] == "epoch,train_loss,valid_uar"
        assert len(log) == 3
        config = json.loads((trained_mel_run / "config.json").read_text())
        assert config["frontend"] == "mel"

    def test_eval_reproduces_logged_validation_uar(
        self, trained_mel_run, small_corpus, capsys
    ):
        _, root = small_corpus
        code = run_cli([
            "eval", "--checkpoint", str(trained_mel_run / "checkpoint.ckpt"),
            "--manifest", str(root / "manifest.csv"), "--split", "valid",
        ])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        logged = [
            float(line.split(",")[2])
            for line in (trained_mel_run / "train_log.csv")
            .read_text()
            .splitlines()[1:]
        ]
        assert report["uar"] == max(logged)

    def test_eval_frontend_mismatch(self, trained_mel_run, small_corpus):
        _, root = small_corpus
        code = run_cli([
            "eval", "--checkpoint", str(trained_mel_run / "checkpoint.ckpt"),
            "--manifest", str(root / "manifest.csv"), "--split", "valid",
            "--frontend", "tdfb",
        ])
        assert code == 2

    def test_truncated_checkpoint_header(self, trained_mel_run, small_corpus, tmp_path):
        _, root = small_corpus
        cut = tmp_path / "cut.ckpt"
        cut.write_bytes((trained_mel_run / "checkpoint.ckpt").read_bytes()[:10])
        proc = subprocess.run(
            [sys.executable, "-m", "wavefront.cli", "eval", "--checkpoint", str(cut),
             "--manifest", str(root / "manifest.csv"), "--split", "valid"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.count("\n") == 1 and str(cut) in proc.stderr

    def test_multi_checkpoint_aggregate(self, trained_mel_run, small_corpus, capsys):
        _, root = small_corpus
        ckpt = str(trained_mel_run / "checkpoint.ckpt")
        code = run_cli([
            "eval", "--checkpoint", ckpt, ckpt, ckpt,
            "--manifest", str(root / "manifest.csv"), "--split", "test",
        ])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["runs"]) == 3
        assert report["uar_std"] == 0.0
        assert report["uar_mean"] == report["runs"][0]["uar"]


@pytest.fixture(scope="module")
def init_checkpoint(small_corpus, tmp_path_factory):
    _, root = small_corpus
    out = tmp_path_factory.mktemp("init_run")
    code = run_cli([
        "train", "--manifest", str(root / "manifest.csv"),
        "--frontend", "tdfb_pcen", "--epochs", "0",
        "--out-dir", str(out),
    ])
    assert code == 0
    return out / "checkpoint.ckpt"


class TestInspectCommand:
    def test_fresh_checkpoint_reports_initial_values(
        self, init_checkpoint, tmp_path
    ):
        code = run_cli([
            "inspect", "--checkpoint", str(init_checkpoint),
            "--out-dir", str(tmp_path),
        ])
        assert code == 0
        pcen_rows = (tmp_path / "pcen_compression.csv").read_text().splitlines()
        assert pcen_rows[0] == "channel,r_abs,alpha,delta"
        assert len(pcen_rows) == 65
        for row in pcen_rows[1:]:
            _, r_abs, alpha, delta = row.split(",")
            assert (float(r_abs), float(alpha), float(delta)) == (0.5, 0.98, 2.0)
        scale_rows = (tmp_path / "filter_scale.csv").read_text().splitlines()
        assert scale_rows[0] == "filter,learned_hz,init_hz"
        assert len(scale_rows) == 65
        for row in scale_rows[1:]:
            _, learned, init = row.split(",")
            assert abs(float(learned) - float(init)) <= 16000 / 512
        taps_rows = (tmp_path / "filter_taps.csv").read_text().strip().splitlines()
        assert len(taps_rows) == 128  # real/imaginary row pairs
        assert all(len(r.split(",")) == 400 for r in taps_rows)

    def test_mel_checkpoint_has_nothing_to_inspect(
        self, trained_mel_run, tmp_path
    ):
        code = run_cli([
            "inspect", "--checkpoint", str(trained_mel_run / "checkpoint.ckpt"),
            "--out-dir", str(tmp_path),
        ])
        assert code == 2

    def test_filters_request_on_mel_checkpoint(self, trained_mel_run, tmp_path):
        code = run_cli([
            "inspect", "--checkpoint", str(trained_mel_run / "checkpoint.ckpt"),
            "--out-dir", str(tmp_path), "--what", "filters",
        ])
        assert code == 2

    @pytest.mark.parametrize(
        "change, message",
        [({"dropout": 0.5}, "unknown config keys: dropout"),
         ({"epochs": -5}, "epochs must be >= 0"),
         ({"hop": 0}, "hop must be a positive integer, got 0"),
         ({"patience": 0}, "patience must be >= 1"),
         # valid values, but not the config the checkpoint was trained with
         ({"hop": 10**30}, "bad.ckpt: config does not match its config_hash"),
         ({"clip_seconds": 30.0}, "bad.ckpt: config does not match its config_hash"),
         # without the hash the config is read as it stands, and a 1e9 s clip
         # is refused before anything is allocated
         ({"clip_seconds": 1e9, "config_hash": None},
          "clip_seconds must be <= 60.0, got 1000000000.0"),
         # each size within its bound, but a minute at hop 1 is 959 601 frames
         ({"clip_seconds": 60.0, "hop": 1, "config_hash": None},
          "frames x n_fft must be <= 67108864, got 491315712"),
         ({"seed": -3, "config_hash": None},
          "seed must be a non-negative integer, got -3")],
    )
    def test_bad_checkpoint_config_is_config_error(
        self, init_checkpoint, zero_wav, tmp_path, change, message
    ):
        tensors, meta = net.load_checkpoint(init_checkpoint)
        meta["config"].update({k: v for k, v in change.items() if k != "config_hash"})
        if "config_hash" in change:
            del meta["config_hash"]
        bad = tmp_path / "bad.ckpt"
        net.save_checkpoint(bad, tensors, meta)
        proc = subprocess.run(
            [sys.executable, "-m", "wavefront.cli", "extract", "--checkpoint", str(bad),
             "--wav", str(zero_wav), "--out", str(tmp_path / "x.csv")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.count("\n") == 1 and message in proc.stderr
        assert str(bad) in proc.stderr


    @pytest.mark.parametrize(
        "case",
        ["no tensors", "no meta", "no meta.config", "no tensor name",
         "no tensor shape", "shape ab", "shape -1", "repeated name", "not JSON",
         "header_len past EOF", "trailing bytes"],
    )
    def test_malformed_header_is_config_error(
        self, init_checkpoint, tmp_path, capsys, case
    ):
        blob = init_checkpoint.read_bytes()
        (n,) = struct.unpack("<Q", blob[8:16])
        header = json.loads(blob[16 : 16 + n])
        payload = blob[16 + n :]
        entry = header["tensors"][0]
        mutate = {
            "no tensors": lambda: header.pop("tensors"),
            "no meta": lambda: header.pop("meta"),
            "no meta.config": lambda: header["meta"].pop("config"),
            "no tensor name": lambda: entry.pop("name"),
            "no tensor shape": lambda: entry.pop("shape"),
            "shape ab": lambda: entry.update(shape="ab"),
            "shape -1": lambda: entry.update(shape=[-1]),
            "repeated name": lambda: entry.update(name=header["tensors"][1]["name"]),
        }
        if case in mutate:
            mutate[case]()
        text = json.dumps(header).encode()
        if case == "not JSON":
            text = text[:-1]
        if case == "trailing bytes":
            payload += bytes(8)
        n = len(text) + (10**12 if case == "header_len past EOF" else 0)
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(blob[:8] + struct.pack("<Q", n) + text + payload)
        code = run_cli(
            ["inspect", "--checkpoint", str(bad), "--out-dir", str(tmp_path)]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and str(bad) in err


def assert_one_line_numeric_error(state, small_corpus, tmp_path, message):
    """`extract` and `eval` from a checkpoint of `state` exit 4, and stderr
    is one line, no numpy warnings, that fully matches the regex `message`;
    `eval` prefixes it with the first test utterance's id."""
    manifest, root = small_corpus
    path = tmp_path / "bad.ckpt"
    net.save_checkpoint(
        path, net.checkpoint_tensors(state), {"config": net.config_to_dict(state.config)}
    )
    first_test = re.escape(manifest.split("test")[0].utt_id)
    for args, expected in (
        (["extract", "--wav", manifest.records[0].path, "--out", str(tmp_path / "x.csv")],
         message),
        (["eval", "--manifest", str(root / "manifest.csv"), "--split", "test"],
         f"utterance {first_test}: {message}"),
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "wavefront.cli", *args, "--checkpoint", str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 4
        assert re.fullmatch(f"error: {expected}\n", proc.stderr), proc.stderr


def test_overflowing_filterbank_is_a_numeric_error(small_corpus, tmp_path):
    """Taps scaled by 1e160 overflow the filterbank energies: the error
    names the filter and the frame."""
    state = net.make_train_state(net.make_run_config("tdfb"))
    state.frontend.tdfb.conv_taps *= 1e160
    assert_one_line_numeric_error(
        state, small_corpus, tmp_path,
        r"non-finite filterbank energy at filter 0, frame \d+",
    )


def test_overflowing_pcen_is_a_numeric_error(small_corpus, tmp_path):
    """alpha = -400 overflows (eps + M)^alpha: the error names the channel
    and the frame."""
    state = net.make_train_state(net.make_run_config("mel_pcen"))
    state.frontend.pcen.alpha[:] = -400.0
    assert_one_line_numeric_error(
        state, small_corpus, tmp_path,
        r"non-finite PCEN output at channel \d+, frame \d+",
    )


class TestAtomicOutputs:
    @pytest.mark.parametrize("command", ["eval", "extract", "inspect"])
    def test_failed_replace_keeps_earlier_output(
        self, command, trained_mel_run, small_corpus, zero_wav, init_checkpoint,
        tmp_path, monkeypatch, capsys,
    ):
        """When os.replace is refused, the command exits 3 with one stderr
        line, an earlier file at its output path stays whole, and no temp
        file is left."""
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        args = {
            "eval": ["eval", "--checkpoint", str(trained_mel_run / "checkpoint.ckpt"),
                     "--manifest", str(small_corpus[1] / "manifest.csv"),
                     "--split", "test", "--out", str(out_dir / "report.json")],
            "extract": ["extract", "--wav", str(zero_wav), "--frontend", "mel",
                        "--out", str(out_dir / "features.csv")],
            "inspect": ["inspect", "--checkpoint", str(init_checkpoint),
                        "--out-dir", str(out_dir)],
        }[command]
        names = {
            "eval": ["report.json"],
            "extract": ["features.csv"],
            "inspect": ["filter_scale.csv", "filter_taps.csv", "pcen_compression.csv"],
        }[command]
        for name in names:
            (out_dir / name).write_text("earlier\n")

        def refuse(src, dst):
            raise OSError("replace refused")

        monkeypatch.setattr(artifacts.os, "replace", refuse)
        assert run_cli(args) == 3
        assert capsys.readouterr().err.count("\n") == 1
        assert sorted(f.name for f in out_dir.iterdir()) == sorted(names)
        for name in names:
            assert (out_dir / name).read_text() == "earlier\n"

    @pytest.mark.parametrize(
        "target", ["adir", "missing/report.json", "afile/report.json"]
    )
    def test_unwritable_output_names_only_the_target(
        self, target, trained_mel_run, small_corpus, tmp_path, capsys
    ):
        """The rename onto a directory fails, and so does the temp file in a
        missing directory or under a file: one stderr line names the output
        path, not the temp file, and no temp file is left."""
        (tmp_path / "adir").mkdir()
        (tmp_path / "afile").write_text("kept\n")
        code = run_cli([
            "eval", "--checkpoint", str(trained_mel_run / "checkpoint.ckpt"),
            "--manifest", str(small_corpus[1] / "manifest.csv"),
            "--split", "test", "--out", str(tmp_path / target),
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert str(tmp_path / target) in err and ".tmp" not in err
        assert sorted(f.name for f in tmp_path.iterdir()) == ["adir", "afile"]
        assert list((tmp_path / "adir").iterdir()) == []
        assert (tmp_path / "afile").read_text() == "kept\n"


@pytest.fixture(scope="module")
def trained_tdfb_pcen(small_corpus, tmp_path_factory):
    _, root = small_corpus
    out = tmp_path_factory.mktemp("tdfb_pcen_run")
    code = run_cli([
        "train", "--manifest", str(root / "manifest.csv"),
        "--frontend", "tdfb_pcen", "--epochs", "1", "--out-dir", str(out),
    ])
    assert code == 0
    return out / "checkpoint.ckpt"


# Header fields that nothing reads back: deleting or retyping them still loads.
UNREAD_FIELDS = (
    ("version",), ("meta", "epoch"), ("meta", "seed"), ("meta", "frontend"),
    ("meta", "best_valid_uar"),
)
RETYPES = (None, "x", 1.5, -1, [], {}, True, 10**30)


def key_paths(node, prefix=()):
    """Every dict key in a JSON tree, as a path of keys and list indices."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(node, dict):
            yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from key_paths(value, prefix + (key,))


class TestCheckpointMutations:
    def test_every_mutation_is_refused_or_a_no_op(
        self, trained_tdfb_pcen, tmp_path, monkeypatch, capsys
    ):
        """Truncations, deleted header keys and retyped header fields of a
        trained checkpoint, each run through `inspect`: every one exits 2 or
        3 with one stderr line, or leaves the loaded state unchanged."""
        blob = trained_tdfb_pcen.read_bytes()
        (n,) = struct.unpack("<Q", blob[8:16])
        header = json.loads(blob[16 : 16 + n])
        payload = blob[16 + n :]
        original = net.checkpoint_tensors(net.state_from_checkpoint(trained_tdfb_pcen))
        config = header["meta"]["config"]
        # a deleted config key falls back to make_run_config's default
        defaults = net.config_to_dict(net.make_run_config(config["frontend"]))

        # keep the state that `inspect` loads, to compare it with the original
        loaded = []
        load = net.state_from_checkpoint

        def recording_load(path):
            loaded.append(load(path))
            return loaded[-1]

        monkeypatch.setattr(net, "state_from_checkpoint", recording_load)
        # one parser for the ~3600 runs: building it is most of a run's time
        monkeypatch.setattr(cli, "build_parser", functools.cache(cli.build_parser))
        path = tmp_path / "mutant.ckpt"
        out_dir = tmp_path / "out"

        def check(case, no_op):
            loaded.clear()
            code = run_cli([
                "inspect", "--checkpoint", str(path), "--out-dir", str(out_dir),
                "--what", "pcen",
            ])
            err = capsys.readouterr().err
            if no_op:
                assert code == 0 and not err, case
                tensors = net.checkpoint_tensors(loaded[0])
                assert tensors.keys() == original.keys(), case
                for name, value in tensors.items():
                    assert np.array_equal(value, original[name]), (case, name)
            else:
                assert code in (2, 3) and err.count("\n") == 1, (case, code, err)

        # Truncations, longest first, by shrinking one file in place.
        path.write_bytes(blob)
        check("whole file", no_op=True)
        cuts = [*range(16 + n), *range(16 + n, len(blob), 997)]
        for cut in reversed(cuts):
            os.truncate(path, cut)
            check(f"cut at {cut}", no_op=False)

        def write(mutated):
            text = json.dumps(mutated).encode()
            path.write_bytes(blob[:8] + struct.pack("<Q", len(text)) + text + payload)

        def parent_of(tree, key_path):
            for key in key_path[:-1]:
                tree = tree[key]
            return tree

        for key_path in key_paths(header):
            mutated = json.loads(json.dumps(header))
            del parent_of(mutated, key_path)[key_path[-1]]
            write(mutated)
            key = key_path[-1]
            no_op = (
                key_path in UNREAD_FIELDS
                or key_path == ("meta", "config_hash")
                or len(key_path) == 3
                and key_path[:2] == ("meta", "config")
                and key != "frontend"
                and config[key] == defaults[key]
            )
            check(f"delete {key_path}", no_op)

        retyped = [
            *UNREAD_FIELDS,
            ("meta", "config_hash"),
            *(("meta", "config", key) for key in config),
            *(("tensors", i, field)
              for i in range(len(header["tensors"])) for field in ("name", "shape")),
        ]
        for key_path in retyped:
            for value in RETYPES:
                mutated = json.loads(json.dumps(header))
                parent_of(mutated, key_path)[key_path[-1]] = value
                write(mutated)
                check(f"{key_path} = {value!r}", no_op=key_path in UNREAD_FIELDS)


class TestManifestErrors:
    def test_duplicate_id_names_both_lines(self, small_corpus, tmp_path, capsys):
        manifest, _ = small_corpus
        first, second, *rest = manifest.records
        records = [first, dataclasses.replace(second, utt_id=first.utt_id), *rest]
        path = tmp_path / "manifest.csv"
        save_manifest(Manifest(records), path)
        code = run_cli([
            "train", "--manifest", str(path), "--frontend", "mel",
            "--epochs", "1", "--out-dir", str(tmp_path / "run"),
        ])
        err = capsys.readouterr().err
        assert code == 3
        assert err.count("\n") == 1
        assert err == (
            f"error: {path}: line 3: duplicate id '{first.utt_id}', first at line 2\n"
        )

    @pytest.mark.parametrize("row, message", [
        (b"u0,a.wav,control,s\xff,train\n", "line 3 is not UTF-8: invalid start byte"),
        (b"u0,a.wav,control," + b"s" * 200_000 + b",train\n",
         "line 3: field larger than field limit (131072)"),
    ], ids=["non-utf8-byte", "huge-field"])
    def test_unreadable_row_is_a_data_error(self, row, message, tmp_path, capsys):
        path = tmp_path / "manifest.csv"
        path.write_bytes(
            b"id,path,label,speaker,split\nu1,b.wav,dysarthric,s1,train\n" + row
        )
        code = run_cli(["eval", "--checkpoint", "x.ckpt", "--manifest", str(path),
                        "--split", "test"])
        assert code == 3
        assert capsys.readouterr().err == f"error: {path}: {message}\n"


class TestConsoleScript:
    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "wavefront.cli", "train", "--list-configs"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("mel")
