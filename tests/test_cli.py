"""Command-line surface: flags, exit codes, and artifact formats."""

import dataclasses
import json
import struct
import subprocess
import sys

import numpy as np
import pytest

from wavefront import cli, net
from wavefront.data import Manifest, Waveform, load_manifest, save_manifest, write_wav


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
        assert run_cli(["train", "--list-configs"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == [
            "mel",
            "mel_mvn",
            "mel_pcen --pcen-learn r,alpha,delta",
            "tdfb",
            "tdfb_pcen --pcen-learn r,alpha,delta",
            "tdfb_pcen --pcen-learn r",
            "tdfb_pcen --pcen-learn alpha",
        ]


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

    def test_unknown_gradcheck_op(self):
        assert run_cli(["gradcheck", "fourier"]) == 2

    def test_extract_needs_a_parameter_source(self, zero_wav, tmp_path):
        code = run_cli(["extract", "--wav", str(zero_wav),
                        "--out", str(tmp_path / "x.csv")])
        assert code == 2


class TestGradcheckCommand:
    def test_single_op_exits_clean(self, capsys):
        assert run_cli(["gradcheck", "pcen"]) == 0
        out = capsys.readouterr().out
        assert "pcen[r,alpha,delta]" in out
        assert "FAIL" not in out

    def test_broken_selftest_fails_with_numeric_exit(self, capsys):
        assert run_cli(["gradcheck", "selftest-broken"]) == 4
        assert "FAIL" in capsys.readouterr().out


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

    def test_missing_wav_is_data_error(self, tmp_path):
        code = run_cli([
            "extract", "--wav", str(tmp_path / "absent.wav"),
            "--frontend", "mel", "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 3

    def test_corrupt_fmt_chunk_size(self, zero_wav, tmp_path, capsys):
        # Bytes 16-19 hold the fmt chunk's size (16: 10 00 00 00). Each new
        # value ends in a data or format error with one line; a value the
        # byte already holds leaves the file as it was, and it still reads.
        original = zero_wav.read_bytes()
        want = run_cli(["extract", "--wav", str(zero_wav), "--frontend", "mel",
                        "--out", str(tmp_path / "want.csv")])
        assert want == 0
        capsys.readouterr()
        for offset in range(16, 20):
            for value in (0x00, 0x03, 0xFF):
                blob = bytearray(original)
                blob[offset] = value
                bad = tmp_path / "bad.wav"
                bad.write_bytes(blob)
                out_csv = tmp_path / "got.csv"
                code = run_cli(["extract", "--wav", str(bad), "--frontend", "mel",
                                "--out", str(out_csv)])
                err = capsys.readouterr().err
                case = f"byte {offset} = {value:#04x}"
                if blob == original:
                    assert code == 0, case
                    assert out_csv.read_bytes() == (tmp_path / "want.csv").read_bytes()
                else:
                    assert code in (2, 3), case
                    assert err.count("\n") == 1, case
                    assert "Traceback" not in err, case

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
         ({"learning_rate": float("nan")}, "learning_rate must be finite and > 0")],
    )
    def test_bad_checkpoint_config_is_config_error(
        self, init_checkpoint, tmp_path, change, message
    ):
        tensors, meta = net.load_checkpoint(init_checkpoint)
        meta["config"].update(change)
        bad = tmp_path / "bad.ckpt"
        net.save_checkpoint(bad, tensors, meta)
        proc = subprocess.run(
            [sys.executable, "-m", "wavefront.cli", "inspect", "--checkpoint", str(bad),
             "--out-dir", str(tmp_path / "out")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.count("\n") == 1 and message in proc.stderr


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
        assert f"duplicate id '{first.utt_id}' at lines 2 and 3" in err


class TestConsoleScript:
    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "wavefront.cli", "train", "--list-configs"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("mel")
