"""Acceptance suite: one test per release criterion, each printing a
PASS line with its measured numbers.

Run with `pytest tests/test_acceptance.py -v -s`. The synthetic experiment
and the overfit check train real models; together they need roughly half an
hour on one CPU core.
"""

import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

from oracles import log_mel_features
from wavefront import net
from wavefront.data import LABELS, uar
from wavefront.dsp import Waveform
from wavefront.melfb import FeatureMap, mel_filterbank_matrix
from wavefront.pcen import PcenParams, init_pcen_params, pcen_forward, smoother
from wavefront.tdfb import center_frequency_report, init_tdfb_params, tdfb_forward

pytestmark = pytest.mark.acceptance

SINGLE_CORE_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def cli(*args, blas_threads=1):
    env = {**os.environ, **SINGLE_CORE_ENV, "OPENBLAS_NUM_THREADS": str(blas_threads)}
    proc = subprocess.run(
        [sys.executable, "-m", "wavefront.cli", *args],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, f"{args}\n{proc.stdout}\n{proc.stderr}"
    return proc.stdout


# ---------------------------------------------------------------------------
# Criterion: gradient suite


def test_gradient_suite():
    t0 = time.perf_counter()
    rows = net.run_gradcheck()
    wall = time.perf_counter() - t0
    worst = max(rows, key=lambda r: r.max_rel_err)
    for row in rows:
        assert row.passed, f"{row.config}/{row.tensor}: {row.max_rel_err:.2e}"
    assert wall < 60.0
    print(
        f"\nACCEPTANCE gradient-suite: PASS "
        f"({len(rows)} checks, worst {worst.config}/{worst.tensor} "
        f"{worst.max_rel_err:.2e}, {wall:.1f} s)"
    )


# ---------------------------------------------------------------------------
# Criterion: initialization fidelity against the log-mel reference
#
# Calibrated probe signal: white-noise clips whose level follows a slow
# random envelope (log-uniform in [1e-3, 1], nine breakpoints, base 0.05).
# The level dynamics make the comparison measure tracking of the reference
# rather than per-frame estimator noise; seeds are frozen.


def fidelity_clip(seed, n=40000):
    rng = np.random.default_rng(seed)
    levels = np.exp(rng.uniform(np.log(1e-3), 0.0, 9))
    envelope = np.interp(np.arange(n), np.linspace(0, n, 9), levels)
    return 0.05 * envelope * rng.standard_normal(n)


def test_init_fidelity():
    matrix = mel_filterbank_matrix()
    params = init_tdfb_params(matrix)
    mel_maps, td_maps = [], []
    for seed in range(400, 410):
        wave = Waveform(fidelity_clip(seed), 16000)
        mel_maps.append(log_mel_features(wave, matrix, 400, 160))
        td_maps.append(np.log1p(tdfb_forward(wave, params)[0].values))
    mel = np.concatenate(mel_maps, axis=1)
    td = np.concatenate(td_maps, axis=1)
    corrs = np.array([np.corrcoef(mel[ch], td[ch])[0, 1] for ch in range(64)])
    n_good = int(np.sum(corrs >= 0.9))
    assert n_good >= 60, f"only {n_good}/64 channels at r >= 0.9: {np.sort(corrs)[:6]}"
    print(
        f"\nACCEPTANCE init-fidelity: PASS "
        f"({n_good}/64 channels with r >= 0.9, min r = {corrs.min():.3f})"
    )


# ---------------------------------------------------------------------------
# Criterion: shape contract


def test_shape_contract():
    wave = Waveform(
        0.1 * np.random.default_rng(0).standard_normal(40000), 16000
    )
    for frontend in net.FRONTENDS:
        state = net.make_train_state(net.make_run_config(frontend))
        values, _ = net.frontend_forward(state.frontend, wave)
        assert values.shape == (64, 248), frontend
    print("\nACCEPTANCE shape-contract: PASS (5 frontends at 64x248)")


# ---------------------------------------------------------------------------
# Criterion: PCEN closed forms


def test_pcen_closed_forms():
    e = np.random.default_rng(1).uniform(0.0, 3.0, (2, 12))
    identity = PcenParams(alpha=np.zeros(2), delta=np.zeros(2), r=np.ones(2))
    out, _ = pcen_forward(FeatureMap(e), identity)
    assert np.max(np.abs(out.values - e)) < 1e-12

    c = 5.0
    p = PcenParams(
        alpha=np.ones(1), delta=np.array([2.0]), r=np.array([0.5]),
        epsilon=1e-12,
    )
    out, _ = pcen_forward(FeatureMap(np.full((1, 8), c)), p)
    expected = (1.0 + 2.0) ** 0.5 - 2.0**0.5
    assert np.max(np.abs(out.values - expected)) < 1e-12

    m = smoother(np.array([[1.0, 0.0, 0.0]]), 0.5)
    assert np.max(np.abs(m - np.array([[1.0, 0.5, 0.25]]))) < 1e-12
    print("\nACCEPTANCE pcen-closed-forms: PASS (identity, constant, smoother)")


# ---------------------------------------------------------------------------
# Criterion: synthetic two-band experiment, seed-averaged


@pytest.fixture(scope="session")
def experiment(tmp_path_factory):
    root = tmp_path_factory.mktemp("experiment")
    corpus = root / "corpus"
    cli(
        "synth", "--out-dir", str(corpus), "--seed", "7",
        "--n-train", "100", "--n-valid", "25", "--n-test", "40",
    )
    return json.loads(
        cli(
            "experiment", "--manifest", str(corpus / "manifest.csv"),
            "--out-dir", str(root / "runs"), "--configs", "mel", "tdfb",
            "--seeds", "1", "2", "3", "--epochs", "3", "--patience", "3",
        )
    )


def test_synthetic_experiment(experiment):
    runs = experiment["runs"]
    assert [(r["config"], r["seed"]) for r in runs] == [
        (config, seed) for config in ("mel", "tdfb") for seed in (1, 2, 3)
    ]
    for run in runs:
        assert run["train_s"] < 600.0, (
            f"{run['config']} seed {run['seed']} took {run['train_s']:.0f} s"
        )
    mel_mean = experiment["configs"]["mel"]["uar_mean"]
    tdfb_mean = experiment["configs"]["tdfb"]["uar_mean"]
    assert mel_mean >= 0.90, f"mel mean test UAR {mel_mean:.3f}"
    assert tdfb_mean >= mel_mean - 0.02, (
        f"tdfb mean {tdfb_mean:.3f} vs mel mean {mel_mean:.3f}"
    )
    slowest = max(r["train_s"] for r in runs)
    print(
        f"\nACCEPTANCE synthetic-experiment: PASS "
        f"(mel {mel_mean:.3f}, tdfb {tdfb_mean:.3f} over 3 seeds, "
        f"slowest run {slowest:.0f} s)"
    )


def test_trained_filter_scale_keeps_band_density(experiment):
    # after training on the two-band task, filter density around the class
    # bands must not decrease relative to initialization
    (checkpoint,) = [
        r["checkpoint"] for r in experiment["runs"]
        if (r["config"], r["seed"]) == ("tdfb", 1)
    ]
    state = net.state_from_checkpoint(checkpoint)
    rows = center_frequency_report(state.frontend.tdfb)
    learned = np.array([r[1] for r in rows])
    initial = np.array([r[2] for r in rows])
    for band in (2000.0, 6500.0):
        n_init = int(np.sum(np.abs(initial - band) <= 250.0))
        n_learned = int(np.sum(np.abs(learned - band) <= 250.0))
        assert n_learned >= n_init, (band, n_init, n_learned)
    print("\nfilter-scale density around class bands preserved after training")


# ---------------------------------------------------------------------------
# Criterion: overfit check on ten utterances


@pytest.fixture(scope="session")
def overfit_results(small_corpus):
    manifest, _ = small_corpus
    return {
        frontend: net.overfit_check(
            manifest, net.make_run_config(frontend, seed=0, epochs=50)
        )
        for frontend in net.FRONTENDS
    }


def test_overfit_every_frontend(overfit_results):
    details = []
    for frontend, r in overfit_results.items():
        assert r.final < 0.1 * r.initial, (
            f"{frontend}: {r.final:.4f} vs initial {r.initial:.4f} "
            f"after {r.epochs} epochs"
        )
        details.append(f"{frontend} {r.epochs}ep")
    print(f"\nACCEPTANCE overfit-check: PASS ({', '.join(details)})")


def test_trained_pcen_compression_varies(overfit_results):
    r_values = np.abs(overfit_results["mel_pcen"].state.frontend.pcen.r)
    assert float(np.var(r_values)) > 1e-6
    print(
        f"\ntrained per-channel compression exponents vary "
        f"(var {float(np.var(r_values)):.2e})"
    )


# ---------------------------------------------------------------------------
# Criterion: determinism


def test_determinism(small_corpus, tmp_path):
    _, root = small_corpus
    manifest = str(root / "manifest.csv")
    outputs = []
    for case, extra in (("mel_pcen", ["--epochs", "2"]), ("tdfb", ["--epochs", "1"])):
        blobs = []
        for attempt in ("a", "b"):
            out = tmp_path / f"{case}_{attempt}"
            cli(
                "train", "--manifest", manifest, "--frontend", case,
                "--seed", "11", "--patience", "5", "--out-dir", str(out),
                *extra,
            )
            blobs.append(
                (
                    (out / "checkpoint.ckpt").read_bytes(),
                    (out / "train_log.csv").read_bytes(),
                    (out / "config.json").read_bytes(),
                )
            )
        assert blobs[0][0] == blobs[1][0], f"{case}: checkpoints differ"
        assert blobs[0][1] == blobs[1][1], f"{case}: logs differ"
        assert blobs[0][2] == blobs[1][2], f"{case}: config echoes differ"
        outputs.append(case)
    print(f"\nACCEPTANCE determinism: PASS (bit-identical reruns: {outputs})")


def test_determinism_across_blas_threads(small_corpus, tmp_path):
    """train and eval --out give byte-identical artifacts at one and two
    BLAS threads: BLAS picks its kernels by shape and thread count."""
    _, root = small_corpus
    manifest = str(root / "manifest.csv")
    run = tmp_path / "run"
    artifacts = ("checkpoint.ckpt", "train_log.csv", "config.json", "eval.json")
    blobs = {}
    for threads in (1, 2):
        shutil.rmtree(run, ignore_errors=True)
        for case, epochs in (("mel", "2"), ("tdfb_pcen", "1")):
            out = run / case
            cli(
                "train", "--manifest", manifest, "--frontend", case, "--seed", "5",
                "--epochs", epochs, "--patience", "5", "--out-dir", str(out),
                blas_threads=threads,
            )
            cli(
                "eval", "--checkpoint", str(out / "checkpoint.ckpt"),
                "--manifest", manifest, "--split", "train",
                "--out", str(out / "eval.json"), blas_threads=threads,
            )
            for name in artifacts:
                blobs.setdefault((case, name), []).append((out / name).read_bytes())
    differ = [key for key, (one, two) in blobs.items() if one != two]
    assert not differ, f"differ between 1 and 2 BLAS threads: {differ}"
    print(f"\nACCEPTANCE determinism across BLAS threads: PASS ({len(blobs)} files)")


# ---------------------------------------------------------------------------
# Criterion: UAR oracle


def test_uar_oracle():
    rng = np.random.default_rng(2024)
    truths = [LABELS[i] for i in rng.integers(0, 2, 1000)]
    preds = [LABELS[i] for i in rng.integers(0, 2, 1000)]
    per_label = {}
    for p, t in zip(preds, truths):
        hits, total = per_label.get(t, (0, 0))
        per_label[t] = (hits + (p == t), total + 1)
    recalls = [h / n for h, n in per_label.values()]
    expected = sum(recalls) / len(recalls)
    assert uar(preds, truths) == expected
    print(f"\nACCEPTANCE uar-oracle: PASS (exact match at {expected:.4f})")


# ---------------------------------------------------------------------------
# Criterion: inspection exports at initialization


def test_inspection_exports(small_corpus, tmp_path):
    _, root = small_corpus
    run_dir = tmp_path / "init_run"
    cli(
        "train", "--manifest", str(root / "manifest.csv"),
        "--frontend", "tdfb_pcen", "--epochs", "0", "--out-dir", str(run_dir),
    )
    report_dir = tmp_path / "reports"
    cli(
        "inspect", "--checkpoint", str(run_dir / "checkpoint.ckpt"),
        "--out-dir", str(report_dir),
    )
    pcen_rows = (report_dir / "pcen_compression.csv").read_text().splitlines()
    assert len(pcen_rows) == 65
    for row in pcen_rows[1:]:
        _, r_abs, alpha, delta = row.split(",")
        assert (float(r_abs), float(alpha), float(delta)) == (0.5, 0.98, 2.0)
    grid = mel_filterbank_matrix().center_freqs_hz
    scale_rows = (report_dir / "filter_scale.csv").read_text().splitlines()
    assert len(scale_rows) == 65
    bin_width = 16000 / 512
    for i, row in enumerate(scale_rows[1:]):
        _, learned, init = row.split(",")
        assert float(init) == grid[i]
        assert abs(float(learned) - float(init)) <= bin_width
    print(
        "\nACCEPTANCE inspection-exports: PASS "
        "(PCEN at 0.5/0.98/2.0, centers within one bin)"
    )
