"""Corpus handling: WAV I/O, fixed-duration padding, speaker-disjoint
manifests, a synthetic two-band corpus for desk-scale experiments, and the
unweighted average recall metric."""

from __future__ import annotations

import csv
import os
import wave
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dsp import Waveform
from .errors import FormatError, ValidationError

LABELS = ("control", "dysarthric")
SPLITS = ("train", "valid", "test")

MANIFEST_FIELDS = ("id", "path", "label", "speaker", "split")


@dataclass(frozen=True)
class Utterance:
    utt_id: str
    path: str
    label: str
    speaker: str
    split: str


@dataclass
class Manifest:
    records: list[Utterance]

    def split(self, name: str) -> list[Utterance]:
        return [r for r in self.records if r.split == name]

    def speakers(self, split: str | None = None) -> set[str]:
        return {
            r.speaker for r in self.records if split is None or r.split == split
        }


def read_wav(path, expected_sample_rate: int = 16000) -> Waveform:
    """Read a RIFF/WAVE file; must be 16-bit PCM, mono, at the expected rate."""
    try:
        with wave.open(str(path), "rb") as wf:
            if wf.getcomptype() != "NONE":
                raise FormatError(
                    f"codec: expected PCM, got compression '{wf.getcomptype()}'"
                )
            if wf.getsampwidth() != 2:
                raise FormatError(
                    f"sample_width: expected 16-bit, got {8 * wf.getsampwidth()}-bit"
                )
            if wf.getnchannels() != 1:
                raise FormatError(
                    f"channels: expected mono, got {wf.getnchannels()}"
                )
            if wf.getframerate() != expected_sample_rate:
                raise FormatError(
                    f"sample_rate: expected {expected_sample_rate}, "
                    f"got {wf.getframerate()}"
                )
            n_frames = wf.getnframes()
            raw = wf.readframes(n_frames)
    except wave.Error as e:
        raise FormatError(f"not a readable RIFF/WAVE file: {e}") from e
    except RuntimeError as e:  # wave's chunk reader: a size past its RIFF chunk
        raise FormatError(
            "not a readable RIFF/WAVE file: a chunk size runs past the RIFF chunk"
        ) from e
    except EOFError as e:
        raise OSError(f"truncated WAV file: {path}") from e
    if len(raw) < 2 * n_frames:
        raise OSError(f"truncated data chunk in {path}")
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    return Waveform(samples, expected_sample_rate)


def write_wav(path, w: Waveform) -> None:
    """Write 16-bit PCM mono; read_wav(write_wav(w)) round-trips PCM values
    exactly."""
    ints = np.clip(np.round(w.samples * 32768.0), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(w.sample_rate)
        wf.writeframes(ints.tobytes())


def pad_or_trim(w: Waveform, duration_s: float = 2.5) -> Waveform:
    """Zero-pad at the end or truncate the tail to an exact sample count.

    The result records how many leading samples are signal (n_signal); a
    trimmed or exact-length clip is all signal.
    """
    target = int(round(duration_s * w.sample_rate))
    n = len(w)
    if n == target:
        return w
    if n < target:
        samples = np.concatenate([w.samples, np.zeros(target - n)])
    else:
        samples = w.samples[:target].copy()
    n_signal = min(w.signal_len, target)
    return Waveform(samples, w.sample_rate, None if n_signal == target else n_signal)


def save_manifest(m: Manifest, path, relative_to=None) -> None:
    path = Path(path)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(MANIFEST_FIELDS)
        for r in m.records:
            p = r.path
            if relative_to is not None:
                p = os.path.relpath(p, relative_to)
            writer.writerow([r.utt_id, p, r.label, r.speaker, r.split])


def load_manifest(path) -> Manifest:
    """Load a manifest CSV; relative utterance paths resolve against the
    manifest's directory. An id may appear on one row only, as training
    caches each utterance's features by id."""
    path = Path(path)
    base = path.parent
    records = []
    first_line: dict[str, int] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header) != MANIFEST_FIELDS:
            raise ValidationError(
                f"manifest header must be {','.join(MANIFEST_FIELDS)}"
            )
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(MANIFEST_FIELDS):
                raise ValidationError(f"malformed manifest row at line {lineno}")
            utt_id, p, label, speaker, split = row
            if label not in LABELS:
                raise ValidationError(f"unknown label '{label}' at line {lineno}")
            if split not in SPLITS:
                raise ValidationError(f"unknown split '{split}' at line {lineno}")
            if utt_id in first_line:
                raise ValidationError(
                    f"duplicate id '{utt_id}' at lines {first_line[utt_id]} "
                    f"and {lineno}"
                )
            first_line[utt_id] = lineno
            if not os.path.isabs(p):
                p = str(base / p)
            records.append(Utterance(utt_id, p, label, speaker, split))
    return Manifest(records)


def validate_manifest(m: Manifest, check_files: bool = True) -> dict:
    """Assert speaker-disjoint splits and full label coverage; returns
    per-split label counts."""
    speaker_splits: dict[str, set[str]] = {}
    for r in m.records:
        speaker_splits.setdefault(r.speaker, set()).add(r.split)
    shared = sorted(s for s, splits in speaker_splits.items() if len(splits) > 1)
    if shared:
        raise ValidationError(
            f"speakers appear in multiple splits: {', '.join(shared)}"
        )
    counts: dict[str, dict[str, int]] = {s: {} for s in SPLITS}
    for r in m.records:
        counts[r.split][r.label] = counts[r.split].get(r.label, 0) + 1
    for split in SPLITS:
        if not counts[split]:
            raise ValidationError(f"split '{split}' is empty")
        for label in LABELS:
            if counts[split].get(label, 0) == 0:
                raise ValidationError(
                    f"split '{split}' has no '{label}' utterances"
                )
    if check_files:
        missing = [r.path for r in m.records if not os.path.isfile(r.path)]
        if missing:
            preview = ", ".join(missing[:3])
            raise ValidationError(
                f"{len(missing)} missing audio files (first: {preview})"
            )
    return {"splits": counts, "n_records": len(m.records)}


@dataclass(frozen=True)
class SyntheticSpec:
    """Two-class corpus of band-limited noise bursts with speaker nuisance.

    Class bands sit at 2 kHz and 6.5 kHz; per-speaker gain and a per-speaker
    band offset keep utterance energy from identifying the class on its own.
    """

    seed: int = 0
    n_train_per_class: int = 8
    n_valid_per_class: int = 4
    n_test_per_class: int = 4
    band_centers_hz: tuple[float, float] = (2000.0, 6500.0)
    band_width_hz: float = 400.0
    noise_floor: float = 0.05
    n_speakers_per_class: int = 4
    sample_rate: int = 16000
    min_duration_s: float = 1.2
    max_duration_s: float = 2.3
    n_sinusoids: int = 24
    speaker_gain_range: tuple[float, float] = (0.35, 0.9)
    speaker_band_jitter_hz: float = 120.0
    burst_rms: float = 0.22

    def __post_init__(self):
        nyquist = self.sample_rate / 2.0
        for c in self.band_centers_hz:
            if not 0.0 < c < nyquist:
                raise ValueError(f"band center {c} outside (0, {nyquist})")
        if self.n_speakers_per_class < 1:
            raise ValueError("need at least one speaker per class")


def generate_synthetic(spec: SyntheticSpec, out_dir) -> Manifest:
    """Write the corpus WAVs and manifest.csv under out_dir; byte-identical
    for identical specs."""
    out_dir = Path(out_dir)
    wav_dir = out_dir / "wavs"
    wav_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(spec.seed)
    sr = spec.sample_rate

    counts = {
        "train": spec.n_train_per_class,
        "valid": spec.n_valid_per_class,
        "test": spec.n_test_per_class,
    }
    # Speaker identities are unique to a (split, class) cell, so splits are
    # disjoint by construction.
    speakers = {}
    spk_counter = 0
    for split in SPLITS:
        for ci in range(len(LABELS)):
            cell = []
            for _ in range(spec.n_speakers_per_class):
                gain = rng.uniform(*spec.speaker_gain_range)
                offset = rng.uniform(
                    -spec.speaker_band_jitter_hz, spec.speaker_band_jitter_hz
                )
                cell.append((f"spk{spk_counter:02d}", gain, offset))
                spk_counter += 1
            speakers[(split, ci)] = cell

    records = []
    for split in SPLITS:
        for ci, label in enumerate(LABELS):
            cell = speakers[(split, ci)]
            for i in range(counts[split]):
                spk_id, gain, offset = cell[i % len(cell)]
                duration = rng.uniform(spec.min_duration_s, spec.max_duration_s)
                n = int(round(duration * sr))
                center = spec.band_centers_hz[ci] + offset
                freqs = center + rng.uniform(
                    -spec.band_width_hz / 2.0,
                    spec.band_width_hz / 2.0,
                    spec.n_sinusoids,
                )
                phases = rng.uniform(0.0, 2.0 * np.pi, spec.n_sinusoids)
                t = np.arange(n) / sr
                burst = np.sin(
                    2.0 * np.pi * t[:, None] * freqs[None, :] + phases
                ).sum(axis=1)
                burst *= spec.burst_rms / np.sqrt(np.mean(burst**2))
                x = burst * gain * rng.uniform(0.8, 1.2)
                x = x + spec.noise_floor * rng.standard_normal(n)
                np.clip(x, -0.999, 0.999, out=x)
                utt_id = f"{split}-{label}-{i:04d}"
                rel_path = f"wavs/{utt_id}.wav"
                write_wav(wav_dir / f"{utt_id}.wav", Waveform(x, sr))
                records.append(
                    Utterance(utt_id, str(out_dir / rel_path), label, spk_id, split)
                )

    manifest = Manifest(records)
    save_manifest(manifest, out_dir / "manifest.csv", relative_to=out_dir)
    return manifest


def uar(predictions, truths) -> float:
    """Unweighted average recall: mean over the labels present in `truths`
    of that label's recall."""
    if len(predictions) != len(truths):
        raise ValueError(
            f"length mismatch: {len(predictions)} predictions, {len(truths)} truths"
        )
    if len(truths) == 0:
        raise ValueError("UAR of no utterances is undefined")
    recalls = []
    for label in sorted(set(truths)):
        idx = [i for i, t in enumerate(truths) if t == label]
        correct = sum(1 for i in idx if predictions[i] == label)
        recalls.append(correct / len(idx))
    return float(np.mean(recalls))
