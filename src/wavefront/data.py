"""Corpus handling: WAV I/O, fixed-duration padding, speaker-disjoint
manifests, a synthetic two-band corpus for desk-scale experiments, and the
unweighted average recall metric."""

from __future__ import annotations

import csv
import io
import math
import os
import re
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


def read_wav(path, expected_sample_rate: int = 16000) -> Waveform:
    """Read a RIFF/WAVE file; must be 16-bit PCM, mono, at the expected rate.
    Every FormatError or OSError it raises names the file."""
    try:
        with wave.open(str(path), "rb") as wf:
            if wf.getcomptype() != "NONE":
                raise FormatError(
                    f"{path}: codec: expected PCM, "
                    f"got compression '{wf.getcomptype()}'"
                )
            if wf.getsampwidth() != 2:
                raise FormatError(
                    f"{path}: sample_width: expected 16-bit, "
                    f"got {8 * wf.getsampwidth()}-bit"
                )
            if wf.getnchannels() != 1:
                raise FormatError(
                    f"{path}: channels: expected mono, got {wf.getnchannels()}"
                )
            if wf.getframerate() != expected_sample_rate:
                raise FormatError(
                    f"{path}: sample_rate: expected {expected_sample_rate}, "
                    f"got {wf.getframerate()}"
                )
            n_frames = wf.getnframes()
            if n_frames == 0:
                raise FormatError(f"{path}: empty data chunk (0 frames)")
            raw = wf.readframes(n_frames)
    except wave.Error as e:
        raise FormatError(f"{path}: not a readable RIFF/WAVE file: {e}") from e
    except RuntimeError as e:  # wave's chunk reader: a size past its RIFF chunk
        raise FormatError(
            f"{path}: not a readable RIFF/WAVE file: "
            "a chunk size runs past the RIFF chunk"
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
    """Load a UTF-8 manifest CSV; relative utterance paths resolve against
    the manifest's directory. An id may appear on one row only, as training
    caches each utterance's features by id. Every ValidationError names
    the file and a physical line, which a quoted field may span: the first
    line of a bad or repeated row, line 1 for a wrong header, the line of a
    byte that is not UTF-8, and the line where the csv module gave up on a
    row it cannot parse."""
    path = Path(path)
    base = path.parent
    records = []
    first_line: dict[str, int] = {}
    raw = path.read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as e:
        # lines end as the csv reader ends them: \r\n, \r or \n
        line = len(re.split(rb"\r\n?|\n", raw[: e.start]))
        raise ValidationError(f"{path}: line {line} is not UTF-8: {e.reason}") from e
    reader = csv.reader(io.StringIO(text, newline=""))

    def invalid(lineno: int, what: str) -> ValidationError:
        return ValidationError(f"{path}: line {lineno}: {what}")

    try:
        header = next(reader, None)
        if header is None or tuple(header) != MANIFEST_FIELDS:
            raise invalid(1, f"header must be {','.join(MANIFEST_FIELDS)}")
        while True:
            lineno = reader.line_num + 1  # where the next record starts
            row = next(reader, None)
            if row is None:
                break
            if len(row) != len(MANIFEST_FIELDS):
                raise invalid(lineno, f"{len(row)} fields, not {len(MANIFEST_FIELDS)}")
            utt_id, p, label, speaker, split = row
            if label not in LABELS:
                raise invalid(lineno, f"unknown label '{label}'")
            if split not in SPLITS:
                raise invalid(lineno, f"unknown split '{split}'")
            if utt_id in first_line:
                first = first_line[utt_id]
                raise invalid(lineno, f"duplicate id '{utt_id}', first at line {first}")
            first_line[utt_id] = lineno
            if not os.path.isabs(p):
                p = str(base / p)
            records.append(Utterance(utt_id, p, label, speaker, split))
    except csv.Error as e:
        raise invalid(reader.line_num, str(e)) from e
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


# The fixed part of the synthetic corpus: class bands at 2 and 6.5 kHz, each
# burst a sum of sinusoids around its speaker's band center. Per-speaker gain
# and band offset keep utterance energy from identifying the class alone.
SYNTH_SAMPLE_RATE = 16000
SYNTH_BAND_CENTERS_HZ = (2000.0, 6500.0)
SYNTH_BAND_WIDTH_HZ = 400.0
SYNTH_DURATION_S = (1.2, 2.3)
SYNTH_SINUSOIDS = 24
SYNTH_SPEAKER_GAIN = (0.35, 0.9)
SYNTH_SPEAKER_JITTER_HZ = 120.0
SYNTH_BURST_RMS = 0.22


@dataclass(frozen=True)
class SyntheticSpec:
    """The settable part of the two-class synthetic corpus (see the SYNTH_
    constants for the rest): the seed, the utterances per class in each
    split, the speakers per class in each split, and the level of the white
    noise added to every clip. Each is checked when the spec is built."""

    seed: int = 0
    n_train_per_class: int = 8
    n_valid_per_class: int = 4
    n_test_per_class: int = 4
    n_speakers_per_class: int = 4
    noise_floor: float = 0.05

    def __post_init__(self):
        for name in (
            "seed", "n_train_per_class", "n_valid_per_class", "n_test_per_class"
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.n_speakers_per_class < 1:
            raise ValueError(
                f"n_speakers_per_class must be >= 1, got {self.n_speakers_per_class}"
            )
        if not (math.isfinite(self.noise_floor) and self.noise_floor >= 0):
            raise ValueError(
                f"noise_floor must be finite and >= 0, got {self.noise_floor}"
            )


def generate_synthetic(spec: SyntheticSpec, out_dir) -> Manifest:
    """Write the corpus WAVs and manifest.csv under out_dir; byte-identical
    for identical specs."""
    out_dir = Path(out_dir)
    wav_dir = out_dir / "wavs"
    wav_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(spec.seed)
    sr = SYNTH_SAMPLE_RATE

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
                gain = rng.uniform(*SYNTH_SPEAKER_GAIN)
                offset = rng.uniform(-SYNTH_SPEAKER_JITTER_HZ, SYNTH_SPEAKER_JITTER_HZ)
                cell.append((f"spk{spk_counter:02d}", gain, offset))
                spk_counter += 1
            speakers[(split, ci)] = cell

    records = []
    for split in SPLITS:
        for ci, label in enumerate(LABELS):
            cell = speakers[(split, ci)]
            for i in range(counts[split]):
                spk_id, gain, offset = cell[i % len(cell)]
                duration = rng.uniform(*SYNTH_DURATION_S)
                n = int(round(duration * sr))
                center = SYNTH_BAND_CENTERS_HZ[ci] + offset
                half_width = SYNTH_BAND_WIDTH_HZ / 2.0
                freqs = center + rng.uniform(-half_width, half_width, SYNTH_SINUSOIDS)
                phases = rng.uniform(0.0, 2.0 * np.pi, SYNTH_SINUSOIDS)
                # One sinusoid at a time, so only clip-length vectors are held.
                omega_t = 2.0 * np.pi * (np.arange(n) / sr)
                burst = np.zeros(n)
                for freq, phase in zip(freqs, phases):
                    burst += np.sin(omega_t * freq + phase)
                burst *= SYNTH_BURST_RMS / np.sqrt(np.mean(burst**2))
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
