"""In-memory span tracer for the wavefront benchmark.

Each traced function is replaced at the name its caller looks it up by (for
example `wavefront.net.tdfb_forward`, since `net` imports it by name), so the
program itself is not edited. A span records its name, the phase it ran in,
its round (one `train_run` call or one `evaluate` pass), its parent span,
start and end, and its self time: duration minus the time covered by its
direct child spans. Spans stay in memory until `write_jsonl` at the end.

In the set-up phase only the set-up functions are recorded; in the run phase
every wrapped function is; outside both (the correctness checks) nothing is.
"""

from __future__ import annotations

import json
import time

import numpy as np

SETUP = "setup"
RUN = "run"

# (module attribute to replace, metric name). One metric name may sit behind
# several attributes when two modules import the same function.
TRACED = (
    ("net.read_wav", "data.read_wav"),
    ("data.generate_synthetic", "data.generate_synthetic"),
    ("melfb.power_spectrum", "dsp.power_spectrum"),
    ("net.prepare_waveform", "net.prepare_waveform"),
    ("melfb.mel_energy_features", "melfb.mel_energy_features"),
    ("net.mel_energy_features", "melfb.mel_energy_features"),
    ("net.tdfb_forward", "tdfb.tdfb_forward"),
    ("net.tdfb_backward", "tdfb.tdfb_backward"),
    ("net.pcen_forward", "pcen.pcen_forward"),
    ("net.pcen_backward", "pcen.pcen_backward"),
    ("net.lstm_forward", "net.lstm_forward"),
    ("net.lstm_backward", "net.lstm_backward"),
    ("net.attention_forward", "net.attention_forward"),
    ("net.attention_backward", "net.attention_backward"),
    ("net.sgd_momentum_step", "net.sgd_momentum_step"),
    ("net.predict_label", "net.predict_label"),
    ("net.save_checkpoint", "net.save_checkpoint"),
    ("net.state_from_checkpoint", "net.state_from_checkpoint"),
)

SETUP_FUNCTIONS = (
    "data.generate_synthetic",
    "net.save_checkpoint",
    "net.state_from_checkpoint",
)
RUN_FUNCTIONS = (
    "data.read_wav",
    "dsp.power_spectrum",
    "net.prepare_waveform",
    "melfb.mel_energy_features",
    "tdfb.tdfb_forward",
    "tdfb.tdfb_backward",
    "pcen.pcen_forward",
    "pcen.pcen_backward",
    "net.lstm_forward",
    "net.lstm_backward",
    "net.attention_forward",
    "net.attention_backward",
    "net.sgd_momentum_step",
    "net.predict_label",
    "net.save_checkpoint",
)

# Spans whose presence inside a feature-provider call means the fixed
# frontend ran, i.e. the feature cache did not serve that call.
FRONTEND_SPANS = ("melfb.mel_energy_features", "tdfb.tdfb_forward")


def array_bytes(obj) -> int:
    """Bytes held by the numpy arrays among an object's attributes."""
    return sum(v.nbytes for v in vars(obj).values() if isinstance(v, np.ndarray))


class Tracer:
    def __init__(self):
        self.phase: str | None = None
        self.round = 0
        self.spans: list[tuple] = []  # (id, parent, phase, round, name, t0, t1, self_ns)
        self._open: list[list[int]] = []  # [span id, child ns] per open span
        self._next_id = 0
        self.frontend_calls = 0
        self.provider_calls = 0
        self.provider_hits = 0
        self.tdfb_cache_bytes: list[int] = []

    def _recording(self, name: str) -> bool:
        if self.phase == RUN:
            return True
        return self.phase == SETUP and name in SETUP_FUNCTIONS

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            if not self._recording(name):
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = self._open[-1][0] if self._open else None
            if name in FRONTEND_SPANS:
                self.frontend_calls += 1
            entry = [span_id, 0]
            self._open.append(entry)
            t0 = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                self._open.pop()
                duration = t1 - t0
                if self._open:
                    self._open[-1][1] += duration
                self.spans.append(
                    (span_id, parent, self.phase, self.round, name, t0, t1,
                     duration - entry[1])
                )
            if name == "tdfb.tdfb_forward":
                self.tdfb_cache_bytes.append(array_bytes(out[1]))
            return out

        return traced

    def wrap_provider_factory(self, make_provider):
        """Count feature-provider calls and those the cache served."""

        def factory(*args, **kwargs):
            provider = make_provider(*args, **kwargs)

            def counted(*pargs, **pkwargs):
                if self.phase != RUN:
                    return provider(*pargs, **pkwargs)
                before = self.frontend_calls
                out = provider(*pargs, **pkwargs)
                self.provider_calls += 1
                self.provider_hits += self.frontend_calls == before
                return out

            return counted

        return factory

    def adopt(self, spans: list[tuple]) -> None:
        """Take over spans recorded by another process (the set-up child),
        renumbering their ids after this tracer's."""
        offset = self._next_id
        for span_id, parent, *rest in spans:
            self.spans.append(
                (span_id + offset, None if parent is None else parent + offset, *rest)
            )
        self._next_id += len(spans)

    def install(self, modules: dict) -> None:
        """Replace every traced attribute; `modules` maps short module names
        ("net", "data", "melfb") to the imported modules."""
        for target, name in TRACED:
            mod_name, attr = target.split(".")
            mod = modules[mod_name]
            setattr(mod, attr, self.wrap(name, getattr(mod, attr)))
        net = modules["net"]
        net.make_feature_provider = self.wrap_provider_factory(net.make_feature_provider)

    def per_layer(self, n_setups: int, n_ops: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics: for each function, calls per operation (per
        set-up in the set-up phase) and mean self time per call in ms."""
        totals: dict[tuple[str, str], list[int]] = {}
        for _, _, phase, _, name, _, _, self_ns in self.spans:
            acc = totals.setdefault((phase, name), [0, 0])
            acc[0] += 1
            acc[1] += self_ns
        metrics: dict[str, tuple[float, str]] = {}
        for phase, prefix, names, per, unit in (
            (SETUP, "setup.", SETUP_FUNCTIONS, n_setups, "calls/setup"),
            (RUN, "", RUN_FUNCTIONS, n_ops, "calls/op"),
        ):
            for name in names:
                calls, self_ns = totals.get((phase, name), (0, 0))
                metrics[f"{prefix}{name}.calls"] = (calls / per, unit)
                metrics[f"{prefix}{name}.self_ms"] = (
                    self_ns / calls / 1e6 if calls else 0.0,
                    "ms",
                )
        cache = self.tdfb_cache_bytes
        metrics["tdfb.cache_mb"] = (sum(cache) / len(cache) / 1e6 if cache else 0.0, "MB")
        metrics["net.feature_cache.hit_ratio"] = (
            self.provider_hits / self.provider_calls if self.provider_calls else 0.0,
            "ratio",
        )
        return metrics

    def write_jsonl(self, path) -> None:
        fields = ("id", "parent", "phase", "round", "name", "start_ns", "end_ns", "self_ns")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(fields, span))) + "\n")
