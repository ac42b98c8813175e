"""Tests that every benchmark check accepts the program's real output and
rejects a deliberately perturbed copy of it.

    python3 wfbench/selftest.py            # plain runner, from the checkout root
    python3 -m pytest wfbench/selftest.py  # the same tests under pytest
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

sys.dont_write_bytecode = True
_HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(_HERE.parent / "src"), str(_HERE)]

import numpy as np  # noqa: E402

import checks  # noqa: E402
from wavefront import data, net, tdfb  # noqa: E402

_TMP = tempfile.TemporaryDirectory(prefix="wfbench-selftest-")
_CORPUS = data.generate_synthetic(
    data.SyntheticSpec(seed=3, n_train_per_class=1, n_valid_per_class=1, n_test_per_class=1),
    _TMP.name,
)
_UTT = _CORPUS.records[0]


def _state_and_wave(frontend):
    cfg = net.make_run_config(frontend, seed=3)
    state = net.make_train_state(cfg)
    wave = net.prepare_waveform(data.read_wav(_UTT.path), cfg)
    return state, wave


def _rejects(fn, *args, **kwargs):
    try:
        fn(*args, **kwargs)
    except checks.CheckFailed:
        return True
    return False


def _nudged(values, index, rel=1e-6):
    out = np.array(values, dtype=np.float64)
    out[index] += rel * np.max(np.abs(out))
    return out


def test_log_mel_oracle():
    state, wave = _state_and_wave("mel")
    values, _ = net.frontend_forward(state.frontend, wave)
    checks.check_log_mel(values, _UTT.path)
    assert _rejects(checks.check_log_mel, _nudged(values, (5, 100)), _UTT.path)


def test_tdfb_oracle():
    state, wave = _state_and_wave("tdfb_pcen")
    p = state.frontend.tdfb
    fm, _ = tdfb.tdfb_forward(wave, p)
    args = (_UTT.path, p.conv_taps, p.lowpass_width, p.lowpass_stride, (0, 21))
    checks.check_tdfb_channels(fm.values, *args)
    assert _rejects(checks.check_tdfb_channels, _nudged(fm.values, (21, 40)), *args)


def test_pcen_oracle():
    state, wave = _state_and_wave("tdfb_pcen")
    fm, _ = tdfb.tdfb_forward(wave, state.frontend.tdfb)
    values, _ = net.frontend_forward(state.frontend, wave)
    q = state.frontend.pcen
    args = (fm.values, q.alpha, q.delta, q.r, q.s, q.epsilon)
    checks.check_pcen(values, *args)
    assert _rejects(checks.check_pcen, _nudged(values, (63, 0)), *args)


def test_uar_by_counting():
    truths = ["control"] * 3 + ["dysarthric"] * 5
    preds = ["control", "dysarthric", "control"] + ["dysarthric"] * 4 + ["control"]
    reported = data.uar(preds, truths)
    checks.check_uar(reported, preds, truths)
    assert _rejects(checks.check_uar, reported + 1e-9, preds, truths)
    assert _rejects(checks.check_uar, reported, preds[::-1], truths)


def test_min_uar():
    checks.check_min_uar(0.9, 0.9)
    assert _rejects(checks.check_min_uar, 0.875, 0.9)
    assert _rejects(checks.check_min_uar, float("nan"), 0.9)


def test_rounds_agree():
    passes = [["control", "dysarthric"]] * 3
    checks.check_rounds_agree(passes)
    assert _rejects(checks.check_rounds_agree, passes + [["control", "control"]])


def test_finite_tensors():
    state, _ = _state_and_wave("tdfb_pcen")
    path = Path(_TMP.name) / "selftest.ckpt"
    net.save_checkpoint(path, net.checkpoint_tensors(state), {"config": net.config_to_dict(state.config)})
    tensors = net.checkpoint_tensors(net.state_from_checkpoint(path))
    checks.check_finite_tensors("reloaded", tensors)
    tensors["pcen.r"][7] = np.nan
    assert _rejects(checks.check_finite_tensors, "perturbed", tensors)


def test_directional_gradient():
    state, wave = _state_and_wave("mel")
    _, grads = net.utterance_loss_and_grads(state, wave, 1)
    before = {k: v.copy() for k, v in state.tensors.items()}

    def loss():
        return net.utterance_loss(state, wave, 1)

    checks.check_directional_gradient(loss, grads, state.tensors, seed=5)
    assert all(np.array_equal(before[k], v) for k, v in state.tensors.items())
    wrong = dict(grads, **{"lstm.wx": grads["lstm.wx"] * 1.01})
    assert _rejects(checks.check_directional_gradient, loss, wrong, state.tensors, seed=5)
    missing = {k: v for k, v in grads.items() if k != "out.b"}
    assert _rejects(checks.check_directional_gradient, loss, missing, state.tensors, seed=5)


if __name__ == "__main__":
    tests = [(k, v) for k, v in sorted(globals().items()) if k.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok {name}")
    print(f"{len(tests)} checks reject perturbed outputs")
