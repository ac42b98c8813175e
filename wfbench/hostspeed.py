"""Host speed, measured next to every timed interval of the benchmark.

The benchmark runs on a guest that shares its host. The host's load changes
how fast the guest runs any code, by up to 1.6x, in spells that last from
seconds to many minutes. A wall-clock rate therefore depends on when it was
taken more than on the program.

So the benchmark times a fixed reference kernel before and after each
interval it measures. The kernel does not use the program: a plain Python
loop, a loop of small numpy operations and a few BLAS products, the three
kinds of work the program does. An interval's reference seconds are its wall
seconds times REF_KERNEL_S over the kernel's mean time around it, i.e. the
time the interval would have taken with the host running the kernel in
REF_KERNEL_S. A change to the program moves reference seconds as it moves
wall seconds; a change in host load moves both the interval and the kernel,
and cancels.
"""

from __future__ import annotations

import time

import numpy as np

# The kernel's time on the reference machine (see README.md) in a spell
# when the host was lightly loaded. Any fixed value gives the same ratios
# between runs; this one keeps reference seconds close to wall seconds.
REF_KERNEL_S = 0.030

_rng = np.random.default_rng(0)
_W = _rng.standard_normal((240, 110))
_X = _rng.standard_normal(110)
_A = _rng.standard_normal((160, 160))


def kernel_seconds() -> float:
    """Time one run of the reference kernel, in wall seconds."""
    t0 = time.perf_counter()
    n = 0
    for i in range(150_000):
        n += i * i
    h = np.zeros(110)
    for _ in range(2_000):
        h[:60] = np.tanh((_W @ (h + _X))[:60])
    for _ in range(60):
        _A @ _A
    return time.perf_counter() - t0


def ref_seconds(wall_s: float, kernel_before: float, kernel_after: float) -> float:
    """Reference seconds of an interval that took `wall_s`, bracketed by
    kernel runs of the given wall times."""
    return wall_s * REF_KERNEL_S * 2 / (kernel_before + kernel_after)


def timed(fn):
    """Run fn() between two kernel runs. Returns (value, wall seconds,
    reference seconds)."""
    before = kernel_seconds()
    t0 = time.perf_counter()
    value = fn()
    wall = time.perf_counter() - t0
    return value, wall, ref_seconds(wall, before, kernel_seconds())
