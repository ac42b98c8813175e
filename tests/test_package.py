"""Package-wide properties: the allocator setting made on import, and the
"numpy + the standard library" rule."""

import ast
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

import wavefront

SRC = Path(wavefront.__file__).resolve().parents[1]


def run_python(code: str) -> str:
    """Run `code` in a fresh interpreter that imports this source tree with
    one BLAS thread; returns its stdout."""
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


FAULTS_PER_UTTERANCE = """
import resource, sys, tempfile
from pathlib import Path
from wavefront import data, net

with tempfile.TemporaryDirectory() as root:
    spec = data.SyntheticSpec(
        seed=3, n_train_per_class=1, n_valid_per_class=1, n_test_per_class=8
    )
    utts = data.generate_synthetic(spec, Path(root)).split("test")
    state = net.make_train_state(net.make_run_config("mel"))
    net.evaluate(state, utts)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    net.evaluate(state, utts)
    after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
print((after - before) / len(utts))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's mallopt")
def test_evaluate_reuses_freed_memory():
    """A second evaluate pass reuses the pages the first one freed: each
    utterance faults 0 to 2 pages back in, and under glibc's default
    thresholds 40 to 60."""
    assert float(run_python(FAULTS_PER_UTTERANCE)) < 50


def test_import_without_mallopt_leaves_the_allocator_alone():
    """With a libc stand-in that has no mallopt, importing wavefront works
    and sets nothing: on glibc, evaluate then faults freed pages back in,
    at least ten times as many as with the setting."""
    out = run_python(
        "import ctypes\n"
        "ctypes.CDLL = lambda name: object()\n"
        "import wavefront\n"
        "print(wavefront.HEAP_KEPT)\n" + FAULTS_PER_UTTERANCE
    )
    kept, faults = out.split()
    assert kept == "False"
    if platform.libc_ver()[0] == "glibc":
        kept_faults = float(run_python(FAULTS_PER_UTTERANCE))
        assert float(faults) > 10 * max(kept_faults, 1.0), (faults, kept_faults)


def loaded_modules(module: str) -> set[str]:
    """The package modules a fresh interpreter holds after importing module."""
    out = run_python(
        f"import sys, {module}\n"
        "print(*(m for m in sys.modules if m.startswith('wavefront.')))"
    )
    return set(out.split())


def test_layering():
    """The model does not import the gradient check or the CLI, and the
    file formats import no package module but errors."""
    assert not {"wavefront.gradcheck", "wavefront.cli"} & loaded_modules("wavefront.net")
    assert loaded_modules("wavefront.artifacts") == {
        "wavefront.artifacts", "wavefront.errors",
    }


class StandInLibc:
    """A libc whose mallopt records its calls and answers `result`."""

    def __init__(self, result):
        self.calls = []

        def mallopt(param, value):
            self.calls.append((param, value))
            return result

        self.mallopt = mallopt


def test_both_thresholds_are_set():
    libc = StandInLibc(1)
    assert wavefront.keep_freed_memory(libc)
    assert libc.calls == [
        (wavefront.M_MMAP_THRESHOLD, 32 << 20),
        (wavefront.M_TRIM_THRESHOLD, 64 << 20),
    ]


def test_refused_mmap_threshold_leaves_the_trim_threshold_alone():
    libc = StandInLibc(0)
    assert not wavefront.keep_freed_memory(libc)
    assert libc.calls == [(wavefront.M_MMAP_THRESHOLD, 32 << 20)]


@pytest.mark.parametrize(
    "path", sorted((SRC / "wavefront").glob("*.py")), ids=lambda p: p.name
)
def test_imports_only_numpy_and_the_standard_library(path):
    """scipy and others may be installed where the tests run, so an
    accidental import would not fail there."""
    allowed = sys.stdlib_module_names | {"numpy"}
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            assert name.split(".")[0] in allowed, f"{path.name}:{node.lineno} {name}"
