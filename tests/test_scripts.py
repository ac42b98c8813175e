"""The scripts under scripts/, run in-process on a small corpus."""

import importlib.util
from pathlib import Path

from wavefront import net

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_overfit_check_reports_every_frontend(small_corpus, capsys):
    _, root = small_corpus
    script = load_script("overfit_check")
    script.main(["--manifest", str(root / "manifest.csv"), "--max-epochs", "1"])
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == list(net.FRONTENDS)


def test_synthetic_experiment_prints_one_row_per_frontend(tmp_path, capsys):
    script = load_script("run_synthetic_experiment")
    script.main([
        "--out-dir", str(tmp_path), "--frontends", "mel", "--seeds", "1",
        "--epochs", "1", "--n-train", "2", "--n-valid", "2", "--n-test", "2",
    ])
    out = capsys.readouterr().out
    table = out.split("test UAR over seeds\n", 1)[1].splitlines()
    assert [line.split()[0] for line in table] == ["mel"]
