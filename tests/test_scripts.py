"""Smoke tests that run the scripts under scripts/ in-process."""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_three_way_sweep_small_corpus(capsys):
    sweep = load_script("three_way_sweep")
    assert sweep.main(["--max-blocks", "2", "--max-block", "3"]) == 0
    out = capsys.readouterr().out
    assert "16 cases, 0 failures" in out
