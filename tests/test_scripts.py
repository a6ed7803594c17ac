"""Smoke tests that run the scripts under scripts/ in-process, and a check
that every library name the benchmark under perfbench/ calls exists."""

import importlib
import importlib.util
import re
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).parent.parent / "scripts"
PERFBENCH = Path(__file__).parent.parent / "perfbench"


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


def test_three_way_sweep_beyond_the_default_guard(capsys):
    # the star of 24 edges has 25 vertices; the sweep passes --max-vertices
    # as the oracle guard
    sweep = load_script("three_way_sweep")
    argv = [
        "--min-blocks", "24", "--max-blocks", "24", "--min-block", "2", "--max-block", "2",
        "--max-vertices", "25", "--fields", "gf2", "--presets", "star",
    ]
    assert sweep.main(argv) == 0
    assert "2 cases, 0 failures" in capsys.readouterr().out


def test_three_way_sweep_rejects_bad_fields_and_presets(capsys):
    sweep = load_script("three_way_sweep")
    for argv, word in (
        (["--fields", "gf4"], "gf4"),
        (["--presets", "ring"], "ring"),
        (["--min-blocks", "1", "--fields", "gf2"], "--min-blocks"),
        (["--min-blocks", "0"], "--min-blocks"),
        (["--min-block", "1"], "--min-block"),
        (
            ["--min-blocks", "2", "--max-blocks", "2", "--min-block", "33", "--max-block", "33",
             "--max-vertices", "70", "--fields", "gf2"],
            "--max-vertices",
        ),
    ):
        with pytest.raises(SystemExit) as exc:
            sweep.main(argv)
        assert exc.value.code == 2, argv
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert ": error: " in err.splitlines()[-1] and word in err.splitlines()[-1]


def test_identity_scan_small_range(capsys):
    scan = load_script("identity_scan")
    assert scan.main(["--max-block", "4", "--max-blocks", "2"]) == 0
    assert "9 size lists checked, 0 failing degrees" in capsys.readouterr().out


def test_benchmark_names_resolve():
    # the benchmark imports these three modules and reaches the rest as ff.<name>
    ff = importlib.import_module("fatforest")
    importlib.import_module("fatforest.tables")
    importlib.import_module("fatforest.cli")
    chains = {
        chain
        for path in PERFBENCH.glob("*.py")
        for chain in re.findall(r"\bff((?:\.[A-Za-z_]\w*)+)", path.read_text())
    }
    assert chains
    for chain in sorted(chains):
        obj = ff
        for name in chain[1:].split("."):
            assert hasattr(obj, name), f"ff{chain} does not resolve"
            obj = getattr(obj, name)
    missing = [name for name in ff.__all__ if not hasattr(ff, name)]
    assert not missing
