"""Tests for the paired benchmark script's set-up checks."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


def _load():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _snapshot(root: Path) -> dict[str, bytes]:
    return {path.relative_to(root).as_posix(): path.read_bytes() for path in root.rglob("*") if path.is_file()}


def test_cached_bytecode_is_named_and_the_trees_are_left_alone(tmp_path, capsys):
    bench_pairs = _load()
    parent, change = tmp_path / "parent", tmp_path / "change"
    for checkout in (parent, change):
        # bytecode outside src/ and aqbench/, and files beside __pycache__, do not count
        for name in ("src/aqsense/qopt.py", "tests/__pycache__/test_qopt.cpython-312.pyc"):
            (checkout / name).parent.mkdir(parents=True, exist_ok=True)
            (checkout / name).write_bytes(b"x")
        assert bench_pairs.cached_bytecode(checkout) is None
    # the same file names on both sides still refuse: one side's cache may be stale
    for checkout in (parent, change):
        for name in ("src/aqsense/qsv/__pycache__/spectra.cpython-312.pyc",
                     "aqbench/__pycache__/run.cpython-312.pyc"):
            (checkout / name).parent.mkdir(parents=True, exist_ok=True)
            (checkout / name).write_bytes(b"x")
        assert bench_pairs.cached_bytecode(checkout) == "aqbench/__pycache__/run.cpython-312.pyc"
    (parent / "aqbench/__pycache__/run.cpython-312.pyc").unlink()
    assert bench_pairs.cached_bytecode(parent) == "src/aqsense/qsv/__pycache__/spectra.cpython-312.pyc"
    before = {side: _snapshot(side) for side in (parent, change)}
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as info:
        bench_pairs.main(["--parent", str(parent), "--change", str(change), "--out", str(out)])
    assert info.value.code == 2
    assert "the parent checkout holds src/aqsense/qsv/__pycache__/spectra.cpython-312.pyc" in capsys.readouterr().err
    assert not out.exists()
    assert {side: _snapshot(side) for side in (parent, change)} == before
