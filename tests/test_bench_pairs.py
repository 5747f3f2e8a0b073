"""Tests for the paired benchmark script's set-up checks."""

from __future__ import annotations

import importlib.util
import json
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


def test_pairs_alternate_and_each_side_gets_three_traced_runs(tmp_path, monkeypatch):
    bench_pairs = _load()
    checkouts = {side: tmp_path / side for side in bench_pairs.SIDES}
    for checkout in checkouts.values():
        checkout.mkdir()
    (checkouts["change"] / "BENCHMARK.json").write_text(
        '{"workloads": [{"name": "w"}], "end_to_end": [{"name": "item_ms", "better": "lower", "bound": 0.25}]}')
    calls = []

    def fake_run(checkout, workload, seed, seconds, trace=0):
        side = checkout.name
        calls.append((side, workload, seed, trace))
        value = 1.0 if side == "parent" else 0.5
        metrics = {"item_ms": {"value": value + seed % 10 / 100, "unit": "ms"}}
        if trace:
            metrics = {"layer.busy_s": {"value": value * seed, "unit": "s"}}
        return {"env": {}, "result": {"attempted": 3, "failed": 0, "metrics": metrics}}

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--parent", str(checkouts["parent"]), "--change", str(checkouts["change"]),
                             "--pairs", "3", "--seed", "40", "--out", str(out)]) == 0
    assert calls == [("parent", "w", 40, 0), ("change", "w", 40, 0), ("change", "w", 41, 0),
                     ("parent", "w", 41, 0), ("parent", "w", 42, 0), ("change", "w", 42, 0),
                     ("parent", "w", 40, 1), ("change", "w", 40, 1), ("change", "w", 41, 1),
                     ("parent", "w", 41, 1), ("parent", "w", 42, 1), ("change", "w", 42, 1)]
    written = json.loads(out.read_text())["workloads"]["w"]
    assert [run["seed"] for run in written["runs"]] == [40, 41, 42]
    assert [(run["seed"], run["first"]) for run in written["traced"]] == [(40, "parent"), (41, "change"),
                                                                            (42, "parent")]
    assert written["traced_median"] == {"parent": {"layer.busy_s": 41.0}, "change": {"layer.busy_s": 20.5}}
    assert written["summary"]["item_ms"]["change_lower_in_pairs"] == 3
    assert written["summary"]["item_ms"]["verdict"] == "gain"


def _verdict(parent, change, better="lower", bound=0.25, failed=(0, 0)):
    return _load().verdict(parent, change, better, bound, dict(zip(("parent", "change"), failed)))


# ten parent runs around 10.0 with quartiles 9.9 and 10.1 (IQR 0.2, inside a 25 % bound)
PARENT = [10.0, 9.8, 10.2, 9.9, 10.1, 10.0, 9.9, 10.1, 9.7, 10.3]


def test_nine_of_ten_pairs_better_by_more_than_the_parent_iqr_is_a_gain():
    change = [x - 0.5 for x in PARENT[:9]] + [PARENT[9] + 0.1]
    assert _verdict(PARENT, change) == "gain"
    # the same runs of a metric where higher is better read as no gain
    assert _verdict(PARENT, change, better="higher") == "within bound"
    assert _verdict(PARENT, [2 * x for x in PARENT], better="higher") == "gain"
    # more failed operations than at the parent forfeit the gain
    assert _verdict(PARENT, change, failed=(0, 1)) == "within bound"


def test_eight_of_ten_pairs_is_no_gain():
    change = [x - 0.5 for x in PARENT[:8]] + [x + 0.1 for x in PARENT[8:]]
    assert _verdict(PARENT, change) == "within bound"


def test_ten_of_ten_pairs_inside_the_parent_iqr_is_no_gain():
    change = [x - 0.05 for x in PARENT]
    assert _verdict(PARENT, change) == "within bound"


def test_a_tied_pair_counts_for_neither_side():
    # nine wins and a tie make 9/10; eight wins and two ties make 8/10
    nine = [x - 0.5 for x in PARENT[:9]] + [PARENT[9]]
    assert _verdict(PARENT, nine) == "gain"
    eight = [x - 0.5 for x in PARENT[:8]] + PARENT[8:]
    assert _verdict(PARENT, eight) == "within bound"


def test_a_median_worse_by_more_than_the_bound_is_worse():
    assert _verdict(PARENT, [x * 1.3 for x in PARENT]) == "worse"
    assert _verdict(PARENT, [x * 1.2 for x in PARENT]) == "within bound"
    assert _verdict(PARENT, [x * 0.7 for x in PARENT], better="higher") == "worse"


def test_a_parent_spread_wider_than_the_bound_is_unresolved():
    wide = [10.0, 6.0, 14.0, 7.0, 13.0, 10.0, 8.0, 12.0, 5.0, 15.0]  # IQR 5.5 > 0.25 * 10.0
    assert _verdict(wide, [x + 0.1 for x in wide]) == "unresolved"
    assert _verdict(wide, list(wide)) == "unresolved"
    # unless every change run is better than every parent run
    assert _verdict(wide, [4.9] * 10) == "within bound"
    assert _verdict(wide, [4.0] * 10) == "gain"
    assert _verdict(wide, [4.9] * 5 + [15.5] * 5) == "unresolved"
