"""Tests of the benchmark's own code.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import itertools
import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(HERE), str(SRC)]

import run  # noqa: E402
from tracing import Tracer, self_times, summarize  # noqa: E402
from workloads import Checks, checked  # noqa: E402

from gamma2cat.ktheory import ko_level  # noqa: E402
from gamma2cat.monoidal import fixture, promote  # noqa: E402
from gamma2cat.twocat import ValidationReport  # noqa: E402


def test_self_times_on_hand_built_tree():
    # root [0, 10] holds a [1, 4] and b [5, 9]; a holds c [2, 3].
    spans = [
        ["root", "gamma", None, 0.0, 10.0],
        ["a", "ktheory", 0, 1.0, 4.0],
        ["c", "ktheory", 1, 2.0, 3.0],
        ["b", "twocat", 0, 5.0, 9.0],
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_self_times_count_overlapping_children_once():
    spans = [
        ["root", "gamma", None, 0.0, 10.0],
        ["a", "ktheory", 0, 1.0, 6.0],
        ["b", "ktheory", 0, 4.0, 8.0],
    ]
    assert self_times(spans)[0] == 3.0


def test_tracer_records_parents_and_counts():
    clock = itertools.count()
    tracer = Tracer(clock=lambda: float(next(clock)))

    def inner():
        return ValidationReport("inner", checked=7)

    inner.__name__, inner.__module__ = "validate_gamma", "gamma2cat.gamma"
    traced_inner = tracer.wrap(inner)

    def outer():
        traced_inner()
        return traced_inner()

    outer.__name__, outer.__module__ = "special_check", "gamma2cat.gamma"
    tracer.wrap(outer)()
    assert [(s[0], s[1], s[2]) for s in tracer.spans] == [
        ("special_check", "gamma", None), ("validate_gamma", "gamma", 0),
        ("validate_gamma", "gamma", 0)]
    assert tracer.counts["gamma.validate_instances"] == 14
    assert self_times(tracer.spans) == [3.0, 1.0, 1.0]


def test_levels_of_a_generated_truncation_are_counted():
    tracer = Tracer()
    level = ko_level(promote(fixture("F2")), 2)

    def generated_kt_truncation():
        return SimpleNamespace(levels=[level, level])

    generated_kt_truncation.__module__ = "gamma2cat.ktheory"
    tracer.wrap(generated_kt_truncation)()
    entries = len(level.vcomp_table) + len(level.hcomp1_table) + len(level.hcomp2_table)
    assert tracer.counts["ktheory.table_entries"] == 2 * entries > 0
    assert tracer.counts["ktheory.level_cells"] == 2 * sum(level.counts())


def test_wrong_verdict_or_cell_count_is_a_failed_operation():
    check = Checks()
    level = ko_level(promote(fixture("F2")), 2)
    assert check("cells-right", level.counts()[0], 4)
    assert not check("cells-wrong", level.counts()[0], 5)
    assert not check("verdict-wrong", True, False)
    assert [ok for _, ok, _, _ in check.results] == [True, False, False]


def test_validator_pass_without_instances_is_not_a_pass():
    assert checked(ValidationReport("scan", checked=3))
    assert not checked(ValidationReport("empty", checked=0))
    bad = ValidationReport("bad", checked=3)
    bad.add("axiom", "fails")
    assert not checked(bad)


def fake_spawn(ops):
    """A stand-in for ``run.spawn`` whose workers report ``ops``."""

    def spawn(workload, mode, seed, deadline):
        result = {"ready": 0.0}
        if mode != "setup":
            result.update(wall_s=1.0, peak_rss_mb=10.0, ops=ops)
        if mode == "trace":
            result.update(t0=0.0, spans=[], summary=summarize(Tracer()))
        return 0.05, result

    return spawn


def test_failed_operation_reaches_the_result_line(monkeypatch):
    ops = [["special-F1@3", True, "", 0.5], ["cells-F3-level-3", False, "x", 1.0]]
    monkeypatch.setattr(run, "spawn", fake_spawn(ops))
    out = run.measure("level-scan", 1, 9, trace=False)
    assert (out["correct"], out["attempted"], out["failed"]) == (False, 2, 1)


def test_metrics_match_benchmark_json(monkeypatch, tmp_path):
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    monkeypatch.setattr(run, "spawn", fake_spawn([["op", True, "", 1.0]]))
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        out = run.measure("inverse-bounded", 1, 27, trace)
        assert {name: m["unit"] for name, m in out["metrics"].items()} == {
            m["name"]: m["unit"] for m in bench[kind]}


def test_top_level_spans_cover_level_scan_wall_time():
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(SRC), "level-scan", "trace"],
        capture_output=True, text=True, check=True, timeout=170)
    r = json.loads(proc.stdout)
    assert all(ok for _, ok, _, _ in r["ops"])
    timed = [s for s in r["spans"] if s[2] is None and s[3] >= r["t0"]]
    covered = sum(end - start for _, _, _, start, end in timed)
    assert covered <= r["wall_s"]
    assert covered == pytest.approx(r["wall_s"], rel=0.01)
    assert r["summary"]["twocat.validate_instances"] > 0
