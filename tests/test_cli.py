import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import gamma2cat
from gamma2cat.cli import (
    BATTERY,
    VALIDATORS,
    FixtureDocument,
    FixtureError,
    build_parser,
    builtin_document,
    cmd_report,
    fixtures_dir,
    load,
    resolve_fixture,
    run,
    save,
)
from gamma2cat.gamma import validate_gamma
from gamma2cat.ktheory import ko_gamma
from gamma2cat.monoidal import (
    FIXTURE_BUILDERS,
    PermutativeGrayMonoid,
    PermutativeTwoCategory,
    fixture,
    promote,
)
from gamma2cat.subsets import PointedMap
from gamma2cat.twocat import FiniteTwoCategory, ValidationReport


def test_builtin_files_round_trip():
    for name in FIXTURE_BUILDERS:
        path = fixtures_dir() / f"{name}.fx"
        text = path.read_text(encoding="utf-8")
        doc = load(text)
        assert save(doc) == text


def test_builtin_files_match_catalogue():
    for name in FIXTURE_BUILDERS:
        F = fixture(name)
        doc = FixtureDocument()
        if isinstance(F, FiniteTwoCategory):
            doc.categories[name] = F
        else:
            doc.categories[name] = F.base
            doc.permutative[name] = F
        assert save(doc) == (fixtures_dir() / f"{name}.fx").read_text(encoding="utf-8")


def test_gamma_truncation_export_import(f2_gamma2, tmp_path):
    doc = FixtureDocument()
    doc.gammas["KoF2"] = f2_gamma2
    path = tmp_path / "kof2.fx"
    text = save(doc, path)
    doc2 = load(path)
    assert "KoF2" in doc2.gammas
    loaded = doc2.gammas["KoF2"]
    assert loaded.cap == 2
    for m in range(3):
        assert loaded.level(m).counts() == f2_gamma2.level(m).counts()
    # canonical serialization agrees after the round trip
    doc3 = FixtureDocument()
    doc3.categories.update(doc2.categories)
    doc3.gammas["KoF2"] = loaded
    assert save(doc3) == text


def test_save_of_an_unvalidated_truncation(f2):
    fresh = ko_gamma(promote(f2), 2)
    validated = ko_gamma(promote(f2), 2)
    assert validate_gamma(validated).ok
    text = save(FixtureDocument(gammas={"K": fresh}))
    assert text == save(FixtureDocument(gammas={"K": validated}))
    assert save(load(text)) == text


def test_missing_transition_named_by_save_and_phi_star():
    text = save(FixtureDocument(gammas={"K": ko_gamma(promote(fixture("F1")), 1)}))
    cut = "\n".join(l for l in text.splitlines() if not l.startswith("map 1 1 ")) + "\n"
    assert cut != text
    X = load(cut, validate=False).gammas["K"]
    identity = PointedMap(1, 1, (1,))
    with pytest.raises(FixtureError, match=r"gamma K has no transition functor for "
                                           r"PointedMap\(m=1, n=1, imgs=\(0,\)\)"):
        save(FixtureDocument(gammas={"K": X}))
    with pytest.raises(LookupError, match=r"^K has no transition functor for "
                                          r"PointedMap\(m=1, n=1, imgs=\(1,\)\)$"):
        X.phi_star(identity, 0, X.level(1).objects[0])
    with pytest.raises(FixtureError, match="missing transition functor"):
        load(cut)


def test_corrupt_reference_reported_with_line(tmp_path):
    path = fixtures_dir() / "F2.fx"
    lines = path.read_text(encoding="utf-8").splitlines()
    idx = next(i for i, l in enumerate(lines) if l.startswith("one "))
    parts = lines[idx].split()
    parts[2] = "missing"
    lines[idx] = " ".join(parts)
    bad = tmp_path / "bad.fx"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(FixtureError) as err:
        load(bad)
    assert err.value.line is not None


@pytest.mark.parametrize("name, line", [("F2", "sigma m0 m0 a0"), ("F5", "sum_one m0 m0 m0")])
def test_field_of_the_other_flavor_refused_with_line(name, line):
    lines = (fixtures_dir() / f"{name}.fx").read_text(encoding="utf-8").splitlines()
    at = next(i for i, l in enumerate(lines) if l.startswith("unit ")) + 1
    lines.insert(at, line)
    with pytest.raises(FixtureError, match=repr(line.split()[0])) as err:
        load("\n".join(lines) + "\n")
    assert err.value.line == at + 1


def _capture(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run(argv)
    return code, buf.getvalue()


def _python(args, **env):
    """Run the interpreter on this checkout's package; returns the process."""
    src = str(Path(gamma2cat.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          env=dict(os.environ, PYTHONPATH=path, **env))


def test_exit_code_zero_on_pass():
    code, out = _capture(["validate", "--fixture", "F2"])
    assert code == 0
    assert "result: pass" in out


def test_exit_code_one_on_failing_check(tmp_path):
    # an invalid 2-category: break an associativity entry but keep typing
    text = (fixtures_dir() / "F3.fx").read_text(encoding="utf-8")
    lines = text.splitlines()
    out_lines = []
    swapped = False
    for l in lines:
        if not swapped and l.startswith("vcomp a1 a1 "):
            out_lines.append("vcomp a1 a1 a1")
            swapped = True
        else:
            out_lines.append(l)
    assert swapped
    bad = tmp_path / "brokenF3.fx"
    bad.write_text("\n".join(out_lines) + "\n", encoding="utf-8")
    # the validate command judges the file itself: a failing check, exit 1
    code, out = _capture(["validate", "--fixture", "F3", "--file", str(bad)])
    assert code == 1
    assert "FAIL" in out
    # other commands refuse invalid inputs as usage errors
    code2, _ = _capture(["ko", "--fixture", "F3", "--file", str(bad), "--level", "1"])
    assert code2 == 2


def test_exit_code_two_on_unknown_fixture(capsys):
    assert run(["validate", "--fixture", "NOPE"]) == 2
    # only report fills timings, so only report accepts --timings
    assert run(["validate", "--fixture", "F2", "--timings"]) == 2


def test_exit_code_three_on_resource_ceiling(monkeypatch):
    monkeypatch.setenv("GAMMA2CAT_CELL_CEILING", "3")
    assert run(["ko", "--fixture", "F5", "--level", "2"]) == 3


def test_exit_code_three_when_composites_pass_the_ceiling(monkeypatch):
    # the level has 290 cells but 35,328 composites
    monkeypatch.setenv("GAMMA2CAT_CELL_CEILING", "2000")
    assert run(["ko", "--fixture", "F5", "--level", "2"]) == 3


def test_cubical_level_three_stops_at_the_ceiling(monkeypatch, capsys):
    # 16 systems with 128 1-cells between each pair: the level build passes
    # the ceiling at the eighth pair, before any single enumeration does
    monkeypatch.setenv("GAMMA2CAT_CELL_CEILING", "1000")
    assert run(["ko", "--fixture", "F5", "--level", "3"]) == 3
    assert "during level build: 1001 > 1000" in capsys.readouterr().err


def test_reports_byte_deterministic():
    code1, out1 = _capture(["segal", "--fixture", "F2", "--max", "2", "--format", "json"])
    code2, out2 = _capture(["segal", "--fixture", "F2", "--max", "2", "--format", "json"])
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["result"] == "pass"
    assert {c["name"] for c in payload["checks"]} == {"diagram-valid", "segal-2"}
    # across processes: string hashes follow PYTHONHASHSEED, and interned
    # cells hash by identity, so by memory address
    script = "\n".join([
        "from gamma2cat.cli import run",
        "run(['segal', '--fixture', 'F2', '--max', '2', '--format', 'json'])",
        "run(['very-special', '--fixture', 'M3'])",
        "run(['triangle-p', '--fixture', 'F2'])",
    ])
    outs = []
    for seed in ("1", "2"):
        proc = _python(["-c", script], PYTHONHASHSEED=seed)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert outs[0].startswith(out1.encode())
    assert b"no inverse for {SubsetSystem(" in outs[0]
    assert b"command: triangle-p" in outs[0]


@pytest.mark.parametrize("argv, counters", [
    (["ko", "--fixture", "F1", "--level", "3"], {"objects": 1}),
    (["kt", "--fixture", "F3", "--level", "2"],
     {"objects": 1, "one_cells": 1, "two_cells": 4}),
    (["path-object", "--fixture", "F4"], {"objects": 2, "one_cells": 8, "two_cells": 8}),
    (["espan", "--fixture", "F2", "--cap", "2"], {"instances": 38964}),
    (["triangle-p", "--fixture", "F2"], {"instances": 3165}),
    (["ko", "--fixture", "F4", "--level", "2"],
     {"objects": 2, "one_cells": 16, "two_cells": 16}),
    (["ko", "--fixture", "M3", "--level", "2"], {"objects": 9, "one_cells": 9, "two_cells": 9}),
    *((["validate", "--fixture", name], {"instances": n}) for name, n in (
        ("F1", 17), ("F2", 74), ("F3", 58), ("F4", 75), ("M3", 195), ("F5", 150))),
], ids=["ko", "kt", "path-object", "espan", "triangle-p", "ko-gray-F4", "ko-monoid-M3",
        *(f"validate-{name}" for name in ("F1", "F2", "F3", "F4", "M3", "F5"))])
def test_ko_command_counts(argv, counters):
    code, out = _capture(argv + ["--format", "json"])
    assert code == 0
    got = json.loads(out)["counters"]
    assert {k: got[k] for k in counters} == counters


@pytest.mark.parametrize("name, table, part", [
    (name, t.field, part)
    for name, cls in (("F2", PermutativeTwoCategory), ("F5", PermutativeGrayMonoid))
    for t in cls.TABLES for part in ("key", "value")
])
def test_sum_table_naming_no_cell_fails_validation(name, table, part, tmp_path):
    # a key part or value naming no cell of the base is a structure failure,
    # not a lookup error
    lines = (fixtures_dir() / f"{name}.fx").read_text(encoding="utf-8").splitlines()
    at = next(i for i, l in enumerate(lines) if l.startswith(f"{table} "))
    field, x, y, value = lines[at].split()
    if part == "value":
        lines[at] = f"{field} {x} {y} zz"
    else:
        lines.insert(at, f"{field} zz {y} {value}")
    path = tmp_path / "bad.fx"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, out = _capture(["validate", "--fixture", name, "--file", str(path)])
    check = VALIDATORS[PermutativeTwoCategory if name == "F2" else PermutativeGrayMonoid][0]
    assert code == 1
    assert f"FAIL {check}  ([structure] " in out


REPORT_TEXT = """\
command: report
PASS ko-level-counts  ([1, 2, 4, 8])
PASS level-one-comparison
PASS special-F1
PASS special-F2
PASS special-F3
PASS special-F5
PASS very-special-F2
PASS triangle-k-F1
PASS triangle-k-F2
PASS triangle-k-F3
PASS triangle-p-F2
PASS espan-F2
PASS inverse-permutativity
PASS lambda-coherence
PASS mutation-screen
result: pass
"""


def test_report_runs_the_battery():
    rep = cmd_report(build_parser().parse_args(["report", "--timings"]))
    # one time per criterion, specialness included
    assert list(rep.timings) == [stage for _, stage, _ in BATTERY]
    assert "specialness" in rep.timings
    # exit code 0 (run() returns 0 exactly when the report is ok) and the
    # default text, byte for byte
    assert rep.ok
    rep.timings = None
    assert rep.to_text() == REPORT_TEXT


def test_mutation_screen_fails_when_a_mutation_is_accepted(monkeypatch):
    def accept(C):
        return ValidationReport(C.name)
    for cls in (PermutativeTwoCategory, PermutativeGrayMonoid):
        monkeypatch.setitem(VALIDATORS, cls, (VALIDATORS[cls][0], accept))
    screen = next(run for n, _, run in BATTERY if n == 10)
    assert screen(0) == [("mutation-screen", False, "300 mutations not rejected with a witness")]


def test_python_dash_m_runs_the_cli():
    proc = _python(["-m", "gamma2cat", "validate", "--fixture", "F2"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith(b"result: pass\n")


def test_triangle_commands():
    code, _ = _capture(["triangle-k", "--fixture", "F2", "--max", "2"])
    assert code == 0
    code, _ = _capture(["triangle-p", "--fixture", "F2", "--max-len", "2", "--max-entry", "2"])
    assert code == 0
