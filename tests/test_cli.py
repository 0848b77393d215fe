import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import gamma2cat
from gamma2cat import cli
from gamma2cat.cli import (
    BATTERY,
    VALIDATORS,
    FixtureDocument,
    FixtureError,
    build_parser,
    builtin_document,
    execute,
    fixtures_dir,
    load,
    resolve_fixture,
    run,
    save,
    shipped_fixtures,
)
from gamma2cat.gamma import VerySpecialReport, validate_gamma
from gamma2cat.ktheory import ko_gamma
from gamma2cat.monoidal import (
    PermutativeGrayMonoid,
    PermutativeTwoCategory,
    fixture,
    promote,
)
from gamma2cat.subsets import PointedMap
from gamma2cat.twocat import ValidationReport


def test_builtin_files_round_trip():
    assert shipped_fixtures() == ["F1", "F2", "F3", "F4", "F5", "M3"]
    for name in shipped_fixtures():
        path = fixtures_dir() / f"{name}.fx"
        text = path.read_text(encoding="utf-8")
        doc = load(text)
        assert save(doc) == text


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


def test_missing_transition_named_by_save_and_star():
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
        X.star(identity)
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


@pytest.mark.parametrize("old, new, line_of, message", [
    ("unit o0\n", "unit m0\n", "unit m0", "unit m0 is not an object of F1"),
    ("unit o0\n", "", "[permutative F1]", "permutative section F1 has no unit"),
], ids=["not-an-object", "missing"])
def test_permutative_unit_must_name_an_object(old, new, line_of, message, tmp_path, capsys):
    # a unit the carrier cannot use is a usage error naming its line, not a
    # failing check or a traceback
    text = (fixtures_dir() / "F1.fx").read_text(encoding="utf-8")
    assert text.count(old) == 1
    bad = text.replace(old, new)
    at = bad.splitlines().index(line_of) + 1
    for validate in (True, False):
        with pytest.raises(FixtureError, match=message) as err:
            load(bad, validate=validate)
        assert err.value.line == at
    path = tmp_path / "bad.fx"
    path.write_text(bad, encoding="utf-8")
    assert run(["validate", "--fixture", "F1", "--file", str(path)]) == 2
    assert f"usage error: line {at}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("header", ["[category F1]", "[permutative F1]"])
def test_repeated_section_header_named_with_its_line(header, tmp_path, capsys):
    text = (fixtures_dir() / "F1.fx").read_text(encoding="utf-8")
    lines = text.splitlines()
    start = lines.index(header)
    end = next((i for i in range(start + 1, len(lines)) if lines[i].startswith("[")),
               len(lines))
    bad = "\n".join(lines + [""] + lines[start:end]) + "\n"
    at = len(lines) + 2
    assert bad.splitlines()[at - 1] == header
    with pytest.raises(FixtureError, match=r"repeated section header") as err:
        load(bad, validate=False)
    assert err.value.line == at
    path = tmp_path / "dup.fx"
    path.write_text(bad, encoding="utf-8")
    assert run(["validate", "--fixture", "F1", "--file", str(path)]) == 2
    assert f"usage error: line {at}: repeated section header {header}" in capsys.readouterr().err


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


def test_validate_reports_a_shipped_file_that_fails_its_axioms(tmp_path, monkeypatch):
    # validate checks the file itself, so a failure is its verdict (exit 1);
    # a command that needs a valid carrier still refuses the file (exit 2)
    text = (fixtures_dir() / "F2.fx").read_text(encoding="utf-8")
    bad = text.replace("sum_obj o1 o1 o0\n", "sum_obj o1 o1 o1\n")
    assert bad != text
    (tmp_path / "F2.fx").write_text(bad, encoding="utf-8")
    monkeypatch.setattr("gamma2cat.cli.fixtures_dir", lambda: tmp_path)
    code, out = _capture(["validate", "--fixture", "F2"])
    assert code == 1
    assert ("FAIL permutative-axioms  ([structure] 1-cell sum at ('m1','m1') "
            "has wrong endpoints)") in out
    code, _ = _capture(["ko", "--fixture", "F2", "--level", "1"])
    assert code == 2


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


@pytest.mark.parametrize("old, new, at_section", [
    ("cap 1", "cap x", False),
    ("level 0 K.L0", "level a K.L0", False),
    ("map 1 1 1 obj o0 o0", "map 1 1 q obj o0 o0", False),
    ("map 1 1 1 obj o0 o0", "map 1 1 1,1 obj o0 o0", False),
    ("map 1 1 1 obj o0 o0", "map 5 1 1,1,1,1,1 obj o0 o0", False),
    ("map 1 1 1 obj o0 o0", "map 0 -1 - obj o0 o0", False),
    ("cap 1\nlevel 0 K.L0\nlevel 1 K.L1", "cap 0\nlevel 0 K.L0", True),
], ids=["cap", "level", "map-image", "map-arity", "map-beyond-cap", "map-negative", "cap-zero"])
def test_malformed_gamma_numbers_are_usage_errors(old, new, at_section, tmp_path, capsys):
    # a number the [gamma] section cannot use is named with its line (the
    # section's line for a cap below 1), never raised as a traceback
    text = save(FixtureDocument(gammas={"K": ko_gamma(promote(fixture("F1")), 1)}))
    assert text.count(old) == 1
    bad = text.replace(old, new)
    lines = bad.splitlines()
    at = 1 + (lines.index("[gamma K]") if at_section else lines.index(new.splitlines()[0]))
    path = tmp_path / "bad.fx"
    path.write_text(bad, encoding="utf-8")
    assert run(["validate", "--fixture", "K.L0", "--file", str(path)]) == 2
    assert f"usage error: line {at}: " in capsys.readouterr().err


@pytest.mark.parametrize("doc, old, new, message", [
    ("F2", "\nvcomp a0 a0 a0\n", "\nvcomp a0 a0 a0 a0\n", "expected 4 fields, got 5"),
    ("F2", "\none m1 o1 o1 id\n", "\none m1 o1 o1 ident\n", "expected 'id' as the fifth field"),
    ("F2", "\nsum_two a0 a0 a0\n", "\nsum_two a0 a0 a0 a0\n", "expected 4 fields, got 5"),
    ("K", "\nmap 1 1 1 obj o0 o0\n", "\nmap 1 1 1 obj o0 o0 o0\n", "expected 7 fields, got 8"),
], ids=["category", "identity-mark", "permutative", "gamma"])
def test_line_beyond_its_arity_is_refused(doc, old, new, message, tmp_path, capsys):
    # a token past a line's arity is a usage error naming the line, never
    # dropped, whether or not the structures are validated
    if doc == "K":
        text = save(FixtureDocument(gammas={"K": ko_gamma(promote(fixture("F1")), 1)}))
    else:
        text = (fixtures_dir() / f"{doc}.fx").read_text(encoding="utf-8")
    assert text.count(old) == 1
    bad = text.replace(old, new)
    at = bad.splitlines().index(new.strip()) + 1
    for validate in (True, False):
        with pytest.raises(FixtureError, match=message) as err:
            load(bad, validate=validate)
        assert err.value.line == at
    path = tmp_path / "bad.fx"
    path.write_text(bad, encoding="utf-8")
    assert run(["validate", "--fixture", "K.L0" if doc == "K" else doc, "--file", str(path)]) == 2
    assert f"usage error: line {at}: {message}" in capsys.readouterr().err


def test_exit_code_two_on_unknown_fixture(capsys):
    # a name is a shipped file's exact stem, never a path or another case
    for name in ("NOPE", "../fixtures/F2", "f2"):
        assert run(["validate", "--fixture", name]) == 2
        assert f"unknown fixture {name!r}" in capsys.readouterr().err
    # only report fills timings, so only report accepts --timings
    assert run(["validate", "--fixture", "F2", "--timings"]) == 2


@pytest.mark.parametrize("argv, builder", [
    (["kt", "--fixture", "F5", "--level", "2"], "the strict level builder"),
    (["kt", "--fixture", "F5", "--level", "3"], "the strict level builder"),
    (["triangle-k", "--fixture", "F5"], "the triangle scan"),
], ids=["kt-level2", "kt-level3", "triangle-k"])
def test_product_flavored_commands_refuse_a_cubical_fixture(argv, builder, capsys):
    assert run(argv) == 2
    assert capsys.readouterr().err.splitlines()[0] == (
        f"usage error: {builder} needs a product-flavored fixture")


@pytest.mark.parametrize("empty, detail", [(False, "[axiom] fails"),
                                           (True, "no instance checked")],
                         ids=["issue", "empty"])
@pytest.mark.parametrize("argv, validator, check", [
    (["segal", "--fixture", "F2", "--max", "2"], "validate_gamma", "diagram-valid"),
    (["path-object", "--fixture", "F4"], "validate_two_category", "total-valid"),
    (["path-object", "--fixture", "F4"], "validate_two_functor", "evaluations-valid"),
], ids=["segal", "path-object-total", "path-object-evaluations"])
def test_a_validator_line_passes_only_on_examined_instances(monkeypatch, argv, validator,
                                                            check, empty, detail):
    stub = ValidationReport("stub", checked=0 if empty else 1)
    if not empty:
        stub.add("axiom", "fails")
    real = getattr(cli, validator)
    # loading a shipped fixture validates its carrier through the same name
    monkeypatch.setattr(cli, validator,
                        lambda S: real(S) if S.name in shipped_fixtures() else stub)
    code, out = _capture(argv)
    assert code == 1
    assert f"FAIL {check}  ({detail})\n" in out


def test_exit_code_three_on_resource_ceiling(monkeypatch):
    monkeypatch.setenv("GAMMA2CAT_CELL_CEILING", "3")
    assert run(["ko", "--fixture", "F5", "--level", "2"]) == 3


@pytest.mark.parametrize("value", ["abc", "-5"])
def test_a_malformed_ceiling_is_a_usage_error(monkeypatch, capsys, value):
    monkeypatch.setenv("GAMMA2CAT_CELL_CEILING", value)
    assert run(["ko", "--fixture", "F1", "--level", "1"]) == 2
    assert capsys.readouterr().err == (
        f"usage error: GAMMA2CAT_CELL_CEILING must be a non-negative integer, got {value!r}\n")
    # a command that builds nothing reads no ceiling
    assert run(["validate", "--fixture", "F1"]) == 0


@pytest.mark.parametrize("argv", [["ko", "--fixture", "F1", "--level", "1"], ["report"]],
                         ids=["ko", "report"])
def test_a_zero_ceiling_stops_the_first_enumeration(monkeypatch, capsys, argv):
    monkeypatch.setenv("GAMMA2CAT_CELL_CEILING", "0")
    assert run(argv) == 3
    assert "during object enumeration: 1 > 0" in capsys.readouterr().err.splitlines()[0]


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


def test_cubical_level_three_of_f3_stops_at_the_default_ceiling(monkeypatch, capsys):
    # Ko(F3) level 3 builds whole (1, 16 and 2,048 cells), but its cells
    # plus table entries are 4,458,769, so a changed level changes the count
    monkeypatch.delenv("GAMMA2CAT_CELL_CEILING", raising=False)
    assert run(["ko", "--fixture", "F3", "--level", "3"]) == 3
    assert "during table fill: 4458769 > 1000000" in capsys.readouterr().err


@pytest.mark.parametrize("name, ceiling, stage", [
    # over F2 the span levels have as many cells as the unit's target (219
    # at level 2), so the ceiling first trips on the composites of level 1
    ("F2", "219", "table fill: 352 > 219"),
    # over F3 span level 2 lists 2110 cells against the target's 531
    ("F3", "1000", "comma enumeration: 1002 > 1000"),
])
def test_espan_stops_at_the_ceiling(monkeypatch, capsys, name, ceiling, stage):
    monkeypatch.setenv("GAMMA2CAT_CELL_CEILING", ceiling)
    assert run(["espan", "--fixture", name]) == 3
    assert f"during {stage}" in capsys.readouterr().err


def test_triangle_p_stops_at_the_fragment_ceiling(monkeypatch, capsys):
    monkeypatch.setenv("GAMMA2CAT_CELL_CEILING", "3164")
    assert run(["triangle-p", "--fixture", "F2"]) == 3
    assert "during bounded fragment: 3165 > 3164" in capsys.readouterr().err


def test_path_object_stops_at_the_ceiling(monkeypatch, capsys):
    # the arrow 2-category of F4 lists 2 objects before its first hom
    monkeypatch.setenv("GAMMA2CAT_CELL_CEILING", "1")
    assert run(["path-object", "--fixture", "F4"]) == 3
    assert capsys.readouterr().err == (
        "resource ceiling: cell ceiling exceeded during comma enumeration: 2 > 1\n")


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
        ("F1", 17), ("F2", 74), ("F3", 58), ("F4", 75), ("M3", 195), ("F5", 162))),
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
def test_sum_table_naming_no_cell_fails_validation(name, table, part, tmp_path, capsys):
    # a key part or value naming no cell of the base is refused at load, a
    # usage error naming its line, not a lookup error
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
    assert (code, out) == (2, "")
    assert f"usage error: line {at + 1}: {table} entry: zz is not " in capsys.readouterr().err


@pytest.mark.parametrize("name, field, dim", [
    (name, t.field, t.value)
    for name, cls in (("F2", PermutativeTwoCategory), ("F5", PermutativeGrayMonoid))
    for t in cls.TABLES
])
def test_sum_table_naming_a_cell_of_the_wrong_dimension_is_refused(name, field, dim, tmp_path,
                                                                 capsys):
    # a declared cell of another dimension would load unvalidated and then
    # break ``save``; the loader refuses it with its line, for every field
    names = ("o0", "m0", "a0")
    nouns = ("an object", "a 1-cell", "a 2-cell")
    lines = (fixtures_dir() / f"{name}.fx").read_text(encoding="utf-8").splitlines()
    at = next(i for i, l in enumerate(lines) if l.startswith(f"{field} "))
    wrong = names[(dim + 1) % 3]
    lines[at] = " ".join(lines[at].split()[:3] + [wrong])
    bad = "\n".join(lines) + "\n"
    message = f"{field} entry: {wrong} is not {nouns[dim]} of {name}"
    for validate in (True, False):
        with pytest.raises(FixtureError, match=message) as err:
            load(bad, validate=validate)
        assert err.value.line == at + 1
    path = tmp_path / "bad.fx"
    path.write_text(bad, encoding="utf-8")
    assert run(["validate", "--fixture", name, "--file", str(path)]) == 2
    assert f"usage error: line {at + 1}: {message}" in capsys.readouterr().err


def test_report_runs_the_battery():
    rep = execute(build_parser().parse_args(["report", "--timings"]))
    # one time per criterion, specialness included; the default text is
    # pinned by the golden transcript ``report``
    assert list(rep.timings) == [stage for _, stage, _ in BATTERY]
    assert "specialness" in rep.timings
    assert rep.ok


def test_battery_rows_judge_the_command_lines(monkeypatch):
    # the rows of criteria 4 and 5 are runs of very-special and triangle-k
    # at their defaults, judged by the lines those commands print
    monkeypatch.setattr(cli, "very_special_check",
                        lambda X: VerySpecialReport(True, "", ["e", "x", "y"], {}, "e"))
    monkeypatch.setattr(cli, "triangle_K", lambda C, nmax: ValidationReport(C.name))
    rows = {n: run for n, _, run in BATTERY}
    assert rows[4]() == [("very-special-F2", False, "group of order 3")]
    assert rows[5]() == [(f"triangle-k-{name}", False, "no instance checked")
                         for name in ("F1", "F2", "F3")]


def test_mutation_screen_fails_when_a_mutation_is_accepted(monkeypatch):
    def accept(C):
        return ValidationReport(C.name)
    for cls in (PermutativeTwoCategory, PermutativeGrayMonoid):
        monkeypatch.setitem(VALIDATORS, cls, (VALIDATORS[cls][0], accept))
    screen = next(run for n, _, run in BATTERY if n == 10)
    assert screen() == [("mutation-screen", False, "300 mutations not rejected with a witness")]


def test_python_dash_m_runs_the_cli():
    proc = _python(["-m", "gamma2cat", "validate", "--fixture", "F2"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith(b"result: pass\n")


def test_triangle_commands():
    code, _ = _capture(["triangle-k", "--fixture", "F2", "--max", "2"])
    assert code == 0
    code, _ = _capture(["triangle-p", "--fixture", "F2", "--max-len", "2", "--max-entry", "2"])
    assert code == 0
