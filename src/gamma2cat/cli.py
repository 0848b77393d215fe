"""Fixture I/O and command dispatch.

The fixture format is line-oriented UTF-8 text with canonical field order:

    gamma2cat-fixture v1
    [category NAME]
    object o0
    one m0 o0 o0 id
    two a0 m0 m0 id
    vcomp a1 a0 a1
    hcomp1 m1 m0 m1
    hcomp2 a1 a0 a1
    [permutative NAME]
    flavor p2cat | pgm
    unit o0
    sum_obj o0 o1 o1          (p2cat: sum_one / sum_two; pgm: lsum_* / rsum_* / sigma)
    beta o0 o1 m1
    [gamma NAME]
    cap 2
    level 0 NAME.L0
    map 1 2 0,2 obj m0 s t    (one table line per cell of the source level)

Each flavor accepts only the tables its carrier class lists in ``TABLES``;
any other field is an error that names its line, and so is an entry naming
a cell that is undeclared or not of the dimension its table lists.

Saving canonicalizes cell identifiers, so load(save(d)) is byte-identical
for canonicalized documents.  Reports are byte-deterministic unless
``report --timings`` asks for wall-clock times.

One table, ``COMMANDS``, gives each subcommand its parameters, its fixture
and its run; the parser and every report are built from it.  ``report`` runs
``BATTERY``, the named checks of acceptance criteria 1-10, which the
acceptance tests run too; six of its rows are runs of table commands at
their defaults.  A validator-backed line passes only when the validator
examined at least one instance, and otherwise carries its witness or ``no
instance checked``, in ``segal`` and ``path-object`` as everywhere.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

from .subsets import PointedMap, maps_up_to
from .twocat import (
    DEFAULT_CELL_CEILING,
    FiniteTwoCategory,
    TwoFunctor,
    cell_ceiling,
    is_isomorphism_of_two_categories,
    path_object,
    validate_two_category,
    validate_two_functor,
)
from .monoidal import (
    PermutativeGrayMonoid,
    PermutativeTwoCategory,
    promote,
    validate_permutative,
    validate_pgm,
)
from .ktheory import (
    CellCeilingExceeded,
    ko_gamma,
    ko_level,
    kt_level,
    level_one_comparison,
)
from .gamma import (
    GammaTruncation,
    e_adjunction_check,
    e_construction,
    identity_lax_map,
    is_identity_transformation,
    special_check,
    validate_espan,
    validate_gamma,
    validate_transformation_gamma,
    very_special_check,
)
from .inversek import validate_p_truncation
from .adjunction import bounded_unit_target, lambda_of, triangle_K, triangle_P, unit_map

FORMAT_HEADER = "gamma2cat-fixture v1"

# each structure type's validator, under the check name ``validate`` reports
VALIDATORS = {
    FiniteTwoCategory: ("2-category-axioms", validate_two_category),
    PermutativeTwoCategory: ("permutative-axioms", validate_permutative),
    PermutativeGrayMonoid: ("cubical-axioms", validate_pgm),
}
CARRIERS = {cls.flavor: cls for cls in (PermutativeTwoCategory, PermutativeGrayMonoid)}
CELL_NOUNS = ("an object", "a 1-cell", "a 2-cell")


class FixtureError(Exception):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


@dataclass
class FixtureDocument:
    """Parsed fixture file: named 2-categories, permutative structures on
    them, and diagram truncations referencing them."""

    categories: dict = field(default_factory=dict)
    permutative: dict = field(default_factory=dict)
    gammas: dict = field(default_factory=dict)


# -- canonical serialization -----------------------------------------------------


def _canonical_names(C: FiniteTwoCategory):
    # ties broken by insertion order, which both construction and parsing
    # preserve; this keeps load/save round-trips byte-stable
    obj_ix = {x: i for i, x in enumerate(C.objects)}
    omap = {x: f"o{i}" for i, x in enumerate(C.objects)}
    one_ins = {f: i for i, f in enumerate(C.one_src)}
    ones = sorted(
        C.one_src,
        key=lambda f: (not C.one_identity[f], obj_ix[C.one_src[f]],
                       obj_ix[C.one_tgt[f]], one_ins[f]),
    )
    one_ix = {f: i for i, f in enumerate(ones)}
    fmap = {f: f"m{i}" for i, f in enumerate(ones)}
    two_ins = {a: i for i, a in enumerate(C.two_src)}
    twos = sorted(
        C.two_src,
        key=lambda a: (not C.two_identity[a], one_ix[C.two_src[a]],
                       one_ix[C.two_tgt[a]], two_ins[a]),
    )
    amap = {a: f"a{i}" for i, a in enumerate(twos)}
    return omap, fmap, amap


def _emit_category(out: list[str], name: str, C: FiniteTwoCategory, names):
    omap, fmap, amap = names
    C.fill()
    out.append(f"[category {name}]")
    for x in C.objects:
        out.append(f"object {omap[x]}")
    for f, nm in fmap.items():
        tag = " id" if C.one_identity[f] else ""
        out.append(f"one {nm} {omap[C.one_src[f]]} {omap[C.one_tgt[f]]}{tag}")
    for a, nm in amap.items():
        tag = " id" if C.two_identity[a] else ""
        out.append(f"two {nm} {fmap[C.two_src[a]]} {fmap[C.two_tgt[a]]}{tag}")
    for key in sorted(C.vcomp_table, key=lambda k: (amap[k[0]], amap[k[1]])):
        out.append(f"vcomp {amap[key[0]]} {amap[key[1]]} {amap[C.vcomp_table[key]]}")
    for key in sorted(C.hcomp1_table, key=lambda k: (fmap[k[0]], fmap[k[1]])):
        out.append(f"hcomp1 {fmap[key[0]]} {fmap[key[1]]} {fmap[C.hcomp1_table[key]]}")
    for key in sorted(C.hcomp2_table, key=lambda k: (amap[k[0]], amap[k[1]])):
        out.append(f"hcomp2 {amap[key[0]]} {amap[key[1]]} {amap[C.hcomp2_table[key]]}")


def _emit_permutative(out: list[str], name: str, P, names):
    out.append(f"[permutative {name}]")
    out.append(f"flavor {P.flavor}")
    out.append(f"unit {names[0][P.unit]}")
    for t in P.TABLES:
        table = getattr(P, t.attr)
        kx, ky = (names[d] for d in t.key)
        for x, y in sorted(table, key=lambda k: (kx[k[0]], ky[k[1]])):
            out.append(f"{t.field} {kx[x]} {ky[y]} {names[t.value][table[(x, y)]]}")


def save(doc: FixtureDocument, path: str | Path | None = None) -> str:
    """Serialize a document with canonical identifiers and field order."""
    out = [FORMAT_HEADER, ""]
    names = {}
    for name in doc.categories:
        names[name] = _canonical_names(doc.categories[name])
        _emit_category(out, name, doc.categories[name], names[name])
        out.append("")
    for name, P in doc.permutative.items():
        if name not in doc.categories:
            raise FixtureError(f"permutative section {name!r} has no category")
        _emit_permutative(out, name, P, names[name])
        out.append("")
    for name, X in doc.gammas.items():
        level_names = [f"{name}.L{m}" for m in range(X.cap + 1)]
        for m, lname in enumerate(level_names):
            if lname not in names:
                names[lname] = _canonical_names(X.level(m))
            if lname not in doc.categories:
                _emit_category(out, lname, X.level(m), names[lname])
                out.append("")
        out.append(f"[gamma {name}]")
        out.append(f"cap {X.cap}")
        out.extend(f"level {m} {lname}" for m, lname in enumerate(level_names))
        for phi in maps_up_to(X.cap):
            m, n, F = phi.m, phi.n, X.transition(phi)
            if F is None:
                raise FixtureError(f"gamma {name} has no transition functor for {phi}")
            som, sfm, sam = names[level_names[m]]
            tom, tfm, tam = names[level_names[n]]
            imgs = ",".join(str(v) for v in phi.imgs) or "-"
            for x in X.level(m).objects:
                out.append(f"map {m} {n} {imgs} obj {som[x]} {tom[F.omap[x]]}")
            for f in X.level(m).one_src:
                out.append(f"map {m} {n} {imgs} one {sfm[f]} {tfm[F.fmap[f]]}")
            for a in X.level(m).two_src:
                out.append(f"map {m} {n} {imgs} two {sam[a]} {tam[F.amap[a]]}")
        out.append("")
    text = "\n".join(out).rstrip("\n") + "\n"
    if path is not None:
        Path(path).write_text(text, encoding="utf-8")
    return text


# -- parsing -------------------------------------------------------------------------


def load(source: str | Path, validate: bool = True) -> FixtureDocument:
    """Parse a fixture document, checking referential integrity with line
    positions; structures are re-validated unless disabled."""
    if isinstance(source, Path) or (isinstance(source, str) and "\n" not in source
                                    and os.path.exists(source)):
        text = Path(source).read_text(encoding="utf-8")
    else:
        text = str(source)
    lines = text.splitlines()
    if not lines or lines[0].strip() != FORMAT_HEADER:
        raise FixtureError("missing or wrong format header", 1)

    doc = FixtureDocument()
    raw_cats: dict[str, dict] = {}
    raw_perms: dict[str, dict] = {}
    raw_gammas: dict[str, dict] = {}
    section = None
    sec_name = None
    headers: set[tuple[str, str]] = set()

    def need(parts, k, ln):
        # every line has exactly its field's arity, so no token is dropped
        if len(parts) != k:
            raise FixtureError(f"expected {k} fields, got {len(parts)}", ln)

    def number(text, ln):
        try:
            return int(text)
        except ValueError:
            raise FixtureError(f"{text!r} is not a number", ln) from None

    for ln, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise FixtureError("malformed section header", ln)
            kind, _, rest = line[1:-1].partition(" ")
            if (kind, rest) in headers:
                raise FixtureError(f"repeated section header [{kind} {rest}]", ln)
            headers.add((kind, rest))
            if kind == "category":
                section, sec_name = "category", rest
                raw_cats[rest] = {"objects": [], "one": {}, "two": {},
                                  "vcomp": {}, "hcomp1": {}, "hcomp2": {}, "line": ln}
            elif kind == "permutative":
                section, sec_name = "permutative", rest
                raw_perms[rest] = {"line": ln, "flavor": None, "unit": None, "tables": []}
            elif kind == "gamma":
                section, sec_name = "gamma", rest
                raw_gammas[rest] = {"cap": None, "levels": {}, "maps": [], "line": ln}
            else:
                raise FixtureError(f"unknown section kind {kind!r}", ln)
            continue
        parts = line.split()
        if section == "category":
            c = raw_cats[sec_name]
            if parts[0] == "object":
                need(parts, 2, ln)
                c["objects"].append(parts[1])
            elif parts[0] in ("one", "two"):
                marked = len(parts) == 5
                if marked and parts[4] != "id":
                    raise FixtureError(f"expected 'id' as the fifth field, got {parts[4]!r}", ln)
                need(parts, 5 if marked else 4, ln)
                c[parts[0]][parts[1]] = (parts[2], parts[3], marked)
            elif parts[0] in ("vcomp", "hcomp1", "hcomp2"):
                need(parts, 4, ln)
                c[parts[0]][(parts[1], parts[2])] = parts[3]
            else:
                raise FixtureError(f"unknown category field {parts[0]!r}", ln)
        elif section == "permutative":
            if parts[0] in ("flavor", "unit"):
                need(parts, 2, ln)
                raw_perms[sec_name][parts[0]] = parts[1]
                if parts[0] == "unit":
                    raw_perms[sec_name]["unit_line"] = ln
            else:
                raw_perms[sec_name]["tables"].append((ln, parts))
        elif section == "gamma":
            g = raw_gammas[sec_name]
            if parts[0] == "cap":
                need(parts, 2, ln)
                g["cap"] = number(parts[1], ln)
            elif parts[0] == "level":
                need(parts, 3, ln)
                g["levels"][number(parts[1], ln)] = parts[2]
            elif parts[0] == "map":
                need(parts, 7, ln)
                g["maps"].append((ln, parts))
            else:
                raise FixtureError(f"unknown gamma field {parts[0]!r}", ln)
        else:
            raise FixtureError("content outside any section", ln)

    for name, c in raw_cats.items():
        objset = set(c["objects"])
        for f, (s, t, _) in c["one"].items():
            if s not in objset or t not in objset:
                raise FixtureError(f"1-cell {f} references unknown object", c["line"])
        for a, (s, t, _) in c["two"].items():
            if s not in c["one"] or t not in c["one"]:
                raise FixtureError(f"2-cell {a} references unknown 1-cell", c["line"])
        for tbl, pool in (("vcomp", c["two"]), ("hcomp1", c["one"]), ("hcomp2", c["two"])):
            for (x, y), z in c[tbl].items():
                if x not in pool or y not in pool or z not in pool:
                    raise FixtureError(f"{tbl} entry references unknown cell", c["line"])
        cat = FiniteTwoCategory(name, c["objects"], c["one"], c["two"],
                                c["vcomp"], c["hcomp1"], c["hcomp2"])
        if validate:
            rep = validate_two_category(cat)
            if not rep.ok:
                raise FixtureError(f"category {name} invalid: {rep.first()}", c["line"])
        doc.categories[name] = cat

    for name, p in raw_perms.items():
        if name not in doc.categories:
            raise FixtureError(f"permutative section {name} has no category", p["line"])
        cls = CARRIERS.get(p["flavor"])
        if cls is None:
            raise FixtureError(f"unknown flavor {p['flavor']!r}", p["line"])
        if p["unit"] is None:
            raise FixtureError(f"permutative section {name} has no unit", p["line"])
        base = doc.categories[name]
        if not base.has_obj(p["unit"]):
            raise FixtureError(f"unit {p['unit']} is not an object of {name}", p["unit_line"])
        pools = (set(base.objects), base.one_src, base.two_src)
        specs = {t.field: t for t in cls.TABLES}
        tables = {t.field: {} for t in cls.TABLES}
        for ln, parts in p["tables"]:
            if parts[0] not in tables:
                raise FixtureError(f"unknown {cls.flavor} field {parts[0]!r}", ln)
            need(parts, 4, ln)
            t = specs[parts[0]]
            for cell, dim in zip(parts[1:], (*t.key, t.value)):
                if cell not in pools[dim]:
                    raise FixtureError(
                        f"{parts[0]} entry: {cell} is not {CELL_NOUNS[dim]} of {name}", ln)
            tables[parts[0]][(parts[1], parts[2])] = parts[3]
        P = cls(name, base, p["unit"], *tables.values())
        if validate:
            rep = VALIDATORS[cls][1](P)
            if not rep.ok:
                raise FixtureError(f"permutative {name} invalid: {rep.first()}", p["line"])
        doc.permutative[name] = P

    for name, g in raw_gammas.items():
        cap = g["cap"]
        if cap is None or set(g["levels"]) != set(range(cap + 1)):
            raise FixtureError(f"gamma {name}: missing cap or levels", g["line"])
        if cap < 1:
            raise FixtureError(f"gamma {name}: cap {cap} is below 1", g["line"])
        levels = []
        for m in range(cap + 1):
            lname = g["levels"][m]
            if lname not in doc.categories:
                raise FixtureError(f"gamma {name}: unknown level category {lname}", g["line"])
            levels.append(doc.categories[lname])
        tables: dict[PointedMap, dict] = {}
        for ln, parts in g["maps"]:
            m, n = number(parts[1], ln), number(parts[2], ln)
            if not (0 <= m <= cap and 0 <= n <= cap):
                raise FixtureError(f"map {m}+ -> {n}+ outside the cap {cap}", ln)
            imgs = () if parts[3] == "-" else tuple(number(v, ln) for v in parts[3].split(","))
            try:
                phi = PointedMap(m, n, imgs)
            except ValueError as exc:
                raise FixtureError(str(exc), ln) from None
            entry = tables.setdefault(phi, {"obj": {}, "one": {}, "two": {}})
            dim, src, tgt = parts[4], parts[5], parts[6]
            if dim not in entry:
                raise FixtureError(f"unknown map dimension {dim!r}", ln)
            entry[dim][src] = tgt
        maps = {}
        for phi, entry in tables.items():
            Lm, Ln = levels[phi.m], levels[phi.n]
            maps[phi] = TwoFunctor(Lm, Ln, entry["obj"], entry["one"], entry["two"],
                                   name=f"phi*{phi.imgs}")
        X = GammaTruncation(name, cap, levels, maps.get)
        if validate:
            rep = validate_gamma(X)
            if not rep.ok:
                raise FixtureError(f"gamma {name} invalid: {rep.first()}", g["line"])
        doc.gammas[name] = X
    return doc


# -- built-in fixtures ------------------------------------------------------------


def fixtures_dir() -> Path:
    return Path(__file__).parent / "fixtures"


def shipped_fixtures() -> list[str]:
    """Names of the shipped fixtures: the stems of their ``.fx`` files."""
    return sorted(p.stem for p in fixtures_dir().glob("*.fx"))


def builtin_document(name: str, validate: bool) -> FixtureDocument:
    """Load a shipped fixture by name, re-validating it if ``validate``."""
    # only exact stems: a name such as ``../fixtures/F2`` must not reach a path
    if name not in shipped_fixtures():
        raise FixtureError(f"unknown fixture {name!r}")
    return load(fixtures_dir() / f"{name}.fx", validate=validate)


def resolve_fixture(name: str, path: str | None, validate: bool = True):
    """A named structure from a file or the shipped catalogue."""
    doc = load(path, validate=validate) if path else builtin_document(name, validate)
    if name in doc.permutative:
        return doc.permutative[name]
    if name in doc.categories:
        return doc.categories[name]
    raise FixtureError(f"fixture file does not define {name!r}")


# -- reports -------------------------------------------------------------------------


@dataclass
class Report:
    command: str
    params: dict
    checks: list  # (check name, ok, detail) lines
    counters: dict = field(default_factory=dict)
    timings: dict | None = None

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def to_text(self) -> str:
        lines = [f"command: {self.command}"]
        for k in sorted(self.params):
            lines.append(f"param {k} = {self.params[k]}")
        for name, ok, detail in self.checks:
            detail = f"  ({detail})" if detail else ""
            lines.append(f"{'PASS' if ok else 'FAIL'} {name}{detail}")
        for k in sorted(self.counters):
            lines.append(f"count {k} = {self.counters[k]}")
        if self.timings is not None:
            for k in sorted(self.timings):
                lines.append(f"time {k} = {self.timings[k]:.2f}s")
        lines.append(f"result: {'pass' if self.ok else 'fail'}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {
            "command": self.command,
            "params": self.params,
            "checks": [
                {"name": name, "status": "pass" if ok else "fail", "detail": detail}
                for name, ok, detail in self.checks
            ],
            "counters": self.counters,
            "result": "pass" if self.ok else "fail",
        }
        if self.timings is not None:
            payload["timings"] = {k: round(v, 2) for k, v in self.timings.items()}
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def env_cell_ceiling() -> int:
    """The ceiling every command builds under: the environment variable
    GAMMA2CAT_CELL_CEILING, a non-negative integer, or
    ``DEFAULT_CELL_CEILING`` when it is unset; anything else is a usage
    error."""
    text = os.environ.get("GAMMA2CAT_CELL_CEILING", str(DEFAULT_CELL_CEILING))
    if not (text.isascii() and text.isdigit()):
        raise FixtureError(f"GAMMA2CAT_CELL_CEILING must be a non-negative integer, got {text!r}")
    return int(text)


def _examined(name: str, *reps):
    """A validator-backed line: it passes only when every report is clean and
    examined at least one instance; else it carries the first witness."""
    bad = next((r for r in reps if not (r.ok and r.checked > 0)), None)
    return name, bad is None, "" if bad is None else str(bad.first() or "no instance checked")


# -- the command table: one entry per subcommand, read by the parser and report --
# A command's fixture resolver maps ``(name, file)`` to the structure its
# ``run(F, **params)`` reads; ``run`` returns the report's lines and counters
# (and ``report`` its stage timings).


REQUIRED = object()  # the default of a parameter that must be given


@dataclass(frozen=True)
class Command:
    params: dict  # name -> default: an int, False for a flag, or REQUIRED (an int)
    fixture: Callable | None  # None: the command reads no fixture
    run: Callable


def _raw(name: str, path: str | None):
    # validation is this command's own check, so files are loaded raw
    return resolve_fixture(name, path, validate=False)


def _gray(name: str, path: str | None = None):
    F = resolve_fixture(name, path)
    if isinstance(F, PermutativeGrayMonoid):
        return F
    if isinstance(F, PermutativeTwoCategory):
        return promote(F)
    raise FixtureError("fixture carries no permutative structure")


def _product(builder: str):
    def resolve(name: str, path: str | None):
        F = resolve_fixture(name, path)
        if not isinstance(F, PermutativeTwoCategory):
            raise FixtureError(f"{builder} needs a product-flavored fixture")
        return F
    return resolve


CELL_COUNTS = ("objects", "one_cells", "two_cells")


def _counted(*checks):
    """Lines of named validator reports, counting the instances they examined."""
    return ([_examined(name, r) for name, r in checks],
            {"instances": sum(r.checked for _, r in checks)})


def _validate(F):
    name, check = VALIDATORS[type(F)]
    return _counted((name, check(F)))


def _level(lvl):
    axioms = _examined("level-axioms", validate_two_category(lvl))
    return [axioms], dict(zip(CELL_COUNTS, lvl.counts()))


def _segal_lines(sp):
    """One line per Segal comparison of a special check: its kind, or its witness."""
    return [(f"segal-{n}", r.ok,
             ("isomorphism" if r.bijective_on_cells else "equivalence") if r.ok
             else (r.witness or ""))
            for n, r in sorted(sp.per_level.items())]


def _segal(C, max):
    X = ko_gamma(C, max)
    diagram = _examined("diagram-valid", validate_gamma(X))
    return [diagram, *_segal_lines(special_check(X))], {}


def _very_special(C, max):
    vs = very_special_check(ko_gamma(C, max))
    return [("very-special", vs.ok,
             f"group of order {len(vs.elements)}" if vs.ok else vs.reason)], {}


def _triangle_k(C, max):
    return _counted(("triangle-counit-after-unit", triangle_K(C, max)))


def _triangle_p(C, max_len, max_entry):
    X = ko_gamma(C, max(2, max_entry))
    return _counted(("triangle-counit-after-unit-image", triangle_P(X, max_len, max_entry)))


def _espan(C, cap):
    eta, _ = bounded_unit_target(ko_gamma(C, cap), cap, cap)
    span = e_construction(eta)
    return _counted(("span-identities", validate_espan(span)),
                    ("retraction-adjunction", e_adjunction_check(span)))


def _path_object(F):
    base = getattr(F, "base", F)
    po = path_object(base)
    total = _examined("total-valid", validate_two_category(po.total))
    evaluations = _examined("evaluations-valid",
                            *(validate_two_functor(G) for G in (po.e0, po.e1, po.i)))
    splits = (po.i.then(po.e0).omap == {x: x for x in base.objects}
              and po.i.then(po.e1).fmap == {f: f for f in base.one_src})
    return ([total, evaluations, ("section-splits", splits, "")],
            dict(zip(CELL_COUNTS, po.total.counts())))


def _report(_, timings):
    """The acceptance battery, one timed stage per criterion."""
    lines, times = [], {}
    for _number, stage, criterion in BATTERY:
        t0 = time.perf_counter()
        lines += criterion()
        times[stage] = time.perf_counter() - t0
    return lines, {}, times if timings else None


COMMANDS = {
    "validate": Command({}, _raw, _validate),
    "ko": Command({"level": REQUIRED}, _gray, lambda C, level: _level(ko_level(C, level))),
    "kt": Command({"level": REQUIRED}, _product("the strict level builder"),
                  lambda C, level: _level(kt_level(C, level))),
    "segal": Command({"max": 3}, _gray, _segal),
    "very-special": Command({"max": 2}, _gray, _very_special),
    "triangle-k": Command({"max": 2}, _product("the triangle scan"), _triangle_k),
    "triangle-p": Command({"max_len": 2, "max_entry": 2}, _gray, _triangle_p),
    "espan": Command({"cap": 2}, _gray, _espan),
    "path-object": Command({}, resolve_fixture, _path_object),
    "report": Command({"timings": False}, None, _report),
}
PARAM_HELP = {"timings": "include wall-clock times (breaks byte determinism)"}


# -- the acceptance battery: criteria 1-10, run by ``report`` and the tests ------
# Each criterion is ``(number, stage, run)``; ``run()`` builds its inputs and
# returns its ``(check name, ok, detail)`` lines.


def _command_rows(command: str, fixtures, detail: str = ""):
    """Rows that run ``command`` at its defaults, one per fixture: a row passes
    when every line of the run passes and reads ``detail``."""
    c = COMMANDS[command]
    rows = []
    for name in fixtures:
        lines = c.run(c.fixture(name, None), **c.params)[0]
        bad = next((d for _, ok, d in lines if not ok or d != detail), None)
        rows.append((f"{command}-{name}", bad is None, bad or ""))
    return rows


def _f2_gamma2():
    return ko_gamma(_gray("F2"), 2)


def _level_counts():
    P = _gray("F2")
    levels = [ko_level(P, n) for n in range(4)]
    counts = [len(lvl.objects) for lvl in levels]
    trivial = all(P.is_id1(c) for lvl in levels for system in lvl.objects for c in system.c)
    detail = f"{counts}" if trivial else f"{counts}, non-identity connecting cell"
    return [("ko-level-counts", counts == [1, 2, 4, 8] and trivial, detail)]


def _level_one():
    failed = []
    for name in ("F1", "F2", "F3", "F4", "F5", "M3"):
        C = _gray(name)
        cmp1 = level_one_comparison(C, ko_level(C, 1))
        if not (validate_two_functor(cmp1).ok and is_isomorphism_of_two_categories(cmp1)):
            failed.append(name)
    return [("level-one-comparison", not failed, ", ".join(failed))]


def _specialness():
    lines = []
    for name, cap in (("F1", 3), ("F2", 3), ("F3", 3), ("F5", 2)):
        segal = _segal_lines(special_check(ko_gamma(_gray(name), cap)))
        # the F5 comparison at level two is an equivalence but no isomorphism
        ok = all(ok for _, ok, _ in segal) and (
            name != "F5" or ("segal-2", True, "equivalence") in segal)
        lines.append((f"special-{name}", ok, ""))
    return lines


def _inverse_permutativity():
    return [_examined("inverse-permutativity", validate_p_truncation(_f2_gamma2(), 2, 2))]


def _lambda_coherence():
    X = _f2_gamma2()
    name, ok, detail = _examined("lambda-coherence",
                                 validate_transformation_gamma(lambda_of(unit_map(X))))
    ok = ok and is_identity_transformation(lambda_of(identity_lax_map(X)))
    return [(name, ok, detail)]


def _mutate_once(F, rng):
    """One random single-entry table mutation, preserving the table shapes."""
    C = F.base
    one, two, objs = list(C.one_src), list(C.two_src), list(C.objects)
    pools = (objs, one, two)
    base = [("vcomp_table", two), ("hcomp1_table", one), ("hcomp2_table", two)]
    extra = [(t.attr, pools[t.value]) for t in F.TABLES]
    # the base and sum tables, copied, in the order their constructors take them
    tables = {t: dict(getattr(C, t)) for t, _ in base}
    tables.update({t: dict(getattr(F, t)) for t, _ in extra})
    while True:
        tname, pool = rng.choice(base + extra)
        table = tables[tname]
        if not table:
            continue
        key = rng.choice(list(table))
        candidates = [v for v in pool if v != table[key]]
        if candidates:
            table[key] = rng.choice(candidates)
            break
    new_base = FiniteTwoCategory(
        C.name + "?", objs,
        {f: (C.one_src[f], C.one_tgt[f], C.one_identity[f]) for f in one},
        {a: (C.two_src[a], C.two_tgt[a], C.two_identity[a]) for a in two},
        *(tables[t] for t, _ in base))
    return type(F)(F.name + "?", new_base, F.unit, *(tables[t] for t, _ in extra))


def mutation_sample():
    """100 seeded mutations each of F2, F3 and F5, with their validator reports."""
    rng = random.Random(20260810)
    for name in ("F2", "F3", "F5"):
        F = resolve_fixture(name, None)
        for _ in range(100):
            mutated = _mutate_once(F, rng)
            yield mutated, VALIDATORS[type(mutated)][1](mutated)


def _mutation_screen():
    # every sampled corruption is rejected, with its first failure as witness
    missed = sum(r.ok or r.first() is None for _, r in mutation_sample())
    return [("mutation-screen", not missed,
             f"{missed} mutations not rejected with a witness" if missed else "")]


BATTERY = (
    (1, "ko-counts", _level_counts),
    (2, "level-one", _level_one),
    (3, "specialness", _specialness),
    (4, "very-special", lambda: _command_rows("very-special", ["F2"], "group of order 2")),
    (5, "triangle-k", lambda: _command_rows("triangle-k", ["F1", "F2", "F3"])),
    (6, "triangle-p", lambda: _command_rows("triangle-p", ["F2"])),
    (7, "espan", lambda: _command_rows("espan", ["F2"])),
    (8, "inverse-permutativity", _inverse_permutativity),
    (9, "lambda-coherence", _lambda_coherence),
    (10, "mutation-screen", _mutation_screen),
)


# -- dispatch ------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--format", choices=("text", "json"), default="text")
    p = argparse.ArgumentParser(prog="gamma2cat", parents=[shared],
                                description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        sp = sub.add_parser(name, parents=[shared])
        if command.fixture:
            sp.add_argument("--fixture", required=True)
            sp.add_argument("--file", default=None,
                            help="fixture file overriding the catalogue")
        for param, default in command.params.items():
            flag = "--" + param.replace("_", "-")
            if isinstance(default, bool):
                sp.add_argument(flag, action="store_true", help=PARAM_HELP[param])
            elif default is REQUIRED:
                sp.add_argument(flag, type=int, required=True)
            else:
                sp.add_argument(flag, type=int, default=default)
    return p


def execute(args) -> Report:
    """Run a parsed command; a command with a fixture lists it and its
    parameters in the report."""
    command = COMMANDS[args.command]
    params = {p: getattr(args, p) for p in command.params}
    if command.fixture is None:
        return Report(args.command, {}, *command.run(None, **params))
    F = command.fixture(args.fixture, args.file)
    return Report(args.command, {"fixture": args.fixture, **params}, *command.run(F, **params))


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0,) else 0
    try:
        # validate builds nothing, so a malformed ceiling does not stop it
        with cell_ceiling(DEFAULT_CELL_CEILING if args.command == "validate"
                          else env_cell_ceiling()):
            report = execute(args)
    except CellCeilingExceeded as exc:
        sys.stderr.write(f"resource ceiling: {exc}\n")
        return 3
    except FixtureError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 2
    sys.stdout.write(report.to_json() if args.format == "json" else report.to_text())
    return 0 if report.ok else 1


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
