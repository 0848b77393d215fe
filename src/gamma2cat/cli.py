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

Saving canonicalizes cell identifiers, so load(save(d)) is byte-identical
for canonicalized documents.  Reports are byte-deterministic unless
``report --timings`` asks for wall-clock times; ``report`` runs ``BATTERY``,
the named checks of acceptance criteria 1-10, which the acceptance tests run
too.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from .subsets import PointedMap, maps_up_to
from .twocat import (
    FiniteTwoCategory,
    TwoFunctor,
    is_isomorphism_of_two_categories,
    path_object,
    validate_two_category,
    validate_two_functor,
)
from .monoidal import (
    FIXTURE_BUILDERS,
    PermutativeGrayMonoid,
    PermutativeTwoCategory,
    fixture as build_fixture,
    promote,
    validate_permutative,
    validate_pgm,
)
from .ktheory import (
    CellCeilingExceeded,
    DEFAULT_CELL_CEILING,
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
    omap, fmap, amap = names
    out.append(f"[permutative {name}]")
    out.append(f"flavor {P.flavor}")
    out.append(f"unit {omap[P.unit]}")
    for (a, b) in sorted(P.sum_obj_table, key=lambda k: (omap[k[0]], omap[k[1]])):
        out.append(f"sum_obj {omap[a]} {omap[b]} {omap[P.sum_obj_table[(a, b)]]}")
    if P.flavor == "p2cat":
        for (f, g) in sorted(P.sum_one_table, key=lambda k: (fmap[k[0]], fmap[k[1]])):
            out.append(f"sum_one {fmap[f]} {fmap[g]} {fmap[P.sum_one_table[(f, g)]]}")
        for (x, y) in sorted(P.sum_two_table, key=lambda k: (amap[k[0]], amap[k[1]])):
            out.append(f"sum_two {amap[x]} {amap[y]} {amap[P.sum_two_table[(x, y)]]}")
    else:
        for (a, f) in sorted(P.lsum1_table, key=lambda k: (omap[k[0]], fmap[k[1]])):
            out.append(f"lsum_one {omap[a]} {fmap[f]} {fmap[P.lsum1_table[(a, f)]]}")
        for (f, a) in sorted(P.rsum1_table, key=lambda k: (fmap[k[0]], omap[k[1]])):
            out.append(f"rsum_one {fmap[f]} {omap[a]} {fmap[P.rsum1_table[(f, a)]]}")
        for (a, x) in sorted(P.lsum2_table, key=lambda k: (omap[k[0]], amap[k[1]])):
            out.append(f"lsum_two {omap[a]} {amap[x]} {amap[P.lsum2_table[(a, x)]]}")
        for (x, a) in sorted(P.rsum2_table, key=lambda k: (amap[k[0]], omap[k[1]])):
            out.append(f"rsum_two {amap[x]} {omap[a]} {amap[P.rsum2_table[(x, a)]]}")
        for (f, g) in sorted(P.sigma_table, key=lambda k: (fmap[k[0]], fmap[k[1]])):
            out.append(f"sigma {fmap[f]} {fmap[g]} {amap[P.sigma_table[(f, g)]]}")
    for (a, b) in sorted(P.beta_table, key=lambda k: (omap[k[0]], omap[k[1]])):
        out.append(f"beta {omap[a]} {omap[b]} {fmap[P.beta_table[(a, b)]]}")


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

    def need(parts, k, ln):
        if len(parts) < k:
            raise FixtureError(f"expected at least {k} fields, got {len(parts)}", ln)

    for ln, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise FixtureError("malformed section header", ln)
            kind, _, rest = line[1:-1].partition(" ")
            if kind == "category":
                section, sec_name = "category", rest
                raw_cats[rest] = {"objects": [], "one": {}, "two": {},
                                  "vcomp": {}, "hcomp1": {}, "hcomp2": {}, "line": ln}
            elif kind == "permutative":
                section, sec_name = "permutative", rest
                raw_perms[rest] = {"line": ln, "tables": []}
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
            elif parts[0] == "one":
                need(parts, 4, ln)
                c["one"][parts[1]] = (parts[2], parts[3], len(parts) > 4 and parts[4] == "id")
            elif parts[0] == "two":
                need(parts, 4, ln)
                c["two"][parts[1]] = (parts[2], parts[3], len(parts) > 4 and parts[4] == "id")
            elif parts[0] in ("vcomp", "hcomp1", "hcomp2"):
                need(parts, 4, ln)
                c[parts[0]][(parts[1], parts[2])] = parts[3]
            else:
                raise FixtureError(f"unknown category field {parts[0]!r}", ln)
        elif section == "permutative":
            raw_perms[sec_name]["tables"].append((ln, parts))
        elif section == "gamma":
            g = raw_gammas[sec_name]
            if parts[0] == "cap":
                need(parts, 2, ln)
                g["cap"] = int(parts[1])
            elif parts[0] == "level":
                need(parts, 3, ln)
                g["levels"][int(parts[1])] = parts[2]
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
        cat = doc.categories[name]
        flavor, unit = None, None
        tables = {k: {} for k in ("sum_obj", "sum_one", "sum_two", "lsum_one",
                                  "rsum_one", "lsum_two", "rsum_two", "sigma", "beta")}
        for ln, parts in p["tables"]:
            if parts[0] == "flavor":
                flavor = parts[1]
            elif parts[0] == "unit":
                unit = parts[1]
            elif parts[0] in tables:
                need(parts, 4, ln)
                tables[parts[0]][(parts[1], parts[2])] = parts[3]
            else:
                raise FixtureError(f"unknown permutative field {parts[0]!r}", ln)
        if flavor == "p2cat":
            P = PermutativeTwoCategory(name, cat, unit, tables["sum_obj"],
                                       tables["sum_one"], tables["sum_two"],
                                       tables["beta"])
            check = validate_permutative
        elif flavor == "pgm":
            P = PermutativeGrayMonoid(name, cat, unit, tables["sum_obj"],
                                      tables["lsum_one"], tables["rsum_one"],
                                      tables["lsum_two"], tables["rsum_two"],
                                      tables["sigma"], tables["beta"])
            check = validate_pgm
        else:
            raise FixtureError(f"unknown flavor {flavor!r}", p["line"])
        if validate:
            rep = check(P)
            if not rep.ok:
                raise FixtureError(f"permutative {name} invalid: {rep.first()}", p["line"])
        doc.permutative[name] = P

    for name, g in raw_gammas.items():
        cap = g["cap"]
        if cap is None or set(g["levels"]) != set(range(cap + 1)):
            raise FixtureError(f"gamma {name}: missing cap or levels", g["line"])
        levels = []
        for m in range(cap + 1):
            lname = g["levels"][m]
            if lname not in doc.categories:
                raise FixtureError(f"gamma {name}: unknown level category {lname}", g["line"])
            levels.append(doc.categories[lname])
        tables: dict[PointedMap, dict] = {}
        for ln, parts in g["maps"]:
            m, n = int(parts[1]), int(parts[2])
            imgs = () if parts[3] == "-" else tuple(int(v) for v in parts[3].split(","))
            phi = PointedMap(m, n, imgs)
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


def builtin_document(name: str) -> FixtureDocument:
    """Load a shipped fixture by name, re-validating it."""
    path = fixtures_dir() / f"{name}.fx"
    if not path.exists():
        raise FixtureError(f"unknown fixture {name!r}")
    return load(path)


def resolve_fixture(name: str, path: str | None, validate: bool = True):
    """A named structure from a file or the shipped catalogue."""
    if path:
        doc = load(path, validate=validate)
    elif name in FIXTURE_BUILDERS:
        doc = builtin_document(name)
    else:
        raise FixtureError(f"unknown fixture {name!r}")
    if name in doc.permutative:
        return doc.permutative[name]
    if name in doc.categories:
        return doc.categories[name]
    raise FixtureError(f"fixture file does not define {name!r}")


# -- reports -------------------------------------------------------------------------


@dataclass
class Check:
    name: str
    status: str  # pass | fail
    detail: str = ""


@dataclass
class Report:
    command: str
    params: dict
    checks: list[Check] = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    timings: dict | None = None

    @property
    def ok(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append(Check(name, "pass" if ok else "fail", detail))

    def to_text(self) -> str:
        lines = [f"command: {self.command}"]
        for k in sorted(self.params):
            lines.append(f"param {k} = {self.params[k]}")
        for c in self.checks:
            detail = f"  ({c.detail})" if c.detail else ""
            lines.append(f"{c.status.upper():4} {c.name}{detail}")
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
                {"name": c.name, "status": c.status, "detail": c.detail}
                for c in self.checks
            ],
            "counters": self.counters,
            "result": "pass" if self.ok else "fail",
        }
        if self.timings is not None:
            payload["timings"] = {k: round(v, 2) for k, v in self.timings.items()}
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def cell_ceiling() -> int:
    return int(os.environ.get("GAMMA2CAT_CELL_CEILING", str(DEFAULT_CELL_CEILING)))


# -- the acceptance battery: criteria 1-10, run by ``report`` and the tests ------
# Each criterion is ``(number, stage, run)``; ``run(ceiling)`` builds its inputs
# and returns its ``(check name, ok, detail)`` lines.  A validator-backed check
# passes only when at least one instance was examined.


def _examined(name: str, *reps):
    bad = next((r for r in reps if not (r.ok and r.checked > 0)), None)
    return name, bad is None, "" if bad is None else str(bad.first() or "no instance checked")


def _f2_gamma2(ceiling: int):
    return ko_gamma(promote(build_fixture("F2")), 2, ceiling)


def _level_counts(ceiling):
    P = promote(build_fixture("F2"))
    levels = [ko_level(P, n, ceiling) for n in range(4)]
    counts = [len(lvl.objects) for lvl in levels]
    trivial = all(P.is_id1(c) for lvl in levels for system in lvl.objects for c in system.c)
    detail = f"{counts}" if trivial else f"{counts}, non-identity connecting cell"
    return [("ko-level-counts", counts == [1, 2, 4, 8] and trivial, detail)]


def _level_one(ceiling):
    failed = []
    for name in ("F1", "F2", "F3", "F4", "F5", "M3"):
        C = _as_gray(build_fixture(name))
        cmp1 = level_one_comparison(C, ko_level(C, 1, ceiling))
        if not (validate_two_functor(cmp1).ok and is_isomorphism_of_two_categories(cmp1)):
            failed.append(name)
    return [("level-one-comparison", not failed, ", ".join(failed))]


def _specialness(ceiling):
    lines = []
    for name, cap in (("F1", 3), ("F2", 3), ("F3", 3), ("F5", 2)):
        sp = special_check(ko_gamma(_as_gray(build_fixture(name)), cap, ceiling))
        # the F5 comparison at level two is an equivalence but no isomorphism
        ok = sp.ok and (name != "F5" or not sp.per_level[2].bijective_on_cells)
        lines.append((f"special-{name}", ok, ""))
    return lines


def _very_special(ceiling):
    vs = very_special_check(_f2_gamma2(ceiling))
    e, x = vs.identity, next((c for c in vs.elements if c != vs.identity), None)
    # the group of order two: x + x = e and e + x = x
    ok = vs.ok and len(vs.elements) == 2 and vs.table[(x, x)] == e and vs.table[(e, x)] == x
    return [("very-special-F2", ok, "")]


def _triangle_k(ceiling):
    return [_examined(f"triangle-k-{name}", triangle_K(build_fixture(name), 2, ceiling))
            for name in ("F1", "F2", "F3")]


def _triangle_p(ceiling):
    return [_examined("triangle-p-F2", triangle_P(_f2_gamma2(ceiling), 2, 2))]


def _espan(ceiling):
    eta, _ = bounded_unit_target(_f2_gamma2(ceiling), 2, 2, ceiling)
    span = e_construction(eta)
    return [_examined("espan-F2", validate_espan(span), e_adjunction_check(span))]


def _inverse_permutativity(ceiling):
    return [_examined("inverse-permutativity", validate_p_truncation(_f2_gamma2(ceiling), 2, 2))]


def _lambda_coherence(ceiling):
    X = _f2_gamma2(ceiling)
    name, ok, detail = _examined("lambda-coherence",
                                 validate_transformation_gamma(lambda_of(unit_map(X))))
    ok = ok and is_identity_transformation(lambda_of(identity_lax_map(X)))
    return [(name, ok, detail)]


def _mutate_once(F, rng):
    """One random single-entry table mutation, preserving the table shapes."""
    C = F.base
    one, two, objs = list(C.one_src), list(C.two_src), list(C.objects)
    base = [("vcomp_table", two), ("hcomp1_table", one), ("hcomp2_table", two)]
    if isinstance(F, PermutativeTwoCategory):
        extra = [("sum_obj_table", objs), ("sum_one_table", one),
                 ("sum_two_table", two), ("beta_table", one)]
    else:
        extra = [("sum_obj_table", objs), ("lsum1_table", one), ("rsum1_table", one),
                 ("lsum2_table", two), ("rsum2_table", two), ("sigma_table", two),
                 ("beta_table", one)]
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
        F = build_fixture(name)
        for _ in range(100):
            mutated = _mutate_once(F, rng)
            if isinstance(mutated, PermutativeTwoCategory):
                yield mutated, validate_permutative(mutated)
            else:
                yield mutated, validate_pgm(mutated)


def _mutation_screen(ceiling):
    # every corruption is rejected with a witness or re-validates in full
    ok = all(r.ok or r.first() is not None for _, r in mutation_sample())
    return [("mutation-screen", ok, "")]


BATTERY = (
    (1, "ko-counts", _level_counts),
    (2, "level-one", _level_one),
    (3, "specialness", _specialness),
    (4, "very-special", _very_special),
    (5, "triangle-k", _triangle_k),
    (6, "triangle-p", _triangle_p),
    (7, "espan", _espan),
    (8, "inverse-permutativity", _inverse_permutativity),
    (9, "lambda-coherence", _lambda_coherence),
    (10, "mutation-screen", _mutation_screen),
)


# -- commands -----------------------------------------------------------------------


def _as_gray(F):
    if isinstance(F, PermutativeGrayMonoid):
        return F
    if isinstance(F, PermutativeTwoCategory):
        return promote(F)
    raise FixtureError("fixture carries no permutative structure")


def cmd_validate(args) -> Report:
    # validation is this command's own check, so files are loaded raw
    rep = Report("validate", {"fixture": args.fixture})
    F = resolve_fixture(args.fixture, args.file, validate=False)
    if isinstance(F, PermutativeGrayMonoid):
        name, r = "cubical-axioms", validate_pgm(F)
    elif isinstance(F, PermutativeTwoCategory):
        name, r = "permutative-axioms", validate_permutative(F)
    else:
        name, r = "2-category-axioms", validate_two_category(F)
    rep.add(name, r.ok, str(r.first() or ""))
    rep.counters["instances"] = r.checked
    return rep


def _level_report(command: str, args, lvl) -> Report:
    rep = Report(command, {"fixture": args.fixture, "level": args.level})
    r = validate_two_category(lvl)
    rep.add("level-axioms", r.ok, str(r.first() or ""))
    rep.counters.update(zip(("objects", "one_cells", "two_cells"), lvl.counts()))
    return rep


def cmd_ko(args) -> Report:
    C = _as_gray(resolve_fixture(args.fixture, args.file))
    return _level_report("ko", args, ko_level(C, args.level, cell_ceiling()))


def cmd_kt(args) -> Report:
    C = resolve_fixture(args.fixture, args.file)
    if not isinstance(C, PermutativeTwoCategory):
        raise FixtureError("the strict level builder needs a product-flavored fixture")
    return _level_report("kt", args, kt_level(C, args.level, cell_ceiling()))


def cmd_segal(args) -> Report:
    rep = Report("segal", {"fixture": args.fixture, "max": args.max})
    C = _as_gray(resolve_fixture(args.fixture, args.file))
    X = ko_gamma(C, args.max, cell_ceiling())
    rep.add("diagram-valid", validate_gamma(X).ok)
    sp = special_check(X)
    for n, r in sorted(sp.per_level.items()):
        kind = "isomorphism" if r.bijective_on_cells else "equivalence"
        rep.add(f"segal-{n}", r.ok, kind if r.ok else (r.witness or ""))
    return rep


def cmd_very_special(args) -> Report:
    rep = Report("very-special", {"fixture": args.fixture, "max": args.max})
    C = _as_gray(resolve_fixture(args.fixture, args.file))
    X = ko_gamma(C, args.max, cell_ceiling())
    vs = very_special_check(X)
    rep.add("very-special", vs.ok, vs.reason if not vs.ok else f"group of order {len(vs.elements)}")
    return rep


def cmd_triangle_k(args) -> Report:
    rep = Report("triangle-k", {"fixture": args.fixture, "max": args.max})
    C = resolve_fixture(args.fixture, args.file)
    if not isinstance(C, PermutativeTwoCategory):
        raise FixtureError("the triangle scan needs a product-flavored fixture")
    r = triangle_K(C, args.max, cell_ceiling())
    rep.add("triangle-counit-after-unit", r.ok, str(r.first() or ""))
    rep.counters["instances"] = r.checked
    return rep


def cmd_triangle_p(args) -> Report:
    rep = Report("triangle-p", {"fixture": args.fixture, "max_len": args.max_len,
                                "max_entry": args.max_entry})
    C = _as_gray(resolve_fixture(args.fixture, args.file))
    X = ko_gamma(C, max(2, args.max_entry), cell_ceiling())
    r = triangle_P(X, args.max_len, args.max_entry)
    rep.add("triangle-counit-after-unit-image", r.ok, str(r.first() or ""))
    rep.counters["instances"] = r.checked
    return rep


def cmd_espan(args) -> Report:
    rep = Report("espan", {"fixture": args.fixture, "cap": args.cap})
    C = _as_gray(resolve_fixture(args.fixture, args.file))
    X = ko_gamma(C, args.cap, cell_ceiling())
    eta, _ = bounded_unit_target(X, args.cap, args.cap, cell_ceiling())
    span = e_construction(eta)
    r = validate_espan(span)
    rep.add("span-identities", r.ok, str(r.first() or ""))
    ra = e_adjunction_check(span)
    rep.add("retraction-adjunction", ra.ok, str(ra.first() or ""))
    rep.counters["instances"] = r.checked + ra.checked
    return rep


def cmd_path_object(args) -> Report:
    rep = Report("path-object", {"fixture": args.fixture})
    F = resolve_fixture(args.fixture, args.file)
    base = F.base if hasattr(F, "base") else F
    po = path_object(base)
    rep.add("total-valid", validate_two_category(po.total).ok)
    rep.add("evaluations-valid",
            validate_two_functor(po.e0).ok and validate_two_functor(po.e1).ok
            and validate_two_functor(po.i).ok)
    ok_split = po.i.then(po.e0).omap == {x: x for x in base.objects} and \
        po.i.then(po.e1).fmap == {f: f for f in base.one_src}
    rep.add("section-splits", ok_split)
    rep.counters.update(zip(("objects", "one_cells", "two_cells"), po.total.counts()))
    return rep


def cmd_report(args) -> Report:
    """The acceptance battery, one timed stage per criterion."""
    rep = Report("report", {}, timings={})
    ceiling = cell_ceiling()
    for _, stage, criterion in BATTERY:
        t0 = time.perf_counter()
        for name, ok, detail in criterion(ceiling):
            rep.add(name, ok, detail)
        rep.timings[stage] = time.perf_counter() - t0
    if not args.timings:
        rep.timings = None
    return rep


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--format", choices=("text", "json"), default="text")
    p = argparse.ArgumentParser(prog="gamma2cat", parents=[shared],
                                description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, fixture=True):
        sp = sub.add_parser(name, parents=[shared])
        if fixture:
            sp.add_argument("--fixture", required=True)
            sp.add_argument("--file", default=None,
                            help="fixture file overriding the catalogue")
        sp.set_defaults(fn=fn)
        return sp

    add("validate", cmd_validate)
    add("ko", cmd_ko).add_argument("--level", type=int, required=True)
    add("kt", cmd_kt).add_argument("--level", type=int, required=True)
    add("segal", cmd_segal).add_argument("--max", type=int, default=3)
    add("very-special", cmd_very_special).add_argument("--max", type=int, default=2)
    add("triangle-k", cmd_triangle_k).add_argument("--max", type=int, default=2)
    sp = add("triangle-p", cmd_triangle_p)
    sp.add_argument("--max-len", type=int, default=2)
    sp.add_argument("--max-entry", type=int, default=2)
    add("espan", cmd_espan).add_argument("--cap", type=int, default=2)
    add("path-object", cmd_path_object)
    add("report", cmd_report, fixture=False).add_argument(
        "--timings", action="store_true",
        help="include wall-clock times (breaks byte determinism)")
    return p


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0,) else 0
    try:
        report: Report = args.fn(args)
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
