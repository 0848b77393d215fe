import ast
import itertools
import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import gamma2cat
from gamma2cat import twocat
from gamma2cat.adjunction import bounded_unit_target
from gamma2cat.gamma import (E_TAGS, e_construction, identity_lax_map, identity_transformation,
                             validate_gamma, validate_transformation_gamma)
from gamma2cat.inversek import GrothPerm
from gamma2cat.ktheory import LazyKtLevel, ko_gamma, ko_level, kt_level
from gamma2cat.monoidal import fixture, promote
from gamma2cat.subsets import all_pointed_maps
from gamma2cat.twocat import (
    CELL_OPERATIONS,
    DEFAULT_CELL_CEILING,
    ENUMERATION_OPERATIONS,
    IDENTITY_MAPS,
    PATH_TAGS,
    CellCeilingExceeded,
    CommaFormula,
    FiniteTwoCategory,
    Transformation2,
    TwoFunctor,
    ValidationReport,
    cell_ceiling,
    comma,
    current_cell_ceiling,
    identity_functor,
    internal_equivalence_classes,
    is_isomorphism_of_two_categories,
    path_object,
    pi0,
    product_two_category,
    scan_functor,
    scan_laws,
    scan_naturality,
    terminal_two_category,
    constant_functor_to_terminal,
    transformation_to_path_functor,
    two_equivalence_check,
    validate_two_category,
    validate_two_functor,
    validate_transformation,
    vseq,
)


def disc_z2():
    return fixture("F2").base


def test_domain_issues_follow_cell_order():
    L = ko_level(promote(fixture("F5")), 2)
    L.fill()
    one, two = list(L.one_src), list(L.two_src)
    composable = {
        "hcomp1": (one, lambda g, f: L.one_src[g] == L.one_tgt[f]),
        "vcomp": (two, lambda b, a: L.two_src[b] == L.two_tgt[a]),
        "hcomp2": (two, lambda b, a: L.one_src[L.two_src[b]] == L.one_tgt[L.two_src[a]]),
    }
    # balanced: as many keys outside the domain as dropped ones, so the
    # table has exactly as many keys as the domain has pairs
    for balanced, (name, (cells, ok)) in itertools.product((False, True), composable.items()):
        want = [(b, a) for b in cells for a in cells if ok(b, a)]
        dropped = want[::40]
        outside = [(b, a) for b in cells for a in cells if not ok(b, a)]
        extra = outside[:len(dropped)] if balanced else outside[::60]
        tables = {t: getattr(L, f"{t}_table") for t in composable}
        gone = set(dropped)
        tables[name] = {k: v for k, v in tables[name].items() if k not in gone}
        tables[name].update((k, cells[0]) for k in extra)
        holed = FiniteTwoCategory(
            "holed", L.objects,
            {f: (L.one_src[f], L.one_tgt[f], L.one_identity[f]) for f in one},
            {a: (L.two_src[a], L.two_tgt[a], L.two_identity[a]) for a in two},
            tables["vcomp"], tables["hcomp1"], tables["hcomp2"])
        rep = validate_two_category(holed)
        assert len(dropped) > 3 and len(extra) > 3, name
        assert (len(tables[name]) == len(want)) == balanced, name
        assert [i.message for i in rep.issues] == (
            [f"{name} missing entry for {k!r}" for k in dropped]
            + [f"{name} has entry outside composability domain: {k!r}" for k in extra]), name


def test_equal_categories_of_other_names_hash_alike():
    a = disc_z2()
    b = FiniteTwoCategory("renamed", a.objects, {f: (a.src1(f), a.tgt1(f), a.is_id1(f))
                                                 for f in a.one_src},
                          {x: (a.src2(x), a.tgt2(x), a.is_id2(x)) for x in a.two_src},
                          a.vcomp_table, a.hcomp1_table, a.hcomp2_table)
    assert a.name != b.name and a == b
    assert hash(a) == hash(b) and len({a, b}) == 1


def test_terminal_valid():
    assert validate_two_category(terminal_two_category()).ok


def test_f3_valid_by_exhaustive_scan():
    rep = validate_two_category(fixture("F3").base)
    assert rep.ok
    assert rep.checked > 0


def test_f3_mutated_vcomp_reported():
    C = fixture("F3").base
    broken = FiniteTwoCategory(
        "F3x", C.objects,
        {f: (C.one_src[f], C.one_tgt[f], C.one_identity[f]) for f in C.one_src},
        {a: (C.two_src[a], C.two_tgt[a], C.two_identity[a]) for a in C.two_src},
        dict(C.vcomp_table), dict(C.hcomp1_table), dict(C.hcomp2_table),
    )
    broken.vcomp_table[("a1", "a1")] = "a1"  # the involution now fails a unit/assoc law
    rep = validate_two_category(broken)
    assert not rep.ok
    assert any(i.kind in ("unit", "assoc", "interchange") for i in rep.issues)


def test_structural_error_precedes_axiom_scan():
    C = fixture("F3").base
    broken = FiniteTwoCategory(
        "F3y", C.objects,
        {f: (C.one_src[f], C.one_tgt[f], C.one_identity[f]) for f in C.one_src},
        {a: (C.two_src[a], C.two_tgt[a], C.two_identity[a]) for a in C.two_src},
        dict(C.vcomp_table), dict(C.hcomp1_table), dict(C.hcomp2_table),
    )
    broken.vcomp_table[("a1", "a1")] = "not-a-cell"
    rep = validate_two_category(broken)
    assert not rep.ok
    assert rep.issues[0].kind == "structure"


@pytest.mark.parametrize("one, two, message", [
    # a 1-cell without its identity 2-cell
    ({"u": ("o0", "o1", False)}, {},
     "1-cell 'u' has 0 identity 2-cells (want 1)"),
    # a second identity-flagged loop on one object
    ({"j0": ("o0", "o0", True)}, {"jj0": ("j0", "j0", True)},
     "object 'o0' has 2 identity 1-cells (want 1)"),
])
def test_identity_cells_are_counted_per_endpoint(one, two, message):
    C = disc_z2()
    broken = FiniteTwoCategory(
        "F2i", C.objects,
        {**{f: (C.one_src[f], C.one_tgt[f], C.one_identity[f]) for f in C.one_src}, **one},
        {**{a: (C.two_src[a], C.two_tgt[a], C.two_identity[a]) for a in C.two_src}, **two},
    )
    rep = validate_two_category(broken)
    assert [str(i) for i in rep.issues] == [f"[structure] {message}"]


def test_pi0():
    assert len(pi0(terminal_two_category())) == 1
    assert len(pi0(disc_z2())) == 2
    assert len(pi0(fixture("F3").base)) == 1


def test_internal_equivalence_classes():
    assert len(internal_equivalence_classes(terminal_two_category())) == 1
    assert len(internal_equivalence_classes(disc_z2())) == 2


def test_identity_functor_is_equivalence():
    C = fixture("F3").base
    rep = two_equivalence_check(identity_functor(C))
    assert rep.ok and rep.bijective_on_cells


def test_collapse_to_terminal_not_equivalence():
    C = disc_z2()
    T = terminal_two_category()
    F = constant_functor_to_terminal(C, T)
    assert validate_two_functor(F).ok
    rep = two_equivalence_check(F)
    assert not rep.ok
    assert rep.witness


def test_equivalence_induces_pi0_bijection():
    for name in ("F2", "F3", "F4"):
        C = fixture(name)
        base = C.base if hasattr(C, "base") else C
        F = identity_functor(base)
        if two_equivalence_check(F).ok:
            image_classes = {
                frozenset(F.omap[x] for x in cls) for cls in pi0(base)
            }
            assert len(image_classes) == len(pi0(base))


def test_path_object_terminal():
    po = path_object(terminal_two_category())
    assert po.total.counts() == (1, 1, 1)


def test_path_object_disc_z2_discrete():
    po = path_object(disc_z2())
    assert len(po.total.objects) == 2
    assert all(po.total.one_identity[f] for f in po.total.one_src)


def test_path_object_f4_squares():
    C = fixture("F4").base
    po = path_object(C)
    assert len(po.total.objects) == 2
    # (r, s) is a cell exactly when g.r = s.f in the group
    grp = {("e", "e"): "e", ("e", "x"): "x", ("x", "e"): "x", ("x", "x"): "e"}
    expected = sum(
        1
        for f in ("e", "x") for g in ("e", "x")
        for r in ("e", "x") for s in ("e", "x")
        if grp[(g, r)] == grp[(s, f)]
    )
    assert len(po.total.one_src) == expected == 8
    assert validate_two_category(po.total).ok


def test_path_object_refuses_non_composable_pairs():
    # legs of squares over a one-object base always compose, so only the
    # typing of the squares themselves rules these pairs out
    P = path_object(fixture("F4").base).total
    one, two = list(P.one_src), list(P.two_src)
    pairs = [
        (P.comp1, [(g, f) for g in one for f in one if P.src1(g) != P.tgt1(f)]),
        (P.vcomp, [(b, a) for b in two for a in two if P.src2(b) != P.tgt2(a)]),
        (P.hcomp2, [(b, a) for b in two for a in two
                    if P.src1(P.src2(b)) != P.tgt1(P.src2(a))]),
    ]
    for op, ill_typed in pairs:
        assert ill_typed
        for b, a in ill_typed:
            with pytest.raises(KeyError):
                op(b, a)
    assert not (P.vcomp_table or P.hcomp1_table or P.hcomp2_table)


@pytest.mark.parametrize("name", ["F2", "F3", "F4"])
def test_path_object_round_trip(name):
    C = fixture(name)
    base = C.base if hasattr(C, "base") else C
    po = path_object(base)
    ident = identity_functor(base)
    assert po.i.then(po.e0) == ident
    assert po.i.then(po.e1) == ident
    # the section followed by both evaluations is the diagonal
    prod = product_two_category([base, base])
    assert validate_two_category(prod).ok
    from gamma2cat.twocat import tuple_functor
    diag = tuple_functor([ident, ident], prod)
    both = tuple_functor([po.i.then(po.e0), po.i.then(po.e1)], prod)
    assert both == diag
    assert validate_two_functor(po.e0).ok
    assert validate_two_functor(po.e1).ok
    assert validate_two_functor(po.i).ok


def test_transformation_to_path_functor_bijection():
    C = fixture("F3").base
    po = path_object(C)
    ident = identity_functor(C)
    # a 2-natural transformation id => id with component the identity 1-cell
    t = Transformation2(ident, ident, {x: C.id1(x) for x in C.objects})
    assert validate_transformation(t).ok
    tilde = transformation_to_path_functor(t, po)
    assert validate_two_functor(tilde).ok
    assert tilde.then(po.e0) == ident
    assert tilde.then(po.e1) == ident


def _trivializing_functor(C, name):
    """The 2-functor of a one-object fixture onto its identity cells."""
    (obj,) = C.objects
    e = C.id1(obj)
    return TwoFunctor(C, C, {obj: obj}, {f: e for f in C.one_src},
                      {a: C.id2(e) for a in C.two_src}, name=name)


def test_corrupted_functor_rejected():
    # F2: the identity 1-cell of one object sent to that of the other
    C = fixture("F2").base
    F = identity_functor(C)
    rep = validate_two_functor(TwoFunctor(C, C, F.omap, {**F.fmap, "m0": "m1"}, F.amap))
    assert [str(i) for i in rep.issues] == [
        "[functor] 1-cell 'm0': image endpoints disagree",
        "[functor] 2-cell 'a0': image endpoints disagree"]
    # F3: the identity 2-cell sent to the non-identity one, endpoints intact
    C = fixture("F3").base
    F = identity_functor(C)
    bad = TwoFunctor(C, C, dict(F.omap), dict(F.fmap), {"a0": "a1", "a1": "a1"})
    rep = validate_two_functor(bad)
    assert rep.issues[0].kind == "functor"
    assert "identity 2-cell of 'm0' not preserved" in rep.issues[0].message
    # F4: the 2-cells collapsed while the 1-cells are kept
    C = fixture("F4").base
    G = _trivializing_functor(C, "collapse")
    assert validate_two_functor(G).ok
    bad = TwoFunctor(C, C, G.omap, dict(identity_functor(C).fmap), G.amap)
    rep = validate_two_functor(bad)
    assert [i.kind for i in rep.issues] == ["functor"]
    assert "2-cell 'a1': image endpoints disagree" in rep.issues[0].message


@pytest.mark.parametrize("name, bad_cells", [("F3", ["2-cell 'a1'"]),
                                             ("F4", ["1-cell 'm1'", "2-cell 'a1'"])])
def test_non_natural_components_rejected(name, bad_cells):
    # identity-valued components from the identity to the functor onto the
    # identity cells are natural only where the fixture has no other cells
    C = fixture(name).base
    ident, G = identity_functor(C), _trivializing_functor(C, "collapse")
    assert validate_two_functor(G).ok
    rep = validate_transformation(Transformation2(ident, G, {x: C.id1(x) for x in C.objects}))
    assert rep.checked == len(C.one_src) + len(C.two_src)
    assert [i.kind for i in rep.issues] == ["naturality"] * len(bad_cells)
    assert [i.message for i in rep.issues] == [
        f"components not natural at {cell}" for cell in bad_cells]


def _composable_two_cell_chains(C, length):
    out = []
    for cells in itertools.product(list(C.two_src), repeat=length):
        ok = all(
            C.two_src[cells[i + 1]] == C.two_tgt[cells[i]]
            for i in range(length - 1)
        )
        if ok:
            out.append(cells)
    return out


def test_pasting_fold_order_immaterial():
    # vertical folds taken in two different orders agree on every chain
    C = fixture("F5").base
    for chain in _composable_two_cell_chains(C, 3):
        a, b, c = chain
        assert C.vcomp(c, C.vcomp(b, a)) == C.vcomp(C.vcomp(c, b), a)
        assert vseq(C, a, b, c) == C.vcomp(C.vcomp(c, b), a)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1), st.integers(0, 1))
def test_interchange_on_f3(p, q, r, s):
    C = fixture("F3").base
    name = {0: "a0", 1: "a1"}
    lhs = C.vcomp(C.hcomp2(name[p], name[q]), C.hcomp2(name[r], name[s]))
    rhs = C.hcomp2(C.vcomp(name[p], name[r]), C.vcomp(name[q], name[s]))
    assert lhs == rhs


def _naive_axiom_scan(C) -> tuple[list[str], int]:
    """The axiom scan one instance at a time on tuple-keyed tables, as
    ``validate_two_category`` once ran it: its issue strings and count."""
    rep = ValidationReport("naive")
    one, two = list(C.one_src), list(C.two_src)
    obj_ix = {x: i for i, x in enumerate(C.objects)}
    one_ix = {f: i for i, f in enumerate(one)}
    two_ix = {a: i for i, a in enumerate(two)}
    n1, n2 = len(one), len(two)
    o_src = [obj_ix[C.one_src[f]] for f in one]
    o_tgt = [obj_ix[C.one_tgt[f]] for f in one]
    t_src = [one_ix[C.two_src[a]] for a in two]
    t_tgt = [one_ix[C.two_tgt[a]] for a in two]
    id1_of = [one_ix[C.id1(x)] for x in C.objects]
    id2_of = [two_ix[C.id2(f)] for f in one]
    H1 = {(one_ix[g], one_ix[f]): one_ix[v] for (g, f), v in C.hcomp1_table.items()}
    V = {(two_ix[b], two_ix[a]): two_ix[v] for (b, a), v in C.vcomp_table.items()}
    H2 = {(two_ix[b], two_ix[a]): two_ix[v] for (b, a), v in C.hcomp2_table.items()}

    for fi in range(n1):
        rep.checked += 2
        if H1[(fi, id1_of[o_src[fi]])] != fi:
            rep.add("unit", f"f . id != f for 1-cell {one[fi]!r}")
        if H1[(id1_of[o_tgt[fi]], fi)] != fi:
            rep.add("unit", f"id . f != f for 1-cell {one[fi]!r}")
    for ai in range(n2):
        rep.checked += 4
        if V[(ai, id2_of[t_src[ai]])] != ai:
            rep.add("unit", f"a . id2 != a (vertical) for {two[ai]!r}")
        if V[(id2_of[t_tgt[ai]], ai)] != ai:
            rep.add("unit", f"id2 . a != a (vertical) for {two[ai]!r}")
        s_obj = o_src[t_src[ai]]
        t_obj = o_tgt[t_src[ai]]
        if H2[(ai, id2_of[id1_of[s_obj]])] != ai:
            rep.add("unit", f"a * id != a (horizontal) for {two[ai]!r}")
        if H2[(id2_of[id1_of[t_obj]], ai)] != ai:
            rep.add("unit", f"id * a != a (horizontal) for {two[ai]!r}")
    for (gi, fi) in H1:
        rep.checked += 1
        if H2[(id2_of[gi], id2_of[fi])] != id2_of[H1[(gi, fi)]]:
            rep.add("unit", f"id2(g)*id2(f) != id2(g.f) for ({one[gi]!r},{one[fi]!r})")

    by_src2 = [[] for _ in range(n1)]
    for ci in range(n2):
        by_src2[t_src[ci]].append(ci)
    for (bi, ai) in V:
        ba = V[(bi, ai)]
        for ci in by_src2[t_tgt[bi]]:
            rep.checked += 1
            if V[(ci, ba)] != V[(V[(ci, bi)], ai)]:
                rep.add("assoc", f"vcomp not associative at ({two[ci]!r},{two[bi]!r},{two[ai]!r})")
    by_src1 = [[] for _ in range(len(C.objects))]
    for hi in range(n1):
        by_src1[o_src[hi]].append(hi)
    for (gi, fi) in H1:
        gf = H1[(gi, fi)]
        for hi in by_src1[o_tgt[gi]]:
            rep.checked += 1
            if H1[(hi, gf)] != H1[(H1[(hi, gi)], fi)]:
                rep.add("assoc", f"hcomp1 not associative at ({one[hi]!r},{one[gi]!r},{one[fi]!r})")
    by_src_obj2 = [[] for _ in range(len(C.objects))]
    for ci in range(n2):
        by_src_obj2[o_src[t_src[ci]]].append(ci)
    for (bi, ai) in H2:
        ba = H2[(bi, ai)]
        for ci in by_src_obj2[o_tgt[t_src[bi]]]:
            rep.checked += 1
            if H2[(ci, ba)] != H2[(H2[(ci, bi)], ai)]:
                rep.add("assoc", f"hcomp2 not associative at ({two[ci]!r},{two[bi]!r},{two[ai]!r})")

    homs: dict[tuple[int, int], list[int]] = {}
    for ai in range(n2):
        fi = t_src[ai]
        homs.setdefault((o_src[fi], o_tgt[fi]), []).append(ai)
    vpairs = {key: [(a2, a1, V[(a2, a1)]) for a1 in cells for a2 in cells
                    if t_src[a2] == t_tgt[a1]]
              for key, cells in homs.items()}
    for (x, y), left in vpairs.items():
        for (y2, z), right in vpairs.items():
            if y2 != y:
                continue
            for (a2, a1, va) in left:
                for (b2, b1, vb) in right:
                    rep.checked += 1
                    if V[(H2[(b2, a2)], H2[(b1, a1)])] != H2[(vb, va)]:
                        rep.add("interchange", f"interchange fails at "
                                f"({two[b2]!r},{two[b1]!r};{two[a2]!r},{two[a1]!r})")
    return [str(i) for i in rep.issues], rep.checked


def _retabulated(C, name, **tables):
    """C with its tables copied, some replaced by ``tables``."""
    return FiniteTwoCategory(
        name, C.objects,
        {f: (C.one_src[f], C.one_tgt[f], C.one_identity[f]) for f in C.one_src},
        {a: (C.two_src[a], C.two_tgt[a], C.two_identity[a]) for a in C.two_src},
        tables.get("vcomp_table", C.vcomp_table),
        tables.get("hcomp1_table", C.hcomp1_table),
        tables.get("hcomp2_table", C.hcomp2_table))


def _parallel_swaps(C, rng, limit):
    """Up to ``limit`` mutations per table, each a dict from table names to
    the entries it changes, every new value parallel to the old one so that
    the structure checks pass.  A 1-cell composite g.f is swapped only where
    every 2-cell at g or f is an identity; the 2-cell composite of their
    identities follows it."""
    only_ids = {f for f in C.one_src
                if all(C.two_identity[a] for a in C.two_src
                       if f in (C.two_src[a], C.two_tgt[a]))}
    for tname, src, tgt in (("vcomp_table", C.two_src, C.two_tgt),
                            ("hcomp1_table", C.one_src, C.one_tgt),
                            ("hcomp2_table", C.two_src, C.two_tgt)):
        swaps = []
        for key, value in getattr(C, tname).items():
            if tname == "hcomp1_table" and not only_ids.issuperset(key):
                continue
            others = [c for c in src if c != value
                      and src[c] == src[value] and tgt[c] == tgt[value]]
            if others:
                swaps.append((key, rng.choice(others)))
        for (b, a), new in rng.sample(swaps, min(limit, len(swaps))):
            changes = {tname: {(b, a): new}}
            if tname == "hcomp1_table":
                changes["hcomp2_table"] = {(C.id2(b), C.id2(a)): C.id2(new)}
            yield changes


def _swaps_match_the_naive_scan(cases, rng) -> tuple[int, int]:
    """The mutations tried and caught over up to ``limit`` parallel swaps of
    each ``(C, limit)``, each judged alike by the validator and the naive
    scan, which pass C itself."""
    mutations = caught = 0
    for C, limit in cases:
        C.fill()
        assert _naive_axiom_scan(C) == ([], validate_two_category(C).checked)
        for changes in _parallel_swaps(C, rng, limit):
            mutated = _retabulated(C, f"{C.name}-mut", **{
                tname: {**getattr(C, tname), **entries} for tname, entries in changes.items()})
            rep = validate_two_category(mutated)
            issues, checked = _naive_axiom_scan(mutated)
            assert ([str(i) for i in rep.issues], rep.checked) == (issues, checked)
            mutations += 1
            caught += bool(issues)
    return mutations, caught


def test_single_entry_mutations_match_the_naive_scan():
    # every parallel swap of the fixture bases, fewer of the levels, whose
    # issue messages are long
    rng = random.Random(7)
    cases = [(fixture(n).base, 50) for n in ("F1", "F2", "F3", "F4", "F5", "M3")]
    cases += [(ko_level(fixture(n), 2), limit) for n, limit in (("F3", 8), ("F4", 48), ("M3", 8))]
    assert _swaps_match_the_naive_scan(cases, rng) == (100, 99)


def _z2_arrow_to_a_point():
    """Objects x and t, 1-cells id_x, u: x -> t and id_t.  The 2-cells on
    id_x and on u form Z/2 under both compositions, and id_t has only its
    identity 2-cell.  Nothing but id_t leaves t, so t's composability blocks
    hold one cell each, and hom(t, t) has one vertical pair."""
    z2 = {"ix": ("a0", "a1"), "u": ("u0", "u1")}
    one = {"ix": ("x", "x", True), "u": ("x", "t", False), "it": ("t", "t", True)}
    two = {c: (f, f, i == 0) for f, cs in z2.items() for i, c in enumerate(cs)}
    two["t0"] = ("it", "it", True)
    vcomp = {(cs[i], cs[j]): cs[i ^ j] for cs in z2.values() for i in (0, 1) for j in (0, 1)}
    vcomp[("t0", "t0")] = "t0"
    hcomp1 = {("ix", "ix"): "ix", ("u", "ix"): "u", ("it", "u"): "u", ("it", "it"): "it"}
    hcomp2 = {(g[i], z2["ix"][j]): g[i ^ j] for g in z2.values() for i in (0, 1) for j in (0, 1)}
    hcomp2.update({("t0", c): c for c in z2["u"]})
    hcomp2[("t0", "t0")] = "t0"
    return FiniteTwoCategory("Z2-arrow", ["x", "t"], one, two, vcomp, hcomp1, hcomp2)


def test_block_layouts_match_the_naive_scan():
    # the scan's composability blocks on a many-object span level over F2,
    # and on a category with blocks of one cell and a hom with one vertical
    # pair (one right pair per interchange bucket)
    X = ko_gamma(promote(fixture("F2")), 2)
    many = e_construction(bounded_unit_target(X, 2, 2)[0]).Ek.level(2)
    small = _z2_arrow_to_a_point()
    assert len(many.objects) == 21
    for C in (many, small):
        C.fill()
        blocks = (Counter(C.one_src.values()), Counter(C.two_src.values()),
                  Counter(C.one_src[f] for f in C.two_src.values()))
        vpairs = Counter((C.one_src[C.two_src[a]], C.one_tgt[C.two_src[a]])
                         for _, a in C.vcomp_table)
        assert min(vpairs.values()) == 1
        assert min(blocks[1].values()) == 1
        if C is small:
            assert [min(b.values()) for b in blocks] == [1, 1, 1]
    assert _swaps_match_the_naive_scan(((many, 12), (small, 50)), random.Random(11)) == (30, 30)


def _naive_functor_scan(F) -> tuple[list[str], int]:
    """The strict 2-functor laws one entry at a time, as ``scan_functor``
    once checked them: the issue strings and count."""
    S, T = F.source, F.target
    f0, f1, f2 = F.cell_maps()
    rep = ValidationReport("naive")
    rep.checked += len(S.one_src) + len(S.two_src)
    for f, x in S.one_src.items():
        ff = f1(f)
        if T.src1(ff) != f0(x) or T.tgt1(ff) != f0(S.one_tgt[f]):
            rep.add("functor", f"1-cell {f!r}: image endpoints disagree")
    for a, f in S.two_src.items():
        fa = f2(a)
        if T.src2(fa) != f1(f) or T.tgt2(fa) != f1(S.two_tgt[a]):
            rep.add("functor", f"2-cell {a!r}: image endpoints disagree")
    if not rep.issues:
        rep.checked += (len(S.objects) + len(S.one_src) + len(S.hcomp1_table)
                        + len(S.vcomp_table) + len(S.hcomp2_table))
        for x in S.objects:
            if f1(S.id1(x)) != T.id1(f0(x)):
                rep.add("functor", f"identity 1-cell of {x!r} not preserved")
        for f in S.one_src:
            if f2(S.id2(f)) != T.id2(f1(f)):
                rep.add("functor", f"identity 2-cell of {f!r} not preserved")
        for (g, f), h in S.hcomp1_table.items():
            if f1(h) != T.comp1(f1(g), f1(f)):
                rep.add("functor", f"1-cell composition not preserved at ({g!r},{f!r})")
        for (b, a), c in S.vcomp_table.items():
            if f2(c) != T.vcomp(f2(b), f2(a)):
                rep.add("functor", f"vertical composition not preserved at ({b!r},{a!r})")
        for (b, a), c in S.hcomp2_table.items():
            if f2(c) != T.hcomp2(f2(b), f2(a)):
                rep.add("functor", f"horizontal composition not preserved at ({b!r},{a!r})")
    return [str(i) for i in rep.issues], rep.checked


def _parallel_to(cells: dict, ends: dict, c):
    """The first cell other than c with c's endpoints, or None."""
    return next((d for d in cells if d != c and ends[d] == ends[c]), None)


@pytest.mark.parametrize("name, swap", [("F3", "amap"), ("F4", "fmap")])
def test_functor_swaps_match_the_naive_scan(name, swap):
    # F4's levels have no parallel 2-cells, but only identity 2-cells: a
    # 1-cell image swapped with its identity's image keeps every endpoint
    X = ko_gamma(fixture(name), 2)
    swapped = 0
    for phi in all_pointed_maps(2, 2):
        F = X.transition(phi)
        S, T = F.source, F.target
        rep = validate_two_functor(F)
        assert rep.ok and _naive_functor_scan(F) == ([], rep.checked)
        fmap, amap = dict(F.fmap), dict(F.amap)
        if swap == "amap":
            ends = {a: (T.two_src[a], T.two_tgt[a]) for a in T.two_src}
            a = next(a for a in S.two_src if _parallel_to(T.two_src, ends, amap[a]))
            amap[a] = _parallel_to(T.two_src, ends, amap[a])
        else:
            assert all(T.two_identity.values())
            ends = {f: (T.one_src[f], T.one_tgt[f]) for f in T.one_src}
            f = next(f for f in S.one_src if _parallel_to(T.one_src, ends, fmap[f]))
            fmap[f] = _parallel_to(T.one_src, ends, fmap[f])
            amap[S.id2(f)] = T.id2(fmap[f])
        G = TwoFunctor(S, T, dict(F.omap), fmap, amap, name="swapped")
        rep = validate_two_functor(G)
        assert rep.issues
        assert ([str(i) for i in rep.issues], rep.checked) == _naive_functor_scan(G)
        swapped += 1
    assert swapped == 9


def _naive_naturality_scan(S, T, comp, F, G, kind, what) -> tuple[list[str], int]:
    """The 2-naturality squares one instance at a time, as ``scan_naturality``
    once checked them: the issue strings and count."""
    _, F1, F2 = F
    _, G1, G2 = G
    rep = ValidationReport("naive")
    rep.checked += len(S.one_src) + len(S.two_src)
    for f, x in S.one_src.items():
        if T.comp1(G1(f), comp(x)) != T.comp1(comp(S.one_tgt[f]), F1(f)):
            rep.add(kind, f"{what} not natural at 1-cell {f!r}")
    for a, f in S.two_src.items():
        lhs = T.hcomp2(G2(a), T.id2(comp(S.one_src[f])))
        if lhs != T.hcomp2(T.id2(comp(S.one_tgt[f])), F2(a)):
            rep.add(kind, f"{what} not natural at 2-cell {a!r}")
    return [str(i) for i in rep.issues], rep.checked


def test_naturality_swaps_match_the_naive_scan():
    # the identity-valued components from the identity to the functor onto the
    # identity cells, and each with one component swapped for a parallel 1-cell
    swapped = 0
    for C in [fixture(n).base for n in ("F3", "F4", "F5")] + [ko_level(fixture("F3"), 2)]:
        C.fill()
        ident, G = identity_functor(C), _trivializing_functor(C, "collapse")
        ids = {x: C.id1(x) for x in C.objects}
        variants = [ids] + [{**ids, x: p} for x in C.objects
                            for p in C.one_cells_between(x, x) if p != ids[x]]
        for comps in variants:
            args = (C, C, comps.__getitem__, ident.cell_maps(), G.cell_maps(),
                    "naturality", "components")
            rep = ValidationReport("scan")
            scan_naturality(rep, *args)
            issues, checked = _naive_naturality_scan(*args)
            assert checked == len(C.one_src) + len(C.two_src)
            assert ([str(i) for i in rep.issues], rep.checked) == (issues, checked)
        swapped += len(variants) - 1
    assert swapped == 3


# -- the 2-category protocol ---------------------------------------------------


def test_every_two_category_answers_the_protocol(f2_gamma2):
    F4, F5 = fixture("F4"), fixture("F5")
    tabulated = [F4.base, F4, F5]
    lazy = [LazyKtLevel(F4), CommaFormula(F4.base, F4.base, PATH_TAGS),
            GrothPerm(f2_gamma2)]
    assert [type(C).__name__ for C in tabulated + lazy] == [
        "FiniteTwoCategory", "PermutativeTwoCategory", "PermutativeGrayMonoid",
        "LazyKtLevel", "CommaFormula", "GrothPerm"]
    for C in tabulated + lazy:
        assert all(callable(getattr(C, op, None)) for op in CELL_OPERATIONS), C
    for C in tabulated:
        assert all(callable(getattr(C, op, None)) for op in ENUMERATION_OPERATIONS), C


@pytest.mark.parametrize("name", ["F4", "F5"])
def test_carriers_bind_their_base_operations(name):
    C = fixture(name)
    protocol = CELL_OPERATIONS + ENUMERATION_OPERATIONS
    # no class defines a bound name, so binding cannot shadow a method
    assert not any(set(protocol) & set(vars(k)) for k in type(C).__mro__)
    assert all(getattr(C, op) == getattr(C.base, op) for op in protocol)


def _agreement(lazy, level, identities=True) -> list[tuple]:
    """(lazy value, tabulated value) over every cell and table entry."""
    level.fill()
    pairs = []
    if identities:
        pairs += [(lazy.id1(x), level.id1(x)) for x in level.objects]
        pairs += [(lazy.id2(f), level.id2(f)) for f in level.one_src]
    for ops, cells in ((("src1", "tgt1", "is_id1"), level.one_src),
                       (("src2", "tgt2", "is_id2"), level.two_src)):
        pairs += [(getattr(lazy, op)(c), getattr(level, op)(c)) for op in ops for c in cells]
    for op, table in (("comp1", level.hcomp1_table), ("vcomp", level.vcomp_table),
                      ("hcomp2", level.hcomp2_table)):
        pairs += [(getattr(lazy, op)(b, a), c) for (b, a), c in table.items()]
    return pairs


@pytest.mark.parametrize("name", ["F2", "F3", "F4"])
def test_lazy_kt_level_agrees_with_kt_level(name):
    C = fixture(name)
    pairs = _agreement(LazyKtLevel(C), kt_level(C, 2))
    assert pairs and [p for p in pairs if p[0] != p[1]] == []


def test_lazy_kt_level_agrees_with_ko_level(f5, f5_level2):
    # lazy identities are strict system maps, so identities do not compare
    pairs = _agreement(LazyKtLevel(f5), f5_level2, identities=False)
    assert pairs and [p for p in pairs if p[0] != p[1]] == []


@pytest.mark.parametrize("name", ["F4", "F5"])
def test_lazy_path_level_agrees_with_path_object(name):
    B = fixture(name).base
    pairs = _agreement(CommaFormula(B, B, PATH_TAGS), path_object(B).total)
    assert pairs and [p for p in pairs if p[0] != p[1]] == []


@pytest.mark.parametrize("k", ["identity", "unit"])
def test_comma_formula_agrees_with_span_levels(k, f2_gamma2, f2_unit_target):
    # F = k_m: the span levels of the identity of Ko(F2) and of its unit
    eta = f2_unit_target[0] if k == "unit" else identity_lax_map(f2_gamma2)
    Ek = e_construction(eta).Ek
    for m in range(Ek.cap + 1):
        formula = CommaFormula(eta.source.level(m), eta.target.level(m), E_TAGS)
        pairs = _agreement(formula, Ek.level(m))
        assert pairs and [p for p in pairs if p[0] != p[1]] == []


# -- the comma enumerator against the all-pairs loops ----------------------------


def all_pairs_comma(S, T, F, tags) -> tuple[list, list, list]:
    """The cells of the comma 2-category (id_T | F), in insertion order, as
    the former hand-written enumerations listed them: 1-cells over every
    pair of objects, 2-cells over every pair of 1-cells."""
    F0, F1, F2 = F
    objs = [(tags[0], x, f, a) for x in S.objects for a in T.objects
            for f in T.one_cells_between(a, F0(x))]
    one = {}
    for o1 in objs:
        _, x, f, a = o1
        for o2 in objs:
            _, y, g, b = o2
            for s in S.one_cells_between(x, y):
                for r in T.one_cells_between(a, b):
                    if T.comp1(g, r) == T.comp1(F1(s), f):
                        ident = o1 == o2 and S.is_id1(s) and T.is_id1(r)
                        one[(tags[1], o1, o2, s, r)] = (o1, o2, ident)
    two = {}
    for k1, (o1, o2, _) in one.items():
        for k2, (p1, p2, _) in one.items():
            if p1 != o1 or p2 != o2:
                continue
            for be in S.two_cells_between(k1[3], k2[3]):
                for al in T.two_cells_between(k1[4], k2[4]):
                    if T.hcomp2(T.id2(o2[2]), al) == T.hcomp2(F2(be), T.id2(o1[2])):
                        ident = k1 == k2 and S.is_id2(be) and T.is_id2(al)
                        two[(tags[2], k1, k2, be, al)] = (k1, k2, ident)
    return objs, list(one.items()), list(two.items())


def listed_cells(C) -> tuple[list, list, list]:
    """The cells of a tabulated 2-category in the order ``all_pairs_comma``
    gives them."""
    return (C.objects,
            [(f, (C.one_src[f], C.one_tgt[f], C.one_identity[f])) for f in C.one_src],
            [(a, (C.two_src[a], C.two_tgt[a], C.two_identity[a])) for a in C.two_src])


@pytest.mark.parametrize("name", ["F1", "F2", "F3", "F4", "F5", "M3"])
def test_path_object_lists_the_cells_of_the_all_pairs_loops(name):
    B = fixture(name).base
    oracle = all_pairs_comma(B, B, IDENTITY_MAPS, PATH_TAGS)
    assert oracle[2] and listed_cells(path_object(B).total) == oracle


def test_comma_enumeration_stops_at_the_ceiling():
    # the arrow 2-category of F5 has 2 + 8 + 16 cells; the count is taken
    # after each hom of 1-cells and after the 2-cells of each 1-cell
    B = fixture("F5").base
    with cell_ceiling(26):
        with pytest.raises(CellCeilingExceeded, match="comma enumeration: 20 > 18"), cell_ceiling(18):
            comma(B, B, IDENTITY_MAPS, PATH_TAGS, "arrow")
        assert sum(comma(B, B, IDENTITY_MAPS, PATH_TAGS, "arrow").counts()) == 26
    assert current_cell_ceiling() == DEFAULT_CELL_CEILING


def _ceiling_breaches(tree) -> list[int]:
    """Lines of ``ceiling`` parameters and ``_CELL_CEILING.set`` calls outside their owners."""
    def inside(name):
        return {id(n) for o in ast.walk(tree) if getattr(o, "name", "") == name for n in ast.walk(o)}
    params, sets = inside("CellCeilingExceeded"), inside("cell_ceiling")
    return [n.lineno for n in ast.walk(tree) if (
        isinstance(n, ast.arg) and n.arg == "ceiling" and id(n) not in params
        or isinstance(n, ast.Call) and ast.unparse(n.func) == "_CELL_CEILING.set"
        and id(n) not in sets)]


def test_no_function_takes_a_ceiling_and_only_the_scope_sets_it():
    found = {p.name: _ceiling_breaches(ast.parse(p.read_text(encoding="utf-8")))
             for p in sorted(Path(gamma2cat.__file__).parent.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}
    # the scan itself sees a parameter, a lambda's and a set, and allows the owners
    assert sorted(_ceiling_breaches(ast.parse(
        "def ko_level(C, n, ceiling=10):\n    f = lambda *, ceiling: 0\n_CELL_CEILING.set(5)\n"
        "class CellCeilingExceeded:\n    def __init__(self, stage, count, ceiling):\n        pass\n"
        "def cell_ceiling(limit):\n    _CELL_CEILING.set(limit)"))) == [1, 2, 3]


# -- the law runner --------------------------------------------------------------


def _checked_writes(tree) -> list[tuple[str, int]]:
    """The enclosing function and line of each assignment or addition to an
    attribute named ``checked``."""
    out = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner
            if (isinstance(child, ast.AugAssign) and isinstance(child.target, ast.Attribute)
                    and child.target.attr == "checked"
                    or isinstance(child, ast.Assign) and any(
                        isinstance(t, ast.Attribute) and t.attr == "checked" for t in child.targets)):
                out.append((owner, child.lineno))
            visit(child, inner)

    visit(tree, None)
    return out


def test_only_twocat_writes_an_instance_count():
    found = {p.name: _checked_writes(ast.parse(p.read_text(encoding="utf-8")))
             for p in sorted(Path(gamma2cat.__file__).parent.glob("*.py"))}
    writers = {(name, owner) for name, writes in found.items() for owner, _ in writes}
    assert writers == {("twocat.py", "scan_laws"), ("twocat.py", "merge"),
                       ("twocat.py", "add_summary")}
    assert len(found["twocat.py"]) == 3
    # the scan itself sees both kinds of write with their function, and not a
    # read or a keyword
    assert _checked_writes(ast.parse(
        "rep.checked += 1\ndef f(rep):\n    rep.checked = 0\n    n = rep.checked\n"
        "    r = ValidationReport('s', checked=2)\n    checked = 3\n"
        "    def g():\n        rep.checked += 1\n")) == [(None, 1), ("f", 3), ("g", 8)]


def _raising_at(maps: tuple, dim: int, cell, exc) -> tuple:
    """The cell maps ``maps`` with the one of dimension ``dim`` raising ``exc`` at ``cell``."""
    def failing(c):
        if c == cell:
            raise exc
        return maps[dim](c)
    return maps[:dim] + (failing,) + maps[dim + 1:]


def _ill_typed_or_raised(exc, run) -> ValidationReport | None:
    """The report that ``run`` fills, or None once a ceiling has propagated from it."""
    rep = ValidationReport("ill-typed")
    if isinstance(exc, CellCeilingExceeded):
        with pytest.raises(CellCeilingExceeded):
            run(rep)
        return None
    run(rep)
    return rep


@pytest.mark.parametrize("exc", [KeyError("dangling"), ValueError("dangling"),
                                 CellCeilingExceeded("table fill", 2, 1)])
def test_an_ill_typed_instance_is_reported_and_a_ceiling_propagates(exc, f2_gamma2, monkeypatch):
    # a strict 2-functor whose 1-cell map does not answer at one 1-cell fails
    # the endpoint laws there and at the 2-cell on it, and the scan stops
    # before the identities
    C = fixture("F4").base
    maps = _raising_at(identity_functor(C).cell_maps(), 1, "m1", exc)
    rep = _ill_typed_or_raised(exc, lambda rep: scan_functor(rep, C, C, maps))
    if rep is not None:
        assert rep.checked == len(C.one_src) + len(C.two_src)
        assert [str(i) for i in rep.issues] == [
            f"[functor] 1-cell image endpoints at 'm1': ill-typed instance ({exc})",
            f"[functor] 2-cell image endpoints at 'a1': ill-typed instance ({exc})"]
    # the 1-cell squares of components whose target functor does not answer
    # at one 1-cell, beside the square at a 2-cell that fails as before
    G = _raising_at(_trivializing_functor(C, "collapse").cell_maps(), 1, "m1", exc)
    rep = _ill_typed_or_raised(exc, lambda rep: scan_naturality(
        rep, C, C, C.id1, identity_functor(C).cell_maps(), G, "naturality", "components"))
    if rep is not None:
        assert rep.checked == len(C.one_src) + len(C.two_src)
        assert [str(i) for i in rep.issues] == [
            f"[naturality] components square at 1-cells at 'm1': ill-typed instance ({exc})",
            "[naturality] components not natural at 2-cell 'a1'"]
    # the modification square of a transformation reads the structure cells of
    # its lax maps; one that does not compose at one pointed map fails there
    h = identity_lax_map(f2_gamma2)
    t = identity_transformation(h)
    before = validate_transformation_gamma(t)
    phi = next(p for p in f2_gamma2.all_maps() if p.m == 1 and p.n == 2)
    lax = h.lax

    def failing(psi, x):
        if psi == phi:
            raise exc
        return lax(psi, x)

    monkeypatch.setattr(h, "lax", failing)
    if isinstance(exc, CellCeilingExceeded):
        with pytest.raises(CellCeilingExceeded):
            validate_transformation_gamma(t)
        return
    rep = validate_transformation_gamma(t)
    assert before.ok and rep.checked == before.checked
    assert [str(i) for i in rep.issues] == [
        f"[modification] square at {phi}, object {x!r}: ill-typed instance ({exc})"
        for x in f2_gamma2.level(1).objects]


def _hold_calls(monkeypatch) -> Counter:
    """Calls of each law's ``holds``, by law name, for the scans run after it:
    every law passed to the runner, called or not, has an entry."""
    calls = Counter()
    run = twocat.scan_laws

    def counted(name, holds):
        def call(*args):
            calls[name] += 1
            return holds(*args)
        return call

    def counting(rep, instances, *laws, **options):
        calls.update({name: 0 for _, name, _, _ in laws})
        run(rep, instances, *((kind, name, counted(name, holds), fails)
                              for kind, name, holds, fails in laws), **options)

    monkeypatch.setattr(twocat, "scan_laws", counting)
    return calls


_BUCKETED = ("associativity", "interchange", "composition")


def test_passing_buckets_are_counted_without_a_walk(monkeypatch):
    F5 = fixture("F5")
    calls = _hold_calls(monkeypatch)
    reps = (validate_two_category(ko_level(F5, 2)), validate_gamma(ko_gamma(F5, 2)))
    assert all(rep.ok and rep.checked for rep in reps)
    bucketed = {name: n for name, n in calls.items() if name.endswith(_BUCKETED)}
    assert {name.rsplit(": ", 1)[-1] for name in bucketed} == {
        "vcomp associativity", "hcomp1 associativity", "hcomp2 associativity", "interchange",
        "1-cell composition", "vertical composition", "horizontal composition"}
    assert sum(bucketed.values()) == 0
    # the per-instance laws are walked, and a failing bucket is too
    assert calls["right unit of 1-cells"] > 0
    C = fixture("F3").base
    broken = _retabulated(C, "F3x", vcomp_table={**C.vcomp_table, ("a1", "a1"): "a1"})
    calls.clear()
    assert not validate_two_category(broken).ok
    assert calls["interchange"] > 0


def test_a_bucket_is_walked_only_when_its_sides_differ():
    # a bucket (cells, s) holds the instances (c, s); the third one's sides
    # agree although its instance fails, so only a walk can report it
    law = ("law", "equality", lambda c, s: c == s, "differs")
    buckets = [((1, 1), 1), ((2, 3), 2), ((5,), 4)]
    rhs = [(1, 1), (2, 2), (4,)]
    rep = ValidationReport("buckets")
    scan_laws(rep, buckets, law, sides=([(1, 1), (2, 3), (4,)], rhs))
    assert ([str(i) for i in rep.issues], rep.checked) == (["[law] differs at (3,2)"], 5)
    # sides that cannot be built walk that bucket and every later one

    def lhs():
        yield (1, 1)
        raise KeyError("unbuilt")

    rep = ValidationReport("buckets")
    scan_laws(rep, buckets, law, sides=(lhs(), rhs))
    assert ([str(i) for i in rep.issues], rep.checked) == (
        ["[law] differs at (3,2)", "[law] differs at (5,4)"], 5)
