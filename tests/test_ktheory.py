import copy
import hashlib
import itertools
from collections import Counter
from dataclasses import replace

import pytest

from gamma2cat import ktheory
from gamma2cat.subsets import (PointedMap, all_pointed_maps, disjoint_pairs, disjoint_triples,
                               fold_map, maps_up_to, nonempty_subsets_of, pointed_identity,
                               segal_injection, subset_key, union)
from gamma2cat.monoidal import fixture, promote
from gamma2cat.twocat import (
    cell_ceiling,
    internal_equivalence_classes,
    is_isomorphism_of_two_categories,
    product_two_category,
    two_equivalence_check,
    validate_two_category,
    validate_two_functor,
)
from gamma2cat.ktheory import (
    CellCeilingExceeded,
    LazyKtLevel,
    enumerate_system_maps,
    enumerate_system_two_cells,
    enumerate_systems,
    ko_gamma,
    ko_level,
    ko_map,
    kt_level,
    kt_to_ko,
    level_one_comparison,
    mk_system,
    mk_system_map,
    mk_system_two_cell,
    partition_cell,
    reindex_system,
    reindex_system_map,
    reindex_system_two_cell,
    validate_system,
    validate_system_map,
    validate_system_two_cell,
)
from gamma2cat.gamma import special_check, validate_gamma, very_special_check
from gamma2cat.inversek import GrothPerm
from gamma2cat.adjunction import eta_on_cell, eta_phi


def test_level_zero_unique_object():
    for name in ("F1", "F2", "F5"):
        C = fixture(name)
        gray = promote(C) if name != "F5" else C
        lvl = ko_level(gray, 0)
        assert lvl.counts() == (1, 1, 1)


def test_f2_level_counts_and_trivial_connecting_cells(f2):
    P = promote(f2)
    for n, want in ((0, 1), (1, 2), (2, 4), (3, 8)):
        lvl = ko_level(P, n)
        assert len(lvl.objects) == want
        for sys in lvl.objects:
            assert all(P.is_id1(c) for c in sys.c)


def test_level_one_comparison_all_fixtures():
    for name in ("F1", "F2", "F3", "F5", "M3"):
        C = fixture(name)
        gray = C if name == "F5" else promote(C)
        lvl = ko_level(gray, 1)
        cmp1 = level_one_comparison(gray, lvl)
        assert validate_two_functor(cmp1).ok
        assert is_isomorphism_of_two_categories(cmp1)


@pytest.mark.parametrize("name, n", [(name, n) for name in ("F1", "F2", "F3", "F4", "M3")
                                     for n in (1, 2)])
def test_kt_to_ko_is_a_two_equivalence(name, n):
    inc = kt_to_ko(fixture(name), n)
    assert validate_two_functor(inc).ok
    assert inc.omap == {s: s for s in inc.source.objects}
    rep = two_equivalence_check(inc)
    assert rep.ok
    # only the cubical level of F3 at 2 has more filling data than squares
    assert rep.bijective_on_cells == ((name, n) != ("F3", 2))


def test_kt_f3_level_one_isomorphic_to_carrier(f3):
    lvl = kt_level(f3, 1)
    cmp1 = level_one_comparison(f3, lvl)
    assert validate_two_functor(cmp1).ok
    assert is_isomorphism_of_two_categories(cmp1)


def test_ko_phi_identity(f2_gamma2):
    X = f2_gamma2
    for m in range(3):
        F = X.transition(pointed_identity(m))
        assert F.omap == {x: x for x in X.level(m).objects}


def test_ko_phi_fold_sums(f2, f2_gamma2):
    X = f2_gamma2
    fold = X.transition(fold_map(2))
    for sys in X.level(2).objects:
        a = sys.x_at(promote(f2), (1,))
        b = sys.x_at(promote(f2), (2,))
        total = fold.omap[sys].x_at(promote(f2), (1,))
        assert total == promote(f2).sum_obj(a, b)


def test_ko_phi_constant_at_basepoint(f2_gamma2, f2):
    X = f2_gamma2
    const = PointedMap(2, 2, (0, 0))
    P = promote(f2)
    for sys in X.level(2).objects:
        img = X.transition(const).omap[sys]
        assert all(v == P.unit_obj() for v in img.x)


def test_ko_map_identity_and_collapse(f2, f2_gamma2):
    from gamma2cat.monoidal import MonoidalFunctor, identity_monoidal_functor
    from gamma2cat.twocat import TwoFunctor
    P2 = promote(f2)
    ident = identity_monoidal_functor(P2)
    F = ko_map(ident, f2_gamma2.level(2), f2_gamma2.level(2))
    assert F.omap == {s: s for s in f2_gamma2.level(2).objects}
    # collapse to the terminal carrier
    F1 = fixture("F1")
    P1 = promote(F1)
    coll = TwoFunctor(
        f2.base, F1.base,
        {"o0": "o0", "o1": "o0"}, {"m0": "m0", "m1": "m0"}, {"a0": "a0", "a1": "a0"},
    )
    theta = {(x, y): F1.base.id1("o0") for x in ("o0", "o1") for y in ("o0", "o1")}
    M = MonoidalFunctor("normal-oplax", coll, P2, P1, F1.base.id1("o0"), theta)
    tgt = ko_level(P1, 2)
    G = ko_map(M, f2_gamma2.level(2), tgt)
    assert validate_two_functor(G).ok
    assert len(set(G.omap.values())) == 1
    # only the strict and normal-oplax variants have a levelwise image
    for variant in ("lax", "oplax", "pseudo"):
        with pytest.raises(ValueError, match="strict or normal-oplax"):
            ko_map(replace(M, variant=variant), f2_gamma2.level(2), tgt)


def test_ko_map_commutes_with_reindexing(f2, f2_gamma2):
    from gamma2cat.monoidal import MonoidalFunctor
    from gamma2cat.twocat import TwoFunctor
    F1 = fixture("F1")
    P1, P2 = promote(F1), promote(f2)
    coll = TwoFunctor(
        f2.base, F1.base,
        {"o0": "o0", "o1": "o0"}, {"m0": "m0", "m1": "m0"}, {"a0": "a0", "a1": "a0"},
    )
    theta = {(x, y): F1.base.id1("o0") for x in ("o0", "o1") for y in ("o0", "o1")}
    M = MonoidalFunctor("normal-oplax", coll, P2, P1, F1.base.id1("o0"), theta)
    Y = ko_gamma(P1, 2)
    Fs = {m: ko_map(M, f2_gamma2.level(m), Y.level(m)) for m in range(3)}
    for phi in f2_gamma2.all_maps():
        lhs = f2_gamma2.transition(phi).then(Fs[phi.n])
        rhs = Fs[phi.m].then(Y.transition(phi))
        assert lhs == rhs


def test_kt_to_ko_commutes_with_reindexing(f2):
    P = promote(f2)
    incs = {n: kt_to_ko(f2, n) for n in range(3)}
    from gamma2cat.ktheory import kt_gamma
    Xs = kt_gamma(f2, 2)
    Xo = ko_gamma(P, 2)
    for phi in Xs.all_maps():
        lhs = Xs.transition(phi).then(incs[phi.n])
        rhs = incs[phi.m].then(Xo.transition(phi))
        assert lhs == rhs


def test_gamma_truncations_special(f2_gamma3, f5_gamma2):
    assert validate_gamma(f2_gamma3).ok
    sp = special_check(f2_gamma3)
    assert sp.ok and all(r.bijective_on_cells for r in sp.per_level.values())
    sp5 = special_check(f5_gamma2)
    assert sp5.ok and not sp5.per_level[2].bijective_on_cells


def test_f1_truncation_constant_terminal():
    X = ko_gamma(promote(fixture("F1")), 3)
    assert all(X.level(m).counts() == (1, 1, 1) for m in range(4))


def test_partition_cell_examples(f2, f5_level2, f5):
    P2 = promote(f2)
    X = ko_gamma(P2, 3)
    for sys in X.level(3).objects:
        full = (1, 2, 3)
        assert partition_cell(P2, sys, full, [full]) == P2.id1(sys.x_at(P2, full))
        two_block = partition_cell(P2, sys, full, [(1,), (2, 3)])
        assert two_block == sys.c_at(P2, (1,), (2, 3))
        left = partition_cell(P2, sys, full, [(1,), (2,), (3,)])
        # peel from the right instead: compose the other association
        head = sys.c_at(P2, (1, 2), (3,))
        tail = P2.rsum_one(sys.c_at(P2, (1,), (2,)), sys.x_at(P2, (3,)))
        assert left == P2.comp1(tail, head)
    for sys in f5_level2.objects:
        full = (1, 2)
        assert partition_cell(f5, sys, full, [(1,), (2,)]) == sys.c_at(f5, (1,), (2,))
    with pytest.raises(ValueError):
        partition_cell(P2, X.level(3).objects[0], (1, 2, 3), [(1, 2), (2, 3)])


def test_f5_level2_objects_internally_equivalent(f5_level2):
    assert len(internal_equivalence_classes(f5_level2)) == 1


def test_level_validation(f5_level2):
    rep = validate_two_category(f5_level2)
    assert rep.ok and rep.checked == 6_317_632


def test_diagram_validation_counts_every_instance(f5):
    # levels 0-2, every transition's per-cell checks, the generators' functor
    # laws and the functoriality
    rep = validate_gamma(ko_gamma(f5, 2))
    assert rep.ok and rep.checked == 6_428_282


def test_cell_ceiling_aborts(f5):
    with cell_ceiling(10), pytest.raises(CellCeilingExceeded):
        ko_level(f5, 2)


def test_fill_counts_composites_against_the_ceiling(f5):
    # a level, or a product, keeps the bound of the scope it was built in
    with cell_ceiling(2000):
        level = ko_level(f5, 2)  # 290 cells pass enumeration
        cube = product_two_category([f5.base] * 3)  # 73 cells
    with pytest.raises(CellCeilingExceeded) as exc:
        level.fill()
    assert exc.value.count == 290 + 35328
    assert _entries(level) == 0
    with pytest.raises(CellCeilingExceeded, match="table fill: 4745 > 2000"):
        cube.fill()


def _entries(level):
    return len(level.vcomp_table) + len(level.hcomp1_table) + len(level.hcomp2_table)


def test_level_holds_no_composites_when_built(f3):
    level = ko_level(promote(f3), 3)
    assert level.counts() == (1, 16, 2048)
    assert _entries(level) == 0


def test_specialness_reads_part_of_the_composition_tables(f5):
    X = ko_gamma(f5, 2)
    assert special_check(X).ok
    read = [_entries(X.level(m)) for m in range(3)]
    for m in range(3):
        X.level(m).fill()
    full = [_entries(X.level(m)) for m in range(3)]
    assert all(r < f for r, f in zip(read, full))


def test_formula_level_refuses_non_composable_pairs(f5):
    level = ko_level(f5, 2)
    x, y = level.objects
    hom = level.one_cells_between(x, y)
    # two 1-cells with equal components and different filling cells: the
    # componentwise formula alone would compose their identity 2-cells
    f, g = next((f, g) for f in hom for g in hom if f != g and f.f == g.f)
    a = level.id2(f)
    with pytest.raises(KeyError):
        level.comp1(f, f)
    with pytest.raises(KeyError):
        level.vcomp(level.id2(g), a)
    with pytest.raises(KeyError):
        level.hcomp2(a, a)
    assert _entries(level) == 0
    assert level.comp1(f, level.id1(x)) == f
    assert _entries(level) == 1


def test_partition_cell_three_blocks_on_cubical_systems(f5):
    # systems at three elements over the cubical carrier, without building
    # the whole level: canonical peeling agrees with the other association
    systems = enumerate_systems(f5, 3)
    assert systems
    full = (1, 2, 3)
    for sys in systems[:8]:
        left = partition_cell(f5, sys, full, [(1,), (2,), (3,)])
        head = sys.c_at(f5, (1, 2), (3,))
        tail = f5.rsum_one(sys.c_at(f5, (1,), (2,)), sys.x_at(f5, (3,)))
        assert left == f5.comp1(tail, head)


# -- the placement search against brute force ------------------------------------
#
# Each oracle takes the product of every slot's candidates, derives the
# swapped pair components, and filters through the full validation.

_SEARCH_CASES = [*((name, m) for name in ("F1", "F2", "F3", "F4", "F5", "M3") for m in range(3)),
                 ("F2", 3)]


def _carriers(name):
    C = fixture(name)
    return [(C, True)] if name == "F5" else [(promote(C), True), (C, False)]


def _canonical_pairs(n):
    return [(s, t) for (s, t) in disjoint_pairs(n) if subset_key(s) < subset_key(t)]


def _by_repr(cells, *fields):
    return sorted(cells, key=lambda c: tuple(tuple(repr(v) for v in (getattr(c, k) or ()))
                                             for k in fields))


def _brute_force_systems(C, n):
    subs, canon = nonempty_subsets_of(n), _canonical_pairs(n)
    out = []
    for xs in itertools.product(list(C.objects_iter()), repeat=len(subs)):
        xmap = dict(zip(subs, xs))
        x = xmap.__getitem__
        choices = [C.one_cells_between(x(union(s, t)), C.sum_obj(x(s), x(t))) for (s, t) in canon]
        for cs in itertools.product(*choices):
            cmap = dict(zip(canon, cs))
            for (s, t) in canon:
                cmap[(t, s)] = ktheory.swapped_c(C, x, lambda p, q: cmap[p, q], s, t)
            sys = mk_system(n, xs, tuple(cmap[p] for p in disjoint_pairs(n)))
            if validate_system(C, sys).ok:
                out.append(sys)
    return _by_repr(out, "x", "c")


def _brute_force_maps(C, a, b, gray):
    n = a.n
    subs, canon = nonempty_subsets_of(n), _canonical_pairs(n)
    out = []
    for fs in itertools.product(*(C.one_cells_between(a.x_at(C, s), b.x_at(C, s)) for s in subs)):
        fmap = dict(zip(subs, fs))
        f = fmap.__getitem__
        if not gray:
            out.append(mk_system_map(n, a, b, fs, None))
            continue
        choices = [C.two_cells_between(ktheory._gamma_source(C, a, f, s, t),
                                       ktheory._gamma_target(C, b, f, s, t)) for (s, t) in canon]
        for gs in itertools.product(*choices):
            gmap = dict(zip(canon, gs))
            for (s, t) in canon:
                gmap[(t, s)] = ktheory.swapped_gamma(C, a, b, f, lambda p, q: gmap[p, q], s, t)
            out.append(mk_system_map(n, a, b, fs, tuple(gmap[p] for p in disjoint_pairs(n))))
    return _by_repr([mp for mp in out if validate_system_map(C, mp).ok], "f", "gamma")


def _brute_force_two_cells(C, u, v):
    if u.src != v.src or u.tgt != v.tgt:
        return []
    subs = nonempty_subsets_of(u.n)
    choices = [C.two_cells_between(u.f_at(C, s), v.f_at(C, s)) for s in subs]
    cells = [mk_system_two_cell(u.n, u, v, alpha) for alpha in itertools.product(*choices)]
    return _by_repr([c for c in cells if validate_system_two_cell(C, c).ok], "alpha")


@pytest.mark.parametrize("name, m", _SEARCH_CASES)
def test_system_and_one_cell_enumeration_agrees_with_brute_force(name, m):
    compared = 0
    for C, gray in _carriers(name):
        systems = enumerate_systems(C, m)
        assert systems == _brute_force_systems(C, m)
        for a in systems:
            for b in systems:
                got = enumerate_system_maps(C, a, b, gray)
                assert got == _brute_force_maps(C, a, b, gray)
                compared += len(got)
    assert compared > 0


@pytest.mark.parametrize("name", ["F1", "F2", "F3", "F4", "F5", "M3"])
def test_pruned_two_cell_enumeration_agrees_with_brute_force(name):
    compared = 0
    for C, gray in _carriers(name):
        build = ko_level if gray else kt_level
        for m in (0, 1, 2, 3) if name == "F2" else (0, 1, 2):
            ones = list(build(C, m).one_src)
            for u in ones:
                for v in ones:
                    got = enumerate_system_two_cells(C, u, v)
                    assert got == _brute_force_two_cells(C, u, v)
                    compared += bool(got)
    assert compared > 0


def test_pruned_enumeration_keeps_counts_and_ceilings(f3):
    P = promote(f3)
    assert ko_level(P, 3).counts() == (1, 16, 2048)
    with cell_ceiling(2000), pytest.raises(CellCeilingExceeded) as exc:
        ko_level(P, 3)
    assert exc.value.stage == "level build"
    level = ko_level(P, 2)
    u = next(f for f in level.one_src if len(level.two_cells_between(f, f)) > 1)
    with cell_ceiling(1), pytest.raises(CellCeilingExceeded) as exc:
        enumerate_system_two_cells(P, u, u)
    assert exc.value.stage == "2-cell enumeration"


def test_strict_one_cell_enumeration_respects_the_ceiling():
    C = fixture("F4")
    (sys,) = kt_level(C, 1).objects
    with cell_ceiling(1), pytest.raises(CellCeilingExceeded) as exc:
        enumerate_system_maps(C, sys, sys, False)
    assert exc.value.stage == "1-cell enumeration"
    with cell_ceiling(1), pytest.raises(CellCeilingExceeded) as exc:
        kt_level(C, 1)
    assert exc.value.stage == "1-cell enumeration"


# -- the search as the only checker of the cells it emits -----------------------------
#
# The search emits without running the validators.  These tests stand in for
# that pass: the placement order closes every validator instance once, a law
# that fails on one instance removes from the search exactly the cells it
# removes from the brute-force oracles, and every emitted cell of the levels
# above still passes the full validators.


@pytest.mark.parametrize("name, m, gray", [
    *((name, m, gray) for name, m in _SEARCH_CASES for gray in (True, False)
      if gray or name != "F5"),
    ("F3", 3, True),  # 2,048 2-cells
], ids=lambda v: str(v) if not isinstance(v, bool) else ("Ko" if v else "Kt"))
def test_enumerated_cells_revalidated_independently(name, m, gray):
    C = next(C for C, flavor in _carriers(name) if flavor == gray)
    level = (ko_level if gray else kt_level)(C, m)
    assert all(validate_system(C, sys).ok for sys in level.objects)
    assert all(validate_system_map(C, mp).ok for mp in level.one_src)
    assert all(validate_system_two_cell(C, cell).ok for cell in level.two_src)


def _validator_instances(n, paired):
    """The instances the level validators check at n: each component's
    typing; with ``paired`` (systems and cubical 1-cells) each ordered pair's
    typing and symmetry or swap equation (the one computing ``swapped_*`` at
    that pair) and each cocycle; else (strict 1-cells and 2-cells) each
    ordered pair's square."""
    subs, pairs = nonempty_subsets_of(n), disjoint_pairs(n)
    if not paired:
        return [("typing", s) for s in subs] + [("square", p) for p in pairs]
    return ([("typing", s) for s in subs] + [("typing", p) for p in pairs]
            + [("swap", p) for p in pairs] + [("cocycle", i) for i in disjoint_triples(n)])


def _closed_by_the_search(n, paired):
    """One entry per instance closing in ``_placement_order``: a slot's
    typing by its candidates and the laws it completes; at a canonical pair,
    its swap by derivation and the derived pair's typing and swap by the
    reversed-pair check.  (The existence checks at the subset slots of the
    paired flavor only prune; no validator states them.)"""
    order = ktheory._placement_order(n, paired)
    k = len(nonempty_subsets_of(n))
    closed = [("typing", s) for s, _ in order[:k]]
    if not paired:
        return closed + [("square", (s, t)) for _, closes in order for s, t, _ in closes]
    for p, closes in order[k:]:
        closed += [("typing", p), ("swap", p), ("typing", p[::-1]), ("swap", p[::-1])]
        closed += [("cocycle", i) for i in closes]
    return closed


_LAW_KINDS = {"swapped_c": "swap", "swapped_gamma": "swap",
              "_system_cocycle_holds": "cocycle", "_filling_cocycle_holds": "cocycle",
              "_strict_square_holds": "square", "_compat_square_holds": "square"}


@pytest.mark.parametrize("n", range(5))
def test_placement_order_closes_each_validator_instance_once(monkeypatch, n):
    for paired in (True, False):
        assert Counter(_closed_by_the_search(n, paired)) == Counter(_validator_instances(n, paired))
    # the listing is what the validators check: their law helpers, recorded
    # on valid cells, see exactly its law instances, and their counts match
    P, F2 = promote(fixture("F2")), fixture("F2")
    sys, strict = enumerate_systems(P, n)[-1], enumerate_systems(F2, n)[-1]
    mp = enumerate_system_maps(P, sys, sys, True)[0]
    smp = enumerate_system_maps(F2, strict, strict, False)[0]
    seen = []
    for helper, kind in _LAW_KINDS.items():
        def spy(*args, real=getattr(ktheory, helper), kind=kind):
            # the instance is the trailing arguments; a square drops its union
            seen.append((kind, args[-2:] if kind == "swap" else
                         args[-3:] if kind == "cocycle" else args[-3:-1]))
            return real(*args)
        monkeypatch.setattr(ktheory, helper, spy)
    components = len(nonempty_subsets_of(n))
    for validate, paired, typed in [
            (lambda: validate_system(P, sys), True, 0),  # the x typing is not counted
            (lambda: validate_system_map(P, mp), True, components),
            (lambda: validate_system_map(F2, smp), False, components),
            (lambda: validate_system_two_cell(P, LazyKtLevel(P).id2(mp)), False, components),
            (lambda: validate_system_two_cell(F2, LazyKtLevel(F2).id2(smp)), False, components)]:
        seen.clear()
        rep = validate()
        listed = _validator_instances(n, paired)
        assert rep.ok and sorted(seen) == sorted(i for i in listed if i[0] != "typing")
        assert rep.checked == len(listed) - components + typed


def _other_parallel(C, cell, dim):
    """A dim-cell of C parallel to ``cell`` and different from it."""
    if dim == 1:
        parallel = C.one_cells_between(C.src1(cell), C.tgt1(cell))
    else:
        parallel = C.two_cells_between(C.src2(cell), C.tgt2(cell))
    return next(g for g in parallel if g != cell)


def _systems(name, n):
    C = promote(fixture(name))
    return lambda: enumerate_systems(C, n), lambda: _brute_force_systems(C, n)


def _maps(name, gray, targets):
    """The 1-cells from the first system at 3 to the first ``targets``."""
    C = promote(fixture(name)) if gray else fixture(name)
    systems = enumerate_systems(C, 3)
    pairs = [(systems[0], b) for b in systems[:targets]]
    return (lambda: [mp for a, b in pairs for mp in enumerate_system_maps(C, a, b, gray)],
            lambda: [mp for a, b in pairs for mp in _brute_force_maps(C, a, b, gray)])


def _two_cells(name, maps):
    """The 2-cells between the first ``maps`` 1-cells at 3 of one hom."""
    C = promote(fixture(name))
    sys = enumerate_systems(C, 3)[0]
    ones = enumerate_system_maps(C, sys, sys, True)[:maps]
    pairs = [(u, v) for u in ones for v in ones]
    return (lambda: [a for u, v in pairs for a in enumerate_system_two_cells(C, u, v)],
            lambda: [a for u, v in pairs for a in _brute_force_two_cells(C, u, v)])


_PAIR, _REVERSED, _TRIPLE = ((1,), (2,)), ((2,), (1,)), ((1,), (2,), (3,))

# case: (helper, dim, instance, hits, cells).  With dim None the law fails at
# its instance; else the swap derivation gives another parallel dim-cell at
# the reversed pair, so it is no longer an involution there.  ``hits`` takes
# the helper's arguments (the carrier first, then its accessors or
# components in signature order) and selects the cells whose component at
# one key is not an identity, so that each patch removes some cells and
# keeps others.
_LAW_FAILURES = {
    "system-cocycle": ("_system_cocycle_holds", None, _TRIPLE,
                       lambda a: not a[0].is_id1(a[2](*_PAIR)), lambda: _systems("F4", 3)),
    "symmetry": ("swapped_c", 1, _REVERSED,
                 lambda a: not a[0].is_id1(a[2](*_REVERSED)), lambda: _systems("F4", 3)),
    "strict-square": ("_strict_square_holds", None, _PAIR + ((1, 2),),
                      lambda a: not a[0].is_id1(a[3]((1, 2))), lambda: _maps("F4", False, 4)),
    "filling-cocycle": ("_filling_cocycle_holds", None, _TRIPLE,
                        lambda a: not a[0].is_id2(a[4](*_PAIR)), lambda: _maps("F3", True, 1)),
    "filling-swap": ("swapped_gamma", 2, _REVERSED,
                     lambda a: not a[0].is_id2(a[4](*_REVERSED)), lambda: _maps("F3", True, 1)),
    # the square's left side, which both the search's cache and the
    # validator compute, with the component at the union as a[2]
    "compat-square": ("_compat_left", None, _PAIR,
                      lambda a: not a[0].is_id2(a[2]), lambda: _two_cells("F3", 3)),
}


@pytest.mark.parametrize("case", list(_LAW_FAILURES))
def test_search_alone_rejects_what_the_validators_reject(monkeypatch, case):
    helper, dim, instance, hits, cells = _LAW_FAILURES[case]
    search, oracle = cells()
    before = search()
    real = getattr(ktheory, helper)

    def patched(*args):
        out = real(*args)
        if args[-len(instance):] != instance or not hits(args):
            return out
        return False if dim is None else _other_parallel(args[0], out, dim)

    monkeypatch.setattr(ktheory, helper, patched)
    after = search()
    # the oracles run the full validators through the same patched helpers
    assert after == oracle()
    assert 0 < len(after) < len(before)


# -- what a level build composes once ----------------------------------------------
#
# The searches cache the filler lists, the 2-cell candidate lists and the two
# sides of each compatibility square, for one hom of one build.  These tests
# pin how often the uncached helpers run, that every square instance is
# still compared, and that the cells and their order do not move.


def _call_counts(monkeypatch, *helpers):
    calls = Counter()
    for name in helpers:
        def spy(*args, real=getattr(ktheory, name), name=name):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(ktheory, name, spy)
    return calls


def test_filler_lists_are_built_once_per_hom_and_components(monkeypatch):
    # one call per hom, pair and components read; computed at every slot
    # entry instead, the search would make 57,344, about 28 per 1-cell
    calls = _call_counts(monkeypatch, "_invertible_fillers")
    assert ko_level(promote(fixture("F4")), 3).counts() == (16, 2048, 2048)
    assert calls["_invertible_fillers"] == 16_384


def test_square_sides_are_composed_once_and_every_instance_compared(monkeypatch):
    calls = _call_counts(monkeypatch, "_compat_left", "_compat_right", "_compat_square_holds")
    P = promote(fixture("F3"))
    for _ in range(2):
        # a second build composes every side again: no cache outlives a build
        calls.clear()
        assert ko_level(P, 3).counts() == (1, 16, 2048)
        assert calls == {"_compat_left": 384, "_compat_right": 768,
                         "_compat_square_holds": 32_768}


def _level_cells(level):
    return [*level.objects, *level.one_src, *level.two_src]


def _transition_images(X):
    """The image of every cell under every transition of X, map by map, in
    source-cell order."""
    for phi in X.all_maps():
        F = X.transition(phi)
        L = X.level(phi.m)
        yield from map(F.omap.__getitem__, L.objects)
        yield from map(F.fmap.__getitem__, L.one_src)
        yield from map(F.amap.__getitem__, L.two_src)


def _unit_images(X):
    """The unit of X on every level cell, then its structure cell at every
    pointed map and source object."""
    PX = GrothPerm(X)
    for m in range(X.cap + 1):
        L = X.level(m)
        for dim, cells in enumerate((L.objects, L.one_src, L.two_src)):
            yield from (eta_on_cell(X, PX, m, dim, cell) for cell in cells)
    for phi in X.all_maps():
        yield from (eta_phi(X, PX, phi, x) for x in X.level(phi.m).objects)


# sha256 over the repr of every cell, one line each, so that no change to
# the searches, the reindexing or the unit can alter or reorder the cells of
# these levels, transitions and unit images unnoticed
_DIGESTS = [
    (lambda: _level_cells(ko_level(promote(fixture("F3")), 3)),
     "74edba7057621252d0711bce47d34ced5b9b3cd82e039d276dc8159c1854789c"),
    (lambda: _level_cells(ko_level(fixture("F5"), 2)),
     "866eb2bb5abe08f9010c176fd0886e9bd05e934d002f7ddb420165da99ba1b7e"),
    (lambda: _level_cells(ko_level(promote(fixture("F2")), 3)),
     "c510bd752486430bbe60ce79b114784c4ab578e55a441781b91ad3ec0c66805b"),
    (lambda: _level_cells(kt_level(fixture("F4"), 3)),
     "c27e839a6d689d61b085252a1c562912aa7fa4f9dfc795f3cfba3911e0ec194b"),
    (lambda: _transition_images(ko_gamma(promote(fixture("F2")), 3)),
     "4d3df11c46a5b58168232ae32345e9cd44d8d06edd531ed6e62271f6b7ec22e8"),
    (lambda: _unit_images(ko_gamma(promote(fixture("F2")), 2)),
     "f4b541b023cc7762e605df356183218d8456302eba759802388bd824e1902d87"),
]


@pytest.mark.parametrize("build, digest", _DIGESTS,
                         ids=["Ko(F3)-3", "Ko(F5)-2", "Ko(F2)-3", "Kt(F4)-3",
                              "Ko(F2)-transitions-3", "Ko(F2)-unit-2"])
def test_level_builds_emit_the_same_cells_in_the_same_order(build, digest):
    h = hashlib.sha256()
    for cell in build():
        h.update(repr(cell).encode() + b"\n")
    assert h.hexdigest() == digest


# -- the validators' rejection branches ---------------------------------------------
#
# Each case takes the first cell the search emits over a promoted shipped
# fixture (all components identities) and replaces one component.  Where the
# swapped components stay derived, only a cocycle can fail, and a cocycle
# needs a disjoint triple, so n = 3.  "Filling cell not invertible" is out of
# reach: every 2-cell of every shipped fixture is invertible.

_REJECTIONS = [
    ("F2", 2, "x", (1, 2), "o9", False, "structure", "outside the carrier"),
    ("F2", 2, "c", ((1,), (2,)), "m1", False, "structure", "c at"),
    ("F4", 2, "c", ((2,), (1,)), "m1", False, "symmetry", "braiding compatibility"),
    ("F4", 3, "c", ((1,), (2,)), "m1", True, "cocycle", "associativity"),
    ("F2", 1, "f", (1,), "m1", False, "structure", "component at"),
    ("F4", 2, "gamma", ((1,), (2,)), "a1", False, "structure", "filling cell at"),
    ("F3", 2, "gamma", ((2,), (1,)), "a1", False, "swap", "swapped filling cell"),
    ("F3", 3, "gamma", ((1,), (2,)), "a1", True, "cocycle", "filling-cell associativity"),
    ("F4", 1, "alpha", (1,), "a1", False, "structure", "component at"),
]


@pytest.mark.parametrize("name, n, slot, key, value, derive, kind, words", _REJECTIONS)
def test_validators_reject_one_corrupted_component(name, n, slot, key, value, derive,
                                                   kind, words):
    C = promote(fixture(name))
    subs, pairs, canon = nonempty_subsets_of(n), disjoint_pairs(n), _canonical_pairs(n)
    sys = enumerate_systems(C, n)[0]
    mp = enumerate_system_maps(C, sys, sys, True)[0]
    if slot in ("x", "c"):
        x = {s: sys.x_at(C, s) for s in subs}
        c = {p: sys.c_at(C, *p) for p in pairs}
        {"x": x, "c": c}[slot][key] = value
        if derive:
            for (s, t) in canon:
                c[(t, s)] = ktheory.swapped_c(C, x.__getitem__, lambda p, q: c[p, q], s, t)
        rep = validate_system(C, mk_system(n, tuple(x[s] for s in subs),
                                           tuple(c[p] for p in pairs)))
    elif slot in ("f", "gamma"):
        f = {s: mp.f_at(C, s) for s in subs}
        g = {p: mp.gamma_at(C, *p) for p in pairs}
        {"f": f, "gamma": g}[slot][key] = value
        if derive:
            for (s, t) in canon:
                g[(t, s)] = ktheory.swapped_gamma(C, sys, sys, f.__getitem__,
                                                  lambda p, q: g[p, q], s, t)
        cell = mk_system_map(n, sys, sys, tuple(f[s] for s in subs), tuple(g[p] for p in pairs))
        rep = validate_system_map(C, cell)
    else:
        alpha = {s: C.id2(mp.f_at(C, s)) for s in subs} | {key: value}
        cell = mk_system_two_cell(n, mp, mp, tuple(alpha[s] for s in subs))
        rep = validate_system_two_cell(C, cell)
    assert rep.first().kind == kind
    assert words in rep.first().message


def test_validator_reads_strictness_off_the_map():
    # a map without filling cells is judged by its strict squares, also over
    # a cubical carrier: m1 at the union breaks the square at each pair
    C = promote(fixture("F4"))
    sys = enumerate_systems(C, 2)[0]
    f = {s: C.id1(sys.x_at(C, s)) for s in nonempty_subsets_of(2)} | {(1, 2): "m1"}
    rep = validate_system_map(C, mk_system_map(2, sys, sys, tuple(f.values()), None))
    assert [(i.kind, i.message) for i in rep.issues] == [
        ("square", f"strict square fails at {p}") for p in disjoint_pairs(2)]


# -- transitions built whole on first use -------------------------------------------


@pytest.fixture
def built(monkeypatch):
    """The pointed maps whose transition functors get built, in build order."""
    phis = []
    real = ktheory.ko_phi

    def counting(C, phi, level_m, level_n):
        phis.append(phi)
        return real(C, phi, level_m, level_n)

    monkeypatch.setattr(ktheory, "ko_phi", counting)
    return phis


def test_specialness_builds_only_the_segal_injections(f3, built):
    X = ko_gamma(promote(f3), 3)
    assert built == [] and len(X.all_maps()) == 144
    assert special_check(X).ok
    assert sorted(built, key=repr) == sorted(
        (segal_injection(k, n) for n in (2, 3) for k in range(1, n + 1)), key=repr)


@pytest.mark.parametrize("name", ["F2", "F3"])
def test_built_transitions_equal_the_eager_reindexing(name):
    P = promote(fixture(name))
    X = ko_gamma(P, 2)
    for phi in maps_up_to(2):
        Lm = X.level(phi.m)
        F = X.transition(phi)
        assert X.transition(phi) is F
        assert list(F.omap.items()) == [(s, reindex_system(P, s, phi)) for s in Lm.objects]
        eager_f = {f: reindex_system_map(P, f, phi) for f in Lm.one_src}
        eager_a = {a: reindex_system_two_cell(P, a, phi) for a in Lm.two_src}
        assert list(F.fmap.items()) == list(eager_f.items())
        assert list(F.amap.items()) == list(eager_a.items())


def test_missing_reindexed_system_raises_when_built(f2, monkeypatch):
    real = ktheory.ko_level

    def cut(C, n):
        level = real(C, n)
        if n != 1:
            return level
        return ktheory._build_level(C, 1, True, level.name, systems=level.objects[1:])

    monkeypatch.setattr(ktheory, "ko_level", cut)
    X = ko_gamma(promote(f2), 2)
    assert X.level(1).counts()[0] == 1
    with pytest.raises(ValueError, match="missing from target level"):
        X.transition(fold_map(2))


@pytest.mark.parametrize("name, checked", [("F2", 540), ("F3", 23351)])
def test_validate_gamma_reads_whole_lazy_transitions(name, checked, built):
    rep = validate_gamma(ko_gamma(promote(fixture(name)), 2))
    assert rep.ok and rep.checked == checked
    assert len(built) == len(set(built)) == len(maps_up_to(2)) == 23


def test_pointed_maps_are_interned():
    # every construction hands out the one pooled map of its value, so
    # equality and hashing are object identity
    by_value = {(phi.m, phi.n, phi.imgs): phi for phi in maps_up_to(2)}
    for phi in all_pointed_maps(2, 2):
        for psi in all_pointed_maps(2, 1):
            comp = phi.then(psi)
            assert comp is by_value[2, 1, tuple(psi(v) for v in phi.imgs)]
    assert PointedMap(2, 1, (1, 1)) is fold_map(2)
    assert copy.deepcopy(fold_map(2)) is fold_map(2)
    assert PointedMap.__hash__ is object.__hash__ and PointedMap.__eq__ is object.__eq__
    assert repr(fold_map(2)) == "PointedMap(m=2, n=1, imgs=(1, 1))"
    pool = dict(PointedMap._pool)
    for imgs in ((1, 2), (1,)):
        with pytest.raises(ValueError):
            PointedMap(2, 1, imgs)
    assert PointedMap._pool == pool
