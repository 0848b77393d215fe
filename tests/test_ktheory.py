import itertools
from dataclasses import replace

import pytest

from gamma2cat import ktheory
from gamma2cat.subsets import (PointedMap, all_pointed_maps, disjoint_pairs, fold_map,
                               maps_up_to, nonempty_subsets_of, pointed_identity,
                               segal_injection, subset_key, union)
from gamma2cat.monoidal import fixture, promote
from gamma2cat.twocat import (
    internal_equivalence_classes,
    is_isomorphism_of_two_categories,
    validate_two_category,
    validate_two_functor,
)
from gamma2cat.ktheory import (
    CellCeilingExceeded,
    enumerate_system_maps,
    enumerate_system_two_cells,
    enumerate_systems,
    ko_gamma,
    ko_level,
    ko_map,
    kt_level,
    kt_to_ko,
    level_one_comparison,
    make_system,
    make_system_map,
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


def test_kt_equals_ko_for_f2_on_the_nose(f2):
    inc = kt_to_ko(f2, 2)
    assert validate_two_functor(inc).ok
    assert is_isomorphism_of_two_categories(inc)
    assert inc.omap == {s: s for s in inc.source.objects}


def test_kt_to_ko_f3_level2_two_equivalence(f3):
    from gamma2cat.twocat import two_equivalence_check
    inc = kt_to_ko(f3, 2)
    assert validate_two_functor(inc).ok
    rep = two_equivalence_check(inc)
    assert rep.ok
    assert not rep.bijective_on_cells  # the cubical level has more filling data


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
        {"0": "e", "1": "e"}, {"i0": "ie", "i1": "ie"}, {"ii0": "iie", "ii1": "iie"},
    )
    theta = {(x, y): F1.base.id1("e") for x in ("0", "1") for y in ("0", "1")}
    M = MonoidalFunctor("normal-oplax", coll, P2, P1, F1.base.id1("e"), theta)
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
        {"0": "e", "1": "e"}, {"i0": "ie", "i1": "ie"}, {"ii0": "iie", "ii1": "iie"},
    )
    theta = {(x, y): F1.base.id1("e") for x in ("0", "1") for y in ("0", "1")}
    M = MonoidalFunctor("normal-oplax", coll, P2, P1, F1.base.id1("e"), theta)
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


def test_enumerated_cells_revalidated_independently(f5, f5_level2):
    for sys in f5_level2.objects:
        assert validate_system(f5, sys).ok
    for mp in f5_level2.one_src:
        assert validate_system_map(f5, mp, gray=True).ok
    for cell in f5_level2.two_src:
        assert validate_system_two_cell(f5, cell, gray=True).ok


def test_f5_level2_objects_internally_equivalent(f5_level2):
    assert len(internal_equivalence_classes(f5_level2)) == 1


def test_level_validation(f5_level2):
    assert validate_two_category(f5_level2).ok


def test_cell_ceiling_aborts(f5):
    with pytest.raises(CellCeilingExceeded):
        ko_level(f5, 2, ceiling=10)


def test_fill_counts_composites_against_the_ceiling(f5):
    level = ko_level(f5, 2, ceiling=2000)  # 290 cells pass enumeration
    with pytest.raises(CellCeilingExceeded) as exc:
        level.fill()
    assert exc.value.count == 290 + 35328
    assert _entries(level) == 0


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
    systems = enumerate_systems(f5, 3, 10**6)
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
            sys = make_system(C, n, xmap, cmap)
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
            out.append(make_system_map(C, a, b, fmap, None))
            continue
        choices = [C.two_cells_between(ktheory._gamma_source(C, a, f, s, t),
                                       ktheory._gamma_target(C, b, f, s, t)) for (s, t) in canon]
        for gs in itertools.product(*choices):
            gmap = dict(zip(canon, gs))
            for (s, t) in canon:
                gmap[(t, s)] = ktheory.swapped_gamma(C, a, b, f, lambda p, q: gmap[p, q], s, t)
            out.append(make_system_map(C, a, b, fmap, gmap))
    return _by_repr([mp for mp in out if validate_system_map(C, mp, gray).ok], "f", "gamma")


def _brute_force_two_cells(C, u, v, gray):
    if u.src != v.src or u.tgt != v.tgt:
        return []
    subs = nonempty_subsets_of(u.n)
    choices = [C.two_cells_between(u.f_at(C, s), v.f_at(C, s)) for s in subs]
    cells = [mk_system_two_cell(u.n, u, v, alpha) for alpha in itertools.product(*choices)]
    return _by_repr([c for c in cells if validate_system_two_cell(C, c, gray).ok], "alpha")


@pytest.mark.parametrize("name, m", _SEARCH_CASES)
def test_system_and_one_cell_enumeration_agrees_with_brute_force(name, m):
    compared = 0
    for C, gray in _carriers(name):
        systems = enumerate_systems(C, m, 10**6)
        assert systems == _brute_force_systems(C, m)
        for a in systems:
            for b in systems:
                got = enumerate_system_maps(C, a, b, gray, 10**6)
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
                    got = enumerate_system_two_cells(C, u, v, gray, 10**6)
                    assert got == _brute_force_two_cells(C, u, v, gray)
                    compared += bool(got)
    assert compared > 0


def test_pruned_enumeration_keeps_counts_and_ceilings(f3):
    P = promote(f3)
    assert ko_level(P, 3).counts() == (1, 16, 2048)
    with pytest.raises(CellCeilingExceeded) as exc:
        ko_level(P, 3, ceiling=2000)
    assert exc.value.stage == "level build"
    level = ko_level(P, 2)
    u = next(f for f in level.one_src if len(level.two_cells_between(f, f)) > 1)
    with pytest.raises(CellCeilingExceeded) as exc:
        enumerate_system_two_cells(P, u, u, True, 1)
    assert exc.value.stage == "2-cell enumeration"


def test_strict_one_cell_enumeration_respects_the_ceiling():
    C = fixture("F4")
    (sys,) = kt_level(C, 1).objects
    with pytest.raises(CellCeilingExceeded) as exc:
        enumerate_system_maps(C, sys, sys, False, 1)
    assert exc.value.stage == "1-cell enumeration"
    with pytest.raises(CellCeilingExceeded) as exc:
        kt_level(C, 1, ceiling=1)
    assert exc.value.stage == "1-cell enumeration"


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

    def cut(C, n, ceiling=10**6):
        level = real(C, n, ceiling)
        if n != 1:
            return level
        return ktheory._build_level(C, 1, True, level.name, ceiling, systems=level.objects[1:])

    monkeypatch.setattr(ktheory, "ko_level", cut)
    X = ko_gamma(promote(f2), 2)
    assert X.level(1).counts()[0] == 1
    with pytest.raises(ValueError, match="missing from target level"):
        X.transition(fold_map(2))


@pytest.mark.parametrize("name, checked", [("F2", 810), ("F3", 27706)])
def test_validate_gamma_reads_whole_lazy_transitions(name, checked, built):
    rep = validate_gamma(ko_gamma(promote(fixture(name)), 2))
    assert rep.ok and rep.checked == checked
    assert len(built) == len(set(built)) == len(maps_up_to(2)) == 23


def test_pointed_map_hash_is_cached_and_equal_by_value():
    by_value = {phi: phi for phi in maps_up_to(2)}
    for phi in all_pointed_maps(2, 2):
        for psi in all_pointed_maps(2, 1):
            comp = phi.then(psi)
            assert hash(comp) == hash(by_value[comp]) == hash((comp.m, comp.n, comp.imgs))
            assert comp == by_value[comp] and comp is not by_value[comp]
    assert repr(fold_map(2)) == "PointedMap(m=2, n=1, imgs=(1, 1))"
    with pytest.raises(ValueError):
        PointedMap(2, 1, (1, 2))
