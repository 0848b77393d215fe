import itertools
from dataclasses import replace

import pytest

from gamma2cat.monoidal import (
    VARIANTS,
    DemotionRefused,
    MonoidalFunctor,
    PermutativeGrayMonoid,
    compose_monoidal,
    demote,
    fixture,
    identity_monoidal_functor,
    promote,
    sum_one_cells,
    validate_monoidal_functor,
    validate_permutative,
    validate_pgm,
)
from gamma2cat.twocat import (TwoFunctor, identity_functor, validate_two_category,
                              validate_two_functor)


@pytest.mark.parametrize("name", ["F1", "F2", "F3", "M3"])
def test_product_fixtures_validate(name):
    assert validate_permutative(fixture(name)).ok


def test_f5_validates_with_nontrivial_interchanger():
    F5 = fixture("F5")
    rep = validate_pgm(F5)
    assert rep.ok
    assert not F5.base.two_identity[F5.sigma("m1", "m1")]


def test_f4_validates_both_ways():
    F4 = fixture("F4")
    assert validate_two_category(F4.base).ok
    assert validate_permutative(F4).ok


@pytest.mark.parametrize("name", ["F1", "F2", "F3", "M3"])
def test_promote_then_demote_is_identity(name):
    C = fixture(name)
    P = promote(C)
    assert validate_pgm(P).ok
    assert demote(P) == C
    assert promote(demote(P)) == P


def test_cubical_scan_counts_of_promoted_carriers():
    counts = {"F1": 40, "F2": 186, "F3": 64, "F4": 96, "M3": 498}
    for name, checked in counts.items():
        rep = validate_pgm(promote(fixture(name)))
        assert rep.ok
        assert rep.checked == checked, name


def test_demote_f5_refused_with_witness():
    with pytest.raises(DemotionRefused) as err:
        demote(fixture("F5"))
    assert err.value.witness == ("m1", "m1")


def test_sum_one_cells_examples():
    F5 = fixture("F5")
    assert sum_one_cells(F5, ["m1", "m1"]) == "m0"  # group arithmetic
    assert sum_one_cells(F5, ["m1"]) == "m1"
    assert sum_one_cells(F5, []) == "m0"
    P2 = promote(fixture("F2"))
    for f in P2.base.one_src:
        assert sum_one_cells(P2, [f, P2.base.id1("o0")]) == f


@pytest.mark.parametrize("name", ["F2", "F5"])
def test_carriers_differing_in_one_table_entry_are_unequal(name):
    C = fixture(name)
    tables = [getattr(C, t.attr) for t in C.TABLES]
    assert type(C)(C.name, C.base, C.unit, *tables) == C
    for i, table in enumerate(tables):
        changed = list(tables)
        changed[i] = {**table, next(iter(table)): "changed"}
        other = type(C)(C.name, C.base, C.unit, *changed)
        assert other != C and C != other, C.TABLES[i].field


def test_identity_monoidal_functor_valid():
    counts = {"F1": 11, "F2": 41, "F3": 13, "F4": 18, "F5": 22, "M3": 97}
    for name, checked in counts.items():
        rep = validate_monoidal_functor(identity_monoidal_functor(fixture(name)))
        assert rep.ok
        assert rep.checked == checked, name


def _collapse_f2_to_f1() -> MonoidalFunctor:
    F2, F1 = fixture("F2"), fixture("F1")
    F = TwoFunctor(
        F2.base, F1.base,
        {"o0": "o0", "o1": "o0"},
        {"m0": "m0", "m1": "m0"},
        {"a0": "a0", "a1": "a0"},
        name="collapse",
    )
    theta0 = F1.base.id1("o0")
    theta = {(x, y): F1.base.id1("o0") for x in ("o0", "o1") for y in ("o0", "o1")}
    return MonoidalFunctor("normal-oplax", F, F2, F1, theta0, theta, name="collapse")


def test_sum_collapse_normal_oplax_valid():
    rep = validate_monoidal_functor(_collapse_f2_to_f1())
    assert rep.ok
    assert rep.checked == 37


@pytest.mark.parametrize("variant", ["lax", "oplax", "pseudo"])
def test_unbuilt_variants_refused(variant):
    rep = validate_monoidal_functor(replace(_collapse_f2_to_f1(), variant=variant))
    assert [str(i) for i in rep.issues] == [f"[structure] unknown variant {variant!r}"]


def _twisted_z2(name, twist: bool):
    """Objects the order-two group; each object carries an endo 1-cell group
    of order two; the braiding at (1,1) is the twist when requested."""
    from gamma2cat.twocat import FiniteTwoCategory
    from gamma2cat.monoidal import PermutativeTwoCategory
    objs = ["0", "1"]
    one, two = {}, {}
    for o in objs:
        one[f"e{o}"] = (o, o, True)
        one[f"t{o}"] = (o, o, False)
        for f in (f"e{o}", f"t{o}"):
            two[f"i{f}"] = (f, f, True)
    def mul(f, g):
        o = f[1]
        return (f"e{o}" if (f[0] == "t") == (g[0] == "t") else f"t{o}")
    hcomp1 = {
        (g, f): mul(g, f)
        for g in one for f in one if one[g][0] == one[f][1]
    }
    vcomp = {(f"i{f}", f"i{f}"): f"i{f}" for f in one}
    hcomp2 = {
        (f"i{g}", f"i{f}"): f"i{hcomp1[(g, f)]}"
        for g in one for f in one if one[g][0] == one[f][1]
    }
    base = FiniteTwoCategory(name, objs, one, two, vcomp, hcomp1, hcomp2)
    def xor(a, b):
        return str(int(a) ^ int(b))
    sum_obj = {(a, b): xor(a, b) for a in objs for b in objs}
    def sum1(f, g):
        o = xor(one[f][0], one[g][0])
        odd = (f[0] == "t") != (g[0] == "t")
        return f"t{o}" if odd else f"e{o}"
    sum_one = {(f, g): sum1(f, g) for f in one for g in one}
    sum_two = {(f"i{f}", f"i{g}"): f"i{sum1(f, g)}" for f in one for g in one}
    beta = {(a, b): f"e{xor(a, b)}" for a in objs for b in objs}
    if twist:
        beta[("1", "1")] = "t0"
    return PermutativeTwoCategory(name, base, "0", sum_obj, sum_one, sum_two, beta)


def test_twisted_braiding_fixture_is_lawful():
    assert validate_permutative(_twisted_z2("Z2T", True)).ok
    assert validate_permutative(_twisted_z2("Z2U", False)).ok


def _identity_claim(src, tgt, variant) -> MonoidalFunctor:
    """The identity underlying functor between two carriers on one base, with
    identity comparisons."""
    F = identity_functor(src.base)
    F = TwoFunctor(src.base, tgt.base, F.omap, F.fmap, F.amap, name="claim")
    theta = {
        (x, y): tgt.base.id1(tgt.sum_obj(x, y))
        for x in src.base.objects for y in src.base.objects
    }
    return MonoidalFunctor(variant, F, src, tgt, tgt.base.id1(tgt.unit), theta, name="claim")


def test_strict_claim_with_broken_braiding_invalid():
    # the identity underlying functor between the twisted and untwisted
    # structures does not preserve the braiding
    M = _identity_claim(_twisted_z2("Z2T", True), _twisted_z2("Z2U", False), "strict")
    rep = validate_monoidal_functor(M)
    assert [str(i) for i in rep.issues] == ["[diagram] braiding square fails at ('1','1')"]
    assert rep.checked == 69


def test_composite_of_normal_oplax_validates():
    first = _collapse_f2_to_f1()
    second = identity_monoidal_functor(fixture("F1"))
    second = MonoidalFunctor(
        "normal-oplax", second.functor, second.source, second.target,
        second.theta0, second.theta, name="id",
    )
    comp = compose_monoidal(second, first)
    rep = validate_monoidal_functor(comp)
    assert rep.ok
    assert rep.checked == 37
    assert {comp.theta0, *comp.theta.values()} == {"m0"}


def test_qs3_follows_from_the_other_axioms():
    # every interchanger assignment on the F4 cell sets that passes the
    # cubical and braiding axioms scans also passes the QS3 conditions
    F5 = fixture("F5")
    base = F5.base
    accepted = 0
    for s_xx in ["a0", "a2"]:
        sigma = dict(F5.sigma_table)
        sigma[("m1", "m1")] = s_xx
        cand = PermutativeGrayMonoid(
            "F5cand", base, "o0", dict(F5.sum_obj_table),
            dict(F5.lsum1_table), dict(F5.rsum1_table),
            dict(F5.lsum2_table), dict(F5.rsum2_table),
            sigma, dict(F5.beta_table),
        )
        rep = validate_pgm(cand)
        if rep.ok:
            accepted += 1
            assert not any(i.kind == "quasi-strict" for i in rep.issues)
    assert accepted == 2  # both assignments are lawful; QS3 held in each


def test_braiding_axioms_hold_in_accepted_structures():
    for name in ("F2", "F3", "M3"):
        C = fixture(name)
        B = C.base
        for a in B.objects:
            assert C.beta_obj(C.unit, a) == B.id1(a)
            assert C.beta_obj(a, C.unit) == B.id1(a)
        for a, b in itertools.product(B.objects, B.objects):
            assert B.comp1(C.beta_obj(b, a), C.beta_obj(a, b)) == B.id1(C.sum_obj(a, b))


def test_f2_braiding_redefined_is_structural_error():
    F2 = fixture("F2")
    import copy
    bad = copy.copy(F2)
    bad.beta_table = dict(F2.beta_table)
    bad.beta_table[("o1", "o1")] = "m1"  # endpoints no longer match 1+1 = 0
    rep = validate_permutative(bad)
    assert not rep.ok
    assert rep.issues[0].kind == "structure"


def _single_entry_mutations(C):
    """Every carrier differing from C in one entry of one sum table."""
    B = C.base
    pools = (B.objects, list(B.one_src), list(B.two_src))
    for i, t in enumerate(C.TABLES):
        for key, old in getattr(C, t.attr).items():
            for new in pools[t.value]:
                if new != old:
                    tables = [dict(getattr(C, s.attr)) for s in C.TABLES]
                    tables[i][key] = new
                    yield type(C)(C.name, B, C.unit, *tables)


def test_product_scan_agrees_with_the_cubical_scan_plus_the_product_condition():
    # an independent law set: the cubical scan of the promoted carrier, plus
    # the 2-cell product condition  a (+) b = (1 (+) b) . (a (+) 1)
    carriers = [fixture(name) for name in ("F2", "F3", "F4", "M3")]
    carriers += [_twisted_z2("Z2T", True), _twisted_z2("Z2U", False)]
    mutations = [M for C in carriers for M in _single_entry_mutations(C)]
    assert len(mutations) == 325
    accepted = 0
    for M in mutations:
        P = promote(M)
        twos = list(M.base.two_src)
        cubical = validate_pgm(P).ok and all(
            M.sum_two(a, b) == P.sum_two(a, b) for a in twos for b in twos)
        ok = validate_permutative(M).ok
        assert ok == cubical
        accepted += ok
    # the two accepted mutations trade the twisted and untwisted beta(1,1)
    assert accepted == 2


def _naive_monoidal_functor_ok(M: MonoidalFunctor) -> bool:
    """The monoidal-functor laws as direct loops: a strict functor preserves
    every sum, interchanger and braiding on the nose, and a normal-oplax
    functor's comparisons are natural on generator 1-cells and 2-cells in
    each slot and satisfy the unit, associativity and braiding diagrams."""
    if not validate_two_functor(M.functor).ok:
        return False
    C, D, F = M.source, M.target, M.functor
    B, E = C.base, D.base
    objs, ones, twos = B.objects, list(B.one_src), list(B.two_src)
    e_c, e_d = C.unit_obj(), D.unit_obj()
    if F.omap[e_c] != e_d or M.theta0 not in E.one_src:
        return False
    if (E.one_src[M.theta0], E.one_tgt[M.theta0]) != (F.omap[e_c], e_d):
        return False
    for x, y in itertools.product(objs, objs):
        t = M.theta.get((x, y))
        if t is None or (E.one_src[t], E.one_tgt[t]) != (
                F.omap[C.sum_obj(x, y)], D.sum_obj(F.omap[x], F.omap[y])):
            return False
    if not E.one_identity[M.theta0]:
        return False
    if M.variant == "strict":
        return all(E.one_identity[t] for t in M.theta.values()) and all(
            F.omap[C.sum_obj(x, y)] == D.sum_obj(F.omap[x], F.omap[y])
            and F.fmap[C.beta_obj(x, y)] == D.beta_obj(F.omap[x], F.omap[y])
            for x, y in itertools.product(objs, objs)) and all(
            F.fmap[C.lsum_one(a, f)] == D.lsum_one(F.omap[a], F.fmap[f])
            and F.fmap[C.rsum_one(f, a)] == D.rsum_one(F.fmap[f], F.omap[a])
            for a in objs for f in ones) and all(
            F.amap[C.lsum_two(a, al)] == D.lsum_two(F.omap[a], F.amap[al])
            and F.amap[C.rsum_two(al, a)] == D.rsum_two(F.amap[al], F.omap[a])
            for a in objs for al in twos) and all(
            F.amap[C.sigma(f, g)] == D.sigma(F.fmap[f], F.fmap[g])
            for f, g in itertools.product(ones, ones))
    T = M.theta
    for f in ones:
        x, x2 = B.one_src[f], B.one_tgt[f]
        for b in objs:
            fb = F.omap[b]
            if E.comp1(D.rsum_one(F.fmap[f], fb), T[(x, b)]) != \
                    E.comp1(T[(x2, b)], F.fmap[C.rsum_one(f, b)]):
                return False
            if E.comp1(D.lsum_one(fb, F.fmap[f]), T[(b, x)]) != \
                    E.comp1(T[(b, x2)], F.fmap[C.lsum_one(b, f)]):
                return False
    for al in twos:
        f = B.two_src[al]
        x, x2 = B.one_src[f], B.one_tgt[f]
        for b in objs:
            fb = F.omap[b]
            if E.hcomp2(D.rsum_two(F.amap[al], fb), E.id2(T[(x, b)])) != \
                    E.hcomp2(E.id2(T[(x2, b)]), F.amap[C.rsum_two(al, b)]):
                return False
            if E.hcomp2(D.lsum_two(fb, F.amap[al]), E.id2(T[(b, x)])) != \
                    E.hcomp2(E.id2(T[(b, x2)]), F.amap[C.lsum_two(b, al)]):
                return False
    for f, g in itertools.product(ones, ones):
        x, y, x2, y2 = B.one_src[f], B.one_src[g], B.one_tgt[f], B.one_tgt[g]
        if E.hcomp2(D.sigma(F.fmap[f], F.fmap[g]), E.id2(T[(x, y)])) != \
                E.hcomp2(E.id2(T[(x2, y2)]), F.amap[C.sigma(f, g)]):
            return False
    for x in objs:
        fx = F.omap[x]
        if E.comp1(D.rsum_one(M.theta0, fx), T[(e_c, x)]) != E.id1(fx):
            return False
        if E.comp1(D.lsum_one(fx, M.theta0), T[(x, e_c)]) != E.id1(fx):
            return False
    for x, y, z in itertools.product(objs, objs, objs):
        if E.comp1(D.rsum_one(T[(x, y)], F.omap[z]), T[(C.sum_obj(x, y), z)]) != \
                E.comp1(D.lsum_one(F.omap[x], T[(y, z)]), T[(x, C.sum_obj(y, z))]):
            return False
    return all(E.comp1(D.beta_obj(F.omap[x], F.omap[y]), T[(x, y)])
               == E.comp1(T[(y, x)], F.fmap[C.beta_obj(x, y)])
               for x, y in itertools.product(objs, objs))


def test_monoidal_functor_laws_agree_with_the_direct_loops():
    # every single change of one comparison cell of an identity monoidal
    # functor, in both variants, and the twisted/untwisted claims both ways
    cases = []
    for name in ("F1", "F2", "F3", "F4", "F5", "M3"):
        M = identity_monoidal_functor(fixture(name))
        E = M.target.base
        for variant in VARIANTS:
            for key, old in [(None, M.theta0), *M.theta.items()]:
                for new in E.one_src:
                    if new == old:
                        continue
                    if key is None:
                        cases.append(replace(M, variant=variant, theta0=new))
                    else:
                        cases.append(replace(M, variant=variant, theta={**M.theta, key: new}))
    assert len(cases) == 58
    twisted, untwisted = _twisted_z2("Z2T", True), _twisted_z2("Z2U", False)
    cases += [_identity_claim(src, tgt, variant) for src, tgt in
              ((twisted, untwisted), (untwisted, twisted)) for variant in VARIANTS]
    # the identity of a Z/2 carrier with the twist as its comparison at
    # (1,1) is lawful as a normal-oplax functor only
    lawful = []
    for C in (twisted, untwisted):
        M = _identity_claim(C, C, "normal-oplax")
        lawful.append(replace(M, theta={**M.theta, ("1", "1"): "t0"}))
        cases.append(replace(lawful[-1], variant="strict"))
    # and the lawful functors the changes were made from
    lawful += [replace(identity_monoidal_functor(fixture(name)), variant=variant)
               for name in ("F1", "F2", "F3", "F4", "F5", "M3") for variant in VARIANTS]
    lawful += [replace(_collapse_f2_to_f1(), variant=variant) for variant in VARIANTS]
    verdicts = [validate_monoidal_functor(M).ok for M in cases + lawful]
    assert verdicts == [_naive_monoidal_functor_ok(M) for M in cases + lawful]
    assert verdicts == [False] * len(cases) + [True] * len(lawful)
