import itertools
from dataclasses import replace

import pytest

from gamma2cat.monoidal import (
    DemotionRefused,
    MonoidalFunctor,
    PermutativeGrayMonoid,
    compose_monoidal,
    demote,
    fixture,
    identity_monoidal_functor,
    nudge,
    promote,
    sum_one_cells,
    validate_monoidal_functor,
    validate_permutative,
    validate_pgm,
)
from gamma2cat.twocat import TwoFunctor, validate_two_category, vertical_inverse


@pytest.mark.parametrize("name", ["F1", "F2", "F3", "M3"])
def test_product_fixtures_validate(name):
    assert validate_permutative(fixture(name)).ok


def test_f5_validates_with_nontrivial_interchanger():
    F5 = fixture("F5")
    rep = validate_pgm(F5)
    assert rep.ok
    assert not F5.base.two_identity[F5.sigma("x", "x")]


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
    counts = {"F1": 36, "F2": 170, "F3": 58, "F4": 88, "M3": 462}
    for name, checked in counts.items():
        rep = validate_pgm(promote(fixture(name)))
        assert rep.ok
        assert rep.checked == checked, name


def test_demote_f5_refused_with_witness():
    with pytest.raises(DemotionRefused) as err:
        demote(fixture("F5"))
    assert err.value.witness == ("x", "x")


def test_nudge_inverts_interchangers_and_is_involutive():
    F5 = fixture("F5")
    N = nudge(F5)
    assert N.opcubical
    assert N.sigma("x", "x") == vertical_inverse(F5.base, F5.sigma("x", "x"))
    assert nudge(N) is F5
    # all-identity data is untouched
    P2 = promote(fixture("F2"))
    N2 = nudge(P2)
    assert N2.sigma_table == P2.sigma_table


def test_nudged_sum_uses_opposite_order():
    F5 = fixture("F5")
    N = nudge(F5)
    # in a one-object carrier both orders coincide as composites
    assert N.sum_one("x", "x") == F5.sum_one("x", "x")


def test_sum_one_cells_examples():
    F5 = fixture("F5")
    assert sum_one_cells(F5, ["x", "x"]) == "e"  # group arithmetic
    assert sum_one_cells(F5, ["x"]) == "x"
    assert sum_one_cells(F5, []) == "e"
    P2 = promote(fixture("F2"))
    for f in P2.base.one_src:
        assert sum_one_cells(P2, [f, P2.base.id1("0")]) == f


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
    counts = {"F1": 9, "F2": 33, "F3": 11, "F4": 16, "F5": 20, "M3": 73}
    for name, checked in counts.items():
        rep = validate_monoidal_functor(identity_monoidal_functor(fixture(name)))
        assert rep.ok
        assert rep.checked == checked, name


def _collapse_f2_to_f1() -> MonoidalFunctor:
    F2, F1 = fixture("F2"), fixture("F1")
    F = TwoFunctor(
        F2.base, F1.base,
        {"0": "e", "1": "e"},
        {"i0": "ie", "i1": "ie"},
        {"ii0": "iie", "ii1": "iie"},
        name="collapse",
    )
    theta0 = F1.base.id1("e")
    theta = {(x, y): F1.base.id1("e") for x in ("0", "1") for y in ("0", "1")}
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


def test_strict_claim_with_broken_braiding_invalid():
    # the identity underlying functor between the twisted and untwisted
    # structures does not preserve the braiding
    src = _twisted_z2("Z2T", True)
    tgt = _twisted_z2("Z2U", False)
    from gamma2cat.twocat import identity_functor
    F = identity_functor(src.base)
    F = TwoFunctor(src.base, tgt.base, F.omap, F.fmap, F.amap, name="claim")
    theta0 = tgt.base.id1("0")
    theta = {
        (x, y): tgt.base.id1(tgt.sum_obj(x, y))
        for x in src.base.objects for y in src.base.objects
    }
    M = MonoidalFunctor("strict", F, src, tgt, theta0, theta, name="claim")
    rep = validate_monoidal_functor(M)
    assert [str(i) for i in rep.issues] == ["[strict] braiding not preserved at ('1','1')"]
    assert rep.checked == 61


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
    assert {comp.theta0, *comp.theta.values()} == {"ie"}


def test_qs3_follows_from_the_other_axioms():
    # every interchanger assignment on the F4 cell sets that passes the
    # cubical and braiding axioms scans also passes the QS3 conditions
    F5 = fixture("F5")
    base = F5.base
    accepted = 0
    for s_xx in [("e", 0), ("e", 1)]:
        sigma = dict(F5.sigma_table)
        sigma[("x", "x")] = s_xx
        cand = PermutativeGrayMonoid(
            "F5cand", base, "*", dict(F5.sum_obj_table),
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
    bad.beta_table[("1", "1")] = "i1"  # endpoints no longer match 1+1 = 0
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
