import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from gamma2cat import inversek
from gamma2cat.adjunction import triangle_P
from gamma2cat.monoidal import fixture, promote
from gamma2cat.ktheory import ko_gamma
from gamma2cat.inversek import (
    AMorphism,
    BoundedGroth,
    GrothPerm,
    POfLax,
    a_block_swap,
    a_compose,
    a_concat,
    a_hom,
    a_identity,
    ax_apply,
    bounded_shapes,
    decompose,
    mk_amorphism,
    mk_groth_obj,
    mk_groth_one,
    mk_groth_two,
    validate_p_truncation,
)
from gamma2cat.gamma import identity_lax_map
from gamma2cat.subsets import PointedMap


def test_a_hom_counts():
    assert len(a_hom((), (1,))) == 1
    assert len(a_hom((2,), (1, 1))) == 4
    assert len(a_hom((1, 1), (2,))) == 0
    assert len(a_hom((), ())) == 1
    assert len(a_hom((1,), ())) == 0


def test_a_hom_canonical_order_is_stable():
    first = [m.table for m in a_hom((2,), (1, 1))]
    second = [m.table for m in a_hom((2,), (1, 1))]
    assert first == second
    assert first == sorted(first)


def test_compose_with_identity():
    for phim in a_hom((2, 1), (1, 2)):
        assert a_compose(phim, a_identity((2, 1))) == phim
        assert a_compose(a_identity((1, 2)), phim) == phim


def test_block_condition_reverified_on_composition():
    bad = AMorphism((1, 1), (2,), (((0, 1),), ((0, 2),)))
    assert not bad.block_condition_holds()
    good = a_identity((1, 1))
    with pytest.raises(ValueError):
        a_compose(bad, good)


def test_concat_associative_and_swap_involutive():
    ms = [a_identity((1,)), a_identity((2,)), next(iter(a_hom((2,), (1, 1))))]
    for x, y, z in itertools.product(ms, repeat=3):
        assert a_concat(a_concat(x, y), z) == a_concat(x, a_concat(y, z))
    b = a_block_swap((1,), (1,))
    assert a_compose(a_block_swap((1,), (1,)), b) == a_identity((1, 1))
    b2 = a_block_swap((2,), (1, 1))
    assert a_compose(a_block_swap((1, 1), (2,)), b2) == a_identity((2, 1, 1))


def test_decompose_identity_and_split():
    dec = decompose(a_identity((2, 1)))
    assert dec.hit_sets == ((0,), (1,))
    assert all(pm.is_identity for row in dec.pointed for pm in row)
    split = mk_amorphism((2,), (1, 1), (((0, 1), (1, 1)),))
    dec = decompose(split)
    assert dec.hit_sets == ((0, 1),)
    assert dec.pointed[0][0].imgs == (1, 0)
    assert dec.pointed[0][1].imgs == (0, 1)
    assert dec.parts == (((1,), (2,)),)
    assert dec.sources == ((0, dec.pointed[0][0]), (0, dec.pointed[0][1]))
    # a unit block is sourced from the empty set
    dec = decompose(mk_amorphism((1,), (2, 1), (((1, 1),),)))
    assert dec.sources == ((None, PointedMap(0, 2, ())), (0, PointedMap(1, 1, (1,))))


def reassemble(dec) -> AMorphism:
    """The block morphism a decomposition describes: each source point goes
    to the one block whose pointed map sends it off the basepoint."""
    table = []
    for i, m in enumerate(dec.phim.src):
        row = []
        for a in range(1, m + 1):
            target = None
            for j, pm in zip(dec.hit_sets[i], dec.pointed[i]):
                b = pm(a)
                if b != 0:
                    target = (j, b)
                    break
            if target is None:
                raise ValueError("decomposition does not cover the source")
            row.append(target)
        table.append(tuple(row))
    return mk_amorphism(dec.phim.src, dec.phim.tgt, tuple(table))


def test_decompose_round_trip_exhaustive():
    count = 0
    for mv in bounded_shapes(2, 2):
        for nv in bounded_shapes(2, 2):
            for phim in a_hom(mv, nv):
                assert reassemble(decompose(phim)) == phim
                count += 1
    assert count > 100


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_composition_matches_direct_enumeration(data):
    shapes = bounded_shapes(2, 2)
    mv = data.draw(st.sampled_from(shapes))
    nv = data.draw(st.sampled_from(shapes))
    pv = data.draw(st.sampled_from(shapes))
    homs1 = a_hom(mv, nv)
    homs2 = a_hom(nv, pv)
    if not homs1 or not homs2:
        return
    phim = data.draw(st.sampled_from(homs1))
    psim = data.draw(st.sampled_from(homs2))
    try:
        comp = a_compose(psim, phim)
    except ValueError:
        return
    assert comp in a_hom(mv, pv)


def test_ax_terminal_and_identity(f2_gamma2):
    X = f2_gamma2
    assert ax_apply(X, a_identity(()), 0, ()) == ()
    for x in X.level(1).objects:
        out = ax_apply(X, a_identity((1,)), 0, (x,))
        assert out == (x,)


def test_ax_functorial_and_monoidal(f2_gamma2):
    X = f2_gamma2
    shapes = bounded_shapes(2, 2)
    pools = {mv: list(itertools.product(*[X.level(m).objects for m in mv]))
             for mv in shapes}
    for mv in shapes:
        for nv in shapes:
            for phim in a_hom(mv, nv):
                for pv in shapes:
                    for psim in a_hom(nv, pv):
                        comp = a_compose(psim, phim)
                        for xs in pools[mv][:2]:
                            lhs = ax_apply(X, comp, 0, xs)
                            rhs = ax_apply(X, psim, 0, ax_apply(X, phim, 0, xs))
                            assert lhs == rhs
    # concatenation against the product of applications
    for phim in a_hom((1,), (2,)):
        for psim in a_hom((2,), (1,)):
            joined = a_concat(phim, psim)
            for xs in pools[(1, 2)][:3]:
                lhs = ax_apply(X, joined, 0, xs)
                rhs = ax_apply(X, phim, 0, xs[:1]) + ax_apply(X, psim, 0, xs[1:])
                assert lhs == rhs


def test_a_on_lax_strict_gives_identities(f2_gamma2):
    X = f2_gamma2
    P = GrothPerm(X)
    ph = POfLax(identity_lax_map(X))
    for mv in bounded_shapes(2, 2):
        for nv in bounded_shapes(2, 2):
            for phim in a_hom(mv, nv):
                pools = list(itertools.product(*[X.level(m).objects for m in mv]))
                for xs in pools[:2]:
                    comps = ph.lax(phim, xs)
                    for n_j, cell in zip(nv, comps):
                        assert X.level(n_j).is_id1(cell)


def test_a_on_lax_unit_components_match_blockwise(f2_gamma2):
    from gamma2cat.adjunction import unit_map
    X = f2_gamma2
    h = unit_map(X)
    ph = POfLax(h)
    for phim in a_hom((2,), (1, 1)):
        dec = decompose(phim)
        for x in X.level(2).objects:
            comps = ph.lax(phim, (x,))
            want = []
            for j, n_j in enumerate(phim.tgt):
                if j in dec.hit_sets[0]:
                    k = dec.hit_sets[0].index(j)
                    want.append(h.lax(dec.pointed[0][k], x))
                else:
                    want.append(h.lax(PointedMap(0, n_j, ()), X.point(0)))
            assert comps == tuple(want)


def test_a_on_lax_composition_law(f2_gamma2):
    from gamma2cat.adjunction import unit_map
    from gamma2cat.gamma import compose_lax
    X = f2_gamma2
    h = unit_map(X)
    kh = compose_lax(identity_lax_map(h.target), h)
    ph = POfLax(h)
    pkh = POfLax(kh)
    phim = next(iter(a_hom((2,), (1, 1))))
    for x in X.level(2).objects:
        assert pkh.lax(phim, (x,)) is not None
        assert len(pkh.lax(phim, (x,))) == len(ph.lax(phim, (x,)))


def test_groth_identities(f2_gamma2):
    X = f2_gamma2
    P = GrothPerm(X)
    B = BoundedGroth(X, 2, 2)
    objs = list(B.objects_iter())
    ones = []
    for o1 in objs[:12]:
        for o2 in objs[:12]:
            ones.extend(B.one_cells_between(o1, o2))
    e = P.unit_obj()
    for o in objs[:10]:
        assert P.sum_obj(e, o) == o
        assert P.comp1(P.id1(o), P.id1(o)) == P.id1(o)
    # [id, g][phi, id] = [phi, g] on sampled cells
    for u in ones[:40]:
        pushed = ax_apply(X, u.phim, 0, u.src.xs)
        mid = mk_groth_obj(u.tgt.mvec, pushed)
        phi_id = mk_groth_one(u.phim, u.src, mid,
                              tuple(X.level(m).id1(x) for m, x in zip(u.tgt.mvec, pushed)))
        id_g = mk_groth_one(a_identity(u.tgt.mvec), mid, u.tgt, u.fs)
        assert P.comp1(id_g, phi_id) == u
    # braiding squared is an identity composite
    for o1 in objs[1:4]:
        for o2 in objs[1:4]:
            b = P.beta_obj(o1, o2)
            assert P.comp1(P.beta_obj(o2, o1), b) == P.id1(P.sum_obj(o1, o2))


def test_lazy_composition_deterministic(f2_gamma2):
    X = f2_gamma2
    P = GrothPerm(X)
    B = BoundedGroth(X, 2, 2)
    objs = list(B.objects_iter())
    rng = random.Random(3)
    chains = 0
    for _ in range(200):
        o = rng.choice(objs)
        u = None
        cells = []
        cur = o
        for _ in range(3):
            cands = []
            for o2 in objs:
                cands.extend(B.one_cells_between(cur, o2))
                if len(cands) > 12:
                    break
            if not cands:
                break
            nxt = rng.choice(cands)
            cells.append(nxt)
            cur = nxt.tgt
        if len(cells) == 3:
            chains += 1
            a, b, c = cells
            assert P.comp1(c, P.comp1(b, a)) == P.comp1(P.comp1(c, b), a)
    assert chains > 20


def test_bounded_fragment_membership(f2_gamma2):
    # has_obj accepts every listed object and refuses a sum past the length
    # bound, an entry past the entry bound and a value that is no object
    X = f2_gamma2
    B = BoundedGroth(X, 2, 2)
    objs = [o for bucket in B.cells[0].values() for o in bucket]
    assert len(objs) == len(list(B.objects_iter())) and all(B.has_obj(o) for o in objs)
    o = next(o for o in objs if o.mvec == (2, 1))
    assert GrothPerm(X).has_obj(B.sum_obj(o, o)) and not B.has_obj(B.sum_obj(o, o))
    assert not BoundedGroth(X, 2, 1).has_obj(o)
    assert not B.has_obj(o.xs)


def test_p_of_lax_identity_and_preservation(f2_gamma2):
    X = f2_gamma2
    P = GrothPerm(X)
    B = BoundedGroth(X, 2, 2)
    ph = POfLax(identity_lax_map(X))
    objs = list(B.objects_iter())
    for o in objs[:20]:
        assert ph.maps[0](o) == o
    ones = []
    for o1 in objs[:10]:
        for o2 in objs[:10]:
            ones.extend(B.one_cells_between(o1, o2))
    for u in ones[:30]:
        assert ph.maps[1](u) == u
    # preservation of composition and braiding under the unit's image
    from gamma2cat.adjunction import unit_map
    from gamma2cat.ktheory import LazyKtGamma
    eta = unit_map(X)
    PKPX = GrothPerm(eta.target)
    pe = POfLax(eta)
    by_src = {}
    for u in ones:
        by_src.setdefault(u.src, []).append(u)
    pairs = 0
    for u in ones:
        for v in by_src.get(u.tgt, [])[:2]:
            lhs = pe.maps[1](P.comp1(v, u))
            rhs = PKPX.comp1(pe.maps[1](v), pe.maps[1](u))
            assert lhs == rhs
            pairs += 1
            if pairs > 25:
                break
        if pairs > 25:
            break
    o1, o2 = objs[1], objs[2]
    assert pe.maps[1](P.beta_obj(o1, o2)) == PKPX.beta_obj(pe.maps[0](o1), pe.maps[0](o2))


def test_validate_p_truncation(f2_gamma2, monkeypatch):
    X1 = ko_gamma(promote(fixture("F1")), 1)
    rep = validate_p_truncation(X1, 1, 1)
    assert rep.ok and rep.checked == 67
    rep2 = validate_p_truncation(f2_gamma2, 2, 2)
    assert rep2.ok and rep2.checked == 176670

    beta_obj = BoundedGroth.beta_obj

    def bad_beta(self, a, b):
        if a.mvec == (1,) and b.mvec == (1,):
            return self.id1(self.sum_obj(a, b))
        return beta_obj(self, a, b)

    monkeypatch.setattr(BoundedGroth, "beta_obj", bad_beta)
    rep3 = validate_p_truncation(f2_gamma2, 2, 2)
    assert not rep3.ok


def test_ill_typed_braiding_is_reported_not_raised(f2_gamma2, monkeypatch):
    # beta(a, b) = id(a) has the wrong target, so the 2-cell naturality
    # instances whisker cells whose block shapes do not compose
    monkeypatch.setattr(BoundedGroth, "beta_obj", lambda self, a, b: self.id1(a))
    rep = validate_p_truncation(f2_gamma2, 2, 2)
    assert not rep.ok
    assert any(i.message.startswith("2-cell naturality at ")
               and i.message.endswith(": ill-typed instance (cells not composable)")
               for i in rep.issues)


# -- the laws the bounded scan covers since it shares the product scan --------
# Each mutation below passed the bounded scan before it checked these laws.


def _rejecting_laws(X, L, E):
    return {i.message.split(" at ")[0] for i in validate_p_truncation(X, L, E).issues}


def test_bounded_vcomp_preservation_catches_reordered_composites(f2_gamma2, monkeypatch):
    vcomp = BoundedGroth.vcomp

    def bad(self, b, a):
        c = vcomp(self, b, a)
        return mk_groth_two(c.src, c.tgt, c.alphas[::-1])

    monkeypatch.setattr(BoundedGroth, "vcomp", bad)
    assert _rejecting_laws(f2_gamma2, 2, 1) == {"vertical composition not preserved"}


def test_bounded_id2_preservation_catches_reordered_identities(f2_gamma2, monkeypatch):
    # identities of 1-cells out of one block list their components reversed
    id2 = BoundedGroth.id2

    def bad(self, u):
        c = id2(self, u)
        return mk_groth_two(u, u, c.alphas[::-1]) if len(u.src.mvec) == 1 else c

    monkeypatch.setattr(BoundedGroth, "id2", bad)
    assert _rejecting_laws(f2_gamma2, 2, 1) == {"identity 2-cells not preserved"}


def test_bounded_sum_monoid_laws_catch_a_twisted_unit(f2_gamma2, monkeypatch):
    # adding the unit 1-cell conjugates by the block swap of (x, x): a functor
    # that fixes the braiding, so naturality, hexagon and comp1 preservation
    # hold.  The unit and associativity laws of the 1-cell sum reject it; the
    # 2-cell sum, built from the 1-cell sum, inherits the fault.
    sum_one = BoundedGroth.sum_one

    def swap(P, o):
        if o.mvec == (1, 1) and o.xs[0] == o.xs[1]:
            x = mk_groth_obj((1,), o.xs[:1])
            return P.beta_obj(x, x)
        return P.id1(o)

    def bad(self, u, v):
        ide = self.id1(self.unit_obj())
        if ide in (u, v) and u is not v:
            f = v if u is ide else u
            return self.comp1(swap(self, f.tgt), self.comp1(f, swap(self, f.src)))
        return sum_one(self, u, v)

    monkeypatch.setattr(BoundedGroth, "sum_one", bad)
    assert _rejecting_laws(f2_gamma2, 2, 1) == {
        "1-cell sum not unital", "1-cell sum not associative",
        "2-cell sum not unital", "2-cell sum not associative"}


def test_bounded_associativity_catches_a_conjugated_sum(f2_gamma2, monkeypatch):
    # conjugating x + x by the block swap, for each one-block x, gives a sum
    # that is a unital 2-functor with the braiding natural, so only
    # associativity rejects it, and only once three one-block cells fit
    # (L = 3).  The 2-cell law fails with the 1-cell law: its identity
    # 2-cells have 1-cell sums as endpoints.
    sum_one = BoundedGroth.sum_one

    def swap(P, x, y):
        return P.beta_obj(x, x) if len(x.mvec) == 1 and x == y else None

    def bad_one(self, u, v):
        out, t, s = sum_one(self, u, v), swap(self, u.tgt, v.tgt), swap(self, u.src, v.src)
        out = out if t is None else self.comp1(t, out)
        return out if s is None else self.comp1(out, s)

    def bad_two(self, a, b):
        out = mk_groth_two(sum_one(self, a.src, b.src), sum_one(self, a.tgt, b.tgt),
                           a.alphas + b.alphas)
        t, s = swap(self, a.src.tgt, b.src.tgt), swap(self, a.src.src, b.src.src)
        out = out if t is None else self.hcomp2(self.id2(t), out)
        return out if s is None else self.hcomp2(out, self.id2(s))

    monkeypatch.setattr(BoundedGroth, "sum_one", bad_one)
    monkeypatch.setattr(BoundedGroth, "sum_two", bad_two)
    assert _rejecting_laws(f2_gamma2, 2, 1) == set()
    assert _rejecting_laws(f2_gamma2, 3, 1) == {
        "1-cell sum not associative", "2-cell sum not associative"}


@pytest.fixture(scope="module")
def f3_gamma2(f3):
    return ko_gamma(promote(f3), 2)


def test_bounded_2cell_unit_catches_collapsed_2cells(f3_gamma2, monkeypatch):
    # Ko(F3) has non-identity 2-cells; adding the unit 2-cell sends every
    # 2-cell on the block swap of (x, x) to the identity.  That is a
    # vertical-composition-preserving idempotent, so only the 2-cell unit
    # law rejects it.
    sum_two = BoundedGroth.sum_two

    def bad(self, a, b):
        out = sum_two(self, a, b)
        unit = [not c.src.src.mvec and not c.src.tgt.mvec for c in (a, b)]
        u = out.src
        if unit[0] != unit[1] and len(u.src.mvec) == len(u.tgt.mvec) == 2 \
                and not u.phim.is_identity:
            return self.id2(out.src)
        return out

    monkeypatch.setattr(BoundedGroth, "sum_two", bad)
    assert _rejecting_laws(f3_gamma2, 2, 1) == {"2-cell sum not unital"}


def test_bounded_2cell_associativity_catches_mixed_slots(f3_gamma2, monkeypatch):
    # the sum of two 2-cells a, b on one single-block 1-cell is (a.b, b.a)
    # instead of (a, b): unital, preserving vertical composition (the
    # 2-cells there commute) and symmetric, so only 2-cell associativity
    # rejects it, once three single-block cells fit (L = 3)
    sum_one, sum_two = BoundedGroth.sum_one, BoundedGroth.sum_two

    def bad(self, a, b):
        u = a.src
        if b.src is u and len(u.src.mvec) == 1 and len(u.tgt.mvec) == 1:
            return mk_groth_two(sum_one(self, u, u), sum_one(self, u, u),
                                self.vcomp(a, b).alphas + self.vcomp(b, a).alphas)
        return sum_two(self, a, b)

    monkeypatch.setattr(BoundedGroth, "sum_two", bad)
    assert _rejecting_laws(f3_gamma2, 2, 1) == set()
    assert _rejecting_laws(f3_gamma2, 3, 1) == {"2-cell sum not associative"}


def test_bounded_identity_and_unit_braiding_laws_are_scanned(f2_gamma2, monkeypatch):
    # both follow from laws scanned before, which reject these mutations too:
    # id_a + id_b = id by the hexagon at (e, a, b) with comp1 preservation,
    # and beta(a, e) = id by the involution with beta(e, a) = id, so no
    # mutation of the sum or the braiding alone separates them
    sum_one = BoundedGroth.sum_one

    def bad_sum(self, u, v):
        if u is v and self.is_id1(u) and len(u.src.mvec) == 1:
            return self.beta_obj(u.src, u.src)
        return sum_one(self, u, v)

    with monkeypatch.context() as m:
        m.setattr(BoundedGroth, "sum_one", bad_sum)
        assert _rejecting_laws(f2_gamma2, 2, 1) == {
            "identity 1-cells not preserved", "1-cell composition not preserved",
            "hexagon fails"}

    B = BoundedGroth(f2_gamma2, 1, 2)
    a = next(o for o in B.objects_iter() if o.mvec == (2,))
    f = next(u for u in B.one_cells_between(a, a) if not B.is_id1(u))
    beta_obj = BoundedGroth.beta_obj
    monkeypatch.setattr(BoundedGroth, "beta_obj",
                        lambda self, x, y: f if x is a and not y.mvec else beta_obj(self, x, y))
    assert _rejecting_laws(f2_gamma2, 1, 2) == {
        "unit braiding not the identity", "beta^2 != id",
        "naturality square fails", "naturality on 2-cells fails"}


# -- the block-map plans against the per-call formulas ---------------------------------


def _oracle_push(X, phim, dim, cells):
    # block application as read per call from the decomposition
    return tuple(X.star(pm)[dim](X.point(dim) if i is None else cells[i])
                 for i, pm in decompose(phim).sources)


def _oracle_comp1(P, v, u):
    if u.tgt != v.src:
        raise ValueError("cells not composable")
    phim = a_compose(v.phim, u.phim)
    pushed = _oracle_push(P.X, v.phim, 1, u.fs)
    fs = tuple(P.X.level(m).comp1(g, f) for m, g, f in zip(v.tgt.mvec, v.fs, pushed))
    return mk_groth_one(phim, u.src, v.tgt, fs)


def _oracle_hcomp2(P, b, a):
    pushed = _oracle_push(P.X, b.src.phim, 2, a.alphas)
    alphas = tuple(P.X.level(m).hcomp2(x, y)
                   for m, x, y in zip(b.src.tgt.mvec, b.alphas, pushed))
    return mk_groth_two(_oracle_comp1(P, b.src, a.src), _oracle_comp1(P, b.tgt, a.tgt), alphas)


def test_planned_comp1_matches_the_per_call_formula(f2_gamma2):
    # every composable pair of the fragment, the 55,696 whose composite has
    # two blocks at both ends among them
    B = BoundedGroth(f2_gamma2, 2, 2)
    buckets = B.domains().comp1
    assert len(buckets[(2, 2)]) == 55696
    pairs = [p for bucket in buckets.values() for p in bucket]
    assert len(pairs) == 63319
    for v, u in pairs:
        assert B.comp1(v, u) is _oracle_comp1(B, v, u)


def test_planned_hcomp2_matches_the_per_call_formula(f3_gamma2, monkeypatch):
    # every horizontal composite the second triangle forms over Ko(F3)
    seen = []
    hcomp2 = GrothPerm.hcomp2

    def recorded(self, b, a):
        out = hcomp2(self, b, a)
        seen.append((self, b, a, out))
        return out

    monkeypatch.setattr(GrothPerm, "hcomp2", recorded)
    rep = triangle_P(f3_gamma2, 2, 2)
    assert rep.ok and rep.checked == 26915
    assert len(seen) > 10000
    for P, b, a, out in seen:
        assert out is _oracle_hcomp2(P, b, a)


def test_failing_block_composites_raise_on_every_call(f2_gamma2):
    # neither a non-composable pair nor a composite that breaks the block
    # condition is stored, so both raise again
    X = f2_gamma2
    P = GrothPerm(X)
    x1, x2 = X.level(1).objects, X.level(2).objects
    o = mk_groth_obj((1, 1), (x1[0], x1[0]))
    u = P.id1(o)
    bad = AMorphism((1, 1), (2,), (((0, 1),), ((0, 2),)))
    v = mk_groth_one(bad, o, mk_groth_obj((2,), (x2[0],)), (X.level(2).id1(x2[0]),))
    other = P.id1(mk_groth_obj((1,), (x1[0],)))
    for _ in range(2):
        with pytest.raises(ValueError, match="not composable"):
            P.comp1(other, u)
        with pytest.raises(ValueError, match="not composable"):
            P.a_compose(other.phim, u.phim)
        with pytest.raises(ValueError, match="block condition"):
            P.comp1(v, u)
    assert P.a_compose.cache_info().currsize == 0


def test_block_map_caches_stay_far_below_the_cells(f2_gamma2, monkeypatch):
    # the composite and plan caches are keyed by block maps: after the whole
    # scan they hold a few thousand and a few hundred entries against the
    # 63,319 composed cell pairs, so a cache keyed by cells would show; the
    # braiding cache holds the 121 object pairs of the scan's 16,653 calls
    carriers = []
    scan = inversek.scan_product_sum
    monkeypatch.setattr(inversek, "scan_product_sum",
                        lambda rep, C, D: (carriers.append(C), scan(rep, C, D)))
    rep = validate_p_truncation(f2_gamma2, 2, 2)
    assert rep.ok and rep.checked == 176670
    (B,) = carriers
    sizes = {name: getattr(B, name).cache_info().currsize
             for name in ("comp1", "a_compose", "push_plan", "beta_obj")}
    assert sizes == {"comp1": 63319, "a_compose": 7493, "push_plan": 579, "beta_obj": 121}
