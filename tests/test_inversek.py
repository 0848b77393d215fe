import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from gamma2cat.monoidal import fixture, promote
from gamma2cat.ktheory import ko_gamma
from gamma2cat.inversek import (
    AMorphism,
    BoundedGroth,
    GrothPerm,
    a_block_swap,
    a_compose,
    a_concat,
    a_hom,
    a_identity,
    a_on_lax,
    ax_apply,
    bounded_shapes,
    decompose,
    groth_compose,
    groth_product,
    mk_amorphism,
    mk_groth_obj,
    mk_groth_one,
    p_of_lax,
    reassemble,
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
    ah = a_on_lax(identity_lax_map(X))
    for mv in bounded_shapes(2, 2):
        for nv in bounded_shapes(2, 2):
            for phim in a_hom(mv, nv):
                pools = list(itertools.product(*[X.level(m).objects for m in mv]))
                for xs in pools[:2]:
                    comps = ah.lax(phim, xs)
                    for n_j, cell in zip(nv, comps):
                        assert X.level(n_j).is_id1(cell)


def test_a_on_lax_unit_components_match_blockwise(f2_gamma2):
    from gamma2cat.adjunction import unit_map
    X = f2_gamma2
    h = unit_map(X)
    ah = a_on_lax(h)
    for phim in a_hom((2,), (1, 1)):
        dec = decompose(phim)
        for x in X.level(2).objects:
            comps = ah.lax(phim, (x,))
            want = []
            for j, n_j in enumerate(phim.tgt):
                if j in dec.hit_sets[0]:
                    want.append(h.lax(dec.pointed_at(0, j), x))
                else:
                    want.append(h.lax(PointedMap(0, n_j, ()), X.point(0)))
            assert comps == tuple(want)


def test_a_on_lax_composition_law(f2_gamma2):
    from gamma2cat.adjunction import unit_map
    from gamma2cat.gamma import compose_lax, identity_lax_map
    X = f2_gamma2
    h = unit_map(X)
    kh = compose_lax(identity_lax_map(h.target) if False else _post_identity(h), h)
    ah = a_on_lax(h)
    akh = a_on_lax(kh)
    phim = next(iter(a_hom((2,), (1, 1))))
    for x in X.level(2).objects:
        assert akh.lax(phim, (x,)) is not None
        assert len(akh.lax(phim, (x,))) == len(ah.lax(phim, (x,)))


def _post_identity(h):
    from gamma2cat.gamma import GammaLaxMap
    return GammaLaxMap(h.target, h.target,
                       lambda m, dim, cell: cell,
                       lambda phi, x: h.target.level(phi.n).id1(
                           h.target.phi_star(phi, 0, x)),
                       name="id")


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
        assert groth_product(P, e, o) == o
        assert P.comp1(P.id1(o), P.id1(o)) == P.id1(o)
    # [id, g][phi, id] = [phi, g] on sampled cells
    for u in ones[:40]:
        pushed = ax_apply(X, u.phim, 0, u.src.xs)
        mid = mk_groth_obj(u.tgt.mvec, pushed)
        phi_id = mk_groth_one(u.phim, u.src, mid,
                              tuple(X.level(m).id1(x) for m, x in zip(u.tgt.mvec, pushed)))
        id_g = mk_groth_one(a_identity(u.tgt.mvec), mid, u.tgt, u.fs)
        assert groth_compose(P, id_g, phi_id) == u
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


def test_p_of_lax_identity_and_preservation(f2_gamma2):
    X = f2_gamma2
    P = GrothPerm(X)
    B = BoundedGroth(X, 2, 2)
    ph = p_of_lax(identity_lax_map(X), P, P)
    objs = list(B.objects_iter())
    for o in objs[:20]:
        assert ph.on(0, o) == o
    ones = []
    for o1 in objs[:10]:
        for o2 in objs[:10]:
            ones.extend(B.one_cells_between(o1, o2))
    for u in ones[:30]:
        assert ph.on(1, u) == u
    # preservation of composition and braiding under the unit's image
    from gamma2cat.adjunction import unit_map
    from gamma2cat.ktheory import LazyKtGamma
    eta = unit_map(X)
    PKPX = GrothPerm(eta.target)
    pe = p_of_lax(eta, P, PKPX)
    by_src = {}
    for u in ones:
        by_src.setdefault(u.src, []).append(u)
    pairs = 0
    for u in ones:
        for v in by_src.get(u.tgt, [])[:2]:
            lhs = pe.on(1, P.comp1(v, u))
            rhs = PKPX.comp1(pe.on(1, v), pe.on(1, u))
            assert lhs == rhs
            pairs += 1
            if pairs > 25:
                break
        if pairs > 25:
            break
    o1, o2 = objs[1], objs[2]
    assert pe.on(1, P.beta_obj(o1, o2)) == PKPX.beta_obj(pe.on(0, o1), pe.on(0, o2))


def test_validate_p_truncation(f2_gamma2):
    X1 = ko_gamma(promote(fixture("F1")), 1)
    rep = validate_p_truncation(X1, 1, 1)
    assert rep.ok and rep.checked > 0
    rep2 = validate_p_truncation(f2_gamma2, 2, 2)
    assert rep2.ok

    B = BoundedGroth(f2_gamma2, 2, 2)

    def bad_beta(a, b):
        if a.mvec == (1,) and b.mvec == (1,):
            return B.id1(B.sum_obj(a, b))
        return B.beta_obj(a, b)

    rep3 = validate_p_truncation(f2_gamma2, 2, 2, braiding=bad_beta)
    assert not rep3.ok


def test_ill_typed_braiding_is_reported_not_raised(f2_gamma2):
    # beta(a, b) = id(a) has the wrong target, so the 2-cell naturality
    # instances whisker cells whose block shapes do not compose
    B = BoundedGroth(f2_gamma2, 2, 2)
    rep = validate_p_truncation(f2_gamma2, 2, 2, braiding=lambda a, b: B.id1(a))
    assert not rep.ok
    assert any(i.message.startswith("2-cell naturality at ")
               and i.message.endswith(": ill-typed instance (cells not composable)")
               for i in rep.issues)
