import gc
import itertools
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from gamma2cat.subsets import PointedMap, all_pointed_maps, nonempty_subsets_of
from gamma2cat.monoidal import fixture, promote
from gamma2cat.twocat import CellCeilingExceeded, cell_ceiling, validate_two_category
from gamma2cat.ktheory import (
    LazyKtGamma,
    kt_gamma,
    ko_gamma,
    reindex_system,
)
from gamma2cat.inversek import (
    BoundedGroth,
    GrothPerm,
    POfLax,
    a_hom,
    ax_apply,
    mk_groth_obj,
    mk_groth_two,
)
from gamma2cat.adjunction import (
    Counit,
    bounded_unit_target,
    check_projection_coherence,
    eta_on_cell,
    eta_phi,
    lambda_of,
    phi_s,
    pi_s,
    pi_st,
    pointed_to_block,
    triangle_K,
    triangle_P,
    unit_map,
    validate_unit_cell,
)
from gamma2cat.gamma import (
    identity_lax_map,
    is_identity_transformation,
    lax_map_from_functors,
    validate_lax_map,
    validate_transformation_gamma,
)


def test_pi_s_examples():
    assert pi_s(3, (2,)).imgs == (0, 1, 0)
    assert pi_s(3, ()).imgs == (0, 0, 0)
    assert pi_s(3, (1, 2, 3)).is_identity
    with pytest.raises(ValueError):
        pi_s(2, (3,))


def test_pi_st_examples():
    m = pi_st((1,), (2,))
    assert m.src == (2,) and m.tgt == (1, 1)
    assert m.table == (((0, 1), (1, 1)),)
    # interleaved subsets split by membership order
    m2 = pi_st((1, 3), (2,))
    assert m2.src == (3,) and m2.tgt == (2, 1)
    assert m2.table == (((0, 1), (1, 1), (0, 2)),)
    with pytest.raises(ValueError):
        pi_st((1,), (1, 2))
    # empty parts are dropped
    assert pi_st((1, 2), ()).is_identity


def test_phi_s_fold_example():
    phi = PointedMap(2, 1, (1, 1))
    out = phi_s(phi, (1,))
    assert (out.m, out.n, out.imgs) == (2, 1, (1, 1))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_phi_s_square_always_commutes(data):
    m = data.draw(st.integers(0, 3))
    n = data.draw(st.integers(0, 3))
    phi = data.draw(st.sampled_from(list(all_pointed_maps(m, n))))
    s = data.draw(st.sampled_from(list(nonempty_subsets_of(n)) or [()]))
    out = phi_s(phi, s)  # raises internally if the square fails
    assert out.n == len(s)


def test_projection_coherence_on_levels(f2_gamma2):
    X = f2_gamma2
    for m in range(3):
        for x in X.level(m).objects:
            for s in nonempty_subsets_of(m):
                for t in nonempty_subsets_of(m):
                    if set(s) & set(t):
                        continue
                    assert check_projection_coherence(X, m, s, t, x)


def test_eta_level_zero_unique(f2_gamma2):
    X = f2_gamma2
    PX = GrothPerm(X)
    out = eta_on_cell(X, PX, 0, 0, X.level(0).objects[0])
    assert out.x == () and out.c == ()


def test_eta_full_subset_component(f2_gamma2):
    X = f2_gamma2
    PX = GrothPerm(X)
    for x in X.level(2).objects:
        sys = eta_on_cell(X, PX, 2, 0, x)
        full = sys.x_at(PX, (1, 2))
        assert full == mk_groth_obj((2,), (x,))


def test_eta_images_distinct_and_validated(f2_gamma2):
    X = f2_gamma2
    PX = GrothPerm(X)
    images = [eta_on_cell(X, PX, 2, 0, x) for x in X.level(2).objects]
    assert len(set(images)) == len(images) == 4
    for m in range(3):
        for x in X.level(m).objects:
            assert validate_unit_cell(X, PX, m, 0, x).ok
        for f in X.level(m).one_src:
            assert validate_unit_cell(X, PX, m, 1, f).ok
        for a in X.level(m).two_src:
            assert validate_unit_cell(X, PX, m, 2, a).ok


def test_eta_phi_identity_is_identity(f2_gamma2):
    X = f2_gamma2
    PX = GrothPerm(X)
    KPX = LazyKtGamma(PX, 2)
    from gamma2cat.subsets import pointed_identity
    for m in range(3):
        L = KPX.level(m)
        for x in X.level(m).objects:
            assert L.is_id1(eta_phi(X, PX, pointed_identity(m), x))


def test_eta_phi_fold_component(f2_gamma2):
    X = f2_gamma2
    PX = GrothPerm(X)
    fold = PointedMap(2, 1, (1, 1))
    for x in X.level(2).objects:
        mp = eta_phi(X, PX, fold, x)
        comp = mp.f_at(PX, (1,))
        assert comp.phim == pointed_to_block(phi_s(fold, (1,)))


def test_unit_is_valid_lax_map(f2_gamma2):
    assert validate_lax_map(unit_map(f2_gamma2)).ok


def test_unit_valid_on_cubical_input(f5_gamma2):
    assert validate_lax_map(unit_map(f5_gamma2)).ok


def test_lambda_identity_iff_stored_cells_trivial(f2_gamma2):
    X = f2_gamma2
    # strict map: identity transformation (one direction of the criterion)
    lam0 = lambda_of(identity_lax_map(X))
    assert is_identity_transformation(lam0)
    # the unit: its structure cells vanish at the order-preserving
    # projections, so the stored components are again identities,
    # while the coherence squares remain nontrivial
    eta = unit_map(X)
    lam = lambda_of(eta)
    stored_trivial = all(
        eta.target.level(len(s)).is_id1(eta.lax(pi_s(m, s), x))
        for m in range(X.cap + 1)
        for x in X.level(m).objects
        for s in nonempty_subsets_of(m)
    )
    assert is_identity_transformation(lam) == stored_trivial


def test_lambda_cube_for_unit(f2_gamma2):
    lam = lambda_of(unit_map(f2_gamma2))
    rep = validate_transformation_gamma(lam)
    assert rep.ok
    assert rep.checked > 50


# -- counit -------------------------------------------------------------------------


def test_counit_unit_object(f2):
    eps = Counit(promote(f2))
    assert eps.on_groth(0, mk_groth_obj((), ())) == "o0"


def test_counit_single_evaluation(f2, f2_gamma2):
    P2 = promote(f2)
    eps = Counit(P2)
    for sys in f2_gamma2.level(2).objects:
        cell = mk_groth_obj((2,), (sys,))
        assert eps.on_groth(0, cell) == sys.x_at(P2, (1, 2))


def test_counit_split_block_map_is_connecting_cell(f2, f2_gamma2):
    P2 = promote(f2)
    eps = Counit(P2)
    for sys in f2_gamma2.level(2).objects:
        lx = eps.laxity(pi_st((1,), (2,)), (sys,))
        assert lx == sys.c_at(P2, (1,), (2,))


def test_counit_single_map_identity_and_block_permutation(f2, f2_gamma2):
    P2 = promote(f2)
    eps = Counit(P2)
    # a single map of finite sets gives the identity
    for phim in a_hom((2,), (2,)):
        if len(decompose_hits(phim)) == 1:
            for sys in f2_gamma2.level(2).objects:
                out = eps.laxity(phim, (sys,))
                # identity precisely when the map does not split the block
                if phim.is_identity:
                    assert P2.is_id1(out)
    # a pure block permutation gives the braiding component
    from gamma2cat.inversek import a_block_swap
    swap = a_block_swap((1,), (1,))
    for s1 in f2_gamma2.level(1).objects:
        for s2 in f2_gamma2.level(1).objects:
            out = eps.laxity(swap, (s1, s2))
            want = P2.beta_obj(s1.x_at(P2, (1,)), s2.x_at(P2, (1,)))
            assert out == want


def decompose_hits(phim):
    from gamma2cat.inversek import decompose
    return decompose(phim).hit_sets[0] if phim.src else ()


def test_counit_single_finite_set_map_is_identity(f2, f2_gamma2):
    # any one-block-to-one-block map contributes an identity structure cell
    P2 = promote(f2)
    eps = Counit(P2)
    for phim in a_hom((2,), (1,)) + a_hom((2,), (2,)) + a_hom((1,), (2,)):
        for sys in f2_gamma2.level(phim.src[0]).objects:
            assert P2.is_id1(eps.laxity(phim, (sys,)))


def test_counit_composition_law(f2, f2_gamma2):
    P2 = promote(f2)
    eps = Counit(P2)
    from gamma2cat.inversek import bounded_shapes
    shapes = bounded_shapes(2, 2)
    checked = 0
    for mv in shapes:
        pools = list(itertools.product(*[f2_gamma2.level(m).objects for m in mv]))
        for nv in shapes:
            for pv in shapes:
                for phim in a_hom(mv, nv)[:3]:
                    for psim in a_hom(nv, pv)[:3]:
                        for xs in pools[:2]:
                            assert eps.composition_law_holds(psim, phim, xs)
                            checked += 1
    assert checked > 100


def test_counit_strict_monoidality(f2, f2_gamma2):
    P2 = promote(f2)
    eps = Counit(P2)
    X = f2_gamma2
    B = BoundedGroth(X, 2, 2)
    objs = list(B.objects_iter())
    for u in objs[:12]:
        for v in objs[:12]:
            P = GrothPerm(X)
            lhs = eps.on_groth(0, P.sum_obj(u, v))
            rhs = P2.sum_obj(eps.on_groth(0, u), eps.on_groth(0, v))
            assert lhs == rhs
    P = GrothPerm(X)
    for o1 in objs[1:4]:
        for o2 in objs[1:4]:
            cell = P.beta_obj(o1, o2)
            lhs = eps.on_groth(1, cell)
            rhs = P2.beta_obj(eps.on_groth(0, o1), eps.on_groth(0, o2))
            assert lhs == rhs


def test_counit_pseudonaturality_identity_on_product_carrier(f2, f2_gamma2):
    # strict maps take the strict branch and maps with filling cells the
    # cubical one; over a product carrier both give identities
    P2 = promote(f2)
    eps = Counit(P2)
    for X in (kt_gamma(f2, 2), f2_gamma2):
        for phim in a_hom((2,), (1, 1)):
            for mp in X.level(2).one_src:
                cell = eps.psnat(phim, (mp,))
                assert P2.is_id2(cell)


MULTI_BLOCK_SHAPES = [((1, 1), (1, 1)), ((1, 1, 1), (1, 1, 1)), ((1, 1), (2,)),
                      ((2, 1), (1, 2))]


@pytest.mark.parametrize("name,cells,non_identity", [
    ("F5", 440, 77), ("F2", 104, 0), ("F3", 20, 0),
])
def test_counit_gray_psnat_over_multi_block_maps(name, cells, non_identity):
    # block swaps, three-factor reorderings and split blocks reach the
    # braiding pasting with both embedding sides and the recursive sum of
    # filling squares; boundary typing is asserted inside psnat
    from gamma2cat.twocat import vertical_inverse
    C = fixture(name)
    if name != "F5":
        C = promote(C)
    X = ko_gamma(C, 2)
    eps = Counit(C)
    seen = non_id = 0
    for mv, nv in MULTI_BLOCK_SHAPES:
        for phim in a_hom(mv, nv):
            for mps in itertools.product(*[X.level(m).one_src for m in mv]):
                cell = eps.psnat(phim, mps)
                assert vertical_inverse(C.base, cell) is not None
                seen += 1
                non_id += not C.is_id2(cell)
    assert (seen, non_id) == (cells, non_identity)


def test_counit_gray_components_on_f5(f5, f5_gamma2):
    eps = Counit(f5)
    X = f5_gamma2
    for phim in a_hom((2,), (1, 1)):
        for sys in X.level(2).objects:
            out = eps.laxity(phim, (sys,))
            assert f5.src1(out) == sys.x_at(f5, (1, 2))
        for mp in X.level(2).one_src:
            cell = eps.psnat(phim, (mp,))
            # boundary typing is asserted inside; the cell must be invertible
            from gamma2cat.twocat import vertical_inverse
            assert vertical_inverse(f5.base, cell) is not None
    # composition law on the cubical carrier
    for phim in a_hom((2,), (2,))[:4]:
        for psim in a_hom((2,), (1, 1))[:4]:
            for sys in X.level(2).objects[:2]:
                assert eps.composition_law_holds(psim, phim, (sys,))


# -- triangles ---------------------------------------------------------------------


@pytest.mark.parametrize("name", ["F1", "F2", "F3"])
def test_triangle_counit_after_unit(name):
    rep = triangle_K(fixture(name), 2)
    assert rep.ok, str(rep)


def test_an_explicit_zero_ceiling_is_not_replaced_by_the_default():
    # a ceiling of 0 admits no cell, so both builds stop at their first level
    X = ko_gamma(promote(fixture("F2")), 2)
    with cell_ceiling(0), pytest.raises(CellCeilingExceeded):
        triangle_K(fixture("F1"), 2)
    with cell_ceiling(0), pytest.raises(CellCeilingExceeded):
        bounded_unit_target(X, 2, 2)


def test_triangle_counit_after_unit_image_f1():
    X = ko_gamma(promote(fixture("F1")), 2)
    rep = triangle_P(X, 2, 2)
    assert rep.ok, str(rep)


def test_triangle_counit_after_unit_image_f2(f2_gamma2):
    rep = triangle_P(f2_gamma2, 2, 2)
    assert rep.ok, str(rep)
    assert rep.checked > 1000


def test_bounded_fragment_stops_at_the_ceiling(f2_gamma2):
    # the (2, 2) fragment over Ko(F2) lists 43 + 1,561 + 1,561 = 3,165 cells
    from gamma2cat.inversek import validate_p_truncation
    for scan in (triangle_P, validate_p_truncation):
        with cell_ceiling(3164), pytest.raises(CellCeilingExceeded) as exc:
            scan(f2_gamma2, 2, 2)
        assert (exc.value.stage, exc.value.count) == ("bounded fragment", 3165)
    with cell_ceiling(3165):
        assert triangle_P(f2_gamma2, 2, 2).checked == 3165


def test_triangle_p_split_one_cell_spot_check(f2_gamma2):
    # the [split, id] 1-cell returns to itself through the two maps
    X = f2_gamma2
    PX = GrothPerm(X)
    KPX = LazyKtGamma(PX, 2)
    from gamma2cat.inversek import mk_groth_one
    eta = unit_map(X, PX, KPX)
    peta = POfLax(eta, PX, GrothPerm(KPX))
    eps = Counit(PX)
    split = pi_st((1,), (2,))
    for sys in X.level(2).objects:
        src = mk_groth_obj((2,), (sys,))
        pushed = ax_apply(X, split, 0, (sys,))
        tgt = mk_groth_obj((1, 1), pushed)
        cell = mk_groth_one(split, src, tgt,
                            tuple(X.level(1).id1(x) for x in pushed))
        assert eps.on_groth(1, peta.on(1, cell)) == cell


# -- caches of the inverse construction's maps ------------------------------------


def _caches(obj) -> dict:
    """The sizes of the caches an instance binds, by attribute name."""
    return {k: v.cache_info().currsize for k, v in vars(obj).items()
            if hasattr(v, "cache_info")}


def _triangle_p_maps(X):
    PX = GrothPerm(X)
    KPX = LazyKtGamma(PX, X.cap)
    eta = unit_map(X, PX, KPX)
    PKPX = GrothPerm(KPX)
    return PX, (lambda: POfLax(eta, PX, PKPX)), (lambda: Counit(PX))


def test_memoized_maps_return_the_cells_of_fresh_instances(f2_gamma2):
    # every cache hit hands out the very cell that an instance with empty
    # caches computes
    X = f2_gamma2
    _, new_peta, new_eps = _triangle_p_maps(X)
    peta, eps = new_peta(), new_eps()
    B = BoundedGroth(X, 2, 2)
    for dim, buckets in enumerate(B.cells):
        for cells in buckets.values():
            for c in cells:
                image = peta.on(dim, c)
                assert image is new_peta().on(dim, c)
                assert peta.on(dim, c) is image
                back = eps.on_groth(dim, image)
                assert back is new_eps().on_groth(dim, image)
                assert eps.on_groth(dim, image) is back
                if dim == 1:
                    args = (image.phim, image.src.xs)
                    lax = eps.laxity(*args)
                    assert lax is new_eps().laxity(*args)
                    assert eps.laxity(*args) is lax
    assert _caches(eps)["laxity"]
    # one entry per object, per 1-cell and per whiskered component: whole
    # 2-cell images are not kept
    objects, ones, _ = (sum(map(len, buckets.values())) for buckets in B.cells)
    assert _caches(peta) == {"_on_obj": objects, "_on_one": ones, "_whisker": 28}
    twos = [a for bucket in B.cells[2].values() for a in bucket][::40]
    for a in twos:
        for b in twos:
            out = B.sum_two(a, b)
            assert out is GrothPerm(X).sum_two(a, b)
            assert B.sum_two(a, b) is out


def test_memos_live_with_their_instance(f2_gamma2):
    # a new instance starts with empty caches, however full another's are
    X = f2_gamma2
    PX, new_peta, new_eps = _triangle_p_maps(X)
    peta, eps = new_peta(), new_eps()
    for dim, buckets in enumerate(BoundedGroth(X, 1, 2).cells):
        for c in (c for cells in buckets.values() for c in cells):
            eps.on_groth(dim, peta.on(dim, c))
            if dim == 2:
                PX.sum_two(c, c)
    assert _caches(PX)["sum_two"] and _caches(peta)["_on_one"] and _caches(eps)["laxity"]
    for fresh in (GrothPerm(X), new_peta(), new_eps()):
        sizes = _caches(fresh)
        assert sizes and not any(sizes.values()), type(fresh).__name__


def test_caches_are_freed_with_their_instance(f2_gamma2):
    # a cached bound method refers back to its instance, so the cycle
    # collector frees the two together once the maps are dropped; the
    # block-map and braiding caches of the fragment go with it
    X = f2_gamma2
    PX, new_peta, new_eps = _triangle_p_maps(X)
    peta, eps, B = new_peta(), new_eps(), BoundedGroth(X, 2, 2)
    for dim, buckets in enumerate(B.cells):
        for c in (c for cells in buckets.values() for c in cells):
            assert eps.on_groth(dim, peta.on(dim, c)) == c
    o = next(o for o in B.objects_iter() if o.mvec)
    u = B.id1(o)
    B.comp1(u, u)
    B.beta_obj(o, o)
    block_caches = (B.a_compose, B.push_plan, B.beta_obj)
    assert all(c.cache_info().currsize > 0 for c in block_caches)
    eta = peta.ah.h
    dropped = [weakref.ref(o) for o in (peta, eps, eta.target, eta, B, *block_caches)]
    kept = weakref.ref(PX)
    del peta, eps, eta, B, block_caches, new_peta, new_eps
    gc.collect()
    assert [ref() for ref in dropped] == [None] * len(dropped)
    # the module-level unit, reindexing and composition caches key on the
    # inverse construction, so they keep it for the whole process
    del PX
    gc.collect()
    assert kept() is not None


@pytest.mark.parametrize("name, size", [("F2", 28), ("F3", 118)])
def test_p_of_unit_keeps_whiskered_components_not_two_cells(name, size):
    # every 2-cell image equals the unmemoized componentwise formula; the
    # pinned memo size is that of the distinct components, far below the
    # fragment's 2-cells, so a per-2-cell memo would show
    X = ko_gamma(promote(fixture(name)), 2)
    peta = _triangle_p_maps(X)[1]()
    Y, h = peta.PY.X, peta.ah.h
    twos = [a for bucket in BoundedGroth(X, 2, 2).cells[2].values() for a in bucket]
    for a in twos:
        lax = peta.ah.lax(a.src.phim, a.src.src.xs)
        want = tuple(Y.level(m).hcomp2(h.cell_maps(m)[2](al), Y.level(m).id2(l))
                     for m, al, l in zip(a.src.tgt.mvec, a.alphas, lax))
        image = peta.on(2, a)
        assert image.alphas == want
        assert image is mk_groth_two(peta.on(1, a.src), peta.on(1, a.tgt), want)
    assert _caches(peta)["_whisker"] == size < len(twos)


def test_p_of_unit_stores_no_ill_typed_component(f2_gamma2):
    # components taken from a 2-cell over another source raise on every
    # call and leave nothing in the cache
    X = f2_gamma2
    peta = _triangle_p_maps(X)[1]()
    twos = [a for bucket in BoundedGroth(X, 2, 2).cells[2].values() for a in bucket]
    a, b = (next(c for c in twos if c.src.tgt.mvec == (2,) and c.src.src.xs == (x,))
            for x in X.level(2).objects[:2])
    bad = mk_groth_two(a.src, a.tgt, b.alphas)
    for _ in range(2):
        with pytest.raises(ValueError, match="not composable"):
            peta.on(2, bad)
    assert _caches(peta)["_whisker"] == 0
