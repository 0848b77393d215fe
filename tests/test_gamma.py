import pytest

from gamma2cat.subsets import PointedMap, all_pointed_maps, pointed_identity
from gamma2cat.monoidal import fixture, promote
from gamma2cat.ktheory import ko_gamma, ko_map, kt_gamma
from gamma2cat.monoidal import MonoidalFunctor
from gamma2cat.twocat import TwoFunctor, validate_two_category, is_isomorphism_of_two_categories
from gamma2cat.gamma import (
    GammaTruncation,
    compose_lax,
    e_adjunction_check,
    e_construction,
    e_of_transformation,
    e_on_square,
    e_section,
    gamma_path_object,
    identity_lax_map,
    identity_transformation,
    lax_map_from_functors,
    path_lax_to_transformation,
    segal_map,
    special_check,
    strict_lax_map,
    transformation_to_path_lax,
    two_equivalence_check,
    validate_espan,
    validate_gamma,
    validate_lax_map,
    validate_transformation_gamma,
    very_special_check,
)


@pytest.fixture(scope="module")
def f1_gamma():
    return ko_gamma(promote(fixture("F1")), 2)


def test_constant_terminal_diagram_valid(f1_gamma):
    rep = validate_gamma(f1_gamma)
    assert rep.ok
    assert all(f1_gamma.level(m).counts() == (1, 1, 1) for m in range(3))


def test_ko_f2_truncation_valid(f2_gamma3):
    assert validate_gamma(f2_gamma3).ok


def test_broken_composition_detected(f2_gamma2):
    X = f2_gamma2
    bad_maps = {psi: X.transition(psi) for psi in X.all_maps()}
    phi = PointedMap(2, 1, (1, 1))
    F = bad_maps[phi]
    # swap the two object images at level 1
    L1 = X.level(1)
    a, b = L1.objects
    omap = {k: (b if v == a else a) for k, v in F.omap.items()}
    bad_maps[phi] = TwoFunctor(F.source, F.target, omap,
                               dict(F.fmap), dict(F.amap), name="broken")
    broken = GammaTruncation("broken", X.cap, X.levels, bad_maps.get)
    rep = validate_gamma(broken)
    assert not rep.ok


def test_compose_lax_identity_laws(f2_gamma2):
    X = f2_gamma2
    ident = identity_lax_map(X)
    eta_like = ident
    left = compose_lax(ident, eta_like)
    for m in range(X.cap + 1):
        for x in X.level(m).objects:
            assert left.apply(m, 0, x) == x
    for phi in X.all_maps():
        for x in X.level(phi.m).objects:
            assert left.lax(phi, x) == ident.lax(phi, x)


def test_compose_lax_refuses_maps_that_do_not_meet(f2_gamma2, f1_gamma):
    with pytest.raises(ValueError, match="not composable"):
        compose_lax(identity_lax_map(f1_gamma), identity_lax_map(f2_gamma2))


def test_compose_lax_associativity(f2_gamma2):
    from gamma2cat.adjunction import unit_map
    X = f2_gamma2
    h = unit_map(X)
    i1 = identity_lax_map(X)
    lhs = compose_lax(h, compose_lax(i1, i1))
    rhs = compose_lax(compose_lax(h, i1), i1)
    for m in range(X.cap + 1):
        for x in X.level(m).objects:
            assert lhs.apply(m, 0, x) == rhs.apply(m, 0, x)
    for phi in X.all_maps():
        for x in X.level(phi.m).objects:
            assert lhs.lax(phi, x) == rhs.lax(phi, x)


def test_segal_level_one_is_identity(f2_gamma2):
    F = segal_map(f2_gamma2, 1)
    assert is_isomorphism_of_two_categories(F)


def test_segal_f2_level_two_isomorphism(f2_gamma2):
    rep = two_equivalence_check(segal_map(f2_gamma2, 2))
    assert rep.ok and rep.bijective_on_cells


def test_segal_f5_equivalence_not_isomorphism(f5_gamma2):
    rep = two_equivalence_check(segal_map(f5_gamma2, 2))
    assert rep.ok and not rep.bijective_on_cells


def test_very_special_f2(f2_gamma2):
    vs = very_special_check(f2_gamma2)
    assert vs.ok
    assert len(vs.elements) == 2


def test_very_special_f1(f1_gamma):
    vs = very_special_check(f1_gamma)
    assert vs.ok and len(vs.elements) == 1


def test_very_special_m3_fails_inverses():
    X = ko_gamma(promote(fixture("M3")), 2)
    vs = very_special_check(X)
    assert not vs.ok
    assert "inverse" in vs.reason


def test_gamma_path_object(f2_gamma2):
    X = f2_gamma2
    po = gamma_path_object(X)
    assert validate_gamma(po.total).ok
    assert po.total.level(0).counts() == (1, 1, 1)
    for m in range(X.cap + 1):
        for x in X.level(m).objects:
            assert po.e0.apply(m, 0, po.i.apply(m, 0, x)) == x
            assert po.e1.apply(m, 0, po.i.apply(m, 0, x)) == x


def test_path_characterizes_transformations(f2_gamma2):
    X = f2_gamma2
    po = gamma_path_object(X)
    ident = identity_lax_map(X)
    t = identity_transformation(ident)
    tilde = transformation_to_path_lax(t, po)
    assert validate_lax_map(tilde).ok
    back = path_lax_to_transformation(tilde, po)
    for m in range(X.cap + 1):
        for x in X.level(m).objects:
            assert back.at(m, x) == t.at(m, x)
            assert back.h.apply(m, 0, x) == t.h.apply(m, 0, x)
            assert back.k.apply(m, 0, x) == t.k.apply(m, 0, x)


def _collapse_map(f2_gamma2, f1_gamma):
    """The strict diagram map induced by summing everything to the point."""
    from gamma2cat.monoidal import fixture
    from gamma2cat.twocat import TwoFunctor
    from gamma2cat.ktheory import ko_map
    F2, F1 = fixture("F2"), fixture("F1")
    F = TwoFunctor(
        F2.base, F1.base,
        {"0": "e", "1": "e"}, {"i0": "ie", "i1": "ie"}, {"ii0": "iie", "ii1": "iie"},
        name="collapse",
    )
    theta = {(x, y): F1.base.id1("e") for x in ("0", "1") for y in ("0", "1")}
    M = MonoidalFunctor("normal-oplax", F, promote(F2), promote(F1),
                        F1.base.id1("e"), theta, name="collapse")
    functors = {
        m: ko_map(M, f2_gamma2.level(m), f1_gamma.level(m))
        for m in range(3)
    }
    return lax_map_from_functors(f2_gamma2, f1_gamma, functors, name="Ko(collapse)")


def test_espan_for_identity_map(f2_gamma2):
    X = f2_gamma2
    span = e_construction(identity_lax_map(X))
    assert validate_espan(span).ok
    assert e_adjunction_check(span).ok
    # the section is a lax map, its laxity cells included
    section = validate_lax_map(e_section(span))
    assert section.ok and section.checked > 0
    # object count at level one: one triple per 1-cell of the level
    assert len(span.Ek.level(1).objects) == len(X.level(1).one_src)


def test_espan_strict_collapse_case(f2_gamma2, f1_gamma):
    k = _collapse_map(f2_gamma2, f1_gamma)
    assert validate_lax_map(k).ok
    assert k.is_strict_on(f2_gamma2)
    span = e_construction(k)
    assert validate_espan(span).ok
    # for a strict map the second leg is the map after the retraction
    for m in range(3):
        L = span.Ek.level(m)
        for dim, cells in ((0, L.objects), (1, list(L.one_src)), (2, list(L.two_src))):
            for cell in cells:
                assert span.nu_bar.apply(m, dim, cell) is not None
        for cell in L.objects:
            want = k.apply(m, 0, span.omega.apply(m, 0, cell))
            got_tgt = span.Ek.level(m)
            # nu lands where k . omega does up to the anchoring arrow
            assert f1_gamma.level(m).tgt1(span.nu_bar.apply(m, 0, cell)) == want


def test_e_on_square_identity(f2_gamma2):
    X = f2_gamma2
    ident = identity_lax_map(X)
    span = e_construction(ident)
    sq = e_on_square(span, span, ident, ident)
    for m in range(X.cap + 1):
        for cell in span.Ek.level(m).objects:
            assert sq.apply(m, 0, cell) == cell


def test_e_of_identity_transformation(f2_gamma2):
    X = f2_gamma2
    ident = identity_lax_map(X)
    span = e_construction(ident)
    t = identity_transformation(ident)
    el = e_of_transformation(span, span, t)
    for m in range(X.cap + 1):
        for cell in span.Ek.level(m).objects:
            assert el.apply(m, 0, cell) == cell


def test_e_on_naturality_square_of_strict_map(f2_gamma2, f1_gamma):
    # verticals: the collapse and its image; horizontals: identities
    h = _collapse_map(f2_gamma2, f1_gamma)
    top = e_construction(identity_lax_map(f2_gamma2))
    bot = e_construction(identity_lax_map(f1_gamma))
    sq = e_on_square(top, bot, h, h)
    rep = validate_lax_map(sq)
    assert rep.ok
    # commutes with both legs
    for m in range(3):
        for cell in top.Ek.level(m).objects:
            assert bot.omega.apply(m, 0, sq.apply(m, 0, cell)) == \
                h.apply(m, 0, top.omega.apply(m, 0, cell))
            assert bot.nu.apply(m, 0, sq.apply(m, 0, cell)) == \
                h.apply(m, 0, top.nu.apply(m, 0, cell))


def test_e_rejects_non_commuting_square(f2_gamma2, f1_gamma):
    h = _collapse_map(f2_gamma2, f1_gamma)
    top = e_construction(identity_lax_map(f2_gamma2))
    bot = e_construction(identity_lax_map(f1_gamma))
    ident2 = identity_lax_map(f2_gamma2)
    with pytest.raises(ValueError):
        e_on_square(top, bot, h, ident2)  # mismatched vertical


def test_nu_bar_strict_when_k_strict(f2_gamma2, f1_gamma):
    # the middle leg's structure cells collapse for strict inputs
    k = _collapse_map(f2_gamma2, f1_gamma)
    span = e_construction(k)
    for phi in span.Ek.all_maps():
        P = span.path.level(phi.n)
        for cell in span.Ek.level(phi.m).objects:
            assert P.is_id1(span.nu_bar.lax(phi, cell))


def test_path_characterization_nontrivial_transformation():
    # search the truncation of the suspension fixture for a transformation
    # with a non-identity component, then round-trip it through the path
    from gamma2cat.monoidal import fixture, promote
    from gamma2cat.ktheory import ko_gamma
    X = ko_gamma(promote(fixture("F3")), 2)
    po = gamma_path_object(X)
    ident = identity_lax_map(X)
    found = None
    for u in X.level(2).one_cells_between(X.level(2).objects[0], X.level(2).objects[0]):
        comps = {0: X.level(0).id1(X.level(0).objects[0]),
                 1: X.level(1).id1(X.level(1).objects[0]),
                 2: u}
        from gamma2cat.gamma import GammaTransformation
        t = GammaTransformation(ident, ident, lambda m, x, c=comps: c[m])
        if validate_transformation_gamma(t).ok:
            if not X.level(2).is_id1(u):
                found = t
                break
    if found is None:
        import pytest as _pytest
        _pytest.skip("no nontrivial transformation at this scale")
    tilde = transformation_to_path_lax(found, po)
    assert validate_lax_map(tilde).ok
    back = path_lax_to_transformation(tilde, po)
    for m in range(3):
        for x in X.level(m).objects:
            assert back.at(m, x) == found.at(m, x)
