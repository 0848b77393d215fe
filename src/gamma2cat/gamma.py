"""Truncated diagrams of 2-categories on pointed finite sets.

A truncation stores the levels X(m+) for m up to a cap together with the
transition 2-functor of every pointed map between levels inside the cap.
Reducedness means the level at 0+ is terminal.

Every diagram answers ``DIAGRAM_OPERATIONS`` and every lax map between
diagrams ``LAX_MAP_OPERATIONS``, whether its levels are tabulated or
formulas evaluated lazily.  A strict 2-functor has one form throughout, the
cell-map triple (objects, 1-cells, 2-cells) of ``twocat.TwoFunctor.cell_maps``:
``star(phi)`` is that triple for the transition along a pointed map and
``cell_maps(m)`` for the level-m 2-functor of a lax map; both are built on
first use and kept.  A lax map carries besides these a 2-natural structure
1-cell per pointed map, ``lax(phi, x)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial
from typing import Callable

from .subsets import (PointedMap, composable_maps, fold_map, maps_up_to,
                      pointed_identity, segal_injection)
from .twocat import (
    IDENTITY_MAPS,
    PATH_TAGS,
    S_LEG,
    T_LEG,
    Cell,
    CommaFormula,
    EquivalenceReport,
    FiniteTwoCategory,
    TwoFunctor,
    ValidationReport,
    arrow,
    comma,
    comma_map,
    comma_section,
    identity_functor,
    into_comma,
    path_object,
    product_two_category,
    pi0,
    scan_functor,
    scan_naturality,
    tabulate,
    tabulate_comma,
    then_maps,
    tuple_functor,
    two_equivalence_check,
    validate_two_category,
    validate_two_functor,
)

DIAGRAM_OPERATIONS = ("level", "star")
LAX_MAP_OPERATIONS = ("cell_maps", "lax")


class GammaTruncation:
    """A reduced diagram on pointed sets 0+..N+ with all transition functors.

    ``build`` gives the transition 2-functor of a pointed map inside the cap,
    or ``None`` when the diagram has none; ``transition(phi)`` builds each
    transition whole on first use and keeps it."""

    def __init__(self, name: str, cap: int, levels: list[FiniteTwoCategory],
                 build: Callable[[PointedMap], TwoFunctor | None]):
        if cap < 1 or len(levels) != cap + 1:
            raise ValueError("need one level per 0 <= m <= cap")
        self.name = name
        self.cap = cap
        self.levels = levels
        self.transition = cache(build)
        self.star = cache(self.star)

    def level(self, m: int) -> FiniteTwoCategory:
        return self.levels[m]

    def star(self, phi: PointedMap) -> tuple:
        """The cell maps of the transition along ``phi``."""
        F = self.transition(phi)
        if F is None:
            raise LookupError(f"{self.name} has no transition functor for {phi}")
        return F.cell_maps()

    def point(self, dim: int) -> Cell:
        """The unique cell of the terminal level in each dimension."""
        L0 = self.levels[0]
        obj = L0.objects[0]
        if dim == 0:
            return obj
        if dim == 1:
            return L0.id1(obj)
        return L0.id2(L0.id1(obj))

    def all_maps(self) -> tuple[PointedMap, ...]:
        return maps_up_to(self.cap)

    def __repr__(self):
        return f"<GammaTruncation {self.name} cap={self.cap}>"


def validate_gamma(X: GammaTruncation) -> ValidationReport:
    """Reducedness, levelwise validity, and strict functoriality within the cap."""
    rep = ValidationReport(f"gamma truncation {X.name}")
    L0 = X.level(0)
    if L0.counts() != (1, 1, 1):
        rep.add("reduced", f"level 0 has cell counts {L0.counts()}, want (1, 1, 1)")
    for m in range(X.cap + 1):
        lrep = validate_two_category(X.level(m))
        rep.checked += lrep.checked
        if not lrep.ok:
            rep.add("level", f"level {m} invalid: {lrep.first()}")
    for phi in X.all_maps():
        F = X.transition(phi)
        if F is None:
            rep.add("structure", f"missing transition functor for {phi}")
            continue
        frep = validate_two_functor(F)
        rep.checked += frep.checked
        if not frep.ok:
            rep.add("functor", f"transition at {phi} invalid: {frep.first()}")
    if rep.issues:
        return rep
    for m in range(X.cap + 1):
        rep.checked += 1
        if X.transition(pointed_identity(m)) != identity_functor(X.level(m)):
            rep.add("functoriality", f"identity map at level {m} is not the identity")
    for phi, psi in composable_maps(X.cap):
        rep.checked += 1
        if X.transition(phi.then(psi)) != X.transition(phi).then(X.transition(psi)):
            rep.add("functoriality", f"composition fails at {psi} after {phi}")
    return rep


# -- lax maps -------------------------------------------------------------------


@dataclass
class GammaLaxMap:
    """Levelwise 2-functors with a 2-natural structure cell per pointed map.

    ``cell_maps(m)`` is the triple ``maps(m)`` of the level-m 2-functor,
    built on first use and kept; ``lax(phi, x)`` is the structure 1-cell
    phi_* h_m(x) -> h_n(phi_* x)  in the target level at phi.n.
    """

    source: object
    target: object
    maps: Callable[[int], tuple]
    lax: Callable[[PointedMap, Cell], Cell]
    name: str = ""

    def __post_init__(self):
        self.cell_maps = cache(self.maps)

    def is_strict_on(self, X: GammaTruncation) -> bool:
        for phi in X.all_maps():
            L = self.target.level(phi.n)
            for x in X.level(phi.m).objects:
                if not L.is_id1(self.lax(phi, x)):
                    return False
        return True


def strict_lax_map(X, Y, maps, name="") -> GammaLaxMap:
    """The lax map of the levelwise cell maps ``maps(m)`` whose structure
    cells are identities."""
    def lax(phi: PointedMap, x):
        return Y.level(phi.n).id1(h.cell_maps(phi.n)[0](X.star(phi)[0](x)))
    h = GammaLaxMap(X, Y, maps, lax, name=name)
    return h


def lax_map_from_functors(X, Y, functors: dict[int, TwoFunctor], name="") -> GammaLaxMap:
    """A strict map of truncations given by levelwise functor tables."""
    return strict_lax_map(X, Y, lambda m: functors[m].cell_maps(), name=name)


def identity_lax_map(X) -> GammaLaxMap:
    return strict_lax_map(X, X, lambda m: IDENTITY_MAPS, name=f"id_{X.name}")


def compose_lax(j: GammaLaxMap, h: GammaLaxMap) -> GammaLaxMap:
    """The composite j . h, with pasted structure cells."""
    if h.target is not j.source:
        raise ValueError(f"lax maps not composable: {h.name or '?'} does not land "
                         f"in the source of {j.name or '?'}")
    X, Z = h.source, j.target

    def lax(phi: PointedMap, x):
        n = phi.n
        # (jh)_phi(x) = j_n(h_phi(x)) . j_phi(h_m(x))
        return Z.level(n).comp1(
            j.cell_maps(n)[1](h.lax(phi, x)),
            j.lax(phi, h.cell_maps(phi.m)[0](x)),
        )

    return GammaLaxMap(X, Z, lambda m: then_maps(h.cell_maps(m), j.cell_maps(m)), lax,
                       name=f"{j.name}.{h.name}")


def validate_lax_map(h: GammaLaxMap) -> ValidationReport:
    """Check levelwise functoriality, unit and pasting laws, and 2-naturality.

    The source must be a tabulated truncation; the target only needs to
    support the cell operations of its levels.
    """
    X: GammaTruncation = h.source
    Y = h.target
    rep = ValidationReport(f"gamma-lax map {h.name or '?'}")
    for m in range(X.cap + 1):
        scan_functor(rep, X.level(m), Y.level(m), h.cell_maps(m), f"level {m}: ")
    if rep.issues:
        return rep

    for m in range(X.cap + 1):
        T = Y.level(m)
        ident = pointed_identity(m)
        for x in X.level(m).objects:
            rep.checked += 1
            if not T.is_id1(h.lax(ident, x)):
                rep.add("lax-unit", f"structure cell at identity map not trivial at {x!r}")

    for phi in X.all_maps():
        m, n = phi.m, phi.n
        T = Y.level(n)
        S = X.level(m)
        # typing and 2-naturality of h_phi
        hm, hn, xs, ys = h.cell_maps(m), h.cell_maps(n), X.star(phi), Y.star(phi)
        for x in S.objects:
            cell = h.lax(phi, x)
            rep.checked += 1
            if T.src1(cell) != ys[0](hm[0](x)) or T.tgt1(cell) != hn[0](xs[0](x)):
                rep.add("lax", f"structure cell at {phi} has wrong endpoints at {x!r}")
        if rep.issues:
            return rep
        scan_naturality(rep, S, T, partial(h.lax, phi), then_maps(hm, ys),
                        then_maps(xs, hn), "lax", f"structure cell at {phi}")

    for phi, psi in composable_maps(X.cap):
        T = Y.level(psi.n)
        comp = phi.then(psi)
        x_phi, y_psi = X.star(phi)[0], Y.star(psi)[1]
        for x in X.level(phi.m).objects:
            rep.checked += 1
            pasted = T.comp1(h.lax(psi, x_phi(x)), y_psi(h.lax(phi, x)))
            if h.lax(comp, x) != pasted:
                rep.add("lax-pasting", f"pasting law fails at {psi} after {phi}, object {x!r}")
    return rep


# -- transformations --------------------------------------------------------------


@dataclass
class GammaTransformation:
    """A modification between parallel lax maps: one 2-natural transformation
    per level, compatible with the structure cells over every pointed map."""

    h: GammaLaxMap
    k: GammaLaxMap
    at: Callable[[int, Cell], Cell]
    name: str = ""


def identity_transformation(h: GammaLaxMap) -> GammaTransformation:
    def comp(m, x):
        return h.target.level(m).id1(h.cell_maps(m)[0](x))
    return GammaTransformation(h, h, comp, name="id")


def validate_transformation_gamma(t: GammaTransformation) -> ValidationReport:
    rep = ValidationReport(f"gamma transformation {t.name or '?'}")
    X: GammaTruncation = t.h.source
    Y = t.h.target
    for m in range(X.cap + 1):
        S = X.level(m)
        T = Y.level(m)
        h0, k0 = t.h.cell_maps(m)[0], t.k.cell_maps(m)[0]
        for x in S.objects:
            c = t.at(m, x)
            rep.checked += 1
            if T.src1(c) != h0(x) or T.tgt1(c) != k0(x):
                rep.add("structure", f"component at level {m}, {x!r} has wrong endpoints")
        if rep.issues:
            return rep
        scan_naturality(rep, S, T, partial(t.at, m), t.h.cell_maps(m),
                        t.k.cell_maps(m), "naturality", f"level {m} components")
    for phi in X.all_maps():
        m, n = phi.m, phi.n
        T = Y.level(n)
        x_phi, y_phi = X.star(phi)[0], Y.star(phi)[1]
        for x in X.level(m).objects:
            rep.checked += 1
            lhs = T.comp1(t.k.lax(phi, x), y_phi(t.at(m, x)))
            rhs = T.comp1(t.at(n, x_phi(x)), t.h.lax(phi, x))
            if lhs != rhs:
                rep.add("modification", f"square fails at {phi}, object {x!r}")
    return rep


def is_identity_transformation(t: GammaTransformation) -> bool:
    X: GammaTruncation = t.h.source
    return all(
        t.h.target.level(m).is_id1(t.at(m, x))
        for m in range(X.cap + 1)
        for x in X.level(m).objects
    )


# -- Segal and specialness ---------------------------------------------------------


def segal_map(X: GammaTruncation, n: int) -> TwoFunctor:
    """The comparison X(n+) -> X(1+)^n induced by the coordinate injections."""
    if n > X.cap:
        raise ValueError("level beyond cap")
    if n == 1:
        return identity_functor(X.level(1))
    prod = product_two_category([X.level(1)] * n, name=f"{X.name}(1)^{n}")
    functors = [X.transition(segal_injection(k, n)) for k in range(1, n + 1)]
    return tuple_functor(functors, prod)


@dataclass
class SpecialReport:
    ok: bool
    per_level: dict[int, EquivalenceReport]

    def __str__(self):
        lines = [f"special: {self.ok}"]
        for n, r in sorted(self.per_level.items()):
            lines.append(f"  level {n}: {r}")
        return "\n".join(lines)


def special_check(X: GammaTruncation) -> SpecialReport:
    per = {}
    ok = True
    for n in range(2, X.cap + 1):
        r = two_equivalence_check(segal_map(X, n))
        per[n] = r
        ok = ok and r.ok
    return SpecialReport(ok, per)


@dataclass
class VerySpecialReport:
    ok: bool
    reason: str
    elements: list
    table: dict
    identity: object | None

    def __str__(self):
        if not self.ok:
            return f"very special: False ({self.reason})"
        return f"very special: True (group of order {len(self.elements)})"


def very_special_check(X: GammaTruncation) -> VerySpecialReport:
    """Decide whether the class set at level one is a group under the
    operation transported through the two-level comparison.

    Refuses when the comparison is not a bijection on classes, since the
    operation is only defined through that bijection.
    """
    if X.cap < 2:
        return VerySpecialReport(False, "cap too small for the comparison", [], {}, None)
    sp = special_check(X)
    if not sp.ok:
        return VerySpecialReport(False, "not special", [], {}, None)
    L1, L2 = X.level(1), X.level(2)
    classes1 = pi0(L1)
    classes2 = pi0(L2)

    def class_of(classes, obj):
        for c in classes:
            if obj in c:
                return c
        raise KeyError(obj)

    seg = segal_map(X, 2)
    # the comparison on classes
    pairs = {}
    for z in L2.objects:
        img = seg.omap[z]
        key = (class_of(classes1, img[0]), class_of(classes1, img[1]))
        pairs.setdefault(key, class_of(classes2, z))
    if len(pairs) != len(classes1) ** 2 or len(set(pairs.values())) != len(classes2):
        return VerySpecialReport(False, "class comparison not a bijection", [], {}, None)
    inverse_pairs = {}
    for key, c2 in pairs.items():
        if c2 in inverse_pairs and inverse_pairs[c2] != key:
            return VerySpecialReport(False, "class comparison not injective", [], {}, None)
        inverse_pairs[c2] = key

    fold = X.transition(fold_map(2))
    table = {}
    for (ca, cb), c2 in pairs.items():
        rep_obj = next(z for z in L2.objects if class_of(classes2, z) == c2)
        table[(ca, cb)] = class_of(classes1, fold.omap[rep_obj])

    # identity candidate: the image of the unique object at level 0
    incl = X.transition(PointedMap(0, 1, ()))
    e_class = class_of(classes1, incl.omap[X.level(0).objects[0]])

    def members(c) -> str:
        return "{" + ", ".join(repr(x) for x in L1.objects if x in c) + "}"

    elems = classes1
    for a in elems:
        if table[(e_class, a)] != a or table[(a, e_class)] != a:
            return VerySpecialReport(False, f"unit law fails at {members(a)}", elems, table, e_class)
    for a in elems:
        for b in elems:
            for c in elems:
                if table[(table[(a, b)], c)] != table[(a, table[(b, c)])]:
                    return VerySpecialReport(False, "operation not associative", elems, table, e_class)
    for a in elems:
        if not any(table[(a, b)] == e_class and table[(b, a)] == e_class for b in elems):
            return VerySpecialReport(False, f"no inverse for {members(a)}", elems, table, e_class)
    return VerySpecialReport(True, "", elems, table, e_class)


# -- path objects for diagrams -------------------------------------------------------


@dataclass
class GammaPathObject:
    base: GammaTruncation
    total: GammaTruncation
    e0: GammaLaxMap
    e1: GammaLaxMap
    i: GammaLaxMap
    level_paths: dict[int, object]


def gamma_path_object(X: GammaTruncation) -> GammaPathObject:
    """Levelwise arrow 2-categories, with the transition functors on squares."""
    paths = {m: path_object(X.level(m)) for m in range(X.cap + 1)}
    levels = [paths[m].total for m in range(X.cap + 1)]
    star = LazyPathGamma(X).star

    def build(phi: PointedMap) -> TwoFunctor:
        return tabulate(levels[phi.m], levels[phi.n], star(phi), f"path({phi})")

    total = GammaTruncation(f"{X.name}^arrow", X.cap, levels, build)

    e0 = lax_map_from_functors(total, X, {m: P.e0 for m, P in paths.items()}, name="e0")
    e1 = lax_map_from_functors(total, X, {m: P.e1 for m, P in paths.items()}, name="e1")
    i = lax_map_from_functors(X, total, {m: P.i for m, P in paths.items()}, name="i")
    return GammaPathObject(X, total, e0, e1, i, paths)


class LazyPathGamma:
    """The levelwise arrow diagram of any diagram, with formula levels."""

    def __init__(self, Z):
        self.Z = Z
        self.cap = Z.cap
        self.name = f"{Z.name}^arrow"
        self.level = cache(self.level)
        self.star = cache(self.star)

    def level(self, m: int) -> CommaFormula:
        L = self.Z.level(m)
        return CommaFormula(L, L, PATH_TAGS)

    def star(self, phi: PointedMap) -> tuple:
        """The cell maps of the transition along phi: both legs and the
        1-cell of an object go along phi in the base."""
        zs, Zn = self.Z.star(phi), self.Z.level(phi.n)
        return comma_map(PATH_TAGS, lambda o: arrow(Zn, zs[1](o[2])), zs, zs)

    def evaluation(self, side: int) -> GammaLaxMap:
        """The strict map extracting the source (side 0) or target (side 1)."""
        leg = (T_LEG, S_LEG)[side]
        return strict_lax_map(self, self.Z, lambda m: leg, name=f"e{side}")


def transformation_to_path_lax(t: GammaTransformation, P: GammaPathObject) -> GammaLaxMap:
    """Encode (h, k, lambda) as a single lax map into the path diagram."""
    X: GammaTruncation = t.h.source
    Y = t.h.target
    h, k = t.h, t.k

    def maps_at(m):
        return into_comma(X.level(m), PATH_TAGS,
                          lambda x: arrow(Y.level(m), t.at(m, x)),
                          k.cell_maps(m), h.cell_maps(m))

    def lax(phi: PointedMap, x):
        return ("p1", P.total.star(phi)[0](lt.cell_maps(phi.m)[0](x)),
                lt.cell_maps(phi.n)[0](X.star(phi)[0](x)), k.lax(phi, x), h.lax(phi, x))

    lt = GammaLaxMap(X, P.total, maps_at, lax, name=f"tilde({t.name})")
    return lt


def path_lax_to_transformation(lt: GammaLaxMap, P: GammaPathObject) -> GammaTransformation:
    """Split a lax map into the path diagram back into (h, k, lambda)."""
    h = compose_lax(P.e0, lt)
    k = compose_lax(P.e1, lt)

    def comp(m, x):
        return lt.cell_maps(m)[0](x)[2]

    return GammaTransformation(h, k, comp, name=f"untilde({lt.name})")


# -- the span construction -----------------------------------------------------------

E_TAGS = ("e0c", "e1c", "e2c")


@dataclass
class ESpan:
    k: GammaLaxMap
    Ek: GammaTruncation
    omega: GammaLaxMap
    nu_bar: GammaLaxMap
    nu: GammaLaxMap
    path: LazyPathGamma


def e_construction(k: GammaLaxMap) -> ESpan:
    """Replace the lax map k: X -> Z by a span of strict maps X <- Ek -> Z.

    Level m is the comma 2-category (id | k_m): objects ``("e0c", x, f, a)``
    with f: a -> k(x), 1-cells ``("e1c", o1, o2, s, r)`` with s in X and r in
    Z forming a commuting square over k, and 2-cells the pairs of 2-cells with
    the matching whisker condition.  The retraction ``omega`` is the S-leg
    and ``nu`` the T-leg; the transitions are built on first use.  Both
    source and target of k must be tabulated truncations; the cell ceiling
    bounds the cells each level lists and, with their composites, holds.
    """
    X: GammaTruncation = k.source
    Z: GammaTruncation = k.target
    levels = [comma(X.level(m), Z.level(m), k.cell_maps(m), E_TAGS, f"E({k.name})({m})")
              for m in range(X.cap + 1)]

    def build(phi: PointedMap) -> TwoFunctor:
        xs, zs = X.star(phi), Z.star(phi)
        Tn = Z.level(phi.n)

        def obj(o):
            _, x, f, a = o
            return ("e0c", xs[0](x), Tn.comp1(k.lax(phi, x), zs[1](f)), zs[0](a))

        S = levels[phi.m]
        return tabulate_comma(S, levels[phi.n], E_TAGS, {o: obj(o) for o in S.objects},
                              xs, zs, f"E({phi})")

    Ek = GammaTruncation(f"E({k.name})", X.cap, levels, build)
    omega = strict_lax_map(Ek, X, lambda m: S_LEG, name="omega")
    nu = strict_lax_map(Ek, Z, lambda m: T_LEG, name="nu")
    path = LazyPathGamma(Z)

    # nu_bar sends (x, f, a) to the arrow f, and a higher cell's S-leg along k
    def nu_bar_maps(m):
        Zm = Z.level(m)
        omap = {o: arrow(Zm, o[2]) for o in levels[m].objects}
        return comma_map(PATH_TAGS, omap.__getitem__, k.cell_maps(m), IDENTITY_MAPS)

    def nu_bar_lax(phi: PointedMap, cell):
        _, x, f, a = cell
        Tn, zs = Z.level(phi.n), Z.star(phi)
        pushed, lax = zs[1](f), k.lax(phi, x)
        return ("p1", arrow(Tn, pushed), arrow(Tn, Tn.comp1(lax, pushed)), lax,
                Tn.id1(zs[0](a)))

    nu_bar = GammaLaxMap(Ek, path, nu_bar_maps, nu_bar_lax, name="nu_bar")
    return ESpan(k, Ek, omega, nu_bar, nu, path)


def validate_espan(span: ESpan) -> ValidationReport:
    """The defining identities of the span: its legs factor the lax map."""
    rep = ValidationReport(f"span for {span.k.name or '?'}")
    X: GammaTruncation = span.k.source
    Z: GammaTruncation = span.k.target
    Ek = span.Ek
    grep = validate_gamma(Ek)
    rep.checked += grep.checked
    if not grep.ok:
        rep.add("structure", f"E-levels invalid: {grep.first()}")
        return rep
    e0 = span.path.evaluation(0)
    e1 = span.path.evaluation(1)
    for m in range(Ek.cap + 1):
        L = Ek.level(m)
        for cells, nu_bar, nu, ev0, k, omega, ev1 in zip(
                (L.objects, L.one_src, L.two_src), span.nu_bar.cell_maps(m),
                span.nu.cell_maps(m), e0.cell_maps(m), span.k.cell_maps(m),
                span.omega.cell_maps(m), e1.cell_maps(m)):
            for cell in cells:
                rep.checked += 2
                nb = nu_bar(cell)
                if nu(cell) != ev0(nb):
                    rep.add("span", f"nu != e0 . nu_bar at level {m}, {cell!r}")
                if k(omega(cell)) != ev1(nb):
                    rep.add("span", f"k . omega != e1 . nu_bar at level {m}, {cell!r}")
    for phi in Ek.all_maps():
        T = Z.level(phi.n)
        for cell in Ek.level(phi.m).objects:
            rep.checked += 2
            if not X.level(phi.n).is_id1(span.omega.lax(phi, cell)):
                rep.add("span", f"omega not strict at {phi}, {cell!r}")
            if not T.is_id1(span.nu.lax(phi, cell)):
                rep.add("span", f"nu not strict at {phi}, {cell!r}")
    vrep = validate_lax_map(span.nu_bar)
    rep.checked += vrep.checked
    if not vrep.ok:
        rep.add("span", f"nu_bar not a lax map: {vrep.first()}")
    return rep


def e_section(span: ESpan) -> GammaLaxMap:
    """The section i: X -> Ek sending x to (x, id, k(x))."""
    X: GammaTruncation = span.k.source
    Z: GammaTruncation = span.k.target
    k = span.k

    # i is strict only when k is; its laxity square inherits k's cells
    def lax(phi: PointedMap, x):
        m, n = phi.m, phi.n
        S = X.level(n)
        T = Z.level(n)
        phix = X.star(phi)[0](x)
        kx_push = Z.star(phi)[0](k.cell_maps(m)[0](x))
        o_src = ("e0c", phix,
                 T.comp1(k.lax(phi, x), T.id1(kx_push)), kx_push)
        o_tgt = sec.cell_maps(n)[0](phix)
        return ("e1c", o_src, o_tgt, S.id1(phix), k.lax(phi, x))

    sec = GammaLaxMap(X, span.Ek, lambda m: comma_section(X.level(m), Z.level(m),
                                                          k.cell_maps(m), E_TAGS),
                      lax, name="section")
    return sec


def e_adjunction_check(span: ESpan) -> ValidationReport:
    """The retraction omega admits a levelwise right adjoint section.

    Builds the section, the comparison cells (id_x, f) toward it, and checks
    the retraction law, 2-naturality, and both triangle identities exactly.
    """
    rep = ValidationReport("levelwise adjunction for omega")
    X: GammaTruncation = span.k.source
    sec = e_section(span)
    Ek = span.Ek
    ident, back = identity_lax_map(Ek), compose_lax(sec, span.omega)
    for m in range(Ek.cap + 1):
        L = Ek.level(m)
        S = X.level(m)
        section, omega = sec.cell_maps(m), span.omega.cell_maps(m)
        # omega . section = identity
        for cells, s, w in zip((S.objects, S.one_src, S.two_src), section, omega):
            for cell in cells:
                rep.checked += 1
                if w(s(cell)) != cell:
                    rep.add("retraction", f"omega.section != id at level {m}, {cell!r}")

        def unit_at(o):
            _, x, f, a = o
            return ("e1c", o, section[0](x), S.id1(x), f)

        for o in L.objects:
            u = unit_at(o)
            rep.checked += 2
            if u not in L.one_src:
                rep.add("unit", f"comparison cell missing at level {m}, {o!r}")
                continue
            # triangle 1: omega of the comparison cell is an identity
            if not S.is_id1(omega[1](u)):
                rep.add("triangle", f"omega(unit) not identity at level {m}, {o!r}")
            # triangle 2: the comparison cell at a section image is an identity
        for x in S.objects:
            rep.checked += 1
            if not L.is_id1(unit_at(section[0](x))):
                rep.add("triangle", f"unit at section image not identity at level {m}, {x!r}")
        # the comparison cells are 2-natural from the identity to section . omega
        scan_naturality(rep, L, L, unit_at, ident.cell_maps(m), back.cell_maps(m),
                        "naturality", f"comparison at level {m}")
    return rep


def e_on_square(span_top: ESpan, span_bot: ESpan, h: GammaLaxMap, j: GammaLaxMap) -> GammaLaxMap:
    """The strict map E(top) -> E(bottom) induced by a commuting square.

    ``h`` and ``j`` are the strict vertical maps around the lax horizontals
    ``span_top.k`` and ``span_bot.k``; the square must commute exactly,
    including structure cells.
    """
    kt, kb = span_top.k, span_bot.k
    X: GammaTruncation = kt.source
    Z: GammaTruncation = kt.target
    for m in range(X.cap + 1):
        kb0, h0, j0, kt0 = (f.cell_maps(m)[0] for f in (kb, h, j, kt))
        for x in X.level(m).objects:
            if kb0(h0(x)) != j0(kt0(x)):
                raise ValueError(f"square does not commute at level {m}, object {x!r}")
    for phi in X.all_maps():
        h0, j1 = h.cell_maps(phi.m)[0], j.cell_maps(phi.n)[1]
        for x in X.level(phi.m).objects:
            if kb.lax(phi, h0(x)) != j1(kt.lax(phi, x)):
                raise ValueError(f"square does not commute laxly at {phi}, {x!r}")

    def maps_at(m):
        hm, jm = h.cell_maps(m), j.cell_maps(m)
        return comma_map(E_TAGS, lambda o: ("e0c", hm[0](o[1]), jm[1](o[2]), jm[0](o[3])),
                         hm, jm)

    return strict_lax_map(span_top.Ek, span_bot.Ek, maps_at, name="E(square)")


def e_of_transformation(span_h: ESpan, span_k: ESpan, t: GammaTransformation) -> GammaLaxMap:
    """The strict map Eh -> Ek induced by a transformation h => k: compose the
    comparison 1-cell into the anchor and keep 1- and 2-cells unchanged."""
    Y = t.h.target

    def maps_at(m):
        T = Y.level(m)
        return comma_map(E_TAGS, lambda o: ("e0c", o[1], T.comp1(t.at(m, o[1]), o[2]), o[3]),
                         IDENTITY_MAPS, IDENTITY_MAPS)

    return strict_lax_map(span_h.Ek, span_k.Ek, maps_at, name=f"E({t.name})")
