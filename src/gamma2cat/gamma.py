"""Truncated diagrams of 2-categories on pointed finite sets.

A truncation stores the levels X(m+) for m up to a cap together with the
transition 2-functor of every pointed map between levels inside the cap.
Reducedness means the level at 0+ is terminal.

Lax maps between such diagrams carry, besides the level 2-functors, a
2-natural structure cell per pointed map; they are represented by callables
so the same code drives both tabulated and formula-defined (lazily
evaluated) targets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .subsets import (PointedMap, all_pointed_maps, fold_map, maps_up_to,
                      pointed_identity, segal_injection)
from .twocat import (
    Cell,
    EquivalenceReport,
    FiniteTwoCategory,
    LazyPathLevel,
    SquareFormula,
    TwoFunctor,
    ValidationReport,
    identity_functor,
    path_object,
    product_two_category,
    pi0,
    tuple_functor,
    two_equivalence_check,
    validate_two_category,
    validate_two_functor,
)


class GammaTruncation:
    """A reduced diagram on pointed sets 0+..N+ with all transition functors.

    ``build`` gives the transition 2-functor of a pointed map inside the cap,
    or ``None`` when the diagram has none; each transition is built whole on
    first use and kept."""

    def __init__(self, name: str, cap: int, levels: list[FiniteTwoCategory],
                 build: Callable[[PointedMap], TwoFunctor | None]):
        if cap < 1 or len(levels) != cap + 1:
            raise ValueError("need one level per 0 <= m <= cap")
        self.name = name
        self.cap = cap
        self.levels = levels
        self._build = build
        self._transitions: dict[PointedMap, TwoFunctor | None] = {}

    def level(self, m: int) -> FiniteTwoCategory:
        return self.levels[m]

    def transition(self, phi: PointedMap) -> TwoFunctor | None:
        """The transition 2-functor along ``phi``, built on first use."""
        try:
            return self._transitions[phi]
        except KeyError:
            F = self._transitions[phi] = self._build(phi)
            return F

    def phi_star(self, phi: PointedMap, dim: int, cell: Cell) -> Cell:
        try:
            F = self._transitions[phi]
        except KeyError:
            F = self.transition(phi)
        return (F.omap, F.fmap, F.amap)[dim][cell]

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
    for m in range(X.cap + 1):
        for n in range(X.cap + 1):
            for p in range(X.cap + 1):
                for phi in all_pointed_maps(m, n):
                    for psi in all_pointed_maps(n, p):
                        rep.checked += 1
                        if X.transition(phi.then(psi)) != X.transition(phi).then(X.transition(psi)):
                            rep.add("functoriality",
                                    f"composition fails at {psi} after {phi}")
    return rep


# -- lax maps -------------------------------------------------------------------


@dataclass
class GammaLaxMap:
    """Levelwise 2-functors with a 2-natural structure cell per pointed map.

    ``apply(m, dim, cell)`` maps a cell of the source level; ``lax(phi, x)``
    is the structure 1-cell  phi_* h_m(x) -> h_n(phi_* x)  in the target
    level at phi.n.
    """

    source: object
    target: object
    _apply: Callable[[int, int, Cell], Cell]
    _lax: Callable[[PointedMap, Cell], Cell]
    name: str = ""

    def apply(self, m: int, dim: int, cell: Cell) -> Cell:
        return self._apply(m, dim, cell)

    def lax(self, phi: PointedMap, x: Cell) -> Cell:
        return self._lax(phi, x)

    def is_strict_on(self, X: GammaTruncation) -> bool:
        for phi in X.all_maps():
            L = self.target.level(phi.n)
            for x in X.level(phi.m).objects:
                if not L.is_id1(self.lax(phi, x)):
                    return False
        return True


def strict_lax_map(X, Y, apply_fn, name="") -> GammaLaxMap:
    def lax(phi: PointedMap, x):
        return Y.level(phi.n).id1(apply_fn(phi.n, 0, X.phi_star(phi, 0, x)))
    return GammaLaxMap(X, Y, apply_fn, lax, name=name)


def lax_map_from_functors(X, Y, functors: dict[int, TwoFunctor], name="") -> GammaLaxMap:
    """A strict map of truncations given by levelwise functor tables."""
    def apply_fn(m, dim, cell):
        F = functors[m]
        return (F.omap, F.fmap, F.amap)[dim][cell]
    return strict_lax_map(X, Y, apply_fn, name=name)


def identity_lax_map(X) -> GammaLaxMap:
    def apply_fn(m, dim, cell):
        return cell
    return strict_lax_map(X, X, apply_fn, name=f"id_{getattr(X, 'name', '?')}")


def compose_lax(j: GammaLaxMap, h: GammaLaxMap) -> GammaLaxMap:
    """The composite j . h, with pasted structure cells."""
    if h.target is not j.source and getattr(h.target, "name", None) != getattr(j.source, "name", None):
        raise ValueError(f"lax maps not composable: {h.name or '?'} does not land "
                         f"in the source of {j.name or '?'}")
    X, Z = h.source, j.target

    def apply_fn(m, dim, cell):
        return j.apply(m, dim, h.apply(m, dim, cell))

    def lax(phi: PointedMap, x):
        n = phi.n
        L = Z.level(n)
        # (jh)_phi(x) = j_n(h_phi(x)) . j_phi(h_m(x))
        return L.comp1(
            j.apply(n, 1, h.lax(phi, x)),
            j.lax(phi, h.apply(phi.m, 0, x)),
        )

    return GammaLaxMap(X, Z, apply_fn, lax, name=f"{j.name}.{h.name}")


def validate_lax_map(h: GammaLaxMap) -> ValidationReport:
    """Check levelwise functoriality, unit and pasting laws, and 2-naturality.

    The source must be a tabulated truncation; the target only needs to
    support the cell operations of its levels.
    """
    X: GammaTruncation = h.source
    Y = h.target
    rep = ValidationReport(f"gamma-lax map {h.name or '?'}")
    for m in range(X.cap + 1):
        S, T = X.level(m), Y.level(m)
        S.fill()
        for x in S.objects:
            h.apply(m, 0, x)  # must not raise
        for f in S.one_src:
            ff = h.apply(m, 1, f)
            rep.checked += 1
            if T.src1(ff) != h.apply(m, 0, S.src1(f)) or T.tgt1(ff) != h.apply(m, 0, S.tgt1(f)):
                rep.add("functor", f"level {m}: 1-cell image endpoints wrong at {f!r}")
        for a in S.two_src:
            fa = h.apply(m, 2, a)
            rep.checked += 1
            if T.src2(fa) != h.apply(m, 1, S.src2(a)) or T.tgt2(fa) != h.apply(m, 1, S.tgt2(a)):
                rep.add("functor", f"level {m}: 2-cell image endpoints wrong at {a!r}")
        for x in S.objects:
            rep.checked += 1
            if h.apply(m, 1, S.id1(x)) != T.id1(h.apply(m, 0, x)):
                rep.add("functor", f"level {m}: identity 1-cell not preserved at {x!r}")
        for f in S.one_src:
            rep.checked += 1
            if h.apply(m, 2, S.id2(f)) != T.id2(h.apply(m, 1, f)):
                rep.add("functor", f"level {m}: identity 2-cell not preserved at {f!r}")
        for (g, f) in S.hcomp1_table:
            rep.checked += 1
            if h.apply(m, 1, S.comp1(g, f)) != T.comp1(h.apply(m, 1, g), h.apply(m, 1, f)):
                rep.add("functor", f"level {m}: composition not preserved at ({g!r},{f!r})")
        for (b, a) in S.vcomp_table:
            rep.checked += 1
            if h.apply(m, 2, S.vcomp(b, a)) != T.vcomp(h.apply(m, 2, b), h.apply(m, 2, a)):
                rep.add("functor", f"level {m}: vcomp not preserved at ({b!r},{a!r})")
        for (b, a) in S.hcomp2_table:
            rep.checked += 1
            if h.apply(m, 2, S.hcomp2(b, a)) != T.hcomp2(h.apply(m, 2, b), h.apply(m, 2, a)):
                rep.add("functor", f"level {m}: hcomp2 not preserved at ({b!r},{a!r})")
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
        for x in S.objects:
            cell = h.lax(phi, x)
            rep.checked += 1
            want_src = Y.phi_star(phi, 0, h.apply(m, 0, x))
            want_tgt = h.apply(n, 0, X.phi_star(phi, 0, x))
            if T.src1(cell) != want_src or T.tgt1(cell) != want_tgt:
                rep.add("lax", f"structure cell at {phi} has wrong endpoints at {x!r}")
        if rep.issues:
            return rep
        for f in S.one_src:
            x, y = S.src1(f), S.tgt1(f)
            rep.checked += 1
            lhs = T.comp1(h.apply(n, 1, X.phi_star(phi, 1, f)), h.lax(phi, x))
            rhs = T.comp1(h.lax(phi, y), Y.phi_star(phi, 1, h.apply(m, 1, f)))
            if lhs != rhs:
                rep.add("lax", f"structure cell at {phi} not natural at 1-cell {f!r}")
        for a in S.two_src:
            f = S.src2(a)
            x, y = S.src1(f), S.tgt1(f)
            rep.checked += 1
            lhs = T.hcomp2(h.apply(n, 2, X.phi_star(phi, 2, a)), T.id2(h.lax(phi, x)))
            rhs = T.hcomp2(T.id2(h.lax(phi, y)), Y.phi_star(phi, 2, h.apply(m, 2, a)))
            if lhs != rhs:
                rep.add("lax", f"structure cell at {phi} not natural at 2-cell {a!r}")

    for m in range(X.cap + 1):
        for n in range(X.cap + 1):
            for p in range(X.cap + 1):
                for phi in all_pointed_maps(m, n):
                    for psi in all_pointed_maps(n, p):
                        T = Y.level(p)
                        comp = phi.then(psi)
                        for x in X.level(m).objects:
                            rep.checked += 1
                            pasted = T.comp1(
                                h.lax(psi, X.phi_star(phi, 0, x)),
                                Y.phi_star(psi, 1, h.lax(phi, x)),
                            )
                            if h.lax(comp, x) != pasted:
                                rep.add("lax-pasting",
                                        f"pasting law fails at {psi} after {phi}, object {x!r}")
    return rep


# -- transformations --------------------------------------------------------------


@dataclass
class GammaTransformation:
    """A modification between parallel lax maps: one 2-natural transformation
    per level, compatible with the structure cells over every pointed map."""

    h: GammaLaxMap
    k: GammaLaxMap
    component: Callable[[int, Cell], Cell]
    name: str = ""

    def at(self, m: int, x: Cell) -> Cell:
        return self.component(m, x)


def identity_transformation(h: GammaLaxMap) -> GammaTransformation:
    def comp(m, x):
        return h.target.level(m).id1(h.apply(m, 0, x))
    return GammaTransformation(h, h, comp, name="id")


def validate_transformation_gamma(t: GammaTransformation) -> ValidationReport:
    rep = ValidationReport(f"gamma transformation {t.name or '?'}")
    X: GammaTruncation = t.h.source
    Y = t.h.target
    for m in range(X.cap + 1):
        S = X.level(m)
        T = Y.level(m)
        for x in S.objects:
            c = t.at(m, x)
            rep.checked += 1
            if T.src1(c) != t.h.apply(m, 0, x) or T.tgt1(c) != t.k.apply(m, 0, x):
                rep.add("structure", f"component at level {m}, {x!r} has wrong endpoints")
        if rep.issues:
            return rep
        for f in S.one_src:
            x, y = S.src1(f), S.tgt1(f)
            rep.checked += 1
            if T.comp1(t.k.apply(m, 1, f), t.at(m, x)) != T.comp1(t.at(m, y), t.h.apply(m, 1, f)):
                rep.add("naturality", f"level {m} naturality fails at {f!r}")
        for a in S.two_src:
            f = S.src2(a)
            x, y = S.src1(f), S.tgt1(f)
            rep.checked += 1
            lhs = T.hcomp2(t.k.apply(m, 2, a), T.id2(t.at(m, x)))
            rhs = T.hcomp2(T.id2(t.at(m, y)), t.h.apply(m, 2, a))
            if lhs != rhs:
                rep.add("naturality", f"level {m} 2-cell naturality fails at {a!r}")
    for phi in X.all_maps():
        m, n = phi.m, phi.n
        T = Y.level(n)
        for x in X.level(m).objects:
            rep.checked += 1
            lhs = T.comp1(t.k.lax(phi, x), Y.phi_star(phi, 1, t.at(m, x)))
            rhs = T.comp1(t.at(n, X.phi_star(phi, 0, x)), t.h.lax(phi, x))
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
    maps = {}
    for phi in X.all_maps():
        F = X.transition(phi)
        Pm, Pn = paths[phi.m], paths[phi.n]
        omap = {f: F.fmap[f] for f in Pm.total.objects}
        fmap = {}
        for key in Pm.total.one_src:
            _, f, g, r, s = key
            fmap[key] = ("p1", F.fmap[f], F.fmap[g], F.fmap[r], F.fmap[s])
        amap = {}
        for key in Pm.total.two_src:
            _, k1, k2, al, be = key
            amap[key] = ("p2", fmap[k1], fmap[k2], F.amap[al], F.amap[be])
        maps[phi] = TwoFunctor(Pm.total, Pn.total, omap, fmap, amap, name=f"path({phi})")
    total = GammaTruncation(f"{X.name}^arrow", X.cap, levels, maps.get)

    e0 = lax_map_from_functors(total, X, {m: P.e0 for m, P in paths.items()}, name="e0")
    e1 = lax_map_from_functors(total, X, {m: P.e1 for m, P in paths.items()}, name="e1")
    i = lax_map_from_functors(X, total, {m: P.i for m, P in paths.items()}, name="i")
    return GammaPathObject(X, total, e0, e1, i, paths)


class LazyPathGamma:
    """The levelwise arrow diagram of any diagram, with formula levels."""

    def __init__(self, Z):
        self.Z = Z
        self.cap = Z.cap
        self.name = f"{getattr(Z, 'name', '?')}^arrow"
        self._levels: dict[int, LazyPathLevel] = {}

    def level(self, m: int) -> LazyPathLevel:
        if m not in self._levels:
            self._levels[m] = LazyPathLevel(self.Z.level(m))
        return self._levels[m]

    def phi_star(self, phi: PointedMap, dim: int, cell):
        Z = self.Z
        if dim == 0:
            return Z.phi_star(phi, 1, cell)
        if dim == 1:
            return ("p1", Z.phi_star(phi, 1, cell[1]), Z.phi_star(phi, 1, cell[2]),
                    Z.phi_star(phi, 1, cell[3]), Z.phi_star(phi, 1, cell[4]))
        return ("p2", self.phi_star(phi, 1, cell[1]), self.phi_star(phi, 1, cell[2]),
                Z.phi_star(phi, 2, cell[3]), Z.phi_star(phi, 2, cell[4]))

    def evaluation(self, side: int) -> GammaLaxMap:
        """The strict map extracting the source (side 0) or target (side 1)."""
        Z = self.Z

        def apply_fn(m, dim, cell):
            if dim == 0:
                return (Z.level(m).src1 if side == 0 else Z.level(m).tgt1)(cell)
            return cell[3 + side]

        return strict_lax_map(self, Z, apply_fn, name=f"e{side}")


def transformation_to_path_lax(t: GammaTransformation, P: GammaPathObject) -> GammaLaxMap:
    """Encode (h, k, lambda) as a single lax map into the path diagram."""
    X: GammaTruncation = t.h.source
    Y: GammaTruncation = t.h.target

    def apply_fn(m, dim, cell):
        S = X.level(m)
        if dim == 0:
            return t.at(m, cell)
        if dim == 1:
            x, y = S.src1(cell), S.tgt1(cell)
            return ("p1", t.at(m, x), t.at(m, y),
                    t.h.apply(m, 1, cell), t.k.apply(m, 1, cell))
        f, g = S.src2(cell), S.tgt2(cell)
        x, y = S.src1(f), S.tgt1(f)
        k1 = ("p1", t.at(m, x), t.at(m, y), t.h.apply(m, 1, f), t.k.apply(m, 1, f))
        k2 = ("p1", t.at(m, x), t.at(m, y), t.h.apply(m, 1, g), t.k.apply(m, 1, g))
        return ("p2", k1, k2, t.h.apply(m, 2, cell), t.k.apply(m, 2, cell))

    def lax(phi: PointedMap, x):
        m, n = phi.m, phi.n
        src = Y.phi_star(phi, 1, t.at(m, x))
        tgt = t.at(n, X.phi_star(phi, 0, x))
        return ("p1", src, tgt, t.h.lax(phi, x), t.k.lax(phi, x))

    return GammaLaxMap(X, P.total, apply_fn, lax, name=f"tilde({t.name})")


def path_lax_to_transformation(lt: GammaLaxMap, P: GammaPathObject) -> GammaTransformation:
    """Split a lax map into the path diagram back into (h, k, lambda)."""
    h = compose_lax(P.e0, lt)
    k = compose_lax(P.e1, lt)

    def comp(m, x):
        return lt.apply(m, 0, x)

    return GammaTransformation(h, k, comp, name=f"untilde({lt.name})")


# -- the span construction -----------------------------------------------------------


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

    Level objects are triples (x, f, a) with f: a -> k(x); 1-cells are pairs
    of 1-cells forming a commuting square over k; 2-cells are pairs of
    2-cells with the matching whisker condition.  Both source and target of
    k must be tabulated truncations.
    """
    X: GammaTruncation = k.source
    Z: GammaTruncation = k.target
    cap = X.cap
    levels = []
    keyed = []
    for m in range(cap + 1):
        S, T = X.level(m), Z.level(m)
        objs = []
        for x in S.objects:
            kx = k.apply(m, 0, x)
            for a in T.objects:
                for f in T.one_cells_between(a, kx):
                    objs.append(("e0c", x, f, a))
        one = {}
        for o1 in objs:
            _, x, f, a = o1
            for o2 in objs:
                _, y, g, b = o2
                for s in S.one_cells_between(x, y):
                    ks = k.apply(m, 1, s)
                    for r in T.one_cells_between(a, b):
                        if T.comp1(g, r) == T.comp1(ks, f):
                            ident = (o1 == o2 and S.is_id1(s) and T.is_id1(r))
                            one[("e1c", o1, o2, s, r)] = (o1, o2, ident)
        two = {}
        for key1, (o1, o2, _) in one.items():
            _, _, _, s, r = key1
            _, x, f, a = o1
            _, y, g, b = o2
            for key2, (p1, p2, _) in one.items():
                if p1 != o1 or p2 != o2:
                    continue
                s2, r2 = key2[3], key2[4]
                for be in S.two_cells_between(s, s2):
                    for al in T.two_cells_between(r, r2):
                        lhs = T.hcomp2(T.id2(g), al)
                        rhs = T.hcomp2(k.apply(m, 2, be), T.id2(f))
                        if lhs == rhs:
                            ident = key1 == key2 and S.is_id2(be) and T.is_id2(al)
                            two[("e2c", key1, key2, be, al)] = (key1, key2, ident)
        levels.append(FiniteTwoCategory(f"E({k.name})({m})", objs, one, two,
                                        formula=SquareFormula(S, T, "e1c", "e2c")))
        keyed.append((objs, one, two))

    maps = {}
    for phi in X.all_maps():
        m, n = phi.m, phi.n
        Sn = X.level(n)
        Tn = Z.level(n)
        omap = {}
        for o in keyed[m][0]:
            _, x, f, a = o
            new_f = Tn.comp1(k.lax(phi, x), Z.phi_star(phi, 1, f))
            omap[o] = ("e0c", X.phi_star(phi, 0, x), new_f, Z.phi_star(phi, 0, a))
        fmap = {}
        for key, (o1, o2, _) in keyed[m][1].items():
            fmap[key] = ("e1c", omap[o1], omap[o2],
                         X.phi_star(phi, 1, key[3]), Z.phi_star(phi, 1, key[4]))
        amap = {}
        for key, (k1, k2, _) in keyed[m][2].items():
            amap[key] = ("e2c", fmap[k1], fmap[k2],
                         X.phi_star(phi, 2, key[3]), Z.phi_star(phi, 2, key[4]))
        maps[phi] = TwoFunctor(levels[m], levels[n], omap, fmap, amap, name=f"E({phi})")
    Ek = GammaTruncation(f"E({k.name})", cap, levels, maps.get)

    def omega_apply(m, dim, cell):
        if dim == 0:
            return cell[1]
        return cell[3]

    omega = strict_lax_map(Ek, X, omega_apply, name="omega")

    path = LazyPathGamma(Z)

    def nu_bar_apply(m, dim, cell):
        if dim == 0:
            return cell[2]
        if dim == 1:
            _, o1, o2, s, r = cell
            return ("p1", o1[2], o2[2], r, k.apply(m, 1, s))
        _, key1, key2, be, al = cell
        return ("p2", nu_bar_apply(m, 1, key1), nu_bar_apply(m, 1, key2),
                al, k.apply(m, 2, be))

    def nu_bar_lax(phi: PointedMap, cell):
        m, n = phi.m, phi.n
        _, x, f, a = cell
        Tn = Z.level(n)
        src_f = Z.phi_star(phi, 1, f)
        tgt_f = Tn.comp1(k.lax(phi, x), src_f)
        return ("p1", src_f, tgt_f,
                Tn.id1(Z.phi_star(phi, 0, a)), k.lax(phi, x))

    nu_bar = GammaLaxMap(Ek, path, nu_bar_apply, nu_bar_lax, name="nu_bar")

    def nu_apply(m, dim, cell):
        if dim == 0:
            return cell[3]
        return cell[4]

    nu = strict_lax_map(Ek, Z, nu_apply, name="nu")
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
        T = Z.level(m)
        for dim, cells in ((0, L.objects), (1, list(L.one_src)), (2, list(L.two_src))):
            for cell in cells:
                rep.checked += 2
                nb = span.nu_bar.apply(m, dim, cell)
                if span.nu.apply(m, dim, cell) != e0.apply(m, dim, nb):
                    rep.add("span", f"nu != e0 . nu_bar at level {m}, {cell!r}")
                lhs = span.k.apply(m, dim, span.omega.apply(m, dim, cell))
                if lhs != e1.apply(m, dim, nb):
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

    def apply_fn(m, dim, cell):
        S = X.level(m)
        T = Z.level(m)
        if dim == 0:
            kx = k.apply(m, 0, cell)
            return ("e0c", cell, T.id1(kx), kx)
        if dim == 1:
            o1 = apply_fn(m, 0, S.src1(cell))
            o2 = apply_fn(m, 0, S.tgt1(cell))
            return ("e1c", o1, o2, cell, k.apply(m, 1, cell))
        k1 = apply_fn(m, 1, S.src2(cell))
        k2 = apply_fn(m, 1, S.tgt2(cell))
        return ("e2c", k1, k2, cell, k.apply(m, 2, cell))

    # i is strict only when k is; its laxity square inherits k's cells
    def lax(phi: PointedMap, x):
        m, n = phi.m, phi.n
        S = X.level(n)
        T = Z.level(n)
        phix = X.phi_star(phi, 0, x)
        kx_push = Z.phi_star(phi, 0, k.apply(m, 0, x))
        o_src = ("e0c", phix,
                 T.comp1(k.lax(phi, x), T.id1(kx_push)), kx_push)
        o_tgt = apply_fn(n, 0, phix)
        return ("e1c", o_src, o_tgt, S.id1(phix), k.lax(phi, x))

    return GammaLaxMap(X, span.Ek, apply_fn, lax, name="section")


def e_adjunction_check(span: ESpan) -> ValidationReport:
    """The retraction omega admits a levelwise right adjoint section.

    Builds the section, the comparison cells (id_x, f) toward it, and checks
    the retraction law, 2-naturality, and both triangle identities exactly.
    """
    rep = ValidationReport("levelwise adjunction for omega")
    X: GammaTruncation = span.k.source
    sec = e_section(span)
    Ek = span.Ek
    for m in range(Ek.cap + 1):
        L = Ek.level(m)
        S = X.level(m)
        # omega . section = identity
        for dim, cells in ((0, S.objects), (1, list(S.one_src)), (2, list(S.two_src))):
            for cell in cells:
                rep.checked += 1
                if span.omega.apply(m, dim, sec.apply(m, dim, cell)) != cell:
                    rep.add("retraction", f"omega.section != id at level {m}, {cell!r}")

        def unit_at(o):
            _, x, f, a = o
            return ("e1c", o, sec.apply(m, 0, x), S.id1(x), f)

        for o in L.objects:
            u = unit_at(o)
            rep.checked += 2
            if u not in L.one_src:
                rep.add("unit", f"comparison cell missing at level {m}, {o!r}")
                continue
            # triangle 1: omega of the comparison cell is an identity
            if not S.is_id1(span.omega.apply(m, 1, u)):
                rep.add("triangle", f"omega(unit) not identity at level {m}, {o!r}")
            # triangle 2: the comparison cell at a section image is an identity
        for x in S.objects:
            rep.checked += 1
            if not L.is_id1(unit_at(sec.apply(m, 0, x))):
                rep.add("triangle", f"unit at section image not identity at level {m}, {x!r}")
        # 2-naturality of the comparison cells
        for key in L.one_src:
            _, o1, o2, s, r = key
            rep.checked += 1
            lhs = L.comp1(sec.apply(m, 1, span.omega.apply(m, 1, key)), unit_at(o1))
            rhs = L.comp1(unit_at(o2), key)
            if lhs != rhs:
                rep.add("naturality", f"comparison not natural at level {m}, {key!r}")
        for key in L.two_src:
            f1, g1 = L.src2(key), L.tgt2(key)
            o1 = L.one_src[f1]
            o2 = L.one_tgt[f1]
            rep.checked += 1
            lhs = L.hcomp2(L.id2(unit_at(o2)), key)
            rhs = L.hcomp2(sec.apply(m, 2, span.omega.apply(m, 2, key)), L.id2(unit_at(o1)))
            if lhs != rhs:
                rep.add("naturality", f"comparison not natural at 2-cell, level {m}, {key!r}")
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
        for x in X.level(m).objects:
            if kb.apply(m, 0, h.apply(m, 0, x)) != j.apply(m, 0, kt.apply(m, 0, x)):
                raise ValueError(f"square does not commute at level {m}, object {x!r}")
    for phi in X.all_maps():
        T = kb.target.level(phi.n)
        for x in X.level(phi.m).objects:
            lhs = kb.lax(phi, h.apply(phi.m, 0, x))
            rhs = j.apply(phi.n, 1, kt.lax(phi, x))
            if lhs != rhs:
                raise ValueError(f"square does not commute laxly at {phi}, {x!r}")

    def apply_fn(m, dim, cell):
        if dim == 0:
            _, x, f, a = cell
            return ("e0c", h.apply(m, 0, x), j.apply(m, 1, f), j.apply(m, 0, a))
        if dim == 1:
            _, o1, o2, s, r = cell
            return ("e1c", apply_fn(m, 0, o1), apply_fn(m, 0, o2),
                    h.apply(m, 1, s), j.apply(m, 1, r))
        _, k1, k2, be, al = cell
        return ("e2c", apply_fn(m, 1, k1), apply_fn(m, 1, k2),
                h.apply(m, 2, be), j.apply(m, 2, al))

    return strict_lax_map(span_top.Ek, span_bot.Ek, apply_fn, name="E(square)")


def e_of_transformation(span_h: ESpan, span_k: ESpan, t: GammaTransformation) -> GammaLaxMap:
    """The strict map Eh -> Ek induced by a transformation h => k: compose the
    comparison 1-cell into the anchor and keep 1- and 2-cells unchanged."""
    Y = t.h.target

    def apply_fn(m, dim, cell):
        T = Y.level(m)
        if dim == 0:
            _, x, f, a = cell
            return ("e0c", x, T.comp1(t.at(m, x), f), a)
        if dim == 1:
            _, o1, o2, s, r = cell
            return ("e1c", apply_fn(m, 0, o1), apply_fn(m, 0, o2), s, r)
        _, k1, k2, be, al = cell
        return ("e2c", apply_fn(m, 1, k1), apply_fn(m, 1, k2), be, al)

    return strict_lax_map(span_h.Ek, span_k.Ek, apply_fn, name=f"E({t.name})")
