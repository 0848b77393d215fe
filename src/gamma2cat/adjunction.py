"""The comparison between a diagram and the K-theory of its inverse
construction: the lax unit, the counit, and both triangle identities.

The unit sends a level cell to the system of all its projections; its
structure cell at a pointed map is carried by the reindexed restriction of
that map.  The counit evaluates systems at full subsets and sums the
results, with partition cells providing the comparison along block maps.

Everything here is computed cell-by-cell through the lazily evaluated
Grothendieck construction, so no infinite structure is materialized; the
triangle scans quantify over the cells of tabulated inputs only.
"""

from __future__ import annotations

from functools import cache, lru_cache, partial

from .subsets import (
    PointedMap,
    Subset,
    disjoint_pairs,
    nonempty_subsets_of,
    union,
)
from .twocat import ValidationReport, vertical_inverse, vseq, whisker_l, whisker_r
from .monoidal import sum_many_obj, sum_many_two, sum_one_cells
from .ktheory import (
    LazyKtGamma,
    SystemMap,
    kt_gamma,
    mk_system,
    mk_system_map,
    mk_system_two_cell,
    partition_cell,
    partition_filling,
    reindex_system,
    validate_system,
    validate_system_map,
    validate_system_two_cell,
)
from .inversek import (
    AMorphism,
    BoundedGroth,
    GrothPerm,
    POfLax,
    a_compose,
    a_identity,
    ax_apply,
    decompose,
    mk_amorphism,
    mk_groth_obj,
    mk_groth_one,
    mk_groth_two,
)
from .gamma import GammaLaxMap, GammaTransformation, compose_lax, strict_lax_map


# -- reindexing maps -----------------------------------------------------------------


@lru_cache(maxsize=None)
def pi_s(m: int, s: Subset) -> PointedMap:
    """The unique surjective order-preserving map m+ -> |s|+ killing the
    complement of s."""
    if any(i < 1 or i > m for i in s):
        raise ValueError(f"{s!r} is not a subset of 1..{m}")
    pos = {e: k + 1 for k, e in enumerate(s)}
    return PointedMap(m, len(s), tuple(pos.get(i, 0) for i in range(1, m + 1)))


@lru_cache(maxsize=None)
def pi_st(s: Subset, t: Subset) -> AMorphism:
    """The block map splitting the ordered union of two disjoint subsets."""
    if set(s) & set(t):
        raise ValueError("subsets must be disjoint")
    st = union(s, t)
    src = (len(st),) if st else ()
    blocks = [b for b in (s, t) if b]
    tgt = tuple(len(b) for b in blocks)
    row = []
    for e in st:
        for j, b in enumerate(blocks):
            if e in b:
                row.append((j, b.index(e) + 1))
                break
    table = (tuple(row),) if st else ()
    return mk_amorphism(src, tgt, table)


def phi_s(phi: PointedMap, s: Subset) -> PointedMap:
    """The reindexed restriction of a pointed map over a target subset; the
    defining square against the two projections is asserted."""
    pre = phi.preimage(s)
    imgs = tuple(s.index(phi(e)) + 1 for e in pre)
    out = PointedMap(len(pre), len(s), imgs)
    if pi_s(phi.m, pre).then(out) != phi.then(pi_s(phi.n, s)):
        raise AssertionError("restriction square does not commute")
    return out


def pointed_to_block(pm: PointedMap) -> AMorphism:
    """View a basepoint-avoiding pointed map as a single-block map."""
    src = (pm.m,) if pm.m else ()
    tgt = (pm.n,) if pm.n else ()
    if any(v == 0 for v in pm.imgs):
        raise ValueError("map hits the basepoint; not a block map")
    table = (tuple((0, v) for v in pm.imgs),) if pm.m else ()
    return mk_amorphism(src, tgt, table)


def check_projection_coherence(X, m: int, s: Subset, t: Subset, x) -> bool:
    """Splitting the union projection recovers the pair of projections."""
    st = union(s, t)
    pushed = ax_apply(X, pi_st(s, t), 0, (X.star(pi_s(m, st))[0](x),))
    want = tuple(
        X.star(pi_s(m, b))[0](x) for b in (s, t) if b
    )
    return pushed == want


# -- the unit ---------------------------------------------------------------------


_ETA_CACHE: dict = {}


def eta_on_cell(X, PX: GrothPerm, m: int, dim: int, cell):
    """The unit on a single level cell: the system of all projections."""
    key = (X, PX, m, dim, cell)
    cached = _ETA_CACHE.get(key)
    if cached is not None:
        return cached
    out = _eta_on_cell(X, PX, m, dim, cell)
    _ETA_CACHE[key] = out
    return out


def _eta_on_cell(X, PX: GrothPerm, m: int, dim: int, cell):
    subs = nonempty_subsets_of(m)
    projs = [X.star(pi_s(m, s))[dim](cell) for s in subs]
    if dim == 0:
        x = {s: mk_groth_obj((len(s),), (p,)) for s, p in zip(subs, projs)}
        c = []
        for (s, t) in disjoint_pairs(m):
            src_obj = x[union(s, t)]
            tgt_obj = PX.sum_obj(x[s], x[t])
            pushed = ax_apply(X, pi_st(s, t), 0, src_obj.xs)
            if pushed != tgt_obj.xs:
                raise AssertionError("projection coherence fails; invalid diagram")
            fs = tuple(
                X.level(mm).id1(xx) for mm, xx in zip(tgt_obj.mvec, tgt_obj.xs)
            )
            c.append(mk_groth_one(pi_st(s, t), src_obj, tgt_obj, fs))
        return mk_system(m, tuple(x.values()), tuple(c))
    # a 1-cell's components run between its end systems' components, and a
    # 2-cell's between its end maps' components
    L = X.level(m)
    ends = (L.src1, L.tgt1) if dim == 1 else (L.src2, L.tgt2)
    src, tgt = (eta_on_cell(X, PX, m, dim - 1, end(cell)) for end in ends)
    if dim == 1:
        return mk_system_map(m, src, tgt, tuple(
            mk_groth_one(a_identity((len(s),)), a, b, (p,))
            for s, a, b, p in zip(subs, src.x, tgt.x, projs)), None)
    return mk_system_two_cell(m, src, tgt, tuple(
        mk_groth_two(a, b, (p,)) for a, b, p in zip(src.f, tgt.f, projs)))


_ETA_PHI_CACHE: dict = {}


def eta_phi(X, PX: GrothPerm, phi: PointedMap, x) -> SystemMap:
    """The structure cell of the unit at a pointed map: componentwise the
    reindexed restriction, with identity second components."""
    key = (X, PX, phi, x)
    cached = _ETA_PHI_CACHE.get(key)
    if cached is not None:
        return cached
    m, n = phi.m, phi.n
    src_sys = reindex_system(PX, eta_on_cell(X, PX, m, 0, x), phi)
    phix = X.star(phi)[0](x)
    tgt_sys = eta_on_cell(X, PX, n, 0, phix)
    f = []
    for s, src_obj, tgt_obj in zip(nonempty_subsets_of(n), src_sys.x, tgt_sys.x):
        block = pointed_to_block(phi_s(phi, s))
        if ax_apply(X, block, 0, src_obj.xs) != tgt_obj.xs:
            raise AssertionError("restriction square fails; invalid diagram")
        fs = tuple(
            X.level(mm).id1(xx) for mm, xx in zip(tgt_obj.mvec, tgt_obj.xs)
        )
        f.append(mk_groth_one(block, src_obj, tgt_obj, fs))
    out = mk_system_map(n, src_sys, tgt_sys, tuple(f), None)
    _ETA_PHI_CACHE[key] = out
    return out


def unit_map(X, PX: GrothPerm | None = None, KPX=None) -> GammaLaxMap:
    """The unit as a lax map from a tabulated diagram into the K-theory of
    its inverse construction (lazily evaluated by default)."""
    PX = PX or GrothPerm(X)
    KPX = KPX if KPX is not None else LazyKtGamma(PX, X.cap, name=f"KP({X.name})")

    def maps(m):
        return tuple(partial(eta_on_cell, X, PX, m, dim) for dim in range(3))

    def lax(phi: PointedMap, x):
        return eta_phi(X, PX, phi, x)

    return GammaLaxMap(X, KPX, maps, lax, name=f"unit({X.name})")


def validate_unit_cell(X, PX: GrothPerm, m: int, dim: int, cell) -> ValidationReport:
    """Re-validate a unit image as a K-level cell over the inverse construction."""
    out = eta_on_cell(X, PX, m, dim, cell)
    if dim == 0:
        return validate_system(PX, out)
    if dim == 1:
        return validate_system_map(PX, out)
    return validate_system_two_cell(PX, out)


# -- the naturality transformation --------------------------------------------------


def _systemwise(on) -> tuple:
    """The cell maps of K-theory levels that map each component of a cell
    through the strict carrier cell map ``on(dim, c)``."""
    on0, on1, on2 = (partial(on, dim) for dim in range(3))

    def obj(sys):
        return mk_system(sys.n, tuple(map(on0, sys.x)), tuple(map(on1, sys.c)))

    def one(mp):
        return mk_system_map(mp.n, obj(mp.src), obj(mp.tgt), tuple(map(on1, mp.f)), None)

    def two(cell):
        return mk_system_two_cell(cell.n, one(cell.src), one(cell.tgt),
                                  tuple(map(on2, cell.alpha)))

    return (obj, one, two)


def k_of_p_of_lax(ph, KPX, KPY) -> GammaLaxMap:
    """Apply a strict monoidal functor between inverse constructions
    levelwise to K-theory systems."""
    maps = _systemwise(ph.on)
    return strict_lax_map(KPX, KPY, lambda m: maps, name="KP(h)")


def lambda_of(h: GammaLaxMap) -> GammaTransformation:
    """The comparison between the two unit routes around a lax map: at each
    object, the system whose components carry the structure cells of the map
    at the projections.

    The returned transformation relates unit-after-map to image-after-unit;
    it is the identity exactly when the map is strict.
    """
    X, Y = h.source, h.target
    PX, PY = GrothPerm(X), GrothPerm(Y)
    KPX = LazyKtGamma(PX, X.cap, name="KPX")
    KPY = LazyKtGamma(PY, Y.cap, name="KPY")
    eta_x = unit_map(X, PX, KPX)
    eta_y = unit_map(Y, PY, KPY)
    ph = POfLax(h, PX, PY)
    kph = k_of_p_of_lax(ph, KPX, KPY)
    left = compose_lax(eta_y, h)
    right = compose_lax(kph, eta_x)

    def component(m, x):
        src_sys = left.cell_maps(m)[0](x)
        tgt_sys = right.cell_maps(m)[0](x)
        return mk_system_map(m, src_sys, tgt_sys, tuple(
            mk_groth_one(a_identity((len(s),)), a, b, (h.lax(pi_s(m, s), x),))
            for s, a, b in zip(nonempty_subsets_of(m), src_sys.x, tgt_sys.x)), None)

    return GammaTransformation(left, right, component, name=f"lambda({h.name})")


# -- the counit -------------------------------------------------------------------


class Counit:
    """Evaluation-then-sum from the K-theory of a permutative carrier back to
    the carrier.

    On strict system maps every component is a strict 2-functor and every
    structure cell strictly 2-natural; on system maps with filling cells the
    structure cells acquire pseudonaturality 2-cells, available through
    ``psnat`` (components and composition law only)."""

    def __init__(self, C):
        self.C = C
        # system reindexing, as a diagram for block application
        self.diagram = LazyKtGamma(C, 0)
        # structure cells keyed by (block map, interned systems): the
        # triangle scans ask for the same ones many times over
        self.laxity = cache(self.laxity)

    # -- evaluation at the full subset

    def full_eval(self, m: int, dim: int, cell):
        C = self.C
        full = tuple(range(1, m + 1))
        if dim == 0:
            return cell.x_at(C, full)
        if dim == 1:
            return cell.f_at(C, full)
        return cell.alpha_at(C, full)

    def on_tuple(self, mvec: tuple, dim: int, cells: tuple):
        C = self.C
        evs = [self.full_eval(m, dim, c) for m, c in zip(mvec, cells)]
        if dim == 0:
            return sum_many_obj(C, evs)
        if dim == 1:
            return sum_one_cells(C, evs)
        return sum_many_two(C, evs)

    # -- structure cells along block maps

    def laxity(self, phim: AMorphism, systems: tuple):
        """The comparison 1-cell from the summed evaluation to the evaluation
        of the pushforward: blockwise partition cells, then the braiding
        reordering."""
        C = self.C
        dec = decompose(phim)
        total = sum_one_cells(C, [
            partition_cell(C, sys, tuple(range(1, m + 1)), parts)
            for m, sys, parts in zip(phim.src, systems, dec.parts)
        ])
        factors = [sys.x_at(C, p) for sys, parts in zip(systems, dec.parts) for p in parts]
        out = C.comp1(perm_beta(C, factors, _block_order(dec)), total)
        pushed = ax_apply(self.diagram, phim, 0, systems)
        want_tgt = sum_many_obj(C, [
            sys.x_at(C, tuple(range(1, n + 1))) for n, sys in zip(phim.tgt, pushed)
        ])
        if C.tgt1(out) != want_tgt:
            raise AssertionError("structure cell endpoint mismatch")
        return out

    def composition_law_holds(self, psim: AMorphism, phim: AMorphism,
                              systems: tuple) -> bool:
        """The structure cell of a composite equals the evident pasting."""
        C = self.C
        lhs = self.laxity(a_compose(psim, phim), systems)
        pushed = ax_apply(self.diagram, phim, 0, systems)
        rhs = C.comp1(self.laxity(psim, pushed), self.laxity(phim, systems))
        return lhs == rhs

    # -- action on cells of the Grothendieck construction

    def on_groth(self, dim: int, cell):
        C = self.C
        if dim == 0:
            return self.on_tuple(cell.mvec, 0, cell.xs)
        if dim == 1:
            main = self.on_tuple(cell.tgt.mvec, 1, cell.fs)
            return C.comp1(main, self.laxity(cell.phim, cell.src.xs))
        main = self.on_tuple(cell.src.tgt.mvec, 2, cell.alphas)
        return whisker_r(C, main, self.laxity(cell.src.phim, cell.src.src.xs))

    # -- pseudonaturality for cubical carriers

    def psnat(self, phim: AMorphism, sysmaps: tuple):
        """The pseudonaturality 2-cell of a structure cell at a tuple of
        system maps; the identity when none of them has filling cells.

        Runs from 'structure cell after summed evaluation' to 'evaluated
        pushforward after structure cell'."""
        C = self.C
        src_systems = tuple(mp.src for mp in sysmaps)
        tgt_systems = tuple(mp.tgt for mp in sysmaps)
        lax_src = self.laxity(phim, src_systems)
        lax_tgt = self.laxity(phim, tgt_systems)
        f_total = self.on_tuple(phim.src, 1, sysmaps)
        pushed = ax_apply(self.diagram, phim, 1, sysmaps)
        g_total = sum_one_cells(C, [
            mp.f_at(C, tuple(range(1, n + 1))) for n, mp in zip(phim.tgt, pushed)
        ])
        if all(mp.gamma is None for mp in sysmaps):
            lhs = C.comp1(lax_tgt, f_total)
            rhs = C.comp1(g_total, lax_src)
            if lhs != rhs:
                raise AssertionError("strict naturality fails on strict system maps")
            return C.id2(lhs)
        return self._psnat_gray(phim, sysmaps, lax_src, lax_tgt, f_total, g_total)

    def _psnat_gray(self, phim, sysmaps, lax_src, lax_tgt, f_total, g_total):
        C = self.C
        dec = decompose(phim)
        squares = []
        for m, mp, parts in zip(phim.src, sysmaps, dec.parts):
            full = tuple(range(1, m + 1))
            delta = partition_filling(C, mp, full, parts)
            F_i = sum_one_cells(C, [mp.f_at(C, p) for p in parts])
            c_i = partition_cell(C, mp.src, full, parts)
            d_i = partition_cell(C, mp.tgt, full, parts)
            squares.append((F_i, c_i, d_i, mp.f_at(C, full), delta))
        big = sum_of_squares(C, squares)
        big_inv = vertical_inverse(C, big)
        if big_inv is None:
            raise AssertionError("partition filling sum not invertible")
        # factor list for the reordering, against the part components
        factors = [mp.f_at(C, p) for mp, parts in zip(sysmaps, dec.parts) for p in parts]
        perm = _block_order(dec)
        beta_tgt = perm_beta(C, [C.tgt1(u) for u in factors], perm)
        nat = beta_nat_pasting(C, factors, perm)
        c_total = sum_one_cells(C, [q[1] for q in squares])
        th1 = whisker_l(C, beta_tgt, big_inv)
        th2 = whisker_r(C, nat, c_total)
        out = vseq(C, th1, th2)
        if C.src2(out) != C.comp1(lax_tgt, f_total) or \
           C.tgt2(out) != C.comp1(g_total, lax_src):
            raise AssertionError("pseudonaturality cell endpoints mismatch")
        return out


# -- permutation machinery for the braiding ------------------------------------------


def _block_order(dec) -> list[int]:
    """perm[k] = the final position of the k-th part, source-major, once the
    parts are ordered by the target block they are sent to."""
    keys = [j for hits in dec.hit_sets for j in hits]
    rank = {j: pos for pos, j in enumerate(sorted(keys))}
    return [rank[j] for j in keys]


def _adjacent_swaps(perm: list[int]):
    """The positions p of the adjacent swaps, in bubble-sort order, that
    carry summand k to position perm[k]; each p is yielded before its swap."""
    current = list(perm)
    changed = True
    while changed:
        changed = False
        for p in range(len(current) - 1):
            if current[p] > current[p + 1]:
                yield p
                current[p], current[p + 1] = current[p + 1], current[p]
                changed = True


def perm_beta(C, objs: list, perm: list[int]):
    """The canonical braiding 1-cell realizing a permutation of summands,
    composed from adjacent swaps in bubble-sort order."""
    values = list(objs)
    total = C.id1(sum_many_obj(C, values))
    for p in _adjacent_swaps(perm):
        comp = C.beta_obj(values[p], values[p + 1])
        step = C.lsum_one(sum_many_obj(C, values[:p]),
                          C.rsum_one(comp, sum_many_obj(C, values[p + 2:])))
        total = C.comp1(step, total)
        values[p], values[p + 1] = values[p + 1], values[p]
    return total


def beta_nat_pasting(C, factors: list, perm: list[int]):
    """The naturality cell of the permutation braiding against a canonical
    sum of 1-cells, assembled from interchangers at adjacent swaps, each
    whiskered by the canonical sums of the factors already moved (before p)
    and still to move (after p + 1).

    Supported whenever every braiding component involved is an identity
    1-cell (one-object cubical carriers and all product carriers); other
    cases are outside the computable fragment of this artifact."""
    cells = list(factors)
    acc = C.id2(sum_one_cells(C, cells))
    for p in _adjacent_swaps(perm):
        u, v = cells[p], cells[p + 1]
        bcomp = C.beta_obj(C.src1(u), C.src1(v))
        if not C.is_id1(bcomp) or not C.is_id1(C.beta_obj(C.tgt1(u), C.tgt1(v))):
            raise NotImplementedError(
                "braiding naturality pasting needs identity components"
            )
        left_objs = [C.tgt1(x) for x in cells[:p]]
        right_objs = [C.src1(x) for x in cells[p + 2:]]
        padded_u = C.lsum_one(sum_many_obj(C, left_objs), u)
        padded_v = C.rsum_one(v, sum_many_obj(C, right_objs))
        step = C.sigma_inv(padded_u, padded_v)
        if cells[p + 2:]:
            suffix = C.lsum_one(sum_many_obj(C, [C.tgt1(x) for x in cells[:p + 2]]),
                                sum_one_cells(C, cells[p + 2:]))
            step = whisker_l(C, suffix, step)
        if cells[:p]:
            prefix = C.rsum_one(sum_one_cells(C, cells[:p]),
                                sum_many_obj(C, [C.src1(x) for x in cells[p:]]))
            step = whisker_r(C, step, prefix)
        acc = C.vcomp(step, acc)
        cells[p], cells[p + 1] = cells[p + 1], cells[p]
    return acc


def sum_of_squares(C, squares: list):
    """Combine per-block filling squares into one filling for the canonical
    sums: from (sum F_i).(sum c_i) to (sum d_i).(sum f_i)."""
    if not squares:
        return C.id2(C.id1(C.unit_obj()))
    if len(squares) == 1:
        return squares[0][4]
    F1, c1, d1, f1, delta1 = squares[0]
    rest = sum_of_squares(C, squares[1:])
    F_R = sum_one_cells(C, [q[0] for q in squares[1:]])
    c_R = sum_one_cells(C, [q[1] for q in squares[1:]])
    d_R = sum_one_cells(C, [q[2] for q in squares[1:]])
    f_R = sum_one_cells(C, [q[3] for q in squares[1:]])
    t1 = C.tgt1(F1)
    aR = C.src1(c_R)
    th1 = whisker_l(C, C.lsum_one(t1, F_R),
                    whisker_r(C, C.sigma(F1, c_R), C.rsum_one(c1, aR)))
    th2 = C.hcomp2(C.lsum_two(t1, rest), C.rsum_two(delta1, aR))
    th3 = whisker_l(C, C.lsum_one(C.tgt1(d1), d_R),
                    whisker_r(C, C.sigma_inv(d1, f_R), C.rsum_one(f1, aR)))
    return vseq(C, th1, th2, th3)


# -- triangle identities ---------------------------------------------------------------


def triangle_K(C, nmax: int) -> ValidationReport:
    """The first triangle: mapping a K-theory cell through the unit and then
    the K-image of the counit returns it unchanged, and the whiskered
    structure cells of the unit collapse to identities."""
    rep = ValidationReport(f"triangle (counit after unit) for {C.name}")
    KC = kt_gamma(C, nmax)
    PKC = GrothPerm(KC)
    eps = Counit(C)
    k_eps = _systemwise(eps.on_groth)

    for m in range(nmax + 1):
        L = KC.level(m)
        for dim, (cells, back) in enumerate(zip((L.objects, L.one_src, L.two_src), k_eps)):
            for cell in cells:
                rep.checked += 1
                if back(eta_on_cell(KC, PKC, m, dim, cell)) != cell:
                    rep.add("triangle", f"level {m} dim {dim}: {cell!r} not fixed")
    for phi in KC.all_maps():
        for x in KC.level(phi.m).objects:
            rep.checked += 1
            structure = eta_phi(KC, PKC, phi, x)
            mapped = [
                eps.on_groth(1, structure.f_at(PKC, s))
                for s in nonempty_subsets_of(phi.n)
            ]
            if not all(C.is_id1(v) for v in mapped):
                rep.add("triangle-lax", f"unit structure cell at {phi} not collapsed at {x!r}")
    return rep


def triangle_P(X, L: int, E: int) -> ValidationReport:
    """The second triangle: mapping a bounded cell of the inverse
    construction through the image of the unit and then the counit returns
    it unchanged."""
    rep = ValidationReport(f"triangle (counit after unit image) for {X.name}")
    PX = GrothPerm(X)
    B = BoundedGroth(X, L, E)
    KPX = LazyKtGamma(PX, X.cap)
    eta = unit_map(X, PX, KPX)
    PKPX = GrothPerm(KPX)
    peta = POfLax(eta, PX, PKPX)
    eps = Counit(PX)

    for dim, buckets in enumerate(B.cells):
        what = ("object", "1-cell", "2-cell")[dim]
        for cells in buckets.values():
            for c in cells:
                rep.checked += 1
                if eps.on_groth(dim, peta.on(dim, c)) != c:
                    rep.add("triangle", f"{what} {c!r} not fixed")
    return rep


def bounded_unit_target(X, L: int, E: int):
    """Materialize the K-theory of the bounded inverse construction as the
    subdiagram generated by the unit's image; the unit then lands in a
    tabulated truncation, which the span machinery requires."""
    # looked up at call time, so a rebinding of the module attribute (the
    # traced benchmark) takes effect
    from .ktheory import generated_kt_truncation
    B = BoundedGroth(X, L, E)
    PX = GrothPerm(X)
    seeds = {
        m: [eta_on_cell(X, PX, m, 0, x) for x in X.level(m).objects]
        for m in range(X.cap + 1)
    }
    target = generated_kt_truncation(B, X.cap, seeds, name=f"KP({X.name})|unit")
    return unit_map(X, PX, target), target
