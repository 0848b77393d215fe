"""Level-by-level K-theory of permutative structures.

A level at n+ has objects the subset systems {x_s, c_{s,t}} indexed by
subsets of {1..n}, 1-cells the systems of maps between them (with filling
2-cells over the cubical carrier, or strictly commuting squares over a
product carrier), and componentwise 2-cells.  A 1-cell records its flavor
(``gamma`` is None when strict), so only the builders take one, and
``LazyKtLevel`` is the one formula for identities and composites.

Orientation conventions (matching monoidal.py):

* ``c[s,t]: x_{s+t} -> x_s (+) x_t``;
* the filling cell ``gamma[s,t]`` runs
  ``(1 (+) f_t).(f_s (+) 1).c[s,t]  =>  c'[s,t].f_{s+t}``;
* the swapped cell ``gamma[t,s]`` is determined from ``gamma[s,t]`` by the
  braiding/interchanger pasting and is never enumerated independently.

Systems, 1-cells and 2-cells are enumerated by one placement search: it
places ``x_s`` then the canonical ``c[s,t]`` (with ``c[t,s]`` derived), or
``f_s`` then the canonical ``gamma[s,t]``, or ``alpha_s``, and checks each
law instance as soon as the slot completing it is placed:

* ``x_{s+t}``: a connecting cell ``x_{s+t} -> x_s (+) x_t`` exists;
* ``c[s,t]``: the system cocycles it completes;
* ``f_{s+t}``: the strict square at (s, t), or, over a cubical carrier,
  that the square admits an invertible filler;
* ``gamma[s,t]``: the filling-cell cocycles it completes;
* ``alpha_{s+t}``: the compatibility square at (s, t).

Each law is written once and shared with the validators, which judge the
cells that do not come from the search; the search is the only checker of the
cells it emits, closing each instance they check once (see ``_search``).
Enumeration is exhaustive up to the ceiling of the ``twocat.cell_ceiling`` scope
a search or build starts in; exceeding it aborts loudly, never truncates silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache, partial
from itertools import starmap
from operator import itemgetter

from .subsets import (
    PointedMap,
    Subset,
    disjoint_pairs,
    disjoint_triples,
    maps_up_to,
    nonempty_subsets_of,
    subset_key,
    union,
)
from .twocat import (
    Cell,
    CellCeilingExceeded,
    FieldEndpoints,
    FiniteTwoCategory,
    IDENTITY_MAPS,
    InternedCell,
    TwoFunctor,
    ValidationReport,
    current_cell_ceiling,
    scan_laws,
    tabulate,
    vertical_inverse,
    vseq,
    whisker_l,
    whisker_r,
)
from .monoidal import (
    VARIANTS,
    MonoidalFunctor,
    PermutativeGrayMonoid,
    PermutativeTwoCategory,
    promote,
    sum_one_cells,
)
from .gamma import GammaTruncation


@lru_cache(maxsize=None)
def _sub_index(n: int) -> dict[Subset, int]:
    return {s: i for i, s in enumerate(nonempty_subsets_of(n))}


@lru_cache(maxsize=None)
def _pair_index(n: int) -> dict[tuple[Subset, Subset], int]:
    return {p: i for i, p in enumerate(disjoint_pairs(n))}


@dataclass(frozen=True, eq=False, slots=True)
class SubsetSystem(InternedCell):
    """The object data {x_s, c_{s,t}} of a level, stored positionally in the
    canonical subset order (the empty-subset entries are derived)."""

    n: int
    x: tuple
    c: tuple

    def x_at(self, C, s: Subset):
        if not s:
            return C.unit_obj()
        return self.x[_sub_index(self.n)[s]]

    def c_at(self, C, s: Subset, t: Subset):
        if not s or not t:
            return C.id1(self.x_at(C, union(s, t)))
        return self.c[_pair_index(self.n)[(s, t)]]


SubsetSystem._pool = {}


@dataclass(frozen=True, eq=False, slots=True)
class SystemMap(InternedCell):
    """A 1-cell of a level: components f_s with filling cells gamma (cubical
    carrier) or gamma=None (strict squares over a product carrier)."""

    n: int
    src: SubsetSystem
    tgt: SubsetSystem
    f: tuple
    gamma: tuple | None

    def f_at(self, C, s: Subset):
        if not s:
            return C.id1(C.unit_obj())
        return self.f[_sub_index(self.n)[s]]

    def gamma_at(self, C, s: Subset, t: Subset):
        if self.gamma is not None and s and t:
            return self.gamma[_pair_index(self.n)[(s, t)]]
        # strict or empty-part case: identity on the (equal) boundary
        return C.id2(_gamma_source(C, self.src, partial(self.f_at, C), s, t))


SystemMap._pool = {}


@dataclass(frozen=True, eq=False, slots=True)
class SystemTwoCell(InternedCell):
    """A 2-cell of a level: componentwise 2-cells alpha_s."""

    n: int
    src: SystemMap
    tgt: SystemMap
    alpha: tuple

    def alpha_at(self, C, s: Subset):
        if not s:
            return C.id2(C.id1(C.unit_obj()))
        return self.alpha[_sub_index(self.n)[s]]


SystemTwoCell._pool = {}


# the interning constructors, taking the fields in declaration order
mk_system = SubsetSystem._make
mk_system_map = SystemMap._make
mk_system_two_cell = SystemTwoCell._make


# -- the level laws ---------------------------------------------------------------
#
# Each law reads the components of a cell through accessors (``x(s)``,
# ``c(s, t)``, ``f(s)``, ``gamma(s, t)``, ``alpha(s)``), so the validators
# apply it to a built cell and the placement search to a partial assignment.


def _gamma_source(C, src: SubsetSystem, f, s: Subset, t: Subset):
    """(1 (+) f_t).(f_s (+) 1).c[s,t] as a 1-cell of the carrier."""
    fs, ft = f(s), f(t)
    step1 = src.c_at(C, s, t)
    step2 = C.rsum_one(fs, src.x_at(C, t))
    step3 = C.lsum_one(C.tgt1(fs), ft)
    return C.comp1(step3, C.comp1(step2, step1))


def _gamma_target(C, tgt: SubsetSystem, f, s: Subset, t: Subset):
    """c'[s,t].f_{s+t} as a 1-cell of the carrier."""
    return C.comp1(tgt.c_at(C, s, t), f(union(s, t)))


def _connecting_cells(C, x, s: Subset, t: Subset) -> list:
    """The candidates for c[s,t]: the 1-cells x_{s+t} -> x_s (+) x_t."""
    target = C.sum_obj(x(s), x(t))
    if not C.has_obj(target):
        return []
    return C.one_cells_between(x(union(s, t)), target)


def _invertible_fillers(C, src: SubsetSystem, tgt: SubsetSystem, s: Subset, t: Subset,
                        f_s, f_t, f_st) -> list:
    """The candidates for gamma[s,t]: the invertible 2-cells filling the
    square at (s, t) of the components f_s, f_t and f_st (st the union),
    the only components the square reads."""
    f = {s: f_s, t: f_t, union(s, t): f_st}.__getitem__
    cells = C.two_cells_between(_gamma_source(C, src, f, s, t), _gamma_target(C, tgt, f, s, t))
    return [g for g in cells if vertical_inverse(C, g) is not None]


def swapped_c(C, x, c, s: Subset, t: Subset):
    """The derived c[t,s] = beta(x_s, x_t).c[s,t]."""
    return C.comp1(C.beta_obj(x(s), x(t)), c(s, t))


def swapped_gamma(C, src: SubsetSystem, tgt: SubsetSystem, f, gamma,
                  s: Subset, t: Subset):
    """Derive gamma[t,s] from gamma[s,t] via the braiding and interchanger."""
    beta_tgt = C.beta_obj(tgt.x_at(C, s), tgt.x_at(C, t))
    step1 = whisker_r(C, C.sigma_inv(f(t), f(s)), src.c_at(C, t, s))
    step2 = whisker_l(C, beta_tgt, gamma(s, t))
    return C.vcomp(step2, step1)


def _system_cocycle_holds(C, x, c, s: Subset, t: Subset, u: Subset) -> bool:
    lhs = C.comp1(C.rsum_one(c(s, t), x(u)), c(union(s, t), u))
    rhs = C.comp1(C.lsum_one(x(s), c(t, u)), c(s, union(t, u)))
    return lhs == rhs


def _strict_square_holds(C, src: SubsetSystem, tgt: SubsetSystem, f,
                         s: Subset, t: Subset, st: Subset) -> bool:
    lhs = C.comp1(tgt.c_at(C, s, t), f(st))
    rhs = C.comp1(C.sum_one(f(s), f(t)), src.c_at(C, s, t))
    return lhs == rhs


def _filling_cocycle_holds(C, src: SubsetSystem, tgt: SubsetSystem, f, gamma,
                           s: Subset, t: Subset, u: Subset) -> bool:
    """The filling-cell cocycle at the disjoint triple (s, t, u): pasting
    gamma[t,u] then gamma[s,t+u] equals pasting gamma[s,t] then gamma[s+t,u]."""
    st, tu = union(s, t), union(t, u)
    f_s, f_t, f_u = f(s), f(t), f(u)
    x_s1_tgt, x_u = C.tgt1(f_s), src.x_at(C, u)
    c_s_tu, c_st_u = src.c_at(C, s, tu), src.c_at(C, st, u)
    cp_st = tgt.c_at(C, s, t)

    upper = C.comp1(
        C.lsum_one(C.sum_obj(x_s1_tgt, C.tgt1(f_t)), f_u),
        C.lsum_one(x_s1_tgt, C.rsum_one(f_t, x_u)),
    )
    th1 = whisker_l(C, upper, whisker_r(C, C.sigma(f_s, src.c_at(C, t, u)), c_s_tu))
    lower = C.comp1(C.rsum_one(f_s, src.x_at(C, tu)), c_s_tu)
    th2 = whisker_r(C, C.lsum_two(x_s1_tgt, gamma(t, u)), lower)
    th3 = whisker_l(C, C.lsum_one(x_s1_tgt, tgt.c_at(C, t, u)), gamma(s, tu))
    lhs = vseq(C, th1, th2, th3)

    upper = C.lsum_one(C.sum_obj(x_s1_tgt, C.tgt1(f_t)), f_u)
    th1 = whisker_l(C, upper, whisker_r(C, C.rsum_two(gamma(s, t), x_u), c_st_u))
    lower = C.comp1(C.rsum_one(f(st), x_u), c_st_u)
    th2 = whisker_r(C, C.sigma_inv(cp_st, f_u), lower)
    th3 = whisker_l(C, C.rsum_one(cp_st, C.tgt1(f_u)), gamma(st, u))
    return lhs == vseq(C, th1, th2, th3)


def _compat_left(C, u: SystemMap, a_st, s: Subset, t: Subset):
    """The left side of the compatibility square of a 2-cell u => v at
    (s, t): its component a_st at the union whiskered by c'[s,t], after
    u's filling cell at (s, t) when u has filling cells.  It reads neither
    v nor the components at s and t."""
    lhs = whisker_l(C, u.tgt.c_at(C, s, t), a_st)
    return lhs if u.gamma is None else C.vcomp(lhs, u.gamma_at(C, s, t))


def _compat_right(C, v: SystemMap, a_s, a_t, s: Subset, t: Subset):
    """The right side of the compatibility square of a 2-cell u => v at
    (s, t): the sum of its components a_s and a_t whiskered by c[s,t]
    (u and v share their source system), before v's filling cell at (s, t)
    when v has filling cells.  It reads neither u nor the component at the
    union."""
    rhs = whisker_r(C, C.sum_two(a_s, a_t), v.src.c_at(C, s, t))
    return rhs if v.gamma is None else C.vcomp(v.gamma_at(C, s, t), rhs)


def _compat_square_holds(left, right, u: SystemMap, v: SystemMap, alpha,
                         s: Subset, t: Subset, st: Subset) -> bool:
    """The compatibility square of the components alpha(s), alpha(t),
    alpha(st) of a 2-cell u => v at the disjoint pair (s, t) of union st.

    ``left`` and ``right`` compute its two sides: ``_compat_left`` and
    ``_compat_right`` with the carrier bound, as the validator
    passes them, or the caches of those that a level build keeps for one
    hom, as the search passes them.  Either way every instance is compared
    here; a cache only saves composing a side again."""
    return left(u, alpha(st), s, t) == right(v, alpha(s), alpha(t), s, t)


# -- axiom checks on explicit cells ----------------------------------------------


def validate_system(C, sys: SubsetSystem) -> ValidationReport:
    rep = ValidationReport(f"subset system (n={sys.n})")
    n = sys.n
    x, c = partial(sys.x_at, C), partial(sys.c_at, C)
    for s in nonempty_subsets_of(n):
        if not C.has_obj(x(s)):
            rep.add("structure", f"value at {s} outside the carrier")

    def typed(s, t):
        cst = c(s, t)
        return C.src1(cst) == x(union(s, t)) and C.tgt1(cst) == C.sum_obj(x(s), x(t))

    scan_laws(rep, disjoint_pairs(n), ("structure", "c typing", typed,
              lambda s, t: f"c at {(s, t)} has wrong endpoints"))
    if rep.issues:
        return rep
    scan_laws(rep, disjoint_pairs(n), ("symmetry", "braiding compatibility", lambda s, t:
              c(t, s) == swapped_c(C, x, c, s, t), "braiding compatibility fails"), where=repr)
    scan_laws(rep, disjoint_triples(n), ("cocycle", "associativity",
              partial(_system_cocycle_holds, C, x, c), "associativity fails"), where=repr)
    return rep


def validate_system_map(C, mp: SystemMap) -> ValidationReport:
    rep = ValidationReport(f"system map (n={mp.n})")
    n = mp.n
    src, tgt = mp.src, mp.tgt
    f, gamma = partial(mp.f_at, C), partial(mp.gamma_at, C)

    def typed(s):
        fs = f(s)
        return C.src1(fs) == src.x_at(C, s) and C.tgt1(fs) == tgt.x_at(C, s)

    scan_laws(rep, zip(nonempty_subsets_of(n)), ("structure", "component typing", typed,
              lambda s: f"component at {s} has wrong endpoints"))
    if rep.issues:
        return rep
    if mp.gamma is None:
        scan_laws(rep, disjoint_pairs(n), ("square", "strict square", lambda s, t:
                  _strict_square_holds(C, src, tgt, f, s, t, union(s, t)), "strict square fails"),
                  where=repr)
        return rep

    @cache  # read by both laws of one instance
    def filling_typed(s, t):
        g = gamma(s, t)
        return (C.src2(g) == _gamma_source(C, src, f, s, t)
                and C.tgt2(g) == _gamma_target(C, tgt, f, s, t))

    # one instance per filling cell: its endpoints, and then its inverse
    scan_laws(rep, disjoint_pairs(n),
              ("structure", "filling cell typing", filling_typed,
               lambda s, t: f"filling cell at {(s, t)} has wrong endpoints"),
              ("structure", "filling cell inverse", lambda s, t:
               not filling_typed(s, t) or vertical_inverse(C, gamma(s, t)) is not None,
               lambda s, t: f"filling cell at {(s, t)} not invertible"), per=1)
    if rep.issues:
        return rep
    scan_laws(rep, disjoint_pairs(n), ("swap", "swapped filling cell", lambda s, t:
              gamma(t, s) == swapped_gamma(C, src, tgt, f, gamma, s, t),
              "swapped filling cell disagrees"), where=repr)
    scan_laws(rep, disjoint_triples(n), ("cocycle", "filling-cell associativity",
              partial(_filling_cocycle_holds, C, src, tgt, f, gamma),
              "filling-cell associativity fails"), where=repr)
    return rep


def validate_system_two_cell(C, cell: SystemTwoCell) -> ValidationReport:
    rep = ValidationReport(f"system 2-cell (n={cell.n})")
    n = cell.n
    alpha = partial(cell.alpha_at, C)

    def typed(s):
        a = alpha(s)
        return C.src2(a) == cell.src.f_at(C, s) and C.tgt2(a) == cell.tgt.f_at(C, s)

    scan_laws(rep, zip(nonempty_subsets_of(n)), ("structure", "component typing", typed,
              lambda s: f"component at {s} has wrong endpoints"))
    if rep.issues:
        return rep
    left, right = partial(_compat_left, C), partial(_compat_right, C)
    scan_laws(rep, disjoint_pairs(n), ("compat", "component compatibility", lambda s, t:
              _compat_square_holds(left, right, cell.src, cell.tgt, alpha, s, t, union(s, t)),
              "component compatibility fails"), where=repr)
    return rep


# -- the level formula ------------------------------------------------------------


_COMPOSE_CACHE: dict = {}


class LazyKtLevel(FieldEndpoints):
    """Cell operations of a level over an arbitrary permutative carrier,
    without enumeration.  Composition takes system maps with or without
    filling cells (cubical or strict levels) and componentwise 2-cells; the
    identities are strict system maps (gamma=None).  Everything is computed
    on demand, so this works over carriers that are too large to tabulate,
    and it is the composition formula and the identity test of the
    enumerated levels."""

    def __init__(self, C):
        self.C = C

    def id1(self, sys: SubsetSystem) -> SystemMap:
        return mk_system_map(sys.n, sys, sys, tuple(map(self.C.id1, sys.x)), None)

    def id2(self, mp: SystemMap) -> SystemTwoCell:
        return mk_system_two_cell(mp.n, mp, mp, tuple(map(self.C.id2, mp.f)))

    def comp1(self, g: SystemMap, f: SystemMap) -> SystemMap:
        """Composite 1-cell; over a cubical carrier the filling cells paste
        through one interchanger per pair."""
        C = self.C
        key = (C, g, f)
        cached = _COMPOSE_CACHE.get(key)
        if cached is not None:
            return cached
        n = f.n
        comps = tuple(map(C.comp1, g.f, f.f))
        if f.gamma is None and g.gamma is None:
            out = mk_system_map(n, f.src, g.tgt, comps, None)
            _COMPOSE_CACHE[key] = out
            return out
        gammas = []
        for (s, t) in disjoint_pairs(n):
            f_s, f_t = f.f_at(C, s), f.f_at(C, t)
            g_s, g_t = g.f_at(C, s), g.f_at(C, t)
            x_t = f.src.x_at(C, t)
            xp_t = f.tgt.x_at(C, t)
            xpp_s = C.tgt1(g_s)
            c_st = f.src.c_at(C, s, t)
            th1 = whisker_l(
                C, C.lsum_one(xpp_s, g_t),
                whisker_r(C, C.sigma_inv(g_s, f_t), C.comp1(C.rsum_one(f_s, x_t), c_st)),
            )
            th2 = whisker_l(
                C,
                C.comp1(C.lsum_one(xpp_s, g_t), C.rsum_one(g_s, xp_t)),
                f.gamma_at(C, s, t),
            )
            th3 = whisker_r(C, g.gamma_at(C, s, t), f.f_at(C, union(s, t)))
            gammas.append(vseq(C, th1, th2, th3))
        out = mk_system_map(n, f.src, g.tgt, comps, tuple(gammas))
        _COMPOSE_CACHE[key] = out
        return out

    def vcomp(self, b: SystemTwoCell, a: SystemTwoCell) -> SystemTwoCell:
        return mk_system_two_cell(a.n, a.src, b.tgt, tuple(map(self.C.vcomp, b.alpha, a.alpha)))

    def hcomp2(self, b: SystemTwoCell, a: SystemTwoCell) -> SystemTwoCell:
        return mk_system_two_cell(a.n, self.comp1(b.src, a.src), self.comp1(b.tgt, a.tgt),
                                  tuple(map(self.C.hcomp2, b.alpha, a.alpha)))

    def is_id1(self, mp: SystemMap) -> bool:
        C = self.C
        return (mp.src == mp.tgt and all(map(C.is_id1, mp.f))
                and (mp.gamma is None or all(map(C.is_id2, mp.gamma))))

    def is_id2(self, cell: SystemTwoCell) -> bool:
        return cell.src == cell.tgt and all(map(self.C.is_id2, cell.alpha))


# -- enumeration -----------------------------------------------------------------


@lru_cache(maxsize=None)
def _placement_order(n: int, paired: bool) -> tuple:
    """The slots of a level cell at n in placement order, each with the law
    instances that its placement completes.

    The subset slots come first, in canonical subset order; the slot at st
    completes the squares (s, t, st) at the disjoint pairs of which st is
    the union, both of whose parts come earlier.  With ``paired``, the canonical pairs (s, t), s before t,
    follow; each one also fixes its derived swap (t, s), and completes the
    triples (s, t, u) whose four pair components are then all placed."""
    order = [(st, tuple((s, t, st) for (s, t) in disjoint_pairs(n) if union(s, t) == st))
             for st in nonempty_subsets_of(n)]
    if paired:
        canon = [(s, t) for (s, t) in disjoint_pairs(n) if subset_key(s) < subset_key(t)]
        rank = {}
        for i, (s, t) in enumerate(canon):
            rank[(s, t)] = rank[(t, s)] = i
        closes: list[list] = [[] for _ in canon]
        for (s, t, u) in disjoint_triples(n):
            st, tu = union(s, t), union(t, u)
            closes[max(rank[(s, t)], rank[(st, u)], rank[(t, u)], rank[(s, tu)])].append((s, t, u))
        order += [(p, tuple(cl)) for p, cl in zip(canon, closes)]
    return tuple(order)


def _search(asg: dict, n: int, component, pair, build, stage: str) -> list:
    """The one placement search behind the three enumerators.

    Slots are placed in ``_placement_order``, writing into ``asg``, which the
    enumerator's accessors read.  ``component`` is ``(candidates, law)`` for
    the subset slots and ``pair`` is ``(candidates, law, swap)`` for the
    canonical pair slots, or None: ``candidates(key)`` lists the values of a
    slot given the earlier ones, ``law(*instance)`` checks one law instance
    the slot completes, and ``swap(s, t)`` derives the value at (t, s).
    The search is the only checker of the cells it emits, closing each
    instance the validators check once: a component's typing by its slot's
    candidates, a law instance by the slot placing its last component, and a
    derived pair's typing and reversed swap equation, which hold only over a
    valid braiding, right after the swap, before any law composes it.
    Every instance a slot closes is checked each time the slot takes a
    value; the enumerators cache only what candidates and laws compose
    (filler lists, 2-cell candidate lists, the compatibility square's
    sides), never a verdict.  The output is sorted by the reprs of the
    placed values, and the search stops at the ceiling in force at its start."""
    ceiling = current_cell_ceiling()
    order = _placement_order(n, pair is not None)
    k = len(nonempty_subsets_of(n))
    plan = ([(key, *component, None, closes) for key, closes in order[:k]]
            + [(key, *pair, closes) for key, closes in order[k:]])
    keys = [key for key, _ in order]
    last = len(plan)
    out: list = []

    def place(i: int) -> None:
        if i == last:
            out.append((tuple(repr(asg[key]) for key in keys), build()))
            if len(out) > ceiling:
                raise CellCeilingExceeded(stage, len(out), ceiling)
            return
        key, candidates, law, swap, closes = plan[i]
        rev = key[::-1]
        typed = candidates(rev) if swap is not None else None
        for val in candidates(key):
            asg[key] = val
            if swap is not None:
                asg[rev] = swap(*key)
                if asg[rev] not in typed or swap(*rev) != val:
                    continue
            if all(starmap(law, closes)):
                place(i + 1)

    place(0)
    out.sort(key=itemgetter(0))
    return [cell for _, cell in out]


def enumerate_systems(C, n: int) -> list[SubsetSystem]:
    """Objects of the level at n: each closed pair of x must admit a
    connecting cell, and each cocycle is checked once its last c is placed."""
    asg: dict = {}
    x = asg.__getitem__

    def c(s, t):
        return asg[s, t]

    connecting = partial(_connecting_cells, C, x)
    subs, pairs = nonempty_subsets_of(n), disjoint_pairs(n)
    return _search(
        asg, n,
        (lambda s: C.objects_iter(), lambda s, t, st: bool(connecting(s, t))),
        (lambda st: connecting(*st), partial(_system_cocycle_holds, C, x, c),
         partial(swapped_c, C, x, c)),
        lambda: mk_system(n, tuple(map(x, subs)), tuple(starmap(c, pairs))),
        "object enumeration")


def enumerate_system_maps(C, src: SubsetSystem, tgt: SubsetSystem, gray: bool) -> list[SystemMap]:
    """1-cells src -> tgt.  Strict: each square is checked once its f_{s+t}
    is placed.  Cubical: each square of f must admit an invertible filler,
    and each filling-cell cocycle is checked once its last gamma is placed.
    A filler list is computed once per call for each (s, t) and the
    components it reads, and reused by every assignment that shares them."""
    n = src.n
    subs, pairs = nonempty_subsets_of(n), disjoint_pairs(n)
    asg: dict = {}
    f = asg.__getitem__

    def gamma(s, t):
        return asg[s, t]

    filler_lists = cache(partial(_invertible_fillers, C, src, tgt))

    def fillers(s, t, st):
        return filler_lists(s, t, f(s), f(t), f(st))

    def components(s):
        return C.one_cells_between(src.x_at(C, s), tgt.x_at(C, s))

    if gray:
        component = (components, lambda s, t, st: bool(fillers(s, t, st)))
        pair = (lambda p: fillers(*p, union(*p)),
                partial(_filling_cocycle_holds, C, src, tgt, f, gamma),
                partial(swapped_gamma, C, src, tgt, f, gamma))
    else:
        component, pair = (components, partial(_strict_square_holds, C, src, tgt, f)), None
    return _search(
        asg, n, component, pair,
        lambda: mk_system_map(n, src, tgt, tuple(map(f, subs)),
                              tuple(starmap(gamma, pairs)) if gray else None),
        "1-cell enumeration")


def _two_cell_caches(C) -> tuple:
    """Fresh caches for the 2-cell searches of one hom of a level: the
    candidate lists and the two sides of the compatibility square.  A side
    is keyed by u or v, which fix the hom, so these caches hold every reuse
    of a side and can be dropped with the hom."""
    return (cache(C.two_cells_between), cache(partial(_compat_left, C)),
            cache(partial(_compat_right, C)))


def enumerate_system_two_cells(C, u: SystemMap, v: SystemMap,
                               caches: tuple | None = None) -> list[SystemTwoCell]:
    """2-cells u => v: each compatibility square is checked once its
    component at s+t is placed.  ``caches`` are the ``_two_cell_caches``
    a level build shares across the pairs of one hom; without them the call
    binds its own."""
    if u.src != v.src or u.tgt != v.tgt:
        return []
    n = u.n
    asg: dict = {}
    candidates, left, right = caches or _two_cell_caches(C)
    return _search(
        asg, n,
        (lambda s: candidates(u.f_at(C, s), v.f_at(C, s)),
         partial(_compat_square_holds, left, right, u, v, asg.__getitem__)),
        None,
        lambda: mk_system_two_cell(n, u, v, tuple(asg[s] for s in nonempty_subsets_of(n))),
        "2-cell enumeration")


# -- level builders ----------------------------------------------------------------


def _build_level(C, n: int, gray: bool, name: str,
                 systems: list | None = None) -> FiniteTwoCategory:
    ceiling = current_cell_ceiling()
    if systems is None:
        systems = enumerate_systems(C, n)
    formula = LazyKtLevel(C)
    one: dict = {}
    total = len(systems)
    for a in systems:
        for b in systems:
            for mp in enumerate_system_maps(C, a, b, gray):
                one[mp] = (a, b, formula.is_id1(mp))
                total += 1
                if total > ceiling:
                    raise CellCeilingExceeded("level build", total, ceiling)
    two: dict = {}
    by_pair: dict = {}
    for mp in one:
        by_pair.setdefault((mp.src, mp.tgt), []).append(mp)
    for (a, b), cells in by_pair.items():
        caches = _two_cell_caches(C)
        for u in cells:
            for v in cells:
                for cell in enumerate_system_two_cells(C, u, v, caches):
                    two[cell] = (u, v, formula.is_id2(cell))
                    total += 1
                    if total > ceiling:
                        raise CellCeilingExceeded("level build", total, ceiling)
    return FiniteTwoCategory(name, systems, one, two, formula=formula)


def ko_level(C: PermutativeGrayMonoid, n: int) -> FiniteTwoCategory:
    """The level at n+ over a cubical carrier, with filling cells."""
    return _build_level(C, n, True, f"Ko({C.name})({n})")


def kt_level(C: PermutativeTwoCategory, n: int) -> FiniteTwoCategory:
    """The level at n+ over a product carrier, with strictly commuting squares.

    Also accepts any carrier exposing a genuine product sum (for example the
    bounded inverse-construction fragment)."""
    return _build_level(C, n, False, f"K({C.name})({n})")


# -- reindexing, functoriality, truncations ------------------------------------------


@lru_cache(maxsize=None)
def _pullback(phi: PointedMap) -> tuple[tuple, tuple]:
    """The preimages under ``phi`` of the nonempty subsets and of the disjoint
    pairs of its target, in canonical order: the keys at which a reindexing
    along ``phi`` reads each component of its image."""
    pre = phi.preimage
    return (tuple(map(pre, nonempty_subsets_of(phi.n))),
            tuple((pre(u), pre(v)) for (u, v) in disjoint_pairs(phi.n)))


_REINDEX_CACHE: dict = {}


def reindex_system(C, sys: SubsetSystem, phi: PointedMap) -> SubsetSystem:
    key = (C, sys, phi)
    cached = _REINDEX_CACHE.get(key)
    if cached is not None:
        return cached
    subs, pairs = _pullback(phi)
    out = mk_system(phi.n, tuple(map(partial(sys.x_at, C), subs)),
                    tuple(starmap(partial(sys.c_at, C), pairs)))
    _REINDEX_CACHE[key] = out
    return out


_REINDEX_MAP_CACHE: dict = {}


def reindex_system_map(C, mp: SystemMap, phi: PointedMap) -> SystemMap:
    key = (C, mp, phi)
    cached = _REINDEX_MAP_CACHE.get(key)
    if cached is not None:
        return cached
    subs, pairs = _pullback(phi)
    gamma = None
    if mp.gamma is not None:
        gamma = tuple(starmap(partial(mp.gamma_at, C), pairs))
    out = mk_system_map(phi.n, reindex_system(C, mp.src, phi), reindex_system(C, mp.tgt, phi),
                        tuple(map(partial(mp.f_at, C), subs)), gamma)
    _REINDEX_MAP_CACHE[key] = out
    return out


def reindex_system_two_cell(C, cell: SystemTwoCell, phi: PointedMap) -> SystemTwoCell:
    subs, _ = _pullback(phi)
    return mk_system_two_cell(
        phi.n,
        reindex_system_map(C, cell.src, phi),
        reindex_system_map(C, cell.tgt, phi),
        tuple(map(partial(cell.alpha_at, C), subs)),
    )


def _reindexers(C, phi: PointedMap) -> tuple:
    """The reindexings along ``phi`` of systems, system maps and 2-cells."""
    return tuple(partial(f, C, phi=phi) for f in (
        reindex_system, reindex_system_map, reindex_system_two_cell))


def ko_phi(C, phi: PointedMap, level_m: FiniteTwoCategory,
           level_n: FiniteTwoCategory) -> TwoFunctor:
    """The transition 2-functor between built levels along a pointed map.

    Raises ``ValueError`` if a reindexed system is missing from the target
    level."""
    F = tabulate(level_m, level_n, _reindexers(C, phi), name=f"phi*{phi.imgs}")
    for v in F.omap.values():
        if not level_n.has_obj(v):
            raise ValueError(f"reindexed system missing from target level: {v!r}")
    return F


def _truncation(C, N: int, name: str, levels: list) -> GammaTruncation:
    # ``ko_phi`` is looked up when a transition is first built, so a
    # rebinding of the module attribute (the traced benchmark) takes effect
    return GammaTruncation(name, N, levels,
                           lambda phi: ko_phi(C, phi, levels[phi.m], levels[phi.n]))


def _gamma_truncation(C, N: int, gray: bool, name: str) -> GammaTruncation:
    build = ko_level if gray else kt_level
    return _truncation(C, N, name, [build(C, m) for m in range(N + 1)])


def ko_gamma(C: PermutativeGrayMonoid, N: int) -> GammaTruncation:
    return _gamma_truncation(C, N, True, f"Ko({C.name})")


def kt_gamma(C: PermutativeTwoCategory, N: int) -> GammaTruncation:
    return _gamma_truncation(C, N, False, f"K({C.name})")


def ko_map(M: MonoidalFunctor, level_src: FiniteTwoCategory,
           level_tgt: FiniteTwoCategory) -> TwoFunctor:
    """Apply a normal-oplax functor levelwise: each image is re-validated once,
    and a failing image is a hard error (it indicates an invalid input functor)."""
    if M.variant not in VARIANTS:
        raise ValueError("levelwise image needs a strict or normal-oplax functor")
    C, D = M.source, M.target
    F = M.functor

    @cache
    def on_system(sys: SubsetSystem) -> SubsetSystem:
        n, x = sys.n, partial(sys.x_at, C)
        out = mk_system(n, tuple(map(F.omap.__getitem__, sys.x)), tuple(
            D.comp1(M.theta[(x(s), x(t))], F.fmap[c_st])
            for (s, t), c_st in zip(disjoint_pairs(n), sys.c)))
        r = validate_system(D, out)
        if not r.ok:
            raise ValueError(f"image system fails target axioms: {r.first()}")
        return out

    @cache
    def on_map(mp: SystemMap) -> SystemMap:
        n, y = mp.n, partial(mp.tgt.x_at, C)
        f = tuple(map(F.fmap.__getitem__, mp.f))
        gamma = None
        if mp.gamma is not None:
            gamma = tuple(whisker_l(D, M.theta[(y(s), y(t))], F.amap[g_st])
                          for (s, t), g_st in zip(disjoint_pairs(n), mp.gamma))
        out = mk_system_map(n, on_system(mp.src), on_system(mp.tgt), f, gamma)
        r = validate_system_map(D, out)
        if not r.ok:
            raise ValueError(f"image map fails target axioms: {r.first()}")
        return out

    return tabulate(level_src, level_tgt, (on_system, on_map, lambda a: mk_system_two_cell(
        a.n, on_map(a.src), on_map(a.tgt), tuple(map(F.amap.__getitem__, a.alpha)))),
        name=f"K({M.name})")


def kt_to_ko(C: PermutativeTwoCategory, n: int) -> TwoFunctor:
    """The inclusion of the strict level into the cubical one over promote(C)."""
    P = promote(C)

    @cache
    def widen(mp: SystemMap) -> SystemMap:
        # the identity filling cells that ``gamma_at`` reads off a strict map
        return mk_system_map(n, mp.src, mp.tgt, mp.f,
                             tuple(starmap(partial(mp.gamma_at, P), disjoint_pairs(n))))

    return tabulate(kt_level(C, n), ko_level(P, n), (
        IDENTITY_MAPS[0], widen,
        lambda a: mk_system_two_cell(n, widen(a.src), widen(a.tgt), a.alpha)),
        name=f"inc({C.name},{n})")


def level_one_comparison(C, level: FiniteTwoCategory) -> TwoFunctor:
    """Evaluation at the full singleton: the level at 1+ against the carrier."""
    s1 = (1,)
    return tabulate(level, C.base, (lambda sys: sys.x_at(C, s1), lambda mp: mp.f_at(C, s1),
                                    lambda cell: cell.alpha_at(C, s1)), name="ev1")


# -- partition cells ------------------------------------------------------------------


def partition_cell(C, sys: SubsetSystem, s: Subset, parts: list[Subset]):
    """The canonical 1-cell x_s -> x_{s_1} (+) ... (+) x_{s_a}, peeling blocks
    left to right.  Alternative bracketings or braiding reorderings evaluate
    to the same cell; that is a tested property, not an assumption."""
    joined: list[int] = []
    for p in parts:
        if not p:
            raise ValueError("empty partition block")
        joined.extend(p)
    if sorted(joined) != list(s) or len(set(joined)) != len(joined):
        raise ValueError(f"{parts!r} is not a partition of {s!r}")
    if len(parts) == 0:
        return C.id1(C.unit_obj())
    if len(parts) == 1:
        return C.id1(sys.x_at(C, s))
    rest = tuple(sorted(set(s) - set(parts[0])))
    head = sys.c_at(C, parts[0], rest)
    tail = partition_cell(C, sys, rest, parts[1:])
    return C.comp1(C.lsum_one(sys.x_at(C, parts[0]), tail), head)


def partition_filling(C, mp: SystemMap, s: Subset, parts: list[Subset]):
    """The canonical 2-cell filling the square of a partition cell against a
    system map: ((+)_k f_{s_k}) . part_src  =>  part_tgt . f_s."""
    if len(parts) <= 1:
        return C.id2(mp.f_at(C, s)) if parts else C.id2(C.id1(C.unit_obj()))
    s1 = parts[0]
    rest = tuple(sorted(set(s) - set(s1)))
    f_s1 = mp.f_at(C, s1)
    x_s1_tgt = C.tgt1(f_s1)
    crest_src = partition_cell(C, mp.src, rest, parts[1:])
    crest_tgt = partition_cell(C, mp.tgt, rest, parts[1:])
    c_head = mp.src.c_at(C, s1, rest)
    f_rest_sum = sum_one_cells(C, [mp.f_at(C, p) for p in parts[1:]])
    th1 = whisker_l(
        C, C.lsum_one(x_s1_tgt, f_rest_sum),
        whisker_r(C, C.sigma(f_s1, crest_src), c_head),
    )
    g_rest = partition_filling(C, mp, rest, parts[1:])
    th2 = whisker_r(
        C, C.lsum_two(x_s1_tgt, g_rest),
        C.comp1(C.rsum_one(f_s1, mp.src.x_at(C, rest)), c_head),
    )
    th3 = whisker_l(C, C.lsum_one(x_s1_tgt, crest_tgt), mp.gamma_at(C, s1, rest))
    return vseq(C, th1, th2, th3)


# -- lazy levels ------------------------------------------------------------------


class LazyKtGamma:
    """The K-theory diagram of a permutative carrier, with formula levels.

    Levels are unbounded in size; only the operations and the transition
    reindexings are provided.  ``cap`` limits nothing here but records the
    range callers intend to exercise."""

    def __init__(self, C, cap: int, name: str = ""):
        self.C = C
        self.cap = cap
        self.name = name or f"K({C.name})"
        self.level = cache(self.level)
        self.star = cache(self.star)

    def level(self, m: int) -> LazyKtLevel:
        return LazyKtLevel(self.C)

    def star(self, phi: PointedMap) -> tuple:
        return _reindexers(self.C, phi)

    def point(self, dim: int):
        L, sys = self.level(0), mk_system(0, (), ())
        if dim == 0:
            return sys
        return L.id1(sys) if dim == 1 else L.id2(L.id1(sys))


def generated_kt_truncation(C, N: int, seeds: dict[int, list[SubsetSystem]], name: str):
    """The full reindexing-closed subdiagram of the K-theory of a carrier
    generated by the given level objects.

    Levels are full on the closure of the seeds under every transition map
    within the cap; this is the canonical finite fragment containing a given
    family of systems when the whole level is too large to tabulate.  The
    truncation is called ``name`` and its level ``m`` ``name(m)``.
    """
    per_level: list[list[SubsetSystem]] = [[] for _ in range(N + 1)]
    seen: list[set] = [set() for _ in range(N + 1)]
    for m, syss in seeds.items():
        for sys in syss:
            if sys not in seen[m]:
                seen[m].add(sys)
                per_level[m].append(sys)
    changed = True
    while changed:
        changed = False
        for phi in maps_up_to(N):
            for sys in list(per_level[phi.m]):
                img = reindex_system(C, sys, phi)
                if img not in seen[phi.n]:
                    seen[phi.n].add(img)
                    per_level[phi.n].append(img)
                    changed = True
    levels = [
        _build_level(C, m, False, f"{name}({m})", systems=per_level[m])
        for m in range(N + 1)
    ]
    return _truncation(C, N, name, levels)
