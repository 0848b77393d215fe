"""Level-by-level K-theory of permutative structures.

A level at n+ has objects the subset systems {x_s, c_{s,t}} indexed by
subsets of {1..n}, 1-cells the systems of maps between them (with filling
2-cells over the cubical carrier, or strictly commuting squares over a
product carrier), and componentwise 2-cells.

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

Each law is written once and shared with the validators, which check every
emitted cell in full.  Enumeration is exhaustive, with a configurable
cell-count ceiling; exceeding the ceiling aborts loudly, never truncates
silently.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache, partial
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
    InternedCell,
    TwoFunctor,
    ValidationReport,
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


DEFAULT_CELL_CEILING = int(os.environ.get("GAMMA2CAT_CELL_CEILING", "1000000"))


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


def mk_system(n: int, x: tuple, c: tuple) -> SubsetSystem:
    return SubsetSystem._make(n, x, c)


def mk_system_map(n: int, src, tgt, f: tuple, gamma) -> SystemMap:
    return SystemMap._make(n, src, tgt, f, gamma)


def mk_system_two_cell(n: int, src, tgt, alpha: tuple) -> SystemTwoCell:
    return SystemTwoCell._make(n, src, tgt, alpha)


def make_system(C, n: int, xmap: dict, cmap: dict) -> SubsetSystem:
    subs = nonempty_subsets_of(n)
    return mk_system(
        n,
        tuple(xmap[s] for s in subs),
        tuple(cmap[p] for p in disjoint_pairs(n)),
    )


def make_system_map(C, src: SubsetSystem, tgt: SubsetSystem, fmap: dict,
                    gammamap: dict | None) -> SystemMap:
    n = src.n
    subs = nonempty_subsets_of(n)
    gamma = None
    if gammamap is not None:
        gamma = tuple(gammamap[p] for p in disjoint_pairs(n))
    return mk_system_map(n, src, tgt, tuple(fmap[s] for s in subs), gamma)


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


def _invertible_fillers(C, src: SubsetSystem, tgt: SubsetSystem, f,
                        s: Subset, t: Subset) -> list:
    """The candidates for gamma[s,t]: the invertible 2-cells filling the
    square of f at (s, t)."""
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


def _compat_square_holds(C, u: SystemMap, v: SystemMap, gray: bool, alpha,
                         s: Subset, t: Subset, st: Subset) -> bool:
    """The compatibility square of the components alpha(s), alpha(t),
    alpha(st) of a 2-cell u => v at the disjoint pair (s, t) of union st."""
    summed = C.sum_two(alpha(s), alpha(t))
    lhs = whisker_l(C, u.tgt.c_at(C, s, t), alpha(st))
    rhs = whisker_r(C, summed, u.src.c_at(C, s, t))
    if gray:
        lhs = C.vcomp(lhs, u.gamma_at(C, s, t))
        rhs = C.vcomp(v.gamma_at(C, s, t), rhs)
    return lhs == rhs


# -- axiom checks on explicit cells ----------------------------------------------


def validate_system(C, sys: SubsetSystem) -> ValidationReport:
    rep = ValidationReport(f"subset system (n={sys.n})")
    n = sys.n
    x, c = partial(sys.x_at, C), partial(sys.c_at, C)
    for s in nonempty_subsets_of(n):
        if not C.has_obj(x(s)):
            rep.add("structure", f"value at {s} outside the carrier")
    for (s, t) in disjoint_pairs(n):
        cst = c(s, t)
        rep.checked += 1
        if C.src1(cst) != x(union(s, t)) or C.tgt1(cst) != C.sum_obj(x(s), x(t)):
            rep.add("structure", f"c at {(s, t)} has wrong endpoints")
    if rep.issues:
        return rep
    for (s, t) in disjoint_pairs(n):
        rep.checked += 1
        if c(t, s) != swapped_c(C, x, c, s, t):
            rep.add("symmetry", f"braiding compatibility fails at {(s, t)}")
    for (s, t, u) in disjoint_triples(n):
        rep.checked += 1
        if not _system_cocycle_holds(C, x, c, s, t, u):
            rep.add("cocycle", f"associativity fails at {(s, t, u)}")
    return rep


def validate_system_map(C, mp: SystemMap, gray: bool) -> ValidationReport:
    rep = ValidationReport(f"system map (n={mp.n})")
    n = mp.n
    src, tgt = mp.src, mp.tgt
    f, gamma = partial(mp.f_at, C), partial(mp.gamma_at, C)
    for s in nonempty_subsets_of(n):
        fs = f(s)
        rep.checked += 1
        if C.src1(fs) != src.x_at(C, s) or C.tgt1(fs) != tgt.x_at(C, s):
            rep.add("structure", f"component at {s} has wrong endpoints")
    if rep.issues:
        return rep
    if not gray:
        for (s, t) in disjoint_pairs(n):
            rep.checked += 1
            if not _strict_square_holds(C, src, tgt, f, s, t, union(s, t)):
                rep.add("square", f"strict square fails at {(s, t)}")
        return rep
    for (s, t) in disjoint_pairs(n):
        g = gamma(s, t)
        rep.checked += 1
        if C.src2(g) != _gamma_source(C, src, f, s, t) or C.tgt2(g) != _gamma_target(C, tgt, f, s, t):
            rep.add("structure", f"filling cell at {(s, t)} has wrong endpoints")
        elif vertical_inverse(C, g) is None:
            rep.add("structure", f"filling cell at {(s, t)} not invertible")
    if rep.issues:
        return rep
    for (s, t) in disjoint_pairs(n):
        rep.checked += 1
        if gamma(t, s) != swapped_gamma(C, src, tgt, f, gamma, s, t):
            rep.add("swap", f"swapped filling cell disagrees at {(s, t)}")
    for (s, t, u) in disjoint_triples(n):
        rep.checked += 1
        if not _filling_cocycle_holds(C, src, tgt, f, gamma, s, t, u):
            rep.add("cocycle", f"filling-cell associativity fails at {(s, t, u)}")
    return rep


def validate_system_two_cell(C, cell: SystemTwoCell, gray: bool) -> ValidationReport:
    rep = ValidationReport(f"system 2-cell (n={cell.n})")
    n = cell.n
    alpha = partial(cell.alpha_at, C)
    for s in nonempty_subsets_of(n):
        a = alpha(s)
        rep.checked += 1
        if C.src2(a) != cell.src.f_at(C, s) or C.tgt2(a) != cell.tgt.f_at(C, s):
            rep.add("structure", f"component at {s} has wrong endpoints")
    if rep.issues:
        return rep
    for (s, t) in disjoint_pairs(n):
        rep.checked += 1
        if not _compat_square_holds(C, cell.src, cell.tgt, gray, alpha, s, t, union(s, t)):
            rep.add("compat", f"component compatibility fails at {(s, t)}")
    return rep


# -- composition of level cells -------------------------------------------------


_COMPOSE_CACHE: dict = {}


def compose_system_maps(C, g: SystemMap, f: SystemMap) -> SystemMap:
    """Composite 1-cell; over a cubical carrier the filling cells paste
    through one interchanger per pair."""
    key = (C, g, f)
    cached = _COMPOSE_CACHE.get(key)
    if cached is not None:
        return cached
    n = f.n
    comps = {s: C.comp1(g.f_at(C, s), f.f_at(C, s)) for s in nonempty_subsets_of(n)}
    if f.gamma is None and g.gamma is None:
        out = make_system_map(C, f.src, g.tgt, comps, None)
        _COMPOSE_CACHE[key] = out
        return out
    gammas = {}
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
        gammas[(s, t)] = vseq(C, th1, th2, th3)
    out = make_system_map(C, f.src, g.tgt, comps, gammas)
    _COMPOSE_CACHE[key] = out
    return out


def identity_system_map(C, sys: SubsetSystem, gray: bool) -> SystemMap:
    n = sys.n
    comps = {s: C.id1(sys.x_at(C, s)) for s in nonempty_subsets_of(n)}
    if not gray:
        return make_system_map(C, sys, sys, comps, None)
    gammas = {(s, t): C.id2(sys.c_at(C, s, t)) for (s, t) in disjoint_pairs(n)}
    return make_system_map(C, sys, sys, comps, gammas)


def is_identity_system_map(C, mp: SystemMap) -> bool:
    if mp.src != mp.tgt:
        return False
    if not all(C.is_id1(v) for v in mp.f):
        return False
    if mp.gamma is not None and not all(C.is_id2(v) for v in mp.gamma):
        return False
    return True


def identity_system_two_cell(C, mp: SystemMap) -> SystemTwoCell:
    return mk_system_two_cell(mp.n, mp, mp, tuple(C.id2(v) for v in mp.f))


def is_identity_system_two_cell(C, cell: SystemTwoCell) -> bool:
    return cell.src == cell.tgt and all(C.is_id2(v) for v in cell.alpha)


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


def _search(asg: dict, n: int, component, pair, build, validate, stage: str,
            ceiling: int) -> list:
    """The one placement search behind the three enumerators.

    Slots are placed in ``_placement_order``, writing into ``asg``, which the
    enumerator's accessors read.  ``component`` is ``(candidates, law)`` for
    the subset slots and ``pair`` is ``(candidates, law, swap)`` for the
    canonical pair slots, or None: ``candidates(key)`` lists the values of a
    slot given the earlier ones, ``law(*instance)`` checks one law instance
    the slot completes, and ``swap(s, t)`` derives the value at (t, s).
    Every complete assignment is built and passes the full validator before
    it is emitted; the output is sorted by the reprs of the placed values."""
    order = _placement_order(n, pair is not None)
    k = len(nonempty_subsets_of(n))
    plan = ([(key, *component, None, closes) for key, closes in order[:k]]
            + [(key, *pair, closes) for key, closes in order[k:]])
    keys = [key for key, _ in order]
    last = len(plan)
    out: list = []

    def place(i: int) -> None:
        if i == last:
            cell = build()
            if validate(cell).ok:
                out.append((tuple(repr(asg[key]) for key in keys), cell))
                if len(out) > ceiling:
                    raise CellCeilingExceeded(stage, len(out), ceiling)
            return
        key, candidates, law, swap, closes = plan[i]
        for val in candidates(key):
            asg[key] = val
            if swap is not None:
                asg[key[::-1]] = swap(*key)
            if all(law(*inst) for inst in closes):
                place(i + 1)

    place(0)
    out.sort(key=itemgetter(0))
    return [cell for _, cell in out]


def enumerate_systems(C, n: int, ceiling: int) -> list[SubsetSystem]:
    """Objects of the level at n: each closed pair of x must admit a
    connecting cell, and each cocycle is checked once its last c is placed."""
    asg: dict = {}
    x = asg.__getitem__

    def c(s, t):
        return asg[s, t]

    connecting = partial(_connecting_cells, C, x)
    return _search(
        asg, n,
        (lambda s: C.objects_iter(), lambda s, t, st: bool(connecting(s, t))),
        (lambda st: connecting(*st), partial(_system_cocycle_holds, C, x, c),
         partial(swapped_c, C, x, c)),
        lambda: make_system(C, n, asg, asg), partial(validate_system, C),
        "object enumeration", ceiling)


def enumerate_system_maps(C, src: SubsetSystem, tgt: SubsetSystem, gray: bool,
                          ceiling: int) -> list[SystemMap]:
    """1-cells src -> tgt.  Strict: each square is checked once its f_{s+t}
    is placed.  Cubical: each square of f must admit an invertible filler,
    and each filling-cell cocycle is checked once its last gamma is placed."""
    n = src.n
    asg: dict = {}
    f = asg.__getitem__

    def gamma(s, t):
        return asg[s, t]

    fillers = partial(_invertible_fillers, C, src, tgt, f)

    def components(s):
        return C.one_cells_between(src.x_at(C, s), tgt.x_at(C, s))

    if gray:
        component = (components, lambda s, t, st: bool(fillers(s, t)))
        pair = (lambda st: fillers(*st), partial(_filling_cocycle_holds, C, src, tgt, f, gamma),
                partial(swapped_gamma, C, src, tgt, f, gamma))
    else:
        component, pair = (components, partial(_strict_square_holds, C, src, tgt, f)), None
    return _search(
        asg, n, component, pair,
        lambda: make_system_map(C, src, tgt, asg, asg if gray else None),
        lambda mp: validate_system_map(C, mp, gray), "1-cell enumeration", ceiling)


def enumerate_system_two_cells(C, u: SystemMap, v: SystemMap, gray: bool,
                               ceiling: int) -> list[SystemTwoCell]:
    """2-cells u => v: each compatibility square is checked once its
    component at s+t is placed."""
    if u.src != v.src or u.tgt != v.tgt:
        return []
    n = u.n
    asg: dict = {}
    return _search(
        asg, n,
        (lambda s: C.two_cells_between(u.f_at(C, s), v.f_at(C, s)),
         partial(_compat_square_holds, C, u, v, gray, asg.__getitem__)),
        None,
        lambda: mk_system_two_cell(n, u, v, tuple(asg[s] for s in nonempty_subsets_of(n))),
        lambda cell: validate_system_two_cell(C, cell, gray), "2-cell enumeration", ceiling)


# -- level builders ----------------------------------------------------------------


def _build_level(C, n: int, gray: bool, name: str, ceiling: int,
                 systems: list | None = None) -> FiniteTwoCategory:
    if systems is None:
        systems = enumerate_systems(C, n, ceiling)
    one: dict = {}
    total = len(systems)
    for a in systems:
        for b in systems:
            for mp in enumerate_system_maps(C, a, b, gray, ceiling):
                one[mp] = (a, b, is_identity_system_map(C, mp))
                total += 1
                if total > ceiling:
                    raise CellCeilingExceeded("level build", total, ceiling)
    two: dict = {}
    by_pair: dict = {}
    for mp in one:
        by_pair.setdefault((mp.src, mp.tgt), []).append(mp)
    for (a, b), cells in by_pair.items():
        for u in cells:
            for v in cells:
                for cell in enumerate_system_two_cells(C, u, v, gray, ceiling):
                    two[cell] = (u, v, is_identity_system_two_cell(C, cell))
                    total += 1
                    if total > ceiling:
                        raise CellCeilingExceeded("level build", total, ceiling)
    return FiniteTwoCategory(name, systems, one, two, formula=LazyKtLevel(C, n),
                             ceiling=ceiling)


def ko_level(C: PermutativeGrayMonoid, n: int,
             ceiling: int = DEFAULT_CELL_CEILING) -> FiniteTwoCategory:
    """The level at n+ over a cubical carrier, with filling cells."""
    return _build_level(C, n, True, f"Ko({C.name})({n})", ceiling)


def kt_level(C: PermutativeTwoCategory, n: int,
             ceiling: int = DEFAULT_CELL_CEILING) -> FiniteTwoCategory:
    """The level at n+ over a product carrier, with strictly commuting squares.

    Also accepts any carrier exposing a genuine product sum (for example the
    bounded inverse-construction fragment)."""
    return _build_level(C, n, False, f"K({C.name})({n})", ceiling)


# -- reindexing, functoriality, truncations ------------------------------------------


_REINDEX_CACHE: dict = {}


def reindex_system(C, sys: SubsetSystem, phi: PointedMap) -> SubsetSystem:
    key = (C, sys, phi)
    cached = _REINDEX_CACHE.get(key)
    if cached is not None:
        return cached
    n = phi.n
    xmap = {u: sys.x_at(C, phi.preimage(u)) for u in nonempty_subsets_of(n)}
    cmap = {
        (u, v): sys.c_at(C, phi.preimage(u), phi.preimage(v))
        for (u, v) in disjoint_pairs(n)
    }
    out = make_system(C, n, xmap, cmap)
    _REINDEX_CACHE[key] = out
    return out


_REINDEX_MAP_CACHE: dict = {}


def reindex_system_map(C, mp: SystemMap, phi: PointedMap) -> SystemMap:
    key = (C, mp, phi)
    cached = _REINDEX_MAP_CACHE.get(key)
    if cached is not None:
        return cached
    n = phi.n
    fmap = {u: mp.f_at(C, phi.preimage(u)) for u in nonempty_subsets_of(n)}
    gmap = None
    if mp.gamma is not None:
        gmap = {
            (u, v): mp.gamma_at(C, phi.preimage(u), phi.preimage(v))
            for (u, v) in disjoint_pairs(n)
        }
    out = make_system_map(
        C, reindex_system(C, mp.src, phi), reindex_system(C, mp.tgt, phi), fmap, gmap
    )
    _REINDEX_MAP_CACHE[key] = out
    return out


def reindex_system_two_cell(C, cell: SystemTwoCell, phi: PointedMap) -> SystemTwoCell:
    n = phi.n
    return mk_system_two_cell(
        n,
        reindex_system_map(C, cell.src, phi),
        reindex_system_map(C, cell.tgt, phi),
        tuple(cell.alpha_at(C, phi.preimage(u)) for u in nonempty_subsets_of(n)),
    )


def ko_phi(C, phi: PointedMap, level_m: FiniteTwoCategory,
           level_n: FiniteTwoCategory) -> TwoFunctor:
    """The transition 2-functor between built levels along a pointed map.

    Raises ``ValueError`` if a reindexed system is missing from the target
    level."""
    omap = {s: reindex_system(C, s, phi) for s in level_m.objects}
    for v in omap.values():
        if not level_n.has_obj(v):
            raise ValueError(f"reindexed system missing from target level: {v!r}")
    fmap = {f: reindex_system_map(C, f, phi) for f in level_m.one_src}
    amap = {a: reindex_system_two_cell(C, a, phi) for a in level_m.two_src}
    return TwoFunctor(level_m, level_n, omap, fmap, amap, name=f"phi*{phi.imgs}")


def _truncation(C, N: int, name: str, levels: list) -> GammaTruncation:
    # ``ko_phi`` is looked up when a transition is first built, so a
    # rebinding of the module attribute (the traced benchmark) takes effect
    return GammaTruncation(name, N, levels,
                           lambda phi: ko_phi(C, phi, levels[phi.m], levels[phi.n]))


def _gamma_truncation(C, N: int, gray: bool, name: str, ceiling: int) -> GammaTruncation:
    build = ko_level if gray else kt_level
    return _truncation(C, N, name, [build(C, m, ceiling) for m in range(N + 1)])


def ko_gamma(C: PermutativeGrayMonoid, N: int,
             ceiling: int = DEFAULT_CELL_CEILING) -> GammaTruncation:
    return _gamma_truncation(C, N, True, f"Ko({C.name})", ceiling)


def kt_gamma(C: PermutativeTwoCategory, N: int,
             ceiling: int = DEFAULT_CELL_CEILING) -> GammaTruncation:
    return _gamma_truncation(C, N, False, f"K({C.name})", ceiling)


def ko_map(M: MonoidalFunctor, level_src: FiniteTwoCategory,
           level_tgt: FiniteTwoCategory) -> TwoFunctor:
    """Apply a normal-oplax functor levelwise: images are re-validated, and a
    failing image is a hard error (it indicates an invalid input functor)."""
    if M.variant not in VARIANTS:
        raise ValueError("levelwise image needs a strict or normal-oplax functor")
    C, D = M.source, M.target
    F = M.functor

    def on_system(sys: SubsetSystem) -> SubsetSystem:
        n = sys.n
        xmap = {s: F.omap[sys.x_at(C, s)] for s in nonempty_subsets_of(n)}
        cmap = {}
        for (s, t) in disjoint_pairs(n):
            xs, xt = sys.x_at(C, s), sys.x_at(C, t)
            cmap[(s, t)] = D.comp1(M.theta[(xs, xt)], F.fmap[sys.c_at(C, s, t)])
        out = make_system(D, n, xmap, cmap)
        r = validate_system(D, out)
        if not r.ok:
            raise ValueError(f"image system fails target axioms: {r.first()}")
        return out

    def on_map(mp: SystemMap) -> SystemMap:
        n = mp.n
        fmap = {s: F.fmap[mp.f_at(C, s)] for s in nonempty_subsets_of(n)}
        gmap = None
        if mp.gamma is not None:
            gmap = {}
            for (s, t) in disjoint_pairs(n):
                ys, yt = mp.tgt.x_at(C, s), mp.tgt.x_at(C, t)
                gmap[(s, t)] = whisker_l(D, M.theta[(ys, yt)], F.amap[mp.gamma_at(C, s, t)])
        out = make_system_map(D, on_system(mp.src), on_system(mp.tgt), fmap, gmap)
        r = validate_system_map(D, out, gray=mp.gamma is not None)
        if not r.ok:
            raise ValueError(f"image map fails target axioms: {r.first()}")
        return out

    omap = {s: on_system(s) for s in level_src.objects}
    fmap = {f: on_map(f) for f in level_src.one_src}
    amap = {
        a: mk_system_two_cell(a.n, fmap[level_src.src2(a)], fmap[level_src.tgt2(a)],
                              tuple(F.amap[x] for x in a.alpha))
        for a in level_src.two_src
    }
    return TwoFunctor(level_src, level_tgt, omap, fmap, amap, name=f"K({M.name})")


def kt_to_ko(C: PermutativeTwoCategory, n: int,
             ceiling: int = DEFAULT_CELL_CEILING) -> TwoFunctor:
    """The inclusion of the strict level into the cubical one over promote(C)."""
    P = promote(C)
    strict = kt_level(C, n, ceiling)
    loose = ko_level(P, n, ceiling)

    def widen(mp: SystemMap) -> SystemMap:
        f = partial(mp.f_at, P)
        return mk_system_map(n, mp.src, mp.tgt, mp.f, tuple(
            P.id2(_gamma_source(P, mp.src, f, s, t)) for (s, t) in disjoint_pairs(n)))

    omap = {s: s for s in strict.objects}
    fmap = {f: widen(f) for f in strict.one_src}
    amap = {
        a: mk_system_two_cell(a.n, fmap[strict.src2(a)], fmap[strict.tgt2(a)], a.alpha)
        for a in strict.two_src
    }
    return TwoFunctor(strict, loose, omap, fmap, amap, name=f"inc({C.name},{n})")


def level_one_comparison(C, level: FiniteTwoCategory) -> TwoFunctor:
    """Evaluation at the full singleton: the level at 1+ against the carrier."""
    s1 = (1,)
    base = C.base
    omap = {sys: sys.x_at(C, s1) for sys in level.objects}
    fmap = {mp: mp.f_at(C, s1) for mp in level.one_src}
    amap = {cell: cell.alpha_at(C, s1) for cell in level.two_src}
    return TwoFunctor(level, base, omap, fmap, amap, name="ev1")


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


class LazyKtLevel(FieldEndpoints):
    """Cell operations of a level over an arbitrary permutative carrier,
    without enumeration.  Composition takes system maps with or without
    filling cells (cubical or strict levels) and componentwise 2-cells; the
    identities are strict system maps (gamma=None).  Everything is computed
    on demand, so this works over carriers that are too large to tabulate,
    and it is the composition formula of the enumerated levels."""

    def __init__(self, C, m: int):
        self.C = C
        self.m = m

    def id1(self, sys: SubsetSystem) -> SystemMap:
        return identity_system_map(self.C, sys, gray=False)

    def id2(self, mp: SystemMap) -> SystemTwoCell:
        return identity_system_two_cell(self.C, mp)

    def comp1(self, g: SystemMap, f: SystemMap) -> SystemMap:
        return compose_system_maps(self.C, g, f)

    def vcomp(self, b: SystemTwoCell, a: SystemTwoCell) -> SystemTwoCell:
        return mk_system_two_cell(
            a.n, a.src, b.tgt,
            tuple(self.C.vcomp(x, y) for x, y in zip(b.alpha, a.alpha)),
        )

    def hcomp2(self, b: SystemTwoCell, a: SystemTwoCell) -> SystemTwoCell:
        C = self.C
        return mk_system_two_cell(
            a.n,
            compose_system_maps(C, b.src, a.src),
            compose_system_maps(C, b.tgt, a.tgt),
            tuple(C.hcomp2(x, y) for x, y in zip(b.alpha, a.alpha)),
        )

    def is_id1(self, mp: SystemMap) -> bool:
        return is_identity_system_map(self.C, mp)

    def is_id2(self, cell: SystemTwoCell) -> bool:
        return is_identity_system_two_cell(self.C, cell)


class LazyKtGamma:
    """The K-theory diagram of a permutative carrier, with formula levels.

    Levels are unbounded in size; only the operations and the transition
    reindexings are provided.  ``cap`` limits nothing here but records the
    range callers intend to exercise."""

    def __init__(self, C, cap: int, name: str = ""):
        self.C = C
        self.cap = cap
        self.name = name or f"K({C.name})"
        self._levels: dict[int, LazyKtLevel] = {}

    def level(self, m: int) -> LazyKtLevel:
        if m not in self._levels:
            self._levels[m] = LazyKtLevel(self.C, m)
        return self._levels[m]

    def phi_star(self, phi: PointedMap, dim: int, cell):
        if dim == 0:
            return reindex_system(self.C, cell, phi)
        if dim == 1:
            return reindex_system_map(self.C, cell, phi)
        return reindex_system_two_cell(self.C, cell, phi)

    def point(self, dim: int):
        sys = mk_system(0, (), ())
        if dim == 0:
            return sys
        mp = identity_system_map(self.C, sys, gray=False)
        if dim == 1:
            return mp
        return identity_system_two_cell(self.C, mp)


def generated_kt_truncation(C, N: int, seeds: dict[int, list[SubsetSystem]],
                            name: str = "", ceiling: int = DEFAULT_CELL_CEILING):
    """The full reindexing-closed subdiagram of the K-theory of a carrier
    generated by the given level objects.

    Levels are full on the closure of the seeds under every transition map
    within the cap; this is the canonical finite fragment containing a given
    family of systems when the whole level is too large to tabulate.
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
        _build_level(C, m, False, f"{name}({m})", ceiling, systems=per_level[m])
        for m in range(N + 1)
    ]
    return _truncation(C, N, name or f"K({C.name})|gen", levels)
