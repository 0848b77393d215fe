"""Permutative 2-categories and permutative Gray-monoids, in cubical form.

Conventions used throughout the package:

* the canonical sum of 1-cells is ``f (+) g = (1 (+) g) . (f (+) 1)``,
  i.e. the first slot moves first;
* the interchanger ``sigma(f, g)`` is the invertible 2-cell
  ``(f (+) 1).(1 (+) g)  =>  (1 (+) g).(f (+) 1)``;
* braiding components ``beta(a, b): a (+) b -> b (+) a`` are stored per
  object pair.  For Gray-monoids their naturality on generator 1-cells is
  required to hold as an exact equality of 1-cells (the naturality 2-cells
  are identities), which is the quasi-strictness condition.

The Gray tensor product itself is never materialized; a Gray-monoid is
stored as the pair of one-sided sum 2-functors ``a (+) -`` and ``- (+) a``
together with the interchanger table.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cache

from .twocat import (
    CELL_OPERATIONS,
    ENUMERATION_OPERATIONS,
    Cell,
    FiniteTwoCategory,
    TwoFunctor,
    ValidationReport,
    identity_functor,
    scan_functor,
    scan_laws,
    scan_naturality,
    then_maps,
    validate_two_category,
    validate_two_functor,
    vertical_inverse,
    whisker_l,
    whisker_r,
)


def _bind_base(carrier, base: FiniteTwoCategory) -> None:
    """Set the carrier's base and answer the 2-category protocol with the
    base's own bound operations, so a carrier call costs no extra frame."""
    carrier.base = base
    for op in CELL_OPERATIONS + ENUMERATION_OPERATIONS:
        setattr(carrier, op, getattr(base, op))


@dataclass(frozen=True)
class Table:
    """One sum table of a tabulated carrier: its fixture field, the attribute
    holding it, the cell dimension of each key part and of the value, and the
    noun its structure issues use."""

    field: str
    attr: str
    key: tuple[int, int]
    value: int
    noun: str


class TabulatedCarrier:
    """A permutative structure stored as the sum tables its class lists in
    ``TABLES``, in constructor and fixture order; the fixture writer and
    reader, the mutation sampler and equality all read that list."""

    flavor: str
    TABLES: tuple[Table, ...]

    def __init__(self, name, base, unit, *tables):
        self.name = name
        _bind_base(self, base)
        self.unit = unit
        for spec, table in zip(self.TABLES, tables, strict=True):
            setattr(self, spec.attr, dict(table))

    def unit_obj(self) -> Cell:
        return self.unit

    def sum_obj(self, a: Cell, b: Cell) -> Cell:
        return self.sum_obj_table[(a, b)]

    def beta_obj(self, a: Cell, b: Cell) -> Cell:
        return self.beta_table[(a, b)]

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.base == other.base and self.unit == other.unit and all(
            getattr(self, t.attr) == getattr(other, t.attr) for t in self.TABLES
        )

    # equality is by tables; hashing stays by identity (cache-key use only)
    __hash__ = object.__hash__

    def __repr__(self):
        return f"<{type(self).__name__} {self.name}>"


class ProductSum:
    """What a carrier whose sum is a product 2-functor ``sum_one``/``sum_two``
    derives from it: one-sided sums are sums with identities, and the two
    composition orders are equal on the nose, so interchangers are identities."""

    def lsum_one(self, a: Cell, f: Cell) -> Cell:
        return self.sum_one(self.id1(a), f)

    def rsum_one(self, f: Cell, a: Cell) -> Cell:
        return self.sum_one(f, self.id1(a))

    def lsum_two(self, a: Cell, al: Cell) -> Cell:
        return self.sum_two(self.id2(self.id1(a)), al)

    def rsum_two(self, al: Cell, a: Cell) -> Cell:
        return self.sum_two(al, self.id2(self.id1(a)))

    def sigma(self, f: Cell, g: Cell) -> Cell:
        return self.id2(self.sum_one(f, g))

    sigma_inv = sigma


class PermutativeTwoCategory(ProductSum, TabulatedCarrier):
    """A strict monoid in 2-categories under cartesian product, with symmetry.

    The sum is a genuine product 2-functor, tabulated on pairs of cells.
    """

    flavor = "p2cat"
    TABLES = (
        Table("sum_obj", "sum_obj_table", (0, 0), 0, "object sum"),
        Table("sum_one", "sum_one_table", (1, 1), 1, "1-cell sum"),
        Table("sum_two", "sum_two_table", (2, 2), 2, "2-cell sum"),
        Table("beta", "beta_table", (0, 0), 1, "braiding"),
    )

    def sum_one(self, f: Cell, g: Cell) -> Cell:
        return self.sum_one_table[(f, g)]

    def sum_two(self, a: Cell, b: Cell) -> Cell:
        return self.sum_two_table[(a, b)]


class PermutativeGrayMonoid(TabulatedCarrier):
    """Cubical sum data: one-sided sum 2-functors, interchangers, braiding."""

    flavor = "pgm"
    TABLES = (
        Table("sum_obj", "sum_obj_table", (0, 0), 0, "object sum"),
        Table("lsum_one", "lsum1_table", (0, 1), 1, "left sum"),
        Table("rsum_one", "rsum1_table", (1, 0), 1, "right sum"),
        Table("lsum_two", "lsum2_table", (0, 2), 2, "left 2-sum"),
        Table("rsum_two", "rsum2_table", (2, 0), 2, "right 2-sum"),
        Table("sigma", "sigma_table", (1, 1), 2, "interchanger"),
        Table("beta", "beta_table", (0, 0), 1, "braiding"),
    )

    def __init__(self, *args):
        super().__init__(*args)
        self.sigma_inv = cache(self.sigma_inv)

    def lsum_one(self, a: Cell, f: Cell) -> Cell:
        return self.lsum1_table[(a, f)]

    def rsum_one(self, f: Cell, a: Cell) -> Cell:
        return self.rsum1_table[(f, a)]

    def lsum_two(self, a: Cell, al: Cell) -> Cell:
        return self.lsum2_table[(a, al)]

    def rsum_two(self, al: Cell, a: Cell) -> Cell:
        return self.rsum2_table[(al, a)]

    def sum_one(self, f: Cell, g: Cell) -> Cell:
        # canonical order: first slot moves first
        return self.comp1(
            self.lsum_one(self.tgt1(f), g), self.rsum_one(f, self.src1(g))
        )

    def sum_two(self, a: Cell, b: Cell) -> Cell:
        fa = self.src2(a)
        gb = self.src2(b)
        return self.hcomp2(
            self.lsum_two(self.tgt1(fa), b), self.rsum_two(a, self.src1(gb))
        )

    def sigma(self, f: Cell, g: Cell) -> Cell:
        return self.sigma_table[(f, g)]

    def sigma_inv(self, f: Cell, g: Cell) -> Cell:
        inv = vertical_inverse(self.base, self.sigma_table[(f, g)])
        if inv is None:
            raise ValueError(f"interchanger at {(f, g)!r} is not invertible")
        return inv


def sum_many_obj(C, objs: list[Cell]) -> Cell:
    """Left fold of the object sum; the empty sum is the unit."""
    acc = C.unit_obj()
    for a in objs:
        acc = C.sum_obj(acc, a)
    return acc


def _sum_slotwise(C, cells: list, ones, lsum, rsum, comp) -> Cell:
    """The canonical sum of nonempty ``cells`` over the 1-cells ``ones``, slot 1
    moving first: each cell padded by the left folds of the targets before it
    (a running fold) and of the sources after it, composed by ``comp``."""
    if len(cells) == 1:
        return cells[0]
    ones = list(ones)
    sources = list(map(C.src1, ones))
    left = C.unit_obj()
    total = rsum(lsum(left, cells[0]), sum_many_obj(C, sources[1:]))
    for i in range(1, len(cells)):
        left = C.sum_obj(left, C.tgt1(ones[i - 1]))
        total = comp(rsum(lsum(left, cells[i]), sum_many_obj(C, sources[i + 1:])), total)
    return total


def sum_one_cells(C, fs: list[Cell]) -> Cell:
    """Iterated canonical sum of 1-cells: slot 1 moves first, then slot 2, ...

    Different move orders agree only up to interchangers; this fixed order is
    the canonical value.
    """
    if not fs:
        return C.id1(C.unit_obj())
    return _sum_slotwise(C, fs, fs, C.lsum_one, C.rsum_one, C.comp1)


def sum_many_two(C, als: list[Cell]) -> Cell:
    """Iterated canonical sum of 2-cells, matching ``sum_one_cells``."""
    if not als:
        return C.id2(C.id1(C.unit_obj()))
    return _sum_slotwise(C, als, map(C.src2, als), C.lsum_two, C.rsum_two, C.hcomp2)


# -- validation ----------------------------------------------------------------
# Each permutative law is written once, as a scan over a carrier that answers
# ``CELL_OPERATIONS`` and the sum operations, and over the instance domains the
# carrier supplies: a tabulated carrier's come from its base (``Domains.of``),
# the bounded inverse construction lists its own (``inversek.BoundedGroth``).
# Every law here, and every hand-listed law of the functor validators below,
# is counted and reported by ``twocat.scan_laws``.


@dataclass
class Domains:
    """The cells a law scan visits: objects, 1-cells, 2-cells and the
    composable pairs ``(second, first)`` of ``comp1``, ``vcomp`` and
    ``hcomp2``, each split into buckets keyed by (source length, target
    length).  A k-ary instance draws from bucket combinations whose summed
    lengths fit ``bound``; ``None`` is no bound.  A carrier with no
    ``hcomp2`` pairs leaves the sum's preservation of ``hcomp2`` unscanned."""

    objects: dict
    ones: dict
    twos: dict
    comp1: dict
    vcomp: dict
    hcomp2: dict | None
    bound: int | None = None

    @classmethod
    def of(cls, B: FiniteTwoCategory) -> "Domains":
        """A tabulated base's cells and composable pairs, in one bucket."""
        B.fill()
        return cls(*({(0, 0): list(cells)} for cells in (
            B.objects, B.one_src, B.two_src,
            B.hcomp1_table, B.vcomp_table, B.hcomp2_table)))

    def tuples(self, buckets: dict, k: int):
        L = self.bound
        for keys in itertools.product(buckets, repeat=k):
            if L is None or (sum(s for s, _ in keys) <= L and sum(t for _, t in keys) <= L):
                yield from itertools.product(*(buckets[key] for key in keys))


def scan_object_monoid(rep, C, D: Domains) -> None:
    """The object sum is associative with two-sided unit ``C.unit_obj()``."""
    e, add = C.unit_obj(), C.sum_obj
    scan_laws(rep, D.tuples(D.objects, 3), ("monoid", "object associativity",
              lambda a, b, c: add(add(a, b), c) == add(a, add(b, c)), "object sum not associative"))
    scan_laws(rep, D.tuples(D.objects, 1), ("monoid", "object unit",
              lambda a: add(e, a) == a and add(a, e) == a, "object sum not unital"))


def scan_braiding(rep, C, D: Domains) -> None:
    """The braiding is an involution, trivial at the unit, and satisfies the
    hexagon ``beta(a, b+c) = (1_b + beta(a, c)) . (beta(a, b) + 1_c)``."""
    e, add, beta, comp1, id1 = C.unit_obj(), C.sum_obj, C.beta_obj, C.comp1, C.id1
    scan_laws(rep, D.tuples(D.objects, 2), ("braiding", "involution",
              lambda a, b: comp1(beta(b, a), beta(a, b)) == id1(add(a, b)), "beta^2 != id"))
    scan_laws(rep, D.tuples(D.objects, 1), ("braiding", "unit braiding",
              lambda a: beta(e, a) == id1(a) and beta(a, e) == id1(a),
              "unit braiding not the identity"), per=2)
    scan_laws(rep, D.tuples(D.objects, 3), ("braiding", "hexagon",
              lambda a, b, c: beta(a, add(b, c))
              == comp1(C.lsum_one(b, beta(a, c)), C.rsum_one(beta(a, b), c)), "hexagon fails"))


def scan_product_sum(rep, C, D: Domains) -> None:
    """The laws of a permutative 2-category whose sum is a product 2-functor
    ``sum_one``/``sum_two``: the sum preserves identities and the three
    compositions, the object, 1-cell and 2-cell sums are strict monoids, and
    the braiding satisfies ``scan_braiding`` and is 2-natural."""
    id1, id2, comp1, beta = C.id1, C.id2, C.comp1, C.beta_obj
    src1, tgt1, src2 = C.src1, C.tgt1, C.src2
    one, two = C.sum_one, C.sum_two
    scan_laws(rep, D.tuples(D.objects, 2), ("sum-functor", "identity 1-cell preservation",
              lambda a, b: one(id1(a), id1(b)) == id1(C.sum_obj(a, b)),
              "identity 1-cells not preserved"))
    scan_laws(rep, D.tuples(D.ones, 2), ("sum-functor", "identity 2-cell preservation",
              lambda f, g: two(id2(f), id2(g)) == id2(one(f, g)), "identity 2-cells not preserved"))
    for what, op, add, pairs in (("1-cell composition", comp1, one, D.comp1),
                                 ("vertical composition", C.vcomp, two, D.vcomp),
                                 ("horizontal composition", C.hcomp2, two, D.hcomp2)):
        if pairs is not None:
            scan_laws(rep, D.tuples(pairs, 2), ("sum-functor", f"{what} preservation",
                      lambda p, q: add(op(*p), op(*q)) == op(add(p[0], q[0]), add(p[1], q[1])),
                      f"{what} not preserved"),
                      where=lambda pq: "({!r},{!r};{!r},{!r})".format(*pq[0], *pq[1]))
    scan_object_monoid(rep, C, D)
    ide = id1(C.unit_obj())
    for dim, unit, add, cells in (("1-cell", ide, one, D.ones), ("2-cell", id2(ide), two, D.twos)):
        scan_laws(rep, D.tuples(cells, 1), ("monoid", f"{dim} unit",
                  lambda f: add(unit, f) == f and add(f, unit) == f, f"{dim} sum not unital"))
        scan_laws(rep, D.tuples(cells, 3), ("monoid", f"{dim} associativity",
                  lambda f, g, h: add(add(f, g), h) == add(f, add(g, h)),
                  f"{dim} sum not associative"))
    scan_braiding(rep, C, D)
    scan_laws(rep, D.tuples(D.ones, 2), ("braiding", "naturality",
              lambda f, g: comp1(beta(tgt1(f), tgt1(g)), one(f, g))
              == comp1(one(g, f), beta(src1(f), src1(g))), "naturality square fails"))
    scan_laws(rep, D.tuples(D.twos, 2), ("braiding", "2-cell naturality",
              lambda a, b: C.hcomp2(two(b, a), id2(beta(src1(src2(a)), src1(src2(b)))))
              == C.hcomp2(id2(beta(tgt1(src2(a)), tgt1(src2(b)))), two(a, b)),
              "naturality on 2-cells fails"))


def _endpoint_rule(C, t: Table):
    """The source and target the value of table ``t`` at ``(x, y)`` must
    have, as a function of ``(x, y)``.  Only ``beta`` and ``sigma`` have
    rules of their own.  Any other table's value lies over the table one
    dimension down: its source (target) is that table at the sources
    (targets) of the key parts of the value's dimension, a key part of lower
    dimension standing for itself."""
    B = C.base
    if t.field == "beta":
        return lambda a, b: (C.sum_obj(a, b), C.sum_obj(b, a))
    if t.field == "sigma":
        return lambda f, g: (B.comp1(C.rsum_one(f, B.tgt1(g)), C.lsum_one(B.src1(f), g)),
                             B.comp1(C.lsum_one(B.tgt1(f), g), C.rsum_one(f, B.src1(g))))
    v = t.value
    key = tuple(min(d, v - 1) for d in t.key)
    lower = next(getattr(C, s.attr) for s in C.TABLES if (s.key, s.value) == (key, v - 1))
    ends = (B.src1, B.tgt1) if v == 1 else (B.src2, B.tgt2)
    return lambda x, y: tuple(
        lower[tuple(end(c) if d == v else c for c, d in zip((x, y), t.key))] for end in ends)


def _structure_holds(rep, C) -> bool:
    """The base satisfies the 2-category axioms, and each table of
    ``C.TABLES`` is total on its key domain, names cells of its declared
    dimensions, and types its values' endpoints; each failure is a
    ``structure`` issue."""
    B = C.base
    base_rep = validate_two_category(B)
    if not base_rep.ok:
        rep.add("structure", "underlying 2-category invalid")
        rep.merge(base_rep)
        return False
    cells = (B.objects, B.one_src, B.two_src)
    kinds = ("an object", "a 1-cell", "a 2-cell")
    for t in C.TABLES:
        table = getattr(C, t.attr)
        for x, y in itertools.product(*(cells[d] for d in t.key)):
            if (x, y) not in table:
                rep.add("structure", f"{t.noun} missing at ({x!r},{y!r})")
        for (x, y), v in table.items():
            for c, d in ((x, t.key[0]), (y, t.key[1]), (v, t.value)):
                if c not in cells[d]:
                    rep.add("structure", f"{t.noun} at ({x!r},{y!r}) names {c!r}, not {kinds[d]}")
    if rep.issues:
        return False
    for t in C.TABLES:
        if t.value == 0:
            continue
        src, tgt = (B.src1, B.tgt1) if t.value == 1 else (B.src2, B.tgt2)
        endpoints = _endpoint_rule(C, t)
        for (x, y), v in getattr(C, t.attr).items():
            try:
                typed = (src(v), tgt(v)) == endpoints(x, y)
            except KeyError:
                typed = False
            if not typed:
                rep.add("structure", f"{t.noun} at ({x!r},{y!r}) has wrong endpoints")
    return not rep.issues


def validate_permutative(C: PermutativeTwoCategory) -> ValidationReport:
    """Exhaustive axiom scan for a permutative 2-category."""
    rep = ValidationReport(f"permutative 2-category {C.name}")
    if _structure_holds(rep, C):
        scan_product_sum(rep, C, Domains.of(C.base))
    return rep


def one_sided(C, a: Cell, left: bool) -> tuple:
    """The cell maps of the one-sided sum 2-functor ``a (+) -`` (``left``)
    or ``- (+) a`` of carrier ``C``, on objects, 1-cells and 2-cells."""
    if left:
        return (lambda x: C.sum_obj(a, x), lambda f: C.lsum_one(a, f),
                lambda al: C.lsum_two(a, al))
    return (lambda x: C.sum_obj(x, a), lambda f: C.rsum_one(f, a),
            lambda al: C.rsum_two(al, a))


def validate_pgm(C: PermutativeGrayMonoid) -> ValidationReport:
    """Exhaustive axiom scan for a permutative Gray-monoid in cubical form."""
    rep = ValidationReport(f"permutative Gray-monoid {C.name}")
    if not _structure_holds(rep, C):
        return rep
    B = C.base
    objs = B.objects
    ones = list(B.one_src)
    twos = list(B.two_src)
    D = Domains.of(B)
    scan_object_monoid(rep, C, D)

    # one-sided sums are strict 2-functors
    for a in objs:
        scan_functor(rep, B, B, one_sided(C, a, True), f"{a!r}(+)-: ")
        scan_functor(rep, B, B, one_sided(C, a, False), f"-(+){a!r}: ")

    # unit and associativity of the cubical data, in each dimension
    e, add = C.unit, C.sum_obj
    for dim, lsum, rsum, cells in (("1-cell", C.lsum_one, C.rsum_one, ones),
                                   ("2-cell", C.lsum_two, C.rsum_two, twos)):
        scan_laws(rep, zip(cells), ("cubical", f"{dim} unit",
                  lambda c: lsum(e, c) == c and rsum(c, e) == c, f"unit {dim} sums fail"), per=2)
        triples = list(itertools.product(objs, objs, cells))
        scan_laws(rep, triples, ("cubical", f"left {dim} associativity",
                  lambda a, b, c: lsum(a, lsum(b, c)) == lsum(add(a, b), c),
                  f"left {dim} sums not associative"))
        scan_laws(rep, triples, ("cubical", f"right {dim} associativity",
                  lambda a, b, c: rsum(rsum(c, a), b) == rsum(c, add(a, b)),
                  f"right {dim} sums not associative"))
        scan_laws(rep, triples, ("cubical", f"left/right {dim} sums",
                  lambda a, b, c: lsum(a, rsum(c, b)) == rsum(lsum(a, c), b),
                  f"left/right {dim} sums do not commute"))

    # interchanger axioms, one instance per interchanger
    ident, ident2 = B.one_identity, B.two_identity
    scan_laws(rep, ((f, g, sg) for (f, g), sg in C.sigma_table.items()),
              ("interchanger", "interchanger unit",
               lambda f, g, sg: not (ident[f] or ident[g]) or ident2[sg],
               lambda f, g, sg: f"sigma({f!r},{g!r}) must be the identity"),
              ("interchanger", "interchanger inverse",
               lambda f, g, sg: vertical_inverse(B, sg) is not None,
               lambda f, g, sg: f"sigma({f!r},{g!r}) not invertible"), per=1)
    if rep.issues:
        return rep

    def natural(a1, a2):
        f1, g1 = B.two_src[a1], B.two_tgt[a1]
        f2, g2 = B.two_src[a2], B.two_tgt[a2]
        x, x2 = B.one_src[f1], B.one_tgt[f1]
        y, y2 = B.one_src[f2], B.one_tgt[f2]
        first = B.hcomp2(C.rsum_two(a1, y2), C.lsum_two(x, a2))
        second = B.hcomp2(C.lsum_two(x2, a2), C.rsum_two(a1, y))
        return B.vcomp(C.sigma(g1, g2), first) == B.vcomp(second, C.sigma(f1, f2))

    def first_slot(h1, f1, g):
        y, y2 = B.one_src[g], B.one_tgt[g]
        stepA = whisker_l(B, C.rsum_one(h1, y2), C.sigma(f1, g))
        stepB = whisker_r(B, C.sigma(h1, g), C.rsum_one(f1, y))
        return C.sigma(B.comp1(h1, f1), g) == B.vcomp(stepB, stepA)

    def second_slot(f, h2, g2):
        x, x2 = B.one_src[f], B.one_tgt[f]
        stepA = whisker_r(B, C.sigma(f, h2), C.lsum_one(x, g2))
        stepB = whisker_l(B, C.lsum_one(x2, h2), C.sigma(f, g2))
        return C.sigma(f, B.comp1(h2, g2)) == B.vcomp(stepB, stepA)

    # naturality in both slots, and composites in the first and second slot
    scan_laws(rep, itertools.product(twos, twos),
              ("interchanger", "interchanger naturality", natural, "naturality fails"))
    scan_laws(rep, ((h1, f1, g) for h1, f1 in B.hcomp1_table for g in ones),
              ("interchanger", "first-slot composite", first_slot, "first-slot composite fails"))
    scan_laws(rep, ((f, h2, g2) for h2, g2 in B.hcomp1_table for f in ones),
              ("interchanger", "second-slot composite", second_slot,
               "second-slot composite fails"))

    scan_braiding(rep, C, D)

    # quasi-strict naturality: the braiding is 2-natural in each slot, so its
    # naturality cells on generator 1-cells are identities
    for b in objs:
        scan_naturality(rep, B, B, lambda x, b=b: C.beta_obj(x, b), one_sided(C, b, False),
                        one_sided(C, b, True), "quasi-strict", f"beta(-,{b!r})")
        scan_naturality(rep, B, B, lambda x, b=b: C.beta_obj(b, x), one_sided(C, b, True),
                        one_sided(C, b, False), "quasi-strict", f"beta({b!r},-)")
    # interchangers against braiding components are identities
    scan_laws(rep, ((a, b, bc, g) for (a, b), bc in C.beta_table.items() for g in ones),
              ("quasi-strict", "interchanger with a braiding, left",
               lambda a, b, bc, g: ident2[C.sigma(bc, g)],
               lambda a, b, bc, g: f"sigma(beta({a!r},{b!r}), {g!r}) not the identity"),
              ("quasi-strict", "interchanger with a braiding, right",
               lambda a, b, bc, g: ident2[C.sigma(g, bc)],
               lambda a, b, bc, g: f"sigma({g!r}, beta({a!r},{b!r})) not the identity"))
    return rep


# -- promotion and demotion -----------------------------------------------------


def promote(C: PermutativeTwoCategory) -> PermutativeGrayMonoid:
    """View a permutative 2-category as cubical data with identity interchangers."""
    B = C.base
    lsum1 = {(a, f): C.sum_one(B.id1(a), f) for a in B.objects for f in B.one_src}
    rsum1 = {(f, a): C.sum_one(f, B.id1(a)) for a in B.objects for f in B.one_src}
    lsum2 = {(a, al): C.sum_two(B.id2(B.id1(a)), al) for a in B.objects for al in B.two_src}
    rsum2 = {(al, a): C.sum_two(al, B.id2(B.id1(a))) for a in B.objects for al in B.two_src}
    sigma = {
        (f, g): B.id2(C.sum_one(f, g))
        for f in B.one_src for g in B.one_src
    }
    return PermutativeGrayMonoid(
        C.name, B, C.unit, dict(C.sum_obj_table), lsum1, rsum1, lsum2, rsum2,
        sigma, dict(C.beta_table),
    )


class DemotionRefused(Exception):
    """Raised when cubical data has a genuinely non-identity interchanger."""

    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"non-identity interchanger at {witness!r}")


def demote(C: PermutativeGrayMonoid) -> PermutativeTwoCategory:
    """Rebuild a product sum 2-functor from cubical data with identity sigma.

    Refuses, naming a witness, when any interchanger is not an identity.
    """
    B = C.base
    for key, sg in C.sigma_table.items():
        if not B.two_identity[sg]:
            raise DemotionRefused(key)
    sum_one = {
        (f, g): C.sum_one(f, g) for f in B.one_src for g in B.one_src
    }
    sum_two = {
        (a, b): C.sum_two(a, b) for a in B.two_src for b in B.two_src
    }
    return PermutativeTwoCategory(
        C.name, B, C.unit, dict(C.sum_obj_table), sum_one, sum_two,
        dict(C.beta_table),
    )


# -- monoidal functor variants ---------------------------------------------------


VARIANTS = ("strict", "normal-oplax")


@dataclass
class MonoidalFunctor:
    """A functor of permutative structures with unit and sum comparison data.

    ``theta0`` runs F(e) -> e and ``theta[(x, y)]`` runs F(x (+) y) -> Fx (+) Fy;
    both variants are oplax, and a strict functor's comparisons are identities.
    """

    variant: str
    functor: TwoFunctor
    source: PermutativeTwoCategory | PermutativeGrayMonoid
    target: PermutativeTwoCategory | PermutativeGrayMonoid
    theta0: Cell = None
    theta: dict = field(default_factory=dict)
    name: str = ""


def identity_monoidal_functor(C) -> MonoidalFunctor:
    F = identity_functor(C.base)
    theta = {
        (x, y): C.id1(C.sum_obj(x, y))
        for x in C.base.objects for y in C.base.objects
    }
    return MonoidalFunctor("strict", F, C, C, C.id1(C.unit_obj()), theta, name=f"id_{C.name}")


def compose_monoidal(G: MonoidalFunctor, F: MonoidalFunctor) -> MonoidalFunctor:
    """Composite of two functors of the same variant (oplax pasting)."""
    if G.variant != F.variant:
        raise ValueError("variant mismatch")
    D = G.target
    theta0 = D.comp1(G.theta0, G.functor.fmap[F.theta0])
    theta = {
        (x, y): D.comp1(G.theta[(F.functor.omap[x], F.functor.omap[y])], G.functor.fmap[t])
        for (x, y), t in F.theta.items()
    }
    return MonoidalFunctor(F.variant, F.functor.then(G.functor), F.source, G.target,
                           theta0, theta, name=f"{G.name}.{F.name}")


def validate_monoidal_functor(M: MonoidalFunctor) -> ValidationReport:
    """Check the variant-specific unit, associativity and braiding diagrams."""
    rep = ValidationReport(f"monoidal functor {M.name or '?'} ({M.variant})")
    if M.variant not in VARIANTS:
        rep.add("structure", f"unknown variant {M.variant!r}")
        return rep
    frep = validate_two_functor(M.functor)
    if not frep.ok:
        rep.add("structure", "underlying 2-functor invalid")
        rep.merge(frep)
        return rep
    C, D = M.source, M.target
    F = M.functor
    B, E = C.base, D.base
    e_c, e_d = C.unit_obj(), D.unit_obj()

    if F.omap[e_c] != e_d:
        rep.add("structure", "unit object not preserved on the nose")
        return rep

    # theta structure
    if M.theta0 is None or M.theta0 not in E.one_src:
        rep.add("structure", "missing unit comparison 1-cell")
        return rep
    if (E.one_src[M.theta0], E.one_tgt[M.theta0]) != (F.omap[e_c], e_d):
        rep.add("structure", "unit comparison 1-cell has wrong endpoints")
    for x, y in itertools.product(B.objects, B.objects):
        t = M.theta.get((x, y))
        if t is None:
            rep.add("structure", f"missing sum comparison at ({x!r},{y!r})")
            continue
        fxy = F.omap[C.sum_obj(x, y)]
        sxy = D.sum_obj(F.omap[x], F.omap[y])
        if (E.one_src[t], E.one_tgt[t]) != (fxy, sxy):
            rep.add("structure", f"sum comparison at ({x!r},{y!r}) has wrong endpoints")
    if rep.issues:
        return rep

    scan_laws(rep, [()], ("normal", "unit comparison", lambda: E.one_identity[M.theta0],
                          lambda: "unit comparison must be the identity"))
    if M.variant == "strict":
        # with identity comparisons the oplax laws below are the preservation
        # of the sums (theta-naturality), of sigma and of beta (the squares)
        scan_laws(rep, itertools.product(B.objects, B.objects), ("strict", "sum comparison",
                  lambda x, y: M.theta[(x, y)] == E.id1(D.sum_obj(F.omap[x], F.omap[y])),
                  lambda x, y: f"sum comparison at ({x!r},{y!r}) not the identity"))

    # 2-naturality of theta(-, b): F.(- (+) b) => (- (+) Fb).F, and its mirror
    maps = F.cell_maps()
    for b in B.objects:
        fb = F.omap[b]
        scan_naturality(rep, B, E, lambda x, b=b: M.theta[(x, b)],
                        then_maps(one_sided(C, b, False), maps),
                        then_maps(maps, one_sided(D, fb, False)), "naturality", f"theta(-,{b!r})")
        scan_naturality(rep, B, E, lambda x, b=b: M.theta[(b, x)],
                        then_maps(one_sided(C, b, True), maps),
                        then_maps(maps, one_sided(D, fb, True)), "naturality", f"theta({b!r},-)")
    omap, fmap, theta, t0 = F.omap, F.fmap, M.theta, M.theta0
    objs, src, tgt = B.objects, B.one_src, B.one_tgt

    def interchanger(f, g):
        lhs = E.hcomp2(D.sigma(fmap[f], fmap[g]), E.id2(theta[(src[f], src[g])]))
        return lhs == E.hcomp2(E.id2(theta[(tgt[f], tgt[g])]), F.amap[C.sigma(f, g)])

    def associative(x, y, z):
        lhs = E.comp1(D.rsum_one(theta[(x, y)], omap[z]), theta[(C.sum_obj(x, y), z)])
        return lhs == E.comp1(D.lsum_one(omap[x], theta[(y, z)]), theta[(x, C.sum_obj(y, z))])

    scan_laws(rep, itertools.product(src, src), ("naturality", "theta vs interchanger",
              interchanger, "theta vs interchanger fails"))
    # unit triangles, associativity square, braiding square
    scan_laws(rep, zip(objs),
              ("diagram", "left unit triangle", lambda x: E.comp1(
                  D.rsum_one(t0, omap[x]), theta[(e_c, x)]) == E.id1(omap[x]),
               "left unit triangle fails"),
              ("diagram", "right unit triangle", lambda x: E.comp1(
                  D.lsum_one(omap[x], t0), theta[(x, e_c)]) == E.id1(omap[x]),
               "right unit triangle fails"))
    scan_laws(rep, itertools.product(objs, objs, objs),
              ("diagram", "associativity square", associative, "associativity square fails"))
    scan_laws(rep, itertools.product(objs, objs), ("diagram", "braiding square",
              lambda x, y: E.comp1(D.beta_obj(omap[x], omap[y]), theta[(x, y)])
              == E.comp1(theta[(y, x)], fmap[C.beta_obj(x, y)]), "braiding square fails"))
    return rep


# -- shipped fixtures ------------------------------------------------------------


def fixture(name: str):
    """A shipped fixture, read from its ``.fx`` file."""
    from .cli import resolve_fixture  # cli imports this module

    return resolve_fixture(name, None)
