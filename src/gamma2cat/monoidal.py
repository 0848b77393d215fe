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

from .twocat import (
    CELL_OPERATIONS,
    ENUMERATION_OPERATIONS,
    Cell,
    FiniteTwoCategory,
    TwoFunctor,
    ValidationReport,
    identity_functor,
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
        self._sigma_inv: dict[tuple[Cell, Cell], Cell] = {}

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
        key = (f, g)
        if key not in self._sigma_inv:
            inv = vertical_inverse(self.base, self.sigma_table[key])
            if inv is None:
                raise ValueError(f"interchanger at {key!r} is not invertible")
            self._sigma_inv[key] = inv
        return self._sigma_inv[key]


def sum_many_obj(C, objs: list[Cell]) -> Cell:
    """Left fold of the object sum; the empty sum is the unit."""
    acc = C.unit_obj()
    for a in objs:
        acc = C.sum_obj(acc, a)
    return acc


def sum_one_cells(C, fs: list[Cell]) -> Cell:
    """Iterated canonical sum of 1-cells: slot 1 moves first, then slot 2, ...

    Different move orders agree only up to interchangers; this fixed order is
    the canonical value.
    """
    if not fs:
        return C.id1(C.unit_obj())
    if len(fs) == 1:
        return fs[0]
    total = None
    for i, f in enumerate(fs):
        left = sum_many_obj(C, [C.tgt1(x) for x in fs[:i]])
        right = sum_many_obj(C, [C.src1(x) for x in fs[i + 1:]])
        emb = C.rsum_one(C.lsum_one(left, f), right)
        total = emb if total is None else C.comp1(emb, total)
    return total


def sum_many_two(C, als: list[Cell]) -> Cell:
    """Iterated canonical sum of 2-cells, matching ``sum_one_cells``."""
    if not als:
        return C.id2(C.id1(C.unit_obj()))
    if len(als) == 1:
        return als[0]
    total = None
    for i, al in enumerate(als):
        left = sum_many_obj(C, [C.tgt1(C.src2(x)) for x in als[:i]])
        right = sum_many_obj(C, [C.src1(C.src2(x)) for x in als[i + 1:]])
        emb = C.rsum_two(C.lsum_two(left, al), right)
        total = emb if total is None else C.hcomp2(emb, total)
    return total


# -- validation ----------------------------------------------------------------
# Each permutative law is written once, as a scan over a carrier that answers
# ``CELL_OPERATIONS`` and the sum operations, and over the instance domains the
# carrier supplies: a tabulated carrier's come from its base (``Domains.of``),
# the bounded inverse construction lists its own (``inversek.BoundedGroth``).


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


def _at(args) -> str:
    return repr(args[0]) if len(args) == 1 else "(" + ",".join(map(repr, args)) + ")"


def _at_pairs(args) -> str:
    (b2, b1), (a2, a1) = args
    return f"({b2!r},{b1!r};{a2!r},{a1!r})"


def _scan(rep, kind, name, fails, instances, holds, per=1, where=_at) -> None:
    """Check ``holds`` at every instance, counting ``per`` (the equations it
    checks) each.  A failure is the ``kind`` issue ``"{fails} at {where}"``;
    an instance whose cells do not compose, which only a lazily evaluated
    carrier can meet, is an ill-typed instance of ``name``."""
    for args in instances:
        rep.checked += per
        try:
            if not holds(*args):
                rep.add(kind, f"{fails} at {where(args)}")
        except (ValueError, KeyError) as exc:
            rep.add(kind, f"{name} at {where(args)}: ill-typed instance ({exc})")


def scan_object_monoid(rep, C, D: Domains) -> None:
    """The object sum is associative with two-sided unit ``C.unit_obj()``."""
    e, add = C.unit_obj(), C.sum_obj
    _scan(rep, "monoid", "object associativity", "object sum not associative",
          D.tuples(D.objects, 3), lambda a, b, c: add(add(a, b), c) == add(a, add(b, c)))
    _scan(rep, "monoid", "object unit", "object sum not unital",
          D.tuples(D.objects, 1), lambda a: add(e, a) == a and add(a, e) == a)


def scan_braiding(rep, C, D: Domains) -> None:
    """The braiding is an involution, trivial at the unit, and satisfies the
    hexagon ``beta(a, b+c) = (1_b + beta(a, c)) . (beta(a, b) + 1_c)``."""
    e, add, beta, comp1, id1 = C.unit_obj(), C.sum_obj, C.beta_obj, C.comp1, C.id1
    _scan(rep, "braiding", "involution", "beta^2 != id", D.tuples(D.objects, 2),
          lambda a, b: comp1(beta(b, a), beta(a, b)) == id1(add(a, b)))
    _scan(rep, "braiding", "unit braiding", "unit braiding not the identity",
          D.tuples(D.objects, 1), lambda a: beta(e, a) == id1(a) and beta(a, e) == id1(a), per=2)
    _scan(rep, "braiding", "hexagon", "hexagon fails", D.tuples(D.objects, 3),
          lambda a, b, c: beta(a, add(b, c))
          == comp1(C.lsum_one(b, beta(a, c)), C.rsum_one(beta(a, b), c)))


def scan_product_sum(rep, C, D: Domains) -> None:
    """The laws of a permutative 2-category whose sum is a product 2-functor
    ``sum_one``/``sum_two``: the sum preserves identities and the three
    compositions, the object, 1-cell and 2-cell sums are strict monoids, and
    the braiding satisfies ``scan_braiding`` and is 2-natural."""
    id1, id2, comp1, beta = C.id1, C.id2, C.comp1, C.beta_obj
    src1, tgt1, src2 = C.src1, C.tgt1, C.src2
    one, two = C.sum_one, C.sum_two
    _scan(rep, "sum-functor", "identity 1-cell preservation", "identity 1-cells not preserved",
          D.tuples(D.objects, 2), lambda a, b: one(id1(a), id1(b)) == id1(C.sum_obj(a, b)))
    _scan(rep, "sum-functor", "identity 2-cell preservation", "identity 2-cells not preserved",
          D.tuples(D.ones, 2), lambda f, g: two(id2(f), id2(g)) == id2(one(f, g)))
    for what, op, add, pairs in (("1-cell composition", comp1, one, D.comp1),
                                 ("vertical composition", C.vcomp, two, D.vcomp),
                                 ("horizontal composition", C.hcomp2, two, D.hcomp2)):
        if pairs is not None:
            _scan(rep, "sum-functor", f"{what} preservation", f"{what} not preserved",
                  D.tuples(pairs, 2), lambda p, q, op=op, add=add:
                  add(op(*p), op(*q)) == op(add(p[0], q[0]), add(p[1], q[1])),
                  where=_at_pairs)
    scan_object_monoid(rep, C, D)
    ide = id1(C.unit_obj())
    for dim, unit, add, cells in (("1-cell", ide, one, D.ones), ("2-cell", id2(ide), two, D.twos)):
        _scan(rep, "monoid", f"{dim} unit", f"{dim} sum not unital", D.tuples(cells, 1),
              lambda f, unit=unit, add=add: add(unit, f) == f and add(f, unit) == f)
        _scan(rep, "monoid", f"{dim} associativity", f"{dim} sum not associative",
              D.tuples(cells, 3), lambda f, g, h, add=add: add(add(f, g), h) == add(f, add(g, h)))
    scan_braiding(rep, C, D)
    _scan(rep, "braiding", "naturality", "naturality square fails", D.tuples(D.ones, 2),
          lambda f, g: comp1(beta(tgt1(f), tgt1(g)), one(f, g))
          == comp1(one(g, f), beta(src1(f), src1(g))))
    _scan(rep, "braiding", "2-cell naturality", "naturality on 2-cells fails",
          D.tuples(D.twos, 2), lambda a, b:
          C.hcomp2(two(b, a), id2(beta(src1(src2(a)), src1(src2(b)))))
          == C.hcomp2(id2(beta(tgt1(src2(a)), tgt1(src2(b)))), two(a, b)))


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
    e = C.unit
    scan_object_monoid(rep, C, D)

    # one-sided sums are strict 2-functors
    for a in objs:
        for x in objs:
            rep.checked += 2
            if C.lsum_one(a, B.id1(x)) != B.id1(C.sum_obj(a, x)):
                rep.add("cubical", f"a(+)- does not preserve id1 at ({a!r},{x!r})")
            if C.rsum_one(B.id1(x), a) != B.id1(C.sum_obj(x, a)):
                rep.add("cubical", f"-(+)a does not preserve id1 at ({x!r},{a!r})")
        for f in ones:
            rep.checked += 2
            if C.lsum_two(a, B.id2(f)) != B.id2(C.lsum_one(a, f)):
                rep.add("cubical", f"a(+)- does not preserve id2 at ({a!r},{f!r})")
            if C.rsum_two(B.id2(f), a) != B.id2(C.rsum_one(f, a)):
                rep.add("cubical", f"-(+)a does not preserve id2 at ({f!r},{a!r})")
        for (g, f) in B.hcomp1_table:
            rep.checked += 2
            if C.lsum_one(a, B.comp1(g, f)) != B.comp1(C.lsum_one(a, g), C.lsum_one(a, f)):
                rep.add("cubical", f"a(+)- not functorial on 1-cells at ({a!r},{g!r},{f!r})")
            if C.rsum_one(B.comp1(g, f), a) != B.comp1(C.rsum_one(g, a), C.rsum_one(f, a)):
                rep.add("cubical", f"-(+)a not functorial on 1-cells at ({g!r},{f!r},{a!r})")
        for (b2, b1) in B.vcomp_table:
            rep.checked += 2
            if C.lsum_two(a, B.vcomp(b2, b1)) != B.vcomp(C.lsum_two(a, b2), C.lsum_two(a, b1)):
                rep.add("cubical", f"a(+)- not functorial (vert) at ({a!r},{b2!r},{b1!r})")
            if C.rsum_two(B.vcomp(b2, b1), a) != B.vcomp(C.rsum_two(b2, a), C.rsum_two(b1, a)):
                rep.add("cubical", f"-(+)a not functorial (vert) at ({b2!r},{b1!r},{a!r})")
        for (b2, b1) in B.hcomp2_table:
            rep.checked += 2
            if C.lsum_two(a, B.hcomp2(b2, b1)) != B.hcomp2(C.lsum_two(a, b2), C.lsum_two(a, b1)):
                rep.add("cubical", f"a(+)- not functorial (horiz) at ({a!r},{b2!r},{b1!r})")
            if C.rsum_two(B.hcomp2(b2, b1), a) != B.hcomp2(C.rsum_two(b2, a), C.rsum_two(b1, a)):
                rep.add("cubical", f"-(+)a not functorial (horiz) at ({b2!r},{b1!r},{a!r})")

    # unit and associativity of the cubical data
    for f in ones:
        rep.checked += 2
        if C.lsum_one(e, f) != f:
            rep.add("cubical", f"e(+)f != f at {f!r}")
        if C.rsum_one(f, e) != f:
            rep.add("cubical", f"f(+)e != f at {f!r}")
    for al in twos:
        rep.checked += 2
        if C.lsum_two(e, al) != al or C.rsum_two(al, e) != al:
            rep.add("cubical", f"unit 2-sum fails at {al!r}")
    for a, b in itertools.product(objs, objs):
        for f in ones:
            rep.checked += 3
            if C.lsum_one(a, C.lsum_one(b, f)) != C.lsum_one(C.sum_obj(a, b), f):
                rep.add("cubical", f"left sums not associative at ({a!r},{b!r},{f!r})")
            if C.rsum_one(C.rsum_one(f, a), b) != C.rsum_one(f, C.sum_obj(a, b)):
                rep.add("cubical", f"right sums not associative at ({f!r},{a!r},{b!r})")
            if C.lsum_one(a, C.rsum_one(f, b)) != C.rsum_one(C.lsum_one(a, f), b):
                rep.add("cubical", f"left/right sums do not commute at ({a!r},{f!r},{b!r})")
        for al in twos:
            rep.checked += 3
            if C.lsum_two(a, C.lsum_two(b, al)) != C.lsum_two(C.sum_obj(a, b), al):
                rep.add("cubical", f"left 2-sums not associative at ({a!r},{b!r},{al!r})")
            if C.rsum_two(C.rsum_two(al, a), b) != C.rsum_two(al, C.sum_obj(a, b)):
                rep.add("cubical", f"right 2-sums not associative at ({al!r},{a!r},{b!r})")
            if C.lsum_two(a, C.rsum_two(al, b)) != C.rsum_two(C.lsum_two(a, al), b):
                rep.add("cubical", f"left/right 2-sums do not commute at ({a!r},{al!r},{b!r})")

    # interchanger axioms
    for (f, g), sg in C.sigma_table.items():
        rep.checked += 1
        if B.one_identity[f] or B.one_identity[g]:
            if not B.two_identity[sg]:
                rep.add("interchanger", f"sigma({f!r},{g!r}) must be the identity")
        if vertical_inverse(B, sg) is None:
            rep.add("interchanger", f"sigma({f!r},{g!r}) not invertible")
    if rep.issues:
        return rep
    # naturality in both slots
    for a1 in twos:
        for a2 in twos:
            f1, g1 = B.two_src[a1], B.two_tgt[a1]
            f2, g2 = B.two_src[a2], B.two_tgt[a2]
            x, x2 = B.one_src[f1], B.one_tgt[f1]
            y, y2 = B.one_src[f2], B.one_tgt[f2]
            rep.checked += 1
            first = B.hcomp2(C.rsum_two(a1, y2), C.lsum_two(x, a2))
            second = B.hcomp2(C.lsum_two(x2, a2), C.rsum_two(a1, y))
            if B.vcomp(C.sigma(g1, g2), first) != B.vcomp(second, C.sigma(f1, f2)):
                rep.add("interchanger", f"naturality fails at ({a1!r},{a2!r})")
    # composites in the first slot
    for (h1, f1) in B.hcomp1_table:
        for g in ones:
            rep.checked += 1
            x2 = B.one_tgt[f1]
            y, y2 = B.one_src[g], B.one_tgt[g]
            lhs = C.sigma(B.comp1(h1, f1), g)
            stepA = whisker_l(B, C.rsum_one(h1, y2), C.sigma(f1, g))
            stepB = whisker_r(B, C.sigma(h1, g), C.rsum_one(f1, y))
            if lhs != B.vcomp(stepB, stepA):
                rep.add("interchanger", f"first-slot composite fails at ({h1!r},{f1!r},{g!r})")
    # composites in the second slot
    for (h2, g2) in B.hcomp1_table:
        for f in ones:
            rep.checked += 1
            x, x2 = B.one_src[f], B.one_tgt[f]
            y2 = B.one_tgt[g2]
            lhs = C.sigma(f, B.comp1(h2, g2))
            stepA = whisker_r(B, C.sigma(f, h2), C.lsum_one(x, g2))
            stepB = whisker_l(B, C.lsum_one(x2, h2), C.sigma(f, g2))
            if lhs != B.vcomp(stepB, stepA):
                rep.add("interchanger", f"second-slot composite fails at ({f!r},{h2!r},{g2!r})")

    scan_braiding(rep, C, D)

    # quasi-strict naturality: the braiding naturality cells on generator
    # 1-cells are identities, and the whiskered 2-cell conditions hold
    for f in ones:
        x, x2 = B.one_src[f], B.one_tgt[f]
        for b in objs:
            rep.checked += 2
            if B.comp1(C.beta_obj(x2, b), C.rsum_one(f, b)) != \
               B.comp1(C.lsum_one(b, f), C.beta_obj(x, b)):
                rep.add("quasi-strict", f"beta naturality (f,1) fails at ({f!r},{b!r})")
            if B.comp1(C.beta_obj(b, x2), C.lsum_one(b, f)) != \
               B.comp1(C.rsum_one(f, b), C.beta_obj(b, x)):
                rep.add("quasi-strict", f"beta naturality (1,f) fails at ({b!r},{f!r})")
    for al in twos:
        f = B.two_src[al]
        x, x2 = B.one_src[f], B.one_tgt[f]
        for b in objs:
            rep.checked += 2
            lhs = B.hcomp2(C.lsum_two(b, al), B.id2(C.beta_obj(x, b)))
            rhs = B.hcomp2(B.id2(C.beta_obj(x2, b)), C.rsum_two(al, b))
            if lhs != rhs:
                rep.add("quasi-strict", f"beta 2-cell condition (al,1) fails at ({al!r},{b!r})")
            lhs = B.hcomp2(C.rsum_two(al, b), B.id2(C.beta_obj(b, x)))
            rhs = B.hcomp2(B.id2(C.beta_obj(b, x2)), C.lsum_two(b, al))
            if lhs != rhs:
                rep.add("quasi-strict", f"beta 2-cell condition (1,al) fails at ({b!r},{al!r})")
    # interchangers against braiding components are identities
    for (a, b), bc in C.beta_table.items():
        for g in ones:
            rep.checked += 2
            if not B.two_identity[C.sigma(bc, g)]:
                rep.add("quasi-strict", f"sigma(beta({a!r},{b!r}), {g!r}) not the identity")
            if not B.two_identity[C.sigma(g, bc)]:
                rep.add("quasi-strict", f"sigma({g!r}, beta({a!r},{b!r})) not the identity")
    return rep


# -- promotion, demotion, nudging ----------------------------------------------


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


@dataclass
class NudgedCubicalData:
    """Cubical data with the composition order flipped and sigma inverted.

    The canonical value of a sum of 1-cells under this orientation is
    ``(f (+) 1).(1 (+) g)``; nudging twice restores the original data.
    """

    original: PermutativeGrayMonoid
    sigma_table: dict = field(default_factory=dict)
    opcubical: bool = True

    def sum_one(self, f: Cell, g: Cell) -> Cell:
        C = self.original
        return C.comp1(C.rsum_one(f, C.tgt1(g)), C.lsum_one(C.src1(f), g))

    def sigma(self, f: Cell, g: Cell) -> Cell:
        return self.sigma_table[(f, g)]


def nudge(C: PermutativeGrayMonoid | NudgedCubicalData):
    """Flip between cubical and opcubical presentations, inverting sigma."""
    if isinstance(C, NudgedCubicalData):
        return C.original
    inv = {key: C.sigma_inv(*key) for key in C.sigma_table}
    return NudgedCubicalData(original=C, sigma_table=inv)


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

    if M.variant == "strict":
        rep.checked += 1
        if not E.one_identity[M.theta0]:
            rep.add("strict", "unit comparison not the identity")
        for (x, y), t in M.theta.items():
            rep.checked += 1
            if not E.one_identity[t]:
                rep.add("strict", f"sum comparison at ({x!r},{y!r}) not the identity")
        for x, y in itertools.product(B.objects, B.objects):
            rep.checked += 1
            if F.omap[C.sum_obj(x, y)] != D.sum_obj(F.omap[x], F.omap[y]):
                rep.add("strict", f"object sum not preserved at ({x!r},{y!r})")
            rep.checked += 1
            if F.fmap[C.beta_obj(x, y)] != D.beta_obj(F.omap[x], F.omap[y]):
                rep.add("strict", f"braiding not preserved at ({x!r},{y!r})")
        for a in B.objects:
            for f in B.one_src:
                rep.checked += 2
                if F.fmap[C.lsum_one(a, f)] != D.lsum_one(F.omap[a], F.fmap[f]):
                    rep.add("strict", f"left sum not preserved at ({a!r},{f!r})")
                if F.fmap[C.rsum_one(f, a)] != D.rsum_one(F.fmap[f], F.omap[a]):
                    rep.add("strict", f"right sum not preserved at ({f!r},{a!r})")
            for al in B.two_src:
                rep.checked += 2
                if F.amap[C.lsum_two(a, al)] != D.lsum_two(F.omap[a], F.amap[al]):
                    rep.add("strict", f"left 2-sum not preserved at ({a!r},{al!r})")
                if F.amap[C.rsum_two(al, a)] != D.rsum_two(F.amap[al], F.omap[a]):
                    rep.add("strict", f"right 2-sum not preserved at ({al!r},{a!r})")
        for f, g in itertools.product(B.one_src, B.one_src):
            rep.checked += 1
            if F.amap[C.sigma(f, g)] != D.sigma(F.fmap[f], F.fmap[g]):
                rep.add("strict", f"interchanger not preserved at ({f!r},{g!r})")
        return rep

    rep.checked += 1
    if not E.one_identity[M.theta0]:
        rep.add("normal", "unit comparison must be the identity")

    # 2-naturality of theta on generator 1-cells and 2-cells
    for f in B.one_src:
        x, x2 = B.one_src[f], B.one_tgt[f]
        for b in B.objects:
            rep.checked += 2
            l1 = E.comp1(D.rsum_one(F.fmap[f], F.omap[b]), M.theta[(x, b)])
            r1 = E.comp1(M.theta[(x2, b)], F.fmap[C.rsum_one(f, b)])
            l2 = E.comp1(D.lsum_one(F.omap[b], F.fmap[f]), M.theta[(b, x)])
            r2 = E.comp1(M.theta[(b, x2)], F.fmap[C.lsum_one(b, f)])
            if l1 != r1:
                rep.add("naturality", f"theta naturality (f,1) fails at ({f!r},{b!r})")
            if l2 != r2:
                rep.add("naturality", f"theta naturality (1,f) fails at ({b!r},{f!r})")
    for al in B.two_src:
        f = B.two_src[al]
        x, x2 = B.one_src[f], B.one_tgt[f]
        for b in B.objects:
            rep.checked += 2
            l1 = E.hcomp2(D.rsum_two(F.amap[al], F.omap[b]), E.id2(M.theta[(x, b)]))
            r1 = E.hcomp2(E.id2(M.theta[(x2, b)]), F.amap[C.rsum_two(al, b)])
            l2 = E.hcomp2(D.lsum_two(F.omap[b], F.amap[al]), E.id2(M.theta[(b, x)]))
            r2 = E.hcomp2(E.id2(M.theta[(b, x2)]), F.amap[C.lsum_two(b, al)])
            if l1 != r1 or l2 != r2:
                rep.add("naturality", f"theta naturality on 2-cells fails at ({al!r},{b!r})")
    # interchanger compatibility
    for f, g in itertools.product(B.one_src, B.one_src):
        x, y = B.one_src[f], B.one_src[g]
        x2, y2 = B.one_tgt[f], B.one_tgt[g]
        rep.checked += 1
        lhs = E.hcomp2(D.sigma(F.fmap[f], F.fmap[g]), E.id2(M.theta[(x, y)]))
        rhs = E.hcomp2(E.id2(M.theta[(x2, y2)]), F.amap[C.sigma(f, g)])
        if lhs != rhs:
            rep.add("naturality", f"theta vs interchanger fails at ({f!r},{g!r})")

    # unit triangles, associativity square, braiding square
    for x in B.objects:
        fx = F.omap[x]
        rep.checked += 2
        if E.comp1(D.rsum_one(M.theta0, fx), M.theta[(e_c, x)]) != E.id1(fx):
            rep.add("diagram", f"left unit triangle fails at {x!r}")
        if E.comp1(D.lsum_one(fx, M.theta0), M.theta[(x, e_c)]) != E.id1(fx):
            rep.add("diagram", f"right unit triangle fails at {x!r}")
    for x, y, z in itertools.product(B.objects, B.objects, B.objects):
        rep.checked += 1
        fx, fz = F.omap[x], F.omap[z]
        lhs = E.comp1(D.rsum_one(M.theta[(x, y)], fz), M.theta[(C.sum_obj(x, y), z)])
        rhs = E.comp1(D.lsum_one(fx, M.theta[(y, z)]), M.theta[(x, C.sum_obj(y, z))])
        if lhs != rhs:
            rep.add("diagram", f"associativity square fails at ({x!r},{y!r},{z!r})")
    for x, y in itertools.product(B.objects, B.objects):
        rep.checked += 1
        lhs = E.comp1(D.beta_obj(F.omap[x], F.omap[y]), M.theta[(x, y)])
        rhs = E.comp1(M.theta[(y, x)], F.fmap[C.beta_obj(x, y)])
        if lhs != rhs:
            rep.add("diagram", f"braiding square fails at ({x!r},{y!r})")
    return rep


# -- fixture catalogue -----------------------------------------------------------


def _discrete_two_category(name: str, objs: list[str]) -> FiniteTwoCategory:
    one = {f"i{o}": (o, o, True) for o in objs}
    two = {f"ii{o}": (f"i{o}", f"i{o}", True) for o in objs}
    vcomp = {(f"ii{o}", f"ii{o}"): f"ii{o}" for o in objs}
    hcomp1 = {(f"i{o}", f"i{o}"): f"i{o}" for o in objs}
    hcomp2 = dict(vcomp)
    return FiniteTwoCategory(name, objs, one, two, vcomp, hcomp1, hcomp2)


def _discrete_monoid_p2cat(name, elems: list[str], op) -> PermutativeTwoCategory:
    base = _discrete_two_category(name, elems)
    unit = elems[0]
    sum_obj = {(a, b): op(a, b) for a in elems for b in elems}
    sum_one = {(f"i{a}", f"i{b}"): f"i{op(a, b)}" for a in elems for b in elems}
    sum_two = {(f"ii{a}", f"ii{b}"): f"ii{op(a, b)}" for a in elems for b in elems}
    beta = {(a, b): f"i{op(a, b)}" for a in elems for b in elems}
    return PermutativeTwoCategory(name, base, unit, sum_obj, sum_one, sum_two, beta)


def fixture_f1() -> PermutativeTwoCategory:
    """Terminal permutative 2-category: one cell in each dimension."""
    return _discrete_monoid_p2cat("F1", ["e"], lambda a, b: "e")


def fixture_f2() -> PermutativeTwoCategory:
    """The discrete group of order two, as a permutative 2-category."""
    def op(a, b):
        return str(int(a) ^ int(b))
    return _discrete_monoid_p2cat("F2", ["0", "1"], op)


def fixture_m3() -> PermutativeTwoCategory:
    """Discrete saturating-addition monoid on {0,1,2}; not a group."""
    def op(a, b):
        return str(min(int(a) + int(b), 2))
    return _discrete_monoid_p2cat("M3", ["0", "1", "2"], op)


def fixture_f3() -> PermutativeTwoCategory:
    """One object, one 1-cell, 2-cells the group of order two."""
    objs = ["*"]
    one = {"i": ("*", "*", True)}
    two = {"s0": ("i", "i", True), "s1": ("i", "i", False)}
    par = {"s0": 0, "s1": 1}
    name_of = {0: "s0", 1: "s1"}
    vcomp = {(b, a): name_of[(par[b] + par[a]) % 2] for b in two for a in two}
    hcomp1 = {("i", "i"): "i"}
    hcomp2 = dict(vcomp)
    base = FiniteTwoCategory("F3", objs, one, two, vcomp, hcomp1, hcomp2)
    sum_obj = {("*", "*"): "*"}
    sum_one = {("i", "i"): "i"}
    sum_two = {(a, b): name_of[(par[a] + par[b]) % 2] for a in two for b in two}
    beta = {("*", "*"): "i"}
    return PermutativeTwoCategory("F3", base, "*", sum_obj, sum_one, sum_two, beta)


def fixture_f4() -> PermutativeTwoCategory:
    """One object with 1-cell group of order two and identity 2-cells only;
    the sum multiplies 1-cells."""
    objs = ["*"]
    one = {"e": ("*", "*", True), "x": ("*", "*", False)}
    two = {"ie": ("e", "e", True), "ix": ("x", "x", True)}
    grp = {("e", "e"): "e", ("e", "x"): "x", ("x", "e"): "x", ("x", "x"): "e"}
    hcomp1 = dict(grp)
    vcomp = {("ie", "ie"): "ie", ("ix", "ix"): "ix"}
    hcomp2 = {
        (f"i{g}", f"i{f}"): f"i{grp[(g, f)]}"
        for g in ("e", "x") for f in ("e", "x")
    }
    base = FiniteTwoCategory("F4", objs, one, two, vcomp, hcomp1, hcomp2)
    sum_obj = {("*", "*"): "*"}
    sum_one = dict(grp)
    sum_two = {
        (f"i{f}", f"i{g}"): f"i{grp[(f, g)]}"
        for f in ("e", "x") for g in ("e", "x")
    }
    beta = {("*", "*"): "e"}
    return PermutativeTwoCategory("F4", base, "*", sum_obj, sum_one, sum_two, beta)


def fixture_f5() -> PermutativeGrayMonoid:
    """One object; 1-cells the group of order two; each endo-hom the group of
    order two; a nontrivial interchanger at (x, x).

    This is the minimal cubical structure whose interchanger cannot be
    removed: ``demote`` refuses it.
    """
    objs = ["*"]
    cells1 = ["e", "x"]
    grp = {("e", "e"): "e", ("e", "x"): "x", ("x", "e"): "x", ("x", "x"): "e"}
    one = {"e": ("*", "*", True), "x": ("*", "*", False)}
    two = {}
    for f in cells1:
        for p in (0, 1):
            two[(f, p)] = (f, f, p == 0)
    vcomp = {
        ((f, p), (f, q)): (f, (p + q) % 2)
        for f in cells1 for p in (0, 1) for q in (0, 1)
    }
    hcomp1 = dict(grp)
    hcomp2 = {
        ((g, p), (f, q)): (grp[(g, f)], (p + q) % 2)
        for g in cells1 for f in cells1 for p in (0, 1) for q in (0, 1)
    }
    base = FiniteTwoCategory("F5", objs, one, two, vcomp, hcomp1, hcomp2)
    sum_obj = {("*", "*"): "*"}
    lsum1 = {("*", f): f for f in cells1}
    rsum1 = {(f, "*"): f for f in cells1}
    lsum2 = {("*", t): t for t in two}
    rsum2 = {(t, "*"): t for t in two}
    sigma = {}
    for f in cells1:
        for g in cells1:
            comp = grp[(f, g)]
            nontrivial = f == "x" and g == "x"
            sigma[(f, g)] = (comp, 1 if nontrivial else 0)
    beta = {("*", "*"): "e"}
    return PermutativeGrayMonoid("F5", base, "*", sum_obj, lsum1, rsum1,
                                 lsum2, rsum2, sigma, beta)


FIXTURE_BUILDERS = {
    "F1": fixture_f1,
    "F2": fixture_f2,
    "F3": fixture_f3,
    "F4": fixture_f4,
    "F5": fixture_f5,
    "M3": fixture_m3,
}


def fixture(name: str):
    try:
        return FIXTURE_BUILDERS[name]()
    except KeyError:
        raise KeyError(f"unknown fixture {name!r}") from None
