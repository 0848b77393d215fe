"""Finite 2-categories with composition tables.

Cells are identified by arbitrary hashable values; equality of cells is
equality of identifiers.  Composite cell values (``InternedCell``) are
interned, so equal composites are one object and compare by identity.
The three composition operations are tables on their composability
domains:

* ``vcomp[(b, a)]``  -- vertical composite "a then b" of 2-cells,
* ``hcomp1[(g, f)]`` -- composite 1-cell g after f,
* ``hcomp2[(b, a)]`` -- horizontal composite of 2-cells, a over the first
  leg and b over the second, living over ``hcomp1[(g, f)]``.

A category given by its tables (a fixture) holds them in full.  A derived
category (a K-theory level, a product, a comma 2-category) is given instead
by the formula its cells compose by: a lookup computes a composite on first
use and memoizes it, and ``fill`` completes the tables for the scans that
read them whole.  One enumerator, ``comma``, lists the comma 2-categories
(id | F): arrow 2-categories (path objects) at F = id, the levels of the
span construction at F = k_m.  Associativity and interchange
(checked by ``validate_two_category``) make the fold order of any pasting
diagram immaterial.

Every 2-category of the package answers one protocol, the eleven
``CELL_OPERATIONS``, whether it is tabulated or evaluated lazily (a formula
level, the inverse construction).  ``FiniteTwoCategory`` is its tabulated
case and also answers the ``ENUMERATION_OPERATIONS``; a permutative carrier
binds all fifteen from its base 2-category.

A strict 2-functor is given by plain cell maps, one triple (objects,
1-cells, 2-cells) such as ``TwoFunctor.cell_maps``; the transitions of a
diagram (``star``) and the levels of a lax map (``cell_maps``) in ``gamma``
hand out the same triples.  A diagram's transitions are built whole on first
use (``gamma.GammaTruncation.transition``).
Transformations are 2-natural only.  Every validator of the package counts
and reports its law instances through one runner, ``scan_laws``: one
instance at a time, or, for the table-backed laws (associativity and
interchange in ``validate_two_category``, the compositions in
``scan_functor_laws``), a bucket at a time whose two sides are compared as
tuples built in C, walked only when they differ.  The laws of 2-functors
and 2-natural transformations are written once, for every level, diagram,
cubical and monoidal-functor validator: ``scan_functor_cells`` (the image
endpoints, per cell), ``scan_functor_laws`` (identities and compositions,
per table entry), ``scan_functor`` (both) and ``scan_naturality``.
"""

from __future__ import annotations

import itertools
from collections import Counter
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from operator import attrgetter, getitem, itemgetter
from typing import Hashable, Iterable, Mapping

Cell = Hashable

CELL_OPERATIONS = ("id1", "id2", "comp1", "vcomp", "hcomp2", "src1", "tgt1",
                   "src2", "tgt2", "is_id1", "is_id2")
ENUMERATION_OPERATIONS = ("objects_iter", "has_obj", "one_cells_between",
                          "two_cells_between")


@dataclass
class Issue:
    kind: str
    message: str

    def __str__(self) -> str:
        return f"[{self.kind}] {self.message}"


class InternedCell:
    """Base for composite cell values: equal values are one object.

    ``_make`` is the only constructor.  It looks the field tuple up in the
    class-level ``_pool`` dict and builds a cell only on a miss, so equality
    and hashing are ``object``'s identity versions, which dict probes run
    without calling back into Python.  Subclasses are slotted frozen
    dataclasses with ``eq=False`` that set their own ``_pool``.
    """

    __slots__ = ()
    _pool: dict

    @classmethod
    def _make(cls, *fields):
        cell = cls._pool.get(fields)
        if cell is None:
            # the first cell stored wins, so two threads share one cell
            cell = cls._pool.setdefault(fields, cls(*fields))
        return cell


@dataclass
class ValidationReport:
    subject: str
    issues: list[Issue] = field(default_factory=list)
    checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.issues

    def add(self, kind: str, message: str) -> None:
        self.issues.append(Issue(kind, message))

    def first(self) -> Issue | None:
        return self.issues[0] if self.issues else None

    def merge(self, other: "ValidationReport") -> None:
        self.issues.extend(other.issues)
        self.checked += other.checked

    def add_summary(self, kind: str, prefix: str, sub: "ValidationReport") -> bool:
        """Count ``sub``'s instances and, when it failed, add the one ``kind``
        issue ``"{prefix}: {its first issue}"``; whether ``sub`` passed."""
        self.checked += sub.checked
        if not sub.ok:
            self.add(kind, f"{prefix}: {sub.first()}")
        return sub.ok

    def __str__(self) -> str:
        head = f"{self.subject}: {'valid' if self.ok else 'INVALID'} ({self.checked} instances checked)"
        if self.ok:
            return head
        body = "\n".join("  " + str(i) for i in self.issues[:40])
        more = "" if len(self.issues) <= 40 else f"\n  ... {len(self.issues) - 40} more"
        return head + "\n" + body + more


def _at(args: tuple) -> str:
    """An instance's place in a message: its one cell, or its cells in parentheses."""
    return repr(args[0]) if len(args) == 1 else "(" + ",".join(map(repr, args)) + ")"


def scan_laws(rep: ValidationReport, instances: Iterable[tuple], *laws: tuple,
              per: int | None = None, where=_at, sides: tuple | None = None) -> None:
    """Check the laws ``(kind, name, holds, fails)`` at each instance ``args``
    in turn, counting ``per`` for it (one per law unless given).  A failure of
    ``holds(*args)`` is the ``kind`` issue ``fails(*args)``, or ``"{fails} at
    {where(args)}"`` for a text; an instance whose cells do not compose (a
    ``ValueError`` or ``KeyError``) is an ill-typed instance of the law
    ``name``; any other exception, ``CellCeilingExceeded`` included, propagates.

    With ``sides``, ``instances`` yields buckets ``(cells, *shared)``, whose
    instances are ``(c, *shared)`` for c in ``cells``, and ``sides`` is two
    iterables in step with them: each bucket's two sides, tuples built in C
    with one item per instance.  A bucket whose sides agree is counted
    without a walk; only one whose sides differ is walked, instance by
    instance, and one whose sides cannot be built (a ``ValueError`` or
    ``KeyError``) is walked with every later bucket."""
    agreed = count = 0
    if sides is not None:
        buckets, walked = iter(instances), []
        try:
            # the sides are drawn first, so a bucket whose sides raise is left in buckets
            for lhs, rhs, bucket in zip(*sides, buckets):
                if lhs == rhs:
                    agreed += len(lhs)
                else:
                    walked.append(bucket)
        except (ValueError, KeyError):
            walked.extend(buckets)
        instances = ((c, *shared) for cells, *shared in walked for c in cells)
    for count, args in enumerate(instances, 1):
        for kind, name, holds, fails in laws:
            try:
                if holds(*args):
                    continue
            except (ValueError, KeyError) as exc:
                rep.add(kind, f"{name} at {where(args)}: ill-typed instance ({exc})")
                continue
            rep.add(kind, fails(*args) if callable(fails) else f"{fails} at {where(args)}")
    rep.checked += (agreed + count) * (len(laws) if per is None else per)


# the bound on the cells a builder lists and the cells plus table entries it
# fills, outside any ``cell_ceiling`` scope; no library code reads the environment
DEFAULT_CELL_CEILING = 1_000_000
_CELL_CEILING: ContextVar[int] = ContextVar("cell_ceiling", default=DEFAULT_CELL_CEILING)
current_cell_ceiling = _CELL_CEILING.get  # the innermost scope's bound, or the default


@contextmanager
def cell_ceiling(limit: int):
    """Bound the builds started in the block by ``limit`` cells, which a category
    built inside keeps; the enclosing bound is restored on exit, also on raise."""
    token = _CELL_CEILING.set(limit)
    try:
        yield
    finally:
        _CELL_CEILING.reset(token)


class CellCeilingExceeded(Exception):
    def __init__(self, stage: str, count: int, ceiling: int):
        self.stage = stage
        self.count = count
        self.ceiling = ceiling
        super().__init__(
            f"cell ceiling exceeded during {stage}: {count} > {ceiling}"
        )


class FiniteTwoCategory:
    """A 2-category given by finite cell sets and composition tables.

    ``one_cells`` / ``two_cells`` map identifiers to ``(src, tgt, is_identity)``
    triples.  The tables are either given in full, or computed from
    ``formula``, an object with the methods ``comp1``, ``vcomp`` and
    ``hcomp2`` of the composites.  The cell ceiling in force at construction
    bounds the cells plus table entries that ``fill`` may hold.  Instances are
    treated as immutable once validated.
    """

    def __init__(
        self,
        name: str,
        objects: Iterable[Cell],
        one_cells: Mapping[Cell, tuple[Cell, Cell, bool]],
        two_cells: Mapping[Cell, tuple[Cell, Cell, bool]],
        vcomp: Mapping[tuple[Cell, Cell], Cell] | None = None,
        hcomp1: Mapping[tuple[Cell, Cell], Cell] | None = None,
        hcomp2: Mapping[tuple[Cell, Cell], Cell] | None = None,
        formula=None,
    ):
        self.name = name
        self.objects = list(objects)
        self.one_src = {f: s for f, (s, _, _) in one_cells.items()}
        self.one_tgt = {f: t for f, (_, t, _) in one_cells.items()}
        self.one_identity = {f: bool(i) for f, (_, _, i) in one_cells.items()}
        self.two_src = {a: s for a, (s, _, _) in two_cells.items()}
        self.two_tgt = {a: t for a, (_, t, _) in two_cells.items()}
        self.two_identity = {a: bool(i) for a, (_, _, i) in two_cells.items()}
        self.vcomp_table = dict(vcomp or {})
        self.hcomp1_table = dict(hcomp1 or {})
        self.hcomp2_table = dict(hcomp2 or {})
        self._formula = formula
        self._ceiling = current_cell_ceiling()
        self._id1: dict[Cell, Cell] = {}
        self._id2: dict[Cell, Cell] = {}
        self._hom1: dict[tuple[Cell, Cell], list[Cell]] = {}
        self._hom2: dict[tuple[Cell, Cell], list[Cell]] = {}
        self._index()

    def _index(self) -> None:
        self._id1 = {}
        for f, isid in self.one_identity.items():
            if isid and self.one_src[f] == self.one_tgt[f]:
                self._id1.setdefault(self.one_src[f], f)
        self._id2 = {}
        for a, isid in self.two_identity.items():
            if isid and self.two_src[a] == self.two_tgt[a]:
                self._id2.setdefault(self.two_src[a], a)
        self._hom1 = {}
        for f in self.one_src:
            self._hom1.setdefault((self.one_src[f], self.one_tgt[f]), []).append(f)
        self._hom2 = {}
        for a in self.two_src:
            self._hom2.setdefault((self.two_src[a], self.two_tgt[a]), []).append(a)
        self._objset = set(self.objects)

    # -- cell accessors ----------------------------------------------------

    def id1(self, a: Cell) -> Cell:
        return self._id1[a]

    def id2(self, f: Cell) -> Cell:
        return self._id2[f]

    def src1(self, f: Cell) -> Cell:
        return self.one_src[f]

    def tgt1(self, f: Cell) -> Cell:
        return self.one_tgt[f]

    def src2(self, a: Cell) -> Cell:
        return self.two_src[a]

    def tgt2(self, a: Cell) -> Cell:
        return self.two_tgt[a]

    def is_id1(self, f: Cell) -> bool:
        return self.one_identity[f]

    def is_id2(self, a: Cell) -> bool:
        return self.two_identity[a]

    # A missed lookup composes by the formula only on a composable pair;
    # anything else raises the lookup's KeyError, as a full table does.

    def comp1(self, g: Cell, f: Cell) -> Cell:
        try:
            return self.hcomp1_table[(g, f)]
        except KeyError:
            if self._formula is None or self.one_src[g] != self.one_tgt[f]:
                raise
        out = self.hcomp1_table[(g, f)] = self._formula.comp1(g, f)
        return out

    def vcomp(self, b: Cell, a: Cell) -> Cell:
        try:
            return self.vcomp_table[(b, a)]
        except KeyError:
            if self._formula is None or self.two_src[b] != self.two_tgt[a]:
                raise
        out = self.vcomp_table[(b, a)] = self._formula.vcomp(b, a)
        return out

    def hcomp2(self, b: Cell, a: Cell) -> Cell:
        try:
            return self.hcomp2_table[(b, a)]
        except KeyError:
            if (self._formula is None
                    or self.one_src[self.two_src[b]] != self.one_tgt[self.two_src[a]]):
                raise
        out = self.hcomp2_table[(b, a)] = self._formula.hcomp2(b, a)
        return out

    def fill(self) -> None:
        """Complete all three tables over their composability domains, keys
        ordered by first then second cell in cell order, reusing memoized
        composites.  Raises ``CellCeilingExceeded``, before composing
        anything, when cells plus entries would pass the ceiling."""
        F = self._formula
        if F is None:
            return
        h1_dom, v_dom, h2_dom = _domains(self)
        total = sum(self.counts()) + sum(
            len(firsts) for dom in (v_dom, h1_dom, h2_dom) for _, firsts in dom)
        if total > self._ceiling:
            raise CellCeilingExceeded("table fill", total, self._ceiling)
        self.vcomp_table = _complete(self.vcomp_table, v_dom, F.vcomp)
        self.hcomp1_table = _complete(self.hcomp1_table, h1_dom, F.comp1)
        self.hcomp2_table = _complete(self.hcomp2_table, h2_dom, F.hcomp2)
        self._formula = None

    def objects_iter(self) -> Iterable[Cell]:
        return iter(self.objects)

    def has_obj(self, a: Cell) -> bool:
        return a in self._objset

    def one_cells_between(self, a: Cell, b: Cell) -> list[Cell]:
        return self._hom1.get((a, b), [])

    def two_cells_between(self, f: Cell, g: Cell) -> list[Cell]:
        return self._hom2.get((f, g), [])

    def counts(self) -> tuple[int, int, int]:
        return (len(self.objects), len(self.one_src), len(self.two_src))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FiniteTwoCategory):
            return NotImplemented
        self.fill()
        other.fill()
        return (
            self.objects == other.objects
            and self.one_src == other.one_src
            and self.one_tgt == other.one_tgt
            and self.one_identity == other.one_identity
            and self.two_src == other.two_src
            and self.two_tgt == other.two_tgt
            and self.two_identity == other.two_identity
            and self.vcomp_table == other.vcomp_table
            and self.hcomp1_table == other.hcomp1_table
            and self.hcomp2_table == other.hcomp2_table
        )

    def __hash__(self):
        # equality ignores the name; the counts are what ``fill`` keeps
        return hash(self.counts())

    def __repr__(self) -> str:
        o, m, a = self.counts()
        return f"<FiniteTwoCategory {self.name}: {o} objects, {m} 1-cells, {a} 2-cells>"


def _group(cells: Iterable[Cell], key) -> dict[Cell, list[Cell]]:
    out: dict[Cell, list[Cell]] = {}
    for c in cells:
        out.setdefault(key(c), []).append(c)
    return out


def _domains(C: FiniteTwoCategory) -> tuple[list, list, list]:
    """The composability domains of ``hcomp1``, ``vcomp`` and ``hcomp2``,
    each a list of pairs of a second cell and the firsts it composes with,
    seconds in cell order and firsts in cell order."""
    one, two = C.one_src, C.two_src
    one_by_tgt = _group(one, C.one_tgt.__getitem__)
    two_by_tgt = _group(two, C.two_tgt.__getitem__)
    two_by_tgt_obj = _group(two, lambda a: C.one_tgt[two[a]])
    return ([(g, one_by_tgt.get(one[g], ())) for g in one],
            [(b, two_by_tgt.get(two[b], ())) for b in two],
            [(b, two_by_tgt_obj.get(one[two[b]], ())) for b in two])


def _complete(memo: dict, domain: list, op) -> dict:
    """The table over ``domain`` (pairs of a cell and its composable firsts)."""
    out = {}
    for b, firsts in domain:
        for a in firsts:
            c = memo.get((b, a))
            out[(b, a)] = op(b, a) if c is None else c
    return out


class FieldEndpoints:
    """``src1``/``tgt1``/``src2``/``tgt2`` for cells that carry their
    endpoints in ``src``/``tgt`` fields."""

    src1 = src2 = staticmethod(attrgetter("src"))
    tgt1 = tgt2 = staticmethod(attrgetter("tgt"))


# -- pasting helpers --------------------------------------------------------


def whisker_l(C, r: Cell, a: Cell) -> Cell:
    """Whisker the 2-cell a on the left by the 1-cell r:  r . src(a) => r . tgt(a)."""
    return C.hcomp2(C.id2(r), a)


def whisker_r(C, a: Cell, l: Cell) -> Cell:
    """Whisker the 2-cell a on the right by the 1-cell l:  src(a) . l => tgt(a) . l."""
    return C.hcomp2(a, C.id2(l))


def vseq(C, *cells: Cell) -> Cell:
    """Vertical composite, first-to-last: vseq(C, a, b, c) = c . b . a."""
    acc = cells[0]
    for nxt in cells[1:]:
        acc = C.vcomp(nxt, acc)
    return acc


def vertical_inverse(C, a: Cell) -> Cell | None:
    """The vertical inverse of a 2-cell, or None if not invertible."""
    f, g = C.src2(a), C.tgt2(a)
    for b in C.two_cells_between(g, f):
        if C.vcomp(b, a) == C.id2(f) and C.vcomp(a, b) == C.id2(g):
            return b
    return None


# -- validation --------------------------------------------------------------


def validate_two_category(C: FiniteTwoCategory) -> ValidationReport:
    """Exhaustively check the 2-category axioms, listing every violation.

    Structural problems (dangling references, non-total tables, missing
    identities) are reported first; the axiom scan runs only on structurally
    sound input.  It counts every law instance through ``scan_laws``, the
    associativity and interchange instances a bucket at a time, and lists
    the failures in instance order.
    """
    rep = ValidationReport(f"2-category {C.name}")
    objset = set(C.objects)
    if len(C.objects) != len(objset):
        rep.add("structure", "duplicate object identifiers")

    for f in C.one_src:
        if C.one_src[f] not in objset or C.one_tgt[f] not in objset:
            rep.add("structure", f"1-cell {f!r} has endpoint outside object set")
    for a in C.two_src:
        if C.two_src[a] not in C.one_src or C.two_tgt[a] not in C.one_src:
            rep.add("structure", f"2-cell {a!r} has endpoint outside 1-cell set")
    if rep.issues:
        return rep
    for a in C.two_src:
        f, g = C.two_src[a], C.two_tgt[a]
        if C.one_src[f] != C.one_src[g] or C.one_tgt[f] != C.one_tgt[g]:
            rep.add("structure", f"2-cell {a!r} not between parallel 1-cells")

    # identity cells, counted once per endpoint
    id1s = Counter(C.one_src[f] for f, isid in C.one_identity.items()
                   if isid and C.one_src[f] == C.one_tgt[f])
    for x in C.objects:
        if id1s[x] != 1:
            rep.add("structure", f"object {x!r} has {id1s[x]} identity 1-cells (want 1)")
    id2s = Counter(C.two_src[a] for a, isid in C.two_identity.items()
                   if isid and C.two_src[a] == C.two_tgt[a])
    for f in C.one_src:
        if id2s[f] != 1:
            rep.add("structure", f"1-cell {f!r} has {id2s[f]} identity 2-cells (want 1)")
    for f in C.one_src:
        if C.one_identity[f] and C.one_src[f] != C.one_tgt[f]:
            rep.add("structure", f"identity-flagged 1-cell {f!r} is not an endo-cell")
    for a in C.two_src:
        if C.two_identity[a] and C.two_src[a] != C.two_tgt[a]:
            rep.add("structure", f"identity-flagged 2-cell {a!r} is not an endo-cell")
    if rep.issues:
        return rep
    C._index()
    C.fill()

    for name, table, domain in zip(("hcomp1", "vcomp", "hcomp2"),
                                   (C.hcomp1_table, C.vcomp_table, C.hcomp2_table),
                                   _domains(C)):
        _check_domain(rep, name, table, domain)
    if rep.issues:
        return rep

    # closure and typing of table values
    for (g, f), h in C.hcomp1_table.items():
        if h not in C.one_src:
            rep.add("structure", f"hcomp1[{g!r},{f!r}] = {h!r} not a 1-cell")
        elif C.one_src[h] != C.one_src[f] or C.one_tgt[h] != C.one_tgt[g]:
            rep.add("structure", f"hcomp1[{g!r},{f!r}] has wrong endpoints")
    for (b, a), cr in C.vcomp_table.items():
        if cr not in C.two_src:
            rep.add("structure", f"vcomp[{b!r},{a!r}] = {cr!r} not a 2-cell")
        elif C.two_src[cr] != C.two_src[a] or C.two_tgt[cr] != C.two_tgt[b]:
            rep.add("structure", f"vcomp[{b!r},{a!r}] has wrong endpoints")
    for (b, a), cr in C.hcomp2_table.items():
        if cr not in C.two_src:
            rep.add("structure", f"hcomp2[{b!r},{a!r}] = {cr!r} not a 2-cell")
        else:
            want_src = C.hcomp1_table[(C.two_src[b], C.two_src[a])]
            want_tgt = C.hcomp1_table[(C.two_tgt[b], C.two_tgt[a])]
            if C.two_src[cr] != want_src or C.two_tgt[cr] != want_tgt:
                rep.add("structure", f"hcomp2[{b!r},{a!r}] has wrong endpoints")
    if rep.issues:
        return rep

    # Axiom scans run on an integer encoding of the cell sets, cells numbered
    # in cell order.  The seconds that compose with one first form a
    # composability block: the 2-cells at one source object for hcomp2, at
    # one source 1-cell for vcomp, the 1-cells at one source object for
    # hcomp1.  ``pos`` numbers each cell inside its block, and each table
    # becomes block-dense rows (``_BlockTable``): ``R[a]`` is the tuple, over
    # a's block in cell order, of the numbers of the composites b.a, so only
    # composable entries are stored.
    # * Associativity: the third cells of an entry (b, a) are the whole block
    #   at b's target, so c.(b.a) over all of them is the row ``R[ba]``, and
    #   (c.b).a is ``R[a]`` gathered at the positions of ``R[b]``'s values.
    # * Interchange, for one left pair and the right pairs of one hom:
    #   itemgetters gather b1*a1, b2*a2 and vb*va, and each vertical
    #   composite is read from the vcomp row of b1*a1 at the place of b2*a2.
    # Each bucket (every third cell for one entry, every right pair for one
    # left pair) goes to ``scan_laws`` as its two sides, tuples built in C;
    # only a bucket that differs is walked, instance by instance, so the
    # issues keep the order of a one-instance-at-a-time scan.
    one = list(C.one_src)
    two = list(C.two_src)
    obj_ix = {x: i for i, x in enumerate(C.objects)}
    one_ix = {f: i for i, f in enumerate(one)}
    two_ix = {a: i for i, a in enumerate(two)}
    n0, n1, n2 = len(C.objects), len(one), len(two)
    o_src = [obj_ix[C.one_src[f]] for f in one]
    o_tgt = [obj_ix[C.one_tgt[f]] for f in one]
    t_src = [one_ix[C.two_src[a]] for a in two]
    t_tgt = [one_ix[C.two_tgt[a]] for a in two]
    s_obj = list(map(o_src.__getitem__, t_src))
    e_obj = list(map(o_tgt.__getitem__, t_src))
    id1_of = [one_ix[C.id1(x)] for x in C.objects]
    id2_of = [two_ix[C.id2(f)] for f in one]
    H1 = _BlockTable(C.hcomp1_table, one_ix, o_src, o_tgt, n0)
    V = _BlockTable(C.vcomp_table, two_ix, t_src, t_tgt, n1)
    H2 = _BlockTable(C.hcomp2_table, two_ix, s_obj, e_obj, n0)
    h1, p1 = H1.rows, H1.pos
    v, pv = V.rows, V.pos
    h2, p2 = H2.rows, H2.pos

    # unit laws, one instance per 1-cell, 2-cell and hcomp1 entry
    scan_laws(rep, enumerate(one),
              ("unit", "right unit of 1-cells", lambda fi, f: h1[id1_of[o_src[fi]]][p1[fi]] == fi,
               lambda fi, f: f"f . id != f for 1-cell {f!r}"),
              ("unit", "left unit of 1-cells", lambda fi, f: h1[fi][p1[id1_of[o_tgt[fi]]]] == fi,
               lambda fi, f: f"id . f != f for 1-cell {f!r}"))
    scan_laws(rep, enumerate(two),
              ("unit", "right vertical unit", lambda ai, a: v[id2_of[t_src[ai]]][pv[ai]] == ai,
               lambda ai, a: f"a . id2 != a (vertical) for {a!r}"),
              ("unit", "left vertical unit", lambda ai, a: v[ai][pv[id2_of[t_tgt[ai]]]] == ai,
               lambda ai, a: f"id2 . a != a (vertical) for {a!r}"),
              ("unit", "right horizontal unit",
               lambda ai, a: h2[id2_of[id1_of[s_obj[ai]]]][p2[ai]] == ai,
               lambda ai, a: f"a * id != a (horizontal) for {a!r}"),
              ("unit", "left horizontal unit",
               lambda ai, a: h2[ai][p2[id2_of[id1_of[e_obj[ai]]]]] == ai,
               lambda ai, a: f"id * a != a (horizontal) for {a!r}"))
    scan_laws(rep, zip(H1.seconds, H1.firsts, H1.values),
              ("unit", "identity 2-cells of composites",
               lambda gi, fi, gfi: h2[id2_of[fi]][p2[id2_of[gi]]] == id2_of[gfi],
               lambda gi, fi, gfi: f"id2(g)*id2(f) != id2(g.f) for ({one[gi]!r},{one[fi]!r})"))

    # associativity, over each entry (b, a) and the block of third cells c
    _scan_assoc(rep, "vcomp", two, V)
    _scan_assoc(rep, "hcomp1", one, H1)
    _scan_assoc(rep, "hcomp2", two, H2)

    # interchange, over each left vertical pair and the right pairs of a hom
    homs = _group(range(n2), lambda ai: (s_obj[ai], e_obj[ai]))
    vpairs = {key: [(a2, a1, va) for a1 in cells
                    for a2, va in zip(V.blocks[t_tgt[a1]], v[a1])]
              for key, cells in homs.items()}
    gathers = {key: tuple(_gather(map(p2.__getitem__, cs)) for cs in zip(*right))
               for key, right in vpairs.items()}
    law = ("interchange", "interchange",
           lambda b, a2, a1, va: v[h2[a1][p2[b[1]]]][pv[h2[a2][p2[b[0]]]]] == h2[va][p2[b[2]]],
           lambda b, a2, a1, va: f"interchange fails at "
                                 f"({two[b[0]]!r},{two[b[1]]!r};{two[a2]!r},{two[a1]!r})")
    for (x, y), left in vpairs.items():
        for (y2, z), right in vpairs.items():
            if y2 != y:
                continue
            g2, g1, gv = gathers[(y2, z)]
            # over the right pairs, once per 2-cell a of the left hom: the
            # vcomp rows of b1*a and the places of b2*a in such rows
            v_rows = {a: tuple(map(v.__getitem__, g1(h2[a]))) for a in homs[(x, y)]}
            places = {a: tuple(map(pv.__getitem__, g2(h2[a]))) for a in homs[(x, y)]}
            # a bucket per left pair: every right pair b = (b2, b1, vb)
            scan_laws(rep, ((right, *pair) for pair in left), law, sides=(
                (tuple(map(getitem, v_rows[a1], places[a2])) for a2, a1, _ in left),
                (gv(h2[va]) for _, _, va in left)))
    return rep


class _BlockTable:
    """One composition table on cells numbered by ``ix``, as block-dense rows.

    ``member[c]`` is the block of the cell c as a second, ``row_key[a]`` the
    block of the seconds that compose with a first a.  ``blocks[k]`` lists the
    cells of block k in cell order, ``pos[c]`` is c's place in its block, and
    ``rows[a][pos[b]]`` is the number of the composite of the entry (b, a).
    ``seconds``, ``firsts`` and ``values`` are the entries in table order."""

    def __init__(self, table: Mapping, ix: Mapping, member: list, row_key: list,
                 nblocks: int):
        self.blocks: list[list[int]] = [[] for _ in range(nblocks)]
        self.pos: list[int] = []
        for c, k in enumerate(member):
            block = self.blocks[k]
            self.pos.append(len(block))
            block.append(c)
        self.row_key = row_key
        self.seconds = list(map(ix.__getitem__, map(_first, table)))
        self.firsts = list(map(ix.__getitem__, map(_second, table)))
        self.values = list(map(ix.__getitem__, table.values()))
        rows = [[0] * len(self.blocks[k]) for k in row_key]
        pos = self.pos
        for b, a, c in zip(self.seconds, self.firsts, self.values):
            rows[a][pos[b]] = c
        self.rows: list[tuple[int, ...]] = list(map(tuple, rows))


def _gather(positions: Iterable[int]) -> itemgetter:
    """The getter of a row's items at ``positions``, a tuple even of one."""
    positions = tuple(positions)
    if len(positions) == 1:
        return itemgetter(slice(positions[0], positions[0] + 1))
    return itemgetter(*positions)


def _scan_assoc(rep: ValidationReport, name: str, cells: list, T: _BlockTable) -> None:
    """Associativity ``c.(b.a) == (c.b).a`` of one table, for each entry
    ``(b, a)`` in table order and each c in the block at b's target."""
    R, pos = T.rows, T.pos
    # (c.b).a over the block is R[a] gathered at the positions of R[b]'s values
    G = [_gather(map(pos.__getitem__, row)) for row in R]
    scan_laws(rep, zip(map(T.blocks.__getitem__, map(T.row_key.__getitem__, T.seconds)),
                       T.seconds, T.firsts, T.values),
              ("assoc", f"{name} associativity",
               lambda ci, bi, ai, bai: R[bai][pos[ci]] == R[ai][pos[R[bi][pos[ci]]]],
               lambda ci, bi, ai, bai: f"{name} not associative at "
                                       f"({cells[ci]!r},{cells[bi]!r},{cells[ai]!r})"),
              sides=(map(R.__getitem__, T.values),
                     map(itemgetter.__call__, map(G.__getitem__, T.seconds),
                         map(R.__getitem__, T.firsts))))


def _check_domain(rep: ValidationReport, name: str, table: Mapping, domain: list) -> None:
    """Report, in domain and then table order, the mismatches between the
    table's keys and its composability domain (as ``_domains`` lists it).
    The domain lists each pair once, so the table has a key outside it
    exactly when it has more keys than the domain pairs it holds; only then
    is the domain built as a set to name them."""
    present = 0
    for b, firsts in domain:
        for a in firsts:
            if (b, a) in table:
                present += 1
            else:
                rep.add("structure", f"{name} missing entry for {(b, a)!r}")
    if len(table) == present:
        return
    wanted = {(b, a) for b, firsts in domain for a in firsts}
    for k in table:
        if k not in wanted:
            rep.add("structure", f"{name} has entry outside composability domain: {k!r}")


# -- pi0 and equivalences -----------------------------------------------------


class _Partition:
    """Union-find over a list of objects."""

    def __init__(self, objects: list[Cell]):
        self.objects = objects
        self.parent: dict[Cell, Cell] = {x: x for x in objects}

    def find(self, x: Cell) -> Cell:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a: Cell, b: Cell) -> None:
        self.parent[self.find(b)] = self.find(a)

    def classes(self) -> list[frozenset]:
        """The classes, ordered by their first member in object order."""
        groups: dict[Cell, list[Cell]] = {}
        for x in self.objects:
            groups.setdefault(self.find(x), []).append(x)
        return [frozenset(g) for g in groups.values()]


def pi0(C: FiniteTwoCategory) -> list[frozenset]:
    """Objects modulo zigzags of 1-cells, in canonical object order."""
    part = _Partition(C.objects)
    for f in C.one_src:
        part.union(C.one_src[f], C.one_tgt[f])
    return part.classes()


def _equivalence_witness(C: FiniteTwoCategory, a: Cell, b: Cell):
    """1-cells f: a->b, g: b->a with invertible 2-cells fg ~ id, gf ~ id."""
    for f in C.one_cells_between(a, b):
        for g in C.one_cells_between(b, a):
            gf = C.comp1(g, f)
            fg = C.comp1(f, g)
            iso_a = _iso_between(C, gf, C.id1(a))
            if iso_a is None:
                continue
            iso_b = _iso_between(C, fg, C.id1(b))
            if iso_b is not None:
                return (f, g, iso_a, iso_b)
    return None


def _iso_between(C: FiniteTwoCategory, f: Cell, g: Cell) -> Cell | None:
    for a in C.two_cells_between(f, g):
        if vertical_inverse(C, a) is not None:
            return a
    return None


def internal_equivalence_classes(C: FiniteTwoCategory) -> list[frozenset]:
    """Partition of objects by internal equivalence (exhaustive search)."""
    objs = C.objects
    part = _Partition(objs)
    for i, a in enumerate(objs):
        for b in objs[i + 1:]:
            if part.find(a) != part.find(b) and _equivalence_witness(C, a, b) is not None:
                part.union(a, b)
    return part.classes()


# -- the 2-functor and 2-naturality laws ---------------------------------------
# Every validator of a strict 2-functor or a 2-natural transformation, of one
# 2-category, levelwise over a diagram or of a permutative structure, checks
# the laws through these scans.
# The source S is tabulated; the target T only answers ``CELL_OPERATIONS``.

_first, _second = itemgetter(0), itemgetter(1)


def then_maps(first: tuple, second: tuple) -> tuple:
    """The cell maps ``second . first``, dimension by dimension."""
    return tuple(lambda c, f=f, g=g: g(f(c)) for f, g in zip(first, second))


def scan_functor_cells(rep: ValidationReport, S: FiniteTwoCategory, T, F,
                       where: str = "") -> bool:
    """The per-cell part of the strict 2-functor laws for the cell maps
    ``F = (f0, f1, f2)``, on objects, 1-cells and 2-cells, S -> T: the
    endpoints of every 1-cell and 2-cell image agree with the images of its
    endpoints.  Failures are ``functor`` issues whose messages begin with
    ``where``; whether every endpoint agreed."""
    f0, f1, f2 = F
    one_src, one_tgt, two_src, two_tgt = S.one_src, S.one_tgt, S.two_src, S.two_tgt
    before = len(rep.issues)
    scan_laws(rep, zip(one_src), (
        "functor", f"{where}1-cell image endpoints",
        lambda f: T.src1(ff := f1(f)) == f0(one_src[f]) and T.tgt1(ff) == f0(one_tgt[f]),
        lambda f: f"{where}1-cell {f!r}: image endpoints disagree"))
    scan_laws(rep, zip(two_src), (
        "functor", f"{where}2-cell image endpoints",
        lambda a: T.src2(fa := f2(a)) == f1(two_src[a]) and T.tgt2(fa) == f1(two_tgt[a]),
        lambda a: f"{where}2-cell {a!r}: image endpoints disagree"))
    return len(rep.issues) == before


def scan_functor_laws(rep: ValidationReport, S: FiniteTwoCategory, T, F,
                      where: str = "") -> None:
    """The per-entry part of the strict 2-functor laws for the cell maps
    ``F``, whose endpoints agree: identities and the three compositions,
    each table one bucket of the runner.  Failures are ``functor`` issues
    whose messages begin with ``where``."""
    f0, f1, f2 = F
    S.fill()
    scan_laws(rep, zip(S.objects), (
        "functor", f"{where}identity 1-cells", lambda x: f1(S.id1(x)) == T.id1(f0(x)),
        lambda x: f"{where}identity 1-cell of {x!r} not preserved"))
    scan_laws(rep, zip(S.one_src), (
        "functor", f"{where}identity 2-cells", lambda f: f2(S.id2(f)) == T.id2(f1(f)),
        lambda f: f"{where}identity 2-cell of {f!r} not preserved"))
    # each table one bucket of its entries (b, a); the sides are built inside
    # the runner, so a cell map that raises there has the table walked
    for table, fc, op, what in ((S.hcomp1_table, f1, T.comp1, "1-cell"),
                                (S.vcomp_table, f2, T.vcomp, "vertical"),
                                (S.hcomp2_table, f2, T.hcomp2, "horizontal")):
        scan_laws(rep, [(table,)], (
            "functor", f"{where}{what} composition",
            lambda ba: fc(table[ba]) == op(fc(ba[0]), fc(ba[1])),
            f"{where}{what} composition not preserved"), where=lambda args: _at(*args),
            sides=(map(tuple, [map(fc, table.values())]), map(tuple, [map(
                op, map(fc, map(_first, table)), map(fc, map(_second, table)))])))


def scan_functor(rep: ValidationReport, S: FiniteTwoCategory, T, F,
                 where: str = "") -> None:
    """Check that the cell maps ``F`` form a strict 2-functor S -> T: the
    per-cell part and, when every endpoint agrees, the per-entry part."""
    if scan_functor_cells(rep, S, T, F, where):
        scan_functor_laws(rep, S, T, F, where)


def scan_naturality(rep: ValidationReport, S: FiniteTwoCategory, T, comp, F, G,
                    kind: str, what: str) -> None:
    """Check that the 1-cells ``comp(x): F x -> G x`` of T are 2-natural
    between the cell maps ``F`` and ``G`` (triples as for ``scan_functor``;
    their object maps are not read): one square per 1-cell f: x -> y,
    ``G f . comp(x) == comp(y) . F f``, and one whiskered condition per
    2-cell.  Failures are ``kind`` issues naming ``what``."""
    _, F1, F2 = F
    _, G1, G2 = G
    one_src, one_tgt, two_src = S.one_src, S.one_tgt, S.two_src
    scan_laws(rep, zip(one_src), (
        kind, f"{what} square at 1-cells",
        lambda f: T.comp1(G1(f), comp(one_src[f])) == T.comp1(comp(one_tgt[f]), F1(f)),
        lambda f: f"{what} not natural at 1-cell {f!r}"))
    scan_laws(rep, zip(two_src), (
        kind, f"{what} square at 2-cells",
        lambda a: (T.hcomp2(G2(a), T.id2(comp(one_src[two_src[a]])))
                   == T.hcomp2(T.id2(comp(one_tgt[two_src[a]])), F2(a))),
        lambda a: f"{what} not natural at 2-cell {a!r}"))


# -- 2-functors ---------------------------------------------------------------


@dataclass
class TwoFunctor:
    """A strict 2-functor between tabulated 2-categories, given by cell maps."""

    source: FiniteTwoCategory
    target: FiniteTwoCategory
    omap: dict[Cell, Cell]
    fmap: dict[Cell, Cell]
    amap: dict[Cell, Cell]
    name: str = ""

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TwoFunctor):
            return NotImplemented
        return (
            self.omap == other.omap
            and self.fmap == other.fmap
            and self.amap == other.amap
        )

    def cell_maps(self) -> tuple:
        """Lookups in the object, 1-cell and 2-cell maps."""
        return (self.omap.__getitem__, self.fmap.__getitem__, self.amap.__getitem__)

    def then(self, G: "TwoFunctor") -> "TwoFunctor":
        return TwoFunctor(
            self.source,
            G.target,
            {x: G.omap[y] for x, y in self.omap.items()},
            {f: G.fmap[g] for f, g in self.fmap.items()},
            {a: G.amap[b] for a, b in self.amap.items()},
            name=f"{G.name}.{self.name}",
        )


def tabulate(S: FiniteTwoCategory, T, maps: tuple, name: str = "") -> TwoFunctor:
    """The 2-functor S -> T of the cell maps ``maps``, tabulated on S."""
    f0, f1, f2 = maps
    return TwoFunctor(S, T, {x: f0(x) for x in S.objects}, {f: f1(f) for f in S.one_src},
                      {a: f2(a) for a in S.two_src}, name=name)


def identity_functor(C: FiniteTwoCategory) -> TwoFunctor:
    return tabulate(C, C, IDENTITY_MAPS, f"id_{C.name}")


def validate_functor_cells(F: TwoFunctor) -> ValidationReport:
    """The per-cell part of ``validate_two_functor``: every cell has an image,
    every image is a target cell, and the image endpoints agree."""
    rep = ValidationReport(f"2-functor {F.name or '?'}")
    C, D = F.source, F.target
    for x in C.objects:
        if x not in F.omap:
            rep.add("structure", f"object {x!r} missing from object map")
        elif not D.has_obj(F.omap[x]):
            rep.add("structure", f"object image {F.omap[x]!r} not in target")
    for cells, cmap, dim, target in ((C.one_src, F.fmap, "1", D.one_src),
                                     (C.two_src, F.amap, "2", D.two_src)):
        for c in cells:
            if c not in cmap:
                rep.add("structure", f"{dim}-cell {c!r} missing from map")
            elif cmap[c] not in target:
                rep.add("structure", f"image of {c!r} not a target {dim}-cell")
    if not rep.issues:
        scan_functor_cells(rep, C, D, F.cell_maps())
    return rep


def validate_two_functor(F: TwoFunctor) -> ValidationReport:
    """The per-cell part and, when it passes, the per-entry part of the
    strict 2-functor laws (``scan_functor_laws``)."""
    rep = validate_functor_cells(F)
    if rep.ok:
        scan_functor_laws(rep, F.source, F.target, F.cell_maps())
    return rep


def is_isomorphism_of_two_categories(F: TwoFunctor) -> bool:
    """True when all three cell maps are bijections onto the target."""
    C, D = F.source, F.target
    return (
        len(set(F.omap.values())) == len(C.objects) == len(D.objects)
        and len(set(F.fmap.values())) == len(C.one_src) == len(D.one_src)
        and len(set(F.amap.values())) == len(C.two_src) == len(D.two_src)
    )


# -- 2-natural transformations -----------------------------------------------


@dataclass
class Transformation2:
    """A 2-natural transformation between parallel 2-functors: every
    naturality square commutes strictly."""

    F: TwoFunctor
    G: TwoFunctor
    components: dict[Cell, Cell]


def validate_transformation(t: Transformation2) -> ValidationReport:
    rep = ValidationReport("transformation (2natural)")
    C = t.F.source
    D = t.F.target
    if t.G.source is not C or t.G.target is not D:
        rep.add("structure", "functors not parallel")
        return rep
    for x in C.objects:
        if x not in t.components:
            rep.add("structure", f"missing component at {x!r}")
            continue
        c = t.components[x]
        if D.one_src.get(c) != t.F.omap[x] or D.one_tgt.get(c) != t.G.omap[x]:
            rep.add("structure", f"component at {x!r} has wrong endpoints")
    if not rep.issues:
        scan_naturality(rep, C, D, t.components.__getitem__, t.F.cell_maps(),
                        t.G.cell_maps(), "naturality", "components")
    return rep


# -- hom-category equivalence and 2-equivalence -------------------------------


def _hom_functor_is_equivalence(F: TwoFunctor, a: Cell, a2: Cell) -> str | None:
    """None if C(a,a') -> D(Fa,Fa') is an equivalence, else a witness string."""
    C, D = F.source, F.target
    fa, fa2 = F.omap[a], F.omap[a2]
    src_obs = C.one_cells_between(a, a2)
    tgt_obs = D.one_cells_between(fa, fa2)
    # fully faithful: bijection on 2-cell sets between each pair
    for f in src_obs:
        for g in src_obs:
            dom = C.two_cells_between(f, g)
            cod = D.two_cells_between(F.fmap[f], F.fmap[g])
            images = [F.amap[x] for x in dom]
            if len(set(images)) != len(images):
                return f"hom({a!r},{a2!r}) not faithful between {f!r} and {g!r}"
            if set(images) != set(cod):
                return f"hom({a!r},{a2!r}) not full between {f!r} and {g!r}"
    # essentially surjective on 1-cells
    for h in tgt_obs:
        if not any(_iso_between(D, F.fmap[f], h) is not None or F.fmap[f] == h
                   for f in src_obs):
            return f"1-cell {h!r} of target hom({fa!r},{fa2!r}) not reached up to iso"
    return None


@dataclass
class EquivalenceReport:
    ok: bool
    witness: str | None
    bijective_on_cells: bool

    def __str__(self) -> str:
        if self.ok:
            extra = " (isomorphism)" if self.bijective_on_cells else " (non-isomorphism equivalence)"
            return "2-equivalence: true" + extra
        return f"2-equivalence: false; weak equivalence: unknown; witness: {self.witness}"


def two_equivalence_check(F: TwoFunctor) -> EquivalenceReport:
    """Decide whether F is an equivalence of 2-categories.

    Checks essential surjectivity up to internal equivalence and that every
    hom-functor is an equivalence of finite categories; names the first
    failure witness otherwise.
    """
    C, D = F.source, F.target
    image = {F.omap[x] for x in C.objects}
    classes = internal_equivalence_classes(D)
    for cls in classes:
        if not (cls & image):
            return EquivalenceReport(
                False, f"object class {sorted(map(repr, cls))} not reached", False
            )
    for a in C.objects:
        for a2 in C.objects:
            w = _hom_functor_is_equivalence(F, a, a2)
            if w is not None:
                return EquivalenceReport(False, w, False)
    return EquivalenceReport(True, None, is_isomorphism_of_two_categories(F))


# -- comma 2-categories and path objects -----------------------------------------
# The comma 2-category (id_T | F) of cell maps F: S -> T has objects
# ``(tag0, x, f, a)`` with f: a -> F x in T, 1-cells ``(tag1, o1, o2, s, r)``
# with s: x -> y in S (the S-leg) and r: a -> b in T (the T-leg) such that
# g.r = F s . f, and 2-cells ``(tag2, k1, k2, be, al)`` with
# id2(g) * al = F be * id2(f).  The arrow 2-category of C is the case
# S = T = C, F = id; a level of the span construction is the case F = k_m.

PATH_TAGS = ("p0", "p1", "p2")
IDENTITY_MAPS = (lambda c: c,) * 3
# the cell maps of the two legs: the S-leg to S and the T-leg to T
S_LEG = (itemgetter(1), itemgetter(3), itemgetter(3))
T_LEG = (itemgetter(3), itemgetter(4), itemgetter(4))


class CommaFormula:
    """The cell operations of a comma 2-category over S and T, evaluated on
    demand: the legs of higher cells compose and take identities in S and
    in T, and every cell carries its endpoints in fields 1 and 2."""

    src1 = src2 = staticmethod(itemgetter(1))
    tgt1 = tgt2 = staticmethod(itemgetter(2))

    def __init__(self, S, T, tags: tuple):
        self.S, self.T = S, T
        _, self.tag1, self.tag2 = tags

    def id1(self, o):
        return (self.tag1, o, o, self.S.id1(o[1]), self.T.id1(o[3]))

    def id2(self, k):
        return (self.tag2, k, k, self.S.id2(k[3]), self.T.id2(k[4]))

    def is_id1(self, k):
        return k[1] == k[2] and self.S.is_id1(k[3]) and self.T.is_id1(k[4])

    def is_id2(self, k):
        return k[1] == k[2] and self.S.is_id2(k[3]) and self.T.is_id2(k[4])

    def comp1(self, kg, kf):
        return (self.tag1, kf[1], kg[2],
                self.S.comp1(kg[3], kf[3]), self.T.comp1(kg[4], kf[4]))

    def vcomp(self, b, a):
        return (self.tag2, a[1], b[2],
                self.S.vcomp(b[3], a[3]), self.T.vcomp(b[4], a[4]))

    def hcomp2(self, b, a):
        return (self.tag2, self.comp1(b[1], a[1]), self.comp1(b[2], a[2]),
                self.S.hcomp2(b[3], a[3]), self.T.hcomp2(b[4], a[4]))


def comma(S: FiniteTwoCategory, T: FiniteTwoCategory, F: tuple, tags: tuple,
          name: str) -> FiniteTwoCategory:
    """The comma 2-category (id_T | F) of the cell maps ``F = (F0, F1, F2)``
    from S to T, its cells tagged by ``tags``.

    Objects are listed by x, then a, then f; 1-cells hom by hom, the S-leg
    before the T-leg; the 2-cells of each 1-cell over the 1-cells of its own
    hom.  Raises ``CellCeilingExceeded`` as soon as the cells listed pass
    the cell ceiling, which also bounds the ``fill`` of the result."""
    ceiling = current_cell_ceiling()
    F0, F1, F2 = F
    tag0, tag1, tag2 = tags
    objs = [(tag0, x, f, a) for x in S.objects for a in T.objects
            for f in T.one_cells_between(a, F0(x))]
    one: dict[Cell, tuple[Cell, Cell, bool]] = {}
    two: dict[Cell, tuple[Cell, Cell, bool]] = {}

    def listed() -> None:
        total = len(objs) + len(one) + len(two)
        if total > ceiling:
            raise CellCeilingExceeded("comma enumeration", total, ceiling)

    listed()
    homs = []
    for o1 in objs:
        _, x, f, a = o1
        for o2 in objs:
            _, y, g, b = o2
            hom = []
            for s in S.one_cells_between(x, y):
                Ff = T.comp1(F1(s), f)
                for r in T.one_cells_between(a, b):
                    if T.comp1(g, r) == Ff:
                        k = (tag1, o1, o2, s, r)
                        hom.append(k)
                        one[k] = (o1, o2, o1 == o2 and S.is_id1(s) and T.is_id1(r))
            if hom:
                homs.append(hom)
                listed()
    for hom in homs:
        for k1 in hom:
            _, o1, o2, s, r = k1
            id_f, id_g = T.id2(o1[2]), T.id2(o2[2])
            for k2 in hom:
                als = T.two_cells_between(r, k2[4])
                lhs = [T.hcomp2(id_g, al) for al in als]
                for be in S.two_cells_between(s, k2[3]):
                    rhs = T.hcomp2(F2(be), id_f)
                    for al, whiskered in zip(als, lhs):
                        if whiskered == rhs:
                            two[(tag2, k1, k2, be, al)] = (
                                k1, k2, k1 == k2 and S.is_id2(be) and T.is_id2(al))
            listed()
    return FiniteTwoCategory(name, objs, one, two, formula=CommaFormula(S, T, tags))


def into_comma(C, tags: tuple, obj, s_maps: tuple, t_maps: tuple) -> tuple:
    """The cell maps from C to a comma 2-category tagged ``tags`` that send
    objects by ``obj`` and a higher cell c to the images of its endpoints
    (which C gives) with legs ``s_maps(c)`` and ``t_maps(c)``."""
    _, tag1, tag2 = tags
    _, s1, s2 = s_maps
    _, t1, t2 = t_maps

    def one(f):
        return (tag1, obj(C.src1(f)), obj(C.tgt1(f)), s1(f), t1(f))

    def two(a):
        return (tag2, one(C.src2(a)), one(C.tgt2(a)), s2(a), t2(a))

    return (obj, one, two)


def _comma_cells(tag: str, ends, s_leg, t_leg):
    """The map of comma cells of one dimension that sends their endpoints by
    ``ends`` and their S-legs and T-legs by ``s_leg`` and ``t_leg``."""
    return lambda k: (tag, ends(k[1]), ends(k[2]), s_leg(k[3]), t_leg(k[4]))


def comma_map(tags: tuple, obj, s_maps: tuple, t_maps: tuple) -> tuple:
    """The cell maps between comma 2-categories that send objects by ``obj``
    and the S-legs and T-legs of higher cells by ``s_maps`` and ``t_maps``
    (``into_comma`` with the source's endpoints and legs read off its cells)."""
    one = _comma_cells(tags[1], obj, s_maps[1], t_maps[1])
    return (obj, one, _comma_cells(tags[2], one, s_maps[2], t_maps[2]))


def tabulate_comma(S: FiniteTwoCategory, T, tags: tuple, omap: dict, s_maps: tuple,
                   t_maps: tuple, name: str) -> TwoFunctor:
    """``comma_map`` tabulated on the comma 2-category S from the object
    images ``omap``; the image of a 2-cell shares those of its endpoints."""
    one = _comma_cells(tags[1], omap.__getitem__, s_maps[1], t_maps[1])
    fmap = {k: one(k) for k in S.one_src}
    two = _comma_cells(tags[2], fmap.__getitem__, s_maps[2], t_maps[2])
    return TwoFunctor(S, T, omap, fmap, {a: two(a) for a in S.two_src}, name=name)


def comma_section(S, T, F: tuple, tags: tuple) -> tuple:
    """The cell maps of the section S -> (id_T | F), x |-> (x, id F x, F x)."""
    tag0 = tags[0]
    F0 = F[0]
    return into_comma(S, tags, lambda x: (tag0, x, T.id1(F0(x)), F0(x)), IDENTITY_MAPS, F)


def arrow(C, f: Cell) -> tuple:
    """The 1-cell f of C as an object of the arrow 2-category of C."""
    return (PATH_TAGS[0], C.tgt1(f), f, C.src1(f))


@dataclass
class PathObject:
    base: FiniteTwoCategory
    total: FiniteTwoCategory
    e0: TwoFunctor
    e1: TwoFunctor
    i: TwoFunctor


def path_object(C: FiniteTwoCategory) -> PathObject:
    """The arrow 2-category of C, the comma (id | id), with its two
    evaluations and the section.

    An object ``("p0", y, f, x)`` is a 1-cell f: x -> y of C.  ``e0``
    evaluates at the source (the T-leg), ``e1`` at the target (the S-leg),
    and ``i`` sends each object to its identity 1-cell.  The cell ceiling
    bounds the comma's cells and table entries, as in ``comma``.
    """
    total = comma(C, C, IDENTITY_MAPS, PATH_TAGS, f"{C.name}^arrow")
    return PathObject(C, total, tabulate(total, C, T_LEG, "e0"),
                      tabulate(total, C, S_LEG, "e1"),
                      tabulate(C, total, comma_section(C, C, IDENTITY_MAPS, PATH_TAGS), "i"))


def transformation_to_path_functor(t: Transformation2, P: PathObject) -> TwoFunctor:
    """Encode a 2-natural transformation as a functor into the path object."""
    F, G = t.F, t.G
    return tabulate(F.source, P.total, into_comma(
        F.source, PATH_TAGS, lambda x: arrow(F.target, t.components[x]),
        G.cell_maps(), F.cell_maps()), "tilde")


# -- products ------------------------------------------------------------------


def product_two_category(factors: list[FiniteTwoCategory], name: str = "") -> FiniteTwoCategory:
    """Finite cartesian product; cells are tuples of factor cells."""
    if not factors:
        return terminal_two_category()
    objs = list(itertools.product(*[c.objects for c in factors]))
    one = {}
    for fs in itertools.product(*[list(c.one_src) for c in factors]):
        one[fs] = (
            tuple(c.one_src[f] for c, f in zip(factors, fs)),
            tuple(c.one_tgt[f] for c, f in zip(factors, fs)),
            all(c.one_identity[f] for c, f in zip(factors, fs)),
        )
    two = {}
    for al in itertools.product(*[list(c.two_src) for c in factors]):
        two[al] = (
            tuple(c.two_src[a] for c, a in zip(factors, al)),
            tuple(c.two_tgt[a] for c, a in zip(factors, al)),
            all(c.two_identity[a] for c, a in zip(factors, al)),
        )
    return FiniteTwoCategory(name or "x".join(c.name for c in factors), objs, one, two,
                             formula=ProductFormula(factors))


class ProductFormula:
    """Componentwise composition of tuples of factor cells."""

    def __init__(self, factors: list):
        self.factors = factors

    def comp1(self, g: tuple, f: tuple) -> tuple:
        return tuple(c.comp1(x, y) for c, x, y in zip(self.factors, g, f))

    def vcomp(self, b: tuple, a: tuple) -> tuple:
        return tuple(c.vcomp(x, y) for c, x, y in zip(self.factors, b, a))

    def hcomp2(self, b: tuple, a: tuple) -> tuple:
        return tuple(c.hcomp2(x, y) for c, x, y in zip(self.factors, b, a))


def tuple_functor(functors: list[TwoFunctor], product: FiniteTwoCategory) -> TwoFunctor:
    """<F1,...,Fn>: C -> D1 x ... x Dn for functors with common source."""
    C = functors[0].source
    return TwoFunctor(
        C, product,
        {x: tuple(F.omap[x] for F in functors) for x in C.objects},
        {f: tuple(F.fmap[f] for F in functors) for f in C.one_src},
        {a: tuple(F.amap[a] for F in functors) for a in C.two_src},
        name="tuple",
    )


def terminal_two_category() -> FiniteTwoCategory:
    return FiniteTwoCategory(
        "terminal",
        ["*"],
        {"i*": ("*", "*", True)},
        {"ii*": ("i*", "i*", True)},
        {("ii*", "ii*"): "ii*"},
        {("i*", "i*"): "i*"},
        {("ii*", "ii*"): "ii*"},
    )


def constant_functor_to_terminal(C: FiniteTwoCategory, T: FiniteTwoCategory) -> TwoFunctor:
    return TwoFunctor(
        C, T,
        {x: "*" for x in C.objects},
        {f: "i*" for f in C.one_src},
        {a: "ii*" for a in C.two_src},
        name="!",
    )
