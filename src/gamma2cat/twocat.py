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
category (a K-theory level, an arrow 2-category, a product, a span level)
is given instead by the formula its cells compose by: a lookup computes a
composite on first use and memoizes it, and ``fill`` completes the tables
for the scans that read them whole.  Associativity and interchange
(checked by ``validate_two_category``) make the fold order of any pasting
diagram immaterial.

Every 2-category of the package answers one protocol, the eleven
``CELL_OPERATIONS``, whether it is tabulated or evaluated lazily (a formula
level, the inverse construction).  ``FiniteTwoCategory`` is its tabulated
case and also answers the ``ENUMERATION_OPERATIONS``; a permutative carrier
binds all fifteen from its base 2-category.

A strict 2-functor is given by plain cell maps; the transitions of a diagram
are built whole on first use (``gamma.GammaTruncation.transition``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from operator import attrgetter
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
            cell = cls._pool[fields] = cls(*fields)
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

    def __str__(self) -> str:
        head = f"{self.subject}: {'valid' if self.ok else 'INVALID'} ({self.checked} instances checked)"
        if self.ok:
            return head
        body = "\n".join("  " + str(i) for i in self.issues[:40])
        more = "" if len(self.issues) <= 40 else f"\n  ... {len(self.issues) - 40} more"
        return head + "\n" + body + more


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
    ``hcomp2`` of the composites.  ``ceiling`` bounds the cells plus table
    entries that ``fill`` may hold.  Instances are treated as immutable once
    validated.
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
        ceiling: int | None = None,
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
        self._ceiling = ceiling
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
        one, two = self.one_src, self.two_src
        one_by_tgt = _group(one, self.one_tgt.__getitem__)
        two_by_tgt = _group(two, self.two_tgt.__getitem__)
        two_by_tgt_obj = _group(two, lambda a: self.one_tgt[two[a]])
        v_dom = [(b, two_by_tgt.get(two[b], ())) for b in two]
        h1_dom = [(g, one_by_tgt.get(one[g], ())) for g in one]
        h2_dom = [(b, two_by_tgt_obj.get(one[two[b]], ())) for b in two]
        if self._ceiling is not None:
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
        return hash((self.name, len(self.objects), len(self.one_src), len(self.two_src)))

    def __repr__(self) -> str:
        o, m, a = self.counts()
        return f"<FiniteTwoCategory {self.name}: {o} objects, {m} 1-cells, {a} 2-cells>"


def _group(cells: Iterable[Cell], key) -> dict[Cell, list[Cell]]:
    out: dict[Cell, list[Cell]] = {}
    for c in cells:
        out.setdefault(key(c), []).append(c)
    return out


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
    sound input.
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

    for x in C.objects:
        ids = [f for f in C.one_src
               if C.one_identity[f] and C.one_src[f] == x and C.one_tgt[f] == x]
        if len(ids) != 1:
            rep.add("structure", f"object {x!r} has {len(ids)} identity 1-cells (want 1)")
    for f in C.one_src:
        ids = [a for a in C.two_src
               if C.two_identity[a] and C.two_src[a] == f and C.two_tgt[a] == f]
        if len(ids) != 1:
            rep.add("structure", f"1-cell {f!r} has {len(ids)} identity 2-cells (want 1)")
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

    one = list(C.one_src)
    two = list(C.two_src)

    # table domains
    want_h1 = [(g, f) for g in one for f in one if C.one_src[g] == C.one_tgt[f]]
    _check_domain(rep, "hcomp1", C.hcomp1_table, want_h1)
    want_v = [(b, a) for b in two for a in two if C.two_src[b] == C.two_tgt[a]]
    _check_domain(rep, "vcomp", C.vcomp_table, want_v)
    want_h2 = [
        (b, a)
        for b in two
        for a in two
        if C.one_src[C.two_src[b]] == C.one_tgt[C.two_src[a]]
    ]
    _check_domain(rep, "hcomp2", C.hcomp2_table, want_h2)
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

    # Axiom scans run on an integer encoding of the cell sets: the tables are
    # rebuilt as int-keyed dictionaries so that the quadratic/cubic instance
    # enumerations below stay cheap on large generated levels.
    obj_ix = {x: i for i, x in enumerate(C.objects)}
    one_ix = {f: i for i, f in enumerate(one)}
    two_ix = {a: i for i, a in enumerate(two)}
    n1, n2 = len(one), len(two)
    o_src = [obj_ix[C.one_src[f]] for f in one]
    o_tgt = [obj_ix[C.one_tgt[f]] for f in one]
    t_src = [one_ix[C.two_src[a]] for a in two]
    t_tgt = [one_ix[C.two_tgt[a]] for a in two]
    id1_of = [one_ix[C.id1(x)] for x in C.objects]
    id2_of = [two_ix[C.id2(f)] for f in one]
    H1 = {(one_ix[g], one_ix[f]): one_ix[v] for (g, f), v in C.hcomp1_table.items()}
    V = {(two_ix[b], two_ix[a]): two_ix[v] for (b, a), v in C.vcomp_table.items()}
    H2 = {(two_ix[b], two_ix[a]): two_ix[v] for (b, a), v in C.hcomp2_table.items()}

    # unit laws
    for fi in range(n1):
        rep.checked += 2
        if H1[(fi, id1_of[o_src[fi]])] != fi:
            rep.add("unit", f"f . id != f for 1-cell {one[fi]!r}")
        if H1[(id1_of[o_tgt[fi]], fi)] != fi:
            rep.add("unit", f"id . f != f for 1-cell {one[fi]!r}")
    for ai in range(n2):
        rep.checked += 4
        if V[(ai, id2_of[t_src[ai]])] != ai:
            rep.add("unit", f"a . id2 != a (vertical) for {two[ai]!r}")
        if V[(id2_of[t_tgt[ai]], ai)] != ai:
            rep.add("unit", f"id2 . a != a (vertical) for {two[ai]!r}")
        s_obj = o_src[t_src[ai]]
        t_obj = o_tgt[t_src[ai]]
        if H2[(ai, id2_of[id1_of[s_obj]])] != ai:
            rep.add("unit", f"a * id != a (horizontal) for {two[ai]!r}")
        if H2[(id2_of[id1_of[t_obj]], ai)] != ai:
            rep.add("unit", f"id * a != a (horizontal) for {two[ai]!r}")
    for (gi, fi) in H1:
        rep.checked += 1
        if H2[(id2_of[gi], id2_of[fi])] != id2_of[H1[(gi, fi)]]:
            rep.add("unit", f"id2(g)*id2(f) != id2(g.f) for ({one[gi]!r},{one[fi]!r})")

    # associativity
    by_src2 = [[] for _ in range(n1)]
    for ci in range(n2):
        by_src2[t_src[ci]].append(ci)
    for (bi, ai) in V:
        ba = V[(bi, ai)]
        for ci in by_src2[t_tgt[bi]]:
            rep.checked += 1
            if V[(ci, ba)] != V[(V[(ci, bi)], ai)]:
                rep.add("assoc", f"vcomp not associative at ({two[ci]!r},{two[bi]!r},{two[ai]!r})")
    by_src1 = [[] for _ in range(len(C.objects))]
    for hi in range(n1):
        by_src1[o_src[hi]].append(hi)
    for (gi, fi) in H1:
        gf = H1[(gi, fi)]
        for hi in by_src1[o_tgt[gi]]:
            rep.checked += 1
            if H1[(hi, gf)] != H1[(H1[(hi, gi)], fi)]:
                rep.add("assoc", f"hcomp1 not associative at ({one[hi]!r},{one[gi]!r},{one[fi]!r})")
    by_src_obj2 = [[] for _ in range(len(C.objects))]
    for ci in range(n2):
        by_src_obj2[o_src[t_src[ci]]].append(ci)
    for (bi, ai) in H2:
        ba = H2[(bi, ai)]
        for ci in by_src_obj2[o_tgt[t_src[bi]]]:
            rep.checked += 1
            if H2[(ci, ba)] != H2[(H2[(ci, bi)], ai)]:
                rep.add("assoc", f"hcomp2 not associative at ({two[ci]!r},{two[bi]!r},{two[ai]!r})")

    # interchange
    homs: dict[tuple[int, int], list[int]] = {}
    for ai in range(n2):
        fi = t_src[ai]
        homs.setdefault((o_src[fi], o_tgt[fi]), []).append(ai)
    vpairs: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
    for key, cells in homs.items():
        vpairs[key] = [
            (a2, a1, V[(a2, a1)]) for a1 in cells for a2 in cells
            if t_src[a2] == t_tgt[a1]
        ]
    for (x, y), left in vpairs.items():
        for (y2, z), right in vpairs.items():
            if y2 != y:
                continue
            for (a2, a1, va) in left:
                for (b2, b1, vb) in right:
                    rep.checked += 1
                    if V[(H2[(b2, a2)], H2[(b1, a1)])] != H2[(vb, va)]:
                        rep.add(
                            "interchange",
                            f"interchange fails at ({two[b2]!r},{two[b1]!r};{two[a2]!r},{two[a1]!r})",
                        )
    return rep


def _check_domain(rep: ValidationReport, name: str, table: Mapping, want: list) -> None:
    """Report, in cell-list and then table order, the domain mismatches."""
    for k in want:
        if k not in table:
            rep.add("structure", f"{name} missing entry for {k!r}")
    wanted = set(want)
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

    def then(self, G: "TwoFunctor") -> "TwoFunctor":
        return TwoFunctor(
            self.source,
            G.target,
            {x: G.omap[y] for x, y in self.omap.items()},
            {f: G.fmap[g] for f, g in self.fmap.items()},
            {a: G.amap[b] for a, b in self.amap.items()},
            name=f"{G.name}.{self.name}",
        )


def identity_functor(C: FiniteTwoCategory) -> TwoFunctor:
    return TwoFunctor(
        C, C,
        {x: x for x in C.objects},
        {f: f for f in C.one_src},
        {a: a for a in C.two_src},
        name=f"id_{C.name}",
    )


def validate_two_functor(F: TwoFunctor) -> ValidationReport:
    rep = ValidationReport(f"2-functor {F.name or '?'}")
    C, D = F.source, F.target
    C.fill()
    for x in C.objects:
        if x not in F.omap:
            rep.add("structure", f"object {x!r} missing from object map")
        elif F.omap[x] not in D.objects:
            rep.add("structure", f"object image {F.omap[x]!r} not in target")
    for f in C.one_src:
        if f not in F.fmap:
            rep.add("structure", f"1-cell {f!r} missing from map")
    for a in C.two_src:
        if a not in F.amap:
            rep.add("structure", f"2-cell {a!r} missing from map")
    if rep.issues:
        return rep
    for f in C.one_src:
        ff = F.fmap[f]
        if ff not in D.one_src:
            rep.add("structure", f"image of {f!r} not a target 1-cell")
            continue
        rep.checked += 1
        if D.one_src[ff] != F.omap[C.one_src[f]] or D.one_tgt[ff] != F.omap[C.one_tgt[f]]:
            rep.add("functor", f"1-cell {f!r}: image endpoints disagree")
    for a in C.two_src:
        fa = F.amap[a]
        if fa not in D.two_src:
            rep.add("structure", f"image of {a!r} not a target 2-cell")
            continue
        rep.checked += 1
        if D.two_src[fa] != F.fmap[C.two_src[a]] or D.two_tgt[fa] != F.fmap[C.two_tgt[a]]:
            rep.add("functor", f"2-cell {a!r}: image endpoints disagree")
    if rep.issues:
        return rep
    for x in C.objects:
        rep.checked += 1
        if F.fmap[C.id1(x)] != D.id1(F.omap[x]):
            rep.add("functor", f"identity 1-cell of {x!r} not preserved")
    for f in C.one_src:
        rep.checked += 1
        if F.amap[C.id2(f)] != D.id2(F.fmap[f]):
            rep.add("functor", f"identity 2-cell of {f!r} not preserved")
    for (g, f), h in C.hcomp1_table.items():
        rep.checked += 1
        if F.fmap[h] != D.comp1(F.fmap[g], F.fmap[f]):
            rep.add("functor", f"1-cell composition not preserved at ({g!r},{f!r})")
    for (b, a), c in C.vcomp_table.items():
        rep.checked += 1
        if F.amap[c] != D.vcomp(F.amap[b], F.amap[a]):
            rep.add("functor", f"vertical composition not preserved at ({b!r},{a!r})")
    for (b, a), c in C.hcomp2_table.items():
        rep.checked += 1
        if F.amap[c] != D.hcomp2(F.amap[b], F.amap[a]):
            rep.add("functor", f"horizontal composition not preserved at ({b!r},{a!r})")
    return rep


def is_isomorphism_of_two_categories(F: TwoFunctor) -> bool:
    """True when all three cell maps are bijections onto the target."""
    C, D = F.source, F.target
    return (
        len(set(F.omap.values())) == len(C.objects) == len(D.objects)
        and len(set(F.fmap.values())) == len(C.one_src) == len(D.one_src)
        and len(set(F.amap.values())) == len(C.two_src) == len(D.two_src)
    )


# -- 2-natural / pseudonatural transformations --------------------------------


@dataclass
class Transformation2:
    """A transformation between parallel 2-functors.

    ``kind`` is "2natural" (all naturality squares commute strictly) or
    "pseudo" (invertible component 2-cells ``comp2[f]: Gf.alpha_a =>
    alpha_b.Ff`` with unit and composition coherence).
    """

    F: TwoFunctor
    G: TwoFunctor
    components: dict[Cell, Cell]
    kind: str = "2natural"
    comp2: dict[Cell, Cell] | None = None

    def at(self, x: Cell) -> Cell:
        return self.components[x]


def validate_transformation(t: Transformation2) -> ValidationReport:
    rep = ValidationReport(f"transformation ({t.kind})")
    C = t.F.source
    D = t.F.target
    C.fill()
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
    if rep.issues:
        return rep
    if t.kind == "2natural":
        for f in C.one_src:
            a, b = C.one_src[f], C.one_tgt[f]
            rep.checked += 1
            if D.comp1(t.G.fmap[f], t.components[a]) != D.comp1(t.components[b], t.F.fmap[f]):
                rep.add("naturality", f"square fails at 1-cell {f!r}")
        for al in C.two_src:
            f = C.two_src[al]
            a, b = C.one_src[f], C.one_tgt[f]
            rep.checked += 1
            lhs = D.hcomp2(t.G.amap[al], D.id2(t.components[a]))
            rhs = D.hcomp2(D.id2(t.components[b]), t.F.amap[al])
            if lhs != rhs:
                rep.add("naturality", f"2-cell condition fails at {al!r}")
    else:
        if t.comp2 is None:
            rep.add("structure", "pseudo transformation lacks 1-cell components")
            return rep
        for f in C.one_src:
            a, b = C.one_src[f], C.one_tgt[f]
            cell = t.comp2.get(f)
            if cell is None:
                rep.add("structure", f"missing 2-cell component at {f!r}")
                continue
            want_src = D.comp1(t.G.fmap[f], t.components[a])
            want_tgt = D.comp1(t.components[b], t.F.fmap[f])
            if D.two_src.get(cell) != want_src or D.two_tgt.get(cell) != want_tgt:
                rep.add("structure", f"2-cell component at {f!r} has wrong endpoints")
            elif vertical_inverse(D, cell) is None:
                rep.add("pseudo", f"2-cell component at {f!r} not invertible")
        if rep.issues:
            return rep
        for x in C.objects:
            rep.checked += 1
            if t.comp2[C.id1(x)] != D.id2(t.components[x]):
                rep.add("pseudo", f"unit coherence fails at {x!r}")
        for (g, f) in C.hcomp1_table:
            a = C.one_src[f]
            rep.checked += 1
            gf = C.comp1(g, f)
            lhs = t.comp2[gf]
            step1 = whisker_l(D, t.G.fmap[g], t.comp2[f])
            step2 = whisker_r(D, t.comp2[g], t.F.fmap[f])
            if lhs != D.vcomp(step2, step1):
                rep.add("pseudo", f"composition coherence fails at ({g!r},{f!r})")
        for al in C.two_src:
            f, g = C.two_src[al], C.two_tgt[al]
            a, b = C.one_src[f], C.one_tgt[f]
            rep.checked += 1
            lhs = D.vcomp(t.comp2[g], D.hcomp2(t.G.amap[al], D.id2(t.components[a])))
            rhs = D.vcomp(D.hcomp2(D.id2(t.components[b]), t.F.amap[al]), t.comp2[f])
            if lhs != rhs:
                rep.add("pseudo", f"naturality vs 2-cells fails at {al!r}")
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


# -- path objects --------------------------------------------------------------


class SquareFormula:
    """Composition of squares between two 2-categories S and T.

    A 1-cell is a tagged tuple ``(tag1, src, tgt, l, r)`` and a 2-cell a
    tuple ``(tag2, src, tgt, l, r)``: the legs ``l`` compose in S and the
    legs ``r`` in T.  The arrow 2-category has S = T; the span construction
    pairs a source level with a target level.
    """

    def __init__(self, S, T, tag1: str, tag2: str):
        self.S, self.T = S, T
        self.tag1, self.tag2 = tag1, tag2

    def comp1(self, kg, kf):
        return (self.tag1, kf[1], kg[2],
                self.S.comp1(kg[3], kf[3]), self.T.comp1(kg[4], kf[4]))

    def vcomp(self, b, a):
        return (self.tag2, a[1], b[2],
                self.S.vcomp(b[3], a[3]), self.T.vcomp(b[4], a[4]))

    def hcomp2(self, b, a):
        return (self.tag2, self.comp1(b[1], a[1]), self.comp1(b[2], a[2]),
                self.S.hcomp2(b[3], a[3]), self.T.hcomp2(b[4], a[4]))


class LazyPathLevel(SquareFormula):
    """Arrow-2-category operations over an arbitrary level, without
    enumeration: objects are the level's 1-cells, and the higher cells are
    the commuting pairs ``("p1", f, g, r, s)`` and ``("p2", k1, k2, al,
    be)``, computed on demand."""

    def __init__(self, L):
        super().__init__(L, L, "p1", "p2")
        self.L = L

    def id1(self, f):
        L = self.L
        return ("p1", f, f, L.id1(L.src1(f)), L.id1(L.tgt1(f)))

    def id2(self, k):
        L = self.L
        return ("p2", k, k, L.id2(k[3]), L.id2(k[4]))

    def src1(self, k):
        return k[1]

    def tgt1(self, k):
        return k[2]

    src2, tgt2 = src1, tgt1

    def is_id1(self, k):
        return k[1] == k[2] and self.L.is_id1(k[3]) and self.L.is_id1(k[4])

    def is_id2(self, k):
        return k[1] == k[2] and self.L.is_id2(k[3]) and self.L.is_id2(k[4])


@dataclass
class PathObject:
    base: FiniteTwoCategory
    total: FiniteTwoCategory
    e0: TwoFunctor
    e1: TwoFunctor
    i: TwoFunctor


def path_object(C: FiniteTwoCategory) -> PathObject:
    """The arrow 2-category of C with its two evaluations and the section.

    Objects of the total are 1-cells f of C; 1-cells f -> g are pairs (r, s)
    with g.r = s.f; 2-cells are pairs (al, be) with id2(g)*al = be*id2(f).
    """
    objs = list(C.one_src)
    one: dict[Cell, tuple[Cell, Cell, bool]] = {}
    for f in objs:
        for g in objs:
            for r in C.one_cells_between(C.one_src[f], C.one_src[g]):
                for s in C.one_cells_between(C.one_tgt[f], C.one_tgt[g]):
                    if C.comp1(g, r) == C.comp1(s, f):
                        ident = (
                            f == g and r == C.id1(C.one_src[f]) and s == C.id1(C.one_tgt[f])
                        )
                        one[("p1", f, g, r, s)] = (f, g, ident)
    two: dict[Cell, tuple[Cell, Cell, bool]] = {}
    for k1, (f, g, _) in one.items():
        _, _, r, s = k1[1], k1[2], k1[3], k1[4]
        for k2, (f2, g2, _) in one.items():
            if f2 != f or g2 != g:
                continue
            r2, s2 = k2[3], k2[4]
            for al in C.two_cells_between(r, r2):
                for be in C.two_cells_between(s, s2):
                    if whisker_l(C, g, al) == whisker_r(C, be, f):
                        ident = k1 == k2 and C.is_id2(al) and C.is_id2(be)
                        two[("p2", k1, k2, al, be)] = (k1, k2, ident)
    total = FiniteTwoCategory(f"{C.name}^arrow", objs, one, two, formula=LazyPathLevel(C))
    e0 = TwoFunctor(
        total, C,
        {f: C.one_src[f] for f in objs},
        {k: k[3] for k in one},
        {k: k[3] for k in two},
        name="e0",
    )
    e1 = TwoFunctor(
        total, C,
        {f: C.one_tgt[f] for f in objs},
        {k: k[4] for k in one},
        {k: k[4] for k in two},
        name="e1",
    )
    i = TwoFunctor(
        C, total,
        {x: C.id1(x) for x in C.objects},
        {f: ("p1", C.id1(C.one_src[f]), C.id1(C.one_tgt[f]), f, f) for f in C.one_src},
        {
            a: (
                "p2",
                ("p1", C.id1(s_o := C.one_src[C.two_src[a]]), C.id1(t_o := C.one_tgt[C.two_src[a]]),
                 C.two_src[a], C.two_src[a]),
                ("p1", C.id1(s_o), C.id1(t_o), C.two_tgt[a], C.two_tgt[a]),
                a, a,
            )
            for a in C.two_src
        },
        name="i",
    )
    return PathObject(C, total, e0, e1, i)


def transformation_to_path_functor(t: Transformation2, P: PathObject) -> TwoFunctor:
    """Encode a 2-natural transformation as a functor into the path object."""
    C = t.F.source
    D = t.F.target
    omap = {x: t.components[x] for x in C.objects}
    fmap = {}
    for f in C.one_src:
        a, b = C.one_src[f], C.one_tgt[f]
        fmap[f] = ("p1", t.components[a], t.components[b], t.F.fmap[f], t.G.fmap[f])
    amap = {}
    for al in C.two_src:
        f, g = C.two_src[al], C.two_tgt[al]
        amap[al] = ("p2", fmap[f], fmap[g], t.F.amap[al], t.G.amap[al])
    return TwoFunctor(C, P.total, omap, fmap, amap, name="tilde")


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
