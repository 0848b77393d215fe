"""The block-tuple indexing category and the inverse construction.

Objects of the indexing category are tuples of positive integers; a
morphism is a total function between the disjoint unions of the blocks such
that the preimage of each target block is empty or contained in a single
source block.  The monoidal product is concatenation, with the block-swap
braiding.

Applying a reduced diagram blockwise produces a product-valued diagram on
this category, and its Grothendieck construction is a permutative
2-category whose cells are pairs [phim, component tuple].  The construction
is infinite, so cells are evaluated lazily; all global axioms are verified
on (max-length, max-entry)-bounded fragments.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache, partial
from operator import attrgetter

from .monoidal import Domains, ProductSum, scan_product_sum
from .subsets import PointedMap
from .twocat import (CellCeilingExceeded, FieldEndpoints, InternedCell, ValidationReport,
                     _group, current_cell_ceiling)


@dataclass(frozen=True, eq=False, slots=True)
class AMorphism(InternedCell):
    """A block-respecting map between tuples.

    ``table[i][a-1] = (j, b)`` sends element a of source block i (0-based
    blocks, 1-based elements) to element b of target block j.
    """

    src: tuple
    tgt: tuple
    table: tuple

    @property
    def is_identity(self) -> bool:
        return self.src == self.tgt and self is a_identity(self.src)

    def block_condition_holds(self) -> bool:
        return _block_condition(self.table)


AMorphism._pool = {}


def _block_condition(table: tuple) -> bool:
    """Each target block is hit from at most one source block."""
    owner: dict[int, int] = {}
    for i, row in enumerate(table):
        for (j, _b) in row:
            if owner.setdefault(j, i) != i:
                return False
    return True


def mk_amorphism(src: tuple, tgt: tuple, table: tuple) -> AMorphism:
    return AMorphism._make(src, tgt, table)


@lru_cache(maxsize=None)
def a_identity(mvec: tuple) -> AMorphism:
    table = tuple(
        tuple((i, a) for a in range(1, m + 1)) for i, m in enumerate(mvec)
    )
    return mk_amorphism(mvec, mvec, table)


@lru_cache(maxsize=None)
def a_hom(mvec: tuple, nvec: tuple) -> tuple[AMorphism, ...]:
    """All block-respecting maps, in lexicographic order on image tuples."""
    positions = [(j, b) for j, n in enumerate(nvec) for b in range(1, n + 1)]
    slots = sum(mvec)
    if slots == 0:
        return (mk_amorphism(mvec, nvec, ()),) if len(mvec) == 0 else (
            mk_amorphism(mvec, nvec, tuple(() for _ in mvec)),
        )
    if not positions:
        return ()
    out = []
    for imgs in itertools.product(positions, repeat=slots):
        table = []
        k = 0
        for m in mvec:
            table.append(tuple(imgs[k:k + m]))
            k += m
        if _block_condition(table):
            out.append(mk_amorphism(mvec, nvec, tuple(table)))
    return tuple(out)


def a_compose(psi: AMorphism, phi: AMorphism) -> AMorphism:
    """The composite 'phi then psi'; the block condition is re-verified."""
    if phi.tgt != psi.src:
        raise ValueError("block maps not composable")
    table = tuple(
        tuple(psi.table[j][b - 1] for (j, b) in row) for row in phi.table
    )
    if not _block_condition(table):
        raise ValueError("composite violates the block condition")
    return mk_amorphism(phi.src, psi.tgt, table)


def a_concat(phi: AMorphism, psi: AMorphism) -> AMorphism:
    """Concatenation of block maps (the monoidal product)."""
    off = len(phi.tgt)
    table = phi.table + tuple(
        tuple((j + off, b) for (j, b) in row) for row in psi.table
    )
    return mk_amorphism(phi.src + psi.src, phi.tgt + psi.tgt, table)


def a_block_swap(mvec: tuple, nvec: tuple) -> AMorphism:
    """The braiding component: swap the two groups of blocks."""
    ln = len(nvec)
    table = tuple(
        tuple((ln + i, a) for a in range(1, m + 1)) for i, m in enumerate(mvec)
    ) + tuple(
        tuple((k, b) for b in range(1, n + 1)) for k, n in enumerate(nvec)
    )
    return mk_amorphism(mvec + nvec, nvec + mvec, table)


# -- decomposition ---------------------------------------------------------------


@dataclass(frozen=True)
class AMorphismDecomposition:
    """A block map read block by block, computed once per map by ``decompose``.

    Per source block the hit target blocks, the parts (the elements sent to
    each hit block) and the blockwise pointed maps, all aligned.  Per target
    block its source: the covering source block with its pointed map, or, for
    a unit block, ``None`` with the map from the empty set.  Block
    application, blockwise lax maps and the counit read only this."""

    phim: AMorphism
    hit_sets: tuple          # hit_sets[i] = ordered tuple of target blocks j
    parts: tuple             # parts[i][k] = elements of block i sent to hit_sets[i][k]
    pointed: tuple           # pointed[i][k] = PointedMap of block i onto hit_sets[i][k]
    sources: tuple           # sources[j] = (covering source block or None, PointedMap)


@lru_cache(maxsize=None)
def decompose(phim: AMorphism) -> AMorphismDecomposition:
    hit_sets, parts, pointed = [], [], []
    sources = [(None, PointedMap(0, n, ())) for n in phim.tgt]
    for i, (m, row) in enumerate(zip(phim.src, phim.table)):
        hits = tuple(sorted({j for (j, _b) in row}))
        maps = tuple(
            PointedMap(m, phim.tgt[j], tuple(b if jj == j else 0 for (jj, b) in row))
            for j in hits
        )
        for j, pm in zip(hits, maps):
            sources[j] = (i, pm)
        hit_sets.append(hits)
        parts.append(tuple(
            tuple(a for a, (jj, _b) in enumerate(row, 1) if jj == j) for j in hits
        ))
        pointed.append(maps)
    return AMorphismDecomposition(phim, tuple(hit_sets), tuple(parts), tuple(pointed),
                                  tuple(sources))


def reassemble(dec: AMorphismDecomposition) -> AMorphism:
    table = []
    for i, m in enumerate(dec.phim.src):
        row = []
        for a in range(1, m + 1):
            target = None
            for j, pm in zip(dec.hit_sets[i], dec.pointed[i]):
                b = pm(a)
                if b != 0:
                    target = (j, b)
                    break
            if target is None:
                raise ValueError("decomposition does not cover the source")
            row.append(target)
        table.append(tuple(row))
    return mk_amorphism(dec.phim.src, dec.phim.tgt, tuple(table))


# -- blockwise application of a reduced diagram -------------------------------------


def push_plan(X, phim: AMorphism, dim: int) -> tuple:
    """Block application of ``phim`` to cells of dimension ``dim``, read once
    from its decomposition.  Per target block ``(level, i, cell_map, point)``:
    the target level, the transition's cell map, and the covering source
    block ``i`` or, for a unit block, ``None`` with the point of the terminal
    level.  The cell pushed into block j is ``cell_map(point if i is None
    else cells[i])``."""
    out = []
    for n, (i, pm) in zip(phim.tgt, decompose(phim).sources):
        cell_map = X.star(pm)[dim]
        out.append((X.level(n), i, cell_map, X.point(dim) if i is None else None))
    return tuple(out)


def apply_plan(plan: tuple, cells: tuple) -> tuple:
    """Apply a ``push_plan`` to a tuple of level cells."""
    # a plain loop: on Python 3.11 a comprehension costs a frame per call
    out = []
    for _, i, cell_map, point in plan:
        out.append(cell_map(point if i is None else cells[i]))
    return tuple(out)


def ax_apply(X, phim: AMorphism, dim: int, cells: tuple) -> tuple:
    """Apply a block map to a tuple of level cells: blockwise transition maps
    followed by factor permutation and unit insertion."""
    return apply_plan(push_plan(X, phim, dim), cells)


# -- Grothendieck cells -------------------------------------------------------------


@dataclass(frozen=True, eq=False, slots=True)
class GrothObj(InternedCell):
    mvec: tuple
    xs: tuple


GrothObj._pool = {}


@dataclass(frozen=True, eq=False, slots=True)
class GrothOne(InternedCell):
    phim: AMorphism
    src: GrothObj
    tgt: GrothObj
    fs: tuple


GrothOne._pool = {}


@dataclass(frozen=True, eq=False, slots=True)
class GrothTwo(InternedCell):
    src: GrothOne
    tgt: GrothOne
    alphas: tuple


GrothTwo._pool = {}


def mk_groth_obj(mvec, xs) -> GrothObj:
    return GrothObj._make(tuple(mvec), tuple(xs))


def mk_groth_one(phim, src, tgt, fs) -> GrothOne:
    return GrothOne._make(phim, src, tgt, tuple(fs))


def mk_groth_two(src, tgt, alphas) -> GrothTwo:
    return GrothTwo._make(src, tgt, tuple(alphas))


class GrothPerm(ProductSum, FieldEndpoints):
    """The permutative 2-category assembled from a reduced diagram: cells are
    pairs of a block map and a component tuple, evaluated lazily.

    The sum is tuple concatenation (a genuine product 2-functor, so all
    interchangers are identities) and the braiding is [block swap, id].
    """

    def __init__(self, X):
        self.X = X
        self.name = f"P({X.name})"
        self._unit = mk_groth_obj((), ())
        # Every cache lives on this instance and is freed with it.
        # - id1, id2, comp1, sum_one, sum_two: composites recur heavily in
        #   the bounded axiom scans; keyed by the interned argument cells.
        # - beta_obj: the braiding 1-cell of an object pair, keyed by the
        #   interned pair; the scans ask for a few hundred pairs many times.
        # - a_compose: the composite of a block-map pair (psi, phi), keyed by
        #   the pair; a pair that breaks the block condition raises on every
        #   call and is never stored.
        # - push_plan: block application of one block map in one dimension,
        #   keyed by (block map, dim).
        for op in ("id1", "id2", "comp1", "sum_one", "sum_two", "beta_obj"):
            setattr(self, op, cache(getattr(self, op)))
        self.a_compose = cache(a_compose)
        self.push_plan = cache(partial(push_plan, X))

    # -- plain 2-category operations

    def _lvl(self, m: int):
        return self.X.level(m)

    def id1(self, o: GrothObj) -> GrothOne:
        fs = tuple(self._lvl(m).id1(x) for m, x in zip(o.mvec, o.xs))
        return mk_groth_one(a_identity(o.mvec), o, o, fs)

    def id2(self, u: GrothOne) -> GrothTwo:
        alphas = tuple(
            self._lvl(m).id2(f) for m, f in zip(u.tgt.mvec, u.fs)
        )
        return mk_groth_two(u, u, alphas)

    def comp1(self, v: GrothOne, u: GrothOne) -> GrothOne:
        if u.tgt != v.src:
            raise ValueError("cells not composable")
        phim = self.a_compose(v.phim, u.phim)
        # the push plan applied inside the loop of level composites, here
        # and in hcomp2: the bounded scans compose over 100,000 times each
        ufs = u.fs
        fs = []
        for (level, i, cell_map, point), g in zip(self.push_plan(v.phim, 1), v.fs):
            fs.append(level.comp1(g, cell_map(point if i is None else ufs[i])))
        return mk_groth_one(phim, u.src, v.tgt, fs)

    def vcomp(self, b: GrothTwo, a: GrothTwo) -> GrothTwo:
        if a.tgt != b.src:
            raise ValueError("cells not composable")
        alphas = tuple(
            self._lvl(m).vcomp(x, y)
            for m, x, y in zip(a.src.tgt.mvec, b.alphas, a.alphas)
        )
        return mk_groth_two(a.src, b.tgt, alphas)

    def hcomp2(self, b: GrothTwo, a: GrothTwo) -> GrothTwo:
        # a shape mismatch would misindex the push plan; mismatched
        # components raise in the level composites below
        if a.src.tgt.mvec != b.src.src.mvec:
            raise ValueError("cells not composable")
        aas = a.alphas
        alphas = []
        for (level, i, cell_map, point), x in zip(self.push_plan(b.src.phim, 2), b.alphas):
            alphas.append(level.hcomp2(x, cell_map(point if i is None else aas[i])))
        return mk_groth_two(
            self.comp1(b.src, a.src), self.comp1(b.tgt, a.tgt), alphas
        )

    def is_id1(self, u: GrothOne) -> bool:
        return u.phim.is_identity and u.src == u.tgt and all(
            self._lvl(m).is_id1(f) for m, f in zip(u.tgt.mvec, u.fs)
        )

    def is_id2(self, a: GrothTwo) -> bool:
        return a.src == a.tgt and all(
            self._lvl(m).is_id2(x) for m, x in zip(a.src.tgt.mvec, a.alphas)
        )

    # -- permutative structure

    def unit_obj(self) -> GrothObj:
        return self._unit

    def sum_obj(self, a: GrothObj, b: GrothObj) -> GrothObj:
        return mk_groth_obj(a.mvec + b.mvec, a.xs + b.xs)

    def sum_one(self, u: GrothOne, v: GrothOne) -> GrothOne:
        return mk_groth_one(
            a_concat(u.phim, v.phim),
            self.sum_obj(u.src, v.src),
            self.sum_obj(u.tgt, v.tgt),
            u.fs + v.fs,
        )

    def sum_two(self, a: GrothTwo, b: GrothTwo) -> GrothTwo:
        return mk_groth_two(
            self.sum_one(a.src, b.src),
            self.sum_one(a.tgt, b.tgt),
            a.alphas + b.alphas,
        )

    def beta_obj(self, a: GrothObj, b: GrothObj) -> GrothOne:
        swapped = mk_groth_obj(b.mvec + a.mvec, b.xs + a.xs)
        fs = tuple(
            self._lvl(m).id1(x) for m, x in zip(swapped.mvec, swapped.xs)
        )
        return mk_groth_one(
            a_block_swap(a.mvec, b.mvec), self.sum_obj(a, b), swapped, fs
        )

    def has_obj(self, o) -> bool:
        if not isinstance(o, GrothObj) or len(o.mvec) != len(o.xs):
            return False
        return all(1 <= m <= self.X.cap for m in o.mvec)

    def __repr__(self):
        return f"<GrothPerm {self.name}>"


# -- bounded fragments ----------------------------------------------------------------


@lru_cache(maxsize=None)
def bounded_shapes(L: int, E: int) -> tuple[tuple, ...]:
    """All tuples of length <= L with entries 1..E, the empty tuple first."""
    out: list[tuple] = [()]
    for ln in range(1, L + 1):
        out.extend(itertools.product(range(1, E + 1), repeat=ln))
    return tuple(out)


class BoundedGroth(GrothPerm):
    """The (max-length, max-entry)-bounded fragment with cell enumeration.

    Not closed under the sum.  The bounded scan stays inside by its length
    buckets: it sums only cells whose summed lengths fit ``L`` (see
    ``domains``), and every entry is at most ``E`` already; ``has_obj``
    decides membership of one object.  Requires a tabulated diagram so that
    component cells can be enumerated.  The cell ceiling in force at
    construction bounds the cells that ``cells`` lists.
    """

    def __init__(self, X, L: int, E: int):
        super().__init__(X)
        if E > X.cap:
            raise ValueError("entry bound exceeds the diagram cap")
        self.L = L
        self.E = E
        self.ceiling = current_cell_ceiling()

    def has_obj(self, o) -> bool:
        return (
            super().has_obj(o)
            and len(o.mvec) <= self.L
            and all(m <= self.E for m in o.mvec)
        )

    @cached_property
    def cells(self) -> tuple[dict, dict, dict]:
        """The fragment's objects, 1-cells and 2-cells, each listed once and
        bucketed by the lengths of its (source, target) shapes.  Raises
        ``CellCeilingExceeded`` as soon as the cells listed pass the ceiling."""
        listed = itertools.count(1)

        def counted(cells):
            for cell in cells:
                if (total := next(listed)) > self.ceiling:
                    raise CellCeilingExceeded("bounded fragment", total, self.ceiling)
                yield cell

        objects = list(counted(self.objects_iter()))
        ones = list(counted(u for o1 in objects for o2 in objects
                            for u in self.one_cells_between(o1, o2)))
        parallel = _group(ones, attrgetter("src", "tgt", "phim"))
        twos = list(counted(a for group in parallel.values() for u in group for v in group
                            for a in self.two_cells_between(u, v)))
        return (_group(objects, lambda o: (len(o.mvec),) * 2), _group(ones, _lengths),
                _group(twos, _lengths2))

    def domains(self) -> Domains:
        """The cells and the composable ``comp1`` and ``vcomp`` pairs, a pair
        bucketed by its composite's lengths; no ``hcomp2`` pairs (see
        ``validate_p_truncation``)."""
        objects, ones, twos = self.cells
        return Domains(objects, ones, twos, _composable(ones, _lengths),
                       _composable(twos, _lengths2), None, self.L)

    def objects_iter(self):
        for shape in bounded_shapes(self.L, self.E):
            pools = [self.X.level(m).objects for m in shape]
            for xs in itertools.product(*pools):
                yield mk_groth_obj(shape, xs)

    def one_cells_between(self, o1: GrothObj, o2: GrothObj) -> list[GrothOne]:
        out = []
        for phim in a_hom(o1.mvec, o2.mvec):
            pushed = apply_plan(self.push_plan(phim, 0), o1.xs)
            pools = [
                self.X.level(m).one_cells_between(p, y)
                for m, p, y in zip(o2.mvec, pushed, o2.xs)
            ]
            for fs in itertools.product(*pools):
                out.append(mk_groth_one(phim, o1, o2, fs))
        return out

    def two_cells_between(self, u: GrothOne, v: GrothOne) -> list[GrothTwo]:
        if u.phim != v.phim or u.src != v.src or u.tgt != v.tgt:
            return []
        pools = [
            self.X.level(m).two_cells_between(f, g)
            for m, f, g in zip(u.tgt.mvec, u.fs, v.fs)
        ]
        return [mk_groth_two(u, v, alphas) for alphas in itertools.product(*pools)]


def _lengths(u: GrothOne) -> tuple[int, int]:
    return len(u.src.mvec), len(u.tgt.mvec)


def _lengths2(a: GrothTwo) -> tuple[int, int]:
    return _lengths(a.src)


def _composable(buckets: dict, lengths) -> dict:
    """The pairs ``(v, u)`` with ``u.tgt == v.src``, bucketed by the source
    length of u and the target length of v."""
    cells = [c for bucket in buckets.values() for c in bucket]
    by_src = _group(cells, attrgetter("src"))
    return _group(((v, u) for u in cells for v in by_src.get(u.tgt, ())),
                  lambda p: (lengths(p[1])[0], lengths(p[0])[1]))


# -- extension to lax maps ---------------------------------------------------------


class BlockwiseLax:
    """A lax map applied blockwise: component 2-functors are products of the
    level maps; the structure cell at a block map is assembled from the
    blockwise pointed maps, with the unit-insertion components taken at the
    unique point."""

    def __init__(self, h):
        self.h = h  # a lax map of reduced diagrams

    def apply(self, mvec: tuple, dim: int, cells: tuple) -> tuple:
        cell_maps = self.h.cell_maps
        return tuple(cell_maps(m)[dim](c) for m, c in zip(mvec, cells))

    def lax(self, phim: AMorphism, xs: tuple) -> tuple:
        h = self.h
        out = []
        for i, pm in decompose(phim).sources:
            out.append(h.lax(pm, h.source.point(0) if i is None else xs[i]))
        return tuple(out)


class POfLax:
    """The strict symmetric monoidal 2-functor between the Grothendieck
    constructions induced by a lax map of diagrams."""

    def __init__(self, h, PX: GrothPerm, PY: GrothPerm):
        self.ah = BlockwiseLax(h)
        self.PX = PX
        self.PY = PY
        # images of objects and 1-cells, keyed by the interned cell: every
        # 2-cell and 1-cell image maps its endpoints again.  Top-level
        # 2-cells do not recur, so their images are not kept; their
        # components do, and the whiskered components are kept keyed by
        # (level, component 2-cell, structure 1-cell).
        for op in ("_on_obj", "_on_one", "_whisker"):
            setattr(self, op, cache(getattr(self, op)))

    def on(self, dim: int, cell):
        if dim == 0:
            return self._on_obj(cell)
        if dim == 1:
            return self._on_one(cell)
        lax = self.ah.lax(cell.src.phim, cell.src.src.xs)
        alphas = tuple(map(self._whisker, cell.src.tgt.mvec, cell.alphas, lax))
        return mk_groth_two(self._on_one(cell.src), self._on_one(cell.tgt), alphas)

    def _whisker(self, m: int, al, l):
        """A component of a 2-cell image: the level map's image of ``al``
        whiskered by the structure 1-cell ``l``."""
        Ym = self.PY.X.level(m)
        return Ym.hcomp2(self.ah.h.cell_maps(m)[2](al), Ym.id2(l))

    def _on_obj(self, cell: GrothObj) -> GrothObj:
        return mk_groth_obj(cell.mvec, self.ah.apply(cell.mvec, 0, cell.xs))

    def _on_one(self, cell: GrothOne) -> GrothOne:
        Y = self.PY.X
        h = self.ah.h
        lax = self.ah.lax(cell.phim, cell.src.xs)
        fs = tuple(
            Y.level(m).comp1(h.cell_maps(m)[1](f), l)
            for m, f, l in zip(cell.tgt.mvec, cell.fs, lax)
        )
        return mk_groth_one(cell.phim, self._on_obj(cell.src), self._on_obj(cell.tgt), fs)


# -- bounded validation --------------------------------------------------------------


def validate_p_truncation(X, L: int, E: int) -> ValidationReport:
    """Scan the permutative-2-category laws of ``monoidal.scan_product_sum``
    on the (L, E)-bounded fragment of the Grothendieck construction, each
    instance whose cells' summed lengths fit L.

    Two laws are left out, both for cost, and the report subject names them.
    The sum's preservation of ``hcomp2`` would add 143,021 instances at
    (2, 2) over Ko(F2), drawn from the fragment's 63,319 ``hcomp2`` pairs,
    and take listing and scan from about 0.5 s to 1.4 s (2-vCPU VM,
    CPython 3.11), so the fragment supplies no ``hcomp2`` pairs.  The
    fragment's own 2-category laws would be about 2.6 million ``comp1``
    associativity triples there.  An empty scan is reported explicitly.
    """
    rep = ValidationReport(f"bounded inverse construction (L={L}, E={E}; not scanned: "
                           "hcomp2 preservation, the fragment's 2-category laws)")
    B = BoundedGroth(X, L, E)
    scan_product_sum(rep, B, B.domains())
    if rep.checked == 0:
        rep.add("empty-scan", "bounds admit no axiom instances")
    return rep
