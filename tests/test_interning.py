"""Composite cells are interned: equal values are one object.

Equality and hashing of ``InternedCell`` subclasses are ``object``'s identity
versions, which is sound only while ``_make`` is the one way to build a cell.
"""

import ast
import itertools
import sys
import threading
from pathlib import Path

import gamma2cat
from gamma2cat.inversek import (
    BoundedGroth,
    a_block_swap,
    a_compose,
    a_hom,
    a_identity,
    mk_amorphism,
    mk_groth_obj,
)
from gamma2cat.ktheory import ko_level
from gamma2cat.monoidal import fixture, promote
from gamma2cat.subsets import PointedMap

CELL_CLASSES = {"SubsetSystem", "SystemMap", "SystemTwoCell",
                "AMorphism", "GrothObj", "GrothOne", "GrothTwo"}


def _cell_classes(trees) -> set[str]:
    """Names of the classes deriving, directly or not, from InternedCell."""
    names = {"InternedCell"}
    grew = True
    while grew:
        grew = False
        for tree in trees:
            for node in ast.walk(tree):
                if isinstance(node, ast.ClassDef) and node.name not in names and any(
                    getattr(b, "id", getattr(b, "attr", None)) in names for b in node.bases
                ):
                    names.add(node.name)
                    grew = True
    return names - {"InternedCell"}


def _direct_calls(tree, names: set[str]) -> list[int]:
    """Line numbers of calls of a cell class outside a ``_make`` method."""
    out = []

    def visit(node, in_make):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            in_make = in_make or node.name == "_make"
        if isinstance(node, ast.Call) and not in_make:
            f = node.func
            if getattr(f, "id", None) in names or getattr(f, "attr", None) in names:
                out.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, in_make)

    visit(tree, False)
    return out


def test_cells_are_built_only_by_make():
    package = Path(gamma2cat.__file__).parent
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(package.glob("*.py"))}
    names = _cell_classes(trees.values())
    assert names == CELL_CLASSES
    found = {name: _direct_calls(tree, names) for name, tree in trees.items()}
    assert {name: lines for name, lines in found.items() if lines} == {}
    # the scan itself sees a direct call, and allows one inside _make
    assert _direct_calls(ast.parse("x = inversek.AMorphism((), (), ())"), names) == [1]
    assert _direct_calls(ast.parse("def _make(cls):\n    return GrothObj((), ())"), names) == []


def test_equal_values_reached_by_different_paths_are_one_object(f2_gamma2):
    x = f2_gamma2.level(1).objects[0]
    assert mk_groth_obj([1], [x]) is mk_groth_obj((1,), (x,))
    for phim in a_hom((2, 1), (1, 2)):
        assert a_compose(phim, a_identity((2, 1))) is phim
        assert a_compose(a_identity((1, 2)), phim) is phim
        assert mk_amorphism((2, 1), (1, 2), tuple(tuple(row) for row in phim.table)) is phim
    twice = a_compose(a_block_swap((2,), (1,)), a_block_swap((1,), (2,)))
    assert twice is a_identity((1, 2))
    assert twice is mk_amorphism((1, 2), (1, 2), (((0, 1),), ((1, 1), (1, 2))))
    C = promote(fixture("F2"))
    first, again = ko_level(C, 2), ko_level(C, 2)
    assert first is not again
    for cells, cells_again in ((first.objects, again.objects),
                               (list(first.one_src), list(again.one_src)),
                               (list(first.two_src), list(again.two_src))):
        assert len(cells) == len(cells_again) > 0
        assert all(a is b for a, b in zip(cells, cells_again))


def test_cells_are_slotted_and_compare_by_identity(f2_gamma2):
    L = f2_gamma2.level(1)
    B = BoundedGroth(f2_gamma2, 1, 1)
    o = next(iter(B.objects_iter()))
    cells = [L.objects[0], next(iter(L.one_src)), next(iter(L.two_src)),
             a_identity((1,)), o, B.id1(o), B.id2(B.id1(o))]
    assert {type(c).__name__ for c in cells} == CELL_CLASSES
    for c in cells:
        assert not hasattr(c, "__dict__")
        assert type(c).__eq__ is object.__eq__
        assert type(c).__hash__ is object.__hash__


def test_threads_building_one_value_share_one_object():
    # more threads than cores, switching as often as the interpreter allows,
    # each building the same values that no pool holds yet: a lost pool
    # update would hand some thread an object that is not the pooled one
    imgs = list(itertools.islice(itertools.product(range(1, 10), repeat=9), 1500))
    builders = (lambda v: PointedMap(9, 9, v),
                lambda v: mk_amorphism((9,), (9,), (tuple((0, b + 1) for b in v),)))
    results: list[list] = [[] for _ in range(4)]
    start = threading.Barrier(len(results))

    def build(out):
        start.wait(timeout=30)
        out.extend(make(v) for v in imgs for make in builders)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(out,)) for out in results]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(len(out) == 2 * len(imgs) for out in results)
    for objs in zip(*results):
        assert all(o is objs[0] for o in objs)
    assert all(PointedMap(9, 9, v) is PointedMap._pool[9, 9, v] for v in imgs)
