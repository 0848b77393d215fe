"""Canonical subset bookkeeping and pointed maps between finite sets.

Subsets of {1..n} are represented as sorted tuples of ints.  The canonical
order on subsets is by (size, lexicographic); every enumeration in the
package iterates subsets in this order so that reports and generated
structures are reproducible.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

Subset = tuple[int, ...]

def subset_key(s: Subset) -> tuple[int, Subset]:
    return (len(s), s)


@lru_cache(maxsize=None)
def subsets_of(n: int) -> tuple[Subset, ...]:
    """All subsets of {1..n}, smallest first, lexicographic within a size."""
    out = []
    for k in range(n + 1):
        out.extend(itertools.combinations(range(1, n + 1), k))
    return tuple(out)


@lru_cache(maxsize=None)
def nonempty_subsets_of(n: int) -> tuple[Subset, ...]:
    return subsets_of(n)[1:]


def union(s: Subset, t: Subset) -> Subset:
    return tuple(sorted(set(s) | set(t)))


def disjoint(s: Subset, t: Subset) -> bool:
    return not set(s) & set(t)


@lru_cache(maxsize=None)
def disjoint_pairs(n: int) -> tuple[tuple[Subset, Subset], ...]:
    """Ordered disjoint pairs (s, t) of nonempty subsets of {1..n}."""
    pool = nonempty_subsets_of(n)
    return tuple((s, t) for s in pool for t in pool if disjoint(s, t))


@lru_cache(maxsize=None)
def disjoint_triples(n: int) -> tuple[tuple[Subset, Subset, Subset], ...]:
    """Ordered pairwise-disjoint triples of nonempty subsets of {1..n}."""
    pool = nonempty_subsets_of(n)
    out = []
    for s in pool:
        for t in pool:
            if not disjoint(s, t):
                continue
            for u in pool:
                if disjoint(s, u) and disjoint(t, u):
                    out.append((s, t, u))
    return tuple(out)


@dataclass(frozen=True, eq=False, slots=True, init=False)
class PointedMap:
    """A basepoint-preserving map m+ -> n+, stored by its images on 1..m.

    ``imgs[i-1]`` is the image of i; 0 denotes the basepoint.  Pointed maps
    are interned as the cells are: every construction returns the one pooled
    object for its ``(m, n, imgs)``, so equality and hashing are ``object``'s
    identity versions and the transition tables and reindexing caches they
    key are probed without calling back into Python.  The range and length
    checks run on a pool miss only, so an invalid map is never pooled.
    """

    m: int
    n: int
    imgs: tuple[int, ...]

    def __new__(cls, m: int, n: int, imgs: tuple[int, ...]) -> "PointedMap":
        key = (m, n, imgs)
        phi = cls._pool.get(key)
        if phi is None:
            if len(imgs) != m:
                raise ValueError(f"expected {m} images, got {len(imgs)}")
            for v in imgs:
                if not 0 <= v <= n:
                    raise ValueError(f"image {v} outside 0..{n}")
            phi = object.__new__(cls)
            for name, value in zip(("m", "n", "imgs"), key):
                object.__setattr__(phi, name, value)
            # the first object stored wins, so two threads share one map
            phi = cls._pool.setdefault(key, phi)
        return phi

    def __reduce__(self):
        return PointedMap, (self.m, self.n, self.imgs)

    def __call__(self, i: int) -> int:
        if i == 0:
            return 0
        return self.imgs[i - 1]

    @property
    def is_identity(self) -> bool:
        return self.m == self.n and self.imgs == tuple(range(1, self.m + 1))

    def preimage(self, s: Subset) -> Subset:
        """Preimage of a subset of {1..n}; never contains the basepoint."""
        sl = set(s)
        return tuple(i for i in range(1, self.m + 1) if self.imgs[i - 1] in sl)

    def then(self, psi: "PointedMap") -> "PointedMap":
        """The composite 'self followed by psi'."""
        if psi.m != self.n:
            raise ValueError("pointed maps not composable")
        imgs = (0,) + psi.imgs
        return PointedMap(self.m, psi.n, tuple(map(imgs.__getitem__, self.imgs)))


PointedMap._pool = {}


def pointed_identity(m: int) -> PointedMap:
    return PointedMap(m, m, tuple(range(1, m + 1)))


@lru_cache(maxsize=None)
def all_pointed_maps(m: int, n: int) -> tuple[PointedMap, ...]:
    """Every pointed map m+ -> n+, ordered lexicographically by image tuple."""
    return tuple(
        PointedMap(m, n, imgs)
        for imgs in itertools.product(range(0, n + 1), repeat=m)
    )


@lru_cache(maxsize=None)
def maps_up_to(cap: int) -> tuple[PointedMap, ...]:
    """Every pointed map m+ -> n+ with m, n <= cap, by source, then target."""
    return tuple(phi for m in range(cap + 1) for n in range(cap + 1)
                 for phi in all_pointed_maps(m, n))


@lru_cache(maxsize=None)
def composable_maps(cap: int) -> tuple[tuple[PointedMap, PointedMap], ...]:
    """Every pair (phi: m+ -> n+, psi: n+ -> p+) with m, n, p <= cap, by m,
    then n, then p, then phi, then psi."""
    r = range(cap + 1)
    return tuple((phi, psi) for m in r for n in r for p in r
                 for phi in all_pointed_maps(m, n) for psi in all_pointed_maps(n, p))


@lru_cache(maxsize=None)
def generating_maps(cap: int) -> tuple[PointedMap, ...]:
    """Pointed maps of which every map m+ -> p+ with m, p <= cap is a
    composite through sizes <= cap: per size n <= cap, the inclusion
    (n-1)+ -> n+, the deletion n+ -> (n-1)+ of n, the fold n+ -> (n-1)+ of n
    onto n-1 (the deletion again at n = 1) and the adjacent transpositions
    of n+.  A map factors as a permutation moving the points sent to the
    basepoint last, their deletions, a permutation and folds onto the image,
    inclusions up to the target and a permutation of the target."""
    out = []
    for n in range(1, cap + 1):
        ids = tuple(range(1, n))
        out += [PointedMap(n - 1, n, ids), PointedMap(n, n - 1, ids + (0,))]
        if n > 1:
            out.append(PointedMap(n, n - 1, ids + (n - 1,)))
        for i in range(1, n):
            imgs = list(range(1, n + 1))
            imgs[i - 1], imgs[i] = i + 1, i
            out.append(PointedMap(n, n, tuple(imgs)))
    return tuple(out)


def segal_injection(k: int, n: int) -> PointedMap:
    """The map n+ -> 1+ sending only k to the non-basepoint element."""
    return PointedMap(n, 1, tuple(1 if i == k else 0 for i in range(1, n + 1)))


def fold_map(n: int) -> PointedMap:
    """The map n+ -> 1+ sending every non-basepoint element to 1."""
    return PointedMap(n, 1, (1,) * n)
