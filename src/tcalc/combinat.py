"""Surjections, set partitions and permutation signs: the combinatorics of
the comonads' surjection index, the partition trees and the partition
poset.

A surjection n ->> r is a tuple ``alpha`` with ``alpha[i]`` the image of
``i``; a set partition is a tuple of sorted blocks ordered by their least
element (`normalize_partition`).  Both are enumerated in lexicographic
order, surjections by `itertools.product`, and every basis indexed by them
depends on that order.  These live apart from `perms`, which holds
the Young groups every equivariant job reads, so that `tate` does not
compile them.
"""

from __future__ import annotations

from itertools import product


def perm_sign(p) -> int:
    sign = 1
    seen = [False] * len(p)
    for i in range(len(p)):
        if seen[i]:
            continue
        j = i
        cnt = 0
        while not seen[j]:
            seen[j] = True
            j = p[j]
            cnt += 1
        if cnt % 2 == 0:
            sign = -sign
    return sign


def koszul_sign(perm, degrees) -> int:
    """The Koszul sign of reordering graded factors, factor i (of degree
    degrees[i]) moving to position perm[i]: -1 to the number of pairs of
    odd-degree factors whose order the move reverses."""
    odd = [i for i, d in enumerate(degrees) if d % 2]
    sign = 1
    for a, i in enumerate(odd):
        for j in odd[a + 1:]:
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def all_surjections(n, r):
    """All surjections {0..n-1} ->> {0..r-1} as tuples, in lexicographic
    order."""
    return [a for a in product(range(r), repeat=n) if len(set(a)) == r]


def surjection_fibers(alpha, r):
    """Fiber tuple: fibers[j] = sorted tuple of preimages of j."""
    fibers = [[] for _ in range(r)]
    for i, v in enumerate(alpha):
        fibers[v].append(i)
    return tuple(tuple(f) for f in fibers)


def set_partitions(items):
    """All set partitions of `items`, blocks sorted by min, in
    lexicographic order."""
    items = list(items)
    if not items:
        return [()]
    first, rest = items[0], items[1:]
    out = []
    for part in set_partitions(rest):
        # add `first` to each existing block, or as a new block
        for i in range(len(part)):
            blocks = [list(b) for b in part]
            blocks[i].append(first)
            out.append(normalize_partition(blocks))
        out.append(normalize_partition([list(b) for b in part] + [[first]]))
    out.sort()
    return out


def normalize_partition(blocks):
    bs = [tuple(sorted(b)) for b in blocks if b]
    bs.sort(key=lambda b: b[0])
    return tuple(bs)


def apply_perm_to_partition(p, part):
    return normalize_partition([[p[i] for i in block] for block in part])


def refines(fine, coarse) -> bool:
    """True if every block of `fine` is contained in a block of `coarse`."""
    lookup = {}
    for bi, block in enumerate(coarse):
        for x in block:
            lookup[x] = bi
    for block in fine:
        if len({lookup[x] for x in block}) != 1:
            return False
    return True
