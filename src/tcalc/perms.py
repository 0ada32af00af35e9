"""Permutations and Young subgroups of symmetric groups.

A permutation of {0..n-1} is a tuple ``p`` with ``p[i]`` the image of ``i``.
A Young group with blocks (n_1, ..., n_r) is Sigma_{n_1} x ... x Sigma_{n_r}
embedded in Sigma_n along consecutive positions; its Coxeter generators are
the adjacent transpositions (i, i+1) lying inside a block.  Its elements
are enumerated by `itertools` in lexicographic order, on which the basis of
every regular module and resolution depends.  Surjections, set partitions
and permutation signs live in `combinat`.
"""

from __future__ import annotations

from itertools import chain, permutations, product
from math import factorial


def identity_perm(n):
    return tuple(range(n))


def compose(p, q):
    """(p o q)(i) = p(q(i))."""
    return tuple(p[q[i]] for i in range(len(p)))


def inverse(p):
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def transposition(n, i):
    """Adjacent transposition swapping positions i and i+1 (0-indexed)."""
    p = list(range(n))
    p[i], p[i + 1] = p[i + 1], p[i]
    return tuple(p)


class YoungGroup:
    """Sigma_{n_1} x ... x Sigma_{n_r} inside Sigma_n, n = sum of blocks."""

    def __init__(self, blocks: tuple):
        if not all(isinstance(b, int) and b >= 1 for b in blocks):
            raise ValueError("blocks must be positive integers")
        self.blocks = blocks

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.blocks == other.blocks

    def __hash__(self):
        return hash((self.blocks,))

    def __repr__(self):
        return "YoungGroup(blocks=%r)" % (self.blocks,)

    @classmethod
    def full(cls, n):
        return cls((n,))

    @classmethod
    def of(cls, *blocks):
        return cls(tuple(blocks))

    @property
    def degree(self) -> int:
        return sum(self.blocks)

    @property
    def order(self) -> int:
        out = 1
        for b in self.blocks:
            out *= factorial(b)
        return out

    def block_bounds(self):
        out = []
        start = 0
        for b in self.blocks:
            out.append((start, start + b))
            start += b
        return out

    def generator_positions(self):
        """Positions i such that (i, i+1) lies within one block."""
        out = []
        for lo, hi in self.block_bounds():
            out.extend(range(lo, hi - 1))
        return out

    def elements(self):
        """All elements in lexicographic order: the `itertools.product` of
        each block's `itertools.permutations`."""
        return [tuple(chain.from_iterable(ps)) for ps in product(
            *(permutations(range(lo, hi)) for lo, hi in self.block_bounds()))]

    def contains(self, p) -> bool:
        for lo, hi in self.block_bounds():
            for i in range(lo, hi):
                if not (lo <= p[i] < hi):
                    return False
        return True

    def reduced_word(self, p):
        """Express p as a product of adjacent transpositions within blocks.

        Returns a list of generator positions [i_1, ..., i_k] such that
        p = s_{i_1} o ... o s_{i_k}.
        """
        if not self.contains(p):
            raise ValueError("permutation not in Young group")
        word = []
        cur = list(p)
        # bubble-sort cur to identity, recording swaps; p = (swaps reversed)
        changed = True
        while changed:
            changed = False
            for lo, hi in self.block_bounds():
                for i in range(lo, hi - 1):
                    if cur[i] > cur[i + 1]:
                        cur[i], cur[i + 1] = cur[i + 1], cur[i]
                        word.append(i)
                        changed = True
        # each swap right-multiplies by s_i: id = p o s_{w_1} o ... o s_{w_k},
        # hence p = s_{w_k} o ... o s_{w_1}
        return list(reversed(word))

    def coxeter_relations(self):
        """[(word1, word2)] pairs of generator-position words that must agree."""
        rels = []
        gens = self.generator_positions()
        for i in gens:
            rels.append(([i, i], []))
        for a in gens:
            for b in gens:
                if b == a + 1 and b in gens and a in gens:
                    rels.append(([a, b, a], [b, a, b]))
                elif b > a + 1:
                    rels.append(([a, b], [b, a]))
        return rels

    def __str__(self):
        return "S(%s)" % ",".join(str(b) for b in self.blocks)
