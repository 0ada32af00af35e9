"""Shared generators and oracles for the test suite."""

import random

from tcalc.chain import (
    ChainComplex, ChainMap, DegreeWindow, direct_sum, hom_element_to_map,
    shift, sphere,
)
from tcalc.coalgebras import TruncatedCoalgebra, trivial_coalgebra
from tcalc.derivedhom import equivariant_hom_complex
from tcalc.equivariant import (
    EquivariantComplex, induced_from_trivial_subgroup, regular_module,
    sign_action, trivial_action,
)
from tcalc.perms import YoungGroup
from tcalc.sequences import SymmetricSequence
from tcalc.sparse import SparseMatrix, nullspace


def triv(F, n, deg=0, label="a"):
    return trivial_action(sphere(F, deg, label="%s%d" % (label, n)),
                          YoungGroup.full(n))


def staircase_sequence(F, N, top_deg=0, label="a"):
    """Terms A_r = k in degree (N - r) + top_deg: every theta target is
    populated."""
    terms = {}
    for r in range(1, N + 1):
        terms[r] = triv(F, r, deg=(N - r) + top_deg, label=label)
    return SymmetricSequence(F, N, terms)


def random_term(rng, F, n, degs=(0, 1), label="a"):
    """A small random equivariant term: trivial, sign, regular, or a sum."""
    kind = rng.choice(["trivial", "regular", "sum"])
    g = YoungGroup.full(n)
    if kind == "trivial":
        return trivial_action(sphere(F, rng.choice(degs),
                                     label="%s%d" % (label, n)), g)
    if kind == "regular":
        return regular_module(F, g, degree=rng.choice(degs))
    c = direct_sum([sphere(F, d, label="%s%d_%d" % (label, n, i))
                    for i, d in enumerate(rng.sample(list(degs),
                                                     min(2, len(degs))))])
    return trivial_action(c, g)


def equivariant_theta_space(c, r, n):
    """Basis of Sigma_r-equivariant chain maps A_r -> K_r A_n: the degree-0
    cycles of the invariants of Hom(A_r, K_r A_n), pushed into Hom."""
    a_r = c.sequence.term(r)
    value = c.komonad.component(r, n).value
    h, inv, incl = equivariant_hom_complex(a_r, value)
    return [hom_element_to_map(h, a_r.complex, value.complex,
                               incl.component(0).apply(z))
            for z in nullspace(inv.d(0))]


def random_theta(c, r, n, rng, allow_zero=False):
    maps = equivariant_theta_space(c, r, n)
    if not maps:
        return None
    F = c.field
    out = ChainMap.zero(c.sequence.term_complex(r),
                        c.komonad.component(r, n).value.complex)
    for m in maps:
        if rng.random() < 0.5:
            out = out + m
    if out.is_zero() and not allow_zero:
        out = maps[rng.randrange(len(maps))]
    return out


def random_valid_coalgebra(rng, F, source, N, w, staircase=True):
    """A random valid coalgebra: sp sources at N <= 3 have no compatibility
    conditions; top sources use N <= 2 (likewise condition-free) or trivial
    theta at N = 3."""
    if staircase:
        seq = staircase_sequence(F, N)
    else:
        terms = {n: random_term(rng, F, n) for n in range(1, N + 1)}
        seq = SymmetricSequence(F, N, terms)
    c0 = trivial_coalgebra(source, seq, w)
    theta = {}
    pairs = [(r, n) for n in range(2, N + 1) for r in range(1, n)]
    if source == "top" and N >= 3:
        pairs = []  # keep coherence for free: trivial structure
    for (r, n) in pairs:
        th = random_theta(c0, r, n, rng, allow_zero=True)
        if th is not None and not th.is_zero():
            theta[(r, n)] = th
    return TruncatedCoalgebra(source, seq, w, theta, komonad=c0.komonad)


# hand-coded resolution oracles ------------------------------------------------

def bs2_oracle(k):
    """H_k(B Sigma_2; F_2) from the 2-periodic resolution."""
    return 1 if k >= 0 else 0


def tate_s2_oracle(k):
    """Tate of the trivial module over F_2 Sigma_2: the 2-periodic complete
    resolution gives dimension 1 in every degree."""
    return 1


def s3_f3_oracle(k):
    """H_k(Sigma_3; F_3): the 4-periodic pattern 1,0,0,1 starting at 0."""
    return 1 if k >= 0 and k % 4 in (0, 3) else 0
