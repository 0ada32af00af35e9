"""Operad and cooperad layer: trees, bar construction, nerve oracle, plethysm."""

import hashlib
import random
import tracemalloc
from itertools import permutations, product
from math import factorial

import pytest

from helpers import unit_sequence
from tcalc import trees
from tcalc.chain import DegreeWindow, sphere
from tcalc.combinat import refines, set_partitions
from tcalc.equivariant import trivial_action
from tcalc.fields import F2, F3, QQ
from tcalc.laws import (
    BarConstruction, Operad, RightModule, _is_strict, _weak_chains,
    bar_construction, check_coassociativity, commutative_operad, decomposition,
    plethysm, spectral_lie, validate_right_module,
)
from tcalc.operads import (
    _refinements, _strict_chains, bar_complex, partition_poset_nerve,
)
from tcalc.perms import YoungGroup
from tcalc.sequences import SymmetricSequence
from tcalc.topcomonad import TopComonad


# ---------------------------------------------------------------------------
# tree model
# ---------------------------------------------------------------------------


def test_tree_complex_dims():
    t2 = trees.term(QQ, 2).complex
    assert {k: t2.dim(k) for k in t2.support()} == {1: 1}
    t3 = trees.term(QQ, 3).complex
    assert {k: t3.dim(k) for k in t3.support()} == {1: 1, 2: 3}
    t4 = trees.term(QQ, 4).complex
    assert {k: t4.dim(k) for k in t4.support()} == {1: 1, 2: 10, 3: 15}


@pytest.mark.parametrize("n,F", [(2, QQ), (3, QQ), (4, QQ), (3, F2), (4, F2)])
def test_tree_homology_concentrated(n, F):
    t = trees.term(F, n).complex
    for k in t.support():
        want = factorial(n - 1) if k == n - 1 else 0
        assert t.homology(k)[0] == want, (n, k)


def test_tree_action_coxeter():
    for n in (2, 3, 4):
        trees.term(QQ, n).validate()


@pytest.mark.parametrize("n", [3, 4])
def test_tree_action_with_a_flipped_swap_is_refused(monkeypatch, n):
    # -s_0 with s_1 kept breaks the braid relation s_0 s_1 s_0 = s_1 s_0 s_1,
    # and trees.term certifies its action where it builds it; T(n) is
    # cached, so the build must start from an empty cache, and no T(n) built
    # under the patch may outlive the test
    relabel = trees.relabel_terms

    def flipped(t, mapping):
        sgn, t2 = relabel(t, mapping)
        return (-sgn if mapping.get(0) == 1 else sgn), t2
    trees.term.cache_clear()
    monkeypatch.setattr(trees, "relabel_terms", flipped)
    try:
        with pytest.raises(ValueError, match="Coxeter relation fails"):
            trees.term(QQ, n)
    finally:
        trees.term.cache_clear()


def test_tree_terms_are_built_once_per_field():
    # T(n) is a fact of the field: one object per (field, n), each over its
    # own field, shared by every comonad that reads it
    t_f2, t_q = trees.term(F2, 3), trees.term(QQ, 3)
    assert t_f2 is not t_q
    assert (t_f2.field, t_q.field) == (F2, QQ)
    assert trees.term(F2, 3) is t_f2
    w = DegreeWindow(0, 3)
    A = SymmetricSequence(F2, 3, {
        n: trivial_action(sphere(F2, 0), YoungGroup.full(n))
        for n in (1, 2, 3)})
    TopComonad(A, w)
    built = trees.term.cache_info().misses
    TopComonad(A, w)
    assert trees.term.cache_info().misses == built


def _leaves(t):
    if trees.is_leaf(t):
        return [t[1]]
    return [x for c in t[1] for x in _leaves(c)]


def _standardized(t):
    """t with its leaves renamed 0..k-1 in order, which carries no sign."""
    sgn, t2 = trees.relabel_terms(
        t, {x: i for i, x in enumerate(sorted(_leaves(t)))})
    assert sgn == 1
    return t2


def test_tree_signs_are_pinned_on_every_tree_up_to_5_leaves():
    # the differential, every leaf relabeling and every ungrafting of T_*,
    # signs included, on all 268 trees with at most 5 leaves
    h = hashlib.sha256()
    for n in range(1, 6):
        for t in trees.all_trees(tuple(range(n))):
            h.update(repr(trees.differential_terms(t)).encode())
            for sigma in permutations(range(n)):
                h.update(repr(trees.relabel_terms(
                    t, dict(enumerate(sigma)))).encode())
            for blocks in set_partitions(list(range(n))):
                dec = trees.decompose(t, tuple(blocks))
                if dec is not None:
                    sgn, upper, lowers = dec
                    dec = sgn, upper, tuple(_standardized(lt) for lt in lowers)
                h.update(repr(dec).encode())
    assert h.hexdigest() == \
        "d6b617b488f9e892b41087edadb6954ab78300e3b73bfec41ecbd38699eef948"


def test_cooperad_counit_laws():
    for n in range(1, 5):
        # indiscrete: unit (x) T_n component is the identity through T(1)
        blocks = (tuple(range(n)),)
        d = decomposition(QQ, n, blocks)
        assert d is not None
        src = trees.term(QQ, n).complex
        for k in src.dims:
            m = d.component(k)
            assert m.nnz() == src.dim(k)
        # discrete: T_n (x) units
        blocks = tuple((i,) for i in range(n))
        d2 = decomposition(QQ, n, blocks)
        for k in src.dims:
            m = d2.component(k)
            assert m.nnz() == src.dim(k)


def test_cooperad_coassociative_all_small():
    for F in (QQ, F2):
        for n in (2, 3, 4):
            parts = set_partitions(list(range(n)))
            for coarse in parts:
                for fine in parts:
                    from tcalc.combinat import refines
                    if refines(fine, coarse) and fine != coarse:
                        assert check_coassociativity(F, n, coarse, fine), \
                            (F, n, coarse, fine)


def test_spectral_lie_homology():
    op = spectral_lie(QQ, 4)
    d2 = op.term_complex(2)
    assert d2.homology(-1)[0] == 1
    d3 = op.term_complex(3)
    assert d3.homology(-2)[0] == 2
    assert d3.homology(-1)[0] == 0
    d4 = op.term_complex(4)
    assert d4.homology(-3)[0] == 6


def test_spectral_lie_associativity_instance():
    # gamma(gamma(x; y) ; z) = gamma(x; gamma(y; z)) on a composable pattern:
    # arity pattern 2 -> (1, 2) -> ((1), (1, 1)) inside truncation 3
    from tcalc.chain import ChainMap
    from tcalc.chainops import tensor_many, tensor_map
    from tcalc.laws import _associator, tensor_reorder_map
    op = spectral_lie(F2, 3)
    g1 = op.composition(2, (1, 2))   # P_2 (x) P_1 (x) P_2 -> P_3
    g2 = op.composition(3, (1, 1, 1))  # P_3 (x) P_1^3 -> P_3
    g3 = op.composition(2, (1, 2))
    assert g1 is not None and g2 is not None
    p1, p2 = op.term_complex(1), op.term_complex(2)
    factors = [p2, p1, p2, p1, p1, p1]
    # route 1: gamma_{2,(1,2)} (x) id (x) id (x) id, then gamma_{3,(1,1,1)}
    idp = ChainMap.identity(p1)
    big = tensor_map(g1, idp, idp, idp)
    route1 = g2.compose(_associator(big.target, g2.source).compose(
        big).compose(_associator(tensor_many(factors), big.source)))
    # route 2: gamma on inner factors first, P_1 . (1) and P_2 . (1, 1), on
    # the factors grouped as [p2, (p1 ; p1), (p2 ; p1, p1)]
    reorder = tensor_reorder_map(factors, [0, 1, 3, 2, 4, 5])
    big2 = tensor_map(ChainMap.identity(p2), op.composition(1, (1,)),
                      op.composition(2, (1, 1)))
    route2 = g3.compose(_associator(big2.target, g3.source).compose(
        big2).compose(_associator(reorder.target, big2.source)).compose(
        reorder))
    assert not route1.is_zero()
    assert _associator(route1.target, route2.target).compose(
        route1).components == route2.components


def _three_factors(F):
    from tcalc.chain import ChainComplex
    from tcalc.sparse import SparseMatrix
    a = ChainComplex(F, {0: 2, 1: 1}, {1: SparseMatrix.from_rows([[1], [1]], F)},
                     labels={0: (("a", 0), ("a", 1)), 1: (("a", 2),)})
    b = ChainComplex(F, {0: 1, 1: 1}, labels={0: (("b", 0),), 1: (("b", 1),)})
    c = ChainComplex(F, {0: 2}, labels={0: (("c", 0), ("c", 1))})
    return a, b, c


def test_associator_between_tensor_nestings():
    """A map on tensor(tensor(A, B), C) read on tensor_many([A, B, C])
    through the associator matches the basis vectors by flattened labels,
    in either direction."""
    from tcalc.chain import ChainMap
    from tcalc.chainops import tensor_many, tensor_map
    from tcalc.laws import _associator
    from tcalc.sparse import SparseMatrix
    F = F3
    a, b, c = _three_factors(F)
    swap = ChainMap(a, a, {0: SparseMatrix.from_rows([[0, 1], [1, 0]], F),
                           1: SparseMatrix.identity(1, F)})
    idb, idc = ChainMap.identity(b), ChainMap.identity(c)
    nested = tensor_map(tensor_map(swap, idb), idc)
    flat = tensor_many([a, b, c])
    to_flat = _associator(nested.source, flat)
    to_nested = _associator(flat, nested.source)
    g = _associator(nested.target, flat).compose(nested).compose(to_nested)
    g.validate()
    for k in flat.dims:
        for col, (la, lb, lc) in enumerate(flat.labels[k]):
            img = [flat.labels[k][i] for (i, j), _ in g.component(k).items()
                   if j == col]
            new_a = {("a", 0): ("a", 1), ("a", 1): ("a", 0)}.get(la, la)
            assert img == [(new_a, lb, lc)]
    assert g.components == tensor_map(swap, idb, idc).components
    # the two directions are inverse isos, and carry g back to nested
    assert to_flat.compose(to_nested).components == \
        ChainMap.identity(flat).components
    assert to_nested.compose(to_flat).components == \
        ChainMap.identity(nested.source).components
    back = _associator(flat, nested.target).compose(g).compose(to_flat)
    assert back.components == nested.components


def test_associator_refuses_collisions_and_missing_partners():
    from tcalc.chain import ChainComplex
    from tcalc.chainops import tensor, tensor_many
    from tcalc.laws import _associator, _flat_label
    x, y, z = ("x",), ("y",), ("z",)
    labels = {0: (((x, y), z), (x, (y, z)))}
    k = ChainComplex(F2, {0: 2}, labels=labels)
    copy = ChainComplex(F2, {0: 2}, labels=labels)
    assert _flat_label(labels[0][0]) == _flat_label(labels[0][1])
    with pytest.raises(ValueError):
        _associator(k, copy)
    with pytest.raises(ValueError):
        _associator(copy, k)
    # a label of the source with no partner in the target
    a, b, c = _three_factors(F2)
    with pytest.raises(ValueError):
        _associator(tensor(tensor(a, b), c), tensor_many([a, b]))


# ---------------------------------------------------------------------------
# bar construction and nerve oracle
# ---------------------------------------------------------------------------


def test_bar_normalized_homology():
    com = commutative_operad(F2, 4)
    bc, normalized = bar_construction(com)
    for n, rank in ((2, 1), (3, 2), (4, 6)):
        c = normalized[n]
        for k in c.support():
            want = rank if k == n - 1 else 0
            assert c.homology(k)[0] == want, (n, k)
    assert normalized[1].dims == {0: 1}


def test_bar_simplicial_identities():
    com = commutative_operad(QQ, 3)
    bc = BarConstruction(com)
    assert bc.simplicial_identities_hold()


def test_bar_leveled_dims_match_chain_count():
    com = commutative_operad(QQ, 4)
    bc = BarConstruction(com)
    # level s at arity n: weakly decreasing chains of s-1 partitions
    assert bc.levels[(1, 4)].dim(0) == 1
    assert bc.levels[(2, 4)].dim(0) == 15
    # normalized arity 4: 1, 13, 18
    n4 = bc.normalized[4]
    assert {k: n4.dim(k) for k in n4.support()} == {1: 1, 2: 13, 3: 18}


def test_weak_chains_match_the_brute_force_filter():
    for n in range(1, 5):
        parts = set_partitions(list(range(n)))
        for length in range(4):
            want = [ch for ch in product(parts, repeat=length)
                    if all(refines(q, p) for p, q in zip(ch, ch[1:]))]
            assert _weak_chains(n, length) == want, (n, length)


def test_strict_chains_are_the_strict_weak_chains():
    for n in range(1, 6):
        levels = _strict_chains(n)
        assert levels.get(0, []) == ([()] if n == 1 else [])
        for length in range(n + 1):
            s = length + 1
            want = [ch for ch in _weak_chains(n, length)
                    if _is_strict(ch, n, s)]
            assert levels.get(s, []) == want, (n, length)
        assert set(levels) <= set(range(n + 1))


def _by_label(m, rows, cols):
    return {(rows[i], cols[j]): v for (i, j), v in m.items()}


@pytest.mark.parametrize("F", [F2, F3, QQ])
def test_bar_complex_is_the_normalized_simplicial_object(F):
    # basis: the level-s chains that no degeneracy hits; d: the alternating
    # sum of the faces, taken mod the degenerate chains
    bc = BarConstruction(commutative_operad(F, 4))
    for n in range(1, 5):
        c = bar_complex(F, n)
        nondeg = {}
        for s in range(bc.max_level + 1):
            labs = bc.levels[(s, n)].labels.get(0, ())
            hit = set()
            for j in range(s):
                hit |= {labs[i] for (i, _), _ in
                        bc.degens[(s - 1, j, n)].component(0).items()}
            nondeg[s] = [lab for lab in labs if lab not in hit]
            assert list(c.labels.get(s, ())) == nondeg[s], (n, s)
        for s in range(1, bc.max_level + 1):
            src = bc.levels[(s, n)].labels.get(0, ())
            tgt = bc.levels[(s - 1, n)].labels.get(0, ())
            faces = {}
            for i in range(s + 1):
                face = _by_label(bc.faces[(s, i, n)].component(0), tgt, src)
                for key, v in face.items():
                    v = v if i % 2 == 0 else F.neg(v)
                    faces[key] = F.add(faces.get(key, F.zero()), v)
            want = {(t, lab): v for (t, lab), v in faces.items()
                    if t in nondeg[s - 1] and lab in nondeg[s]
                    and not F.is_zero(v)}
            got = _by_label(c.d(s), c.labels.get(s - 1, ()),
                            c.labels.get(s, ()))
            assert got == want, (n, s)


def test_bar_complex_builds_in_small_memory():
    # the leveled object B(1, Com, 1) through arity 5 peaks at about 16 MB
    _refinements.cache_clear()
    tracemalloc.start()
    try:
        c = bar_complex(F2, 5)
        dims = {k: c.homology(k)[0] for k in c.support()}
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dims == {1: 0, 2: 0, 3: 0, 4: 24}
    assert peak < 2 * 1024 * 1024, peak


def test_partition_nerve_oracle():
    for n, rank in ((2, 1), (3, 2), (4, 6)):
        nerve, comparison = partition_poset_nerve(F2, n)
        dims = {k: comparison.homology(k)[0] for k in comparison.support()}
        dims = {k: v for k, v in dims.items() if v}
        assert dims == {n - 1: rank}, (n, dims)
    # n = 4 nerve has 13 vertices
    nerve, _ = partition_poset_nerve(QQ, 4)
    assert nerve.complex.dim(0) == 13
    nerve.validate()


def test_bar_vs_nerve_cross_oracle():
    com = commutative_operad(F3, 4)
    bc, normalized = bar_construction(com)
    for n in (2, 3, 4):
        _, comparison = partition_poset_nerve(F3, n)
        a = {k: normalized[n].homology(k)[0] for k in range(0, 5)}
        b = {k: comparison.homology(k)[0] for k in range(0, 5)}
        assert a == b, n


# ---------------------------------------------------------------------------
# plethysm
# ---------------------------------------------------------------------------


def random_sequence(rng, F, N=3, tiny=True):
    terms = {}
    for n in range(1, N + 1):
        if rng.random() < 0.8:
            deg = rng.randint(0, 1)
            terms[n] = trivial_action(sphere(F, deg, label="a%d" % n),
                                      YoungGroup.full(n))
    if not terms:
        terms[1] = trivial_action(sphere(F, 0), YoungGroup.full(1))
    return SymmetricSequence(F, N, terms)


def test_plethysm_unit_laws():
    rng = random.Random(11)
    a = random_sequence(rng, F2)
    one = unit_sequence(F2, a.truncation)
    left = plethysm(a, one)
    right = plethysm(one_padded(one, a.truncation), a)
    for n in range(1, a.truncation + 1):
        assert left.term_complex(n).dims == a.term_complex(n).dims
        assert right.term_complex(n).dims == a.term_complex(n).dims


def one_padded(one, N):
    return SymmetricSequence(one.field, N, dict(one.terms))


def test_plethysm_unit_left():
    rng = random.Random(13)
    a = random_sequence(rng, QQ)
    one = one_padded(unit_sequence(QQ), a.truncation)
    out = plethysm(one, a)
    for n in a.arities():
        assert out.term_complex(n).dims == a.term_complex(n).dims


def test_plethysm_dims_arity2():
    F = QQ
    a = random_sequence(random.Random(5), F)
    b = random_sequence(random.Random(6), F)
    out = plethysm(a, b)
    d_a1 = a.term_complex(1).total_dim()
    d_a2 = a.term_complex(2).total_dim()
    d_b1 = b.term_complex(1).total_dim()
    d_b2 = b.term_complex(2).total_dim()
    assert out.term_complex(2).total_dim() == d_a1 * d_b2 + d_a2 * d_b1 ** 2


def test_plethysm_associativity_dims():
    rng = random.Random(21)
    for _ in range(3):
        a = random_sequence(rng, F2)
        b = random_sequence(rng, F2)
        c = random_sequence(rng, F2)
        left = plethysm(plethysm(a, b), c)
        right = plethysm(a, plethysm(b, c))
        for n in range(1, 4):
            assert left.term_complex(n).dims == right.term_complex(n).dims, n


def test_plethysm_action_valid():
    rng = random.Random(31)
    a = random_sequence(rng, QQ, N=3)
    b = random_sequence(rng, QQ, N=3)
    out = plethysm(a, b)
    for n in out.arities():
        out.term(n).validate()


def test_plethysm_actions_are_pinned():
    # the Sigma_n actions of A o B, every term validated, hashed entry by
    # entry; odd-degree factors make the reordering of the B-factors carry
    # Koszul signs
    h = hashlib.sha256()
    for F in (F2, F3, QQ):
        lie = spectral_lie(F, 4).sequence
        com = commutative_operad(F, 4).sequence
        odd = SymmetricSequence(F, 4, {
            n: trivial_action(sphere(F, 1, label="o%d" % n),
                              YoungGroup.full(n)) for n in (1, 2)})
        for a, b in ((lie, lie), (com, odd), (lie, odd), (odd, lie)):
            out = plethysm(a, b)
            for n in out.arities():
                t = out.term(n).validate()
                h.update(repr(sorted(t.complex.labels.items())).encode())
                for gi in sorted(t.action):
                    for k in sorted(t.action[gi].components):
                        m = t.action[gi].component(k)
                        h.update(repr((n, gi, k, m.rows, m.cols, [
                            (ij, F.format_scalar(v))
                            for ij, v in sorted(m.items())])).encode())
    assert h.hexdigest() == ("a0c29acf9f6ed9d5fd9dd37aebc1080b"
                             "d93b25f9674a80c6a40219598ff30bc3")


def test_plethysm_com_com():
    com = commutative_operad(QQ, 3).sequence
    out = plethysm(com, com)
    assert out.term_complex(2).total_dim() == 2


# ---------------------------------------------------------------------------
# operads and modules
# ---------------------------------------------------------------------------


def test_commutative_operad_terms():
    com = commutative_operad(F2, 4)
    for n in range(1, 5):
        assert com.term_complex(n).dims == {0: 1}
    g = com.composition(2, (1, 1))
    assert g is not None and g.component(0)[0, 0] == F2.one()


def test_unit_sequence_is_valid_module():
    for op in (commutative_operad(F2, 3), spectral_lie(F2, 3)):
        one = unit_sequence(op.field, op.truncation)
        action = {}
        # only the unit pattern exists for the unit sequence
        from tcalc.chain import ChainMap
        from tcalc.chainops import tensor_many
        src = tensor_many([one.term_complex(1), op.term_complex(1)])
        from tcalc.sparse import SparseMatrix
        m = SparseMatrix.from_entries(1, 1, op.field, {(0, 0): 1})
        action[(1, (1,))] = ChainMap(src, one.term_complex(1), {0: m})
        mod = RightModule(op, one, action)
        report = validate_right_module(mod)
        assert report["valid"], report


def test_corrupted_module_reported():
    op = spectral_lie(F2, 3)
    one = unit_sequence(op.field, op.truncation)
    from tcalc.chain import ChainMap
    from tcalc.chainops import tensor_many
    src = tensor_many([one.term_complex(1), op.term_complex(1)])
    action = {(1, (1,)): ChainMap.zero(src, one.term_complex(1))}
    mod = RightModule(op, one, action)
    report = validate_right_module(mod)
    assert not report["valid"]
