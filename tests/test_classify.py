"""Classification counts, validators, McCarthy squares, splitting."""

import random

import pytest

from helpers import (
    corrupt_square_map, random_theta, random_valid_coalgebra,
    staircase_sequence, triv, truncate,
)
from tcalc.chain import ChainMap, DegreeWindow, sphere
from tcalc.chainops import hom_complex, shift
from tcalc.classify import (
    classify_2exc_sp, classify_2exc_top, classify_3exc_sp,
    mccarthy_square_check,
)
from tcalc.coalgebras import (
    FinitePointedSet, TruncatedCoalgebra, trivial_coalgebra,
)
from tcalc.equivariant import regular_module, tate, trivial_action
from tcalc.fields import F2, QQ
from tcalc.laws import (
    chain_map_space, count_maps_mod_homotopy, representable_module,
    splitting_check, tensor_power, validate_2exc_sp_to_top,
    validate_2exc_top_to_top,
)
from tcalc.perms import YoungGroup
from tcalc.sequences import SymmetricSequence


W = DegreeWindow(-3, 3)


def test_classify_2exc_sp_counts():
    a1 = sphere(F2, 0)
    a2 = triv(F2, 2)
    assert classify_2exc_sp(a1, a2, W)["classes"] == 2
    assert classify_2exc_sp(sphere(QQ, 0), triv(QQ, 2), W)["classes"] == 1
    assert classify_2exc_sp(a1, regular_module(F2, YoungGroup.full(2)),
                            W)["classes"] == 1


def test_classify_2exc_top_counts():
    a1 = sphere(F2, 0)
    assert classify_2exc_top(a1, triv(F2, 2), W)["classes"] == 1
    assert classify_2exc_top(a1, trivial_action(sphere(F2, -1),
                                                YoungGroup.full(2)),
                             W)["classes"] == 2


def test_classify_counts_match_brute_force():
    # brute force: chain maps modulo chain homotopy into the Tate model
    a1 = sphere(F2, 0)
    a2 = triv(F2, 2)
    t = tate(a2, W)
    bf = count_maps_mod_homotopy(a1, truncate(t, -2, 2))
    assert classify_2exc_sp(a1, a2, W)["dim"] == bf


def test_classify_basis_independence():
    # changing the basis of A_1 leaves the count unchanged
    from tcalc.chain import ChainComplex
    from tcalc.sparse import SparseMatrix
    a1 = ChainComplex(F2, {0: 2})
    a2 = triv(F2, 2)
    r1 = classify_2exc_sp(a1, a2, W)
    # basis change in degree 0 is invisible to dims
    assert r1["dim"] == 2 * classify_2exc_sp(sphere(F2, 0), a2, W)["dim"]


def test_classify_3exc_sp():
    a1 = sphere(F2, 0)
    a2 = triv(F2, 2)
    a3 = triv(F2, 3)
    r = classify_3exc_sp(a1, a2, a3, W)
    assert r["square_vacuous"]
    assert len(r["dims"]) == 3
    rq = classify_3exc_sp(sphere(QQ, 0), triv(QQ, 2), triv(QQ, 3), W)
    assert rq["dims"] == (0, 0, 0)
    rf = classify_3exc_sp(a1, a2, regular_module(F2, YoungGroup.full(3)), W)
    assert rf["dims"][1] == 0 and rf["dims"][2] == 0


def test_validator_sp_to_top():
    a1 = sphere(F2, 0)
    a2 = triv(F2, 2)
    sq = tensor_power(a1, 2)
    zero_m = ChainMap.zero(sq.complex, shift(a2.complex, 1))
    r = validate_2exc_sp_to_top(a1, a2, zero_m, W)
    assert r["valid"] and r["obstruction_dim"] == 0
    # rational: any composite has a solvable witness
    a1q, a2q = sphere(QQ, 0), triv(QQ, 2)
    sqq = tensor_power(a1q, 2)
    maps = chain_map_space(sqq.complex, shift(a2q.complex, 1))
    mq = maps[0] if maps else ChainMap.zero(sqq.complex, shift(a2q.complex, 1))
    rq = validate_2exc_sp_to_top(a1q, a2q, mq, W)
    assert rq["valid"]
    # F2 with the canonical nonzero m: the obstruction class is nonzero
    a2b = trivial_action(sphere(F2, -1), YoungGroup.full(2))
    maps2 = chain_map_space(sq.complex, shift(a2b.complex, 1))
    m2 = next(m for m in maps2 if not m.is_zero())
    r2 = validate_2exc_sp_to_top(a1, a2b, m2, W)
    assert not r2["valid"] and r2["obstruction_dim"] == 1


def test_validator_top_to_top():
    a1 = sphere(F2, 0)
    a2b = trivial_action(sphere(F2, -1), YoungGroup.full(2))
    sq = tensor_power(a1, 2)
    sa2 = shift(a2b.complex, 1)
    zero_m = ChainMap.zero(sq.complex, sa2)
    zero_mp = ChainMap.zero(a1, sa2)
    assert validate_2exc_top_to_top(a1, a2b, zero_m, zero_mp, W)["valid"]
    # m' = 0 with nonzero m embeds the sp->top validator
    maps = chain_map_space(sq.complex, sa2)
    m = next(f for f in maps if not f.is_zero())
    r_tt = validate_2exc_top_to_top(a1, a2b, m, zero_mp, W)
    r_st = validate_2exc_sp_to_top(a1, a2b, m, W)
    assert r_tt["valid"] == r_st["valid"]


def _zero_map(f):
    return ChainMap.zero(f.source, f.target)


def test_mccarthy_acyclic_and_mutation_detected(monkeypatch):
    rng = random.Random(2)
    w = DegreeWindow(-2, 2)
    c = random_valid_coalgebra(rng, F2, "sp", 2, w)
    rep = mccarthy_square_check(c, 0, 2)
    assert rep["acyclic"], rep
    mutated = corrupt_square_map(monkeypatch, 3, _zero_map)
    rep2 = mccarthy_square_check(c, 0, 2)
    assert not rep2["acyclic"] and mutated["calls"] == 1


def test_mccarthy_top_site():
    rng = random.Random(4)
    w = DegreeWindow(0, 3)
    A = SymmetricSequence(F2, 2, {1: triv(F2, 1, deg=1), 2: triv(F2, 2)})
    c0 = trivial_coalgebra("top", A, w)
    th = random_theta(c0, 1, 2, rng)
    c = TruncatedCoalgebra("top", A, w, {(1, 2): th}, komonad=c0.komonad)
    # at a 1-point set the arity-2 diagonal Phi term is zero
    for m in (2, 1):
        rep = mccarthy_square_check(c, FinitePointedSet(m), 2)
        assert rep["acyclic"], rep


def test_splitting_representable():
    module, coalg = representable_module(FinitePointedSet(2), 2, F2,
                                         window=DegreeWindow(-2, 3))
    rep = splitting_check(coalg, FinitePointedSet(2))
    assert rep["pass"], rep
    assert rep["module_match"] is True


def test_splitting_defect_reported():
    # non-free A_2 with nontrivial theta: mismatch reported, not an error
    rng = random.Random(8)
    w = DegreeWindow(-2, 2)
    A = SymmetricSequence(F2, 2, {1: triv(F2, 1, deg=1), 2: triv(F2, 2)})
    c0 = trivial_coalgebra("sp", A, w)
    th = random_theta(c0, 1, 2, rng)
    c = TruncatedCoalgebra("sp", A, w, {(1, 2): th}, komonad=c0.komonad)
    rep = splitting_check(c, 0)
    assert rep["layers_match"] is False
    assert not rep["free"]


def test_splitting_rational():
    w = DegreeWindow(-2, 2)
    A = SymmetricSequence(QQ, 2, {1: triv(QQ, 1), 2: triv(QQ, 2)})
    c = trivial_coalgebra("sp", A, w)
    rep = splitting_check(c, 0)
    assert rep["layers_match"], rep


def test_mccarthy_odd_characteristic():
    # the canonical square homotopy and cone assembly carry genuine signs
    # away from characteristic 2
    from tcalc.fields import F3
    rng = random.Random(41)
    w = DegreeWindow(-2, 2)
    c = random_valid_coalgebra(rng, F3, "sp", 2, w)
    rep = mccarthy_square_check(c, 0, 2)
    assert rep["acyclic"], rep
    ct = random_valid_coalgebra(rng, F3, "top", 2, DegreeWindow(0, 3))
    rept = mccarthy_square_check(ct, FinitePointedSet(2), 2)
    assert rept["acyclic"], rept


def test_mccarthy_at_arity_three():
    # at n = 3 the corner is the slot sum over (1, 3) and (2, 3) only; the
    # canonical homotopy must project onto those slots, not onto (1, 2)
    for F in (F2, QQ):
        c = random_valid_coalgebra(random.Random(33), F, "sp", 3,
                                   DegreeWindow(-1, 2))
        rep = mccarthy_square_check(c, 0, 3)
        assert rep["acyclic"] and rep["window"] == "[-1,0]", rep
        # zeroing any one of the four maps breaks the square
        for which in range(4):
            with pytest.MonkeyPatch.context() as mp:
                mutated = corrupt_square_map(mp, which, _zero_map)
                assert not mccarthy_square_check(c, 0, 3)["acyclic"], which
                assert mutated["calls"] == 1


def test_module_hom_counts_stable_maps_between_sets():
    # Map through the strict module cobar: the stage-2 value of the stable
    # mapping functor out of Y at X counts the reduced stable maps Y -> X
    from tcalc.laws import module_hom_tower
    # Y = 2 points, X = 1 point: pointed maps [2]+ -> [1]+ form a 4-point
    # set, reduced chains have rank 3
    _, coalg = representable_module(FinitePointedSet(2), 2, F2,
                                    window=DegreeWindow(-2, 3))
    win = DegreeWindow(-1, 1)
    h = module_hom_tower(coalg, FinitePointedSet(1), 2, win)
    assert h == {-1: 0, 0: 3, 1: 0}, h
    # Y = X = 2 points: 9 pointed maps, reduced rank 8 (checked elsewhere via
    # the splitting criterion); here assert the tower value directly
    h2 = module_hom_tower(coalg, FinitePointedSet(2), 2, win)
    assert h2[0] == 8, h2


def test_rational_tate_acyclic_randomized():
    import random as _r
    from tcalc.chain import direct_sum
    from tcalc.equivariant import tate, trivial_action
    from helpers import sign_action
    rng = _r.Random(51)
    w = DegreeWindow(-2, 2)
    for _ in range(5):
        degs = [rng.randint(-1, 2) for _ in range(rng.randint(1, 2))]
        c = direct_sum([sphere(QQ, d, label="q%d" % i)
                        for i, d in enumerate(degs)])
        a = trivial_action(c, YoungGroup.full(2)) if rng.random() < 0.5 \
            else sign_action(c, YoungGroup.full(2))
        assert tate(a, w).is_acyclic(w)
