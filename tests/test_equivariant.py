"""Tests for group actions, resolutions, orbits/fixed points, norm, Tate.

The periodic resolutions (2-periodic for Sigma_2, the mod-3 pattern for
Sigma_3) live here as independent oracles; the engine itself only knows the
generic greedy resolution.
"""

import hashlib
import itertools
import random
import tracemalloc

import pytest

from helpers import (
    entry, induced_from_trivial_subgroup, sign_action, truncate,
)
from tcalc import equivariant
from tcalc.chain import (
    ChainComplex, ChainMap, DegreeWindow, direct_sum, sphere,
)
from tcalc.chainops import tensor, tensor_map
from tcalc.combinat import all_surjections, set_partitions
from tcalc.equivariant import (
    EquivariantComplex, group_resolution, homotopy_fixed, homotopy_orbits,
    norm_map, regular_module, tate, trivial_action,
)
from tcalc.equivops import (
    equivariant_tensor, is_free, permutation_module, slotwise_map,
    strict_fixed, strict_orbits,
)
from tcalc.fields import F2, F3, QQ
from tcalc.laws import (
    compositions_of_bounded, homology, rank, tensor_power,
)
from tcalc.perms import YoungGroup, compose
from tcalc.sparse import SparseMatrix
from tcalc.topcobar import diagonal_phi_term

S2 = YoungGroup.of(2)
S3 = YoungGroup.of(3)


# ---------------------------------------------------------------------------
# groups / permutation modules
# ---------------------------------------------------------------------------


def test_young_group_basics():
    g = YoungGroup.of(2, 2)
    assert g.order == 4
    assert g.generator_positions() == [0, 2]
    assert len(g.elements()) == 4
    assert len(S3.elements()) == 6
    w = S3.reduced_word((2, 0, 1))
    # verify the word composes back to the permutation
    from tcalc.perms import compose, identity_perm, transposition
    p = identity_perm(3)
    for i in w:
        p = compose(p, transposition(3, i))
    assert p == (2, 0, 1)


def test_surjections_and_partitions():
    assert len(all_surjections(3, 2)) == 6
    assert len(all_surjections(2, 2)) == 2
    assert len(set_partitions([0, 1, 2])) == 5
    assert len(set_partitions([0, 1, 2, 3])) == 15


def _enumeration_orders():
    """The finite sets every basis is indexed by, in the order the package
    enumerates them: surjections, Young group elements, set partitions, the
    injections labelling a Top site's diagonal summand, and the operad's
    bounded compositions."""
    out = [("surj", n, r, all_surjections(n, r))
           for n in range(5) for r in range(5)]
    for n in range(1, 5):
        for r in range(1, n + 1):
            for blocks in itertools.product(range(1, n + 1), repeat=r):
                if sum(blocks) == n:
                    out.append(("young", blocks,
                                YoungGroup(blocks).elements()))
    out += [("part", n, set_partitions(range(n))) for n in range(7)]
    for n in (1, 2):
        term = trivial_action(sphere(F2, 0), YoungGroup.full(n))
        for m in range(5):
            d = diagonal_phi_term(F2, term, m)
            out.append(("inj", n, m, d and [
                lab[1] for lab in d["tensored"].complex.labels[0]]))
    out += [("comp", r, N, compositions_of_bounded(r, N))
            for N in range(1, 5) for r in range(1, N + 1)]
    return out


def test_enumeration_orders_are_pinned():
    # every basis order is built on these orders; the digest was taken
    # from the recursive enumerators the itertools expressions replaced
    got = hashlib.sha256(repr(_enumeration_orders()).encode()).hexdigest()
    assert got == ("2f9f317131f442d11073214bdaefd2a6"
                   "4bf626141bfc7efcd09743c5f4608b14"), got


def test_regular_module_and_freeness():
    reg = regular_module(F2, S2)
    assert is_free(reg)
    assert reg.complex.dim(0) == 2
    triv = trivial_action(sphere(F2, 0), S2)
    assert not is_free(triv)


def test_injections_as_sigma2_set():
    # injections {1,2} -> {1,2}: free rank-2 module
    surj = all_surjections(2, 2)
    table = {0: [1, 0]}
    m = permutation_module(F2, S2, [("inj", s) for s in surj], table)
    assert is_free(m)


def test_coxeter_validation_rejects_bad_action():
    c = ChainComplex(F3, {0: 2})
    bad = SparseMatrix.from_rows([[1, 1], [0, 1]], F3)
    act = {0: ChainMap(c, c, {0: bad})}
    with pytest.raises(ValueError):
        EquivariantComplex(c, S2, act).validate()  # s^2 != 1 over F_3


def test_generators_meet_the_complex_by_label():
    # tensor_map lands on a tensor complex of its own, label-equal to the
    # diagonal action's complex: its generators are accepted as they are
    S3 = YoungGroup.full(3)
    a, b = regular_module(F2, S3), trivial_action(sphere(F2, 1), S3)
    t = tensor(a.complex, b.complex)
    action = {gi: tensor_map(a.action[gi], b.action[gi])
              for gi in S3.generator_positions()}
    assert all(f.source is not t and f.source.labels == t.labels
               for f in action.values())
    e = EquivariantComplex(t, S3, action).validate()
    assert equivariant_tensor(a, b).action_of((1, 2, 0)).components == \
        e.action_of((1, 2, 0)).components
    # the same matrices on a complex of equal dims and other labels are not
    other = ChainComplex(F2, t.dims, t.diff, {
        k: tuple(("x", lab) for lab in labs) for k, labs in t.labels.items()})
    moved = {gi: ChainMap(other, other, f.components)
             for gi, f in action.items()}
    with pytest.raises(ValueError, match="wrong"):
        EquivariantComplex(t, S3, moved).validate()


# ---------------------------------------------------------------------------
# tensor powers
# ---------------------------------------------------------------------------


def test_tensor_power_koszul_sign():
    # (S^1)^{(x)2} = S^2 with swap acting by -1
    t = tensor_power(sphere(QQ, 1), 2)
    m = t.action[0].component(2)
    assert entry(m, 0, 0) == QQ.coerce(-1)
    # (S^2)^{(x)2} = S^4 with trivial swap
    t2 = tensor_power(sphere(QQ, 2), 2)
    assert entry(t2.action[0].component(4), 0, 0) == 1


def test_tensor_power_relations():
    from tcalc.chain import direct_sum
    x = direct_sum([sphere(QQ, 0), sphere(QQ, 1)])
    t = tensor_power(x, 2)
    t.validate()
    t3 = tensor_power(sphere(F2, 1), 3)
    t3.validate()


# ---------------------------------------------------------------------------
# resolutions and derived functors
# ---------------------------------------------------------------------------


def test_resolution_sigma2_minimal():
    res = group_resolution(F2, S2)
    res.extend_to(6)
    assert res.ranks[:7] == [1, 1, 1, 1, 1, 1, 1]


@pytest.mark.parametrize("F", [F2, F3], ids=["F2", "F3"])
@pytest.mark.parametrize("blocks", [(2,), (3,), (2, 2), (3, 1), (4,)],
                         ids=["S2", "S3", "S2xS2", "S3xS1", "S4"])
def test_resolution_certificates(F, blocks):
    """d o d = 0, exactness below the top stage, and kG-linearity: the
    column at (gen, h) is h times the column at (gen, e)."""
    res = group_resolution(F, YoungGroup(blocks))
    top = 5
    res.extend_to(top)
    n = res.order
    for s in range(top):
        assert (res.diffs[s] * res.diffs[s + 1]).is_zero(), s
        kernel = res.stage_dim(s) - rank(res.diffs[s])
        assert rank(res.diffs[s + 1]) == kernel, s
    for s in range(1, top + 1):
        cols = {}
        for (i, j), x in res.diffs[s].items():
            cols.setdefault(j, {})[i] = x
        for gen, bd in enumerate(res.boundaries[s]):
            for h in res.elements:
                want = {i - i % n + res.pos[compose(h, res.elements[i % n])]: x
                        for i, x in bd.items()}
                assert cols[gen * n + res.pos[h]] == want, (s, gen, h)
    if (F, blocks) == (F2, (4,)):
        assert res.ranks[:top + 1] == [1, 3, 5, 7, 9, 14]


def periodic_bs2_oracle(k):
    """H_s(B Sigma_2; F_2) = F_2 for all s >= 0 (2-periodic resolution)."""
    return 1 if k >= 0 else 0


def test_orbits_trivial_group():
    triv = trivial_action(sphere(F2, 0), YoungGroup.of(1))
    w = DegreeWindow(0, 4)
    o = homotopy_orbits(triv, w)
    assert o.homology_dims(w) == {0: 1}


def test_orbits_bs2_f2():
    a = trivial_action(sphere(F2, 0), S2)
    w = DegreeWindow(0, 5)
    o = homotopy_orbits(a, w)
    for k in range(0, 6):
        assert homology(o, k)[0] == periodic_bs2_oracle(k), k


def test_orbits_free_module():
    a = regular_module(F2, S2)
    w = DegreeWindow(0, 5)
    o = homotopy_orbits(a, w)
    assert o.homology_dims(w) == {0: 1}


def test_fixed_bs2_f2():
    a = trivial_action(sphere(F2, 0), S2)
    w = DegreeWindow(-5, 0)
    f = homotopy_fixed(a, w)
    for k in range(-5, 1):
        assert homology(f, k)[0] == 1, k


def test_fixed_rational():
    a = trivial_action(sphere(QQ, 0), S2)
    w = DegreeWindow(-5, 0)
    f = homotopy_fixed(a, w)
    assert f.homology_dims(w) == {0: 1}


def test_orbits_sigma3_f3_periodic_oracle():
    # H_s(Sigma_3; F_3) = F_3 for s = 0, 3 mod 4 (4-periodic pattern)
    a = trivial_action(sphere(F3, 0), S3)
    w = DegreeWindow(0, 8)
    o = homotopy_orbits(a, w)
    expect = {0: 1, 3: 1, 4: 1, 7: 1, 8: 1}
    assert o.homology_dims(w) == expect


def test_orbits_sigma3_f2():
    # H_*(Sigma_3; F_2) = H_*(Sigma_2; F_2) (odd part invisible): dim 1 each degree
    a = trivial_action(sphere(F2, 0), S3)
    w = DegreeWindow(0, 5)
    o = homotopy_orbits(a, w)
    assert o.homology_dims(w) == {k: 1 for k in range(6)}


def test_window_stability_plus_two_stages():
    # two more degrees on the unbounded side take two more stages of the
    # resolution and leave the homology on the old window as it was
    a = trivial_action(sphere(F2, 0), S2)
    w = DegreeWindow(0, 4)
    d1 = homotopy_orbits(a, w).homology_dims(w)
    d2 = homotopy_orbits(a, DegreeWindow(0, 6)).homology_dims(w)
    assert d1 == d2
    w = DegreeWindow(-4, 0)
    f1 = homotopy_fixed(a, w).homology_dims(w)
    f2 = homotopy_fixed(a, DegreeWindow(-6, 0)).homology_dims(w)
    assert f1 == f2


def _spread_module(rng, F, group):
    """A G-module over several degrees: a trivial or regular module
    tensored with a trivially acted complex whose cells lie in 2 or 3
    degrees, one pair of them joined by an identity differential."""
    degs = sorted(rng.sample(range(-2, 3), rng.choice([2, 3])))
    parts = [sphere(F, d, label=("e", i)) for i, d in enumerate(degs)]
    lo = degs[0]
    disk = ChainComplex(F, {lo: 1, lo + 1: 1},
                        {lo + 1: SparseMatrix.identity(1, F)},
                        {lo: (("b",),), lo + 1: (("t",),)})
    spread = trivial_action(direct_sum(parts + [disk]), group)
    base = rng.choice([trivial_action(sphere(F, 0), group),
                       regular_module(F, group)])
    return equivariant_tensor(spread, base)


def _rule_labels(a, res, name, keep, direction):
    """{(degree, label)} the basis rule asks for: (name, s, gen, x) in
    degree deg x + direction * s for every stage s that keep(deg x, s)
    allows and every generator gen of stage s."""
    out = set()
    for k in a.complex.support():
        s = 0
        while keep(k, s):
            out |= {(k + direction * s, (name, s, gen, x))
                    for gen in range(res.ranks[s])
                    for x in a.complex.labels[k]}
            s += 1
    return out


def _model_labels(model):
    return {(k, lab) for k, labs in model.labels.items()
            for lab in labs}


@pytest.mark.parametrize("F", [F2, F3, QQ], ids=["F2", "F3", "Q"])
def test_orbit_and_fixed_bases_follow_the_basis_rule(F):
    # a model's basis is fixed by the window alone: ("hG", s, gen, x) with
    # deg x + s <= w.hi + 1, and ("hGf", s, gen, x) with
    # deg x - s >= w.lo - 1, for gen < rank(s)
    rng = random.Random(27)
    for group in (S2, S3, YoungGroup.of(2, 1)):
        for _ in range(3):
            a = _spread_module(rng, F, group)
            lo = rng.randint(-3, 1)
            w = DegreeWindow(lo, lo + rng.randint(0, 3))
            res = group_resolution(F, group)
            orbits = homotopy_orbits(a, w)
            assert _model_labels(orbits) == _rule_labels(
                a, res, "hG", lambda k, s: k + s <= w.hi + 1, 1)
            fixed = homotopy_fixed(a, w)
            assert _model_labels(fixed) == _rule_labels(
                a, res, "hGf", lambda k, s: k - s >= w.lo - 1, -1)


# ---------------------------------------------------------------------------
# norm and Tate
# ---------------------------------------------------------------------------


def complete_resolution_tate_oracle(k):
    """Tate of F_2 over Sigma_2 from the 2-periodic complete resolution:
    one-dimensional in every degree."""
    return 1


def test_tate_trivial_f2():
    a = trivial_action(sphere(F2, 0), S2)
    w = DegreeWindow(-4, 4)
    t = tate(a, w)
    for k in range(-4, 5):
        assert homology(t, k)[0] == complete_resolution_tate_oracle(k), k


def test_tate_rational_vanishes():
    a = trivial_action(sphere(QQ, 0), S2)
    w = DegreeWindow(-4, 4)
    assert tate(a, w).is_acyclic(w)


def test_tate_free_vanishes():
    a = regular_module(F2, S2)
    w = DegreeWindow(-4, 4)
    assert tate(a, w).is_acyclic(w)


def test_norm_quasi_iso_on_free_and_rational():
    from tcalc.laws import is_quasi_iso
    w = DegreeWindow(-3, 3)
    wide = w.expand(1)
    a = regular_module(F2, S2)
    nm = norm_map(a, wide)
    assert cone_acyclic_on(nm, w)
    b = trivial_action(sphere(QQ, 0), S2)
    nm2 = norm_map(b, wide)
    assert cone_acyclic_on(nm2, w)


def cone_acyclic_on(f, w):
    from tcalc.chain import cone
    return cone(f).is_acyclic(w)


def test_norm_identity_for_trivial_group():
    g1 = YoungGroup.of(1)
    a = trivial_action(sphere(F2, 0), g1)
    nm = norm_map(a, DegreeWindow(-2, 2))
    assert cone_acyclic_on(nm, DegreeWindow(-1, 1))


def test_norm_sums_the_group():
    # on k[S3] every group element is reached from every other once, and on
    # the sign module the six signs cancel
    for F in (F2, F3, QQ):
        reg = regular_module(F, S3)
        assert reg.norm().validate().component(0) == \
            SparseMatrix.from_rows([[1] * 6] * 6, F)
        sgn = sign_action(sphere(F, 0), S3)
        assert sgn.norm().is_zero()


def test_induced_module_tate_vanishes():
    # B (+) B with swap exchanging the summands: Tate acyclic
    b = sphere(F2, 0)
    ind = induced_from_trivial_subgroup(b, S2)
    assert is_free(ind)
    w = DegreeWindow(-3, 3)
    assert tate(ind, w).is_acyclic(w)


def test_tate_sigma3_trivial_f2():
    # Tate_{Sigma_3}(F_2) = Tate_{Sigma_2}(F_2) stable classes: dim 1 per degree
    a = trivial_action(sphere(F2, 0), S3)
    w = DegreeWindow(-3, 3)
    assert tate(a, w).homology_dims(w) == {k: 1 for k in range(-3, 4)}


# ---------------------------------------------------------------------------
# strict (co)invariants
# ---------------------------------------------------------------------------


def test_strict_orbits_regular():
    a = regular_module(F2, S2)
    q, proj = strict_orbits(a)
    assert q.dim(0) == 1
    proj.validate()


def test_strict_fixed_inclusion():
    a = regular_module(QQ, S2)
    f, inc = strict_fixed(a)
    assert f.dim(0) == 1
    inc.validate()


def test_strict_orbits_vs_homotopy_orbits_free():
    a = regular_module(F2, S2)
    w = DegreeWindow(0, 4)
    o = homotopy_orbits(a, w)
    q, _ = strict_orbits(a)
    assert o.homology_dims(w) == {
        k: d for k, d in ((k, homology(q, k)[0]) for k in range(0, 5)) if d}


def test_sign_module_tate_f2_and_q():
    s = sign_action(sphere(F2, 0), S2)
    w = DegreeWindow(-3, 3)
    # over F_2 sign = trivial
    assert tate(s, w).homology_dims(w) == {k: 1 for k in range(-3, 4)}
    sq = sign_action(sphere(QQ, 0), S2)
    assert tate(sq, w).is_acyclic(w)


def test_slotwise_map_on_orbit_labels():
    w = ChainComplex(F3, {0: 2}, labels={0: ("w1", "w2")})
    f = ChainMap(w, w, {0: SparseMatrix.from_rows([[0, 1], [1, 2]], F3)})
    model = homotopy_orbits(trivial_action(w, S2), DegreeWindow(0, 2))
    g = slotwise_map(model, model, f).validate()
    for k in model.dims:
        idx = model.label_index(k)
        for col, (tag, s, gen, lab) in enumerate(model.labels[k]):
            img = {i: v for (i, j), v in g.component(k).items()
                   if j == col}
            want = {"w1": {("hG", s, gen, "w2"): 1},
                    "w2": {("hG", s, gen, "w1"): 1, ("hG", s, gen, "w2"): 2}}
            assert img == {idx[t]: v for t, v in want[lab].items()}
    # terms missing from the target model are dropped
    low = truncate(model, 0, 1)
    h = slotwise_map(model, low, f)
    assert set(h.components) == {0, 1}
    assert h.component(1) == g.component(1)
    # a nested slot given as a path, with a sign on the "odd" labels
    nest = ChainComplex(F3, {0: 4}, labels={0: tuple(
        ("x", (par, lab)) for par in ("even", "odd") for lab in ("w1", "w2"))})
    s = slotwise_map(nest, nest, f, slot=(1, -1),
                     sign=lambda lab: -1 if lab[1][0] == "odd" else 1)
    assert s.component(0) == SparseMatrix.from_rows(
        [[0, 1, 0, 0], [1, 2, 0, 0], [0, 0, 0, 2], [0, 0, 2, 1]], F3)
    for bad in ((1, 2), (0, 0)):
        with pytest.raises(ValueError):
            slotwise_map(nest, nest, f, slot=bad)


def test_tate_of_regular_s4_over_f2_stays_small():
    """A memory guard on the largest F2 model the tate subcommand builds:
    tate of the regular F2[S4] module at window -2:2, resolution included.
    With F2 matrices as {(i, j): 1} dicts its traced peak was 6.3 MB; as
    row bitsets it is 2.3 MB (Python 3.11), and the bound sits near half
    the former."""
    a = regular_module(F2, YoungGroup.full(4))
    equivariant._RESOLUTION_CACHE.clear()
    tracemalloc.start()
    w = DegreeWindow(-2, 2)
    try:
        t = tate(a, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        equivariant._RESOLUTION_CACHE.clear()
    assert t.is_acyclic(w)
    assert peak < 3.2 * 2 ** 20, peak
