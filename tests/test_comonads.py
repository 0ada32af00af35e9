"""Comonad layer: components, comultiplication, counit, K-prime, nu."""

import random

import pytest

from helpers import (
    induced_from_trivial_subgroup, sign_action, staircase_sequence,
)
from tcalc import topcomonad
from tcalc.chain import (
    ChainComplex, ChainMap, DegreeWindow, cone, direct_sum, sphere,
)
from tcalc.chainops import shift
from tcalc.comonads import SpComonad, SpComponentModel, l3_complex
from tcalc.equivops import equivariant_tensor
from tcalc.equivariant import regular_module, trivial_action
from tcalc.fields import F2, F3, QQ
from tcalc.laws import (
    KPrimeComonad, counit, counit_check, homology, nu_component,
    top_coassociativity_check,
)
from tcalc.perms import YoungGroup
from tcalc.sequences import SymmetricSequence
from tcalc.sparse import Echelon, SparseMatrix
from tcalc.topcomonad import TopComonad, TopComponentModel

S1, S2, S3 = YoungGroup.full(1), YoungGroup.full(2), YoungGroup.full(3)


def triv(F, n, deg=0, label="a"):
    return trivial_action(sphere(F, deg, label="%s%d" % (label, n)),
                          YoungGroup.full(n))


def seq(F, terms):
    N = max(terms)
    return SymmetricSequence(F, N, terms)


# ---------------------------------------------------------------------------
# Top comonad
# ---------------------------------------------------------------------------


def test_k1a2_is_shifted_borbits():
    w = DegreeWindow(0, 4)
    comp = TopComponentModel(triv(F2, 2), 1, w)
    # (T_2 (x) A_2)_{hS2} = (Sigma A_2)_{hS2}: dim 1 in degrees 1..hi
    for k in range(0, 5):
        want = 1 if k >= 1 else 0
        assert homology(comp.value.complex, k)[0] == want


def test_k1a2_free_strict():
    w = DegreeWindow(0, 4)
    comp = TopComponentModel(regular_module(F2, S2), 1, w)
    assert comp.exact
    c = comp.value.complex
    dims = {k: homology(c, k)[0] for k in c.support()}
    assert {k: v for k, v in dims.items() if v} == {1: 1}


def test_strict_models_hold_one_certified_section(monkeypatch):
    # each strict model builds its unit section once, where it is built:
    # not once per Sigma_r generator and per K on maps
    built, made = [], topcomonad.unit_section
    models, init = [], TopComponentModel.__init__
    monkeypatch.setattr(topcomonad, "unit_section",
                        lambda proj: built.append(proj) or made(proj))
    monkeypatch.setattr(TopComponentModel, "__init__", lambda self, *a, **k:
                        models.append(self) or init(self, *a, **k))
    w = DegreeWindow(0, 2)
    terms = {n: regular_module(F2, YoungGroup.full(n)) for n in (1, 2, 3)}
    TopComonad(seq(F2, terms), w)
    strict = [m for m in models if m.kind == "strict"]
    assert len(strict) > 3 and len(built) == len(strict)
    for m in strict:
        assert m.proj.compose(m.section).components == \
            ChainMap.identity(m.value.complex).components
        kf = m.apply(ChainMap.identity(m.a.complex), m)
        assert kf.components == ChainMap.identity(m.value.complex).components
    assert len(built) == len(strict)


def test_unit_section_is_certified():
    # the first vector sent to q_0 with coefficient 1 also reaches q_1, so
    # it is no section of q_0: proj o section = id fails and is caught
    W, q = ChainComplex(F2, {0: 2}), ChainComplex(F2, {0: 2})
    proj = ChainMap(W, q, {0: SparseMatrix.from_rows([[1, 0], [1, 1]], F2)})
    with pytest.raises(ArithmeticError, match="no unit section"):
        topcomonad.unit_section(proj)


def test_k_r_zero_above_n():
    w = DegreeWindow(0, 2)
    comp = TopComponentModel(triv(F2, 2), 3, w)
    assert comp.value.complex.is_zero()


@pytest.mark.parametrize("model", [TopComponentModel, SpComponentModel],
                         ids=["top", "sp"])
def test_a_zero_component_builds_one_map_whatever_r(monkeypatch, model):
    # K_r A_n = 0 for r > n: every generator of Sigma_r acts by one shared
    # zero map, so what the model builds does not grow with r
    built = []
    init = ChainMap.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)
    monkeypatch.setattr(ChainMap, "__init__", counted)
    a = triv(F2, 2)
    for r in (3, 40):
        built.clear()
        comp = model(a, r, DegreeWindow(0, 2))
        assert comp.kind == "zero" and comp.value.complex.is_zero()
        assert comp.value.group == YoungGroup.full(r)
        assert len(comp.value.action) == r - 1
        # the zero map and the identity the module keeps for its unit
        assert len(built) == 2
        assert {id(f) for f in comp.value.action.values()} == {id(built[0])}


def test_diagonal_collapse_and_counit():
    w = DegreeWindow(0, 3)
    A = seq(F2, {1: triv(F2, 1), 2: triv(F2, 2)})
    K = TopComonad(A, w)
    eps = counit(K, 2)
    assert eps is not None
    assert cone(eps).is_acyclic(w)
    rep = counit_check(K, A, w)
    assert rep["pass"]


def test_collapsed_diagonal_builds_no_surjection_sum(monkeypatch):
    # K_n A_n is A_n on the nose, so no job reads its surjection sum
    # W(A_n, n); the comparison nu builds it, once per call
    built, init = [], topcomonad.SurjectionSum.__init__
    monkeypatch.setattr(topcomonad.SurjectionSum, "__init__",
                        lambda self, *a: built.append(a) or init(self, *a))
    w = DegreeWindow(0, 3)
    for F in (F2, QQ):
        for n in (1, 2, 3):
            comp = TopComponentModel(triv(F, n), n, w)
            assert comp.value.complex is comp.a.complex
    assert not built
    from tcalc.laws import KPrimeComponent
    a2 = triv(F2, 2)
    kp = KPrimeComponent(a2, 2)
    built.clear()
    nu = nu_component(TopComponentModel(a2, 2, w), kp, w)
    assert len(built) == 1 and nu.is_iso()


def test_k_top_of_zero_sequence():
    A = SymmetricSequence(F2, 2, {})
    K = TopComonad(A, DegreeWindow(0, 2))
    assert not K.components


def test_delta_validates_and_coassoc_n3():
    w = DegreeWindow(0, 3)
    A = seq(F2, {1: triv(F2, 1), 2: triv(F2, 2), 3: triv(F2, 3)})
    K = TopComonad(A, w)
    assert (1, 2, 3) in K.delta
    assert top_coassociativity_check(A.term(3), 1, 2, 3, w)


def test_coassoc_nontrivial_coefficients():
    w = DegreeWindow(0, 2)
    a3 = trivial_action(direct_sum([sphere(F2, 0), sphere(F2, 1)]), S3)
    assert top_coassociativity_check(a3, 1, 2, 3, w)


def test_k_preserves_direct_sums():
    w = DegreeWindow(0, 3)
    a = triv(F2, 2, deg=0)
    b = triv(F2, 2, deg=1, label="b")
    ab = trivial_action(direct_sum([a.complex, b.complex]), S2)
    ka = TopComponentModel(a, 1, w)
    kb = TopComponentModel(b, 1, w)
    kab = TopComponentModel(ab, 1, w)
    for k in w.degrees():
        assert homology(kab.value.complex, k)[0] == \
            homology(ka.value.complex, k)[0] + homology(kb.value.complex, k)[0]


# ---------------------------------------------------------------------------
# Sp comonad
# ---------------------------------------------------------------------------


def test_sp_k1a2_tate():
    w = DegreeWindow(-4, 4)
    comp = SpComponentModel(triv(F2, 2), 1, w)
    for k in range(-4, 5):
        assert homology(comp.value.complex, k)[0] == 1
    compq = SpComponentModel(triv(QQ, 2), 1, w)
    assert compq.value.complex.is_acyclic(w)


def test_sp_k1k2a3_acyclic():
    w = DegreeWindow(-2, 2)
    k23 = SpComponentModel(triv(F2, 3), 2, w)
    kk = SpComponentModel(k23.value, 1, DegreeWindow(-1, 1))
    assert kk.value.complex.is_acyclic(DegreeWindow(-1, 1))


def test_sp_free_a3_vanishing():
    w = DegreeWindow(-2, 2)
    a3 = regular_module(F2, S3)
    k13 = SpComponentModel(a3, 1, w)
    assert k13.value.complex.is_acyclic(w)
    k23 = SpComponentModel(a3, 2, w)
    assert k23.value.complex.is_acyclic(w)


def test_sp_counit_is_the_diagonal_identity():
    # K_r A_r = A_r, so the counit is the identity of A_r
    w = DegreeWindow(-2, 2)
    A = seq(F2, {1: triv(F2, 1), 2: triv(F2, 2), 3: triv(F2, 3, deg=1)})
    K = SpComonad(A, w)
    for r in A.arities():
        eps = counit(K, r)
        assert eps.source is A.term_complex(r)
        assert eps.components == ChainMap.identity(eps.source).components
    assert counit(SpComonad(SymmetricSequence(F2, 2, {1: triv(F2, 1)}), w),
                  2) is None
    assert counit_check(K, A, w)["pass"]


def test_sp_n_bound():
    with pytest.raises(ValueError):
        SpComponentModel(triv(F2, 4), 1, DegreeWindow(0, 1))


def test_l3_model():
    L = l3_complex(QQ)
    assert homology(L.complex, 1)[0] == 2
    assert homology(L.complex, 0)[0] == 0
    L.validate()
    # sign eigenspace of a transposition on H_1 has rank 1 over Q
    h1dim, reps = homology(L.complex, 1)
    t = L.action_of((1, 0, 2)).component(1)
    # solve (t + 1) v = 0 on the cycle space spanned by reps
    plus_one = (t + SparseMatrix.identity(3, QQ)) * \
        SparseMatrix.from_columns(reps, 3, QQ)
    assert h1dim - Echelon(plus_one).rank == 1


# ---------------------------------------------------------------------------
# K' and nu
# ---------------------------------------------------------------------------


def test_kprime_strict_laws_small():
    A = seq(F2, {1: triv(F2, 1), 2: triv(F2, 2), 3: triv(F2, 3)})
    KP = KPrimeComonad(A)
    # counit on the diagonal composes with its section to the identity
    for r in (1, 2, 3):
        eps = KP.epsilon(r)
        sec = KP.epsilon_section(r)
        composite = eps.compose(sec)
        ident = ChainMap.identity(A.term_complex(r))
        assert composite.components == ident.components
    # genuine comultiplication exists and validates at construction
    assert (1, 2, 3) in KP.delta
    assert KP.delta[(1, 2, 3)] is not None


def test_kprime_unit_invariants():
    # K'(unit sequence truncated at 2) has K'_1 containing the invariants of
    # the T_2 (x) A_2 summand
    a2 = triv(F2, 2)
    from tcalc.laws import KPrimeComponent
    comp = KPrimeComponent(a2, 1)
    # W = T_2 (x) A_2 = one-dimensional in degree 1 with trivial S2 action
    assert comp.value.complex.dim(1) == 1


def test_nu_free_iso():
    w = DegreeWindow(0, 3)
    a2 = regular_module(F2, S2)
    from tcalc.laws import KPrimeComponent
    top = TopComponentModel(a2, 1, w)
    kp = KPrimeComponent(a2, 1)
    nu = nu_component(top, kp, w)
    assert nu.is_iso()


def test_nu_rational_quasi_iso():
    w = DegreeWindow(0, 3)
    a2 = triv(QQ, 2)
    from tcalc.laws import KPrimeComponent
    top = TopComponentModel(a2, 1, w)
    kp = KPrimeComponent(a2, 1)
    nu = nu_component(top, kp, w)
    assert cone(nu).is_acyclic(w.shrink(1))


def test_nu_cone_matches_tate_f2():
    # A_2 = k over F_2: cone(nu_1) homology matches Tate_{S2}(Sigma A_2)
    w = DegreeWindow(0, 4)
    a2 = triv(F2, 2)
    from tcalc.laws import KPrimeComponent
    from tcalc.equivariant import tate
    top = TopComponentModel(a2, 1, w)
    kp = KPrimeComponent(a2, 1)
    nu = nu_component(top, kp, w)
    cn = cone(nu)
    shifted = trivial_action(shift(sphere(F2, 0), 1), S2)
    t = tate(shifted, DegreeWindow(0, 3))
    for k in range(1, 3):
        assert homology(cn, k)[0] == homology(t, k)[0], k


def test_counit_fails_on_corrupted():
    w = DegreeWindow(0, 3)
    A = seq(F2, {1: triv(F2, 1), 2: triv(F2, 2)})
    K = TopComonad(A, w)
    comp = K.component(2, 2)
    bad = ChainMap.zero(comp.value.complex, comp.value.complex)
    assert not cone(bad).is_acyclic(w)


def test_top_comonad_over_f3_and_q():
    # delta construction validates with genuine Koszul signs
    from tcalc.fields import F3
    from tcalc.chain import direct_sum
    w = DegreeWindow(0, 2)
    for F in (F3, QQ):
        terms = {1: triv(F, 1), 2: triv(F, 2), 3: triv(F, 3)}
        A = SymmetricSequence(F, 3, terms)
        K = TopComonad(A, w)
        assert (1, 2, 3) in K.delta  # validated at construction
        assert top_coassociativity_check(A.term(3), 1, 2, 3, w)


def test_k_top_component_f3_orbit_values():
    # (Sigma A_2)_{h Sigma_2} over F_3: the swap on the suspension slot is
    # trivial, so this is BZ/2 homology with F_3 coefficients shifted: only
    # the degree-1 class survives
    from tcalc.fields import F3
    w = DegreeWindow(0, 4)
    comp = TopComponentModel(triv(F3, 2), 1, w)
    dims = {k: homology(comp.value.complex, k)[0] for k in w.degrees()}
    assert dims == {0: 0, 1: 1, 2: 0, 3: 0, 4: 0}


def test_sp_components_f3():
    from tcalc.fields import F3
    w = DegreeWindow(-3, 3)
    # Sigma_2 Tate vanishes away from characteristic 2
    k12 = SpComponentModel(triv(F3, 2), 1, w)
    assert k12.value.complex.is_acyclic(w)
    # Sigma_3 over F_3: Tate of the trivial module is 4-periodic; the
    # orbit classes (degrees = 0, 3 mod 4) glue to the fixed classes with a
    # one-degree shift, so the complete pattern is one-dimensional exactly
    # in degrees = 0, 1 mod 4
    from tcalc.equivariant import tate
    t = tate(triv(F3, 3), w)
    dims = {k: homology(t, k)[0] for k in w.degrees()}
    want = {k: (1 if k % 4 in (0, 1) else 0) for k in w.degrees()}
    assert dims == want, dims


def test_kprime_coassociativity_exact_arity4():
    # the tree cooperad's exact coassociativity driven through the strict
    # comonad over Sigma_4: both composites agree entrywise
    from tcalc.laws import kprime_coassociativity_check
    A = SymmetricSequence(F2, 4, {4: triv(F2, 4)})
    assert kprime_coassociativity_check(A, 1, 2, 3, 4)
    from tcalc.fields import F3
    A3f = SymmetricSequence(F3, 4, {4: triv(F3, 4)})
    assert kprime_coassociativity_check(A3f, 1, 2, 3, 4)


def test_k_top_arity4_components():
    # truncation-4 component models over Sigma_4
    from tcalc.equivariant import regular_module
    w = DegreeWindow(0, 2)
    a4 = triv(F2, 4)
    for r in (1, 2, 3, 4):
        comp = TopComponentModel(a4, r, w)
        # K_4 A_4 collapses to A_4; lower components are windowed orbit
        # models with content in strictly positive degrees
        if r == 4:
            assert comp.value.complex.dims == a4.complex.dims
        else:
            assert homology(comp.value.complex, 0)[0] == 0
    free4 = regular_module(F2, YoungGroup.full(4))
    compf = TopComponentModel(free4, 3, w)
    assert compf.exact


@pytest.mark.xfail(strict=True, raises=ValueError,
                   reason="ROADMAP item 2 (exact windows): the windowed "
                          "delta_{1,3,4} fails to commute with d in degree 4")
def test_top_comonad_builds_on_the_arity_4_staircase():
    # A_r = k in degree 4 - r over F3: build_top_delta's total_map.validate()
    # refuses the windowed delta_{1,3,4} at window 0:3
    TopComonad(staircase_sequence(F3, 4), DegreeWindow(0, 3))
