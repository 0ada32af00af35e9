"""Cosimplicial machinery: box product, Tot, cobar, stages, derived hom, E1."""

import hashlib
import json
import os
import random
import re
import tracemalloc

import pytest

from helpers import (
    kq_theta_by_columns, random_theta, random_valid_coalgebra,
    staircase_sequence, triv, widened,
)
from tcalc import cli, cosimplicial, laws, serialize
from tcalc.chain import (
    ChainComplex, ChainMap, DegreeWindow, direct_sum, label_map, sphere,
)
from tcalc.coalgebras import (
    FinitePointedSet, TruncatedCoalgebra, trivial_coalgebra,
)
from tcalc.classify import mccarthy_square_check
from tcalc.comonads import SpComonad, SpComponentModel
from tcalc.derivedhom import (
    DerivedHomBuilder, bk_e1, einf_dims, equivariant_hom_complex,
)
from tcalc.equivariant import (
    EquivariantComplex, homotopy_orbits, regular_module, trivial_action,
)
from tcalc.fields import F2, F3, QQ, field_from_name
from tcalc.laws import (
    ChainHomotopy, CosimplicialComplex, box_product, conormalized_level,
    constant_cosimplicial, is_quasi_iso, lemma_ij_check, representable_module,
    simplex_cosimplicial,
)
from tcalc.perms import YoungGroup
from tcalc.sequences import SymmetricSequence
from tcalc.serialize import coalgebra_from_json
from tcalc.sparse import SparseMatrix
from tcalc.spcobar import SpCobarBuilder
from tcalc.topcobar import TopCobarBuilder
from tcalc.topcomonad import SurjectionSum, TopComonad
from tcalc.tower import _Levels, cobar, derived_hom, fat_tot, p_n, tower_map


def circle(F):
    return ChainComplex(F, {0: 2, 1: 2},
                        {1: SparseMatrix.from_rows([[1, 1], [-1, -1]], F)})


# ---------------------------------------------------------------------------
# box product, Tot, lemma ij
# ---------------------------------------------------------------------------


def test_constant_tot():
    c = circle(QQ)
    t = fat_tot(constant_cosimplicial(c, 3))
    assert {k: t.homology(k)[0] for k in (0, 1)} == {0: 1, 1: 1}


def test_two_level_semicosimplicial_tot():
    # 0 -> C => C with delta0 = id, delta1 = 0: Tot = fib(id) is acyclic
    c = circle(QQ)
    y = CosimplicialComplex([c, c], {(0, 0): ChainMap.identity(c),
                                     (0, 1): ChainMap.zero(c, c)}, {},
                            degenerate_above=1)
    t = fat_tot(y)
    assert t.is_acyclic(DegreeWindow(-3, 3))


def test_degeneracy_bound_lies_in_the_levels():
    c = circle(QQ)
    maps = {(0, 0): ChainMap.identity(c), (0, 1): ChainMap.zero(c, c)}
    for bound in (-1, 2):
        with pytest.raises(ValueError, match="degeneracy bound"):
            CosimplicialComplex([c, c], maps, {}, degenerate_above=bound)


def test_validate_returns_self():
    c = circle(QQ)
    f = ChainMap.identity(c)
    for x in (c, f, ChainHomotopy(f, f, {}),
              trivial_action(c, YoungGroup.full(2)),
              constant_cosimplicial(c, 2)):
        assert x.validate() is x


def test_box_unit_levelwise():
    c = circle(QQ)
    unit = constant_cosimplicial(sphere(QQ, 0), 4)
    x = constant_cosimplicial(c, 4)
    b = box_product(unit, x, max_level=4)
    b.validate()
    for m in range(5):
        assert {k: b.levels[m].dim(k) for k in b.levels[m].support()} == \
            {k: c.dim(k) for k in c.support()}


def test_box_level_zero_concentration():
    # X, Y concentrated in level 0 (constant towers): level-m dim of the box
    # at level 0 is the product
    x = constant_cosimplicial(sphere(QQ, 0), 2)
    y = constant_cosimplicial(direct_sum([sphere(QQ, 0), sphere(QQ, 1)]), 2)
    b = box_product(x, y, max_level=2)
    assert b.levels[0].total_dim() == 2


def test_box_associativity_dims():
    rng = random.Random(3)
    c1, c2, c3 = circle(F2), sphere(F2, 0), direct_sum([sphere(F2, 1)])
    xs = [constant_cosimplicial(c, 3) for c in (c1, c2, c3)]
    left = box_product(box_product(xs[0], xs[1], 3), xs[2], 3)
    right = box_product(xs[0], box_product(xs[1], xs[2], 3), 3)
    for m in range(4):
        assert {k: left.levels[m].dim(k) for k in left.levels[m].support()} \
            == {k: right.levels[m].dim(k) for k in right.levels[m].support()}


def test_simplex_cosimplicial_identities():
    d = simplex_cosimplicial(QQ, 4)
    d.validate()


def test_lemma_ij():
    c = circle(F2)
    x = constant_cosimplicial(c, 2)
    rep = lemma_ij_check(x, max_level=2)
    assert rep["pass"], rep
    # corrupted coface -> failure
    bad_cofaces = dict(x.cofaces)
    bad_cofaces[(0, 0)] = ChainMap.zero(c, c)
    y = CosimplicialComplex([c] * 3, bad_cofaces, x.codegens,
                            degenerate_above=2)
    rep2 = lemma_ij_check(y, max_level=1)
    assert not rep2["pass"]


def test_lemma_ij_on_cobar_of_representable():
    _, coalg = representable_module(FinitePointedSet(2), 2, F2,
                                    window=DegreeWindow(-1, 2))
    cs = laws.assemble(cobar(coalg, FinitePointedSet(2)))
    rep = lemma_ij_check(cs, max_level=1)
    assert rep["pass"], rep


# ---------------------------------------------------------------------------
# cobar and stages
# ---------------------------------------------------------------------------


def test_cobar_n1_linear():
    w = DegreeWindow(0, 2)
    A1 = SymmetricSequence(F2, 1, {1: triv(F2, 1)})
    c1 = trivial_coalgebra("top", A1, w)
    t = fat_tot(cobar(c1, FinitePointedSet(3)))
    assert {k: t.homology(k)[0] for k in t.support()} == {0: 3}


def test_cobar_cosimplicial_identities_checked():
    w = DegreeWindow(-2, 2)
    rng = random.Random(7)
    c = random_valid_coalgebra(rng, F2, "sp", 3, w)
    cs = laws.assemble(cobar(c, 0))
    cs.validate()  # exact cosimplicial identities
    assert cs.verify_degeneracy()


def test_sp_trivial_splits_to_orbit_sum():
    w = DegreeWindow(-2, 2)
    A3 = SymmetricSequence(F2, 3, {n: triv(F2, n) for n in (1, 2, 3)})
    c3 = trivial_coalgebra("sp", A3, w)
    t = fat_tot(cobar(c3, 0))
    o2 = homotopy_orbits(triv(F2, 2), DegreeWindow(0, 2))
    o3 = homotopy_orbits(triv(F2, 3), DegreeWindow(0, 2))
    for k in range(0, 1):
        want = (1 if k == 0 else 0) + o2.homology(k)[0] + o3.homology(k)[0]
        assert t.homology(k)[0] == want


def test_route_agreement_randomized():
    rng = random.Random(20250808)
    cases = 0
    for trial in range(8):
        source = rng.choice(["sp", "top"])
        N = rng.choice([2, 3]) if source == "sp" else 2
        w = DegreeWindow(-2, 2)
        c = random_valid_coalgebra(rng, F2, source, N, w)
        site = 0 if source == "sp" else FinitePointedSet(rng.choice([1, 2]))
        r1 = p_n(c, site, N, route="tot")
        r2 = p_n(c, site, N, route="pullback")
        win = r1["window"]
        h1 = {k: r1["complex"].homology(k)[0] for k in win.degrees()}
        h2 = {k: r2["complex"].homology(k)[0] for k in win.degrees()}
        assert h1 == h2, (source, N, trial, h1, h2)
        cases += 1
    assert cases == 8


def test_p_n_stabilizes():
    w = DegreeWindow(-2, 2)
    rng = random.Random(11)
    c = random_valid_coalgebra(rng, F2, "sp", 2, w)
    r2 = p_n(c, 0, 2, route="tot")
    r5 = p_n(c, 0, 5, route="tot")
    win = r2["window"]
    assert {k: r2["complex"].homology(k)[0] for k in win.degrees()} == \
        {k: r5["complex"].homology(k)[0] for k in win.degrees()}


def test_tower_map_composes():
    w = DegreeWindow(-2, 2)
    rng = random.Random(13)
    c = random_valid_coalgebra(rng, F2, "sp", 3, w)
    t32 = tower_map(c, 0, 3)
    t21 = tower_map(c, 0, 2)
    p3, p1 = t32["source"]["complex"], t21["target"]["complex"]
    # p3 -> p2 -> p1 is the direct projection p3 -> p1, entry for entry
    f = t21["map"].compose(t32["map"]).validate()
    direct = label_map(p3, p1, partial=True).validate()
    assert f.source is p3 and f.target is p1
    assert f.components == direct.components
    # and so on homology over the window both stages certify
    win = DegreeWindow(t32["source"]["window"].lo,
                       min(t32["source"]["window"].hi,
                           t21["target"]["window"].hi))
    for k in win.degrees():
        assert f.induced_on_homology(k) == direct.induced_on_homology(k)


def test_top_n2_route_agreement_with_theta():
    w = DegreeWindow(0, 3)
    F = F2
    A = SymmetricSequence(F, 2, {1: triv(F, 1, deg=1), 2: triv(F, 2)})
    c0 = trivial_coalgebra("top", A, w)
    rng = random.Random(3)
    th = random_theta(c0, 1, 2, rng)
    assert th is not None and not th.is_zero()
    c = TruncatedCoalgebra("top", A, w, {(1, 2): th}, komonad=c0.komonad)
    site = FinitePointedSet(2)
    r1 = p_n(c, site, 2, route="tot")
    r2 = p_n(c, site, 2, route="pullback")
    win = r1["window"]
    h1 = {k: r1["complex"].homology(k)[0] for k in win.degrees()}
    h2 = {k: r2["complex"].homology(k)[0] for k in win.degrees()}
    assert h1 == h2
    # and the theta genuinely matters: the trivial coalgebra differs
    r0 = p_n(c0, site, 2, route="tot")
    h0 = {k: r0["complex"].homology(k)[0] for k in win.degrees()}
    assert h0 != h1


def test_top_n3_tower_refuses_every_route():
    w = DegreeWindow(0, 2)
    A = staircase_sequence(F2, 3)
    c = trivial_coalgebra("top", A, w)
    site = FinitePointedSet(2)
    bound = "no route runs a based-spaces tower above truncation 2"
    with pytest.raises(ValueError, match=bound):
        cobar(c, site)
    for route in ("tot", "pullback"):
        with pytest.raises(ValueError, match=bound):
            p_n(c, site, 3, route=route)


# ---------------------------------------------------------------------------
# derived hom and the E^1 page
# ---------------------------------------------------------------------------


def test_derived_hom_unit():
    w = DegreeWindow(-2, 2)
    A1 = SymmetricSequence(F2, 1, {1: triv(F2, 1)})
    c1 = trivial_coalgebra("sp", A1, w)
    r = derived_hom(c1, c1, w)
    assert r["h0"] == 1


def test_sp_component_on_odd_map():
    # K_r(f) on the Tate model cone(N): an odd f picks up the sign
    # (-1)^{|f|} on the cone's shifted source part (and on an l3 edge)
    c = direct_sum([sphere(QQ, 0, label="a0"), sphere(QQ, 1, label="a1")])
    f = ChainMap(c, c, {1: SparseMatrix.from_rows([[1]], QQ)}, degree=-1)
    for n in (2, 3):
        a = trivial_action(c, YoungGroup.full(n))
        for r in range(1, n):
            model = SpComponentModel(a, r, DegreeWindow(0, 2))
            kf = model.apply(f, model).validate()
            assert kf.degree == -1 and not kf.is_zero()


def test_derived_hom_cofree_collapse():
    # mapping into a trivial-theta coalgebra with zero higher terms reduces
    # to the underlying hom; use N=2 with A'_2 = 0
    w = DegreeWindow(-2, 2)
    A = SymmetricSequence(F2, 2, {1: triv(F2, 1), 2: triv(F2, 2)})
    B = SymmetricSequence(F2, 2, {1: triv(F2, 1, label="b")})
    ca = trivial_coalgebra("sp", A, w)
    cb = trivial_coalgebra("sp", B, w)
    r = derived_hom(ca, cb, w)
    # hom(A_1, B_1) = k in degree 0 and the A_2-column contributes nothing
    assert r["h0"] == 1


def test_bk_e1_n1_single_column():
    w = DegreeWindow(-2, 2)
    A1 = SymmetricSequence(F2, 1, {1: triv(F2, 1)})
    c1 = trivial_coalgebra("sp", A1, w)
    r = bk_e1(c1, c1, w)
    dims = r["e1"].dims()
    assert all(s == 0 for (s, t) in dims)
    assert dims.get((0, 0)) == 1


def test_bk_e1_d1_squared_and_einf():
    rng = random.Random(5)
    w = DegreeWindow(-2, 2)
    for source in ("sp", "top"):
        N = 2
        c = random_valid_coalgebra(rng, F2, source, N, w)
        c2 = random_valid_coalgebra(rng, F2, source, N, w)
        r = bk_e1(c, c2, w)
        page = r["e1"]
        assert page.d1_squared_zero()
        # columns vanish for s >= N
        assert all(s < N for (s, t) in page.dims())
        einf = einf_dims(r)
        tot = r["tot"]
        for k in r["window"].degrees():
            anti = sum(einf.get((s, k + s), 0) for s in range(N + 1))
            assert anti == tot.homology(k)[0], (source, k)


def test_bk_e1_euler_characteristic():
    rng = random.Random(9)
    w = DegreeWindow(-2, 2)
    c = random_valid_coalgebra(rng, F2, "sp", 2, w)
    r = bk_e1(c, c, w)
    page = r["e1"]
    columns, _ = r["builder"].normalized()
    # E^1_{s,t} is the homology of the strict pieces of N^s in degree t, so
    # it is no larger than N^s_t
    for (s, t), dim in page.entries.items():
        assert dim <= sum(p.dim(t) for _, p in columns[s]), (s, t)
    # identity that must hold on the nose: sum over the antidiagonal of E^inf
    einf = einf_dims(r)
    for k in r["window"].degrees():
        assert sum(einf.get((s, k + s), 0) for s in range(3)) == \
            r["tot"].homology(k)[0]


def test_derived_hom_into_cofree_collapses():
    """Mapping into the cofree coalgebra K(B) reduces to Hom(A, B)."""
    from tcalc.comonads import SpComonad
    from tcalc.chainops import hom_complex
    from tcalc.chain import label_map
    F = F2
    w = DegreeWindow(-2, 2)
    # B concentrated in arity 2
    B = SymmetricSequence(F, 2, {2: triv(F, 2, label="b")})
    KB = SpComonad(B, w)
    # cofree coalgebra: terms (KB)_1 = Tate model, (KB)_2 = B_2; theta = delta
    t12 = KB.component(1, 2)
    terms = {1: t12.value, 2: B.term(2)}
    seq = SymmetricSequence(F, 2, terms)
    c0 = trivial_coalgebra("sp", seq, w)
    comp = c0.komonad.component(1, 2)
    # theta_{1,2}: (KB)_1 -> K_1((KB)_2): the rebuilt model of the same Tate
    # complex; the cofree structure is the slot identity
    theta = label_map(t12.value.complex, comp.value.complex, partial=True)
    cofree = TruncatedCoalgebra("sp", seq, w, {(1, 2): theta},
                                komonad=c0.komonad)
    # source: the trivial coalgebra on B itself
    cb = trivial_coalgebra("sp", B, w)
    # truncations must match: extend cb to the same shape
    r = derived_hom(cb, cofree, w)
    # extra codegeneracies collapse the tower: H matches hom(A, B) in the
    # certified interior
    h = hom_complex(B.term_complex(2), B.term_complex(2))
    # compare H_0 counts: hom-invariants of Sigma_2 maps mod homotopy
    from tcalc.derivedhom import equivariant_hom_complex
    full, inv, incl = equivariant_hom_complex(B.term(2), B.term(2))
    assert r["h0"] == inv.homology(0)[0]


def test_derived_hom_h0_cross_checked_with_classify():
    # N=2 sp: H_0 of the derived mapping complex decomposes as the classify
    # count plus the diagonal contributions
    from tcalc.classify import classify_2exc_sp
    from tcalc.derivedhom import equivariant_hom_complex
    w = DegreeWindow(-2, 2)
    A = SymmetricSequence(F2, 2, {1: triv(F2, 1), 2: triv(F2, 2)})
    c = trivial_coalgebra("sp", A, w)
    r = derived_hom(c, c, w)
    cl = classify_2exc_sp(A.term_complex(1), A.term(2), DegreeWindow(-3, 3))
    # diagonal contributions: chain self-maps of A_1 and equivariant
    # self-maps of A_2 in degree 0 (both one-dimensional here), plus the
    # off-diagonal H_1-class of hom(A_1, Tate A_2) appearing in total
    # degree 0 -- which is exactly the classify dimension shifted by the
    # 1-periodicity of the Tate target
    from tcalc.chainops import hom_complex
    d_diag = hom_complex(A.term_complex(1), A.term_complex(1)).homology(0)[0]
    full, inv, _ = equivariant_hom_complex(A.term(2), A.term(2))
    d_diag += inv.homology(0)[0]
    assert r["h0"] == d_diag + cl["dim"]


def test_validate_then_truncate_matches_truncate_then_validate():
    from tcalc.coalgebras import validate_coalgebra
    from tcalc.laws import truncate_coalgebra
    rng = random.Random(17)
    w = DegreeWindow(-2, 2)
    c = random_valid_coalgebra(rng, F2, "sp", 3, w)
    rep3 = validate_coalgebra(c)
    c2 = truncate_coalgebra(c, 2)
    rep2 = validate_coalgebra(c2)
    surviving = {k: v for k, v in rep3["squares"].items() if k[2] <= 2}
    assert rep2["squares"] == surviving


def test_equivariant_hom_invariants_are_the_conjugation_invariants():
    # Sigma_2 acts on k^2 = <u, v> by the involution g = [[1, 1], [0, -1]]
    # (g u = u, g v = u - v), which is no signed permutation.  A functional
    # phi is invariant when phi o g^{-1} = phi, that is phi(u) = 2 phi(v):
    # the invariants of Hom(A, k) are spanned by (2, 1)
    S2 = YoungGroup.full(2)
    c = ChainComplex(QQ, {0: 2}, labels={0: ("u", "v")})
    g = ChainMap(c, c, {0: SparseMatrix.from_rows([[1, 1], [0, -1]], QQ)})
    a = EquivariantComplex(c, S2, {0: g}).validate()
    k = trivial_action(ChainComplex(QQ, {0: 1}, labels={0: ("t",)}), S2)
    h, inv, incl = equivariant_hom_complex(a, k)
    assert h.labels[0] == (("hom", "u", "t"), ("hom", "v", "t"))
    assert inv.dims == {0: 1}
    phi = incl.component(0).by_column()[0]
    assert phi.get(0, 0) == 2 * phi.get(1, 0) != 0


@pytest.mark.parametrize("source, N, site", [("sp", 3, 0),
                                             ("top", 2, FinitePointedSet(2))])
def test_stages_build_no_coalgebra_and_no_comonad(monkeypatch, source, N,
                                                  site):
    # a stage below the truncation reads the coalgebra's own comonad and
    # theta on the arities it holds: no truncated copy is built, for p_n or
    # for the McCarthy square, which reads the stages n and n - 1
    w = W02 if source == "sp" else W03
    c = random_valid_coalgebra(random.Random(1), QQ, source, N, w,
                               staircase=False)
    built = []
    for cls in (TruncatedCoalgebra, SpComonad, TopComonad):
        def counted(self, *args, _init=cls.__init__, **kwargs):
            built.append(type(self).__name__)
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counted)
    p_n(c, site, 2)
    mccarthy_square_check(c, site, 2)
    assert built == []
    # the counters see the construction of a truncated copy
    laws.truncate_coalgebra(c, 1)
    assert built == ["TruncatedCoalgebra",
                     "SpComonad" if source == "sp" else "TopComonad"]


# ---------------------------------------------------------------------------
# odd and zero characteristic: every construction-time identity check runs
# with genuine signs (characteristic 2 hides Koszul sign errors)
# ---------------------------------------------------------------------------


def test_routes_and_identities_over_f3():
    from tcalc.fields import F3
    rng = random.Random(33)
    w = DegreeWindow(-2, 2)
    for N in (2, 3):
        c = random_valid_coalgebra(rng, F3, "sp", N, w)
        cs = laws.assemble(cobar(c, 0))
        cs.validate()            # exact cosimplicial identities with signs
        assert cs.verify_degeneracy()
        r1 = p_n(c, 0, N, route="tot")
        r2 = p_n(c, 0, N, route="pullback")
        win = r1["window"]
        h1 = {k: r1["complex"].homology(k)[0] for k in win.degrees()}
        h2 = {k: r2["complex"].homology(k)[0] for k in win.degrees()}
        assert h1 == h2, (N, h1, h2)
    # top case over F3 at a 2-point site
    ct = random_valid_coalgebra(rng, F3, "top", 2, DegreeWindow(0, 3))
    site = FinitePointedSet(2)
    r1 = p_n(ct, site, 2, route="tot")
    r2 = p_n(ct, site, 2, route="pullback")
    win = r1["window"]
    assert {k: r1["complex"].homology(k)[0] for k in win.degrees()} == \
        {k: r2["complex"].homology(k)[0] for k in win.degrees()}


def test_routes_over_rationals():
    rng = random.Random(34)
    w = DegreeWindow(-2, 2)
    c = random_valid_coalgebra(rng, QQ, "sp", 3, w)
    r1 = p_n(c, 0, 3, route="tot")
    r2 = p_n(c, 0, 3, route="pullback")
    win = r1["window"]
    h1 = {k: r1["complex"].homology(k)[0] for k in win.degrees()}
    h2 = {k: r2["complex"].homology(k)[0] for k in win.degrees()}
    assert h1 == h2
    # rational Tate parts vanish, so the tower splits into the layers
    from tcalc.laws import splitting_check
    rep = splitting_check(c, 0)
    assert rep["layers_match"], rep["details"]


def test_derived_hom_over_f3():
    from tcalc.fields import F3
    rng = random.Random(35)
    w = DegreeWindow(-2, 2)
    c = random_valid_coalgebra(rng, F3, "sp", 2, w)
    r = derived_hom(c, c, w)
    page = bk_e1(c, c, w)["e1"]
    assert page.d1_squared_zero()
    assert r["h0"] >= 1  # the identity class survives


# ---------------------------------------------------------------------------
# structure maps pinned entry for entry
# ---------------------------------------------------------------------------


def _structure_digest(cs):
    """SHA-256 over the level labels and every coface and codegeneracy
    matrix, entry by entry."""
    h = hashlib.sha256()
    for lvl, level in enumerate(cs.levels):
        h.update(repr(("level", lvl, sorted(level.labels.items()))).encode())
    for name, maps in (("coface", cs.cofaces), ("codegen", cs.codegens)):
        for key in sorted(maps):
            for k, m in sorted(maps[key].components.items()):
                h.update(repr((name, key, k, m.rows, m.cols, sorted(
                    (ij, str(v)) for ij, v in m.items()))).encode())
    return h.hexdigest()


def _self_hom(c):
    return laws.assemble(derived_hom(c, c)["builder"])


W02, W03, W04 = DegreeWindow(0, 2), DegreeWindow(0, 3), DegreeWindow(0, 4)
HOM_TOP3 = "7cc417b09c15292496292a4fd9c90a59bc3f43e98f6b143ebc2dc1bbeee860ed"


def _hom_top3():
    """A Top N = 3 coalgebra whose comonad has a genuine comultiplication."""
    return random_valid_coalgebra(random.Random(3), F2, "top", 3, W02)


def _cobar_top2_odd():
    """A Top N = 2 staircase over F3 with A_2 in degree 1, so theta_{1,2}'s
    translation into the cone slot carries the Koszul sign (-1)^{|a|} = -1,
    with a random nonzero theta_{1,2}, at a 2-point site."""
    A = staircase_sequence(F3, 2, top_deg=1)
    c0 = trivial_coalgebra("top", A, W04)
    th = random_theta(c0, 1, 2, random.Random(2))
    c = TruncatedCoalgebra("top", A, W04, {(1, 2): th}, komonad=c0.komonad)
    return laws.assemble(cobar(c, FinitePointedSet(2)))


@pytest.mark.parametrize("build, digest", [
    # Top N = 2 with a nonzero theta_{1,2} (trivial terms): the unit and
    # theta into the stratified-cone slot (1, 2)
    (lambda: laws.assemble(cobar(random_valid_coalgebra(
        random.Random(1), QQ, "top", 2, W03), FinitePointedSet(2))),
     "c5f93a1ac6d6d7bdc2b22a850547b98e6a94c8dab77d6823714ddaab64f22779"),
    # the same with A_2 in odd degree: theta_{1,2}'s Koszul sign
    (_cobar_top2_odd,
     "27bcc018676bfd29d46cc4c34b71a3faa0006fd5978f10fdf8b97ac3d30c5396"),
    # Sp N = 3 at S^0 with theta_{1,2}, theta_{1,3} and theta_{2,3}
    (lambda: laws.assemble(cobar(random_valid_coalgebra(
        random.Random(1), QQ, "sp", 3, W02, staircase=False), 0)),
     "36df1c3b47d96369db16d1e68b81fd55c571fe22d6596c0500ac42fa09730413"),
    # derived homs: K_q(h) o theta and the postcomposed theta on both
    # sources, and the genuine comultiplication of a Top N = 3 comonad
    (lambda: _self_hom(random_valid_coalgebra(random.Random(1), QQ, "sp", 3,
                                              W02, staircase=False)),
     "c71d1584fda85ffe0ccd94067b61111cc6eba0dd603a92c5b6005bdaa0353b52"),
    (lambda: _self_hom(random_valid_coalgebra(random.Random(1), QQ, "top", 2,
                                              W03)),
     "33e720693b1c54fdcdb707a16a8909ebec63f1ad813e6dcf059f76aa02ce0d95"),
    (lambda: _self_hom(_hom_top3()), HOM_TOP3),
], ids=["cobar-top2", "cobar-top2-odd", "cobar-sp3", "hom-sp3", "hom-top2",
        "hom-top3"])
def test_structure_maps_are_pinned(build, digest):
    assert _structure_digest(build()) == digest


@pytest.mark.parametrize("block, pair", [("_outer", "(0, 1)"),
                                         ("_inner", "(0, 2)")])
def test_block_certificate_catches_a_scaled_block(monkeypatch, tmp_path,
                                                  capsys, block, pair):
    # twice a chain map is one, so only a cosimplicial identity sees the
    # first nonzero block out of level 0 scaled by 2
    c = random_valid_coalgebra(random.Random(1), QQ, "sp", 3, W02,
                               staircase=False)
    made, scaled = getattr(SpCobarBuilder, block), []

    def corrupted(self, m, sk, tk):
        f = made(self, m, sk, tk)
        if m == 0 and not scaled and f is not None and not f.is_zero():
            scaled.append((sk, tk))
            return f.scale(2)
        return f
    monkeypatch.setattr(SpCobarBuilder, block, corrupted)
    message = "coface identity fails at level 0 " + pair
    with pytest.raises(ValueError, match=re.escape(message)):
        cobar(c, 0)
    assert scaled
    path = tmp_path / "c.json"
    path.write_text(serialize.dumps(serialize.coalgebra_to_json(c)))
    scaled.clear()
    assert cli.main(["cobar", "--site", "S0", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and scaled
    assert json.loads(err) == {"error": "validation", "detail": message}


@pytest.mark.parametrize("levels, kind, key, message", [
    (2, "cofaces", (0, 1), "coface identity fails at level 0 (0, 2)"),
    # sigma^0 delta^i = id out of level 0, and sigma^m out of level m + 1,
    # are checked too
    (1, "codegens", (1, 0), "sigma delta != id at (0; 0, 0)"),
    (2, "codegens", (2, 1), "mixed identity fails (1; 0, 1)"),
])
def test_bare_object_catches_a_scaled_map(levels, kind, key, message):
    c = circle(QQ)
    x = constant_cosimplicial(c, levels)
    maps = {"cofaces": dict(x.cofaces), "codegens": dict(x.codegens)}
    maps[kind][key] = ChainMap.identity(c).scale(2)
    y = CosimplicialComplex(x.levels, **maps)
    with pytest.raises(ValueError, match=re.escape(message)):
        y.validate()


def test_each_surjection_sum_builds_one_sigma_r_module(monkeypatch):
    # the comonad's components and the comultiplication's inner models
    # share their surjection sums, and with them one Sigma_r module each
    calls = []
    generator = SurjectionSum.sigma_r_generator

    def record(self, gi):
        calls.append((self, gi))
        return generator(self, gi)
    monkeypatch.setattr(SurjectionSum, "sigma_r_generator", record)
    assert _structure_digest(_self_hom(_hom_top3())) == HOM_TOP3
    built = [(id(w), gi) for w, gi in calls]
    assert built and len(set(built)) == len(built)


# ---------------------------------------------------------------------------
# the normal form: strict-chain pieces against the generic conormalization
# ---------------------------------------------------------------------------


POOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "perfbench", "pool")


def _pool_coalgebras():
    """(coalgebra document, cobar site) of every tower pool variant."""
    out = []
    for workload in ("tower-f2", "tower-q"):
        with open(os.path.join(POOL, workload + ".json")) as f:
            pool = json.load(f)
        for slot in pool["slots"]:
            for v, variant in enumerate(slot["variants"]):
                argv = next(job["argv"] for job in variant["jobs"]
                            if job["argv"][0] == "cobar")
                out.append(pytest.param(
                    variant["docs"]["c"], argv[argv.index("--site") + 1],
                    id="%s-%s-%d" % (workload, slot["name"], v)))
    return out


def _tot_summary(tot, w):
    """The homology dims of tot on w and its differential entry by entry."""
    return tot.homology_dims(w), {k: sorted(m.items())
                                  for k, m in tot.diff.items()}


def _normal_forms(builder, w):
    """(strict, generic): each the per-level dims of N^m and `_tot_summary`
    of Tot, from the strict pieces and from the conormalized levels of the
    whole cosimplicial object.  The kernel basis of the codegeneracies is
    the unit vectors on the strict coordinates, so the two Tots agree entry
    for entry."""
    def strict():
        columns, _ = builder.normalized()
        levels = [{k: sum(p.dim(k) for _, p in col) for k in
                   sorted({k for _, p in col for k in p.dims})}
                  for col in columns]
        return levels, _tot_summary(fat_tot(builder), w)

    def generic():
        cs = laws.assemble(builder)
        levels = [conormalized_level(cs, m)[0].dims for m in range(cs.M + 1)]
        return levels, _tot_summary(fat_tot(cs), w)

    return strict(), generic()


@pytest.mark.parametrize("doc, site", _pool_coalgebras())
def test_strict_tot_matches_conormalized_tot(doc, site):
    c = coalgebra_from_json(doc)
    if c.source == "sp":
        cobar_builder = lambda: SpCobarBuilder(c, c.truncation)
    else:
        cobar_builder = lambda: TopCobarBuilder(
            c, FinitePointedSet(int(site.split(":")[1])), c.truncation)
    for make in (cobar_builder, lambda: DerivedHomBuilder(c, c, c.window)):
        try:
            builder = make()
        except ValueError:
            # case-2: the Top cobar of a free A_2 has no theta_{1,2} block
            assert c.source == "top"
            continue
        strict, generic = _normal_forms(builder, c.window)
        assert strict == generic


def _delta0_blocks(builder):
    """(m, sk, tk) of every delta^0 block off the diagonal: tk puts an
    index q < sk[0] in front of sk."""
    return [(m, sk, tk) for m in range(builder.D)
            for sk in builder.hom[m] for tk in builder.hom[m + 1]
            if tk[1:] == sk and tk[0] < sk[0]]


@pytest.mark.parametrize("doc, site", [
    p for p in _pool_coalgebras()
    if p.values[0]["sequence"]["truncation"] > 1])
def test_lower_stages_match_the_stages_of_the_truncation(doc, site):
    # stage j < N reads the coalgebra's own terms of arity <= j, comonad and
    # theta; the j-truncation, a coalgebra of its own over a comonad built
    # afresh, gives the same Tot, label for label and matrix for matrix
    c = coalgebra_from_json(doc)
    at = 0 if c.source == "sp" else FinitePointedSet(int(site.split(":")[1]))
    for j in range(1, c.truncation):
        own = p_n(c, at, j)
        ref = p_n(laws.truncate_coalgebra(c, j), at, j)
        assert own["window"] == ref["window"]
        a, b = own["complex"], ref["complex"]
        assert a.labels == b.labels
        assert {k: sorted(m.items()) for k, m in a.diff.items()} == \
            {k: sorted(m.items()) for k, m in b.diff.items()}


@pytest.mark.parametrize("doc", [pytest.param(p.values[0], id=p.id)
                                 for p in _pool_coalgebras()] +
                         [pytest.param(None, id="hom-top3")])
def test_kq_theta_block_matches_the_per_column_composite(doc):
    # delta^0 built once per block from the model's rule for K on maps is
    # the per-element composite h |-> K_q(h) o theta, entry for entry
    c = _hom_top3() if doc is None else coalgebra_from_json(doc)
    builder = DerivedHomBuilder(c, c, c.window)
    for m, sk, tk in _delta0_blocks(builder):
        phi = builder._outer(m, sk, tk)     # validated, as a block
        assert phi.components == kq_theta_by_columns(
            builder, m, sk, tk).components, (m, sk, tk)


def _case1_documents():
    """The coalgebra of every tower pool variant with a case-1 job (the
    derived-hom and bk-e1 jobs that once failed to certify K_q(h) alone)."""
    out = []
    for workload in ("tower-f2", "tower-q"):
        with open(os.path.join(POOL, workload + ".json")) as f:
            pool = json.load(f)
        for slot in pool["slots"]:
            for v, variant in enumerate(slot["variants"]):
                if any(job.get("defect") == "case-1"
                       for job in variant["jobs"]):
                    out.append(pytest.param(variant["docs"]["c"], id="%s-%s-%d"
                                            % (workload, slot["name"], v)))
    return out


@pytest.mark.parametrize("doc", _case1_documents())
def test_case1_derived_hom_and_bk_e1(doc):
    c = coalgebra_from_json(doc)
    hom = derived_hom(c, c)
    assert hom["h0"] >= 1
    r = bk_e1(c, c)
    assert r["e1"].d1_squared_zero()
    einf, w = einf_dims(r), r["window"]
    dims = r["tot"].homology_dims(w)
    for k in w.degrees():
        assert sum(einf.get((s, k + s), 0) for s in range(r["builder"].D + 1)
                   ) == dims.get(k, 0), k
    # the truncation leaves the window alone: with every Tate model built
    # one degree wider on each side, its values do not move
    wide = widened(c, 1)
    assert derived_hom(wide, wide, c.window)["complex"].homology_dims(w) == \
        hom["complex"].homology_dims(w) == dims


@pytest.mark.parametrize("doc, site", [
    p for p in _pool_coalgebras() if p.values[0]["source"] == "sp"] +
    [pytest.param(None, None, id="hom-top3")])
def test_sp_cobar_pieces_are_the_comonad_components(doc, site):
    # the Sp cobar and the derived hom read the coalgebra's own comonad
    # models, not copies: a piece of level m >= 1 is the value of K_q A_n on
    # a chain (q, ..., n), and of the comultiplication's outer model on a
    # strictly nested (q, s, n), which the Sp comonad drops
    c = _hom_top3() if doc is None else coalgebra_from_json(doc)
    K = c.komonad
    builders = [DerivedHomBuilder(c, c, c.window)]
    if c.source == "sp":
        builders.append(SpCobarBuilder(c, c.truncation))
    for builder in builders:
        assert builder.pieces[1]
        for m in range(1, builder.D + 1):
            for chain, piece in builder.pieces[m].items():
                q, n = chain[0], chain[-1]
                if m == 2 and q < chain[1] < n:
                    assert c.source == "top"
                    assert piece is K.delta_outer[chain].value, chain
                else:
                    assert piece is K.component(q, n).value, chain
    if doc is None:
        assert (1, 2, 3) in builders[0].pieces[2]


def _split_homology(c, k, w):
    """(+)_{j<=k} H((A_j)_{h Sigma_j}) on w: what H(P_k) of a functor from
    spectra to spectra is when its tower splits into its layers."""
    out = {}
    for j in range(1, k + 1):
        term = c.sequence.term(j)
        if term is not None:
            for deg, dim in homotopy_orbits(term, w).homology_dims(w).items():
                out[deg] = out.get(deg, 0) + dim
    return out


# the tower-q Sp pool documents, and seeded random Sp coalgebras (F, N,
# window, seed) over Q, F5 and F7: over these fields the Tate construction
# of every Sigma_k with k <= 3 is acyclic, so their towers split
_SPLIT_INPUTS = [
    pytest.param(p.values[0], id=p.id) for p in _pool_coalgebras()
    if p.id.startswith("tower-q-") and p.values[0]["source"] == "sp"] + [
    pytest.param((field_from_name(name), N, w, seed),
                 id="random-%s-N%d-%d" % (name, N, seed))
    for name in ("Q", "F5", "F7") for N, w in ((2, W03), (3, W02))
    for seed in range(3)]


def _split_input(doc):
    """The coalgebra of a pool document, or the seeded random draw (F, N,
    window, seed)."""
    if isinstance(doc, dict):
        return coalgebra_from_json(doc)
    F, N, w, seed = doc
    return random_valid_coalgebra(random.Random(seed), F, "sp", N, w,
                                  staircase=False)


@pytest.mark.parametrize("doc", _SPLIT_INPUTS)
def test_both_p_n_routes_give_the_split_answer_over_q(doc):
    # over Q, and over F_p with p > N, the Tate construction of every
    # Sigma_k with k <= N is acyclic, so the tower of a functor from spectra
    # to spectra splits into its layers (N. J. Kuhn, Geom. Topol.
    # Monographs 10, 2007): an answer that reads no comonad model, checked
    # on each route's printed window
    c = _split_input(doc)
    for k in range(1, c.truncation + 1):
        builder = None
        for route in ("tot", "pullback"):
            st = p_n(c, 0, k, route=route, builder=builder)
            builder, w = st["builder"], st["window"]
            assert st["complex"].homology_dims(w) == \
                _split_homology(c, k, w), (k, route)


def _split_hom_homology(c, w):
    """(+)_n H(Hom(A_n, A_n)^{Sigma_n}) on w: what the derived mapping
    complex of c to itself is when the tower splits into its layers."""
    out = {}
    for n in c.sequence.arities():
        a = c.sequence.term(n)
        inv = equivariant_hom_complex(a, a)[1]
        for deg, dim in inv.homology_dims(w).items():
            out[deg] = out.get(deg, 0) + dim
    return out


@pytest.mark.parametrize("doc", _SPLIT_INPUTS)
def test_derived_hom_and_einf_give_the_split_answer_over_q(doc):
    # the same splitting on the Hom side: the derived maps of c to itself
    # are the equivariant maps of each layer, an answer that reads no
    # comonad model; the E-infinity totals sum_s E_{s, k+s} add up to it
    # too, both on the printed window
    c = _split_input(doc)
    r = derived_hom(c, c)
    w = r["window"]
    want = _split_hom_homology(c, w)
    assert r["complex"].homology_dims(w) == want
    bk = bk_e1(c, c)
    totals = {}
    for (s, t), dim in einf_dims(bk).items():
        totals[t - s] = totals.get(t - s, 0) + dim
    assert bk["window"] == w and totals == want


def test_job_paths_leave_the_cosimplicial_object_unbuilt(monkeypatch):
    """p_n (both routes), derived_hom, bk_e1, the McCarthy square and cobar
    build no level sum and no CosimplicialComplex.  cobar certifies its
    builder on the keyed blocks, and checks there every identity that the
    assembled object's validate() checks."""
    builders, objects, sums, agreed = [], [], [], []
    init, new = _Levels.__init__, CosimplicialComplex.__init__
    agree, direct = cosimplicial._agree, laws.direct_sum

    def record(self, *args):
        builders.append(self)
        init(self, *args)

    def record_object(self, *args, **kwargs):
        objects.append(self)
        new(self, *args, **kwargs)

    def record_sum(parts):
        sums.append(parts)
        return direct(parts)

    def record_agree(*args):
        agreed.append(args)
        return agree(*args)
    monkeypatch.setattr(_Levels, "__init__", record)
    monkeypatch.setattr(CosimplicialComplex, "__init__", record_object)
    monkeypatch.setattr(laws, "direct_sum", record_sum)
    monkeypatch.setattr(cosimplicial, "_agree", record_agree)
    # levels 0..2 have 3 coface identities, 6 sigma delta = id, 2 mixed and
    # 1 codegeneracy identity; levels 0..1 have 2 sigma delta = id
    for source, N, w, site, identities in (
            ("sp", 3, W02, 0, 12), ("top", 2, W03, FinitePointedSet(2), 2)):
        c = random_valid_coalgebra(random.Random(1), QQ, source, N, w,
                                   staircase=False)
        builders.clear()
        for route in ("tot", "pullback"):
            p_n(c, site, N, route=route)
        derived_hom(c, c)
        bk_e1(c, c)
        assert mccarthy_square_check(c, site, N)["acyclic"]
        assert len(builders) == 6
        agreed.clear()
        b = cobar(c, site)
        assert b is builders[-1]
        assert not objects and not sums and len(agreed) == identities
        cs = laws.assemble(b)
        assert objects == [cs] and len(sums) == len(cs.levels)
        agreed.clear()
        cs.validate()
        assert len(agreed) == identities
        objects.clear()
        sums.clear()


def test_cobar_job_keeps_no_level_sized_maps(tmp_path, capsys):
    # the traced peak of the cobar job on tower-q's sp3-sum variant 0: the
    # certificate on the keyed blocks builds no level sum and no level-sized
    # coface or codegeneracy (their assembly peaked at 4.2 MB)
    with open(os.path.join(POOL, "tower-q.json")) as f:
        [slot] = [s for s in json.load(f)["slots"] if s["name"] == "sp3-sum"]
    path = tmp_path / "c.json"
    path.write_text(serialize.dumps(slot["variants"][0]["docs"]["c"]))
    argv = ["cobar", "--site", "S0", str(path)]
    assert cli.main(argv) == 0      # every module it runs is loaded
    first = capsys.readouterr().out
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().out == first
    assert peak <= 3.0e6, peak
