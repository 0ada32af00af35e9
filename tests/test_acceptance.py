"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance is exact (dimension equalities over exact fields); there are
no numerical thresholds anywhere.  Randomized criteria use fixed seeds."""

import random
from math import factorial

import pytest

from helpers import (
    corrupt_square_map, induced_from_trivial_subgroup, random_theta,
    random_valid_coalgebra, staircase_sequence, tate_s2_oracle, triv,
    truncate,
)
from tcalc.chain import (
    ChainComplex, ChainMap, DegreeWindow, cone, direct_sum, sphere,
)
from tcalc.chainops import shift
from tcalc.classify import (
    classify_2exc_sp, classify_2exc_top, classify_3exc_sp,
    mccarthy_square_check,
)
from tcalc.coalgebras import (
    FinitePointedSet, TruncatedCoalgebra, trivial_coalgebra,
    validate_coalgebra,
)
from tcalc.comonads import SpComponentModel, l3_complex
from tcalc.derivedhom import bk_e1, einf_dims
from tcalc.equivariant import regular_module, tate, trivial_action
from tcalc.equivops import is_free
from tcalc.fields import F2, QQ
from tcalc.laws import (
    KPrimeComonad, bar_construction, box_product, commutative_operad,
    constant_cosimplicial, counit, count_maps_mod_homotopy, homotopy_between,
    lemma_ij_check, nu_component, representable_module, spectral_lie,
    splitting_check, top_coassociativity_check,
)
from tcalc.operads import partition_poset_nerve
from tcalc.perms import YoungGroup
from tcalc.sequences import SymmetricSequence
from tcalc.sparse import SparseMatrix
from tcalc.topcomonad import TopComonad
from tcalc.tower import cobar, derived_hom, fat_tot, p_n, tower_map


def _report(num, name, ok):
    print("ACCEPTANCE %02d %-34s %s" % (num, name, "PASS" if ok else "FAIL"))
    assert ok, "criterion %d (%s) failed" % (num, name)


# -- 1 -----------------------------------------------------------------------

def test_criterion_01_partition_bar_agreement():
    com = commutative_operad(F2, 4)
    bc, normalized = bar_construction(com)
    ok = True
    for n in (2, 3, 4):
        c = normalized[n]
        for k in c.support():
            want = factorial(n - 1) if k == n - 1 else 0
            ok = ok and c.homology(k)[0] == want
        _, comparison = partition_poset_nerve(F2, n)
        for k in range(0, n + 1):
            ok = ok and comparison.homology(k)[0] == c.homology(k)[0]
    _report(1, "partition/bar agreement", ok)


# -- 2 -----------------------------------------------------------------------

def test_criterion_02_spectral_lie_arity_2():
    op = spectral_lie(F2, 2)
    d2 = op.term_complex(2)
    dims = {k: d2.homology(k)[0] for k in d2.support()}
    ok = {k: v for k, v in dims.items() if v} == {-1: 1}
    _report(2, "dual tree operad arity 2 = S^-1", ok)


# -- 3 -----------------------------------------------------------------------

def test_criterion_03_tate_oracles():
    w = DegreeWindow(-6, 6)
    t = tate(triv(F2, 2), w)
    ok = all(t.homology(k)[0] == tate_s2_oracle(k) for k in w.degrees())
    ok = ok and tate(triv(QQ, 2), w).is_acyclic(w)
    ok = ok and tate(regular_module(F2, YoungGroup.full(2)),
                     w).is_acyclic(w)
    # a window two degrees wider on each side leaves the homology on w
    t2 = tate(triv(F2, 2), w.expand(2))
    ok = ok and all(t2.homology(k)[0] == t.homology(k)[0]
                    for k in w.degrees())
    _report(3, "Tate oracles on [-6,6]", ok)


# -- 4 -----------------------------------------------------------------------

def test_criterion_04_counit_equivalences():
    rng = random.Random(404)
    w = DegreeWindow(0, 3)
    failures = 0
    for trial in range(50):
        N = rng.choice([1, 2, 3])
        terms = {}
        total = 0
        for n in range(1, N + 1):
            if total >= 8:
                break
            kind = rng.choice(["trivial", "regular", "shifted"])
            if kind == "trivial":
                t = triv(F2, n, deg=rng.choice([0, 1]))
            elif kind == "regular":
                t = regular_module(F2, YoungGroup.full(n),
                                   degree=rng.choice([0, 1]))
            else:
                t = trivial_action(shift(sphere(F2, 0), rng.choice([0, 1, 2])),
                                   YoungGroup.full(n))
            if total + t.complex.total_dim() > 8:
                continue
            total += t.complex.total_dim()
            terms[n] = t
        if not terms:
            terms[1] = triv(F2, 1)
        N_eff = max(terms)
        A = SymmetricSequence(F2, N_eff, terms)
        K = TopComonad(A, w)
        for r in A.arities():
            eps = counit(K, r)
            if eps is None or not cone(eps).is_acyclic(w):
                failures += 1
        compN = K.component(N_eff, N_eff)
        if compN is not None:
            epsN = counit(K, N_eff)
            if not cone(epsN).is_acyclic(w):
                failures += 1
    _report(4, "counit equivalences (50 random)", failures == 0)


# -- 5 -----------------------------------------------------------------------

def test_criterion_05_comonad_laws():
    rng = random.Random(505)
    w = DegreeWindow(0, 2)
    ok = True
    for trial in range(25):
        deg = rng.choice([0, 1])
        if rng.random() < 0.5:
            term = trivial_action(sphere(F2, deg, label="c%d" % trial),
                                  YoungGroup.full(3))
        else:
            term = regular_module(F2, YoungGroup.full(3), degree=deg)
        ok = ok and top_coassociativity_check(term, 1, 2, 3, w)
    # counit diagrams: epsilon after the diagonal comultiplications is the
    # identity on every component of a sample comonad value
    A = staircase_sequence(F2, 3)
    K = TopComonad(A, w)
    for (r, s, n), d in K.delta.items():
        if s == r or s == n:
            ident = ChainMap.identity(K.component(r, n).value.complex)
            ok = ok and d.components == ident.components
    # K' laws exactly: counit/section identities and constructed deltas
    KP = KPrimeComonad(A)
    for r in (1, 2, 3):
        eps = KP.epsilon(r)
        sec = KP.epsilon_section(r)
        ok = ok and eps.compose(sec).components == \
            ChainMap.identity(A.term_complex(r)).components
    ok = ok and KP.delta.get((1, 2, 3)) is not None
    # nu: componentwise the norm; counit-compatible exactly; iso on free
    for (r, n), comp in K.components.items():
        kp_comp = KP.component(r, n)
        if kp_comp is None or kp_comp.sursum is None:
            continue
        nu = nu_component(comp, kp_comp, w)
        if r == n:
            # epsilon' o nu = epsilon on the diagonal
            lhs = KP.epsilon(r).compose(nu)
            rhs = counit(K, r)
            for k in A.term_complex(r).dims:
                ok = ok and dict(lhs.induced_on_homology(k).items()) == \
                    dict(rhs.induced_on_homology(k).items())
    _report(5, "comonad laws (25 random + K' + nu)", ok)


# -- 6 -----------------------------------------------------------------------

def test_criterion_06_divided_powers():
    from tcalc.laws import divided_power_check
    ok = True
    for m in (1, 2, 3):
        for N in (2, 3):
            module, coalg = representable_module(
                FinitePointedSet(m), N, F2, window=DegreeWindow(-1, 2))
            rep = divided_power_check(coalg, module=module)
            ok = ok and rep["valid"]
            K = coalg.komonad
            KP = KPrimeComonad(coalg.sequence)
            for (r, n), comp in K.components.items():
                kp = KP.component(r, n)
                if kp is None or kp.sursum is None:
                    continue
                nu = nu_component(comp, kp, coalg.window)
                ok = ok and nu.is_iso()
    _report(6, "divided power factorization M(X)", ok)


# -- 7 -----------------------------------------------------------------------

def test_criterion_07_route_agreement():
    rng = random.Random(707)
    ok = True
    cases = []
    for trial in range(20):
        source = rng.choice(["sp", "sp", "top"])
        N = rng.choice([2, 3]) if source == "sp" else rng.choice([1, 2])
        cases.append((source, N))
    for (source, N) in cases:
        w = DegreeWindow(-2, 2) if source == "sp" else DegreeWindow(0, 3)
        c = random_valid_coalgebra(rng, F2, source, N, w)
        site = 0 if source == "sp" else FinitePointedSet(rng.choice([1, 2]))
        r1 = p_n(c, site, N, route="tot")
        r2 = p_n(c, site, N, route="pullback")
        win = r1["window"]
        h1 = {k: r1["complex"].homology(k)[0] for k in win.degrees()}
        h2 = {k: r2["complex"].homology(k)[0] for k in win.degrees()}
        ok = ok and h1 == h2
        # stabilization: p_n = p_N for n >= N
        r3 = p_n(c, site, N + 2, route="tot")
        h3 = {k: r3["complex"].homology(k)[0] for k in win.degrees()}
        ok = ok and h3 == h1
    # tower maps compose (validated chain maps through the truncations)
    c = random_valid_coalgebra(rng, F2, "sp", 3, DegreeWindow(-2, 2))
    t32 = tower_map(c, 0, 3)
    t21 = tower_map(c, 0, 2)
    composite = t21["map"].compose(t32["map"])
    composite.validate()
    _report(7, "tower route agreement (20 random)", ok)


# -- 8 -----------------------------------------------------------------------

def test_criterion_08_mccarthy_and_mutations():
    rng = random.Random(808)
    w = DegreeWindow(-2, 2)
    ok = True
    # acyclic on valid inputs
    for trial in range(4):
        c = random_valid_coalgebra(rng, F2, "sp", 2, w)
        ok = ok and mccarthy_square_check(c, 0, 2)["acyclic"]
    ctop = random_valid_coalgebra(rng, F2, "top", 2, DegreeWindow(0, 3))
    ok = ok and mccarthy_square_check(ctop, FinitePointedSet(2), 2)["acyclic"]
    # mutation testing: corrupt one entry of one structure map of the square
    base_seq = staircase_sequence(F2, 2)
    c0 = trivial_coalgebra("sp", base_seq, w)
    th = random_theta(c0, 1, 2, rng)
    c = TruncatedCoalgebra("sp", base_seq, w, {(1, 2): th},
                           komonad=c0.komonad)
    detected = 0
    invisible_ok = 0
    trials = 100
    for t in range(trials):
        which = rng.randrange(4)
        state = {}

        def mutate(f, state=state):
            degs = sorted(set(f.source.dims) &
                          {k - f.degree for k in f.target.dims}) or \
                sorted(f.source.dims)
            k = rng.choice(degs)
            rows = f.target.dim(k + f.degree)
            cols = f.source.dim(k)
            if rows == 0 or cols == 0:
                state["skip"] = True
                return f
            dm = SparseMatrix.from_entries(
                rows, cols, F2, {(rng.randrange(rows), rng.randrange(cols)): 1})
            comps = dict(f.components)
            comps[k] = f.component(k) + dm
            bad = ChainMap(f.source, f.target, comps, f.degree)
            state["orig"] = f
            state["bad"] = bad
            return bad

        with pytest.MonkeyPatch.context() as mp:
            mutated = corrupt_square_map(mp, which, mutate)
            rep = mccarthy_square_check(c, 0, 2)
        assert mutated["calls"] == 1, (which, mutated)
        if state.get("skip"):
            detected += 1  # no content to corrupt in that slot: vacuous
            continue
        if not rep["acyclic"]:
            detected += 1
        else:
            # undetected: the corrupted map must be homotopic to the original
            h = homotopy_between(state["orig"], state["bad"])
            if h is not None:
                invisible_ok += 1
            ok = ok and h is not None
    ok = ok and (detected + invisible_ok == trials)
    ok = ok and detected >= 0.95 * (trials - invisible_ok)
    print("  mutation stats: detected=%d invisible=%d" %
          (detected, invisible_ok))
    _report(8, "McCarthy squares + mutations", ok)


# -- 9 -----------------------------------------------------------------------

def test_criterion_09_splitting():
    ok = True
    module, coalg = representable_module(FinitePointedSet(2), 2, F2,
                                         window=DegreeWindow(-2, 3))
    rep = splitting_check(coalg, FinitePointedSet(2))
    ok = ok and rep["pass"] and rep["module_match"] is True
    m3, c3 = representable_module(FinitePointedSet(3), 2, F2,
                                  window=DegreeWindow(-2, 3))
    rep3 = splitting_check(c3, FinitePointedSet(2))
    ok = ok and rep3["pass"]
    # sp free terms
    A = SymmetricSequence(F2, 2, {1: regular_module(F2, YoungGroup.full(1)),
                                  2: regular_module(F2, YoungGroup.full(2))})
    c = trivial_coalgebra("sp", A, DegreeWindow(-2, 2))
    rep2 = splitting_check(c, 0)
    ok = ok and rep2["pass"]
    _report(9, "splitting (free coefficients)", ok)


# -- 10 ----------------------------------------------------------------------

def test_criterion_10_classification_counts():
    w = DegreeWindow(-3, 3)
    ok = classify_2exc_sp(sphere(F2, 0), triv(F2, 2), w)["classes"] == 2
    ok = ok and classify_2exc_sp(sphere(QQ, 0), triv(QQ, 2),
                                 w)["classes"] == 1
    ok = ok and classify_2exc_top(
        sphere(F2, 0), trivial_action(sphere(F2, -1), YoungGroup.full(2)),
        w)["classes"] == 2
    # brute force agreement for total dimension <= 3
    for a2 in (triv(F2, 2), trivial_action(sphere(F2, -1),
                                           YoungGroup.full(2))):
        t = tate(a2, w)
        bf = count_maps_mod_homotopy(sphere(F2, 0), truncate(t, -2, 2))
        ok = ok and classify_2exc_sp(sphere(F2, 0), a2, w)["dim"] == bf
    _report(10, "classification counts", ok)


# -- 11 ----------------------------------------------------------------------

def test_criterion_11_three_excisive_vacuity():
    w = DegreeWindow(-3, 3)
    ok = True
    for a3 in (triv(F2, 3), regular_module(F2, YoungGroup.full(3)),
               trivial_action(direct_sum([sphere(F2, 0), sphere(F2, 1)]),
                              YoungGroup.full(3))):
        k23 = SpComponentModel(a3, 2, w)
        inner = DegreeWindow(w.lo + 1, w.hi - 1)
        kk = SpComponentModel(k23.value, 1, inner)
        ok = ok and kk.value.complex.is_acyclic(inner)
    rep = classify_3exc_sp(sphere(F2, 0), triv(F2, 2), triv(F2, 3), w)
    ok = ok and rep["square_vacuous"] and len(rep["dims"]) == 3
    _report(11, "3-excisive vacuity", ok)


# -- 12 ----------------------------------------------------------------------

def test_criterion_12_bk_spectral_sequence():
    rng = random.Random(1212)
    ok = True
    for trial in range(10):
        source = rng.choice(["sp", "top"])
        N = rng.choice([1, 2]) if source == "top" else rng.choice([1, 2, 3])
        w = DegreeWindow(-2, 2)
        c = random_valid_coalgebra(rng, F2, source, N, w)
        c2 = random_valid_coalgebra(rng, F2, source, N, w)
        r = bk_e1(c, c2, w)
        page = r["e1"]
        ok = ok and page.d1_squared_zero()
        ok = ok and all(s < max(N, 1) for (s, t) in page.dims())
        einf = einf_dims(r)
        e2 = page.e2_dims()
        tot = r["tot"]
        for k in r["window"].degrees():
            anti_inf = sum(einf.get((s, k + s), 0) for s in range(N + 1))
            ok = ok and anti_inf == tot.homology(k)[0]
            # E^N bounds E^infinity entrywise
            for s in range(N + 1):
                ok = ok and einf.get((s, k + s), 0) <= \
                    (e2.get((s, k + s), 0) if N >= 2 else
                     page.dims().get((s, k + s), 0))
        if N <= 2:
            # the sequence degenerates at E^2 = E^N: interior entries agree
            for k in DegreeWindow(r["window"].lo + 1,
                                  max(r["window"].hi - 1,
                                      r["window"].lo + 1)).degrees():
                for s in range(N):
                    ok = ok and e2.get((s, k + s), 0) == \
                        einf.get((s, k + s), 0)
    _report(12, "BK spectral sequence (10 random)", ok)


# -- 13 ----------------------------------------------------------------------

def test_criterion_13_box_product():
    c = ChainComplex(F2, {0: 2, 1: 2},
                     {1: SparseMatrix.from_rows([[1, 1], [1, 1]], F2)})
    unit = constant_cosimplicial(sphere(F2, 0), 4)
    x = constant_cosimplicial(c, 4)
    b = box_product(unit, x, max_level=4)
    ok = True
    for m in range(5):
        ok = ok and {k: b.levels[m].dim(k) for k in b.levels[m].support()} \
            == {0: 2, 1: 2}
    y = constant_cosimplicial(sphere(F2, 1), 4)
    z = constant_cosimplicial(sphere(F2, 0), 4)
    left = box_product(box_product(x, y, 4), z, 4)
    right = box_product(x, box_product(y, z, 4), 4)
    for m in range(5):
        ok = ok and {k: left.levels[m].dim(k)
                     for k in left.levels[m].support()} == \
            {k: right.levels[m].dim(k) for k in right.levels[m].support()}
    rep = lemma_ij_check(x, max_level=2)
    ok = ok and rep["pass"]
    ok = ok and all(lv["homotopy"] and lv["quasi_iso"]
                    for lv in rep["levels"].values())
    _report(13, "box product and collapse lemma", ok)


# -- 14 ----------------------------------------------------------------------

def test_criterion_14_l3_model():
    L = l3_complex(QQ)
    ok = L.complex.homology(1)[0] == 2 and L.complex.homology(0)[0] == 0
    try:
        L.validate()
    except ValueError:
        ok = False
    Lf = l3_complex(F2)
    ok = ok and Lf.complex.homology(1)[0] == 2
    _report(14, "L_3 model", ok)
