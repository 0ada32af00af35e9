"""Coalgebra validation, representables, divided powers, truncation."""

import hashlib
import random

import pytest

from helpers import random_theta
from tcalc.chain import ChainMap, DegreeWindow, sphere
from tcalc.coalgebras import (
    FinitePointedSet, TruncatedCoalgebra, trivial_coalgebra,
    validate_coalgebra,
)
from tcalc.equivariant import regular_module, trivial_action
from tcalc.equivops import is_free
from tcalc.fields import F2, F3, QQ
from tcalc.laws import (
    KPrimeComonad, divided_power_check, evaluation_pairing_check,
    representable_module, truncate_coalgebra, validate_right_module,
)
from tcalc.perms import YoungGroup
from tcalc.sequences import SymmetricSequence
from tcalc.topcomonad import SurjectionSum, TopComonad
from tcalc.tower import derived_hom


def triv(F, n, deg=0, label="a"):
    return trivial_action(sphere(F, deg, label="%s%d" % (label, n)),
                          YoungGroup.full(n))


def seq(F, terms):
    return SymmetricSequence(F, max(terms), terms)


def test_trivial_coalgebra_valid_top():
    w = DegreeWindow(0, 3)
    A = seq(F2, {1: triv(F2, 1), 2: triv(F2, 2), 3: triv(F2, 3)})
    c = trivial_coalgebra("top", A, w)
    rep = validate_coalgebra(c)
    assert rep["valid"], rep


def test_sp_n2_any_theta_valid():
    w = DegreeWindow(-3, 3)
    A = seq(F2, {1: triv(F2, 1), 2: triv(F2, 2)})
    rng = random.Random(5)
    c = trivial_coalgebra("sp", A, w)
    th = random_theta(c, 1, 2, rng)
    assert th is not None and not th.is_zero()
    c2 = TruncatedCoalgebra("sp", A, w, {(1, 2): th}, komonad=c.komonad)
    rep = validate_coalgebra(c2)
    assert rep["valid"], rep


def test_sp_n3_squares_vacuous():
    w = DegreeWindow(-2, 2)
    A = seq(F2, {1: triv(F2, 1), 2: triv(F2, 2), 3: triv(F2, 3)})
    rng = random.Random(7)
    c = trivial_coalgebra("sp", A, w)
    theta = {}
    for (r, n) in ((1, 2), (1, 3), (2, 3)):
        th = random_theta(c, r, n, rng)
        if th is not None:
            theta[(r, n)] = th
    c2 = TruncatedCoalgebra("sp", A, w, theta, komonad=c.komonad)
    rep = validate_coalgebra(c2)
    assert rep["valid"], rep
    assert rep["squares"].get((1, 2, 3)) == "vacuous"


def _staircase_terms(F):
    return seq(F, {1: triv(F, 1, deg=2), 2: triv(F, 2, deg=1),
                   3: triv(F, 3, deg=0)})


def _top_n3_staircase():
    """A Top N=3 coalgebra over F2 with nonzero theta_{1,2} and theta_{2,3}
    (window 0:4, seed 11), and its trivial-theta companion on the same
    comonad.  Staircase degrees make nonzero theta maps exist: a theta_{r,n}
    needs deg A_r >= (n - r) + deg A_n."""
    w = DegreeWindow(0, 4)
    A = _staircase_terms(F2)
    c0 = trivial_coalgebra("top", A, w)
    rng = random.Random(11)
    th12 = random_theta(c0, 1, 2, rng)
    th23 = random_theta(c0, 2, 3, rng)
    assert th12 is not None and th23 is not None
    assert not th12.is_zero() and not th23.is_zero()
    return c0, TruncatedCoalgebra("top", A, w, {(1, 2): th12, (2, 3): th23},
                                  komonad=c0.komonad)


def test_top_n3_square_checked_and_can_fail():
    c0, c2 = _top_n3_staircase()
    rep0 = validate_coalgebra(c0)
    assert rep0["valid"]
    rep2 = validate_coalgebra(c2)
    # whether valid or not, the square must have been genuinely computed
    assert (1, 2, 3) in rep2["squares"]
    assert rep2["squares"][(1, 2, 3)] != "vacuous"


def test_top_sigma_2_action_is_certified_where_built(monkeypatch):
    # zero one degree of the Sigma_2 generator of every surjection sum: the
    # staircase's comonad builds K_2 A_3 and the comultiplication's inner
    # K_2, and each validates its Sigma_2 action
    generator = SurjectionSum.sigma_r_generator

    def corrupted(self, gi):
        g = generator(self, gi)
        if self.r != 2:
            return g
        k = min(k for k, m in g.components.items() if not m.is_zero())
        return ChainMap(g.source, g.target,
                        {**g.components, k: g.components[k].scale(0)})
    monkeypatch.setattr(SurjectionSum, "sigma_r_generator", corrupted)
    with pytest.raises(ValueError, match="generator action is not invertible"):
        _top_n3_staircase()


def _map_digest(f):
    """SHA-256 over a chain map's source and target labels, its degree and
    every matrix entry."""
    h = hashlib.sha256()
    for c in (f.source, f.target):
        h.update(repr(sorted(c.labels.items())).encode())
    h.update(repr(f.degree).encode())
    for k, m in sorted(f.components.items()):
        h.update(repr((k, m.rows, m.cols, sorted(
            (ij, str(v)) for ij, v in m.items()))).encode())
    return h.hexdigest()


def test_top_n3_square_route_is_pinned():
    # K_1(theta~_{2,3}) into the outer model of delta_{1,2,3}, the map the
    # (1, 2, 3) square's second route starts with, entry for entry
    _, c2 = _top_n3_staircase()
    assert validate_coalgebra(c2)["squares"][(1, 2, 3)] == "ok"
    kf = c2.komonad.kq_theta(c2.theta_map(2, 3), 1, 2, 3)
    assert _map_digest(kf) == \
        "d84464204570c6c839f2a155883a4cf07fbe761c3f1c23631856f91df94824fb"


def _free_terms(F):
    return seq(F, {n: regular_module(F, YoungGroup.full(n))
                   for n in (1, 2, 3)})


@pytest.mark.parametrize("terms, field, window, branch, digests", [
    # a free A_3: delta_{1,2,3} maps between strict orbit models
    (_free_terms, F2, DegreeWindow(0, 2), "strict",
     ("fd0a2ef7dbe6dee69d8b95a7d98847719edc07d20ac071e98403c5f989a812ee",
      "0d56d994dff138da57778d98123bbddefd9ad889478c00b5bf0c2ff59720c8c0")),
    (_free_terms, QQ, DegreeWindow(0, 2), "strict",
     ("ef881a148da492128f266fd503c516c502958295ed7799802ca3c3a0f6eae224",
      "0d56d994dff138da57778d98123bbddefd9ad889478c00b5bf0c2ff59720c8c0")),
    # the staircase A_3 (trivial terms): windowed homotopy-orbit models
    (_staircase_terms, F2, DegreeWindow(0, 4), "windowed",
     ("594d75d3ed84030f6308bb1ff976e36c28dfc42ae7364ed294a2af8cc9133e25",
      "c4c594bb8f000bbf7c0be84259c72d20593973939ccd9d509fe528c4014ee5a4")),
    (_staircase_terms, QQ, DegreeWindow(0, 4), "windowed",
     ("594d75d3ed84030f6308bb1ff976e36c28dfc42ae7364ed294a2af8cc9133e25",
      "c4c594bb8f000bbf7c0be84259c72d20593973939ccd9d509fe528c4014ee5a4")),
    (_staircase_terms, F3, DegreeWindow(0, 4), "windowed",
     ("594d75d3ed84030f6308bb1ff976e36c28dfc42ae7364ed294a2af8cc9133e25",
      "c4c594bb8f000bbf7c0be84259c72d20593973939ccd9d509fe528c4014ee5a4")),
], ids=["free-F2", "free-Q", "staircase-F2", "staircase-Q", "staircase-F3"])
def test_comultiplications_are_pinned(terms, field, window, branch, digests):
    # every component of the Top comultiplication and of the strict K', entry
    # for entry
    A = terms(field)
    K = TopComonad(A, window)
    KP = KPrimeComonad(A)
    assert K.delta_outer[(1, 2, 3)].kind == branch
    got = []
    for delta in (K.delta, KP.delta):
        h = hashlib.sha256()
        for key in sorted(delta):
            h.update(repr((key, _map_digest(delta[key]))).encode())
        got.append(h.hexdigest())
    assert tuple(got) == digests


@pytest.mark.xfail(strict=True, raises=ValueError,
                   reason="K_q(h) o theta fails to commute with d in degree "
                          "4 (the Top-source form of case-1)")
def test_top_n3_derived_hom():
    _, c2 = _top_n3_staircase()
    assert derived_hom(c2, c2)["h0"] >= 1


def test_representable_module_dims():
    # X with m = 2: M_1 = k^2, M_2 = k[Sigma_2], M_3 = 0
    x = FinitePointedSet(2)
    module, coalg = representable_module(x, 3, F2)
    assert module.sequence.term_complex(1).dim(0) == 2
    assert module.sequence.term_complex(2).dim(0) == 2
    assert module.sequence.term(3) is None
    assert is_free(module.sequence.term(2))
    # X = S^0: M_1 = k, nothing above
    x1 = FinitePointedSet(1)
    m1, _ = representable_module(x1, 3, F2)
    assert m1.sequence.term_complex(1).dim(0) == 1
    assert m1.sequence.term(2) is None


def test_representable_module_valid():
    x = FinitePointedSet(2)
    module, coalg = representable_module(x, 3, F2)
    rep = validate_right_module(module)
    assert rep["valid"], rep
    repc = validate_coalgebra(coalg)
    assert repc["valid"], repc


def test_evaluation_pairing():
    assert evaluation_pairing_check(FinitePointedSet(1), 1, F2) == \
        {"rank": 1, "identity_component_nonzero": True, "target_zero": False}
    rep = evaluation_pairing_check(FinitePointedSet(2), 2, F2)
    assert rep["rank"] == 2 and rep["identity_component_nonzero"]
    rep3 = evaluation_pairing_check(FinitePointedSet(1), 2, F2)
    assert rep3["target_zero"]


def test_divided_power_roundtrip_representable():
    x = FinitePointedSet(2)
    module, coalg = representable_module(x, 2, F2)
    rep = divided_power_check(coalg, module=module)
    assert rep["valid"], rep


def test_divided_power_trivial():
    w = DegreeWindow(0, 3)
    A = seq(F2, {1: triv(F2, 1), 2: triv(F2, 2)})
    c = trivial_coalgebra("top", A, w)
    rep = divided_power_check(c)
    assert rep["valid"], rep


def test_divided_power_scaled_mismatch():
    # module action scaled by a unit != 1 with theta left unscaled -> the
    # triangle breaks and the check fails
    x = FinitePointedSet(2)
    module, coalg = representable_module(x, 2, QQ)
    scaled_action = {key: act.scale(QQ.coerce(2))
                     for key, act in module.action.items()}
    from tcalc.laws import RightModule
    bad = RightModule(module.operad, module.sequence, scaled_action)
    rep = divided_power_check(coalg, module=bad)
    assert not rep["valid"]


def test_truncate_coalgebra():
    w = DegreeWindow(0, 3)
    A = seq(F2, {1: triv(F2, 1), 2: triv(F2, 2), 3: triv(F2, 3)})
    rng = random.Random(13)
    c = trivial_coalgebra("top", A, w)
    th12 = random_theta(c, 1, 2, rng)
    c2 = TruncatedCoalgebra("top", A, w, {(1, 2): th12}, komonad=c.komonad)
    t2 = truncate_coalgebra(c2, 2)
    assert t2.truncation == 2
    assert validate_coalgebra(t2)["valid"]
    t1 = truncate_coalgebra(t2, 1)
    assert t1.truncation == 1
    assert not t1.theta
    # truncate twice = truncate once
    t1b = truncate_coalgebra(c2, 1)
    assert t1b.sequence.arities() == t1.sequence.arities()


def test_nonequivariant_theta_reported():
    # equivariance bites for r >= 2: theta_{2,3} must commute with the swap
    from tcalc.laws import chain_map_space
    from helpers import staircase_sequence
    w = DegreeWindow(0, 4)
    A = staircase_sequence(F2, 3)
    c0 = trivial_coalgebra("top", A, w)
    comp = c0.komonad.component(2, 3)
    allmaps = chain_map_space(A.term_complex(2), comp.value.complex)
    saw_invalid = False
    for m in allmaps:
        if m.is_zero():
            continue
        c = TruncatedCoalgebra("top", A, w, {(2, 3): m}, komonad=c0.komonad)
        rep = validate_coalgebra(c)
        if not rep["valid"]:
            saw_invalid = True
            assert any("equivariant" in f for f in rep["failures"])
            break
    assert saw_invalid, "expected some non-equivariant chain map"
