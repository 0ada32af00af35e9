"""Executable classification of 2- and 3-excisive functors and
McCarthy-square verification.

Homotopy classes of maps are the H_0 of the mapping complex, exact over the
coefficient field; class counts are q^dim over F_q.  The paragraph-7
validators of user data with explicit witnesses and the splitting criterion
run in no subcommand and live in `laws`."""

from __future__ import annotations

from . import chainops, comonads, equivops, tower
from .chain import ChainComplex, ChainMap, DegreeWindow, block_map, cone
from .equivariant import EquivariantComplex, homotopy_orbits, tate
from .fields import FieldSpec
from .perms import YoungGroup


def _class_count(field: FieldSpec, dim: int):
    if field.p:
        return field.p ** dim
    return "infinite" if dim else 1


def _h0_hom_on_window(a: ChainComplex, target: ChainComplex,
                      w: DegreeWindow):
    """dim H_0 of hom(a, target)."""
    if w.lo > 0 or w.hi < 0:
        raise ValueError("window too small to certify degree 0")
    return chainops.hom_complex(a, target).homology_dims(
        DegreeWindow(0, 0)).get(0, 0)


def classify_2exc_sp(a1: ChainComplex, a2: EquivariantComplex,
                     w: DegreeWindow):
    """Homotopy classes A_1 -> Tate_{Sigma_2}(A_2)."""
    dim = _h0_hom_on_window(a1, tate(a2, w), w)
    return {"dim": dim, "classes": _class_count(a1.field, dim),
            "window": str(w)}


def classify_2exc_top(a1: ChainComplex, a2: EquivariantComplex,
                      w: DegreeWindow):
    """Homotopy classes A_1 -> (Sigma A_2)_{h Sigma_2} (trivial suspension)."""
    dim = _h0_hom_on_window(a1, homotopy_orbits(suspension(a2), w), w)
    return {"dim": dim, "classes": _class_count(a1.field, dim),
            "window": str(w)}


def suspension(a: EquivariantComplex) -> EquivariantComplex:
    """Sigma A, with the action shifted along."""
    return EquivariantComplex(chainops.shift(a.complex, 1), a.group, {
        gi: chainops.shift_map(a.action[gi], 1)
        for gi in a.group.generator_positions()})


def classify_3exc_sp(a1: ChainComplex, a2: EquivariantComplex,
                     a3: EquivariantComplex, w: DegreeWindow):
    """The three independent mapping sets of the 3-excisive classification,
    plus the acyclicity making the compatibility square vacuous."""
    F = a1.field
    t2 = tate(a2, w)
    l3a3 = equivops.equivariant_tensor(comonads.l3_complex(F), a3)
    t3 = tate(l3a3, w)
    sub = a3.restrict(YoungGroup.of(1, 2))
    t12 = tate(sub, w)
    d1 = _h0_hom_on_window(a1, t2, w)
    d2 = _h0_hom_on_window(a1, t3, w)
    d3 = _h0_hom_on_window(a2.complex, t12, w)
    # vacuity: K_1 K_2 A_3 acyclic
    k23 = comonads.SpComponentModel(a3, 2, w)
    inner_w = w.shrink() if w.hi - w.lo >= 2 else w
    kk = comonads.SpComponentModel(k23.value, 1, inner_w)
    vac = kk.value.complex.is_acyclic(inner_w)
    return {
        "dims": (d1, d2, d3),
        "classes": tuple(_class_count(F, d) for d in (d1, d2, d3)),
        "square_vacuous": vac,
        "window": str(w),
    }


# ---------------------------------------------------------------------------
# McCarthy squares
# ---------------------------------------------------------------------------


def mccarthy_square_check(c, site, n):
    """Assert the stage-n square is a homotopy pullback: the iterated-cone
    total complex of [P_n -> (P_{n-1} (+) fixed corner) -> Tate corner] is
    acyclic on the certified window.

    P_n and P_{n-1} come from the tot route.  The fixed corner is the
    diagonal piece (n,) and the Tate corner the sum of the slots (r, n),
    r < n; gamma on P_{n-1} (+) fixed is `tower.corner_map`, the bottom map
    minus the right map.  The commuting homotopy is the canonical one (its
    absence is a hard failure).  Returns the acyclic flag, the window and
    its homology dims, or a reason in place of the dims when a map of the
    square fails validation."""
    tm = tower.tower_map(c, site, n)
    pn, pn1 = tm["source"], tm["target"]
    builder, tot = pn["builder"], pn["complex"]
    keys = builder.corner_keys(n)
    top_map = tower.tot_projection(builder, tot, 0, [(n,)])
    projections = {r: tower.tot_projection(
        pn1["builder"], pn1["complex"], 0, [(r,)]) for r, _ in keys}
    corner = tower.corner_map(builder, n, pn1["complex"], projections)
    # the homotopy projects the Tot onto its level-1 coordinates in the
    # slots (r, n): d h + h d = right o top - bottom o tower is the coface
    # relation between the strict chains (n,) and (r, n), once each degree
    # k + 1 of the shifted source carries the sign (-1)^{k+1}.  It is fixed,
    # so a corrupted map cannot be silently repaired
    pick = tower.tot_projection(builder, tot, 1, keys)
    h = ChainMap(chainops.shift(tot, 1), corner.target, {
        k + 1: m if (k + 1) % 2 == 0 else -m
        for k, m in pick.components.items()})
    try:
        for f in (tm["map"], top_map, corner):
            f.validate()
        alpha = block_map(tot, corner.source, [tot],
                          [pn1["complex"], top_map.target],
                          {(0, 0): tm["map"], (0, 1): top_map})
        gamma = block_map(cone(alpha), corner.target,
                          [h.source, corner.source], [corner.target],
                          {(0, 0): h, (1, 0): corner}).validate()
        total = cone(gamma)
    except (ValueError, ArithmeticError) as e:
        return {"acyclic": False,
                "reason": "structure map fails validation: %s" % e,
                "window": str(c.window)}
    pw = pn["window"]
    win = pw.shrink() if pw.hi - pw.lo >= 2 else pw
    dims = total.homology_dims(win)
    return {"acyclic": not dims, "homology": dims, "window": str(win)}
