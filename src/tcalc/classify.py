"""Executable classification of 2- and 3-excisive functors and
McCarthy-square verification.

Homotopy classes of maps are the H_0 of the mapping complex, exact over the
coefficient field; class counts are q^dim over F_q.  The paragraph-7
validators of user data with explicit witnesses and the splitting criterion
run in no subcommand and live in `laws`."""

from __future__ import annotations

from . import chainops, comonads, equivops, tower
from .chain import (
    ChainComplex, ChainMap, DegreeWindow, block_map, cone, direct_sum,
    label_map, linear_map,
)
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
    dim = _h0_hom_on_window(a1, tate(a2, w).complex, w)
    return {"dim": dim, "classes": _class_count(a1.field, dim),
            "window": str(w)}


def classify_2exc_top(a1: ChainComplex, a2: EquivariantComplex,
                      w: DegreeWindow):
    """Homotopy classes A_1 -> (Sigma A_2)_{h Sigma_2} (trivial suspension)."""
    dim = _h0_hom_on_window(a1, homotopy_orbits(suspension(a2), w).complex, w)
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
    d1 = _h0_hom_on_window(a1, t2.complex, w)
    d2 = _h0_hom_on_window(a1, t3.complex, w)
    d3 = _h0_hom_on_window(a2.complex, t12.complex, w)
    # vacuity: K_1 K_2 A_3 acyclic
    k23 = comonads.SpComponentModel(a3, 2, w)
    inner_w = DegreeWindow(w.lo + 1, w.hi - 1) if w.hi - 1 >= w.lo + 1 else w
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


def mccarthy_square_check(c, site, n, w: DegreeWindow | None = None):
    """Assert the stage-n square is a homotopy pullback: the iterated-cone
    total complex of [P_n -> (P_{n-1} (+) fixed corner) -> Tate corner] is
    acyclic on the certified window.

    P_n and P_{n-1} come from the tot route; the commuting homotopy is found
    by exact linear solve (its absence is a hard failure)."""
    w = w or c.window
    tm = tower.tower_map(c, site, n)
    pn, pn1 = tm["source"], tm["target"]
    f_tower = tm["map"]
    builder = pn["builder"]
    # fixed corner and Tate corner from the builder's slot models
    top_map, fixed_cx = _tot_to_diagonal_slot(builder, pn["complex"], n)
    bot_map, corner_cx, right_map = _corner_maps(builder, pn1, n, c)
    F = c.field
    # the commuting homotopy is the canonical one: projection of the Tot to
    # its level-1 off-diagonal slots; it is fixed under mutation, so
    # corruptions cannot be silently repaired
    homotopy_part = _canonical_square_homotopy(
        builder, pn["complex"], corner_cx, n)
    try:
        for f in (f_tower, top_map, bot_map, right_map):
            f.validate()
        alpha = _pair_map(f_tower, top_map)
        cn = cone(alpha)
        gamma = _assemble_gamma(cn, bot_map, right_map, alpha,
                                homotopy_part, F)
        gamma.validate()
        total = cone(gamma)
    except (ValueError, ArithmeticError) as e:
        return {"acyclic": False, "homology": None,
                "reason": "structure map fails validation: %s" % e,
                "window": str(w)}
    win = DegreeWindow(pn["window"].lo + 1, pn["window"].hi - 1) \
        if pn["window"].hi - 1 >= pn["window"].lo + 1 else pn["window"]
    dims = total.homology_dims(win)
    return {"acyclic": not dims, "homology": dims, "window": str(win)}


def _tot_to_diagonal_slot(builder, tot, n):
    """The projection Tot -> level 0 -> arity-n diagonal summand."""
    tgt = builder.summands[0].get((n,))
    if tgt is None:
        # the arity-n diagonal Phi term is zero, e.g. at a 1-point set
        zero = ChainComplex(tot.field, {})
        return ChainMap.zero(tot, zero), zero
    # the Tot vector ("tot", 0, (n,), lab) is the vector lab of that piece
    return label_map(tot, tgt, partial=True, key=lambda lab: (
        lab[3] if lab[1:3] == (0, (n,)) else None)).validate(), tgt


def _corner_maps(builder, pn1, n, c):
    """(bottom map P_{n-1} -> corner, corner complex, right map fixed ->
    corner): the corner is the off-diagonal comonad slot sum at arity < n."""
    F = c.field
    offkeys = builder.corner_keys(n)
    slot_parts = [builder.summands[1][k] for k in offkeys]
    ub, tb = (builder.coface_blocks.get((0, i), {}) for i in (0, 1))
    corner = direct_sum(slot_parts) if slot_parts else ChainComplex(F, {})
    # bottom: out of P_{n-1}-Tot through its level-0 arity projections
    pn1_tot = pn1["complex"]
    bl = pn1["builder"]
    bot_blocks, right_blocks = {}, {}
    for t_i, key in enumerate(offkeys):
        r = key[0]
        f = tb.get(((r,), key))
        if f is not None:
            proj_r, _ = _tot_to_diagonal_slot(bl, pn1_tot, r)
            bot_blocks[(0, t_i)] = f.compose(proj_r)
        # right: out of the fixed (diagonal arity-n) slot via the unit blocks
        right_blocks[(0, t_i)] = ub.get(((n,), key))
    bot = block_map(pn1_tot, corner, [pn1_tot], slot_parts, bot_blocks)
    fixed_cx = builder.summands[0].get((n,)) or ChainComplex(F, {})
    right = block_map(fixed_cx, corner, [fixed_cx], slot_parts, right_blocks)
    return bot, corner, right


def _pair_map(f1: ChainMap, f2: ChainMap) -> ChainMap:
    """(f1, f2) : X -> Y1 (+) Y2."""
    parts = [f1.target, f2.target]
    return block_map(f1.source, direct_sum(parts), [f1.source], parts,
                     {(0, 0): f1, (0, 1): f2})


def _canonical_square_homotopy(builder, pn_tot, corner, n):
    """The structural square homotopy: project a Tot element to its level-1
    coordinates in the slots (r, n), r < n, which are the corner's summands.

    Stored as {cone degree k: matrix corner_k x P_n-tot_{k-1}}; the Tot
    differential identity d h + h d = (right o top) - (bottom o tower) is
    exactly the coface relation between the strict chains (n,) and (r, n)
    of the normalized cobar."""
    slot = {k: t for t, k in enumerate(builder.corner_keys(n))}
    # the Tot vector ("tot", 1, (r, n), lab) in degree k is the vector lab
    # of the slot (r, n) in degree k + 1, the corner's summand (t, lab)
    pick = linear_map(pn_tot, corner, lambda k, lab: (
        (((slot[lab[2]], lab[3]), 1),) if lab[1] == 1 and lab[2] in slot
        else ()), degree=1, partial=True)
    out = {}
    for k, mm in pick.components.items():
        deg = k + 1
        if not mm.is_zero():
            # per-degree sign (-1)^{k+1}: with the Tot coface signs (-1)^j
            # the slot projection then satisfies d h + h d = right o top -
            # bot o tower
            out[deg] = mm if deg % 2 == 0 else -mm
    return out


def _assemble_gamma(cn: ChainComplex, bot: ChainMap, right: ChainMap,
                    alpha: ChainMap, homotopy_part, F) -> ChainMap:
    """gamma : cone(alpha) -> corner, with the prescribed homotopy on the
    shifted source block C_{k-1} and bottom - right on the target block
    P_{n-1} (+) fixed."""
    corner = bot.target
    h = ChainMap(chainops.shift(alpha.source, 1), corner, homotopy_part)
    return block_map(cn, corner, [h.source, bot.source, right.source],
                     [corner], {(0, 0): h, (1, 0): bot,
                                (2, 0): right.scale(F.neg(F.one()))})
