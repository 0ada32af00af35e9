"""The machinery shared by both sources: the fat totalization, the cobar
construction, the Taylor stages p_n by two routes, and the derived mapping
complex.

The cobar's index walk is written once, in `_Levels`: which per-piece map
feeds each block of delta^0, the middle cofaces, delta^{m+1} and sigma^j
between the keys (n,), (q, n) and (q, s, n), with the identity of a piece
onto its copy wherever an index repeats.  The pieces of K^m A and their
models come from one rule (`chain_model`, `cobar_pieces`), and
`summands_by_value` builds a level's summands from them once per arity and
piece value.  A builder's one size input is its top arity n: it reads the
terms of arity <= n with the coalgebra's own comonad and theta, which are
its n-truncation's there (K_r A_m for m <= n reads nothing above n), so
stage p_n builds no truncated copy.  Its top level D = n - 1 is set once by
`_Levels`, and the windows printed below the top (`_tot_window`, the derived
hom's) read it.  The level builders supply their summands (the Sp cobar and
the Hom side by a rule on those pieces) and the blocks off the diagonal:
`topcobar` at a finite pointed set (the unit and theta into the
stratified-cone slot), `spcobar` at the zero sphere (the fixed-to-Tate unit
and theta at the innermost slot), `derivedhom` for the derived mapping
complex (K_q(h) o theta and postcomposition), which also holds the
Bousfield-Kan E^1 page.

A builder's normalized levels are the sums of its pieces on strictly
increasing chains (see `_Levels`), so `fat_tot`, both routes of `p_n`, the
derived mapping complex and the E^1 page read those pieces and the coface
blocks between them.  `cobar` certifies the cosimplicial identities on the
keyed blocks, degenerate chains and codegeneracies included, and assembles
no level (`cosimplicial.certify`); only `laws.assemble` builds the whole
object.  The `cosimplicial` module runs in no other job.

Only this module reads the Tot's basis: `tot_projection` maps it onto the
pieces of one level, for the McCarthy square and the E-infinity page, and
`corner_map` is the one map into the off-diagonal corner that the pullback
route and the McCarthy square both read.

The fat totalization of a degenerate-above-D object is the finite total
complex over levels <= D, with differential
d_int + (-1)^{internal degree} sum_i (-1)^i delta^i.
"""

from __future__ import annotations

import functools
import itertools

from . import chainops, cosimplicial, derivedhom, spcobar, topcobar
from .chain import (
    ChainComplex, ChainMap, DegreeWindow, block_map, cone, direct_sum,
    label_map, linear_map,
)
from .coalgebras import FinitePointedSet
from .sparse import SparseMatrix


def fat_tot(x) -> ChainComplex:
    """The finite total complex of the normal form of x, a level builder
    (`_Levels`: its strict-chain pieces) or a `laws.CosimplicialComplex`
    (its conormalized levels).  `x.normalized()` gives the pieces
    (key, P) of each level N^m and the coface blocks {(m, sk, tk): (i,
    map)} between them.  Tot_k is the sum of the P_{k+m}, a vector
    labelled ("tot", m, key, lab); d_k has each piece's differential on the
    diagonal and (-1)^{k+m+i} times each coface block below it."""
    columns, cofaces = x.normalized()
    F = x.field
    slots = [(m, key, p) for m, col in enumerate(columns) for key, p in col]
    pos = {(m, key): s for s, (m, key, _) in enumerate(slots)}
    labels = {}
    for m, key, p in slots:
        for j in p.support():
            labels.setdefault(j - m, []).extend(
                ("tot", m, key, lab) for lab in p.labels[j])
    diff = {}
    for k in labels:
        if k - 1 not in labels:
            continue
        blocks = {(s, s): p.diff.get(k + m)
                  for s, (m, _, p) in enumerate(slots)}
        for (m, sk, tk), (i, f) in cofaces.items():
            cf = f.components.get(k + m)
            if cf is not None:
                blocks[(pos[m + 1, tk], pos[m, sk])] = \
                    cf if (k + m + i) % 2 == 0 else -cf
        diff[k] = SparseMatrix.block(
            blocks, [p.dim(k - 1 + m) for m, _, p in slots],
            [p.dim(k + m) for m, _, p in slots], F)
    return ChainComplex(F, {k: len(v) for k, v in labels.items()}, diff,
                        labels).validate()


# ---------------------------------------------------------------------------
# Levels as direct sums of keyed pieces (shared by the level builders)
# ---------------------------------------------------------------------------


def chain_model(K, chain):
    """The model of the comonad K on an index chain: K_r A_n on (r, n), the
    outer model of the comultiplication on a strictly nested (q, s, n)
    (None where K drops it), and K_q A_n on any other (q, s, n)."""
    if len(chain) == 3 and chain[0] < chain[1] < chain[2]:
        return K.delta_outer.get(chain)
    return K.component(chain[0], chain[-1])


def cobar_pieces(seq, K, top):
    """The pieces of K^m A on the arities n <= top at the levels m < top,
    as {m: {chain: EquivariantComplex}}: A_n at (n,), and at m >= 1 the
    value of `chain_model` on each non-decreasing chain of m + 1 indices
    ending in n, wherever it is nonzero.  K_r A_n for n <= top reads no
    term above top, so these are the pieces of the top-truncation's cobar,
    models and all."""
    arities = [n for n in seq.arities() if n <= top]
    pieces = {0: {(n,): seq.term(n) for n in arities}}
    for m in range(1, top):
        pieces[m] = {}
        for n in arities:
            for head in itertools.combinations_with_replacement(
                    range(1, n + 1), m):
                model = chain_model(K, head + (n,))
                if model is not None and not model.value.complex.is_zero():
                    pieces[m][head + (n,)] = model.value
    return pieces


def summands_by_value(pieces, rule):
    """{m: {chain: rule(r, piece)}} in chain order, with r = chain[0]; a
    None summand is left out.  rule runs once per arity and piece value, so
    a degenerate chain shares its copy's summand."""
    built, out = {}, {}
    for m, by_chain in pieces.items():
        out[m] = {}
        for chain in sorted(by_chain):
            made = (chain[0], id(by_chain[chain]))
            if made not in built:
                built[made] = rule(chain[0], by_chain[chain])
            if built[made] is not None:
                out[m][chain] = built[made]
    return out


def on_pieces(pieces, m, sk, tk, g) -> ChainMap:
    """g, once it maps the piece of sk at level m to that of tk (or twins);
    ValueError otherwise, where a slotwise map of g drops terms silently."""
    if not (pieces[m][sk].complex.same_basis(g.source)
            and pieces[m + 1][tk].complex.same_basis(g.target)):
        raise ValueError("map misses the pieces %r -> %r" % (sk, tk))
    return g


def _strict(key) -> bool:
    return all(a < b for a, b in zip(key, key[1:]))


class _Levels:
    """Levels of a cosimplicial object built as direct sums of keyed
    summands, and the cobar index walk between them.  The Sp cobar and the
    Hom-side builders key theirs like the pieces of K^m A (`cobar_pieces`),
    built by `summands_by_value`.

    summands[lvl] is {key: summand complex}, in key order, for the levels
    0..D; above D the object is degenerate.  A builder of the cobar
    truncated at top arity n has D = n - 1.  A key at level m is an index
    chain (i_0 <= ... <= i_m) of arities, and every structure map is a
    block map with one per-piece map from summand sk to summand tk:

    - the coface delta^i out of level m inserts an index x at position i of
      sk, between its neighbours: delta^0 puts q <= sk[0] in front, the
      middle cofaces insert s inside, delta^{m+1} appends n >= sk[-1];
    - the codegeneracy sigma^j drops the repeated index sk[j] = sk[j + 1].

    Where the inserted or dropped index repeats a neighbour, the block is
    `_same`, the identity of a piece onto its copy.  A builder supplies
    only the blocks off the diagonal: `_outer(m, sk, tk)` for delta^0,
    `_inner` for delta^{m+1} and, if its keys hold strictly nested chains
    q < s < n, `_middle`; None is a zero block.

    The normal form is the sum of the pieces on strict chains
    i_0 < ... < i_m (Goerss-Jardine III.2).  The piece of a degenerate chain
    is the model of its copy, the chain with the repeat dropped, and every
    codegeneracy block is `_same`: the identity of the piece, which is the
    copy's too.  So sigma^j is injective on the piece of each chain with
    i_j = i_{j+1}, no two such chains share a copy, and the joint kernel of
    the codegeneracies is exactly the sum of the strict pieces.  The
    alternating coface sum maps it into the next through the blocks between
    strict chains (`coface_blocks`).  `fat_tot` reads only those; `cobar`
    certifies the identities on every block, and only `laws.assemble`
    builds the whole object."""

    def __init__(self, field, summands):
        self.field = field
        self.summands = summands
        self.D = len(summands) - 1
        self.strict_keys = {lvl: [k for k in s if _strict(k)]
                            for lvl, s in summands.items()}
        self._identity = {}

    def _same(self, lvl, key) -> ChainMap:
        """The block from the piece of key onto its copy: the piece's
        identity, built once, since the copy's piece is the same complex
        or a twin of it (`ChainComplex.same_basis`)."""
        src = self.summands[lvl][key]
        if id(src) not in self._identity:
            self._identity[id(src)] = ChainMap.identity(src)
        return self._identity[id(src)]

    def _coface_blocks(self, m, i, strict):
        """{(sk, tk): per-piece map} of delta^i out of level m into the
        keys tk that are strict chains (strict) or are not, built over the
        sorted source keys and ascending inserted index."""
        up = {k for k in self.summands[m + 1] if _strict(k) == strict}
        if not up:
            return {}
        top = max(k[-1] for k in up)
        blocks = {}
        for sk in self.summands[m]:
            near = sk[max(i - 1, 0):i + 1]      # the neighbours of x
            lo, hi = (sk[i - 1] if i else 1), (sk[i] if i <= m else top)
            for x in range(lo, hi + 1):
                tk = sk[:i] + (x,) + sk[i:]
                if tk not in up:
                    continue
                if x in near:
                    f = self._same(m, sk)
                elif i == 0:
                    f = self._outer(m, sk, tk)
                elif i == m + 1:
                    f = self._inner(m, sk, tk)
                else:
                    f = self._middle(m, sk, tk)
                if f is not None:
                    blocks[(sk, tk)] = f
        return blocks

    @functools.cached_property
    def coface_blocks(self):
        """{(m, i): {(sk, tk): per-piece map}}: the blocks of each delta^i
        into strict chains tk.  A chain with one index left out of a strict
        chain is strict, so every source sk is strict too."""
        return {(m, i): self._coface_blocks(m, i, True)
                for m in range(self.D) for i in range(m + 2)}

    def normalized(self):
        """The normal form `fat_tot` reads: the pieces (key, P) of the
        strict chains at each level, in key order, and the coface blocks
        between them as {(m, sk, tk): (i, map)}."""
        columns = [[(k, self.summands[m][k]) for k in self.strict_keys[m]]
                   for m in range(self.D + 1)]
        return columns, {(m, sk, tk): (i, f)
                         for (m, i), b in self.coface_blocks.items()
                         for (sk, tk), f in b.items()}

    def corner_keys(self, n):
        """The off-diagonal level-1 keys (r, n), r < n, in order: the slots
        the unit delta^0 and theta delta^1 reach from (n,) and (r,)."""
        return [k for k in self.summands.get(1, ()) if k[0] < k[1] == n]


# ---------------------------------------------------------------------------
# The cosimplicial cobar construction
# ---------------------------------------------------------------------------


def cobar(coalgebra, site):
    """The cosimplicial cobar construction Phi K^bullet A at a site, as its
    level builder (level m the sum of `summands[m]`, degenerate above the
    top level) certified on its keyed blocks (`cosimplicial.certify`).

    Top source: site is a FinitePointedSet.  Sp source: site is the sphere
    dimension d (S^0 supported at truncation <= 3; other d raise)."""
    return cosimplicial.certify(
        _cobar_builder(coalgebra, site, coalgebra.truncation))


def _cobar_builder(c, site, n):
    """The builder of the cobar construction of c's n-truncation: its level
    pieces and structural maps, on the terms of arity <= n and c's own
    comonad and theta."""
    if c.source == "top":
        if not isinstance(site, FinitePointedSet):
            raise ValueError("top-source sites are finite pointed sets")
    else:
        if not isinstance(site, int):
            raise ValueError("sp-source sites are sphere dimensions S^d")
        if site != 0:
            raise ValueError(
                "sp evaluation implemented at S^0 (nonzero sphere dimensions "
                "need equivariant twist models outside desk scale)")
    if c.source == "top":
        return topcobar.TopCobarBuilder(c, site, n)
    return spcobar.SpCobarBuilder(c, n)


# ---------------------------------------------------------------------------
# Taylor stages: Tot route and iterated-pullback route
# ---------------------------------------------------------------------------


def _fib(f: ChainMap) -> ChainComplex:
    """Homotopy fiber as a complex: shift(cone(f), -1)."""
    return chainops.shift(cone(f), -1)


def _fib_proj(f: ChainMap, fib: ChainComplex) -> ChainMap:
    """The projection fib(f) -> source(f)."""
    # fib labels: ("sh", -1, ("cone-src", src label) | ("cone-tgt", ...))
    return label_map(fib, f.source, partial=True, key=lambda lab: (
        lab[2][1] if lab[2][0] == "cone-src" else None)).validate()


def _tot_window(builder) -> DegreeWindow:
    """The coalgebra's window with its top lowered by the builder's top
    level D, or its bottom degree alone when that leaves nothing."""
    D, w = builder.D, builder.c.window
    return DegreeWindow(w.lo, w.hi - D) if w.hi - D >= w.lo else \
        DegreeWindow(w.lo, w.lo)


def p_n(coalgebra, site, n, route="tot", builder=None):
    """Stage n of the Taylor tower at a site: the cobar construction of the
    n-truncation (n above the truncation reads the whole coalgebra), built
    on the terms of arity <= n with the coalgebra's own comonad and theta.

    Returns a dict with the stage complex, the certified window, the route,
    and the cobar builder of the stage (its slot models and structural
    maps).  Either route builds that builder unless ``builder``, the
    "builder" of an earlier result for the same coalgebra, site and n, is
    passed in to be reused."""
    if n < 1:
        raise ValueError("truncation must be >= 1")
    if route not in ("tot", "pullback"):
        raise ValueError("route must be 'tot' or 'pullback'")
    # both routes read the cobar builder, which bounds the truncation
    if builder is None:
        builder = _cobar_builder(coalgebra, site,
                                 min(n, coalgebra.truncation))
    if route == "pullback":
        return _p_n_pullback(builder)
    return {"complex": fat_tot(builder), "window": _tot_window(builder),
            "route": "tot", "builder": builder}


def _p_n_pullback(builder):
    """Iterated homotopy pullback up the tower: P_j is the fiber of
    `corner_map` out of P_{j-1} (+) the diagonal piece (j,) (the fiber form
    of the McCarthy squares, with the comonad's own Tate / stratified-cone
    corner models), up to the builder's top arity D + 1.  projections[r]
    maps the current stage onto its arity-r piece."""
    phi0 = builder.summands[0]
    stage = _piece(builder, 0, (1,))
    projections = {1: ChainMap.identity(stage)} if (1,) in phi0 else {}
    for j in range(2, builder.D + 2):
        g = corner_map(builder, j, stage, projections).validate()
        parts = [stage, _piece(builder, 0, (j,))]
        if g.target.is_zero():
            fib, to_src = g.source, ChainMap.identity(g.source)
        else:
            fib = _fib(g)
            to_src = _fib_proj(g, fib)
        # the fiber's arity projections: through P_{j-1}, and onto (j,)
        projections = {r: block_map(g.source, pr.target, parts, [pr.target],
                                    {(0, 0): pr}).compose(to_src)
                       for r, pr in projections.items()}
        if (j,) in phi0:
            projections[j] = block_map(
                g.source, parts[1], parts, [parts[1]],
                {(1, 0): ChainMap.identity(parts[1])}).compose(to_src)
        stage = fib
    return {"complex": stage, "window": _tot_window(builder),
            "route": "pullback", "builder": builder}


def _piece(builder, m, key) -> ChainComplex:
    """The level-m piece of key, or the zero complex where it has none."""
    return builder.summands[m].get(key) or ChainComplex(builder.field, {})


def _sum(field, parts) -> ChainComplex:
    """The direct sum of parts; one part is its own sum, as in block_map."""
    return parts[0] if len(parts) == 1 else \
        direct_sum(parts) if parts else ChainComplex(field, {})


def tot_projection(builder, tot, m, keys) -> ChainMap:
    """The degree-m map from tot = fat_tot(builder) onto the sum of the
    level-m pieces of keys, in order (the zero complex for a key the level
    lacks, one key's piece itself): the Tot vector ("tot", m, key, lab) in
    degree k is the vector lab of that piece in degree k + m.  No coface
    lands in level 0, so at m = 0 it is a chain map; nothing is validated."""
    slot = {key: i for i, key in enumerate(keys)}
    target = _sum(builder.field, [_piece(builder, m, key) for key in keys])
    return linear_map(tot, target, lambda k, lab: (
        ((lab[3] if len(keys) == 1 else (slot[lab[2]], lab[3]), 1),)
        if lab[1] == m and lab[2] in slot else ()), degree=m)


def corner_map(builder, n, stage, projections) -> ChainMap:
    """The map (stage (+) diagonal piece (n,)) -> (+) of the slots (r, n)
    of `corner_keys(n)`: out of the stage, theta's delta^1 block from (r,)
    composed with projections[r], the stage's map onto the level-0 piece
    (r,) itself (`tot_projection` on the one key (r,), or the pullback
    route's fiber projection); out of (n,), minus the unit's delta^0 block.
    One slot is its own sum.  The next stage of the pullback route is its
    fiber, and it is the McCarthy square's gamma on P_{n-1} (+) the fixed
    corner.  Nothing is validated."""
    keys = builder.corner_keys(n)
    diag = _piece(builder, 0, (n,))
    units, thetas = (builder.coface_blocks.get((0, i), {}) for i in (0, 1))
    blocks = {}
    for t, key in enumerate(keys):
        r = key[0]
        theta = thetas.get(((r,), key))
        if theta is not None and r in projections:
            blocks[(0, t)] = theta.compose(projections[r])
        unit = units.get(((n,), key))
        if unit is not None:
            blocks[(1, t)] = unit.scale(-1)
    parts = [builder.summands[1][key] for key in keys]
    return block_map(direct_sum([stage, diag]), _sum(builder.field, parts),
                     [stage, diag], parts, blocks)


def tower_map(c, site, n):
    """The stage map p_n -> p_{n-1} induced by truncation (tot route): the
    projection of Tots dropping the pieces of chains with indices above
    n - 1.  A Tot vector ("tot", m, key, lab) is the vector lab of the
    strict-chain piece key at level m, and the pieces of a chain both cobars
    hold agree on their common labels."""
    if n <= 1:
        raise ValueError("tower map needs n >= 2")
    hi = p_n(c, site, n)
    lo = p_n(c, site, n - 1)
    f = label_map(hi["complex"], lo["complex"], partial=True).validate()
    return {"map": f, "source": hi, "target": lo}


# ---------------------------------------------------------------------------
# Derived mapping complexes (the Hom-side cobar)
# ---------------------------------------------------------------------------


def derived_hom(c, cprime, w: DegreeWindow | None = None):
    """Derived K-coalgebra mapping complex and its H_0 count."""
    w = w or c.window
    builder = derivedhom.DerivedHomBuilder(c, cprime, w)
    t = fat_tot(builder)
    h0 = t.homology_dims(DegreeWindow(0, 0)).get(0, 0)
    return {"complex": t, "h0": h0, "window": builder.printed_window,
            "builder": builder}
