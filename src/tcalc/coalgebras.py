"""Coalgebra data over the comonads, representable modules over finite
pointed sets, and the divided-power norm factorization.

A truncated coalgebra stores structure maps theta_{r,n} : A_r -> K_r A_n for
r < n, each targeting the stored comonad component model; theta_{r,r} is
always the canonical section of the counit and is not user data.  Coherence
squares are validated at homology level by default, or exactly against
stored chain-homotopy witnesses.
"""

from __future__ import annotations

from . import comonads, cooperad, laws, operads, topcomonad
from .chain import (
    ChainHomotopy, ChainMap, DegreeWindow, label_map, tensor_many, transport,
)
from .equivariant import permutation_module
from .fields import FieldSpec
from .perms import YoungGroup, transposition
from .sequences import SymmetricSequence
from .sparse import SparseMatrix, rank


class FinitePointedSet:
    """A finite pointed set with m non-basepoint elements."""

    def __init__(self, size: int, labels: tuple = ()):
        if size < 0:
            raise ValueError("size must be >= 0")
        if labels and len(labels) != size:
            raise ValueError("label count mismatch")
        self.size = size
        self.labels = labels

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.size, self.labels) == (other.size, other.labels)

    def __hash__(self):
        return hash((self.size, self.labels))

    def __repr__(self):
        return "FinitePointedSet(size=%r, labels=%r)" % (self.size,
                                                         self.labels)

    def points(self):
        return self.labels if self.labels else tuple(range(1, self.size + 1))


def injections(n, m):
    """All injections {0..n-1} -> {0..m-1} as tuples."""
    out = []

    def rec(acc, used):
        if len(acc) == n:
            out.append(tuple(acc))
            return
        for v in range(m):
            if v not in used:
                used.add(v)
                acc.append(v)
                rec(acc, used)
                acc.pop()
                used.discard(v)

    rec([], set())
    return out


class TruncatedCoalgebra:
    """A symmetric sequence with theta maps over a comonad value."""

    def __init__(self, source: str, sequence: SymmetricSequence,
                 window: DegreeWindow, theta=None, witnesses=None,
                 komonad=None, coop=None):
        if source not in ("top", "sp"):
            raise ValueError("source must be 'top' or 'sp'")
        self.source = source
        self.sequence = sequence
        self.window = window
        self.field = sequence.field
        if komonad is None:
            if source == "top":
                komonad = topcomonad.TopComonad(sequence, window, coop=coop)
            else:
                komonad = comonads.SpComonad(sequence, window)
        self.komonad = komonad
        self.theta = {}
        if theta:
            for (r, n), f in theta.items():
                if not (1 <= r < n <= sequence.truncation):
                    raise ValueError("theta index (%d, %d) out of range" % (r, n))
                self.theta[(r, n)] = f
        self.witnesses = dict(witnesses) if witnesses else {}

    @property
    def truncation(self):
        return self.sequence.truncation

    def theta_map(self, r, n) -> ChainMap | None:
        """theta_{r,n}; the diagonal returns the canonical identity section."""
        if r == n:
            comp = self.komonad.component(r, r)
            if comp is None:
                return None
            return ChainMap.identity(comp.value.complex)
        return self.theta.get((r, n))


def trivial_coalgebra(source, sequence, window, coop=None) -> TruncatedCoalgebra:
    """theta_{r,n} = 0 for all r < n."""
    return TruncatedCoalgebra(source, sequence, window, {}, coop=coop)


def truncate_coalgebra(c: TruncatedCoalgebra, n: int) -> TruncatedCoalgebra:
    if n < 1:
        raise ValueError("truncation must be >= 1")
    if n > c.truncation:
        raise ValueError("cannot truncate upwards")
    seq = c.sequence.truncate(n)
    theta = {(r, m): f for (r, m), f in c.theta.items() if m <= n}
    wit = {(r, s, m): h for (r, s, m), h in c.witnesses.items() if m <= n}
    return TruncatedCoalgebra(c.source, seq, c.window, theta, wit)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def _equivariance_failures(c: TruncatedCoalgebra, r, n) -> list:
    theta = c.theta_map(r, n)
    if theta is None:
        return []
    fails = []
    a_r = c.sequence.term(r)
    comp = c.komonad.component(r, n)
    for gi in YoungGroup.full(r).generator_positions():
        lhs = theta.compose(a_r.action[gi])
        rhs = comp.value.action[gi].compose(theta)
        if lhs.components != rhs.components:
            fails.append("theta_%d,%d not equivariant at generator %d" %
                         (r, n, gi))
    return fails


def validate_coalgebra(c: TruncatedCoalgebra, w: DegreeWindow | None = None):
    """Equivariance and counit exactly; coherence squares up to homology on
    w (or exactly against stored witnesses).  Returns a report dict."""
    w = w or c.window
    report = {"valid": True, "failures": [], "squares": {}}
    N = c.truncation
    for n in range(1, N + 1):
        for r in range(1, n):
            if c.theta_map(r, n) is None:
                continue
            theta = c.theta_map(r, n)
            comp = c.komonad.component(r, n)
            if theta.source.dims != c.sequence.term_complex(r).dims or \
                    theta.target.dims != comp.value.complex.dims:
                report["failures"].append(
                    "theta_%d,%d has wrong (co)domain" % (r, n))
                continue
            try:
                theta.validate()
            except ValueError as e:
                report["failures"].append("theta_%d,%d: %s" % (r, n, e))
                continue
            report["failures"].extend(_equivariance_failures(c, r, n))
    # coherence squares
    for n in range(1, N + 1):
        for s in range(1, n):
            for r in range(1, s + 1):
                key = (r, s, n)
                res = _check_square(c, r, s, n, w)
                report["squares"][key] = res
                if res not in ("ok", "vacuous"):
                    report["failures"].append(
                        "square (%d,%d,%d): %s" % (r, s, n, res))
    report["valid"] = not report["failures"]
    return report


def _check_square(c: TruncatedCoalgebra, r, s, n, w):
    """theta then delta versus theta then K(theta), on homology inside w."""
    theta_rn = c.theta_map(r, n)
    theta_rs = c.theta_map(r, s)
    theta_sn = c.theta_map(s, n)
    if theta_rn is None and (theta_rs is None or theta_sn is None):
        return "ok"
    if c.source == "sp":
        delta = c.komonad.delta.get((r, s, n))
        if delta is None:
            # dropped acyclic target: no condition (the swap permutes the
            # two partition summands)
            return "vacuous"
        if s == n:
            return "ok"  # both routes equal theta_{r,n} on the nose
        if s == r:
            return "ok"
        return "vacuous"
    # Top case
    K = c.komonad
    if s == n or s == r:
        return "ok"  # collapsed sides make both routes literally agree
    delta = K.delta.get((r, s, n))
    comp_rn = K.component(r, n)
    if theta_rn is None:
        route1 = ChainMap.zero(c.sequence.term_complex(r), delta.target)
    else:
        route1 = delta.compose(transport(theta_rn, target=delta.source))
    # route 2: K_r(theta~_{s,n}) o theta_{r,s}
    inner = K.delta_inner[(r, s, n)]
    outer = K.delta_outer[(r, s, n)]
    if theta_rs is None or theta_sn is None:
        route2 = ChainMap.zero(c.sequence.term_complex(r), outer.value.complex)
    else:
        comp_sn = K.component(s, n)
        tau = _model_transport(comp_sn, inner)
        theta_tilde = tau.compose(theta_sn)
        src_model = K.component(r, s)
        if src_model.kind != outer.kind:
            src_model = topcomonad._rebuild_like(K.coop, c.sequence.term(s),
                                                 r, K.w, outer)
        kf = topcomonad.top_component_on_map(K.coop, src_model, outer,
                                             theta_tilde)
        route2 = kf.compose(transport(theta_rs, target=kf.source))
    # compare on homology, route2 read on route1's complexes (its own are
    # label-equal models); exact witness check when provided
    route2 = ChainMap(route1.source, route1.target, route2.components)
    wit = c.witnesses.get((r, s, n))
    if wit is not None:
        try:
            ChainHomotopy(route1, route2, wit).validate()
            return "ok"
        except ValueError:
            return "witness fails"
    diffm = route1 - route2
    win = DegreeWindow(w.lo, w.hi - 1) if w.hi > w.lo else w
    for k in win.degrees():
        if not diffm.induced_on_homology(k).is_zero():
            return "homology mismatch in degree %d" % k
    return "ok"


def _model_transport(src_model, tgt_model) -> ChainMap:
    """Slot-identity transport between two windowed models of the same
    surjection sum (target must extend the source)."""
    if src_model.kind == "collapsed" and tgt_model.kind == "collapsed":
        return ChainMap.identity(src_model.value.complex)
    if src_model.kind == "strict" and tgt_model.kind == "strict":
        return label_map(src_model.value.complex, tgt_model.value.complex)
    return label_map(src_model.value.complex, tgt_model.value.complex,
                     partial=True).validate()


# ---------------------------------------------------------------------------
# Representable modules
# ---------------------------------------------------------------------------


def representable_module(x: FinitePointedSet, N: int, field: FieldSpec,
                         window: DegreeWindow | None = None):
    """(RightModule, TruncatedCoalgebra) for the stable mapping functor out
    of a finite pointed set.

    M(X)_n is the dual of the permutation module on injections
    {0..n-1} -> points(X); the module action is zero in every non-unit
    component (the tree factors live in strictly positive degrees while the
    module is concentrated in degree 0), and the coalgebra obtained through
    the inverse of the norm comparison has trivial theta."""
    if N > 4:
        raise ValueError("N out of range (<= 4)")
    m = x.size
    window = window or DegreeWindow(0, 2)
    op = operads.spectral_lie(field, N)
    terms = {}
    for n in range(1, N + 1):
        injs = injections(n, m)
        if not injs:
            continue
        group = YoungGroup.full(n)
        table = {}
        for gi in group.generator_positions():
            sperm = transposition(n, gi)
            pos = {inj: i for i, inj in enumerate(injs)}
            table[gi] = [pos[tuple(inj[sperm[i]] for i in range(n))]
                         for inj in injs]
        terms[n] = permutation_module(field, group,
                                      [("minj", inj) for inj in injs], table)
    seq = SymmetricSequence(field, N, terms)
    # module action: unit components only
    action = {}
    for r in seq.arities():
        comp = (1,) * r
        src = tensor_many([seq.term_complex(r)] +
                          [op.term_complex(1)] * r)
        mm = SparseMatrix(seq.term_complex(r).dim(0), src.dim(0), field)
        for i in range(seq.term_complex(r).dim(0)):
            mm[i, i] = field.one()
        action[(r, comp)] = ChainMap(src, seq.term_complex(r), {0: mm})
    module = cooperad.RightModule(op, seq, action)
    coalg = trivial_coalgebra("top", seq, window)
    return module, coalg


def evaluation_pairing_check(x: FinitePointedSet, r: int, field: FieldSpec):
    """The pairing of M(X)_r against the injections module: for X = [r]_+ it
    is an isomorphism onto a |Sigma_r|-dimensional space with the identity
    component the canonical evaluation."""
    m = x.size
    injs = injections(r, m)
    report = {"rank": 0, "identity_component_nonzero": False,
              "target_zero": not injs}
    if not injs:
        return report
    # pairing matrix: dual basis against basis = identity permutation matrix
    pairing = SparseMatrix.identity(len(injs), field)
    report["rank"] = rank(pairing)
    if m == r:
        ident = tuple(range(r))
        report["identity_component_nonzero"] = ident in injs
    return report


# ---------------------------------------------------------------------------
# Divided power factorization
# ---------------------------------------------------------------------------


def psi_from_theta(c: TruncatedCoalgebra):
    """psi_{r,n} := nu o theta_{r,n} : A_r -> K'_r A_n, as chain maps."""
    if c.source != "top":
        raise ValueError("divided powers live on the top source")
    K = c.komonad
    KP = comonads.KPrimeComonad(c.sequence, coop=K.coop)
    psi = {}
    for n in range(1, c.truncation + 1):
        for r in range(1, n):
            theta = c.theta_map(r, n)
            kp_comp = KP.component(r, n)
            if kp_comp is None:
                continue
            if theta is None:
                psi[(r, n)] = ChainMap.zero(c.sequence.term_complex(r),
                                            kp_comp.value.complex)
                continue
            top_comp = K.component(r, n)
            nu = comonads.nu_component(top_comp, kp_comp, c.window)
            psi[(r, n)] = nu.compose(transport(theta, target=nu.source))
    return psi, KP


def module_from_psi(c: TruncatedCoalgebra, psi,
                    KP: comonads.KPrimeComonad) -> cooperad.RightModule:
    """Convert psi maps (into strict invariants of the surjection sums) to
    right-module action maps along consecutive-block surjections."""
    F = c.field
    op = operads.spectral_lie(F, c.truncation)
    action = {}
    seq = c.sequence
    for r in seq.arities():
        # unit action
        comp = (1,) * r
        src = tensor_many([seq.term_complex(r)] + [op.term_complex(1)] * r)
        mm = SparseMatrix(seq.term_complex(r).dim(0 + 0), src.dim(0), F) \
            if seq.term_complex(r).dim(0) else None
        a_r = seq.term_complex(r)
        comps = {}
        for k in a_r.dims:
            block = SparseMatrix(a_r.dim(k), a_r.dim(k), F)
            for i in range(a_r.dim(k)):
                block[i, i] = F.one()
            comps[k] = block
        # identify src with a_r degreewise (unit factors are degree 0, dim 1)
        src_map = {}
        for k in a_r.dims:
            msrc = SparseMatrix(a_r.dim(k), src.dim(k), F)
            for j, lab in enumerate(src.labels.get(k, ())):
                a_lab = lab[0]
                i = a_r.label_index(k)[a_lab]
                msrc[i, j] = F.one()
            src_map[k] = msrc
        action[(r, comp)] = ChainMap(src, a_r, src_map)
    for r in seq.arities():
        for comp in operads.compositions_of_bounded(r, c.truncation):
            n = sum(comp)
            if n == r or n not in seq.terms:
                continue
            ps = psi.get((r, n))
            kp_comp = KP.component(r, n)
            if ps is None or kp_comp is None:
                continue
            action[(r, comp)] = _adjoint_action(
                c, ps, kp_comp, comp, op)
    return cooperad.RightModule(op, seq, action)


def _adjoint_action(c, ps: ChainMap, kp_comp, comp,
                    op: cooperad.Operad) -> ChainMap:
    """A_r (x) dI_{n_1} (x) ... (x) dI_{n_r} -> A_n from
    psi : A_r -> [(+)_alpha ((x) T) (x) A_n]^{Sigma_n}, evaluated at the
    consecutive-blocks surjection."""
    F = c.field
    r = len(comp)
    n = sum(comp)
    a_r = c.sequence.term_complex(r)
    a_n = c.sequence.term_complex(n)
    duals = [op.term_complex(m) for m in comp]
    src = tensor_many([a_r] + duals)
    # consecutive blocks surjection alpha0
    alpha0 = []
    for j, mify in enumerate(comp):
        alpha0.extend([j] * mify)
    alpha0 = tuple(alpha0)
    W = kp_comp.sursum.total
    inc = kp_comp.inclusion
    comps = {}
    for k0 in a_r.dims:
        pm = ps.component(k0)
        im = inc.component(k0)
        if pm.is_zero():
            continue
        big = im * pm   # A_r degree-k0 -> W degree-k0
        for (wi, j), v in big.entries.items():
            lab = W.labels[k0][wi]
            _, alpha, inner = lab
            if alpha != alpha0:
                continue
            tree_labs = inner[:-1]
            an_lab = inner[-1]
            # the source basis elements pairing with these trees
            try:
                t_degs = [-d.locate(("dual", t_lab))[0]
                          for t_lab, d in zip(tree_labs, duals)]
            except KeyError:
                continue
            # Koszul sign for the multi-evaluation of duals against trees
            sgn = 1
            for ii in range(len(t_degs)):
                for jj in range(ii + 1, len(t_degs)):
                    if t_degs[ii] % 2 and t_degs[jj] % 2:
                        sgn = -sgn
            src_lab = (a_r.labels[k0][j],) + \
                tuple(("dual", t) for t in tree_labs)
            try:
                sk, spos = src.locate(src_lab)
            except KeyError:
                continue
            an_i = a_n.locate(an_lab)[1]
            m = comps.get(sk)
            if m is None:
                m = SparseMatrix(a_n.dim(sk), src.dim(sk), F)
                comps[sk] = m
            m.add_to(an_i, spos, F.mul(F.coerce(sgn), v))
    return ChainMap(src, a_n, comps).validate()


def divided_power_check(c: TruncatedCoalgebra, w: DegreeWindow | None = None,
                        module: cooperad.RightModule | None = None):
    """Extract psi = nu o theta, optionally compare with a given module's
    action maps, and validate the resulting right module."""
    if c.source != "top":
        raise ValueError("top source required")
    w = w or c.window
    psi, KP = psi_from_theta(c)
    mod = module_from_psi(c, psi, KP)
    report = {"valid": True, "failures": [], "triangle": {}}
    if module is not None:
        for key, act in mod.action.items():
            given = module.action_map(*key)
            if given is None:
                if not act.is_zero():
                    report["failures"].append("extra action at %r" % (key,))
                continue
            if act.components != given.components:
                report["failures"].append("action mismatch at %r" % (key,))
    vr = laws.validate_right_module(mod)
    if not vr["valid"]:
        report["failures"].extend(vr["failures"])
    report["valid"] = not report["failures"]
    report["module"] = mod
    return report
