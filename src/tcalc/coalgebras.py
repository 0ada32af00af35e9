"""Coalgebra data over the comonads, and the finite pointed sets that are
the sites of a Top tower.

A truncated coalgebra stores structure maps theta_{r,n} : A_r -> K_r A_n for
r < n, each targeting the stored comonad component model; theta_{r,r} is
always the canonical section of the counit and is not user data.  Coherence
squares are validated at homology level.
"""

from __future__ import annotations

from . import chainops, comonads, topcomonad
from .chain import ChainMap, DegreeWindow
from .perms import YoungGroup
from .sequences import SymmetricSequence


class FinitePointedSet:
    """A finite pointed set with m non-basepoint elements."""

    def __init__(self, size: int):
        if size < 0:
            raise ValueError("size must be >= 0")
        self.size = size

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.size == other.size

    def __hash__(self):
        return hash((self.size,))

    def __repr__(self):
        return "FinitePointedSet(size=%r)" % (self.size,)


class TruncatedCoalgebra:
    """A symmetric sequence with theta maps over a comonad value."""

    def __init__(self, source: str, sequence: SymmetricSequence,
                 window: DegreeWindow, theta=None, komonad=None):
        if source not in ("top", "sp"):
            raise ValueError("source must be 'top' or 'sp'")
        self.source = source
        self.sequence = sequence
        self.window = window
        self.field = sequence.field
        if komonad is None:
            if source == "top":
                komonad = topcomonad.TopComonad(sequence, window)
            else:
                komonad = comonads.SpComonad(sequence, window)
        self.komonad = komonad
        self.theta = {}
        if theta:
            for (r, n), f in theta.items():
                if not (1 <= r < n <= sequence.truncation):
                    raise ValueError("theta index (%d, %d) out of range" % (r, n))
                self.theta[(r, n)] = f

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


def trivial_coalgebra(source, sequence, window) -> TruncatedCoalgebra:
    """theta_{r,n} = 0 for all r < n."""
    return TruncatedCoalgebra(source, sequence, window, {})


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


def validate_coalgebra(c: TruncatedCoalgebra):
    """Equivariance and counit exactly; coherence squares up to homology on
    the coalgebra's window.  Returns a report dict."""
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
                res = _check_square(c, r, s, n)
                report["squares"][key] = res
                if res not in ("ok", "vacuous"):
                    report["failures"].append(
                        "square (%d,%d,%d): %s" % (r, s, n, res))
    report["valid"] = not report["failures"]
    return report


def _check_square(c: TruncatedCoalgebra, r, s, n):
    """theta then delta versus theta then K(theta), on homology inside the
    coalgebra's window, for r <= s < n.  A collapsed outer index (s = r)
    makes both routes literally agree; a square without a comultiplication
    (the Sp comonad drops its acyclic nested targets) is vacuous."""
    theta_rn = c.theta_map(r, n)
    theta_rs = c.theta_map(r, s)
    theta_sn = c.theta_map(s, n)
    if theta_rn is None and (theta_rs is None or theta_sn is None):
        return "ok"
    if s == r:
        return "ok"
    K = c.komonad
    delta = K.delta.get((r, s, n))
    if delta is None:
        return "vacuous"
    if theta_rn is None:
        route1 = ChainMap.zero(c.sequence.term_complex(r), delta.target)
    else:
        route1 = delta.compose(
            chainops.transport(theta_rn, target=delta.source))
    # route 2: K_r(theta~_{s,n}) o theta_{r,s}
    if theta_rs is None or theta_sn is None:
        route2 = ChainMap.zero(c.sequence.term_complex(r), delta.target)
    else:
        kf = K.kq_theta(theta_sn, r, s, n)
        route2 = kf.compose(chainops.transport(theta_rs, target=kf.source))
    diffm = route1 - route2
    w = c.window
    win = DegreeWindow(w.lo, w.hi - 1) if w.hi > w.lo else w
    for k in win.degrees():
        if not diffm.induced_on_homology(k).is_zero():
            return "homology mismatch in degree %d" % k
    return "ok"
