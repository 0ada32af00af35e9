"""JSON serialization for the domain types.

Chain complexes follow the interchange schema
{"field": "Q"|"F2"|"F<p>", "dims": {"<degree>": n},
 "diff": {"<degree>": [[r, c, "num/den"], ...]}, "labels": {...}};
degrees are decimal strings (possibly negative), n, r and c JSON integers
>= 0, and scalars strings to keep rational entries exact (JSON integers
are accepted too; floats and booleans never).  Equivariant complexes add
{"group": [...], "action": {"s_<i>": {"<degree>": [[r, c, "v"], ...]}}};
symmetric sequences and coalgebras nest these documents."""

from __future__ import annotations

import json

from . import coalgebras, equivariant, perms, sequences
from .chain import ChainComplex, ChainMap, DegreeWindow
from .fields import field_from_name
from .sparse import SparseMatrix


def _label_to_json(lab):
    if isinstance(lab, tuple):
        return {"t": [_label_to_json(x) for x in lab]}
    if isinstance(lab, (int, str)):
        return lab
    raise TypeError("unserializable label %r" % (lab,))


def _label_from_json(doc):
    if isinstance(doc, dict) and "t" in doc:
        return tuple(_label_from_json(x) for x in doc["t"])
    # a bool is refused as parse_scalar refuses it: True == 1 in Python, so
    # it would meet the label 1
    if doc.__class__ is bool or not isinstance(doc, (int, str)):
        raise TypeError("label %r is neither a string nor an integer"
                        % (doc,))
    return doc


def matrix_to_json(m: SparseMatrix):
    field = m.field
    return [[i, j, field.format_scalar(v)]
            for (i, j), v in sorted(m.items())]


def _count(n):
    """n, once it is an int >= 0 (a bool is not: true would read as 1)."""
    if n.__class__ is not int or n < 0:
        raise TypeError("%r is not a count" % (n,))
    return n


def matrix_from_json(doc, rows, cols, field) -> SparseMatrix:
    """The matrix of [row, col, scalar] triples, each index a count; an
    index outside the shape or repeated raises IndexError."""
    acc = {}
    for r, c, v in doc:
        ij = _count(r), _count(c)
        if ij in acc:
            raise IndexError("entry %r repeats" % (ij,))
        acc[ij] = field.parse_scalar(v)
    return SparseMatrix.from_entries(rows, cols, field, acc)


def chain_to_json(c: ChainComplex):
    return {
        "field": c.field.name(),
        "dims": {str(k): n for k, n in sorted(c.dims.items())},
        "diff": {str(k): matrix_to_json(m) for k, m in sorted(c.diff.items())},
        "labels": {str(k): [_label_to_json(lab) for lab in labs]
                   for k, labs in sorted(c.labels.items())},
    }


def chain_from_json(doc) -> ChainComplex:
    field = field_from_name(doc["field"])
    dims = {int(k): _count(n) for k, n in doc["dims"].items()}
    diff = {}
    for k, entries in doc.get("diff", {}).items():
        k = int(k)
        diff[k] = matrix_from_json(entries, dims.get(k - 1, 0),
                                   dims.get(k, 0), field)
    labels = None
    if doc.get("labels"):
        labels = {int(k): tuple(_label_from_json(x) for x in labs)
                  for k, labs in doc["labels"].items()}
    c = ChainComplex(field, dims, diff, labels)
    # a label names one basis vector across all degrees; like a repeated
    # matrix entry, a repeated label raises IndexError
    seen = set()
    for lab in (lab for labs in c.labels.values() for lab in labs):
        if lab in seen:
            raise IndexError("label %r repeats" % (lab,))
        seen.add(lab)
    return c.validate()


def map_to_json(f: ChainMap):
    return {
        "degree": f.degree,
        "components": {str(k): matrix_to_json(m)
                       for k, m in sorted(f.components.items())},
    }


def map_from_json(doc, source: ChainComplex, target: ChainComplex) -> ChainMap:
    degree = doc.get("degree", 0)
    comps = {}
    for k, entries in doc.get("components", {}).items():
        k = int(k)
        comps[k] = matrix_from_json(entries, target.dim(k + degree),
                                    source.dim(k), source.field)
    return ChainMap(source, target, comps, degree).validate()


def equivariant_to_json(e: equivariant.EquivariantComplex):
    out = chain_to_json(e.complex)
    out["group"] = list(e.group.blocks)
    out["action"] = {
        "s_%d" % i: {str(k): matrix_to_json(m)
                     for k, m in sorted(f.components.items())}
        for i, f in sorted(e.action.items())
    }
    return out


def equivariant_from_json(doc) -> equivariant.EquivariantComplex:
    c = chain_from_json(doc)
    group = perms.YoungGroup(tuple(doc["group"]))
    action = {}
    for name, comps in doc.get("action", {}).items():
        i = int(name.split("_")[1])
        f_comps = {}
        for k, entries in comps.items():
            k = int(k)
            f_comps[k] = matrix_from_json(entries, c.dim(k), c.dim(k),
                                          c.field)
        action[i] = ChainMap(c, c, f_comps)
    return equivariant.EquivariantComplex(c, group, action).validate()


def sequence_to_json(s: sequences.SymmetricSequence):
    return {
        "truncation": s.truncation,
        "field": s.field.name(),
        "terms": {str(n): equivariant_to_json(t)
                  for n, t in sorted(s.terms.items())},
    }


def sequence_from_json(doc) -> sequences.SymmetricSequence:
    field = field_from_name(doc["field"])
    terms = {int(n): equivariant_from_json(t)
             for n, t in doc.get("terms", {}).items()}
    return sequences.SymmetricSequence(field, doc["truncation"], terms)


def window_to_json(w: DegreeWindow):
    return [w.lo, w.hi]


def window_from_json(doc) -> DegreeWindow:
    return DegreeWindow(doc[0], doc[1])


def coalgebra_to_json(c):
    return {
        "source": c.source,
        "window": window_to_json(c.window),
        "sequence": sequence_to_json(c.sequence),
        "theta": {"%d,%d" % key: map_to_json(f)
                  for key, f in sorted(c.theta.items())},
    }


def coalgebra_from_json(doc):
    seq = sequence_from_json(doc["sequence"])
    w = window_from_json(doc["window"])
    shell = coalgebras.TruncatedCoalgebra(doc["source"], seq, w, {})
    theta = {}
    for key, fdoc in doc.get("theta", {}).items():
        r, n = (int(x) for x in key.split(","))
        comp = shell.komonad.component(r, n)
        theta[(r, n)] = map_from_json(fdoc, seq.term_complex(r),
                                      comp.value.complex)
    return coalgebras.TruncatedCoalgebra(doc["source"], seq, w, theta,
                                         komonad=shell.komonad)


def dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))
