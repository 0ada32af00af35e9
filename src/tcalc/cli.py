"""Batch command-line interface.

Subcommands: homology, tate, bar-com, partition-nerve, k-top, k-sp, cobar,
pn, derived-hom, bk-e1, classify, mccarthy, check.  Inputs are JSON
documents; output is deterministic JSON with every homological claim carrying
its certified degree window.  Exit codes: 0 success, 1 validation failure,
2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import (
    classify, coalgebras, comonads, derivedhom, equivariant, operads,
    serialize, topcomonad, tower,
)
from .chain import DegreeWindow
from .fields import UnsupportedField, field_from_name


MAX_DIM_ENV = "TCALC_MAX_DIM"


def _max_dim():
    return int(os.environ.get(MAX_DIM_ENV, "20000"))


def _parse_window(text):
    try:
        lo, hi = text.split(":")
        return DegreeWindow(int(lo), int(hi))
    except Exception:
        raise UsageError("--window must be lo:hi with lo <= hi")


class UsageError(Exception):
    pass


def _load_doc(path):
    try:
        with open(path) as f:
            return json.load(f)
    except FileNotFoundError:
        raise UsageError("input file not found: %s" % path)
    except json.JSONDecodeError as e:
        raise UsageError("malformed JSON in %s: %s" % (path, e))


def _decode(from_json, doc, key=None):
    """from_json(doc), or from_json(doc[key]); a document of the wrong shape
    (a list for an object, an entry out of range or repeated) is a usage
    error."""
    try:
        return from_json(doc if key is None else doc[key])
    except (TypeError, AttributeError, IndexError) as e:
        raise UsageError("malformed document: %s" % e)


def _emit(args, payload):
    text = serialize.dumps(payload)
    if getattr(args, "out", None):
        with open(args.out, "w") as f:
            f.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _guard_dims(c):
    if c.total_dim() > _max_dim():
        raise UsageError("complex exceeds %s=%d basis elements" %
                         (MAX_DIM_ENV, _max_dim()))


def _windowed_dims(complex_, w):
    return {str(k): complex_.homology(k)[0] for k in w.degrees()}


def cmd_homology(args):
    c = _decode(serialize.chain_from_json, _load_doc(args.input))
    _guard_dims(c)
    dims = {str(k): c.homology(k)[0] for k in c.support()}
    _emit(args, {"command": "homology", "dims": dims,
                 "window": "all supported degrees (finite complex)"})
    return 0


def _check_tags(args, e):
    """`--group` and `--field`, when given, must name the document's Young
    group (S3x1 for blocks [3, 1]) and field."""
    group = "S" + "x".join(str(b) for b in e.group.blocks)
    if args.group is not None and args.group != group:
        raise UsageError("--group %s does not match the document's group %s"
                         % (args.group, group))
    if args.field is not None and field_from_name(args.field) != e.field:
        raise UsageError("--field %s does not match the document's field %s"
                         % (args.field, e.field.name()))


def cmd_tate(args):
    w = _parse_window(args.window)
    e = _decode(serialize.equivariant_from_json, _load_doc(args.input))
    _check_tags(args, e)
    _guard_dims(e.complex)
    t = equivariant.tate(e, w)
    _emit(args, {"command": "tate", "group": list(e.group.blocks),
                 "dims": _windowed_dims(t.complex, w),
                 "window": serialize.window_to_json(w)})
    return 0


def cmd_bar_com(args):
    field = field_from_name(args.field)
    c = operads.bar_complex(field, args.n)
    _emit(args, {"command": "bar-com", "arity": args.n,
                 "normalized_dims": {str(k): c.dim(k) for k in c.support()},
                 "homology": {str(k): c.homology(k)[0] for k in c.support()},
                 "window": "exact (finite complex)"})
    return 0


def cmd_partition_nerve(args):
    field = field_from_name(args.field)
    nerve, comparison = operads.partition_poset_nerve(field, args.n)
    _emit(args, {"command": "partition-nerve", "n": args.n,
                 "nerve_dims": {str(k): nerve.complex.dim(k)
                                for k in nerve.complex.support()},
                 "comparison_homology": {str(k): comparison.homology(k)[0]
                                         for k in comparison.support()},
                 "window": "exact (finite complex)"})
    return 0


def cmd_k_top(args):
    w = _parse_window(args.window)
    e = _decode(serialize.equivariant_from_json, _load_doc(args.input))
    _guard_dims(e.complex)
    res = topcomonad.k_top_component(e, args.r, w)
    _emit(args, {"command": "k-top", "r": args.r, "n": e.group.degree,
                 "dims": _windowed_dims(res.complex, w),
                 "exact": res.exact,
                 "window": serialize.window_to_json(w)})
    return 0


def cmd_k_sp(args):
    w = _parse_window(args.window)
    e = _decode(serialize.equivariant_from_json, _load_doc(args.input))
    _guard_dims(e.complex)
    res = comonads.k_sp_component(e, args.r, w)
    _emit(args, {"command": "k-sp", "r": args.r, "n": e.group.degree,
                 "dims": _windowed_dims(res.complex, w),
                 "window": serialize.window_to_json(w)})
    return 0


def _parse_site(text, source):
    if source == "sp":
        if not text.startswith("S"):
            raise UsageError("sp sites are spheres S<d>")
        return int(text[1:])
    if not text.startswith("set:"):
        raise UsageError("top sites are set:<m>")
    return coalgebras.FinitePointedSet(int(text.split(":")[1]))


def cmd_cobar(args):
    c = _decode(serialize.coalgebra_from_json, _load_doc(args.input))
    site = _parse_site(args.site, c.source)
    cs = tower.cobar(c, site, c.window)
    _emit(args, {"command": "cobar",
                 "levels": [
                     {str(k): lv.dim(k) for k in lv.support()}
                     for lv in cs.levels],
                 "degenerate_above": cs.degenerate_above,
                 "window": serialize.window_to_json(c.window)})
    return 0


def cmd_pn(args):
    c = _decode(serialize.coalgebra_from_json, _load_doc(args.input))
    site = _parse_site(args.site, c.source)
    routes = [args.route] if args.route != "both" else ["tot", "pullback"]
    reports = {}
    builder = None
    for route in routes:
        # both routes read one cobar builder
        st = tower.p_n(c, site, args.n, route=route, builder=builder)
        builder = st["builder"]
        reports[route] = {
            "dims": _windowed_dims(st["complex"], st["window"]),
            "window": serialize.window_to_json(st["window"]),
        }
    payload = {"command": "pn", "n": args.n, "routes": reports}
    if len(reports) == 2:
        payload["routes_agree"] = \
            reports["tot"]["dims"] == reports["pullback"]["dims"]
    _emit(args, payload)
    return 0


def cmd_derived_hom(args):
    c = _decode(serialize.coalgebra_from_json, _load_doc(args.input))
    c2 = _decode(serialize.coalgebra_from_json, _load_doc(args.second))
    r = tower.derived_hom(c, c2)
    _emit(args, {"command": "derived-hom", "h0": r["h0"],
                 "dims": _windowed_dims(r["complex"], r["window"]),
                 "window": serialize.window_to_json(r["window"])})
    return 0


def cmd_bk_e1(args):
    c = _decode(serialize.coalgebra_from_json, _load_doc(args.input))
    c2 = _decode(serialize.coalgebra_from_json, _load_doc(args.second))
    r = derivedhom.bk_e1(c, c2)
    page = r["e1"]
    einf = derivedhom.einf_dims(r)
    _emit(args, {"command": "bk-e1",
                 "e1": {"%d,%d" % k: v for k, v in sorted(page.dims().items())},
                 "d1_squared_zero": page.d1_squared_zero(),
                 "e2": {"%d,%d" % k: v for k, v in
                        sorted(page.e2_dims().items())},
                 "einf": {"%d,%d" % k: v for k, v in sorted(einf.items())},
                 "window": serialize.window_to_json(r["window"])})
    return 0


def cmd_classify(args):
    w = _parse_window(args.window)
    doc = _load_doc(args.input)
    a1 = _decode(serialize.chain_from_json, doc, "a1")
    a2 = _decode(serialize.equivariant_from_json, doc, "a2")
    if args.variant == "sp_sp_2":
        rep = classify.classify_2exc_sp(a1, a2, w)
    elif args.variant == "top_sp_2":
        rep = classify.classify_2exc_top(a1, a2, w)
    elif args.variant == "sp_sp_3":
        a3 = _decode(serialize.equivariant_from_json, doc, "a3")
        rep = classify.classify_3exc_sp(a1, a2, a3, w)
    else:
        raise UsageError("unknown classify variant %r" % args.variant)
    payload = {"command": "classify", "variant": args.variant}
    payload.update({k: (list(v) if isinstance(v, tuple) else v)
                    for k, v in rep.items()
                    if k in ("dim", "dims", "classes", "square_vacuous",
                             "window")})
    _emit(args, payload)
    return 0


def cmd_mccarthy(args):
    c = _decode(serialize.coalgebra_from_json, _load_doc(args.input))
    site = _parse_site(args.site, c.source)
    rep = classify.mccarthy_square_check(c, site, args.n)
    _emit(args, {"command": "mccarthy", "n": args.n,
                 "acyclic": rep["acyclic"],
                 "homology": {str(k): v for k, v in rep["homology"].items()},
                 "window": rep["window"]})
    return 0 if rep["acyclic"] else 1


def cmd_check(args):
    """Full invariant suite on a coalgebra document."""
    c = _decode(serialize.coalgebra_from_json, _load_doc(args.input))
    rep = coalgebras.validate_coalgebra(c)
    payload = {"command": "check", "valid": rep["valid"],
               "failures": rep["failures"],
               "squares": {"%d,%d,%d" % k: v
                           for k, v in sorted(rep["squares"].items())},
               "window": serialize.window_to_json(c.window)}
    _emit(args, payload)
    return 0 if rep["valid"] else 1


def build_parser():
    p = argparse.ArgumentParser(
        prog="tcalc",
        description="Exact chain-level Taylor tower calculator")
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp, window=True, input_file=True):
        if window:
            sp.add_argument("--window", required=window,
                            help="certified degree window lo:hi")
        if input_file:
            sp.add_argument("input", help="input JSON document")
        sp.add_argument("--out", help="output path (default stdout)")
        sp.add_argument("--format", default="json", choices=["json"])

    sp = sub.add_parser("homology")
    add_common(sp, window=False)
    sp.set_defaults(func=cmd_homology)

    sp = sub.add_parser("tate")
    sp.add_argument("--group", help="the document's Young group, e.g. S3x1")
    sp.add_argument("--field", help="the document's field, e.g. F2")
    add_common(sp)
    sp.set_defaults(func=cmd_tate)

    sp = sub.add_parser("bar-com")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--field", required=True)
    add_common(sp, window=False, input_file=False)
    sp.set_defaults(func=cmd_bar_com)

    sp = sub.add_parser("partition-nerve")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--field", required=True)
    add_common(sp, window=False, input_file=False)
    sp.set_defaults(func=cmd_partition_nerve)

    sp = sub.add_parser("k-top")
    sp.add_argument("--r", type=int, required=True)
    add_common(sp)
    sp.set_defaults(func=cmd_k_top)

    sp = sub.add_parser("k-sp")
    sp.add_argument("--r", type=int, required=True)
    add_common(sp)
    sp.set_defaults(func=cmd_k_sp)

    sp = sub.add_parser("cobar")
    sp.add_argument("--site", required=True)
    add_common(sp, window=False)
    sp.set_defaults(func=cmd_cobar)

    sp = sub.add_parser("pn")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--site", required=True)
    sp.add_argument("--route", default="both",
                    choices=["tot", "pullback", "both"])
    add_common(sp, window=False)
    sp.set_defaults(func=cmd_pn)

    sp = sub.add_parser("derived-hom")
    sp.add_argument("second", help="second coalgebra JSON document")
    add_common(sp, window=False)
    sp.set_defaults(func=cmd_derived_hom)

    sp = sub.add_parser("bk-e1")
    sp.add_argument("second")
    add_common(sp, window=False)
    sp.set_defaults(func=cmd_bk_e1)

    sp = sub.add_parser("classify")
    sp.add_argument("--variant", required=True,
                    choices=["sp_sp_2", "sp_sp_3", "top_sp_2"])
    add_common(sp)
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("mccarthy")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--site", required=True)
    add_common(sp, window=False)
    sp.set_defaults(func=cmd_mccarthy)

    sp = sub.add_parser("check")
    add_common(sp, window=False)
    sp.set_defaults(func=cmd_check)

    return p


def main(argv=None):
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    # accept `--window -4:4` by gluing the value (argparse would otherwise
    # read a leading minus as an option)
    glued = []
    i = 0
    while i < len(argv):
        if argv[i] == "--window" and i + 1 < len(argv):
            glued.append("--window=" + argv[i + 1])
            i += 2
        else:
            glued.append(argv[i])
            i += 1
    try:
        args = parser.parse_args(glued)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except (UsageError, UnsupportedField) as e:
        sys.stderr.write(serialize.dumps({"error": "usage", "detail": str(e)})
                         + "\n")
        return 2
    except (ValueError, KeyError, ArithmeticError) as e:
        sys.stderr.write(serialize.dumps({"error": "validation",
                                          "detail": str(e)}) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
