"""Batch command-line interface: one subcommand per row of COMMANDS.

Inputs are JSON documents; output is deterministic JSON with every
homological claim carrying its certified degree window.  Exit codes: 0
success, 1 validation failure or internal error, 2 usage error; each error
is one JSON line on stderr.
"""

from __future__ import annotations

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
    """The JSON document at path; a file that cannot be read (missing, a
    directory, not UTF-8) or is not JSON is a usage error."""
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except FileNotFoundError:
        raise UsageError("input file not found: %s" % path)
    except OSError as e:
        raise UsageError("cannot read %s: %s" % (path, e.strerror))
    except UnicodeDecodeError as e:
        raise UsageError("%s is not UTF-8: %s" % (path, e.reason))
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
    if args.out:
        try:
            with open(args.out, "w") as f:
                f.write(text + "\n")
        except OSError as e:
            raise UsageError("cannot write --out %s: %s"
                             % (args.out, e.strerror))
    else:
        sys.stdout.write(text + "\n")


def _guard_dims(c):
    if c.total_dim() > _max_dim():
        raise UsageError("complex exceeds %s=%d basis elements" %
                         (MAX_DIM_ENV, _max_dim()))


def _dims(complex_, w=None):
    """{str(k): dim H_k} over the window's degrees (default: the support),
    zeros included."""
    dims = complex_.homology_dims(w)
    return {str(k): dims.get(k, 0)
            for k in (w.degrees() if w else complex_.support())}


def cmd_homology(args):
    c = _decode(serialize.chain_from_json, _load_doc(args.input))
    _guard_dims(c)
    _emit(args, {"command": "homology", "dims": _dims(c),
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
                 "dims": _dims(t, w),
                 "window": serialize.window_to_json(w)})
    return 0


def cmd_bar_com(args):
    field = field_from_name(args.field)
    c = operads.bar_complex(field, args.n)
    _emit(args, {"command": "bar-com", "arity": args.n,
                 "normalized_dims": {str(k): c.dim(k) for k in c.support()},
                 "homology": _dims(c),
                 "window": "exact (finite complex)"})
    return 0


def cmd_partition_nerve(args):
    field = field_from_name(args.field)
    nerve, comparison = operads.partition_poset_nerve(field, args.n)
    _emit(args, {"command": "partition-nerve", "n": args.n,
                 "nerve_dims": {str(k): nerve.complex.dim(k)
                                for k in nerve.complex.support()},
                 "comparison_homology": _dims(comparison),
                 "window": "exact (finite complex)"})
    return 0


def cmd_k_top(args):
    w = _parse_window(args.window)
    e = _decode(serialize.equivariant_from_json, _load_doc(args.input))
    _guard_dims(e.complex)
    comp = topcomonad.TopComponentModel(e, args.r, w)
    _emit(args, {"command": "k-top", "r": args.r, "n": e.group.degree,
                 "dims": _dims(comp.value.complex, w),
                 "exact": comp.exact,
                 "window": serialize.window_to_json(w)})
    return 0


def cmd_k_sp(args):
    w = _parse_window(args.window)
    e = _decode(serialize.equivariant_from_json, _load_doc(args.input))
    _guard_dims(e.complex)
    comp = comonads.SpComponentModel(e, args.r, w)
    _emit(args, {"command": "k-sp", "r": args.r, "n": e.group.degree,
                 "dims": _dims(comp.value.complex, w),
                 "window": serialize.window_to_json(w)})
    return 0


def _parse_site(text, source):
    """--site as a whole: S<d> (an integer d) for a spectra source, set:<m>
    (m >= 0) for a based-spaces source; any other text is a usage error."""
    prefix, form = ("S", "S<d>") if source == "sp" else ("set:", "set:<m>")
    body = text[len(prefix):] if text.startswith(prefix) else ""
    digits = body[1:] if source == "sp" and body.startswith("-") else body
    if not (digits.isascii() and digits.isdigit()):
        raise UsageError("--site for a %s source is %s, not %r"
                         % (source, form, text))
    if source == "sp":
        return int(body)
    return coalgebras.FinitePointedSet(int(body))


def cmd_cobar(args):
    c = _decode(serialize.coalgebra_from_json, _load_doc(args.input))
    site = _parse_site(args.site, c.source)
    b = tower.cobar(c, site)
    levels = [{str(k): sum(p.dim(k) for p in b.summands[m].values())
               for k in sorted({k for p in b.summands[m].values()
                                for k in p.dims})}
              for m in range(len(b.summands))]
    _emit(args, {"command": "cobar", "levels": levels,
                 "degenerate_above": len(levels) - 1,
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
            "dims": _dims(st["complex"], st["window"]),
            "window": serialize.window_to_json(st["window"]),
        }
        # keep only the builder and the report: the next route does not need
        # this one's stages, Tot complex included
        del st
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
                 "dims": _dims(r["complex"], r["window"]),
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
    else:
        a3 = _decode(serialize.equivariant_from_json, doc, "a3")
        rep = classify.classify_3exc_sp(a1, a2, a3, w)
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
    # a square map that fails validation leaves a reason, not a homology
    if "homology" in rep:
        rep["homology"] = {str(k): v for k, v in rep["homology"].items()}
    _emit(args, {"command": "mccarthy", "n": args.n, **rep})
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


# option -> (type, required, default, allowed values or None for any)
_COMMON = {"--out": (str, False, None, None)}
_WINDOW = {"--window": (str, True, None, None)}
_SITE = {"--site": (str, True, None, None)}
_ARITY = {"--n": (int, True, None, None)}
_PIECE = {"--r": (int, True, None, None)}
_FIELD = {"--field": (str, True, None, None)}

# subcommand -> (handler, its options besides _COMMON, its positionals in
# command-line order)
COMMANDS = {
    "homology": (cmd_homology, {}, ("input",)),
    "tate": (cmd_tate, {"--group": (str, False, None, None),
                        "--field": (str, False, None, None), **_WINDOW},
             ("input",)),
    "bar-com": (cmd_bar_com, {**_ARITY, **_FIELD}, ()),
    "partition-nerve": (cmd_partition_nerve, {**_ARITY, **_FIELD}, ()),
    "k-top": (cmd_k_top, {**_PIECE, **_WINDOW}, ("input",)),
    "k-sp": (cmd_k_sp, {**_PIECE, **_WINDOW}, ("input",)),
    "cobar": (cmd_cobar, _SITE, ("input",)),
    "pn": (cmd_pn, {**_ARITY, **_SITE, "--route": (
        str, False, "both", ("tot", "pullback", "both"))}, ("input",)),
    # the first document is the second argument of derived_hom and bk_e1
    "derived-hom": (cmd_derived_hom, {}, ("second", "input")),
    "bk-e1": (cmd_bk_e1, {}, ("second", "input")),
    "classify": (cmd_classify, {"--variant": (
        str, True, None, ("sp_sp_2", "sp_sp_3", "top_sp_2")),
        **_WINDOW}, ("input",)),
    "mccarthy": (cmd_mccarthy, {**_ARITY, **_SITE}, ("input",)),
    "check": (cmd_check, {}, ("input",)),
}


class Args:
    """A parsed command line: one attribute per option and positional."""

    def __init__(self, values):
        self.__dict__.update(values)


def _help(args):
    """Print the usage of one subcommand, or of every one, from COMMANDS."""
    lines = []
    for command in [args.command] if args.command else COMMANDS:
        _, extra, positionals = COMMANDS[command]
        words = ["tcalc", command]
        for name, (kind, required, _, choices) in {**extra, **_COMMON}.items():
            word = "%s %s" % (name, "|".join(choices) if choices
                              else kind.__name__.upper())
            words.append(word if required else "[%s]" % word)
        lines.append(" ".join(words + list(positionals)))
    sys.stdout.write("usage: " + "\n       ".join(lines) + "\n")
    return 0


def parse(argv):
    """(handler, Args) for a command line, read against its row of COMMANDS:
    `--opt value` (the next token, even one starting with "-") or
    `--opt=value` in any order among the positionals, the last of a repeated
    option winning.  Any mistake raises UsageError."""
    command = argv[0] if argv else ""
    if command in ("-h", "--help"):
        return _help, Args({"command": None})
    if command not in COMMANDS:
        raise UsageError("the first argument must be a subcommand, one of "
                         "%s; not %r" % (", ".join(COMMANDS), command))
    handler, extra, positionals = COMMANDS[command]
    options = {**extra, **_COMMON}
    values = {name[2:]: default
              for name, (_, _, default, _) in options.items()}
    given, tokens = [], iter(argv[1:])
    for token in tokens:
        if token in ("-h", "--help"):
            return _help, Args({"command": command})
        if not token.startswith("-"):
            given.append(token)
            continue
        name, eq, value = token.partition("=")
        if name not in options:
            raise UsageError("%s: unknown option %s" % (command, name))
        if not eq:
            value = next(tokens, None)
            if value is None:
                raise UsageError("%s: %s needs a value" % (command, name))
        kind, _, _, choices = options[name]
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                raise UsageError("%s: %s takes an integer, not %r"
                                 % (command, name, value))
        if choices is not None and value not in choices:
            raise UsageError("%s: %s takes one of %s, not %r"
                             % (command, name, ", ".join(choices), value))
        values[name[2:]] = value
    missing = [name for name, (_, required, _, _) in options.items()
               if required and values[name[2:]] is None]
    if missing:
        raise UsageError("%s: missing %s" % (command, ", ".join(missing)))
    if len(given) != len(positionals):
        raise UsageError("%s: takes %d positional arguments (%s), not %d"
                         % (command, len(positionals), " ".join(positionals),
                            len(given)))
    values.update(zip(positionals, given))
    return handler, Args(values)


def main(argv=None):
    try:
        handler, args = parse(sys.argv[1:] if argv is None else argv)
        return handler(args)
    except (UsageError, UnsupportedField) as e:
        kind, detail, code = "usage", str(e), 2
    except (ValueError, KeyError, ArithmeticError) as e:
        kind, detail, code = "validation", str(e), 1
    except Exception as e:
        # never a traceback: an unexpected failure is one line as well
        kind, detail, code = "internal", "%s: %s" % (type(e).__name__, e), 1
    sys.stderr.write(serialize.dumps({"error": kind, "detail": detail}) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
