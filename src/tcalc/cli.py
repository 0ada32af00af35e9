"""Batch command-line interface: one subcommand per row of COMMANDS.

Inputs are JSON documents; output is deterministic JSON with every
homological claim carrying its certified degree window.  `main` is the one
path that reads input and writes output: `parse` converts each option by its
kind (`--n` an integer, `--window` LO:HI), every positional document is
decoded by the `serialize` reader of its kind and each complex it holds is
capped at TCALC_MAX_DIM basis elements, and the handler's payload is written
with "command" added.  A handler only computes and returns its payload.
Exit codes: 0 success, 1 a false verdict (check's `valid`, mccarthy's
`acyclic`), a validation failure or an internal error, 2 usage error; each
error is one JSON line on stderr.
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


class UsageError(Exception):
    pass


def _decode(doc, kind):
    """doc decoded by the `serialize` reader of its kind, "chain",
    "equivariant", "coalgebra" or "classify" (one document of each part),
    once no complex it holds has more than TCALC_MAX_DIM basis elements."""
    if kind == "classify":
        # only sp_sp_3 reads a3, which other documents may leave out
        parts = {"a1": "chain", "a2": "equivariant", "a3": "equivariant"}
        return {key: _decode(doc[key], part) for key, part in parts.items()
                if key != "a3" or "a3" in doc}
    if kind == "chain":
        x = serialize.chain_from_json(doc)
        held = [x]
    elif kind == "equivariant":
        x = serialize.equivariant_from_json(doc)
        held = [x.complex]
    else:
        x = serialize.coalgebra_from_json(doc)
        held = [t.complex for t in x.sequence.terms.values()]
    cap = os.environ.get(MAX_DIM_ENV, "20000").strip()
    if not (cap.isascii() and cap.isdigit()):
        raise UsageError("%s takes a count of basis elements, not %r"
                         % (MAX_DIM_ENV, cap))
    if any(c.total_dim() > int(cap) for c in held):
        raise UsageError("complex exceeds %s=%s basis elements"
                         % (MAX_DIM_ENV, cap))
    return x


def _document(path, kind):
    """The positional document at path, decoded by `_decode`.  A file that
    cannot be read (missing, a directory, not UTF-8), is not JSON or has the
    wrong shape (a list for an object; a matrix entry out of range or
    repeated, a label repeated) is a usage error."""
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except FileNotFoundError:
        raise UsageError("input file not found: %s" % path)
    except OSError as e:
        raise UsageError("cannot read %s: %s" % (path, e.strerror))
    except UnicodeDecodeError as e:
        raise UsageError("%s is not UTF-8: %s" % (path, e.reason))
    except json.JSONDecodeError as e:
        raise UsageError("malformed JSON in %s: %s" % (path, e))
    try:
        return _decode(doc, kind)
    except (TypeError, AttributeError, IndexError) as e:
        raise UsageError("malformed document: %s" % e)


def _dims(complex_, w=None):
    """{str(k): dim H_k} over the window's degrees (default: the support),
    zeros included."""
    dims = complex_.homology_dims(w)
    return {str(k): dims.get(k, 0)
            for k in (w.degrees() if w else complex_.support())}


def cmd_homology(args):
    return {"dims": _dims(args.input),
            "window": "all supported degrees (finite complex)"}


def cmd_tate(args):
    """Tate homology; `--group` and `--field`, when given, must name the
    document's Young group (S3x1 for blocks [3, 1]) and field."""
    e, w = args.input, args.window
    group = "S" + "x".join(str(b) for b in e.group.blocks)
    if args.group is not None and args.group != group:
        raise UsageError("--group %s does not match the document's group %s"
                         % (args.group, group))
    if args.field is not None and field_from_name(args.field) != e.field:
        raise UsageError("--field %s does not match the document's field %s"
                         % (args.field, e.field.name()))
    return {"group": list(e.group.blocks),
            "dims": _dims(equivariant.tate(e, w), w),
            "window": serialize.window_to_json(w)}


def cmd_bar_com(args):
    c = operads.bar_complex(field_from_name(args.field), args.n)
    return {"arity": args.n,
            "normalized_dims": {str(k): c.dim(k) for k in c.support()},
            "homology": _dims(c),
            "window": "exact (finite complex)"}


def cmd_partition_nerve(args):
    nerve, comparison = operads.partition_poset_nerve(
        field_from_name(args.field), args.n)
    return {"n": args.n,
            "nerve_dims": {str(k): nerve.complex.dim(k)
                           for k in nerve.complex.support()},
            "comparison_homology": _dims(comparison),
            "window": "exact (finite complex)"}


def cmd_component(args):
    """k-top and k-sp: the component K_r of the Top or the Sp comonad on
    the document; k-top also says whether its model is exact."""
    top = args.command == "k-top"
    model = topcomonad.TopComponentModel if top else comonads.SpComponentModel
    comp = model(args.input, args.r, args.window)
    payload = {"r": args.r, "n": args.input.group.degree,
               "dims": _dims(comp.value.complex, args.window),
               "window": serialize.window_to_json(args.window)}
    if top:
        payload["exact"] = comp.exact
    return payload


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
    c = args.input
    b = tower.cobar(c, _parse_site(args.site, c.source))
    levels = [{str(k): sum(p.dim(k) for p in b.summands[m].values())
               for k in sorted({k for p in b.summands[m].values()
                                for k in p.dims})}
              for m in range(len(b.summands))]
    return {"levels": levels, "degenerate_above": len(levels) - 1,
            "window": serialize.window_to_json(c.window)}


def cmd_pn(args):
    c = args.input
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
    payload = {"n": args.n, "routes": reports}
    if len(reports) == 2:
        payload["routes_agree"] = \
            reports["tot"]["dims"] == reports["pullback"]["dims"]
    return payload


def cmd_derived_hom(args):
    r = tower.derived_hom(args.input, args.second)
    return {"h0": r["h0"], "dims": _dims(r["complex"], r["window"]),
            "window": serialize.window_to_json(r["window"])}


def cmd_bk_e1(args):
    r = derivedhom.bk_e1(args.input, args.second)
    page = r["e1"]
    einf = derivedhom.einf_dims(r)
    return {"e1": {"%d,%d" % k: v for k, v in sorted(page.dims().items())},
            "d1_squared_zero": page.d1_squared_zero(),
            "e2": {"%d,%d" % k: v for k, v in sorted(page.e2_dims().items())},
            "einf": {"%d,%d" % k: v for k, v in sorted(einf.items())},
            "window": serialize.window_to_json(r["window"])}


def cmd_classify(args):
    a, w = args.input, args.window
    if args.variant == "sp_sp_2":
        rep = classify.classify_2exc_sp(a["a1"], a["a2"], w)
    elif args.variant == "top_sp_2":
        rep = classify.classify_2exc_top(a["a1"], a["a2"], w)
    else:
        rep = classify.classify_3exc_sp(a["a1"], a["a2"], a["a3"], w)
    return {"variant": args.variant, **rep}


def cmd_mccarthy(args):
    c = args.input
    rep = classify.mccarthy_square_check(c, _parse_site(args.site, c.source),
                                         args.n)
    # a square map that fails validation leaves a reason, not a homology
    if "homology" in rep:
        rep["homology"] = {str(k): v for k, v in rep["homology"].items()}
    return {"n": args.n, **rep}


def cmd_check(args):
    """Full invariant suite on a coalgebra document."""
    rep = coalgebras.validate_coalgebra(args.input)
    return {"valid": rep["valid"], "failures": rep["failures"],
            "squares": {"%d,%d,%d" % k: v
                        for k, v in sorted(rep["squares"].items())},
            "window": serialize.window_to_json(args.input.window)}


def _window(text):
    lo, hi = text.split(":")
    return DegreeWindow(int(lo), int(hi))


# option kind, as -h prints it -> (what a value of it is, its converter; a
# value the converter refuses with ValueError is a usage error)
_KINDS = {"STR": ("a string", str), "INT": ("an integer", int),
          "LO:HI": ("lo:hi with lo <= hi", _window)}

# option -> (kind, required, default, allowed values or None for any)
_COMMON = {"--out": ("STR", False, None, None)}
_WINDOW = {"--window": ("LO:HI", True, None, None)}
_SITE = {"--site": ("STR", True, None, None)}
_ARITY = {"--n": ("INT", True, None, None)}
_PIECE = {"--r": ("INT", True, None, None)}
_FIELD = {"--field": ("STR", True, None, None)}
_COALGEBRA = {"input": "coalgebra"}

# subcommand -> (handler, its options besides _COMMON, its positionals in
# command-line order, each with the kind of its document)
COMMANDS = {
    "homology": (cmd_homology, {}, {"input": "chain"}),
    "tate": (cmd_tate, {"--group": ("STR", False, None, None),
                        "--field": ("STR", False, None, None), **_WINDOW},
             {"input": "equivariant"}),
    "bar-com": (cmd_bar_com, {**_ARITY, **_FIELD}, {}),
    "partition-nerve": (cmd_partition_nerve, {**_ARITY, **_FIELD}, {}),
    "k-top": (cmd_component, {**_PIECE, **_WINDOW}, {"input": "equivariant"}),
    "k-sp": (cmd_component, {**_PIECE, **_WINDOW}, {"input": "equivariant"}),
    "cobar": (cmd_cobar, _SITE, _COALGEBRA),
    "pn": (cmd_pn, {**_ARITY, **_SITE, "--route": (
        "STR", False, "both", ("tot", "pullback", "both"))}, _COALGEBRA),
    # the first document is the second argument of derived_hom and bk_e1
    "derived-hom": (cmd_derived_hom, {},
                    {"second": "coalgebra", "input": "coalgebra"}),
    "bk-e1": (cmd_bk_e1, {}, {"second": "coalgebra", "input": "coalgebra"}),
    "classify": (cmd_classify, {"--variant": (
        "STR", True, None, ("sp_sp_2", "sp_sp_3", "top_sp_2")),
        **_WINDOW}, {"input": "classify"}),
    "mccarthy": (cmd_mccarthy, {**_ARITY, **_SITE}, _COALGEBRA),
    "check": (cmd_check, {}, _COALGEBRA),
}


class Args:
    """A parsed command line: one attribute per option and positional, and
    the subcommand."""

    def __init__(self, values):
        self.__dict__.update(values)


def _help(args):
    """Print the usage of one subcommand, or of every one, from COMMANDS."""
    lines = []
    for command in [args.command] if args.command else COMMANDS:
        _, extra, positionals = COMMANDS[command]
        words = ["tcalc", command]
        for name, (kind, required, _, choices) in {**extra, **_COMMON}.items():
            word = "%s %s" % (name, "|".join(choices) if choices else kind)
            words.append(word if required else "[%s]" % word)
        lines.append(" ".join(words + list(positionals)))
    sys.stdout.write("usage: " + "\n       ".join(lines) + "\n")
    return 0


def parse(argv):
    """(handler, Args) for a command line, read against its row of COMMANDS:
    `--opt value` (the next token, even one starting with "-") or
    `--opt=value` in any order among the positionals, the last of a repeated
    option winning, each value converted by its option's kind.  Any mistake
    raises UsageError."""
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
        what, convert = _KINDS[kind]
        try:
            value = convert(value)
        except ValueError:
            raise UsageError("%s: %s takes %s, not %r"
                             % (command, name, what, value))
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
    values["command"] = command
    return handler, Args(values)


def main(argv=None):
    """Run one command line: parse it, decode and cap its documents, run
    its handler, and write the payload with "command" added to stdout or
    `--out`.  Returns the exit code: 1 when the payload's verdict is false
    (check's `valid`, mccarthy's `acyclic`), else 0; or the error's."""
    try:
        handler, args = parse(sys.argv[1:] if argv is None else argv)
        if handler is _help:
            return _help(args)
        # the last positional first: derived-hom and bk-e1 decode input
        # before second
        for name, kind in reversed(COMMANDS[args.command][2].items()):
            setattr(args, name, _document(getattr(args, name), kind))
        payload = {"command": args.command, **handler(args)}
        text = serialize.dumps(payload) + "\n"
        if args.out:
            try:
                with open(args.out, "w") as f:
                    f.write(text)
            except OSError as e:
                raise UsageError("cannot write --out %s: %s"
                                 % (args.out, e.strerror))
        else:
            sys.stdout.write(text)
        return int(any(payload.get(k) is False for k in ("valid", "acyclic")))
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
