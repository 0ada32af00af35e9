"""Design rules of the tcalc package, checked on its source.

    python tools/design_rules.py

Parses every src/tcalc/*.py once and checks it against RULES, a table of
(name, rule, message) with each rule's reason.  A rule maps the repository
root and the parsed modules to the places that break it.  Prints the name,
message and places of every broken rule, and exits 1 if any rule is broken,
else 0.  Every rule but the last reads only the syntax trees; the last,
"Every module loads on its own", starts a fresh interpreter per module.
"""

import ast
import os
import pathlib
import subprocess
import sys
import textwrap

PKG = pathlib.Path("src", "tcalc")


def module(path, source):
    """(path relative to the repository root, syntax tree, every node of
    the tree in `ast.walk` order): walked once, read by every rule."""
    tree = ast.parse(source)
    return path, tree, list(ast.walk(tree))


def parse(root):
    """The module() of each src/tcalc/*.py under root, by path."""
    return [module(path.relative_to(root), path.read_text())
            for path in sorted((root / PKG).glob("*.py"))]


def _named(node):
    # the name a call calls, by a bare name or an attribute
    f = node.func
    return f.id if isinstance(f, ast.Name) else \
        f.attr if isinstance(f, ast.Attribute) else None


def only_in(allowed, match, exempt=None):
    """The rule: only the modules in `allowed` may hold a node that
    `match` accepts.  match returns None for a node it refuses, "" for
    one it accepts, or the name a report lists after the line.  exempt
    maps a module to one of its functions, whose nodes are let through."""
    def rule(root, modules):
        bad = []
        for path, _, nodes in modules:
            if path.stem in allowed:
                continue
            let = (exempt or {}).get(path.stem)
            skip = {id(n) for fn in nodes if isinstance(fn, ast.FunctionDef)
                    and fn.name == let for n in ast.walk(fn)}
            for node in nodes:
                name = match(node)
                if name is not None and id(node) not in skip:
                    bad.append("%s:%d%s" % (path, node.lineno,
                                            ": " + name if name else ""))
        return bad
    return rule


def banned(names, attributes=False):
    """The rule: no module names a parameter or keyword in `names` (nor,
    with `attributes`, an attribute)."""
    def match(node):
        name = node.arg if isinstance(node, (ast.arg, ast.keyword)) \
            else node.attr if attributes and isinstance(node, ast.Attribute) \
            else None
        return name if name in names else None
    return only_in((), match)


def _kind(node):
    return "" if isinstance(node, ast.Attribute) and node.attr == "kind" \
        and isinstance(node.ctx, ast.Load) else None


def _delta_outer(node):
    return "" if isinstance(node, ast.Attribute) \
        and node.attr == "delta_outer" else None


def _builds_coalgebra(node):
    name = _named(node) if isinstance(node, ast.Call) else None
    return name if name in {"TruncatedCoalgebra", "truncate_coalgebra"} \
        else None


def _binds_cosimplicial(node):
    return "" if isinstance(node, ast.ImportFrom) and node.level == 1 \
        and (node.module == "cosimplicial"
             or any(a.name == "cosimplicial" for a in node.names)) else None


def _cosimplicial_complex(node):
    name = node.id if isinstance(node, ast.Name) else \
        node.attr if isinstance(node, ast.Attribute) else \
        node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
        else None
    return name if name in {"CosimplicialComplex", "assemble"} else None


def _assert(node):
    return "" if isinstance(node, ast.Assert) else None


def _matrix_storage(node):
    if isinstance(node, ast.Attribute) and node.attr == "data" \
            and not (isinstance(node.value, ast.Name)
                     and node.value.id == "self"):
        return "touches a matrix's storage"
    if isinstance(node, ast.Call) and _named(node) == "SparseMatrix" \
            and (len(node.args) > 3 or node.keywords):
        return "hands the constructor storage"
    return None


def module_level_imports(root, modules):
    bad = []
    for path, tree, nodes in modules:
        top = {id(node) for node in tree.body}
        for node in nodes:
            if isinstance(node, (ast.Import, ast.ImportFrom)) \
                    and id(node) not in top:
                bad.append("%s:%d" % (path, node.lineno))
    return bad


STDLIB_ALLOWED = {"__future__", "fractions", "functools", "importlib",
                  "itertools", "json", "math", "os", "sys"}


def stdlib_allowlist(root, modules):
    bad = []
    for path, _, nodes in modules:
        for node in nodes:
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top in sys.stdlib_module_names \
                        and top not in STDLIB_ALLOWED:
                    bad.append("%s:%d: %s" % (path, node.lineno, top))
    return bad


def imports_read(root, modules):
    bad = []
    for path, _, nodes in modules:
        if path.name == "__init__.py":
            continue
        read = {n.id for n in nodes if isinstance(n, ast.Name)}
        for node in nodes:
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in read:
                    bad.append("%s:%d: %s" % (path, node.lineno, name))
    return bad


def locals_read(root, modules):
    scopes = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
    bad = []
    for path, _, nodes in modules:
        for fn in nodes:
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            stored, free, todo = {}, set(), list(fn.body)
            while todo:
                node = todo.pop()
                if isinstance(node, (ast.Global, ast.Nonlocal)):
                    free.update(node.names)
                elif isinstance(node, ast.Name) \
                        and isinstance(node.ctx, ast.Store):
                    stored.setdefault(node.id, node.lineno)
                if not isinstance(node, scopes):
                    todo.extend(ast.iter_child_nodes(node))
            read = {n.id for n in ast.walk(fn) if isinstance(n, ast.Name)
                    and isinstance(n.ctx, ast.Load)}
            for name, line in sorted(stored.items()):
                if name not in read | free and not name.startswith("_"):
                    bad.append("%s:%d: %s in %s" % (path, line, name, fn.name))
    return bad


PRIVATE_ALLOWED = {
    "tower._Levels": "the cobar index walk every level builder subclasses",
    "derivedhom._HomLevels": "the Hom-side levels that laws' strict module "
                             "derived hom subclasses",
    "operads._refinements": "the partition refinement order laws' leveled "
                            "bar construction reads",
}


def no_sibling_privates(root, modules):
    bad = []
    for path, _, nodes in modules:
        siblings, reads = {}, []
        for node in nodes:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None:
                        siblings[alias.asname or alias.name] = alias.name
                    else:
                        reads.append((node.module, alias.name, node.lineno))
        for node in nodes:
            if isinstance(node, ast.Attribute) \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id in siblings:
                reads.append((siblings[node.value.id], node.attr,
                              node.lineno))
        for module_name, name, line in reads:
            qual = "%s.%s" % (module_name, name)
            if name.startswith("_") and not name.startswith("__") \
                    and qual not in PRIVATE_ALLOWED:
                bad.append("%s:%d: %s" % (path, line, qual))
    return bad


def no_positional_rebuild(root, modules):
    bad = []
    for path, _, nodes in modules:
        for node in nodes:
            if isinstance(node, ast.FunctionDef) \
                    and node.name == "transport" \
                    or isinstance(node, ast.Call) \
                    and _named(node) == "transport":
                bad.append("%s:%d: transport" % (path, node.lineno))
            elif path.name != "chain.py" and isinstance(node, ast.Call) \
                    and _named(node) == "ChainMap" and len(node.args) > 2 \
                    and isinstance(node.args[2], ast.Attribute) \
                    and node.args[2].attr == "components":
                bad.append("%s:%d" % (path, node.lineno))
    return bad


def cli_main_writes(root, modules):
    def exit_code(node):
        # an int constant, or a choice between int constants
        if isinstance(node, ast.IfExp):
            return exit_code(node.body) or exit_code(node.orelse)
        return isinstance(node, ast.Constant) and type(node.value) is int
    bad = []
    for path, tree, _ in modules:
        if path.name != "cli.py":
            continue
        for fn in tree.body:
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                if fn.name not in ("main", "_help") \
                        and isinstance(node, ast.Attribute) \
                        and node.attr == "stdout" \
                        and getattr(node.value, "id", None) == "sys":
                    bad.append("%s:%d: %s reads sys.stdout"
                               % (path, node.lineno, fn.name))
                if fn.name.startswith("cmd_") \
                        and isinstance(node, ast.Return) \
                        and exit_code(node.value):
                    bad.append("%s:%d: %s returns an exit code"
                               % (path, node.lineno, fn.name))
    return bad


# run in a fresh interpreter with the module to load first as argv[1]
LOAD_CHECK = textwrap.dedent("""
    import ast, importlib, pathlib, sys
    def load(stem):
        name = "tcalc" if stem == "__init__" else "tcalc." + stem
        return importlib.import_module(name).__dict__
    load(sys.argv[1])
    for path in sorted(pathlib.Path("src/tcalc").glob("*.py")):
        bound = set()
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                bound.add(node.name)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                bound.update((a.asname or a.name).split(".")[0]
                             for a in node.names)
            elif isinstance(node, ast.Assign):
                bound.update(t.id for t in node.targets
                             if isinstance(t, ast.Name))
        missing = bound - set(load(path.stem))
        if missing:
            sys.exit("%s lacks %s" % (path.stem, sorted(missing)))
""")


def loads_alone(root, modules):
    """Each of `modules` loaded first; the whole package under root
    checked after it."""
    env = dict(os.environ, PYTHONPATH="src")
    bad = []
    for path, _, _ in modules:
        proc = subprocess.run(
            [sys.executable, "-c", LOAD_CHECK, path.stem], cwd=root, env=env,
            capture_output=True, text=True)
        if proc.returncode:
            bad.append("loaded first: %s\n%s" % (path.stem, proc.stderr))
    return bad


RULES = [
    ("Imports are module-level", module_level_imports,
     "hoist these function-local imports to module level:"),
    ("Standard-library imports stay on an allowlist", stdlib_allowlist,
     "every import is paid once per CLI job (each job is a fresh "
     "interpreter); these standard-library modules are not on the "
     "allowlist:"),
    ("Every imported name is read in its module (__init__.py re-exports)",
     imports_read, "imported but never read:"),
    # A name bound in a function's own scope (an assignment, a loop or
    # with target, an unpacked tuple) must be read somewhere in the
    # function, nested functions included; bind `_` for a value that
    # is thrown away.
    ("Every local a function assigns is read (names starting with _ exempt)",
     locals_read, "assigned but never read:"),
    # `from .X import _name` and `X._name` (X bound by `from . import X`)
    # reach into a sibling's internals; each allowed one says why.
    ("A module reads no private name of a sibling module (allowlist)",
     no_sibling_privates,
     "private names of a sibling module (make them public, or allow them "
     "with a reason):"),
    # a component model applies its comonad to maps itself
    # (`model.apply(f, target)`), so callers need not branch on its
    # kind; `topdelta` is the Top comultiplication's own module, and
    # `laws.to_strict_orbits` (the first leg of the comparison nu)
    # takes each Top model kind to strict orbits
    ("Only the comonads read a model's kind",
     only_in({"topcomonad", "topdelta", "comonads"}, _kind,
             exempt={"laws": "to_strict_orbits"}),
     "only topcomonad, topdelta, comonads and laws.to_strict_orbits read "
     ".kind; call the model's method instead:"),
    # K^m A's pieces and their models come from one rule,
    # tower.chain_model: a strictly nested chain (q, s, n) reads the
    # comonad's outer model delta_outer, every other chain a
    # component.  The comonads build delta_outer, and laws checks the
    # comultiplication on it; a level builder reads its pieces from
    # tower instead of choosing them by the coalgebra's source.
    ("Only `tower` picks the comonad's nested models",
     only_in({"topcomonad", "comonads", "tower", "laws"}, _delta_outer),
     "read a chain's model through tower.chain_model (or its piece from "
     "tower.cobar_pieces); only topcomonad, comonads, tower and laws read "
     ".delta_outer:"),
    # A stage p_n reads its coalgebra's own terms of arity <= n, comonad
    # and theta (tower.cobar_pieces); up to arity n those are the
    # n-truncation's, so no job builds a truncated copy.  A document's
    # coalgebra is built by serialize, and the truncated copy the tests
    # compare the stages with by laws.truncate_coalgebra.
    ("Only coalgebras, serialize and laws build a coalgebra",
     only_in({"coalgebras", "serialize", "laws"}, _builds_coalgebra),
     "read the coalgebra itself up to the stage's top arity; only "
     "coalgebras, serialize and laws build one:"),
    # Every tower job but `cobar` totalizes a level builder's
    # strict-chain pieces with fat_tot(builder).  `cobar` certifies
    # the builder on its keyed blocks (tower.cobar, through
    # cosimplicial.certify) and assembles no level; only the law
    # checks and the tests build a CosimplicialComplex.
    # tests/test_loading.py checks which jobs run the module.
    ("Only tower and laws bind the cosimplicial module",
     only_in({"tower", "laws"}, _binds_cosimplicial),
     "totalize a level builder with fat_tot(builder), which reads its "
     "strict-chain pieces, or certify it with tower.cobar:"),
    # The whole cosimplicial object (every level a direct sum, every
    # structure map a level-sized matrix) and `assemble`, which builds
    # it from a level builder, live in laws; the cobar job certifies
    # the keyed blocks instead (cosimplicial.certify).
    ("No module outside laws builds a CosimplicialComplex",
     only_in({"laws"}, _cosimplicial_complex),
     "read the builder's keyed pieces and blocks, or certify it with "
     "tower.cobar; only laws builds the whole cosimplicial object:"),
    ("Constructors take no check switch (validate() certifies)",
     banned({"check", "arity_bound", "check_degeneracy",
             "check_equivariance"}),
     "call validate() instead of passing a check switch:"),
    # a job-path check raises (ValueError and the like): `python -O`
    # removes every assert statement, so a check written as one would
    # let a mismatched input through; laws runs only under the tests
    ("No assert outside laws (python -O strips it)",
     only_in({"laws"}, _assert), "`python -O` strips assert; raise instead:"),
    # homotopy orbit, fixed and Tate models extend their resolution to
    # their own length (equivariant._total_complex): no stage past it
    # adds a basis vector, so no caller chooses one
    ("No caller sizes a windowed model's resolution",
     banned({"stages", "extra_stages", "fixed_stages"}),
     "a windowed model sizes its own resolution; pass no length:"),
    # T_* is the dual of the derivatives of the identity, so T(n)
    # depends on the field alone: trees.term builds it once per field
    # and arity, and no model holds or takes a cooperad.  Every Top
    # comonad builds its comultiplication.
    ("No caller chooses the tree cooperad or skips the comultiplication",
     banned({"coop", "build_delta"}, attributes=True),
     "read T(n) from trees.term and build every delta; pass neither:"),
    # Outside sparse.py a matrix is built by SparseMatrix.from_entries
    # (or chain.linear_map on labels) and read through items() and
    # by_column(): its storage attribute `data`
    # ({row: bitset} over F_2, {row: {col: scalar}} otherwise) is neither
    # read nor written, nor passed to the constructor.
    ("One matrix-assembly path and one read path (sparse.py owns the "
     "storage)", only_in({"sparse"}, _matrix_storage),
     "assemble with SparseMatrix.from_entries and read with items() or "
     "by_column() instead:"),
    # A matrix means something only on the basis it indexes, and two
    # bases meet when they are one complex or label-equal
    # (chain.ChainComplex.same_basis), which compose, +, -, block_map
    # and EquivariantComplex.validate check.  ChainMap(x, y,
    # f.components) reads f's matrices on x and y by position and
    # checks nothing; a change of basis is a chain.label_map, strict
    # unless its caller asks to drop labels.  chain.py builds its own
    # algebra this way.  No `transport` is defined or called: a map
    # carried by label onto other complexes dropped the entries
    # without a counterpart, silently.
    ("No map is rebuilt on another basis by position", no_positional_rebuild,
     "a map rebuilt on other complexes from another map's components, or "
     "carried there by a transport; compose with a label_map, or build it "
     "on its own complexes:"),
    # main decodes and caps every document, writes the payload to
    # stdout or --out and returns the exit code from its verdict;
    # a cmd_* handler only computes and returns its payload, and
    # _help prints the usage
    ("Only `cli.main` writes output and sets the exit code", cli_main_writes,
     "only cli.main writes output and sets the exit code; a handler returns "
     "its payload:"),
    # A lazy module runs on its first attribute access.  Each module is
    # forced first, in a fresh interpreter, by reading its __dict__;
    # then every module must hold every name its source binds at top
    # level.  An error raised while a nested lazy load runs can be
    # swallowed (the import system's __spec__ lookup clears it) and
    # leave that module half-run, so a missing name is the symptom an
    # entry-order-dependent import cycle leaves.
    ("Every module loads on its own", loads_alone, None),
]


def broken(root, modules, rules=RULES):
    """(name, message, places) of each rule that the modules break."""
    found = []
    for name, rule, message in rules:
        bad = rule(root, modules)
        if bad:
            found.append((name, message, bad))
    return found


def main():
    root = pathlib.Path(__file__).resolve().parent.parent
    found = broken(root, parse(root))
    for name, message, bad in found:
        print("\n".join(line for line in ["broken: " + name, message, *bad]
                        if line) + "\n")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
