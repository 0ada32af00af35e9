"""Function-coverage gate: a job module holds only what some subcommand runs.

    PYTHONHASHSEED=0 python tools/function_coverage.py

The rule, for every function under src/tcalc/:

* in `laws`, which only the test suite loads, the function is entered by
  the Tier-1 suite or by a pool job;
* everywhere else it is entered by a job of the benchmark pool, or it is in
  LISTED.  A listed function names the CLI input outside the pool that
  reaches it, what in perfbench/ imports it, or, for a method of a public
  value type, why the tests read it; it must still be entered by Tier-1.
  Code that no subcommand runs on any input is deleted when nothing reads
  it, moved into `laws` when only `laws` and the tests read it, and moved
  into tests/helpers.py when only the tests build inputs with it.

Runs the Tier-1 suite (pytest, in this process), and every job of every
variant in perfbench/pool/*.json through `tcalc.cli.main` in a fresh
interpreter, so that no cache the suite filled hides a function from the
pool; both run under a call-event profiler (`sys.setprofile`).  The pool
is only read: each variant's documents are written to a temporary
directory.  A function is keyed by (co_filename, co_firstlineno), which for
a decorated function is the line of its first decorator (`co_qualname` does
not exist on 3.10), and named `module.qualname` in LISTED.  Exits 1 listing
every function that breaks the rule, and every LISTED name that is no
longer defined, lives in `laws` or is entered by a pool job; `__repr__` is
exempt.
"""

import ast
import contextlib
import glob
import io
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PKG = os.path.join(SRC, "tcalc")
sys.path[:0] = [SRC, os.path.join(ROOT, "perfbench")]

import pytest  # noqa: E402

from jobs import doc_bytes, resolve  # noqa: E402

EXEMPT = {"__repr__"}

GEN_POOL = "perfbench/gen_pool.py builds the pool's documents with it"
TOP_N3 = ("a Top coalgebra of truncation >= 3 (delta_{r,s} for r < s < n): "
          "check, pn, cobar or derived-hom")
LISTED = {
    # perfbench/ imports these, and it changes only with the benchmark
    "chain.sphere": GEN_POOL,
    "coalgebras.trivial_coalgebra": GEN_POOL,
    "equivariant.regular_module": GEN_POOL,
    "equivariant.trivial_action": GEN_POOL,
    "operads.__getattr__": "perfbench/gen_pool.py imports "
                           "SymmetricSequence from operads",
    "serialize._label_to_json": GEN_POOL,
    "serialize.matrix_to_json": GEN_POOL,
    "serialize.chain_to_json": GEN_POOL,
    "serialize.map_to_json": GEN_POOL,
    "serialize.equivariant_to_json": GEN_POOL,
    "serialize.sequence_to_json": GEN_POOL,
    "serialize.coalgebra_to_json": GEN_POOL,
    # CLI inputs outside the pool
    "cli.cmd_homology": "`homology DOC`",
    "cli._help": "`-h` and `help`",
    "chain.ChainMap.__add__": "check on " + TOP_N3 + " (its route1 - "
                              "route2)",
    "chain.ChainMap.__sub__": "check on " + TOP_N3 + " (its route1 - "
                              "route2)",
    "derivedhom._HomLevels._middle": "derived-hom on " + TOP_N3,
    "combinat.koszul_sign": TOP_N3,
    "topcomonad.TopComonad.kq_theta": TOP_N3,
    "equivops.SlotwiseModel.apply": TOP_N3 + " (K on maps in kq_theta "
                                    "and the comultiplication)",
    "topdelta._factorizations": TOP_N3,
    "topdelta.top_delta_on_sums": TOP_N3,
    "topdelta.top_delta_on_sums.image": TOP_N3,
    "topdelta._split_trees": TOP_N3,
    "topdelta._slot_inside": TOP_N3,
    "topdelta.build_top_delta": TOP_N3,
    "topdelta.build_top_delta.image": TOP_N3,
    # T_*'s decompositions: laws.decomposition builds the maps, and on the
    # job path only topdelta._split_trees ungrafts trees
    "trees.decompose": TOP_N3,
    "perms.YoungGroup.order": "a document whose group has degree > 4, "
                              "refused by EquivariantComplex.validate",
    "perms.YoungGroup.__str__": "a document whose group has degree > 4, "
                                "named in the refusal",
    # methods of public value types, and why the tests read them
    "chain.ChainComplex.homology": "tests and laws read homology with its "
                                   "representing cycles",
    "chain.DegreeWindow.__eq__": "windows are compared and hashed as "
                                 "values",
    "chain.DegreeWindow.__hash__": "windows are compared and hashed as "
                                   "values",
    "coalgebras.FinitePointedSet.__eq__": "sites are compared as values",
    "coalgebras.FinitePointedSet.__hash__": "sites are hashed as values",
    "fields.FieldSpec.add": "tests and laws add scalars",
    "fields.FieldSpec.format_scalar": "tests and the serialize writers "
                                      "print scalars",
    "perms.YoungGroup.__hash__": "groups are hashed as values",
    "sparse.SparseMatrix.nnz": "tests count a matrix's entries",
    "sparse.SparseMatrix.__getitem__": "tests read single entries",
    "sparse.SparseMatrix.__add__": "tests and ChainMap.__add__ add "
                                   "matrices",
}


def defined_functions():
    """{(path, first line): module.qualname} for every def under
    src/tcalc/."""
    out = {}

    def walk(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = min([child.lineno] +
                           [d.lineno for d in child.decorator_list])
                if child.name not in EXEMPT:
                    out[(path, line)] = prefix + child.name
                walk(child, prefix + child.name + ".", path)
            elif isinstance(child, ast.ClassDef):
                walk(child, prefix + child.name + ".", path)
            else:
                walk(child, prefix, path)

    for path in sorted(glob.glob(os.path.join(PKG, "*.py"))):
        with open(path) as f:
            walk(ast.parse(f.read()), os.path.basename(path)[:-3] + ".",
                 os.path.realpath(path))
    return out


def profiled(run):
    """(result of run(), {(path, first line)} of every frame entered)."""
    seen = set()

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            seen.add((code.co_filename, code.co_firstlineno))

    sys.setprofile(hook)
    try:
        result = run()
    finally:
        sys.setprofile(None)
    real = {p: os.path.realpath(p) for p in {p for p, _ in seen}}
    return result, {(real[p], line) for p, line in seen}


def run_tier1():
    return pytest.main(["-q", "-p", "no:cacheprovider",
                        os.path.join(ROOT, "tests")])


def run_pool():
    """Run every pool job in-process; returns the number of jobs run."""
    # not imported at the top: the package import must run under the profiler
    import tcalc.cli
    count = 0
    cwd = os.getcwd()
    for pool_path in sorted(glob.glob(os.path.join(ROOT, "perfbench", "pool",
                                                   "*.json"))):
        with open(pool_path) as f:
            pool = json.load(f)
        for slot in pool["slots"]:
            for variant in slot["variants"]:
                with tempfile.TemporaryDirectory() as work:
                    names = {}
                    for key, doc in variant["docs"].items():
                        names[key] = os.path.join(work, key + ".json")
                        with open(names[key], "wb") as f:
                            f.write(doc_bytes(doc))
                    os.chdir(work)
                    try:
                        for job in variant["jobs"]:
                            argv = resolve(job["argv"], names)
                            with contextlib.redirect_stdout(io.StringIO()), \
                                    contextlib.redirect_stderr(io.StringIO()):
                                tcalc.cli.main(argv)
                            count += 1
                    finally:
                        os.chdir(cwd)
    return count


def pool_entered():
    """(jobs run, {(path, first line)} entered) of the pool, run in a fresh
    interpreter (`--pool`)."""
    proc = subprocess.run([sys.executable, os.path.abspath(__file__),
                           "--pool"], capture_output=True, text=True,
                          check=True)
    jobs, seen = json.loads(proc.stdout)
    return jobs, {tuple(key) for key in seen}


def main():
    functions = defined_functions()
    jobs, pool = pool_entered()
    rc, tier1 = profiled(run_tier1)
    if rc != 0:
        print("Tier-1 failed under the profiler (pytest exit %d)" % rc)
        return 1
    pool = set(functions) & pool
    in_laws = {key for key, name in functions.items()
               if name.startswith("laws.")}
    unlisted = sorted(key for key in set(functions) - in_laws - pool
                      if functions[key] not in LISTED)
    unentered = sorted(set(functions) - tier1 - pool)
    names = {name: key for key, name in functions.items()}
    stale = sorted(name for name in LISTED if name not in names
                   or names[name] in in_laws or names[name] in pool)
    print("%d functions under src/tcalc/ (__repr__ exempt): %d entered by "
          "Tier-1, %d by the %d pool jobs; outside laws, %d listed"
          % (len(functions), len(set(functions) & tier1), len(pool), jobs,
             len(LISTED)))
    for title, keys in (
            ("outside laws, entered by no pool job and not listed",
             unlisted),
            ("entered by neither Tier-1 nor a pool job", unentered)):
        if keys:
            print("%s:" % title)
        for path, line in keys:
            print("  %s:%d %s" % (os.path.relpath(path, ROOT), line,
                                  functions[(path, line)]))
    if stale:
        print("listed, but no longer defined, in laws or entered by a pool "
              "job:\n" + "\n".join("  " + name for name in stale))
    return 1 if unlisted or unentered or stale else 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--pool"]:
        jobs, seen = profiled(run_pool)
        print(json.dumps([jobs, sorted(seen)]))
        sys.exit(0)
    sys.exit(main())
