"""Function-coverage gate: every function under src/tcalc/ must be entered by
the Tier-1 suite or by a job of the benchmark pool.

    PYTHONHASHSEED=0 python tools/function_coverage.py

Runs the Tier-1 suite (pytest, in this process), then every job of every
variant in perfbench/pool/*.json through `tcalc.cli.main`, both under a
call-event profiler (`sys.setprofile`).  The pool is only read: each
variant's documents are written to a temporary directory.  A function is
keyed by (co_filename, co_firstlineno), which for a decorated function is
the line of its first decorator (`co_qualname` does not exist on 3.10).
Exits 1 listing every function that neither entered, `__repr__` exempt.
"""

import ast
import contextlib
import glob
import io
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PKG = os.path.join(SRC, "tcalc")
sys.path[:0] = [SRC, os.path.join(ROOT, "perfbench")]

import pytest  # noqa: E402

from jobs import doc_bytes, resolve  # noqa: E402

EXEMPT = {"__repr__"}


def defined_functions():
    """{(path, first line): qualified name} for every def under src/tcalc/."""
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
            walk(ast.parse(f.read()), "", os.path.realpath(path))
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


def main():
    functions = defined_functions()
    rc, tier1 = profiled(run_tier1)
    if rc != 0:
        print("Tier-1 failed under the profiler (pytest exit %d)" % rc)
        return 1
    jobs, pool = profiled(run_pool)
    missing = sorted(set(functions) - tier1 - pool)
    print("%d functions under src/tcalc/ (__repr__ exempt): %d entered by "
          "Tier-1, %d by the %d pool jobs, %d by neither"
          % (len(functions), len(set(functions) & tier1),
             len(set(functions) & pool), jobs, len(missing)))
    for path, line in missing:
        print("  %s:%d %s" % (os.path.relpath(path, ROOT), line,
                              functions[(path, line)]))
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main())
