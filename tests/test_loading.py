"""Lazy loading: a subcommand runs only the modules it uses, and the
outside-in tracer still sees every module."""

import ast
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from helpers import random_theta, random_valid_coalgebra, staircase_sequence
import tcalc
from tcalc import serialize
from tcalc.chain import ChainComplex, DegreeWindow, sphere
from tcalc.coalgebras import TruncatedCoalgebra, trivial_coalgebra
from tcalc.equivariant import trivial_action
from tcalc.fields import F2, F3, QQ
from tcalc.perms import YoungGroup
from tcalc.sparse import SparseMatrix

SRC = os.path.dirname(os.path.dirname(os.path.abspath(tcalc.__file__)))
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Runs `tcalc.cli.main(argv)` and prints the tcalc modules whose code ran
# (a registered module that was never touched is still a lazy module), and
# which of `fractions` and `decimal` were imported.
PROBE = """
import contextlib, io, json, sys, types
sys.path.insert(0, sys.argv.pop(1))
import tcalc.cli
with contextlib.redirect_stdout(io.StringIO()):
    rc = tcalc.cli.main(sys.argv[1:])
print(json.dumps([rc, sorted(
    n[len("tcalc."):] for n, m in sys.modules.items()
    if n.startswith("tcalc.") and type(m) is types.ModuleType),
    sorted({"fractions", "decimal"} & set(sys.modules))]))
"""

def _python(*args, cwd):
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=SRC)
    return subprocess.run([sys.executable] + list(args), cwd=cwd, env=env,
                          capture_output=True, timeout=120)


def _s2(tmp_path, field):
    e = trivial_action(sphere(field, 0), YoungGroup.full(2))
    path = tmp_path / ("s2-%s.json" % field.name())
    path.write_text(serialize.dumps(serialize.equivariant_to_json(e)))
    return str(path)


@pytest.fixture
def s2_doc(tmp_path):
    return _s2(tmp_path, F2)


def _job(tmp_path, *argv):
    """(the tcalc modules the job ran, the ones of `fractions` and
    `decimal` it imported)."""
    proc = _python("-c", PROBE, SRC, *argv, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr.decode()
    rc, names, stdlib = json.loads(proc.stdout)
    assert rc == 0
    return set(names), set(stdlib)


def _modules_run(tmp_path, *argv):
    return _job(tmp_path, *argv)[0]


# What `tate` runs: the value types, the resolutions and the windowed
# models, and the document and command-line layers.
EQUIVARIANT = {"cli", "serialize", "chain", "fields", "sparse", "perms",
               "equivariant"}


def test_tate_runs_only_the_equivariant_layer(tmp_path, s2_doc):
    assert _modules_run(tmp_path, "tate", "--window", "-2:2",
                        s2_doc) == EQUIVARIANT


def _code_size(stem):
    """The bytes of a tcalc module's code: its syntax tree unparsed with
    every docstring removed, so neither docstrings, comments nor layout
    count."""
    with open(os.path.join(SRC, "tcalc", stem + ".py")) as f:
        tree = ast.parse(f.read())
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)) \
                and isinstance(body[0], ast.Expr) \
                and isinstance(body[0].value, ast.Constant) \
                and isinstance(body[0].value.value, str):
            node.body = body[1:] or [ast.Pass()]
    return len(ast.unparse(tree))


def test_tate_compiles_only_the_code_of_its_layer(tmp_path, s2_doc):
    # a job byte-compiles every module it runs, whatever it enters of it;
    # the tensor and hom complexes, sub- and quotient complexes, strict
    # orbits, slotwise maps and the surjection and partition helpers live
    # in chainops, equivops and combinat, which tate never runs
    names = _modules_run(tmp_path, "tate", "--window", "-2:2", s2_doc)
    total = sum(_code_size(stem) for stem in names | {"__init__"})
    assert total <= 56569, total


def test_k_top_compiles_only_the_code_of_its_layer(tmp_path):
    # K_1 of a Sigma_3-module reads T(1), T(2) and T(3), which trees
    # builds on its own basis
    e = trivial_action(sphere(F2, 0), YoungGroup.full(3))
    path = tmp_path / "s3.json"
    path.write_text(serialize.dumps(serialize.equivariant_to_json(e)))
    names = _modules_run(tmp_path, "k-top", "--r", "1", "--window", "0:3",
                         str(path))
    assert names == EQUIVARIANT | {"combinat", "equivops", "chainops",
                                   "trees", "topcomonad"}
    total = sum(_code_size(stem) for stem in names | {"__init__"})
    assert total <= 84390, total


@pytest.mark.parametrize("field", [F2, F3], ids=lambda F: F.name())
@pytest.mark.parametrize("argv", [
    ("tate", "--window", "-2:2", "{doc}"),
    ("k-sp", "--r", "1", "--window", "-2:2", "{doc}"),
    ("bar-com", "--n", "4", "--field", "{field}"),
], ids=lambda argv: argv[0])
def test_prime_field_jobs_import_no_fractions(tmp_path, field, argv):
    # `fractions` also imports `decimal`; an F_p job holds ints only
    doc = _s2(tmp_path, field)
    argv = [doc if a == "{doc}" else field.name() if a == "{field}" else a
            for a in argv]
    assert _job(tmp_path, *argv)[1] == set()


def test_a_rational_job_still_runs(tmp_path):
    # a scalar "1/2" is read by Fraction, through rationals
    half = SparseMatrix.from_entries(1, 1, QQ, {(0, 0): Fraction(1, 2)})
    c = ChainComplex(QQ, {0: 1, 1: 1}, {1: half})
    path = tmp_path / "c.json"
    path.write_text(serialize.dumps(serialize.chain_to_json(c)))
    assert '"1/2"' in path.read_text()
    names, stdlib = _job(tmp_path, "homology", str(path))
    assert "rationals" in names and stdlib == {"fractions", "decimal"}


def test_a_job_imports_no_argument_parsing_library(tmp_path, s2_doc):
    # every job is a fresh interpreter, so each module it imports is paid
    # once per call
    proc = _python("-c", "import sys, tcalc.cli; "
                   "rc = tcalc.cli.main(sys.argv[1:]); "
                   "print(sorted({'argparse', 'gettext', 'locale'} "
                   "& set(sys.modules)))",
                   "tate", "--group", "S2", "--field", "F2", "--window",
                   "-2:2", s2_doc, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr.decode()
    result, loaded = proc.stdout.decode().splitlines()
    assert json.loads(result)["command"] == "tate"
    assert json.loads(loaded) == []


def test_homology_runs_only_the_chain_layer(tmp_path):
    doc = tmp_path / "c.json"
    doc.write_text(serialize.dumps(serialize.chain_to_json(sphere(F2, 1))))
    assert _modules_run(tmp_path, "homology", str(doc)) == {
        "cli", "serialize", "chain", "fields", "sparse"}


# What a coalgebra job runs besides its subcommand's own modules: the
# equivariant layer with the surjections and slotwise maps the comonads
# read, the coalgebra, and its source's comonad (the Top one builds tensor
# products, so it runs chainops).
LAYERS = EQUIVARIANT | {"combinat", "equivops"}
COALGEBRA = {
    "sp": LAYERS | {"sequences", "coalgebras", "comonads"},
    "top": LAYERS | {"sequences", "coalgebras", "trees", "topcomonad",
                     "chainops"},
}


@pytest.fixture
def coalgebra_doc(tmp_path):
    def make(source):
        w = DegreeWindow(0, 2) if source == "sp" else DegreeWindow(0, 3)
        c = random_valid_coalgebra(random.Random(3), F2, source, 2, w)
        path = tmp_path / ("%s.json" % source)
        path.write_text(serialize.dumps(serialize.coalgebra_to_json(c)))
        return str(path)
    return make


@pytest.mark.parametrize("source, argv, own", [
    ("sp", ("pn", "--n", "2", "--site", "S0"),
     {"tower", "spcobar", "chainops"}),
    ("top", ("pn", "--n", "2", "--site", "set:2"), {"tower", "topcobar"}),
    ("sp", ("cobar", "--site", "S0"), {"tower", "spcobar", "cosimplicial"}),
    ("top", ("cobar", "--site", "set:1"),
     {"tower", "topcobar", "cosimplicial"}),
    ("sp", ("derived-hom", "{doc}"), {"tower", "derivedhom", "chainops"}),
    ("top", ("derived-hom", "{doc}"), {"tower", "derivedhom"}),
    ("sp", ("check",), set()),
    ("top", ("check",), set()),
])
def test_tower_jobs_run_only_their_source(tmp_path, coalgebra_doc, source,
                                          argv, own):
    doc = coalgebra_doc(source)
    argv = [doc if a == "{doc}" else a for a in argv] + [doc]
    assert _modules_run(tmp_path, *argv) == COALGEBRA[source] | own


# Modules that only some jobs run: the cobar's certificate (the `cobar`
# subcommand), the Top comultiplication for r < s < n (arity-3 and arity-4
# inputs) and the law checks (the test suite alone).
ONLY_SOME = {"cosimplicial", "topdelta", "laws"}
POOL = os.path.join(ROOT, "perfbench", "pool", "tower-f2.json")


def _pool_jobs(slot):
    """({subcommand: its argv, "{c}" standing for the document}, the
    document) of variant 0 of a tower-f2 pool slot."""
    with open(POOL) as f:
        [variant] = [s["variants"][0] for s in json.load(f)["slots"]
                     if s["name"] == slot]
    return ({job["argv"][0]: job["argv"] for job in variant["jobs"]},
            variant["docs"]["c"])


@pytest.mark.parametrize("slot", ["sp3-triv", "top2"])
def test_pool_tower_jobs_run_cosimplicial_only_for_cobar(tmp_path, slot):
    jobs, doc = _pool_jobs(slot)
    path = tmp_path / "c.json"
    path.write_text(serialize.dumps(doc))
    for cmd in ("pn", "derived-hom", "bk-e1", "mccarthy", "check"):
        argv = [str(path) if a == "{c}" else a for a in jobs[cmd]]
        assert not _modules_run(tmp_path, *argv) & ONLY_SOME, cmd
    argv = [str(path) if a == "{c}" else a for a in jobs["cobar"]]
    assert _modules_run(tmp_path, *argv) & ONLY_SOME == {"cosimplicial"}


def test_top_arity_3_runs_the_comultiplication_module(tmp_path):
    # the Top N=3 staircase with nonzero theta_{1,2} and theta_{2,3}
    w = DegreeWindow(0, 4)
    A = staircase_sequence(F2, 3)
    c0 = trivial_coalgebra("top", A, w)
    rng = random.Random(11)
    theta = {key: random_theta(c0, *key, rng) for key in ((1, 2), (2, 3))}
    c = TruncatedCoalgebra("top", A, w, theta, komonad=c0.komonad)
    path = tmp_path / "c.json"
    path.write_text(serialize.dumps(serialize.coalgebra_to_json(c)))
    assert _modules_run(tmp_path, "check", str(path)) & ONLY_SOME == {
        "topdelta"}


# PROBE under a profiler that counts the entries into trees.decompose
COUNT_DECOMPOSE = """
import sys
calls = []
sys.setprofile(lambda frame, event, arg: event == "call"
               and frame.f_code.co_name == "decompose"
               and frame.f_code.co_filename.endswith("trees.py")
               and calls.append(1))
""" + PROBE + "sys.setprofile(None)\nprint(len(calls))\n"


def _decompose_calls(tmp_path, *argv):
    proc = _python("-c", COUNT_DECOMPOSE, SRC, *argv, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr.decode()
    result, calls = proc.stdout.decode().splitlines()
    assert json.loads(result)[0] == 0
    return int(calls)


def test_no_job_builds_a_decomposition_map(tmp_path, coalgebra_doc):
    # T_*'s ungrafting maps are built only by laws.decomposition; a job
    # builds the complexes T(n) alone, and only topdelta (Top inputs of
    # arity >= 3) ungrafts trees
    e = trivial_action(sphere(F2, 0), YoungGroup.full(4))
    path = tmp_path / "s4.json"
    path.write_text(serialize.dumps(serialize.equivariant_to_json(e)))
    assert _decompose_calls(tmp_path, "k-top", "--r", "1", "--window", "0:3",
                            str(path)) == 0
    assert _decompose_calls(tmp_path, "pn", "--n", "2", "--site", "set:2",
                            coalgebra_doc("top")) == 0


def test_classify_runs_only_the_equivariant_layer(tmp_path):
    # and so no laws: the paragraph-7 validators live there
    doc = {"a1": serialize.chain_to_json(sphere(F2, 0)),
           "a2": serialize.equivariant_to_json(
               trivial_action(sphere(F2, 0), YoungGroup.full(2)))}
    path = tmp_path / "pair.json"
    path.write_text(serialize.dumps(doc))
    # (the Hom(A_1, A_1) class count reads chainops's hom complex)
    assert _modules_run(tmp_path, "classify", "--variant", "sp_sp_2",
                        "--window", "-3:3", str(path)) == EQUIVARIANT | {
        "classify", "chainops"}


def test_k_sp_runs_no_top_module(tmp_path, s2_doc):
    # K_r's model subclasses equivops.SlotwiseModel
    assert _modules_run(tmp_path, "k-sp", "--r", "1", "--window", "-2:2",
                        s2_doc) == EQUIVARIANT | {"comonads", "equivops",
                                                  "combinat"}


def test_bar_com_runs_no_tower_module(tmp_path):
    assert _modules_run(tmp_path, "bar-com", "--n", "3", "--field", "F2") == {
        "cli", "serialize", "chain", "fields", "sparse", "perms", "operads",
        "combinat"}


def test_partition_nerve_adds_only_the_equivariant_layer(tmp_path):
    assert _modules_run(tmp_path, "partition-nerve", "--n", "3",
                        "--field", "F2") == EQUIVARIANT | {"operads",
                                                           "combinat"}


def test_operads_still_resolves_symmetric_sequence():
    # perfbench/gen_pool.py imports it from here
    assert tcalc.operads.SymmetricSequence is \
        tcalc.sequences.SymmetricSequence
    with pytest.raises(AttributeError):
        tcalc.operads.no_such_name


def test_module_run_as_script_is_quiet(tmp_path, s2_doc):
    argv = ["tate", "--window", "-2:2", s2_doc]
    script = _python("-m", "tcalc.cli", *argv, cwd=tmp_path)
    assert script.returncode == 0
    assert script.stderr == b""
    assert json.loads(script.stdout)["command"] == "tate"


def test_tracer_sees_every_module_and_keeps_stdout(tmp_path, s2_doc):
    argv = ["tate", "--group", "S2", "--field", "F2", "--window", "-2:2",
            s2_doc]
    plain = _python("-c", "import sys, tcalc.cli; "
                    "sys.exit(tcalc.cli.main(sys.argv[1:]))", *argv,
                    cwd=tmp_path)
    out = tmp_path / "trace.json"
    traced = _python(os.path.join(ROOT, "perfbench", "tracer.py"), SRC,
                     str(out), *argv, cwd=tmp_path)
    assert plain.returncode == traced.returncode == 0, traced.stderr.decode()
    assert traced.stdout == plain.stdout
    trace = json.loads(out.read_text())
    assert set(trace["layer_self"]) == {
        "chain", "classify", "cli", "coalgebras", "comonads", "equivariant",
        "fields", "operads", "perms", "serialize", "sparse", "tower", "trees"}
    assert trace["main_s"] > 0
    assert sum(trace["layer_self"].values()) == pytest.approx(
        trace["main_s"], rel=1e-9, abs=1e-12)
    assert trace["counts"]["coerce_calls"] > 0
