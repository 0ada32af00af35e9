"""tools/design_rules.py: the package keeps every design rule, and each rule
names itself when a violation of it is planted in one module."""

import pathlib
import shutil
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import design_rules  # noqa: E402

# every rule but the last, which starts an interpreter per module
AST_RULES = design_rules.RULES[:-1]
LOADS = design_rules.RULES[-1:]

# (rule, module, code appended to it)
PLANTS = [
    ("Imports are module-level",
     "tower", "def _planted():\n    import os\n    return os\n"),
    ("Standard-library imports stay on an allowlist",
     "tower", "import random\nPLANTED = random\n"),
    ("Every imported name is read in its module (__init__.py re-exports)",
     "tower", "from .fields import QQ as unused_q\n"),
    ("Every local a function assigns is read (names starting with _ exempt)",
     "tower", "def _planted():\n    x = 1\n    return 2\n"),
    ("A module reads no private name of a sibling module (allowlist)",
     "tower", "def _planted():\n    return chainops._private_x\n"),
    ("Only the comonads read a model's kind",
     "tower", "def _planted(m):\n    return m.kind\n"),
    # laws may read it only inside to_strict_orbits
    ("Only the comonads read a model's kind",
     "laws", "def _planted(m):\n    return m.kind\n"),
    ("Only `tower` picks the comonad's nested models",
     "spcobar", "def _planted(K):\n    return K.delta_outer\n"),
    ("Only coalgebras, serialize and laws build a coalgebra",
     "tower", "def _planted(x):\n    return TruncatedCoalgebra(x)\n"),
    ("Only tower and laws bind the cosimplicial module",
     "spcobar", "from . import cosimplicial\nPLANTED = cosimplicial\n"),
    ("No module outside laws builds a CosimplicialComplex",
     "tower", "def _planted(x):\n    return x.CosimplicialComplex\n"),
    ("Constructors take no check switch (validate() certifies)",
     "tower", "def _planted(check=False):\n    return check\n"),
    ("No assert outside laws (python -O strips it)",
     "tower", "def _planted(x):\n    assert x\n"),
    ("No caller sizes a windowed model's resolution",
     "tower", "def _planted(stages=1):\n    return stages\n"),
    ("No caller chooses the tree cooperad or skips the comultiplication",
     "tower", "def _planted(coop=None):\n    return coop\n"),
    ("One matrix-assembly path and one read path (sparse.py owns the "
     "storage)", "tower", "def _planted(m):\n    return m.data\n"),
    ("No map is rebuilt on another basis by position",
     "tower",
     "def _planted(x, y, f):\n    return ChainMap(x, y, f.components)\n"),
    ("Only `cli.main` writes output and sets the exit code",
     "cli", "def cmd_x(args):\n    return 1\n"),
]


@pytest.fixture(scope="module")
def package():
    return design_rules.parse(ROOT)


def test_every_rule_has_a_planted_violation():
    assert {name for name, _, _ in PLANTS} == \
        {name for name, _, _ in AST_RULES}


def test_the_package_keeps_every_syntax_rule(package):
    assert design_rules.broken(ROOT, package, AST_RULES) == []


@pytest.mark.parametrize("name, stem, code", PLANTS,
                         ids=["%d-%s" % (i, stem)
                              for i, (_, stem, _) in enumerate(PLANTS)])
def test_a_planted_violation_names_its_rule(package, name, stem, code):
    path = next(path for path, _, _ in package if path.stem == stem)
    planted = design_rules.module(path, (ROOT / path).read_text()
                                  + "\n\n" + code)
    found = design_rules.broken(ROOT, [planted], AST_RULES)
    assert [rule for rule, _, _ in found] == [name]


def test_a_half_run_module_names_the_load_rule(package, tmp_path):
    # tower binding topcobar closes an import cycle; loaded first,
    # topcobar leaves tower half-run
    shutil.copytree(ROOT / "src" / "tcalc", tmp_path / "src" / "tcalc",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "src" / "tcalc" / "tower.py", "a") as f:
        f.write("\n\nfrom .topcobar import TopCobarBuilder\n")
    first = [m for m in package if m[0].stem == "topcobar"]
    [(name, _, bad)] = design_rules.broken(tmp_path, first, LOADS)
    assert name == "Every module loads on its own"
    assert "tower lacks ['TopCobarBuilder']" in bad[0]
