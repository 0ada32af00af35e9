"""CLI behavior: subcommands, exit codes, deterministic output, round trips."""

import hashlib
import json
import os
import random
import time

import pytest

from helpers import (
    corrupt_square_map, random_theta, random_valid_coalgebra, triv,
)
from tcalc import serialize
from tcalc.chain import (
    ChainComplex, ChainMap, DegreeWindow, direct_sum, sphere,
)
from tcalc.cli import main
from tcalc.coalgebras import TruncatedCoalgebra, trivial_coalgebra
from tcalc.equivariant import (
    EquivariantComplex, regular_module, trivial_action,
)
from tcalc.fields import F2, F3, QQ
from tcalc.perms import YoungGroup
from tcalc.sequences import SymmetricSequence
from tcalc.sparse import SparseMatrix


def run_cli(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(serialize.dumps(doc))
    return str(p)


def test_tate_cli(tmp_path, capsys):
    doc = serialize.equivariant_to_json(triv(F2, 2))
    p = write(tmp_path, "triv.json", doc)
    rc, out, err = run_cli(capsys, "tate", "--group", "S2", "--field", "F2",
                           "--window", "-4:4", p)
    assert rc == 0
    payload = json.loads(out)
    assert all(v == 1 for v in payload["dims"].values())
    assert payload["window"] == [-4, 4]


def test_cli_output_is_byte_stable(tmp_path, capsys):
    doc = serialize.equivariant_to_json(triv(F2, 2))
    p = write(tmp_path, "t.json", doc)
    rc1, out1, _ = run_cli(capsys, "tate", "--window", "-2:2", p)
    rc2, out2, _ = run_cli(capsys, "tate", "--window", "-2:2", p)
    # the value after an option may start with a minus, in either form
    rc3, out3, _ = run_cli(capsys, "tate", "--window=-2:2", p)
    assert rc1 == rc2 == rc3 == 0 and out1 == out2 == out3


def test_homology_cli(tmp_path, capsys):
    from tcalc.chain import ChainComplex
    from tcalc.sparse import SparseMatrix
    circle = ChainComplex(F2, {0: 2, 1: 2},
                          {1: SparseMatrix.from_rows([[1, 1], [1, 1]], F2)})
    p = write(tmp_path, "c.json", serialize.chain_to_json(circle))
    rc, out, _ = run_cli(capsys, "homology", p)
    assert rc == 0
    assert json.loads(out)["dims"] == {"0": 1, "1": 1}


def test_bar_and_nerve_cli(capsys):
    rc, out, _ = run_cli(capsys, "bar-com", "--n", "3", "--field", "F2")
    assert rc == 0
    payload = json.loads(out)
    assert payload["homology"] == {"1": 0, "2": 2}
    rc, out, _ = run_cli(capsys, "partition-nerve", "--n", "3", "--field",
                         "F2")
    assert rc == 0
    assert json.loads(out)["comparison_homology"]["2"] == 2


def test_bar_com_bounds_the_arity(capsys):
    for n in ("0", "7"):
        start = time.perf_counter()
        rc, out, err = run_cli(capsys, "bar-com", "--n", n, "--field", "F2")
        assert time.perf_counter() - start < 1.0
        assert rc == 1 and out == ""
        assert err.count("\n") == 1
        assert json.loads(err)["error"] == "validation"
    rc, out, _ = run_cli(capsys, "bar-com", "--n", "6", "--field", "F3")
    assert rc == 0
    assert json.loads(out)["homology"] == {
        "1": 0, "2": 0, "3": 0, "4": 0, "5": 120}


def test_pn_cli_routes_agree(tmp_path, capsys):
    A2 = SymmetricSequence(F2, 2, {1: triv(F2, 1), 2: triv(F2, 2)})
    c = trivial_coalgebra("sp", A2, DegreeWindow(-2, 2))
    p = write(tmp_path, "coalg.json", serialize.coalgebra_to_json(c))
    rc, out, _ = run_cli(capsys, "pn", "--n", "2", "--site", "S0",
                         "--route", "both", p)
    assert rc == 0
    payload = json.loads(out)
    assert payload["routes_agree"] is True


def test_pn_pullback_route_refuses_a_nonzero_sphere(tmp_path, capsys):
    # both routes read the S^0 cobar builder, so S^1 is refused, not
    # answered with the S^0 stage
    A2 = SymmetricSequence(F2, 2, {1: triv(F2, 1), 2: triv(F2, 2)})
    c = trivial_coalgebra("sp", A2, DegreeWindow(-2, 2))
    p = write(tmp_path, "coalg.json", serialize.coalgebra_to_json(c))
    for route in ("tot", "pullback"):
        rc, out, err = run_cli(capsys, "pn", "--n", "2", "--site", "S1",
                               "--route", route, p)
        assert rc == 1 and out == ""
        assert json.loads(err)["error"] == "validation"


def test_check_cli_flags_invalid(tmp_path, capsys):
    # a deliberately inconsistent theta: wrong degree placement makes the
    # stored matrix fail the chain-map check
    A2 = SymmetricSequence(F2, 2, {1: triv(F2, 1, deg=1), 2: triv(F2, 2)})
    c0 = trivial_coalgebra("sp", A2, DegreeWindow(-2, 2))
    import random
    th = random_theta(c0, 1, 2, random.Random(0))
    c = TruncatedCoalgebra("sp", A2, DegreeWindow(-2, 2), {(1, 2): th},
                           komonad=c0.komonad)
    doc = serialize.coalgebra_to_json(c)
    # corrupt one theta entry into a non-chain-map
    key = list(doc["theta"])[0]
    comp = doc["theta"][key]["components"]
    deg = list(comp)[0]
    comp[deg][0][2] = "0"  # zero out one entry: generically breaks squares
    p = write(tmp_path, "bad.json", doc)
    rc, out, _ = run_cli(capsys, "check", p)
    payload = json.loads(out)
    assert rc in (0, 1)
    # a valid doc passes
    p2 = write(tmp_path, "good.json", serialize.coalgebra_to_json(c))
    rc2, out2, _ = run_cli(capsys, "check", p2)
    assert rc2 == 0 and json.loads(out2)["valid"]


def test_usage_errors(tmp_path, capsys):
    rc, out, err = run_cli(capsys, "tate", "--window", "oops",
                           str(tmp_path / "missing.json"))
    assert rc == 2
    rc2, _, err2 = run_cli(capsys, "homology", str(tmp_path / "nope.json"))
    assert rc2 == 2
    assert "usage" in err2


def assert_usage_error(capsys, *argv):
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 2 and out == ""
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == "usage"


# One well-formed command line per subcommand.  Its documents need not
# exist: each malformed variant below fails while the command line is read.
WELL_FORMED = {
    "homology": ("c.json",),
    "tate": ("--window", "-2:2", "e.json"),
    "bar-com": ("--n", "3", "--field", "F2"),
    "partition-nerve": ("--n", "3", "--field", "F2"),
    "k-top": ("--r", "1", "--window", "0:2", "e.json"),
    "k-sp": ("--r", "1", "--window", "-2:2", "e.json"),
    "cobar": ("--site", "S0", "c.json"),
    "pn": ("--n", "2", "--site", "S0", "c.json"),
    "derived-hom": ("c.json", "c.json"),
    "bk-e1": ("c.json", "c.json"),
    "classify": ("--variant", "sp_sp_2", "--window", "0:2", "p.json"),
    "mccarthy": ("--n", "2", "--site", "S0", "c.json"),
    "check": ("c.json",),
}


def malformed_command_lines():
    """One pytest param per subcommand and kind of mistake."""
    for command, argv in WELL_FORMED.items():
        kinds = {
            "unknown-option": argv + ("--bogus", "1"),
            "short-option": ("-o", "x") + argv,
            "abbreviated-option": argv + ("--ou", "x"),
            "missing-value": argv + ("--out",),
            "extra-positional": argv + ("extra.json",),
        }
        if argv[0].startswith("--"):
            kinds["missing-option"] = argv[2:]
        if len(argv) < 2 or not argv[-2].startswith("--"):
            kinds["missing-positional"] = argv[:-1]
        for opt in ("--n", "--r"):
            if opt in argv:
                i = argv.index(opt) + 1
                kinds["bad-integer"] = argv[:i] + ("two",) + argv[i + 1:]
        if "--window" in argv:
            i = argv.index("--window") + 1
            kinds["bad-window"] = argv[:i] + ("oops",) + argv[i + 1:]
            kinds["empty-window"] = argv[:i] + ("3:1",) + argv[i + 1:]
        if command == "pn":
            kinds["route-outside-the-choices"] = argv + ("--route", "all")
            # choices match exactly: a route's name in another case is refused
            kinds["value-outside-the-choices"] = argv + ("--route", "Tot")
        if command == "classify":
            kinds["value-outside-the-choices"] = argv + ("--variant",
                                                         "sp_sp_9")
        for kind, bad in kinds.items():
            yield pytest.param((command,) + bad, id=command + "-" + kind)


def test_well_formed_command_lines_parse():
    from tcalc.cli import COMMANDS, parse
    for command, argv in WELL_FORMED.items():
        handler, _ = parse((command,) + argv)
        assert handler is COMMANDS[command][0]


@pytest.mark.parametrize("argv", list(malformed_command_lines()))
def test_every_command_line_mistake_is_one_json_line(capsys, argv):
    from tcalc.cli import UsageError, parse
    with pytest.raises(UsageError):
        parse(argv)
    assert_usage_error(capsys, *argv)


@pytest.mark.parametrize("argv", [(), ("nope",), ("--window", "0:1"),
                                  ("Tate", "x.json")])
def test_a_missing_or_unknown_subcommand_is_a_usage_error(capsys, argv):
    assert_usage_error(capsys, *argv)


def test_help_prints_the_usage_from_the_table(capsys):
    rc, out, err = run_cli(capsys, "-h")
    assert rc == 0 and err == ""
    assert [line.replace("usage:", "").split()[1]
            for line in out.splitlines()] == list(WELL_FORMED)
    rc, out, err = run_cli(capsys, "pn", "--n", "2", "--help")
    assert rc == 0 and err == ""
    assert out == ("usage: tcalc pn --n INT --site STR "
                   "[--route tot|pullback|both] [--out STR] input\n")
    rc, out, err = run_cli(capsys, "tate", "-h")
    assert rc == 0 and err == ""
    assert out == ("usage: tcalc tate [--group STR] [--field STR] "
                   "--window LO:HI [--out STR] input\n")


def test_an_unexpected_failure_is_one_internal_json_line(tmp_path, capsys,
                                                         monkeypatch):
    from tcalc import cli

    def broken(args):
        raise TypeError("unsupported operand")

    monkeypatch.setitem(cli.COMMANDS, "check",
                        (broken,) + cli.COMMANDS["check"][1:])
    # main decodes the document before the handler runs
    A = SymmetricSequence(F2, 1, {1: triv(F2, 1)})
    p = write(tmp_path, "c.json", serialize.coalgebra_to_json(
        trivial_coalgebra("sp", A, DegreeWindow(0, 1))))
    rc, out, err = run_cli(capsys, "check", p)
    assert rc == 1 and out == "" and err.count("\n") == 1
    assert json.loads(err) == {"error": "internal",
                               "detail": "TypeError: unsupported operand"}


def test_top_level_array_is_usage_error(tmp_path, capsys):
    p = write(tmp_path, "arr.json", [1, 2])
    assert_usage_error(capsys, "cobar", "--site", "S0", p)
    assert_usage_error(capsys, "classify", "--variant", "sp_sp_2",
                       "--window", "0:1", p)


def test_dims_list_is_usage_error(tmp_path, capsys):
    doc = serialize.equivariant_to_json(triv(F2, 2))
    doc["dims"] = [1]
    p = write(tmp_path, "dims.json", doc)
    assert_usage_error(capsys, "tate", "--window", "-1:1", p)


def test_out_of_range_entry_is_usage_error(tmp_path, capsys):
    doc = serialize.chain_to_json(sphere(F2, 0))
    doc["dims"]["1"] = 1
    doc["diff"] = {"1": [[5, 0, "1"]]}
    p = write(tmp_path, "oor.json", doc)
    assert_usage_error(capsys, "homology", p)


def test_repeated_entry_is_usage_error(tmp_path, capsys):
    # a repeated (row, col) pair is malformed: decoding it used to keep the
    # last value, so this differential read as zero
    doc = serialize.chain_to_json(sphere(F2, 0))
    doc["dims"]["1"] = 1
    doc["diff"] = {"1": [[0, 0, "1"], [0, 0, "0"]]}
    p = write(tmp_path, "repeat.json", doc)
    assert_usage_error(capsys, "homology", p)


def _dd_nonzero_doc():
    one = SparseMatrix.from_rows([[1]], F2)
    return serialize.chain_to_json(
        ChainComplex(F2, {0: 1, 1: 1, 2: 1}, {1: one, 2: one}))


def _generator_not_involution_doc():
    c = ChainComplex(F3, {0: 2})
    s = SparseMatrix.from_rows([[1, 1], [0, 1]], F3)
    return serialize.equivariant_to_json(
        EquivariantComplex(c, YoungGroup.full(2), {0: ChainMap(c, c, {0: s})}))


def _degree_five_doc():
    return serialize.equivariant_to_json(
        trivial_action(sphere(F2, 0), YoungGroup.full(5)))


@pytest.mark.parametrize("command, make_doc", [
    ("homology", _dd_nonzero_doc),
    ("tate", _generator_not_involution_doc),
    ("tate", _degree_five_doc),
])
def test_decoded_input_is_certified(tmp_path, capsys, command, make_doc):
    # constructors do not certify, so each document encodes as given; the
    # decoders validate it before any command reads it
    p = write(tmp_path, "bad.json", make_doc())
    argv = [command, p] if command == "homology" else \
        [command, "--window", "-1:1", p]
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 1 and out == ""
    assert err.count("\n") == 1 and "Traceback" not in err
    assert json.loads(err)["error"] == "validation"


@pytest.mark.parametrize("scalar", [0.1, True])
def test_non_integer_json_scalar_is_usage_error(tmp_path, capsys, scalar):
    # a float would enter as its binary value, a bool as 1
    doc = {"field": "Q", "dims": {"0": 1, "1": 1},
           "diff": {"1": [[0, 0, scalar]]}}
    p = write(tmp_path, "float.json", doc)
    assert_usage_error(capsys, "homology", p)


def test_integer_json_scalar_is_accepted(tmp_path, capsys):
    doc = {"field": "Q", "dims": {"0": 1, "1": 1}, "diff": {"1": [[0, 0, 2]]}}
    p = write(tmp_path, "int.json", doc)
    rc, out, err = run_cli(capsys, "homology", p)
    assert rc == 0 and err == ""
    assert json.loads(out)["dims"] == {"0": 0, "1": 0}


@pytest.mark.parametrize("labels", [[True, "x"], [1, True], [0.5, "x"]],
                         ids=["true-x", "1-true", "float"])
def test_non_integer_json_label_is_usage_error(tmp_path, capsys, labels):
    # True == 1 in Python, so a boolean label would be the label 1
    doc = {"field": "F2", "dims": {"0": 2}, "labels": {"0": labels}}
    rc, out, err = run_cli(capsys, "homology", write(tmp_path, "b.json", doc))
    assert rc == 2 and out == "" and err.count("\n") == 1
    error = json.loads(err)
    assert error["error"] == "usage"
    assert "neither a string nor an integer" in error["detail"]
    doc["labels"]["0"] = [1, "x"]
    rc, out, err = run_cli(capsys, "homology", write(tmp_path, "i.json", doc))
    assert rc == 0 and json.loads(out)["dims"] == {"0": 2}


@pytest.mark.parametrize("setting", ["abc", "1.5", "", "-1", "\u0663"])
def test_malformed_max_dim_is_a_usage_error(tmp_path, capsys, monkeypatch,
                                            setting):
    monkeypatch.setenv("TCALC_MAX_DIM", setting)
    p = write(tmp_path, "c.json", serialize.chain_to_json(sphere(F2, 0)))
    rc, out, err = run_cli(capsys, "homology", p)
    assert rc == 2 and out == "" and err.count("\n") == 1
    error = json.loads(err)
    assert error["error"] == "usage" and "TCALC_MAX_DIM" in error["detail"]
    monkeypatch.setenv("TCALC_MAX_DIM", " 7 ")
    assert run_cli(capsys, "homology", p)[0] == 0


def test_classify_cli(tmp_path, capsys):
    doc = {"a1": serialize.chain_to_json(sphere(F2, 0)),
           "a2": serialize.equivariant_to_json(triv(F2, 2))}
    p = write(tmp_path, "cl.json", doc)
    rc, out, _ = run_cli(capsys, "classify", "--variant", "sp_sp_2",
                         "--window", "-3:3", p)
    assert rc == 0
    assert json.loads(out)["classes"] == 2


def test_mccarthy_cli(tmp_path, capsys):
    A2 = SymmetricSequence(F2, 2, {1: triv(F2, 1), 2: triv(F2, 2)})
    c = trivial_coalgebra("sp", A2, DegreeWindow(-2, 2))
    p = write(tmp_path, "coalg.json", serialize.coalgebra_to_json(c))
    rc, out, _ = run_cli(capsys, "mccarthy", "--n", "2", "--site", "S0", p)
    assert rc == 0
    assert json.loads(out)["acyclic"]


def test_field_mismatch_rejected(tmp_path, capsys):
    doc = serialize.equivariant_to_json(triv(F2, 2))
    doc["diff"] = {"5": [[0, 0, "1/2"]]}
    p = write(tmp_path, "bad.json", doc)
    rc, out, err = run_cli(capsys, "tate", "--window", "-1:1", p)
    assert rc in (1, 2)


def test_max_dim_cap(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("TCALC_MAX_DIM", "0")
    doc = serialize.equivariant_to_json(triv(F2, 2))
    p = write(tmp_path, "t.json", doc)
    rc, out, err = run_cli(capsys, "tate", "--window", "-1:1", p)
    assert rc == 2
    # the cap covers every complex a document holds: each term of a
    # coalgebra's sequence, and classify's a1, a2 and a3
    A2 = SymmetricSequence(F2, 2, {1: triv(F2, 1), 2: triv(F2, 2)})
    coalg = write(tmp_path, "c.json", serialize.coalgebra_to_json(
        trivial_coalgebra("sp", A2, DegreeWindow(-2, 2))))
    pair = write(tmp_path, "p.json", {
        "a1": serialize.chain_to_json(sphere(F2, 0)),
        "a2": serialize.equivariant_to_json(triv(F2, 2))})
    for argv in (("check", coalg), ("pn", "--n", "2", "--site", "S0", coalg),
                 ("classify", "--variant", "sp_sp_2", "--window", "-3:3",
                  pair)):
        assert_usage_error(capsys, *argv)
        monkeypatch.setenv("TCALC_MAX_DIM", "20000")
        assert run_cli(capsys, *argv)[0] == 0
        monkeypatch.setenv("TCALC_MAX_DIM", "0")


def test_huge_prime_field_is_accepted_quickly(tmp_path, capsys):
    # trial division up to sqrt(p) ~ 10^12 ran without bound here
    p = write(tmp_path, "c.json", {"field": "F1000000000000000000000007",
                                   "dims": {"0": 1}})
    t0 = time.perf_counter()
    rc, out, err = run_cli(capsys, "homology", p)
    assert time.perf_counter() - t0 < 1.0
    assert rc == 0 and err == ""
    assert json.loads(out)["dims"] == {"0": 1}


@pytest.mark.parametrize("field", [
    "F1000000000078000000001521",      # (10^12 + 39)^2, composite
    "F618970019642690137449562111",    # 2^89 - 1, a prime above the limit
    "F" + "7" * 5000,                  # far above the limit
    "F\u0663",                         # an Arabic-Indic three
])
def test_unsupported_field_is_a_usage_error(tmp_path, capsys, field):
    p = write(tmp_path, "c.json", {"field": field, "dims": {"0": 1}})
    t0 = time.perf_counter()
    rc, out, err = run_cli(capsys, "homology", p)
    assert time.perf_counter() - t0 < 1.0
    assert rc == 2 and out == ""
    assert "Traceback" not in err and err.count("\n") == 1
    assert json.loads(err)["error"] == "usage"


def test_check_cli_flags_invalid_and_exits_1(tmp_path, capsys):
    # corrupt the equivariance of theta_{1,2}: the validator reports the
    # failure and the CLI exits 1
    import random
    from helpers import random_theta
    from tcalc.chain import ChainMap
    from tcalc.sparse import SparseMatrix
    from helpers import staircase_sequence
    w = DegreeWindow(0, 4)
    A = staircase_sequence(F2, 3)
    c0 = trivial_coalgebra("top", A, w)
    from tcalc.laws import chain_map_space
    comp = c0.komonad.component(2, 3)
    allmaps = chain_map_space(A.term_complex(2), comp.value.complex)
    broken = None
    from tcalc.coalgebras import validate_coalgebra
    for m in allmaps:
        if m.is_zero():
            continue
        c_try = TruncatedCoalgebra("top", A, w, {(2, 3): m},
                                   komonad=c0.komonad)
        if not validate_coalgebra(c_try)["valid"]:
            broken = c_try
            break
    if broken is None:
        import pytest
        pytest.skip("every chain map happened to be equivariant")
    p = write(tmp_path, "bad.json", serialize.coalgebra_to_json(broken))
    rc, out, _ = run_cli(capsys, "check", p)
    assert rc == 1
    assert not json.loads(out)["valid"]


def test_rational_matrix_round_trip(tmp_path, capsys):
    from tcalc.chain import ChainComplex
    from tcalc.fields import QQ
    from tcalc.sparse import SparseMatrix
    d1 = SparseMatrix.from_rows([["2/3", "-1/6"]], QQ)
    c = ChainComplex(QQ, {0: 1, 1: 2}, {1: d1})
    doc = serialize.chain_to_json(c)
    c2 = serialize.chain_from_json(doc)
    assert serialize.dumps(serialize.chain_to_json(c2)) == \
        serialize.dumps(doc)
    assert c2.d(1)[0, 0] == QQ.coerce("2/3")


@pytest.mark.parametrize("source, N, site", [("sp", 3, "S0"),
                                             ("top", 2, "set:2")])
def test_pn_both_routes_build_one_cobar_builder(tmp_path, capsys,
                                                 monkeypatch, source, N,
                                                 site):
    from tcalc import spcobar, topcobar
    from tcalc.fields import QQ
    rng = random.Random(8)
    w = DegreeWindow(0, 2) if source == "sp" else DegreeWindow(0, 3)
    c = random_valid_coalgebra(rng, QQ, source, N, w)
    p = write(tmp_path, "c.json", serialize.coalgebra_to_json(c))
    argv = ("pn", "--n", str(N), "--site", site)
    alone = {}
    for route in ("tot", "pullback"):
        rc, out, _ = run_cli(capsys, *argv, "--route", route, p)
        assert rc == 0
        alone[route] = json.loads(out)["routes"][route]
    built = []
    for cls in (spcobar.SpCobarBuilder, topcobar.TopCobarBuilder):
        def counted(self, *args, _init=cls.__init__):
            built.append(type(self).__name__)
            _init(self, *args)
        monkeypatch.setattr(cls, "__init__", counted)
    rc, out, _ = run_cli(capsys, *argv, "--route", "both", p)
    assert rc == 0
    assert len(built) == 1
    payload = json.loads(out)
    # reusing the builder changes nothing either route reports
    assert payload["routes"] == alone and payload["routes_agree"] is True


def test_k_top_cli(tmp_path, capsys):
    p = write(tmp_path, "a2.json", serialize.equivariant_to_json(triv(F2, 2)))
    # K_1 A_2 for trivial A_2 = k: Sigma_2-homotopy orbits of the tree
    # factor T_2 = k[1], so H_*(Sigma_2; F2) shifted up by one
    rc, out, _ = run_cli(capsys, "k-top", "--r", "1", "--window", "0:4", p)
    assert rc == 0
    payload = json.loads(out)
    assert payload["dims"] == {"0": 0, "1": 1, "2": 1, "3": 1, "4": 1}
    assert (payload["n"], payload["r"], payload["exact"]) == (2, 1, False)
    # the diagonal component collapses to A_2 itself, exactly
    rc, out, _ = run_cli(capsys, "k-top", "--r", "2", "--window", "0:4", p)
    assert rc == 0
    payload = json.loads(out)
    assert payload["dims"] == {"0": 1, "1": 0, "2": 0, "3": 0, "4": 0}
    assert payload["exact"] is True


def test_k_sp_cli(tmp_path, capsys):
    p = write(tmp_path, "a2.json", serialize.equivariant_to_json(triv(F2, 2)))
    # K_1 A_2 = Tate_{Sigma_2}(k): one class in every degree over F2
    rc, out, _ = run_cli(capsys, "k-sp", "--r", "1", "--window", "-2:2", p)
    assert rc == 0
    payload = json.loads(out)
    assert payload["dims"] == {str(k): 1 for k in range(-2, 3)}
    assert payload["window"] == [-2, 2]
    rc, out, _ = run_cli(capsys, "k-sp", "--r", "2", "--window", "-2:2", p)
    assert rc == 0
    assert json.loads(out)["dims"] == {"-2": 0, "-1": 0, "0": 1, "1": 0,
                                       "2": 0}


@pytest.mark.parametrize("cmd, window", [("k-top", "0:4"),
                                         ("k-sp", "-2:2")])
def test_k_components_refuse_r_below_1(tmp_path, capsys, cmd, window):
    p = write(tmp_path, "a2.json", serialize.equivariant_to_json(triv(F2, 2)))
    for r in ("0", "-2"):
        rc, out, err = run_cli(capsys, cmd, "--r", r, "--window", window, p)
        assert rc == 1 and out == ""
        assert err.count("\n") == 1
        assert json.loads(err) == {"error": "validation",
                                   "detail": "r must be >= 1"}


@pytest.mark.parametrize("source, sites", [
    ("top", ("set:1:2", "set:x", "set:", "set:-1", "set: 1", "set:\u00b2",
             "S0", "set")),
    ("sp", ("S", "Sx", "S1:2", "S--1", "S+1", "S 0", "S\u00b2", "set:1")),
])
def test_site_is_read_whole(tmp_path, capsys, source, sites):
    # the whole text must be set:<digits> or S<optional minus><digits>
    c = random_valid_coalgebra(random.Random(3), F2, source, 2,
                               DegreeWindow(0, 2))
    p = write(tmp_path, "c.json", serialize.coalgebra_to_json(c))
    for site in sites:
        for argv in (("pn", "--n", "1"), ("cobar",), ("mccarthy", "--n", "2")):
            rc, out, err = run_cli(capsys, *argv, "--site", site, p)
            assert rc == 2 and out == "", (argv, site)
            assert err.count("\n") == 1
            error = json.loads(err)
            assert error["error"] == "usage" and "--site" in error["detail"]


@pytest.mark.parametrize("source, w", [("sp", DegreeWindow(0, 2)),
                                       ("top", DegreeWindow(0, 3))])
def test_derived_hom_and_bk_e1_cli_agree(tmp_path, capsys, source, w):
    c = random_valid_coalgebra(random.Random(3), F2, source, 2, w)
    p = write(tmp_path, "c.json", serialize.coalgebra_to_json(c))
    rc, out, _ = run_cli(capsys, "derived-hom", p, p)
    assert rc == 0
    hom = json.loads(out)
    assert hom["h0"] == hom["dims"]["0"] > 0
    rc, out, _ = run_cli(capsys, "bk-e1", p, p)
    assert rc == 0
    page = json.loads(out)
    assert page["d1_squared_zero"] is True
    assert page["window"] == hom["window"]
    # E-infinity at (s, t) sits in total degree t - s and abuts to the
    # homology of the derived mapping complex
    abut = {}
    for key, dim in page["einf"].items():
        s, t = map(int, key.split(","))
        abut[str(t - s)] = abut.get(str(t - s), 0) + dim
    assert abut == {k: v for k, v in hom["dims"].items() if v}
    # E2 is a subquotient of E1, and E-infinity one of E2
    for key, dim in page["einf"].items():
        assert dim <= page["e2"][key] <= page["e1"][key]


@pytest.mark.parametrize("tags", [("--group", "S9"), ("--field", "F3"),
                                  ("--group", "S3x1"), ("--group", "S2x2"),
                                  ("--field", "Q")])
def test_tate_tags_must_match_the_document(tmp_path, capsys, tags):
    p = write(tmp_path, "t.json", serialize.equivariant_to_json(triv(F2, 2)))
    rc, out, err = run_cli(capsys, "tate", *tags, "--window", "-2:2", p)
    assert rc == 2 and out == ""
    assert err.count("\n") == 1
    report = json.loads(err)
    assert report["error"] == "usage" and tags[1] in report["detail"]


def test_tate_tags_name_young_blocks(tmp_path, capsys):
    # S3x1 names the Young group with blocks [3, 1]; the field tag is read
    # like --field everywhere else
    e = trivial_action(sphere(F3, 0), YoungGroup((3, 1)))
    p = write(tmp_path, "t.json", serialize.equivariant_to_json(e))
    rc, out, _ = run_cli(capsys, "tate", "--group", "S3x1", "--field", "F3",
                         "--window", "-1:1", p)
    assert rc == 0
    assert json.loads(out)["group"] == [3, 1]
    rc, _, err = run_cli(capsys, "tate", "--group", "S3", "--window", "-1:1",
                         p)
    assert rc == 2 and json.loads(err)["error"] == "usage"


def test_no_route_runs_a_top_tower_above_truncation_2(tmp_path, capsys):
    c = random_valid_coalgebra(random.Random(3), F2, "top", 3,
                               DegreeWindow(0, 2))
    p = write(tmp_path, "c.json", serialize.coalgebra_to_json(c))
    for argv in (("pn", "--n", "3", "--route", "tot"),
                 ("pn", "--n", "3", "--route", "pullback"), ("cobar",)):
        rc, out, err = run_cli(capsys, *argv, "--site", "set:2", p)
        assert rc == 1 and out == ""
        detail = json.loads(err.strip().splitlines()[-1])["detail"]
        assert "no route runs a based-spaces tower above truncation 2" \
            in detail


def test_stages_below_1_and_tower_maps_below_2_are_refused(tmp_path,
                                                           capsys):
    c = random_valid_coalgebra(random.Random(3), F2, "sp", 2,
                               DegreeWindow(0, 2))
    p = write(tmp_path, "c.json", serialize.coalgebra_to_json(c))
    for cmd, n, detail in (("pn", "0", "truncation must be >= 1"),
                           ("pn", "-3", "truncation must be >= 1"),
                           ("mccarthy", "1", "tower map needs n >= 2")):
        rc, out, err = run_cli(capsys, cmd, "--n", n, "--site", "S0", p)
        assert rc == 1 and out == ""
        assert err.count("\n") == 1
        assert json.loads(err)["detail"] == detail


def test_pn_both_on_a_pool_top2_document_matches_its_reference(tmp_path,
                                                               capsys):
    # `pn --route both` on this document reads the theta_{1,2} block through
    # the pullback route, so its output moves when that block is dropped
    pool = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "perfbench", "pool", "tower-f2.json")
    with open(pool) as f:
        slots = {s["name"]: s for s in json.load(f)["slots"]}
    variant = slots["top2"]["variants"][3]
    doc = json.dumps(variant["docs"]["c"], sort_keys=True,
                     separators=(",", ":"))
    assert hashlib.sha256(doc.encode()).hexdigest() == \
        variant["doc_sha256"]["c"]
    p = tmp_path / "c.json"
    p.write_text(doc)
    [ref] = [j for j in variant["jobs"] if j["argv"][0] == "pn"]
    argv = [str(p) if a == "{c}" else a for a in ref["argv"]]
    assert "both" in argv
    rc, out, _ = run_cli(capsys, *argv)
    assert rc == ref["rc"] == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ref["stdout_sha256"]


def test_file_system_mistakes_are_usage_errors(tmp_path, capsys):
    p = write(tmp_path, "t.json", serialize.equivariant_to_json(triv(F2, 2)))
    argv = ("tate", "--window", "-2:2")
    # --out into a directory that does not exist
    assert_usage_error(capsys, *argv, p, "--out",
                       str(tmp_path / "missing" / "x.json"))
    # an input path that is a directory
    assert_usage_error(capsys, *argv, str(tmp_path))
    # an input that is not UTF-8
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"field": "F2\xe9"}')
    assert_usage_error(capsys, *argv, str(latin1))


def test_derived_hom_maps_out_of_the_second_document(tmp_path, capsys):
    # `derived-hom A B` and `bk-e1 A B` compute maps out of B into A on B's
    # window.  A_1 = k in degree 0 (window 0:3); B_1 = k in degrees 0 and 1
    # (window -2:2): the map B_1 -> A_0 of degree -1 has no counterpart
    # from A into B, which has one of degree +1 instead.
    a = trivial_coalgebra("sp", SymmetricSequence(F2, 1, {1: triv(F2, 1)}),
                          DegreeWindow(0, 3))
    b1 = trivial_action(direct_sum([sphere(F2, 0, label="b0"),
                                    sphere(F2, 1, label="b1")]),
                        YoungGroup.full(1))
    b = trivial_coalgebra("sp", SymmetricSequence(F2, 1, {1: b1}),
                          DegreeWindow(-2, 2))
    pa = write(tmp_path, "a.json", serialize.coalgebra_to_json(a))
    pb = write(tmp_path, "b.json", serialize.coalgebra_to_json(b))
    rc, out, _ = run_cli(capsys, "derived-hom", pa, pb)
    assert rc == 0
    assert json.loads(out) == {"command": "derived-hom", "h0": 1,
                               "dims": {"-2": 0, "-1": 1, "0": 1, "1": 0,
                                        "2": 0}, "window": [-2, 2]}
    rc, out, _ = run_cli(capsys, "derived-hom", pb, pa)
    assert rc == 0
    assert json.loads(out)["dims"] == {"0": 1, "1": 1, "2": 0, "3": 0}
    rc, out, _ = run_cli(capsys, "bk-e1", pa, pb)
    assert rc == 0
    page = json.loads(out)
    assert page["window"] == [-2, 2]
    assert page["einf"] == {"0,-1": 1, "0,0": 1}


def _one_more_entry_per_degree(f):
    """f with 1 added at the first entry of each nonzero block, so the
    chain-map identity fails."""
    comps = dict(f.components)
    for k in f.source.dims:
        rows = f.target.dim(k + f.degree)
        if rows:
            comps[k] = f.component(k) + SparseMatrix.from_entries(
                rows, f.source.dim(k), f.field, {(0, 0): 1})
    return ChainMap(f.source, f.target, comps, f.degree)


@pytest.mark.parametrize("which", [1, 2, 3])
def test_mccarthy_reports_a_square_map_that_fails_validation(
        tmp_path, capsys, monkeypatch, which):
    # mccarthy_square_check returns a reason and no homology when one of
    # its maps is no chain map; the subcommand prints that, not an
    # internal error
    c = random_valid_coalgebra(random.Random(2), F2, "sp", 2,
                               DegreeWindow(-2, 2))
    p = write(tmp_path, "c.json", serialize.coalgebra_to_json(c))
    mutated = corrupt_square_map(monkeypatch, which,
                                 _one_more_entry_per_degree)
    rc, out, err = run_cli(capsys, "mccarthy", "--n", "2", "--site", "S0", p)
    assert mutated["calls"] == 1
    assert (rc, err) == (1, "")
    payload = json.loads(out)
    assert payload["acyclic"] is False and "homology" not in payload
    assert payload["reason"].startswith(
        "structure map fails validation: chain map fails to commute")


@pytest.mark.parametrize("F", [F2, F3, QQ], ids=lambda F: F.name())
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_top_check_refuses_theta_across_model_kinds(tmp_path, capsys, F,
                                                     seed):
    # A_2 free: K_1 A_2 is a strict model, while the outer model of
    # delta_{1,2,3} is windowed, so K_1 of theta_{2,3} cannot land where
    # theta_{1,2} starts.  Carried across by label, every entry of theta_{1,2}
    # would drop and the square (1, 2, 3) would compare two zero maps.
    A = SymmetricSequence(F, 3, {
        1: triv(F, 1, deg=2), 2: regular_module(F, YoungGroup.full(2), 1),
        3: triv(F, 3)})
    c0 = trivial_coalgebra("top", A, DegreeWindow(0, 4))
    rng = random.Random(seed)
    theta = {key: random_theta(c0, *key, rng) for key in ((1, 2), (2, 3))}
    assert not any(th.is_zero() for th in theta.values())
    c = TruncatedCoalgebra("top", A, c0.window, theta, komonad=c0.komonad)
    p = write(tmp_path, "c.json", serialize.coalgebra_to_json(c))
    rc, out, err = run_cli(capsys, "check", p)
    assert (rc, out) == (1, "")
    assert json.loads(err) == {
        "error": "validation",
        "detail": "K_1 on maps from a strict model into a windowed one: "
                  "carrying theta across model kinds is ROADMAP item 4"}


def test_derived_hom_refuses_a_repeated_label(tmp_path, capsys):
    # term 2 of the pool's sp2 document with its degree-0 label copied over
    # its degree-1 one: read as two vectors of one name, derived-hom printed
    # h0 2 where the document gives 3
    pool = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "perfbench", "pool", "tower-f2.json")
    with open(pool) as f:
        slots = {s["name"]: s for s in json.load(f)["slots"]}
    doc = slots["sp2"]["variants"][0]["docs"]["c"]
    p = write(tmp_path, "c.json", doc)
    rc, out, _ = run_cli(capsys, "derived-hom", p, p)
    assert rc == 0 and json.loads(out)["h0"] == 3
    labels = doc["sequence"]["terms"]["2"]["labels"]
    labels["1"] = labels["0"]
    p = write(tmp_path, "c.json", doc)
    rc, out, err = run_cli(capsys, "derived-hom", p, p)
    assert (rc, out) == (2, "")
    assert json.loads(err) == {
        "error": "usage",
        "detail": "malformed document: label (1, ('a2_1', 0)) repeats"}


def test_k_top_refuses_a_repeated_label(tmp_path, capsys):
    # the regular S2-module over F2 with one label for both vectors: decoded,
    # K_1 failed d o d = 0 leaving degree 3
    doc = {"field": "F2", "dims": {"0": 2}, "labels": {"0": ["a", "a"]},
           "group": [2], "action": {"s_0": {"0": [[0, 1, "1"], [1, 0, "1"]]}}}
    argv = ("k-top", "--r", "1", "--window", "0:2")
    rc, out, err = run_cli(capsys, *argv, write(tmp_path, "e.json", doc))
    assert (rc, out) == (2, "")
    assert json.loads(err) == {
        "error": "usage", "detail": "malformed document: label 'a' repeats"}
    doc["labels"]["0"] = ["a", "b"]
    rc, out, err = run_cli(capsys, *argv, write(tmp_path, "e.json", doc))
    assert rc == 0 and json.loads(out)["dims"] == {"0": 0, "1": 1, "2": 0}
