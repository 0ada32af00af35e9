"""Regenerate the frozen input pool and its reference outputs.

    python3 perfbench/gen_pool.py [workload ...]

Documents are built with the test suite's generators (`tests/helpers.py`:
`random_theta` for the structure maps, the same term constructions as
`random_term`).  Those generators call tcalc's own linear algebra
(`chain_map_space`, `nullspace`), so a kernel change could change the
documents a seed yields.  The pool is therefore generated once, on the code
the references are taken from, and committed: every later commit is measured
on the same bytes.  `run.py` only reads `pool/<workload>.json`.

Each workload is a list of slots; each slot holds POOL_SIZE variants of one
input shape, and a run's `--seed` picks one variant per slot.  A variant's
jobs carry the reference exit code and stdout hash taken here.  Jobs that
hit one of the known defects (DEFECTS below) keep their recorded failure.
"""

import json
import os
import random
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests"), HERE]

from helpers import random_theta  # noqa: E402
from jobs import (doc_bytes, error_detail, flag_problem, resolve,  # noqa: E402
                  run_job, sha256)
from tcalc import serialize  # noqa: E402
from tcalc.chain import DegreeWindow, direct_sum, sphere  # noqa: E402
from tcalc.coalgebras import TruncatedCoalgebra, trivial_coalgebra  # noqa: E402
from tcalc.equivariant import regular_module, trivial_action  # noqa: E402
from tcalc.fields import field_from_name  # noqa: E402
from tcalc.operads import SymmetricSequence  # noqa: E402
from tcalc.perms import YoungGroup  # noqa: E402

POOL_SIZE = 8

# Traffic limits.  A regular A_3 at Sp N=3 makes one `pn` take minutes, and
# the tests' Sp window -2:2 makes the two-degree A_3 `pn` take 10-16 s; the
# Sp N=3 shapes therefore use the window 0:2, and `tate` on S4 stays at
# -2:2 (9-13 s at -4:4).  The `tate` modules sit in degree 0: on S4 over F2
# a module in degree 1 costs 2.5-3 times as much, which would make a pass's
# time depend on the seed.
#
# Coalgebra shapes: (source, allowed term kinds per arity, window, sites).
# Kinds: t = trivial sphere, s = trivial sum of spheres in degrees 0 and 1,
# r = regular module (arity <= 2 only).  Top sites are set:<m>, m drawn from
# the listed sizes.  The two-degree A_3 shape dominates a tower pass, so its
# lower terms are fixed and only the degrees and theta vary with the
# variant; the other shapes carry the variety of kinds.  A regular Top A_2
# has its own shape, so that the jobs its known defect (case-2 below) takes
# out of the timed passes are the same for every seed.
COALGEBRA_SLOTS = {
    "sp3-sum": ("sp", ["t", "t", "s"], (0, 2), None),
    "sp3-triv": ("sp", ["tsr", "tsr", "t"], (0, 2), None),
    "sp2": ("sp", ["tsr", "tsr"], (-2, 2), None),
    "top2": ("top", ["ts", "ts"], (0, 3), (2, 3, 4)),
    "top2-reg": ("top", ["ts", "r"], (0, 3), (1, 2, 3, 4)),
    "top1": ("top", ["tsr"], (0, 3), (1, 2, 3, 4)),
}

TATE_GROUPS = [(2,), (3,), (2, 2), (3, 1), (4,)]


def equivariant_slots():
    slots = []
    for field in ("F2", "F3"):
        for blocks in TATE_GROUPS:
            for kind in ("t", "r"):
                slots.append(("tate", field, blocks, kind))
        slots += [("k-top", field, 3), ("k-top", field, 4),
                  ("k-sp", field, 2), ("k-sp", field, 3),
                  ("classify", field)]
    slots.append(("fixed",))
    return slots


WORKLOADS = {
    "tower-f2": ("F2", ["sp3-sum", "sp3-triv", "sp2", "top2", "top2-reg",
                        "top1"]),
    "tower-q": ("Q", ["sp3-sum", "sp2", "top2", "top2-reg"]),
    "equivariant": (None, equivariant_slots()),
}

# Known defects, confirmed through the CLI on the code the pool was taken
# from.  Their jobs stay in the pool with the recorded failure.
#   case-1: Sp with a two-degree trivial term and a nonzero theta into it
#           (N=3 over F2; over Q already N=2): `check` says valid, but
#           derived-hom and bk-e1 fail in `sp_component_on_map`.
#   case-2: Top N=2 with a regular A_2 and a nonzero theta_{1,2} at set:2 or
#           larger: cobar, pn and mccarthy fail.
#   case-3: Top N=2 at set:1: mccarthy fails with an internal error.
DEFECTS = {
    "case-1": ("sp", None, ("derived-hom", "bk-e1"),
               "chain map fails to commute"),
    "case-2": ("top", 2, ("cobar", "pn", "mccarthy"),
               "not enough values to unpack"),
    "case-3": ("top", 2, ("mccarthy",), "(2,) is not in list"),
}


def term(rng, F, n, kind):
    """One arity term of the given kind, built as `random_term` builds it."""
    g = YoungGroup.full(n)
    if kind == "t":
        return trivial_action(sphere(F, rng.choice((0, 1)),
                                     label="a%d" % n), g)
    if kind == "r":
        return regular_module(F, g, degree=rng.choice((0, 1)))
    c = direct_sum([sphere(F, d, label="a%d_%d" % (n, i))
                    for i, d in enumerate(rng.sample([0, 1], 2))])
    return trivial_action(c, g)


def coalgebra_variant(rng, F, shape):
    """A valid coalgebra as `random_valid_coalgebra` builds it, with the term
    kinds drawn from the shape, plus its tower jobs."""
    source, kinds, (lo, hi), sites = COALGEBRA_SLOTS[shape]
    N = len(kinds)
    terms = {n: term(rng, F, n, rng.choice(k))
             for n, k in enumerate(kinds, 1)}
    seq = SymmetricSequence(F, N, terms)
    w = DegreeWindow(lo, hi)
    c0 = trivial_coalgebra(source, seq, w)
    theta = {}
    for n in range(2, N + 1):
        for r in range(1, n):
            th = random_theta(c0, r, n, rng, allow_zero=True)
            if th is not None and not th.is_zero():
                theta[(r, n)] = th
    c = TruncatedCoalgebra(source, seq, w, theta, komonad=c0.komonad)
    site = "S0" if source == "sp" else "set:%d" % rng.choice(sites)
    jobs = [["pn", "--n", str(N), "--site", site, "--route", "both", "{c}"],
            ["cobar", "--site", site, "{c}"],
            ["derived-hom", "{c}", "{c}"],
            ["bk-e1", "{c}", "{c}"],
            ["check", "{c}"]]
    if N >= 2:
        jobs.append(["mccarthy", "--n", "2", "--site", site, "{c}"])
    return {"docs": {"c": serialize.coalgebra_to_json(c)}, "jobs": jobs,
            "source": source, "N": N}


def group_name(blocks):
    return "S" + "x".join(map(str, blocks))


def equivariant_variant(rng, slot):
    kind = slot[0]
    if kind == "fixed":
        jobs = [["bar-com", "--n", "4", "--field", "F2"],
                ["bar-com", "--n", "5", "--field", "F2"],
                ["bar-com", "--n", "4", "--field", "F3"],
                ["partition-nerve", "--n", "4", "--field", "F2"],
                ["partition-nerve", "--n", "4", "--field", "F3"]]
        return {"docs": {}, "jobs": jobs}
    F = field_from_name(slot[1])
    if kind == "tate":
        blocks, module = slot[2], slot[3]
        g = YoungGroup(blocks)
        if module == "t":
            e = trivial_action(sphere(F, 0, label="a"), g)
        else:
            e = regular_module(F, g, degree=0)
        return {"docs": {"e": serialize.equivariant_to_json(e)},
                "jobs": [["tate", "--group", group_name(blocks), "--field",
                          slot[1], "--window", "-2:2", "{e}"]]}
    if kind in ("k-top", "k-sp"):
        n = slot[2]
        e = term(rng, F, n, rng.choice("ts"))
        window = "0:3" if kind == "k-top" else "-2:2"
        return {"docs": {"e": serialize.equivariant_to_json(e)},
                "jobs": [[kind, "--r", str(rng.randint(1, 3)), "--window",
                          window, "{e}"]]}
    doc = {"a1": serialize.chain_to_json(sphere(F, rng.choice((0, 1)))),
           "a2": serialize.equivariant_to_json(term(rng, F, 2,
                                                    rng.choice("tsr"))),
           "a3": serialize.equivariant_to_json(term(rng, F, 3,
                                                    rng.choice("ts")))}
    return {"docs": {"p": doc},
            "jobs": [["classify", "--variant", v, "--window", "-2:2", "{p}"]
                     for v in ("sp_sp_2", "sp_sp_3", "top_sp_2")]}


def slot_name(slot):
    if isinstance(slot, str):
        return slot
    if slot[0] == "tate":
        return "tate-%s-%s-%s" % (slot[1], group_name(slot[2]), slot[3])
    return "-".join(str(x) for x in slot)


def defect_of(variant, argv, detail):
    for name, (source, N, commands, phrase) in DEFECTS.items():
        if (variant.get("source") == source and N in (None, variant.get("N"))
                and argv[0] in commands and phrase in detail):
            return name, phrase
    return None, None


def reference(variant, workdir, src):
    """Run each job of a variant once and record its reference outcome."""
    names = {}
    for key, doc in variant["docs"].items():
        names[key] = "%s.json" % key
        with open(os.path.join(workdir, names[key]), "wb") as f:
            f.write(doc_bytes(doc))
    refs = []
    for argv in variant["jobs"]:
        wall, rc, out, err, _ = run_job(src, resolve(argv, names), workdir,
                                        timeout_s=600)
        print("  %6.2fs rc=%d %s" % (wall, rc, " ".join(argv)), flush=True)
        if rc == 0:
            problem = flag_problem(argv, out)
            if problem:
                raise SystemExit("%s: %s" % (" ".join(argv), problem))
            refs.append({"argv": argv, "rc": 0,
                         "stdout_sha256": sha256(out)})
            continue
        detail = error_detail(err)
        name, phrase = defect_of(variant, argv, detail)
        if name is None:
            raise SystemExit("%s: unexpected failure: %s"
                             % (" ".join(argv), detail))
        refs.append({"argv": argv, "rc": rc, "detail": phrase,
                     "defect": name})
    return refs


def generate(workload, workdir, src):
    field_name, slots = WORKLOADS[workload]
    out = {"workload": workload, "slots": []}
    for slot in slots:
        name = slot_name(slot)
        variants = []
        size = 1 if slot == ("fixed",) else POOL_SIZE
        for i in range(size):
            rng = random.Random("%s/%s/%d" % (workload, name, i))
            print("%s %s #%d" % (workload, name, i), flush=True)
            if isinstance(slot, str):
                v = coalgebra_variant(rng, field_from_name(field_name), slot)
            else:
                v = equivariant_variant(rng, slot)
            variants.append({
                "docs": v["docs"],
                "doc_sha256": {k: sha256(doc_bytes(d))
                               for k, d in v["docs"].items()},
                "jobs": reference(v, workdir, src)})
        out["slots"].append({"name": name, "variants": variants})
    return out


def main(argv):
    src = os.path.join(ROOT, "src")
    workdir = os.path.join(ROOT, ".perfbench", "gen-%d" % os.getpid())
    os.makedirs(workdir, exist_ok=True)
    try:
        for workload in argv or sorted(WORKLOADS):
            pool = generate(workload, workdir, src)
            path = os.path.join(HERE, "pool", workload + ".json")
            with open(path, "w") as f:
                json.dump(pool, f, sort_keys=True, separators=(",", ":"))
                f.write("\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main(sys.argv[1:])
