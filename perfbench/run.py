"""CLI-job benchmark for tcalc.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs README `tcalc` subcommands, each in a fresh interpreter, one job at a
time (a closed loop with one client, no parallel jobs), on documents taken
from the frozen pool in `perfbench/pool/`.  The seed picks one variant per
slot of the workload and the job order.  Every job's exit code and stdout
hash are checked against the pool's reference, together with the output
flags `routes_agree` (pn), `valid` (check) and `acyclic` (mccarthy).

The jobs of a workload are run in round(S / 10) whole passes, each about
10 s long.  With `--trace 0` the passes run untraced and the end-to-end
metrics are printed; with `--trace 1` one untraced pass gives the base rate
and the remaining passes run under `tracer.py`, which gives the per-layer
metrics.  Subcommands that hit a known defect run once per run in an untimed
probe after the passes, and must fail exactly as recorded (or succeed with a
correct answer).

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the lines before it give each metric
with its unit, sample count and spread.
"""

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

from jobs import (check_defect, check_job, doc_bytes, resolve,  # noqa: E402
                  run_job, sha256)

WORKLOADS = ("tower-f2", "tower-q", "equivariant")
SETUP_REPEATS = 7
RUN_BUDGET_S = 170.0
# Each workload's pass takes about 10 s on a 2-core 2.1 GHz virtual machine,
# so a run makes round(seconds / 10) passes.  The count is fixed by
# `--seconds` alone: a best-of time over a count that followed the machine's
# speed would read slower still in a slow spell.
NOMINAL_PASS_S = 10.0

# Parses every selected document with tcalc's own readers: the input check
# of the set-up, in a fresh interpreter like the jobs.
PARSE = """
import json, sys
sys.path.insert(0, sys.argv[1])
from tcalc import serialize
for path in sys.argv[2:]:
    with open(path) as f:
        doc = json.load(f)
    if "theta" in doc:
        serialize.coalgebra_from_json(doc)
    elif "a1" in doc:
        serialize.chain_from_json(doc["a1"])
        for key in ("a2", "a3"):
            serialize.equivariant_from_json(doc[key])
    else:
        serialize.equivariant_from_json(doc)
"""

LAYERS = ("chain", "classify", "cli", "coalgebras", "comonads",
          "equivariant", "fields", "operads", "perms", "serialize", "sparse",
          "tower", "trees")
MODELS = ("comonads.TopComponentModel.__init__",
          "comonads.SpComponentModel.__init__",
          "comonads.KPrimeComonad.__init__", "comonads.TopComonad.__init__")
VALIDATES = ("chain.ChainComplex.validate", "chain.ChainMap.validate",
             "chain.ChainHomotopy.validate")
# per-layer metric -> tag of the outermost spans whose time it sums
OUTER_TIMES = {
    "tower.conormalized_level_s": "tower.conormalized_level",
    "tower.fat_tot_s": "tower.fat_tot",
    "tower.cobar_s": "tower.cobar",
    "tower.derived_hom_s": "tower.derived_hom",
    "equivariant.resolution_s": "equivariant.extend_to",
    "equivariant.homotopy_orbits_s": "equivariant.homotopy_orbits",
    "equivariant.homotopy_fixed_s": "equivariant.homotopy_fixed",
    "chain.validate_s": "chain.validate",
    "sparse.mul_s": "sparse.__mul__",
}
# per-layer metric -> span names whose calls it counts
CALL_COUNTS = {
    "comonads.models": MODELS,
    "chain.validate_calls": VALIDATES,
    "chain.homology_calls": ("chain.ChainComplex.homology",),
    "sparse.echelon_calls": ("sparse.Echelon.__init__",),
    "sparse.solve_calls": ("sparse.solve", "sparse.solve_matrix"),
    "sparse.mul_calls": ("sparse.SparseMatrix.__mul__",),
}
# per-layer metric -> counter kept by the tracer
COUNTERS = {
    "sparse.echelon_s.f2": "echelon_s.f2",
    "sparse.echelon_s.fp": "echelon_s.fp",
    "sparse.echelon_s.q": "echelon_s.q",
    "fields.coerce_calls": "coerce_calls",
    "sparse.echelon_calls.conormalized_level": "echelon_under_conormalized",
}
PER_LAYER_UNITS = (
    [("cli.startup_s", "s")] + [(lay + ".self_s", "s") for lay in LAYERS]
    + [(name, "s") for name in OUTER_TIMES]
    + [(name, "count") for name in CALL_COUNTS]
    + [(name, "s" if name.startswith("sparse.echelon_s") else "count")
       for name in COUNTERS]
    + [("sparse.echelon_share.conormalized_level", "ratio")])


class Run:
    def __init__(self, workload, seed):
        self.workload, self.seed = workload, seed
        self.t_start = time.perf_counter()
        self.work = os.path.join(ROOT, ".perfbench",
                                 "%s-%d" % (workload, os.getpid()))
        self.problems = []

    def remaining(self):
        return RUN_BUDGET_S - (time.perf_counter() - self.t_start)

    # -- set-up -----------------------------------------------------------

    def setup(self):
        """Load the pool, verify its bytes, select this seed's inputs, write
        them out and parse them with tcalc; returns the seconds taken."""
        t0 = time.perf_counter()
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        with open(os.path.join(HERE, "pool", self.workload + ".json")) as f:
            pool = json.load(f)
        rng = random.Random(self.seed)
        self.jobs, self.probes, paths = [], [], []
        for slot in pool["slots"]:
            # A subcommand that hits a known defect on any variant of the
            # slot runs in the untimed probe for every variant, so that the
            # timed job list has the same shape for every seed.
            probed = {ref["argv"][0] for v in slot["variants"]
                      for ref in v["jobs"] if "defect" in ref}
            variant = slot["variants"][rng.randrange(len(slot["variants"]))]
            names = {}
            for key, doc in variant["docs"].items():
                data = doc_bytes(doc)
                if sha256(data) != variant["doc_sha256"][key]:
                    raise SystemExit("pool document %s/%s is corrupt"
                                     % (slot["name"], key))
                names[key] = "%s.%s.json" % (slot["name"], key)
                paths.append(names[key])
                with open(os.path.join(self.work, names[key]), "wb") as f:
                    f.write(data)
            for ref in variant["jobs"]:
                argv = resolve(ref["argv"], names)
                job = (slot["name"], argv, ref)
                (self.probes if argv[0] in probed else self.jobs).append(job)
        rng.shuffle(self.jobs)
        proc = subprocess.run([sys.executable, "-c", PARSE, SRC] + paths,
                              cwd=self.work, capture_output=True,
                              timeout=max(1, self.remaining()))
        if proc.returncode != 0:
            raise SystemExit("input check failed:\n"
                             + proc.stderr.decode("utf-8", "replace"))
        return time.perf_counter() - t0

    # -- timed passes -------------------------------------------------------

    def run_pass(self, traced):
        """One job after another through the whole job list."""
        results = []
        t0 = time.perf_counter()
        for i, (slot, argv, ref) in enumerate(self.jobs):
            trace_out = (os.path.join(self.work, "trace-%d.json" % i)
                         if traced else None)
            wall, rc, out, err, rss = run_job(SRC, argv, self.work,
                                              self.remaining(), trace_out)
            problem = check_job(ref, rc, out, err)
            trace = None
            if traced and problem is None:
                with open(trace_out) as f:
                    trace = json.load(f)
                residual = abs(sum(trace["layer_self"].values())
                               - trace["main_s"])
                if residual > 1e-6 * max(1.0, trace["main_s"]) + 1e-9:
                    problem = "layer self times miss main by %.3gs" % residual
            if problem:
                self.problems.append("%s: tcalc %s: %s"
                                     % (slot, " ".join(argv), problem))
            results.append({"wall": wall, "rss_kb": rss, "ok": not problem,
                            "trace": trace})
        return {"wall": time.perf_counter() - t0, "jobs": results}

    def run_passes(self, traced, count):
        """`count` whole passes, fewer only if the next one would not fit in
        the run's time budget."""
        passes = []
        while len(passes) < count:
            t0 = time.perf_counter()
            passes.append(self.run_pass(traced))
            if (time.perf_counter() - t0) * 1.5 > self.remaining():
                break
        return passes

    # -- known defects ----------------------------------------------------

    def probe(self):
        """Run the probed jobs once each, untimed, and check them: a
        known-defect job must fail as recorded or succeed correctly, any
        other job must match its reference."""
        outcomes = []
        for slot, argv, ref in self.probes:
            _, rc, out, err, _ = run_job(SRC, argv, self.work,
                                         self.remaining())
            if "defect" in ref:
                state, problem = check_defect(ref, rc, out, err)
                state = "known %s %s" % (ref["defect"], state)
            else:
                problem = check_job(ref, rc, out, err)
                state = "ok"
            if problem:
                self.problems.append("%s: tcalc %s (probe): %s"
                                     % (slot, " ".join(argv), problem))
            outcomes.append((argv, state))
        return outcomes


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def metric(name, value, unit, samples):
    return {"name": name, "value": value, "unit": unit, "samples": samples}


def pass_rates(passes):
    return [len(p["jobs"]) / p["wall"] for p in passes]


def best_walls(passes):
    """Each job's best wall time over the passes.  Interference from other
    work on a shared machine only ever slows a job, so the best of its
    repetitions is the steadiest estimate of what the job itself costs."""
    return [min(w) for w in zip(*[[j["wall"] for j in p["jobs"]]
                                  for p in passes])]


def jobs_per_s(passes):
    """Jobs per second of a pass made of each job's best wall time."""
    return len(passes[0]["jobs"]) / sum(best_walls(passes))


def end_to_end(passes, setups):
    best = best_walls(passes)
    rss = [j["rss_kb"] / 1024.0 for p in passes for j in p["jobs"]]
    return [metric("jobs_per_s", jobs_per_s(passes), "1/s",
                   pass_rates(passes)),
            metric("job_p50_s", statistics.median(best), "s", best),
            metric("setup_s", statistics.median(setups), "s", setups),
            metric("peak_rss_mb", max(rss), "MB", rss)]


def trace_totals(job):
    """The per-layer quantities of one traced job."""
    t = job["trace"]
    totals = {"cli.startup_s": job["wall"] - t["main_s"]}
    for layer in LAYERS:
        totals[layer + ".self_s"] = t["layer_self"].get(layer, 0.0)
    for name, tag in OUTER_TIMES.items():
        totals[name] = t["outer"].get(tag, 0.0)
    for name, spans in CALL_COUNTS.items():
        totals[name] = sum(c for _, span, c, _, _ in t["spans"]
                           if span in spans)
    for name, key in COUNTERS.items():
        totals[name] = t["counts"].get(key, 0)
    return totals


def per_layer(base, traced):
    """Per-layer totals of a pass, as the mean over the traced passes."""
    per_pass = []
    for p in traced:
        totals = {}
        for job in p["jobs"]:
            if job["trace"] is not None:
                for name, value in trace_totals(job).items():
                    totals[name] = totals.get(name, 0.0) + value
        calls = totals.get("sparse.echelon_calls", 0.0)
        totals["sparse.echelon_share.conormalized_level"] = (
            totals.get("sparse.echelon_calls.conormalized_level", 0.0)
            / calls if calls else 0.0)
        per_pass.append(totals)
    out = []
    for name, unit in PER_LAYER_UNITS:
        samples = [t.get(name, 0.0) for t in per_pass]
        out.append(metric(name, statistics.fmean(samples), unit, samples))
    # Pass totals on both sides: a best-of time over the traced passes
    # against the single untraced pass would favour the traced side.
    base_rate = pass_rates(base)[0]
    ratios = [r / base_rate for r in pass_rates(traced)]
    out.append(metric("trace.base_jobs_per_s", base_rate, "1/s", [base_rate]))
    out.append(metric("trace.overhead", statistics.median(ratios), "ratio",
                      ratios))
    return out


def git_revision():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "tcalc", "cli.py")):
        sys.stderr.write("no tcalc sources at %s\n" % SRC)
        return 2

    run = Run(args.workload, args.seed)
    try:
        setups = [run.setup() for _ in range(SETUP_REPEATS)]
        count = max(1, round(args.seconds / NOMINAL_PASS_S))
        if args.trace:
            base = [run.run_pass(traced=False)]
            traced = run.run_passes(True, max(1, count - 1))
            passes = base + traced
            metrics = per_layer(base, traced)
        else:
            passes = run.run_passes(False, count)
            metrics = end_to_end(passes, setups)
        probes = run.probe()
    finally:
        shutil.rmtree(run.work, ignore_errors=True)

    attempted = sum(len(p["jobs"]) for p in passes)
    failed = sum(not j["ok"] for p in passes for j in p["jobs"])
    print("# env python=%s rev=%s nproc=%s workload=%s seed=%d trace=%d"
          % (platform.python_version(), git_revision(), os.cpu_count(),
             args.workload, args.seed, args.trace))
    print("# %d jobs per pass, %d passes, %d probed jobs"
          % (len(run.jobs), len(passes), len(probes)))
    for m in metrics:
        q1, q3 = quartiles(m["samples"])
        print("%-44s %14.6g %-6s n=%-5d q1..q3=%.6g..%.6g"
              % (m["name"], m["value"], m["unit"], len(m["samples"]), q1, q3))
    for argv, state in probes:
        print("# probe %s: tcalc %s" % (state, " ".join(argv)))
    print("# failed_ratio: %d of %d timed jobs failed; %d of %d probed jobs"
          " failed with a known defect"
          % (failed, attempted,
             sum(state.endswith("reproduced") for _, state in probes),
             len(probes)))
    for problem in run.problems:
        print("# FAILED %s" % problem)
    print(json.dumps({
        "correct": not run.problems, "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": m["value"], "unit": m["unit"]}
                    for m in metrics}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
