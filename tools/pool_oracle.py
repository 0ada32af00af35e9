"""Whole-pool regression oracle: every job of every variant in
perfbench/pool/*.json against its recorded reference.

    python tools/pool_oracle.py

Each job runs as the benchmark runs it, through `perfbench/jobs.py` (only
read): in a fresh interpreter with PYTHONHASHSEED=0, on the variant's
documents written to a temporary directory.  A job matches when its exit
code, its stdout SHA-256 and its output flag (`routes_agree`, `valid`,
`acyclic`) agree with the reference.  A known-defect job must fail with its
recorded exit code and detail ("reproduced") or succeed with a true flag
("fixed"), as EXPECTED says for its defect.  Exits 1 listing every job that
does not.  The benchmark itself runs one variant per slot; this runs them
all.
"""

import collections
import glob
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from jobs import (  # noqa: E402
    JobTimeout, check_defect, check_job, doc_bytes, resolve, run_job,
)

TIMEOUT_S = 300
# How each known defect of the pool classifies on this tree.  A change that
# fixes one moves it to "fixed" here.
EXPECTED = {"case-1": "fixed", "case-2": "reproduced",
            "case-3": "fixed"}


def run_variant(workload, slot, index, variant, problems, defects):
    """Run one variant's jobs; return how many ran."""
    with tempfile.TemporaryDirectory() as work:
        names = {}
        for key, doc in variant["docs"].items():
            names[key] = os.path.join(work, key + ".json")
            with open(names[key], "wb") as f:
                f.write(doc_bytes(doc))
        for ref in variant["jobs"]:
            where = "%s %s variant %d: %s" % (workload, slot, index,
                                              " ".join(ref["argv"]))
            try:
                _, rc, out, err, _ = run_job(
                    SRC, resolve(ref["argv"], names), work, TIMEOUT_S)
            except JobTimeout:
                problems.append("%s: timed out after %d s" % (where,
                                                              TIMEOUT_S))
                continue
            if "defect" not in ref:
                problem = check_job(ref, rc, out, err)
            else:
                state, problem = check_defect(ref, rc, out, err)
                defects[ref["defect"], state] += 1
                expected = EXPECTED.get(ref["defect"])
                if problem is None and state != expected:
                    problem = "known %s %s, expected %s" % (
                        ref["defect"], state, expected)
            if problem is not None:
                problems.append("%s: %s" % (where, problem))
    return len(variant["jobs"])


def main():
    problems, defects, jobs = [], collections.Counter(), 0
    for path in sorted(glob.glob(os.path.join(ROOT, "perfbench", "pool",
                                              "*.json"))):
        with open(path) as f:
            pool = json.load(f)
        for slot in pool["slots"]:
            for index, variant in enumerate(slot["variants"]):
                jobs += run_variant(pool["workload"], slot["name"], index,
                                    variant, problems, defects)
    print("%d pool jobs, %d mismatched; known defects: %s" % (
        jobs, len(problems), ", ".join(
            "%s %s %d" % (case, state, n)
            for (case, state), n in sorted(defects.items())) or "none"))
    for problem in problems:
        print("  " + problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
