"""Run one tcalc CLI job in a fresh interpreter and check its output.

Every job is its own process because a CLI user pays interpreter start,
`import tcalc` and the package's process-wide caches (the resolution cache in
`equivariant`, the `lru_cache` on `trees.all_trees`) on every call; an
in-process loop would hide that cost after the first pass.
"""

import hashlib
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
TRACER = os.path.join(HERE, "tracer.py")

# The untraced job: what the installed `tcalc` entry point runs, with the
# checkout's `src/` first on the path.
SHIM = ("import sys; sys.path.insert(0, sys.argv.pop(1)); import tcalc.cli; "
        "sys.exit(tcalc.cli.main(sys.argv[1:]))")

# A fixed hash seed keeps set and dict iteration order, and with it the
# elimination order inside tcalc, the same from run to run.
JOB_ENV = dict(os.environ, PYTHONHASHSEED="0")

# Output flags that must be true, by subcommand, besides the exact stdout.
FLAGS = {"pn": "routes_agree", "check": "valid", "mccarthy": "acyclic"}


class JobTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise JobTimeout()


def run_job(src, argv, workdir, timeout_s, trace_out=None):
    """Run `tcalc argv` once; return (wall_s, rc, stdout, stderr, maxrss_kb).

    Output goes to files in `workdir`, so no pipe can fill and stall the job.
    `os.wait4` gives this child's own peak RSS."""
    if trace_out is None:
        cmd = [sys.executable, "-c", SHIM, src] + argv
    else:
        cmd = [sys.executable, TRACER, src, trace_out] + argv
    out_path = os.path.join(workdir, "job.stdout")
    err_path = os.path.join(workdir, "job.stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=workdir, stdout=out, stderr=err,
                                env=JOB_ENV)
        old = signal.signal(signal.SIGALRM, _on_alarm)
        signal.alarm(max(1, int(timeout_s)))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except JobTimeout:
            proc.kill()
            proc.wait()
            raise
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, old)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as f:
        stdout = f.read()
    with open(err_path, "rb") as f:
        stderr = f.read()
    return wall, proc.returncode, stdout, stderr, usage.ru_maxrss


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def doc_bytes(doc):
    """The bytes a pool document is written as (and hashed over)."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def resolve(argv, names):
    """Replace the `{key}` placeholders of a pool job by file names."""
    return [names[a[1:-1]] if a.startswith("{") else a for a in argv]


def error_detail(stderr):
    """The `detail` of the CLI's one-line JSON error, or the raw text."""
    text = stderr.decode("utf-8", "replace").strip()
    try:
        return json.loads(text.splitlines()[-1])["detail"]
    except (IndexError, ValueError, KeyError, TypeError):
        return text[-300:]


def flag_problem(argv, stdout):
    """Why a successful job's output fails its semantic check, or None."""
    flag = FLAGS.get(argv[0])
    if flag is None or (argv[0] == "pn" and "both" not in argv):
        return None
    try:
        payload = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    if payload.get(flag) is not True:
        return "%s is not true" % flag
    return None


def check_job(ref, rc, stdout, stderr):
    """Compare one run of a job with its reference; None when it matches."""
    if rc != 0:
        return "exit %d: %s" % (rc, error_detail(stderr))
    if sha256(stdout) != ref["stdout_sha256"]:
        return "stdout differs from the reference"
    return flag_problem(ref["argv"], stdout)


def check_defect(ref, rc, stdout, stderr):
    """Classify one run of a known-defect job.

    Returns ("reproduced" | "fixed", None), or (None, problem) when the job
    fails in a new way or succeeds with a wrong answer."""
    if rc == 0:
        problem = flag_problem(ref["argv"], stdout)
        return (None, problem) if problem else ("fixed", None)
    if rc == ref["rc"] and ref["detail"] in error_detail(stderr):
        return "reproduced", None
    return None, "exit %d: %s" % (rc, error_detail(stderr))
