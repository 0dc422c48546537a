"""Benchmark for hgdual: one workload per process, driving the public entry
point ``hgdual.cli.main(argv)`` in-process with stdout captured.

    python3 perfbench/run.py --workload theta-verify --seed 1 --seconds 25 --trace 0

Run it from the root of a source checkout; the package is imported from
``src/``.  With ``--trace 0`` it measures the end-to-end metrics: passes over
the workload's invocations are repeated, each pass with fresh inputs drawn
from the seed, until the next pass would end after ``--seconds`` (at least
one pass runs).  With ``--trace 1`` it runs pass 0 once untraced and once
with spans recorded around the layer functions listed in ``layers.py``, and
reports the per-layer metrics; the spans go to ``perfbench/out/``.

Outside the timed region every run checks that each invocation exited 0 and
printed only passing verdicts, that the duality matrix of one sample per
(family, r) equals sympy's inverse of the same Psi, and, when tracing, that
the traced pass printed the same bytes as the untraced one.  The lines
before the last give every metric by name and unit and an environment
block; the last line is the result object.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, find_wrappers  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_REPEATS = 11
# Inputs are drawn for this many passes up front; a program fast enough to
# finish them all within --seconds starts again at pass 0.
PASSES_DRAWN = 16
# After this many seconds the running invocation is interrupted and counted
# as failed, so that the process ends within 180 s even on a hung program.
DEADLINE_S = 160


class Deadline(BaseException):
    """Raised inside an invocation when the run's deadline passes."""


class Watchdog:
    def __init__(self, seconds):
        self.expired = False
        self.armed = False
        signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, max(seconds, 0.001))

    def _fire(self, *_):
        self.expired = True
        if self.armed:
            raise Deadline()

    def cancel(self):
        signal.setitimer(signal.ITIMER_REAL, 0)


def load_package():
    """Import hgdual afresh from the checkout's ``src/``."""
    for name in [n for n in sys.modules if n == "hgdual" or n.startswith("hgdual.")]:
        del sys.modules[name]
    cli = importlib.import_module("hgdual.cli")
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise ImportError("hgdual was imported from %s, not %s" % (cli.__file__, SRC))
    return cli


def set_up(workload, seed):
    cli = load_package()
    passes = [workloads.build_pass(workload, seed, i) for i in range(PASSES_DRAWN)]
    return cli, passes


class Tally:
    """Checks attempted and failed.  Every invocation, every verdict it
    prints and every gate comparison is one attempted check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.verdicts = 0
        self.problems = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)

    def invocation(self, inv, result):
        code, stdout, stderr, _ = result
        self.check(code == 0, "exit %s: %s %s" % (code, " ".join(inv.argv), stderr.strip()[-200:]))
        found, problem = workloads.verdicts(inv, stdout)
        self.verdicts += len(found)
        for ok in found:
            self.check(ok, "FAIL verdict: " + " ".join(inv.argv))
        if code == 0 and problem:
            self.check(False, "%s: %s" % (problem, " ".join(inv.argv)))


def invoke(cli, argv, watchdog):
    """Call ``cli.main(argv)``; returns (exit code, stdout, stderr, seconds).
    A raised exception becomes a non-zero code, so one broken invocation
    does not stop the run."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            watchdog.armed = True
            try:
                code = cli.main(argv)
            finally:
                watchdog.armed = False
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Deadline:
        code = "deadline"
    except Exception:  # noqa: BLE001 - a failing program is reported, not fatal
        code = "raised"
        err.write(traceback.format_exc(limit=-3))
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


def run_pass(cli, invocations, watchdog, tracer=None):
    """One pass over the invocations; returns the results and the wall time.
    After the deadline the remaining invocations are not run and count as
    failed."""
    results = []
    start = time.perf_counter()
    for n, inv in enumerate(invocations):
        if watchdog.expired:
            results.append(("deadline", "", "not run", 0.0))
            continue
        if tracer is not None:
            tracer.invocation = n
        results.append(invoke(cli, inv.argv, watchdog))
    return results, time.perf_counter() - start


def measure(cli, passes, seconds, watchdog, tally):
    """Timed passes until the next one would end after ``seconds``."""
    walls, times = [], []
    begin = time.perf_counter()
    index = 0
    while True:
        invocations = passes[index % len(passes)]
        results, wall = run_pass(cli, invocations, watchdog)
        walls.append(wall)
        for inv, result in zip(invocations, results):
            times.append((inv.r, result[3]))
            tally.invocation(inv, result)
        index += 1
        elapsed = time.perf_counter() - begin
        if watchdog.expired or elapsed + statistics.median(walls) > seconds:
            return walls, times


def oracle_gate(cli, invocations, watchdog, tally):
    """sympy inverse of Psi equals M for one sample per (family, r).
    Returns the largest coefficient bit length of Psi and of M."""
    import oracle  # sympy is imported only after the timed region

    bits = {"psi_output.max_bits": 0, "matrix_output.max_bits": 0}
    for inv in workloads.oracle_samples(invocations):
        docs = {}
        for command in ("psi", "matrix"):
            code, stdout, stderr, _ = invoke(cli, inv.with_command(command).argv, watchdog)
            try:
                docs[command] = json.loads(stdout) if code == 0 else None
            except ValueError:
                docs[command] = None
        what = "sympy oracle: %s" % " ".join(inv.with_command("matrix").argv)
        try:
            ok = None not in docs.values() and oracle.inverse_matches(docs["psi"], docs["matrix"])
            for command, doc in docs.items():
                key = command + "_output.max_bits"
                bits[key] = max(bits[key], oracle.entry_bits(doc))
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            ok = False
            what += " (%s)" % exc
        tally.check(ok, what)
    return bits


def digest(results):
    h = hashlib.sha256()
    for result in results:
        h.update(result[1].encode())
    return h.hexdigest()


def read_commit(root):
    """HEAD of a git checkout, read without running git; None elsewhere."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip("\n").endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "hgdual")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def backend():
    """Module of the package's rational type: ``fractions`` or ``gmpy2``."""
    kernel = sys.modules.get("hgdual.exact_algebra")
    scalar = getattr(kernel, "Q", None)
    return getattr(scalar, "__module__", "unknown")


def environment(args, passes_run, max_bits):
    return {
        "backend": backend(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": read_commit(ROOT),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": passes_run,
        "max_bits": max_bits,
    }


def end_to_end(setup_s, walls, times, verdicts, peak_rss_mb):
    largest = max(r for r, _ in times if r is not None)
    return {
        "setup_s": (setup_s, "s"),
        # means, not medians: pass times and the largest-r invocations mix
        # kinds of unequal cost, and a median jumps between them
        "wall_s": (statistics.mean(walls), "s"),
        "checks_per_s": (verdicts / sum(walls), "1/s"),
        "verdict_s.p50": (statistics.median(t for _, t in times), "s"),
        "verdict_s.rmax": (statistics.mean(t for r, t in times if r == largest), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def traced_run(cli, invocations, watchdog, tally, args):
    untraced, untraced_wall = run_pass(cli, invocations, watchdog)
    with Tracer(layers.TARGETS, "hgdual") as tracer:
        traced, traced_wall = run_pass(cli, invocations, watchdog, tracer)
    tally.check(not find_wrappers("hgdual"), "tracer wrappers left in place")
    tally.check(digest(untraced) == digest(traced), "traced stdout differs from untraced")
    for results in (untraced, traced):
        for inv, result in zip(invocations, results):
            tally.invocation(inv, result)
    report_bytes = sum(len(r[1].encode()) for r in traced)
    metrics = layers.per_layer(tracer, report_bytes, traced_wall, untraced_wall)
    os.makedirs(OUT, exist_ok=True)
    origin = tracer.spans[0][2] if tracer.spans else 0.0
    path = os.path.join(OUT, "spans-%s-%d.json" % (args.workload, args.seed))
    with open(path, "w") as fh:
        json.dump(
            {
                "workload": args.workload,
                "seed": args.seed,
                "fields": ["id", "name", "start", "end", "parent", "invocation"],
                "absent": tracer.absent,
                "spans": [
                    [s[0], s[1], s[2] - origin, s[3] - origin, s[4], s[5]]
                    for s in tracer.spans
                ],
            },
            fh,
        )
    return metrics, tracer.absent, dict(tracer.maxima), digest(traced)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hgdual", "cli.py")):
        print("no hgdual source tree at %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    setups = []
    for n in range(SETUP_REPEATS):
        begin = START if n == 0 else time.perf_counter()
        cli, passes = set_up(args.workload, args.seed)
        setups.append(time.perf_counter() - begin)

    tally = Tally()
    watchdog = Watchdog(DEADLINE_S - (time.perf_counter() - START))
    if args.trace:
        metrics, absent, maxima, sha = traced_run(cli, passes[0], watchdog, tally, args)
        passes_run = 1
        notes = [
            "absent wrap targets: %s" % (", ".join(absent) or "none"),
            "stdout sha256: %s" % sha,
        ]
    else:
        walls, times = measure(cli, passes, args.seconds, watchdog, tally)
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        passes_run = len(walls)
        values = end_to_end(statistics.median(setups), walls, times, tally.verdicts, peak)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
        maxima = {}
    maxima.update(oracle_gate(cli, passes[0], watchdog, tally))
    watchdog.cancel()
    if not args.trace:
        notes = [
            "verdict_n: %d count" % len(times),
            "fail_ratio: %r ratio" % (tally.failed / tally.attempted),
        ]

    for problem in tally.problems:
        print("problem: " + problem, file=sys.stderr)
    for name, m in metrics.items():
        print("%s: %r %s" % (name, m["value"], m["unit"]))
    for line in notes:
        print(line)
    print(json.dumps({"environment": environment(args, passes_run, maxima)}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
