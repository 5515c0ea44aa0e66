"""Seeded end-to-end benchmark of the wnucsp solver.

    python3 perfbench/run.py --workload desk --seed 0 --seconds 10 --trace 0

One process, one thread.  Set-up generates the workload from the seed
(see workloads.py).  The cold pass then
solves every instance once in a process that has solved nothing yet; warm
passes repeat the whole list, each instance with a new ``Solver``, until
``--seconds`` have passed since the cold pass began.  Every solve runs
under a per-instance deadline enforced by a signal timer, and every verdict
is checked outside the timed region.  The last line of standard output is
one JSON object; a wrong verdict makes the exit code 1.

With ``--trace 1`` the run instead reports per-layer metrics: the cold pass
is traced (see spans.py), then one untraced and one traced warm pass give
the tracing overhead.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 3   # set-ups measured: this process and fresh ones
# Typical time of probe() on the reference machine (see NOTES.md); timings
# are reported at this machine speed.
PROBE_REF_S = 0.0005
# An operation's speed is judged from the probes of the operations up to
# this many places before and after it.
PROBE_WINDOW = 3


class DeadlineMiss(BaseException):
    """Raised by the signal timer; a BaseException so no handler in the
    solver can swallow it."""


def _alarm(signum, frame):
    raise DeadlineMiss()


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0,
                    help="run seed; it picks the instance seeds a run leaves "
                    "out")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="build the workload, print its set-up time, exit")
    ap.add_argument("--limit", type=int, default=None,
                    help="keep only the first N instances (self-check)")
    ap.add_argument("--forge-verdict", action="store_true",
                    help="flip the first verdict (self-check of the gate)")
    return ap.parse_args(argv)


def import_package():
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "wnucsp")):
        sys.exit("perfbench: no package source at %s" % src)
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import wnucsp  # noqa: F401


def setup(args):
    """Build the workload.  Returns its spec, its items and the set-up
    seconds since process start at the reference machine speed: a probe
    runs before each instance is generated, and the set-up time less the
    probes' is divided by the median probe's slowdown."""

    import workloads
    if args.workload not in workloads.WORKLOADS:
        sys.exit("perfbench: unknown workload %r (known: %s)"
                 % (args.workload, ", ".join(workloads.WORKLOADS)))
    probes = []
    items = workloads.build(args.workload, args.seed,
                            lambda: probes.append(probe()))
    seconds = time.perf_counter() - START - sum(probes)
    if args.limit is not None:
        items = items[:args.limit]
    return (workloads.WORKLOADS[args.workload], items,
            seconds / (statistics.median(probes) / PROBE_REF_S))


def setup_samples(args, own):
    """Set-up seconds of this process plus fresh processes run one at a
    time; their median is ``setup_s``."""

    samples = [own]
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.limit is not None:
        cmd += ["--limit", str(args.limit)]
    for _ in range(SETUP_SAMPLES - 1):
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=170, check=True)
        samples.append(json.loads(out.stdout.splitlines()[-1])["setup_s"])
    return samples


class Result:
    __slots__ = ("status", "seconds", "assignment", "inst")

    def __init__(self, status, seconds, assignment=None, inst=None):
        self.status = status        # "sat", "unsat", "deadline" or error class
        self.seconds = seconds      # wall time of the timed operation
        self.assignment = assignment
        self.inst = inst            # the instance that was solved

    @property
    def decided(self):
        return self.status in ("sat", "unsat")

    def adjusted(self, slowdown):
        """Seconds at the reference machine speed.  A deadline miss is a
        wall-clock limit and stays as measured."""
        if self.status == "deadline":
            return self.seconds
        return self.seconds / slowdown


def solve_one(item, deadline_s, tracer=None):
    from workloads import center_arity_cap
    from wnucsp.errors import CspError
    from wnucsp.fileformat import parse_instance
    from wnucsp.solver import Solver, SolverConfig

    config = SolverConfig(center_arity_cap=center_arity_cap(
        max(a.size for a in item.inst.base_algebras)))
    inst = None
    if tracer is not None:
        tracer.begin(item.label)
    t0 = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, deadline_s)
    try:
        inst = parse_instance(item.text) if item.text is not None \
            else item.inst
        outcome = Solver(config).solve(inst)
        status, assignment = outcome.kind, outcome.assignment
    except DeadlineMiss:
        status, assignment = "deadline", None
    except CspError as exc:
        status, assignment = type(exc).__name__, None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = time.perf_counter() - t0
        if tracer is not None:
            tracer.end()
    return Result(status, seconds, assignment, inst)


def probe():
    """Seconds taken by a fixed piece of pure-Python work of the solver's
    kind (tuples, dict and set operations) that runs no package code."""
    t0 = time.perf_counter()
    seen = {}
    for i in range(1500):
        key = (i % 7, i % 11, (i * 31) % 17)
        seen[key] = seen.get(key, 0) + 1
    frozenset(k for k, v in seen.items() if v > 1)
    return time.perf_counter() - t0


class Pass:
    """One pass over the workload.  A probe runs before every timed
    operation, outside its timed region.  An operation's slowdown is the
    median time of the probes of the operations around it, over
    PROBE_REF_S: the machine's speed at that moment relative to the
    reference machine."""

    def __init__(self, name, items, deadline_s, tracer=None):
        self.name = name
        probes = []
        self.results = []
        for item in items:
            probes.append(probe())
            self.results.append(solve_one(item, deadline_s, tracer))
        self.slowdowns = [
            statistics.median(probes[max(0, i - PROBE_WINDOW):
                                     i + PROBE_WINDOW + 1]) / PROBE_REF_S
            for i in range(len(probes))]

    @property
    def seconds(self):
        """Wall time of the pass's timed operations."""
        return sum(r.seconds for r in self.results)

    @property
    def adjusted(self):
        return [r.adjusted(s) for r, s in zip(self.results, self.slowdowns)]


class Gate:
    """Checks every verdict against the workload's oracle, outside any
    timed region; brute force runs once per instance."""

    def __init__(self, spec, items):
        self.spec = spec
        self.items = items
        self.expected = {}
        self.mismatches = []

    def expect(self, i, result):
        if self.spec.oracle == "planted":
            return "sat"
        if i not in self.expected:
            from wnucsp.harness import brute_force
            found = brute_force(result.inst, "decision")
            self.expected[i] = "sat" if found is not None else "unsat"
        return self.expected[i]

    def check(self, pass_name, results):
        for i, res in enumerate(results):
            if not res.decided:
                continue
            want = self.expect(i, res)
            problem = None
            if res.status != want:
                problem = "verdict %s, oracle says %s" % (res.status, want)
            elif res.status == "sat" and not res.inst.assignment_satisfies(
                    res.assignment):
                problem = "assignment does not satisfy the instance"
            if problem:
                self.mismatches.append(
                    (pass_name, self.items[i].label, problem))


def forge(results):
    """Flip the first verdict, so the gate must fail."""
    for res in results:
        if res.decided:
            res.status = "unsat" if res.status == "sat" else "sat"
            return


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(cold, warm, setup_s):
    decided = sum(r.decided for r in cold.results)
    cold_ms = [s * 1000 for s in cold.adjusted]
    return {
        "cold_ips": (decided / sum(cold.adjusted), "instances/s"),
        "warm_ips": (sum(r.decided for p in warm for r in p.results)
                     / sum(sum(p.adjusted) for p in warm), "instances/s"),
        "cold_p50_ms": (percentile(cold_ms, 50), "ms"),
        "cold_p95_ms": (percentile(cold_ms, 95), "ms"),
        "decided_frac": (decided / len(cold.results), "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }


def report(args, items, passes, deadline, metrics, gate):
    """Human-readable lines; the JSON result follows them."""
    print("workload %s, seed %d: %d instances, %d passes, "
          "deadline %.0f s" % (args.workload, args.seed, len(items),
                               len(passes), deadline))
    for name, (value, unit) in metrics.items():
        print("  %-34s %14.6g %s" % (name, value, unit))
    for p in passes:
        slowest = max(((r.seconds, it.label)
                       for it, r in zip(items, p.results) if r.decided),
                      default=(0.0, "-"))
        print("  pass %-14s raw %8.3f s  slowdown %.3f  slowest decided "
              "%s %.2f s" % (p.name, p.seconds,
                             statistics.mean(p.slowdowns), slowest[1],
                             slowest[0]))
    for p in passes:
        for item, r in zip(items, p.results):
            if not r.decided:
                print("  undecided %-18s %-14s %-12s after %.2f s"
                      % (item.label, p.name, r.status, r.seconds))
    for pass_name, label, problem in gate.mismatches:
        print("  WRONG %s %s: %s" % (label, pass_name, problem))


def main(argv=None):
    args = parse_args(argv)
    import_package()
    if args.setup_only:
        print(json.dumps({"setup_s": setup(args)[2]}))
        return 0

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install("setup")
    spec, items, own_setup = setup(args)
    from workloads import DEADLINE_S as deadline
    signal.signal(signal.SIGALRM, _alarm)
    if tracer is not None:
        tracer.set_phase("cold")

    began = time.perf_counter()
    passes = [Pass("cold", items, deadline, tracer)]
    if tracer is None:
        while len(passes) == 1 or time.perf_counter() - began < args.seconds:
            passes.append(Pass("warm%d" % len(passes), items, deadline))
    else:
        tracer.uninstall()
        passes.append(Pass("warm_untraced", items, deadline))
        tracer.install("warm")
        passes.append(Pass("warm_traced", items, deadline, tracer))
        tracer.uninstall()
    cold = passes[0]

    if args.forge_verdict:
        forge(cold.results)
    gate = Gate(spec, items)
    if tracer is not None:
        tracer.install("check")
    for p in passes:
        gate.check(p.name, p.results)
    if tracer is not None:
        tracer.uninstall()

    if tracer is None:
        samples = setup_samples(args, own_setup)
        metrics = end_to_end(cold, passes[1:], statistics.median(samples))
    else:
        metrics = tracer.metrics(cold.seconds, sum(passes[1].adjusted),
                                 sum(passes[2].adjusted))
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write(os.path.join(out_dir, "spans-%s-seed%d.csv.gz"
                                  % (args.workload, args.seed)))

    report(args, items, passes, deadline, metrics, gate)
    correct = not gate.mismatches
    print(json.dumps({
        "correct": correct,
        "attempted": sum(len(p.results) for p in passes),
        "failed": sum(not r.decided for p in passes for r in p.results),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
