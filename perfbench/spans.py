"""Spans around the public functions of each wnucsp module.

The tracer wraps a function by rebinding its name everywhere the function
object is bound: in its own module (calls inside the module go through
the global), in every module that did ``from .x import y`` (for example
``wnucsp.solver.enforce_cycle_consistency``) and in the benchmark's own
modules.  Methods are rebound on their class.  Nothing in the package is
edited, and ``uninstall`` puts every original back.

A span is (id, parent id, name, start, end, trace id); all spans of one
instance share the instance label as trace id.  Spans stay in memory and
are written out by ``write``.  Self time is a span's duration minus the
time its child spans cover; a layer's ``_s`` metric is the self time of its
spans in the traced cold pass.
"""

from __future__ import annotations

import csv
import gzip
import sys
from collections import Counter, defaultdict
from time import perf_counter

from wnucsp import algebra, classify, consistency, fileformat, harness
from wnucsp import instance, linsolve, relation, solver

MODULES = ("solver", "consistency", "instance", "relation", "algebra",
           "classify", "linsolve", "fileformat", "harness")


def _count_result(counter):
    def hook(tracer, args, result):
        if result is not None:
            tracer.counts[counter] += 1
    return hook


def _depth(tracer, args, result):
    _, _, depth, t3 = args
    tracer.maxima["solver.max_depth"] = max(
        tracer.maxima["solver.max_depth"], depth)
    tracer.maxima["solver.max_type3_depth"] = max(
        tracer.maxima["solver.max_type3_depth"], t3)


def _learned(tracer, args, result):
    tracer.counts["solver.learned_equations"] += len(args[0].learned)


def _cycle_outcome(tracer, args, result):
    if result.status in ("reduce", "nosolution"):
        tracer.counts["consistency.cycle_reduced"] += 1


def _count_oracle(tracer, args, kwargs):
    oracle = args[0]

    def counted(v):
        tracer.counts["linsolve.learn_queries"] += 1
        return oracle(v)
    return (counted,) + tuple(args[1:]), kwargs


# (span name, owner, attribute, post-call hook).  An owner that is a class
# gets the attribute rebound on the class.
TARGETS = (
    ("solver.solve", solver.Solver, "solve", _learned),
    ("solver.solve_memo", solver.Solver, "_solve", _depth),
    ("solver.solve_main", solver.Solver, "_solve_main", None),
    ("solver.step3", solver.Solver, "_step3", None),
    ("solver.step4", solver.Solver, "_step4", _count_result("solver.step4_fired")),
    ("solver.step5", solver.Solver, "_step5", _count_result("solver.step5_fired")),
    ("solver.step6", solver.Solver, "_step6", _count_result("solver.step6_fired")),
    ("solver.linear_phase", solver.Solver, "_linear_phase", None),
    ("consistency.cycle", consistency, "enforce_cycle_consistency",
     _cycle_outcome),
    ("consistency.pair_network", consistency, "build_pair_network", None),
    ("consistency.irreducibility", consistency, "check_irreducibility", None),
    ("consistency.linked", consistency, "linked_components", None),
    ("consistency.linked", consistency, "is_linked", None),
    ("instance.validate", instance.Instance, "__post_init__", None),
    ("instance.apply_reduction", instance, "apply_reduction", None),
    ("instance.canonical_key", instance.Instance, "canonical_key", None),
    ("instance.weaken_all", instance, "weaken_all", None),
    ("instance.prune_weaker", instance, "prune_weaker", None),
    ("instance.make_crucial", instance, "make_crucial", None),
    ("instance.factorize", instance, "factorize_to_linear", None),
    ("relation.weaker", relation, "weaker_relations", None),
    ("relation.supersets", relation, "invariant_supersets", None),
    ("relation.restrict", relation, "restrict_relation", None),
    ("algebra.image", algebra, "wnu_image", None),
    ("algebra.closure", algebra, "wnu_closure", None),
    ("algebra.is_closed", algebra, "is_closed", None),
    ("algebra.table_eq", algebra.OperationTable, "__eq__", None),
    ("algebra.congruences", algebra, "all_congruences", None),
    ("classify.absorbing", classify, "find_binary_absorbing", None),
    ("classify.center", classify, "find_center", None),
    ("classify.pc", classify, "pc_structure", None),
    ("classify.con_lin", classify, "con_lin", None),
    ("linsolve.solve", linsolve, "solve_linear_system", None),
    ("linsolve.learn", linsolve, "learn_hyperplane", None),
    ("fileformat.parse", fileformat, "parse_instance_text", None),
    ("fileformat.build", fileformat, "build_instance", None),
    ("fileformat.serialize", fileformat, "serialize_instance", None),
    ("harness.generate", harness, "random_instance", None),
    ("harness.brute_force", harness, "brute_force", None),
)
PRE_HOOKS = {"linsolve.learn": _count_oracle}

# lru caches whose hit ratio over the cold pass is reported
CACHES = {
    "instance.effective_hit_ratio": instance._effective,
    "relation.weaker_hit_ratio": relation.weaker_relations,
    "relation.supersets_hit_ratio": relation.invariant_supersets,
    "algebra.restrict_hit_ratio": algebra.restrict_algebra,
    "classify.absorbing_hit_ratio": classify.find_binary_absorbing,
    "classify.center_hit_ratio": classify.find_center,
    "classify.pc_hit_ratio": classify.pc_structure,
    "classify.con_lin_hit_ratio": classify.con_lin,
}

# per-layer metric -> (phase, span name, "s" self seconds | "calls")
SPAN_METRICS = {
    "solver.step3_s": ("cold", "solver.step3", "s"),
    "solver.step3_calls": ("cold", "solver.step3", "calls"),
    "solver.linear_phase_s": ("cold", "solver.linear_phase", "s"),
    "solver.linear_phase_calls": ("cold", "solver.linear_phase", "calls"),
    "consistency.cycle_s": ("cold", "consistency.cycle", "s"),
    "consistency.cycle_calls": ("cold", "consistency.cycle", "calls"),
    "consistency.pair_network_s": ("cold", "consistency.pair_network", "s"),
    "consistency.irreducibility_s": ("cold", "consistency.irreducibility", "s"),
    "consistency.linked_s": ("cold", "consistency.linked", "s"),
    "instance.built": ("cold", "instance.validate", "calls"),
    "instance.validate_s": ("cold", "instance.validate", "s"),
    "instance.apply_reduction_s": ("cold", "instance.apply_reduction", "s"),
    "instance.canonical_key_s": ("cold", "instance.canonical_key", "s"),
    "instance.weaken_all_s": ("cold", "instance.weaken_all", "s"),
    "instance.prune_weaker_s": ("cold", "instance.prune_weaker", "s"),
    "instance.make_crucial_s": ("cold", "instance.make_crucial", "s"),
    "instance.factorize_s": ("cold", "instance.factorize", "s"),
    "relation.weaker_s": ("cold", "relation.weaker", "s"),
    "relation.weaker_calls": ("cold", "relation.weaker", "calls"),
    "relation.supersets_s": ("cold", "relation.supersets", "s"),
    "relation.restrict_calls": ("cold", "relation.restrict", "calls"),
    "algebra.image_s": ("cold", "algebra.image", "s"),
    "algebra.image_calls": ("cold", "algebra.image", "calls"),
    "algebra.closure_s": ("cold", "algebra.closure", "s"),
    "algebra.closure_calls": ("cold", "algebra.closure", "calls"),
    "algebra.is_closed_s": ("cold", "algebra.is_closed", "s"),
    "algebra.is_closed_calls": ("cold", "algebra.is_closed", "calls"),
    "algebra.table_eq_s": ("cold", "algebra.table_eq", "s"),
    "algebra.table_eq_calls": ("cold", "algebra.table_eq", "calls"),
    "algebra.congruences_s": ("cold", "algebra.congruences", "s"),
    "classify.absorbing_s": ("cold", "classify.absorbing", "s"),
    "classify.center_s": ("cold", "classify.center", "s"),
    "classify.pc_s": ("cold", "classify.pc", "s"),
    "classify.con_lin_s": ("cold", "classify.con_lin", "s"),
    "linsolve.solve_s": ("cold", "linsolve.solve", "s"),
    "linsolve.solve_calls": ("cold", "linsolve.solve", "calls"),
    "linsolve.learn_calls": ("cold", "linsolve.learn", "calls"),
    "fileformat.parse_s": ("cold", "fileformat.parse", "s"),
    "fileformat.build_s": ("cold", "fileformat.build", "s"),
    "fileformat.serialize_s": ("setup", "fileformat.serialize", "s"),
    "harness.generate_s": ("setup", "harness.generate", "s"),
    "harness.brute_force_s": ("check", "harness.brute_force", "s"),
    "harness.brute_force_calls": ("check", "harness.brute_force", "calls"),
}


def _unit(metric):
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []          # [span id, seconds covered by children]
        self.next_id = 1
        self.phase = None
        self.trace_id = None
        self.self_s = defaultdict(float)   # (phase, span name) -> seconds
        self.calls = Counter()             # (phase, span name) -> calls
        self.counts = Counter()            # cold-pass counters
        self.maxima = Counter()
        self.cache_marks = {}
        self._undo = []

    # -- span recording

    def begin(self, label):
        """Open the root span of one instance."""
        self.trace_id = label
        self.stack.append([self.next_id, 0.0, perf_counter()])
        self.next_id += 1

    def end(self):
        sid, covered, t0 = self.stack.pop()
        t1 = perf_counter()
        self._record(sid, 0, "bench.op", t0, t1, t1 - t0 - covered)
        self.trace_id = self.phase

    def _record(self, sid, parent, name, t0, t1, self_s):
        self.spans.append((sid, parent, name, t0, t1, self.trace_id))
        key = (self.phase, name)
        self.self_s[key] += self_s
        self.calls[key] += 1

    def _wrap(self, name, fn, hook, pre):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer.stack
            sid = tracer.next_id
            tracer.next_id += 1
            parent = stack[-1][0] if stack else 0
            if pre is not None:
                args, kwargs = pre(tracer, args, kwargs)
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += t1 - t0
                tracer._record(sid, parent, name, t0, t1, t1 - t0 - frame[1])
            if hook is not None and tracer.phase == "cold":
                hook(tracer, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installing

    def install(self, phase):
        """Rebind every target; spans from now on belong to ``phase``."""
        self.set_phase(phase)
        modules = [m for n, m in list(sys.modules.items())
                   if n == "wnucsp" or n.startswith("wnucsp.")
                   or n == "workloads"]
        for name, owner, attr, hook in TARGETS:
            if isinstance(owner, type):
                fn = owner.__dict__[attr]
                self._rebind(owner, attr, fn,
                             self._wrap(name, fn, hook, PRE_HOOKS.get(name)))
                continue
            fn = getattr(owner, attr)
            traced = self._wrap(name, fn, hook, PRE_HOOKS.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._rebind(mod, key, fn, traced)

    def _rebind(self, owner, key, original, traced):
        setattr(owner, key, traced)
        self._undo.append((owner, key, original))

    def uninstall(self):
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)
        self.set_phase(None)

    def set_phase(self, phase):
        """Switch phase; cache statistics are snapshotted around the cold
        pass."""
        if self.phase == "cold" or phase == "cold":
            self.cache_marks[phase or "end"] = {
                k: f.cache_info() for k, f in CACHES.items()}
        self.phase = phase
        self.trace_id = phase

    # -- results

    def metrics(self, cold_s, warm_untraced_s, warm_traced_s):
        out = {}
        module_s = 0.0
        for (phase, name), secs in self.self_s.items():
            if phase == "cold" and name.split(".")[0] in MODULES:
                module_s += secs
        solver_self = sum(s for (p, n), s in self.self_s.items()
                          if p == "cold" and n.startswith("solver."))
        memo_calls = self.calls[("cold", "solver.solve_memo")]
        main_calls = self.calls[("cold", "solver.solve_main")]
        cycle_calls = self.calls[("cold", "consistency.cycle")]
        out["solver.solve_calls"] = memo_calls
        out["solver.memo_hit_ratio"] = (
            1 - main_calls / memo_calls if memo_calls else 0.0)
        out["solver.max_depth"] = self.maxima["solver.max_depth"]
        out["solver.max_type3_depth"] = self.maxima["solver.max_type3_depth"]
        for key in ("solver.step4_fired", "solver.step5_fired",
                    "solver.step6_fired", "solver.learned_equations",
                    "linsolve.learn_queries"):
            out[key] = self.counts[key]
        out["solver.self_s"] = solver_self
        out["consistency.cycle_reduce_ratio"] = (
            self.counts["consistency.cycle_reduced"] / cycle_calls
            if cycle_calls else 0.0)
        for metric, (phase, name, kind) in SPAN_METRICS.items():
            out[metric] = (self.self_s[(phase, name)] if kind == "s"
                           else self.calls[(phase, name)])
        before, after = self.cache_marks["cold"], self.cache_marks["end"]
        for metric in CACHES:
            hits = after[metric].hits - before[metric].hits
            misses = after[metric].misses - before[metric].misses
            out[metric] = hits / (hits + misses) if hits + misses else 0.0
        out["algebra.cache_entries"] = sum(
            f.cache_info().currsize for f in vars(algebra).values()
            if hasattr(f, "cache_info"))
        out["trace.cold_pass_s"] = cold_s
        out["trace.module_self_frac"] = module_s / cold_s
        out["trace_overhead_frac"] = warm_traced_s / warm_untraced_s - 1
        return {k: (v, _unit(k)) for k, v in sorted(out.items())}

    def write(self, path):
        """Gzipped CSV, one span a line: id, parent, name, start, end and
        trace id, times in perf_counter seconds."""
        with gzip.open(path, "wt", compresslevel=1, newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("id", "parent", "name", "start", "end", "trace"))
            out.writerows(self.spans)
