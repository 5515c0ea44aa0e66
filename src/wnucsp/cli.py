"""Command line interface.

Commands: solve, classify, wnu, oracle, gen, difftest.  Exit codes:
0 satisfiable / success, 1 unsatisfiable / disagreement, 2 no WNU found,
3 usage or format error, 4 internal invariant breach.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .algebra import (
    conjunction_table,
    dual_discriminator_table,
    majority_table,
    make_algebra,
    minority_table,
    search_special_wnu,
    sum_table,
)
from .classify import classify_domain
from .errors import (
    ArgumentError,
    ClassificationError,
    CspError,
    FormatError,
    InternalError,
)
from .fileformat import build_instance, parse_instance_text, serialize_instance
from .harness import GenParams, brute_force, differential_test, random_instance
from .solver import Solver, SolverConfig

EXIT_SAT = 0
EXIT_UNSAT = 1
EXIT_NONE = 2
EXIT_USAGE = 3
EXIT_INTERNAL = 4


def builtin_wnu(name, domain_size, arity):
    if name == "sum":
        return sum_table(domain_size, arity)
    if name == "minority":
        return minority_table()
    if name == "majority":
        return majority_table()
    if name == "and":
        return conjunction_table(arity)
    if name == "dd":
        return dual_discriminator_table(domain_size)
    raise ArgumentError("unknown wnu name %r" % name)


def _read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _search_missing_wnus(parsed, arities, budget):
    """Single-domain instances without a WNU directive get a search; returns
    (tables dict, decisive flag) or (None, decisive) when none exists."""

    missing = {d for _, d in parsed.variables if d not in parsed.wnus}
    missing |= {
        d for doms, _ in parsed.relations.values() for d in doms
        if d not in parsed.wnus
    }
    if not missing:
        return {}, True
    if len(parsed.domains) != 1:
        raise FormatError("WNU directives are required for multi-domain files")
    dom = next(iter(missing))
    size = parsed.domains[dom]
    relations = [tuples for doms, tuples in parsed.relations.values()]
    for arity in arities:
        found = search_special_wnu(size, relations, arity, budget=budget)
        if found.table is not None:
            return {dom: found.table}, True
        if not found.exhausted:
            return None, False
    decisive = size == 2 and 3 in arities
    return None, decisive


def _check_domain_cap(parsed, args):
    cap = args.max_domain
    if cap is None:
        return
    for dom, size in parsed.domains.items():
        if size > cap:
            raise FormatError("domain %s has %d elements, above the cap %d"
                              % (dom, size, cap))


def _center_cap(domain_size):
    """The center-search arity cap that keeps the search complete on a
    domain of this size."""

    return max(3, domain_size - 1)


def _emit_json(payload):
    print(json.dumps(payload, sort_keys=True))


def _no_wnu(command, args, decisive):
    """Report that some domain has no WNU up to the arity cap."""

    if args.json:
        _emit_json({"command": command, "decision": "no-wnu",
                    "decisive": decisive})
    else:
        print("NO-WNU" + ("" if decisive else " (up to arity cap)"))
    return EXIT_NONE


def cmd_solve(args):
    parsed = parse_instance_text(_read(args.file))
    _check_domain_cap(parsed, args)
    arities = [int(a) for a in args.wnu_arities.split(",")]
    extra, decisive = _search_missing_wnus(parsed, arities, args.max_nodes)
    if extra is None:
        return _no_wnu("solve", args, decisive)
    inst = build_instance(parsed, extra)
    # completeness of the center search must cover the largest domain
    center_cap = _center_cap(max(parsed.domains.values()))
    events = 0

    def trace_sink(ev):
        nonlocal events
        events += 1
        print("[trace] step %s (depth %d, t3 %d): %s"
              % (ev.step, ev.depth, ev.type3_depth, ev.detail),
              file=sys.stderr)

    cfg = SolverConfig(center_arity_cap=center_cap,
                       trace_sink=trace_sink if args.trace else None)
    t0 = time.perf_counter()
    solver = Solver(cfg)
    outcome = solver.solve(inst)
    elapsed = time.perf_counter() - t0
    if args.json:
        _emit_json({
            "command": "solve",
            "decision": outcome.kind,
            "assignment": outcome.assignment,
            "trace_events": events,
            "learned_equations": len(solver.learned),
            "elapsed_ms": round(elapsed * 1000, 3),
        })
        return EXIT_SAT if outcome.satisfiable else EXIT_UNSAT
    if outcome.satisfiable:
        print("SAT")
        for var in inst.variables:
            print("%s=%d" % (var, outcome.assignment[var]))
        return EXIT_SAT
    print("UNSAT")
    return EXIT_UNSAT


def _report_line(report):
    if report.kind == "binary_absorbing":
        return "binary-absorbing B=%s t=%s" % (
            sorted(report.subuniverse), list(report.term.entries))
    if report.kind == "center":
        return "center C=%s witness=%s" % (
            sorted(report.subuniverse), report.witness.kind.replace("_", "-"))
    if report.kind == "pc_quotient":
        return "pc-quotient classes=%s" % (
            [list(b) for b in report.congruence.blocks],)
    return "linear-quotient classes=%s primes=%s" % (
        [list(b) for b in report.congruence.blocks], list(report.iso.primes))


def cmd_classify(args):
    parsed = parse_instance_text(_read(args.file))
    _check_domain_cap(parsed, args)
    arities = [int(a) for a in args.wnu_arities.split(",")]
    extra, decisive = _search_missing_wnus(parsed, arities, args.max_nodes)
    if extra is None:
        return _no_wnu("classify", args, decisive)
    wnus = dict(parsed.wnus)
    wnus.update(extra)
    results = {}
    for dom, size in parsed.domains.items():
        if dom not in wnus:
            raise FormatError("domain %s has no WNU" % dom)
        if size < 2:
            results[dom] = "trivial (one element)"
            continue
        alg = make_algebra(range(size), wnus[dom])
        results[dom] = _report_line(classify_domain(alg, arity_cap=_center_cap(size)))
    if args.json:
        _emit_json({"command": "classify", "domains": results})
    else:
        for dom in parsed.domains:
            print("%s: %s" % (dom, results[dom]))
    return EXIT_SAT


def cmd_wnu(args):
    parsed = parse_instance_text(_read(args.file))
    if len(parsed.domains) != 1:
        raise FormatError("wnu search needs a single-domain file")
    size = next(iter(parsed.domains.values()))
    relations = [tuples for _, tuples in parsed.relations.values()]
    found = search_special_wnu(size, relations, args.arity,
                               budget=args.max_nodes)
    if found.table is not None:
        if args.json:
            _emit_json({"command": "wnu", "found": True,
                        "entries": list(found.table.entries)})
        else:
            print(" ".join(map(str, found.table.entries)))
        return EXIT_SAT
    label = "NONE" if found.exhausted else "NONE (budget exceeded)"
    if args.json:
        _emit_json({"command": "wnu", "found": False,
                    "exhausted": found.exhausted})
    else:
        print(label)
    return EXIT_NONE


def cmd_oracle(args):
    # brute force needs no operation; missing WNUs become placeholders
    parsed = parse_instance_text(_read(args.file))
    _check_domain_cap(parsed, args)
    inst = build_instance(parsed, placeholder_ok=True)
    if args.all:
        sols = brute_force(inst, "all")
        if args.json:
            _emit_json({"command": "oracle", "count": len(sols),
                        "solutions": [
                            {v: s[v] for v in inst.variables} for s in sols]})
        else:
            for s in sols:
                print(" ".join("%s=%d" % (v, s[v]) for v in inst.variables))
            print("COUNT %d" % len(sols))
        return EXIT_SAT if sols else EXIT_UNSAT
    sol = brute_force(inst, "decision")
    if args.json:
        _emit_json({"command": "oracle",
                    "decision": "sat" if sol else "unsat",
                    "assignment": sol})
        return EXIT_SAT if sol else EXIT_UNSAT
    if sol:
        print("SAT")
        for var in inst.variables:
            print("%s=%d" % (var, sol[var]))
        return EXIT_SAT
    print("UNSAT")
    return EXIT_UNSAT


def _gen_params(args):
    wnu = None
    if args.wnu != "search":
        wnu = builtin_wnu(args.wnu, args.domain_size, args.wnu_arity)
    return GenParams(args.domain_size, args.wnu_arity, args.vars,
                     args.constraints, args.max_arity, args.seed,
                     args.sat_bias, wnu)


def cmd_gen(args):
    inst, _ = random_instance(_gen_params(args))
    text = serialize_instance(inst)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_SAT


def cmd_difftest(args):
    cfg = SolverConfig(center_arity_cap=_center_cap(args.domain_size))
    report = differential_test(args.n, _gen_params(args),
                               solver_factory=lambda: Solver(cfg))
    if args.json:
        _emit_json({
            "command": "difftest",
            "total": len(report.records),
            "agreements": sum(1 for r in report.records if r.agree),
            "disagreements": [
                {"seed": seed, "instance": text}
                for seed, text in report.disagreements
            ],
        })
    else:
        for rec in report.records:
            print("seed=%d solver=%s oracle=%s %s"
                  % (rec.seed, rec.solver_decision, rec.oracle_decision,
                     "ok" if rec.agree else "DISAGREE"))
        print(report.summary())
        for seed, text in report.disagreements:
            print("--- disagreement seed=%d ---" % seed, file=sys.stderr)
            sys.stderr.write(text)
    return EXIT_SAT if report.ok else EXIT_UNSAT


def build_parser():
    parser = argparse.ArgumentParser(
        prog="wnucsp",
        description="CSP solver for constraint languages preserved by a "
                    "special weak near-unanimity operation.")
    sub = parser.add_subparsers(dest="command", required=True)

    options = {
        "--json": dict(action="store_true",
                       help="one machine-readable JSON object on stdout"),
        "--max-nodes": dict(type=int, default=500_000,
                            help="node budget for WNU searches"),
        "--max-domain": dict(type=int, default=None,
                             help="reject files whose domains exceed this size"),
        "--wnu-arities": dict(default="3", help="comma list of arities tried "
                                                "when no WNU is given"),
    }

    def file_command(name, fn, summary, *names):
        """A command on an instance file with ``--json`` and the options
        ``names``, each of which it reads."""
        p = sub.add_parser(name, help=summary)
        p.add_argument("file")
        for opt in ("--json",) + names:
            p.add_argument(opt, **options[opt])
        p.set_defaults(fn=fn)
        return p

    p = file_command("solve", cmd_solve, "decide an instance file",
                     "--max-nodes", "--max-domain", "--wnu-arities")
    p.add_argument("--trace", action="store_true",
                   help="step-by-step trace on stderr")
    file_command("classify", cmd_classify, "classify each declared domain",
                 "--max-nodes", "--max-domain", "--wnu-arities")
    p = file_command("wnu", cmd_wnu, "search a special WNU preserving the "
                                     "file's relations", "--max-nodes")
    p.add_argument("--arity", type=int, required=True)
    p = file_command("oracle", cmd_oracle, "brute-force the instance",
                     "--max-domain")
    p.add_argument("--all", action="store_true", help="list every solution")

    def gen_common(p):
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--domain-size", type=int, required=True)
        p.add_argument("--wnu-arity", type=int, default=3)
        p.add_argument("--vars", type=int, default=4)
        p.add_argument("--constraints", type=int, default=4)
        p.add_argument("--max-arity", type=int, default=3)
        p.add_argument("--wnu", default="search",
                       help="sum | minority | majority | and | dd | search")
        p.add_argument("--sat-bias", action="store_true")

    p = sub.add_parser("gen", help="write a seeded random instance")
    gen_common(p)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("difftest", help="solver vs brute force on seeded "
                                        "instances")
    p.add_argument("--n", type=int, required=True)
    gen_common(p)
    p.add_argument("--json", **options["--json"])
    p.set_defaults(fn=cmd_difftest)
    # an option a command does not take is reported with its own usage
    for p in sub.choices.values():
        p.set_defaults(parser=p)
    return parser


def execute_command(argv):
    parser = build_parser()
    try:
        args, extra = parser.parse_known_args(argv)
        if extra:
            args.parser.error("unrecognized arguments: %s" % " ".join(extra))
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_SAT
    try:
        return args.fn(args)
    except (InternalError, ClassificationError) as exc:
        print("internal error: %s" % exc, file=sys.stderr)
        return EXIT_INTERNAL
    except CspError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE


def main():
    sys.exit(execute_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
