"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS line on success (visible with ``pytest -s``); the
per-test verdict line under ``pytest -v`` carries the same information.
Criteria 3 and 4 share state: the certificate suite re-verifies every
structure report emitted while the differential suite ran.
"""

import itertools
import time

import pytest

from wnucsp.algebra import (
    Congruence,
    conjunction_table,
    dual_discriminator_table,
    is_polynomially_complete,
    majority_table,
    make_algebra,
    minority_table,
    search_special_wnu,
    sum_table,
)
from wnucsp.classify import classify_domain, con_lin, verify_structure_report
from wnucsp.consistency import enforce_cycle_consistency
from wnucsp.harness import GenParams, brute_force, random_instance
from wnucsp.instance import apply_reduction, factorize_to_linear
from wnucsp.linsolve import learn_hyperplane
from wnucsp.solver import Solver, SolverConfig

COLLECTED = {"reports": [], "two_element_algebras": set()}


def announce(criterion, detail):
    print("ACCEPTANCE %s: PASS — %s" % (criterion, detail), flush=True)


def test_criterion_1_z4_sum5_golden(z4_example):
    start = time.time()
    system, _ = factorize_to_linear(z4_example)
    got = {
        v for v in itertools.product(range(2), repeat=4)
        if all(sum(c * x for c, x in zip(eq.coeffs, v)) % eq.prime == eq.rhs
               for eq in system.equations)
    }
    want = {
        v for v in itertools.product(range(2), repeat=4)
        if (v[0] + v[2] + v[3]) % 2 == 0
        and (v[1] + v[2] + v[3]) % 2 == 0
        and (v[0] + v[1]) % 2 == 0
    }
    assert got == want, "theta_L solution set differs from the mod-2 system"

    solver = Solver()
    outcome = solver.solve(z4_example)
    assert outcome.satisfiable
    assert z4_example.assignment_satisfies(outcome.assignment)
    assert outcome.assignment == {"x1": 1, "x2": 1, "x3": 0, "x4": 1}

    top = [e for e in solver.learned if e.depth == 0]
    assert top, "no equation was learned at the top level"
    first = top[0]
    assert first.prime == 2 and first.rhs == 1
    assert first.names[first.coeffs.index(1)] == "x1#0"
    assert all(c == 0 for i, c in enumerate(first.coeffs)
               if first.names[i] != "x1#0")

    elapsed = time.time() - start
    assert elapsed < 1.0, "golden run took %.2fs" % elapsed
    announce(1, "theta_L == mod-2 system, first equation x1#0 = 1, "
                "solution (1,1,0,1) in %.2fs" % elapsed)


def test_criterion_2_con_lin_golden(z4):
    result = con_lin(z4)
    assert result.congruence == Congruence(((0, 2), (1, 3)))
    assert result.iso.primes == (2,)
    assert dict(result.iso.forward) == {0: (0,), 1: (1,)}
    announce(2, "con_lin(Z4, sum-of-5) = {{0,2},{1,3}} with Z2 quotient")


DIFF_CONFIGS = [
    ("|A|=2 minority", 2, 3, minority_table()),
    ("|A|=2 majority", 2, 3, majority_table()),
    ("|A|=3 dual discriminator", 3, 3, dual_discriminator_table()),
    ("|A|=4 Z4 sum-of-5", 4, 5, sum_table(4, 5)),
]


def test_criterion_3_differential_suite():
    start = time.time()
    total = 0
    for label, n, m, wnu in DIFF_CONFIGS:
        for i in range(500):
            params = GenParams(n, m, 6, 6, 3, 100_000 + i,
                               satisfiable_bias=bool(i % 2), wnu=wnu)
            inst, _ = random_instance(params)
            solver = Solver()
            outcome = solver.solve(inst)
            want = brute_force(inst, "decision")
            assert outcome.satisfiable == bool(want), (
                "disagreement on %s seed %d" % (label, params.seed))
            if outcome.satisfiable:
                assert inst.assignment_satisfies(outcome.assignment)
            COLLECTED["reports"].extend(solver.reports)
            for alg in inst.base_algebras:
                if alg.size == 2:
                    COLLECTED["two_element_algebras"].add(alg)
            total += 1
    elapsed = time.time() - start
    assert elapsed < 300, "differential suite took %.1fs" % elapsed
    announce(3, "%d/%d solver-vs-oracle agreements in %.1fs"
             % (total, total, elapsed))


def clone_binary_closure_2(table):
    cells = list(itertools.product(range(2), repeat=2))
    current = {
        tuple(c[0] for c in cells),
        tuple(c[1] for c in cells),
        (0,) * 4,
        (1,) * 4,
    }
    m = table.arity
    while True:
        fresh = set()
        for combo in itertools.product(sorted(current), repeat=m):
            new = tuple(table.apply([t[c] for t in combo]) for c in range(4))
            if new not in current:
                fresh.add(new)
        if not fresh:
            return current
        current |= fresh


def test_criterion_4_certificates_reverify():
    reports = COLLECTED["reports"]
    assert reports, "criterion 3 must run first and emit reports"
    failures = 0
    seen_two_element = set(COLLECTED["two_element_algebras"])
    for alg, report in reports:
        problems = verify_structure_report(alg, report)
        if problems:
            failures += 1
        if alg.size == 2:
            seen_two_element.add(alg)
        if report.kind in ("pc_quotient", "linear_quotient"):
            from wnucsp.algebra import quotient_algebra
            quotient, _ = quotient_algebra(alg, report.congruence)
            if quotient.size == 2:
                seen_two_element.add(quotient)
    assert failures == 0
    # PC decisions on every two-element algebra encountered agree with the
    # brute-force clone closure (all unary and binary tables must appear)
    for alg in seen_two_element:
        closure = clone_binary_closure_2(alg.wnu)
        all_binary = set(itertools.product(range(2), repeat=4))
        brute = closure == all_binary
        assert is_polynomially_complete(alg) == brute
    announce(4, "%d structure reports re-verified, PC cross-checked on %d "
                "two-element algebras" % (len(reports), len(seen_two_element)))


def test_criterion_5_classification_goldens():
    and3 = make_algebra(range(2), conjunction_table(3))
    report = classify_domain(and3)
    assert report.kind == "binary_absorbing"
    assert report.subuniverse == frozenset({0})

    maj = make_algebra(range(2), majority_table())
    report = classify_domain(maj)
    assert report.kind == "center"
    assert report.subuniverse in (frozenset({0}), frozenset({1}))
    assert report.subuniverse == frozenset({0})  # frozen canonical choice

    dd = make_algebra(range(3), dual_discriminator_table())
    report = classify_domain(dd)
    assert report.kind == "pc_quotient"
    assert report.congruence.is_equality

    mino = make_algebra(range(2), minority_table())
    report = classify_domain(mino)
    assert report.kind == "linear_quotient"
    assert report.congruence.is_equality
    announce(5, "and3 -> absorbing {0}; maj -> center {0}; "
                "dd -> PC(equality); minority -> linear(equality)")


def test_criterion_6_np_side_gate(tmp_path):
    from wnucsp.cli import execute_command
    import io
    from contextlib import redirect_stdout

    start = time.time()
    nae = frozenset(
        t for t in itertools.product(range(2), repeat=3) if len(set(t)) > 1)
    found = search_special_wnu(2, [nae], 3)
    assert found.table is None and found.exhausted

    text = ("DOMAIN B 2\nVAR a B\nVAR b B\nVAR c B\n"
            "REL NAE 3 B B B\n0 0 1\n0 1 0\n0 1 1\n1 0 0\n1 0 1\n1 1 0\nEND\n"
            "CON NAE a b c\n")
    path = tmp_path / "nae.csp"
    path.write_text(text)
    out = io.StringIO()
    with redirect_stdout(out):
        code = execute_command(["wnu", str(path), "--arity", "3"])
    assert code == 2 and out.getvalue().strip() == "NONE"
    out = io.StringIO()
    with redirect_stdout(out):
        code = execute_command(["solve", str(path)])
    assert code == 2 and out.getvalue().strip() == "NO-WNU"
    elapsed = time.time() - start
    assert elapsed < 10.0
    announce(6, "NAE-3 exhausts to NONE and solve reports NO-WNU in %.2fs"
             % elapsed)


def test_criterion_7_propagation_properties():
    configs = [
        (2, 3, minority_table()),
        (2, 3, majority_table()),
        (3, 3, dual_discriminator_table()),
        (4, 5, sum_table(4, 5)),
    ]
    checked = 0
    for n, m, wnu in configs:
        for i in range(50):
            params = GenParams(n, m, 5, 5, 3, 200_000 + i,
                               satisfiable_bias=bool(i % 2), wnu=wnu)
            inst, _ = random_instance(params)
            original = inst
            result = enforce_cycle_consistency(inst)
            while result.status == "reduce":
                inst = apply_reduction(inst, result.reduction)
                result = enforce_cycle_consistency(inst)
            solutions = brute_force(original, "all")
            if result.status == "nosolution":
                assert not solutions
                checked += 1
                continue
            # values of solutions survive
            for sol in solutions:
                for idx, v in enumerate(inst.variables):
                    assert sol[v] in inst.current_domains[idx]
            # re-application is the identity
            again = enforce_cycle_consistency(inst)
            assert again.status == "ok"
            assert again.network.pairs == result.network.pairs
            # triangle inclusion at the fixpoint
            net = result.network
            nv = len(inst.variables)
            for i1, j1 in itertools.permutations(range(nv), 2):
                rij = net.get(i1, j1)
                for k in range(nv):
                    if k in (i1, j1):
                        continue
                    rik = net.get(i1, k)
                    rkj = net.get(k, j1)
                    for a, b in rij:
                        assert any((a, c) in rik and (c, b) in rkj
                                   for c in inst.current_domains[k])
            checked += 1
    assert checked == 200
    announce(7, "fixpoint, solution preservation, and triangle inclusion on "
                "%d instances" % checked)


def test_criterion_8_hyperplane_learning():
    start = time.time()
    count = 0
    for p in (2, 3):
        for h in (1, 2, 3):
            space = list(itertools.product(range(p), repeat=h))
            seen_planes = set()
            for coeffs in itertools.product(range(p), repeat=h):
                if not any(coeffs):
                    continue
                for rhs in range(p):
                    plane = frozenset(
                        v for v in space
                        if sum(c * x for c, x in zip(coeffs, v)) % p == rhs)
                    if plane in seen_planes:
                        continue
                    seen_planes.add(plane)
                    out = learn_hyperplane(lambda v: v in plane, p, h)
                    assert out.kind == "equation"
                    got = {
                        v for v in space
                        if sum(c * x for c, x in zip(out.coeffs, v)) % p
                        == out.rhs
                    }
                    assert got == set(plane)
                    assert out.queries <= p * h + 1
                    count += 1
    elapsed = time.time() - start
    assert elapsed < 10.0
    announce(8, "%d hyperplanes recovered exactly within p*h+1 queries "
                "in %.2fs" % (count, elapsed))
