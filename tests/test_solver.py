import itertools
import random
import signal
import time

import pytest

from wnucsp.algebra import (
    dual_discriminator_table,
    majority_table,
    make_algebra,
    minority_table,
    sum_table,
)
from wnucsp.classify import verify_structure_report
from wnucsp.consistency import value_components
from wnucsp.harness import GenParams, brute_force, random_instance
from wnucsp.instance import Constraint, Instance, apply_reduction, weaken_all
from wnucsp.relation import Relation
from wnucsp import solver as solver_module
from wnucsp.solver import Solver, SolverConfig, solve

from conftest import linear_relation


def test_golden_z4_instance(z4_example):
    solver = Solver()
    outcome = solver.solve(z4_example)
    assert outcome.satisfiable
    assert outcome.assignment == {"x1": 1, "x2": 1, "x3": 0, "x4": 1}
    top = [e for e in solver.learned if e.depth == 0]
    assert top, "the golden run must learn an equation"
    first = top[0]
    assert first.names[first.coeffs.index(1)] == "x1#0"
    assert first.coeffs == (1, 0) and first.rhs == 1 and first.prime == 2


def test_empty_relation_unsat(z2min):
    empty = Relation(2, (z2min, z2min), frozenset())
    inst = Instance(("x", "y"), (z2min,) * 2, (frozenset({0, 1}),) * 2,
                    (Constraint(empty, ("x", "y")),))
    assert not solve(inst).satisfiable


def test_unconstrained_variables_get_least(z2min):
    inst = Instance(("x", "y"), (z2min,) * 2, (frozenset({0, 1}),) * 2, ())
    outcome = solve(inst)
    assert outcome.assignment == {"x": 0, "y": 0}


def test_unlinked_equality_components(z2min):
    eq = Relation(2, (z2min, z2min), {(0, 0), (1, 1)})
    inst = Instance(("x", "y"), (z2min,) * 2, (frozenset({0, 1}),) * 2,
                    (Constraint(eq, ("x", "y")),))
    outcome = solve(inst)
    assert outcome.satisfiable
    assert outcome.assignment == {"x": 0, "y": 0}  # first component wins


def test_unlinked_only_second_component_satisfiable(z2min):
    eq = Relation(2, (z2min, z2min), {(0, 0), (1, 1)})
    pin = Relation(1, (z2min,), {(1,)})
    inst = Instance(("x", "y"), (z2min,) * 2, (frozenset({0, 1}),) * 2, (
        Constraint(eq, ("x", "y")),
        Constraint(pin, ("x",)),
    ))
    outcome = solve(inst)
    assert outcome.assignment == {"x": 1, "y": 1}


def test_all_components_unsat(z2min):
    eq = Relation(2, (z2min, z2min), {(0, 0), (1, 1)})
    ne = Relation(2, (z2min, z2min), {(0, 1), (1, 0)})
    inst = Instance(("x", "y"), (z2min,) * 2, (frozenset({0, 1}),) * 2, (
        Constraint(eq, ("x", "y")),
        Constraint(ne, ("x", "y")),
    ))
    assert not solve(inst).satisfiable


def test_fragmented_instances_merge(z2min, maj2):
    eq = Relation(2, (z2min, z2min), {(0, 0), (1, 1)})
    pin = Relation(1, (z2min,), {(1,)})
    inst = Instance(
        ("a", "b", "c"),
        (z2min,) * 3,
        (frozenset({0, 1}),) * 3,
        (Constraint(eq, ("a", "b")), Constraint(pin, ("c",))),
    )
    outcome = solve(inst)
    assert outcome.assignment == {"a": 0, "b": 0, "c": 1}


def test_free_variable_takes_least_value_without_a_sub_instance(z2min, dd3):
    eq = Relation(2, (z2min, z2min), {(0, 0), (1, 1)})
    inst = Instance(("a", "b", "z"), (z2min, z2min, dd3),
                    (frozenset({0, 1}),) * 2 + (frozenset({1, 2}),),
                    (Constraint(eq, ("a", "b")),))
    solver = Solver()
    outcome = solver.solve(inst)
    assert outcome.assignment == {"a": 0, "b": 0, "z": 1}
    # memo keys start with the instance's variables
    assert ("a", "b") in {key[0] for key in solver.memo}
    assert all(key[0] != ("z",) for key in solver.memo)


def test_step3_solves_no_pinned_instance_of_an_empty_weakening(z2min,
                                                               monkeypatch):
    # the only constraint weaker than equality on Z2 is the full relation,
    # so the weakened instance has no constraint
    eq = Relation(2, (z2min, z2min), {(0, 0), (1, 1)})
    inst = Instance(("x", "y"), (z2min,) * 2, (frozenset({0, 1}),) * 2,
                    (Constraint(eq, ("x", "y")),))
    assert weaken_all(inst).constraints == ()
    pinned = []
    original = Solver._solve

    def recording(self, sub, depth, t3):
        pinned.append(sub)
        return original(self, sub, depth, t3)

    monkeypatch.setattr(Solver, "_solve", recording)
    assert Solver()._step3(inst, 0, 0) is None
    assert pinned == []


def reference_step3(solver, inst):
    """Step 3 with one pinned sub-solve per (variable, value) and no
    witnesses: None, "unsat" or (var, good)."""

    weakened = weaken_all(inst)
    if not weakened.constraints:
        return None
    for var, dom in zip(inst.variables, inst.current_domains):
        good = frozenset(
            b for b in sorted(dom)
            if solver._solve(apply_reduction(weakened, {var: {b}}), 1, 1)[0])
        if not good:
            return "unsat"
        if good != dom:
            return var, good
    return None


def _counting_solve(monkeypatch):
    """Count every ``Solver._solve`` call; returns the list of (instance,
    depth) it appends to."""

    calls = []
    original = Solver._solve

    def counting(self, sub, depth, t3):
        calls.append((sub, depth))
        return original(self, sub, depth, t3)

    monkeypatch.setattr(Solver, "_solve", counting)
    return calls


def test_step3_matches_the_per_value_loop(solver_instances, monkeypatch):
    """On every instance the solver is called on, Step 3 with witnesses
    gives the per-value loop's answer with no more ``_solve`` calls, each
    side with a fresh memo."""

    calls = _counting_solve(monkeypatch)
    answers = set()
    saved = 0
    for inst in solver_instances:
        calls.clear()
        got = Solver()._step3(inst, 0, 0)
        used = len(calls)
        calls.clear()
        assert got == reference_step3(Solver(), inst)
        assert used <= len(calls)
        saved += len(calls) - used
        answers.add(got if got in (None, "unsat") else "reduce")
    assert answers == {None, "unsat", "reduce"}
    assert saved


def test_step3_witness_covers_every_later_variable(z2min, monkeypatch):
    # x = y = z over Z2: the weakening keeps the three binary equalities,
    # whose solutions 000 and 111 witness every value of y and z
    eq3 = Relation(3, (z2min,) * 3, {(0, 0, 0), (1, 1, 1)})
    inst = Instance(("x", "y", "z"), (z2min,) * 3, (frozenset({0, 1}),) * 3,
                    (Constraint(eq3, ("x", "y", "z")),))
    assert {c.scope for c in weaken_all(inst).constraints} == {
        ("x", "y"), ("x", "z"), ("y", "z")}
    calls = _counting_solve(monkeypatch)
    assert Solver()._step3(inst, 0, 0) is None
    pinned = [sub for sub, depth in calls if depth == 1]
    assert [sub.current_domains for sub in pinned] == [
        (frozenset({0}), frozenset({0, 1}), frozenset({0, 1})),
        (frozenset({1}), frozenset({0, 1}), frozenset({0, 1}))]


# (seed, variable, good values) of planted Z4 sum-of-5 instances with 6
# variables and 6 constraints on which Step 3 shrinks a domain, found by a
# search over seeds; the variable and values are those of the first such
# Step 3 answer in the solve
STEP3_REDUCING_SEEDS = (
    (206, "x1", {0, 2}),
    (630, "x4", {1, 3}),
    (1346, "x5", {1, 3}),
    (100_075, "x1", {1, 3}),
)


@pytest.mark.parametrize("seed,var,good", STEP3_REDUCING_SEEDS)
def test_step3_reduces_a_domain_on_seeded_instances(z4, seed, var, good,
                                                    monkeypatch):
    """The verdict matches brute force, and every Step 3 answer of the
    solve matches the per-value loop; one of them shrinks a domain."""

    answers = []
    original = Solver._step3

    def recording(self, inst, depth, t3):
        got = original(self, inst, depth, t3)
        answers.append((inst, got))
        return got

    monkeypatch.setattr(Solver, "_step3", recording)
    params = GenParams(4, 5, 6, 6, 3, seed, satisfiable_bias=True,
                       wnu=sum_table(4, 5))
    inst, _ = random_instance(params)
    outcome = Solver().solve(inst)
    assert outcome.satisfiable == (brute_force(inst) is not None)
    reductions = [got for _, got in answers
                  if got is not None and got != "unsat"]
    assert reductions[0] == (var, frozenset(good))
    monkeypatch.setattr(Solver, "_step3", original)
    for sub, got in answers:
        assert got == reference_step3(Solver(), sub)


def test_trace_off_records_nothing(z4_example, monkeypatch):
    def no_event(*args, **kwargs):
        pytest.fail("an event was emitted with tracing off")

    monkeypatch.setattr(Solver, "_emit", no_event)
    monkeypatch.setattr(solver_module, "TraceEvent", no_event)
    solver = Solver(SolverConfig())
    assert solver.solve(z4_example).satisfiable
    assert not hasattr(solver, "trace")


def test_trace_events_of_a_propagation_solve(z2min):
    # Step 1 reduces all three variables at once, then every domain is a
    # singleton; a second instance empties a pair
    zero = Relation(2, (z2min, z2min), {(0, 0)})
    neq = Relation(2, (z2min, z2min), {(0, 1), (1, 0)})
    inst = Instance(("x", "y", "z"), (z2min,) * 3, (frozenset({0, 1}),) * 3,
                    (Constraint(zero, ("x", "y")),
                     Constraint(neq, ("y", "z"))))
    sunk = []
    solver = Solver(SolverConfig(trace_sink=sunk.append))
    assert solver.solve(inst).assignment == {"x": 0, "y": 0, "z": 1}
    assert sunk == [solver_module.TraceEvent(
        "1", "reduce x to [0], y to [0], z to [1]", 0, 0)]


def components_linked_reference(inst, comps):
    """Whether the values of every constrained variable lie in one of
    ``comps``, the linked components of ``inst``."""

    constrained = {v for c in inst.constraints for v in c.scope}
    component = {node: ci for ci, comp in enumerate(comps) for node in comp}
    return all(len({component[(v, a)] for a in inst.domain(v)}) == 1
               for v in constrained)


def test_one_component_is_linked_where_the_solver_asks(linked_checks):
    unlinked = 0
    for inst in linked_checks:
        comps = value_components(inst)
        linked = components_linked_reference(inst, comps)
        assert (len(comps) == 1) == linked
        unlinked += not linked
    assert 0 < unlinked < len(linked_checks)


def test_solution_postcheck_holds_on_random(z4, dd3):
    rng = random.Random(77)
    for alg, arity in ((z4, 5), (dd3, 3)):
        for i in range(30):
            params = GenParams(alg.size, arity, 4, 4, 3, 5000 + i,
                               satisfiable_bias=bool(i % 2), wnu=alg.wnu)
            inst, _ = random_instance(params)
            outcome = solve(inst)
            want = brute_force(inst, "decision")
            assert outcome.satisfiable == bool(want)
            if outcome.satisfiable:
                assert inst.assignment_satisfies(outcome.assignment)


def test_unique_linear_solution_path(z2min):
    # pin both variables through equations: x = 1, x = y
    pin = Relation(1, (z2min,), {(1,)})
    eq = Relation(2, (z2min, z2min), {(0, 0), (1, 1)})
    inst = Instance(("x", "y"), (z2min,) * 2, (frozenset({0, 1}),) * 2, (
        Constraint(pin, ("x",)),
        Constraint(eq, ("x", "y")),
    ))
    outcome = solve(inst)
    assert outcome.assignment == {"x": 1, "y": 1}


def parity_relation(z4, positions, rhs, arity=3):
    """Ternary mod-2 parity constraint over Z4; pair projections are full,
    so propagation alone cannot see the contradiction structure."""

    tuples = {
        t for t in itertools.product(range(4), repeat=arity)
        if sum(t[i] for i in positions) % 2 == rhs
    }
    return Relation(arity, (z4,) * arity, tuples)


def test_linear_phase_inconsistent_system(z4):
    """Two parity constraints demanding opposite sums make the factorized
    system inconsistent; the linear phase reports no solution."""

    r0 = parity_relation(z4, (0, 1, 2), 0)
    r1 = parity_relation(z4, (0, 1, 2), 1)
    inst = Instance(("x", "y", "z"), (z4,) * 3, (frozenset(range(4)),) * 3, (
        Constraint(r0, ("x", "y", "z")),
        Constraint(r1, ("x", "y", "z")),
    ))
    solver = Solver()
    ok, assignment = solver._linear_phase(inst, 0, 0)
    assert not ok and assignment is None
    # the full pipeline agrees (the weakened-instance check catches it first)
    assert not solve(inst).satisfiable
    assert brute_force(inst, "decision") is None


def test_linear_phase_unique_solution_lifts(z4):
    """Four ternary parity constraints pin every mod-2 class, driving the
    unique-solution branch and one all-domain class reduction."""

    vs = ("x", "y", "z", "w")
    constraints = (
        Constraint(parity_relation(z4, (0, 1, 2), 0), ("x", "y", "z")),
        Constraint(parity_relation(z4, (0, 1, 2), 0), ("x", "y", "w")),
        Constraint(parity_relation(z4, (0, 1, 2), 1), ("y", "z", "w")),
        Constraint(parity_relation(z4, (0, 1, 2), 1), ("x", "z", "w")),
    )
    inst = Instance(vs, (z4,) * 4, (frozenset(range(4)),) * 4, constraints)
    events = []
    outcome = Solver(SolverConfig(trace_sink=events.append)).solve(inst)
    assert outcome.satisfiable
    sol = outcome.assignment
    assert sol["x"] % 2 == 1 and sol["y"] % 2 == 1
    assert sol["z"] % 2 == 0 and sol["w"] % 2 == 0
    assert any(ev.step == "8" and "unique" in ev.detail for ev in events)
    assert brute_force(inst, "decision") is not None


def test_trace_and_reports_collected(z4_example):
    events = []
    solver = Solver(SolverConfig(trace_sink=events.append))
    outcome = solver.solve(z4_example)
    assert outcome.satisfiable
    assert events, "tracing must record events"
    steps = {ev.step for ev in events}
    assert {"7", "8"} <= steps
    assert solver.reports
    for alg, report in solver.reports:
        assert verify_structure_report(alg, report) == []


def test_majority_two_sat_style(maj2):
    # (x or y) and (not x or y) and (not y or x) over majority
    orr = Relation(2, (maj2, maj2), {(0, 1), (1, 0), (1, 1)})
    imp = Relation(2, (maj2, maj2), {(0, 0), (0, 1), (1, 1)})
    inst = Instance(("x", "y"), (maj2,) * 2, (frozenset({0, 1}),) * 2, (
        Constraint(orr, ("x", "y")),
        Constraint(imp, ("x", "y")),
        Constraint(imp, ("y", "x")),
    ))
    outcome = solve(inst)
    assert outcome.satisfiable
    assert outcome.assignment == {"x": 1, "y": 1}
    assert brute_force(inst, "decision") is not None


def test_solver_memo_reused_across_points(z4_example):
    solver = Solver()
    solver.solve(z4_example)
    memo_size = len(solver.memo)
    assert memo_size > 1
    # solving again is a pure cache hit
    again = solver.solve(z4_example)
    assert again.satisfiable and len(solver.memo) == memo_size


def test_step12_prefix_learning_unit():
    """Whitebox: the prefix scan learns the first failing prefix's
    single-block hyperplane; mixed moduli keep blocks separate."""

    from wnucsp.linsolve import Equation, LinearSystem, solve_linear_system

    sv = (("a", 2), ("b", 2), ("c", 3))
    param = solve_linear_system(LinearSystem(sv, ())).param
    solver = Solver()

    # good points: a = 1 (failure already visible at prefix length 1)
    pts = {p for p in param.points() if p[0] == 1}
    eq = solver._learn_step12(param, pts, 0, 0)
    assert eq.prime == 2 and eq.rhs == 1
    assert eq.coeffs == (1, 0, 0)

    # good points: a + b = 1 (failure first visible at prefix length 2)
    pts = {p for p in param.points() if (p[0] + p[1]) % 2 == 1}
    eq = solver._learn_step12(param, pts, 0, 0)
    assert eq.prime == 2 and eq.rhs == 1
    assert eq.coeffs == (1, 1, 0)

    # good points: c = 2 in the Z3 block
    pts = {p for p in param.points() if p[2] == 2}
    eq = solver._learn_step12(param, pts, 0, 0)
    assert eq.prime == 3 and eq.rhs == 2
    assert eq.coeffs == (0, 0, 1)

    # a genuinely non-affine good set trips the structure tripwire
    from wnucsp.errors import AffineStructureViolation
    pts = {(0, 0, 0), (1, 1, 1), (1, 0, 2)}
    with pytest.raises(AffineStructureViolation):
        solver._learn_step12(param, pts, 0, 0)


def test_step13_event_carries_the_type3_depth():
    from wnucsp.linsolve import LinearSystem, solve_linear_system

    sv = (("a", 2), ("b", 2), ("c", 3))
    param = solve_linear_system(LinearSystem(sv, ())).param
    events = []
    solver = Solver(SolverConfig(trace_sink=events.append))
    # good points: c = 1, found in the Z3 block after the Z2 block fails
    pts = {p for p in param.points() if p[2] == 1}
    eq = solver._learn_step13(param, pts, 1, 2)
    assert (eq.coeffs, eq.rhs, eq.prime) == ((0, 0, 1), 1, 3)
    assert events == [solver_module.TraceEvent(
        "13", "learned equation in block p=3", 1, 2)]
    assert solver.learned[-1].depth == 1


def test_six_element_mixed_prime_domain():
    """Z6 under sum-of-seven factors into Z2 x Z3; classification and a
    differential batch work with the center cap raised to |A| - 1."""

    from wnucsp.algebra import (
        linear_structure, sum_table, make_algebra, verify_linear_iso)
    from wnucsp.classify import classify_domain, con_lin

    z6 = make_algebra(range(6), sum_table(6, 7))
    iso = linear_structure(z6)
    assert iso is not None and iso.primes == (2, 3)
    assert verify_linear_iso(z6, iso)
    assert con_lin(z6).congruence.is_equality
    assert classify_domain(z6, arity_cap=5).kind == "linear_quotient"

    cfg = SolverConfig(center_arity_cap=5)
    for i in range(15):
        params = GenParams(6, 7, 3, 3, 2, 400_000 + i,
                           satisfiable_bias=bool(i % 2), wnu=z6.wnu)
        inst, _ = random_instance(params)
        outcome = Solver(cfg).solve(inst)
        assert outcome.satisfiable == bool(brute_force(inst, "decision"))


def _odd_parity_instance(z2min):
    """x + y + z = 1 over Z2: it survives propagation and reaches the
    weakened-instance checks."""

    odd = Relation(3, (z2min,) * 3, {
        t for t in itertools.product(range(2), repeat=3) if sum(t) % 2 == 1})
    return Instance(("x", "y", "z"), (z2min,) * 3, (frozenset({0, 1}),) * 3,
                    (Constraint(odd, ("x", "y", "z")),))


def test_type3_descent_guard(z2min, monkeypatch):
    # the weakened-instance checks must respect the type-3 depth cap
    inst = _odd_parity_instance(z2min)
    from wnucsp.errors import InternalError
    with monkeypatch.context() as patch:
        patch.setattr(solver_module, "MAX_TYPE3_DEPTH", 0)
        with pytest.raises(InternalError):
            Solver().solve(inst)
    assert solve(inst).satisfiable  # the default cap handles it


def test_type3_descent_guard_rejects_a_weakening_that_is_not_below(
        z2min, monkeypatch):
    # a "weakening" that hands back the parent constraint itself is not
    # strictly below it, and the descent check must refuse it
    inst = _odd_parity_instance(z2min)
    from wnucsp.errors import InternalError
    with monkeypatch.context() as patch:
        patch.setattr(solver_module, "weaken_all", lambda inst: inst)
        with pytest.raises(InternalError, match="weakened constraint is not "
                                                "strictly below any parent"):
            Solver().solve(inst)


class _WallBound(BaseException):
    pass


def _raise_wall_bound(signum, frame):
    raise _WallBound()


def test_searched_four_element_seed_7029_within_wall_bound():
    # weakening through the full superset lattice of every projection runs
    # for minutes on this instance; the minimal weaker constraints take ~1 s
    params = GenParams(4, 3, 5, 5, 3, 7029, satisfiable_bias=True)
    inst, _ = random_instance(params)
    previous = signal.signal(signal.SIGALRM, _raise_wall_bound)
    signal.setitimer(signal.ITIMER_REAL, 10.0)
    start = time.perf_counter()
    try:
        outcome = Solver(SolverConfig(center_arity_cap=3)).solve(inst)
    except _WallBound:
        pytest.fail("solve exceeded the 10 s wall bound")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.perf_counter() - start < 10.0
    assert outcome.satisfiable == (brute_force(inst, "decision") is not None)


def test_z6_sum_of_seven_file_seed_100013_within_wall_bound():
    # quotients, symmetry checks and table comparisons over the 6^7-entry
    # table used to take minutes on this planted file
    from wnucsp.fileformat import parse_instance, serialize_instance

    params = GenParams(6, 7, 6, 6, 3, 100013, satisfiable_bias=True,
                       wnu=sum_table(6, 7))
    original, _ = random_instance(params)
    assert len(original.variables) == 6 and len(original.constraints) == 6
    inst = parse_instance(serialize_instance(original))
    previous = signal.signal(signal.SIGALRM, _raise_wall_bound)
    signal.setitimer(signal.ITIMER_REAL, 10.0)
    try:
        outcome = Solver(SolverConfig(center_arity_cap=5)).solve(inst)
    except _WallBound:
        pytest.fail("solve exceeded the 10 s wall bound")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert outcome.satisfiable
    assert inst.assignment_satisfies(outcome.assignment)


@pytest.mark.parametrize("seed", [100013, 100017, 100021, 100027])
def test_default_center_cap_decides_z6_sum_of_seven(seed):
    # an affine domain has no center at any cap, so the library default
    # decides these as the complete search at cap 5 does
    params = GenParams(6, 7, 6, 6, 3, seed, satisfiable_bias=seed % 2 == 1,
                       wnu=sum_table(6, 7))
    inst, _ = random_instance(params)
    default, capped = Solver(), Solver(SolverConfig(center_arity_cap=5))
    got, want = default.solve(inst), capped.solve(inst)
    assert got.satisfiable and got == want
    assert list(got.assignment) == list(want.assignment)
    assert default.reports == capped.reports


def test_z4_sum_of_five_seed_100016_large_parameter_space_sat():
    # the system over 24 variables has more parameter points than the cap,
    # but the zero point solves it, so no point is enumerated
    params = GenParams(4, 5, 24, 24, 3, 100016, satisfiable_bias=True,
                       wnu=sum_table(4, 5))
    inst, _ = random_instance(params)
    outcome = Solver(SolverConfig(center_arity_cap=3)).solve(inst)
    assert outcome.satisfiable
    assert inst.assignment_satisfies(outcome.assignment)
