import dataclasses
import hashlib
import importlib.util
import itertools
import random
import signal
import sys
import time
from pathlib import Path

import pytest

from wnucsp.algebra import (
    conjunction_table,
    dual_discriminator_table,
    majority_table,
    make_algebra,
    minority_table,
    sum_table,
)
from wnucsp.classify import verify_structure_report
from wnucsp import consistency as consistency_module
from wnucsp.consistency import (
    PropagationResult,
    enforce_cycle_consistency,
    value_components,
    witness_cover,
)
from wnucsp.errors import ConfigError, CspError
from wnucsp.fileformat import parse_instance
from wnucsp.harness import GenParams, brute_force, random_instance
from wnucsp import instance as instance_module
from wnucsp.instance import (
    Constraint,
    Instance,
    apply_reduction,
    fragment_variable_sets,
    weaken_all,
)
from wnucsp.relation import Relation
from wnucsp import solver as solver_module
from wnucsp.solver import Solver, SolverConfig, solve

from conftest import (
    linear_relation,
    planted_z4_system,
    solver_fixture_params,
)
import reference_solver


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
    """x = y and x != y on one pair: Step 1 empties the pair at depth 0, so
    no component is solved; ``test_every_linked_component_unsat`` covers
    the case where every linked component is reached and fails."""

    eq = Relation(2, (z2min, z2min), {(0, 0), (1, 1)})
    ne = Relation(2, (z2min, z2min), {(0, 1), (1, 0)})
    inst = Instance(("x", "y"), (z2min,) * 2, (frozenset({0, 1}),) * 2, (
        Constraint(eq, ("x", "y")),
        Constraint(ne, ("x", "y")),
    ))
    assert not solve(inst).satisfiable


def _relation(coords, holds):
    return Relation(len(coords), coords, {
        t for t in itertools.product(*(a.elements for a in coords))
        if holds(*t)})


def _top_level_results(monkeypatch, method):
    """Record what the Solver method ``method`` returns at depth 0, which
    is the method's next-to-last argument."""

    results = []
    original = getattr(Solver, method)

    def recording(self, *args):
        out = original(self, *args)
        if args[-2] == 0:
            results.append(out)
        return out

    monkeypatch.setattr(Solver, method, recording)
    return results


def test_every_linked_component_unsat(z4, monkeypatch):
    """Same-parity sums over Z4 split the values into the even and the odd
    component, and each component's halves contradict: x1 + x2 + x3 + x4
    and x1 + x2 + x3 + x5 are both 0 mod 4, yet x5 = x4 + 2.  Every pair
    projection is a parity equality or its shift by 2, so Step 1 passes.
    Built by hand: ``harness.random_instance`` makes no such instance."""

    def same_parity_sum_zero(*t):
        return len({v % 2 for v in t}) == 1 and sum(t) % 4 == 0

    quad = _relation((z4,) * 4, same_parity_sum_zero)
    shift = _relation((z4,) * 2, lambda a, b: b == (a + 2) % 4)
    inst = Instance(("x1", "x2", "x3", "x4", "x5"), (z4,) * 5,
                    (frozenset(range(4)),) * 5, (
                        Constraint(quad, ("x1", "x2", "x3", "x4")),
                        Constraint(quad, ("x1", "x2", "x3", "x5")),
                        Constraint(shift, ("x4", "x5"))))
    results = _top_level_results(monkeypatch, "_solve_unlinked")
    assert not solve(inst).satisfiable
    assert results == [(False, None)]
    assert brute_force(inst, "decision") is None


def test_step3_finds_no_solution(z2min, monkeypatch):
    """Two XOR pairs over Z2 whose sums contradict: the first makes
    a + b + d + e = 0, the second asks 1.  Every pair projection is full,
    so Steps 1 and 2 pass, and each constraint is the meet of its weaker
    constraints, so the weakened instance has no solution either."""

    first = _relation((z2min,) * 5, lambda a, b, c, d, e:
                      (a + b + c) % 2 == 0 and (c + d + e) % 2 == 0)
    second = _relation((z2min,) * 5, lambda a, b, c, d, e:
                       (a + b + d + e) % 2 == 1 and (a + c + e) % 2 == 0)
    inst = Instance(tuple("abcde"), (z2min,) * 5, (frozenset({0, 1}),) * 5,
                    (Constraint(first, tuple("abcde")),
                     Constraint(second, tuple("abcde"))))
    results = _top_level_results(monkeypatch, "_step3")
    assert not solve(inst).satisfiable
    assert results == [PropagationResult("nosolution")]
    assert brute_force(inst, "decision") is None


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


def test_fragments_carry_their_partition(solver_instances):
    """A fragment the solver splits off is one connected component that
    keeps every constraint on its variables, so the partition preset on
    its shape is what ``fragment_variable_sets`` computes for a copy with
    a shape of its own."""

    preset = 0
    for inst in solver_instances:
        copy = instance_module._derived(
            inst, inst.variables, inst.base_algebras, inst.current_domains,
            tuple(list(inst.constraints)))
        assert copy.shape() is not inst.shape()
        assert fragment_variable_sets(inst) == fragment_variable_sets(copy)
        # a preset partition holds the fragment's own variables tuple
        preset += inst.shape().fragments[0] is inst.variables
    assert preset > 0


def test_free_variable_takes_least_value_without_a_sub_instance(
        z2min, dd3, monkeypatch):
    eq = Relation(2, (z2min, z2min), {(0, 0), (1, 1)})
    inst = Instance(("a", "b", "z"), (z2min, z2min, dd3),
                    (frozenset({0, 1}),) * 2 + (frozenset({1, 2}),),
                    (Constraint(eq, ("a", "b")),))
    calls = _counting_solve(monkeypatch)
    outcome = Solver().solve(inst)
    assert outcome.assignment == {"a": 0, "b": 0, "z": 1}
    solved = {sub.variables for sub, _ in calls}
    assert ("a", "b") in solved
    assert ("z",) not in solved


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
    witnesses: None, or the PropagationResult of the step."""

    weakened = weaken_all(inst)
    if not weakened.constraints:
        return None
    for var, dom in zip(inst.variables, inst.current_domains):
        good = frozenset(
            b for b in sorted(dom)
            if solver._solve(apply_reduction(weakened, {var: {b}}), 1, 1)[0])
        if not good:
            return PropagationResult("nosolution")
        if good != dom:
            return PropagationResult("reduce", reduction={var: good})
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
        answers.add(got and got.status)
    assert answers == {None, "nosolution", "reduce"}
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
    reductions = [got.reduction for _, got in answers
                  if got is not None and got.status == "reduce"]
    assert reductions[0] == {var: frozenset(good)}
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


def _traced(inst):
    """The (step, detail, depth, type-3 depth) of every event of a solve."""

    sunk = []
    Solver(SolverConfig(trace_sink=sunk.append)).solve(inst)
    return [(ev.step, ev.detail, ev.depth, ev.type3_depth) for ev in sunk]


def test_trace_events_of_each_reduction(z2min, maj2, and3, dd3):
    """The exact events of small solves, one for each way Steps 1-6 end
    other than passing on, besides Step 1's reduction (above) and Steps 2
    and 3's (below)."""

    eq = Relation(2, (z2min, z2min), {(0, 0), (1, 1)})
    neq = Relation(2, (z2min, z2min), {(0, 1), (1, 0)})
    binary = (frozenset({0, 1}),) * 2
    # x = y and x != y: Step 1 empties the pair, so the solve is unsat
    clash = Instance(("x", "y"), (z2min,) * 2, binary, (
        Constraint(eq, ("x", "y")), Constraint(neq, ("x", "y"))))
    assert _traced(clash) == [("1", "propagation emptied a pair", 0, 0)]
    assert not solve(clash).satisfiable
    # x = y alone: two linked components, the first one solves
    assert _traced(Instance(("x", "y"), (z2min,) * 2, binary,
                            (Constraint(eq, ("x", "y")),))) == [
        ("2", "2 linked components", 0, 0)]
    # x <= y with y = 1 leaves x free: the binary-absorbing {0} under the
    # conjunction, then the center {0} under majority (least of the order)
    for alg, step, detail in ((and3, "4", "absorb x into [0]"),
                              (maj2, "5", "center x to [0]")):
        le = Relation(2, (alg, alg), {(0, 0), (0, 1), (1, 1)})
        pin1 = Relation(1, (alg,), {(1,)})
        assert _traced(Instance(("x", "y"), (alg,) * 2, binary, (
            Constraint(le, ("x", "y")), Constraint(pin1, ("y",))))) == [
            ("1", "reduce y to [1]", 0, 0), (step, detail, 0, 0)]
    # the dual discriminator on 3 elements is polynomially complete, so
    # its PC class of 0 is {0}
    full = Relation(2, (dd3, dd3), set(itertools.product(range(3), repeat=2)))
    pin0 = Relation(1, (dd3,), {(0,)})
    ternary = (frozenset(range(3)),) * 2
    assert _traced(Instance(("x", "y"), (dd3,) * 2, ternary, (
        Constraint(full, ("x", "y")), Constraint(pin0, ("y",))))) == [
        ("1", "reduce y to [0]", 0, 0), ("6", "PC class x to [0]", 0, 0)]


def test_trace_events_of_a_step3_reduction(z4, monkeypatch):
    """The first Step 3 reduction of ``STEP3_REDUCING_SEEDS``, among the
    95 events of its solve with no witness budget, where every round runs
    the exact Steps 2 and 3.  At the default budget the witnesses skip
    sub-solves, and the events at depth 0 stay the same."""

    params = GenParams(4, 5, 6, 6, 3, 206, satisfiable_bias=True,
                       wnu=sum_table(4, 5))
    inst = random_instance(params)[0]
    default = _traced(inst)
    monkeypatch.setattr(consistency_module, "WITNESS_NODES", 0)
    events = _traced(inst)
    assert len(events) == 95
    assert [ev for ev in events if ev[0] == "3"] == [
        ("3", "reduce x1 to [0, 2]", 1, 0)]
    assert [ev for ev in default if ev[2] == 0] == [
        ev for ev in events if ev[2] == 0]


def _answers(instances):
    """Per instance: the outcome, its assignment's variable order, the
    learned equations and the depth-0 trace events of a fresh solve."""

    out = []
    for inst in instances:
        sunk = []
        solver = Solver(SolverConfig(trace_sink=sunk.append))
        outcome = solver.solve(inst)
        out.append((outcome, list(outcome.assignment or ()), solver.learned,
                    [ev for ev in sunk if ev.depth == 0]))
    return out


def test_witnesses_change_no_answer(monkeypatch):
    """The fixture families solved at the default witness budget and with
    none, which runs the exact Steps 2 and 3 in every round, give the same
    outcomes, assignments, learned equations and depth-0 trace; the
    witnesses save sub-solves."""

    instances = [random_instance(params)[0]
                 for params in solver_fixture_params()]
    calls = _counting_solve(monkeypatch)
    default = _answers(instances)
    used = len(calls)
    calls.clear()
    monkeypatch.setattr(consistency_module, "WITNESS_NODES", 0)
    assert _answers(instances) == default
    assert used < len(calls)
    assert {outcome.kind for outcome, _, _, _ in default} == {"sat", "unsat"}


def test_no_witness_budget_takes_the_exact_steps_over_a_full_pool(
        z2min, monkeypatch):
    """With no witness budget the solver runs the exact Steps 2 and 3 at
    the root although the shape's pool holds solutions through every
    value; with a budget of one node, too small for a search of its own,
    the pool alone lets the root skip both."""

    full = Relation(2, (z2min, z2min), set(itertools.product(range(2),
                                                             repeat=2)))
    inst = Instance(("x", "y"), (z2min,) * 2, (frozenset({0, 1}),) * 2,
                    (Constraint(full, ("x", "y")),))
    exact = []
    step2 = solver_module.check_irreducibility
    step3 = Solver._step3

    def recording_step2(sub, callback):
        exact.append(("2", sub is inst))
        return step2(sub, callback)

    def recording_step3(self, sub, depth, t3):
        exact.append(("3", sub is inst))
        return step3(self, sub, depth, t3)

    monkeypatch.setattr(solver_module, "check_irreducibility",
                        recording_step2)
    monkeypatch.setattr(Solver, "_step3", recording_step3)
    for budget, root_steps in ((0, [("2", True), ("3", True)]), (1, [])):
        network = enforce_cycle_consistency(inst).network
        assert witness_cover(inst, network, inst.shape().witnesses)
        exact.clear()
        with monkeypatch.context() as patch:
            patch.setattr(consistency_module, "WITNESS_NODES", budget)
            assert Solver().solve(inst).satisfiable
        assert [step for step in exact if step[1]] == root_steps


def _step2_instance(z4, *extra):
    """x, y and z over Z4 with x = y and y = z mod 2 and x + y + z odd, and
    the constraints ``extra``.  Every pair projection of the ternary
    constraint is full, so Step 1 passes.  When x is even so are y and z,
    and their sum is even: only the odd class of x has a solution."""

    same = parity_relation(z4, (0, 1), 0, arity=2)
    return Instance(("x", "y", "z"), (z4,) * 3, (frozenset(range(4)),) * 3, (
        Constraint(same, ("x", "y")),
        Constraint(same, ("y", "z")),
        Constraint(parity_relation(z4, (0, 1, 2), 1), ("x", "y", "z")),
    ) + extra)


def test_step2_reduces_through_the_solver(z4):
    """Step 2 is the first step to act at depth 0: pinning x to an even
    value leaves a projection with no solution."""

    inst = _step2_instance(z4)
    assert [ev for ev in _traced(inst) if ev[2] == 0][0] == \
        ("2", "reduce x to [1, 3]", 0, 0)
    assert solve(inst).assignment == {"x": 1, "y": 1, "z": 1}
    assert brute_force(inst, "decision") is not None


def test_step2_finds_no_solution_through_the_solver(z4):
    """The same instance with x + z + y even as well: no class of x has a
    solution of its projection."""

    inst = _step2_instance(z4, Constraint(
        parity_relation(z4, (0, 1, 2), 0), ("x", "z", "y")))
    assert [ev for ev in _traced(inst) if ev[2] == 0] == [
        ("2", "projection solution set empty", 0, 0)]
    assert not solve(inst).satisfiable
    assert brute_force(inst, "decision") is None


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


def test_step13_finds_no_equation_through_the_solver(z4, monkeypatch):
    """A Z4 system whose crucial instance is linked and solvable at no
    parameter point: Step 13 finds no equation at depth 0, at the default
    witness budget and with none, and the solve is unsat."""

    equations = (
        (("x3", "x0", "x5"), (1, 3, 1), 0),
        (("x4", "x0", "x6"), (1, 1, 3), 3),
        (("x4", "x1", "x5"), (3, 3, 2), 2),
        (("x6", "x3", "x2"), (2, 1, 2), 3),
        (("x7", "x3"), (2, 2), 0),
        (("x2", "x0", "x7"), (3, 2, 1), 1),
        (("x3", "x5"), (3, 3), 3),
        (("x4", "x6", "x5"), (3, 3, 1), 2),
    )
    vs = tuple("x%d" % i for i in range(8))
    inst = Instance(vs, (z4,) * 8, (frozenset(range(4)),) * 8, tuple(
        Constraint(linear_relation(z4, coeffs, rhs), scope)
        for scope, coeffs, rhs in equations))
    for budget in (2000, 0):
        monkeypatch.setattr(consistency_module, "WITNESS_NODES", budget)
        assert ("13", "no equation exists", 0, 0) in _traced(inst)
        assert solve(inst).kind == "unsat"
    assert brute_force(inst, "decision") is None


def test_step5_capped_center_search_raises_config_error():
    """The dual discriminator on 4 elements has no center, which a search
    capped at arity 2 cannot show, so Step 5 refuses to pass the domain on;
    at cap 3 the search is complete and Step 6 reduces both variables."""

    dd4 = make_algebra(range(4), dual_discriminator_table(4))
    full = Relation(2, (dd4, dd4), set(itertools.product(range(4), repeat=2)))
    inst = Instance(("x", "y"), (dd4,) * 2, (frozenset(range(4)),) * 2,
                    (Constraint(full, ("x", "y")),))
    with pytest.raises(ConfigError, match="center search capped but later "
                                          "steps require completeness"):
        Solver(SolverConfig(center_arity_cap=2)).solve(inst)
    sunk = []
    outcome = Solver(SolverConfig(center_arity_cap=3,
                                  trace_sink=sunk.append)).solve(inst)
    assert outcome.kind == "sat"
    assert [ev.step for ev in sunk] == ["6", "6"]


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
    # solving again repeats only the unkeyed calls: every keyed sub-solve
    # is a hit
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


def _learn_by_scan(moduli, members):
    """``Solver._learn``'s answer with exactness checked on every point of
    the space: (coeffs, rhs, prime), or None when no block's equation holds
    exactly at ``members``."""

    from wnucsp.errors import AffineStructureViolation
    from wnucsp.linsolve import learn_hyperplane

    for p in dict.fromkeys(moduli):
        slots = [j for j, q in enumerate(moduli) if q == p]

        def oracle(v):
            point = [0] * len(moduli)
            for idx, j in enumerate(slots):
                point[j] = v[idx]
            return tuple(point) in members

        try:
            out = learn_hyperplane(oracle, p, len(slots))
        except AffineStructureViolation:
            return None
        if out.kind == "equation" and all(
                (sum(out.coeffs[idx] * pt[j]
                     for idx, j in enumerate(slots)) % p == out.rhs)
                == (pt in members)
                for pt in itertools.product(*(range(q) for q in moduli))):
            return out.coeffs, out.rhs, p
    return None


@pytest.mark.parametrize("moduli", [(2, 2, 3), (3, 3, 2, 2)])
def test_learn_exactness_by_count_matches_the_scan(moduli):
    """``_learn`` accepts a block's equation when every member satisfies it
    and the members number N / p; on hyperplanes, hyperplanes less a point
    and unions of two it answers as the scan over all N points does."""

    from wnucsp.errors import AffineStructureViolation
    from wnucsp.linsolve import LinearSystem, solve_linear_system

    param = solve_linear_system(LinearSystem(
        tuple(("v%d" % i, q) for i, q in enumerate(moduli)), ())).param
    assert param.moduli == moduli
    space = list(param.points())
    rng = random.Random(0)

    def hyperplane():
        p = rng.choice(moduli)
        slots = [j for j, q in enumerate(moduli) if q == p]
        coeffs = [0] * len(slots)
        while not any(coeffs):
            coeffs = [rng.randrange(p) for _ in slots]
        rhs = rng.randrange(p)
        return {pt for pt in space
                if sum(c * pt[j] for c, j in zip(coeffs, slots)) % p == rhs}

    answers = []
    for _ in range(40):
        plane = hyperplane()
        for members in (plane, plane - {rng.choice(sorted(plane))},
                        plane | hyperplane()):
            want = _learn_by_scan(moduli, members)
            solver = Solver()
            try:
                eq = solver._learn(param, moduli, members, 0)
                got = (solver.learned[-1].coeffs, eq.rhs, eq.prime)
            except AffineStructureViolation:
                got = None
            assert got == want, sorted(members)
            answers.append(got is not None)
    assert any(answers) and not all(answers)


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
    """x + y + z = 1 over Z2: it survives propagation and, with no
    witness budget, reaches the weakened-instance checks."""

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
        patch.setattr(consistency_module, "WITNESS_NODES", 0)
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
        patch.setattr(consistency_module, "WITNESS_NODES", 0)
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


def test_solve_leaves_the_instance_only_its_own_caches(z4_example):
    """The shape data the solve shares among derived instances is dropped
    from the solved instance, and the root call is not keyed in the memo:
    the instance keeps its index, its domain algebras and its effective
    relations."""

    fields = {"variables", "base_algebras", "current_domains", "constraints"}
    kept = fields | {"_index", "_algebras", "_effs"}
    families = ((2, 3, minority_table()), (3, 3, dual_discriminator_table()),
                (4, 5, sum_table(4, 5)))
    instances = [Instance(z4_example.variables, z4_example.base_algebras,
                          z4_example.current_domains, z4_example.constraints)]
    for n, m, table in families:
        for i in range(4):
            instances.append(random_instance(GenParams(
                n, m, 6, 6, 3, 500 + i, satisfiable_bias=bool(i % 2),
                wnu=table))[0])
    for inst in instances:
        Solver().solve(inst)
        assert "_key" not in inst.__dict__
        assert set(inst.__dict__) <= kept


def _load_workloads(monkeypatch):
    """The benchmark's ``perfbench/workloads.py``, loaded read-only."""

    root = Path(__file__).resolve().parent.parent
    path = root / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the module executes
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    return workloads


def _desk_instances(monkeypatch):
    """The instances of the benchmark's seed-0 desk workload."""

    return [item.inst for item in _load_workloads(monkeypatch).build("desk", 0)]


def test_linear_rows_and_effective_caches_are_transparent(monkeypatch):
    """The seed-0 desk instances solved with the linear rows and effective
    relation caches cleared, then again with both warm, give the same
    outcomes, assignments, reports and learned equations."""

    instances = _desk_instances(monkeypatch)

    def solve_all():
        out = []
        for inst in instances:
            solver = Solver()
            outcome = solver.solve(inst)
            out.append((outcome, list(outcome.assignment or ()),
                        solver.reports, solver.learned))
        return out

    rows = instance_module._linear_rows
    rows.cache_clear()
    instance_module._effective.cache_clear()
    cold = solve_all()
    misses = rows.cache_info().misses
    assert misses > 0
    warm = solve_all()
    # the warm solves read every row from the cache
    assert rows.cache_info().misses == misses
    assert warm == cold
    assert {o.kind for o, _, _, _ in cold} == {"sat", "unsat"}
    # no desk instance learns an equation (Steps 10-13); many reach the
    # linear phase and report their linear quotients
    assert any(report.kind == "linear_quotient"
               for _, _, reports, _ in cold for _, report in reports)


# --- golden outputs -------------------------------------------------------


def golden_params():
    """Seeded instances of the five desk families: per family, thirty
    6-variable instances (odd seeds planted) and twenty planted
    10-variable ones, whose rounds restart Step 1 after a reduction more
    often."""

    families = ((2, 3, minority_table()), (2, 3, majority_table()),
                (2, 3, conjunction_table(3)),
                (3, 3, dual_discriminator_table()), (4, 5, sum_table(4, 5)))
    sizes = [(6, i % 2 == 1) for i in range(30)] + [(10, True)] * 20
    return [GenParams(n, m, size, size, 3, 600_000 + i,
                      satisfiable_bias=planted, wnu=wnu)
            for n, m, wnu in families
            for i, (size, planted) in enumerate(sizes)]


def canonical(value):
    """``value`` as nested tuples of ints, strings and None, with sets and
    dicts sorted and dataclasses spelled out by their compared fields, so
    its repr does not depend on hash seeds or on object identity."""

    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, (list, tuple)):
        return tuple(map(canonical, value))
    if isinstance(value, (set, frozenset)):
        return ("set",) + tuple(sorted(map(canonical, value), key=repr))
    if isinstance(value, dict):
        return ("dict",) + tuple(sorted(
            ((canonical(k), canonical(v)) for k, v in value.items()),
            key=repr))
    if dataclasses.is_dataclass(value):
        return (type(value).__name__,) + tuple(
            (f.name, canonical(getattr(value, f.name)))
            for f in dataclasses.fields(value) if f.compare)
    raise TypeError("no canonical form for %r" % type(value))


def solver_outputs_digest():
    """sha256 over the outcome, the assignment, ``Solver.reports``,
    ``Solver.learned`` and every ``TraceEvent`` of two solves of each
    ``golden_params`` instance in this process, the second on warm
    caches."""

    digest = hashlib.sha256()
    instances = [random_instance(params)[0] for params in golden_params()]
    for _ in range(2):
        for inst in instances:
            events = []
            solver = Solver(SolverConfig(trace_sink=events.append))
            outcome = solver.solve(inst)
            digest.update(repr(canonical(
                (outcome, solver.reports, solver.learned, events))).encode())
    return digest.hexdigest()


# ``solver_outputs_digest`` as computed when the golden set was made.  A
# change that alters the solver's outputs updates it and says why.
GOLDEN_DIGEST = (
    "7a8701bb391a9eb1c31ea3e6a438701975e5e9a294f405f1a4a53c2079f90bc8")


def test_solver_outputs_match_the_golden_digest():
    assert solver_outputs_digest() == GOLDEN_DIGEST


# --- outputs on the benchmark workloads ------------------------------------


@pytest.fixture(scope="module")
def seed0_workloads():
    """The items of every seed-0 benchmark workload, and the workloads
    module that built them."""

    with pytest.MonkeyPatch.context() as mp:
        workloads = _load_workloads(mp)
    return workloads, {name: workloads.build(name, 0)
                       for name in workloads.WORKLOADS}


def workload_outputs_digest(workloads, items):
    """sha256 over the outcome (or the error class), the assignment,
    ``Solver.reports``, ``Solver.learned`` and every ``TraceEvent`` of two
    passes over ``items`` in this process, the second on warm caches.
    Each solve reads its instance as ``perfbench/run.py`` does: a file
    workload parses the item's text, and the center search reaches the
    largest domain."""

    digest = hashlib.sha256()
    for _ in range(2):
        for item in items:
            inst = parse_instance(item.text) if item.text is not None \
                else item.inst
            events = []
            solver = Solver(SolverConfig(
                center_arity_cap=workloads.center_arity_cap(
                    max(alg.size for alg in inst.base_algebras)),
                trace_sink=events.append))
            try:
                outcome = solver.solve(inst)
            except CspError as exc:
                outcome = type(exc).__name__
            digest.update(repr(canonical(
                (outcome, solver.reports, solver.learned, events))).encode())
    return digest.hexdigest()


# ``workload_outputs_digest`` of each seed-0 workload at the default
# witness budget and at ``WITNESS_NODES = 0``, where every round takes the
# exact Steps 2 and 3.  A change that alters the solver's outputs updates
# them and says why.
WORKLOAD_DIGESTS = {
    ("desk", 0):
        "166f8d484dcd1e189e31bcb5b4590b7f42df4b2219e4ccff70e738ef0babda4f",
    ("desk", 2000):
        "0217723b1ded3587c0c52e6980bf53ee0589d6a2b51de710f77eb4363fa119ea",
    ("files", 0):
        "b1280b193ba2f12ccc03fea46b8179dc8b7ad1181d56ca83824622d1b47758b4",
    ("files", 2000):
        "c51b610e24e35d4c960eb57df535ee3ba8529932fb4945dc793824cc2bf6722e",
    ("tail", 0):
        "65a566a50f611fbf4125206e2b959a5f1246c4a47b6e38efdc6338f1dc5b81c8",
    ("tail", 2000):
        "e7561b7175ef156432f3d48dbb2a8ed7be1d5ecb5e1bc87c0ef996ed40c90af5",
    ("wide", 0):
        "b4c1b593e41ea62add1b45216996d830c85aea14663535ffeaa582ccc86e85df",
    ("wide", 2000):
        "32bfd903453592d857fc67e7bf401d182eb86e290a90d7bf3fca2202b88264c0",
}


@pytest.mark.parametrize("name,budget", sorted(WORKLOAD_DIGESTS))
def test_workload_outputs_match_their_digests(seed0_workloads, name, budget,
                                              monkeypatch):
    workloads, items = seed0_workloads
    monkeypatch.setattr(consistency_module, "WITNESS_NODES", budget)
    assert workload_outputs_digest(workloads, items[name]) == \
        WORKLOAD_DIGESTS[name, budget]


# --- the memo keys only the calls a hit can reach ---------------------------


def solve_counting(cls, inst, cap):
    """Solve ``inst`` with a ``cls`` solver, a center arity cap of ``cap``
    and a trace sink.  Returns the solver, its outputs (outcome,
    assignment, reports, learned equations and trace events), the count
    of ``_solve`` calls and the count of memo hits, the calls that did not
    reach ``_solve_main``."""

    solve, main = cls._solve, cls._solve_main
    calls = mains = 0

    def counting_solve(self, inst, depth, t3):
        nonlocal calls
        calls += 1
        return solve(self, inst, depth, t3)

    def counting_main(self, inst, depth, t3):
        nonlocal mains
        mains += 1
        return main(self, inst, depth, t3)

    events = []
    solver = cls(SolverConfig(center_arity_cap=cap, trace_sink=events.append))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cls, "_solve", counting_solve)
        mp.setattr(cls, "_solve_main", counting_main)
        outcome = solver.solve(inst)
    outputs = (outcome, list(outcome.assignment or ()), solver.reports,
               solver.learned, events)
    return solver, outputs, calls, calls - mains


def test_memo_keyed_where_hits_matches_keying_every_call(seed0_workloads):
    """Keying the memo only below the sub-solves of Steps 2 and 3 and of
    the linear phase gives the outputs, ``_solve`` calls and memo hits of
    the reference solver that keys every call, with fewer entries, each
    holding the reference's result.  The instances are the seed-0 desk
    instance whose memo hits and planted Z4 systems that reach Step 10."""

    workloads, items = seed0_workloads
    desk = next(item.inst for item in items["desk"]
                if item.label == "z4:100075:n6")
    pinned = [(desk, workloads.center_arity_cap(4), 63, 3),
              (planted_z4_system(18, 0), 3, 1_622, 475),
              (planted_z4_system(28, 2), 3, 1_564, 436)]
    for inst, cap, want_calls, want_hits in pinned:
        got, got_out, calls, hits = solve_counting(Solver, inst, cap)
        ref, ref_out, ref_calls, ref_hits = solve_counting(
            reference_solver.KeyEverySolver, inst, cap)
        assert got_out == ref_out
        assert (calls, hits) == (ref_calls, ref_hits) == (want_calls,
                                                          want_hits)
        assert len(got.memo) < len(ref.memo)
        assert all(ref.memo[key] == result for key, result in got.memo.items())


def test_memo_stays_empty_on_the_tail_workload(seed0_workloads):
    """The seed-0 tail instances reach no Step 2, Step 3 or linear phase
    sub-solve, so no call is keyed."""

    workloads, items = seed0_workloads
    for item in items["tail"]:
        cap = workloads.center_arity_cap(
            max(alg.size for alg in item.inst.base_algebras))
        solver = Solver(SolverConfig(center_arity_cap=cap))
        solver.solve(item.inst)
        assert solver.memo == {}
