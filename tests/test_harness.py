import pytest

from wnucsp.algebra import minority_table, sum_table
from wnucsp.errors import ArgumentError, InternalError, SizeError
from wnucsp.harness import (
    GenParams,
    brute_force,
    differential_test,
    random_instance,
)
from wnucsp.instance import Constraint, Instance
from wnucsp.relation import Relation, is_invariant
from wnucsp.solver import SolveOutcome

from conftest import linear_relation


def test_brute_force_golden_contains_solution(z4_example):
    sols = brute_force(z4_example, "all")
    as_tuples = {tuple(sol[v] for v in z4_example.variables) for sol in sols}
    assert (1, 1, 0, 1) in as_tuples
    assert len(as_tuples) == 8


def test_brute_force_decision_matches_all(z4_example, z2min):
    assert brute_force(z4_example, "decision") is not None
    empty = Relation(1, (z2min,), frozenset())
    inst = Instance(("x",), (z2min,), (frozenset({0, 1}),),
                    (Constraint(empty, ("x",)),))
    assert brute_force(inst, "decision") is None
    assert brute_force(inst, "all") == []


def test_brute_force_reads_no_effective_relation(z4_example, monkeypatch):
    """The oracle shares no cache with the solver: with
    ``Instance.effective`` made to raise it still answers, and with x1
    reduced to {1, 3} it finds the solutions of the full instance that
    keep x1 there."""

    inst = z4_example
    reduced = Instance(inst.variables, inst.base_algebras,
                       (frozenset({1, 3}),) + inst.current_domains[1:],
                       inst.constraints)

    def refuse(self, constraint):
        raise AssertionError("brute force read an effective relation")

    monkeypatch.setattr(Instance, "effective", refuse)
    every = brute_force(inst, "all")
    assert len(every) == 8
    assert brute_force(reduced, "all") == [
        sol for sol in every if sol["x1"] in {1, 3}]
    assert brute_force(reduced, "decision") is not None


def test_brute_force_empty_instance(z2min):
    inst = Instance(("x",), (z2min,), (frozenset({0, 1}),), ())
    assert len(brute_force(inst, "all")) == 2


def test_brute_force_cap(z2min):
    inst = Instance(tuple("v%d" % i for i in range(30)), (z2min,) * 30,
                    (frozenset({0, 1}),) * 30, ())
    with pytest.raises(SizeError):
        brute_force(inst, "all")


def test_brute_force_rejects_bad_mode(z4_example):
    with pytest.raises(ArgumentError):
        brute_force(z4_example, "count")


def test_random_instance_reproducible():
    params = GenParams(2, 3, 4, 4, 3, 1, wnu=minority_table())
    a, _ = random_instance(params)
    b, _ = random_instance(params)
    assert a.canonical_key() == b.canonical_key()


def test_random_instance_golden_fingerprint():
    """Frozen at first generation; any drift in the generator is a break."""

    import hashlib

    params = GenParams(2, 3, 4, 4, 3, 1, wnu=minority_table())
    inst, _ = random_instance(params)
    digest = hashlib.sha256(repr(inst.canonical_key()).encode()).hexdigest()
    assert digest[:16] == "0240c90e5afa752b"
    summary = sorted(
        (c.scope, tuple(sorted(c.relation.tuples))) for c in inst.constraints)
    assert summary == [
        (("x0",), ((0,),)),
        (("x0", "x2"), ((0, 1), (1, 0))),
        (("x1", "x3"), ((0, 0), (0, 1), (1, 0), (1, 1))),
        (("x3", "x1"), ((0, 1), (1, 0))),
    ]


def test_random_instance_relations_invariant():
    for seed in range(10):
        params = GenParams(4, 5, 4, 4, 3, seed, wnu=sum_table(4, 5))
        inst, table = random_instance(params)
        assert table == sum_table(4, 5)
        for c in inst.constraints:
            assert is_invariant(c.relation)


def test_random_instance_zero_constraints_satisfiable():
    params = GenParams(2, 3, 3, 0, 3, 5, wnu=minority_table())
    inst, _ = random_instance(params)
    assert inst.constraints == ()
    assert brute_force(inst, "decision") is not None


def test_random_instance_bias_plants_solution():
    for seed in range(15):
        params = GenParams(2, 3, 4, 5, 3, seed, satisfiable_bias=True,
                           wnu=minority_table())
        inst, _ = random_instance(params)
        assert brute_force(inst, "decision") is not None


def test_random_instance_searches_wnu_when_omitted():
    params = GenParams(2, 3, 3, 2, 2, 9)
    inst, table = random_instance(params)
    assert table.arity == 3 and table.domain_size == 2


def test_differential_reproducible_and_green():
    params = GenParams(2, 3, 4, 4, 3, 42, wnu=minority_table())
    first = differential_test(30, params)
    second = differential_test(30, params)
    assert first.ok and first.records == second.records
    assert first.summary() == "30/30 agreements"


def test_differential_zero_runs():
    params = GenParams(2, 3, 4, 4, 3, 0, wnu=minority_table())
    report = differential_test(0, params)
    assert report.records == () and report.ok


def test_differential_disagreement_artifacts_replay(monkeypatch, z2min):
    """A forced wrong solver decision produces a replayable artifact."""

    from wnucsp import fileformat, harness

    class LyingSolver:
        def solve(self, inst):
            from wnucsp.solver import SolveOutcome
            return SolveOutcome("unsat")

    params = GenParams(2, 3, 3, 0, 2, 3, wnu=minority_table())
    report = differential_test(2, params, solver_factory=LyingSolver)
    assert not report.ok
    seed, text = report.disagreements[0]
    replayed = fileformat.parse_instance(text)
    assert brute_force(replayed, "decision") is not None


def test_differential_test_rejects_non_satisfying_assignment():
    class ForgedSolver:
        def solve(self, inst):
            bad = {v: 0 for v in inst.variables}
            return SolveOutcome("sat", bad)

    # seed 0 draws the single constraint x1 = 1
    params = GenParams(2, 3, 2, 1, 2, 0, wnu=minority_table())
    inst, _ = random_instance(params)
    assert not inst.assignment_satisfies({v: 0 for v in inst.variables})
    with pytest.raises(InternalError):
        differential_test(1, params, solver_factory=ForgedSolver)
