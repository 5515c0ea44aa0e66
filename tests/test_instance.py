import itertools
import random
from math import prod
from operator import itemgetter

import pytest

from wnucsp import instance as instance_module
from wnucsp.algebra import (
    Congruence,
    conjunction_table,
    dual_discriminator_table,
    is_subuniverse,
    majority_table,
    make_algebra,
    minority_table,
    restrict_algebra,
    search_special_wnu,
    sum_table,
)
from wnucsp.classify import con_lin
from wnucsp.errors import (
    EmptyRelationError,
    FormatError,
    InternalError,
    OracleError,
    ReductionError,
)
from wnucsp.harness import GenParams, random_instance
from wnucsp.instance import (
    Constraint,
    Instance,
    apply_reduction,
    constraint_weaker,
    factorize_to_linear,
    fragment_variable_sets,
    make_crucial,
    normalize_scope,
    project_instance,
    relation_to_equations,
    restrict_to_variables,
    weaken_all,
)
from wnucsp.linsolve import LinearSystem
from wnucsp.relation import (
    Relation,
    factorize,
    minimal_weaker_relations,
    restrict_relation,
)
from wnucsp import solver as solver_module
from wnucsp.solver import Solver

import reference_instance
from conftest import linear_relation, planted_z4_system
from helpers import full_relation


def solutions_of_system(system: LinearSystem):
    out = set()
    for values in itertools.product(*(range(p) for _, p in system.scalar_vars)):
        if all(
            sum(c * v for c, v in zip(eq.coeffs, values)) % eq.prime == eq.rhs
            for eq in system.equations
        ):
            out.add(values)
    return out


# --- reductions ----------------------------------------------------------------


def test_reduction_to_odd_class(z4_example):
    reduced = apply_reduction(z4_example, {"x1": {1, 3}})
    assert reduced.domain("x1") == frozenset({1, 3})
    # solutions now have x1 odd
    from wnucsp.harness import brute_force
    for sol in brute_force(reduced, "all"):
        assert sol["x1"] % 2 == 1


def test_identity_reduction_equal(z4_example):
    same = apply_reduction(z4_example, {"x1": set(range(4))})
    assert same.canonical_key() == z4_example.canonical_key()


def test_reduction_rejects_non_subuniverse(z4_example):
    with pytest.raises(ReductionError):
        apply_reduction(z4_example, {"x1": {1, 2}})


def test_reduction_rejects_non_subuniverse_from_cache():
    """{0, 1} is not closed under Z4 sum-of-5: the verdict is the same on
    the first call, on a repeated call and for an algebra built again,
    which is the same object and hits the cached verdict."""

    first, fresh = (make_algebra(range(4), sum_table(4, 5))
                    for _ in range(2))
    assert first == fresh and first is fresh
    instances = [Instance(("x", "y"), (alg,) * 2, (frozenset(range(4)),) * 2,
                          ()) for alg in (first, fresh)]
    is_subuniverse.cache_clear()
    for inst in instances:
        for _ in range(2):
            with pytest.raises(ReductionError, match="not a subuniverse"):
                apply_reduction(inst, {"x": {0, 1}})
    info = is_subuniverse.cache_info()
    assert (info.misses, info.hits) == (1, 3)


def test_reduction_rejects_unknown_variable(z4_example):
    with pytest.raises(ReductionError, match="nope"):
        apply_reduction(z4_example, {"nope": {0}})


def test_reduction_rejects_empty(z4_example):
    with pytest.raises(ReductionError):
        apply_reduction(z4_example, {"x1": set()})


def test_reduction_chain_only_shrinks(z4_example):
    reduced = apply_reduction(z4_example, {"x1": {1, 3}})
    again = apply_reduction(reduced, {"x1": {1}})
    assert again.domain("x1") == frozenset({1})
    with pytest.raises(ReductionError):
        apply_reduction(again, {"x1": {3}})


def test_normalize_scope_repetition(z2min):
    rel = Relation(2, (z2min, z2min), {(0, 1), (1, 1), (0, 0)})
    c = normalize_scope(rel, ("x", "x"))
    assert c.scope == ("x",)
    assert c.relation.tuples == {(0,), (1,)}


def test_project_instance_keeps_an_empty_effective_relation(z2min):
    # (x, y) = (0, 0) with x reduced to 1: the effective relation is empty
    zero = Relation(2, (z2min, z2min), {(0, 0)})
    inst = Instance(("x", "y", "z"), (z2min,) * 3,
                    (frozenset({1}), frozenset({0, 1}), frozenset({0, 1})),
                    (Constraint(zero, ("x", "y")),))
    proj = project_instance(inst, ("y", "z"))
    assert proj.variables == ("y", "z")
    coord = inst.effective(inst.constraints[0]).coords[1]
    assert proj.constraints == (
        Constraint(Relation(1, (coord,), frozenset()), ("y",)),)


def test_fragments(z2min):
    eq = Relation(2, (z2min, z2min), {(0, 0), (1, 1)})
    inst = Instance(
        ("a", "b", "c", "d"),
        (z2min,) * 4,
        (frozenset({0, 1}),) * 4,
        (Constraint(eq, ("a", "b")), Constraint(eq, ("c", "d"))),
    )
    assert fragment_variable_sets(inst) == (("a", "b"), ("c", "d"))


# --- factorize_to_linear ---------------------------------------------------------


def test_factorize_golden_system(z4_example):
    system, factors = factorize_to_linear(z4_example)
    assert [name for name, _ in system.scalar_vars] == [
        "x1#0", "x2#0", "x3#0", "x4#0"]
    got = solutions_of_system(system)
    want = {
        t for t in itertools.product(range(2), repeat=4)
        if (t[0] + t[2] + t[3]) % 2 == 0
        and (t[1] + t[2] + t[3]) % 2 == 0
        and (t[0] + t[1]) % 2 == 0
    }
    assert got == want


def test_factorize_singletons_empty_system(z4):
    inst = Instance(("x",), (z4,), (frozenset({2}),), ())
    system, factors = factorize_to_linear(inst)
    assert system.scalar_vars == () and system.equations == ()
    assert factors[0].width == 0


def test_factorize_equality_minority(z2min):
    eq = Relation(2, (z2min, z2min), {(0, 0), (1, 1)})
    inst = Instance(("x", "y"), (z2min,) * 2, (frozenset({0, 1}),) * 2,
                    (Constraint(eq, ("x", "y")),))
    system, _ = factorize_to_linear(inst)
    got = solutions_of_system(system)
    assert got == {(0, 0), (1, 1)}


def test_factorize_round_trip_block_semantics(z4_example):
    """A scalar assignment solves the factorized system iff the block tuple
    meets every factorized constraint."""

    system, factors = factorize_to_linear(z4_example)
    by_var = {f.var: f for f in factors}
    block_rels = []
    for c in z4_example.constraints:
        eff = z4_example.effective(c)
        congs = [by_var[v].conlin.congruence for v in c.scope]
        block_rels.append((c.scope, factorize(eff, congs).tuples))
    for values in itertools.product(range(2), repeat=4):
        sat_sys = all(
            sum(cc * v for cc, v in zip(eq.coeffs, values)) % eq.prime == eq.rhs
            for eq in system.equations
        )
        assignment = dict(zip(z4_example.variables, values))
        sat_blocks = all(
            tuple(assignment[v] for v in scope) in tuples
            for scope, tuples in block_rels
        )
        assert sat_sys == sat_blocks


# --- relation_to_equations --------------------------------------------------------


def test_equations_sum_pair(z2min):
    from wnucsp.classify import con_lin

    cl = con_lin(z2min)
    rel = Relation(2, (cl.quotient, cl.quotient),
                   {(a, b) for a in range(2) for b in range(2)
                    if (a + b) % 2 == 1})
    eqs = relation_to_equations(rel, [cl.iso, cl.iso])
    assert len(eqs) == 1
    coeffs, rhs, p = eqs[0]
    assert p == 2 and coeffs == (1, 1) and rhs == 1


def test_equations_full_relation_none(z2min):
    from wnucsp.classify import con_lin

    cl = con_lin(z2min)
    rel = full_relation((cl.quotient, cl.quotient))
    assert relation_to_equations(rel, [cl.iso, cl.iso]) == []


def test_equations_xor_triple(z2min):
    from wnucsp.classify import con_lin

    cl = con_lin(z2min)
    rel = Relation(3, (cl.quotient,) * 3,
                   {(0, 0, 0), (1, 1, 0), (0, 1, 1), (1, 0, 1)})
    eqs = relation_to_equations(rel, [cl.iso] * 3)
    assert len(eqs) == 1
    coeffs, rhs, p = eqs[0]
    assert coeffs == (1, 1, 1) and rhs == 0 and p == 2


def test_equations_reject_empty(z2min):
    from wnucsp.classify import con_lin

    cl = con_lin(z2min)
    rel = Relation(1, (cl.quotient,), frozenset())
    with pytest.raises(EmptyRelationError):
        relation_to_equations(rel, [cl.iso])


def test_equations_solution_counts_match(z4):
    from wnucsp.classify import con_lin
    import random

    rng = random.Random(17)
    cl = con_lin(z4)
    for _ in range(20):
        arity = rng.randint(1, 3)
        base = linear_relation(z4, tuple(rng.randrange(4) for _ in range(arity)),
                               rng.randrange(4))
        if base.is_empty:
            continue
        fact = factorize(base, [cl.congruence] * arity)
        eqs = relation_to_equations(fact, [cl.iso] * arity)
        sols = {
            v for v in itertools.product(range(2), repeat=arity)
            if all(sum(c * x for c, x in zip(coeffs, v)) % p == rhs
                   for coeffs, rhs, p in eqs)
        }
        assert sols == fact.tuples


def test_linear_rows_equal_their_uncached_computation(linear_relations):
    """The cached rows of each effective relation the solves factorize
    are the rows computed afresh from the relation."""

    assert linear_relations
    for eff in linear_relations:
        conlins = [con_lin(alg) for alg in eff.coords]
        fact = factorize(eff, [cl.congruence for cl in conlins])
        want = relation_to_equations(fact, [cl.iso for cl in conlins])
        assert instance_module._linear_rows(eff) == tuple(want)


def test_equal_factorizations_share_their_linear_rows(z4):
    """x = y and x = y mod 2 over Z4 sum-of-5 are different relations that
    both factorize by the mod-2 congruence to equality on Z2, so their
    rows are computed once; the rows are those computed afresh."""

    equal = Relation(2, (z4, z4), {(a, a) for a in range(4)})
    parity = linear_relation(z4, (2, 2), 0)
    assert equal != parity
    rows, factored = instance_module._linear_rows, instance_module._factored_rows
    rows.cache_clear()
    factored.cache_clear()
    cl = con_lin(z4)
    for rel in (equal, parity):
        fact = factorize(rel, [cl.congruence] * 2)
        assert rows(rel) == tuple(relation_to_equations(fact, [cl.iso] * 2))
    assert rows.cache_info().misses == 2
    assert factored.cache_info().misses == 1
    assert factored.cache_info().hits == 1


def test_effective_relation_on_its_own_coordinates_is_the_relation(dd3):
    """On full domains over the relation's own coordinates the effective
    relation is the relation itself; a smaller domain restricts it."""

    rel = Relation(2, (dd3, dd3), {(0, 0), (1, 1), (2, 2), (0, 1)})
    c = Constraint(rel, ("x", "y"))
    inst = Instance(("x", "y"), (dd3,) * 2, (frozenset(range(3)),) * 2,
                    (c,))
    assert inst.effective(c) is rel
    sub = frozenset({0, 1})
    small = restrict_algebra(dd3, sub)
    assert instance_module._effective(rel, (dd3, small),
                                      (frozenset(range(3)), sub)) == \
        Relation(2, (dd3, small), {(0, 0), (1, 1), (0, 1)})
    reduced = apply_reduction(inst, {"y": sub})
    assert reduced.effective(c) == restrict_relation(
        rel, (dd3, small), (frozenset(range(3)), sub))


def test_linear_rows_reject_a_non_coset_on_every_call(z2min):
    """A failed coset check is not cached: the second call raises too."""

    rel = Relation(2, (z2min, z2min), {(0, 0), (0, 1), (1, 0)})
    inst = Instance(("x", "y"), (z2min,) * 2, (frozenset({0, 1}),) * 2,
                    (Constraint(rel, ("x", "y")),))
    for _ in range(2):
        with pytest.raises(InternalError, match="not a coset"):
            instance_module._linear_rows(rel)
        with pytest.raises(InternalError, match="not a coset"):
            factorize_to_linear(inst)


# --- weaken_all --------------------------------------------------------------------


def test_weaken_full_constraint_drops(z2min):
    inst = Instance(("x", "y"), (z2min,) * 2, (frozenset({0, 1}),) * 2,
                    (Constraint(full_relation((z2min, z2min)), ("x", "y")),))
    assert weaken_all(inst).constraints == ()


def test_weaken_equality_effectively_none(z2min):
    eq = Relation(2, (z2min, z2min), {(0, 0), (1, 1)})
    inst = Instance(("x", "y"), (z2min,) * 2, (frozenset({0, 1}),) * 2,
                    (Constraint(eq, ("x", "y")),))
    assert weaken_all(inst).constraints == ()


def test_weaken_dedups_duplicates(z4):
    rel = linear_relation(z4, (1, 2, 1, 1), 0)
    vs = ("a", "b", "c", "d")
    inst = Instance(vs, (z4,) * 4, (frozenset(range(4)),) * 4,
                    (Constraint(rel, vs), Constraint(rel, vs)))
    weakened = weaken_all(inst)
    assert len(weakened.constraints) == 1


def test_weaken_outputs_weaker_never_imply_back(z4_example):
    weakened = weaken_all(z4_example)
    for wc in weakened.constraints:
        implied = False
        for pc in z4_example.constraints:
            if set(wc.scope) <= set(pc.scope) and constraint_weaker(
                    z4_example, wc, pc):
                implied = True
                break
        assert implied


# --- make_crucial ---------------------------------------------------------------


def even_class_unsat_oracle(inst: Instance):
    """True iff the instance has no solution with every variable even."""

    from wnucsp.harness import brute_force

    evens = {v: frozenset({0, 2}) & inst.domain(v) or inst.domain(v)
             for v in inst.variables}
    try:
        reduced = apply_reduction(inst, {
            v: frozenset({0, 2}) for v in inst.variables})
    except ReductionError:
        return True
    return brute_force(reduced, "decision") is None


def test_make_crucial_golden(z4_example):
    result = make_crucial(z4_example, even_class_unsat_oracle)
    # crucial: the oracle still holds ...
    assert even_class_unsat_oracle(result)
    # ... and weakening any single constraint breaks it
    from wnucsp.relation import weaker_relations
    from wnucsp.instance import prune_weaker

    for c in result.constraints:
        pairs = weaker_relations(result.effective(c))
        others = [d for d in result.constraints if d is not c]
        for sub, rel in pairs:
            others.append(Constraint(rel, tuple(c.scope[i] for i in sub)))
        candidate = Instance(result.variables, result.base_algebras,
                             result.current_domains,
                             prune_weaker(result, others))
        assert not even_class_unsat_oracle(candidate)


def test_make_crucial_requires_unsat(z2min):
    inst = Instance(("x",), (z2min,), (frozenset({0, 1}),), ())
    with pytest.raises(OracleError):
        make_crucial(inst, lambda _: False)


def crucial_pair(z4):
    """x1 + x2 = 2 with x1 + x2 + 2x3 + 2x4 = 0 has no all-even solution,
    and weakening either constraint admits one."""

    vs = ("x1", "x2", "x3", "x4")
    return (
        Constraint(linear_relation(z4, (1, 1), 2), ("x1", "x2")),
        Constraint(linear_relation(z4, (1, 1, 2, 2), 0), vs),
    )


def test_make_crucial_already_crucial(z4):
    pair = crucial_pair(z4)
    inst = Instance(("x1", "x2", "x3", "x4"), (z4,) * 4,
                    (frozenset(range(4)),) * 4, pair)
    result = make_crucial(inst, even_class_unsat_oracle)
    assert set(result.constraints) == set(pair)


def test_make_crucial_removes_duplicates(z4):
    pair = crucial_pair(z4)
    inst = Instance(("x1", "x2", "x3", "x4"), (z4,) * 4,
                    (frozenset(range(4)),) * 4, pair + (pair[0],))
    result = make_crucial(inst, even_class_unsat_oracle)
    assert len(result.constraints) == 2


def solve_recording_crucial(monkeypatch, inst, crucial):
    """Solve ``inst`` with ``crucial`` as the solver's ``make_crucial``.
    Returns the outcome, the learned equations, the crucial instances in
    order and the count of ``Solver._solve`` calls."""

    made = []
    calls = 0
    solve = Solver._solve

    def counting(self, *args):
        nonlocal calls
        calls += 1
        return solve(self, *args)

    def recording(inst, oracle):
        made.append(crucial(inst, oracle))
        return made[-1]

    monkeypatch.setattr(Solver, "_solve", counting)
    monkeypatch.setattr(solver_module, "make_crucial", recording)
    solver = Solver()
    outcome = solver.solve(inst)
    monkeypatch.undo()
    return outcome, solver.learned, made, calls


def test_crucial_scan_skips_rejected_weakenings(monkeypatch):
    """On planted Z4 n = 18 seed 0, skipping the weakenings rejected before
    gives the crucial instances, the outcome and the learned equations of
    the scan that asks again after each acceptance, with 1 622 ``_solve``
    calls against 6 197; and every weakening that scan asks about again
    is rejected again."""

    inst = planted_z4_system(18, 0)
    retests = []
    got = solve_recording_crucial(monkeypatch, inst, make_crucial)
    want = solve_recording_crucial(
        monkeypatch, inst,
        lambda inst, oracle: reference_instance.make_crucial(inst, oracle,
                                                             retests))
    assert got[2] and got[2] == want[2]
    assert (got[0].kind, got[0].assignment) == (want[0].kind,
                                                want[0].assignment)
    assert got[1] and got[1] == want[1]
    assert retests and not any(retests)
    assert (got[3], want[3]) == (1_622, 6_197)


@pytest.mark.parametrize("n, seed, want", [(24, 0, 7_964), (28, 2, 1_564)])
def test_crucial_scan_solve_count_on_planted_z4(monkeypatch, n, seed, want):
    outcome, learned, made, calls = solve_recording_crucial(
        monkeypatch, planted_z4_system(n, seed), make_crucial)
    assert outcome.kind == "sat" and learned and made
    assert calls == want


# --- the public boundary and the trusted path ----------------------------------


def test_constructor_rejects_malformed_input(z2min, z4):
    x = ("x",)
    full2, full4 = frozenset({0, 1}), frozenset(range(4))
    z4_unary = Relation(1, (z4,), frozenset({(0,)}))
    z2_binary = Relation(2, (z2min, z2min), frozenset({(0, 0), (1, 1)}))
    cases = [
        (("x", "x"), (z2min,) * 2, (full2,) * 2, ()),   # duplicate variable
        (("x", "y"), (z2min,), (full2, full2), ()),     # lengths disagree
        (x, (z2min,), (frozenset(),), ()),              # empty domain
        (x, (z2min,), (frozenset({0, 5}),), ()),        # outside the carrier
        (x, (z4,), (frozenset({1, 2}),), ()),           # not a subuniverse
        (x, (z2min,), (full2,),                         # repeated scope var
         (Constraint(z2_binary, ("x", "x")),)),
        (x, (z2min,), (full2,),                         # unknown scope var
         (Constraint(Relation(1, (z2min,), {(0,)}), ("y",)),)),
        (x, (z2min,), (full2,),                         # coords exceed carrier
         (Constraint(z4_unary, ("x",)),)),
    ]
    for variables, bases, domains, constraints in cases:
        with pytest.raises(FormatError):
            Instance(variables, bases, domains, constraints)
    Instance(x, (z4,), (full4,), (Constraint(z4_unary, x),))


def test_constraint_rejects_an_empty_scope():
    """A constraint on no variable is refused where it is built, both the
    empty and the full relation of arity 0; no file can state one, since
    ``REL`` and ``CON`` need a domain and a variable."""

    for tuples in (frozenset(), frozenset({()})):
        with pytest.raises(FormatError):
            Constraint(Relation(0, (), tuples), ())


def _rebuilt_through_constructor(real, built):
    """Wrap the derived-instance builder so every instance it makes is also
    built, and so checked, by ``Instance(...)``."""

    def wrapper(parent, variables, base_algebras, current_domains,
                constraints):
        fields = (variables, base_algebras, current_domains, constraints)
        assert all(type(f) is tuple for f in fields)
        assert all(type(d) is frozenset for d in current_domains)
        inst = real(parent, *fields)
        checked = Instance(*fields)
        assert checked.canonical_key() == inst.canonical_key()
        assert all(checked.index(v) == inst.index(v) for v in variables)
        built.append(inst)
        return inst

    return wrapper


def test_derived_instances_pass_the_constructor_checks(monkeypatch,
                                                       z4_example):
    families = [
        (2, 3, minority_table()),
        (2, 3, majority_table()),
        (2, 3, conjunction_table(3)),
        (3, 3, dual_discriminator_table()),
        (4, 5, sum_table(4, 5)),
        (3, 3, search_special_wnu(3, [], 3).table),
    ]
    instances = [
        random_instance(GenParams(n, m, 6, 6, 3, 100_000 + i,
                                  satisfiable_bias=bool(i % 2), wnu=t))[0]
        for n, m, t in families for i in range(8)
    ]

    def outcomes():
        # the solver reaches make_crucial only in rare Step 10 cases
        crucial = make_crucial(z4_example, even_class_unsat_oracle)
        return ([Solver().solve(inst) for inst in instances],
                crucial.canonical_key())

    plain = outcomes()
    built = []
    monkeypatch.setattr(instance_module, "_derived",
                        _rebuilt_through_constructor(
                            instance_module._derived, built))
    assert outcomes() == plain
    assert built


# --- derived data read from the instance ----------------------------------------


def test_apply_reduction_child_shares_its_parents_shape(z4_example):
    inst = Instance(z4_example.variables, z4_example.base_algebras,
                    z4_example.current_domains, z4_example.constraints)
    child = apply_reduction(inst, {"x1": {0, 2}})
    grandchild = apply_reduction(child, {"x2": {1, 3}})
    assert child.shape() is inst.shape() is grandchild.shape()
    assert fragment_variable_sets(grandchild) is fragment_variable_sets(inst)
    assert grandchild.canonical_key()[3] is inst.canonical_key()[3]
    assert inst.canonical_key() != grandchild.canonical_key()


def test_children_with_new_fields_get_their_own_shape(z4_example):
    inst = Instance(z4_example.variables, z4_example.base_algebras,
                    z4_example.current_domains, z4_example.constraints)
    reduced = apply_reduction(inst, {"x1": {0, 2}})
    children = [
        restrict_to_variables(inst, ("x1", "x2")),
        restrict_to_variables(inst, inst.variables),
        project_instance(reduced, ("x1", "x2")),
        weaken_all(reduced),
        make_crucial(inst, even_class_unsat_oracle),
    ]
    for child in children:
        assert child.shape() is not inst.shape()
        assert child.canonical_key() == Instance(
            child.variables, child.base_algebras, child.current_domains,
            child.constraints).canonical_key()
    assert len({id(child.shape()) for child in children}) == len(children)


def reference_effective(inst, c):
    """The constraint restricted to the current domains, built afresh."""

    idx = [inst.index(v) for v in c.scope]
    return restrict_relation(
        c.relation,
        tuple(restrict_algebra(inst.base_algebras[i], inst.current_domains[i])
              for i in idx),
        tuple(inst.current_domains[i] for i in idx))


def test_cached_reads_match_reference_on_solver_instances(solver_instances):
    """The instances were read by the solver already, so cached entries are
    what is checked; weaker candidates are constraints not in the
    instance."""

    reduced = 0
    for inst in solver_instances:
        for var, base, dom in zip(inst.variables, inst.base_algebras,
                                  inst.current_domains):
            assert inst.domain_algebra(var) == restrict_algebra(base, dom)
        reduced += any(len(d) < b.size for d, b in
                       zip(inst.current_domains, inst.base_algebras))
        for c in inst.constraints:
            eff = inst.effective(c)
            assert eff == reference_effective(inst, c)
            for sub, rel in minimal_weaker_relations(eff):
                cand = Constraint(rel, tuple(c.scope[i] for i in sub))
                assert inst.effective(cand) == reference_effective(inst, cand)
    assert reduced and len(solver_instances) > reduced


def test_canonical_key_matches_sort_per_instance(solver_instances):
    """The memo key reads each relation's cached sorted tuples; it equals
    the key that sorts every constraint's tuples for each instance."""

    for inst in solver_instances:
        want = (
            inst.variables,
            inst.base_algebras,
            tuple(tuple(sorted(d)) for d in inst.current_domains),
            tuple(sorted(
                (c.scope, c.relation.arity, tuple(sorted(c.relation.tuples)))
                for c in inst.constraints)),
        )
        assert inst.canonical_key() == want


def test_effective_of_temporary_constraints_with_reused_ids(z4):
    """Many constraints are made and dropped; a freed constraint's id is
    soon reused by a new one, which must not get the old relation."""

    vs = ("a", "b", "c")
    inst = apply_reduction(
        Instance(vs, (z4,) * 3, (frozenset(range(4)),) * 3, ()),
        {"a": {0, 2}, "c": {1, 3}})
    rng = random.Random(11)
    for _ in range(400):
        scope = tuple(rng.sample(vs, 2))
        tuples = {t for t in itertools.product(range(4), repeat=2)
                  if rng.random() < 0.5}
        c = Constraint(Relation(2, (z4, z4), tuples), scope)
        assert inst.effective(c) == reference_effective(inst, c)
        del c


def test_effective_after_reduction_reads_new_domains(z4_example):
    fields = (z4_example.variables, z4_example.base_algebras,
              z4_example.current_domains, z4_example.constraints)
    inst, unread = Instance(*fields), Instance(*fields)
    c = inst.constraints[2]   # x1 + x2 = 2 over Z4
    before = inst.effective(c)
    whole = inst.domain_algebra("x1")
    reduced = apply_reduction(inst, {"x1": {0, 2}})
    after = reduced.effective(c)
    assert after == reference_effective(reduced, c)
    assert after.tuples == {(0, 2), (2, 0)} < before.tuples
    assert reduced.domain_algebra("x1").elements == (0, 2)
    assert inst.effective(c) is before
    assert inst.domain_algebra("x1") is whole
    # what an instance keeps takes no part in equality, hash or memo key
    assert inst == unread and hash(inst) == hash(unread)
    assert inst.canonical_key() == unread.canonical_key()


def effective_satisfies(inst, assignment):
    """``assignment_satisfies`` as membership in the effective relations."""

    if any(assignment[v] not in inst.domain(v) for v in inst.variables):
        return False
    return all(tuple(assignment[v] for v in c.scope) in
               inst.effective(c).tuples for c in inst.constraints)


def test_assignment_satisfies_matches_effective_membership(solver_instances):
    """Every full assignment over the base carriers, values outside the
    current domains included, on the desk-size instances with at most
    4 096 such assignments."""

    outcomes = set()
    reduced = 0
    for inst in solver_instances:
        carriers = [b.elements for b in inst.base_algebras]
        if len(carriers) != 6 or prod(map(len, carriers)) > 4096:
            continue
        reduced += any(len(d) < b.size for d, b in
                       zip(inst.current_domains, inst.base_algebras))
        for values in itertools.product(*carriers):
            assignment = dict(zip(inst.variables, values))
            want = effective_satisfies(inst, assignment)
            assert inst.assignment_satisfies(assignment) == want
            outcomes.add(want)
    assert reduced and outcomes == {True, False}


def _arity_instance(maj2):
    """A unary, a binary and a ternary constraint over the majority
    algebra; an assignment inside all three, and per constraint one
    outside it alone."""

    pin = Relation(1, (maj2,), {(1,)})
    ne = Relation(2, (maj2,) * 2, {(0, 1), (1, 0)})
    three = Relation(3, (maj2,) * 3, {(0, 1, 0), (1, 0, 1), (1, 1, 1)})
    inst = Instance(("x", "y", "z"), (maj2,) * 3, (frozenset({0, 1}),) * 3,
                    (Constraint(pin, ("y",)), Constraint(ne, ("x", "y")),
                     Constraint(three, ("x", "y", "z"))))
    inside = {"x": 0, "y": 1, "z": 0}
    outside = [{"x": 1, "y": 0, "z": 1}, {"x": 1, "y": 1, "z": 1},
               {"x": 0, "y": 1, "z": 1}]
    return inst, inside, outside


def test_assignment_satisfies_on_each_arity(maj2):
    """With a shape and without one: an assignment inside every relation
    holds, one outside a unary, a binary or a ternary relation does not,
    and neither does one outside a current domain.  ``itemgetter`` of one
    key gives the value, not a one-tuple, so unary scopes need their own
    getter."""

    assert itemgetter("y")({"y": 1}) == 1
    inst, inside, outside = _arity_instance(maj2)
    with_shape = Instance(inst.variables, inst.base_algebras,
                          inst.current_domains, inst.constraints)
    with_shape.shape()
    for target in (inst, with_shape):
        assert target.assignment_satisfies(inside)
        for assignment in outside:
            assert not target.assignment_satisfies(assignment)
    reduced = apply_reduction(with_shape, {"z": {1}})
    assert not reduced.assignment_satisfies(inside)
    assert apply_reduction(with_shape, {"x": {0}}).assignment_satisfies(
        inside)


def test_scope_checks_are_built_once_per_shape(maj2, monkeypatch):
    """The instances ``apply_reduction`` derives share their root's checks,
    which are built on the first call; a call on an instance with no shape
    builds them for itself and leaves the instance without a shape."""

    built = []
    original = instance_module._scope_checks

    def recording(constraints):
        built.append(constraints)
        return original(constraints)

    monkeypatch.setattr(instance_module, "_scope_checks", recording)
    inst, inside, _ = _arity_instance(maj2)
    assert inst.assignment_satisfies(inside)
    assert inst.assignment_satisfies(inside)
    assert "_shape" not in inst.__dict__ and len(built) == 2
    shape = inst.shape()
    derived = apply_reduction(inst, {"x": {0}})
    for target in (inst, derived, inst, derived):
        assert target.assignment_satisfies(inside)
    assert len(built) == 3 and derived.shape() is shape
    assert shape.checks is not None
