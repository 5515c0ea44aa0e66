import itertools
import random

import pytest

from wnucsp.algebra import (
    conjunction_table,
    dual_discriminator_table,
    is_subuniverse,
    majority_table,
    make_algebra,
    maximal_congruences,
    minority_table,
    restrict_algebra,
    search_special_wnu,
    sum_table,
    wnu_closure,
)
from wnucsp.consistency import (
    _BITS,
    _propagate_congruence,
    build_pair_network,
    check_irreducibility,
    enforce_cycle_consistency,
    is_linked,
    linked_components,
    value_components,
    witness_cover,
)
from wnucsp import consistency as consistency_module
from wnucsp.errors import ArgumentError
from wnucsp.harness import GenParams, brute_force, random_instance
from wnucsp.instance import (
    Constraint,
    Instance,
    apply_reduction,
    fragment_variable_sets,
    project_instance,
)
from wnucsp.relation import Relation
from wnucsp import solver as solver_module
from wnucsp.solver import Solver, SolverConfig

import reference_consistency as reference
from conftest import linear_relation, solver_fixture_params
from helpers import full_relation, reference_witness_rows


def test_cc_contradictory_order_chain(maj2):
    le = Relation(2, (maj2, maj2), {(0, 0), (0, 1), (1, 1)})
    ne = Relation(2, (maj2, maj2), {(0, 1), (1, 0)})
    ge = Relation(2, (maj2, maj2), {(0, 0), (1, 0), (1, 1)})
    inst = Instance(("x", "y"), (maj2,) * 2, (frozenset({0, 1}),) * 2, (
        Constraint(le, ("x", "y")),
        Constraint(ge, ("x", "y")),
        Constraint(ne, ("x", "y")),
    ))
    result = enforce_cycle_consistency(inst)
    assert result.status == "nosolution"


def test_cc_single_full_constraint_unchanged(z2min):
    inst = Instance(("x", "y"), (z2min,) * 2, (frozenset({0, 1}),) * 2,
                    (Constraint(full_relation((z2min, z2min)), ("x", "y")),))
    result = enforce_cycle_consistency(inst)
    assert result.status == "ok"
    assert result.network.get(0, 1) == set(itertools.product(range(2), range(2)))


def test_cc_chain_propagates_pin(z2min):
    eq = Relation(2, (z2min, z2min), {(0, 0), (1, 1)})
    pin = Relation(1, (z2min,), {(0,)})
    inst = Instance(("x", "y", "z"), (z2min,) * 3, (frozenset({0, 1}),) * 3, (
        Constraint(eq, ("x", "y")),
        Constraint(eq, ("y", "z")),
        Constraint(pin, ("z",)),
    ))
    result = enforce_cycle_consistency(inst)
    assert result.status == "reduce"
    assert result.reduction == {v: frozenset({0}) for v in ("x", "y", "z")}


def test_cc_unary_only_instance(z2min):
    pin = Relation(1, (z2min,), {(1,)})
    inst = Instance(("x",), (z2min,), (frozenset({0, 1}),),
                    (Constraint(pin, ("x",)),))
    result = enforce_cycle_consistency(inst)
    assert result.status == "reduce"
    assert result.reduction == {"x": frozenset({1})}


def test_cc_fixpoint_and_triangle_properties(z2min, z4):
    """Re-running on the output changes nothing; the triangle inclusion
    holds at the fixpoint; no solution-participating value is dropped."""

    rng = random.Random(41)
    configs = [
        GenParams(2, 3, 5, 5, 3, 0, wnu=z2min.wnu),
        GenParams(4, 5, 4, 4, 3, 0, wnu=z4.wnu),
    ]
    checked = 0
    for base in configs:
        for i in range(40):
            params = GenParams(base.domain_size, base.wnu_arity,
                               base.n_variables, base.n_constraints,
                               base.max_arity, 7000 + i,
                               satisfiable_bias=bool(i % 2), wnu=base.wnu)
            inst, _ = random_instance(params)
            original = inst
            result = enforce_cycle_consistency(inst)
            while result.status == "reduce":
                inst = apply_reduction(inst, result.reduction)
                result = enforce_cycle_consistency(inst)
            # propagation never eliminates a value used by any solution
            for sol in brute_force(original, "all"):
                if result.status == "nosolution":
                    raise AssertionError("propagation dropped a solution")
                for i1, v in enumerate(inst.variables):
                    assert sol[v] in inst.current_domains[i1]
            if result.status != "ok":
                continue
            checked += 1
            again = enforce_cycle_consistency(inst)
            assert again.status == "ok"
            assert again.network.pairs == result.network.pairs
            net = result.network
            n = len(inst.variables)
            for i1 in range(n):
                for j1 in range(n):
                    if i1 == j1:
                        continue
                    for k in range(n):
                        if k in (i1, j1):
                            continue
                        rij = net.get(i1, j1)
                        rik = net.get(i1, k)
                        rkj = net.get(k, j1)
                        for a, b in rij:
                            assert any(
                                (a, c) in rik and (c, b) in rkj
                                for c in inst.current_domains[k]
                            )
            for sol in brute_force(inst, "all"):
                for i1 in range(n):
                    for j1 in range(n):
                        if i1 != j1:
                            pair = (sol[inst.variables[i1]],
                                    sol[inst.variables[j1]])
                            assert pair in net.get(i1, j1)
    assert checked >= 30


def test_cc_chain_reduces_in_one_step1_event(z2min):
    eq = Relation(2, (z2min, z2min), {(0, 0), (1, 1)})
    pin = Relation(1, (z2min,), {(0,)})
    inst = Instance(("x", "y", "z"), (z2min,) * 3, (frozenset({0, 1}),) * 3, (
        Constraint(eq, ("x", "y")),
        Constraint(eq, ("y", "z")),
        Constraint(pin, ("z",)),
    ))
    events = []
    outcome = Solver(SolverConfig(trace_sink=events.append)).solve(inst)
    assert outcome.assignment == {"x": 0, "y": 0, "z": 0}
    reduces = [ev for ev in events
               if ev.step == "1" and ev.detail.startswith("reduce")]
    assert len(reduces) == 1
    assert reduces[0].detail == "reduce x to [0], y to [0], z to [0]"


# --- Step 1 against the set-based reference ---------------------------------


def reference_cycle_consistency(inst):
    """The triangle-rule fixpoint on sets of element pairs, reducing one
    variable per round.  Returns (status, instance, pairs), the pairs
    keyed by (i, j) with i < j."""

    while True:
        n = len(inst.variables)
        doms = inst.current_domains
        effs = [(c.scope, inst.effective(c).tuples) for c in inst.constraints]
        if n == 1:
            good = set(doms[0])
            for _, tuples in effs:
                good &= {t[0] for t in tuples}
            if not good:
                return "nosolution", inst, None
            if good != doms[0]:
                inst = apply_reduction(inst, {inst.variables[0]: good})
                continue
            return "ok", inst, {}
        pairs = {}
        for i, j in itertools.combinations(range(n), 2):
            vi, vj = inst.variables[i], inst.variables[j]
            rel = set(itertools.product(doms[i], doms[j]))
            for scope, tuples in effs:
                if vi in scope:
                    rel = {(a, b) for a, b in rel
                           if a in {t[scope.index(vi)] for t in tuples}}
                if vj in scope:
                    rel = {(a, b) for a, b in rel
                           if b in {t[scope.index(vj)] for t in tuples}}
                if vi in scope and vj in scope:
                    rel &= {(t[scope.index(vi)], t[scope.index(vj)])
                            for t in tuples}
            pairs[(i, j)] = rel

        def get(i, j):
            if i < j:
                return pairs[(i, j)]
            return {(b, a) for a, b in pairs[(j, i)]}

        changed = True
        while changed:
            changed = False
            for (i, j), rel in pairs.items():
                for k in range(n):
                    if k in (i, j):
                        continue
                    rik, rkj = get(i, k), get(k, j)
                    keep = {(a, b) for a, b in rel
                            if any((a, c) in rik and (c, b) in rkj
                                   for c in doms[k])}
                    if keep != rel:
                        pairs[(i, j)] = rel = keep
                        changed = True
        if not all(pairs.values()):
            return "nosolution", inst, None
        reduced = False
        for (i, j), rel in sorted(pairs.items()):
            for k, proj in ((i, {a for a, _ in rel}), (j, {b for _, b in rel})):
                if proj != doms[k]:
                    inst = apply_reduction(inst, {inst.variables[k]: proj})
                    reduced = True
                    break
            if reduced:
                break
        if not reduced:
            return "ok", inst, pairs


def full_cycle_consistency(inst):
    """``enforce_cycle_consistency`` with every reduction applied at once,
    until it stops reducing.  Returns (result, instance, rounds)."""

    rounds = 0
    result = enforce_cycle_consistency(inst)
    while result.status == "reduce":
        rounds += 1
        inst = apply_reduction(inst, result.reduction)
        result = enforce_cycle_consistency(inst)
    return result, inst, rounds


def assert_matches_reference(inst):
    """The same final status; at "ok" the same domains and pair relations.
    (At "nosolution" the domains reached depend on the order of the
    reductions, so only the status is compared.)"""

    status, ref_inst, ref_pairs = reference_cycle_consistency(inst)
    result, got_inst, rounds = full_cycle_consistency(inst)
    assert result.status == status
    if status == "ok":
        assert got_inst.current_domains == ref_inst.current_domains
        assert result.network.pairs == ref_pairs
    return result.status, rounds


def random_mixed_instance(rng, algebras, n_variables, n_constraints,
                          max_arity, plant, closed):
    """Variables over algebras picked from ``algebras``.  A constraint is
    the WNU closure of a few random tuples when ``closed`` (so invariant),
    else a random subset of its product; the second needs conservative
    algebras, whose subsets are all subuniverses, so that every reduction
    is valid.  With ``plant`` every constraint holds the projection of one
    random assignment."""

    variables = tuple("v%d" % i for i in range(n_variables))
    bases = tuple(rng.choice(algebras) for _ in variables)
    planted = [rng.choice(alg.elements) for alg in bases]
    constraints = []
    for _ in range(n_constraints):
        arity = rng.randint(1, min(max_arity, n_variables))
        idx = rng.sample(range(n_variables), arity)
        coords = tuple(bases[i] for i in idx)
        if closed:
            tuples = {tuple(rng.choice(alg.elements) for alg in coords)
                      for _ in range(rng.randint(1, 3))}
        else:
            tuples = {t for t in itertools.product(
                *(alg.elements for alg in coords)) if rng.random() < 0.6}
        if plant:
            tuples.add(tuple(planted[i] for i in idx))
        if closed:
            tuples = wnu_closure(coords, tuples)
        constraints.append(Constraint(Relation(arity, coords, tuples),
                                      tuple(variables[i] for i in idx)))
    return Instance(variables, bases,
                    tuple(frozenset(alg.elements) for alg in bases),
                    tuple(constraints))


def test_cc_matches_reference_on_families():
    families = [
        (2, 3, minority_table()),
        (2, 3, majority_table()),
        (2, 3, conjunction_table(3)),
        (3, 3, dual_discriminator_table()),
        (4, 5, sum_table(4, 5)),
        (3, 3, None),   # the searched special WNUs
        (4, 3, None),
    ]
    statuses = set()
    for n, m, wnu in families:
        for i in range(12):
            params = GenParams(n, m, 5, 5, 3, 300_000 + i,
                               satisfiable_bias=bool(i % 2), wnu=wnu)
            inst, _ = random_instance(params)
            statuses.add(assert_matches_reference(inst)[0])
    assert statuses == {"ok", "nosolution"}


def mixed_carrier_instances(maj2, z2min, dd3):
    """Conservative algebras of sizes 2, 3 and 4, one of them over the
    element ids (3, 7, 9), with invariant and with arbitrary relations."""

    odd_ids = make_algebra((3, 7, 9), dual_discriminator_table())
    dd4 = make_algebra(range(4), dual_discriminator_table(4))
    rng = random.Random(17)
    for algebras, n_variables in (
            ((maj2, dd3), 5),
            ((z2min, dd3, dd4), 4),
            ((odd_ids,), 4),
            ((odd_ids, maj2, dd4), 5),
            ((maj2, dd3), 2),
            ((odd_ids, dd4), 2)):
        for i in range(40):
            yield random_mixed_instance(
                rng, algebras, n_variables, n_variables, 3,
                plant=i % 4 != 0, closed=i % 2 == 0)


def test_cc_matches_reference_on_mixed_carriers(maj2, z2min, dd3):
    statuses = {assert_matches_reference(inst)[0]
                for inst in mixed_carrier_instances(maj2, z2min, dd3)}
    assert statuses == {"ok", "nosolution"}


def reference_pair_network(inst):
    """The initial network built tuple by tuple from element ids: every
    constraint tuple inside the current domains is encoded afresh on each
    call.  Returns (domains, rows): ``domains[i]`` is the mask of the
    positions in variable i's domain and ``rows[i][j][a]`` the mask of the
    b with (a, b) in R_ij."""

    n = len(inst.variables)
    bases = inst.base_algebras
    positions = [{e: p for p, e in enumerate(alg.elements)} for alg in bases]
    sizes = [len(alg.elements) for alg in bases]
    current = [sum(1 << positions[i][e] for e in dom)
               for i, dom in enumerate(inst.current_domains)]
    domains = list(current)
    rows = [[None] * n for _ in range(n)]
    for c in inst.constraints:
        ks = [inst.index(v) for v in c.scope]
        arity = len(ks)
        unary = [0] * arity
        binary = {(p, q): [0] * sizes[ks[p]]
                  for p in range(arity) for q in range(arity) if p != q}
        for t in c.relation.tuples:
            at = [positions[k][e] for k, e in zip(ks, t)]
            if not all(current[k] >> a & 1 for k, a in zip(ks, at)):
                continue
            for p in range(arity):
                unary[p] |= 1 << at[p]
                for q in range(arity):
                    if q != p:
                        binary[(p, q)][at[p]] |= 1 << at[q]
        for k, mask in zip(ks, unary):
            domains[k] &= mask
        for (p, q), proj in binary.items():
            old = rows[ks[p]][ks[q]]
            rows[ks[p]][ks[q]] = proj if old is None else [
                x & y for x, y in zip(old, proj)]
    for i in range(n):
        for j in range(n):
            if j != i:
                row = rows[i][j]
                rows[i][j] = [(domains[j] if row is None
                               else row[a] & domains[j])
                              if domains[i] >> a & 1 else 0
                              for a in range(sizes[i])]
    return domains, rows


def network_content(net):
    """The domains as position masks, and every ordered pair decoded."""

    n = len(net.variables)
    domains = [sum(1 << a for a in range(len(elems)) if net.nodes[off + a])
               for off, elems in zip(net.offsets, net.elements)]
    return domains, {(i, j): net.get(i, j)
                     for i in range(n) for j in range(n) if i != j}


def reference_content(inst):
    """``network_content`` of ``reference_pair_network``."""

    domains, rows = reference_pair_network(inst)
    elements = [alg.elements for alg in inst.base_algebras]
    n = len(elements)
    return domains, {
        (i, j): {(elements[i][a], elements[j][b])
                 for a, row in enumerate(rows[i][j])
                 for b in range(len(elements[j])) if row >> b & 1}
        for i in range(n) for j in range(n) if i != j}


def test_pair_network_matches_per_tuple_reference(solver_instances):
    for inst in solver_instances:
        net = build_pair_network(inst)
        assert network_content(net) == reference_content(inst)


def test_step1_on_shared_layouts_matches_the_bit_rows(solver_instances):
    """Step 1 reads its tuple rows from the layout of the instance's
    shape, which the instances ``apply_reduction`` derived during the
    solves share with their parents.  Some instances take a layout that
    was built before for another instance, with constraints whose scope
    domains are all full (every row passes the filter) and constraints
    whose scope domains shrank (some rows are filtered out)."""

    owners = {}
    scopes = set()
    for inst in solver_instances:
        shape = inst.__dict__.get("_shape")
        if shape is not None and shape.pair_layout is not None and \
                owners.setdefault(id(shape), inst) is not inst:
            full = {v for v, d, b in zip(inst.variables,
                                         inst.current_domains,
                                         inst.base_algebras)
                    if len(d) == b.size}
            scopes.update(set(c.scope) <= full for c in inst.constraints)
        net = build_pair_network(inst)
        want = reference.build_pair_network(inst)
        assert network_content(net)[0] == want.domains
        assert net.pairs == want.pairs
        assert step1_outcome(enforce_cycle_consistency(inst)) == \
            step1_outcome(reference.enforce_cycle_consistency(inst))
    assert scopes == {True, False}


def test_pair_network_reads_positions_per_scope_bases(z4):
    """One relation object under two scopes: over the full Z4 base, element
    2 is position 2; over the subalgebra on {0, 2} it is position 1.  The
    cached positions must follow the scope's base algebras."""

    even = restrict_algebra(z4, frozenset({0, 2}))
    rel = Relation(2, (even, even), {(0, 2), (2, 0), (2, 2)})
    over_full = Instance(("x", "y"), (z4, z4), (frozenset(range(4)),) * 2,
                         (Constraint(rel, ("x", "y")),))
    over_even = Instance(("x", "y"), (even, even), (frozenset({0, 2}),) * 2,
                         (Constraint(rel, ("x", "y")),))
    for inst in (over_full, over_even, over_full):
        net = build_pair_network(inst)
        assert network_content(net) == reference_content(inst)
        assert net.get(0, 1) == set(rel.tuples)
    assert network_content(build_pair_network(over_full))[0] == [0b101] * 2
    assert network_content(build_pair_network(over_even))[0] == [0b11] * 2


def test_cc_ternary_instance_needs_two_rounds(maj2):
    """x + y + z = 1 over {0, 1} with y = 0 and z = w, w = 0: the first
    round reduces y, z and w; only then does the ternary constraint lose
    the tuples that supported x = 0 through the pair network."""

    one_hot = Relation(3, (maj2,) * 3, {(1, 0, 0), (0, 1, 0), (0, 0, 1)})
    y_zero = Relation(2, (maj2,) * 2, {(0, 0), (1, 0)})
    eq = Relation(2, (maj2,) * 2, {(0, 0), (1, 1)})
    pin = Relation(1, (maj2,), {(0,)})
    inst = Instance(("x", "y", "z", "w"), (maj2,) * 4,
                    (frozenset({0, 1}),) * 4, (
                        Constraint(one_hot, ("x", "y", "z")),
                        Constraint(y_zero, ("x", "y")),
                        Constraint(eq, ("z", "w")),
                        Constraint(pin, ("w",)),
                    ))
    first = enforce_cycle_consistency(inst)
    assert first.reduction == {v: frozenset({0}) for v in ("y", "z", "w")}
    assert assert_matches_reference(inst) == ("ok", 2)
    result, reduced, _ = full_cycle_consistency(inst)
    assert reduced.current_domains == (frozenset({1}),) + (frozenset({0}),) * 3


# --- Step 1 and the components against the bit-row, union-find code -------


def step1_outcome(result):
    pairs = result.network.pairs if result.network is not None else None
    return result.status, result.reduction, pairs


def assert_step1_matches_bit_rows(inst):
    """Equal status, reduction and pairs on ``inst`` and on each instance
    its reductions lead to.  Returns the statuses seen."""

    statuses = []
    while True:
        result = enforce_cycle_consistency(inst)
        assert step1_outcome(result) == step1_outcome(
            reference.enforce_cycle_consistency(inst))
        statuses.append(result.status)
        if result.status != "reduce":
            return statuses
        inst = apply_reduction(inst, result.reduction)


def test_cc_matches_bit_rows_on_solver_instances(solver_instances):
    statuses = set()
    for inst in solver_instances:
        statuses.update(assert_step1_matches_bit_rows(inst))
    assert statuses == {"ok", "reduce", "nosolution"}


def test_cc_matches_bit_rows_on_mixed_carriers(maj2, z2min, dd3):
    statuses = set()
    for inst in mixed_carrier_instances(maj2, z2min, dd3):
        statuses.update(assert_step1_matches_bit_rows(inst))
    assert statuses == {"ok", "reduce", "nosolution"}


def test_cc_matches_bit_rows_on_one_two_and_three_variables(maj2, z2min,
                                                             dd3):
    odd_ids = make_algebra((3, 7, 9), dual_discriminator_table())
    rng = random.Random(23)
    for n_variables in (1, 2, 3):
        statuses = set()
        for i in range(60):
            inst = random_mixed_instance(
                rng, (maj2, z2min, dd3, odd_ids), n_variables,
                rng.randint(1, 4), 3, plant=i % 3 != 0, closed=i % 2 == 0)
            statuses.update(assert_step1_matches_bit_rows(inst))
        assert statuses == {"ok", "reduce", "nosolution"}


# --- Step 1 restarted from the previous round's network ------------------


def assert_restart_matches_scratch(inst, start):
    """Step 1 on ``inst`` from ``start`` and from scratch: equal status,
    reduction, pairs and components, equal pair rows, and equal union rows
    at every live node.  A node the fixpoint drops may keep its own bit in
    its union rows from ``start``.  Returns the result from ``start``."""

    got = enforce_cycle_consistency(inst, start)
    want = enforce_cycle_consistency(inst)
    assert step1_outcome(got) == step1_outcome(want)
    if want.network is not None:
        net, scratch = got.network, want.network
        assert net.nodes == scratch.nodes
        for rows in ("links", "narrow"):
            assert [row for q, row in enumerate(getattr(net, rows))
                    if net.nodes[q]] == \
                [row for q, row in enumerate(getattr(scratch, rows))
                 if scratch.nodes[q]]
        assert value_components(inst, net) == value_components(inst, scratch)
    return got


def random_subuniverse_reduction(rng, inst, network):
    """One or two variables reduced to random nonempty proper subuniverses
    inside the live nodes of ``network``, as Steps 4-6 reduce, or None
    when every domain is a singleton."""

    choices = []
    for i, var in enumerate(inst.variables):
        elems, off = network.elements[i], network.offsets[i]
        live = [e for a, e in enumerate(elems) if network.nodes[off + a]]
        subs = [frozenset(s) for r in range(1, len(live))
                for s in itertools.combinations(live, r)
                if is_subuniverse(inst.base_algebras[i], frozenset(s))]
        if subs:
            choices.append((var, subs))
    if not choices:
        return None
    picked = rng.sample(choices, min(len(choices), rng.randint(1, 2)))
    return {var: rng.choice(subs) for var, subs in picked}


def assert_restarts_match_scratch(inst, rng):
    """Step 1 on ``inst``, then from each network on the instance its
    reduction leads to, or, when it passes, on the instance reduced to
    random subuniverses inside its live nodes.  Returns the statuses seen
    from a start."""

    statuses = []
    start = None
    while True:
        result = assert_restart_matches_scratch(inst, start)
        if start is not None:
            statuses.append(result.status)
        if result.status == "nosolution":
            return statuses
        reduction = result.reduction
        if result.status == "ok":
            reduction = random_subuniverse_reduction(rng, inst,
                                                     result.network)
            if reduction is None:
                return statuses
        inst, start = apply_reduction(inst, reduction), result.network


def test_restart_matches_scratch_on_solver_instances(solver_instances):
    rng = random.Random(30)
    statuses = set()
    for inst in solver_instances:
        statuses.update(assert_restarts_match_scratch(inst, rng))
    assert statuses == {"ok", "reduce", "nosolution"}


def test_restart_matches_scratch_on_mixed_carriers(maj2, z2min, dd3):
    rng = random.Random(31)
    odd_ids = make_algebra((3, 7, 9), dual_discriminator_table())
    statuses = set()
    for inst in mixed_carrier_instances(maj2, z2min, dd3):
        statuses.update(assert_restarts_match_scratch(inst, rng))
    for i in range(120):
        inst = random_mixed_instance(
            rng, (maj2, z2min, dd3, odd_ids), rng.randint(1, 6),
            rng.randint(1, 6), 3, plant=i % 3 != 0, closed=i % 2 == 0)
        statuses.update(assert_restarts_match_scratch(inst, rng))
    assert statuses == {"ok", "reduce", "nosolution"}


def test_restart_scans_the_wide_constraints(maj2):
    """The first round reduces y, z and w; restarted from its network, the
    ternary constraint alone cuts the pairs that supported x = 0."""

    one_hot = Relation(3, (maj2,) * 3, {(1, 0, 0), (0, 1, 0), (0, 0, 1)})
    y_zero = Relation(2, (maj2,) * 2, {(0, 0), (1, 0)})
    eq = Relation(2, (maj2,) * 2, {(0, 0), (1, 1)})
    pin = Relation(1, (maj2,), {(0,)})
    inst = Instance(("x", "y", "z", "w"), (maj2,) * 4,
                    (frozenset({0, 1}),) * 4, (
                        Constraint(one_hot, ("x", "y", "z")),
                        Constraint(y_zero, ("x", "y")),
                        Constraint(eq, ("z", "w")),
                        Constraint(pin, ("w",)),
                    ))
    first = enforce_cycle_consistency(inst)
    assert first.status == "reduce" and first.network is not None
    reduced = apply_reduction(inst, first.reduction)
    second = assert_restart_matches_scratch(reduced, first.network)
    assert second.reduction == {"x": frozenset({1})}
    third = assert_restart_matches_scratch(
        apply_reduction(reduced, second.reduction), second.network)
    assert third.status == "ok"


def test_restart_from_an_unchanged_fixpoint_runs_no_sweep(maj2,
                                                          monkeypatch):
    """Restarted on the live nodes of a binary instance's network, the
    build changes no row, so the fixpoint is the start's rows: ``_BITS``,
    which every sweep reads, is not read."""

    le = Relation(2, (maj2, maj2), {(0, 0), (0, 1), (1, 1)})
    pin = Relation(1, (maj2,), {(1,)})
    inst = Instance(("x", "y", "z"), (maj2,) * 3, (frozenset({0, 1}),) * 3,
                    (Constraint(le, ("x", "y")), Constraint(le, ("y", "z")),
                     Constraint(pin, ("x",))))
    first = enforce_cycle_consistency(inst)
    assert first.reduction == {v: frozenset({1}) for v in ("x", "y", "z")}
    reduced = apply_reduction(inst, first.reduction)

    class Unread(dict):
        def __missing__(self, mask):
            raise AssertionError("a sweep ran")

    monkeypatch.setattr(consistency_module, "_BITS", Unread())
    second = enforce_cycle_consistency(reduced, first.network)
    assert second.status == "ok"
    assert second.network.nodes == first.network.nodes


def test_restart_refuses_a_start_without_the_current_domains(maj2):
    le = Relation(2, (maj2, maj2), {(0, 0), (0, 1), (1, 1)})
    inst = Instance(("x", "y"), (maj2,) * 2, (frozenset({0, 1}),) * 2,
                    (Constraint(le, ("x", "y")),))
    smaller = apply_reduction(inst, {"x": frozenset({1})})
    start = enforce_cycle_consistency(smaller).network
    with pytest.raises(ArgumentError):
        enforce_cycle_consistency(inst, start)
    with pytest.raises(ArgumentError):
        build_pair_network(inst, start)
    other = Instance(("x", "z"), (maj2,) * 2, (frozenset({0, 1}),) * 2,
                     (Constraint(le, ("x", "z")),))
    with pytest.raises(ArgumentError):
        enforce_cycle_consistency(
            other, enforce_cycle_consistency(inst).network)
    assert assert_restart_matches_scratch(
        smaller, enforce_cycle_consistency(inst).network).reduction == {
            "y": frozenset({1})}


def test_solver_restarts_step1_from_an_earlier_network(monkeypatch):
    """Every start the solver hands Step 1 is a network an earlier Step 1
    call returned, and gives the result from scratch."""

    calls = []
    original = solver_module.enforce_cycle_consistency

    def recording(inst, start=None):
        if start is not None:
            assert any(start is net for _, net in calls)
            assert step1_outcome(original(inst, start)) == \
                step1_outcome(original(inst))
        result = original(inst, start)
        calls.append((start is not None, result.network))
        return result

    monkeypatch.setattr(solver_module, "enforce_cycle_consistency",
                        recording)
    for params in solver_fixture_params():
        Solver().solve(random_instance(params)[0])
    assert {restarted for restarted, _ in calls} == {True, False}


# --- the masks a network carries -------------------------------------------


def current_mask(inst):
    """The nodes in the current domains, from the base carriers."""

    mask, off = 0, 0
    for alg, dom in zip(inst.base_algebras, inst.current_domains):
        for a, e in enumerate(alg.elements):
            if e in dom:
                mask |= 1 << off + a
        off += alg.size
    return mask


def assert_masks_hold(inst, net):
    """``alive`` is the set of nodes with a nonzero pair row, no row holds
    a node outside it, ``current`` is the mask of the current domains, and
    the components read from ``net`` are those of a fresh build."""

    assert net.alive == sum(1 << q for q, row in enumerate(net.nodes) if row)
    assert all(not row & ~net.alive for row in net.nodes)
    assert net.current == current_mask(inst)
    assert value_components(inst, net) == value_components(inst)


def test_networks_carry_their_live_and_current_masks(solver_instances):
    """On the Step 1 chain of every solver instance, from scratch and from
    the previous call's network: the build's masks, and the masks after
    the sweep, hold.  The chains cover nodes stripped by the scan, nodes
    dropped by the sweep and builds in which a node died."""

    seen = set()
    for inst in solver_instances:
        start = None
        while True:
            for base in (None,) if start is None else (None, start):
                net = build_pair_network(inst, base)
                assert_masks_hold(inst, net)
                seen.add(("build", net.alive != net.current))
                result = enforce_cycle_consistency(inst, base)
                if result.network is not None:
                    assert_masks_hold(inst, result.network)
                    seen.add(("sweep", result.network.alive != net.alive))
            if result.status != "reduce":
                break
            inst, start = apply_reduction(inst, result.reduction), \
                result.network
    assert seen == {("build", False), ("build", True), ("sweep", False),
                    ("sweep", True)}


def assert_components_match_union_find(inst):
    want = reference.value_components(inst)
    assert value_components(inst) == want
    assert value_components(inst, build_pair_network(inst)) == want
    result = enforce_cycle_consistency(inst)
    if result.status == "ok":
        assert value_components(inst, result.network) == want
    return want


def test_value_components_match_union_find(solver_instances, linked_checks):
    counts = {len(assert_components_match_union_find(inst))
              for inst in solver_instances + linked_checks}
    assert 1 in counts and max(counts) > 2


def test_components_join_values_the_projection_meet_splits(maj2):
    """x <= y and x >= y: the AND of the two projections is x = y, two
    components, while their tuples (0, 1) and (1, 0) join all four
    values."""

    le = Relation(2, (maj2, maj2), {(0, 0), (0, 1), (1, 1)})
    ge = Relation(2, (maj2, maj2), {(0, 0), (1, 0), (1, 1)})
    inst = Instance(("x", "y"), (maj2,) * 2, (frozenset({0, 1}),) * 2,
                    (Constraint(le, ("x", "y")), Constraint(ge, ("x", "y"))))
    result = enforce_cycle_consistency(inst)
    assert result.status == "ok"
    assert result.network.get(0, 1) == {(0, 0), (1, 1)}
    whole = (frozenset(itertools.product(("x", "y"), (0, 1))),)
    assert assert_components_match_union_find(inst) == whole
    assert value_components(inst, result.network) == whole


def test_components_keep_pairs_the_fixpoint_drops(maj2):
    """x and y unrelated but for a full constraint, both equal to z: the
    fixpoint cuts R_xy to x = y without shrinking a domain, while the
    full constraint's tuples keep every value in one component."""

    eq = Relation(2, (maj2, maj2), {(0, 0), (1, 1)})
    inst = Instance(("x", "y", "z"), (maj2,) * 3, (frozenset({0, 1}),) * 3, (
        Constraint(full_relation((maj2, maj2)), ("x", "y")),
        Constraint(eq, ("x", "z")),
        Constraint(eq, ("y", "z")),
    ))
    assert build_pair_network(inst).get(0, 1) == set(
        itertools.product((0, 1), (0, 1)))
    result = enforce_cycle_consistency(inst)
    assert result.status == "ok"
    assert result.network.get(0, 1) == {(0, 0), (1, 1)}
    whole = (frozenset(itertools.product(("x", "y", "z"), (0, 1))),)
    assert assert_components_match_union_find(inst) == whole
    assert value_components(inst, result.network) == whole


def test_bit_table_holds_only_one_variables_blocks(z4):
    """A 24-variable planted Z4 instance spans 96 nodes; the bit table
    must still only see masks of one 4-element block."""

    params = GenParams(4, 5, 24, 24, 3, 100_016, satisfiable_bias=True,
                       wnu=z4.wnu)
    inst, _ = random_instance(params)
    _BITS.clear()
    assert Solver().solve(inst).kind == "sat"
    assert _BITS and all(mask < 1 << 4 for mask in _BITS)


def test_linked_components_equality(z2min):
    eq = Relation(2, (z2min, z2min), {(0, 0), (1, 1)})
    inst = Instance(("x", "y"), (z2min,) * 2, (frozenset({0, 1}),) * 2,
                    (Constraint(eq, ("x", "y")),))
    comps = linked_components(inst)
    assert set(comps) == {
        frozenset({("x", 0), ("y", 0)}),
        frozenset({("x", 1), ("y", 1)}),
    }
    assert not is_linked(inst)


def test_linked_components_full(z2min):
    inst = Instance(("x", "y"), (z2min,) * 2, (frozenset({0, 1}),) * 2,
                    (Constraint(full_relation((z2min, z2min)), ("x", "y")),))
    assert len(linked_components(inst)) == 1
    assert is_linked(inst)


def test_linked_components_z4_example(z4_example):
    comps = linked_components(z4_example)
    assert len(comps) == 1
    assert is_linked(z4_example)


def test_linked_components_rejects_fragmented(z2min):
    eq = Relation(2, (z2min, z2min), {(0, 0), (1, 1)})
    inst = Instance(("a", "b", "c", "d"), (z2min,) * 4,
                    (frozenset({0, 1}),) * 4,
                    (Constraint(eq, ("a", "b")), Constraint(eq, ("c", "d"))))
    with pytest.raises(ArgumentError):
        linked_components(inst)


def test_components_mutually_unreachable(z4):
    rel = linear_relation(z4, (1, 3), 0)  # x = y over Z4
    inst = Instance(("x", "y"), (z4, z4), (frozenset(range(4)),) * 2,
                    (Constraint(rel, ("x", "y")),))
    comps = linked_components(inst)
    seen = set()
    for comp in comps:
        assert not (comp & seen)
        seen |= comp
        # internal connectivity: every node reachable from the first
        nodes = sorted(comp)
        start = nodes[0]
        reach = {start}
        changed = True
        while changed:
            changed = False
            for c in inst.constraints:
                eff = inst.effective(c)
                for t in eff.tuples:
                    cells = list(zip(c.scope, t))
                    if any(cell in reach for cell in cells):
                        for cell in cells:
                            if cell in comp and cell not in reach:
                                reach.add(cell)
                                changed = True
        assert reach == comp


# --- irreducibility ----------------------------------------------------------


def _solver_callback():
    solver = Solver()
    return lambda sub: solver.solve(sub).assignment


def test_irreducibility_all_full_ok(z2min):
    inst = Instance(("x", "y"), (z2min,) * 2, (frozenset({0, 1}),) * 2,
                    (Constraint(full_relation((z2min, z2min)), ("x", "y")),))
    assert check_irreducibility(inst, _solver_callback()).status == "ok"


def test_irreducibility_mod2_chain_reduction(z4):
    eq = linear_relation(z4, (1, 3), 0)  # x = y
    inst = Instance(("x", "y"), (z4, z4),
                    (frozenset({0, 2}), frozenset(range(4))),
                    (Constraint(eq, ("x", "y")),))
    result = check_irreducibility(inst, _solver_callback())
    assert result.status == "reduce"
    assert result.reduction == {"y": frozenset({0, 2})}


def test_irreducibility_class_conflict(z4):
    eq = linear_relation(z4, (1, 3), 0)
    inst = Instance(("x", "y"), (z4, z4),
                    (frozenset({0, 2}), frozenset({1, 3})),
                    (Constraint(eq, ("x", "y")),))
    # effective relation is empty; cycle-consistency would catch it, and the
    # irreducibility analysis reports no solution
    result = check_irreducibility(inst, _solver_callback())
    assert result.status == "nosolution"


def test_irreducibility_golden_instance_passes(z4_example):
    assert check_irreducibility(z4_example, _solver_callback()).status == "ok"


def test_irreducibility_pinned_solution_witnesses_another_member(z4):
    # x = y over Z4: the mod-2 congruence links x and y, and the solution
    # through each value of x also assigns that value to y
    eq = linear_relation(z4, (1, 3), 0)
    inst = Instance(("x", "y"), (z4, z4), (frozenset(range(4)),) * 2,
                    (Constraint(eq, ("x", "y")),))
    handed = []

    def callback(sub):
        handed.append(sub)
        return brute_force(sub)

    assert check_irreducibility(inst, callback).status == "ok"
    assert [sub.current_domains for sub in handed] == [
        (frozenset({a}), frozenset(range(4))) for a in range(4)]


def reference_propagate_congruence(inst, start, sigma_start):
    """Step 2's congruence propagation with the transported relation built
    pair by pair and tested for transitivity over all pairs of pairs."""

    sigmas = {start: sigma_start}
    corr = {start: {ci: set(block) for ci, block in enumerate(sigma_start)}}
    changed = True
    while changed:
        changed = False
        for c in inst.constraints:
            scope_in = [v for v in c.scope if v in sigmas]
            scope_out = [v for v in c.scope if v not in sigmas]
            if not scope_in or not scope_out:
                continue
            eff = inst.effective(c)
            for vi in scope_in:
                for vj in scope_out:
                    pi, pj = c.scope.index(vi), c.scope.index(vj)
                    delta = {(t[pi], t[pj]) for t in eff.tuples}
                    kern_i = {e: bi for bi, block in enumerate(sigmas[vi])
                              for e in block}
                    dom_j = sorted(inst.domain(vj))
                    related = {(y1, y2) for x1, y1 in delta
                               for x2, y2 in delta
                               if x1 in kern_i and x2 in kern_i
                               and kern_i[x1] == kern_i[x2]}
                    if not all((y, y) in related for y in dom_j):
                        continue
                    if not all((b, a) in related for a, b in related):
                        continue
                    if any(b == bb and (a, cc) not in related
                           for a, b in related for bb, cc in related):
                        continue
                    blocks_j = []
                    left = set(dom_j)
                    while left:
                        a = min(left)
                        blk = {b for b in dom_j if (a, b) in related}
                        blocks_j.append(tuple(sorted(blk)))
                        left -= blk
                    if len(blocks_j) < 2:
                        continue
                    sigmas[vj] = tuple(blocks_j)
                    corr[vj] = {
                        ci: {y for x, y in delta
                             if x in corr[vi].get(ci, set())}
                        for ci in range(len(sigma_start))}
                    changed = True
            if changed:
                break
    return sigmas, corr


def test_propagate_congruence_matches_pairwise_reference(solver_instances,
                                                         maj2, dd3):
    """On the solver's instances of the seeded families, and on random
    relations over conservative algebras, whose class images overlap in
    part, so that the transported relation is often not transitive."""

    rng = random.Random(23)
    dd4 = make_algebra(range(4), dual_discriminator_table(4))
    arbitrary = [random_mixed_instance(rng, (maj2, dd3, dd4), 4, 4, 3,
                                       plant=True, closed=False)
                 for _ in range(60)]
    grown = 0
    for inst in solver_instances + tuple(arbitrary):
        for var, dom in zip(inst.variables, inst.current_domains):
            if len(dom) < 2:
                continue
            for sigma in maximal_congruences(inst.domain_algebra(var)):
                got = _propagate_congruence(inst, var, sigma.blocks)
                assert got == reference_propagate_congruence(
                    inst, var, sigma.blocks)[0]
                grown += len(got) > 1
    assert grown


def reference_check_irreducibility(inst, solve_callback):
    """Step 2 with no skips: for every variable and maximal congruence, the
    projection onto the linked set is built and solved per value, one
    variable or many.  Returns (status, reduction)."""

    for k, var in enumerate(inst.variables):
        if len(inst.current_domains[k]) < 2:
            continue
        for sigma in maximal_congruences(inst.domain_algebra(var)):
            sigmas, corr = reference_propagate_congruence(
                inst, var, sigma.blocks)
            members = sorted(sigmas)
            proj = project_instance(inst, members)
            for vi in members:
                good = set()
                for a in sorted(inst.domain(vi)):
                    for ci in range(len(sigma.blocks)):
                        if a not in corr[vi].get(ci, set()):
                            continue
                        reduction = {}
                        for vj in members:
                            blk = frozenset({a}) if vj == vi else (
                                frozenset(corr[vj].get(ci, set()))
                                & inst.domain(vj))
                            if not blk:
                                break
                            reduction[vj] = blk
                        else:
                            if solve_callback(apply_reduction(proj,
                                                              reduction)):
                                good.add(a)
                                break
                if not good:
                    return "nosolution", {}
                if good != inst.domain(vi):
                    return "reduce", {vi: frozenset(good)}
    return "ok", {}


def _no_single_variable_callback(solver):
    def callback(sub):
        if len(sub.variables) == 1:
            pytest.fail("the callback was handed a one-variable instance")
        return solver.solve(sub).assignment
    return callback


def test_irreducibility_equals_the_unskipped_loop(linked_checks,
                                                  solver_instances):
    """Where the solver runs Step 2 (one linked component), and on the
    instances the solver is called on, before Step 1 has run, where
    one-variable sets reduce."""

    one_component = [inst for inst in linked_checks
                     if len(value_components(inst)) == 1]
    solver = Solver()
    callback = _no_single_variable_callback(solver)
    statuses = set()
    for inst in one_component + list(solver_instances[::7]):
        got = check_irreducibility(inst, callback)
        want = reference_check_irreducibility(
            inst, lambda sub: solver.solve(sub).satisfiable)
        assert (got.status, got.reduction) == want
        statuses.add(got.status)
    assert statuses == {"ok", "reduce", "nosolution"}


def test_irreducibility_never_calls_back_on_one_variable_sets(linked_checks):
    one_variable_sets = 0
    solver = Solver()
    callback = _no_single_variable_callback(solver)
    for inst in linked_checks:
        if len(value_components(inst)) > 1:
            continue
        for var, dom in zip(inst.variables, inst.current_domains):
            if len(dom) > 1:
                one_variable_sets += sum(
                    len(_propagate_congruence(inst, var, sigma.blocks)) == 1
                    for sigma in maximal_congruences(
                        inst.domain_algebra(var)))
        assert check_irreducibility(inst, callback).status == "ok"
    assert one_variable_sets


def test_irreducibility_empty_relation_on_one_variable_set(z4):
    eq = linear_relation(z4, (1, 3), 0)
    inst = Instance(("x", "y"), (z4, z4),
                    (frozenset({0, 2}), frozenset({1, 3})),
                    (Constraint(eq, ("x", "y")),))
    assert inst.effective(inst.constraints[0]).is_empty
    assert len(_propagate_congruence(
        inst, "x", maximal_congruences(inst.domain_algebra("x"))[0].blocks
    )) == 1
    result = check_irreducibility(inst, _no_single_variable_callback(Solver()))
    assert result.status == "nosolution"


def _family(inst):
    """The seeded family of a ``solver_recording`` instance."""

    alg = inst.base_algebras[0]
    if alg.size == 4 and alg.wnu == sum_table(4, 5):
        return "z4"
    if alg.size == 3 and alg.wnu == dual_discriminator_table():
        return "dd3"
    return "searched%d" % alg.size if alg.size > 2 else "boolean"


def test_irreducibility_pins_one_value_of_each_linked_set_once(linked_checks):
    """Inside one call, every instance handed to the callback is the
    projection onto its variables with exactly one variable pinned, no
    instance is handed over twice, and the calls for one linked set form
    one run, so no linked set is checked twice."""

    solver = Solver()
    families = set()
    for inst in linked_checks:
        handed = []

        def callback(sub):
            handed.append(sub)
            return solver.solve(sub).assignment

        check_irreducibility(inst, callback)
        runs = []
        for sub in handed:
            proj = project_instance(inst, sub.variables)
            pinned = [v for v, dom, full in zip(sub.variables,
                                                sub.current_domains,
                                                proj.current_domains)
                      if dom != full]
            assert len(pinned) == 1
            assert len(sub.domain(pinned[0])) == 1
            assert sub == apply_reduction(
                proj, {pinned[0]: sub.domain(pinned[0])})
            if not runs or runs[-1] != sub.variables:
                runs.append(sub.variables)
        assert len(set(handed)) == len(handed)
        assert len(set(runs)) == len(runs)
        if handed:
            families.add(_family(inst))
    assert {"z4", "searched3", "searched4"} <= families


def test_irreducibility_matches_the_class_reductions_by_brute_force(maj2,
                                                                    dd3):
    """Differential against the class-by-class Step 2, both deciding the
    sub-instances by brute force, on random relations over conservative
    algebras, where the class images of a linked set often overlap."""

    rng = random.Random(23)
    dd4 = make_algebra(range(4), dual_discriminator_table(4))
    instances = [random_mixed_instance(rng, (maj2, dd3, dd4), 4, 4, 3,
                                       plant=True, closed=False)
                 for _ in range(60)]

    handed = []

    def oracle(sub):
        return brute_force(sub) is not None

    def recording_oracle(sub):
        handed.append(sub)
        return brute_force(sub)

    overlapping = 0
    for inst in instances:
        got = check_irreducibility(inst, recording_oracle)
        assert (got.status, got.reduction) == \
            reference_check_irreducibility(inst, oracle)
        for var, dom in zip(inst.variables, inst.current_domains):
            if len(dom) < 2:
                continue
            for sigma in maximal_congruences(inst.domain_algebra(var)):
                corr = reference_propagate_congruence(
                    inst, var, sigma.blocks)[1]
                overlapping += any(
                    sum(map(len, images.values()))
                    > len(set().union(*images.values()))
                    for images in corr.values())
    assert overlapping
    assert any(len(sub.variables) > 1 for sub in handed)


# ---------------------------------------------------------------------------
# witnesses


def _step1_fixpoint(inst):
    """``inst`` reduced by Step 1 until it passes, with its network, or
    None when Step 1 finds no solution."""

    while True:
        res = enforce_cycle_consistency(inst)
        if res.status == "ok":
            return inst, res.network
        if res.status == "nosolution":
            return None
        inst = apply_reduction(inst, res.reduction)


def test_witness_cover_matches_brute_force(monkeypatch):
    """With a budget the search cannot exhaust, the cover is found exactly
    when every value of every variable occurs in some solution, on
    random instances of the five desk families and the searched special
    WNUs on 3 and 4 elements, at 5 and 6 variables, planted and not.  The
    seed window holds the planted Z4 seed 100 075, which passes Step 1
    with values that no solution assigns."""

    monkeypatch.setattr(consistency_module, "WITNESS_NODES", 10 ** 6)
    families = ((2, 3, minority_table()), (2, 3, majority_table()),
                (2, 3, conjunction_table(3)),
                (3, 3, dual_discriminator_table()), (4, 5, sum_table(4, 5)),
                (3, 3, search_special_wnu(3, [], 3).table),
                (4, 3, search_special_wnu(4, [], 3).table))
    answers = []
    for n, m, table in families:
        for i in range(12):
            size = 6 - i // 2 % 2
            params = GenParams(n, m, size, size, 3, 100_070 + i,
                               satisfiable_bias=i % 2 == 1, wnu=table)
            passed = _step1_fixpoint(random_instance(params)[0])
            if passed is None:
                continue
            inst, network = passed
            assigned = {(v, a) for sol in brute_force(inst, "all")
                        for v, a in sol.items()}
            want = all((v, a) in assigned for v, dom
                       in zip(inst.variables, inst.current_domains)
                       for a in dom)
            assert witness_cover(inst, network) == want
            answers.append(want)
    assert True in answers and False in answers


def test_witness_cover_passes_steps_2_and_3(solver_instances, monkeypatch):
    """On every instance the solver is called on that passes Step 1 and is
    linked, a cover means that Step 2 answers "ok" and Step 3 passes.  With
    no budget there is no cover."""

    solver = Solver()
    covered = 0
    for inst in solver_instances:
        if (len(fragment_variable_sets(inst)) > 1 or not inst.constraints
                or inst.all_singleton()):
            continue
        res = enforce_cycle_consistency(inst)
        if res.status != "ok" or len(value_components(inst,
                                                      res.network)) > 1:
            continue
        if witness_cover(inst, res.network):
            covered += 1
            assert check_irreducibility(
                inst, lambda sub: solver._solve(sub, 1, 0)[1]).status == "ok"
            assert solver._step3(inst, 0, 0) is None
            with monkeypatch.context() as patch:
                patch.setattr(consistency_module, "WITNESS_NODES", 0)
                assert not witness_cover(inst, res.network)
    assert covered


def test_witness_budget_counts_every_value_tried(z2min, monkeypatch):
    """x = y = z over Z2 takes two witnesses, 000 and 111, of three search
    nodes each: the pinned value of x and the values of y and z."""

    eq3 = Relation(3, (z2min,) * 3, {(0, 0, 0), (1, 1, 1)})
    inst = Instance(("x", "y", "z"), (z2min,) * 3, (frozenset({0, 1}),) * 3,
                    (Constraint(eq3, ("x", "y", "z")),))
    network = enforce_cycle_consistency(inst).network
    for budget, covered in ((6, True), (5, False), (0, False)):
        monkeypatch.setattr(consistency_module, "WITNESS_NODES", budget)
        assert witness_cover(inst, network) == covered


def _node_row(network, assignment):
    """The bit row of the nodes of ``assignment``, aligned with the
    network's variables."""

    return sum(1 << off + elems.index(a) for off, elems, a
               in zip(network.offsets, network.elements, assignment))


def test_witness_pool_rows_outside_the_domains_are_never_used(
        z2min, monkeypatch):
    """With x pinned to 0 and y free under the full binary relation, the
    live nodes are x0, y0 and y1, and covering them takes two solutions of
    two search nodes each.  Pooled rows through x1 are never used, so a
    budget of 3 still fails; the call then appends the solutions it finds,
    and a later call on the same pool needs no search."""

    full = full_relation((z2min, z2min))
    inst = Instance(("x", "y"), (z2min,) * 2,
                    (frozenset({0}), frozenset({0, 1})),
                    (Constraint(full, ("x", "y")),))
    network = enforce_cycle_consistency(inst).network
    outside = [_node_row(network, (1, 0)), _node_row(network, (1, 1))]
    for budget, covered in ((3, False), (4, True)):
        monkeypatch.setattr(consistency_module, "WITNESS_NODES", budget)
        pool = list(outside)
        assert witness_cover(inst, network, pool) == covered
    assert pool == outside + [_node_row(network, (0, 0)),
                              _node_row(network, (0, 1))]
    monkeypatch.setattr(consistency_module, "WITNESS_NODES", 1)
    assert witness_cover(inst, network, pool)
    assert not witness_cover(inst, network)
    assert len(pool) == 4


def test_witness_pool_keeps_at_most_its_bound(z2min, monkeypatch):
    """x = y = z over Z2 has two solutions; a pool bounded to one row keeps
    the first."""

    eq3 = Relation(3, (z2min,) * 3, {(0, 0, 0), (1, 1, 1)})
    inst = Instance(("x", "y", "z"), (z2min,) * 3, (frozenset({0, 1}),) * 3,
                    (Constraint(eq3, ("x", "y", "z")),))
    network = enforce_cycle_consistency(inst).network
    monkeypatch.setattr(consistency_module, "WITNESS_POOL", 1)
    pool = []
    assert witness_cover(inst, network, pool)
    assert pool == [_node_row(network, (0, 0, 0))]


def test_witness_search_finds_the_reference_solutions(solver_instances):
    """On every instance the solver fixtures call the solver on that passes
    Step 1 and is linked, the search that assigns the variables with one
    live value once per call gives the answer and finds the solutions, in
    order, of the search that branches over every variable
    (``helpers.reference_witness_rows``), with and without a pool."""

    forced = 0
    for inst in solver_instances:
        if (len(fragment_variable_sets(inst)) > 1 or not inst.constraints
                or inst.all_singleton()):
            continue
        res = enforce_cycle_consistency(inst)
        if res.status != "ok" or len(value_components(inst,
                                                      res.network)) > 1:
            continue
        covered, rows = reference_witness_rows(inst, res.network)
        pool = []
        assert witness_cover(inst, res.network, pool) == covered
        assert pool == rows
        assert witness_cover(inst, res.network) == covered
        forced += any(len(dom) == 1 for dom in inst.current_domains)
    assert forced


def test_solves_leave_no_cyclic_garbage():
    """About 200 desk-family solves, most of them reaching the witness
    search, leave nothing for the cyclic collector: the search's recursive
    closure is freed by reference counting (before, each searching call
    left its closures, cells and lists in a cycle)."""

    import gc

    families = ((2, 3, minority_table()), (2, 3, majority_table()),
                (2, 3, conjunction_table(3)), (3, 3, dual_discriminator_table()),
                (4, 5, sum_table(4, 5)))
    instances = [random_instance(GenParams(n, m, 6, 6, 3, seed,
                                           satisfiable_bias=seed % 2 == 1,
                                           wnu=table))[0]
                 for n, m, table in families
                 for seed in range(100_000, 100_040)]
    gc.collect()
    gc.disable()
    try:
        for inst in instances:
            Solver().solve(inst)
        assert gc.collect() == 0
    finally:
        gc.enable()
