import itertools
import random

import pytest

from wnucsp.algebra import (
    conjunction_table,
    dual_discriminator_table,
    majority_table,
    make_algebra,
    minority_table,
    sum_table,
)
from wnucsp.harness import GenParams, random_instance
from wnucsp.instance import Constraint, Instance
from wnucsp.relation import Relation
from wnucsp import classify as classify_module
from wnucsp import consistency as consistency_module
from wnucsp import instance as instance_module
from wnucsp import relation as relation_module
from wnucsp import solver as solver_module
from wnucsp.solver import Solver


@pytest.fixture(scope="session")
def z4():
    return make_algebra(range(4), sum_table(4, 5))


@pytest.fixture(scope="session")
def z2min():
    return make_algebra(range(2), minority_table())


@pytest.fixture(scope="session")
def maj2():
    return make_algebra(range(2), majority_table())


@pytest.fixture(scope="session")
def and3():
    return make_algebra(range(2), conjunction_table(3))


@pytest.fixture(scope="session")
def dd3():
    return make_algebra(range(3), dual_discriminator_table())


def linear_relation(alg, coeffs, rhs):
    """Solution set of a linear equation over Z_n as an explicit relation."""

    n = alg.size
    arity = len(coeffs)
    tuples = {
        t for t in itertools.product(range(n), repeat=arity)
        if sum(c * v for c, v in zip(coeffs, t)) % n == rhs
    }
    return Relation(arity, (alg,) * arity, tuples)


def planted_z4_system(n, seed):
    """A planted linear system over Z4 with the sum-of-5 WNU, of the kind
    that reaches Step 10: a planted value for each of n variables, then
    round(0.7 n) equations, each on 3 distinct variables with coefficients
    from {1, 2, 3} and the right-hand side the planted values give."""

    rng = random.Random(seed)
    z4 = make_algebra(range(4), sum_table(4, 5))
    values = [rng.randrange(4) for _ in range(n)]
    constraints = []
    for _ in range(round(0.7 * n)):
        idx = rng.sample(range(n), 3)
        coeffs = [rng.choice((1, 2, 3)) for _ in range(3)]
        rhs = sum(c * values[i] for c, i in zip(coeffs, idx)) % 4
        constraints.append(Constraint(linear_relation(z4, coeffs, rhs),
                                      tuple("x%d" % i for i in idx)))
    return Instance(tuple("x%d" % i for i in range(n)), (z4,) * n,
                    (frozenset(range(4)),) * n, tuple(constraints))


@pytest.fixture(scope="session")
def z4_example(z4):
    """The four-equation system over Z_4 used as the golden instance."""

    vs = ("x1", "x2", "x3", "x4")
    constraints = (
        Constraint(linear_relation(z4, (1, 2, 1, 1), 0), vs),
        Constraint(linear_relation(z4, (2, 1, 1, 1), 0), vs),
        Constraint(linear_relation(z4, (1, 1), 2), ("x1", "x2")),
        Constraint(linear_relation(z4, (1, 1, 2, 2), 0), vs),
    )
    return Instance(vs, (z4,) * 4, (frozenset(range(4)),) * 4, constraints)


def solver_fixture_params():
    """The ``GenParams`` of the instances ``solver_recording`` solves:
    eight seeds of each family, odd ones planted.  A family is (domain
    size, WNU arity, WNU table), None being the canonical searched special
    WNU."""

    families = (
        (2, 3, minority_table()),
        (2, 3, majority_table()),
        (2, 3, conjunction_table(3)),
        (3, 3, dual_discriminator_table()),
        (4, 5, sum_table(4, 5)),
        (3, 3, None),
        (4, 3, None),
    )
    return [GenParams(n, m, 6, 6, 3, 400_000 + i,
                      satisfiable_bias=bool(i % 2), wnu=wnu)
            for n, m, wnu in families for i in range(8)]


@pytest.fixture(scope="session")
def solver_recording():
    """Solve eight seeded desk-size instances (6 variables, 6 constraints)
    of each family below, half of them planted.  Returns every instance
    ``Solver._solve`` is called on (reduced, projected and weakened
    instances as well as the generated ones), every instance
    ``Solver._solve_main`` tests for linkedness, every call of
    ``relation.cylinder_implies`` as ((cand, sub, rel), result), where cand
    is the candidate's tuple set, every relation
    ``minimal_weaker_relations`` is asked for, every relation built
    without checks by ``relation._derived``, and every effective relation
    ``factorize_to_linear`` reads its rows for.  The weakening,
    per-projection cover and linear rows caches are cleared first, so each
    weakening and factorization the solves ask for is computed under the
    recording.  The witness search gets no budget, so every round takes
    the exact Steps 2 and 3 and their sub-solves are recorded too."""

    seen, linked, cylinders, weakened, derived, linear = ([], [], [], [],
                                                          [], [])
    original = Solver._solve
    components = solver_module.value_components
    cylinder_implies = relation_module.cylinder_implies
    minimal_weaker = instance_module.minimal_weaker_relations
    derive = relation_module._derived
    linear_rows = instance_module._linear_rows

    def recording(self, inst, depth, t3):
        seen.append(inst)
        return original(self, inst, depth, t3)

    def recording_components(inst, network=None):
        linked.append(inst)
        return components(inst, network)

    def recording_cylinder(cand, sub, rel):
        got = cylinder_implies(cand, sub, rel)
        cylinders.append(((cand, tuple(sub), rel), got))
        return got

    def recording_weaker(rel):
        weakened.append(rel)
        return minimal_weaker(rel)

    def recording_derived(coords, tuples):
        rel = derive(coords, tuples)
        derived.append(rel)
        return rel

    def recording_linear(eff):
        linear.append(eff)
        return linear_rows(eff)

    relation_module.minimal_weaker_relations.cache_clear()
    relation_module.projection_covers.cache_clear()
    linear_rows.cache_clear()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Solver, "_solve", recording)
        mp.setattr(consistency_module, "WITNESS_NODES", 0)
        mp.setattr(solver_module, "value_components", recording_components)
        for module in (relation_module, instance_module):
            mp.setattr(module, "cylinder_implies", recording_cylinder)
        mp.setattr(instance_module, "minimal_weaker_relations",
                   recording_weaker)
        mp.setattr(relation_module, "_derived", recording_derived)
        mp.setattr(instance_module, "_derived_relation", recording_derived)
        mp.setattr(classify_module, "_derived", recording_derived)
        mp.setattr(instance_module, "_linear_rows", recording_linear)
        for params in solver_fixture_params():
            Solver().solve(random_instance(params)[0])
    return (tuple(seen), tuple(linked), tuple(cylinders), tuple(weakened),
            tuple(derived), tuple(linear))


@pytest.fixture(scope="session")
def solver_instances(solver_recording):
    """Every instance ``Solver._solve`` is called on while building
    ``solver_recording``."""

    return solver_recording[0]


@pytest.fixture(scope="session")
def linked_checks(solver_recording):
    """Every instance ``Solver._solve_main`` tests for linkedness while
    building ``solver_recording``."""

    return solver_recording[1]


@pytest.fixture(scope="session")
def cylinder_calls(solver_recording):
    """Every ``relation.cylinder_implies`` call made while building
    ``solver_recording``, as ((cand, sub, rel), result) with cand a tuple
    set."""

    return solver_recording[2]


@pytest.fixture(scope="session")
def weakened_relations(solver_recording):
    """Every distinct relation ``minimal_weaker_relations`` is asked for
    while building ``solver_recording``, in order of first request."""

    return tuple(dict.fromkeys(solver_recording[3]))


@pytest.fixture(scope="session")
def derived_relations(solver_recording):
    """Every relation ``relation._derived`` builds while building
    ``solver_recording``."""

    return solver_recording[4]


@pytest.fixture(scope="session")
def linear_relations(solver_recording):
    """Every distinct effective relation ``factorize_to_linear`` reads its
    rows for while building ``solver_recording``."""

    return tuple(dict.fromkeys(solver_recording[5]))
