import itertools

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


@pytest.fixture(scope="session")
def solver_recording():
    """Solve eight seeded desk-size instances (6 variables, 6 constraints)
    of each family below, half of them planted.  Returns every instance
    ``Solver._solve`` is called on (reduced, projected and weakened
    instances as well as the generated ones), every instance
    ``Solver._solve_main`` tests for linkedness, and every call of
    ``relation.cylinder_implies`` as ((cand, sub, rel), result).  The
    weakening cache is cleared first, so each weakening the solves ask
    for is computed under the recording."""

    # (domain size, WNU arity, WNU table); None is the canonical searched
    # special WNU
    families = (
        (2, 3, minority_table()),
        (2, 3, majority_table()),
        (2, 3, conjunction_table(3)),
        (3, 3, dual_discriminator_table()),
        (4, 5, sum_table(4, 5)),
        (3, 3, None),
        (4, 3, None),
    )
    seen, linked, cylinders = [], [], []
    original = Solver._solve
    components = solver_module.value_components
    cylinder_implies = relation_module.cylinder_implies

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

    relation_module.minimal_weaker_relations.cache_clear()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Solver, "_solve", recording)
        mp.setattr(solver_module, "value_components", recording_components)
        for module in (relation_module, instance_module):
            mp.setattr(module, "cylinder_implies", recording_cylinder)
        for n, m, wnu in families:
            for i in range(8):
                params = GenParams(n, m, 6, 6, 3, 400_000 + i,
                                   satisfiable_bias=bool(i % 2), wnu=wnu)
                Solver().solve(random_instance(params)[0])
    return tuple(seen), tuple(linked), tuple(cylinders)


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
    ``solver_recording``, as ((cand, sub, rel), result)."""

    return solver_recording[2]
