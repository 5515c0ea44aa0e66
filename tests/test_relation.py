import itertools
import random

import pytest

from wnucsp import relation as relation_module
from wnucsp.algebra import (
    Congruence,
    make_algebra,
    search_special_wnu,
    upper_covers,
    wnu_closure,
)
from wnucsp.errors import ArgumentError
from wnucsp.harness import brute_force
from wnucsp.instance import Constraint, Instance, weaken_all
from wnucsp.relation import (
    Relation,
    dummy_coordinates,
    factorize,
    invariant_supersets,
    is_invariant,
    minimal_weaker_relations,
    project,
    weaker_relations,
)

from conftest import linear_relation
from helpers import close_relation, full_relation, is_subdirect


def test_project_binary_swap(z2min):
    rel = Relation(2, (z2min, z2min), {(0, 1), (1, 0)})
    assert project(rel, [1]).tuples == {(1,), (0,)}


def test_project_identity(z2min):
    rel = Relation(2, (z2min, z2min), {(0, 1), (1, 1)})
    assert project(rel, [0, 1]) == rel


def test_project_xor_pair_is_full(z2min):
    xor = Relation(3, (z2min,) * 3, {
        t for t in itertools.product(range(2), repeat=3) if sum(t) % 2 == 0})
    assert project(xor, [1, 2]).is_full


def test_project_rejects_bad_indices(z2min):
    rel = full_relation((z2min, z2min))
    with pytest.raises(ArgumentError):
        project(rel, [])
    with pytest.raises(ArgumentError):
        project(rel, [0, 0])
    with pytest.raises(ArgumentError):
        project(rel, [2])


def test_constructor_rejects_each_bad_input(z2min):
    with pytest.raises(ArgumentError, match="coordinate count"):
        Relation(2, (z2min,), {(0, 0)})
    with pytest.raises(ArgumentError, match="tuple arity"):
        Relation(2, (z2min, z2min), {(0, 0), (1,)})
    with pytest.raises(ArgumentError, match="outside coordinate carrier"):
        Relation(2, (z2min, z2min), {(0, 2)})


def test_derived_relations_equal_their_rebuild(derived_relations):
    """Every relation the solves build without checks is the relation
    ``Relation(...)`` builds, with its checks, from the same fields."""

    assert derived_relations
    for rel in derived_relations:
        assert type(rel.coords) is tuple and type(rel.tuples) is frozenset
        assert all(type(t) is tuple for t in rel.tuples)
        rebuilt = Relation(rel.arity, rel.coords, rel.tuples)
        assert rebuilt == rel and hash(rebuilt) == hash(rel)


def test_factorize_z4_equation_mod2(z4):
    rel = linear_relation(z4, (1, 2, 1, 1), 0)
    mod2 = Congruence(((0, 2), (1, 3)))
    fact = factorize(rel, [mod2] * 4)
    want = {
        t for t in itertools.product(range(2), repeat=4)
        if (t[0] + t[2] + t[3]) % 2 == 0
    }
    assert fact.tuples == frozenset(want)


def test_factorize_by_equality_is_isomorphic(z4):
    rel = linear_relation(z4, (1, 1), 2)
    eq = Congruence(tuple((e,) for e in range(4)))
    fact = factorize(rel, [eq, eq])
    # block indices coincide with elements under the canonical block order
    assert fact.tuples == rel.tuples


def test_factorize_full_stays_full(z4):
    rel = full_relation((z4, z4))
    mod2 = Congruence(((0, 2), (1, 3)))
    assert factorize(rel, [mod2, mod2]).is_full


def test_subdirect(z2min, z4):
    assert is_subdirect(full_relation((z2min, z2min)))
    assert not is_subdirect(Relation(2, (z2min, z2min), {(0, 0)}))
    graph = Relation(2, (z4, z4), {(a, (a + 1) % 4) for a in range(4)})
    assert is_subdirect(graph)


def test_dummy_detection(z2min, dd3):
    full = full_relation((z2min, z2min))
    assert dummy_coordinates(full) == (0, 1)
    eq = Relation(2, (z2min, z2min), {(0, 0), (1, 1)})
    assert dummy_coordinates(eq) == ()
    cyl = Relation(2, (z2min, z2min), {(0, 0), (0, 1)})
    assert dummy_coordinates(cyl) == (1,)
    # a unary coordinate is dummy only when the relation is full
    assert dummy_coordinates(Relation(1, (dd3,), set())) == ()
    assert dummy_coordinates(Relation(1, (dd3,), {(0,), (1,), (2,)})) == (0,)
    # an empty relation of arity 2 or more depends on no coordinate
    assert dummy_coordinates(Relation(2, (z2min, dd3), set())) == (0, 1)
    assert dummy_coordinates(Relation(3, (dd3,) * 3, set())) == (0, 1, 2)


def dummy_coordinates_reference(rel):
    """Coordinates on which membership never depends, by changing that
    entry of every tuple of the product space to every value."""

    space = list(itertools.product(*(alg.elements for alg in rel.coords)))
    return tuple(
        i for i, alg in enumerate(rel.coords)
        if all((t in rel.tuples) == (t[:i] + (a,) + t[i + 1:] in rel.tuples)
               for t in space for a in alg.elements))


def test_dummy_count_matches_the_product_space_on_weakened_relations(
        weakened_relations):
    # every relation the recorded solves weaken, each projection of it and
    # each upper cover of that projection: the relations whose dummy
    # coordinates minimal_weaker_relations reads
    checked = set()
    for rel in weakened_relations:
        for size in range(1, rel.arity + 1):
            for sub in itertools.combinations(range(rel.arity), size):
                proj = project(rel, sub)
                checked.add(proj)
                checked.update(Relation(size, proj.coords, cover)
                               for cover in upper_covers(proj.coords,
                                                         proj.tuples))
    # element 3 under a ternary WNU: the 4-element searched family
    assert any(3 in alg.elements and alg.arity == 3
               for rel in checked for alg in rel.coords)
    for rel in checked:
        assert rel.tuples
        assert dummy_coordinates(rel) == dummy_coordinates_reference(rel)


def test_minimal_weaker_same_with_cleared_caches(weakened_relations):
    def by_value(pairs):
        return [(sub, r.coords, tuple(sorted(r.tuples))) for sub, r in pairs]

    warm = [by_value(minimal_weaker_relations(rel))
            for rel in weakened_relations]
    for rel, want in zip(weakened_relations, warm):
        minimal_weaker_relations.cache_clear()
        relation_module.projection_covers.cache_clear()
        assert by_value(minimal_weaker_relations(rel)) == want


# --- weaker relations --------------------------------------------------------


def brute_weaker(rel):
    """Oracle: test every relation on every sub-scope directly against the
    definition (invariant, no dummy, contains the projection, implied but
    not conversely)."""

    out = set()
    n = rel.arity
    full_space = list(itertools.product(*(a.elements for a in rel.coords)))
    for size in range(1, n + 1):
        for sub in itertools.combinations(range(n), size):
            proj = project(rel, sub)
            space = list(itertools.product(*(a.elements for a in proj.coords)))
            for r in range(len(space) + 1):
                for chosen in itertools.combinations(space, r):
                    cand_set = frozenset(chosen)
                    if not cand_set >= proj.tuples:
                        continue
                    cand = Relation(len(sub), proj.coords, cand_set)
                    if not is_invariant(cand):
                        continue
                    if dummy_coordinates(cand):
                        continue
                    implies_back = all(
                        t in rel.tuples
                        for t in full_space
                        if tuple(t[i] for i in sub) in cand_set
                    )
                    if implies_back:
                        continue
                    out.add((sub, cand_set))
    return out


def cylinder_implies_reference(cand, sub, rel):
    """Whether the cylinder of the tuple set ``cand`` on ``sub`` over rel's
    coordinates sits inside rel, by enumerating that product space."""

    for t in itertools.product(*(alg.elements for alg in rel.coords)):
        if tuple(t[i] for i in sub) in cand and t not in rel.tuples:
            return False
    return True


def test_cylinder_count_matches_the_scan_on_solver_calls(cylinder_calls):
    implied = 0
    for (cand, sub, rel), got in cylinder_calls:
        assert project(rel, sub).tuples <= cand
        assert got == cylinder_implies_reference(cand, sub, rel)
        implied += got
    assert 0 < implied < len(cylinder_calls)


def closed_by_definition(alg, tuples):
    """Whether the binary relation is closed under the WNU of ``alg``,
    applied coordinatewise to every m-tuple of its members."""

    return all(
        (alg.op([r[0] for r in rows]), alg.op([r[1] for r in rows])) in tuples
        for rows in itertools.product(tuples, repeat=alg.arity))


def test_invariant_supersets_match_brute_force(z2min, maj2, and3, dd3,
                                               searched3):
    rng = random.Random(23)
    for alg in (z2min, maj2, and3, dd3, searched3):
        coords = (alg, alg)
        space = list(itertools.product(alg.elements, repeat=2))
        for _ in range(3):
            rel = close_relation(coords, rng.sample(space, rng.randint(1, 2)))
            want = []
            for r in range(len(rel.tuples) + 1, len(space) + 1):
                for extra in itertools.combinations(
                        [t for t in space if t not in rel.tuples],
                        r - len(rel.tuples)):
                    cand = rel.tuples | frozenset(extra)
                    if closed_by_definition(alg, cand):
                        want.append(cand)
            got = invariant_supersets(rel)
            assert all(s.coords == coords for s in got)
            assert [s.tuples for s in got] == sorted(
                want, key=lambda ts: (len(ts), tuple(sorted(ts))))


def test_weaker_equality_minority_effectively_none(z2min):
    eq = Relation(2, (z2min, z2min), {(0, 0), (1, 1)})
    assert weaker_relations(eq) == ()


def test_weaker_full_relation_empty(z2min):
    assert weaker_relations(full_relation((z2min, z2min))) == ()


def test_weaker_diagonal_three(z2min):
    diag = Relation(3, (z2min,) * 3, {(0, 0, 0), (1, 1, 1)})
    pairs = weaker_relations(diag)
    got = {(sub, rel.tuples) for sub, rel in pairs}
    eqset = frozenset({(0, 0), (1, 1)})
    assert got == {((0, 1), eqset), ((0, 2), eqset), ((1, 2), eqset)}


def test_weaker_matches_brute_force_two_element(z2min, maj2):
    rng = random.Random(3)
    for alg in (z2min, maj2):
        for _ in range(25):
            arity = rng.randint(1, 3)
            coords = (alg,) * arity
            seed = {
                tuple(rng.randrange(2) for _ in range(arity))
                for _ in range(rng.randint(1, 3))
            }
            rel = close_relation(coords, seed)
            pairs = weaker_relations(rel)
            got = {(sub, r.tuples) for sub, r in pairs}
            assert got == brute_weaker(rel)


def test_weaker_emissions_properties(z4):
    rel = linear_relation(z4, (1, 2, 1, 1), 0)
    pairs = weaker_relations(rel)
    for sub, cand in pairs:
        assert is_invariant(cand)
        assert dummy_coordinates(cand) == ()
        proj = project(rel, sub)
        assert cand.tuples >= proj.tuples
        # implication must be strict
        full_space = itertools.product(*(a.elements for a in rel.coords))
        assert any(
            tuple(t[i] for i in sub) in cand.tuples and t not in rel.tuples
            for t in full_space
        )


def test_project_factorize_commute(z4):
    rng = random.Random(9)
    mod2 = Congruence(((0, 2), (1, 3)))
    eq = Congruence(tuple((e,) for e in range(4)))
    for _ in range(20):
        arity = rng.randint(2, 3)
        coords = (z4,) * arity
        seed = {
            tuple(rng.randrange(4) for _ in range(arity))
            for _ in range(rng.randint(1, 3))
        }
        rel = close_relation(coords, seed)
        indices = sorted(rng.sample(range(arity), rng.randint(1, arity)))
        a = project(factorize(rel, [eq] * arity), indices)
        b = factorize(project(rel, indices), [eq] * len(indices))
        assert a.tuples == b.tuples
        a2 = project(factorize(rel, [mod2] * arity), indices)
        b2 = factorize(project(rel, indices), [mod2] * len(indices))
        assert a2.tuples == b2.tuples


def test_invariance_by_closure(z4, dd3):
    rng = random.Random(5)
    for alg in (z4, dd3):
        for _ in range(20):
            arity = rng.randint(1, 3)
            coords = (alg,) * arity
            seed = {
                tuple(rng.choice(alg.elements) for _ in range(arity))
                for _ in range(rng.randint(1, 4))
            }
            rel = close_relation(coords, seed)
            assert is_invariant(rel)
            assert rel.tuples == wnu_closure(coords, rel.tuples)


# --- minimal weaker relations ------------------------------------------------


def _implies(strong_sub, strong, weak_sub, weak):
    """Whether the constraint (strong_sub, strong) implies (weak_sub, weak)
    when both sit on coordinates of the same relation scope."""

    if not set(strong_sub) <= set(weak_sub):
        return False
    pos = [weak_sub.index(i) for i in strong_sub]
    space = itertools.product(*(a.elements for a in weak.coords))
    return all(t in weak.tuples for t in space
               if tuple(t[j] for j in pos) in strong.tuples)


def _random_closed(rng, alg, arity):
    coords = (alg,) * arity
    seed = {tuple(rng.choice(alg.elements) for _ in range(arity))
            for _ in range(rng.randint(1, 3))}
    return close_relation(coords, seed)


@pytest.fixture(scope="module")
def searched3():
    return make_algebra(range(3), search_special_wnu(3, [], 3).table)


def test_minimal_weaker_matches_reference(z2min, maj2, dd3, z4, searched3):
    # the reference walks the whole superset lattice, whose size grows as
    # the seed shrinks: a ternary relation on three elements closed from
    # one tuple takes several seconds there, one closed from three tuples
    # about one second, so the four ternary dd3 relations come from seeds
    # of three tuples
    rng = random.Random(11)
    rels = []
    for alg, max_arity in ((z2min, 3), (maj2, 3), (dd3, 2), (z4, 3),
                           (searched3, 2)):
        for _ in range(12):
            rels.append(_random_closed(rng, alg, rng.randint(1, max_arity)))
    space = list(itertools.product(dd3.elements, repeat=3))
    for _ in range(4):
        rels.append(close_relation((dd3,) * 3, rng.sample(space, 3)))
    for rel in rels:
        ref = weaker_relations(rel)
        got = minimal_weaker_relations(rel)
        assert set(got) <= set(ref)
        for sub, cand in ref:
            assert any(_implies(s, r, sub, cand) for s, r in got)


def test_minimal_weaker_keeps_covers_of_dummy_projections(maj2):
    # x = 0 on (x, y): y is dummy, yet x <= y and not(x and y) are weaker
    rel = Relation(2, (maj2, maj2), {(0, 0), (0, 1)})
    got = {(sub, r.tuples) for sub, r in minimal_weaker_relations(rel)}
    assert got == {((0, 1), frozenset({(0, 0), (0, 1), (1, 1)})),
                   ((0, 1), frozenset({(0, 0), (0, 1), (1, 0)}))}


def test_weaken_all_matches_reference_solutions(maj2, dd3, z4, searched3):
    rng = random.Random(17)
    vs = ("a", "b", "c", "d")
    for alg, max_arity in ((maj2, 3), (dd3, 2), (z4, 3), (searched3, 2)):
        for _ in range(4):
            constraints = []
            for _ in range(3):
                arity = rng.randint(1, max_arity)
                scope = tuple(rng.sample(vs, arity))
                constraints.append(
                    Constraint(_random_closed(rng, alg, arity), scope))
            inst = Instance(vs, (alg,) * 4, (frozenset(alg.elements),) * 4,
                            tuple(constraints))
            ref = []
            for c in inst.constraints:
                pairs = weaker_relations(inst.effective(c))
                ref.extend(Constraint(r, tuple(c.scope[i] for i in sub))
                           for sub, r in pairs)
            ref_inst = Instance(vs, (alg,) * 4, inst.current_domains,
                                tuple(ref))
            got = brute_force(weaken_all(inst), "all")
            assert got == brute_force(ref_inst, "all")
