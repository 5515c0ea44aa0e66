"""Relation and subuniverse builders that only the tests use."""

import itertools

from wnucsp.algebra import wnu_closure
from wnucsp.errors import ArgumentError
from wnucsp.relation import Relation


def full_relation(coords) -> Relation:
    coords = tuple(coords)
    tuples = frozenset(itertools.product(*(alg.elements for alg in coords)))
    return Relation(len(coords), coords, tuples)


def close_relation(coords, seed) -> Relation:
    coords = tuple(coords)
    return Relation(len(coords), coords, wnu_closure(coords, seed))


def is_subdirect(rel: Relation) -> bool:
    for c, alg in enumerate(rel.coords):
        if {t[c] for t in rel.tuples} != set(alg.elements):
            return False
    return True


def subuniverse_closure(alg, seed):
    """Least subuniverse of ``alg`` containing ``seed``."""

    seed = set(seed)
    if not seed <= set(alg.elements):
        raise ArgumentError("seed not within the carrier")
    if not seed:
        return frozenset()
    closed = wnu_closure((alg,), {(e,) for e in seed})
    return frozenset(t[0] for t in closed)
