"""Relation and subuniverse builders that only the tests use, and the
witness search as it was before variables with one live value were
assigned once per call."""

import itertools

from wnucsp import consistency as consistency_module
from wnucsp.algebra import wnu_closure
from wnucsp.consistency import _BITS
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


def reference_witness_rows(inst, network):
    """``consistency.witness_cover(inst, network)`` branching over every
    variable, with no pool: its answer and the bit rows of the solutions it
    found, in order.  Every variable is assigned in every pin's search, a
    variable with one live value too, within the same ``WITNESS_NODES``
    budget."""

    nodes, offsets, elements = network.nodes, network.offsets, network.elements
    n = len(offsets)
    fulls = [(1 << len(elems)) - 1 for elems in elements]
    owner = [k for k, elems in enumerate(elements) for _ in elems]
    checks = [[] for _ in range(n)]
    for c in inst.constraints:
        if len(c.scope) > 2:
            ks = tuple([inst.index(v) for v in c.scope])
            for k in ks:
                checks[k].append((ks, c.relation.tuples))
    value = [None] * n
    budget = consistency_module.WITNESS_NODES
    rows = []

    def holds(k):
        for ks, tuples in checks[k]:
            at = [value[i] for i in ks]
            if None not in at and tuple(
                    [elements[i][a] for i, a in zip(ks, at)]) not in tuples:
                return False
        return True

    def extend(allowed):
        nonlocal budget
        best, fewest = -1, None
        for j in range(n):
            if value[j] is None:
                block = allowed >> offsets[j] & fulls[j]
                if not block:
                    return False
                count = block.bit_count()
                if fewest is None or count < fewest:
                    best, fewest, values = j, count, block
        if best < 0:
            return True
        off = offsets[best]
        for a in _BITS[values]:
            budget -= 1
            if budget < 0:
                return False
            value[best] = a
            if holds(best) and extend(allowed & nodes[off + a]):
                return True
        value[best] = None
        return False

    left = sum(1 << q for q, row in enumerate(nodes) if row)
    while left:
        q = (left & -left).bit_length() - 1
        budget -= 1
        if budget < 0:
            return False, rows
        value[:] = [None] * n
        value[owner[q]] = q - offsets[owner[q]]
        if not extend(nodes[q]):
            return False, rows
        row = sum(1 << off + a for off, a in zip(offsets, value))
        rows.append(row)
        left &= ~row
    return True, rows
