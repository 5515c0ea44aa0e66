"""Explicit finite relations over algebra coordinates.

Relations hold element-id tuples and a per-coordinate algebra reference.
Membership speaks element ids throughout; positions never leak out of the
algebra layer.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import prod

from .algebra import (
    closed_sets_above,
    is_closed,
    quotient_algebra,
    upper_covers,
    wnu_closure,
)
from .errors import ArgumentError, InvariantError


@dataclass(frozen=True)
class Relation:
    arity: int
    coords: tuple  # one Algebra per coordinate
    tuples: frozenset

    def __post_init__(self):
        if not isinstance(self.coords, tuple):
            object.__setattr__(self, "coords", tuple(self.coords))
        if not isinstance(self.tuples, frozenset):
            object.__setattr__(self, "tuples", frozenset(map(tuple, self.tuples)))
        if len(self.coords) != self.arity:
            raise ArgumentError("coordinate count must equal the arity")
        for t in self.tuples:
            if len(t) != self.arity:
                raise ArgumentError("tuple arity mismatch")
            for c, v in enumerate(t):
                if v not in self.coords[c].elements:
                    raise ArgumentError("tuple entry outside coordinate carrier")

    def sort_key(self):
        k = self.__dict__.get("_sort_key")
        if k is None:
            k = (self.arity, tuple(alg.elements for alg in self.coords),
                 tuple(sorted(self.tuples)))
            object.__setattr__(self, "_sort_key", k)
        return k

    def __hash__(self):
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.arity, self.coords, self.tuples))
            object.__setattr__(self, "_hash", h)
        return h

    def __eq__(self, other):
        if not isinstance(other, Relation):
            return NotImplemented
        return (self.arity == other.arity and self.coords == other.coords
                and self.tuples == other.tuples)

    @property
    def is_empty(self):
        return not self.tuples

    def space_size(self):
        out = 1
        for alg in self.coords:
            out *= alg.size
        return out

    @property
    def is_full(self):
        return len(self.tuples) == self.space_size()


def is_invariant(rel: Relation) -> bool:
    return is_closed(rel.coords, rel.tuples)


def project(rel: Relation, indices) -> Relation:
    """Projection onto the listed coordinates, in the listed order."""

    indices = list(indices)
    if not indices:
        raise ArgumentError("projection needs at least one coordinate")
    if len(set(indices)) != len(indices):
        raise ArgumentError("projection indices must be distinct")
    if any(i < 0 or i >= rel.arity for i in indices):
        raise ArgumentError("projection index out of range")
    coords = tuple(rel.coords[i] for i in indices)
    tuples = frozenset(tuple(t[i] for i in indices) for t in rel.tuples)
    return Relation(len(indices), coords, tuples)


def factorize(rel: Relation, congs) -> Relation:
    """Blockwise image of the relation under per-coordinate congruences.

    A block tuple belongs to the result iff its product meets the relation.
    Returns a relation over the quotient algebras; entries are block indices.
    """

    congs = list(congs)
    if len(congs) != rel.arity:
        raise ArgumentError("one congruence per coordinate required")
    quotients = []
    kernels = []
    for alg, cong in zip(rel.coords, congs):
        if set(cong.carrier) != set(alg.elements):
            raise InvariantError("congruence carrier mismatch")
        q, kmap = quotient_algebra(alg, cong)
        quotients.append(q)
        kernels.append(kmap)
    tuples = frozenset(
        tuple(kernels[c][t[c]] for c in range(rel.arity)) for t in rel.tuples
    )
    return Relation(rel.arity, tuple(quotients), tuples)


def restrict_relation(rel: Relation, coords, domains) -> Relation:
    """Relation induced on restricted coordinate algebras; tuples filtered."""

    domains = [frozenset(d) for d in domains]
    tuples = frozenset(
        t for t in rel.tuples
        if all(t[c] in domains[c] for c in range(rel.arity))
    )
    return Relation(rel.arity, tuple(coords), tuples)


def _coordinate_dummy(rel: Relation, index) -> bool:
    """A coordinate is dummy iff the relation is (projection onto the rest)
    crossed with the full coordinate."""

    rest = [i for i in range(rel.arity) if i != index]
    if not rest:
        return rel.is_full
    return cylinder_implies(project(rel, rest), rest, rel)


def dummy_coordinates(rel: Relation):
    return tuple(i for i in range(rel.arity) if _coordinate_dummy(rel, i))


@lru_cache(maxsize=65536)
def invariant_supersets(rel: Relation):
    """All invariant relations strictly containing ``rel`` on its coordinates,
    as a tuple in canonical order: the sets of the upward walk from ``rel``
    under ``wnu_closure``, without ``rel``.  This walks the whole lattice
    and never calls ``upper_covers``, so it can check Step 3's weakening."""

    coords = rel.coords
    space = list(itertools.product(*(alg.elements for alg in coords)))
    sets = closed_sets_above(space, rel.tuples,
                             lambda s: wnu_closure(coords, s))
    return tuple(Relation(rel.arity, coords, s)
                 for s in sets if s != rel.tuples)


@lru_cache(maxsize=65536)
def weaker_relations(rel: Relation):
    """All strictly weaker dummy-free constraints on sub-scopes.

    Returns a tuple of (coordinate index subset, Relation) pairs: every
    invariant relation without dummy coordinates that strictly contains the
    matching projection of ``rel`` and does not imply ``rel`` back.
    """

    out = []
    n = rel.arity
    for size in range(1, n + 1):
        for sub in itertools.combinations(range(n), size):
            proj = project(rel, sub)
            # the projection itself is a candidate: strictness lives at the
            # constraint level, where dropping coordinates already weakens
            for cand in (proj,) + invariant_supersets(proj):
                if dummy_coordinates(cand):
                    continue
                if cylinder_implies(cand, sub, rel):
                    continue
                out.append((sub, cand))
    return tuple(out)


@lru_cache(maxsize=65536)
def minimal_weaker_relations(rel: Relation):
    """Strictly weaker dummy-free constraints on sub-scopes of ``rel`` that
    together imply every pair of ``weaker_relations(rel)``.

    Returns a tuple of (coordinate index subset, Relation) pairs, each also
    emitted by ``weaker_relations``; every pair that function emits is
    implied by one of these on a scope inside its own.  So weakening to
    these pairs gives the same solution set with no lattice walk: a
    projection whose cylinder does not imply ``rel`` is the least candidate
    on its sub-scope; otherwise the candidates are the strict supersets of
    the projection, and each contains one of its upper covers.
    """

    n = rel.arity
    out = set()
    for size in range(1, n + 1):
        for sub in itertools.combinations(range(n), size):
            proj = project(rel, sub)
            if not cylinder_implies(proj, sub, rel):
                # with dummy coordinates, the sub-scope without them gives
                # the same constraint
                if not dummy_coordinates(proj):
                    out.add((sub, proj))
                continue
            # here rel is the cylinder of proj, so the covers are needed even
            # when proj has dummy coordinates: x = 0 on (x, y) under majority
            # weakens to x <= y and not(x and y), which no sub-scope gives
            for cover in upper_covers(proj.coords, proj.tuples):
                cand = Relation(size, proj.coords, cover)
                dummies = dummy_coordinates(cand)
                if len(dummies) == size:
                    continue
                keep = [j for j in range(size) if j not in dummies]
                out.add((tuple(sub[j] for j in keep), project(cand, keep)))
    return tuple(sorted(out, key=lambda p: (len(p[0]), p[0],
                                            p[1].sort_key())))


def cylinder_implies(cand: Relation, sub, rel: Relation) -> bool:
    """Whether the constraint (sub, cand) implies ``rel`` on the full scope,
    i.e. the cylinder of cand over the full coordinates sits inside rel.

    Requires cand to contain the projection of rel onto ``sub``, so that
    the cylinder contains rel; it then equals rel exactly when the two
    have as many tuples."""

    outside = prod(alg.size for i, alg in enumerate(rel.coords)
                   if i not in sub)
    return len(rel.tuples) == len(cand.tuples) * outside
