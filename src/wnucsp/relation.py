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
from operator import contains, itemgetter

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


def _derived(coords, tuples) -> Relation:
    """A relation derived from valid ones, skipping the checks of
    ``Relation.__post_init__``: callers pass a tuple of algebras and a
    frozenset of tuples, each entry in its coordinate's carrier."""

    rel = object.__new__(Relation)
    rel.__dict__.update(arity=len(coords), coords=coords, tuples=tuples)
    return rel


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
    return _derived(coords, _project_tuples(rel.tuples, indices))


def _project_tuples(tuples, indices):
    """The tuples restricted to ``indices``, in that order, as a frozenset."""

    if len(indices) == 1:
        i = indices[0]
        return frozenset((t[i],) for t in tuples)
    return frozenset(map(itemgetter(*indices), tuples))


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
        if set(cong.carrier) != alg.carrier:
            raise InvariantError("congruence carrier mismatch")
        q, kmap = quotient_algebra(alg, cong)
        quotients.append(q)
        kernels.append(kmap)
    tuples = frozenset(
        tuple(kernels[c][t[c]] for c in range(rel.arity)) for t in rel.tuples
    )
    return _derived(tuple(quotients), tuples)


def restrict_relation(rel: Relation, coords, domains) -> Relation:
    """Relation induced on restricted coordinate algebras ``coords``, the
    subalgebras on ``domains``; the tuples whose every entry lies in its
    coordinate's domain.  One comprehension tests each tuple with
    ``map(contains, ...)``, with no generator per tuple."""

    domains = [frozenset(d) for d in domains]
    tuples = frozenset([t for t in rel.tuples
                        if all(map(contains, domains, t))])
    return _derived(tuple(coords), tuples)


def _dummies(coords, tuples):
    """Indices of the dummy coordinates of the relation ``tuples`` on
    ``coords``; see ``dummy_coordinates``."""

    if len(coords) == 1:
        return (0,) if len(tuples) == coords[0].size else ()
    n = len(tuples)
    return tuple(i for i, alg in enumerate(coords)
                 if n == alg.size * len({t[:i] + t[i + 1:] for t in tuples}))


def dummy_coordinates(rel: Relation):
    """Indices of the coordinates the relation does not depend on.

    Coordinate i is dummy iff the relation is its projection onto the other
    coordinates crossed with the full carrier A_i.  That cylinder contains
    the relation, so it is decided by count: ``len(tuples) == |A_i| *
    len({t[:i] + t[i+1:]})``.  A unary relation's coordinate is dummy iff
    the relation is full, so the empty one has none; an empty relation of
    arity 2 or more has every coordinate dummy."""

    return _dummies(rel.coords, rel.tuples)


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
    return tuple(_derived(coords, s) for s in sets if s != rel.tuples)


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
                if cylinder_implies(cand.tuples, sub, rel):
                    continue
                out.append((sub, cand))
    return tuple(out)


@lru_cache(maxsize=65536)
def projection_covers(coords, tuples):
    """The weakenings of a constraint that is the cylinder of the closed
    set ``tuples`` on ``coords``: for each upper cover, its coordinates that
    are not dummy and the cover projected onto them, as a frozenset of
    (kept positions, tuple set) pairs.  Covers with only dummy coordinates
    (the full relation) are dropped.  Relations that share a projection
    share this entry."""

    size = len(coords)
    out = set()
    for cover in upper_covers(coords, tuples):
        dummies = _dummies(coords, cover)
        if len(dummies) == size:
            continue
        keep = tuple(j for j in range(size) if j not in dummies)
        out.add((keep, _project_tuples(cover, keep)))
    return frozenset(out)


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

    The projections are bare tuple sets, tested by tuple counts
    (``cylinder_implies``, ``dummy_coordinates``); the covers come from
    ``projection_covers``, and a Relation is built only for each pair
    emitted.
    """

    n = rel.arity
    out = set()
    for size in range(1, n + 1):
        for sub in itertools.combinations(range(n), size):
            coords = tuple(rel.coords[i] for i in sub)
            tuples = _project_tuples(rel.tuples, sub)
            if not cylinder_implies(tuples, sub, rel):
                # with dummy coordinates, the sub-scope without them gives
                # the same constraint
                if not _dummies(coords, tuples):
                    out.add((sub, tuples))
                continue
            # here rel is the cylinder of the projection, so the covers are
            # needed even when it has dummy coordinates: x = 0 on (x, y)
            # under majority weakens to x <= y and not(x and y), which no
            # sub-scope gives
            for keep, cover in projection_covers(coords, tuples):
                out.add((tuple(sub[j] for j in keep), cover))
    pairs = [(sub, _derived(tuple(rel.coords[i] for i in sub), tuples))
             for sub, tuples in out]
    return tuple(sorted(pairs, key=lambda p: (len(p[0]), p[0],
                                              p[1].sort_key())))


def cylinder_implies(cand, sub, rel: Relation) -> bool:
    """Whether the constraint on the sub-scope ``sub`` with tuple set
    ``cand`` implies ``rel`` on the full scope, i.e. its cylinder over the
    full coordinates sits inside rel.

    Requires ``cand`` to contain the projection of rel onto ``sub``, so
    that the cylinder contains rel; it then equals rel exactly when the
    two have as many tuples."""

    outside = prod(alg.size for i, alg in enumerate(rel.coords)
                   if i not in sub)
    return len(rel.tuples) == len(cand) * outside
