"""Structural classification of a domain algebra.

Every algebra with a special WNU admits (in priority order) a proper binary
absorbing subuniverse, a center, a congruence with polynomially complete
quotient, or a proper congruence with linear quotient.  Each outcome carries
a certificate that re-verifies from scratch.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .algebra import (
    Algebra,
    Congruence,
    LinearIso,
    OperationTable,
    all_congruences,
    all_subuniverses,
    binary_terms,
    closed_sets_above,
    is_affine,
    is_polynomially_complete,
    linear_structure,
    maximal_among,
    maximal_congruences,
    quotient_algebra,
    verify_linear_iso,
    wnu_closure,
)
from .errors import ArgumentError, ClassificationError, ConfigError, InvariantError
from .relation import Relation, is_invariant

DEFAULT_CENTER_ARITY_CAP = 3


@dataclass(frozen=True)
class CenterWitness:
    """Why a subset is a center: a bounded invariant order with that least
    element, a central relation whose center it is, or a lift through a
    maximal congruence of a center of the quotient."""

    kind: str  # "least_of_order" | "central_relation" | "lifted"
    relation: Relation | None = None
    congruence: Congruence | None = None
    inner: "CenterWitness | None" = None
    inner_center: frozenset | None = None


@dataclass(frozen=True)
class StructureReport:
    kind: str  # "binary_absorbing" | "center" | "pc_quotient" | "linear_quotient"
    subuniverse: frozenset | None = None
    term: OperationTable | None = None
    witness: CenterWitness | None = None
    congruence: Congruence | None = None
    iso: LinearIso | None = None


@dataclass(frozen=True)
class CenterSearch:
    center: frozenset | None
    witness: CenterWitness | None
    complete: bool


# ---------------------------------------------------------------------------
# binary absorption


@lru_cache(maxsize=None)
def find_binary_absorbing(alg: Algebra):
    """Least proper subuniverse B with a binary term t such that t(B,A) and
    t(A,B) stay in B, or None.  ConfigError when the term closure was capped
    and nothing was found.

    An affine algebra has none: a binary term is t = ax + by with a + b = 1,
    and B is a coset c + H.  If t absorbs B, t(c, A) and t(A, c) lie in B,
    so a(A) and b(A) lie in H, and A = (a + b)(A) lies in H: B is all of A.
    """

    if is_affine(alg):
        return None
    return _search_binary_absorbing(alg)


def _search_binary_absorbing(alg: Algebra):
    """The general search behind ``find_binary_absorbing``."""

    terms = binary_terms(alg)
    pos = alg.positions
    carrier = alg.elements
    for b_set in all_subuniverses(alg):
        if len(b_set) == alg.size:
            continue
        for t in terms.tables:
            ok = True
            for b in b_set:
                for a in carrier:
                    if carrier[t.apply((pos[b], pos[a]))] not in b_set:
                        ok = False
                        break
                    if carrier[t.apply((pos[a], pos[b]))] not in b_set:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                return frozenset(b_set), t
    if not terms.complete:
        raise ConfigError("binary term closure capped; absorption undecided")
    return None


# ---------------------------------------------------------------------------
# invariant binary relations (subalgebras of A^2 above the diagonal)


def reflexive_invariant_binaries(alg: Algebra):
    """All invariant binary relations containing the diagonal, canonically
    sorted."""

    coords = (alg, alg)
    diag = wnu_closure(coords, {(e, e) for e in alg.elements})
    space = list(itertools.product(alg.elements, repeat=2))
    rels = closed_sets_above(space, diag, lambda s: wnu_closure(coords, s))
    return tuple(Relation(2, coords, s) for s in rels)


def _bounded_partial_order(rel: Relation):
    """(least, greatest) if the binary relation is a bounded partial order."""

    elems = rel.coords[0].elements
    ts = rel.tuples
    for a in elems:
        if (a, a) not in ts:
            return None
    for a, b in ts:
        if a != b and (b, a) in ts:
            return None
    for a, b in ts:
        for c in elems:
            if (b, c) in ts and (a, c) not in ts:
                return None
    least = [a for a in elems if all((a, b) in ts for b in elems)]
    greatest = [b for b in elems if all((a, b) in ts for a in elems)]
    if len(least) == 1 and len(greatest) == 1:
        return least[0], greatest[0]
    return None


# ---------------------------------------------------------------------------
# central relations


def _totally_reflexive_base(alg: Algebra, h):
    return {
        t for t in itertools.product(alg.elements, repeat=h)
        if len(set(t)) < h
    }


def _symmetric_wnu_closure(alg: Algebra, h, seed):
    """Closure under both the WNU and coordinate permutations."""

    coords = (alg,) * h
    current = set(seed)
    orbits = set()  # sorted keys of the orbits already added in full
    while True:
        fresh = {tuple(sorted(t)) for t in current} - orbits
        orbits |= fresh
        sym = {tuple(key[i] for i in perm)
               for key in fresh for perm in itertools.permutations(range(h))}
        grown = wnu_closure(coords, current | sym)
        if grown == current:
            return frozenset(current)
        current = set(grown)


def _central_relations(alg: Algebra, h):
    """Invariant, totally reflexive, totally symmetric, proper relations of
    arity h with nonempty center; canonically sorted."""

    space = list(itertools.product(alg.elements, repeat=h))
    full = frozenset(space)
    base = _symmetric_wnu_closure(alg, h, _totally_reflexive_base(alg, h))
    out = []
    for ts in closed_sets_above(
            space, base, lambda s: _symmetric_wnu_closure(alg, h, s)):
        if ts == full:
            continue
        center = _relation_center(alg, ts, h)
        if center:
            out.append((Relation(h, (alg,) * h, ts), frozenset(center)))
    return out


def _relation_center(alg: Algebra, tuples, h):
    return {
        a for a in alg.elements
        if all(
            (a,) + rest in tuples
            for rest in itertools.product(alg.elements, repeat=h - 1)
        )
    }


# ---------------------------------------------------------------------------
# center search


@lru_cache(maxsize=None)
def find_center(alg: Algebra, arity_cap=DEFAULT_CENTER_ARITY_CAP) -> CenterSearch:
    """Search for a proper center, in order: least elements of invariant
    bounded orders, centers of invariant central relations of arity up to
    min(|A|-1, cap), then lifts through maximal nontrivial congruences.

    Callers must have ruled out binary absorption first.

    An affine algebra has no center, at any cap.  With the Mal'tsev term m,
    a reflexive invariant binary relation is a congruence, and the only
    antisymmetric one, the equality, has no least element.  If a totally
    reflexive invariant relation R has a in its center, then for every a'
    and every tuple r, m((a',...,a'), (a,a',...,a'), (a,r)) = (a',r) lies
    in R, so R is full.  Quotients are affine again, so no center lifts.
    """

    if is_affine(alg):
        return CenterSearch(None, None, True)
    return _search_center(alg, arity_cap)


def _search_center(alg: Algebra, arity_cap) -> CenterSearch:
    """The general search behind ``find_center``."""

    if find_binary_absorbing(alg) is not None:
        raise ArgumentError("center search requires no binary absorption")
    if alg.size <= 1:
        return CenterSearch(None, None, True)

    for rel in reflexive_invariant_binaries(alg):
        bounds = _bounded_partial_order(rel)
        if bounds is not None:
            least, _ = bounds
            return CenterSearch(
                frozenset({least}),
                CenterWitness("least_of_order", relation=rel),
                True,
            )

    h_max = min(alg.size - 1, arity_cap)
    complete = alg.size - 1 <= arity_cap
    for h in range(2, h_max + 1):
        for rel, center in _central_relations(alg, h):
            if center != set(alg.elements):
                return CenterSearch(
                    center,
                    CenterWitness("central_relation", relation=rel),
                    True,
                )

    for delta in maximal_congruences(alg, nontrivial=True):
        quotient, kmap = quotient_algebra(alg, delta)
        inner = find_center(quotient, arity_cap)
        if not inner.complete:
            complete = False
        if inner.center is not None:
            lifted = frozenset(
                e for e in alg.elements if kmap[e] in inner.center
            )
            return CenterSearch(
                lifted,
                CenterWitness(
                    "lifted",
                    congruence=delta,
                    inner=inner.witness,
                    inner_center=inner.center,
                ),
                True,
            )
    return CenterSearch(None, None, complete)


# ---------------------------------------------------------------------------
# PC and linear congruence structure


@lru_cache(maxsize=None)
def pc_structure(alg: Algebra):
    """The congruences whose quotient is polynomially complete with at least
    two classes.

    An affine algebra has none, since its quotients are affine.  On two
    elements Post's criterion rejects affine operations; on three or more, a
    unary map constant on all but one point is no polynomial x -> ax + c.
    """

    if is_affine(alg):
        return ()
    return _search_pc(alg)


def _search_pc(alg: Algebra):
    """The general search behind ``pc_structure``."""

    return tuple(
        cong for cong in all_congruences(alg)
        if len(cong.blocks) >= 2
        and is_polynomially_complete(quotient_algebra(alg, cong)[0]))


def pc_congruence(alg: Algebra):
    """The congruence a PC-class reduction uses: the first maximal one
    among those with polynomially complete quotient, or None."""

    pc_congs = pc_structure(alg)
    return maximal_among(pc_congs)[0] if pc_congs else None


@dataclass(frozen=True)
class ConLinResult:
    congruence: Congruence
    quotient: Algebra
    iso: LinearIso


@lru_cache(maxsize=None)
def con_lin(alg: Algebra) -> ConLinResult:
    """The least congruence whose quotient is linear, with the quotient and
    its iso.  Always exists: the full partition is linear-trivial."""

    candidates = []
    for cong in all_congruences(alg):
        quotient, _ = quotient_algebra(alg, cong)
        iso = linear_structure(quotient)
        if iso is not None:
            candidates.append((cong, quotient, iso))
    least = None
    for item in candidates:
        if all(item[0].refines(other[0]) for other in candidates):
            least = item
            break
    if least is None:
        raise InvariantError("linear congruences have no least element")
    return ConLinResult(*least)


# ---------------------------------------------------------------------------
# the classification procedure


def classify_domain(alg: Algebra, arity_cap=DEFAULT_CENTER_ARITY_CAP) -> StructureReport:
    """Classify a domain algebra in the algorithm's priority order."""

    if alg.size < 2:
        raise ArgumentError("classification needs at least two elements")
    ba = find_binary_absorbing(alg)
    if ba is not None:
        return StructureReport("binary_absorbing", subuniverse=ba[0], term=ba[1])
    search = find_center(alg, arity_cap)
    if search.center is not None:
        return StructureReport("center", subuniverse=search.center,
                               witness=search.witness)
    if not search.complete:
        raise ConfigError("center search capped; classification undecided")
    sigma = pc_congruence(alg)
    if sigma is not None:
        return StructureReport("pc_quotient", congruence=sigma)
    lin = con_lin(alg)
    if lin.congruence.is_full:
        raise ClassificationError("no structure found", algebra=alg)
    return StructureReport("linear_quotient", congruence=lin.congruence,
                           iso=lin.iso)


# ---------------------------------------------------------------------------
# certificate re-verification (the module's primary test surface)


def verify_center_witness(alg: Algebra, center, witness: CenterWitness):
    problems = []
    if witness.kind == "least_of_order":
        rel = witness.relation
        if not is_invariant(rel):
            problems.append("order not invariant")
        bounds = _bounded_partial_order(rel)
        if bounds is None:
            problems.append("not a bounded partial order")
        elif frozenset({bounds[0]}) != frozenset(center):
            problems.append("center is not the least element")
    elif witness.kind == "central_relation":
        rel = witness.relation
        h = rel.arity
        if not is_invariant(rel):
            problems.append("central relation not invariant")
        if rel.is_full:
            problems.append("central relation is full")
        base = _totally_reflexive_base(alg, h)
        if not base <= rel.tuples:
            problems.append("not totally reflexive")
        for t in rel.tuples:
            for perm in itertools.permutations(range(h)):
                if tuple(t[i] for i in perm) not in rel.tuples:
                    problems.append("not totally symmetric")
                    break
            else:
                continue
            break
        if frozenset(_relation_center(alg, rel.tuples, h)) != frozenset(center):
            problems.append("declared center mismatch")
        if not center:
            problems.append("empty center")
    elif witness.kind == "lifted":
        delta = witness.congruence
        quotient, kmap = quotient_algebra(alg, delta)
        want = frozenset(e for e in alg.elements if kmap[e] in witness.inner_center)
        if want != frozenset(center):
            problems.append("lift does not match quotient center")
        problems.extend(
            verify_center_witness(quotient, witness.inner_center, witness.inner)
        )
    else:
        problems.append("unknown witness kind %r" % witness.kind)
    return problems


def verify_structure_report(alg: Algebra, report: StructureReport):
    """Re-check a report's certificate from scratch; returns problems."""

    problems = []
    if report.kind == "binary_absorbing":
        b_set, t = report.subuniverse, report.term
        if not b_set or b_set == set(alg.elements):
            problems.append("absorbing set not proper and nonempty")
        if b_set not in all_subuniverses(alg):
            problems.append("absorbing set is not a subuniverse")
        if t not in {x for x in binary_terms(alg).tables}:
            problems.append("term not in the binary term closure")
        pos = {e: i for i, e in enumerate(alg.elements)}
        carrier = alg.elements
        for b in b_set:
            for a in carrier:
                if carrier[t.apply((pos[b], pos[a]))] not in b_set:
                    problems.append("t(B,A) leaves B")
                if carrier[t.apply((pos[a], pos[b]))] not in b_set:
                    problems.append("t(A,B) leaves B")
    elif report.kind == "center":
        if not report.subuniverse or report.subuniverse == set(alg.elements):
            problems.append("center not proper and nonempty")
        if report.subuniverse not in all_subuniverses(alg):
            problems.append("center is not a subuniverse")
        if find_binary_absorbing(alg) is not None:
            problems.append("algebra has binary absorption")
        problems.extend(
            verify_center_witness(alg, report.subuniverse, report.witness)
        )
    elif report.kind == "pc_quotient":
        quotient, _ = quotient_algebra(alg, report.congruence)
        if quotient.size < 2:
            problems.append("PC quotient must have >= 2 elements")
        if not is_polynomially_complete(quotient):
            problems.append("quotient not polynomially complete")
    elif report.kind == "linear_quotient":
        if report.congruence.is_full:
            problems.append("linear congruence is not proper")
        quotient, _ = quotient_algebra(alg, report.congruence)
        if not verify_linear_iso(quotient, report.iso):
            problems.append("linear iso fails the sum identity")
    else:
        problems.append("unknown report kind %r" % report.kind)
    return problems
