"""CSP instances: variables, shrinking domains, shared constraint relations.

Reductions are domain masks; relation tables are stored once and membership
tests intersect with the current domains.  Each instance computes its
domain algebras and effective relations once, on first read.  What depends
only on the variables, base algebras and constraints (the instance's
``Shape``) is computed once and shared with every instance
``apply_reduction`` derives from it.  ``Instance(...)`` checks its fields;
instances derived from a valid one are built by ``_derived`` and trusted
(weakenings and projections over the current-domain algebras).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter

from .algebra import (
    Algebra,
    is_subuniverse,
    linear_structure,
    restrict_algebra,
)
from .classify import ConLinResult, con_lin
from .errors import (
    EmptyRelationError,
    FormatError,
    InternalError,
    OracleError,
    PreconditionError,
    ReductionError,
)
from .linsolve import Equation, LinearSystem, nullspace_mod_p, rref_mod_p
from .relation import (
    Relation,
    _derived as _derived_relation,
    cylinder_implies,
    factorize,
    minimal_weaker_relations,
    project,
    restrict_relation,
)


@dataclass(frozen=True)
class Constraint:
    relation: Relation
    scope: tuple

    def __post_init__(self):
        if not isinstance(self.scope, tuple):
            object.__setattr__(self, "scope", tuple(self.scope))
        if len(self.scope) != self.relation.arity:
            raise FormatError("scope length must equal the relation arity")
        if not self.scope:
            raise FormatError("a constraint needs at least one variable")

    def sort_key(self):
        return (self.scope, self.relation.sort_key())


class Shape:
    """Data fixed by an instance's variables, base algebras and
    constraints, filled on first read: the fragments, the constraint part
    of the memo key, Step 1's network layout (``consistency``), the
    solution checks of ``Instance.assignment_satisfies`` (``checks``), and
    the witness pool: the solutions ``consistency.witness_cover`` has
    found for instances of this shape, each as the bit row of its nodes.
    Shared by the instances ``apply_reduction`` derives from one instance,
    and dropped from the root instance when ``Solver.solve`` returns."""

    __slots__ = ("fragments", "constraint_key", "pair_layout", "checks",
                 "witnesses")

    def __init__(self):
        self.fragments = self.constraint_key = None
        self.pair_layout = self.checks = None
        self.witnesses = []


@dataclass(frozen=True)
class Instance:
    variables: tuple
    base_algebras: tuple
    current_domains: tuple
    constraints: tuple

    def __post_init__(self):
        if not isinstance(self.variables, tuple):
            object.__setattr__(self, "variables", tuple(self.variables))
        if not isinstance(self.base_algebras, tuple):
            object.__setattr__(self, "base_algebras", tuple(self.base_algebras))
        object.__setattr__(
            self, "current_domains",
            tuple(frozenset(d) for d in self.current_domains),
        )
        if not isinstance(self.constraints, tuple):
            object.__setattr__(self, "constraints", tuple(self.constraints))
        if len({v for v in self.variables}) != len(self.variables):
            raise FormatError("duplicate variable names")
        if not (len(self.variables) == len(self.base_algebras)
                == len(self.current_domains)):
            raise FormatError("per-variable field lengths disagree")
        index = {v: i for i, v in enumerate(self.variables)}
        object.__setattr__(self, "_index", index)
        for dom, alg in zip(self.current_domains, self.base_algebras):
            if not dom:
                raise FormatError("empty current domain")
            if not dom <= alg.carrier:
                raise FormatError("domain outside base carrier")
            if not is_subuniverse(alg, dom):
                raise FormatError("current domain is not a subuniverse")
        for c in self.constraints:
            if len(set(c.scope)) != len(c.scope):
                raise FormatError("repeated variable in scope (normalize first)")
            for var, alg in zip(c.scope, c.relation.coords):
                if var not in index:
                    raise FormatError("unknown scope variable %r" % (var,))
                if not alg.carrier <= self.base_algebras[index[var]].carrier:
                    raise FormatError("relation coords exceed variable carrier")

    def index(self, var):
        try:
            return self._index[var]
        except KeyError:
            raise ValueError("%r is not a variable" % (var,)) from None

    def domain(self, var):
        return self.current_domains[self.index(var)]

    def domain_algebras(self) -> tuple:
        """The subalgebras on the current domains, aligned with the
        variables; computed once per instance."""
        algs = self.__dict__.get("_algebras")
        if algs is None:
            algs = tuple(map(restrict_algebra, self.base_algebras,
                             self.current_domains))
            object.__setattr__(self, "_algebras", algs)
        return algs

    def domain_algebra(self, var) -> Algebra:
        return self.domain_algebras()[self.index(var)]

    def effective(self, constraint: Constraint) -> Relation:
        """The constraint's relation restricted to the current domains,
        computed once per instance and constraint.  Entries are keyed by
        ``id`` and hold the constraint, so a hit is checked by identity."""
        cache = self.__dict__.get("_effs")
        if cache is None:
            cache = {}
            object.__setattr__(self, "_effs", cache)
        entry = cache.get(id(constraint))
        if entry is not None and entry[0] is constraint:
            return entry[1]
        idx = [self.index(v) for v in constraint.scope]
        algs = self.domain_algebras()
        eff = _effective(constraint.relation, tuple(algs[i] for i in idx),
                         tuple(self.current_domains[i] for i in idx))
        cache[id(constraint)] = (constraint, eff)
        return eff

    def shape(self) -> Shape:
        """The instance's ``Shape``, made on first read."""
        shape = self.__dict__.get("_shape")
        if shape is None:
            shape = Shape()
            object.__setattr__(self, "_shape", shape)
        return shape

    def canonical_key(self):
        k = self.__dict__.get("_key")
        if k is None:
            shape = self.shape()
            if shape.constraint_key is None:
                shape.constraint_key = tuple(sorted(
                    (c.scope, c.relation.arity, c.relation.sort_key()[2])
                    for c in self.constraints))
            k = (
                self.variables,
                self.base_algebras,
                tuple(tuple(sorted(d)) for d in self.current_domains),
                shape.constraint_key,
            )
            object.__setattr__(self, "_key", k)
        return k

    def all_singleton(self):
        return all(len(d) == 1 for d in self.current_domains)

    def assignment_satisfies(self, assignment) -> bool:
        """Whether ``assignment`` (a dict over the variables) takes every
        variable into its current domain and every constraint's scope into
        its relation.  The scope tuples are read by getters made once per
        shape (``Shape.checks``); an instance with no shape makes them for
        the call only, so a root instance the solver has let go of keeps
        nothing."""

        for var, dom in zip(self.variables, self.current_domains):
            if assignment[var] not in dom:
                return False
        shape = self.__dict__.get("_shape")
        checks = shape.checks if shape is not None else None
        if checks is None:
            checks = _scope_checks(self.constraints)
            if shape is not None:
                shape.checks = checks
        # with every value in its domain, membership in the relation is
        # membership in the effective relation
        for get, tuples in checks:
            if get(assignment) not in tuples:
                return False
        return True


def _scope_checks(constraints):
    """Per constraint, a getter of its scope's values from an assignment
    as a tuple, and the relation's tuples.  ``itemgetter`` of one key
    returns the value itself, so a unary scope gets a one-tuple builder."""

    checks = []
    for c in constraints:
        if len(c.scope) > 1:
            get = itemgetter(*c.scope)
        else:
            def get(assignment, var=c.scope[0]):
                return (assignment[var],)
        checks.append((get, c.relation.tuples))
    return checks


def _derived(parent: Instance, variables, base_algebras, current_domains,
             constraints) -> Instance:
    """An instance derived from the valid ``parent``, skipping the checks of
    ``Instance.__post_init__``: callers pass tuples, frozenset domains that
    are nonempty subuniverses of their bases and scopes over ``variables``.
    Given the parent's own variables, base algebras and constraints, it
    shares the parent's ``Shape``."""

    inst = object.__new__(Instance)
    index = parent._index if variables == parent.variables else {
        v: i for i, v in enumerate(variables)}
    inst.__dict__.update(variables=variables, base_algebras=base_algebras,
                         current_domains=current_domains,
                         constraints=constraints, _index=index)
    if (variables is parent.variables
            and base_algebras is parent.base_algebras
            and constraints is parent.constraints):
        inst.__dict__["_shape"] = parent.shape()
    return inst


@lru_cache(maxsize=65536)
def _effective(rel: Relation, coords, doms) -> Relation:
    """``rel`` restricted to ``doms``, the carriers of ``coords``; ``rel``
    itself when ``coords`` are its own, as every tuple is then kept."""

    if coords == rel.coords:
        return rel
    return restrict_relation(rel, coords, doms)


def normalize_scope(relation: Relation, scope) -> Constraint:
    """Collapse repeated scope variables by intersecting with the diagonal
    and projecting onto first occurrences."""

    scope = tuple(scope)
    if len(set(scope)) == len(scope):
        return Constraint(relation, scope)
    first = {}
    keep = []
    for i, v in enumerate(scope):
        if v not in first:
            first[v] = i
            keep.append(i)
    tuples = frozenset(
        t for t in relation.tuples
        if all(t[i] == t[first[v]] for i, v in enumerate(scope))
    )
    proj = project(_derived_relation(relation.coords, tuples), keep)
    return Constraint(proj, tuple(scope[i] for i in keep))


def apply_reduction(inst: Instance, reduction) -> Instance:
    """Shrink domains to the given per-variable subsets.  Subsets must be
    nonempty subuniverses inside the current domains; relations are shared,
    not rewritten."""

    new_domains = list(inst.current_domains)
    for var, subset in reduction.items():
        i = inst._index.get(var)
        if i is None:
            raise ReductionError("reduction of unknown variable %r" % (var,))
        subset = frozenset(subset)
        if not subset:
            raise ReductionError("empty reduction for %s" % var)
        if not subset <= inst.current_domains[i]:
            raise ReductionError("reduction outside the current domain")
        if not is_subuniverse(inst.base_algebras[i], subset):
            raise ReductionError("reduction of %s is not a subuniverse" % var)
        new_domains[i] = subset
    return _derived(inst, inst.variables, inst.base_algebras,
                    tuple(new_domains), inst.constraints)


def connected_groups(nodes, links):
    """Union-find: the groups of ``nodes`` when the members of each
    sequence in ``links`` are joined.  Each group lists its nodes in the
    order of ``nodes``."""

    parent = {v: v for v in nodes}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for link in links:
        root = find(link[0])
        for v in link[1:]:
            parent[find(v)] = root
    groups = {}
    for v in nodes:
        groups.setdefault(find(v), []).append(v)
    return groups.values()


def fragment_variable_sets(inst: Instance):
    """Variable blocks sharing no constraints; unconstrained variables are
    singleton fragments.  Computed once per shape."""

    shape = inst.shape()
    if shape.fragments is None:
        groups = connected_groups(inst.variables,
                                  (c.scope for c in inst.constraints))
        shape.fragments = tuple(sorted(tuple(g) for g in groups))
    return shape.fragments


def restrict_to_variables(inst: Instance, variables) -> Instance:
    variables = tuple(variables)
    keep = set(variables)
    idx = [inst.index(v) for v in variables]
    constraints = tuple(
        c for c in inst.constraints if set(c.scope) <= keep
    )
    return _derived(inst, variables,
                    tuple(inst.base_algebras[i] for i in idx),
                    tuple(inst.current_domains[i] for i in idx), constraints)


def project_instance(inst: Instance, variables) -> Instance:
    """The projection onto a variable subset: constraints are projections of
    the original constraints onto their scope intersection."""

    variables = tuple(variables)
    keep = set(variables)
    idx = [inst.index(v) for v in variables]
    seen = set()
    constraints = []
    for c in inst.constraints:
        positions = [i for i, v in enumerate(c.scope) if v in keep]
        if not positions:
            continue
        proj = project(inst.effective(c), positions)
        scope = tuple(c.scope[i] for i in positions)
        key = (scope, proj.tuples)
        if key in seen:
            continue
        seen.add(key)
        constraints.append(Constraint(proj, scope))
    algs = inst.domain_algebras()
    return _derived(inst, variables, tuple(algs[i] for i in idx),
                    tuple(inst.current_domains[i] for i in idx),
                    tuple(constraints))


# ---------------------------------------------------------------------------
# the linear factorization


@dataclass(frozen=True)
class FactorInfo:
    var: str
    conlin: ConLinResult
    offset: int  # first scalar slot of this variable
    width: int


def factorize_to_linear(inst: Instance):
    """Factor every domain by its minimal linear congruence and convert the
    factorized constraints into a linear system over per-prime scalars.
    Each constraint's local rows come from ``_linear_rows`` of its
    effective relation, and are placed on its scope's scalar slots.

    Returns (LinearSystem, FactorInfo tuple aligned with the variables).
    """

    factors = []
    scalar_vars = []
    for var in inst.variables:
        alg = inst.domain_algebra(var)
        cl = con_lin(alg)
        if len(inst.domain(var)) > 1 and cl.congruence.is_full:
            raise PreconditionError("domain of %s has no proper linear quotient" % var)
        offset = len(scalar_vars)
        for j, p in enumerate(cl.iso.primes):
            scalar_vars.append(("%s#%d" % (var, j), p))
        factors.append(FactorInfo(var, cl, offset, len(cl.iso.primes)))
    nvars = len(scalar_vars)
    by_var = {f.var: f for f in factors}
    equations = []
    seen = set()
    for c in inst.constraints:
        eff = inst.effective(c)
        if eff.is_empty:
            raise EmptyRelationError("constraint on %s is empty" % (c.scope,))
        slots = []
        for v in c.scope:
            f = by_var[v]
            slots.extend(range(f.offset, f.offset + f.width))
        for coeffs, rhs, p in _linear_rows(eff):
            dense = [0] * nvars
            for j, coeff in enumerate(coeffs):
                dense[slots[j]] = coeff
            key = (tuple(dense), rhs, p)
            if key in seen:
                continue
            seen.add(key)
            equations.append(Equation(tuple(dense), rhs, p))
    return LinearSystem(tuple(scalar_vars), tuple(equations)), tuple(factors)


@lru_cache(maxsize=4096)
def _linear_rows(eff: Relation):
    """``relation_to_equations`` of the nonempty relation ``eff`` factorized
    by each coordinate's minimal linear congruence.  A constraint's
    effective relation lives on its scope's domain algebras, so the rows
    depend on ``eff`` alone; many relations factorize to one relation,
    whose rows are computed once (``_factored_rows``)."""

    fact = factorize(eff, [con_lin(alg).congruence for alg in eff.coords])
    return _factored_rows(fact)


@lru_cache(maxsize=4096)
def _factored_rows(fact: Relation):
    """``relation_to_equations`` of a relation on linear quotients.  Each
    coordinate's iso is ``linear_structure`` of its quotient, the iso that
    ``con_lin`` found for it, so the rows depend on ``fact`` alone."""

    return tuple(relation_to_equations(
        fact, [linear_structure(q) for q in fact.coords]))


def relation_to_equations(rel: Relation, isos):
    """Equations cutting out a relation whose coordinates are linear.

    Coordinates flatten into per-prime scalars; the relation must then be a
    coset, and per prime the returned rows are the canonical basis of the
    difference subgroup's annihilator.  Returns (coeffs, rhs, prime) triples
    over the flattened local scalars; their solution set equals ``rel``.
    """

    if rel.is_empty:
        raise EmptyRelationError("cannot linearize an empty relation")
    primes_flat = [p for iso in isos for p in iso.primes]
    vectors = []
    for t in sorted(rel.tuples):
        flat = []
        for c, iso in enumerate(isos):
            flat.extend(iso.to_group(t[c]))
        vectors.append(tuple(flat))
    t0 = vectors[0]
    n = len(primes_flat)
    out = []
    solutions = 1
    for p in sorted(set(primes_flat)):
        cols = [i for i in range(n) if primes_flat[i] == p]
        gens = []
        for v in vectors:
            row = [(v[i] - t0[i]) % p for i in cols]
            if any(row):
                gens.append(row)
        basis = nullspace_mod_p(gens, len(cols), p)
        solutions *= p ** len(rref_mod_p(gens, p)[0])
        for brow in basis:
            coeffs = [0] * n
            for j, i in enumerate(cols):
                coeffs[i] = brow[j] % p
            rhs = sum(coeffs[i] * t0[i] for i in cols) % p
            out.append((tuple(coeffs), rhs, p))
    if solutions != len(rel.tuples):
        raise InternalError(
            "relation is not a coset of a subgroup (%d vs %d points)"
            % (solutions, len(rel.tuples))
        )
    for v in vectors:
        for coeffs, rhs, p in out:
            if sum(c * x for c, x in zip(coeffs, v)) % p != rhs:
                raise InternalError("linearized equations reject a member tuple")
    return out


# ---------------------------------------------------------------------------
# weakening and crucial instances


# Oracle calls make_crucial makes before it gives up: each call either
# accepts a weakening or rejects a distinct (scope, tuples) pair.
MAX_CRUCIAL_ROUNDS = 10_000


def _weaker_constraints(inst: Instance, c: Constraint):
    """The constraints of ``minimal_weaker_relations`` for ``c``, over the
    current domain algebras, on sub-scopes of ``c``."""

    return [Constraint(rel, tuple(c.scope[i] for i in sub))
            for sub, rel in minimal_weaker_relations(inst.effective(c))]


def weaken_all(inst: Instance) -> Instance:
    """Replace every constraint by its minimal strictly weaker constraints
    (dummy-free, sub-scopes allowed), deduplicated.  The solution set is that
    of the instance with all weaker constraints.  The result lives over the
    current domain algebras with full domains."""

    new_constraints = {}
    for c in inst.constraints:
        for w in _weaker_constraints(inst, c):
            new_constraints[(w.scope, w.relation.tuples)] = w
    constraints = tuple(sorted(new_constraints.values(),
                               key=Constraint.sort_key))
    return _derived(inst, inst.variables, inst.domain_algebras(),
                    inst.current_domains, constraints)


def constraint_weaker(inst: Instance, ca: Constraint, cb: Constraint) -> bool:
    """Whether ``ca`` is strictly weaker than ``cb``: scope contained,
    implied by it, and not conversely."""

    if not set(ca.scope) <= set(cb.scope):
        return False
    ea = inst.effective(ca)
    eb = inst.effective(cb)
    positions = [cb.scope.index(v) for v in ca.scope]
    for t in eb.tuples:
        if tuple(t[i] for i in positions) not in ea.tuples:
            return False  # not implied
    # strictness: the cylinder of ca over cb's scope must not sit inside cb
    return not cylinder_implies(ea.tuples, positions, eb)


def prune_weaker(inst: Instance, constraints):
    """Drop constraints strictly weaker than another present constraint,
    after deduplication."""

    dedup = {}
    for c in constraints:
        dedup[(c.scope, c.relation.tuples)] = c
    items = sorted(dedup.values(), key=Constraint.sort_key)
    keep = []
    for c in items:
        if not any(c is not d and constraint_weaker(inst, c, d) for d in items):
            keep.append(c)
    return tuple(keep)


def make_crucial(inst: Instance, unsat_oracle) -> Instance:
    """Weaken constraints until the instance is crucial for the oracle.

    First drops constraints weaker than others, then repeatedly replaces one
    constraint by its minimal weaker constraints whenever the oracle still
    reports the target unsatisfiable, restarting after each acceptance.

    The oracle's predicate is monotone: a weaker instance has at least the
    solutions of a stronger one.  So a constraint whose weakening was
    rejected stays rejected after any later acceptance, and the scans skip
    its (scope, tuples) pair; the acceptances come in the same order as
    when every constraint is asked again, giving the same instance.
    """

    def build(constraints):
        return _derived(inst, inst.variables, inst.base_algebras,
                        inst.current_domains, tuple(constraints))

    current = prune_weaker(inst, inst.constraints)
    if not unsat_oracle(build(current)):
        raise OracleError("instance is not unsatisfiable for the oracle")
    rejected = set()
    rounds = 0
    restart = True
    while restart:
        restart = False
        for c in sorted(current, key=Constraint.sort_key):
            key = (c.scope, c.relation.tuples)
            if key in rejected:
                continue
            rounds += 1
            if rounds > MAX_CRUCIAL_ROUNDS:
                raise InternalError("crucial computation did not settle")
            replaced = [d for d in current if d is not c]
            replaced += _weaker_constraints(inst, c)
            candidate = prune_weaker(inst, replaced)
            if unsat_oracle(build(candidate)):
                current = candidate
                restart = True
                break
            rejected.add(key)
    return build(current)
