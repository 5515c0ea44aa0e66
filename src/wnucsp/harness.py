"""Brute-force oracle, seeded instance generation, differential testing."""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, replace
from math import prod

from .algebra import (
    OperationTable,
    make_algebra,
    search_special_wnu,
    wnu_closure,
)
from .errors import ArgumentError, InternalError, SizeError
from .instance import Instance, normalize_scope
from .relation import Relation, is_invariant
from .solver import Solver

BRUTE_FORCE_CAP = 10_000_000


def brute_force(inst: Instance, mode="decision"):
    """Exhaustive assignment enumeration in lexicographic order.

    ``decision`` returns the first satisfying assignment or None; ``all``
    returns every satisfying assignment as a list.
    """

    if mode not in ("decision", "all"):
        raise ArgumentError("mode must be 'decision' or 'all'")
    space = prod(len(d) for d in inst.current_domains)
    if space > BRUTE_FORCE_CAP:
        raise SizeError("assignment space %d above cap" % space)
    domains = [sorted(d) for d in inst.current_domains]
    effs = [(c.scope, inst.effective(c).tuples) for c in inst.constraints]
    out = []
    for values in itertools.product(*domains):
        assignment = dict(zip(inst.variables, values))
        if all(tuple(assignment[v] for v in scope) in tuples
               for scope, tuples in effs):
            if mode == "decision":
                return assignment
            out.append(assignment)
    return None if mode == "decision" else out


@dataclass(frozen=True)
class GenParams:
    domain_size: int
    wnu_arity: int
    n_variables: int
    n_constraints: int
    max_arity: int
    seed: int
    satisfiable_bias: bool = False
    wnu: OperationTable | None = None  # searched canonically when omitted

    def __post_init__(self):
        if min(self.domain_size, self.wnu_arity, self.n_variables,
               self.max_arity) < 1 or self.n_constraints < 0:
            raise ArgumentError("generation parameters must be positive")


def _params_wnu(params: GenParams) -> OperationTable:
    if params.wnu is not None:
        if params.wnu.domain_size != params.domain_size \
                or params.wnu.arity != params.wnu_arity:
            raise ArgumentError("wnu table does not match the parameters")
        return params.wnu
    found = search_special_wnu(params.domain_size, [], params.wnu_arity)
    if found.table is None:
        raise ArgumentError("no special wnu of arity %d on %d elements"
                            % (params.wnu_arity, params.domain_size))
    return found.table


def random_instance(params: GenParams):
    """A seeded random instance whose constraint relations are closures of
    random tuple sets, hence invariant by construction.

    Returns (instance, wnu table used).  With ``satisfiable_bias`` every
    relation seed includes the projection of one planted assignment.
    """

    rng = random.Random(params.seed)
    table = _params_wnu(params)
    alg = make_algebra(range(params.domain_size), table)
    variables = tuple("x%d" % i for i in range(params.n_variables))
    planted = {
        v: rng.randrange(params.domain_size) for v in variables
    }
    constraints = []
    for _ in range(params.n_constraints):
        arity = rng.randint(1, min(params.max_arity, params.n_variables))
        scope = tuple(rng.sample(variables, arity))
        coords = (alg,) * arity
        n_seed = rng.randint(1, 3)
        seed = {
            tuple(rng.randrange(params.domain_size) for _ in range(arity))
            for _ in range(n_seed)
        }
        if params.satisfiable_bias:
            seed.add(tuple(planted[v] for v in scope))
        rel = Relation(arity, coords, wnu_closure(coords, seed))
        if not is_invariant(rel):
            raise InternalError("closure of a seed is not invariant")
        constraints.append(normalize_scope(rel, scope))
    inst = Instance(
        variables,
        (alg,) * params.n_variables,
        (frozenset(range(params.domain_size)),) * params.n_variables,
        tuple(constraints),
    )
    return inst, table


@dataclass(frozen=True)
class DiffRecord:
    seed: int
    solver_decision: str
    oracle_decision: str

    @property
    def agree(self):
        return self.solver_decision == self.oracle_decision


@dataclass(frozen=True)
class DiffReport:
    records: tuple
    disagreements: tuple  # (seed, serialized instance text)

    @property
    def ok(self):
        return not self.disagreements

    def summary(self):
        return "%d/%d agreements" % (
            sum(1 for r in self.records if r.agree), len(self.records))


def differential_test(n, params: GenParams,
                      solver_factory=Solver) -> DiffReport:
    """Solver vs brute force on ``n`` seeded instances, each solved by a
    fresh ``solver_factory()``; disagreement records carry the instance
    serialized in the CLI file format for replay."""

    from .fileformat import serialize_instance

    records = []
    disagreements = []
    for i in range(n):
        p = replace(params, seed=params.seed + i)
        inst, _ = random_instance(p)
        got = solver_factory().solve(inst)
        want = brute_force(inst, "decision")
        rec = DiffRecord(p.seed, got.kind, "sat" if want else "unsat")
        records.append(rec)
        if not rec.agree:
            disagreements.append((p.seed, serialize_instance(inst)))
        if got.kind == "sat" and not inst.assignment_satisfies(got.assignment):
            raise InternalError("solver assignment for seed %d violates the "
                                "instance" % p.seed)
    return DiffReport(tuple(records), tuple(disagreements))
