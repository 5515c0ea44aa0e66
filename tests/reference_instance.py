"""Reference for ``wnucsp.instance.make_crucial``: the scan that restarts
from the first constraint after each accepted weakening and asks the
oracle about every constraint again, the ones it rejected before too."""

from wnucsp.errors import InternalError, OracleError
from wnucsp.instance import (
    MAX_CRUCIAL_ROUNDS,
    Constraint,
    _derived,
    _weaker_constraints,
    prune_weaker,
)


def make_crucial(inst, unsat_oracle, retests=None):
    """``make_crucial`` without the skip of rejected weakenings.
    ``retests``, when given, gets the oracle's answer for each constraint
    whose (scope, tuples) pair an earlier call rejected."""

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
            rounds += 1
            if rounds > MAX_CRUCIAL_ROUNDS:
                raise InternalError("crucial computation did not settle")
            replaced = [d for d in current if d is not c]
            replaced += _weaker_constraints(inst, c)
            candidate = prune_weaker(inst, replaced)
            accepted = unsat_oracle(build(candidate))
            key = (c.scope, c.relation.tuples)
            if key in rejected and retests is not None:
                retests.append(accepted)
            if accepted:
                current = candidate
                restart = True
                break
            rejected.add(key)
    return build(current)
