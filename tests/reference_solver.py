"""Reference for the memo of ``wnucsp.solver.Solver``: a solver that keys
every ``_solve`` call, the root and every fragment and linked component
too, as the memo did before it was keyed only where a hit can happen."""

from wnucsp.errors import InternalError
from wnucsp.solver import Solver


class KeyEverySolver(Solver):
    """``Solver`` whose ``_solve`` reads and writes the memo on every
    call.  ``solve`` drops the memo key it gives the caller's instance."""

    def solve(self, inst):
        try:
            return super().solve(inst)
        finally:
            inst.__dict__.pop("_key", None)

    def _solve(self, inst, depth, t3):
        key = inst.canonical_key()
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        ok, assignment = self._solve_main(inst, depth, t3)
        if ok and not inst.assignment_satisfies(assignment):
            raise InternalError("solution failed the final verification")
        self.memo[key] = (ok, assignment)
        return ok, assignment
