"""The main recursive decision procedure.

The pipeline per call: split fragments, then loop — cycle-consistency,
linked-component decomposition, irreducibility, solvability of the fully
weakened instance per pinned value, binary-absorbing / center / PC-class
reductions — and finally the linear phase, which factorizes by minimal
linear congruences, parameterizes the solution set of the system plus the
learned equations, probes the zero point, computes a crucial weakening, and
learns one new equation per round.

Irreducibility and the weakened-instance check pass on witnesses: when a
bounded search on the cycle-consistent network (``witness_cover``) finds
solutions of the instance that together assign every value of every
variable, both are skipped.  A solution of the instance solves its
projection onto any variable set, and it solves the weakened instance,
whose every constraint is implied by a constraint of the instance; so each
pinned sub-instance of the two steps has a solution and both would pass.
Otherwise both run exactly, with their pinned sub-solves, and only then
does a weakened-instance descent meet the type-3 depth cap and descent
check.

Recursion bookkeeping follows the four call types: single-domain reductions
loop in place, linked components and parameter-point reductions strictly
shrink domains, and weakened-instance descents are guarded by the
strictly-decreasing constraint order plus a depth cap.

The memo keys only the calls that another call can repeat.  The root call
is not keyed, nor are the fragments and linked components of a call that
is not keyed; every other sub-solve (Step 2's pinned projections, Step 3's
pinned weakenings, the linear phase's point solves) is keyed, and so is
every call below it.  No call of the unkeyed region can hit or be hit by
another call: a call never meets its own key inside its own subtree, or
the recursion would not end; sibling fragments have disjoint variables,
and a descendant keeps a subset of its ancestor's variables; sibling
components have disjoint nonempty domains on every variable, and a
descendant keeps its domains inside its ancestor's.  So the memo answers
the same calls as one that keys every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from .classify import (
    StructureReport,
    find_binary_absorbing,
    find_center,
    pc_congruence,
)
from .consistency import (
    PropagationResult,
    check_irreducibility,
    enforce_cycle_consistency,
    is_linked,
    pinned_supports,
    value_components,
    witness_cover,
)
from .errors import (
    AffineStructureViolation,
    ConfigError,
    InternalError,
)
from .instance import (
    Instance,
    apply_reduction,
    factorize_to_linear,
    fragment_variable_sets,
    make_crucial,
    restrict_to_variables,
    weaken_all,
)
from .linsolve import (
    Equation,
    LinearSystem,
    basis_points,
    learn_hyperplane,
    solve_linear_system,
)


# Largest parameter space the linear phase enumerates points of.
MAX_PHI_POINTS = 4096

# Deepest nesting of weakened-instance (type-3) descents.
MAX_TYPE3_DEPTH = 64

# Trace text of a step that finds no solution; Step 3 emits none
_NO_SOLUTION_TEXT = {"1": "propagation emptied a pair",
                     "2": "projection solution set empty"}

# Trace text of a step's reduction: a prefix, then one entry per variable
_REDUCTION_TEXT = {**dict.fromkeys("123", ("reduce ", "%s to %s")),
                   "4": ("", "absorb %s into %s"),
                   "5": ("", "center %s to %s"),
                   "6": ("", "PC class %s to %s")}


@dataclass(frozen=True)
class SolverConfig:
    center_arity_cap: int = 3
    trace_sink: object = None  # called with each TraceEvent; None is off


@dataclass(frozen=True)
class TraceEvent:
    step: str
    detail: str
    depth: int
    type3_depth: int


@dataclass(frozen=True)
class SolveOutcome:
    kind: str  # "sat" | "unsat"
    assignment: dict | None = None

    @property
    def satisfiable(self):
        return self.kind == "sat"


@dataclass(frozen=True)
class LearnedEquation:
    depth: int
    names: tuple
    coeffs: tuple
    rhs: int
    prime: int


class Solver:
    """One solving session: memo table and certificate log."""

    def __init__(self, config: SolverConfig | None = None):
        self.config = config or SolverConfig()
        self.memo = {}
        self._keyed = False  # whether _solve keys the memo; see the module
        self.reports = []   # (Algebra, StructureReport) pairs, as applied
        self.learned = []   # LearnedEquation log

    # -- public entry

    def solve(self, inst: Instance) -> SolveOutcome:
        try:
            ok, assignment = self._solve(inst, 0, 0)
        finally:
            # the shape data is shared with the instances derived in the
            # solve; the caller's instance does not keep it
            inst.__dict__.pop("_shape", None)
        if ok:
            return SolveOutcome("sat", assignment)
        return SolveOutcome("unsat")

    # -- plumbing

    def _emit(self, step, detail, depth, t3):
        """Pass one trace event to the sink.  Callers test
        ``self.config.trace_sink`` first, so no detail text is built when
        tracing is off."""

        self.config.trace_sink(TraceEvent(step, detail, depth, t3))

    def _solve(self, inst: Instance, depth, t3):
        """Solve ``inst`` and verify its solution.  The memo is read and
        written only while ``self._keyed`` is on: ``_solve_keyed`` turns it
        on around the sub-solves of Steps 2 and 3 and of the linear phase,
        and fragments and linked components leave it as it is.  So the root
        and the fragments and components of an unkeyed call are not keyed.
        None of them could hit or be hit: a call never meets its own key in
        its own subtree, sibling fragments have disjoint variables and
        sibling components disjoint nonempty domains, and a descendant
        keeps its ancestor's variables or fewer and domains inside its
        ancestor's.  The memo answers the calls it would answer if every
        call were keyed."""

        keyed = self._keyed
        if keyed:
            key = inst.canonical_key()
            hit = self.memo.get(key)
            if hit is not None:
                return hit
        ok, assignment = self._solve_main(inst, depth, t3)
        if ok:
            if not inst.assignment_satisfies(assignment):
                raise InternalError("solution failed the final verification")
        result = (ok, assignment)
        if keyed:
            self.memo[key] = result
        return result

    def _solve_keyed(self, inst: Instance, depth, t3):
        """``_solve`` with the memo keyed for this call and every call
        below it."""

        keyed = self._keyed
        self._keyed = True
        try:
            return self._solve(inst, depth, t3)
        finally:
            self._keyed = keyed

    # -- the pipeline

    def _solve_main(self, inst: Instance, depth, t3):
        frags = fragment_variable_sets(inst)
        if len(frags) > 1 or not inst.constraints:
            # a variable in no constraint takes its least value; only the
            # fragments that hold a constraint are solved as sub-instances
            constrained = {v for c in inst.constraints for v in c.scope}
            assignment = {}
            for frag in frags:
                if frag[0] not in constrained:
                    assignment[frag[0]] = min(inst.domain(frag[0]))
                    continue
                sub = restrict_to_variables(inst, frag)
                # one connected component with every constraint on it
                sub.shape().fragments = (frag,)
                ok, a = self._solve(sub, depth + 1, t3)
                if not ok:
                    return False, None
                assignment.update(a)
            return True, assignment

        # Step 1's last network: after a reduction, the next round's Step 1
        # starts from it and scans only the constraints wider than two
        network = None
        while True:
            if inst.all_singleton():
                assignment = {
                    v: next(iter(inst.current_domains[i]))
                    for i, v in enumerate(inst.variables)
                }
                return (True, assignment) if inst.assignment_satisfies(
                    assignment) else (False, None)

            # Steps 1-6 in turn.  Each passes, finds no solution, or
            # shrinks domains and restarts the loop; the first that does
            # not pass ends the round below
            step, res = "1", enforce_cycle_consistency(inst, network)
            network = res.network
            later = (("3", self._step3), ("4", self._step4),
                     ("5", self._step5), ("6", self._step6))
            if res.status == "ok":
                # not linked: solve per linked component (type 2).  Every
                # variable is constrained, the scopes connect them all and
                # every value has support in each of its constraints, so the
                # instance is linked exactly when its values form one
                # component
                comps = value_components(inst, res.network)
                if len(comps) > 1:
                    return self._solve_unlinked(inst, comps, depth, t3)
                # solutions that assign every value pass Steps 2 and 3;
                # those found for the shape before are reused
                if witness_cover(inst, res.network, inst.shape().witnesses):
                    later = later[1:]
                else:
                    step, res = "2", check_irreducibility(
                        inst,
                        lambda sub: self._solve_keyed(sub, depth + 1, t3)[1])
            if res.status == "ok":
                for step, run in later:
                    res = run(inst, depth, t3)
                    if res is not None:
                        break
                else:
                    return self._linear_phase(inst, depth, t3)
            if res.status == "nosolution":
                if self.config.trace_sink and step in _NO_SOLUTION_TEXT:
                    self._emit(step, _NO_SOLUTION_TEXT[step], depth, t3)
                return False, None
            if self.config.trace_sink:
                prefix, entry = _REDUCTION_TEXT[step]
                self._emit(step, prefix + ", ".join(
                    entry % (var, sorted(subset))
                    for var, subset in res.reduction.items()), depth, t3)
            inst = apply_reduction(inst, res.reduction)

    def _solve_unlinked(self, inst: Instance, comps, depth, t3):
        if self.config.trace_sink:
            self._emit("2", "%d linked components" % len(comps), depth, t3)
        for comp in comps:
            reduction = {}
            for i, var in enumerate(inst.variables):
                vals = frozenset(a for v, a in comp if v == var)
                if vals == inst.current_domains[i]:
                    raise InternalError("linked component does not shrink %s" % var)
                reduction[var] = vals
            sub = apply_reduction(inst, reduction)
            ok, a = self._solve(sub, depth + 1, t3)
            if ok:
                return True, a
        return False, None

    def _step3(self, inst: Instance, depth, t3):
        """Zhuk's Step 3: whether the weakened instance has a solution
        through every value of every variable.  Returns None when it has,
        "nosolution" when some variable has no such value, else "reduce"
        to the good values of the first variable with values that have
        none.

        One pinned sub-solve per value, except that a solution of the
        weakened instance is a witness for every value it assigns: a value
        an earlier sub-solve of the same call already used is good without
        a solve (``pinned_supports``).  The answer is the same as with one
        sub-solve per value, since each is exact.

        ``_solve_main`` calls this step only when ``witness_cover`` found
        no solutions of the instance that assign every value: such
        solutions solve the weakened instance through each value they
        assign, since every weakened constraint is implied by a constraint
        of the instance, so the step would pass."""

        weakened = weaken_all(inst)
        if t3 + 1 > MAX_TYPE3_DEPTH:
            raise InternalError("type-3 recursion exceeded its bound")
        self._check_type3_descent(inst, weakened)
        if not weakened.constraints:
            # every pinned value of an unconstrained instance is solvable
            return None
        supports = pinned_supports(
            weakened, inst.variables,
            lambda pinned: self._solve_keyed(pinned, depth + 1, t3 + 1)[1])
        for var, good in supports:
            if not good:
                return PropagationResult("nosolution")
            if good != inst.domain(var):
                return PropagationResult("reduce", reduction={var: good})
        return None

    def _check_type3_descent(self, inst: Instance, weakened: Instance):
        parents = [(set(c.scope), c.scope, inst.effective(c))
                   for c in inst.constraints]
        for wc in weakened.constraints:
            wset = set(wc.scope)
            ok = False
            for pset, pscope, peff in parents:
                if not wset <= pset:
                    continue
                pos = [pscope.index(v) for v in wc.scope]
                if all(tuple(t[i] for i in pos) in wc.relation.tuples
                       for t in peff.tuples):
                    if len(wc.scope) < len(pscope):
                        ok = True
                        break
                    if wc.relation.tuples > peff.tuples:
                        ok = True
                        break
            if not ok:
                raise InternalError("weakened constraint is not strictly below "
                                    "any parent")

    def _step4(self, inst: Instance, depth, t3):
        for i, var in enumerate(inst.variables):
            if len(inst.current_domains[i]) < 2:
                continue
            alg = inst.domain_algebra(var)
            ba = find_binary_absorbing(alg)
            if ba is not None:
                report = StructureReport("binary_absorbing",
                                         subuniverse=ba[0], term=ba[1])
                self.reports.append((alg, report))
                return PropagationResult("reduce", reduction={var: ba[0]})
        return None

    def _step5(self, inst: Instance, depth, t3):
        incomplete = False
        for i, var in enumerate(inst.variables):
            if len(inst.current_domains[i]) < 2:
                continue
            alg = inst.domain_algebra(var)
            search = find_center(alg, self.config.center_arity_cap)
            if search.center is not None:
                report = StructureReport("center", subuniverse=search.center,
                                         witness=search.witness)
                self.reports.append((alg, report))
                return PropagationResult("reduce",
                                         reduction={var: search.center})
            if not search.complete:
                incomplete = True
        if incomplete:
            raise ConfigError("center search capped but later steps require "
                              "completeness")
        return None

    def _step6(self, inst: Instance, depth, t3):
        for i, var in enumerate(inst.variables):
            if len(inst.current_domains[i]) < 2:
                continue
            alg = inst.domain_algebra(var)
            sigma = pc_congruence(alg)
            if sigma is None:
                continue
            report = StructureReport("pc_quotient", congruence=sigma)
            self.reports.append((alg, report))
            block = frozenset(sigma.block_of(min(inst.current_domains[i])))
            return PropagationResult("reduce", reduction={var: block})
        return None

    # -- the linear phase (Steps 7-13)

    def _linear_phase(self, inst: Instance, depth, t3):
        system, factors = factorize_to_linear(inst)
        for f in factors:
            if len(inst.domain(f.var)) > 1:
                alg = inst.domain_algebra(f.var)
                self.reports.append((alg, StructureReport(
                    "linear_quotient", congruence=f.conlin.congruence,
                    iso=f.conlin.iso)))
        if self.config.trace_sink:
            self._emit("7", "linear phase over %d scalars"
                       % len(system.scalar_vars), depth, t3)
        equations = []
        while True:
            res = solve_linear_system(
                LinearSystem(system.scalar_vars,
                             system.equations + tuple(equations)))
            if self.config.trace_sink:
                self._emit("8", "system solved: %s" % res.kind, depth, t3)
            if res.kind == "inconsistent":
                return False, None
            if res.kind == "unique":
                reduced = self._point_reduction(inst, factors, res.assignment)
                return self._solve_keyed(reduced, depth + 1, t3)
            param = res.param
            zero = tuple([0] * len(param.free_vars))
            ok, a = self._solve_at_point(inst, factors, param, zero, depth, t3)
            if self.config.trace_sink:
                self._emit("9", "zero point %s"
                           % ("solved" if ok else "failed"), depth, t3)
            if ok:
                return True, a

            if param.space_size() > MAX_PHI_POINTS:
                raise ConfigError("parameter space exceeds the point cap")
            oracle = self._unsat_somewhere_oracle(factors, param, depth, t3)
            theta_p = make_crucial(inst, oracle)
            if self.config.trace_sink:
                self._emit("10", "crucial instance with %d constraints"
                           % len(theta_p.constraints), depth, t3)

            solvable_points = {
                pt for pt in param.points()
                if self._solve_at_point(theta_p, factors, param, pt,
                                        depth, t3)[0]
            }
            if is_linked(theta_p):
                if not solvable_points:
                    if self.config.trace_sink:
                        self._emit("13", "no equation exists", depth, t3)
                    return False, None
                new_eq = self._learn_step13(param, solvable_points, depth, t3)
            else:
                new_eq = self._learn_step12(param, solvable_points, depth, t3)
            if self._implied_by_param(param, new_eq):
                raise InternalError("learned equation does not shrink the system")
            equations.append(new_eq)
            if len(equations) > len(system.scalar_vars):
                raise InternalError("more equations than scalar variables")

    def _point_reduction(self, inst: Instance, factors, scalar_values):
        reduction = {}
        for f in factors:
            if f.width == 0:
                continue
            group = tuple(scalar_values[f.offset:f.offset + f.width])
            block_idx = f.conlin.iso.from_group(group)
            block = frozenset(f.conlin.congruence.blocks[block_idx])
            if len(inst.domain(f.var)) > 1 and block == inst.domain(f.var):
                raise InternalError("linear class reduction does not shrink %s"
                                    % f.var)
            reduction[f.var] = block
        return apply_reduction(inst, reduction)

    def _solve_at_point(self, inst: Instance, factors, param, point, depth, t3):
        values = param.evaluate(point)
        reduced = self._point_reduction(inst, factors, values)
        return self._solve_keyed(reduced, depth + 1, t3)

    def _unsat_somewhere_oracle(self, factors, param, depth, t3):
        def oracle(candidate: Instance) -> bool:
            for pt in param.points():
                ok, _ = self._solve_at_point(candidate, factors, param, pt,
                                             depth, t3)
                if not ok:
                    return True
            return False
        return oracle

    def _learn_step12(self, param, solvable_points, depth, t3):
        """Learn the equation of the first free-variable prefix whose good
        set is proper.  The shorter prefix is full, so only the block of
        the prefix's newest variable can hold that equation."""

        moduli = param.moduli
        for i in range(1, len(moduli) + 1):
            good = {pt[:i] for pt in solvable_points}
            if len(good) == prod(moduli[:i]):
                continue
            eq = self._learn(param, moduli[:i], good, depth)
            if self.config.trace_sink:
                self._emit("12", "learned prefix equation at i=%d" % i,
                           depth, t3)
            return eq
        raise InternalError("every prefix is covered although some point fails")

    def _learn_step13(self, param, solvable_points, depth, t3):
        """The solvable points form the solution set of one equation living
        in a single prime block."""

        eq = self._learn(param, param.moduli, solvable_points, depth)
        if self.config.trace_sink:
            self._emit("13", "learned equation in block p=%d" % eq.prime,
                       depth, t3)
        return eq

    def _learn(self, param, moduli, members, depth):
        """The equation that holds exactly at ``members`` among all points
        over ``moduli``, a prefix of the free variables' moduli.  Tries the
        prime blocks in order of appearance; in each it learns the
        hyperplane that ``members`` cut out of the block's coordinates with
        every other coordinate 0.  A nonzero equation over one p-block
        holds at exactly N / p of the N points, so it holds exactly at
        ``members`` when every member satisfies it and there are N / p of
        them."""

        size = prod(moduli)
        for p in dict.fromkeys(moduli):
            slots = [j for j, q in enumerate(moduli) if q == p]

            def oracle(v):
                point = [0] * len(moduli)
                for idx, j in enumerate(slots):
                    point[j] = v[idx]
                return tuple(point) in members

            out = learn_hyperplane(oracle, p, len(slots))
            if out.kind == "equation" and len(members) == size // p and all(
                    sum(out.coeffs[idx] * pt[j]
                        for idx, j in enumerate(slots)) % p == out.rhs
                    for pt in members):
                return self._global_equation(param, slots, out, depth)
        raise AffineStructureViolation(
            "no single-block equation describes the points")

    def _global_equation(self, param, slots, out, depth):
        dense = [0] * len(param.scalar_vars)
        names = []
        for idx, j in enumerate(slots):
            scalar_index, name, _ = param.free_vars[j]
            dense[scalar_index] = out.coeffs[idx]
            names.append(name)
        p = param.free_vars[slots[0]][2]
        self.learned.append(LearnedEquation(depth, tuple(names),
                                            tuple(out.coeffs), out.rhs, p))
        return Equation(tuple(dense), out.rhs, p)

    def _implied_by_param(self, param, equation):
        """An equation already implied by the parameterized system holds at
        the zero point and at every unit point."""

        for pt in basis_points(param):
            values = param.evaluate(pt)
            lhs = sum(c * v for c, v in zip(equation.coeffs, values))
            if lhs % equation.prime != equation.rhs:
                return False
        return True


def solve(inst: Instance, config: SolverConfig | None = None) -> SolveOutcome:
    return Solver(config).solve(inst)
