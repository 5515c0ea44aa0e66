"""Constraint propagation and structural checks on instances.

Three procedures: the pairwise (2,3)-consistency fixpoint that establishes
cycle-consistency, the decomposition of the (variable, value) pairs into
linked components, and the irreducibility check driven by maximal
congruences with a solver callback for the class-reduced sub-instances.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .algebra import maximal_congruences
from .errors import ArgumentError, InternalError
from .instance import (
    Instance,
    apply_reduction,
    connected_groups,
    fragment_variable_sets,
    project_instance,
)


@dataclass
class PairNetwork:
    """Binary relations per ordered variable pair; transposes are derived."""

    variables: tuple
    pairs: dict = field(default_factory=dict)  # (i, j) with i < j -> set

    def get(self, i, j):
        if i < j:
            return self.pairs[(i, j)]
        return {(b, a) for a, b in self.pairs[(j, i)]}

    def set(self, i, j, value):
        if i < j:
            self.pairs[(i, j)] = set(value)
        else:
            self.pairs[(j, i)] = {(b, a) for a, b in value}


@dataclass(frozen=True)
class PropagationResult:
    status: str  # "ok" | "nosolution" | "reduce"
    network: PairNetwork | None = None
    var: str | None = None
    subset: frozenset | None = None


def build_pair_network(inst: Instance) -> PairNetwork:
    """Initial network: intersections of constraint projections onto each
    pair; a constraint containing only one of the pair contributes its unary
    projection cylindered with the other domain.  Pairs with no common
    constraint start full."""

    n = len(inst.variables)
    net = PairNetwork(inst.variables)
    doms = inst.current_domains
    for i in range(n):
        for j in range(i + 1, n):
            net.pairs[(i, j)] = set(itertools.product(doms[i], doms[j]))
    for c in inst.constraints:
        eff = inst.effective(c)
        positions = {v: k for k, v in enumerate(c.scope)}
        for i in range(n):
            in_i = inst.variables[i] in positions
            for j in range(i + 1, n):
                in_j = inst.variables[j] in positions
                if not in_i and not in_j:
                    continue
                if in_i and in_j:
                    pi, pj = positions[inst.variables[i]], positions[inst.variables[j]]
                    proj = {(t[pi], t[pj]) for t in eff.tuples}
                elif in_i:
                    pi = positions[inst.variables[i]]
                    vals = {t[pi] for t in eff.tuples}
                    proj = set(itertools.product(vals, doms[j]))
                else:
                    pj = positions[inst.variables[j]]
                    vals = {t[pj] for t in eff.tuples}
                    proj = set(itertools.product(doms[i], vals))
                net.pairs[(i, j)] &= proj
    return net


def enforce_cycle_consistency(inst: Instance) -> PropagationResult:
    """Fixpoint of the triangle rule; empty pair means no solution, a
    non-subdirect pair yields a domain reduction for the solver to apply."""

    n = len(inst.variables)
    if n == 0:
        return PropagationResult("ok", PairNetwork(inst.variables))
    if n == 1:
        good = set(inst.current_domains[0])
        for c in inst.constraints:
            eff = inst.effective(c)
            good &= {t[0] for t in eff.tuples}
        if not good:
            return PropagationResult("nosolution")
        if good != inst.current_domains[0]:
            return PropagationResult("reduce", var=inst.variables[0],
                                     subset=frozenset(good))
        return PropagationResult("ok", PairNetwork(inst.variables))

    net = build_pair_network(inst)
    dirty = set(net.pairs)
    while dirty:
        i, j = dirty.pop()
        rel = net.pairs[(i, j)]
        for k in range(n):
            if k == i or k == j:
                continue
            rik = net.get(i, k)
            rkj = net.get(k, j)
            by_start = {}
            for a, cmid in rik:
                by_start.setdefault(a, set()).add(cmid)
            by_end = {}
            for cmid, b in rkj:
                by_end.setdefault(b, set()).add(cmid)
            keep = {
                (a, b) for a, b in rel
                if by_start.get(a, set()) & by_end.get(b, set())
            }
            if keep != rel:
                rel = keep
                net.pairs[(i, j)] = keep
                for other in range(n):
                    if other != i and other != j:
                        dirty.add(tuple(sorted((i, other))))
                        dirty.add(tuple(sorted((j, other))))
        net.pairs[(i, j)] = rel

    for (i, j), rel in sorted(net.pairs.items()):
        if not rel:
            return PropagationResult("nosolution")
        pi = {a for a, _ in rel}
        if pi != inst.current_domains[i]:
            return PropagationResult("reduce", var=inst.variables[i],
                                     subset=frozenset(pi))
        pj = {b for _, b in rel}
        if pj != inst.current_domains[j]:
            return PropagationResult("reduce", var=inst.variables[j],
                                     subset=frozenset(pj))
    return PropagationResult("ok", net)


# ---------------------------------------------------------------------------
# linked components


def linked_components(inst: Instance):
    """Partition of {(variable, value)} into path-connected blocks, using
    constraint pair projections as edges.  The instance must not be
    fragmented."""

    if len(fragment_variable_sets(inst)) > 1:
        raise ArgumentError("instance is fragmented")
    return value_components(inst)


def is_linked(inst: Instance) -> bool:
    """Every value pair of every constrained variable is path-connected."""

    return components_linked(inst, value_components(inst))


def components_linked(inst: Instance, comps) -> bool:
    """``is_linked`` given ``comps = value_components(inst)``."""

    constrained = {v for c in inst.constraints for v in c.scope}
    if not constrained:
        return True
    nodes = {}
    for ci, comp in enumerate(comps):
        for v, a in comp:
            nodes[(v, a)] = ci
    for v in constrained:
        vals = sorted(inst.domain(v))
        if len({nodes[(v, a)] for a in vals}) > 1:
            return False
    return True


def value_components(inst: Instance):
    """``linked_components`` without its fragment check."""

    nodes = [
        (v, a) for i, v in enumerate(inst.variables)
        for a in sorted(inst.current_domains[i])
    ]
    links = (tuple(zip(c.scope, t))
             for c in inst.constraints for t in inst.effective(c).tuples)
    return tuple(sorted((frozenset(g) for g in connected_groups(nodes, links)),
                        key=min))


# ---------------------------------------------------------------------------
# irreducibility


@dataclass(frozen=True)
class IrreducibilityResult:
    status: str  # "ok" | "nosolution" | "reduce"
    var: str | None = None
    subset: frozenset | None = None


def _propagate_congruence(inst: Instance, start, sigma_start):
    """Grow the congruence-linked variable set from ``start``.

    Follows constraint pair projections: a projection transports the current
    congruence to a new variable; the variable joins when the transported
    relation is a proper equivalence.  Returns ({var: congruence blocks as
    index map}, class correspondence per variable)."""

    sigmas = {start: sigma_start}
    # class correspondence: for each var, map start-class index -> var class
    start_classes = sigma_start
    corr = {start: {ci: set(block) for ci, block in enumerate(sigma_start)}}
    changed = True
    while changed:
        changed = False
        for c in inst.constraints:
            scope_in = [v for v in c.scope if v in sigmas]
            scope_out = [v for v in c.scope if v not in sigmas]
            if not scope_in or not scope_out:
                continue
            eff = inst.effective(c)
            for vi in scope_in:
                for vj in scope_out:
                    pi, pj = c.scope.index(vi), c.scope.index(vj)
                    delta = {(t[pi], t[pj]) for t in eff.tuples}
                    blocks_i = sigmas[vi]
                    kern_i = {}
                    for bi, block in enumerate(blocks_i):
                        for e in block:
                            kern_i[e] = bi
                    dom_j = sorted(inst.domain(vj))
                    related = set()
                    for (x1, y1) in delta:
                        for (x2, y2) in delta:
                            if x1 in kern_i and x2 in kern_i \
                                    and kern_i[x1] == kern_i[x2]:
                                related.add((y1, y2))
                    # equivalence test
                    if not all((y, y) in related for y in dom_j):
                        continue
                    if not all((b, a) in related for a, b in related):
                        continue
                    ok = True
                    for a, b in related:
                        for bb, cc in related:
                            if b == bb and (a, cc) not in related:
                                ok = False
                                break
                        if not ok:
                            break
                    if not ok:
                        continue
                    blocks_j = []
                    left = set(dom_j)
                    while left:
                        a = min(left)
                        blk = {b for b in dom_j if (a, b) in related}
                        blocks_j.append(tuple(sorted(blk)))
                        left -= blk
                    if len(blocks_j) < 2:
                        continue  # not proper
                    sigmas[vj] = tuple(blocks_j)
                    # transport class correspondence through delta; images of
                    # subuniverses under invariant relations stay subuniverses
                    corr_j = {}
                    for ci_idx in range(len(start_classes)):
                        src = corr[vi].get(ci_idx, set())
                        img = {y for (x, y) in delta if x in src}
                        corr_j[ci_idx] = img
                    corr[vj] = corr_j
                    changed = True
            if changed:
                break
    return sigmas, corr


def check_irreducibility(inst: Instance, solve_callback) -> IrreducibilityResult:
    """For every variable and maximal congruence of its domain, grow the
    linked congruence set, then decide per value whether the projection onto
    those variables has a solution hitting it.  Empty projection solution
    set means no solution; a non-subdirect one yields a reduction."""

    for k, var in enumerate(inst.variables):
        if len(inst.current_domains[k]) < 2:
            continue
        alg = inst.domain_algebra(var)
        for sigma in maximal_congruences(alg):
            sigmas, corr = _propagate_congruence(inst, var, sigma.blocks)
            members = sorted(sigmas)
            proj = project_instance(inst, members)
            for vi in members:
                good = set()
                for a in sorted(inst.domain(vi)):
                    candidates = [
                        ci for ci in range(len(sigma.blocks))
                        if a in corr[vi].get(ci, set())
                    ]
                    solvable = False
                    for ci in candidates:
                        reduction = {}
                        valid = True
                        for vj in members:
                            blk = frozenset(corr[vj].get(ci, set()))
                            blk = blk & inst.domain(vj)
                            if vj == vi:
                                blk = frozenset({a})
                            if not blk:
                                valid = False
                                break
                            reduction[vj] = blk
                        if not valid:
                            continue
                        reduced = apply_reduction(proj, reduction)
                        if solve_callback(reduced):
                            solvable = True
                            break
                    if solvable:
                        good.add(a)
                if not good:
                    return IrreducibilityResult("nosolution")
                if good != inst.domain(vi):
                    return IrreducibilityResult(
                        "reduce", var=vi, subset=frozenset(good)
                    )
    return IrreducibilityResult("ok")
