"""Constraint propagation and structural checks on instances.

Three procedures: the pairwise (2,3)-consistency fixpoint that establishes
cycle-consistency, the decomposition of the (variable, value) pairs into
linked components, and the irreducibility check driven by maximal
congruences with a solver callback for the class-reduced sub-instances.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .algebra import maximal_congruences
from .errors import ArgumentError
from .instance import (
    Instance,
    apply_reduction,
    connected_groups,
    fragment_variable_sets,
    project_instance,
)


@dataclass
class PairNetwork:
    """Binary relations on every ordered variable pair, stored as bit rows.

    Values are positions in each variable's base carrier.  ``domains[i]``
    is the bitmask of variable i's values; ``rows[i][j][a]`` is the bitmask
    of the values b with (a, b) in R_ij, and ``rows[j][i]`` holds the
    transpose.  ``get`` and ``pairs`` decode to sets of element pairs."""

    variables: tuple
    elements: tuple   # base carrier per variable
    domains: list     # bitmask per variable
    rows: list        # rows[i][j]: list of bitmasks, None when i == j

    def get(self, i, j):
        ei, ej = self.elements[i], self.elements[j]
        return {(ei[a], ej[b])
                for a, row in enumerate(self.rows[i][j]) for b in _BITS[row]}

    @property
    def pairs(self):
        n = len(self.variables)
        return {(i, j): self.get(i, j)
                for i in range(n) for j in range(i + 1, n)}


class _BitTable(dict):
    """mask -> ascending tuple of its set bit positions, filled on demand."""

    def __missing__(self, mask):
        bits = tuple(p for p in range(mask.bit_length()) if mask >> p & 1)
        self[mask] = bits
        return bits


_BITS = _BitTable()


@dataclass(frozen=True)
class PropagationResult:
    status: str  # "ok" | "nosolution" | "reduce"
    network: PairNetwork | None = None
    reduction: dict = field(default_factory=dict)  # var -> frozenset


@lru_cache(maxsize=65536)
def _domain_mask(alg, dom):
    pos = alg.positions
    return sum(1 << pos[e] for e in dom)


@lru_cache(maxsize=65536)
def _encoded(rel, bases):
    """The relation's tuples as positions in ``bases``, the scope's base
    algebras."""

    pos = [alg.positions for alg in bases]
    return tuple(tuple(p[e] for p, e in zip(pos, t)) for t in rel.tuples)


def build_pair_network(inst: Instance) -> PairNetwork:
    """Initial network: each domain is intersected with the unary
    projections of its constraints, every constraint over both variables
    of a pair cuts the pair to its binary projection, and pairs with no
    common constraint start as the product of their domains.  Projections
    are taken over the tuples inside the current domains."""

    n = len(inst.variables)
    bases = inst.base_algebras
    elements = tuple(alg.elements for alg in bases)
    sizes = [len(elems) for elems in elements]
    current = [_domain_mask(alg, dom)
               for alg, dom in zip(bases, inst.current_domains)]
    domains = list(current)
    rows = [[None] * n for _ in range(n)]
    for c in inst.constraints:
        ks = [inst.index(v) for v in c.scope]
        arity = len(ks)
        cur = [current[k] for k in ks]
        unary = [0] * arity
        # both orientations of each unordered coordinate pair
        cells = [(p, q, [0] * sizes[ks[p]], [0] * sizes[ks[q]])
                 for p in range(arity) for q in range(p + 1, arity)]
        for at in _encoded(c.relation, tuple([bases[k] for k in ks])):
            for d, a in zip(cur, at):
                if not d >> a & 1:
                    break
            else:
                for p in range(arity):
                    unary[p] |= 1 << at[p]
                for p, q, fwd, bwd in cells:
                    a, b = at[p], at[q]
                    fwd[a] |= 1 << b
                    bwd[b] |= 1 << a
        for k, mask in zip(ks, unary):
            domains[k] &= mask
        for p, q, fwd, bwd in cells:
            for i, j, proj in ((ks[p], ks[q], fwd), (ks[q], ks[p], bwd)):
                old = rows[i][j]
                rows[i][j] = proj if old is None else [
                    x & y for x, y in zip(old, proj)]
    for i in range(n):
        di = domains[i]
        for j in range(n):
            if j == i:
                continue
            dj = domains[j]
            row = rows[i][j]
            rows[i][j] = [(dj if row is None else row[a] & dj)
                          if di >> a & 1 else 0
                          for a in range(sizes[i])]
    return PairNetwork(inst.variables, elements, domains, rows)


def _revise(rows, n, i, j):
    """Apply the triangle rule to R_ij through every other variable k: a
    pair (a, b) stays if some c has (a, c) in R_ik and (c, b) in R_kj.
    Returns whether R_ij shrank."""

    ri, rij, rji = rows[i], rows[i][j], rows[j][i]
    paths = [(ri[k], rows[k][j]) for k in range(n) if k != i and k != j]
    changed = False
    for a, row in enumerate(rij):
        if not row:
            continue
        keep = row
        for rik, rkj in paths:
            support = 0
            for c in _BITS[rik[a]]:
                support |= rkj[c]
            keep &= support
            if not keep:
                break
        if keep != row:
            rij[a] = keep
            clear = ~(1 << a)
            for b in _BITS[row & ~keep]:
                rji[b] &= clear
            changed = True
    return changed


def enforce_cycle_consistency(inst: Instance) -> PropagationResult:
    """Fixpoint of the triangle rule on the pair network.  An empty pair or
    domain means no solution; otherwise every variable whose projection is
    smaller than its current domain is reduced to it, all at once."""

    net = build_pair_network(inst)
    n = len(inst.variables)
    rows = net.rows
    if n >= 3 and all(net.domains):
        queue = [(i, j) for i in range(n) for j in range(i + 1, n)]
        queued = set(queue)
        while queue:
            pair = queue.pop()
            queued.discard(pair)
            i, j = pair
            if not _revise(rows, n, i, j):
                continue
            if not any(rows[i][j]):
                return PropagationResult("nosolution")
            for k in range(n):
                if k != i and k != j:
                    for dirty in ((min(i, k), max(i, k)),
                                  (min(j, k), max(j, k))):
                        if dirty not in queued:
                            queued.add(dirty)
                            queue.append(dirty)
    reduction = {}
    for i, var in enumerate(inst.variables):
        if n == 1:
            proj = net.domains[i]
        else:
            proj = 0
            for a, row in enumerate(rows[i][1 if i == 0 else 0]):
                if row:
                    proj |= 1 << a
        if not proj:
            return PropagationResult("nosolution")
        elems = net.elements[i]
        if proj != _domain_mask(inst.base_algebras[i],
                                inst.current_domains[i]):
            reduction[var] = frozenset(elems[a] for a in _BITS[proj])
    if reduction:
        return PropagationResult("reduce", reduction=reduction)
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

    constrained = {v for c in inst.constraints for v in c.scope}
    if not constrained:
        return True
    nodes = {}
    for ci, comp in enumerate(value_components(inst)):
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
                    # the transported relation is the union of the squares
                    # of the images of the classes; rows[y] is y's row
                    images = {}
                    for x, y in delta:
                        if x in kern_i:
                            images.setdefault(kern_i[x], set()).add(y)
                    rows = {}
                    for img in images.values():
                        for y in img:
                            rows.setdefault(y, set()).update(img)
                    # equivalence test: reflexive on dom_j, and transitive,
                    # i.e. every value in a row has the same row
                    if not all(y in rows for y in dom_j):
                        continue
                    if any(rows[b] != row for row in rows.values()
                           for b in row):
                        continue
                    blocks_j = []
                    left = set(dom_j)
                    while left:
                        blk = rows[min(left)]
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
