"""Constraint propagation and structural checks on instances.

Three procedures: the pairwise (2,3)-consistency fixpoint that establishes
cycle-consistency, the decomposition of the (variable, value) pairs into
linked components, and the irreducibility check driven by maximal
congruences.  The irreducibility check solves each distinct linked set's
projection once per call, pinning one member to one value at a time and
skipping every value an earlier solution of the call already assigned
(``pinned_supports``, which Step 3 of the solver shares); a linked set of
one variable is decided from its constraints' supports, and the transport
of a congruence through a constraint projection is cached (see
``check_irreducibility``)."""

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


@lru_cache(maxsize=65536)
def _transport(eff, pi, pj, blocks):
    """The congruence ``blocks`` of coordinate ``pi`` of the effective
    relation ``eff`` carried to coordinate ``pj`` through their projection.

    The transported relation is the union of the squares of the images of
    the classes.  Returns its classes when it is a proper equivalence on the
    domain of ``pj`` (the carrier of ``eff.coords[pj]``), else ``None``."""

    kern = {e: bi for bi, block in enumerate(blocks) for e in block}
    images = {}
    for t in eff.tuples:
        bi = kern.get(t[pi])
        if bi is not None:
            images.setdefault(bi, set()).add(t[pj])
    # rows[y] is y's row of the transported relation
    rows = {}
    for img in images.values():
        for y in img:
            rows.setdefault(y, set()).update(img)
    # equivalence test: reflexive on the domain, and transitive, i.e. every
    # value in a row has the same row
    dom = eff.coords[pj].elements
    if not all(y in rows for y in dom):
        return None
    if any(rows[b] != row for row in rows.values() for b in row):
        return None
    blocks_j = []
    left = set(dom)
    while left:
        blk = rows[min(left)]
        blocks_j.append(tuple(sorted(blk)))
        left -= blk
    return tuple(blocks_j) if len(blocks_j) > 1 else None


def _propagate_congruence(inst: Instance, start, sigma_start):
    """Grow the congruence-linked variable set from ``start``.

    Follows constraint pair projections: a projection transports the current
    congruence to a new variable (``_transport``); the variable joins when
    the transported relation is a proper equivalence.  Returns {var:
    congruence blocks}."""

    sigmas = {start: sigma_start}
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
                    blocks_j = _transport(eff, c.scope.index(vi),
                                          c.scope.index(vj), sigmas[vi])
                    if blocks_j is not None:
                        sigmas[vj] = blocks_j
                        changed = True
            if changed:
                break
    return sigmas


def _supported_values(inst: Instance, var) -> frozenset:
    """The values of ``var`` that every constraint on it has an effective
    tuple with."""

    good = inst.domain(var)
    for c in inst.constraints:
        if var in c.scope:
            p = c.scope.index(var)
            good = good & {t[p] for t in inst.effective(c).tuples}
    return good


def pinned_supports(inst: Instance, variables, solve_callback):
    """Yield ``(var, good)`` for each of ``variables`` in order, where
    ``good`` is the set of values ``b`` for which ``inst`` with ``var``
    pinned to ``b`` has a solution.

    ``solve_callback`` takes a pinned instance and returns a solution (a
    dict over its variables) or ``None``.  A solution through one value
    also proves every other value it assigns, so each solution found is a
    witness for all of them, and a value that an earlier solution of the
    same call already assigned is good without a callback (the support
    reuse of singleton arc consistency).  The values of a variable are
    tried in ascending order."""

    witnessed = {v: set() for v in inst.variables}
    for var in variables:
        good = witnessed[var]
        for b in sorted(inst.domain(var)):
            if b in good:
                continue
            solution = solve_callback(apply_reduction(inst, {var: {b}}))
            if solution is not None:
                for v, value in solution.items():
                    witnessed[v].add(value)
        yield var, frozenset(good)


def check_irreducibility(inst: Instance, solve_callback) -> IrreducibilityResult:
    """For every variable and maximal congruence of its domain, grow the
    linked congruence set X, then decide per member and value whether the
    projection onto X has a solution through it.  An empty projection
    solution set means no solution; a non-subdirect one yields a reduction.

    Zhuk's Step 2 also restricts the projection to classes that correspond
    through the projections linking X; leaving that out changes no answer.
    Each member joins X through a constraint projection from a member
    already in X, so by induction along those links a solution of the
    projection with vi = a lies inside the class reductions of its start
    value's class.  As the answer depends on X alone, each distinct X is
    checked once per call.

    ``solve_callback`` returns a solution of a pinned projection or
    ``None``.  The values of X are decided by ``pinned_supports``: a
    solution found for one member and value is a witness for every value
    it assigns to the members of X, so those are not handed to the
    callback again.

    A linked set of one variable is decided without the callback: a value
    is good exactly when every effective relation on the variable has a
    tuple with it."""

    checked = set()
    for k, var in enumerate(inst.variables):
        if len(inst.current_domains[k]) < 2:
            continue
        for sigma in maximal_congruences(inst.domain_algebra(var)):
            members = tuple(sorted(_propagate_congruence(inst, var,
                                                         sigma.blocks)))
            if members in checked:
                continue
            checked.add(members)
            if len(members) == 1:
                supports = [(var, _supported_values(inst, var))]
            else:
                supports = pinned_supports(project_instance(inst, members),
                                           members, solve_callback)
            for vi, good in supports:
                if not good:
                    return IrreducibilityResult("nosolution")
                if good != inst.domain(vi):
                    return IrreducibilityResult("reduce", var=vi, subset=good)
    return IrreducibilityResult("ok")
