"""Constraint propagation and structural checks on instances.

Three procedures: the pairwise (2,3)-consistency fixpoint that establishes
cycle-consistency, the decomposition of the (variable, value) pairs into
linked components, and the irreducibility check driven by maximal
congruences.  The first two share one network: a bitset per (variable,
value) node over all nodes, holding the node's pair relations for the
fixpoint (Mohr and Henderson's path-consistency closure, "Arc and path
consistency revisited", AIJ 28(2), 1986, revised a whole row at a time),
and a union row per node, the nodes it shares an effective tuple with, from
which the components are read.  The irreducibility check solves each
distinct linked set's projection once per call, pinning one member to one
value at a time and skipping every value an earlier solution of the call
already assigned (``pinned_supports``, which Step 3 of the solver shares);
a linked set of one variable is decided from its constraints' supports,
and the transport of a congruence through a constraint projection is
cached (see ``check_irreducibility``)."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .algebra import maximal_congruences
from .errors import ArgumentError
from .instance import (
    Instance,
    apply_reduction,
    fragment_variable_sets,
    project_instance,
)


@dataclass
class PairNetwork:
    """Binary relations on every variable pair, one bit row per (variable,
    value) node.

    Node (i, a), a being a position in variable i's base carrier, is bit
    ``offsets[i] + a`` of every row, and block j of a row is its bits from
    ``offsets[j]`` on.  Block j of ``nodes[offsets[i] + a]`` is the mask of
    the b with (a, b) in R_ij, block i holds only a's own bit, and the row
    is 0 when a is out of i's domain.  ``links[offsets[i] + a]`` is the
    union of a's rows in the constraints' projections: the nodes that
    share an effective tuple with (i, a).  ``get`` and ``pairs`` decode to
    sets of element pairs."""

    variables: tuple
    elements: tuple   # base carrier per variable
    offsets: tuple    # bit of each variable's first position
    nodes: list       # pair row per node
    links: list       # union row per node

    def block(self, row, j):
        return row >> self.offsets[j] & (1 << len(self.elements[j])) - 1

    def get(self, i, j):
        ei, ej, oi = self.elements[i], self.elements[j], self.offsets[i]
        return {(ei[a], ej[b]) for a in range(len(ei))
                for b in _BITS[self.block(self.nodes[oi + a], j)]}

    @property
    def pairs(self):
        n = len(self.variables)
        return {(i, j): self.get(i, j)
                for i in range(n) for j in range(i + 1, n)}


class _BitTable(dict):
    """mask -> ascending tuple of its set bit positions, filled on demand.
    Never cleared, so it is only indexed by one variable's block."""

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


def _current_nodes(inst, offsets):
    """The mask of the nodes in the current domains."""

    return sum(_domain_mask(alg, dom) << off for alg, dom, off
               in zip(inst.base_algebras, inst.current_domains, offsets))


def build_pair_network(inst: Instance) -> PairNetwork:
    """Initial network.  A tuple inside the current domains is read as the
    row of its nodes; a node's row in a constraint is the OR of its tuples'
    rows.  Each node's pair row is the AND of its rows in the constraints on
    its variable (the other blocks start as the current domains), so a
    value without a tuple in one of them loses its own bit and is dropped,
    and the other rows are cut to the surviving nodes.  Its union row is
    the OR of the same rows."""

    bases = inst.base_algebras
    elements = tuple(alg.elements for alg in bases)
    offsets, width = [], 0
    for elems in elements:
        offsets.append(width)
        width += len(elems)
    current = _current_nodes(inst, offsets)
    block = [(1 << len(elems)) - 1 << off
             for off, elems in zip(offsets, elements) for _ in elems]
    nodes = [current & ~block[q] | 1 << q if current >> q & 1 else 0
             for q in range(width)]
    links = [0] * width
    acc = [0] * width
    for c in inst.constraints:
        ks = [inst.index(v) for v in c.scope]
        offs = [offsets[k] for k in ks]
        for at in _encoded(c.relation, tuple([bases[k] for k in ks])):
            row = 0
            for off, a in zip(offs, at):
                row |= 1 << off + a
            if row & current != row:
                continue
            for off, a in zip(offs, at):
                acc[off + a] |= row
        outside = ~sum(block[off] for off in offs)
        for k in ks:
            for q in range(offsets[k], offsets[k] + len(elements[k])):
                nodes[q] &= acc[q] | outside
                links[q] |= acc[q]
                acc[q] = 0
    alive = sum(1 << q for q, row in enumerate(nodes) if row >> q & 1)
    nodes = [row & alive if alive >> q & 1 else 0
             for q, row in enumerate(nodes)]
    return PairNetwork(inst.variables, elements, tuple(offsets), nodes,
                       links)


def enforce_cycle_consistency(inst: Instance) -> PropagationResult:
    """Fixpoint of the triangle rule on the pair network.  Revising node
    (i, a) ANDs its row, for every other variable k, with the OR of the
    rows of the nodes (k, c) in its block k: (a, b) stays in R_ij only when
    some c has (a, c) in R_ik and (c, b) in R_kj, for every j at once, and
    a node that loses its own bit is dropped.  The nodes are revised in
    sweeps until one changes nothing.  An empty domain means no solution;
    otherwise every variable whose surviving nodes are fewer than its
    current domain is reduced to them, all at once."""

    net = build_pair_network(inst)
    nodes, elements = net.nodes, net.elements
    blocks = [(off, (1 << len(elems)) - 1)
              for off, elems in zip(net.offsets, elements)]
    work = [(q, 1 << q, blocks[:i] + blocks[i + 1:])
            for i, (off, full) in enumerate(blocks)
            for q in range(off, off + full.bit_length()) if nodes[q]]
    changed = True
    while changed:
        changed = False
        for p, own, others in work:
            old = row = nodes[p]
            for off, full in others:
                support = 0
                for c in _BITS[row >> off & full]:
                    support |= nodes[off + c]
                row &= support
                if not row & own:
                    row = 0
                    break
            if row != old:
                nodes[p] = row
                changed = True
    reduction = {}
    for i, var in enumerate(inst.variables):
        off, full = blocks[i]
        proj = sum(1 << a for a in range(full.bit_length()) if nodes[off + a])
        if not proj:
            return PropagationResult("nosolution")
        if proj != _domain_mask(inst.base_algebras[i],
                                inst.current_domains[i]):
            reduction[var] = frozenset(elements[i][a] for a in _BITS[proj])
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


def value_components(inst: Instance, network: PairNetwork | None = None):
    """``linked_components`` without its fragment check, read from the
    union rows of ``network``, which must be built from ``inst`` (it is
    built when not given).  The union rows are ORs of the constraints'
    projections: the AND-ed pair rows, before or after the fixpoint, can
    split a component that the tuples join."""

    net = network if network is not None else build_pair_network(inst)
    links = net.links
    left = _current_nodes(inst, net.offsets)
    comps = []
    while left:
        comp = todo = left & -left
        while todo:
            low = todo & -todo
            todo ^= low
            new = links[low.bit_length() - 1] & ~comp
            comp |= new
            todo |= new
        left &= ~comp
        comps.append(frozenset(
            (var, elems[a])
            for j, (var, elems) in enumerate(zip(net.variables, net.elements))
            for a in _BITS[net.block(comp, j)]))
    return tuple(sorted(comps, key=min))


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
