"""Constraint propagation and structural checks on instances.

Four procedures: the pairwise (2,3)-consistency fixpoint that establishes
cycle-consistency, the decomposition of the (variable, value) pairs into
linked components, a bounded search for solutions that assign every value,
and the irreducibility check driven by maximal congruences.  The first
three share one network: a bitset per (variable, value) node over all
nodes, holding the node's pair relations for the fixpoint (Mohr and
Henderson's path-consistency closure, "Arc and path consistency
revisited", AIJ 28(2), 1986, revised a whole row at a time), and a union
row per node, the nodes it shares an effective tuple with, from which the
components are read.  The constraints' tuples are laid out as
bit rows once per instance shape (``instance.Shape``), as Compact-Table
lays out its tables once (Demeulenaere et al., CP 2016), next to what the
carrier sizes fix (each variable's block of bits, each node's variable,
its entry in the sweep and its row over full domains), and each call
filters the rows by the current domains.  As Compact-Table carries its
mask of valid tuples from call to call, the network carries the mask of
its current nodes and of its live ones: the build computes them, the
sweep keeps the live mask up to date, and the read-out, the components
and the witness search read them.  A call may start from the
fixpoint network of an earlier call on larger domains of the same shape,
as the solver's next round does after a reduction: the unary and binary
constraints cannot cut that fixpoint's pairs inside the current domains,
so only the wider constraints are scanned, and when neither the cut to
the current domains nor a wider constraint changes a row, the start is
the fixpoint and no sweep runs.  The search (``witness_cover``)
runs on the fixpoint network with forward checking; solutions of the
instance that together assign every value prove that the irreducibility
check answers "ok" and that the solver's Step 3 passes, since a solution
solves every pinned projection onto a linked set and every pinned weakened
instance, so the solver then skips both.  The irreducibility check solves
each distinct linked set's projection once per call, pinning one member to
one value at a time and skipping every value an earlier solution of the
call already assigned (``pinned_supports``, which Step 3 of the solver
shares); a linked set of one variable is decided from its constraints'
supports, and the transport of a congruence through a constraint
projection is cached (see ``check_irreducibility``)."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .algebra import maximal_congruences
from .errors import ArgumentError, InternalError
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
    share an effective tuple with (i, a); ``narrow`` is the same union over
    the unary and binary constraints alone, from which a later build on
    smaller domains starts (``build_pair_network``).  ``current`` is the
    mask of the nodes in the instance's current domains and ``alive`` the
    mask of the nodes whose pair row is not 0: the build computes both,
    and Step 1's sweep clears a node's bit in ``alive`` when its row
    empties, so the start check, the components and the witness search
    read them instead of summing the rows.  ``get`` and ``pairs`` decode
    to sets of element pairs."""

    variables: tuple
    elements: tuple   # base carrier per variable
    offsets: tuple    # bit of each variable's first position
    nodes: list       # pair row per node
    links: list       # union row per node
    narrow: list      # union row per node over constraints of arity <= 2
    alive: int        # mask of the nodes with a nonzero pair row
    current: int      # mask of the nodes in the current domains

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
    """How a step of the solver ends: it passes ("ok"), finds no solution
    ("nosolution"), or shrinks the domains in ``reduction``.  Step 1 also
    hands on its fixpoint network when it passes or reduces: the solver
    reads the components and witnesses from it when it passes, and starts
    the next round's Step 1 from it after any reduction."""

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
    algebras.  When every base carrier is its own positions 0..n-1, as for
    every parsed or generated root, these are the tuples themselves."""

    if all(alg.elements == tuple(range(alg.size)) for alg in bases):
        return tuple(rel.tuples)
    pos = [alg.positions for alg in bases]
    return tuple(tuple(p[e] for p, e in zip(pos, t)) for t in rel.tuples)


@lru_cache(maxsize=1024)
def _node_layout(sizes):
    """What Step 1 takes from the carrier sizes alone: per variable its
    first bit and its block ``(offset, full mask)``; per node its variable,
    its entry ``(q, 1 << q, the other variables' blocks)`` in the sweep,
    and its pair row over full domains, every bit outside its variable's
    block and its own; and the mask of all nodes."""

    offsets, width = [], 0
    for size in sizes:
        offsets.append(width)
        width += size
    blocks = tuple((off, (1 << size) - 1) for off, size in zip(offsets, sizes))
    owner = tuple(i for i, size in enumerate(sizes) for _ in range(size))
    others = [blocks[:i] + blocks[i + 1:] for i in range(len(blocks))]
    every = (1 << width) - 1
    work = tuple((q, 1 << q, others[i]) for q, i in enumerate(owner))
    rows = tuple(every & ~(blocks[i][1] << blocks[i][0]) | 1 << q
                 for q, i in enumerate(owner))
    return tuple(offsets), blocks, owner, work, rows, every


class _Layout:
    """Step 1's data fixed by an instance's shape (``_pair_layout``): the
    constraint entries of arity at most 2 (``narrow``) and wider
    (``wide``), the base carriers, and ``_node_layout`` of their sizes."""

    __slots__ = ("narrow", "wide", "elements", "offsets", "blocks", "owner",
                 "work", "rows", "every")

    def __init__(self, narrow, wide, elements, node_layout):
        self.narrow, self.wide, self.elements = narrow, wide, elements
        (self.offsets, self.blocks, self.owner, self.work, self.rows,
         self.every) = node_layout


def _pair_layout(inst) -> _Layout:
    """The part of the pair network that the instance's shape fixes, built
    on first read: per constraint, every bit outside its scope's blocks,
    the scope's nodes and offsets, and its tuples as base-carrier positions
    (``_encoded``) and as global rows of their nodes.  The rows are kept as
    plain ints, with no container per tuple."""

    shape = inst.shape()
    if shape.pair_layout is not None:
        return shape.pair_layout
    bases = inst.base_algebras
    elements = tuple([alg.elements for alg in bases])
    node_layout = _node_layout(tuple(map(len, elements)))
    offsets, blocks = node_layout[:2]
    narrow, wide = [], []
    for c in inst.constraints:
        ks = [inst.index(v) for v in c.scope]
        offs = [offsets[k] for k in ks]
        enc = _encoded(c.relation, tuple([bases[k] for k in ks]))
        rows = []
        for at in enc:
            row = 0
            for off, a in zip(offs, at):
                row |= 1 << off + a
            rows.append(row)
        scope_mask, scope_nodes = 0, []
        for k in ks:
            off, full = blocks[k]
            scope_mask |= full << off
            scope_nodes.extend(range(off, off + full.bit_length()))
        (narrow if len(ks) <= 2 else wide).append(
            (~scope_mask, scope_nodes, offs, enc, rows))
    shape.pair_layout = _Layout(narrow, wide, elements, node_layout)
    return shape.pair_layout


def _scan(layout, current, nodes, links):
    """Cut ``nodes`` by the constraints of ``layout`` and add to ``links``.
    A tuple inside ``current``, the mask of the current nodes, is read as
    the row of its nodes; a node's row in a constraint is the OR of its
    tuples' rows, which its pair row is ANDed with (outside the scope's
    blocks) and its union row ORed with.  A node with no such tuple loses
    its own bit, and its pair row is set to 0 at once.  Returns the mask
    of the nodes so stripped whose row was not 0 already."""

    missing = ~current
    acc = [0] * len(nodes)
    dead = 0
    for outside, scope_nodes, offs, enc, rows in layout:
        for row, at in zip(rows, enc):
            if not row & missing:
                for off, a in zip(offs, at):
                    acc[off + a] |= row
        for q in scope_nodes:
            row = acc[q]
            if row:
                nodes[q] &= row | outside
                links[q] |= row
                acc[q] = 0
            elif nodes[q]:
                nodes[q] = 0
                dead |= 1 << q
    return dead


def build_pair_network(inst: Instance,
                       start: PairNetwork | None = None) -> PairNetwork:
    """Initial network.  Each node's pair row is the AND of its rows in the
    constraints on its variable (``_scan``; the other blocks start as the
    current domains), so a value without a tuple in one of them loses its
    own bit and is dropped, and the other rows are cut to the surviving
    nodes.  Its union row is the OR of the same rows.  The tuple rows come
    from the shape's layout (``_pair_layout``) and are filtered by the
    current domains, whose masks are computed once per call; over full
    domains the pair rows start as the layout's.  ``_scan`` reports the
    nodes it strips of their own bit, so the live nodes are the current
    ones less those, and the rows are cut to them only when one died.

    ``start``, when given, is the fixpoint network of
    ``enforce_cycle_consistency`` on an instance of the same shape whose
    live nodes contain the current domains (an ``ArgumentError``
    otherwise), such as the previous round's instance before a reduction.
    Each pair row then starts as the start's row cut to the current nodes,
    each union row as its ``narrow`` row cut the same way, and only the
    constraints wider than two are scanned.  The pair rows so built lie
    inside those built from scratch and have the same fixpoint: it lies
    inside the start's, as the current domains lie inside the start's, and
    a pair of the start with both values in the current domains has a
    tuple inside them in every unary and binary constraint, so only the
    wider constraints can cut it.  The union rows of the live nodes are
    those of a build from scratch; a node left with no tuple inside the
    current domains in a binary constraint keeps its own bit, and the
    fixpoint drops it.  When no row changed, the start's rows are the
    fixpoint."""

    layout = _pair_layout(inst)
    current = 0
    for alg, dom, off in zip(inst.base_algebras, inst.current_domains,
                             layout.offsets):
        current |= _domain_mask(alg, dom) << off
    if start is None:
        if current == layout.every:
            nodes = list(layout.rows)
        else:
            nodes = [row & current if current >> q & 1 else 0
                     for q, row in enumerate(layout.rows)]
        links = [0] * len(nodes)
        dead = _scan(layout.narrow, current, nodes, links)
        narrow = links[:]
    else:
        if start.variables != inst.variables or \
                start.elements != layout.elements or current & ~start.alive:
            raise ArgumentError("start network does not contain the "
                                "current domains")
        nodes = [row & current if current >> q & 1 else 0
                 for q, row in enumerate(start.nodes)]
        narrow = [row & current if current >> q & 1 else 0
                  for q, row in enumerate(start.narrow)]
        links = narrow[:]
        dead = 0
    dead |= _scan(layout.wide, current, nodes, links)
    alive = current & ~dead
    if dead:
        # the dead rows are 0 already
        nodes = [row & alive for row in nodes]
    return PairNetwork(inst.variables, layout.elements, layout.offsets,
                       nodes, links, narrow, alive, current)


def enforce_cycle_consistency(inst: Instance,
                              start: PairNetwork | None = None
                              ) -> PropagationResult:
    """Fixpoint of the triangle rule on the pair network.  Revising node
    (i, a) ANDs its row, for every other variable k, with the OR of the
    rows of the nodes (k, c) in its block k: (a, b) stays in R_ij only when
    some c has (a, c) in R_ik and (c, b) in R_kj, for every j at once, and
    a node that loses its own bit is dropped: its row becomes 0 and its
    bit in the network's ``alive`` is cleared.  The nodes are revised in
    sweeps until one changes nothing, each sweep in the shape's node order
    over the nodes the build left alive.  An empty domain means no
    solution; otherwise every variable whose surviving nodes are fewer
    than its current domain is reduced to them, all at once: each
    variable's block of ``alive`` is compared with its block of
    ``current``, the domain masks of the call.

    ``start`` is handed to ``build_pair_network``: the previous round's
    fixpoint network, from which the build starts.  When the build leaves
    its rows unchanged, they are still a fixpoint over exactly the current
    domains, so the step passes with no sweep."""

    net = build_pair_network(inst, start)
    nodes = net.nodes
    if start is not None and nodes == start.nodes:
        # the start's fixpoint, whose live nodes are the current ones: they
        # contain them, and every other node's row was 0 already
        return PropagationResult("ok", net)
    layout = _pair_layout(inst)
    work = [entry for entry, row in zip(layout.work, nodes) if row]
    alive = net.alive
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
                if not row:
                    alive &= ~own
    net.alive, current = alive, net.current
    if alive == current:
        return PropagationResult("ok", net)
    reduction = {}
    for var, elems, (off, full) in zip(inst.variables, layout.elements,
                                       layout.blocks):
        proj = alive >> off & full
        if not proj:
            return PropagationResult("nosolution")
        if proj != current >> off & full:
            reduction[var] = frozenset(elems[a] for a in _BITS[proj])
    return PropagationResult("reduce", net, reduction)


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
    built when not given), over its ``current`` nodes.  The union rows are
    ORs of the constraints' projections: the AND-ed pair rows, before or
    after the fixpoint, can split a component that the tuples join."""

    net = network if network is not None else build_pair_network(inst)
    links = net.links
    left = net.current
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
# witnesses


# Search nodes (one per value tried) that one ``witness_cover`` call may
# visit before it gives up.  At 0 there is no search and no pool is read,
# so every round of the solver takes the exact Steps 2 and 3.
WITNESS_NODES = 2000

# Solutions one shape's witness pool keeps (``instance.Shape.witnesses``).
WITNESS_POOL = 256


def witness_cover(inst: Instance, network: PairNetwork, pool=None) -> bool:
    """Whether solutions of ``inst`` that together assign every value of
    every variable turn up within ``WITNESS_NODES`` search nodes.
    ``network`` is the network of ``enforce_cycle_consistency(inst)``
    passing; its ``alive`` mask gives the values left to cover, and the
    shape's layout gives each variable's block and each node's variable.

    A depth-first search with forward checking on the network: it pins
    each node no solution has assigned yet, lowest bit first, then assigns
    the unassigned variable with the fewest values allowed, the allowed
    values being the AND of the assigned nodes' rows.  A row keeps only
    pairs that every constraint's projection allows, so unary and binary
    constraints hold by construction; a wider constraint is checked once
    its scope is assigned, and every solution is checked against ``inst``.
    Each solution covers every node it assigns.  The answer is False when
    a pinned node has no solution or the budget runs out.

    A variable with one live value takes it in every solution, so it is
    assigned once per call and only the other variables are branched
    over; the budget still charges each pin one node per such variable,
    as if it were tried.  Its node is in every live node's row, since each
    live node has a support in its block and the fixpoint's rows are
    symmetric, so assigning it allows no fewer values.  A wider constraint
    with at most one branched-over variable is not checked: each live
    value of that variable has a tuple of the constraint inside the
    current domains, and the others' values are fixed.

    ``pool``, when given, is a list of solutions of instances with the
    shape of ``inst`` (``Shape.witnesses``), each the row of its nodes.  A
    pooled row inside the live nodes is a solution of ``inst``, since the
    instances share their variables, base algebras and constraints and
    the row passed ``assignment_satisfies`` when it was found: its nodes
    are covered before the search starts, and each solution the call finds
    is appended while the pool holds fewer than ``WITNESS_POOL`` rows.

    A True answer proves that Steps 2 and 3 pass.  Every weakened
    constraint is implied by a constraint of ``inst``, so a solution of
    ``inst`` solves ``weaken_all(inst)`` pinned at each value it assigns;
    and its restriction to a linked set X solves ``project_instance(inst,
    X)`` pinned the same way (SAC-3's greedy branches, Lecoutre and
    Cardon, IJCAI 2005)."""

    budget = WITNESS_NODES
    if budget <= 0:
        return False
    nodes, offsets, elements = network.nodes, network.offsets, network.elements
    layout = _pair_layout(inst)
    blocks, owner = layout.blocks, layout.owner
    n = len(offsets)
    left = alive = network.alive
    if pool:
        dead = ~alive
        for row in pool:
            if not row & dead:
                left &= ~row
        if not left:
            return True
    value = [None] * n
    free = []
    for k, (off, full) in enumerate(blocks):
        block = alive >> off & full
        if block & block - 1:
            free.append(k)
        else:
            value[k] = block.bit_length() - 1
    forced = n - len(free)
    checks = [[] for _ in range(n)]
    for c in inst.constraints:
        if len(c.scope) > 2:
            ks = tuple([inst.index(v) for v in c.scope])
            unset = [k for k in ks if value[k] is None]
            if len(unset) > 1:
                for k in unset:
                    checks[k].append((ks, c.relation.tuples))

    def holds(k):
        for ks, tuples in checks[k]:
            at = [value[i] for i in ks]
            if None not in at and tuple(
                    [elements[i][a] for i, a in zip(ks, at)]) not in tuples:
                return False
        return True

    def extend(allowed):
        nonlocal budget
        best, fewest = -1, None
        for j in free:
            if value[j] is None:
                off, full = blocks[j]
                block = allowed >> off & full
                if not block:
                    return False
                count = block.bit_count()
                if fewest is None or count < fewest:
                    best, fewest, values = j, count, block
        if best < 0:
            return True
        off = offsets[best]
        for a in _BITS[values]:
            budget -= 1
            if budget < 0:
                return False
            value[best] = a
            if holds(best) and extend(allowed & nodes[off + a]):
                return True
        value[best] = None
        return False

    # ``extend`` reaches itself through its closure cell: clearing the
    # name on the way out frees the search by reference counting, leaving
    # the cyclic collector nothing to do
    try:
        while left:
            q = (left & -left).bit_length() - 1
            k = owner[q]
            for j in free:
                value[j] = None
            if value[k] is None:
                budget -= 1 + forced
                value[k] = q - offsets[k]
            else:
                budget -= forced
            if budget < 0 or not extend(nodes[q]):
                return False
            solution = {var: elems[a] for var, elems, a
                        in zip(inst.variables, elements, value)}
            if not inst.assignment_satisfies(solution):
                raise InternalError("witness search found a non-solution")
            row = 0
            for off, a in zip(offsets, value):
                row |= 1 << off + a
            left &= ~row
            if pool is not None and len(pool) < WITNESS_POOL:
                pool.append(row)
        return True
    finally:
        extend = None


# ---------------------------------------------------------------------------
# irreducibility


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


def check_irreducibility(inst: Instance, solve_callback) -> PropagationResult:
    """Zhuk's Step 2.  For every variable and maximal congruence of its
    domain, grow the linked congruence set X, then decide per member and
    value whether the projection onto X has a solution through it.  The
    first member with no such value gives "nosolution"; the first with
    values that have none gives "reduce" to the values that have one, as
    ``reduction={var: values}``; else the result is "ok".

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
                    return PropagationResult("nosolution")
                if good != inst.domain(vi):
                    return PropagationResult("reduce", reduction={vi: good})
    return PropagationResult("ok")
