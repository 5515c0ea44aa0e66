"""References for ``wnucsp.consistency``: Step 1 on ordered-pair bit rows
and the linked components by union-find.

``PairNetwork`` holds one list of bit rows per ordered variable pair
(``rows[i][j][a]`` is the mask of the b with (a, b) in R_ij), and
``enforce_cycle_consistency`` revises a queue of dirty pairs with
``_revise``.  ``value_components`` joins the nodes of every effective
tuple with a union-find."""

from dataclasses import dataclass

from wnucsp.consistency import (
    PropagationResult,
    _BITS,
    _domain_mask,
    _encoded,
)
from wnucsp.instance import Instance, connected_groups


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


def value_components(inst: Instance):
    """The linked components, ordered by their least node."""

    nodes = [
        (v, a) for i, v in enumerate(inst.variables)
        for a in sorted(inst.current_domains[i])
    ]
    links = (tuple(zip(c.scope, t))
             for c in inst.constraints for t in inst.effective(c).tuples)
    return tuple(sorted((frozenset(g) for g in connected_groups(nodes, links)),
                        key=min))
