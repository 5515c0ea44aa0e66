"""Finite algebras carrying a special weak near-unanimity operation.

An operation w is a WNU if it is idempotent and all the "one odd argument"
patterns agree: w(b,a,...,a) = w(a,b,a,...,a) = ... = w(a,...,a,b).  It is
special if additionally a*(a*b) = a*b for the derived binary a*b =
w(a,...,a,b).  Everything in this package works with explicit value tables
on small carriers (default cap 6 elements).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from math import lcm, prod
from operator import getitem

import numpy as np

from .errors import (
    ArgumentError,
    FormatError,
    InternalError,
    InvariantError,
    SizeError,
)

DEFAULT_DOMAIN_CAP = 6

# Guard for the layered image computation; generous for desk scale.
_STATE_CAP = 500_000

# Ordered m-tuples of value vectors one pointwise closure may apply w to.
_CLOSURE_BUDGET = 80_000_000

# The one live Algebra per (carrier, table), see ``Algebra.__new__``.
_ALGEBRAS = {}


@dataclass(frozen=True)
class OperationTable:
    """Explicit value table of an m-ary operation on positions {0..n-1}.

    Entries are listed over argument tuples in lexicographic order with the
    first argument most significant.
    """

    arity: int
    domain_size: int
    entries: tuple

    def __post_init__(self):
        if self.arity < 1 or self.domain_size < 1:
            raise FormatError("arity and domain size must be positive")
        if not isinstance(self.entries, tuple):
            object.__setattr__(self, "entries", tuple(self.entries))
        if len(self.entries) != self.domain_size ** self.arity:
            raise FormatError(
                "table needs %d entries, got %d"
                % (self.domain_size ** self.arity, len(self.entries))
            )
        if min(self.entries) < 0 or max(self.entries) >= self.domain_size:
            raise FormatError("table entry out of range")

    def apply(self, args):
        idx = 0
        for a in args:
            idx = idx * self.domain_size + a
        return self.entries[idx]


@dataclass(frozen=True, eq=False, init=False)
class Algebra:
    """An ordered carrier of element ids plus a WNU table over positions.

    The table is indexed by positions into ``elements``; ``op`` translates
    between element ids and positions so callers only see ids.  Algebras
    are interned: equal (carrier, table) pairs give one object, so
    algebras compare by identity.
    """

    elements: tuple
    wnu: OperationTable
    positions: dict = field(init=False, repr=False)  # element id -> position

    def __new__(cls, elements, wnu):
        elements = tuple(elements)
        key = (elements, wnu)
        alg = _ALGEBRAS.get(key)
        if alg is None:
            if len(set(elements)) != len(elements):
                raise FormatError("duplicate element ids")
            if len(elements) != wnu.domain_size:
                raise FormatError("table size does not match carrier")
            alg = object.__new__(cls)
            object.__setattr__(alg, "elements", elements)
            object.__setattr__(alg, "wnu", wnu)
            object.__setattr__(alg, "positions",
                               {e: i for i, e in enumerate(elements)})
            object.__setattr__(alg, "_hash", hash(key))
            _ALGEBRAS[key] = alg
        return alg

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return Algebra, (self.elements, self.wnu)

    @property
    def size(self):
        return len(self.elements)

    @property
    def arity(self):
        return self.wnu.arity

    def op(self, args):
        pos = self.positions
        return self.elements[self.wnu.apply([pos[a] for a in args])]


def make_algebra(elements, table: OperationTable) -> Algebra:
    violations = verify_special_wnu(table)
    if violations:
        raise InvariantError("not a special WNU: %s" % (violations[0],))
    return Algebra(elements, table)


# ---------------------------------------------------------------------------
# special-WNU verification and search


def verify_special_wnu(table: OperationTable):
    """Check idempotence, the WNU identities, and specialness.

    Returns a list of (identity, witness) pairs; empty means the table is a
    special WNU.
    """

    n, m = table.domain_size, table.arity
    violations = []
    for a in range(n):
        if table.apply([a] * m) != a:
            violations.append(("idempotence", (a,)))
    for a in range(n):
        for b in range(n):
            if a == b:
                continue
            vals = set()
            for i in range(m):
                args = [a] * m
                args[i] = b
                vals.add(table.apply(args))
            if len(vals) > 1:
                violations.append(("weak-near-unanimity", (a, b)))
                continue
            # specialness: a*(a*b) = a*b with a*b = w(a,...,a,b)
            c = vals.pop()
            if table.apply([a] * (m - 1) + [c]) != c:
                violations.append(("specialness", (a, b)))
    return violations


@dataclass(frozen=True)
class WnuSearch:
    """Outcome of a table search: found table, or none; whether the search
    ran to exhaustion (False means the node budget was hit)."""

    table: OperationTable | None
    exhausted: bool


def search_special_wnu(domain_size, relations, arity, budget=500_000) -> WnuSearch:
    """Backtracking search for a special WNU table preserving every relation.

    Cells are assigned in lexicographic argument order trying values
    ascending, with the WNU identity groups and the specialness rule
    propagated eagerly, so the first complete table found is the canonical
    one.  ``relations`` is an iterable of tuple collections over
    {0..domain_size-1}.
    """

    n, m = domain_size, arity
    if m < 3:
        raise ArgumentError("search requires arity >= 3")
    cells = list(itertools.product(range(n), repeat=m))
    index = {c: i for i, c in enumerate(cells)}
    ncells = len(cells)

    # group id per cell: -1 free, -2 diagonal, else id of the (a,b) pattern
    group_of = [-1] * ncells
    groups = {}
    fixed = [None] * ncells
    for i, c in enumerate(cells):
        vals = set(c)
        if len(vals) == 1:
            group_of[i] = -2
            fixed[i] = c[0]
        elif len(vals) == 2:
            counts = {v: c.count(v) for v in vals}
            odd = [v for v in vals if counts[v] == 1]
            if len(odd) == 1 and counts[next(iter(vals - set(odd)))] == m - 1:
                a = next(v for v in vals if v != odd[0])
                key = (a, odd[0])
                gid = groups.setdefault(key, len(groups))
                group_of[i] = gid
    members = [[] for _ in groups]
    for i in range(ncells):
        if group_of[i] >= 0:
            members[group_of[i]].append(i)
    group_key = {gid: key for key, gid in groups.items()}

    # relation preservation constraints, deduplicated on their cell tuple
    constraints = []
    seen = set()
    watch = [[] for _ in range(ncells)]
    nodes = 0
    for rel in relations:
        tuples = sorted(set(map(tuple, rel)))
        if not tuples:
            continue
        members_set = frozenset(tuples)
        r = len(tuples[0])
        for rows in itertools.product(tuples, repeat=m):
            nodes += 1
            if nodes > budget:
                return WnuSearch(None, False)
            cols = tuple(index[tuple(rows[i][j] for i in range(m))] for j in range(r))
            key = (cols, members_set)
            if key in seen:
                continue
            seen.add(key)
            cid = len(constraints)
            constraints.append((cols, members_set))
            for ci in set(cols):
                watch[ci].append(cid)

    val = [None] * ncells
    for i in range(ncells):
        if fixed[i] is not None:
            val[i] = fixed[i]
    trail = []

    def assign(i, v):
        """Assign cell i (propagating its group and specialness); False on
        contradiction."""
        stack = [(i, v)]
        while stack:
            j, w = stack.pop()
            if val[j] is not None:
                if val[j] != w:
                    return False
                continue
            gid = group_of[j]
            targets = members[gid] if gid >= 0 else [j]
            for t in targets:
                if val[t] is None:
                    val[t] = w
                    trail.append(t)
                elif val[t] != w:
                    return False
                for cid in watch[t]:
                    cols, rel = constraints[cid]
                    out = []
                    for ci in cols:
                        if val[ci] is None:
                            break
                        out.append(val[ci])
                    else:
                        if tuple(out) not in rel:
                            return False
            if gid >= 0:
                a, _ = group_key[gid]
                # specialness: w(a,..,a,w(a,..,a,b)) = w(a,..,a,b)
                if w == a:
                    continue
                nxt = index[tuple([a] * (m - 1) + [w])]
                stack.append((nxt, w))
            # when j is itself the last cell of some group the constraint is
            # already covered by the group propagation above
        return True

    # check fixed diagonal against constraints once
    for i in range(ncells):
        if val[i] is not None:
            for cid in watch[i]:
                cols, rel = constraints[cid]
                if all(val[c] is not None for c in cols):
                    if tuple(val[c] for c in cols) not in rel:
                        return WnuSearch(None, True)

    # depth-first over the free cells in order; a frame is (cell, next
    # value to try, trail length before the cell was assigned)
    frames = []
    cell = v = mark = 0
    while True:
        while cell < ncells and val[cell] is not None:
            cell += 1
        if cell == ncells:
            table = OperationTable(m, n, tuple(val))
            if verify_special_wnu(table):
                raise InternalError("searched table is not a special WNU")
            return WnuSearch(table, True)
        if v < n:
            nodes += 1
            if nodes > budget:
                return WnuSearch(None, False)
            if assign(cell, v):
                frames.append((cell, v + 1, mark))
                cell, v, mark = cell + 1, 0, len(trail)
                continue
            v += 1
        elif frames:
            cell, v, mark = frames.pop()
        else:
            return WnuSearch(None, True)
        while len(trail) > mark:
            val[trail.pop()] = None


# ---------------------------------------------------------------------------
# abelian-sum fast path
#
# When the WNU is the m-ary sum over some abelian group structure on the
# carrier, invariant subsets of products of such algebras are exactly cosets
# of subgroups (idempotence forces (m-1)g = 0, so padding with a base point
# recovers binary addition).  Closure then reduces to subgroup generation.


@dataclass(frozen=True)
class GroupSum:
    """Abelian group ops under which the WNU is the shifted m-fold sum.

    For an idempotent operation the shift is necessarily the identity, so
    the WNU is exactly the m-ary group sum.
    """

    add: tuple          # n x n table over positions
    identity: int
    inverse: tuple
    shift: int = 0

    def sub(self, x, y):
        return self.add[x][self.inverse[y]]

    def power(self, x, k):
        acc = self.identity
        for _ in range(k):
            acc = self.add[acc][x]
        return acc

    def order(self, x):
        acc = x
        k = 1
        while acc != self.identity:
            acc = self.add[acc][x]
            k += 1
        return k


@lru_cache(maxsize=None)
def abelian_sum_structure(alg: Algebra):
    """A GroupSum if w(x1..xm) is an m-ary abelian group sum up to the
    constant forced by idempotence, else None.  Verified over every argument
    tuple."""

    n = alg.size
    m = alg.arity
    table = alg.wnu
    e = 0
    pad = [e] * (m - 2)
    b = [[table.apply([x, y] + pad) for y in range(n)] for x in range(n)]
    for x in range(n):
        for y in range(n):
            if b[x][y] != b[y][x]:
                return None
            for z in range(n):
                if b[b[x][y]][z] != b[x][b[y][z]]:
                    return None
    identity = None
    for u in range(n):
        if all(b[u][x] == x for x in range(n)):
            identity = u
            break
    if identity is None:
        return None
    inverse = [None] * n
    for x in range(n):
        for y in range(n):
            if b[x][y] == identity:
                inverse[x] = y
                break
        if inverse[x] is None:
            return None

    # the group fold of every argument tuple, in table order (first
    # argument most significant), checked against the table in one pass
    add = np.array(b, dtype=np.int64)
    fold = np.arange(n, dtype=np.int64)
    for _ in range(m - 1):
        fold = add[fold[:, None], np.arange(n)[None, :]].ravel()
    shift = b[table.apply([e] * m)][inverse[int(fold[0])]]
    if not np.array_equal(add[fold, shift],
                          np.asarray(table.entries, dtype=np.int64)):
        return None
    return GroupSum(tuple(map(tuple, b)), identity, tuple(inverse), shift)


def is_affine(alg: Algebra) -> bool:
    """Whether the WNU is an abelian group sum x1 + ... + xm.

    Idempotence forces (m-1)y = 0, so w(x, y, ..., y, z) = x - y + z is a
    Mal'tsev term, and every term operation is an affine combination
    a1 x1 + ... + ak xk with a1 + ... + ak = 1.  Subalgebras (cosets) and
    quotients of an affine algebra are affine again.
    """

    return abelian_sum_structure(alg) is not None


def _coset_closure(groups, positions_seed):
    """Least coset of a subgroup of the product group containing the seed
    (tuples of positions).  Generators extend the subgroup one at a time by
    their cyclic multiples, so members of the current subgroup cost one
    lookup and effective generators are logarithmically few."""

    seed = list(positions_seed)
    r = len(groups)
    rng = range(r)
    t0 = seed[0]
    adds = [g.add for g in groups]
    ident = tuple(g.identity for g in groups)
    sub = {ident}
    for t in seed[1:]:
        g = tuple(groups[c].sub(t[c], t0[c]) for c in rng)
        if g in sub:
            continue
        shifts = []
        mult = g
        while mult not in sub:
            shifts.append(mult)
            mult = tuple(adds[c][mult[c]][g[c]] for c in rng)
        grown = set(sub)
        for s in shifts:
            grown.update(tuple(adds[c][s[c]][h[c]] for c in rng) for h in sub)
        sub = grown
    return {tuple(adds[c][t0[c]][h[c]] for c in rng) for h in sub}


# ---------------------------------------------------------------------------
# layered image computation
#
# The image w(T,...,T) of a tuple set under the coordinatewise WNU is
# computed by fixing arguments one position at a time.  Each coordinate
# contributes a small deterministic automaton over residual table slices;
# the joint state is a vector of per-coordinate state ids, deduplicated
# level by level.  Structured operations collapse to few states per level.


@lru_cache(maxsize=None)
def _slice_automaton(alg: Algebra):
    """Per-level transition tables: level j maps (state, position) -> state
    id at level j+1; states at level m are value positions."""

    n = alg.size
    m = alg.arity
    levels = []
    slices = [alg.wnu.entries]
    for _ in range(m):
        seen = {}
        trans = []
        nxt_slices = []
        for sl in slices:
            block = len(sl) // n
            row = []
            for a in range(n):
                piece = sl[a * block:(a + 1) * block]
                sid = seen.get(piece)
                if sid is None:
                    sid = len(nxt_slices)
                    seen[piece] = sid
                    nxt_slices.append(piece)
                row.append(sid)
            trans.append(tuple(row))
        levels.append(tuple(trans))
        slices = nxt_slices
    finals = tuple(sl[0] for sl in slices)
    return tuple(levels), finals


def wnu_image(coords, tuples):
    """Set of coordinatewise w-values over all m-tuples from ``tuples``."""

    tuples = list(tuples)
    if not tuples:
        return set()
    r = len(coords)
    m = coords[0].arity
    for alg in coords:
        if alg.arity != m:
            raise ArgumentError("coordinate algebras disagree on wnu arity")
    autos = [_slice_automaton(alg) for alg in coords]
    cols = []
    for c, alg in enumerate(coords):
        pos = alg.positions
        cols.append([pos[t[c]] for t in tuples])
    points = list(zip(*cols))  # each tuple as element positions
    states = {(0,) * r}
    for level in range(m):
        trans = [autos[c][0][level] for c in range(r)]
        new = set()
        for st in states:
            rows = [trans[c][st[c]] for c in range(r)]
            new.update(tuple(map(getitem, rows, p)) for p in points)
            if len(new) > _STATE_CAP:
                raise SizeError("image state explosion")
        states = new
    finals = [autos[c][1] for c in range(r)]
    return {
        tuple(coords[c].elements[finals[c][st[c]]] for c in range(r))
        for st in states
    }


def _group_coords(coords):
    groups = []
    for alg in coords:
        g = abelian_sum_structure(alg)
        if g is None:
            return None
        groups.append(g)
    return groups


def is_closed(coords, tuples) -> bool:
    """Whether ``tuples`` is closed under the coordinatewise WNU; the
    closure contains the set, since w is idempotent."""

    tset = set(map(tuple, tuples))
    return wnu_closure(coords, tset) == tset


def wnu_closure(coords, seed):
    """Least superset of ``seed`` closed under the coordinatewise WNU."""

    current = set(map(tuple, seed))
    if not current:
        return frozenset()
    groups = _group_coords(coords)
    if groups is not None:
        r = len(coords)
        maps = [alg.positions for alg in coords]
        pos_seed = [tuple(maps[c][t[c]] for c in range(r)) for t in current]
        closed = _coset_closure(groups, pos_seed)
        return frozenset(
            tuple(coords[c].elements[p[c]] for c in range(r)) for p in closed
        )
    while True:
        img = wnu_image(coords, current)
        if img <= current:
            return frozenset(current)
        current |= img


def upper_covers(coords, tuples):
    """closure(tuples ∪ {t}) for every absent tuple t, deduplicated.  Every
    closed set strictly containing the closed set ``tuples`` contains one
    of them.

    On group-sum coordinates ``tuples`` is a coset t0 + H, and every u in
    t + H gives the cover of t, so each coset of H is closed once."""

    tuples = frozenset(tuples)
    r = len(coords)
    groups = _group_coords(coords) if tuples else None
    if groups is not None:
        maps = [alg.positions for alg in coords]
        pos = [tuple(maps[c][t[c]] for c in range(r)) for t in tuples]
        t0 = pos[0]
        diffs = [tuple(groups[c].sub(p[c], t0[c]) for c in range(r))
                 for p in pos]
    covered = set(tuples)
    out = set()
    for t in itertools.product(*(alg.elements for alg in coords)):
        if t in covered:
            continue
        out.add(wnu_closure(coords, tuples | {t}))
        if groups is not None:
            pt = tuple(maps[c][t[c]] for c in range(r))
            covered.update(
                tuple(coords[c].elements[groups[c].add[pt[c]][d[c]]]
                      for c in range(r))
                for d in diffs
            )
    return out


def closed_sets_above(space, base, close):
    """Every set reached from the closed set ``base`` by repeatedly closing
    (current set plus one absent tuple of ``space``) under ``close``, base
    included, canonically sorted.  When ``close`` is a closure operator
    these are all its closed sets containing ``base``."""

    seen = {base}
    frontier = [base]
    while frontier:
        nxt = []
        for cur in frontier:
            for t in space:
                if t in cur:
                    continue
                grown = close(cur | {t})
                if grown not in seen:
                    seen.add(grown)
                    nxt.append(grown)
        frontier = nxt
    return sorted(seen, key=lambda s: (len(s), tuple(sorted(s))))


@lru_cache(maxsize=65536)
def is_subuniverse(alg: Algebra, subset: frozenset) -> bool:
    """Whether ``subset``, a subset of the carrier, is closed under the
    WNU of ``alg``."""

    return is_closed((alg,), {(e,) for e in subset})


@lru_cache(maxsize=None)
def all_subuniverses(alg: Algebra):
    """Every nonempty subset closed under the WNU, sorted by (size, elements)."""

    out = []
    elems = alg.elements
    for size in range(1, len(elems) + 1):
        for subset in itertools.combinations(sorted(elems), size):
            subset = frozenset(subset)
            if is_subuniverse(alg, subset):
                out.append(subset)
    return tuple(sorted(out, key=lambda s: (len(s), tuple(sorted(s)))))


@lru_cache(maxsize=None)
def restrict_algebra(alg: Algebra, subset: frozenset) -> Algebra:
    """Subalgebra induced on ``subset``; element ids are preserved."""

    subset = frozenset(subset)
    if not subset <= set(alg.elements):
        raise ArgumentError("subset not within the carrier")
    elems = tuple(sorted(subset))
    if elems == alg.elements:
        return alg
    if not is_subuniverse(alg, subset):
        raise InvariantError("subset is not a subuniverse")
    k = len(elems)
    m = alg.arity
    entries = tuple(
        elems.index(alg.op(args))
        for args in itertools.product(elems, repeat=m)
    )
    return Algebra(elems, OperationTable(m, k, entries))


# ---------------------------------------------------------------------------
# congruences and quotients


@dataclass(frozen=True)
class Congruence:
    """A compatible partition, stored canonically: blocks sorted internally
    and ordered by their least element."""

    blocks: tuple

    def __post_init__(self):
        canon = tuple(sorted((tuple(sorted(b)) for b in self.blocks),
                             key=lambda b: b[0]))
        object.__setattr__(self, "blocks", canon)

    @property
    def carrier(self):
        return tuple(sorted(e for b in self.blocks for e in b))

    def kernel(self):
        k = self.__dict__.get("_kernel")
        if k is None:
            k = {e: i for i, b in enumerate(self.blocks) for e in b}
            object.__setattr__(self, "_kernel", k)
        return k

    def __hash__(self):
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash(self.blocks)
            object.__setattr__(self, "_hash", h)
        return h

    def __eq__(self, other):
        if not isinstance(other, Congruence):
            return NotImplemented
        return self.blocks == other.blocks

    def block_of(self, element):
        return self.blocks[self.kernel()[element]]

    @property
    def is_equality(self):
        return all(len(b) == 1 for b in self.blocks)

    @property
    def is_full(self):
        return len(self.blocks) == 1

    def refines(self, other: "Congruence") -> bool:
        ok = other.kernel()
        return all(len({ok[e] for e in b}) == 1 for b in self.blocks)

    def sort_key(self, elements):
        k = self.kernel()
        return tuple(k[e] for e in elements)


def _restricted_growth_strings(n, prefix=(), top=-1):
    """All set partitions of range(n) as restricted growth strings, lex
    order; each extends ``prefix``, whose largest entry is ``top``."""

    if len(prefix) == n:
        yield prefix
        return
    for v in range(top + 2):
        yield from _restricted_growth_strings(n, prefix + (v,), max(top, v))


def _kernel_compatible(alg: Algebra, kernel) -> bool:
    """Blockwise compatibility of an equivalence with the WNU, checked one
    argument position at a time.  For abelian sums an equivalence is
    compatible exactly when its blocks are the cosets of a subgroup."""

    elems = alg.elements
    m = alg.arity
    classes = {}
    for e in elems:
        classes.setdefault(kernel[e], []).append(e)
    multi = [c for c in classes.values() if len(c) > 1]
    if not multi:
        return True
    group = abelian_sum_structure(alg)
    if group is not None:
        pos = alg.positions
        base = classes[kernel[elems[group.identity]]]
        base_pos = {pos[e] for e in base}
        sizes = {len(c) for c in classes.values()}
        if sizes != {len(base)}:
            return False
        if not all(group.sub(x, y) in base_pos
                   for x in base_pos for y in base_pos):
            return False
        for cls in classes.values():
            rep = pos[cls[0]]
            if {group.sub(pos[e], rep) for e in cls} != base_pos:
                return False
        return True
    for j in range(m):
        for ctx in itertools.product(elems, repeat=m - 1):
            for cls in multi:
                seen = set()
                for e in cls:
                    args = ctx[:j] + (e,) + ctx[j:]
                    seen.add(kernel[alg.op(args)])
                    if len(seen) > 1:
                        return False
    return True


@lru_cache(maxsize=None)
def all_congruences(alg: Algebra):
    """All congruences of the algebra, canonically sorted.

    Enumerates every partition of the carrier (Bell(6) = 203 at the cap) and
    filters by blockwise compatibility.
    """

    n = alg.size
    if n > DEFAULT_DOMAIN_CAP:
        raise SizeError("carrier above congruence cap (%d > %d)"
                        % (n, DEFAULT_DOMAIN_CAP))
    elems = alg.elements
    out = []
    for rgs in _restricted_growth_strings(n):
        kernel = {elems[i]: rgs[i] for i in range(n)}
        if _kernel_compatible(alg, kernel):
            blocks = {}
            for e in elems:
                blocks.setdefault(kernel[e], []).append(e)
            out.append(Congruence(tuple(map(tuple, blocks.values()))))
    out.sort(key=lambda c: c.sort_key(elems))
    return tuple(out)


def maximal_among(congs):
    """The congruences of ``congs`` that refine no other one, in order."""

    return [c for c in congs
            if not any(c is not d and c.refines(d) for d in congs)]


def maximal_congruences(alg: Algebra, nontrivial=False):
    """Maximal proper congruences; with ``nontrivial`` the equality
    congruence is excluded as well."""

    congs = [c for c in all_congruences(alg) if not c.is_full]
    if nontrivial:
        congs = [c for c in congs if not c.is_equality]
    return tuple(maximal_among(congs))


@lru_cache(maxsize=None)
def quotient_algebra(alg: Algebra, cong: Congruence):
    """Quotient by a congruence: carrier = block indices, induced table.

    Returns (quotient, element -> block index map).  The induced table is
    verified independent of block representatives.  The map is shared by all
    callers and must not be mutated.
    """

    if set(cong.carrier) != set(alg.elements):
        raise InvariantError("partition does not cover the carrier")
    if cong.is_equality and list(alg.elements) == sorted(alg.elements):
        # block i is the i-th element, so the induced table is the table
        return Algebra(tuple(range(alg.size)), alg.wnu), dict(cong.kernel())
    if not _kernel_compatible(alg, cong.kernel()):
        raise InvariantError("partition is not compatible with the operation")
    k = len(cong.blocks)
    m = alg.arity
    kernel = cong.kernel()
    # per table position: the block of its value, and the index of its
    # argument blocks' combination (first argument most significant)
    block = np.array([kernel[e] for e in alg.elements], dtype=np.int64)
    value_block = block[np.asarray(alg.wnu.entries, dtype=np.int64)]
    combo = block
    for _ in range(m - 1):
        combo = (combo[:, None] * k + block[None, :]).ravel()
    # every combination occurs; storing any one of its value blocks and
    # reading it back everywhere finds representatives that disagree
    entries = np.empty(k ** m, dtype=np.int64)
    entries[combo] = value_block
    if not np.array_equal(entries[combo], value_block):
        raise InvariantError("quotient table depends on representatives")
    quotient = Algebra(tuple(range(k)),
                       OperationTable(m, k, tuple(entries.tolist())))
    return quotient, dict(kernel)


# ---------------------------------------------------------------------------
# pointwise closures of derived operations (unary / binary / ternary terms)


def _sorted_distinct(codes):
    """The distinct values of a 1-d array, ascending, as ``np.unique`` gives
    them, without the ``numpy.ma`` import ``np.unique`` costs on first use."""

    codes = np.sort(codes)
    keep = np.ones(len(codes), dtype=bool)
    keep[1:] = codes[1:] != codes[:-1]
    return codes[keep]


def _vector_round(old, frontier, entries, n, m):
    """The distinct rows of one closure round, as tuples.

    ``old`` and ``frontier`` are arrays of value vectors, one per row, and
    ``entries`` is the flat table of the m-ary WNU.  The round applies w,
    cell by cell, to every m-tuple of rows of old + frontier that uses a
    frontier row, each once: split by the position k of its first frontier
    row, it takes old rows before k and any rows after k.
    """

    every = np.concatenate([old, frontier])
    ncells = every.shape[1]
    chunk = max(1, (1 << 21) // ncells)
    packed = n ** ncells <= (1 << 62)
    powers = n ** np.arange(ncells, dtype=np.int64)
    codes = []
    rows = set()
    for k in range(m):
        pools = [old] * k + [frontier] + [every] * (m - 1 - k)
        sizes = [len(p) for p in pools]
        total = prod(sizes)
        for start in range(0, total, chunk):
            rem = np.arange(start, min(start + chunk, total), dtype=np.int64)
            flat = 0
            for j in range(m - 1, -1, -1):
                flat = flat + pools[j][rem % sizes[j]] * n ** (m - 1 - j)
                rem = rem // sizes[j]
            vals = entries[flat]
            if packed:
                # pack rows into single ints so dedup is one-dimensional
                codes.append(_sorted_distinct(vals @ powers))
            else:
                rows.update(map(tuple, vals.tolist()))
    if packed:
        codes = _sorted_distinct(np.concatenate(codes))
        rows = map(tuple, (codes[:, None] // powers % n).tolist())
    return list(rows)


def _pointwise_closure(alg: Algebra, seed, early_stop=None, size_cap=None):
    """Close a set of value vectors under the WNU applied cell by cell.

    The vectors are equal-length tuples over positions, one cell per
    argument tuple of a derived operation.  Each round maps the set T to
    T + w(T^m), semi-naively: ``_vector_round`` applies w only to the
    m-tuples that use a row added by the previous round.  Abelian group
    sums take the coset closure instead.

    Returns (frozenset, complete flag).  The flag is False when the next
    round would take the m-tuples applied past ``_CLOSURE_BUDGET``, or when
    a round leaves more than ``size_cap`` vectors; the set is then the one
    after the last whole round.  ``early_stop(set)``, asked of the seed and
    after each round, ends the closure with the flag True.
    """

    m = alg.arity
    current = set(seed)
    if early_stop and early_stop(current):
        return frozenset(current), True
    ncells = len(next(iter(current)))
    group = abelian_sum_structure(alg)
    if group is not None:
        # value vectors are tuples over the carrier: exactly the coset
        # closure in the product group
        closed = _coset_closure([group] * ncells, list(current))
        return frozenset(map(tuple, closed)), True
    entries = np.asarray(alg.wnu.entries, dtype=np.int64)
    old = np.empty((0, ncells), dtype=np.int64)
    frontier = np.array(list(current), dtype=np.int64)
    while True:
        # after this round w has met every m-tuple over old + frontier once
        if (len(old) + len(frontier)) ** m > _CLOSURE_BUDGET:
            return frozenset(current), False
        fresh = [row for row in _vector_round(old, frontier, entries,
                                              alg.size, m)
                 if row not in current]
        if not fresh:
            return frozenset(current), True
        current.update(fresh)
        if size_cap is not None and len(current) > size_cap:
            return frozenset(current), False
        if early_stop and early_stop(current):
            return frozenset(current), True
        old = np.concatenate([old, frontier])
        frontier = np.array(fresh, dtype=np.int64)


def unary_polynomial_closure(alg: Algebra):
    """All unary polynomial operations, as position-space value vectors."""

    n = alg.size
    seed = {tuple(range(n))}
    seed |= {(c,) * n for c in range(n)}
    full = n ** n
    closed, complete = _pointwise_closure(
        alg, seed, early_stop=lambda s: len(s) == full
    )
    if not complete:
        raise SizeError("unary polynomial closure budget exceeded")
    return closed


@lru_cache(maxsize=None)
def is_polynomially_complete(alg: Algebra) -> bool:
    """Whether the WNU together with all constants generates every operation.

    For carriers of size >= 3 this holds iff every unary map is a polynomial
    (the operation is idempotent and essential, so the classical completeness
    criterion applies).  On two elements, by Post's lattice: the constants
    leave the clones T0, T1 and the self-dual one, so the WNU and both
    constants generate every operation iff the WNU is neither monotone nor
    affine.
    """

    n = alg.size
    if n > DEFAULT_DOMAIN_CAP:
        raise SizeError("carrier above PC cap")
    if n == 1:
        return True
    if n >= 3:
        return len(unary_polynomial_closure(alg)) == n ** n
    # argument tuples x below x | b, for each bit b of the table index
    e = alg.wnu.entries
    flips = [(x, x | b) for b in (1 << i for i in range(alg.arity))
             for x in range(len(e)) if not x & b]
    monotone = all(e[x] <= e[y] for x, y in flips)
    # affine over GF(2): every derivative f(x + b) - f(x) is constant
    affine = all(e[x] ^ e[y] == e[0] ^ e[x ^ y] for x, y in flips)
    return not monotone and not affine


# ---------------------------------------------------------------------------
# linear structure


def prime_factors(n):
    out = []
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1
    if n > 1:
        out.append(n)
    return tuple(out)


@dataclass(frozen=True)
class LinearIso:
    """Bijection of a carrier onto a product of prime cyclic groups under
    which the WNU is the componentwise sum of its arguments."""

    primes: tuple
    forward: tuple  # pairs (element, group tuple)

    def to_group(self, element):
        return dict(self.forward)[element]

    def from_group(self, vector):
        inv = {v: e for e, v in self.forward}
        return inv[tuple(vector)]


def verify_linear_iso(alg: Algebra, iso: LinearIso) -> bool:
    fwd = dict(iso.forward)
    if sorted(fwd) != sorted(alg.elements):
        return False
    if len(set(fwd.values())) != alg.size:
        return False
    if prod(iso.primes) != alg.size:
        return False
    for args in itertools.product(alg.elements, repeat=alg.arity):
        want = tuple(
            sum(fwd[a][i] for a in args) % p for i, p in enumerate(iso.primes)
        )
        if fwd[alg.op(args)] != want:
            return False
    return True


@lru_cache(maxsize=None)
def linear_structure(alg: Algebra):
    """A LinearIso if the algebra is a product of prime cyclic groups under
    its WNU, else None.

    A linear algebra's WNU is an abelian group sum, so detection of the
    group structure is decisive; the iso is then built from the canonical
    prime-torsion basis.  The WNU being idempotent forces the fold shift to
    the identity and every prime to divide (arity - 1)."""

    n = alg.size
    if n > DEFAULT_DOMAIN_CAP:
        raise SizeError("carrier above linear-structure cap")
    if n == 1:
        return LinearIso((), ((alg.elements[0], ()),))
    group = abelian_sum_structure(alg)
    if group is None:
        return None
    if group.shift != group.identity:
        return None  # cannot happen for an idempotent operation
    m = alg.arity
    exponent = lcm(*(group.order(x) for x in range(n)))
    for p in set(prime_factors(exponent)):
        if exponent % (p * p) == 0:
            return None  # a prime-square order element blocks linearity
    if any((m - 1) % p for p in prime_factors(exponent)):
        return None
    # torsion decomposition: per prime, a basis of the p-component
    primes = []
    basis = []
    for p in sorted(set(prime_factors(exponent))):
        component = sorted(x for x in range(n) if group.power(x, p) == group.identity)
        span = {group.identity}
        for x in component:
            if x in span:
                continue
            basis.append(x)
            primes.append(p)
            span = {group.add[s][group.power(x, k)]
                    for s in span for k in range(p)}
            if len(span) == len(component):
                break
    if prod(primes) != n:
        raise InvariantError("torsion decomposition does not cover the carrier")
    # coordinates: discrete logs against the basis, prime by prime
    coords = {}
    for vec in itertools.product(*(range(p) for p in primes)):
        x = group.identity
        for slot, k in enumerate(vec):
            x = group.add[x][group.power(basis[slot], k)]
        coords[x] = vec
    if len(coords) != n:
        raise InvariantError("torsion basis is not independent")
    pos = alg.positions
    forward = tuple((e, coords[pos[e]]) for e in alg.elements)
    # the map is a group isomorphism by construction; confirm on pairs
    fwd = dict(forward)
    for a in alg.elements:
        for b_el in alg.elements:
            s = alg.elements[group.add[pos[a]][pos[b_el]]]
            want = tuple((fwd[a][i] + fwd[b_el][i]) % p
                         for i, p in enumerate(primes))
            if fwd[s] != want:
                raise InvariantError("torsion coordinates are not additive")
    return LinearIso(tuple(primes), forward)


# ---------------------------------------------------------------------------
# binary term closure


@dataclass(frozen=True)
class BinaryTerms:
    tables: tuple  # OperationTable objects, arity 2, sorted by entries
    complete: bool


# Binary term closures larger than this are returned partial.
_BINARY_TERMS_CAP = 2048


@lru_cache(maxsize=None)
def binary_terms(alg: Algebra) -> BinaryTerms:
    """Closure of the two binary projections under substitution into the WNU.

    Tables are in position space.  When the closure exceeds
    ``_BINARY_TERMS_CAP`` a partial set is returned with ``complete`` False;
    callers needing exhaustiveness must treat that as inconclusive.
    """

    n = alg.size
    cells = list(itertools.product(range(n), repeat=2))
    p1 = tuple(c[0] for c in cells)
    p2 = tuple(c[1] for c in cells)
    closed, complete = _pointwise_closure(alg, {p1, p2},
                                          size_cap=_BINARY_TERMS_CAP)
    tables = tuple(
        OperationTable(2, n, t) for t in sorted(closed)
    )
    return BinaryTerms(tables, complete)


# ---------------------------------------------------------------------------
# common small tables


@lru_cache(maxsize=None)
def sum_table(n, m) -> OperationTable:
    """x1 + ... + xm mod n."""

    entries = tuple(
        sum(args) % n for args in itertools.product(range(n), repeat=m)
    )
    return OperationTable(m, n, entries)


def minority_table() -> OperationTable:
    return sum_table(2, 3)


def majority_table() -> OperationTable:
    entries = tuple(
        1 if sum(args) >= 2 else 0
        for args in itertools.product(range(2), repeat=3)
    )
    return OperationTable(3, 2, entries)


def conjunction_table(m=3) -> OperationTable:
    entries = tuple(
        min(args) for args in itertools.product(range(2), repeat=m)
    )
    return OperationTable(m, 2, entries)


def dual_discriminator_table(n=3) -> OperationTable:
    entries = tuple(
        (y if y == z else x)
        for x, y, z in itertools.product(range(n), repeat=3)
    )
    return OperationTable(3, n, entries)
