"""Finite algebras carrying a special weak near-unanimity operation.

An operation w is a WNU if it is idempotent and all the "one odd argument"
patterns agree: w(b,a,...,a) = w(a,b,a,...,a) = ... = w(a,...,a,b).  It is
special if additionally a*(a*b) = a*b for the derived binary a*b =
w(a,...,a,b).  Everything in this package works with explicit value tables
on small carriers (default cap 6 elements).
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass, field
from functools import lru_cache
from math import inf, lcm, prod
from operator import getitem

from .errors import (
    ArgumentError,
    FormatError,
    InternalError,
    InvariantError,
    SizeError,
)

DEFAULT_DOMAIN_CAP = 6

# Joint states one level of a relation closure's automaton round may hold;
# generous for desk scale.  Pointwise closures are bounded by
# ``_CLOSURE_BUDGET`` instead.
_STATE_CAP = 500_000

# Ordered m-tuples of value vectors one pointwise closure may apply w to.
_CLOSURE_BUDGET = 80_000_000

# The one live Algebra per (carrier, table), see ``Algebra.__new__``.  Weak,
# so an algebra that nothing holds is freed.
_ALGEBRAS = weakref.WeakValueDictionary()


@dataclass(frozen=True)
class OperationTable:
    """Explicit value table of an m-ary operation on positions {0..n-1}.

    Entries are listed over argument tuples in lexicographic order with the
    first argument most significant.  A table computes its hash once, on
    first use, and leaves it out of equality and pickles.
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

    def __hash__(self):
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.arity, self.domain_size, self.entries))
            object.__setattr__(self, "_hash", h)
        return h

    def __reduce__(self):
        return OperationTable, (self.arity, self.domain_size, self.entries)

    def apply(self, args):
        idx = 0
        for a in args:
            idx = idx * self.domain_size + a
        return self.entries[idx]


def _derived_table(arity, domain_size, entries) -> OperationTable:
    """A table derived from valid ones, skipping the checks of
    ``OperationTable.__post_init__``: callers pass a list or tuple of
    ``domain_size ** arity`` int entries in range."""

    table = object.__new__(OperationTable)
    table.__dict__.update(arity=arity, domain_size=domain_size,
                          entries=tuple(entries))
    return table


def _tuple_index(digits, base, m):
    """Per m-tuple of positions into ``digits``, in table order (first
    argument most significant): the mixed-radix number of its digits in
    ``base``."""

    index = list(digits)
    for _ in range(m - 1):
        index = [i * base + d for i in index for d in digits]
    return index


def _fold(add, m):
    """The m-fold sum x1 + ... + xm of a k x k addition table (a list of
    rows), as the k^m table entries."""

    fold = list(range(len(add)))
    for _ in range(m - 1):
        fold = [x for a in fold for x in add[a]]
    return fold


@dataclass(frozen=True, eq=False, init=False)
class Algebra:
    """An ordered carrier of element ids plus a WNU table over positions.

    The table is indexed by positions into ``elements``; ``op`` translates
    between element ids and positions so callers only see ids.  Algebras
    are interned weakly: equal (carrier, table) pairs give one live object,
    so algebras compare by identity.
    """

    elements: tuple
    wnu: OperationTable
    positions: dict = field(init=False, repr=False)  # element id -> position
    carrier: frozenset = field(init=False, repr=False)  # the element ids

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
            object.__setattr__(alg, "carrier", frozenset(elements))
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
    special WNU.  Equal tables are checked once while the bounded cache
    holds their result.
    """

    return list(_wnu_violations(table))


@lru_cache(maxsize=32)
def _wnu_violations(table):
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
    return tuple(violations)


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
    """Abelian group ops under which the WNU is the m-fold sum."""

    add: tuple          # n x n table over positions
    identity: int
    inverse: tuple

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


@lru_cache(maxsize=1024)
def abelian_sum_structure(alg: Algebra):
    """A GroupSum whose m-fold sum is w(x1..xm), else None.  The group is
    w(x, y, e, ..., e) for the first element e, which finds every group sum
    when w is idempotent.  Verified over every argument tuple."""

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

    # the group fold of every argument tuple, checked against the table
    if tuple(_fold(b, m)) != table.entries:
        return None
    return GroupSum(tuple(map(tuple, b)), identity, tuple(inverse))


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
    lookup and effective generators are logarithmically few.  Returns the
    coset's size and an iterator over its tuples, so a caller that needs
    only the size builds none."""

    seed = list(positions_seed)
    rng = range(len(groups))
    adds = [g.add for g in groups]

    def shift(x):
        # y -> x + y, by the addition rows of x's coordinates
        rows = [adds[c][x[c]] for c in rng]
        return lambda y: tuple([rows[c][y[c]] for c in rng])

    t0 = seed[0]
    back = shift([groups[c].inverse[t0[c]] for c in rng])
    sub = {tuple(g.identity for g in groups)}
    for t in seed[1:]:
        g = back(t)
        if g in sub:
            continue
        step = shift(g)
        shifts = []
        mult = g
        while mult not in sub:
            shifts.append(mult)
            mult = step(mult)
        grown = set(sub)
        for x in shifts:
            grown.update(map(shift(x), sub))
        sub = grown
    return len(sub), map(shift(t0), sub)


# ---------------------------------------------------------------------------
# closures under the coordinatewise WNU
#
# ``wnu_closure`` takes one of three paths, by its coordinates:
# - every coordinate a group sum: the coset closure above, on tuples of
#   positions;
# - otherwise, up to ``_TABLE_TUPLES`` tuples whose m-ary table has at most
#   ``_TABLE_ENTRIES`` entries (for a ternary WNU at most 40 tuples:
#   relations of arity up to 5 on 2 elements, 3 on 3 elements, 2 on 4 to
#   6 elements): the product algebra's WNU as one ``bytes`` table on tuple
#   codes, so each m-tuple of a closure round is one index and one lookup.
#   A tuple's code is its positions in mixed radix, first coordinate most
#   significant; the table is built once per coordinate tuple, as the sum
#   of each coordinate's table read at its digits, and kept in a bounded
#   cache;
# - past that cap (for a ternary WNU, ternary relations on 4 elements and
#   wider ones on 5 and 6): rounds of ``_automaton_round`` on tuples of
#   positions.  A round fixes arguments one position at a time; each
#   coordinate contributes a small deterministic automaton over residual
#   table slices, the joint state is a vector of per-coordinate state ids,
#   deduplicated level by level, and structured operations collapse to few
#   states per level.
# The table and automaton paths run semi-naive rounds (``_semi_naive``),
# and the coset and automaton paths convert element ids to positions once
# on entry and back once on exit (``_positions``, ``_elements``).
# Coordinates whose WNU arities differ have no coordinatewise WNU:
# ``wnu_closure`` raises before choosing a path.

_TABLE_TUPLES = 256        # so a tuple code fits in a byte
_TABLE_ENTRIES = 1 << 16


@lru_cache(maxsize=64)
def _product_table(coords):
    """(table, code of each tuple, tuple of each code, index weight of each
    argument) of the coordinatewise WNU, or None past the cap.  ``table``
    lists the code of w over every m-tuple of codes, first argument most
    significant."""

    n = prod(alg.size for alg in coords)
    m = coords[0].arity
    if n > _TABLE_TUPLES or n ** m > _TABLE_ENTRIES:
        return None
    table = [0] * n ** m
    stride = n
    for alg in coords:
        stride //= alg.size
        digit = [c // stride % alg.size for c in range(n)]
        entries = alg.wnu.entries
        table = [t + entries[i] * stride for t, i
                 in zip(table, _tuple_index(digit, alg.size, m))]
    decode = list(itertools.product(*(alg.elements for alg in coords)))
    encode = {t: i for i, t in enumerate(decode)}
    weights = [n ** (m - 1 - j) for j in range(m)]
    return bytes(table), encode, decode, weights


def _round_pools(old, frontier, m):
    """The argument pools of each split of a semi-naive round over
    ``old + frontier``: split k takes old rows before position k, a
    frontier row at k and any row after it, so every m-tuple that uses a
    frontier row is in exactly one split, the one of its first frontier
    row.  With no old rows there is one split, every m-tuple."""

    every = old + frontier
    for k in range(m if old else 1):
        yield [old] * k + [frontier] + [every] * (m - 1 - k)


def _round_splits(weights, old, frontier):
    """Table indices of the m-tuples of codes from ``old + frontier`` that
    use a frontier code, each once, as one list per split of
    ``_round_pools``."""

    for pools in _round_pools(old, frontier, len(weights)):
        index = [0]
        for w, pool in zip(weights, pools):
            index = [i + c * w for i in index for c in pool]
        yield index


def _semi_naive(seed, round_rows):
    """The rows of ``seed`` and every row the rounds add, up to the first
    round that adds none.  ``round_rows(old, frontier)`` is one
    semi-naive round: the set of values of w over the m-tuples of rows of
    ``old + frontier`` that use a frontier row, one added by the previous
    round."""

    seen = set(seed)
    old, frontier = [], list(seen)
    while True:
        added = round_rows(old, frontier) - seen
        if not added:
            return seen
        seen |= added
        old, frontier = old + frontier, list(added)


def _table_closure(coords, tuples):
    """Closure of the set ``tuples`` on the product table, or None past
    the cap, by semi-naive rounds."""

    entry = _product_table(coords)
    if entry is None:
        return None
    table, encode, decode, weights = entry

    def round_codes(old, frontier):
        image = set()
        for index in _round_splits(weights, old, frontier):
            image.update(map(table.__getitem__, index))
        return image

    seen = _semi_naive(map(encode.__getitem__, tuples), round_codes)
    if len(seen) == len(tuples):
        return frozenset(tuples)
    return frozenset(map(decode.__getitem__, seen))


@lru_cache(maxsize=1024)
def _slice_automaton(alg: Algebra):
    """Per-level transition tables: level j maps (state, position) -> state
    id at level j+1; the last level maps to value positions."""

    n = alg.size
    levels = []
    slices = [alg.wnu.entries]
    for _ in range(alg.arity):
        ids = {}  # each distinct slice of the next level -> its state id
        block = len(slices[0]) // n
        levels.append(tuple(
            tuple(ids.setdefault(sl[a * block:(a + 1) * block], len(ids))
                  for a in range(n))
            for sl in slices))
        slices = list(ids)
    # each last-level slice holds one value
    levels[-1] = tuple(tuple(slices[sid][0] for sid in row)
                       for row in levels[-1])
    return tuple(levels)


def _automaton_round(old, frontier, coords, cap=inf):
    """The set of rows one semi-naive round gives on the slice automata of
    ``coords``, one algebra per cell: w applied cell by cell to every
    m-tuple of rows of ``old + frontier`` that uses a frontier row.

    Rows are tuples of positions.  Each cell runs its automaton on its own
    state, the joint state being the vector of the cells' states,
    deduplicated level by level; the states the last level reaches are the
    rows.  A level of more than ``cap`` joint states raises
    ``SizeError``."""

    autos = [_slice_automaton(alg) for alg in coords]
    rows = set()
    for pools in _round_pools(old, frontier, len(autos[0])):
        states = {(0,) * len(coords)}
        for level, pool in enumerate(pools):
            # per cell, per state: the next state of the cell for each row
            # of the pool, so a joint state's successors are one zip
            steps = [[tuple(map(trans.__getitem__, col))
                      for trans in auto[level]]
                     for auto, col in zip(autos, zip(*pool))]
            nxt = set()
            for st in states:
                nxt.update(zip(*map(getitem, steps, st)))
                if len(nxt) > cap:
                    raise SizeError("image state explosion")
            states = nxt
        rows |= states
    return rows


def _positions(coords, tuples):
    """Each tuple of element ids as the tuple of its positions."""

    maps = [alg.positions for alg in coords]
    return [tuple(map(getitem, maps, t)) for t in tuples]


def _elements(coords, points):
    """Each tuple of positions as the tuple of its element ids."""

    elems = [alg.elements for alg in coords]
    return [tuple(map(getitem, elems, p)) for p in points]


def wnu_image(coords, tuples):
    """Set of coordinatewise w-values over all m-tuples from ``tuples``:
    a first round, with no old rows; the coordinates share one arity
    (``wnu_closure`` checks it)."""

    rows = _automaton_round([], _positions(coords, tuples), coords,
                            _STATE_CAP)
    return set(_elements(coords, rows))


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
    """Least superset of ``seed`` closed under the coordinatewise WNU, by
    the path the coordinates select (see the head of this section)."""

    if len({alg.arity for alg in coords}) > 1:
        raise ArgumentError("coordinate algebras disagree on wnu arity")
    current = set(map(tuple, seed))
    if not current:
        return frozenset()
    groups = _group_coords(coords)
    if groups is None:
        closed = _table_closure(coords, current)
        if closed is not None:
            return closed
    points = _positions(coords, current)
    if groups is not None:
        size, closed = _coset_closure(groups, points)
    else:
        closed = _semi_naive(points, lambda old, frontier: _automaton_round(
            old, frontier, coords, _STATE_CAP))
        size = len(closed)
    if size == len(current):
        return frozenset(current)
    return frozenset(_elements(coords, closed))


def upper_covers(coords, tuples):
    """closure(tuples ∪ {t}) for every absent tuple t, deduplicated.  Every
    closed set strictly containing the closed set ``tuples`` contains one
    of them.

    On group-sum coordinates ``tuples`` is a coset t0 + H, and every u in
    t + H gives the cover of t, so each coset of H is closed once."""

    tuples = frozenset(tuples)
    groups = _group_coords(coords) if tuples else None
    if groups is not None:
        pos = _positions(coords, tuples)
        diffs = [tuple(map(GroupSum.sub, groups, p, pos[0])) for p in pos]
    covered = set(tuples)
    out = set()
    for t in itertools.product(*(alg.elements for alg in coords)):
        if t in covered:
            continue
        out.add(wnu_closure(coords, tuples | {t}))
        if groups is not None:
            (pt,) = _positions(coords, [t])
            covered.update(_elements(coords, [
                tuple([g.add[x][y] for g, x, y in zip(groups, pt, d)])
                for d in diffs]))
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


@lru_cache(maxsize=1024)
def restrict_algebra(alg: Algebra, subset: frozenset) -> Algebra:
    """Subalgebra induced on ``subset``; element ids are preserved."""

    subset = frozenset(subset)
    if not subset <= alg.carrier:
        raise ArgumentError("subset not within the carrier")
    elems = tuple(sorted(subset))
    if elems == alg.elements:
        return alg
    if not is_subuniverse(alg, subset):
        raise InvariantError("subset is not a subuniverse")
    m = alg.arity
    # table positions of the argument tuples over the subset, in table order
    pos = [alg.positions[e] for e in elems]
    # the subuniverse check keeps every value inside the subset
    renumber = {p: i for i, p in enumerate(pos)}
    entries = alg.wnu.entries
    table = [renumber[entries[i]] for i in _tuple_index(pos, alg.size, m)]
    return Algebra(elems, _derived_table(m, len(elems), table))


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


def _induced_table(entries, block, k, arity):
    """The k^arity table that the partition ``block`` (the block of each
    position; k blocks, none empty) induces from table entries over
    positions, or None when it is no congruence of that operation.  Per
    table position, the block of its value is stored at the index of its
    argument blocks and read back: every combination of blocks occurs, and
    a value read back differs from the one stored exactly where two
    representatives of one combination disagree."""

    combo = _tuple_index(block, k, arity)
    value_block = [block[v] for v in entries]
    induced = [0] * k ** arity
    for c, v in zip(combo, value_block):
        induced[c] = v
    if list(map(induced.__getitem__, combo)) != value_block:
        return None
    return induced


def _subgroups(group, n):
    """Every subgroup of the group on positions 0..n-1, as frozensets."""

    found = {frozenset([group.identity])}
    frontier = list(found)
    while frontier:
        grown = []
        for sub in frontier:
            for x in range(n):
                if x in sub:
                    continue
                # the coset through the identity is the subgroup it spans
                _, join = _coset_closure((group,), [(h,) for h in (*sub, x)])
                join = frozenset(h for (h,) in join)
                if join not in found:
                    found.add(join)
                    grown.append(join)
        frontier = grown
    return found


@lru_cache(maxsize=1024)
def all_congruences(alg: Algebra):
    """All congruences of the algebra, canonically sorted.

    For a group sum these are the coset partitions of the subgroups.  Any
    other algebra enumerates every partition of the carrier (Bell(6) = 203
    at the cap) and keeps those that induce a table (``_induced_table``).
    """

    n = alg.size
    if n > DEFAULT_DOMAIN_CAP:
        raise SizeError("carrier above congruence cap (%d > %d)"
                        % (n, DEFAULT_DOMAIN_CAP))
    elems = alg.elements
    out = []
    group = abelian_sum_structure(alg)
    if group is not None:
        for sub in _subgroups(group, n):
            cosets = {frozenset(group.add[x][h] for h in sub)
                      for x in range(n)}
            out.append(Congruence(tuple(tuple(elems[x] for x in c)
                                        for c in cosets)))
        out.sort(key=lambda c: c.sort_key(elems))
        return tuple(out)
    for rgs in _restricted_growth_strings(n):
        if _induced_table(alg.wnu.entries, rgs, max(rgs) + 1,
                          alg.arity) is not None:
            blocks = {}
            for e, b in zip(elems, rgs):
                blocks.setdefault(b, []).append(e)
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


@lru_cache(maxsize=1024)
def quotient_algebra(alg: Algebra, cong: Congruence):
    """Quotient by a congruence: carrier = block indices, induced table.

    Returns (quotient, element -> block index map).  The map is shared by
    all callers and must not be mutated.  The table comes from
    ``_induced_table``, so a partition whose quotient would depend on
    block representatives raises ``InvariantError``.

    When the WNU is a group sum (``abelian_sum_structure``), the test runs
    on the group's addition, x + y being w(x, y, e, ..., e) for the
    identity e: a partition compatible with it is the coset partition of a
    subgroup (an affine algebra is polynomially equivalent to a module, so
    its congruences are the cosets of subgroups), and the quotient's WNU
    is the m-fold sum of the quotient group, folded from the k x k table;
    the n^m table is never read.  Any other WNU is tested on its own table.
    """

    if set(cong.carrier) != alg.carrier:
        raise InvariantError("partition does not cover the carrier")
    if cong.is_equality and list(alg.elements) == sorted(alg.elements):
        # block i is the i-th element, so the induced table is the table
        return Algebra(tuple(range(alg.size)), alg.wnu), dict(cong.kernel())
    k = len(cong.blocks)
    m = alg.arity
    kernel = cong.kernel()
    block = [kernel[e] for e in alg.elements]
    group = abelian_sum_structure(alg)
    if group is None:
        entries = _induced_table(alg.wnu.entries, block, k, m)
    else:
        add = _induced_table([x for row in group.add for x in row],
                             block, k, 2)
        entries = None if add is None else _fold(
            [add[i:i + k] for i in range(0, k * k, k)], m)
    if entries is None:
        raise InvariantError("partition is not compatible with the operation")
    quotient = Algebra(tuple(range(k)), _derived_table(m, k, entries))
    return quotient, dict(kernel)


# ---------------------------------------------------------------------------
# pointwise closures of derived operations (unary / binary / ternary terms)
#
# A closure round is one round of ``_automaton_round`` with the WNU in
# every cell: w applied, cell by cell, to every m-tuple of value vectors of
# old + frontier that uses a frontier vector, each once.  The closure adds
# a round's new rows ascending by packed code, cell 0 least significant,
# so it adds them in one order.


def _pointwise_closure(alg: Algebra, seed, early_stop=None, size_cap=None):
    """Close a set of value vectors under the WNU applied cell by cell.

    The vectors are equal-length tuples over positions, one cell per
    argument tuple of a derived operation.  Each round maps the set T to
    T + w(T^m), semi-naively: it applies w only to the m-tuples that use a
    row added by the previous round (see the head of this section).
    Abelian group sums take the coset closure instead.

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
        _, closed = _coset_closure([group] * ncells, list(current))
        return frozenset(closed), True
    cells = (alg,) * ncells
    old, frontier = [], list(current)
    while True:
        # after this round w has met every m-tuple over old + frontier once
        applied = (len(old) + len(frontier)) ** m
        if applied > _CLOSURE_BUDGET:
            return frozenset(current), False
        fresh = sorted(_automaton_round(old, frontier, cells) - current,
                       key=lambda row: row[::-1])
        if not fresh:
            return frozenset(current), True
        current.update(fresh)
        if size_cap is not None and len(current) > size_cap:
            return frozenset(current), False
        if early_stop and early_stop(current):
            return frozenset(current), True
        old += frontier
        frontier = fresh


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
    which the WNU is the componentwise sum of its arguments.

    ``to_group`` and ``from_group`` are dict lookups; the two dicts are
    built once, when the iso is made, and equality, hash and pickles see
    ``primes`` and ``forward`` alone."""

    primes: tuple
    forward: tuple  # pairs (element, group tuple)

    def __post_init__(self):
        object.__setattr__(self, "_to", dict(self.forward))
        object.__setattr__(self, "_from", {v: e for e, v in self.forward})

    def __reduce__(self):
        return LinearIso, (self.primes, self.forward)

    def to_group(self, element):
        return self._to[element]

    def from_group(self, vector):
        return self._from[tuple(vector)]


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


@lru_cache(maxsize=1024)
def linear_structure(alg: Algebra):
    """A LinearIso if the algebra is a product of prime cyclic groups under
    its WNU, else None.

    A linear algebra's WNU is an abelian group sum, so detection of the
    group structure is decisive; the iso is then built from the canonical
    prime-torsion basis.  The WNU being idempotent forces every prime to
    divide (arity - 1)."""

    n = alg.size
    if n > DEFAULT_DOMAIN_CAP:
        raise SizeError("carrier above linear-structure cap")
    if n == 1:
        return LinearIso((), ((alg.elements[0], ()),))
    group = abelian_sum_structure(alg)
    if group is None:
        return None
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


@lru_cache(maxsize=1024)
def sum_table(n, m) -> OperationTable:
    """x1 + ... + xm mod n."""

    add = [[(x + y) % n for y in range(n)] for x in range(n)]
    return _derived_table(m, n, _fold(add, m))


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
