"""Linear algebra over prime fields, affine parameterizations, and
hyperplane learning from membership oracles.

Systems mix several primes; equations never cross prime blocks, so each
block is solved independently and the free variables are merged back in
declaration order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import AffineStructureViolation, ArgumentError, FormatError


def is_prime(n) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class Equation:
    """A single linear equation; coeffs are dense over the system's scalar
    variables and may be nonzero only on variables of ``prime``."""

    coeffs: tuple
    rhs: int
    prime: int

    def __post_init__(self):
        if not isinstance(self.coeffs, tuple):
            object.__setattr__(self, "coeffs", tuple(self.coeffs))
        object.__setattr__(self, "coeffs", tuple(c % self.prime for c in self.coeffs))
        object.__setattr__(self, "rhs", self.rhs % self.prime)


@dataclass(frozen=True)
class LinearSystem:
    scalar_vars: tuple  # pairs (name, prime)
    equations: tuple

    def __post_init__(self):
        for name, p in self.scalar_vars:
            if not is_prime(p):
                raise FormatError("modulus %r of %s is not prime" % (p, name))
        for eq in self.equations:
            if len(eq.coeffs) != len(self.scalar_vars):
                raise FormatError("equation width mismatch")
            for c, (_, p) in zip(eq.coeffs, self.scalar_vars):
                if c % eq.prime and p != eq.prime:
                    raise FormatError("equation crosses prime blocks")


def rref_mod_p(rows, p):
    """Row-reduced echelon form in place semantics; returns
    (nonzero rows, pivot column list).  Rows are lists of ints."""

    rows = [list(r) for r in rows]
    ncols = len(rows[0]) if rows else 0
    pivots = []
    rank = 0
    for col in range(ncols):
        pivot = None
        for i in range(rank, len(rows)):
            if rows[i][col] % p:
                pivot = i
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col] % p, -1, p)
        rows[rank] = [(v * inv) % p for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] % p:
                f = rows[i][col] % p
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rank])]
        pivots.append(col)
        rank += 1
    return rows[:rank], pivots


def nullspace_mod_p(rows, ncols, p):
    """Canonical (RREF) basis of {c : M c = 0} for the row space of M."""

    if not rows:
        basis = [[1 if j == i else 0 for j in range(ncols)] for i in range(ncols)]
        return basis
    red, pivots = rref_mod_p(rows, p)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [0] * ncols
        vec[fc] = 1
        for r, pc in zip(red, pivots):
            vec[pc] = (-r[fc]) % p
        basis.append(vec)
    if basis:
        basis, _ = rref_mod_p(basis, p)
    return basis


@dataclass(frozen=True)
class AffineParam:
    """Affine parameterization of a solution set: every assignment to the
    free variables yields exactly one solution and all solutions arise."""

    scalar_vars: tuple  # (name, prime) pairs, declaration order
    free_vars: tuple    # (scalar index, name, prime), declaration order
    exprs: tuple        # per scalar var: (const, ((free slot, coeff), ...))

    @property
    def moduli(self):
        return tuple(p for _, _, p in self.free_vars)

    def evaluate(self, assignment):
        if len(assignment) != len(self.free_vars):
            raise ArgumentError("free variable count mismatch")
        out = []
        for (name, p), (const, terms) in zip(self.scalar_vars, self.exprs):
            v = const
            for slot, coeff in terms:
                v += coeff * assignment[slot]
            out.append(v % p)
        return tuple(out)

    def space_size(self):
        out = 1
        for p in self.moduli:
            out *= p
        return out

    def points(self):
        return itertools.product(*(range(p) for p in self.moduli))


@dataclass(frozen=True)
class LinearSolveResult:
    kind: str  # "inconsistent" | "unique" | "param"
    assignment: tuple | None = None
    param: AffineParam | None = None


def solve_linear_system(system: LinearSystem) -> LinearSolveResult:
    """Solve per prime block.  Columns are eliminated starting from the last
    declared variable so the free (independent) variables are the earliest
    ones the solution space allows."""

    nvars = len(system.scalar_vars)
    primes = sorted({p for _, p in system.scalar_vars})
    exprs = [None] * nvars
    free_vars = []
    for p in primes:
        block = [i for i, (_, q) in enumerate(system.scalar_vars) if q == p]
        rev = list(reversed(block))
        rows = []
        for eq in system.equations:
            if eq.prime != p:
                continue
            row = [eq.coeffs[i] % p for i in rev] + [eq.rhs % p]
            if any(row):
                rows.append(row)
        if rows:
            red, pivots = rref_mod_p(rows, p)
        else:
            red, pivots = [], []
        width = len(rev)
        if width in pivots:
            return LinearSolveResult("inconsistent")
        pivot_set = set(pivots)
        block_free = [rev[c] for c in range(width) if c not in pivot_set]
        block_free.sort()
        slot_of = {}
        for idx in block_free:
            slot_of[idx] = len(free_vars)
            name, _ = system.scalar_vars[idx]
            free_vars.append((idx, name, p))
            exprs[idx] = (0, ((slot_of[idx], 1),))
        for row, pc in zip(red, pivots):
            var = rev[pc]
            const = row[width] % p
            terms = []
            for c in range(width):
                if c == pc or not row[c] % p:
                    continue
                terms.append((slot_of[rev[c]], (-row[c]) % p))
            exprs[var] = (const, tuple(sorted(terms)))
    # merge blocks: free variables in declaration order, slots re-numbered
    order = sorted(range(len(free_vars)), key=lambda s: free_vars[s][0])
    remap = {old: new for new, old in enumerate(order)}
    free_sorted = tuple(free_vars[s] for s in order)
    fixed_exprs = []
    for e in exprs:
        const, terms = e
        fixed_exprs.append(
            (const, tuple(sorted((remap[s], c) for s, c in terms)))
        )
    if not free_sorted:
        assignment = tuple(const % p for (const, _), (_, p)
                           in zip(fixed_exprs, system.scalar_vars))
        return LinearSolveResult("unique", assignment=assignment)
    param = AffineParam(system.scalar_vars, free_sorted, tuple(fixed_exprs))
    return LinearSolveResult("param", param=param)


def _zero_and_units(k):
    """The zero vector of length k followed by the unit vectors, in order."""

    zero = (0,) * k
    return [zero] + [zero[:i] + (1,) + zero[i + 1:] for i in range(k)]


def basis_points(param: AffineParam):
    """The zero assignment followed by the unit assignments, in order."""

    return _zero_and_units(len(param.free_vars))


@dataclass(frozen=True)
class LearnOutcome:
    kind: str  # "full" | "empty" | "equation"
    coeffs: tuple | None = None
    rhs: int | None = None
    queries: int = 0


def learn_hyperplane(oracle, p, h) -> LearnOutcome:
    """Recover the equation of an affine subspace of Z_p^h of dimension h-1
    from a membership oracle, using at most p*h + 1 distinct queries.

    The oracle's accepted set must be full, empty, or such a hyperplane.
    First a rejected point d is located among 0 and the unit vectors; then
    each coordinate line through d is scanned.  Exactly one acceptance on a
    line fixes that coefficient (up to the global scale), none zeroes it.
    The result is normalized so the first nonzero coefficient is 1.
    """

    if not is_prime(p):
        raise FormatError("modulus %r is not prime" % (p,))
    cache = {}

    def ask(point):
        point = tuple(point)
        if point not in cache:
            cache[point] = bool(oracle(point))
        return cache[point]

    if h == 0:
        kind = "full" if ask(()) else "empty"
        return LearnOutcome(kind, queries=len(cache))

    d = None
    for pt in _zero_and_units(h):
        if not ask(pt):
            d = pt
            break
    if d is None:
        # 0 and the unit vectors affinely span the whole space
        return LearnOutcome("full", queries=len(cache))

    coeffs = [0] * h
    for i in range(h):
        hits = []
        for a in range(p):
            if a == d[i]:
                continue
            pt = d[:i] + (a,) + d[i + 1:]
            if ask(pt):
                hits.append(a)
        if len(hits) > 1:
            raise AffineStructureViolation(
                "line through a rejected point met the set twice"
            )
        if hits:
            coeffs[i] = pow((hits[0] - d[i]) % p, -1, p)
    if all(c == 0 for c in coeffs):
        return LearnOutcome("empty", queries=len(cache))
    rhs = (sum(c * v for c, v in zip(coeffs, d)) + 1) % p
    lead = next(c for c in coeffs if c)
    inv = pow(lead, -1, p)
    coeffs = tuple((c * inv) % p for c in coeffs)
    rhs = (rhs * inv) % p
    return LearnOutcome("equation", coeffs=coeffs, rhs=rhs, queries=len(cache))
