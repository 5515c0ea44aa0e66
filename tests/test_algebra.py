import itertools
import os
import pathlib
import random
import subprocess
import sys

import pytest

import wnucsp

from wnucsp.algebra import (
    Algebra,
    Congruence,
    OperationTable,
    abelian_sum_structure,
    _restricted_growth_strings,
    all_congruences,
    binary_terms,
    dual_discriminator_table,
    is_closed,
    is_polynomially_complete,
    is_subuniverse,
    linear_structure,
    majority_table,
    make_algebra,
    minority_table,
    quotient_algebra,
    restrict_algebra,
    search_special_wnu,
    unary_polynomial_closure,
    sum_table,
    upper_covers,
    verify_linear_iso,
    verify_special_wnu,
    wnu_closure,
    wnu_image,
)
from wnucsp.errors import FormatError, InvariantError, SizeError

from helpers import subuniverse_closure


def proj_table(n, m, i):
    return OperationTable(m, n, tuple(
        args[i] for args in itertools.product(range(n), repeat=m)))


# --- independent checkers used as oracles -----------------------------------


def special_wnu_by_definition(table):
    n, m = table.domain_size, table.arity
    for a in range(n):
        if table.apply([a] * m) != a:
            return False
    for a in range(n):
        for b in range(n):
            vals = set()
            for i in range(m):
                args = [a] * m
                args[i] = b
                vals.add(table.apply(args))
            if len(vals) != 1:
                return False
            c = vals.pop()
            if table.apply([a] * (m - 1) + [c]) != c:
                return False
    return True


def preserves(table, rel_tuples, arity):
    for rows in itertools.product(sorted(rel_tuples), repeat=table.arity):
        image = tuple(
            table.apply([rows[k][j] for k in range(table.arity)])
            for j in range(arity)
        )
        if image not in rel_tuples:
            return False
    return True


# --- verify_special_wnu ------------------------------------------------------


def test_verify_accepts_sum5_on_z4():
    assert verify_special_wnu(sum_table(4, 5)) == []


def test_verify_accepts_majority():
    assert verify_special_wnu(majority_table()) == []


def test_verify_rejects_projection_with_witness():
    violations = verify_special_wnu(proj_table(2, 3, 0))
    kinds = {k for k, _ in violations}
    assert "weak-near-unanimity" in kinds
    assert any(w == (0, 1) for k, w in violations if k == "weak-near-unanimity")


def test_verify_rejects_malformed_table():
    with pytest.raises(FormatError):
        OperationTable(3, 2, (0, 1, 1))


def build_wnu_from_pattern(n, circ, free):
    """Arity-3 table from the one-odd pattern values circ[(a,b)] and a value
    chooser for all-distinct argument tuples."""

    entries = []
    for args in itertools.product(range(n), repeat=3):
        vals = set(args)
        if len(vals) == 1:
            entries.append(args[0])
        elif len(vals) == 2:
            odd = [v for v in vals if args.count(v) == 1][0]
            base = next(v for v in vals if v != odd)
            entries.append(circ[(base, odd)])
        else:
            entries.append(free(args))
    return OperationTable(3, n, tuple(entries))


def test_verify_specialness_violation():
    # circ(0,1) = 2 but circ(0,2) = 1, so 0*(0*1) = 1 != 2 = 0*1; the WNU
    # identities still hold because the pattern cells are set group-wise
    circ = {(a, b): b for a in range(3) for b in range(3) if a != b}
    circ[(0, 1)] = 2
    circ[(0, 2)] = 1
    table = build_wnu_from_pattern(3, circ, lambda args: args[0])
    violations = verify_special_wnu(table)
    kinds = {k for k, _ in violations}
    assert kinds == {"specialness"}
    assert ("specialness", (0, 1)) in violations


# --- search_special_wnu ------------------------------------------------------


def test_search_finds_xor_preserving_itself():
    xor = frozenset(
        t for t in itertools.product(range(2), repeat=3) if sum(t) % 2 == 0
    )
    found = search_special_wnu(2, [xor], 3)
    assert found.exhausted and found.table is not None
    # oracle: lexicographically least of all 2^8 tables meeting the contract
    best = None
    for entries in itertools.product(range(2), repeat=8):
        cand = OperationTable(3, 2, entries)
        if special_wnu_by_definition(cand) and preserves(cand, xor, 3):
            best = cand
            break
    assert found.table == best


def test_search_exhausts_nae():
    nae = frozenset(
        t for t in itertools.product(range(2), repeat=3) if len(set(t)) > 1
    )
    found = search_special_wnu(2, [nae], 3)
    assert found.table is None and found.exhausted
    for entries in itertools.product(range(2), repeat=8):
        cand = OperationTable(3, 2, entries)
        assert not (special_wnu_by_definition(cand) and preserves(cand, nae, 3))


def test_search_single_element_domain():
    found = search_special_wnu(1, [], 3)
    assert found.table is not None
    assert found.table.entries == (0,)


def test_search_budget_exceeded():
    found = search_special_wnu(3, [], 4, budget=5)
    assert found.table is None and not found.exhausted


NAE2 = [t for t in itertools.product(range(2), repeat=3) if len(set(t)) > 1]


@pytest.mark.parametrize("n, arity, relations, budget", [
    (3, 3, [], 12),
    (4, 3, [], 36),
    (3, 4, [], 60),
    (4, 5, [], 972),
    (2, 3, [NAE2], 218),
])
def test_search_budget_boundary(n, arity, relations, budget):
    """One node per value tried: a budget one short stops the search, and
    the least sufficient budget gives the full result.  With no relation
    the canonical table is 0 off the diagonal."""

    short = search_special_wnu(n, relations, arity, budget=budget - 1)
    assert short.table is None and not short.exhausted
    found = search_special_wnu(n, relations, arity, budget=budget)
    assert found.exhausted
    if relations:
        assert found.table is None
    else:
        assert found.table.entries == tuple(
            args[0] if len(set(args)) == 1 else 0
            for args in itertools.product(range(n), repeat=arity))


# --- subuniverse closure ------------------------------------------------------


def test_closure_even_subset_z4(z4):
    assert subuniverse_closure(z4, {0, 2}) == frozenset({0, 2})


def test_closure_full_and_singleton(z4):
    assert subuniverse_closure(z4, set(range(4))) == frozenset(range(4))
    assert subuniverse_closure(z4, {3}) == frozenset({3})


def test_closure_operator_laws(z4, dd3, maj2):
    rng = random.Random(7)
    for alg in (z4, dd3, maj2):
        carrier = set(alg.elements)
        for _ in range(30):
            seed = {rng.choice(alg.elements)
                    for _ in range(rng.randint(1, alg.size))}
            a = subuniverse_closure(alg, seed)
            assert seed <= a  # extensive
            bigger = seed | {rng.choice(alg.elements)}
            assert a <= subuniverse_closure(alg, bigger)  # monotone
            assert subuniverse_closure(alg, a) == a  # idempotent
            assert a <= carrier


def test_is_subuniverse_matches_is_closed_on_solver_algebras(
        solver_instances):
    """Every subset of every base algebra and current-domain subalgebra the
    solver meets, asked twice, so the second answer comes from the cache."""

    pairs = {(base, dom) for inst in solver_instances
             for base, dom in zip(inst.base_algebras, inst.current_domains)}
    assert any(1 < len(dom) < base.size for base, dom in pairs)
    algebras = {alg for base, dom in pairs
                for alg in (base, restrict_algebra(base, dom))}
    verdicts = set()
    for alg in algebras:
        for size in range(alg.size + 1):
            for subset in itertools.combinations(alg.elements, size):
                want = is_closed((alg,), {(e,) for e in subset})
                assert is_subuniverse(alg, frozenset(subset)) == want
                assert is_subuniverse(alg, frozenset(subset)) == want
                verdicts.add(want)
    assert verdicts == {True, False}


def test_wnu_image_matches_coordinatewise_definition(z4, dd3, maj2, z2min,
                                                     and3):
    """The image is w applied coordinatewise to every m-tuple of tuples;
    element ids (3, 7, 9) check the position maps."""

    searched3 = make_algebra(range(3), search_special_wnu(3, [], 3).table)
    searched4 = make_algebra(range(4), search_special_wnu(4, [], 3).table)
    odd_ids = make_algebra((3, 7, 9), dual_discriminator_table())
    rng = random.Random(29)
    for pool in ((z4,), (dd3, maj2, z2min, and3, searched3, searched4,
                         odd_ids)):
        for _ in range(60):
            coords = tuple(rng.choice(pool)
                           for _ in range(rng.randint(1, 3)))
            tuples = {tuple(rng.choice(alg.elements) for alg in coords)
                      for _ in range(rng.randint(1, 5))}
            want = {tuple(alg.op([t[c] for t in args])
                          for c, alg in enumerate(coords))
                    for args in itertools.product(tuples,
                                                  repeat=coords[0].arity)}
            assert wnu_image(coords, tuples) == want


# --- congruences --------------------------------------------------------------


def direct_congruences(alg):
    """Oracle: filter every partition by the raw preservation definition."""

    elems = alg.elements
    n = len(elems)
    m = alg.arity

    def partitions(items):
        if not items:
            yield []
            return
        first, rest = items[0], items[1:]
        for part in partitions(rest):
            for i in range(len(part)):
                yield part[:i] + [[first] + part[i]] + part[i + 1:]
            yield [[first]] + part

    out = []
    for blocks in partitions(list(elems)):
        kernel = {e: i for i, b in enumerate(blocks) for e in b}
        pairs = [(a, b) for a in elems for b in elems if kernel[a] == kernel[b]]
        ok = True
        for rows in itertools.product(pairs, repeat=m):
            left = alg.op([r[0] for r in rows])
            right = alg.op([r[1] for r in rows])
            if kernel[left] != kernel[right]:
                ok = False
                break
        if ok:
            out.append(frozenset(frozenset(b) for b in blocks))
    return set(out)


def test_congruences_z4_match_oracle(z4):
    got = {frozenset(frozenset(b) for b in c.blocks) for c in all_congruences(z4)}
    assert got == direct_congruences(z4)
    assert len(got) == 3  # equality, mod 2, full


def test_restricted_growth_strings_are_every_set_partition():
    for n in range(7):
        want = set()
        for labels in itertools.product(range(n), repeat=n):
            first = {}
            want.add(tuple(first.setdefault(x, len(first)) for x in labels))
        assert list(_restricted_growth_strings(n)) == sorted(want)


def test_congruences_two_element(maj2, z2min):
    for alg in (maj2, z2min):
        got = {frozenset(frozenset(b) for b in c.blocks)
               for c in all_congruences(alg)}
        assert got == direct_congruences(alg)
        assert len(got) == 2


def test_congruences_dd3_match_oracle(dd3):
    got = {frozenset(frozenset(b) for b in c.blocks) for c in all_congruences(dd3)}
    assert got == direct_congruences(dd3)


def test_congruences_cap():
    with pytest.raises(SizeError):
        all_congruences(make_algebra(range(7), dual_discriminator_table(7)))


def test_one_element_algebra_congruences():
    alg = make_algebra([0], OperationTable(3, 1, (0,)))
    congs = all_congruences(alg)
    assert len(congs) == 1 and congs[0].is_equality and congs[0].is_full


# --- quotients ----------------------------------------------------------------


def test_quotient_z4_mod2_is_z2_sum(z4):
    mod2 = Congruence(((0, 2), (1, 3)))
    quotient, kmap = quotient_algebra(z4, mod2)
    assert quotient.elements == (0, 1)
    assert quotient.wnu == sum_table(2, 5)
    assert kmap == {0: 0, 2: 0, 1: 1, 3: 1}


def test_quotient_by_equality_is_copy(z4):
    eq = Congruence(tuple((e,) for e in z4.elements))
    quotient, _ = quotient_algebra(z4, eq)
    assert quotient.size == 4
    for args in itertools.product(range(4), repeat=5):
        assert quotient.op(args) == z4.op(args)


def test_quotient_by_full_is_trivial(z4):
    full = Congruence(((0, 1, 2, 3),))
    quotient, _ = quotient_algebra(z4, full)
    assert quotient.size == 1


def test_quotient_rejects_incompatible_partition(z4):
    with pytest.raises(InvariantError):
        quotient_algebra(z4, Congruence(((0, 1), (2, 3))))


# --- polynomial completeness --------------------------------------------------


def clone_binary_closure_2(table):
    """Oracle for |A|=2: the binary part of the clone with constants, built
    by closing projections and constants under pointwise application."""

    cells = list(itertools.product(range(2), repeat=2))
    start = {
        tuple(c[0] for c in cells),
        tuple(c[1] for c in cells),
        (0,) * 4,
        (1,) * 4,
    }
    current = set(start)
    m = table.arity
    while True:
        fresh = set()
        for combo in itertools.product(sorted(current), repeat=m):
            new = tuple(table.apply([t[c] for t in combo]) for c in range(4))
            if new not in current:
                fresh.add(new)
        if not fresh:
            return current
        current |= fresh


def brute_pc_2(table):
    closure = clone_binary_closure_2(table)
    all_binary = set(itertools.product(range(2), repeat=4))
    unary_as_binary = {
        tuple(g[c[0]] for c in itertools.product(range(2), repeat=2))
        for g in itertools.product(range(2), repeat=2)
    }
    return unary_as_binary <= closure and closure == all_binary


@pytest.mark.parametrize("table", [
    minority_table(), majority_table(), sum_table(2, 5),
])
def test_pc_two_element_against_clone_oracle(table):
    alg = make_algebra(range(2), table)
    assert is_polynomially_complete(alg) == brute_pc_2(table)


def test_pc_all_arity3_two_element_wnus():
    for entries in itertools.product(range(2), repeat=8):
        table = OperationTable(3, 2, entries)
        if not special_wnu_by_definition(table):
            continue
        alg = make_algebra(range(2), table)
        assert is_polynomially_complete(alg) == brute_pc_2(table)


def pc_by_ternary_closure_2(alg):
    """Reference for |A|=2: the ternary polynomial closure leaves both the
    monotone and the affine clones."""

    import wnucsp.algebra as algebra_mod

    cube = list(itertools.product(range(2), repeat=3))
    seed = {tuple(p[i] for p in cube) for i in range(3)}
    seed |= {(0,) * 8, (1,) * 8}
    affine = {tuple(c0 ^ (c1 & x) ^ (c2 & y) ^ (c3 & z) for x, y, z in cube)
              for c0, c1, c2, c3 in itertools.product(range(2), repeat=4)}
    pairs = [(i, j) for i in range(8) for j in range(8)
             if all(cube[i][k] <= cube[j][k] for k in range(3))]

    def decided(s):
        return (any(any(f[i] > f[j] for i, j in pairs) for f in s)
                and any(f not in affine for f in s))

    closed, complete = algebra_mod._pointwise_closure(alg, seed,
                                                      early_stop=decided)
    assert complete
    return decided(closed)


@pytest.mark.parametrize("arity,count,complete", [(3, 4, 0), (4, 256, 190)])
def test_pc_two_element_matches_ternary_closure(arity, count, complete):
    seen = decided = 0
    for entries in itertools.product(range(2), repeat=2 ** arity):
        table = OperationTable(arity, 2, entries)
        if not special_wnu_by_definition(table):
            continue
        alg = make_algebra(range(2), table)
        pc = is_polynomially_complete(alg)
        assert pc == pc_by_ternary_closure_2(alg)
        seen += 1
        decided += pc
    assert (seen, decided) == (count, complete)


def test_pc_dual_discriminator(dd3):
    assert is_polynomially_complete(dd3)


def test_pc_affine_z4_false(z4):
    assert not is_polynomially_complete(z4)


def clone_unary_coverage_3(table):
    """Oracle for |A|=3: plain textbook fixpoint over unary value vectors
    (identity and constants, closed under pointwise application of the
    operation — every unary polynomial arises this way since all subterms of
    a one-variable term are one-variable terms).  The clone with constants is
    full iff all 27 unary maps appear, the operation being idempotent and
    essential."""

    n = 3
    m = table.arity
    # essentiality: some argument position matters
    essential = False
    for j in range(m):
        for ctx in itertools.product(range(n), repeat=m - 1):
            vals = {table.apply(ctx[:j] + (a,) + ctx[j:]) for a in range(n)}
            if len(vals) > 1:
                essential = True
                break
        if essential:
            break
    assert essential
    current = {tuple(range(n))} | {(c,) * n for c in range(n)}
    while True:
        fresh = set()
        for combo in itertools.product(sorted(current), repeat=m):
            new = tuple(table.apply([f[x] for f in combo]) for x in range(n))
            if new not in current:
                fresh.add(new)
        if not fresh:
            return len(current) == n ** n
        current |= fresh
        if len(current) == n ** n:
            return True


def random_three_element_wnus(count, seed=11):
    """Seeded sample of special WNUs on {0,1,2}: the diagonal is forced, the
    one-odd pattern cells are drawn subject to the specialness rule, and the
    all-distinct cells are free.  Known structured families are mixed in."""

    rng = random.Random(seed)
    out = []
    seen = set()
    structured = [
        dual_discriminator_table(3),
        OperationTable(3, 3, tuple(
            sorted(t)[1] for t in itertools.product(range(3), repeat=3))),
        OperationTable(3, 3, tuple(
            min(t) for t in itertools.product(range(3), repeat=3))),
        OperationTable(3, 3, tuple(
            max(t) for t in itertools.product(range(3), repeat=3))),
    ]
    for table in structured:
        assert special_wnu_by_definition(table)
        seen.add(table.entries)
        out.append(table)
    while len(out) < count:
        circ = {}
        ok = True
        for a in range(3):
            for b in range(3):
                if a != b:
                    circ[(a, b)] = rng.randrange(3)
        for a in range(3):
            for b in range(3):
                if a == b:
                    continue
                c = circ[(a, b)]
                follow = c if c == a else circ[(a, c)]
                if follow != c:
                    ok = False
        if not ok:
            continue
        free_vals = {}

        def free(args):
            if args not in free_vals:
                free_vals[args] = rng.randrange(3)
            return free_vals[args]

        table = build_wnu_from_pattern(3, circ, free)
        if table.entries in seen:
            continue
        assert special_wnu_by_definition(table)
        seen.add(table.entries)
        out.append(table)
    return out


def test_pc_three_element_against_clone_oracle():
    for table in random_three_element_wnus(22):
        alg = make_algebra(range(3), table)
        assert is_polynomially_complete(alg) == clone_unary_coverage_3(table)


# --- linear structure -----------------------------------------------------------


def test_linear_z2_minority_identity(z2min):
    iso = linear_structure(z2min)
    assert iso is not None and iso.primes == (2,)
    assert dict(iso.forward) == {0: (0,), 1: (1,)}
    assert verify_linear_iso(z2min, iso)


def test_linear_z4_none_by_exhaustion(z4):
    assert linear_structure(z4) is None
    # oracle: no bijection to Z2 x Z2 makes sum-of-5 componentwise
    group = list(itertools.product(range(2), repeat=2))
    for perm in itertools.permutations(group):
        fwd = {e: perm[e] for e in range(4)}
        ok = True
        for args in itertools.product(range(4), repeat=5):
            want = tuple(sum(fwd[a][i] for a in args) % 2 for i in range(2))
            if fwd[z4.op(args)] != want:
                ok = False
                break
        assert not ok


def test_linear_majority_none(maj2):
    assert linear_structure(maj2) is None


def test_linear_one_element():
    alg = make_algebra([5], OperationTable(3, 1, (0,)))
    iso = linear_structure(alg)
    assert iso is not None and iso.primes == ()


# --- binary terms ----------------------------------------------------------------


def test_binary_terms_conjunction(and3):
    terms = binary_terms(and3)
    assert terms.complete
    entries = {t.entries for t in terms.tables}
    assert (0, 0, 0, 1) in entries  # x and y
    assert (0, 0, 1, 1) in entries  # first projection
    assert (0, 1, 0, 1) in entries  # second projection


def test_binary_terms_majority_only_projections(maj2):
    terms = binary_terms(maj2)
    assert terms.complete
    assert {t.entries for t in terms.tables} == {(0, 0, 1, 1), (0, 1, 0, 1)}


def test_binary_term_closure_leaves_numpy_ma_unimported():
    # np.unique imports numpy.ma on first use, about 12 ms in a fresh process
    code = ("import sys\n"
            "from wnucsp.algebra import binary_terms, "
            "dual_discriminator_table, make_algebra\n"
            "terms = binary_terms(make_algebra(range(3), "
            "dual_discriminator_table()))\n"
            "assert terms.complete\n"
            "assert 'numpy.ma' not in sys.modules\n")
    src = str(pathlib.Path(wnucsp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_binary_terms_one_element():
    alg = make_algebra([0], OperationTable(3, 1, (0,)))
    terms = binary_terms(alg)
    assert len(terms.tables) == 1


def test_binary_terms_closure_property(z4):
    # every member composed under the wnu stays inside the closure
    terms = binary_terms(z4)
    tables = {t.entries for t in terms.tables}
    m = z4.arity
    for combo in itertools.product(sorted(tables), repeat=m):
        new = tuple(
            z4.wnu.apply([t[c] for t in combo]) for c in range(16)
        )
        assert new in tables


# --- whole-table kernels against per-tuple references -------------------------


def naive_quotient_entries(alg, cong):
    """Quotient table from the operation applied to every m-tuple; None when
    some block combination yields values in two blocks."""

    kernel = cong.kernel()
    values = {}
    for args in itertools.product(alg.elements, repeat=alg.arity):
        combo = tuple(kernel[a] for a in args)
        values.setdefault(combo, set()).add(kernel[alg.op(args)])
    if any(len(v) != 1 for v in values.values()):
        return None
    return tuple(min(values[c]) for c in
                 itertools.product(range(len(cong.blocks)), repeat=alg.arity))


def searched3():
    return make_algebra(range(3), search_special_wnu(3, [], 3).table)


def test_quotient_matches_per_tuple_reference(z2min, dd3, z4):
    cases = [(alg, cong) for alg in (z2min, dd3, z4, searched3())
             for cong in all_congruences(alg)]
    z6 = make_algebra(range(6), sum_table(6, 7))
    cases += [(z6, Congruence(((0, 2, 4), (1, 3, 5)))),
              (z6, Congruence(((0, 3), (1, 4), (2, 5))))]
    for alg, cong in cases:
        quotient, kmap = quotient_algebra(alg, cong)
        assert quotient.elements == tuple(range(len(cong.blocks)))
        assert quotient.wnu.entries == naive_quotient_entries(alg, cong)
        assert kmap == cong.kernel()


def test_quotient_by_equality_equals_the_general_path(monkeypatch, z2min,
                                                     maj2, and3, dd3, z4):
    """The equality shortcut against the general table construction, which
    runs when ``is_equality`` reads False; a carrier that is not ascending
    keeps the general path."""

    z6 = make_algebra(range(6), sum_table(6, 7))
    shuffled = Algebra((2, 0, 1), dd3.wnu)
    algebras = (z2min, maj2, and3, dd3, z4, searched3(), z6,
                restrict_algebra(dd3, frozenset({0, 2})), shuffled)
    equalities = [Congruence(tuple((e,) for e in alg.elements))
                  for alg in algebras]
    fast = [quotient_algebra(alg, eq) for alg, eq in zip(algebras, equalities)]
    monkeypatch.setattr(Congruence, "is_equality", property(lambda self: False))
    for alg, eq, (quotient, kmap) in zip(algebras, equalities, fast):
        general, general_map = quotient_algebra.__wrapped__(alg, eq)
        assert quotient is general
        assert kmap == general_map == eq.kernel()
    assert fast[6][0] is Algebra(tuple(range(6)), z6.wnu)


def test_quotient_rejects_representative_dependence(monkeypatch, dd3):
    # {0, 1} | {2} is no congruence of the dual discriminator; with the
    # blockwise compatibility test bypassed the table check must catch it
    cong = Congruence(((0, 1), (2,)))
    assert naive_quotient_entries(dd3, cong) is None
    with pytest.raises(InvariantError):
        quotient_algebra(dd3, cong)
    monkeypatch.setattr("wnucsp.algebra._kernel_compatible",
                        lambda alg, kernel: True)
    with pytest.raises(InvariantError, match="representatives"):
        quotient_algebra(dd3, cong)


# --- pointwise closure rounds against T -> T | w(T^m) ---------------------------


# A random special WNU on three elements (from the seeded sweep in
# test_classify) whose binary terms close in three rounds: 2, 4, 10, 20.
TWENTY_TERMS = (0, 1, 2, 1, 0, 1, 2, 0, 2, 1, 0, 0, 0, 1, 0, 2, 0, 1, 2, 2,
                2, 1, 0, 1, 2, 1, 2)


def naive_iterates(alg, seed):
    """T, T | w(T^m), ... up to the fixpoint, with ``alg.wnu.apply`` applied
    cell by cell to every m-tuple of vectors."""

    apply = alg.wnu.apply
    current = frozenset(seed)
    out = [current]
    while True:
        step = current | {
            tuple(apply(col) for col in zip(*rows))
            for rows in itertools.product(current, repeat=alg.arity)}
        if step == current:
            return out
        current = frozenset(step)
        out.append(current)


def binary_seed(n):
    cells = list(itertools.product(range(n), repeat=2))
    return {tuple(c[0] for c in cells), tuple(c[1] for c in cells)}


def closure_algebras(dd3, maj2):
    # dd6 last: its 36-cell rows are too long to pack into one int64
    return [dd3, maj2, searched3(),
            make_algebra(range(3), OperationTable(3, 3, TWENTY_TERMS)),
            make_algebra(range(6), dual_discriminator_table(6))]


def test_binary_terms_match_naive_rounds(monkeypatch, dd3, maj2):
    import wnucsp.algebra as algebra_mod

    default_cap = algebra_mod._BINARY_TERMS_CAP
    for alg in closure_algebras(dd3, maj2):
        iterates = naive_iterates(alg, binary_seed(alg.size))
        full = iterates[-1]
        # a cap below the closure returns the first iterate above it
        for cap in [*range(2, len(full) + 1), default_cap]:
            monkeypatch.setattr(algebra_mod, "_BINARY_TERMS_CAP", cap)
            binary_terms.cache_clear()
            terms = binary_terms(alg)
            want = next((t for t in iterates if len(t) > cap), full)
            assert {t.entries for t in terms.tables} == want
            assert terms.complete == (len(full) <= cap)


def test_closure_budget_stops_between_rounds(monkeypatch):
    import wnucsp.algebra as algebra_mod

    alg = make_algebra(range(3), OperationTable(3, 3, TWENTY_TERMS))
    iterates = naive_iterates(alg, binary_seed(3))
    assert [len(t) for t in iterates] == [2, 4, 10, 20]
    for budget in (7, 8, 27, 100, 20 ** 3 - 1, 20 ** 3):
        monkeypatch.setattr(algebra_mod, "_CLOSURE_BUDGET", budget)
        closed, complete = algebra_mod._pointwise_closure(alg, binary_seed(3))
        # a round runs only if every m-tuple over its start set fits
        want = next((t for t in iterates if len(t) ** 3 > budget), None)
        assert closed == (iterates[-1] if want is None else want)
        assert complete == (want is None)


def test_vector_round_applies_every_tuple_with_a_frontier_row():
    import numpy as np

    from wnucsp.algebra import _vector_round

    rng = random.Random(5)
    # packed rows (3^5), unpacked rows (3^40 > 2^62), and an empty old set
    for n, m, ncells, n_old in ((3, 3, 5, 4), (3, 4, 40, 3), (2, 3, 4, 0)):
        table = OperationTable(m, n, tuple(rng.randrange(n)
                                           for _ in range(n ** m)))
        rows = list({tuple(rng.randrange(n) for _ in range(ncells))
                     for _ in range(n_old + 3)})
        old, frontier = rows[:n_old], rows[n_old:]
        want = {tuple(table.apply(col) for col in zip(*combo))
                for combo in itertools.product(rows, repeat=m)
                if any(r in frontier for r in combo)}
        got = _vector_round(np.array(old, dtype=np.int64).reshape(-1, ncells),
                            np.array(frontier, dtype=np.int64),
                            np.array(table.entries, dtype=np.int64), n, m)
        assert len(got) == len(set(got)) and set(got) == want


def test_unary_polynomial_closure_matches_naive_rounds(dd3, maj2):
    for alg in closure_algebras(dd3, maj2)[:4]:
        n = alg.size
        seed = {tuple(range(n))} | {(c,) * n for c in range(n)}
        assert unary_polynomial_closure(alg) == naive_iterates(alg, seed)[-1]


def test_equal_tables_compare_equal():
    import copy

    a = OperationTable(3, 3, [(x + y + z) % 3 for x, y, z in
                              itertools.product(range(3), repeat=3)])
    b = OperationTable(3, 3, tuple(sum_table(3, 3).entries))
    assert a == b and hash(a) == hash(b)
    c = copy.copy(a)
    assert c == a and hash(c) == hash(a)
    assert c != OperationTable(3, 3, (0,) * 27)
    with pytest.raises(FormatError):
        OperationTable(3, 2, a.entries[:8])


def test_algebras_are_interned():
    import copy
    import pickle

    t = sum_table(4, 5)
    z4 = Algebra(range(4), t)
    assert Algebra((0, 1, 2, 3), OperationTable(5, 4, list(t.entries))) is z4
    assert make_algebra(range(4), sum_table(4, 5)) is z4
    # the subalgebra on {0, 2} is the algebra built from an equal table
    sub = restrict_algebra(z4, frozenset({0, 2}))
    direct = Algebra((0, 2), OperationTable(5, 2, tuple(
        (0, 2).index(z4.op(args))
        for args in itertools.product((0, 2), repeat=5))))
    assert sub is direct
    assert copy.copy(z4) is z4 and copy.deepcopy(z4) is z4
    assert pickle.loads(pickle.dumps(z4)) is z4
    assert hash(z4) == hash((z4.elements, z4.wnu))
    with pytest.raises(FormatError, match="duplicate"):
        Algebra((0, 0, 1, 2), t)
    with pytest.raises(FormatError, match="size"):
        Algebra(range(3), t)


def per_tuple_group_sum_holds(alg, g):
    """w(x1..xm) == x1 + ... + xm + shift for every argument tuple, folded
    one tuple at a time."""

    for args in itertools.product(range(alg.size), repeat=alg.arity):
        acc = args[0]
        for a in args[1:]:
            acc = g.add[acc][a]
        if alg.wnu.apply(args) != g.add[acc][g.shift]:
            return False
    return True


def test_abelian_sum_structure_matches_per_tuple_reference(z2min, z4):
    z6 = make_algebra(range(6), sum_table(6, 7))
    for alg in (z2min, z4, z6):
        g = abelian_sum_structure(alg)
        assert g is not None
        assert per_tuple_group_sum_holds(alg, g)


def test_abelian_sum_structure_rejects_non_sums(dd3, z4):
    entries = list(z4.wnu.entries)
    pos = 0  # table position of (1, 2, 3, 1, 2), first argument high
    for a in (1, 2, 3, 1, 2):
        pos = pos * 4 + a
    entries[pos] = (entries[pos] + 1) % 4
    changed = Algebra(range(4), OperationTable(5, 4, tuple(entries)))
    for alg in (dd3, searched3(), changed):
        assert abelian_sum_structure(alg) is None


# --- upper covers and closedness on group and non-group coordinates ----------


def coordinate_cases(z2min, z4, dd3, maj2):
    """Coordinate tuples: abelian sums (Z2 minority, Z4 sum-of-5, Z6
    sum-of-7, Z2 and Z4 under one 5-ary sum) and non-group algebras."""

    z6 = make_algebra(range(6), sum_table(6, 7))
    z2sum5 = make_algebra(range(2), sum_table(2, 5))
    return [(z2min,) * 3, (z4,) * 2, (z4,) * 3, (z6,) * 2,
            (z2sum5, z4), (z4, z2sum5, z4), (dd3,) * 2, (maj2,) * 3,
            (searched3(),) * 2]


def test_upper_covers_match_one_closure_per_absent_tuple(z2min, z4, dd3,
                                                         maj2):
    """The coset dedup closes one tuple per coset; the result must be the
    closure of T plus each absent tuple, on closed T of every size."""

    rng = random.Random(41)
    for coords in coordinate_cases(z2min, z4, dd3, maj2):
        space = list(itertools.product(*(alg.elements for alg in coords)))
        closed_sets = {frozenset()}
        for _ in range(12):
            seed = rng.sample(space, rng.randint(1, 3))
            closed_sets.add(wnu_closure(coords, seed))
        for tset in closed_sets:
            want = {wnu_closure(coords, tset | {t})
                    for t in space if t not in tset}
            assert upper_covers(coords, tset) == want


def test_is_closed_matches_image_containment(z2min, z4, dd3, maj2):
    rng = random.Random(43)
    verdicts = set()
    for coords in coordinate_cases(z2min, z4, dd3, maj2):
        space = list(itertools.product(*(alg.elements for alg in coords)))
        for _ in range(25):
            tuples = set(rng.sample(space, rng.randint(0, len(space))))
            if rng.random() < 0.5:
                tuples = set(wnu_closure(coords, tuples))
            want = wnu_image(coords, tuples) <= tuples
            assert is_closed(coords, tuples) == want
            verdicts.add(want)
    assert verdicts == {True, False}
