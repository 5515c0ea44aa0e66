import itertools
import random

import pytest

from wnucsp.algebra import (
    Congruence,
    OperationTable,
    all_congruences,
    all_subuniverses,
    conjunction_table,
    is_affine,
    minority_table,
    make_algebra,
    quotient_algebra,
    restrict_algebra,
    search_special_wnu,
    sum_table,
)
from wnucsp.classify import (
    CenterSearch,
    _central_relations,
    _search_binary_absorbing,
    _search_center,
    _search_pc,
    classify_domain,
    con_lin,
    find_binary_absorbing,
    find_center,
    pc_structure,
    reflexive_invariant_binaries,
    verify_structure_report,
)
from wnucsp.errors import ArgumentError

from test_algebra import build_wnu_from_pattern, special_wnu_by_definition


def test_binary_absorbing_conjunction(and3):
    found = find_binary_absorbing(and3)
    assert found is not None
    b_set, term = found
    assert b_set == frozenset({0})
    assert term.entries == (0, 0, 0, 1)  # x and y


def test_binary_absorbing_majority_none(maj2):
    assert find_binary_absorbing(maj2) is None


def test_binary_absorbing_minority_none(z2min):
    assert find_binary_absorbing(z2min) is None


def test_center_majority_least_of_order(maj2):
    search = find_center(maj2)
    assert search.complete
    assert search.center == frozenset({0})
    assert search.witness.kind == "least_of_order"
    # the witness order is 0 <= 1
    assert search.witness.relation.tuples == {(0, 0), (0, 1), (1, 1)}


def test_center_dual_discriminator_none(dd3):
    search = find_center(dd3)
    assert search.complete and search.center is None


def test_center_one_element_none():
    alg = make_algebra([0], OperationTable(3, 1, (0,)))
    assert find_center(alg).center is None


def test_center_requires_no_absorption(and3):
    with pytest.raises(ArgumentError):
        find_center(and3)


def test_center_lifted_through_congruence():
    """Quotient of a 4-element algebra onto majority lifts its center."""

    # pair algebra: majority acting on {0,1} x {0,1} relabeled 0..3
    maj_e = []
    for args in itertools.product(range(4), repeat=3):
        bits = [(a >> 1, a & 1) for a in args]
        hi = 1 if sum(b[0] for b in bits) >= 2 else 0
        lo = 1 if sum(b[1] for b in bits) >= 2 else 0
        maj_e.append(hi * 2 + lo)
    alg = make_algebra(range(4), OperationTable(3, 4, tuple(maj_e)))
    assert find_binary_absorbing(alg) is None
    search = find_center(alg)
    assert search.center is not None
    report = classify_domain(alg)
    assert report.kind == "center"
    assert verify_structure_report(alg, report) == []


def test_pc_structure_dual_discriminator(dd3):
    congs = pc_structure(dd3)
    assert any(c.is_equality for c in congs)


def test_pc_structure_z4_empty(z4):
    assert pc_structure(z4) == ()


def test_pc_structure_one_element():
    alg = make_algebra([0], OperationTable(3, 1, (0,)))
    assert pc_structure(alg) == ()


def _affine_family():
    """Z2 minority, Z3 sum-of-4, Z4 sum-of-5 and Z6 sum-of-7, each with
    its subalgebras on subuniverses and their quotients."""

    algs = []
    for n, table in ((2, minority_table()), (3, sum_table(3, 4)),
                     (4, sum_table(4, 5)), (6, sum_table(6, 7))):
        alg = make_algebra(range(n), table)
        for sub in all_subuniverses(alg):
            part = restrict_algebra(alg, sub)
            algs.append(part)
            algs.extend(quotient_algebra(part, cong)[0]
                        for cong in all_congruences(part)
                        if not cong.is_equality)
    return algs


def test_affine_early_returns_match_the_general_searches():
    algs = _affine_family()
    assert len(algs) > 30
    for alg in algs:
        assert is_affine(alg)
        assert _search_binary_absorbing(alg) is None
        assert find_binary_absorbing(alg) is None
        general = _search_center(alg, 5)
        assert general.center is None
        assert general.complete == (alg.size - 1 <= 5)
        for cap in (2, 3, 5):
            assert find_center(alg, cap) == CenterSearch(None, None, True)
        assert _search_pc(alg) == ()
        assert pc_structure(alg) == ()


def test_con_lin_z4(z4):
    result = con_lin(z4)
    assert result.congruence == Congruence(((0, 2), (1, 3)))
    assert result.iso.primes == (2,)
    assert dict(result.iso.forward) == {0: (0,), 1: (1,)}


def test_con_lin_minority_equality(z2min):
    result = con_lin(z2min)
    assert result.congruence.is_equality
    assert result.iso.primes == (2,)


def test_con_lin_majority_full(maj2):
    result = con_lin(maj2)
    assert result.congruence.is_full
    assert result.iso.primes == ()


def test_classify_goldens(and3, maj2, dd3, z2min, z4):
    report = classify_domain(and3)
    assert report.kind == "binary_absorbing"
    assert report.subuniverse == frozenset({0})

    report = classify_domain(maj2)
    assert report.kind == "center"
    assert report.subuniverse == frozenset({0})

    report = classify_domain(dd3)
    assert report.kind == "pc_quotient"
    assert report.congruence.is_equality

    report = classify_domain(z2min)
    assert report.kind == "linear_quotient"
    assert report.congruence.is_equality

    report = classify_domain(z4)
    assert report.kind == "linear_quotient"
    assert report.congruence == Congruence(((0, 2), (1, 3)))


def test_classify_certificates_reverify(and3, maj2, dd3, z2min, z4):
    for alg in (and3, maj2, dd3, z2min, z4):
        report = classify_domain(alg)
        assert verify_structure_report(alg, report) == []


def test_classify_priority_stability(and3):
    # a binary absorbing outcome shadows everything else
    report = classify_domain(and3)
    assert report.kind == "binary_absorbing"
    assert report.witness is None and report.congruence is None


def test_classify_subalgebras_of_z4(z4):
    odd = restrict_algebra(z4, frozenset({1, 3}))
    report = classify_domain(odd)
    assert report.kind == "linear_quotient"
    assert report.congruence.is_equality
    assert verify_structure_report(odd, report) == []


def test_classify_never_fails_on_three_element_sweep():
    """Every special WNU sampled on <= 3 elements classifies cleanly."""

    rng = random.Random(23)
    checked = 0
    # all arity-3 special WNUs on two elements
    for entries in itertools.product(range(2), repeat=8):
        table = OperationTable(3, 2, entries)
        if special_wnu_by_definition(table):
            alg = make_algebra(range(2), table)
            report = classify_domain(alg)
            assert verify_structure_report(alg, report) == []
            checked += 1
    assert checked == 4
    # seeded random sample on three elements
    for _ in range(40):
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
                if c != a and circ[(a, c)] != c:
                    ok = False
        if not ok:
            continue
        cache = {}

        def free(args):
            if args not in cache:
                cache[args] = rng.randrange(3)
            return cache[args]

        table = build_wnu_from_pattern(3, circ, free)
        alg = make_algebra(range(3), table)
        report = classify_domain(alg)
        assert verify_structure_report(alg, report) == []


def test_quotient_of_conjunction_absorbs(and3, z4):
    # lifting sanity: classifying quotients never raises on these algebras
    for alg in (and3, z4):
        for blocks in [tuple((e,) for e in alg.elements)]:
            quotient, _ = quotient_algebra(alg, Congruence(blocks))
            if quotient.size >= 2:
                classify_domain(quotient)


def _brute_invariant_binaries(alg, keep):
    """Subsets of A^2 passing ``keep`` that the WNU preserves, found by
    enumerating every subset and applying ``alg.op`` to every m-tuple."""

    space = list(itertools.product(alg.elements, repeat=2))
    out = []
    for mask in range(1 << len(space)):
        ts = frozenset(t for i, t in enumerate(space) if mask >> i & 1)
        if keep(ts) and all(
                tuple(alg.op(col) for col in zip(*rows)) in ts
                for rows in itertools.product(ts, repeat=alg.arity)):
            out.append(ts)
    return sorted(out, key=lambda s: (len(s), tuple(sorted(s))))


def test_relation_walks_match_subset_enumeration(z2min, maj2, and3, dd3):
    searched3 = make_algebra(range(3), search_special_wnu(3, [], 3).table)
    for alg in (z2min, maj2, and3, dd3, searched3):
        elems = alg.elements
        diag = {(a, a) for a in elems}
        reflexive = _brute_invariant_binaries(alg, lambda ts: diag <= ts)
        assert [r.tuples for r in reflexive_invariant_binaries(alg)] \
            == reflexive

        def central(ts):
            return (diag <= ts and len(ts) < len(elems) ** 2
                    and all((b, a) in ts for a, b in ts))

        want = []
        for ts in _brute_invariant_binaries(alg, central):
            center = {a for a in elems if all((a, b) in ts for b in elems)}
            if center:
                want.append((ts, center))
        assert [(r.tuples, c) for r, c in _central_relations(alg, 2)] == want


def _closure_permuting_everything(alg, h, seed):
    """Reference: every round applies every permutation to every tuple."""

    from wnucsp.algebra import wnu_closure

    current = set(seed)
    while True:
        sym = {tuple(t[i] for i in perm)
               for t in current for perm in itertools.permutations(range(h))}
        grown = wnu_closure((alg,) * h, current | sym)
        if grown == current:
            return frozenset(current)
        current = set(grown)


def test_symmetric_closure_matches_all_permutations(dd3):
    from wnucsp.classify import _symmetric_wnu_closure, _totally_reflexive_base

    searched = make_algebra(range(3), search_special_wnu(3, [], 3).table)
    rng = random.Random(5)
    for alg in (dd3, searched):
        for h in (3, 4):
            space = list(itertools.product(alg.elements, repeat=h))
            seeds = [_totally_reflexive_base(alg, h)]
            # dd3 closes random 4-ary seeds to the whole power at about 2 s
            # a closure, so there the base alone is checked
            count = 0 if (alg is dd3 and h == 4) else 12
            seeds += [rng.sample(space, rng.randint(1, 4))
                      for _ in range(count)]
            for seed in seeds:
                assert (_symmetric_wnu_closure(alg, h, seed)
                        == _closure_permuting_everything(alg, h, seed))
