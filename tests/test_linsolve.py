import itertools

import pytest

from wnucsp.errors import AffineStructureViolation, FormatError
from wnucsp.linsolve import (
    AffineParam,
    Equation,
    LearnOutcome,
    LinearSystem,
    basis_points,
    learn_hyperplane,
    nullspace_mod_p,
    rref_mod_p,
    solve_linear_system,
)


def golden_system():
    sv = tuple(("x%d" % i, 2) for i in range(1, 5))
    eqs = (
        Equation((1, 0, 1, 1), 0, 2),
        Equation((0, 1, 1, 1), 0, 2),
        Equation((1, 1, 0, 0), 0, 2),
    )
    return LinearSystem(sv, eqs)


def test_solve_golden_free_variables():
    res = solve_linear_system(golden_system())
    assert res.kind == "param"
    assert [name for _, name, _ in res.param.free_vars] == ["x1", "x3"]
    # x2 = x1, x4 = x1 + x3
    assert res.param.evaluate((1, 0)) == (1, 1, 0, 1)
    assert res.param.evaluate((0, 1)) == (0, 0, 1, 1)
    assert res.param.evaluate((1, 1)) == (1, 1, 1, 0)


def test_solve_golden_with_pin():
    base = golden_system()
    pinned = LinearSystem(base.scalar_vars,
                          base.equations + (Equation((1, 0, 0, 0), 1, 2),))
    res = solve_linear_system(pinned)
    assert res.kind == "param"
    assert [name for _, name, _ in res.param.free_vars] == ["x3"]
    assert res.param.evaluate((0,)) == (1, 1, 0, 1)
    assert res.param.evaluate((1,)) == (1, 1, 1, 0)


def test_solve_inconsistent():
    sys_ = LinearSystem((("x", 2),),
                        (Equation((1,), 0, 2), Equation((1,), 1, 2)))
    assert solve_linear_system(sys_).kind == "inconsistent"


def test_solve_unique():
    sys_ = LinearSystem((("x", 2), ("y", 3)),
                        (Equation((1, 0), 1, 2), Equation((0, 2), 1, 3)))
    res = solve_linear_system(sys_)
    assert res.kind == "unique"
    assert res.assignment == (1, 2)  # 2*2 = 4 = 1 mod 3


def test_solve_rejects_non_prime_modulus():
    with pytest.raises(FormatError):
        LinearSystem((("x", 4),), ())


def test_solve_rejects_cross_block_equation():
    with pytest.raises(FormatError):
        LinearSystem((("x", 2), ("y", 3)), (Equation((1, 1), 0, 2),))


def test_param_bijection_exhaustive():
    """Every free assignment gives a distinct solution and every system
    solution is hit, for systems with up to 3 free variables, p in {2,3}."""

    import random

    rng = random.Random(13)
    for p in (2, 3):
        for nvars in (2, 3, 4):
            for trial in range(30):
                sv = tuple(("v%d" % i, p) for i in range(nvars))
                eqs = tuple(
                    Equation(tuple(rng.randrange(p) for _ in range(nvars)),
                             rng.randrange(p), p)
                    for _ in range(rng.randint(0, nvars))
                )
                sys_ = LinearSystem(sv, eqs)
                truth = {
                    v for v in itertools.product(range(p), repeat=nvars)
                    if all(sum(c * x for c, x in zip(e.coeffs, v)) % p == e.rhs
                           for e in eqs)
                }
                res = solve_linear_system(sys_)
                if res.kind == "inconsistent":
                    assert not truth
                    continue
                if res.kind == "unique":
                    assert truth == {res.assignment}
                    continue
                param = res.param
                images = {param.evaluate(a) for a in param.points()}
                assert images == truth
                assert len(images) == param.space_size()


def test_solve_is_involution_stable():
    """Re-solving the solved form (pivot equations as constraints) returns
    the same parameterization."""

    res = solve_linear_system(golden_system())
    param = res.param
    sv = param.scalar_vars
    eqs = []
    free_idx = {i for i, _, _ in param.free_vars}
    for i, (name, p) in enumerate(sv):
        if i in free_idx:
            continue
        const, terms = param.exprs[i]
        coeffs = [0] * len(sv)
        coeffs[i] = 1
        for slot, coeff in terms:
            coeffs[param.free_vars[slot][0]] = (-coeff) % p
        eqs.append(Equation(tuple(coeffs), const, p))
    res2 = solve_linear_system(LinearSystem(sv, tuple(eqs)))
    assert res2.kind == "param"
    assert res2.param.free_vars == param.free_vars
    assert res2.param.exprs == param.exprs


def test_basis_points():
    param = solve_linear_system(golden_system()).param
    assert basis_points(param) == [(0, 0), (1, 0), (0, 1)]
    empty = AffineParam((), (), ())
    assert basis_points(empty) == [()]


def test_basis_points_single_z3():
    sys_ = LinearSystem((("a", 3), ("b", 3)), (Equation((0, 1), 0, 3),))
    param = solve_linear_system(sys_).param
    assert [name for _, name, _ in param.free_vars] == ["a"]
    assert basis_points(param) == [(0,), (1,)]


# --- learning -----------------------------------------------------------------


def test_learn_x1_equals_1():
    out = learn_hyperplane(lambda v: v[0] == 1, 2, 2)
    assert out.kind == "equation"
    assert out.coeffs == (1, 0) and out.rhs == 1
    assert out.queries <= 5


def test_learn_full():
    out = learn_hyperplane(lambda v: True, 2, 2)
    assert out.kind == "full"


def test_learn_empty():
    out = learn_hyperplane(lambda v: False, 3, 2)
    assert out.kind == "empty"


def test_learn_in_zero_dimensions():
    # Z_p^0 has one point, the empty vector: the set is full or empty
    for accepted, kind in ((True, "full"), (False, "empty")):
        asked = []
        out = learn_hyperplane(lambda v: asked.append(v) or accepted, 3, 0)
        assert out == LearnOutcome(kind, queries=1)
        assert asked == [()]


def test_learn_z3_equation():
    out = learn_hyperplane(lambda v: (v[0] + 2 * v[1]) % 3 == 1, 3, 2)
    assert out.kind == "equation"
    assert out.coeffs == (1, 2) and out.rhs == 1


def test_learn_rejects_non_affine_structure():
    # a coordinate line through the rejected origin meets this set twice
    bad = {(0, 1), (0, 2), (1, 0)}
    with pytest.raises(AffineStructureViolation):
        learn_hyperplane(lambda v: v in bad, 3, 2)


def test_learn_exhaustive_all_hyperplanes():
    for p in (2, 3):
        for h in (1, 2, 3):
            for coeffs in itertools.product(range(p), repeat=h):
                if not any(coeffs):
                    continue
                for rhs in range(p):
                    space = set(itertools.product(range(p), repeat=h))
                    plane = {
                        v for v in space
                        if sum(c * x for c, x in zip(coeffs, v)) % p == rhs
                    }
                    out = learn_hyperplane(lambda v: v in plane, p, h)
                    assert out.kind == "equation"
                    got = {
                        v for v in space
                        if sum(c * x for c, x in zip(out.coeffs, v)) % p
                        == out.rhs
                    }
                    assert got == plane
                    assert out.queries <= p * h + 1
                    assert next(c for c in out.coeffs if c) == 1


def test_rref_and_nullspace_roundtrip():
    rows = [[1, 1, 0], [0, 1, 1]]
    red, pivots = rref_mod_p(rows, 2)
    assert pivots == [0, 1]
    basis = nullspace_mod_p(rows, 3, 2)
    assert basis == [[1, 1, 1]]
    for b in basis:
        for r in rows:
            assert sum(x * y for x, y in zip(r, b)) % 2 == 0
